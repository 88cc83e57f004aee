//! The resident page table (paper §3.1).
//!
//! "Physical memory in Mach is treated primarily as a cache for the
//! contents of virtual memory objects." Each machine-independent page has
//! an entry that may simultaneously be linked into:
//!
//! 1. a **memory object list** (kept in [`crate::object::VmObject`]), and
//! 2. a **memory allocation queue** (free / active / inactive / wired,
//!    kept here, used by the paging daemon).
//!
//! The paper also hashes each page on (object, offset) for fast lookup at
//! page-fault time. Here the object's own resident map
//! ([`crate::object::ObjState::resident`], keyed by offset and read under
//! the object lock the fault already holds) is that index, so this table
//! keeps no second one. A page's [`PageIdentity`] is the back pointer the
//! paging daemon follows from a queue to the object.
//!
//! A Mach page is a boot-time power-of-two multiple of the hardware page
//! size and need not correspond to it (§3.1); this table deals only in
//! Mach pages.
//!
//! # Busy pages
//!
//! A page being filled, cleaned, torn down or mapped is **busy**. A fault
//! that finds it busy sets `wanted` and sleeps on the object's
//! `busy_wakeup`, holding the object lock from its check until it sleeps.
//! Every busy period ends in [`ResidentTable::release`] or
//! [`ResidentTable::free_page`], which report whether `wanted` was set;
//! only then does the caller wake the object's waiters, under the object
//! lock (Mach's `PAGE_WAKEUP`).
//!
//! # Concurrency
//!
//! The table is built for genuinely concurrent fault streams (one host
//! thread per simulated CPU):
//!
//! - **Page state and queues** live in [`QUEUE_SHARDS`] shards keyed by
//!   page id; the active/inactive deques are per-shard so the pageout
//!   daemon and faulting CPUs contend only within a shard.
//! - **The free pool** is a per-CPU stack per possible CPU (slot picked
//!   by [`mach_hw::machine::bound_cpu`]) refilled in batches of
//!   [`REFILL_BATCH`] from a global reserve; when a local stack exceeds
//!   [`LOCAL_FREE_CAP`] half of it spills back. An empty reserve falls
//!   back to stealing from other CPUs' stacks, so no allocation fails
//!   while any free page exists anywhere.
//! - **Queue counts** are maintained as relaxed per-shard atomics, so
//!   [`ResidentTable::counts`] (called from `vm_statistics`, the daemon's
//!   pacing check and the health gauges) never takes a shard lock.
//!
//! Lock order within this module: page-state shard → free-list/reserve.
//! No method ever holds two shards of the same kind at once. Callers
//! (fault, pageout, object teardown) take the owning object's lock
//! *before* any shard lock — see the lock hierarchy in DESIGN.md §8.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Weak;

use mach_hw::addr::PAddr;
use mach_hw::lock::{KernelMutex, LockSite};

use crate::object::VmObject;

/// Page-state/queue shard count (power of two).
pub const QUEUE_SHARDS: usize = 8;
/// Pages moved from the global reserve to a CPU's free stack per refill.
pub const REFILL_BATCH: usize = 16;
/// A CPU free stack above this spills half back to the global reserve.
pub const LOCAL_FREE_CAP: usize = 64;

/// A machine-independent page of physical memory, identified by
/// `physical address / page size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// The base physical address of the page.
    pub fn base(self, page_size: u64) -> PAddr {
        PAddr(self.0 * page_size)
    }
}

/// Which allocation queue a page is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageQueue {
    /// Available for allocation.
    Free,
    /// Recently used.
    Active,
    /// Candidate for pageout.
    Inactive,
    /// Wired down; never paged out.
    Wired,
}

/// Mutable state of one resident page.
#[derive(Debug)]
pub struct PageInfo {
    /// Queue membership.
    pub queue: PageQueue,
    /// Owning object and byte offset within it (a page belongs to at most
    /// one memory object — paper §3.1).
    pub identity: Option<PageIdentity>,
    /// Page is being filled or cleaned; waiters block on the object.
    pub busy: bool,
    /// Someone is waiting for `busy` to clear.
    pub wanted: bool,
    /// Wiring count.
    pub wire_count: u32,
    /// Known-dirty hint (e.g. filled by a COW push); the pmap modify bit
    /// is the authoritative source at pageout time.
    pub dirty: bool,
}

/// The (object, offset) identity of a resident page.
#[derive(Debug, Clone)]
pub struct PageIdentity {
    /// Owning object's id.
    pub object_id: u64,
    /// Byte offset within the object.
    pub offset: u64,
    /// Back pointer for the pageout daemon.
    pub object: Weak<VmObject>,
}

/// One page-state shard: the pages whose ids hash here, plus their
/// active/inactive queue segments.
#[derive(Debug, Default)]
struct RtShard {
    pages: HashMap<u64, PageInfo>,
    active: VecDeque<u64>,
    inactive: VecDeque<u64>,
}

impl RtShard {
    /// Take page `id` off queue `q`, keeping the shard's tally `t` in
    /// step. The free pool lives outside the shards, so a free page is on
    /// no queue here: unlinking one is a double free.
    fn unlink(&mut self, t: &ShardTally, id: u64, q: PageQueue) {
        match q {
            PageQueue::Active => {
                self.active.retain(|&p| p != id);
                t.active.fetch_sub(1, Ordering::Relaxed);
            }
            PageQueue::Inactive => {
                self.inactive.retain(|&p| p != id);
                t.inactive.fetch_sub(1, Ordering::Relaxed);
            }
            PageQueue::Wired => {
                t.wired.fetch_sub(1, Ordering::Relaxed);
            }
            PageQueue::Free => panic!("page {id} is already free"),
        }
    }

    /// Put page `id` on the tail of queue `q`. Only
    /// [`ResidentTable::free_page`] returns a page to the free pool.
    fn link(&mut self, t: &ShardTally, id: u64, q: PageQueue) {
        match q {
            PageQueue::Active => {
                self.active.push_back(id);
                t.active.fetch_add(1, Ordering::Relaxed);
            }
            PageQueue::Inactive => {
                self.inactive.push_back(id);
                t.inactive.fetch_add(1, Ordering::Relaxed);
            }
            PageQueue::Wired => {
                t.wired.fetch_add(1, Ordering::Relaxed);
            }
            PageQueue::Free => panic!("page {id}: only free_page frees a page"),
        }
    }
}

/// Relaxed queue-length counters for one shard, maintained under the
/// shard lock but readable without it.
#[derive(Debug, Default)]
struct ShardTally {
    active: AtomicU64,
    inactive: AtomicU64,
    wired: AtomicU64,
}

/// Counts exposed through `vm_statistics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCounts {
    /// Pages on the free queue.
    pub free: u64,
    /// Pages on the active queue.
    pub active: u64,
    /// Pages on the inactive queue.
    pub inactive: u64,
    /// Wired pages.
    pub wired: u64,
}

/// splitmix64 finalizer: cheap avalanche for shard selection.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The resident page table.
#[derive(Debug)]
pub struct ResidentTable {
    page_size: u64,
    /// Page state + queue segments, sharded by page id.
    shards: Vec<KernelMutex<RtShard>>,
    tallies: Vec<ShardTally>,
    /// Global free reserve (boot donations land here).
    reserve: KernelMutex<Vec<u64>>,
    /// Per-CPU free stacks, indexed by [`mach_hw::machine::bound_cpu`]
    /// modulo the slot count.
    locals: Vec<KernelMutex<Vec<u64>>>,
    free_len: AtomicU64,
}

impl ResidentTable {
    /// An empty table for `page_size`-byte pages with one free-list slot
    /// (uniprocessor layout).
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    pub fn new(page_size: u64) -> ResidentTable {
        ResidentTable::with_cpus(page_size, 1)
    }

    /// An empty table with one per-CPU free-list slot per simulated CPU.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    pub fn with_cpus(page_size: u64, cpus: usize) -> ResidentTable {
        assert!(page_size.is_power_of_two());
        fn locks<T: Default>(n: usize, site: LockSite) -> Vec<KernelMutex<T>> {
            (0..n)
                .map(|_| KernelMutex::new(site, T::default()))
                .collect()
        }
        ResidentTable {
            page_size,
            shards: locks(QUEUE_SHARDS, LockSite::PageQueueShard),
            tallies: (0..QUEUE_SHARDS).map(|_| ShardTally::default()).collect(),
            reserve: KernelMutex::new(LockSite::FreeReserve, Vec::new()),
            locals: locks(cpus.max(1), LockSite::FreeLocal),
            free_len: AtomicU64::new(0),
        }
    }

    /// The machine-independent page size.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Number of page-state/queue shards (for work-stealing sweeps).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn qs(&self, id: u64) -> usize {
        (mix(id) as usize) & (self.shards.len() - 1)
    }

    #[inline]
    fn slot(&self) -> usize {
        mach_hw::machine::bound_cpu() % self.locals.len()
    }

    /// Donate a physical page (by id) to the free pool at boot.
    pub fn donate(&self, id: PageId) {
        {
            let mut g = self.shards[self.qs(id.0)].lock();
            let prev = g.pages.insert(
                id.0,
                PageInfo {
                    queue: PageQueue::Free,
                    identity: None,
                    busy: false,
                    wanted: false,
                    wire_count: 0,
                    dirty: false,
                },
            );
            assert!(prev.is_none(), "page {id:?} donated twice");
        }
        self.reserve.lock().push(id.0);
        self.free_len.fetch_add(1, Ordering::Relaxed);
    }

    /// Queue counts, read from relaxed per-shard counters — no shard lock
    /// is taken, so statistics and health gauges never stall a faulting
    /// CPU. Exact whenever the table is quiescent.
    pub fn counts(&self) -> PageCounts {
        let mut c = PageCounts {
            free: self.free_len.load(Ordering::Relaxed),
            ..PageCounts::default()
        };
        for t in &self.tallies {
            c.active += t.active.load(Ordering::Relaxed);
            c.inactive += t.inactive.load(Ordering::Relaxed);
            c.wired += t.wired.load(Ordering::Relaxed);
        }
        c
    }

    /// Pop a free page id: local stack, then a batched refill from the
    /// reserve, then stealing from other CPUs' stacks.
    fn take_free(&self) -> Option<u64> {
        let slot = self.slot();
        if let Some(id) = self.locals[slot].lock().pop() {
            self.free_len.fetch_sub(1, Ordering::Relaxed);
            return Some(id);
        }
        let mut batch = {
            let mut r = self.reserve.lock();
            let take = REFILL_BATCH.min(r.len());
            let at = r.len() - take;
            r.split_off(at)
        };
        if let Some(id) = batch.pop() {
            if !batch.is_empty() {
                self.locals[slot].lock().append(&mut batch);
            }
            self.free_len.fetch_sub(1, Ordering::Relaxed);
            return Some(id);
        }
        // Reserve dry: steal from another CPU's stack.
        for i in 1..=self.locals.len() {
            let other = (slot + i) % self.locals.len();
            if let Some(id) = self.locals[other].lock().pop() {
                self.free_len.fetch_sub(1, Ordering::Relaxed);
                return Some(id);
            }
        }
        None
    }

    /// Return a page id to the free pool (local stack, spilling half to
    /// the reserve past [`LOCAL_FREE_CAP`]).
    fn give_free(&self, id: u64) {
        let slot = self.slot();
        let spill = {
            let mut l = self.locals[slot].lock();
            l.push(id);
            if l.len() > LOCAL_FREE_CAP {
                let keep = l.len() / 2;
                Some(l.drain(..keep).collect::<Vec<u64>>())
            } else {
                None
            }
        };
        if let Some(batch) = spill {
            self.reserve.lock().extend(batch);
        }
        self.free_len.fetch_add(1, Ordering::Relaxed);
    }

    /// Allocate a free page for `(object, offset)`; the page starts
    /// **busy** on the active queue. `None` when the free pool is empty
    /// (the caller must reclaim and retry).
    ///
    /// The caller enters the page in the object's resident map under the
    /// object lock, which also serializes allocations for one offset.
    pub fn alloc(&self, object_id: u64, offset: u64, object: Weak<VmObject>) -> Option<PageId> {
        let id = self.take_free()?;
        let s = self.qs(id);
        let mut g = self.shards[s].lock();
        let info = g.pages.get_mut(&id).expect("free page exists");
        info.queue = PageQueue::Active;
        info.identity = Some(PageIdentity {
            object_id,
            offset,
            object,
        });
        info.busy = true;
        g.link(&self.tallies[s], id, PageQueue::Active);
        Some(PageId(id))
    }

    /// Run `f` on the page's mutable state.
    ///
    /// # Panics
    ///
    /// Panics if the page is unknown.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&mut PageInfo) -> R) -> R {
        let mut g = self.shards[self.qs(id.0)].lock();
        f(g.pages.get_mut(&id.0).expect("known page"))
    }

    /// Move a page between the active/inactive/wired queues.
    ///
    /// Silently does nothing if the page is currently **free**: queue
    /// moves are requested for candidate lists sampled without a claim
    /// (the daemon's refill sweep, a second-chance reactivation), so by
    /// the time the move runs the page may have been freed — or freed
    /// and be mid-`alloc` on another CPU. A free page leaves the free
    /// pool only through [`ResidentTable::alloc`], and enters it only
    /// through [`ResidentTable::free_page`].
    pub fn set_queue(&self, id: PageId, queue: PageQueue) {
        let s = self.qs(id.0);
        let mut g = self.shards[s].lock();
        let info = g.pages.get_mut(&id.0).expect("known page");
        let old = info.queue;
        if old == queue || old == PageQueue::Free {
            return;
        }
        info.queue = queue;
        g.unlink(&self.tallies[s], id.0, old);
        g.link(&self.tallies[s], id.0, queue);
    }

    /// End a busy period without freeing the page: clear `busy`, and set
    /// the dirty hint when `dirty`. Returns whether a waiter had set
    /// `wanted` (and clears it); the caller, holding the owning object's
    /// lock, then wakes the object's `busy_wakeup`. Balances an
    /// [`ResidentTable::alloc`], a claim, or a fault's hold on the page.
    pub fn release(&self, id: PageId, dirty: bool) -> bool {
        self.with_page(id, |info| {
            info.busy = false;
            info.dirty |= dirty;
            std::mem::take(&mut info.wanted)
        })
    }

    /// Release a page back to the free pool, clearing its identity.
    /// Returns whether a waiter had set `wanted`, as
    /// [`ResidentTable::release`] does.
    ///
    /// # Panics
    ///
    /// Panics if the page is wired or already free.
    pub fn free_page(&self, id: PageId) -> bool {
        let s = self.qs(id.0);
        let wanted = {
            let mut g = self.shards[s].lock();
            let info = g.pages.get_mut(&id.0).expect("known page");
            assert!(info.wire_count == 0, "cannot free a wired page");
            let old = std::mem::replace(&mut info.queue, PageQueue::Free);
            info.identity = None;
            info.busy = false;
            info.dirty = false;
            let wanted = std::mem::take(&mut info.wanted);
            g.unlink(&self.tallies[s], id.0, old);
            wanted
        };
        self.give_free(id.0);
        wanted
    }

    /// Change a page's identity (shadow-chain collapse moves pages between
    /// objects without copying them).
    ///
    /// # Panics
    ///
    /// Panics if the page has no identity.
    pub fn rekey(&self, id: PageId, object_id: u64, offset: u64, object: Weak<VmObject>) {
        self.with_page(id, |info| {
            let ident = info.identity.as_mut().expect("page has identity");
            *ident = PageIdentity {
                object_id,
                offset,
                object,
            };
        });
    }

    /// Drop a page's (object, offset) identity without freeing the frame.
    /// Used when a page leaves its object's resident map ahead of the
    /// frame being released (pageout writes the frame to backing store
    /// first), so the identity never names a map that no longer holds the
    /// page.
    pub fn clear_identity(&self, id: PageId) {
        self.with_page(id, |info| info.identity = None);
    }

    /// Atomically claim a page for eviction: only an un-busy, un-wired
    /// page still on the inactive queue can be claimed, and claiming
    /// marks it busy so no one else (fault handler or a concurrent
    /// reclaimer) touches it. Balance with [`ResidentTable::release`]
    /// or [`ResidentTable::free_page`].
    pub fn claim_evict(&self, id: PageId) -> bool {
        let mut g = self.shards[self.qs(id.0)].lock();
        let Some(info) = g.pages.get_mut(&id.0) else {
            return false;
        };
        if info.queue != PageQueue::Inactive || info.busy || info.wire_count > 0 {
            return false;
        }
        info.busy = true;
        true
    }

    /// Atomically claim a page for teardown (object termination,
    /// quarantine, pager-requested flush). Fails if the page is already
    /// busy — an in-flight fill or pageout owns it and will free or
    /// release it itself — or already free, or (unless `allow_wired`)
    /// wired. Claiming marks the page busy under the shard lock, so a
    /// concurrent [`ResidentTable::claim_evict`] and a teardown can never
    /// both think they own the same frame. Balance with
    /// [`ResidentTable::free_page`] or [`ResidentTable::release`].
    pub fn claim_teardown(&self, id: PageId, allow_wired: bool) -> bool {
        let mut g = self.shards[self.qs(id.0)].lock();
        let Some(info) = g.pages.get_mut(&id.0) else {
            return false;
        };
        if info.busy || info.queue == PageQueue::Free || (!allow_wired && info.wire_count > 0) {
            return false;
        }
        info.busy = true;
        true
    }

    /// Oldest inactive pages (pageout candidates), up to `n`, sweeping
    /// shards from shard 0.
    pub fn inactive_candidates(&self, n: usize) -> Vec<PageId> {
        self.inactive_candidates_from(0, n)
    }

    /// Oldest inactive pages, up to `n`, sweeping shards starting at
    /// `start` — a reclaiming CPU scans "its" shard first and steals from
    /// the rest only as needed.
    pub fn inactive_candidates_from(&self, start: usize, n: usize) -> Vec<PageId> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            if out.len() >= n {
                break;
            }
            let g = self.shards[(start + i) % self.shards.len()].lock();
            out.extend(g.inactive.iter().take(n - out.len()).map(|&p| PageId(p)));
        }
        out
    }

    /// Oldest active pages (for inactive-queue refill), up to `n`.
    pub fn active_candidates(&self, n: usize) -> Vec<PageId> {
        self.active_candidates_from(0, n)
    }

    /// Oldest active pages, up to `n`, sweeping shards starting at
    /// `start`.
    pub fn active_candidates_from(&self, start: usize, n: usize) -> Vec<PageId> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            if out.len() >= n {
                break;
            }
            let g = self.shards[(start + i) % self.shards.len()].lock();
            out.extend(g.active.iter().take(n - out.len()).map(|&p| PageId(p)));
        }
        out
    }

    /// Wire a page (pin it against pageout).
    ///
    /// # Panics
    ///
    /// Panics if the page is free.
    pub fn wire(&self, id: PageId) {
        let s = self.qs(id.0);
        let mut g = self.shards[s].lock();
        let info = g.pages.get_mut(&id.0).expect("known page");
        info.wire_count += 1;
        let old = std::mem::replace(&mut info.queue, PageQueue::Wired);
        if old != PageQueue::Wired {
            g.unlink(&self.tallies[s], id.0, old);
            g.link(&self.tallies[s], id.0, PageQueue::Wired);
        }
    }

    /// Unwire; returns to the active queue when the count reaches zero.
    pub fn unwire(&self, id: PageId) {
        let s = self.qs(id.0);
        let mut g = self.shards[s].lock();
        let info = g.pages.get_mut(&id.0).expect("known page");
        assert!(info.wire_count > 0, "unwire of unwired page");
        info.wire_count -= 1;
        if info.wire_count == 0 {
            info.queue = PageQueue::Active;
            g.unlink(&self.tallies[s], id.0, PageQueue::Wired);
            g.link(&self.tallies[s], id.0, PageQueue::Active);
        }
    }

    /// Every page currently belonging to `object_id`, by a scan of the
    /// page identities (diagnostics and tests).
    pub fn pages_of(&self, object_id: u64) -> Vec<(u64, PageId)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let g = shard.lock();
            out.extend(g.pages.iter().filter_map(|(&id, info)| {
                let ident = info.identity.as_ref()?;
                (ident.object_id == object_id).then_some((ident.offset, PageId(id)))
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(n: u64) -> ResidentTable {
        let t = ResidentTable::new(4096);
        for i in 0..n {
            t.donate(PageId(i));
        }
        t
    }

    #[test]
    fn alloc_sets_identity_and_busy() {
        let t = table_with(4);
        let p = t.alloc(7, 8192, Weak::new()).unwrap();
        assert_eq!(t.pages_of(7), vec![(8192, p)]);
        assert!(t.with_page(p, |i| i.busy));
        let c = t.counts();
        assert_eq!((c.free, c.active), (3, 1));
    }

    #[test]
    fn exhaustion_returns_none() {
        let t = table_with(1);
        assert!(t.alloc(1, 0, Weak::new()).is_some());
        assert!(t.alloc(1, 4096, Weak::new()).is_none());
    }

    #[test]
    fn free_clears_identity() {
        let t = table_with(2);
        let p = t.alloc(1, 0, Weak::new()).unwrap();
        t.free_page(p);
        assert!(t.pages_of(1).is_empty());
        assert_eq!(t.counts().free, 2);
        // The page can be reallocated with a new identity.
        let p2 = t.alloc(2, 4096, Weak::new()).unwrap();
        assert_eq!(t.pages_of(2), vec![(4096, p2)]);
    }

    #[test]
    fn queue_transitions() {
        let t = table_with(2);
        let p = t.alloc(1, 0, Weak::new()).unwrap();
        t.set_queue(p, PageQueue::Inactive);
        let c = t.counts();
        assert_eq!((c.active, c.inactive), (0, 1));
        assert_eq!(t.inactive_candidates(8), vec![p]);
        t.set_queue(p, PageQueue::Active);
        assert_eq!(t.inactive_candidates(8), vec![]);
        assert_eq!(t.active_candidates(8), vec![p]);
    }

    #[test]
    fn wire_protects_from_queues() {
        let t = table_with(2);
        let p = t.alloc(1, 0, Weak::new()).unwrap();
        t.wire(p);
        assert_eq!(t.counts().wired, 1);
        assert!(t.active_candidates(8).is_empty());
        t.wire(p);
        t.unwire(p);
        assert_eq!(t.counts().wired, 1, "still wired once");
        t.unwire(p);
        assert_eq!(t.counts().wired, 0);
        assert_eq!(t.active_candidates(8), vec![p]);
    }

    #[test]
    #[should_panic(expected = "cannot free a wired page")]
    fn freeing_wired_page_panics() {
        let t = table_with(1);
        let p = t.alloc(1, 0, Weak::new()).unwrap();
        t.wire(p);
        t.free_page(p);
    }

    #[test]
    fn rekey_moves_identity() {
        let t = table_with(1);
        let p = t.alloc(1, 0, Weak::new()).unwrap();
        t.rekey(p, 9, 12288, Weak::new());
        assert_eq!(t.pages_of(9), vec![(12288, p)]);
        assert!(t.pages_of(1).is_empty());
    }

    #[test]
    fn pages_of_lists_object_pages() {
        let t = table_with(3);
        let a = t.alloc(5, 0, Weak::new()).unwrap();
        let b = t.alloc(5, 4096, Weak::new()).unwrap();
        t.alloc(6, 0, Weak::new()).unwrap();
        let mut pages = t.pages_of(5);
        pages.sort();
        assert_eq!(pages, vec![(0, a), (4096, b)]);
    }

    #[test]
    fn page_base_address() {
        assert_eq!(PageId(3).base(4096), PAddr(12288));
    }

    #[test]
    #[should_panic(expected = "donated twice")]
    fn double_donation_panics() {
        let t = table_with(1);
        t.donate(PageId(0));
    }

    #[test]
    fn counts_stay_exact_across_many_transitions() {
        // The relaxed per-shard tallies must agree with reality after an
        // arbitrary single-threaded mix of transitions.
        let t = table_with(64);
        let mut pages = Vec::new();
        for i in 0..48u64 {
            pages.push(t.alloc(i % 5, (i / 5) * 4096, Weak::new()).unwrap());
        }
        for (i, &p) in pages.iter().enumerate() {
            match i % 4 {
                0 => t.set_queue(p, PageQueue::Inactive),
                1 => t.wire(p),
                2 => {
                    t.set_queue(p, PageQueue::Inactive);
                    t.set_queue(p, PageQueue::Active);
                }
                _ => {}
            }
        }
        let c = t.counts();
        assert_eq!(c.free + c.active + c.inactive + c.wired, 64);
        assert_eq!(c.free, 16);
        assert_eq!(c.inactive, 12);
        assert_eq!(c.wired, 12);
        assert_eq!(c.active, 24);
        for &p in &pages {
            t.with_page(p, |i| i.wire_count = 0);
            // free_page rejects wired pages; unwire the wired quarter.
        }
        for (i, &p) in pages.iter().enumerate() {
            if i % 4 == 1 {
                t.set_queue(p, PageQueue::Active);
            }
            t.free_page(p);
        }
        let c = t.counts();
        assert_eq!((c.free, c.active, c.inactive, c.wired), (64, 0, 0, 0));
    }

    #[test]
    fn refill_steal_and_spill_conserve_the_pool() {
        // More pages than one refill batch: allocation drains the reserve
        // through the local stack; freeing everything spills back; nothing
        // is lost or duplicated.
        let total = (REFILL_BATCH * 4) as u64;
        let t = table_with(total);
        let mut got = Vec::new();
        for i in 0..total {
            got.push(t.alloc(1, i * 4096, Weak::new()).unwrap());
        }
        assert!(t.alloc(2, 0, Weak::new()).is_none(), "pool exhausted");
        let mut ids: Vec<u64> = got.iter().map(|p| p.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, total, "no frame handed out twice");
        for p in got {
            t.free_page(p);
        }
        assert_eq!(t.counts().free, total);
    }

    #[test]
    fn set_queue_on_a_free_page_is_a_no_op() {
        // Queue moves are requested from candidate lists sampled without
        // a claim, so the page may have been freed in between: the move
        // must not drag a page out of the free pool.
        let t = table_with(2);
        let p = t.alloc(1, 0, Weak::new()).unwrap();
        t.free_page(p);
        t.set_queue(p, PageQueue::Active);
        let c = t.counts();
        assert_eq!((c.free, c.active, c.inactive, c.wired), (2, 0, 0, 0));
        assert!(t.active_candidates(8).is_empty());
        // The page is still allocatable.
        assert!(t.alloc(2, 0, Weak::new()).is_some());
    }

    #[test]
    fn teardown_claim_excludes_eviction_and_vice_versa() {
        let t = table_with(2);
        let p = t.alloc(1, 0, Weak::new()).unwrap();
        t.release(p, false);
        t.set_queue(p, PageQueue::Inactive);
        // Winner takes the frame; the loser must back off.
        assert!(t.claim_evict(p));
        assert!(!t.claim_teardown(p, true), "busy page belongs to evictor");
        t.release(p, false);
        assert!(t.claim_teardown(p, false));
        assert!(!t.claim_evict(p), "busy page belongs to teardown");
        t.free_page(p);
        assert!(!t.claim_teardown(p, true), "free pages cannot be claimed");
        // Wired pages are only claimable when the caller allows it.
        let w = t.alloc(1, 4096, Weak::new()).unwrap();
        t.release(w, false);
        t.wire(w);
        assert!(!t.claim_teardown(w, false));
        assert!(t.claim_teardown(w, true));
    }

    #[test]
    fn candidate_sweep_rotates_across_shards() {
        let t = table_with(32);
        let mut pages = Vec::new();
        for i in 0..32u64 {
            let p = t.alloc(3, i * 4096, Weak::new()).unwrap();
            t.set_queue(p, PageQueue::Inactive);
            pages.push(p);
        }
        // Every start point sees the whole population.
        for start in 0..t.shard_count() {
            let mut seen = t.inactive_candidates_from(start, 64);
            seen.sort();
            let mut want = pages.clone();
            want.sort();
            assert_eq!(seen, want);
        }
        // Partial sweeps from different starts begin at different shards.
        let a = t.inactive_candidates_from(0, 4);
        let b = t.inactive_candidates_from(t.shard_count() / 2, 4);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn release_reports_and_clears_wanted() {
        let t = table_with(1);
        let p = t.alloc(1, 0, Weak::new()).unwrap();
        assert!(!t.release(p, false), "nobody waited");
        assert!(t.claim_teardown(p, false));
        t.with_page(p, |i| i.wanted = true);
        assert!(t.release(p, true), "a waiter set wanted");
        t.with_page(p, |i| {
            assert!(!i.busy && !i.wanted);
            assert!(i.dirty, "release(.., true) sets the dirty hint");
        });
        assert!(t.claim_teardown(p, false));
        assert!(!t.release(p, false), "wanted was cleared");
        assert!(
            t.with_page(p, |i| i.dirty),
            "release(.., false) keeps the hint"
        );
    }

    #[test]
    fn free_page_reports_and_clears_wanted() {
        let t = table_with(1);
        let p = t.alloc(1, 0, Weak::new()).unwrap();
        assert!(!t.free_page(p), "nobody waited");
        let p = t.alloc(1, 0, Weak::new()).unwrap();
        t.with_page(p, |i| i.wanted = true);
        assert!(t.free_page(p), "a waiter set wanted");
        let p = t.alloc(2, 0, Weak::new()).unwrap();
        assert!(
            !t.with_page(p, |i| i.wanted),
            "the next owner starts unwanted"
        );
        assert!(!t.free_page(p));
    }

    /// DESIGN.md §7: every allocated page is in exactly one object's
    /// resident map, at the offset its identity names. The object's map
    /// is the only index of resident pages, so nothing else checks it.
    #[test]
    fn every_allocated_page_is_in_its_objects_map() {
        use crate::kernel::Kernel;
        use mach_hw::machine::{Machine, MachineModel};

        let k = Kernel::boot(&Machine::boot(MachineModel::micro_vax_ii()));
        let ps = k.page_size();
        let parent = k.create_task();
        let pages = 16;
        let addr = parent
            .map()
            .allocate(k.ctx(), None, pages * ps, true)
            .unwrap();
        parent.user(0, |u| u.dirty_range(addr, pages * ps).unwrap());
        for round in 0..24u64 {
            let child = parent.fork();
            child.user(0, |u| {
                for i in (round % 3..pages).step_by(3) {
                    u.write_u32(addr + i * ps, (round << 8 | i) as u32).unwrap();
                }
            });
            parent.user(0, |u| u.write_u32(addr + (round % pages) * ps, 1).unwrap());
            drop(child);
            if round % 6 == 5 {
                k.reclaim(8);
            }
        }
        let stats = k.statistics();
        assert!(stats.pageouts > 0, "{stats:?}");
        assert!(stats.cow_faults > 0, "{stats:?}");
        assert!(stats.collapses > 0, "{stats:?}");

        // Page-state shards rank below `vm_object`: read every identity
        // first, then visit the objects.
        let rt = &k.ctx().resident;
        let held: Vec<(u64, Option<PageIdentity>)> = rt
            .shards
            .iter()
            .flat_map(|shard| {
                let g = shard.lock();
                g.pages
                    .iter()
                    .filter(|(_, info)| info.queue != PageQueue::Free)
                    .map(|(&id, info)| (id, info.identity.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(!held.is_empty());
        for (id, ident) in held {
            let ident = ident.unwrap_or_else(|| panic!("allocated page {id} has no identity"));
            let obj = ident
                .object
                .upgrade()
                .unwrap_or_else(|| panic!("page {id}'s object {} is gone", ident.object_id));
            assert_eq!(obj.id(), ident.object_id);
            assert_eq!(
                obj.lock().resident.get(&ident.offset),
                Some(&PageId(id)),
                "object {} does not hold page {id} at {:#x}",
                ident.object_id,
                ident.offset
            );
        }
    }
}
