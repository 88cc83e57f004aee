//! Address maps and sharing maps (paper §3.2, §3.4).
//!
//! "An address map is a doubly linked list of address map entries each of
//! which maps a contiguous range of virtual addresses onto a contiguous
//! area of a memory object. This linked list is sorted in order of
//! ascending virtual address and different entries may not map overlapping
//! regions of memory." The structure was chosen because it makes the
//! frequent operations cheap — fault lookups (helped by a "last fault"
//! **hint**), range copy/protection operations, and allocation /
//! deallocation — and "does not penalize large, sparse address spaces."
//!
//! # The ordered index
//!
//! This reproduction keeps the paper's *semantics* but replaces the linked
//! list's O(n) scan with an **O(log n) ordered index**: entries live in a
//! balanced tree ([`std::collections::BTreeMap`]) keyed by start address.
//! The paper's 1987 maps held "about five" entries, where a list is
//! unbeatable; the fleet-scale workloads this repository grows toward
//! (thousands of forked tasks, up to 10^6 entries — see
//! `docs/WORKLOADS.md`) hit the list's O(n) cliff, which the
//! `scan_distance` health gauge was built to expose.
//!
//! The **last-fault hint is preserved exactly** (§3.2): every lookup
//! checks the hinted entry first, then its successor (the sequential-fault
//! fast path), and only a hint *miss* consults the index. Because the hint
//! logic is identical in both modes, `hint_hits`/`hint_misses` accounting,
//! Table 2-1 statistics and trace events do not depend on the search
//! algorithm — a property enforced by `tests/map_index_props.rs`, which
//! replays fault sequences against a linear-scan reference
//! ([`crate::ctx::CoreRefs::map_indexed`] cleared) and demands identical
//! `VmStats` and trace totals. The two algorithms are priced against each
//! other at 10^2/10^4/10^6 entries in `BENCH_vm.json`'s
//! `map_index_ablation` section: each lookup charges
//! [`mach_hw::cost::CostModel::lookup_step`] cycles per entry visited
//! (linear) or per tree level probed (indexed), so the win is measured in
//! simulated cycles, not asserted.
//!
//! Locking: the index lives entirely inside the map's single mutex
//! (`vm_map` level, the **top** of the DESIGN.md §8 lock hierarchy), so it
//! adds no lock-ordering edges; concurrent lookups and clips serialize on
//! the map exactly as the list did (`tests/interleave_model.rs` enumerates
//! those schedules).
//!
//! A **sharing map** "is identical to an address map" except that it is
//! referenced *by* other maps' entries and has no pmap of its own;
//! operations that must affect every task sharing a region are applied to
//! the sharing map once (§3.4).

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use mach_hw::lock::{KernelGuard, KernelMutex, LockSite};
use mach_pmap::Pmap;

use crate::ctx::CoreRefs;
use crate::object::{self, VmObject};
use crate::ops::VmOp;
use crate::types::{Inheritance, Protection, VmError, VmResult};

/// What an entry maps to.
#[derive(Debug, Clone)]
pub enum MapTarget {
    /// A memory object at a byte offset.
    Object {
        /// The object.
        object: Arc<VmObject>,
        /// Byte offset of the entry's first page within the object.
        offset: u64,
    },
    /// A sharing map at a byte offset (read/write sharing, §3.4).
    Share {
        /// The sharing map.
        map: Arc<VmMap>,
        /// Address within the sharing map of the entry's first page.
        offset: u64,
    },
}

/// One address map entry.
///
/// All addresses within an entry share the same attributes; differing
/// attributes force a split — "this can force the system to allocate two
/// address map entries that map adjacent memory regions to the same memory
/// object simply because the properties of the two regions are different."
#[derive(Debug, Clone)]
pub struct MapEntry {
    /// First address (page aligned, inclusive). Doubles as the entry's
    /// key in the map's ordered index.
    pub start: u64,
    /// Last address (page aligned, exclusive).
    pub end: u64,
    /// The mapped object or sharing map.
    pub target: MapTarget,
    /// Current protection.
    pub prot: Protection,
    /// Maximum protection (can only be lowered).
    pub max_prot: Protection,
    /// Inheritance at fork.
    pub inheritance: Inheritance,
    /// Entry is a copy-on-write mapping.
    pub copy_on_write: bool,
    /// Copy-on-write still needs its shadow object (created at the first
    /// write fault).
    pub needs_copy: bool,
    /// Pages in this entry are wired.
    pub wired: bool,
}

impl MapEntry {
    fn size(&self) -> u64 {
        self.end - self.start
    }

    /// Take the references a duplicate of this entry needs.
    fn reference_target(&self) {
        if let MapTarget::Object { object, .. } = &self.target {
            object.reference();
        }
        // Sharing maps are reference-counted by `Arc` itself.
    }
}

/// The entries of one map: a balanced tree keyed by start address plus
/// the paper's last-fault hint. Entry keys always equal `entry.start`;
/// entries never overlap, so the predecessor query
/// `range(..=addr).next_back()` finds the unique candidate for any
/// address.
#[derive(Debug, Default)]
struct MapInner {
    /// The ordered index (replaces the sorted doubly-linked list).
    entries: BTreeMap<u64, MapEntry>,
    /// The paper's "last fault hint": start key of the entry that
    /// satisfied the previous lookup.
    hint: Option<u64>,
}

impl MapInner {
    fn entry(&self, k: u64) -> &MapEntry {
        self.entries.get(&k).expect("live entry")
    }

    fn entry_mut(&mut self, k: u64) -> &mut MapEntry {
        self.entries.get_mut(&k).expect("live entry")
    }

    /// Key of the entry after `k` in address order.
    fn next_key(&self, k: u64) -> Option<u64> {
        self.entries
            .range((Excluded(k), Unbounded))
            .next()
            .map(|(&n, _)| n)
    }

    /// Key of the entry before `k` in address order.
    fn prev_key(&self, k: u64) -> Option<u64> {
        self.entries.range(..k).next_back().map(|(&p, _)| p)
    }

    /// Insert `entry` into the index (O(log n)); returns its key. The
    /// caller guarantees non-overlap.
    fn insert(&mut self, entry: MapEntry) -> u64 {
        let k = entry.start;
        let old = self.entries.insert(k, entry);
        debug_assert!(old.is_none(), "overlapping map entry at {k:#x}");
        k
    }

    /// Remove the entry at `k`, repointing the hint at a neighbour (the
    /// predecessor, else the successor — the list code's `prev.or(next)`).
    fn unlink(&mut self, k: u64) -> MapEntry {
        if self.hint == Some(k) {
            self.hint = self.prev_key(k).or_else(|| self.next_key(k));
        }
        self.entries.remove(&k).expect("live entry")
    }

    /// Find the entry containing `addr`, hint-first (§3.2).
    ///
    /// The hint and its successor are always checked first; only a hint
    /// miss searches — through the ordered index by default, or by the
    /// paper's linear walk when `ctx.map_indexed` is cleared (the ablation
    /// reference). Each entry visited / tree level probed charges one
    /// `lookup_step` cycle, and the health gauge records the same count:
    /// 0 for a hint hit, 1 for the hint's successor, then n entries walked
    /// (linear) or ~log2(n) probes (indexed).
    fn lookup(&mut self, addr: u64, ctx: &CoreRefs) -> Option<u64> {
        let step = ctx.machine.cost().lookup_step;
        let mut steps = 0u64;
        if let Some(h) = self.hint {
            if let Some(e) = self.entries.get(&h) {
                steps += 1;
                if e.start <= addr && addr < e.end {
                    ctx.machine.charge(step * steps);
                    ctx.stats.hint_hits.fetch_add(1, Ordering::Relaxed);
                    ctx.health.scan_distance(0);
                    return Some(h);
                }
                // Sequential access: the next entry is the second guess.
                if let Some((&nk, ne)) = self.entries.range((Excluded(h), Unbounded)).next() {
                    steps += 1;
                    if ne.start <= addr && addr < ne.end {
                        ctx.machine.charge(step * steps);
                        ctx.stats.hint_hits.fetch_add(1, Ordering::Relaxed);
                        ctx.health.scan_distance(1);
                        self.hint = Some(nk);
                        return Some(nk);
                    }
                }
            }
        }
        ctx.stats.hint_misses.fetch_add(1, Ordering::Relaxed);
        if ctx.map_indexed.load(Ordering::Relaxed) {
            // O(log n): the entry with the greatest start <= addr is the
            // only one that can contain it (entries never overlap).
            let n = self.entries.len() as u64;
            let probes = (64 - n.leading_zeros() as u64).max(1);
            steps += probes;
            let found = self
                .entries
                .range(..=addr)
                .next_back()
                .and_then(|(&k, e)| (addr < e.end).then_some(k));
            ctx.machine.charge(step * steps);
            ctx.health.scan_distance(probes);
            if let Some(k) = found {
                self.hint = Some(k);
            }
            found
        } else {
            // Reference mode: the paper's linear walk from the first
            // entry, stopping at the first entry past `addr`.
            let mut visited = 0u64;
            let mut found = None;
            for (&k, e) in self.entries.iter() {
                visited += 1;
                if e.start <= addr && addr < e.end {
                    found = Some(k);
                    break;
                }
                if e.start > addr {
                    break;
                }
            }
            ctx.machine.charge(step * (steps + visited));
            ctx.health.scan_distance(visited);
            if let Some(k) = found {
                self.hint = Some(k);
            }
            found
        }
    }

    /// Split the entry at `k` so that a boundary falls at `addr`; returns
    /// the key of the piece containing `addr`.
    fn clip_start(&mut self, k: u64, addr: u64) -> u64 {
        let (start, end) = {
            let e = self.entry(k);
            (e.start, e.end)
        };
        if addr <= start || addr >= end {
            return k;
        }
        // k keeps [start, addr); the clone takes [addr, end).
        let mut tail = self.entry(k).clone();
        tail.reference_target();
        tail.start = addr;
        bump_offset(&mut tail, addr - start);
        self.entry_mut(k).end = addr;
        self.insert(tail)
    }

    /// Keys of all entries intersecting `[start, end)`, clipped to it.
    fn clip_range(&mut self, start: u64, end: u64, ctx: &CoreRefs) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = match self.lookup(start, ctx) {
            Some(k) => Some(self.clip_start(k, start)),
            // No entry contains start: the first at or after it.
            None => self.entries.range(start..).next().map(|(&k, _)| k),
        };
        while let Some(k) = cur {
            if self.entry(k).start >= end {
                break;
            }
            if self.entry(k).end > end {
                self.clip_start(k, end);
            }
            out.push(k);
            cur = self.next_key(k);
        }
        out
    }

    /// Merge the entry at `k` into its predecessor when they are
    /// perfectly compatible (the inverse of clipping). Returns the
    /// absorbed entry's target, whose reference the caller must release.
    fn try_merge_prev(&mut self, k: u64) -> Option<MapTarget> {
        let p = self.prev_key(k)?;
        let (a, b) = (self.entry(p), self.entry(k));
        if a.end != b.start
            || a.prot != b.prot
            || a.max_prot != b.max_prot
            || a.inheritance != b.inheritance
            || a.copy_on_write != b.copy_on_write
            || a.needs_copy != b.needs_copy
            || a.wired != b.wired
        {
            return None;
        }
        let contiguous = match (&a.target, &b.target) {
            (
                MapTarget::Object {
                    object: oa,
                    offset: fa,
                },
                MapTarget::Object {
                    object: ob,
                    offset: fb,
                },
            ) => Arc::ptr_eq(oa, ob) && fa + a.size() == *fb,
            (
                MapTarget::Share {
                    map: ma,
                    offset: fa,
                },
                MapTarget::Share {
                    map: mb,
                    offset: fb,
                },
            ) => Arc::ptr_eq(ma, mb) && fa + a.size() == *fb,
            _ => false,
        };
        if !contiguous {
            return None;
        }
        let absorbed = self.unlink(k);
        self.entry_mut(p).end = absorbed.end;
        self.hint = Some(p);
        Some(absorbed.target)
    }

    /// Coalesce mergeable neighbours across `[start, end)` (the
    /// `vm_map_simplify` of real Mach: clipping splits entries, this
    /// heals them so "an address map is typically small" stays true).
    fn simplify(&mut self, start: u64, end: u64, ctx: &CoreRefs) -> Vec<MapTarget> {
        let mut released = Vec::new();
        let mut cur = match self.lookup(start, ctx) {
            Some(k) => Some(k),
            None => self.entries.range(start..).next().map(|(&k, _)| k),
        };
        while let Some(k) = cur {
            if self.entry(k).start > end {
                break;
            }
            let next = self.next_key(k);
            if let Some(target) = self.try_merge_prev(k) {
                released.push(target);
                // `k` vanished; continue from the same place via `next`.
            }
            cur = next;
        }
        released
    }

    /// First-fit search for a free range of `size` bytes in `[lo, hi)`.
    /// Starts the gap walk at `lo`'s predecessor entry (an index query),
    /// not the map's first entry.
    fn find_space(&self, size: u64, lo: u64, hi: u64) -> Option<u64> {
        let mut candidate = lo;
        let begin = self
            .entries
            .range(..=lo)
            .next_back()
            .map(|(&k, _)| k)
            .unwrap_or(0);
        for (_, e) in self.entries.range(begin..) {
            if e.start >= candidate && e.start - candidate >= size {
                break;
            }
            candidate = candidate.max(e.end);
        }
        if candidate.checked_add(size).is_none_or(|end| end > hi) {
            None
        } else {
            Some(candidate)
        }
    }
}

fn bump_offset(e: &mut MapEntry, delta: u64) {
    match &mut e.target {
        MapTarget::Object { offset, .. } => *offset += delta,
        MapTarget::Share { offset, .. } => *offset += delta,
    }
}

/// Summary of one region, as returned by `vm_regions` (Table 2-1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionInfo {
    /// First address.
    pub start: u64,
    /// One past the last address.
    pub end: u64,
    /// Current protection.
    pub prot: Protection,
    /// Maximum protection.
    pub max_prot: Protection,
    /// Inheritance.
    pub inheritance: Inheritance,
    /// True for read/write-shared regions (sharing-map backed).
    pub shared: bool,
    /// True for copy-on-write regions.
    pub copy_on_write: bool,
    /// Id of the backing object (or sharing map pseudo-id).
    pub object_id: u64,
}

/// The result of resolving a fault address down to its object.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// The map whose entry directly holds the object (the task map, or a
    /// sharing map).
    pub holder: Arc<VmMap>,
    /// Address of the page *within the holder map*.
    pub holder_addr: u64,
    /// The backing object.
    pub object: Arc<VmObject>,
    /// Byte offset of the page within `object`.
    pub offset: u64,
    /// Effective current protection (intersected along the path).
    pub prot: Protection,
    /// Entry is copy-on-write and the shadow has not been created yet.
    pub needs_copy: bool,
    /// Entry is copy-on-write.
    pub copy_on_write: bool,
    /// Entry is wired.
    pub wired: bool,
}

/// An address map: a task's (with a pmap) or a sharing map (without).
///
/// All entry state sits behind one mutex at the **top** of the lock
/// hierarchy (DESIGN.md §8): lookups, clips and inserts serialize here
/// before any object lock is taken, so the ordered index introduces no
/// new lock-ordering edges.
#[derive(Debug)]
pub struct VmMap {
    pmap: Option<Arc<dyn Pmap>>,
    lo: u64,
    hi: u64,
    inner: KernelMutex<MapInner>,
    /// Back reference for teardown: dropping a map releases its entries'
    /// object references (task exit, last un-share).
    ctx: std::sync::Weak<CoreRefs>,
    /// Id of the owning task (0 = kernel / sharing map); trace-event
    /// attribution only.
    owner: std::sync::atomic::AtomicU64,
}

impl VmMap {
    /// A task address map over `[lo, hi)` driving `pmap`.
    pub fn new_task_map(ctx: &Arc<CoreRefs>, pmap: Arc<dyn Pmap>, lo: u64, hi: u64) -> Arc<VmMap> {
        Arc::new(VmMap {
            pmap: Some(pmap),
            lo,
            hi,
            inner: KernelMutex::new(LockSite::VmMap, MapInner::default()),
            ctx: Arc::downgrade(ctx),
            owner: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// A sharing map covering `[0, size)`.
    pub fn new_sharing_map(ctx: &std::sync::Weak<CoreRefs>, size: u64) -> Arc<VmMap> {
        Arc::new(VmMap {
            pmap: None,
            lo: 0,
            hi: size,
            inner: KernelMutex::new(LockSite::VmMap, MapInner::default()),
            ctx: ctx.clone(),
            owner: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Lock the entries.
    fn lock(&self) -> KernelGuard<'_, MapInner> {
        self.inner.lock()
    }

    /// The owning task's id (0 = kernel / sharing map).
    pub fn owner(&self) -> u64 {
        self.owner.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Record the owning task's id for trace attribution.
    pub(crate) fn set_owner(&self, id: u64) {
        self.owner.store(id, std::sync::atomic::Ordering::Relaxed);
    }

    /// The pmap this map drives (`None` for sharing maps).
    pub fn pmap(&self) -> Option<&Arc<dyn Pmap>> {
        self.pmap.as_ref()
    }

    /// Lowest mappable address.
    pub fn lo(&self) -> u64 {
        self.lo
    }

    /// Highest mappable address + 1.
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// Number of entries (a typical UNIX process has about five — §3.2;
    /// the fleet ablation builds maps of 10^6).
    pub fn entry_count(&self) -> usize {
        self.lock().entries.len()
    }

    /// Allocate zero-filled memory (the `vm_allocate` primitive).
    ///
    /// # Errors
    ///
    /// [`VmError::BadAlignment`], [`VmError::NoSpace`] or
    /// [`VmError::AlreadyAllocated`].
    pub fn allocate(
        &self,
        ctx: &CoreRefs,
        addr: Option<u64>,
        size: u64,
        anywhere: bool,
    ) -> VmResult<u64> {
        let size = ctx.round_page(size);
        if size == 0 {
            return Err(VmError::BadAlignment);
        }
        let object = VmObject::new_internal(size);
        let start = self.map_object(
            ctx,
            addr,
            size,
            object,
            0,
            Protection::DEFAULT,
            Protection::ALL,
            anywhere,
        )?;
        if self.owner() != 0 {
            ctx.record_op(VmOp::Allocate {
                task: self.owner(),
                addr: start,
                size,
            });
        }
        Ok(start)
    }

    /// Map `object` (already holding one reference for this mapping) into
    /// the map.
    ///
    /// # Errors
    ///
    /// [`VmError::BadAlignment`], [`VmError::NoSpace`] or
    /// [`VmError::AlreadyAllocated`].
    #[allow(clippy::too_many_arguments)]
    pub fn map_object(
        &self,
        ctx: &CoreRefs,
        addr: Option<u64>,
        size: u64,
        object: Arc<VmObject>,
        offset: u64,
        prot: Protection,
        max_prot: Protection,
        anywhere: bool,
    ) -> VmResult<u64> {
        let size = ctx.round_page(size);
        let mut g = self.lock();
        let start = match (addr, anywhere) {
            (Some(a), false) => {
                if a % ctx.page_size != 0 {
                    return Err(VmError::BadAlignment);
                }
                // The exact range must be free: the last entry starting
                // below the range's end is the only overlap candidate
                // (an index query, so fixed-address maps build in
                // O(n log n), not O(n^2)).
                let taken = g
                    .entries
                    .range(..a + size)
                    .next_back()
                    .is_some_and(|(_, e)| e.end > a);
                if taken {
                    return Err(VmError::AlreadyAllocated);
                }
                a
            }
            (hint, _) => {
                let lo = hint.unwrap_or(self.lo).max(self.lo);
                g.find_space(size, lo, self.hi)
                    .or_else(|| g.find_space(size, self.lo, self.hi))
                    .ok_or(VmError::NoSpace)?
            }
        };
        g.insert(MapEntry {
            start,
            end: start + size,
            target: MapTarget::Object { object, offset },
            prot,
            max_prot,
            inheritance: Inheritance::Copy,
            copy_on_write: false,
            needs_copy: false,
            wired: false,
        });
        Ok(start)
    }

    /// Insert a pre-built entry (fork, `vm_copy`).
    pub(crate) fn insert_entry(&self, entry: MapEntry) {
        self.lock().insert(entry);
    }

    /// Deallocate `[start, start+size)` (the `vm_deallocate` primitive).
    ///
    /// # Errors
    ///
    /// [`VmError::BadAlignment`] on unaligned input.
    pub fn deallocate(&self, ctx: &CoreRefs, start: u64, size: u64) -> VmResult<()> {
        if !start.is_multiple_of(ctx.page_size) {
            return Err(VmError::BadAlignment);
        }
        let size = ctx.round_page(size);
        if self.owner() != 0 {
            ctx.record_op(VmOp::Deallocate {
                task: self.owner(),
                addr: start,
                size,
            });
        }
        let end = start + size;
        let removed: Vec<MapEntry> = {
            let mut g = self.lock();
            let keys = g.clip_range(start, end, ctx);
            keys.into_iter().map(|k| g.unlink(k)).collect()
        };
        if let Some(pmap) = &self.pmap {
            if !removed.is_empty() {
                pmap.remove(mach_hw::VAddr(start), mach_hw::VAddr(end));
            }
        }
        for e in removed {
            match e.target {
                MapTarget::Object { object, .. } => object::deallocate(&object, ctx),
                MapTarget::Share { map, .. } => drop(map),
            }
        }
        Ok(())
    }

    /// Set current or maximum protection (the `vm_protect` primitive).
    ///
    /// Lowering the maximum below the current protection lowers the
    /// current protection as well (paper §2.1).
    ///
    /// # Errors
    ///
    /// [`VmError::InvalidAddress`] if the range is not fully allocated,
    /// [`VmError::ProtectionFailure`] if raising current above maximum.
    pub fn protect(
        &self,
        ctx: &CoreRefs,
        start: u64,
        size: u64,
        set_maximum: bool,
        new_prot: Protection,
    ) -> VmResult<()> {
        let size = ctx.round_page(size);
        if self.owner() != 0 {
            ctx.record_op(VmOp::Protect {
                task: self.owner(),
                addr: start,
                size,
                set_maximum,
                prot: new_prot,
            });
        }
        let end = start + size;
        let mut shared_updates: Vec<(Arc<VmMap>, u64, u64)> = Vec::new();
        {
            let mut g = self.lock();
            let keys = g.clip_range(start, end, ctx);
            let covered: u64 = keys.iter().map(|&k| g.entry(k).size()).sum();
            if covered != size {
                return Err(VmError::InvalidAddress);
            }
            // Validate before mutating.
            if !set_maximum {
                for &k in &keys {
                    if !g.entry(k).max_prot.contains(new_prot) {
                        return Err(VmError::ProtectionFailure);
                    }
                }
            }
            for k in keys {
                let e = g.entry_mut(k);
                if set_maximum {
                    e.max_prot = new_prot;
                    e.prot = e.prot.intersect(new_prot);
                } else {
                    e.prot = new_prot;
                }
                if let MapTarget::Share { map, offset } = &e.target {
                    shared_updates.push((Arc::clone(map), *offset, e.size()));
                }
            }
        }
        // Clipping may have split entries that are now identical again.
        self.release_targets(ctx, {
            let mut g = self.lock();
            g.simplify(start.saturating_sub(1), end + 1, ctx)
        });
        // Apply to the hardware map of this task.
        if let Some(pmap) = &self.pmap {
            pmap.protect(mach_hw::VAddr(start), mach_hw::VAddr(end), new_prot.to_hw());
        }
        // Shared regions: narrow every other task's hardware mappings via
        // the physical-page interface (the reason pmap_copy_on_write and
        // pmap_remove_all are physical — paper §3.4/§5.2).
        for (share_map, offset, len) in shared_updates {
            share_map.narrow_resident_hw(ctx, offset, len, new_prot);
        }
        Ok(())
    }

    /// Narrow the hardware access of every resident page in `[off,
    /// off+len)` of this (sharing) map to at most `prot`.
    fn narrow_resident_hw(&self, ctx: &CoreRefs, off: u64, len: u64, prot: Protection) {
        let page = ctx.page_size;
        let mut g = self.lock();
        let keys = g.clip_range(off, off + len, ctx);
        let mut work = Vec::new();
        for k in keys {
            let e = g.entry(k);
            if let MapTarget::Object { object, offset } = &e.target {
                work.push((Arc::clone(object), *offset, e.size()));
            }
        }
        drop(g);
        if prot.contains(Protection::WRITE) {
            return; // widening is lazy: faults re-establish
        }
        for (object, obj_off, size) in work {
            // Snapshot the page list, then drop the object lock before
            // the shootdowns. A faulting CPU that wanted it would wait
            // quiescent and so could not stall them (the shootdown rule,
            // DESIGN.md §8), but it need not wait at all.
            let pages: Vec<crate::page::PageId> = {
                let s = object.lock();
                s.resident
                    .range(obj_off..obj_off + size)
                    .map(|(_, &pid)| pid)
                    .collect()
            };
            for pid in pages {
                if prot.is_none() {
                    ctx.machdep.remove_all(pid.base(page), page);
                } else {
                    ctx.machdep.copy_on_write(pid.base(page), page);
                }
            }
        }
    }

    /// Set the inheritance attribute (the `vm_inherit` primitive).
    ///
    /// # Errors
    ///
    /// [`VmError::InvalidAddress`] if the range is not fully allocated.
    pub fn inherit(
        &self,
        ctx: &CoreRefs,
        start: u64,
        size: u64,
        inheritance: Inheritance,
    ) -> VmResult<()> {
        let size = ctx.round_page(size);
        if self.owner() != 0 {
            ctx.record_op(VmOp::Inherit {
                task: self.owner(),
                addr: start,
                size,
                inheritance,
            });
        }
        let mut g = self.lock();
        let keys = g.clip_range(start, start + size, ctx);
        let covered: u64 = keys.iter().map(|&k| g.entry(k).size()).sum();
        if covered != size {
            return Err(VmError::InvalidAddress);
        }
        for k in keys {
            g.entry_mut(k).inheritance = inheritance;
        }
        let released = g.simplify(start.saturating_sub(1), start + size + 1, ctx);
        drop(g);
        self.release_targets(ctx, released);
        Ok(())
    }

    /// Release the object references of absorbed entry targets.
    fn release_targets(&self, ctx: &CoreRefs, targets: Vec<MapTarget>) {
        for t in targets {
            match t {
                MapTarget::Object { object, .. } => object::deallocate(&object, ctx),
                MapTarget::Share { map, .. } => drop(map),
            }
        }
    }

    /// Describe the regions of this map (the `vm_regions` primitive).
    pub fn regions(&self) -> Vec<RegionInfo> {
        let g = self.lock();
        g.entries
            .values()
            .map(|e| {
                let (shared, object_id) = match &e.target {
                    MapTarget::Object { object, .. } => (false, object.id()),
                    MapTarget::Share { map, .. } => (true, Arc::as_ptr(map) as u64),
                };
                RegionInfo {
                    start: e.start,
                    end: e.end,
                    prot: e.prot,
                    max_prot: e.max_prot,
                    inheritance: e.inheritance,
                    shared,
                    copy_on_write: e.copy_on_write,
                    object_id,
                }
            })
            .collect()
    }

    /// Resolve `addr` (page aligned) down to its object, following at most
    /// one level of sharing map — "sharing maps do not need to reference
    /// other sharing maps" (§3.4).
    ///
    /// # Errors
    ///
    /// [`VmError::InvalidAddress`] when nothing is mapped at `addr`.
    pub fn resolve(self: &Arc<VmMap>, ctx: &CoreRefs, addr: u64) -> VmResult<Resolved> {
        let (target, prot, needs_copy, cow, wired, entry_start) = {
            let mut g = self.lock();
            let k = g.lookup(addr, ctx).ok_or(VmError::InvalidAddress)?;
            let e = g.entry(k);
            (
                e.target.clone(),
                e.prot,
                e.needs_copy,
                e.copy_on_write,
                e.wired,
                e.start,
            )
        };
        match target {
            MapTarget::Object { object, offset } => Ok(Resolved {
                holder: Arc::clone(self),
                holder_addr: addr,
                object,
                offset: offset + (addr - entry_start),
                prot,
                needs_copy,
                copy_on_write: cow,
                wired,
            }),
            MapTarget::Share { map, offset } => {
                let share_addr = offset + (addr - entry_start);
                let mut r = map.resolve(ctx, share_addr)?;
                r.prot = r.prot.intersect(prot);
                r.wired |= wired;
                Ok(r)
            }
        }
    }

    /// Create the shadow object for a copy-on-write entry at its first
    /// write fault (clears `needs_copy`). `addr` is any address within the
    /// entry *of the holder map*.
    ///
    /// # Errors
    ///
    /// [`VmError::InvalidAddress`] if the entry vanished meanwhile.
    pub fn install_shadow(&self, ctx: &CoreRefs, addr: u64) -> VmResult<()> {
        self.install_shadow_for(ctx, addr, true)
    }

    /// As [`VmMap::install_shadow`], but also shadows entries whose object
    /// demanded `pager_readonly` treatment (writes must go to a new
    /// object) even when `needs_copy` is clear.
    ///
    /// # Errors
    ///
    /// [`VmError::InvalidAddress`] if the entry vanished meanwhile.
    pub fn install_shadow_for(
        &self,
        ctx: &CoreRefs,
        addr: u64,
        _had_needs_copy: bool,
    ) -> VmResult<()> {
        let mut g = self.lock();
        let k = g.lookup(addr, ctx).ok_or(VmError::InvalidAddress)?;
        let e = g.entry_mut(k);
        if !e.needs_copy {
            let readonly_obj = match &e.target {
                MapTarget::Object { object, .. } => object.lock().pager_readonly,
                MapTarget::Share { .. } => false,
            };
            if !readonly_obj {
                return Ok(());
            }
        }
        let size = e.size();
        if let MapTarget::Object { object, offset } = &e.target {
            let shadow = VmObject::new_shadow(size, object, *offset);
            // The entry's reference moves from the backing object to the
            // shadow (new_shadow took the backing reference the chain
            // needs).
            let old = Arc::clone(object);
            e.target = MapTarget::Object {
                object: shadow,
                offset: 0,
            };
            e.needs_copy = false;
            drop(g);
            object::deallocate(&old, ctx);
        }
        Ok(())
    }

    /// Convert the entry containing `addr` into a sharing-map entry and
    /// return `(sharing map, offset)`; used at fork for
    /// [`Inheritance::Shared`] regions. Idempotent.
    ///
    /// # Errors
    ///
    /// [`VmError::InvalidAddress`] if nothing is mapped at `addr`.
    pub fn share_entry(&self, ctx: &CoreRefs, addr: u64) -> VmResult<(Arc<VmMap>, u64, u64, u64)> {
        let mut g = self.lock();
        let k = g.lookup(addr, ctx).ok_or(VmError::InvalidAddress)?;
        let e = g.entry_mut(k);
        let (start, end) = (e.start, e.end);
        match &e.target {
            MapTarget::Share { map, offset } => Ok((Arc::clone(map), *offset, start, end)),
            MapTarget::Object { object, offset } => {
                let size = e.size();
                let share = VmMap::new_sharing_map(&self.ctx, size);
                share.insert_entry(MapEntry {
                    start: 0,
                    end: size,
                    target: MapTarget::Object {
                        object: Arc::clone(object),
                        offset: *offset,
                    },
                    prot: Protection::ALL,
                    max_prot: Protection::ALL,
                    inheritance: Inheritance::Shared,
                    copy_on_write: e.copy_on_write,
                    needs_copy: e.needs_copy,
                    wired: false,
                });
                e.target = MapTarget::Share {
                    map: Arc::clone(&share),
                    offset: 0,
                };
                e.copy_on_write = false;
                e.needs_copy = false;
                Ok((share, 0, start, end))
            }
        }
    }

    /// First-fit search for a free `size`-byte range (the caller inserts
    /// into it promptly; like all map reservations it is raced only by
    /// the caller's own concurrent operations).
    ///
    /// # Errors
    ///
    /// [`VmError::NoSpace`] when no gap is large enough.
    pub(crate) fn find_free(&self, size: u64) -> VmResult<u64> {
        self.lock()
            .find_space(size, self.lo, self.hi)
            .ok_or(VmError::NoSpace)
    }

    /// Snapshot all entries (fork and `vm_copy` source scans).
    pub(crate) fn snapshot_entries(&self) -> Vec<MapEntry> {
        self.lock().entries.values().cloned().collect()
    }

    /// Clip the map at `[start, end)` boundaries and snapshot the covered
    /// entries, marking them copy-on-write (`vm_copy` source side). Every
    /// returned entry has had its target referenced for the caller.
    ///
    /// # Errors
    ///
    /// [`VmError::InvalidAddress`] if the range is not fully allocated.
    pub(crate) fn copy_entries(
        &self,
        ctx: &CoreRefs,
        start: u64,
        end: u64,
    ) -> VmResult<Vec<MapEntry>> {
        let mut g = self.lock();
        let keys = g.clip_range(start, end, ctx);
        let covered: u64 = keys.iter().map(|&k| g.entry(k).size()).sum();
        if covered != end - start {
            return Err(VmError::InvalidAddress);
        }
        let mut out = Vec::new();
        for k in keys {
            let e = g.entry_mut(k);
            if matches!(e.target, MapTarget::Object { .. }) {
                e.copy_on_write = true;
                e.needs_copy = true;
            }
            let copy = e.clone();
            copy.reference_target();
            out.push(copy);
        }
        Ok(out)
    }
}

impl Drop for VmMap {
    fn drop(&mut self) {
        // Task exit / last un-share: release every entry's object
        // reference so shadow chains can collapse and cached objects can
        // park or terminate.
        let Some(ctx) = self.ctx.upgrade() else {
            return;
        };
        let entries: Vec<MapEntry> = {
            let mut g = self.lock();
            g.hint = None;
            let mut v = Vec::with_capacity(g.entries.len());
            while let Some((_, e)) = g.entries.pop_first() {
                v.push(e);
            }
            v
        };
        for e in entries {
            if let Some(pmap) = &self.pmap {
                pmap.remove(mach_hw::VAddr(e.start), mach_hw::VAddr(e.end));
            }
            match e.target {
                MapTarget::Object { object, .. } => {
                    object::deallocate(&object, &ctx);
                    // The survivors of this object's chain may now be
                    // collapsible.
                    object::collapse(&object, &ctx);
                }
                MapTarget::Share { map, .. } => drop(map),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectCache;
    use crate::page::ResidentTable;
    use crate::stats::VmStatsAtomic;
    use mach_hw::machine::{Machine, MachineModel};

    fn ctx() -> Arc<CoreRefs> {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let machdep = mach_pmap::machdep_for(&machine);
        let default_pager = crate::pager::DefaultPager::new(&machine);
        let trace = Arc::new(crate::trace::TraceSink::new(machine.n_cpus()));
        Arc::new(CoreRefs {
            machine,
            machdep,
            resident: Arc::new(ResidentTable::new(4096)),
            cache: Arc::new(ObjectCache::new(8)),
            stats: Arc::new(VmStatsAtomic::default()),
            default_pager,
            page_size: 4096,
            collapse_enabled: std::sync::atomic::AtomicBool::new(true),
            map_indexed: std::sync::atomic::AtomicBool::new(true),
            pager_timeout: std::time::Duration::from_secs(5),
            trace,
            injector: crate::inject::Injector::disabled(),
            profile: Arc::new(crate::profile::Profiler::new(1)),
            health: Arc::new(crate::health::HealthSink::new()),
            ops: Arc::new(crate::ops::OpRecorder::new()),
        })
    }

    fn map(ctx: &Arc<CoreRefs>) -> Arc<VmMap> {
        VmMap::new_task_map(ctx, ctx.machdep.create(), 0, 1 << 30)
    }

    #[test]
    fn allocate_anywhere_finds_space() {
        let c = ctx();
        let m = map(&c);
        let a = m.allocate(&c, None, 8192, true).unwrap();
        let b = m.allocate(&c, None, 8192, true).unwrap();
        assert_ne!(a, b);
        assert_eq!(m.entry_count(), 2);
        // Non-overlapping.
        assert!(b >= a + 8192 || a >= b + 8192);
    }

    #[test]
    fn allocate_at_fixed_address() {
        let c = ctx();
        let m = map(&c);
        let a = m.allocate(&c, Some(0x10000), 4096, false).unwrap();
        assert_eq!(a, 0x10000);
        assert_eq!(
            m.allocate(&c, Some(0x10000), 4096, false).unwrap_err(),
            VmError::AlreadyAllocated
        );
        assert_eq!(
            m.allocate(&c, Some(0x10001), 4096, false).unwrap_err(),
            VmError::BadAlignment
        );
    }

    #[test]
    fn deallocate_splits_entries() {
        let c = ctx();
        let m = map(&c);
        let a = m.allocate(&c, Some(0x10000), 4096 * 4, false).unwrap();
        // Punch a hole in the middle.
        m.deallocate(&c, a + 4096, 4096 * 2).unwrap();
        let regions = m.regions();
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].start, a);
        assert_eq!(regions[0].end, a + 4096);
        assert_eq!(regions[1].start, a + 4096 * 3);
        // Reallocate into the hole.
        let b = m.allocate(&c, Some(a + 4096), 4096, false).unwrap();
        assert_eq!(b, a + 4096);
    }

    #[test]
    fn resolve_follows_offsets() {
        let c = ctx();
        let m = map(&c);
        let a = m.allocate(&c, None, 4096 * 4, true).unwrap();
        let r = m.resolve(&c, a + 4096 * 2).unwrap();
        assert_eq!(r.offset, 4096 * 2);
        assert_eq!(r.prot, Protection::DEFAULT);
        assert!(!r.needs_copy);
        assert_eq!(
            m.resolve(&c, a + 4096 * 4).unwrap_err(),
            VmError::InvalidAddress
        );
    }

    #[test]
    fn hint_speeds_up_repeat_lookups() {
        let c = ctx();
        let m = map(&c);
        let a = m.allocate(&c, None, 4096 * 16, true).unwrap();
        let _ = m.resolve(&c, a).unwrap();
        let misses_before = c.stats.hint_misses.load(Ordering::Relaxed);
        for i in 0..16 {
            let _ = m.resolve(&c, a + i * 4096).unwrap();
        }
        assert_eq!(
            c.stats.hint_misses.load(Ordering::Relaxed),
            misses_before,
            "sequential faults all hit the hint"
        );
        assert!(c.stats.hint_hits.load(Ordering::Relaxed) >= 16);
    }

    /// The hint path is identical in indexed and linear-reference modes:
    /// the same lookup sequence produces the same hit/miss accounting.
    #[test]
    fn hint_accounting_is_mode_independent() {
        let run = |indexed: bool| -> (u64, u64) {
            let c = ctx();
            c.map_indexed
                .store(indexed, std::sync::atomic::Ordering::Relaxed);
            let m = map(&c);
            let a = m.allocate(&c, Some(0x10000), 4096 * 8, false).unwrap();
            let b = m.allocate(&c, Some(0x40000), 4096 * 8, false).unwrap();
            for i in 0..8 {
                let _ = m.resolve(&c, a + i * 4096).unwrap();
            }
            let _ = m.resolve(&c, b).unwrap(); // far jump: hint miss
            let _ = m.resolve(&c, b + 4096).unwrap(); // successor hit
            assert!(m.resolve(&c, 0x8000_0000).is_err()); // miss, no entry
            (
                c.stats.hint_hits.load(Ordering::Relaxed),
                c.stats.hint_misses.load(Ordering::Relaxed),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn protect_clips_and_checks_maximum() {
        let c = ctx();
        let m = map(&c);
        let a = m.allocate(&c, None, 4096 * 4, true).unwrap();
        m.protect(&c, a + 4096, 4096, false, Protection::READ)
            .unwrap();
        let regions = m.regions();
        assert_eq!(regions.len(), 3, "protect split the entry");
        assert_eq!(regions[1].prot, Protection::READ);
        // Lower the maximum below current elsewhere: current follows.
        m.protect(&c, a, 4096, true, Protection::READ).unwrap();
        let regions = m.regions();
        assert_eq!(regions[0].max_prot, Protection::READ);
        assert_eq!(regions[0].prot, Protection::READ);
        // Raising current above maximum is refused.
        assert_eq!(
            m.protect(&c, a, 4096, false, Protection::ALL).unwrap_err(),
            VmError::ProtectionFailure
        );
        // Protecting an unallocated range is invalid.
        assert_eq!(
            m.protect(&c, a + 4096 * 4, 4096, false, Protection::READ)
                .unwrap_err(),
            VmError::InvalidAddress
        );
    }

    #[test]
    fn inherit_set_and_reported() {
        let c = ctx();
        let m = map(&c);
        let a = m.allocate(&c, None, 4096 * 2, true).unwrap();
        m.inherit(&c, a, 4096, Inheritance::None).unwrap();
        let regions = m.regions();
        assert_eq!(regions[0].inheritance, Inheritance::None);
        assert_eq!(regions[1].inheritance, Inheritance::Copy);
    }

    #[test]
    fn share_entry_is_idempotent() {
        let c = ctx();
        let m = map(&c);
        let a = m.allocate(&c, None, 4096 * 2, true).unwrap();
        let (s1, o1, _, _) = m.share_entry(&c, a).unwrap();
        let (s2, o2, _, _) = m.share_entry(&c, a).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(o1, o2);
        assert!(m.regions()[0].shared);
        // Resolving now goes through the sharing map.
        let r = m.resolve(&c, a + 4096).unwrap();
        assert!(Arc::ptr_eq(&r.holder, &s1));
        assert_eq!(r.holder_addr, 4096);
    }

    #[test]
    fn install_shadow_once() {
        let c = ctx();
        let m = map(&c);
        let a = m.allocate(&c, None, 4096, true).unwrap();
        let before = m.resolve(&c, a).unwrap().object;
        // Mark COW as vm_copy would.
        let _ = m.copy_entries(&c, a, a + 4096).unwrap();
        assert!(m.resolve(&c, a).unwrap().needs_copy);
        m.install_shadow(&c, a).unwrap();
        let r = m.resolve(&c, a).unwrap();
        assert!(!r.needs_copy);
        assert!(
            !Arc::ptr_eq(&r.object, &before),
            "entry now names the shadow"
        );
        assert_eq!(r.object.chain_length(), 1, "shadow backs onto the original");
        // Second call is a no-op.
        m.install_shadow(&c, a).unwrap();
        assert_eq!(m.resolve(&c, a).unwrap().object.chain_length(), 1);
    }

    #[test]
    fn find_space_skips_gaps_too_small() {
        let c = ctx();
        let m = map(&c);
        m.allocate(&c, Some(0), 4096, false).unwrap();
        m.allocate(&c, Some(8192), 4096, false).unwrap();
        // A 2-page allocation cannot fit in the 1-page hole at 4096.
        let a = m.allocate(&c, None, 8192, true).unwrap();
        assert!(a >= 12288);
        // A 1-page allocation goes into the hole.
        let b = m.allocate(&c, None, 4096, true).unwrap();
        assert_eq!(b, 4096);
    }

    #[test]
    fn simplify_heals_protect_splits() {
        let c = ctx();
        let m = map(&c);
        let a = m.allocate(&c, None, 4096 * 8, true).unwrap();
        assert_eq!(m.entry_count(), 1);
        // Split the entry three ways...
        m.protect(&c, a + 4096 * 2, 4096 * 2, false, Protection::READ)
            .unwrap();
        assert_eq!(m.entry_count(), 3);
        // ...then restore uniform attributes: the splits heal.
        m.protect(&c, a + 4096 * 2, 4096 * 2, false, Protection::DEFAULT)
            .unwrap();
        assert_eq!(m.entry_count(), 1, "entries coalesced");
        let r = m.regions();
        assert_eq!((r[0].start, r[0].end), (a, a + 4096 * 8));
        // Resolution still works across the healed entry.
        assert_eq!(m.resolve(&c, a + 4096 * 5).unwrap().offset, 4096 * 5);
    }

    #[test]
    fn simplify_does_not_merge_different_objects() {
        let c = ctx();
        let m = map(&c);
        let a = m.allocate(&c, Some(0x10000), 4096, false).unwrap();
        let b = m.allocate(&c, Some(0x11000), 4096, false).unwrap();
        assert_eq!(b, a + 4096);
        // Adjacent but different objects: protect must not merge them.
        m.protect(&c, a, 8192, false, Protection::READ).unwrap();
        assert_eq!(m.entry_count(), 2);
    }

    #[test]
    fn sparse_spaces_cost_nothing() {
        let c = ctx();
        let m = map(&c);
        // A mapping near the top of a 1 GB space; entry count stays tiny.
        let top = (1 << 30) - 4096;
        m.allocate(&c, Some(top), 4096, false).unwrap();
        m.allocate(&c, Some(0), 4096, false).unwrap();
        assert_eq!(m.entry_count(), 2);
        assert!(m.resolve(&c, top).is_ok());
    }

    /// Both lookup modes agree on hit/miss results across a sparse map,
    /// including addresses below the first entry, in gaps, and past the
    /// last entry (wraparound territory for the index's predecessor
    /// query).
    #[test]
    fn indexed_and_linear_lookups_agree() {
        let c = ctx();
        let m = map(&c);
        let starts = [0x0, 0x5000, 0x20000, 0x100000, (1 << 30) - 0x2000];
        for &s in &starts {
            m.allocate(&c, Some(s), 8192, false).unwrap();
        }
        let probe: Vec<u64> = (0..2048).map(|i| (i * 0x3456) & !(4096 - 1)).collect();
        let results = |indexed: bool| -> Vec<bool> {
            c.map_indexed
                .store(indexed, std::sync::atomic::Ordering::Relaxed);
            probe.iter().map(|&a| m.resolve(&c, a).is_ok()).collect()
        };
        assert_eq!(results(true), results(false));
    }
}

#[cfg(test)]
mod share_protect_tests {
    use super::*;
    use crate::kernel::Kernel;
    use mach_hw::machine::{Machine, MachineModel};

    #[test]
    fn set_maximum_applies_through_share_entries() {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let k = Kernel::boot(&machine);
        let ps = k.page_size();
        let a = k.create_task();
        let addr = a.map().allocate(k.ctx(), None, ps, true).unwrap();
        a.map()
            .inherit(k.ctx(), addr, ps, Inheritance::Shared)
            .unwrap();
        let _b = a.fork();
        // Lower A's maximum below write: current follows, permanently.
        a.map()
            .protect(k.ctx(), addr, ps, true, Protection::READ)
            .unwrap();
        let r = a.map().regions();
        assert_eq!(r[0].max_prot, Protection::READ);
        assert_eq!(r[0].prot, Protection::READ);
        // Raising it back is refused.
        assert_eq!(
            a.map()
                .protect(k.ctx(), addr, ps, false, Protection::DEFAULT)
                .unwrap_err(),
            VmError::ProtectionFailure
        );
        a.user(0, |u| {
            assert!(u.write_u32(addr, 1).is_err());
            u.read_u32(addr).unwrap();
        });
    }
}
