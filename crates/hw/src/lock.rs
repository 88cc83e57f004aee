//! Kernel locks: one acquisition path for every lock of the DESIGN.md §8
//! hierarchy.
//!
//! A [`KernelMutex`] knows the [`LockSite`] it guards, and
//! [`KernelMutex::lock`]
//!
//! - is one `try_lock` when the lock is free;
//! - otherwise parks the calling thread's CPU quiescent for the wait
//!   ([`Machine::kernel_block`](crate::machine::Machine::kernel_block)):
//!   the holder may be a shootdown initiator waiting on this very CPU's
//!   acknowledgement, which a thread asleep on the lock could never send;
//! - in debug builds checks the acquisition against the §8 order with a
//!   thread-local stack of held sites, and panics on an inversion, so the
//!   concurrency, interleaving and chaos suites check the order on every
//!   run;
//! - counts the acquisition toward the [`LockStats`] of the machine whose
//!   CPU the calling thread is bound to: contention is a failed
//!   `try_lock`, and its wait is measured in **host** nanoseconds (a
//!   blocked host thread charges no simulated cycles). While no machine
//!   counts, this costs one relaxed load; a thread bound to no CPU counts
//!   nothing.
//!
//! The simulated hardware's own mutexes (TLBs, MMU registers, IPI
//! mailboxes, the SUN 3 segment map) and leaf locks that call nothing
//! while held stay plain `parking_lot` mutexes.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::machine::with_bound_machine;

/// The kernel's lock sites, in DESIGN.md §8 order: a thread may take a
/// site ranked above every site it holds. The only same-site nesting is
/// top-down: a task map, then a sharing map it references
/// (`share_entry`); a front object, then its backing and deeper objects
/// (collapse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockSite {
    /// A task or sharing map's entries.
    VmMap,
    /// An object-cache shard, taken before the object it parks, revives
    /// or reaps.
    ObjectCacheShard,
    /// A memory object's state.
    VmObject,
    /// A page-state/queue shard of the resident table.
    PageQueueShard,
    /// An (object, offset) hash shard.
    PageHashShard,
    /// A per-CPU free-list stack.
    FreeLocal,
    /// The global free reserve.
    FreeReserve,
    /// A pmap port's tables: per-pmap state (VAX, NS32082) or one
    /// machine-wide world (RT PC, SUN 3, the RP3 store).
    PmapTables,
    /// A pv-table shard; no operation holds two.
    PvShard,
    /// The pager fleet's object→service binding table (a leaf).
    FleetBindings,
}

impl LockSite {
    /// Every site, in rank order.
    pub const ALL: [LockSite; 10] = [
        LockSite::VmMap,
        LockSite::ObjectCacheShard,
        LockSite::VmObject,
        LockSite::PageQueueShard,
        LockSite::PageHashShard,
        LockSite::FreeLocal,
        LockSite::FreeReserve,
        LockSite::PmapTables,
        LockSite::PvShard,
        LockSite::FleetBindings,
    ];

    /// Stable snake_case name (bench rows, reports, DESIGN.md §8).
    pub fn name(self) -> &'static str {
        match self {
            LockSite::VmMap => "vm_map",
            LockSite::ObjectCacheShard => "object_cache_shard",
            LockSite::VmObject => "vm_object",
            LockSite::PageQueueShard => "page_queue_shard",
            LockSite::PageHashShard => "page_hash_shard",
            LockSite::FreeLocal => "free_local",
            LockSite::FreeReserve => "free_reserve",
            LockSite::PmapTables => "pmap_tables",
            LockSite::PvShard => "pv_shard",
            LockSite::FleetBindings => "fleet_bindings",
        }
    }

    /// Position in the §8 order (outermost = smallest).
    pub fn rank(self) -> usize {
        self as usize
    }
}

/// Machines whose [`LockStats`] are counting, process-wide. While it is
/// zero an acquisition looks no further.
static COUNTING: AtomicUsize = AtomicUsize::new(0);

#[derive(Debug, Default)]
struct SiteCounters {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    wait_ns_total: AtomicU64,
}

/// One site's counters, as reported by [`LockStats::report`].
#[derive(Debug, Clone)]
pub struct LockSiteReport {
    /// Which site.
    pub site: LockSite,
    /// Acquisitions while counting.
    pub acquisitions: u64,
    /// Acquisitions whose first `try_lock` failed.
    pub contended: u64,
    /// Host nanoseconds spent waiting in contended acquisitions.
    pub wait_ns_total: u64,
}

/// One machine's lock counters
/// ([`Machine::locks`](crate::machine::Machine::locks)), fed by the
/// threads bound to its CPUs. Off until [`LockStats::enable`].
#[derive(Debug, Default)]
pub struct LockStats {
    enabled: AtomicBool,
    sites: [SiteCounters; LockSite::ALL.len()],
}

impl LockStats {
    /// Start counting. (The debug order checker is always on.)
    pub fn enable(&self) {
        if !self.enabled.swap(true, Ordering::SeqCst) {
            COUNTING.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Stop counting; collected counters remain readable.
    pub fn disable(&self) {
        if self.enabled.swap(false, Ordering::SeqCst) {
            COUNTING.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Snapshot every site's counters, in rank order.
    pub fn report(&self) -> Vec<LockSiteReport> {
        LockSite::ALL
            .iter()
            .map(|&site| {
                let c = &self.sites[site.rank()];
                LockSiteReport {
                    site,
                    acquisitions: c.acquisitions.load(Ordering::Relaxed),
                    contended: c.contended.load(Ordering::Relaxed),
                    wait_ns_total: c.wait_ns_total.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Count one acquisition of `site`, with its wait if it was contended.
    fn record(&self, site: LockSite, wait: Option<Duration>) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let c = &self.sites[site.rank()];
        c.acquisitions.fetch_add(1, Ordering::Relaxed);
        if let Some(wait) = wait {
            c.contended.fetch_add(1, Ordering::Relaxed);
            c.wait_ns_total
                .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

impl Drop for LockStats {
    fn drop(&mut self) {
        self.disable();
    }
}

#[inline]
fn counting() -> bool {
    COUNTING.load(Ordering::Relaxed) != 0
}

/// Count an uncontended acquisition of `site` toward the calling thread's
/// machine.
#[inline]
fn count_uncontended(site: LockSite) {
    if counting() {
        with_bound_machine(|m| m.locks.record(site, None));
    }
}

/// Debug-build §8 order check over a thread-local stack of held sites.
#[cfg(debug_assertions)]
mod order {
    use super::LockSite;
    use std::cell::RefCell;

    thread_local! {
        /// Sites this thread holds, in acquisition order.
        static HELD: RefCell<Vec<LockSite>> = const { RefCell::new(Vec::new()) };
    }

    /// Record `site` as held; when `checked`, first require it to rank
    /// above everything held, or to be a nesting site already on top.
    pub(super) fn push(site: LockSite, checked: bool) {
        // try_with: an acquisition during thread-local teardown skips the
        // check rather than aborting the process.
        let _ = HELD.try_with(|cell| {
            let mut held = cell.borrow_mut();
            if let Some(&top) = held.iter().max().filter(|_| checked) {
                let nests = site == top && matches!(site, LockSite::VmMap | LockSite::VmObject);
                assert!(
                    site > top || nests,
                    "lock-order violation: acquiring {} while holding {} \
                     (DESIGN.md §8 order; held: {:?})",
                    site.name(),
                    top.name(),
                    held
                );
            }
            held.push(site);
        });
    }

    /// Forget the most recent hold of `site` (guards may drop out of
    /// acquisition order).
    pub(super) fn pop(site: LockSite) {
        let _ = HELD.try_with(|cell| {
            let mut held = cell.borrow_mut();
            if let Some(i) = held.iter().rposition(|&s| s == site) {
                held.remove(i);
            }
        });
    }
}

/// A kernel lock at one [`LockSite`] (see the module docs).
#[derive(Debug)]
pub struct KernelMutex<T> {
    site: LockSite,
    inner: Mutex<T>,
}

impl<T> KernelMutex<T> {
    /// A lock at `site` guarding `value`.
    pub const fn new(site: LockSite, value: T) -> KernelMutex<T> {
        KernelMutex {
            site,
            inner: Mutex::new(value),
        }
    }

    /// Acquire the lock; a contended acquisition waits with the calling
    /// thread's CPU parked quiescent.
    #[inline]
    pub fn lock(&self) -> KernelGuard<'_, T> {
        #[cfg(debug_assertions)]
        order::push(self.site, true);
        let guard = match self.inner.try_lock() {
            Some(g) => {
                count_uncontended(self.site);
                g
            }
            None => self.lock_contended(),
        };
        self.guard(guard)
    }

    #[cold]
    fn lock_contended(&self) -> MutexGuard<'_, T> {
        let t0 = counting().then(Instant::now);
        with_bound_machine(|m| {
            let guard = {
                let _parked = m.kernel_block();
                self.inner.lock()
            };
            if let Some(t0) = t0 {
                m.locks.record(self.site, Some(t0.elapsed()));
            }
            guard
        })
        .unwrap_or_else(|| self.inner.lock())
    }

    /// Acquire the lock only if it is free. Never waits, so it is exempt
    /// from the order check: this is how a thread takes a lock out of
    /// order (the paging daemon's object lock).
    pub fn try_lock(&self) -> Option<KernelGuard<'_, T>> {
        let guard = self.inner.try_lock()?;
        count_uncontended(self.site);
        #[cfg(debug_assertions)]
        order::push(self.site, false);
        Some(self.guard(guard))
    }

    /// Acquire for the simulated hardware: the RP3 miss handler refilling
    /// a TLB from the store this lock guards. The walking CPU holds its
    /// own TLB mid-access, and parking answers queued IPIs by flushing
    /// that TLB, so this neither parks nor counts nor joins the order
    /// check.
    pub fn lock_for_hardware(&self) -> MutexGuard<'_, T> {
        self.inner.lock()
    }

    fn guard<'a>(&self, guard: MutexGuard<'a, T>) -> KernelGuard<'a, T> {
        KernelGuard {
            guard,
            #[cfg(debug_assertions)]
            site: self.site,
        }
    }
}

/// A held [`KernelMutex`]: the `parking_lot` guard, plus (in debug builds)
/// the site to pop off the order checker's stack on drop.
pub struct KernelGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    site: LockSite,
}

impl<T> KernelGuard<'_, T> {
    /// Release the lock and wait on `cv` until notified or `timeout`
    /// passes, then reacquire it; returns whether it timed out. The CPU
    /// waits quiescent, like a contended [`KernelMutex::lock`].
    pub fn wait_for(&mut self, cv: &Condvar, timeout: Duration) -> bool {
        self.wait_until(cv, Instant::now() + timeout)
    }

    /// [`KernelGuard::wait_for`] with an absolute deadline.
    pub fn wait_until(&mut self, cv: &Condvar, deadline: Instant) -> bool {
        with_bound_machine(|m| {
            let _parked = m.kernel_block();
            cv.wait_until(&mut self.guard, deadline).timed_out()
        })
        .unwrap_or_else(|| cv.wait_until(&mut self.guard, deadline).timed_out())
    }
}

impl<T> std::ops::Deref for KernelGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for KernelGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for KernelGuard<'_, T> {
    fn drop(&mut self) {
        order::pop(self.site);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineModel};
    use crate::tlb::FlushScope;

    fn site_report(m: &Machine, site: LockSite) -> LockSiteReport {
        m.locks.report()[site.rank()].clone()
    }

    /// Spin until the thread that raises `bound` once it has bound CPU
    /// `cpu` parks it, failing after five seconds.
    fn await_parked(m: &Machine, cpu: usize, bound: &AtomicBool) {
        let t0 = Instant::now();
        while !bound.load(Ordering::SeqCst) || m.cpu(cpu).is_active() {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "CPU {cpu} never parked"
            );
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_counts_nothing() {
        let m = Machine::boot(MachineModel::micro_vax_ii());
        let _b = m.bind_cpu(0);
        let lock = KernelMutex::new(LockSite::PageQueueShard, 0u32);
        for _ in 0..5 {
            *lock.lock() += 1;
        }
        let r = site_report(&m, LockSite::PageQueueShard);
        assert_eq!((r.acquisitions, r.contended), (0, 0));
    }

    #[test]
    fn enabled_counts_acquisitions() {
        let m = Machine::boot(MachineModel::micro_vax_ii());
        let _b = m.bind_cpu(0);
        m.locks.enable();
        let lock = KernelMutex::new(LockSite::PageHashShard, 0u32);
        for _ in 0..7 {
            *lock.lock() += 1;
        }
        m.locks.disable();
        let r = site_report(&m, LockSite::PageHashShard);
        assert_eq!(r.acquisitions, 7);
        assert_eq!(r.contended, 0, "uncontended single-thread acquisitions");
        // Disabled again: nothing further counts.
        *lock.lock() += 1;
        assert_eq!(site_report(&m, LockSite::PageHashShard).acquisitions, 7);
    }

    #[test]
    fn contention_is_detected() {
        let m = Machine::boot(MachineModel::vax_11_784());
        m.locks.enable();
        let lock = KernelMutex::new(LockSite::FreeReserve, 0u64);
        let bound = AtomicBool::new(false);
        std::thread::scope(|s| {
            // Held by this thread, which is bound to no CPU and so counts
            // nothing: CPU 1's try_lock must fail and count a contended
            // acquisition with its wait.
            let held = lock.lock();
            s.spawn(|| {
                let _b = m.bind_cpu(1);
                bound.store(true, Ordering::SeqCst);
                *lock.lock() += 1;
            });
            await_parked(&m, 1, &bound);
            drop(held);
        });
        let r = site_report(&m, LockSite::FreeReserve);
        assert_eq!((r.acquisitions, r.contended), (1, 1));
        assert!(r.wait_ns_total > 0);
    }

    #[test]
    fn a_thread_bound_to_no_cpu_counts_nothing() {
        let m = Machine::boot(MachineModel::micro_vax_ii());
        m.locks.enable();
        let lock = KernelMutex::new(LockSite::VmObject, ());
        drop(lock.lock());
        drop(lock.try_lock());
        {
            let _b = m.bind_cpu(0);
            drop(lock.lock());
        }
        drop(lock.lock());
        assert_eq!(site_report(&m, LockSite::VmObject).acquisitions, 1);
    }

    #[test]
    fn kernel_mutex_parks_only_when_contended() {
        let m = Machine::boot(MachineModel::vax_11_784());
        let lock = KernelMutex::new(LockSite::VmObject, 0u32);
        let bound = AtomicBool::new(false);
        let _b = m.bind_cpu(1);
        // Uncontended: the CPU stays active.
        *lock.lock() += 1;
        assert!(m.cpu(1).is_active());
        std::thread::scope(|s| {
            let held = lock.lock();
            let waiter = s.spawn(|| {
                let _b = m.bind_cpu(2);
                bound.store(true, Ordering::SeqCst);
                *lock.lock() += 1;
                m.cpu(2).is_active()
            });
            // Contended: CPU 2 waits for the lock parked.
            await_parked(&m, 2, &bound);
            drop(held);
            assert!(
                waiter.join().unwrap(),
                "active again once it holds the lock"
            );
        });
        assert_eq!(*lock.lock(), 2);
    }

    #[test]
    fn in_order_nesting_passes_the_checker() {
        let a = KernelMutex::new(LockSite::PageQueueShard, ());
        let b = KernelMutex::new(LockSite::FreeLocal, ());
        let c = KernelMutex::new(LockSite::FreeReserve, ());
        let _ga = a.lock();
        let gb = b.lock();
        drop(gb);
        let _gc = c.lock();
    }

    #[test]
    fn maps_and_objects_nest_top_down() {
        let task_map = KernelMutex::new(LockSite::VmMap, ());
        let sharing_map = KernelMutex::new(LockSite::VmMap, ());
        let objects: Vec<_> = (0..3)
            .map(|_| KernelMutex::new(LockSite::VmObject, ()))
            .collect();
        let _m = task_map.lock();
        let _s = sharing_map.lock();
        let _front = objects[0].lock();
        let _backing = objects[1].lock();
        let _deeper = objects[2].lock();
    }

    #[test]
    fn try_lock_out_of_order_passes_the_checker() {
        let shard = KernelMutex::new(LockSite::PageQueueShard, ());
        let object = KernelMutex::new(LockSite::VmObject, ());
        let _s = shard.lock();
        assert!(object.try_lock().is_some());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn inverted_nesting_panics() {
        let a = KernelMutex::new(LockSite::FreeReserve, ());
        let b = KernelMutex::new(LockSite::PageQueueShard, ());
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn same_kind_nesting_panics() {
        let a = KernelMutex::new(LockSite::PageQueueShard, ());
        let b = KernelMutex::new(LockSite::PageQueueShard, ());
        let _ga = a.lock();
        let _gb = b.lock();
    }

    /// CPU 0 holds a lock at `site` and shoots down CPU 1, which is
    /// blocked on that lock. CPU 1 must wait parked, so the shootdown
    /// flushes it directly instead of waiting for an acknowledgement.
    fn shootdown_under_a_held_lock(site: LockSite) {
        let m = Machine::boot(MachineModel::vax_11_784());
        let lock = KernelMutex::new(site, 0u32);
        let bound = AtomicBool::new(false);
        let _b = m.bind_cpu(0);
        std::thread::scope(|s| {
            let mut held = lock.lock();
            s.spawn(|| {
                let _b = m.bind_cpu(1);
                bound.store(true, Ordering::SeqCst);
                *lock.lock() += 1;
            });
            await_parked(&m, 1, &bound);
            let t0 = Instant::now();
            assert_eq!(m.shootdown(&[1], FlushScope::All, true), 0);
            assert!(t0.elapsed() < Duration::from_millis(100));
            *held += 1;
        });
        assert_eq!(*lock.lock(), 2);
        assert_eq!(m.stats.snapshot().shootdown_timeouts, 0);
    }

    #[test]
    fn shootdown_under_vm_map() {
        shootdown_under_a_held_lock(LockSite::VmMap);
    }

    #[test]
    fn shootdown_under_object_cache_shard() {
        shootdown_under_a_held_lock(LockSite::ObjectCacheShard);
    }

    #[test]
    fn shootdown_under_vm_object() {
        shootdown_under_a_held_lock(LockSite::VmObject);
    }

    #[test]
    fn shootdown_under_page_queue_shard() {
        shootdown_under_a_held_lock(LockSite::PageQueueShard);
    }

    #[test]
    fn shootdown_under_page_hash_shard() {
        shootdown_under_a_held_lock(LockSite::PageHashShard);
    }

    #[test]
    fn shootdown_under_free_local() {
        shootdown_under_a_held_lock(LockSite::FreeLocal);
    }

    #[test]
    fn shootdown_under_free_reserve() {
        shootdown_under_a_held_lock(LockSite::FreeReserve);
    }

    #[test]
    fn shootdown_under_pmap_tables() {
        shootdown_under_a_held_lock(LockSite::PmapTables);
    }

    #[test]
    fn shootdown_under_pv_shard() {
        shootdown_under_a_held_lock(LockSite::PvShard);
    }

    #[test]
    fn shootdown_under_fleet_bindings() {
        shootdown_under_a_held_lock(LockSite::FleetBindings);
    }
}
