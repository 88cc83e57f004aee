//! The paging daemon (paper §3.1, §5.2 case 2).
//!
//! Pages move free → active → inactive → (clean reclaim | pageout) using
//! reference bits sampled through the pmap layer. Before a page is written
//! out, its mappings are removed with the **deferred** shootdown strategy:
//! "the system first removes the mapping from any primary memory mapping
//! data structures and then initiates pageout only after all referencing
//! TLBs have been flushed."
//!
//! Reclamation runs synchronously when the free pool runs dry (the fault
//! handler calls [`reclaim`]) and can also be driven from a dedicated
//! thread via [`PageoutDaemon`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::ctx::CoreRefs;
use crate::fault::release_busy;
use crate::page::{PageId, PageQueue};
use crate::trace::{PagerMsg, TraceEvent};
use crate::types::VmError;

/// How many times a transient ([`VmError::DeviceBusy`]) pageout write is
/// retried before the pageout is abandoned for this daemon pass.
const PAGEOUT_RETRIES: u32 = 3;

/// How many distinct shadow-chained objects one reclaim sweep hands to
/// the §3.5 collapse pass. Bounded so pressure-path latency stays
/// predictable; the sweep runs often enough that the whole population is
/// visited over a few passes.
const COMPACT_PER_SWEEP: usize = 8;

/// Try to free at least `want` pages; returns how many were freed.
///
/// Order of attack: refill the inactive queue from the active queue
/// (clearing reference bits), evict unreferenced inactive pages (clean
/// pages are reclaimed, dirty ones written to their pager), and finally
/// reap unreferenced objects from the object cache.
pub fn reclaim(ctx: &CoreRefs, want: usize) -> usize {
    let _sp = ctx.prof_span(crate::profile::SpanKind::Pageout);
    if ctx.health.is_enabled() {
        ctx.health.page_queues(&ctx.machine, ctx.resident.counts());
    }
    let page = ctx.page_size;
    let mut freed = 0usize;

    // Work-stealing start point: each reclaiming CPU sweeps the queue
    // shards beginning at "its" shard, so concurrent reclaimers (the
    // daemon plus fault-path callers on other CPUs) fan out over
    // different shards first and collide only when their own runs dry.
    let home = ctx.machine.current_cpu() % ctx.resident.shard_count();

    // Refill the inactive queue so the scan below has candidates.
    let counts = ctx.resident.counts();
    let target_inactive = (want * 2).max(8);
    if (counts.inactive as usize) < target_inactive {
        let need = target_inactive - counts.inactive as usize;
        for p in ctx.resident.active_candidates_from(home, need) {
            ctx.machdep.clear_reference(p.base(page), page);
            ctx.resident.set_queue(p, PageQueue::Inactive);
        }
    }

    // Memory pressure is the other moment chains are worth compacting:
    // while sweeping, note objects that sit on shadow chains and run the
    // §3.5 collapse pass over a bounded set of them once the evictions
    // are done (no page or object lock is held here). A collapsed chain
    // both frees obscured pages outright and shortens every future
    // fault's descent.
    let mut compact: Vec<std::sync::Arc<crate::object::VmObject>> = Vec::new();
    for p in ctx.resident.inactive_candidates_from(home, want * 4) {
        if freed >= want {
            break;
        }
        if compact.len() < COMPACT_PER_SWEEP {
            let owner = ctx
                .resident
                .with_page(p, |pi| pi.identity.as_ref().map(|i| i.object.clone()));
            if let Some(obj) = owner.and_then(|w| w.upgrade()) {
                if obj.chain_length() > 0
                    && !compact.iter().any(|o| std::sync::Arc::ptr_eq(o, &obj))
                {
                    compact.push(obj);
                }
            }
        }
        if evict_one(ctx, p) {
            freed += 1;
        }
    }
    for obj in compact {
        crate::object::collapse(&obj, ctx);
    }

    while freed < want {
        let before = ctx.resident.counts().free;
        let reaped = {
            let _oc = ctx.prof_span(crate::profile::SpanKind::ObjectCache);
            ctx.cache.reap_one(ctx)
        };
        if !reaped {
            break;
        }
        if ctx.health.is_enabled() {
            ctx.health.cache_occupancy(ctx.cache.len() as u64);
        }
        let after = ctx.resident.counts().free;
        freed += (after - before) as usize;
    }
    freed
}

/// Evict one inactive page if legal; returns whether a page was freed.
fn evict_one(ctx: &CoreRefs, page: PageId) -> bool {
    let ps = ctx.page_size;
    let pa = page.base(ps);
    // Claim atomically: the claim marks the page busy, excluding faulting
    // threads and concurrent reclaimers (daemon + synchronous reclaim).
    if !ctx.resident.claim_evict(page) {
        return false;
    }
    let (ident, dirty_hint) = ctx
        .resident
        .with_page(page, |p| (p.identity.clone(), p.dirty));
    let Some(ident) = ident else {
        // Orphan page (identity already cleared): just free it.
        ctx.resident.free_page(page);
        return true;
    };
    let Some(obj) = ident.object.upgrade() else {
        ctx.machdep.page_free(pa, ps);
        ctx.resident.free_page(page);
        return true;
    };
    let Some(mut s) = obj.try_lock_state() else {
        release_busy(ctx, &obj, page, false);
        return false; // contended; try another page
    };
    if s.resident.get(&ident.offset) != Some(&page) {
        drop(s);
        release_busy(ctx, &obj, page, false);
        return false; // identity changed under us
    }
    // Second chance: a referenced page goes back to the active queue.
    if ctx.machdep.is_referenced(pa, ps) {
        drop(s);
        ctx.machdep.clear_reference(pa, ps);
        release_busy(ctx, &obj, page, false);
        ctx.resident.set_queue(page, PageQueue::Active);
        ctx.stats.reactivations.fetch_add(1, Ordering::Relaxed);
        ctx.trace_emit(0, obj.id(), ident.offset, TraceEvent::Reactivate);
        return false;
    }
    // Remove mappings with the pageout (deferred) strategy...
    let pending = ctx.machdep.remove_all_deferred(pa, ps);
    let dirty = dirty_hint || ctx.machdep.is_modified(pa, ps);
    if dirty {
        if s.pager.is_none() {
            // Anonymous memory meets the default pager on first pageout.
            s.pager = Some(Arc::clone(&ctx.default_pager));
        }
        let pager = Arc::clone(s.pager.as_ref().expect("just set"));
        s.paging_in_progress += 1;
        // The page stays **resident and busy in the object** until the
        // pager write completes: a concurrent fault must wait on it, not
        // zero-fill a fresh copy — otherwise two in-flight pageouts of
        // the same offset can reach the pager out of order and resurrect
        // stale data.
        drop(s);
        // ...and write only after every referencing TLB has been flushed.
        ctx.machdep.complete(&pending);
        let mut buf = vec![0u8; ps as usize];
        ctx.machine
            .phys()
            .read(pa, &mut buf)
            .expect("resident frame readable");
        ctx.trace_emit(
            0,
            obj.id(),
            ident.offset,
            TraceEvent::PagerRequest {
                msg: PagerMsg::DataWrite,
                pager: pager.port_id(obj.id()),
                causal: crate::trace::current_causal(),
            },
        );
        let mut result = pager.data_write(obj.id(), ident.offset, buf);
        let mut attempt = 0;
        while matches!(result, Err(VmError::DeviceBusy)) && attempt < PAGEOUT_RETRIES {
            // Transient backing-store error: retry with backoff. The frame
            // is still busy and untouched, so re-read it rather than
            // cloning the buffer on the (common) first-try-succeeds path.
            attempt += 1;
            ctx.stats.io_retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(50 << attempt));
            let mut retry = vec![0u8; ps as usize];
            ctx.machine
                .phys()
                .read(pa, &mut retry)
                .expect("resident frame readable");
            result = pager.data_write(obj.id(), ident.offset, retry);
        }
        if result.is_err() {
            // The write never made it to backing store: the page keeps
            // its data and identity, stays dirty (the modify bit was
            // consumed above, so pin the hint) and returns to the
            // inactive queue for a later daemon pass.
            let mut s = obj.lock();
            s.paging_in_progress -= 1;
            if ctx.resident.release(page, true) {
                obj.busy_wakeup.notify_all();
            }
            ctx.stats.failed_pageouts.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        {
            let mut s = obj.lock();
            s.paging_in_progress -= 1;
            // Only now does the page leave the object, and its identity
            // with it; a fault can allocate a replacement immediately.
            if s.resident.get(&ident.offset) == Some(&page) {
                s.resident.remove(&ident.offset);
            }
            ctx.resident.clear_identity(page);
        }
        ctx.stats.pageouts.fetch_add(1, Ordering::Relaxed);
        ctx.trace_emit(0, obj.id(), ident.offset, TraceEvent::PageoutWrite);
    } else {
        s.resident.remove(&ident.offset);
        ctx.resident.clear_identity(page);
        drop(s);
        ctx.machdep.complete(&pending);
        ctx.stats.reclaims.fetch_add(1, Ordering::Relaxed);
        ctx.trace_emit(0, obj.id(), ident.offset, TraceEvent::Reclaim);
    }
    // The mappings went above; `page_free` also drops leftover
    // modify/reference bits, so the frame's next user starts clean.
    ctx.machdep.page_free(pa, ps);
    if ctx.resident.free_page(page) {
        // A fault asleep on the busy page rechecks and refaults through
        // the object.
        obj.wake_waiters();
    }
    true
}

/// A background paging daemon keeping the free pool above a threshold.
#[derive(Debug)]
pub struct PageoutDaemon {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl PageoutDaemon {
    /// Start a daemon that keeps at least `free_target` pages free,
    /// checking every `interval`.
    pub fn start(ctx: Arc<CoreRefs>, free_target: u64, interval: Duration) -> PageoutDaemon {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("mach-pageout".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    // Chaos layer: maybe shrink the free pool first, so
                    // the daemon reclaims under artificial pressure.
                    ctx.injector.pressure_pulse(&ctx);
                    let free = ctx.resident.counts().free;
                    if free < free_target {
                        reclaim(&ctx, (free_target - free) as usize);
                    }
                    std::thread::sleep(interval);
                }
                // Give hostage pages back on the way out so end-of-run
                // invariant checks see a clean resident table.
                ctx.injector.release_pressure(&ctx);
            })
            .expect("spawn pageout daemon");
        PageoutDaemon {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the daemon and join its thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for PageoutDaemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use crate::types::Protection;
    use mach_hw::machine::{Machine, MachineModel};

    #[test]
    fn daemon_keeps_free_pool_above_target() {
        let mut model = MachineModel::micro_vax_ii();
        model.mem_bytes = 2 << 20;
        let machine = Machine::boot(model);
        let kernel = Kernel::boot(&machine);
        let ctx = Arc::clone(kernel.ctx());
        let free_target = 64;
        let daemon = PageoutDaemon::start(Arc::clone(&ctx), free_target, Duration::from_millis(5));

        // Burn through more memory than the machine has; the daemon frees
        // pages behind our back.
        let task = kernel.create_task();
        let ps = kernel.page_size();
        let total = 3u64 << 20;
        let addr = task.map().allocate(&ctx, None, total, true).unwrap();
        task.user(0, |u| {
            let mut a = addr;
            while a < addr + total {
                u.write_u32(a, (a / ps) as u32).unwrap();
                a += ps;
            }
        });
        // Give the daemon a beat, then check the pool.
        std::thread::sleep(Duration::from_millis(60));
        let free = ctx.resident.counts().free;
        assert!(
            free >= free_target / 2,
            "daemon kept only {free} pages free (target {free_target})"
        );
        assert!(kernel.statistics().pageouts > 0);
        // Data still correct.
        task.user(0, |u| {
            for i in (0..total / ps).step_by(11) {
                assert_eq!(
                    u.read_u32(addr + i * ps).unwrap(),
                    ((addr + i * ps) / ps) as u32
                );
            }
        });
        daemon.stop();
    }

    #[test]
    fn second_chance_reactivates_referenced_pages() {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let kernel = Kernel::boot(&machine);
        let ctx = kernel.ctx();
        let ps = kernel.page_size();
        let task = kernel.create_task();
        let addr = task.map().allocate(ctx, None, 4 * ps, true).unwrap();
        task.user(0, |u| u.dirty_range(addr, 4 * ps).unwrap());
        // Everything just became inactive...
        for p in ctx.resident.active_candidates(16) {
            ctx.resident.set_queue(p, crate::page::PageQueue::Inactive);
        }
        // ...but the task references its pages again.
        task.user(0, |u| u.touch_range(addr, 4 * ps).unwrap());
        let before = kernel.statistics();
        reclaim(ctx, 2);
        let after = kernel.statistics();
        assert!(
            after.reactivations > before.reactivations,
            "referenced inactive pages get a second chance"
        );
    }

    #[test]
    fn clean_pages_reclaim_without_io() {
        let machine = Machine::boot(MachineModel::vax_8200());
        let kernel = Kernel::boot(&machine);
        let _ctx = kernel.ctx();
        let ps = kernel.page_size();
        // Map a file read-only and touch it: the pages are clean copies.
        let dev = mach_fs::BlockDevice::new(&machine, 64);
        let fs = mach_fs::SimFs::format(&dev);
        let f = fs.create("clean").unwrap();
        fs.write_at(f, 0, &vec![3u8; (8 * ps) as usize]).unwrap();
        let task = kernel.create_task();
        let addr = kernel
            .map_file(&task, &fs, f, None, Protection::READ)
            .unwrap();
        task.user(0, |u| u.touch_range(addr, 8 * ps).unwrap());
        let before = kernel.statistics();
        let freed = kernel.reclaim(8);
        let after = kernel.statistics();
        assert!(freed >= 4);
        assert!(after.reclaims > before.reclaims, "clean pages reclaimed");
        assert_eq!(
            after.pageouts, before.pageouts,
            "no write-back for clean file pages"
        );
        // Refault re-reads from the file.
        task.user(0, |u| {
            let b = u.read_bytes(addr, 1).unwrap();
            assert_eq!(b[0], 3);
        });
    }

    #[test]
    fn failed_pageout_keeps_page_dirty_for_a_later_pass() {
        // Regression: evict_one used to assume the backing-store write
        // succeeds. Fail every device write, reclaim, and the dirty page
        // must survive — then heal the device and watch the retry land.
        let machine = Machine::boot(MachineModel::vax_8200());
        let dev = mach_fs::BlockDevice::new(&machine, 512);
        let fs = mach_fs::SimFs::format(&dev);
        let kernel = Kernel::boot_with_paging_file(&machine, &fs);
        let ctx = kernel.ctx();
        let ps = kernel.page_size();
        let task = kernel.create_task();
        let addr = task.map().allocate(ctx, None, 4 * ps, true).unwrap();
        task.user(0, |u| u.dirty_range(addr, 4 * ps).unwrap());
        task.user(0, |u| u.write_u32(addr, 0xFEED).unwrap());
        for p in ctx.resident.active_candidates(16) {
            ctx.resident.set_queue(p, crate::page::PageQueue::Inactive);
        }
        reclaim(ctx, 4); // ages reference bits
        dev.set_fault_hook(Some(std::sync::Arc::new(|op, _| {
            (op == mach_fs::IoOp::Write).then_some(mach_fs::IoError::Permanent)
        })));
        let before = kernel.statistics();
        let freed = reclaim(ctx, 4);
        let after = kernel.statistics();
        assert_eq!(freed, 0, "nothing freed while the device eats writes");
        assert!(after.failed_pageouts > before.failed_pageouts);
        assert_eq!(after.pageouts, before.pageouts, "no pageout completed");
        // The pages are still resident and still dirty.
        task.user(0, |u| assert_eq!(u.read_u32(addr).unwrap(), 0xFEED));
        // Device healed: the next pass writes them out for real.
        dev.set_fault_hook(None);
        for p in ctx.resident.active_candidates(16) {
            ctx.resident.set_queue(p, crate::page::PageQueue::Inactive);
        }
        reclaim(ctx, 4);
        let healed = reclaim(ctx, 4);
        assert!(healed > 0, "pageout succeeds once the device recovers");
        assert!(kernel.statistics().pageouts > after.pageouts);
        task.user(0, |u| assert_eq!(u.read_u32(addr).unwrap(), 0xFEED));
    }

    #[test]
    fn transient_pageout_errors_are_retried_with_backoff() {
        use std::sync::atomic::AtomicU64;
        let machine = Machine::boot(MachineModel::vax_8200());
        let dev = mach_fs::BlockDevice::new(&machine, 512);
        let fs = mach_fs::SimFs::format(&dev);
        let kernel = Kernel::boot_with_paging_file(&machine, &fs);
        let ctx = kernel.ctx();
        let ps = kernel.page_size();
        let task = kernel.create_task();
        let addr = task.map().allocate(ctx, None, 2 * ps, true).unwrap();
        task.user(0, |u| u.dirty_range(addr, 2 * ps).unwrap());
        for p in ctx.resident.active_candidates(16) {
            ctx.resident.set_queue(p, crate::page::PageQueue::Inactive);
        }
        reclaim(ctx, 2);
        // Fail the first write attempt transiently, then succeed.
        let failures = std::sync::Arc::new(AtomicU64::new(1));
        let f2 = std::sync::Arc::clone(&failures);
        dev.set_fault_hook(Some(std::sync::Arc::new(move |op, _| {
            if op == mach_fs::IoOp::Write
                && f2
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
            {
                Some(mach_fs::IoError::Transient)
            } else {
                None
            }
        })));
        let before = kernel.statistics();
        let freed = reclaim(ctx, 2);
        let after = kernel.statistics();
        assert!(freed > 0, "retry made the pageout land");
        assert!(after.io_retries > before.io_retries);
        assert_eq!(after.failed_pageouts, before.failed_pageouts);
        assert!(after.pageouts > before.pageouts);
    }

    #[test]
    fn deferred_shootdown_completes_before_pageout_write() {
        // The §5.2 case-2 ordering: mappings are removed with the
        // deferred strategy and the dirty page is written only after
        // update() has flushed every referencing TLB. The debug_assert in
        // evict_one enforces it; this test drives the path end to end.
        let machine = Machine::boot(MachineModel::multimax(2));
        let kernel = Kernel::boot(&machine);
        let ctx = kernel.ctx();
        let ps = kernel.page_size();
        let task = kernel.create_task();
        let addr = task.map().allocate(ctx, None, 4 * ps, true).unwrap();
        task.user(0, |u| u.dirty_range(addr, 4 * ps).unwrap());
        for p in ctx.resident.active_candidates(16) {
            ctx.resident.set_queue(p, crate::page::PageQueue::Inactive);
        }
        // Two passes: the first ages reference bits (second chance), the
        // second evicts.
        reclaim(ctx, 4);
        let freed = reclaim(ctx, 4);
        assert!(freed > 0);
        assert!(kernel.statistics().pageouts > 0);
    }

    /// A fault that finds a page busy under pageout sets `wanted` and
    /// sleeps on the page's object. Pageout frees the page once it is
    /// written and wakes the fault, which pages the data back in. Without
    /// that wakeup the fault would sleep out `pager_timeout` and fail.
    #[test]
    fn a_fault_asleep_on_a_page_being_paged_out_wakes_when_it_is_freed() {
        use std::sync::atomic::AtomicU8;
        use std::time::Instant;
        let machine = Machine::boot(MachineModel::multimax(2));
        let dev = mach_fs::BlockDevice::new(&machine, 512);
        let fs = mach_fs::SimFs::format(&dev);
        let kernel = Kernel::boot_with_paging_file(&machine, &fs);
        let ctx = kernel.ctx();
        let ps = kernel.page_size();
        let task = kernel.create_task();
        let addr = task.map().allocate(ctx, None, ps, true).unwrap();
        task.user(0, |u| u.write_u32(addr, 0xC0FFEE).unwrap());
        let page = task
            .map()
            .resolve(ctx, addr)
            .unwrap()
            .object
            .lock()
            .resident[&0];
        ctx.machdep.clear_reference(page.base(ps), ps);
        ctx.resident.set_queue(page, PageQueue::Inactive);

        // The first pageout write (stage 0 → 1) holds the page busy until
        // a fault has set `wanted` on it (→ 2), or for at most 2 s (→ 3).
        let stage = Arc::new(AtomicU8::new(0));
        let (hook_stage, rt) = (Arc::clone(&stage), Arc::clone(&ctx.resident));
        dev.set_fault_hook(Some(Arc::new(move |op, _| {
            if op == mach_fs::IoOp::Write && hook_stage.swap(1, Ordering::AcqRel) == 0 {
                let deadline = Instant::now() + Duration::from_secs(2);
                let wanted = loop {
                    if rt.with_page(page, |p| p.wanted) {
                        break true;
                    }
                    if Instant::now() > deadline {
                        break false;
                    }
                    std::thread::yield_now();
                };
                hook_stage.store(if wanted { 2 } else { 3 }, Ordering::Release);
            }
            None
        })));
        let (result, slept) = std::thread::scope(|s| {
            let fault = s.spawn(|| {
                let _cpu = machine.bind_cpu(1);
                while stage.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                let t0 = Instant::now();
                let r = crate::fault::vm_fault(ctx, task.map(), addr, Protection::READ, false);
                (r, t0.elapsed())
            });
            let _cpu = machine.bind_cpu(0);
            assert!(evict_one(ctx, page), "the page was paged out");
            fault.join().unwrap()
        });
        assert_eq!(
            stage.load(Ordering::Acquire),
            2,
            "the fault slept on the page"
        );
        let refaulted = result.expect("the fault woke before pager_timeout");
        assert!(
            slept < ctx.pager_timeout / 2,
            "the fault slept {slept:?} (pager_timeout {:?})",
            ctx.pager_timeout
        );
        let word = ctx.machine.phys().read_u32(refaulted.base(ps)).unwrap();
        assert_eq!(word, 0xC0FFEE, "the data came back from the paging file");
        assert!(kernel.statistics().pageins > 0);
    }

    /// Two CPUs reclaiming at once: each may drain deferred flushes the
    /// other queued and shoot them down while the other waits for them.
    /// The waiter is quiescent, so neither stalls the other.
    #[test]
    fn concurrent_reclaims_do_not_stall_each_other() {
        let machine = Machine::boot(MachineModel::multimax(2));
        let kernel = Kernel::boot(&machine);
        let ctx = kernel.ctx();
        let ps = kernel.page_size();
        let pages = 64u64;
        // Both CPUs' TLBs hold the task's pages, so every flush of them
        // targets both CPUs.
        let task = kernel.create_task();
        let addr = task.map().allocate(ctx, None, pages * ps, true).unwrap();
        task.user(0, |u| u.dirty_range(addr, pages * ps).unwrap());
        task.user(1, |u| u.touch_range(addr, pages * ps).unwrap());
        for p in ctx.resident.active_candidates(2 * pages as usize) {
            ctx.resident.set_queue(p, PageQueue::Inactive);
        }
        reclaim(ctx, pages as usize); // ages reference bits
        let barrier = std::sync::Barrier::new(2);
        let slowest = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|cpu| {
                    let (machine, barrier) = (&machine, &barrier);
                    s.spawn(move || {
                        let _b = machine.bind_cpu(cpu);
                        barrier.wait();
                        (0..4)
                            .map(|_| {
                                let t0 = std::time::Instant::now();
                                reclaim(ctx, 8);
                                t0.elapsed()
                            })
                            .max()
                            .unwrap()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .max()
                .unwrap()
        });
        assert_eq!(machine.stats.snapshot().shootdown_timeouts, 0);
        assert!(
            slowest < Duration::from_millis(100),
            "a reclaim took {slowest:?}"
        );
        assert!(kernel.statistics().pageouts > 0);
    }
}
