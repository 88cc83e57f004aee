//! The page-fault handler.
//!
//! The central theorem of the paper's design: *all* virtual-memory
//! information can be reconstructed at fault time from machine-independent
//! data structures (§3.6), so the pmap layer may forget anything it likes
//! and the fault handler puts it back. This module resolves a fault
//! address through the address map (and at most one sharing map), walks
//! the shadow chain, zero-fills, calls pagers, pushes copy-on-write pages,
//! and finally re-enters the mapping in the faulting task's pmap.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mach_hw::VAddr;

use crate::ctx::CoreRefs;
use crate::map::VmMap;
use crate::object::{self, VmObject};
use crate::page::{PageId, PageQueue};
use crate::pager::PagerReply;
use crate::profile::SpanKind;
use crate::trace::{FaultResolution, PagerMsg, TraceEvent};
use crate::types::{Protection, VmError, VmResult};

/// A fault that descends this many shadow-chain levels triggers a
/// proactive collapse pass even without a COW push: each level costs
/// `25 × lookup_step` cycles on *every* subsequent fault, so deep chains
/// are worth collecting the moment they are observed (the fork-storm
/// workloads in `docs/WORKLOADS.md` keep the `shadow_depth` health gauge
/// bounded through exactly this trigger).
const COLLAPSE_DEPTH_TRIGGER: u64 = 4;

/// Result of trying to place a busy page in an object.
pub(crate) enum InsertOutcome {
    /// A page already exists at the offset (`busy` tells whether someone
    /// is still filling it).
    Existing(PageId, bool),
    /// A fresh **busy** page was inserted; the caller must fill it and
    /// clear busy.
    Inserted(PageId),
    /// The free list is empty; reclaim and retry.
    NoMemory,
}

/// Insert a busy page for `(obj, offset)` unless one exists.
pub(crate) fn insert_busy(ctx: &CoreRefs, obj: &Arc<VmObject>, offset: u64) -> InsertOutcome {
    let mut s = obj.lock();
    if let Some(&page) = s.resident.get(&offset) {
        let busy = ctx.resident.with_page(page, |p| p.busy);
        return InsertOutcome::Existing(page, busy);
    }
    match ctx.resident.alloc(obj.id(), offset, Arc::downgrade(obj)) {
        Some(page) => {
            s.resident.insert(offset, page);
            InsertOutcome::Inserted(page)
        }
        None => InsertOutcome::NoMemory,
    }
}

/// Fill a page's frame with `data` (or zeros) and [`release_busy`] it.
/// Marks the page dirty when the content is "precious" — the only copy
/// of internal-object data.
pub(crate) fn fill_and_release(
    ctx: &CoreRefs,
    obj: &Arc<VmObject>,
    page: PageId,
    data: Option<&[u8]>,
    dirty: bool,
) {
    let pa = page.base(ctx.page_size);
    match data {
        Some(d) => {
            assert!(d.len() as u64 <= ctx.page_size);
            if (d.len() as u64) < ctx.page_size {
                ctx.machdep.zero_page(pa, ctx.page_size);
            }
            ctx.machine
                .phys()
                .write(pa, d)
                .expect("resident frame writable");
            ctx.machine
                .charge(ctx.machine.cost().copy_cycles(d.len() as u64));
        }
        None => ctx.machdep.zero_page(pa, ctx.page_size),
    }
    release_busy(ctx, obj, page, dirty);
}

/// Un-busy `page` of `obj` (a fill, a claim or a fault's hold ends),
/// setting its dirty hint when `dirty`, and wake the object's waiters if
/// one of them set `wanted`. A waiter checks `busy` and goes to sleep
/// without letting go of the object lock, so releasing under that lock
/// orders the wakeup after its check.
pub(crate) fn release_busy(ctx: &CoreRefs, obj: &VmObject, page: PageId, dirty: bool) {
    let _s = obj.lock();
    if ctx.resident.release(page, dirty) {
        obj.busy_wakeup.notify_all();
    }
}

/// Supply externally-provided data for `(obj, offset)`
/// (`pager_data_provided`, Table 3-2). Fills a waiting busy page, or
/// installs an unsolicited page. Returns whether the supply acted: a
/// duplicate delivery for an already-filled page, or a supply to a
/// quarantined (dead-pager) object, is ignored and returns `false` —
/// the pager protocol is at-least-once, so dedup lives here.
pub fn supply_data(ctx: &CoreRefs, obj: &Arc<VmObject>, offset: u64, data: Option<&[u8]>) -> bool {
    let Some(page) = claim_supply(ctx, obj, offset) else {
        return false;
    };
    fill_and_release(ctx, obj, page, data, false);
    true
}

/// The dedup half of [`supply_data`]: claim the busy placeholder (or an
/// unsolicited slot) for `(obj, offset)` without filling it. Returns
/// `None` when the supply would be ignored. Callers that must order a
/// side effect *before* the waiting faulter wakes — the trace emit of
/// `pager_data_provided`, whose record has to be in the ring before the
/// fault completes or the DataRequest/DataProvided books can be caught
/// one entry short — claim first, act, then [`fill_and_release`].
pub(crate) fn claim_supply(ctx: &CoreRefs, obj: &Arc<VmObject>, offset: u64) -> Option<PageId> {
    let mut s = obj.lock();
    if s.pager_dead {
        return None; // late reply from a pager declared dead
    }
    match s.resident.get(&offset) {
        Some(&p) => {
            if !ctx.resident.with_page(p, |i| i.busy) {
                return None; // already filled: duplicate message
            }
            Some(p)
        }
        None => match ctx.resident.alloc(obj.id(), offset, Arc::downgrade(obj)) {
            Some(p) => {
                s.resident.insert(offset, p);
                Some(p)
            }
            None => None, // no room for unsolicited data
        },
    }
}

/// Drop a busy placeholder page after a failed pager interaction.
fn abort_busy(ctx: &CoreRefs, obj: &Arc<VmObject>, offset: u64, page: PageId) {
    let mut s = obj.lock();
    if s.resident.get(&offset) == Some(&page) {
        s.resident.remove(&offset);
    }
    if ctx.resident.free_page(page) {
        obj.busy_wakeup.notify_all();
    }
}

/// Wait until `page` of `obj` stops being busy.
///
/// # Errors
///
/// [`VmError::PagerDied`] if the pager never answers, or — immediately,
/// without waiting out the timeout — if the object was quarantined
/// because its pager died (the quarantine broadcasts `busy_wakeup`).
fn wait_not_busy(ctx: &CoreRefs, obj: &Arc<VmObject>, page: PageId) -> VmResult<()> {
    let mut s = obj.lock();
    loop {
        if s.pager_dead {
            return Err(VmError::PagerDied);
        }
        let busy = ctx.resident.with_page(page, |p| {
            if p.busy {
                p.wanted = true;
            }
            p.busy
        });
        if !busy {
            return Ok(());
        }
        if s.wait_for(&obj.busy_wakeup, ctx.pager_timeout) {
            return Err(VmError::PagerDied);
        }
    }
}

/// Handle a page fault at `va` in `map` for `access` (a single
/// [`Protection`] bit). Returns the page finally mapped.
///
/// `wire` wires the page (kernel use).
///
/// # Errors
///
/// [`VmError::InvalidAddress`] for unallocated addresses,
/// [`VmError::ProtectionFailure`] when `access` exceeds the region's
/// current protection, [`VmError::ResourceShortage`] when memory cannot be
/// reclaimed, plus pager errors.
pub fn vm_fault(
    ctx: &CoreRefs,
    map: &Arc<VmMap>,
    va: u64,
    access: Protection,
    wire: bool,
) -> VmResult<PageId> {
    let va = ctx.trunc_page(va);
    ctx.stats.faults.fetch_add(1, Ordering::Relaxed);
    let task = map.owner();
    let fault_id = ctx.trace.next_fault_id();
    if fault_id != 0 {
        // The object is unknown at entry; the offset field carries the VA.
        ctx.trace_emit(task, 0, va, TraceEvent::FaultBegin { fault_id });
    }
    // Everything this thread does until the fault ends — in particular
    // the pager transports — attributes to this fault's causal id.
    let _causal = crate::trace::causal_scope(fault_id);
    // Opened right after the FaultBegin emit and dropped right after the
    // FaultEnd emit, with no cycles charged in between on either side: the
    // span's total therefore equals the trace pair's latency *exactly*
    // (reconciled in tests/profile_props.rs).
    let _fault_span = ctx.prof_span(SpanKind::Fault);
    match fault_body(ctx, map, va, access, wire, task) {
        Ok((page, object, offset, resolution)) => {
            ctx.trace_emit(
                task,
                object,
                offset,
                TraceEvent::FaultEnd {
                    fault_id,
                    resolution,
                },
            );
            Ok(page)
        }
        Err(e) => {
            ctx.trace_emit(
                task,
                0,
                va,
                TraceEvent::FaultEnd {
                    fault_id,
                    resolution: FaultResolution::Failed,
                },
            );
            Err(e)
        }
    }
}

/// The fault state machine behind [`vm_fault`]. Returns the page finally
/// mapped plus the `(object, offset, resolution)` the trace layer stamps
/// on the `FaultEnd` event. The resolution flags are *sticky* across
/// `'restart` iterations so the reported resolution matches the counters
/// this fault actually bumped (a zero-fill that restarts and then finds
/// its own page resident is still a zero-fill).
fn fault_body(
    ctx: &CoreRefs,
    map: &Arc<VmMap>,
    va: u64,
    access: Protection,
    wire: bool,
    task: u64,
) -> VmResult<(PageId, u64, u64, FaultResolution)> {
    let write = access.contains(Protection::WRITE);
    let page_size = ctx.page_size;
    let mut attempts = 0u32;
    let mut saw_zero = false;
    let mut saw_pagein = false;
    let mut saw_cow = false;
    'restart: loop {
        attempts += 1;
        if attempts > 200 {
            return Err(VmError::ResourceShortage);
        }
        let r = {
            let _sp = ctx.prof_span(SpanKind::MapLookup);
            map.resolve(ctx, va)?
        };
        if !r.prot.contains(access) {
            return Err(VmError::ProtectionFailure);
        }
        // A write into a copy-on-write entry first gets its shadow object
        // (paper §3.4: "a new page accessible only to the writing task").
        // `pager_readonly` objects (Table 3-2) force the same treatment.
        if write && (r.needs_copy || r.object.lock().pager_readonly) {
            r.holder
                .install_shadow_for(ctx, r.holder_addr, r.needs_copy)?;
            continue 'restart;
        }
        let first = Arc::clone(&r.object);
        let first_offset = r.offset;

        // ---- Pager data locks (Table 3-2). ----
        // If the pager revoked this access, send `pager_data_unlock` and
        // wait for the matching `pager_data_lock(..., 0)`.
        {
            let mut s = first.lock();
            let revoked = s.locks.get(&first_offset).copied().unwrap_or(0);
            if revoked & access.bits() != 0 {
                let pager = s.pager.clone();
                if let Some(p) = pager {
                    p.data_unlock(first.id(), first_offset, page_size, access.bits());
                    ctx.trace_emit(
                        task,
                        first.id(),
                        first_offset,
                        TraceEvent::PagerRequest {
                            msg: PagerMsg::DataUnlock,
                            pager: p.port_id(first.id()),
                            causal: crate::trace::current_causal(),
                        },
                    );
                }
                let deadline = std::time::Instant::now() + ctx.pager_timeout;
                loop {
                    if s.pager_dead {
                        return Err(VmError::PagerDied); // quarantined: fail fast
                    }
                    let still = s.locks.get(&first_offset).copied().unwrap_or(0);
                    if still & access.bits() == 0 {
                        break;
                    }
                    if s.wait_until(&first.busy_wakeup, deadline) {
                        return Err(VmError::PagerDied);
                    }
                }
                drop(s);
                continue 'restart;
            }
        }

        // ---- Walk the shadow chain looking for the page (§3.4). ----
        let mut obj = Arc::clone(&first);
        let mut offset = first_offset;
        let mut chain_depth = 0u64;
        // Dropped explicitly after the loop breaks; a `continue 'restart`
        // or an error return inside the loop drops it with the iteration.
        let walk_span = ctx.prof_span(SpanKind::ShadowWalk);
        let (found_obj, found_page, found_offset) = loop {
            let mut s = obj.lock();
            if let Some(&page) = s.resident.get(&offset) {
                let busy = ctx.resident.with_page(page, |p| {
                    if p.busy {
                        p.wanted = true;
                    }
                    p.busy
                });
                if busy {
                    if s.pager_dead {
                        return Err(VmError::PagerDied); // quarantined: fail fast
                    }
                    // Someone is filling it; sleep and restart the fault.
                    if s.wait_for(&obj.busy_wakeup, ctx.pager_timeout) {
                        return Err(VmError::PagerDied);
                    }
                    drop(s);
                    continue 'restart;
                }
                ctx.stats.resident_hits.fetch_add(1, Ordering::Relaxed);
                break (Arc::clone(&obj), page, offset);
            }
            if let Some(pager) = s.pager.clone() {
                if s.pager_dead {
                    // Quarantined (the pager task died): reject new faults
                    // immediately instead of sending requests into a void.
                    return Err(VmError::PagerDied);
                }
                let page = match ctx.resident.alloc(obj.id(), offset, Arc::downgrade(&obj)) {
                    Some(p) => p,
                    None => {
                        drop(s);
                        crate::pageout::reclaim(ctx, 32);
                        continue 'restart;
                    }
                };
                s.resident.insert(offset, page);
                drop(s);
                ctx.stats.pageins.fetch_add(1, Ordering::Relaxed);
                saw_pagein = true;
                ctx.trace_emit(
                    task,
                    obj.id(),
                    offset,
                    TraceEvent::PagerRequest {
                        msg: PagerMsg::DataRequest,
                        pager: pager.port_id(obj.id()),
                        causal: crate::trace::current_causal(),
                    },
                );
                // Transient backing-store errors get a short bounded retry
                // before the fault is failed — a busy device is not a
                // dead pager.
                let reply = {
                    let _pw = ctx.prof_span(SpanKind::PagerWait);
                    let mut reply = pager.data_request(obj.id(), offset, page_size);
                    let mut attempt = 0u32;
                    while matches!(reply, PagerReply::Error(VmError::DeviceBusy)) && attempt < 3 {
                        attempt += 1;
                        ctx.stats.io_retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_micros(50 << attempt));
                        reply = pager.data_request(obj.id(), offset, page_size);
                    }
                    reply
                };
                match reply {
                    PagerReply::Data(d) => {
                        // Internal pagers answer synchronously; the reply
                        // event is synthesised here. External pagers return
                        // Pending and their service thread emits it.
                        ctx.trace_emit(
                            task,
                            obj.id(),
                            offset,
                            TraceEvent::PagerReply {
                                msg: PagerMsg::DataProvided,
                                pager: pager.port_id(obj.id()),
                                causal: crate::trace::current_causal(),
                            },
                        );
                        {
                            let _cp = ctx.prof_span(SpanKind::Copy);
                            fill_and_release(ctx, &obj, page, Some(&d), false);
                        }
                        break (Arc::clone(&obj), page, offset);
                    }
                    PagerReply::Unavailable => {
                        ctx.stats.zero_fill.fetch_add(1, Ordering::Relaxed);
                        saw_zero = true;
                        ctx.trace_emit(
                            task,
                            obj.id(),
                            offset,
                            TraceEvent::PagerReply {
                                msg: PagerMsg::DataUnavailable,
                                pager: pager.port_id(obj.id()),
                                causal: crate::trace::current_causal(),
                            },
                        );
                        {
                            let _zf = ctx.prof_span(SpanKind::ZeroFill);
                            fill_and_release(ctx, &obj, page, None, false);
                        }
                        break (Arc::clone(&obj), page, offset);
                    }
                    PagerReply::Pending => {
                        let waited = {
                            let _pw = ctx.prof_span(SpanKind::PagerWait);
                            wait_not_busy(ctx, &obj, page)
                        };
                        match waited {
                            Ok(()) => break (Arc::clone(&obj), page, offset),
                            Err(e) => {
                                abort_busy(ctx, &obj, offset, page);
                                return Err(e);
                            }
                        }
                    }
                    PagerReply::Error(e) => {
                        abort_busy(ctx, &obj, offset, page);
                        if e == VmError::PagerDied {
                            // The proxy saw a dead port (or injected
                            // death): quarantine so later faults on this
                            // object fail fast, not after a timeout.
                            object::quarantine(&obj, ctx);
                        }
                        return Err(e);
                    }
                }
            }
            if let Some(shadow) = s.shadow.clone() {
                let delta = s.shadow_offset;
                drop(s);
                // Each chain level costs real work at fault time — the
                // cost the §3.5 garbage collection exists to bound.
                ctx.machine.charge(ctx.machine.cost().lookup_step * 25);
                chain_depth += 1;
                offset += delta;
                obj = shadow;
                continue;
            }
            // End of the chain: the data is logically zero. Zero-fill in
            // the *first* object (writes must land there anyway).
            drop(s);
            match insert_busy(ctx, &first, first_offset) {
                InsertOutcome::Existing(page, false) => {
                    break (Arc::clone(&first), page, first_offset)
                }
                InsertOutcome::Existing(_, true) => continue 'restart,
                InsertOutcome::Inserted(page) => {
                    ctx.stats.zero_fill.fetch_add(1, Ordering::Relaxed);
                    saw_zero = true;
                    // Internal pages are precious: the only copy.
                    {
                        let _zf = ctx.prof_span(SpanKind::ZeroFill);
                        fill_and_release(ctx, &first, page, None, true);
                    }
                    break (Arc::clone(&first), page, first_offset);
                }
                InsertOutcome::NoMemory => {
                    crate::pageout::reclaim(ctx, 32);
                    continue 'restart;
                }
            }
        };
        drop(walk_span);
        ctx.health.shadow_depth(chain_depth);

        // ---- Copy-on-write push (§3.4). ----
        let backing_hit = !Arc::ptr_eq(&found_obj, &first);
        let (final_obj, final_page, final_offset) = if backing_hit && write {
            match insert_busy(ctx, &first, first_offset) {
                InsertOutcome::Existing(page, false) => (Arc::clone(&first), page, first_offset),
                InsertOutcome::Existing(_, true) => continue 'restart,
                InsertOutcome::NoMemory => {
                    crate::pageout::reclaim(ctx, 32);
                    continue 'restart;
                }
                InsertOutcome::Inserted(page) => {
                    let _cp = ctx.prof_span(SpanKind::Copy);
                    ctx.machdep.copy_page(
                        found_page.base(page_size),
                        page.base(page_size),
                        page_size,
                    );
                    ctx.stats.cow_faults.fetch_add(1, Ordering::Relaxed);
                    saw_cow = true;
                    release_busy(ctx, &first, page, true);
                    if r.holder.pmap().is_none() {
                        // The entry lives in a *sharing map*: every task
                        // mapping the superseded backing page through it
                        // must refault to see the pushed copy. Their VAs
                        // are unknown here, which is exactly why
                        // pmap_remove_all is physically indexed (§3.4).
                        ctx.machdep
                            .remove_all(found_page.base(page_size), page_size);
                    }
                    (Arc::clone(&first), page, first_offset)
                }
            }
        } else {
            (found_obj, found_page, found_offset)
        };

        // A push may have made an intermediate shadow garbage (§3.5), and
        // a deep descent is itself evidence of collectable chain — the
        // obscured-splice pass keeps fork-diamond chains bounded even
        // when no single write makes a level fully dead.
        if (backing_hit && write) || chain_depth >= COLLAPSE_DEPTH_TRIGGER {
            object::collapse(&first, ctx);
        }

        // ---- Hold the page across mapping establishment. ----
        // Between here and the pmap_enter below, the paging daemon must
        // not evict (and reallocate!) the frame: claim it busy, verifying
        // it still belongs where we found it.
        {
            let s = final_obj.lock();
            if s.resident.get(&ctx.trunc_page(final_offset)) != Some(&final_page) {
                drop(s);
                continue 'restart; // evicted or replaced under us
            }
            let claimed = ctx
                .resident
                .with_page(final_page, |p| !std::mem::replace(&mut p.busy, true));
            if !claimed {
                drop(s);
                continue 'restart; // someone else is working on it
            }
        }

        // ---- Enter the mapping. ----
        let mut prot = r.prot;
        if (!Arc::ptr_eq(&final_obj, &first)) || r.needs_copy {
            // Mapping a backing page, or a not-yet-shadowed COW entry:
            // never writable, so the next write faults here again.
            prot = prot.remove(Protection::WRITE);
        }
        {
            // The pager's wishes narrow the hardware mapping too: a
            // `pager_readonly` object (writes must shadow) and any
            // `pager_data_lock`-revoked bits must keep faulting.
            let s = first.lock();
            if s.pager_readonly {
                prot = prot.remove(Protection::WRITE);
            }
            if let Some(&revoked) = s.locks.get(&first_offset) {
                prot = Protection::from_bits(prot.bits() & !revoked);
            }
        }
        if let Some(pmap) = map.pmap() {
            let _pe = ctx.prof_span(SpanKind::PmapEnter);
            pmap.enter(
                VAddr(va),
                final_page.base(page_size),
                page_size,
                prot.to_hw(),
                wire || r.wired,
            );
        }
        if ctx.health.is_enabled() {
            // The pv-list walk is work we only do while sampling.
            ctx.health
                .pv_list_len(ctx.machdep.mapping_count(final_page.base(page_size)) as u64);
        }
        if write {
            ctx.resident.with_page(final_page, |p| p.dirty = true);
        }
        if wire || r.wired {
            ctx.resident.wire(final_page);
        } else {
            ctx.resident.set_queue(final_page, PageQueue::Active);
        }
        release_busy(ctx, &final_obj, final_page, false);
        let resolution = if saw_cow {
            FaultResolution::CowPush
        } else if saw_zero {
            FaultResolution::ZeroFill
        } else if saw_pagein {
            FaultResolution::Pagein
        } else {
            FaultResolution::ResidentHit
        };
        return Ok((
            final_page,
            final_obj.id(),
            ctx.trunc_page(final_offset),
            resolution,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use crate::pageout;
    use mach_hw::machine::{Machine, MachineModel};

    fn boot() -> Arc<Kernel> {
        Kernel::boot(&Machine::boot(MachineModel::micro_vax_ii()))
    }

    #[test]
    fn zero_fill_fault_produces_zero_page() {
        let k = boot();
        let task = k.create_task();
        let ctx = k.ctx();
        let addr = task.map().allocate(ctx, None, k.page_size(), true).unwrap();
        let page = vm_fault(ctx, task.map(), addr, Protection::READ, false).unwrap();
        let mut buf = vec![0xFFu8; 64];
        ctx.machine
            .phys()
            .read(page.base(k.page_size()), &mut buf)
            .unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(k.statistics().zero_fill_count, 1);
        assert_eq!(k.statistics().faults, 1);
    }

    #[test]
    fn second_fault_hits_resident_page() {
        let k = boot();
        let task = k.create_task();
        let ctx = k.ctx();
        let addr = task.map().allocate(ctx, None, k.page_size(), true).unwrap();
        let p1 = vm_fault(ctx, task.map(), addr, Protection::READ, false).unwrap();
        let p2 = vm_fault(ctx, task.map(), addr + 8, Protection::WRITE, false).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(k.statistics().resident_hits, 1);
        assert_eq!(k.statistics().zero_fill_count, 1);
    }

    #[test]
    fn fault_on_unallocated_address_fails() {
        let k = boot();
        let task = k.create_task();
        assert_eq!(
            vm_fault(k.ctx(), task.map(), 0x5000_0000, Protection::READ, false).unwrap_err(),
            VmError::InvalidAddress
        );
    }

    #[test]
    fn fault_beyond_protection_fails() {
        let k = boot();
        let task = k.create_task();
        let ctx = k.ctx();
        let addr = task.map().allocate(ctx, None, k.page_size(), true).unwrap();
        task.map()
            .protect(ctx, addr, k.page_size(), false, Protection::READ)
            .unwrap();
        assert_eq!(
            vm_fault(ctx, task.map(), addr, Protection::WRITE, false).unwrap_err(),
            VmError::ProtectionFailure
        );
        assert!(vm_fault(ctx, task.map(), addr, Protection::READ, false).is_ok());
    }

    #[test]
    fn cow_write_pushes_page_and_preserves_original() {
        let k = boot();
        let task = k.create_task();
        let ctx = k.ctx();
        let ps = k.page_size();
        let addr = task.map().allocate(ctx, None, ps, true).unwrap();
        // Fill the original.
        k.vm_write(&task, addr, &vec![7u8; ps as usize]).unwrap();
        // Make it COW (as vm_copy would).
        let _ = task.map().copy_entries(ctx, addr, addr + ps).unwrap();
        // Write fault: shadow is created, page pushed.
        let page = vm_fault(ctx, task.map(), addr, Protection::WRITE, false).unwrap();
        assert_eq!(k.statistics().cow_faults, 1);
        let r = task.map().resolve(ctx, addr).unwrap();
        // The single-page shadow fully obscures its backing object after
        // the push, so the bypass transformation already removed the
        // chain (§3.5 garbage collection at its most aggressive).
        assert_eq!(r.object.chain_length(), 0);
        assert_eq!(k.statistics().bypasses, 1);
        // The pushed page has the original's bytes.
        let mut buf = vec![0u8; 16];
        ctx.machine.phys().read(page.base(ps), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
    }

    #[test]
    fn read_fault_on_cow_maps_readonly_backing_page() {
        let k = boot();
        let task = k.create_task();
        let ctx = k.ctx();
        let ps = k.page_size();
        let addr = task.map().allocate(ctx, None, ps, true).unwrap();
        k.vm_write(&task, addr, &[9u8; 8]).unwrap();
        let before = task.map().resolve(ctx, addr).unwrap().object;
        let clones = task.map().copy_entries(ctx, addr, addr + ps).unwrap();
        drop(clones);
        // Read fault: no shadow created, no page copied.
        let page = vm_fault(ctx, task.map(), addr, Protection::READ, false).unwrap();
        assert_eq!(k.statistics().cow_faults, 0);
        let r = task.map().resolve(ctx, addr).unwrap();
        assert!(Arc::ptr_eq(&r.object, &before), "still the original object");
        // But the hardware mapping is read-only even though prot is rw.
        let hw = task.pmap().extract(mach_hw::VAddr(addr));
        assert_eq!(hw, Some(page.base(ps)));
        let _b = ctx.machine.bind_cpu(0);
        task.pmap().activate(0);
        assert!(ctx.machine.store_u32(mach_hw::VAddr(addr), 1).is_err());
    }

    #[test]
    fn fault_retries_after_memory_pressure() {
        // Boot a tiny machine and allocate more than physical memory: the
        // fault path must reclaim via pageout and keep going.
        let mut model = MachineModel::micro_vax_ii();
        model.mem_bytes = 2 << 20; // 2 MB
        let k = Kernel::boot(&Machine::boot(model));
        let task = k.create_task();
        let ctx = k.ctx();
        let ps = k.page_size();
        let total = 4 << 20; // 4 MB of virtual memory, 2 MB physical
        let addr = task.map().allocate(ctx, None, total, true).unwrap();
        for i in 0..total / ps {
            let page = vm_fault(ctx, task.map(), addr + i * ps, Protection::WRITE, false).unwrap();
            // Write a marker so pageout must save it.
            ctx.machine
                .phys()
                .write(page.base(ps), &(i as u32).to_le_bytes())
                .unwrap();
        }
        let stats = k.statistics();
        assert!(stats.pageouts > 0, "pressure must have paged out");
        // Every page is recoverable with its data.
        for i in (0..total / ps).step_by(7) {
            let page = vm_fault(ctx, task.map(), addr + i * ps, Protection::READ, false).unwrap();
            let mut buf = [0u8; 4];
            ctx.machine.phys().read(page.base(ps), &mut buf).unwrap();
            assert_eq!(u32::from_le_bytes(buf), i as u32, "page {i} data survived");
        }
        assert!(k.statistics().pageins > 0);
    }

    #[test]
    fn supply_data_fills_waiting_page() {
        let k = boot();
        let ctx = k.ctx();
        let ps = k.page_size();
        let obj = crate::object::VmObject::new_internal(ps);
        // Simulate a fault having inserted a busy page.
        let page = match insert_busy(ctx, &obj, 0) {
            InsertOutcome::Inserted(p) => p,
            _ => panic!("fresh object"),
        };
        assert!(ctx.resident.with_page(page, |p| p.busy));
        supply_data(ctx, &obj, 0, Some(&vec![3u8; ps as usize]));
        assert!(!ctx.resident.with_page(page, |p| p.busy));
        let mut b = [0u8; 4];
        ctx.machine.phys().read(page.base(ps), &mut b).unwrap();
        assert_eq!(b, [3, 3, 3, 3]);
        // Unsolicited data for another offset installs a page.
        supply_data(ctx, &obj, ps, None);
        assert_eq!(obj.lock().resident.len(), 2);
    }

    #[test]
    fn wire_pins_page_against_reclaim() {
        let k = boot();
        let task = k.create_task();
        let ctx = k.ctx();
        let ps = k.page_size();
        let addr = task.map().allocate(ctx, None, ps, true).unwrap();
        let page = vm_fault(ctx, task.map(), addr, Protection::WRITE, true).unwrap();
        assert_eq!(ctx.resident.counts().wired, 1);
        // A reclaim pass cannot touch it.
        pageout::reclaim(ctx, 4);
        let r = task.map().resolve(ctx, addr).unwrap();
        assert_eq!(r.object.lock().resident.get(&0), Some(&page));
    }
}
