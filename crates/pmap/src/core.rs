//! Machinery shared by every pmap port: shootdown execution, the deferred
//! flush queue, and the physical-page operations built on the pv table.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mach_hw::addr::{HwProt, PAddr};
use mach_hw::machine::Machine;
use mach_hw::tlb::FlushScope;
use mach_hw::Pfn;
use parking_lot::{Mutex, RwLock};

use crate::pv::{attr_bits, PvEntry, PvTable, ATTR_MOD, ATTR_REF};
use crate::{
    Counters, HookGuard, Pending, ShootdownObserver, ShootdownPolicy, ShootdownSpanHook,
    ShootdownStrategy,
};

/// Turn a CPU bitmask into a target list.
pub(crate) fn cpu_list(mask: u64, n_cpus: usize) -> Vec<usize> {
    (0..n_cpus).filter(|&i| mask & (1 << i) != 0).collect()
}

/// Add to a statistics counter (relaxed — counters are advisory).
pub(crate) fn stat_add(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

/// Subtract from a statistics counter.
pub(crate) fn stat_sub(c: &AtomicU64, n: u64) {
    c.fetch_sub(n, Ordering::Relaxed);
}

#[derive(Debug)]
struct DeferredFlush {
    cpus: u64,
    scope: FlushScope,
    done: Arc<AtomicBool>,
}

/// Shared state of one machine-dependent module instance.
#[doc(hidden)]
pub struct MdCore {
    pub machine: Arc<Machine>,
    pub pv: PvTable,
    pub policy: RwLock<ShootdownPolicy>,
    pub counters: Counters,
    deferred: Mutex<Vec<DeferredFlush>>,
    next_id: AtomicU64,
    observer: RwLock<Option<ShootdownObserver>>,
    span_hook: RwLock<Option<ShootdownSpanHook>>,
}

impl std::fmt::Debug for MdCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MdCore")
            .field("policy", &*self.policy.read())
            .field("observer", &self.observer.read().is_some())
            .finish_non_exhaustive()
    }
}

impl MdCore {
    pub fn new(machine: &Arc<Machine>) -> MdCore {
        MdCore {
            machine: Arc::clone(machine),
            pv: PvTable::new(
                machine.hw_page_size(),
                machine.phys().size() / machine.hw_page_size(),
            ),
            policy: RwLock::new(ShootdownPolicy::default()),
            counters: Counters::default(),
            deferred: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            observer: RwLock::new(None),
            span_hook: RwLock::new(None),
        }
    }

    /// Install the per-round shootdown callback (see [`ShootdownObserver`]).
    pub fn set_observer(&self, observer: ShootdownObserver) {
        *self.observer.write() = Some(observer);
    }

    /// Install the per-round span hook (see [`ShootdownSpanHook`]).
    pub fn set_span_hook(&self, hook: ShootdownSpanHook) {
        *self.span_hook.write() = Some(hook);
    }

    /// Open a span bracketing one shootdown round, if a hook is installed.
    fn round_span(&self) -> Option<HookGuard> {
        self.span_hook.read().as_ref().map(|h| h())
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Hardware frames covered by `[pa, pa+size)`.
    pub fn frames(&self, pa: PAddr, size: u64) -> impl Iterator<Item = Pfn> {
        let page = self.machine.hw_page_size();
        assert!(
            pa.0.is_multiple_of(page),
            "physical range must be page aligned"
        );
        assert!(
            size.is_multiple_of(page),
            "physical size must be page aligned"
        );
        (pa.0 / page..(pa.0 + size) / page).map(Pfn)
    }

    /// Flush `(space, vpn)` pages from the TLBs of `cpus` using `strategy`.
    /// Returns a [`Pending`] that is complete unless the flush was deferred.
    pub fn flush_pages(
        &self,
        cpus: u64,
        pages: &[(u32, u64)],
        strategy: ShootdownStrategy,
    ) -> Pending {
        if pages.is_empty() || cpus == 0 {
            return Pending::complete();
        }
        // Batch: past a handful of pages a full flush is cheaper, which is
        // what real kernels do.
        let scopes: Vec<FlushScope> = if pages.len() > 8 {
            vec![FlushScope::All]
        } else {
            pages
                .iter()
                .map(|&(space, vpn)| FlushScope::Page { space, vpn })
                .collect()
        };
        let targets = cpu_list(cpus, self.machine.n_cpus());
        match strategy {
            ShootdownStrategy::Immediate => {
                // Coalesced: one shootdown round carries every scope, so
                // each target CPU takes a single interrupt for the whole
                // range operation instead of one per page.
                let span = self.round_span();
                let sent = self.machine.shootdown_multi(&targets, &scopes, true);
                self.count_round(sent);
                self.notify_round(cpus, pages.len() as u64);
                drop(span);
                Pending::complete()
            }
            ShootdownStrategy::Deferred => {
                let mut pending = Pending::complete();
                let mut q = self.deferred.lock();
                for scope in scopes {
                    let done = Arc::new(AtomicBool::new(false));
                    pending.push(Arc::clone(&done));
                    q.push(DeferredFlush { cpus, scope, done });
                    self.counters
                        .deferred_queued
                        .fetch_add(1, Ordering::Relaxed);
                }
                pending
            }
            ShootdownStrategy::Lazy => {
                // Only the initiating CPU is brought up to date; remote
                // TLBs heal on their next fault (temporary inconsistency).
                let me = self.machine.current_cpu();
                if cpus & (1 << me) != 0 {
                    for scope in scopes {
                        self.machine.flush_local(scope);
                    }
                }
                Pending::complete()
            }
        }
    }

    /// Run every queued deferred flush (the timer-interrupt moment).
    ///
    /// This is where deferral pays: the queue is batched per CPU set, and
    /// past a handful of pages one full flush replaces them all — many
    /// invalidations ride a single interrupt.
    pub fn update(&self) {
        let work: Vec<DeferredFlush> = {
            let mut q = self.deferred.lock();
            q.drain(..).collect()
        };
        let mut by_cpus: std::collections::HashMap<u64, Vec<DeferredFlush>> =
            std::collections::HashMap::new();
        for f in work {
            by_cpus.entry(f.cpus).or_default().push(f);
        }
        for (cpus, flushes) in by_cpus {
            let targets = cpu_list(cpus, self.machine.n_cpus());
            let scopes: Vec<FlushScope> = if flushes.len() > 8 {
                vec![FlushScope::All]
            } else {
                flushes.iter().map(|f| f.scope).collect()
            };
            // One coalesced round per CPU set, however many flushes were
            // queued against it.
            let span = self.round_span();
            let sent = self.machine.shootdown_multi(&targets, &scopes, true);
            self.count_round(sent);
            self.notify_round(cpus, flushes.len() as u64);
            drop(span);
            for f in flushes {
                f.done.store(true, Ordering::Release);
            }
        }
    }

    /// Complete `pending` now: run the deferred flushes, then wait until
    /// every flush behind the token has executed. A concurrent `update`
    /// may have drained this token's entries and still be running them —
    /// possibly waiting on this CPU's acknowledgement — so the wait is
    /// quiescent ([`Machine::kernel_block`]), which answers that
    /// shootdown instead of stalling it. No timer: the other `update`
    /// finishes because nothing it waits on is blocked by this one.
    pub fn complete(&self, pending: &Pending) {
        if pending.is_complete() {
            return;
        }
        self.update();
        let _q = self.machine.kernel_block();
        while !pending.is_complete() {
            std::thread::yield_now();
        }
    }

    /// Tell the installed observer (if any) about one issued round.
    fn notify_round(&self, cpu_mask: u64, pages: u64) {
        if let Some(obs) = self.observer.read().as_ref() {
            obs(cpu_mask, pages);
        }
    }

    /// Account one shootdown round and the IPIs it sent.
    fn count_round(&self, ipis: usize) {
        self.counters.flush_rounds.fetch_add(1, Ordering::Relaxed);
        self.counters
            .flush_ipis
            .fetch_add(ipis as u64, Ordering::Relaxed);
    }

    /// `pmap_remove_all` over the pv table.
    pub fn remove_all_with(&self, pa: PAddr, size: u64, strategy: ShootdownStrategy) -> Pending {
        let mut pending = Pending::complete();
        for frame in self.frames(pa, size) {
            let (bits, cpus, pages) = self.clear_mappings(self.pv.take(frame));
            self.pv.merge_attrs(frame, bits);
            let p = self.flush_pages(cpus, &pages, strategy);
            for f in p.flags {
                pending.push(f);
            }
        }
        pending
    }

    /// `pmap_remove_all` for frames being freed: every mapping goes, with
    /// a time-critical flush, and the frame's stolen modify/reference
    /// bits are forgotten. One pv visit per frame takes its whole record.
    /// A second visit happens only when live mappings were cleared: a
    /// pmap that had just cleared its own mapping of the frame may merge
    /// those bits late, but it does so under its port lock, which
    /// `clear_hw` waits for, so the second visit comes after it.
    pub fn page_free(&self, pa: PAddr, size: u64) {
        let strategy = self.policy.read().time_critical;
        for frame in self.frames(pa, size) {
            let entries = self.pv.release(frame);
            if entries.is_empty() {
                continue;
            }
            let (_, cpus, pages) = self.clear_mappings(entries);
            self.pv.clear_attrs(frame, ATTR_MOD | ATTR_REF);
            self.flush_pages(cpus, &pages, strategy);
        }
    }

    /// Invalidate every mapping in `entries` (no TLB flush); returns the
    /// harvested modify/reference bits, the CPUs that may cache the
    /// mappings, and their `(space, vpn)` tags.
    fn clear_mappings(&self, entries: Vec<PvEntry>) -> (u8, u64, Vec<(u32, u64)>) {
        let mut bits = 0;
        let mut cpus = 0u64;
        let mut pages = Vec::new();
        for e in entries {
            let Some(m) = e.mapper.upgrade() else {
                continue;
            };
            let (was_mod, was_ref) = m.clear_hw(e.va);
            bits |= attr_bits(was_mod, was_ref);
            pages.push(m.space_vpn(e.va));
            cpus |= m.cpus_cached();
            self.counters.removes.fetch_add(1, Ordering::Relaxed);
        }
        (bits, cpus, pages)
    }

    /// `pmap_copy_on_write` over the pv table: narrow every mapping of the
    /// range to read-only. Always time-critical — a racing writer on
    /// another CPU would break copy semantics.
    pub fn copy_on_write(&self, pa: PAddr, size: u64) {
        let strategy = self.policy.read().time_critical;
        for frame in self.frames(pa, size) {
            let mut pages = Vec::new();
            let mut cpus = 0u64;
            for e in self.pv.list(frame) {
                let Some(m) = e.mapper.upgrade() else {
                    continue;
                };
                m.protect_hw(e.va, HwProt::READ | HwProt::EXECUTE);
                pages.push(m.space_vpn(e.va));
                cpus |= m.cpus_cached();
                self.counters.protects.fetch_add(1, Ordering::Relaxed);
            }
            self.flush_pages(cpus, &pages, strategy);
        }
    }

    pub fn is_modified(&self, pa: PAddr, size: u64) -> bool {
        self.frames(pa, size).any(|frame| {
            if self.pv.attrs(frame) & ATTR_MOD != 0 {
                return true;
            }
            self.pv.list(frame).iter().any(|e| {
                e.mapper
                    .upgrade()
                    .map(|m| m.read_mr(e.va).0)
                    .unwrap_or(false)
            })
        })
    }

    pub fn is_referenced(&self, pa: PAddr, size: u64) -> bool {
        self.frames(pa, size).any(|frame| {
            if self.pv.attrs(frame) & ATTR_REF != 0 {
                return true;
            }
            self.pv.list(frame).iter().any(|e| {
                e.mapper
                    .upgrade()
                    .map(|m| m.read_mr(e.va).1)
                    .unwrap_or(false)
            })
        })
    }

    pub fn clear_bits(&self, pa: PAddr, size: u64, clear_mod: bool, clear_ref: bool) {
        for frame in self.frames(pa, size) {
            let mut bits = 0;
            if clear_mod {
                bits |= ATTR_MOD;
            }
            if clear_ref {
                bits |= ATTR_REF;
            }
            self.pv.clear_attrs(frame, bits);
            let mut pages = Vec::new();
            let mut cpus = 0u64;
            for e in self.pv.list(frame) {
                let Some(m) = e.mapper.upgrade() else {
                    continue;
                };
                m.clear_mr(e.va, clear_mod, clear_ref);
                pages.push(m.space_vpn(e.va));
                cpus |= m.cpus_cached();
            }
            // Flush so stale TLB dirty bits cannot suppress the next
            // modify-bit update, and so references re-walk.
            self.flush_pages(cpus, &pages, ShootdownStrategy::Immediate);
        }
    }

    /// `pmap_zero_page` with cost accounting.
    pub fn zero_page(&self, pa: PAddr, size: u64) {
        self.machine
            .phys()
            .zero(pa, size)
            .expect("zero of managed frame");
        let cost = self.machine.cost();
        self.machine.charge(cost.pmap_op + cost.zero_cycles(size));
    }

    /// `pmap_copy_page` with cost accounting.
    pub fn copy_page(&self, src: PAddr, dst: PAddr, size: u64) {
        self.machine
            .phys()
            .copy(src, dst, size)
            .expect("copy of managed frames");
        let cost = self.machine.cost();
        self.machine.charge(cost.pmap_op + cost.copy_cycles(size));
    }

    /// Charge the fixed + per-page cost of a pmap operation over `pages`.
    pub fn charge_op(&self, pages: u64) {
        let cost = self.machine.cost();
        self.machine
            .charge(cost.pmap_op + cost.pmap_per_page * pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mach_hw::machine::MachineModel;

    #[test]
    fn cpu_list_from_mask() {
        assert_eq!(cpu_list(0b1011, 4), vec![0, 1, 3]);
        assert_eq!(cpu_list(0, 4), Vec::<usize>::new());
        assert_eq!(cpu_list(u64::MAX, 2), vec![0, 1]);
    }

    #[test]
    fn deferred_flush_completes_on_update() {
        let machine = Machine::boot(MachineModel::vax_11_784());
        let core = MdCore::new(&machine);
        let pending = core.flush_pages(0b1, &[(0, 5)], ShootdownStrategy::Deferred);
        assert!(!pending.is_complete());
        core.update();
        assert!(pending.is_complete());
        assert_eq!(core.counters.snapshot().deferred_queued, 1);
    }

    #[test]
    fn empty_flush_is_complete() {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let core = MdCore::new(&machine);
        assert!(core
            .flush_pages(0, &[(0, 1)], ShootdownStrategy::Deferred)
            .is_complete());
        assert!(core
            .flush_pages(1, &[], ShootdownStrategy::Deferred)
            .is_complete());
    }

    #[test]
    fn frames_iteration_checks_alignment() {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let core = MdCore::new(&machine);
        let frames: Vec<Pfn> = core.frames(PAddr(1024), 1536).collect();
        assert_eq!(frames, vec![Pfn(2), Pfn(3), Pfn(4)]);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn unaligned_frames_panic() {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let core = MdCore::new(&machine);
        let _ = core.frames(PAddr(3), 512).count();
    }

    #[test]
    fn zero_and_copy_charge_cycles() {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let _b = machine.bind_cpu(0);
        let core = MdCore::new(&machine);
        let before = machine.clock().system_cycles();
        core.zero_page(PAddr(512 * 200), 512);
        core.copy_page(PAddr(512 * 200), PAddr(512 * 201), 512);
        assert!(machine.clock().system_cycles() > before);
        let mut buf = [1u8; 4];
        machine.phys().read(PAddr(512 * 201), &mut buf).unwrap();
        assert_eq!(buf, [0; 4]);
    }
}
