//! Machinery shared by every pmap port: shootdown execution, the deferred
//! flush queue, and the physical-page operations built on the pv table.
//!
//! A physical-page operation (`remove_all`, `page_free`,
//! `copy_on_write`, the modify/reference family) works on a whole Mach
//! page, a run of hardware frames. It takes or copies the page's pv
//! entries in one visit, as runs ([`crate::pv::PvRun`]), calls each
//! mapping pmap once per run, and flushes TLBs with one shootdown round
//! per set of target CPUs, however many frames the page has. Each frame
//! still contributes the flush scopes it would alone (its pages, or one
//! full flush past eight), so every TLB ends as a round per frame would
//! leave it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mach_hw::addr::{HwProt, PAddr};
use mach_hw::machine::Machine;
use mach_hw::tlb::FlushScope;
use mach_hw::Pfn;
use parking_lot::{Mutex, RwLock};

use crate::pv::{attr_bits, PvRun, PvTable, ATTR_MOD, ATTR_REF};
use crate::{
    Counters, HookGuard, HwMapper, Pending, ShootdownObserver, ShootdownPolicy, ShootdownSpanHook,
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

/// Append flush scopes for `tags` to `scopes`: one page scope each, or,
/// past a handful of pages, one full flush, which is cheaper — what real
/// kernels do. Returns how many tags there were.
fn push_scopes(
    scopes: &mut Vec<FlushScope>,
    tags: impl Iterator<Item = (u32, u64)> + Clone,
) -> u64 {
    let n = tags.clone().count();
    if n > 8 {
        scopes.push(FlushScope::All);
    } else {
        scopes.extend(tags.map(|(space, vpn)| FlushScope::Page { space, vpn }));
    }
    n as u64
}

/// One operation's flush for one CPU set, queued until `update`.
#[derive(Debug)]
struct DeferredFlush {
    cpus: u64,
    scopes: Vec<FlushScope>,
    done: Arc<AtomicBool>,
}

/// The TLB work a physical-page operation leaves behind: for each frame
/// of the page, the CPUs that may cache a mapping of it and the
/// mappings' `(space, vpn)` tags.
struct PageFlush {
    /// The page's first frame.
    first: Pfn,
    /// Per frame of the page: OR of its mapping pmaps' cached CPUs.
    cpus: Vec<u64>,
    /// Per visited run: its first frame's index in the page, its length,
    /// and where its tags start in `tags`.
    runs: Vec<(usize, usize, usize)>,
    tags: Vec<(u32, u64)>,
}

impl PageFlush {
    /// No work yet for the page of `n` frames from `first`.
    fn new(first: Pfn, n: u64) -> PageFlush {
        PageFlush {
            first,
            cpus: vec![0; n as usize],
            runs: Vec::new(),
            tags: Vec::new(),
        }
    }

    /// The index in the page of `run`'s first frame.
    fn at(&self, run: &PvRun) -> usize {
        (run.first.0 - self.first.0) as usize
    }

    /// Record that `m` maps `run`.
    fn add(&mut self, m: &dyn HwMapper, run: &PvRun) {
        let at = self.at(run);
        let cpus = m.cpus_cached();
        for c in &mut self.cpus[at..at + run.n as usize] {
            *c |= cpus;
        }
        self.runs.push((at, run.n as usize, self.tags.len()));
        m.space_vpn(run.va, run.n, &mut self.tags);
    }

    /// Frame `i`'s tags, one per run covering it.
    fn tags_of(&self, i: usize) -> impl Iterator<Item = (u32, u64)> + Clone + '_ {
        self.runs
            .iter()
            .filter(move |&&(at, n, _)| (at..at + n).contains(&i))
            .map(move |&(at, _, start)| self.tags[start + i - at])
    }
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

    /// The run of hardware frames `[pa, pa+size)` covers: its first frame
    /// and its length.
    pub fn frames(&self, pa: PAddr, size: u64) -> (Pfn, u64) {
        let page = self.machine.hw_page_size();
        assert!(
            pa.0.is_multiple_of(page),
            "physical range must be page aligned"
        );
        assert!(
            size.is_multiple_of(page),
            "physical size must be page aligned"
        );
        (Pfn(pa.0 / page), size / page)
    }

    /// Flush `(space, vpn)` pages from the TLBs of `cpus` using `strategy`.
    /// Returns a [`Pending`] that is complete unless the flush was deferred.
    pub fn flush_pages(
        &self,
        cpus: u64,
        pages: &[(u32, u64)],
        strategy: ShootdownStrategy,
    ) -> Pending {
        let mut pending = Pending::complete();
        if !pages.is_empty() && cpus != 0 {
            let mut scopes = Vec::new();
            let pages = push_scopes(&mut scopes, pages.iter().copied());
            self.dispatch(cpus, scopes, pages, strategy, &mut pending);
        }
        pending
    }

    /// Flush what a physical-page operation left in `flush`: one round
    /// (or deferred flush) per distinct CPU set, in the order of the
    /// first frame each set covers, carrying the scopes of every frame
    /// with exactly that set.
    fn flush_page(&self, flush: &PageFlush, strategy: ShootdownStrategy) -> Pending {
        let mut pending = Pending::complete();
        for (i, &cpus) in flush.cpus.iter().enumerate() {
            if cpus == 0 || flush.cpus[..i].contains(&cpus) {
                continue;
            }
            let (mut scopes, mut pages) = (Vec::new(), 0);
            for (j, _) in flush
                .cpus
                .iter()
                .enumerate()
                .skip(i)
                .filter(|&(_, &c)| c == cpus)
            {
                pages += push_scopes(&mut scopes, flush.tags_of(j));
            }
            self.dispatch(cpus, scopes, pages, strategy, &mut pending);
        }
        pending
    }

    /// Carry out one flush of `scopes` (covering `pages` pages) on the
    /// TLBs of `cpus` by `strategy`; a deferred flush's completion flag
    /// joins `pending`.
    fn dispatch(
        &self,
        cpus: u64,
        scopes: Vec<FlushScope>,
        pages: u64,
        strategy: ShootdownStrategy,
        pending: &mut Pending,
    ) {
        match strategy {
            ShootdownStrategy::Immediate => {
                // Coalesced: one shootdown round carries every scope, so
                // each target CPU takes a single interrupt for the whole
                // operation instead of one per page.
                let span = self.round_span();
                let targets = cpu_list(cpus, self.machine.n_cpus());
                let sent = self.machine.shootdown_multi(&targets, &scopes, true);
                self.count_round(sent);
                self.notify_round(cpus, pages);
                drop(span);
            }
            ShootdownStrategy::Deferred => {
                let done = Arc::new(AtomicBool::new(false));
                pending.push(Arc::clone(&done));
                stat_add(&self.counters.deferred_queued, scopes.len() as u64);
                self.deferred
                    .lock()
                    .push(DeferredFlush { cpus, scopes, done });
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
            }
        }
    }

    /// Run every queued deferred flush (the timer-interrupt moment).
    ///
    /// This is where deferral pays: the queue is batched per CPU set, in
    /// the order each set was first queued, and past a handful of scopes
    /// one full flush replaces them all — many invalidations ride a
    /// single interrupt.
    pub fn update(&self) {
        let work = std::mem::take(&mut *self.deferred.lock());
        let mut by_cpus: Vec<(u64, Vec<FlushScope>, Vec<Arc<AtomicBool>>)> = Vec::new();
        for f in work {
            match by_cpus.iter_mut().find(|(cpus, ..)| *cpus == f.cpus) {
                Some((_, scopes, done)) => {
                    scopes.extend(f.scopes);
                    done.push(f.done);
                }
                None => by_cpus.push((f.cpus, f.scopes, vec![f.done])),
            }
        }
        for (cpus, scopes, done) in by_cpus {
            let queued = scopes.len();
            let scopes = if queued > 8 {
                vec![FlushScope::All]
            } else {
                scopes
            };
            // One coalesced round per CPU set, however many flushes were
            // queued against it.
            let span = self.round_span();
            let targets = cpu_list(cpus, self.machine.n_cpus());
            let sent = self.machine.shootdown_multi(&targets, &scopes, true);
            self.count_round(sent);
            self.notify_round(cpus, queued as u64);
            drop(span);
            for d in done {
                d.store(true, Ordering::Release);
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

    /// `pmap_remove_all` over the pv table: the page's entries go in one
    /// visit, and the bits harvested from their mappings are stolen back
    /// in a second.
    pub fn remove_all_with(&self, pa: PAddr, size: u64, strategy: ShootdownStrategy) -> Pending {
        let (first, n) = self.frames(pa, size);
        let mut bits = vec![0; n as usize];
        let (flush, _) = self.clear_mappings(first, self.pv.take(first, n, 0), &mut bits);
        self.pv.merge_attrs(first, &bits);
        self.flush_page(&flush, strategy)
    }

    /// `pmap_remove_all` for a page being freed: every mapping goes, with
    /// a time-critical flush, and the page's stolen modify/reference bits
    /// are forgotten, all in one pv visit. A second visit happens only
    /// when a cleared page no longer mapped its frame: whoever cleared or
    /// replaced that mapping first may merge its bits into the frame
    /// late, but does so under its port lock, which `clear_hw` waited
    /// for, so the second visit comes after it.
    pub fn page_free(&self, pa: PAddr, size: u64) {
        let strategy = self.policy.read().time_critical;
        let (first, n) = self.frames(pa, size);
        let runs = self.pv.take(first, n, ATTR_MOD | ATTR_REF);
        if runs.is_empty() {
            return;
        }
        let (flush, intact) = self.clear_mappings(first, runs, &mut vec![0; n as usize]);
        if !intact {
            self.pv.clear_attrs(first, n, ATTR_MOD | ATTR_REF);
        }
        self.flush_page(&flush, strategy);
    }

    /// Invalidate every mapping in `runs`, taken from the page of
    /// `bits.len()` frames from `first` (no TLB flush), OR-ing each
    /// frame's harvested modify/reference bits into `bits`. Returns the
    /// TLB work left and whether every run was still live and mapped its
    /// frames.
    fn clear_mappings(&self, first: Pfn, runs: Vec<PvRun>, bits: &mut [u8]) -> (PageFlush, bool) {
        let mut flush = PageFlush::new(first, bits.len() as u64);
        let mut intact = true;
        for run in &runs {
            let Some(m) = run.mapper.upgrade() else {
                intact = false;
                continue;
            };
            let at = flush.at(run);
            intact &= m.clear_hw(run.va, run.first, &mut bits[at..at + run.n as usize]);
            flush.add(&*m, run);
            stat_add(&self.counters.removes, run.n);
        }
        (flush, intact)
    }

    /// `pmap_copy_on_write` over the pv table: narrow every mapping of the
    /// range to read-only. Always time-critical — a racing writer on
    /// another CPU would break copy semantics.
    pub fn copy_on_write(&self, pa: PAddr, size: u64) {
        let strategy = self.policy.read().time_critical;
        let (first, n) = self.frames(pa, size);
        let mut flush = PageFlush::new(first, n);
        for run in self.pv.list(first, n, 0).1 {
            let Some(m) = run.mapper.upgrade() else {
                continue;
            };
            m.protect_hw(run.va, run.n, HwProt::READ | HwProt::EXECUTE);
            flush.add(&*m, &run);
            stat_add(&self.counters.protects, run.n);
        }
        self.flush_page(&flush, strategy);
    }

    /// Whether attribute `bit` ([`ATTR_MOD`] or [`ATTR_REF`]) is set for
    /// any frame of `[pa, pa+size)`: in its stolen bits, else in a live
    /// mapping's hardware bits.
    fn test_bit(&self, pa: PAddr, size: u64, bit: u8) -> bool {
        let (first, n) = self.frames(pa, size);
        let (attrs, runs) = self.pv.list(first, n, 0);
        attrs & bit != 0
            || runs.iter().any(|r| {
                r.mapper.upgrade().is_some_and(|m| {
                    let (modified, referenced) = m.read_mr(r.va, r.n);
                    attr_bits(modified, referenced) & bit != 0
                })
            })
    }

    pub fn is_modified(&self, pa: PAddr, size: u64) -> bool {
        self.test_bit(pa, size, ATTR_MOD)
    }

    pub fn is_referenced(&self, pa: PAddr, size: u64) -> bool {
        self.test_bit(pa, size, ATTR_REF)
    }

    pub fn clear_bits(&self, pa: PAddr, size: u64, clear_mod: bool, clear_ref: bool) {
        let (first, n) = self.frames(pa, size);
        let mut flush = PageFlush::new(first, n);
        let (_, runs) = self.pv.list(first, n, attr_bits(clear_mod, clear_ref));
        for run in runs {
            let Some(m) = run.mapper.upgrade() else {
                continue;
            };
            m.clear_mr(run.va, run.n, clear_mod, clear_ref);
            flush.add(&*m, &run);
        }
        // Flush so stale TLB dirty bits cannot suppress the next
        // modify-bit update, and so references re-walk.
        self.flush_page(&flush, ShootdownStrategy::Immediate);
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
    use crate::MachDep;
    use mach_hw::lock::LockSite;
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
        assert_eq!(core.frames(PAddr(1024), 1536), (Pfn(2), 3));
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn unaligned_frames_panic() {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let core = MdCore::new(&machine);
        let _ = core.frames(PAddr(3), 512);
    }

    /// `update` sends one round per queued CPU set, in the order each
    /// set was first queued.
    #[test]
    fn update_rounds_go_out_in_first_queued_order() {
        let machine = Machine::boot(MachineModel::vax_11_784());
        let core = MdCore::new(&machine);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        core.set_observer(Arc::new(move |cpus, pages| log.lock().push((cpus, pages))));
        for (cpus, vpn) in [(0b10, 1), (0b01, 2), (0b10, 3)] {
            core.flush_pages(cpus, &[(0, vpn)], ShootdownStrategy::Deferred);
        }
        core.update();
        assert_eq!(*seen.lock(), vec![(0b10, 2), (0b01, 1)]);
    }

    /// A 4 KB Mach page is eight uVAX frames. Every physical-page
    /// operation on it flushes with one shootdown round, not one per
    /// frame, and `page_free` and the modify/reference reads visit the
    /// page's pv shard once.
    #[test]
    fn a_mach_page_of_eight_frames_is_one_round_and_one_pv_visit() {
        const MACH_PAGE: u64 = 4096;
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let md = crate::vax::VaxMachDep::new(&machine);
        let hw = machine.hw_page_size();
        let frames = MACH_PAGE / hw;
        assert_eq!(frames, 8);
        let run = machine.frames().alloc_contig(2 * frames).expect("frames");
        let pa = Pfn(run.0.next_multiple_of(frames)).base(hw);
        let va = mach_hw::addr::VAddr(0x10000);
        let _b = machine.bind_cpu(0);
        let pmap = md.create();
        pmap.activate(0);
        let map = || {
            pmap.enter(va, pa, MACH_PAGE, HwProt::READ | HwProt::WRITE, false);
            for i in 0..frames {
                machine.store_u32(va + i * hw, i as u32).expect("mapped");
            }
        };
        let rounds = || md.stats().flush_rounds;
        let ops: [(&str, &dyn Fn()); 6] = [
            ("remove_all", &|| md.remove_all(pa, MACH_PAGE)),
            ("remove_all_deferred + update", &|| {
                let pending = md.remove_all_deferred(pa, MACH_PAGE);
                md.update();
                assert!(pending.is_complete());
            }),
            ("page_free", &|| md.page_free(pa, MACH_PAGE)),
            ("copy_on_write", &|| md.copy_on_write(pa, MACH_PAGE)),
            ("clear_modify", &|| md.clear_modify(pa, MACH_PAGE)),
            ("clear_reference", &|| md.clear_reference(pa, MACH_PAGE)),
        ];
        for (name, op) in ops {
            map();
            let before = rounds();
            op();
            assert_eq!(rounds() - before, 1, "{name}");
        }

        machine.locks.enable();
        let visits = || machine.locks.report()[LockSite::PvShard.rank()].acquisitions;
        let reads: [(&str, &dyn Fn()); 3] = [
            ("page_free", &|| md.page_free(pa, MACH_PAGE)),
            ("is_modified", &|| assert!(md.is_modified(pa, MACH_PAGE))),
            (
                "is_referenced",
                &|| assert!(md.is_referenced(pa, MACH_PAGE)),
            ),
        ];
        for (name, op) in reads {
            map();
            let before = visits();
            op();
            assert_eq!(visits() - before, 1, "{name}");
        }
        machine.locks.disable();
        pmap.deactivate(0);
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
