//! The port chassis: every pmap port's shared virtual-side half.
//!
//! Before this module existed, each of the five ports re-implemented the
//! same machinery around its hardware tables: the per-hardware-page range
//! walks of `enter`/`remove`/`protect`, pv-list bookkeeping, harvesting of
//! modify/reference bits from dying mappings, Mach-page→hardware-page
//! fan-out, shootdown-policy dispatch, cycle charging, and teardown at
//! `pmap_destroy`. The paper's observation that a port is "a single code
//! module" (§4) undersold how much of that module is *not* about the
//! hardware at all.
//!
//! [`PortChassis`] owns that shared half once. A port now implements only
//! [`HwTables`] — PTE encode/decode, hardware-table insert/lookup/evict,
//! and its architecture quirks (the RT PC's one-mapping-per-frame
//! eviction, SUN 3 pmeg stealing and context recycling, the NS32082
//! two-level tables, the RP3's no-tables TLB refill) — and
//! [`ChassisMachDep`] supplies the whole [`MachDep`] surface.
//!
//! TLB-flush coalescing lives here and in [`crate::core::MdCore`]: a range
//! operation batches every page it touched into a *single* shootdown round
//! ([`mach_hw::machine::Machine::shootdown_multi`]), so each remote CPU
//! takes one interrupt per operation, not one per page. The pv table is
//! written the same way: `enter`, `remove` and teardown record and drop
//! their mappings as runs of consecutive frames at consecutive pages
//! ([`crate::pv::PvTable`]), and the reverse-map callbacks
//! ([`HwMapper`]) take such a run under one port lock, so a
//! physical-page operation visits a Mach page once and flushes once per
//! CPU set.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use mach_hw::addr::{HwProt, PAddr, Pfn, VAddr};
use mach_hw::machine::Machine;
use mach_hw::tlb::FlushScope;

use crate::core::MdCore;
use crate::pv::{PvTable, ATTR_MOD, ATTR_REF};
use crate::soft::SoftPmap;
use crate::{HwMapper, MachDep, Pending, Pmap, PmapStats, ShootdownObserver, ShootdownPolicy};

/// What a hardware slot held before an [`HwTables::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOld {
    /// Nothing: a fresh mapping (no TLB entry can exist for it).
    Empty,
    /// The same frame: re-entered, hardware M/R bits preserved.
    Same,
    /// A different frame, whose pv entry and stolen attribute bits the
    /// chassis must now migrate.
    Replaced {
        /// The evicted frame.
        pfn: Pfn,
        /// Its harvested attribute bits ([`crate::pv::ATTR_MOD`] |
        /// [`crate::pv::ATTR_REF`]).
        attrs: u8,
    },
}

/// Classify a PTE overwrite for ports whose PTEs are `u32` words with
/// valid/pfn/modify/reference fields (VAX, NS32082): preserves M/R in the
/// new `word` when the same frame is re-entered, and reports a replaced
/// frame's stolen attribute bits.
pub fn pte_slot(
    old: u32,
    pfn: Pfn,
    word: &mut u32,
    valid: u32,
    pfn_mask: u32,
    mr_mask: u32,
    attrs: impl Fn(u32) -> u8,
) -> SlotOld {
    if old & valid == 0 {
        return SlotOld::Empty;
    }
    let old_pfn = Pfn((old & pfn_mask) as u64);
    if old_pfn == pfn {
        *word |= old & mr_mask;
        SlotOld::Same
    } else {
        SlotOld::Replaced {
            pfn: old_pfn,
            attrs: attrs(old),
        }
    }
}

/// TLB flush work for mappings a port quirk evicted from *other* pmaps
/// during `enter` (RT PC alias eviction, SUN 3 pmeg stealing), returned by
/// [`HwTables::finish_enter`] so the chassis can issue one coalesced
/// shootdown round for it after the port lock is released.
#[derive(Debug, Default)]
pub struct QuirkFlush {
    /// CPUs that may cache the evicted translations.
    pub cpus: u64,
    /// `(space, vpn)` pages to flush.
    pub pages: Vec<(u32, u64)>,
}

/// Whether an architecture's TLB distinguishes address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbTag {
    /// Space-tagged: activation needs no flush.
    Tagged,
    /// Untagged: the chassis flushes the CPU's TLB on activation.
    Untagged,
}

/// Per-pmap state shared between a chassis and its port tables.
///
/// It is reference-counted (not owned by the chassis) because some
/// architectures reach *across* pmaps: the RT PC's inverted table evicts
/// another pmap's mapping when a frame is remapped, and the SUN 3 steals
/// contexts and pmegs from victims — both must decrement the victim's
/// resident count without taking the victim chassis's locks.
#[derive(Debug, Default)]
pub struct PortShared {
    /// Hardware pages currently mapped.
    pub resident: AtomicU64,
    /// CPUs that may hold TLB entries of this pmap (sticky).
    pub cpus_cached: AtomicU64,
    /// CPUs currently running this pmap (activate/deactivate).
    pub cpus_active: AtomicU64,
}

/// The hardware-table half of a pmap port: everything that actually
/// depends on the MMU. One page at a time — the chassis drives the range
/// walks, holding the port's [`HwTables::lock`] guard across each loop so
/// a whole operation stays atomic under the port's own locking scheme
/// (per-pmap state, a shared world, or a global architecture table).
pub trait HwTables: Send + Sync + fmt::Debug + 'static {
    /// The lock guard covering the port's mutable state. Port-defined so
    /// it can also carry per-operation scratch (growth flags, batched
    /// quirk evictions) between hook calls.
    type Guard<'a>: 'a
    where
        Self: 'a;

    /// Hardware page size in bytes.
    const PAGE_SIZE: u64;

    /// Acquire the port's state for one operation.
    fn lock(&self) -> Self::Guard<'_>;

    /// Assert `[va, va+size)` is inside the architecture's translatable
    /// user space (e.g. ≥ 16 MB panics on the NS32082). The default
    /// accepts the full space.
    fn check_range(&self, _va: VAddr, _size: u64) {}

    /// Hook before `enter`'s insertion loop: grow tables, ensure a
    /// context. Quirk evictions of *other* pmaps' mappings happen in here
    /// or in [`HwTables::insert`]; the port does its own pv/flush
    /// bookkeeping for those (batching them in the guard when possible).
    fn prepare_enter(&self, _g: &mut Self::Guard<'_>, _va: VAddr, _size: u64) {}

    /// Hook after `enter`'s insertion loop: reload grown registers, and
    /// hand back any quirk evictions batched in the guard for the chassis
    /// to flush once the port lock is released.
    fn finish_enter(&self, _g: &mut Self::Guard<'_>) -> Option<QuirkFlush> {
        None
    }

    /// Install `va` → `pfn` with `prot`, reporting the slot's previous
    /// occupant. When re-entering the same frame the port must preserve
    /// the hardware modify/reference bits. The chassis records the whole
    /// `enter`'s pv entries, as one run, after its last insert, so an
    /// insert must not evict a mapping an earlier insert of the same
    /// `enter` made (a SUN 3 pmeg steal could only do so for an `enter`
    /// larger than the whole pmeg pool; the kernel enters a Mach page).
    fn insert(
        &self,
        g: &mut Self::Guard<'_>,
        va: VAddr,
        pfn: Pfn,
        prot: HwProt,
        wired: bool,
    ) -> SlotOld;

    /// Invalidate the translation at `va`, harvesting the frame and its
    /// stolen attribute bits. No TLB flush — the chassis batches that.
    fn clear(&self, g: &mut Self::Guard<'_>, va: VAddr) -> Option<(Pfn, u8)>;

    /// Re-protect `va` if mapped, preserving M/R bits; returns whether
    /// access narrowed. No TLB flush.
    fn reprotect(&self, g: &mut Self::Guard<'_>, va: VAddr, prot: HwProt) -> Option<bool>;

    /// The frame mapped at `va`, if the tables currently know it.
    fn lookup(&self, g: &Self::Guard<'_>, va: VAddr) -> Option<Pfn>;

    /// (modified, referenced) for the mapping at `va`, clearing the
    /// requested bits in the same visit. No TLB flush.
    fn mr(
        &self,
        g: &mut Self::Guard<'_>,
        va: VAddr,
        clear_mod: bool,
        clear_ref: bool,
    ) -> (bool, bool);

    /// TLB `(space, vpn)` tag for `va`, or `None` when nothing tagged can
    /// exist (e.g. a SUN 3 pmap that currently owns no context). The
    /// default fits untagged single-space TLBs: space 0.
    fn space_vpn(&self, _g: &Self::Guard<'_>, va: VAddr) -> Option<(u32, u64)> {
        Some((0, va.0 / Self::PAGE_SIZE))
    }

    /// Load hardware context registers on `cpu`; report whether the TLB
    /// is space-tagged (untagged TLBs are flushed by the chassis).
    fn activate(&self, g: &mut Self::Guard<'_>, cpu: usize) -> TlbTag;

    /// Hook when the pmap stops running on `cpu`.
    fn deactivate(&self, _g: &mut Self::Guard<'_>, _cpu: usize) {}

    /// Tear everything down (pmap destruction): return every remaining
    /// `(va, frame, attrs)` mapping for pv harvesting and release tables,
    /// contexts and identifiers.
    fn teardown(&self, g: &mut Self::Guard<'_>) -> Vec<(VAddr, Pfn, u8)>;
}

/// The machine-independent half of every pmap port: implements [`Pmap`]
/// and the reverse-map callbacks over any [`HwTables`].
pub struct PortChassis<T: HwTables> {
    id: u64,
    core: Arc<MdCore>,
    me: Weak<PortChassis<T>>,
    shared: Arc<PortShared>,
    tables: T,
}

impl<T: HwTables> fmt::Debug for PortChassis<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PortChassis")
            .field("id", &self.id)
            .field("tables", &self.tables)
            .finish()
    }
}

impl<T: HwTables> PortChassis<T> {
    /// Wrap `tables` into a full pmap sharing `shared` with it.
    pub fn new(
        core: &Arc<MdCore>,
        id: u64,
        shared: Arc<PortShared>,
        tables: T,
    ) -> Arc<PortChassis<T>> {
        Arc::new_cyclic(|me| PortChassis {
            id,
            core: Arc::clone(core),
            me: me.clone(),
            shared,
            tables,
        })
    }

    /// The port's hardware-table half (tests and diagnostics).
    pub fn tables(&self) -> &T {
        &self.tables
    }

    fn weak_self(&self) -> Weak<dyn HwMapper> {
        self.me.clone() as Weak<dyn HwMapper>
    }

    fn flush_time_critical(&self, flush: &[(u32, u64)]) {
        let strategy = self.core.policy.read().time_critical;
        self.core.flush_pages(
            self.shared.cpus_cached.load(Ordering::SeqCst),
            flush,
            strategy,
        );
    }

    /// The shared removal walk: `remove`, and `protect` to no access
    /// (revoking every permission unmaps in hardware — the pmap is a
    /// cache, and the fault handler rebuilds the mapping if it is ever
    /// legitimately touched again).
    fn remove_range(&self, start: VAddr, end: VAddr) {
        let page = T::PAGE_SIZE;
        assert!(start.is_aligned(page) && end.is_aligned(page) && start <= end);
        let mut flush = Vec::new();
        {
            let mut g = self.tables.lock();
            let mut removal = PvRemoval::new(&self.core.pv, self.id, page);
            let mut v = start;
            while v < end {
                if let Some((pfn, attrs)) = self.tables.clear(&mut g, v) {
                    removal.push(v, pfn, attrs);
                    self.shared.resident.fetch_sub(1, Ordering::Relaxed);
                    if let Some(tag) = self.tables.space_vpn(&g, v) {
                        flush.push(tag);
                    }
                    self.core.counters.removes.fetch_add(1, Ordering::Relaxed);
                }
                v += page;
            }
            removal.finish();
        }
        self.core.charge_op(flush.len() as u64);
        self.flush_time_critical(&flush);
    }
}

/// A pmap's dropped mappings, removed from the pv table in runs of
/// consecutive frames at consecutive pages, each frame with its
/// harvested attribute bits.
struct PvRemoval<'a> {
    pv: &'a PvTable,
    id: u64,
    page: u64,
    va: VAddr,
    first: Pfn,
    attrs: Vec<u8>,
}

impl<'a> PvRemoval<'a> {
    fn new(pv: &'a PvTable, id: u64, page: u64) -> PvRemoval<'a> {
        PvRemoval {
            pv,
            id,
            page,
            va: VAddr(0),
            first: Pfn(0),
            attrs: Vec::new(),
        }
    }

    /// Drop the mapping `va` → `pfn`, whose hardware bits were `attrs`:
    /// onto the gathered run if it continues it, else after removing
    /// that run.
    fn push(&mut self, va: VAddr, pfn: Pfn, attrs: u8) {
        let n = self.attrs.len() as u64;
        if n == 0 || pfn.0 != self.first.0 + n || va != self.va + n * self.page {
            self.finish();
            self.va = va;
            self.first = pfn;
        }
        self.attrs.push(attrs);
    }

    /// Remove the gathered run from the pv table.
    fn finish(&mut self) {
        if !self.attrs.is_empty() {
            self.pv.remove(self.first, self.id, self.va, &self.attrs);
            self.attrs.clear();
        }
    }
}

impl<T: HwTables> Pmap for PortChassis<T> {
    fn enter(&self, va: VAddr, pa: PAddr, size: u64, prot: HwProt, wired: bool) {
        let page = T::PAGE_SIZE;
        assert!(va.is_aligned(page) && pa.0.is_multiple_of(page) && size.is_multiple_of(page));
        self.tables.check_range(va, size);
        let n = size / page;
        self.core.charge_op(n);
        self.core.counters.enters.fetch_add(n, Ordering::Relaxed);
        let mut flush = Vec::new();
        let first = Pfn(pa.0 / page);
        let quirk = {
            let mut g = self.tables.lock();
            self.tables.prepare_enter(&mut g, va, size);
            let mut replaced = PvRemoval::new(&self.core.pv, self.id, page);
            for i in 0..n {
                let v = va + i * page;
                match self.tables.insert(&mut g, v, Pfn(first.0 + i), prot, wired) {
                    SlotOld::Empty => {
                        self.shared.resident.fetch_add(1, Ordering::Relaxed);
                    }
                    SlotOld::Same => {
                        if let Some(tag) = self.tables.space_vpn(&g, v) {
                            flush.push(tag);
                        }
                    }
                    SlotOld::Replaced { pfn, attrs } => {
                        // The slot stays resident; only the frame changes.
                        replaced.push(v, pfn, attrs);
                        if let Some(tag) = self.tables.space_vpn(&g, v) {
                            flush.push(tag);
                        }
                    }
                }
            }
            replaced.finish();
            self.core.pv.add(first, n, &self.weak_self(), self.id, va);
            self.tables.finish_enter(&mut g)
        };
        self.flush_time_critical(&flush);
        if let Some(q) = quirk {
            let strategy = self.core.policy.read().time_critical;
            self.core.flush_pages(q.cpus, &q.pages, strategy);
        }
    }

    fn remove(&self, start: VAddr, end: VAddr) {
        self.remove_range(start, end);
    }

    fn protect(&self, start: VAddr, end: VAddr, prot: HwProt) {
        if prot.is_none() {
            // Protection "none" unmaps in hardware.
            self.remove_range(start, end);
            return;
        }
        let page = T::PAGE_SIZE;
        assert!(start.is_aligned(page) && end.is_aligned(page) && start <= end);
        let mut narrow = Vec::new();
        let mut widen = Vec::new();
        {
            let mut g = self.tables.lock();
            let mut v = start;
            while v < end {
                if let Some(narrowed) = self.tables.reprotect(&mut g, v, prot) {
                    if let Some(tag) = self.tables.space_vpn(&g, v) {
                        if narrowed {
                            narrow.push(tag);
                        } else {
                            widen.push(tag);
                        }
                    }
                    self.core.counters.protects.fetch_add(1, Ordering::Relaxed);
                }
                v += page;
            }
        }
        self.core.charge_op((narrow.len() + widen.len()) as u64);
        let policy = *self.core.policy.read();
        let cached = self.shared.cpus_cached.load(Ordering::SeqCst);
        self.core.flush_pages(cached, &narrow, policy.time_critical);
        self.core.flush_pages(cached, &widen, policy.widen);
    }

    fn extract(&self, va: VAddr) -> Option<PAddr> {
        let page = T::PAGE_SIZE;
        let g = self.tables.lock();
        let pfn = self.tables.lookup(&g, va)?;
        Some(pfn.base(page) + va.offset_in(page))
    }

    fn activate(&self, cpu: usize) {
        self.shared.cpus_active.fetch_or(1 << cpu, Ordering::SeqCst);
        self.shared.cpus_cached.fetch_or(1 << cpu, Ordering::SeqCst);
        let tag = {
            let mut g = self.tables.lock();
            self.tables.activate(&mut g, cpu)
        };
        if tag == TlbTag::Untagged {
            self.core.machine.flush_quiescent(cpu, FlushScope::All);
        }
        self.core
            .machine
            .charge(self.core.machine.cost().context_switch);
    }

    fn deactivate(&self, cpu: usize) {
        self.shared
            .cpus_active
            .fetch_and(!(1 << cpu), Ordering::SeqCst);
        let mut g = self.tables.lock();
        self.tables.deactivate(&mut g, cpu);
    }

    fn copy_from(&self, src: &dyn Pmap, dst_addr: VAddr, len: u64, src_addr: VAddr) {
        crate::generic_pmap_copy(self, src, dst_addr, len, src_addr, T::PAGE_SIZE);
    }

    fn resident_pages(&self) -> u64 {
        self.shared.resident.load(Ordering::Relaxed)
    }
}

impl<T: HwTables> HwMapper for PortChassis<T> {
    fn mapper_id(&self) -> u64 {
        self.id
    }

    fn clear_hw(&self, va: VAddr, first: Pfn, attrs: &mut [u8]) -> bool {
        let mut intact = true;
        let mut g = self.tables.lock();
        for (i, bits) in (0..).zip(attrs.iter_mut()) {
            let v = va + i * T::PAGE_SIZE;
            // A racing `enter` may have replaced the recorded frame here:
            // that mapping, its pv entry and its bits belong to the new
            // frame, so leave them alone.
            if self.tables.lookup(&g, v) != Some(Pfn(first.0 + i)) {
                intact = false;
                continue;
            }
            let (_, a) = self.tables.clear(&mut g, v).expect("looked up");
            self.shared.resident.fetch_sub(1, Ordering::Relaxed);
            *bits |= a & (ATTR_MOD | ATTR_REF);
        }
        intact
    }

    fn protect_hw(&self, va: VAddr, n: u64, prot: HwProt) {
        let mut g = self.tables.lock();
        for i in 0..n {
            self.tables.reprotect(&mut g, va + i * T::PAGE_SIZE, prot);
        }
    }

    fn read_mr(&self, va: VAddr, n: u64) -> (bool, bool) {
        let mut g = self.tables.lock();
        (0..n).fold((false, false), |(m, r), i| {
            let (mi, ri) = self.tables.mr(&mut g, va + i * T::PAGE_SIZE, false, false);
            (m | mi, r | ri)
        })
    }

    fn clear_mr(&self, va: VAddr, n: u64, clear_mod: bool, clear_ref: bool) {
        let mut g = self.tables.lock();
        for i in 0..n {
            self.tables
                .mr(&mut g, va + i * T::PAGE_SIZE, clear_mod, clear_ref);
        }
    }

    fn space_vpn(&self, va: VAddr, n: u64, tags: &mut Vec<(u32, u64)>) {
        let g = self.tables.lock();
        tags.extend((0..n).map(|i| {
            let v = va + i * T::PAGE_SIZE;
            self.tables
                .space_vpn(&g, v)
                .unwrap_or((u32::MAX, v.0 / T::PAGE_SIZE))
        }));
    }

    fn cpus_cached(&self) -> u64 {
        self.shared.cpus_cached.load(Ordering::SeqCst)
    }
}

impl<T: HwTables> Drop for PortChassis<T> {
    fn drop(&mut self) {
        let mut g = self.tables.lock();
        let mut removal = PvRemoval::new(&self.core.pv, self.id, T::PAGE_SIZE);
        for (va, pfn, attrs) in self.tables.teardown(&mut g) {
            removal.push(va, pfn, attrs);
        }
        removal.finish();
        self.shared.resident.store(0, Ordering::Relaxed);
    }
}

/// Constructs a port's [`HwTables`] for each created pmap; the single
/// architecture-specific entry point of a [`ChassisMachDep`].
pub trait PortFactory: Send + Sync + fmt::Debug + 'static {
    /// The port's hardware-table type.
    type Tables: HwTables;

    /// Build the tables half of a fresh pmap with identity `id`.
    fn new_tables(&self, core: &Arc<MdCore>, id: u64, shared: &Arc<PortShared>) -> Self::Tables;
}

/// The [`MachDep`] surface shared by every port: physical-page operations
/// ride the pv table, pmap creation defers to a [`PortFactory`].
pub struct ChassisMachDep<F: PortFactory> {
    core: Arc<MdCore>,
    kernel: Arc<dyn Pmap>,
    factory: F,
}

impl<F: PortFactory> fmt::Debug for ChassisMachDep<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChassisMachDep")
            .field("factory", &self.factory)
            .finish()
    }
}

impl<F: PortFactory> ChassisMachDep<F> {
    /// Boot the machine-dependent layer for `machine` around `factory`.
    pub fn with_factory(machine: &Arc<Machine>, factory: F) -> Arc<ChassisMachDep<F>> {
        Arc::new(ChassisMachDep {
            core: Arc::new(MdCore::new(machine)),
            kernel: Arc::new(SoftPmap::new(machine.hw_page_size())),
            factory,
        })
    }

    /// The port-specific factory (tests and diagnostics).
    pub fn factory(&self) -> &F {
        &self.factory
    }
}

impl<F: PortFactory> MachDep for ChassisMachDep<F> {
    fn machine(&self) -> &Arc<Machine> {
        &self.core.machine
    }

    fn create(&self) -> Arc<dyn Pmap> {
        let id = self.core.next_id();
        let shared = Arc::new(PortShared::default());
        let tables = self.factory.new_tables(&self.core, id, &shared);
        PortChassis::new(&self.core, id, shared, tables)
    }

    fn kernel_pmap(&self) -> &Arc<dyn Pmap> {
        &self.kernel
    }

    fn remove_all(&self, pa: PAddr, size: u64) {
        let strategy = self.core.policy.read().time_critical;
        self.core.remove_all_with(pa, size, strategy);
    }

    fn remove_all_deferred(&self, pa: PAddr, size: u64) -> Pending {
        let strategy = self.core.policy.read().pageout;
        self.core.remove_all_with(pa, size, strategy)
    }

    fn page_free(&self, pa: PAddr, size: u64) {
        self.core.page_free(pa, size);
    }

    fn copy_on_write(&self, pa: PAddr, size: u64) {
        self.core.copy_on_write(pa, size);
    }

    fn zero_page(&self, pa: PAddr, size: u64) {
        self.core.zero_page(pa, size);
    }

    fn copy_page(&self, src: PAddr, dst: PAddr, size: u64) {
        self.core.copy_page(src, dst, size);
    }

    fn is_modified(&self, pa: PAddr, size: u64) -> bool {
        self.core.is_modified(pa, size)
    }

    fn clear_modify(&self, pa: PAddr, size: u64) {
        self.core.clear_bits(pa, size, true, false);
    }

    fn is_referenced(&self, pa: PAddr, size: u64) -> bool {
        self.core.is_referenced(pa, size)
    }

    fn clear_reference(&self, pa: PAddr, size: u64) {
        self.core.clear_bits(pa, size, false, true);
    }

    fn mapping_count(&self, pa: PAddr) -> usize {
        self.core
            .pv
            .mapping_count(pa.pfn(self.core.machine.hw_page_size()), 1)
    }

    fn update(&self) {
        self.core.update();
    }

    fn complete(&self, pending: &Pending) {
        self.core.complete(pending);
    }

    fn set_shootdown_policy(&self, policy: ShootdownPolicy) {
        *self.core.policy.write() = policy;
    }

    fn set_shootdown_observer(&self, observer: ShootdownObserver) {
        self.core.set_observer(observer);
    }

    fn set_shootdown_span_hook(&self, hook: crate::ShootdownSpanHook) {
        self.core.set_span_hook(hook);
    }

    fn stats(&self) -> PmapStats {
        self.core.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mach_hw::machine::MachineModel;

    /// `remove_all` takes a frame's pv entries first and clears their
    /// mappings after. A COW fault can re-enter one of those addresses to
    /// a new frame in between; clearing then must leave the new frame's
    /// mapping, pv entry and modify bit alone.
    #[test]
    fn clear_hw_leaves_a_mapping_a_racing_enter_replaced() {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let md = crate::vax::VaxMachDep::new(&machine);
        let hw = machine.hw_page_size();
        let (a, b) = (
            machine.frames().alloc().unwrap(),
            machine.frames().alloc().unwrap(),
        );
        let va = VAddr(0x10000);
        let rw = HwProt::READ | HwProt::WRITE;
        let _cpu = machine.bind_cpu(0);
        let pmap = md.create();
        pmap.activate(0);
        pmap.enter(va, a.base(hw), hw, rw, false);
        let taken = md.core.pv.take(a, 1, 0);
        assert_eq!(taken.len(), 1);
        pmap.enter(va, b.base(hw), hw, rw, false);
        machine.store_u32(va, 7).expect("mapped");

        let run = &taken[0];
        let mut bits = [0u8];
        let intact = run
            .mapper
            .upgrade()
            .unwrap()
            .clear_hw(run.va, run.first, &mut bits);
        assert!(!intact, "the address no longer maps frame A");
        assert_eq!(bits, [0], "the new frame's bits went to the old frame");
        assert_eq!(pmap.extract(va), Some(b.base(hw)), "B's mapping survives");
        assert_eq!(md.mapping_count(b.base(hw)), 1, "B's pv entry survives");
        assert!(md.is_modified(b.base(hw), hw), "B's modify bit survives");
        pmap.deactivate(0);
    }
}
