//! The NS32082 pmap port (Encore MultiMax / Sequent Balance).
//!
//! Two-level tables make partial construction natural: the 1 KB level-1
//! table is allocated with the pmap, and each 512-byte level-2 table only
//! when a page in its 64 KB reach is entered. The port enforces the
//! paper's two capacity complaints — 16 MB of virtual space per table and
//! 32 MB of physical memory — and carries the software workaround for the
//! read-modify-write erratum: because the faulting access type cannot be
//! trusted, the machine-independent layer must treat read faults on
//! copy-on-write pages as possible writes (see `mach-vm`'s fault handler).
//!
//! Range walks, pv bookkeeping and shootdown dispatch live in the shared
//! [`crate::chassis`]; this module is only the two-level-table logic.

use std::sync::Arc;

use mach_hw::addr::{HwProt, PAddr, Pfn, VAddr};
use mach_hw::arch::ns32082::{
    l1_entry, pte, pte_prot, L2_ENTRIES, PTE_M, PTE_PFN_MASK, PTE_REF, PTE_V, VA_LIMIT,
};
use mach_hw::arch::CpuRegs;
use mach_hw::lock::{KernelGuard, KernelMutex, LockSite};
use mach_hw::machine::Machine;

use crate::chassis::{ChassisMachDep, HwTables, PortFactory, PortShared, SlotOld, TlbTag};
use crate::core::MdCore;
use crate::pv::{ATTR_MOD, ATTR_REF};

const PAGE: u64 = 512;
const L1_BYTES: u64 = 1024; // 256 entries × 4 bytes = 2 frames
const L1_FRAMES: u64 = L1_BYTES / PAGE;

/// Table state behind the guard (opaque outside this module).
#[derive(Debug, Default)]
pub struct NsState {
    l1: Option<Pfn>,
    /// Level-2 table frame per level-1 slot.
    l2: std::collections::HashMap<u64, Pfn>,
}

impl NsState {
    fn pte_pa(&self, vpn: u64) -> Option<PAddr> {
        let l1_idx = vpn / L2_ENTRIES;
        let l2_idx = vpn % L2_ENTRIES;
        let l2 = self.l2.get(&l1_idx)?;
        Some(PAddr(l2.0 * PAGE + 4 * l2_idx))
    }
}

/// Builds [`NsTables`] per created pmap.
#[derive(Debug)]
pub struct NsFactory;

impl PortFactory for NsFactory {
    type Tables = NsTables;

    fn new_tables(&self, core: &Arc<MdCore>, _id: u64, _shared: &Arc<PortShared>) -> NsTables {
        NsTables {
            core: Arc::clone(core),
            state: KernelMutex::new(LockSite::PmapTables, NsState::default()),
        }
    }
}

/// The NS32082 machine-dependent module.
pub type NsMachDep = ChassisMachDep<NsFactory>;

impl ChassisMachDep<NsFactory> {
    /// Build the NS32082 pmap module for `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is not NS32082-based.
    pub fn new(machine: &Arc<Machine>) -> Arc<NsMachDep> {
        assert_eq!(machine.kind(), mach_hw::ArchKind::Ns32082);
        ChassisMachDep::with_factory(machine, NsFactory)
    }
}

/// An NS32082 pmap's hardware tables (level-1 plus sparse level-2s).
#[derive(Debug)]
pub struct NsTables {
    core: Arc<MdCore>,
    state: KernelMutex<NsState>,
}

impl NsTables {
    fn ensure_l1(&self, st: &mut NsState) -> Pfn {
        let machine = &self.core.machine;
        if st.l1.is_none() {
            let l1 = machine
                .frames()
                .alloc_contig(L1_FRAMES)
                .expect("out of physical memory for NS32082 level-1 table");
            machine
                .phys()
                .zero(PAddr(l1.0 * PAGE), L1_BYTES)
                .expect("table frames valid");
            st.l1 = Some(l1);
            crate::core::stat_add(&self.core.counters.table_bytes, L1_BYTES);
        }
        st.l1.unwrap()
    }

    fn ensure(&self, st: &mut NsState, vpn: u64) -> PAddr {
        let machine = &self.core.machine;
        let l1 = self.ensure_l1(st);
        let l1_idx = vpn / L2_ENTRIES;
        let l2_idx = vpn % L2_ENTRIES;
        let l2 = *st.l2.entry(l1_idx).or_insert_with(|| {
            let f = machine
                .frames()
                .alloc()
                .expect("out of physical memory for NS32082 level-2 table");
            machine
                .phys()
                .zero(f.base(PAGE), PAGE)
                .expect("table frame valid");
            machine
                .phys()
                .write_u32(PAddr(l1.0 * PAGE + 4 * l1_idx), l1_entry(f))
                .expect("level-1 resident");
            crate::core::stat_add(&self.core.counters.table_bytes, PAGE);
            f
        });
        PAddr(l2.0 * PAGE + 4 * l2_idx)
    }

    fn read_pte(&self, st: &NsState, va: VAddr) -> Option<(PAddr, u32)> {
        if va.0 >= VA_LIMIT {
            return None;
        }
        let pte_pa = st.pte_pa(va.0 / PAGE)?;
        let word = self
            .core
            .machine
            .phys()
            .read_u32(pte_pa)
            .expect("table resident");
        // Only valid PTEs: every caller treats invalid as unmapped.
        (word & PTE_V != 0).then_some((pte_pa, word))
    }
}

fn attr_bits(word: u32) -> u8 {
    ((word & PTE_M != 0) as u8 * ATTR_MOD) | ((word & PTE_REF != 0) as u8 * ATTR_REF)
}

impl HwTables for NsTables {
    type Guard<'a> = KernelGuard<'a, NsState>;

    const PAGE_SIZE: u64 = PAGE;

    fn lock(&self) -> KernelGuard<'_, NsState> {
        self.state.lock()
    }

    fn check_range(&self, va: VAddr, size: u64) {
        assert!(
            va.0 + size <= VA_LIMIT,
            "NS32082 maps only 16 MB of virtual space per table"
        );
    }

    fn insert(
        &self,
        g: &mut KernelGuard<'_, NsState>,
        va: VAddr,
        pfn: Pfn,
        prot: HwProt,
        _wired: bool,
    ) -> SlotOld {
        let pte_pa = self.ensure(g, va.0 / PAGE);
        let phys = self.core.machine.phys();
        let old = phys.read_u32(pte_pa).expect("table resident");
        let mut word = pte(pfn, prot);
        let slot = crate::chassis::pte_slot(
            old,
            pfn,
            &mut word,
            PTE_V,
            PTE_PFN_MASK,
            PTE_M | PTE_REF,
            attr_bits,
        );
        phys.write_u32(pte_pa, word).expect("table resident");
        slot
    }

    fn clear(&self, g: &mut KernelGuard<'_, NsState>, va: VAddr) -> Option<(Pfn, u8)> {
        let (pte_pa, old) = self.read_pte(g, va)?;
        self.core
            .machine
            .phys()
            .write_u32(pte_pa, 0)
            .expect("table resident");
        Some((Pfn((old & PTE_PFN_MASK) as u64), attr_bits(old)))
    }

    fn reprotect(&self, g: &mut KernelGuard<'_, NsState>, va: VAddr, prot: HwProt) -> Option<bool> {
        let (pte_pa, old) = self.read_pte(g, va)?;
        let frame = Pfn((old & PTE_PFN_MASK) as u64);
        self.core
            .machine
            .phys()
            .write_u32(pte_pa, pte(frame, prot) | (old & (PTE_M | PTE_REF)))
            .expect("table resident");
        Some(pte_prot(old).bits() & !prot.bits() != 0)
    }

    fn lookup(&self, g: &KernelGuard<'_, NsState>, va: VAddr) -> Option<Pfn> {
        let (_, word) = self.read_pte(g, va)?;
        Some(Pfn((word & PTE_PFN_MASK) as u64))
    }

    fn mr(
        &self,
        g: &mut KernelGuard<'_, NsState>,
        va: VAddr,
        clear_mod: bool,
        clear_ref: bool,
    ) -> (bool, bool) {
        let Some((pte_pa, word)) = self.read_pte(g, va) else {
            return (false, false);
        };
        let mask = if clear_mod { PTE_M } else { 0 } | if clear_ref { PTE_REF } else { 0 };
        if mask != 0 {
            let _ = self.core.machine.phys().update_u32(pte_pa, |w| w & !mask);
        }
        (word & PTE_M != 0, word & PTE_REF != 0)
    }

    fn activate(&self, g: &mut KernelGuard<'_, NsState>, cpu: usize) -> TlbTag {
        let ptb = self.ensure_l1(g).0 * PAGE;
        self.core
            .machine
            .cpu(cpu)
            .load_regs(CpuRegs::Ns32082(mach_hw::arch::ns32082::NsRegs {
                ptb,
                enabled: true,
            }));
        // Untagged TLB: flushed on switch.
        TlbTag::Untagged
    }

    fn teardown(&self, g: &mut KernelGuard<'_, NsState>) -> Vec<(VAddr, Pfn, u8)> {
        let machine = &self.core.machine;
        let phys = machine.phys();
        let mut harvested = Vec::new();
        for (&l1_idx, &l2) in &g.l2 {
            for l2_idx in 0..L2_ENTRIES {
                let pte_pa = PAddr(l2.0 * PAGE + 4 * l2_idx);
                let word = phys.read_u32(pte_pa).unwrap_or(0);
                if word & PTE_V != 0 {
                    let frame = Pfn((word & PTE_PFN_MASK) as u64);
                    let va = VAddr((l1_idx * L2_ENTRIES + l2_idx) * PAGE);
                    harvested.push((va, frame, attr_bits(word)));
                }
            }
            machine.frames().free(l2);
            crate::core::stat_sub(&self.core.counters.table_bytes, PAGE);
        }
        if let Some(l1) = g.l1 {
            machine.frames().free_contig(l1, L1_FRAMES);
            crate::core::stat_sub(&self.core.counters.table_bytes, L1_BYTES);
        }
        harvested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{frame, rw};
    use crate::MachDep;
    use mach_hw::machine::MachineModel;

    fn setup() -> (Arc<Machine>, Arc<NsMachDep>) {
        let machine = Machine::boot(MachineModel::multimax(2));
        let md = NsMachDep::new(&machine);
        (machine, md)
    }

    #[test]
    fn enter_and_access() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x10000), pa, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        machine.store_u32(VAddr(0x10000), 0xABCD).unwrap();
        assert_eq!(machine.load_u32(VAddr(0x10000)).unwrap(), 0xABCD);
        assert_eq!(pmap.extract(VAddr(0x10004)), Some(pa + 4));
    }

    #[test]
    #[should_panic(expected = "16 MB")]
    fn sixteen_mb_limit_enforced() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(VA_LIMIT), pa, PAGE, rw(), false);
    }

    #[test]
    fn l2_tables_allocated_per_64k() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0), pa, PAGE, rw(), false);
        let t1 = md.stats().table_bytes;
        assert_eq!(t1, L1_BYTES + PAGE);
        // Same 64 KB window: no new table.
        let pa2 = frame(&machine, PAGE);
        pmap.enter(VAddr(0x8000), pa2, PAGE, rw(), false);
        assert_eq!(md.stats().table_bytes, t1);
        // Different window: one more level-2 frame.
        let pa3 = frame(&machine, PAGE);
        pmap.enter(VAddr(0x20000), pa3, PAGE, rw(), false);
        assert_eq!(md.stats().table_bytes, t1 + PAGE);
    }

    #[test]
    fn rmw_erratum_reports_read_fault_on_cow_write() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x1000), pa, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        machine.store_u32(VAddr(0x1000), 1).unwrap();
        // Simulate the COW downgrade.
        md.copy_on_write(pa, PAGE);
        // A read-modify-write now faults... as a *read*.
        let err = machine.rmw_u32(VAddr(0x1000), |v| v + 1).unwrap_err();
        assert_eq!(err.access, mach_hw::Access::Read);
        assert_eq!(err.code, mach_hw::FaultCode::Protection);
        // With the erratum disabled (NS32382), the truth comes out.
        if let mach_hw::arch::ArchGlobal::Ns32082(g) = machine.arch_global() {
            g.set_rmw_bug(false);
        }
        let err = machine.rmw_u32(VAddr(0x1000), |v| v + 1).unwrap_err();
        assert_eq!(err.access, mach_hw::Access::Write);
    }

    #[test]
    fn remove_and_drop_free_tables() {
        let (machine, md) = setup();
        let free0 = machine.frames().free_count();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x3000), pa, PAGE, rw(), false);
        pmap.remove(VAddr(0x3000), VAddr(0x3000 + PAGE));
        assert_eq!(pmap.resident_pages(), 0);
        assert_eq!(pmap.extract(VAddr(0x3000)), None);
        drop(pmap);
        assert_eq!(machine.frames().free_count(), free0 - 1);
        assert_eq!(md.stats().table_bytes, 0);
    }

    #[test]
    fn two_cpu_shootdown() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x1000), pa, PAGE, rw(), false);
        {
            let _b = machine.bind_cpu(1);
            pmap.activate(1);
            machine.store_u32(VAddr(0x1000), 9).unwrap();
        }
        {
            let _b = machine.bind_cpu(0);
            pmap.activate(0);
            machine.load_u32(VAddr(0x1000)).unwrap();
            // Narrow from CPU 0; CPU 1 (quiescent) gets flushed directly.
            pmap.protect(VAddr(0x1000), VAddr(0x1000 + PAGE), HwProt::READ);
        }
        let _b = machine.bind_cpu(1);
        assert!(machine.store_u32(VAddr(0x1000), 1).is_err());
        assert_eq!(machine.load_u32(VAddr(0x1000)).unwrap(), 9);
    }

    #[test]
    fn deferred_pageout_flush() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x1000), pa, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        machine.load_u32(VAddr(0x1000)).unwrap();
        let pending = md.remove_all_deferred(pa, PAGE);
        assert!(!pending.is_complete());
        // The mapping is already gone from the tables...
        assert_eq!(pmap.extract(VAddr(0x1000)), None);
        // ...and after update() the TLBs are clean too.
        md.update();
        assert!(pending.is_complete());
        assert!(machine.load_u32(VAddr(0x1000)).is_err());
    }
}
