//! The VAX pmap port: partially-constructed linear page tables.
//!
//! "Although, in theory, a full two gigabyte address space can be
//! allocated ... it is not always practical to do so because of the large
//! amount of linear page table space required (8 megabytes). The solution
//! chosen for Mach was to keep page tables in physical memory, but only to
//! construct those parts of the table which were needed" (§5.1).
//!
//! Each region's table is a physically contiguous array of PTEs grown
//! geometrically as higher (P0) or lower (P1) pages are entered, and
//! destroyed with the pmap. The P1 table is allocated from its top, with
//! the base register biased by `-4 * P1LR` exactly as the hardware
//! expects; [`crate::PmapStats::table_bytes`] tracks the footprint the
//! paper complains about. Everything else lives in [`crate::chassis`].

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mach_hw::addr::{HwProt, PAddr, Pfn, VAddr};
use mach_hw::arch::vax::{
    decode, pte, pte_prot, Region, VaxRegs, PTE_M, PTE_PFN_MASK, PTE_REF, PTE_V, REGION_PAGES,
};
use mach_hw::arch::CpuRegs;
use mach_hw::lock::{KernelGuard, KernelMutex, LockSite};
use mach_hw::machine::Machine;

use crate::chassis::{ChassisMachDep, HwTables, PortFactory, PortShared, SlotOld, TlbTag};
use crate::core::MdCore;
use crate::pv::{ATTR_MOD, ATTR_REF};

const PAGE: u64 = 512;
const PTES_PER_FRAME: u64 = PAGE / 4;

/// One region's (possibly partial) linear table.
#[derive(Debug)]
struct VaxRegion {
    base: Option<Pfn>,
    frames: u64,
    /// P0: number of valid PTEs from the bottom. P1: lowest valid page.
    lr: u64,
}

#[derive(Debug)]
struct VaxState {
    p0: VaxRegion,
    p1: VaxRegion,
}

impl VaxState {
    fn new() -> VaxState {
        let empty = |lr| VaxRegion {
            base: None,
            frames: 0,
            lr,
        };
        VaxState {
            p0: empty(0),
            p1: empty(REGION_PAGES),
        }
    }

    fn pte_pa(&self, region: Region, vpn: u64) -> Option<PAddr> {
        let (r, covered) = match region {
            Region::P0 => (&self.p0, vpn < self.p0.lr),
            Region::P1 => (&self.p1, vpn >= self.p1.lr && vpn < REGION_PAGES),
            Region::System => return None,
        };
        if !covered {
            return None;
        }
        let idx = if region == Region::P1 {
            vpn - r.lr
        } else {
            vpn
        };
        Some(PAddr(r.base?.0 * PAGE + 4 * idx))
    }

    fn hw_regs(&self) -> VaxRegs {
        let p1_base = self.p1.base.map(|b| b.0 * PAGE).unwrap_or(0) as i64;
        VaxRegs {
            p0br: self.p0.base.map(|b| b.0 * PAGE).unwrap_or(0),
            p0lr: self.p0.lr as u32,
            p1br: p1_base - 4 * self.p1.lr as i64,
            p1lr: self.p1.lr as u32,
            sbr: 0,
            slr: 0,
        }
    }
}

/// Builds [`VaxTables`] per created pmap.
#[derive(Debug)]
pub struct VaxFactory;

impl PortFactory for VaxFactory {
    type Tables = VaxTables;

    fn new_tables(&self, core: &Arc<MdCore>, _id: u64, shared: &Arc<PortShared>) -> VaxTables {
        VaxTables {
            core: Arc::clone(core),
            shared: Arc::clone(shared),
            state: KernelMutex::new(LockSite::PmapTables, VaxState::new()),
        }
    }
}

/// The VAX machine-dependent module.
pub type VaxMachDep = ChassisMachDep<VaxFactory>;

impl ChassisMachDep<VaxFactory> {
    /// Build the VAX pmap module for `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is not a VAX.
    pub fn new(machine: &Arc<Machine>) -> Arc<VaxMachDep> {
        assert_eq!(machine.kind(), mach_hw::ArchKind::Vax);
        ChassisMachDep::with_factory(machine, VaxFactory)
    }
}

/// A VAX pmap's hardware tables (the P0/P1 linear-table pair).
#[derive(Debug)]
pub struct VaxTables {
    core: Arc<MdCore>,
    shared: Arc<PortShared>,
    state: KernelMutex<VaxState>,
}

/// State guard plus a flag for base/length register changes.
pub struct VaxGuard<'a> {
    st: KernelGuard<'a, VaxState>,
    grew: bool,
}

impl VaxTables {
    /// Grow (or create) a region table so `vpn` is covered.
    fn ensure(&self, st: &mut VaxState, region: Region, vpn: u64) {
        let machine = &self.core.machine;
        let grows_down = region == Region::P1;
        let r = match region {
            Region::P0 => &mut st.p0,
            Region::P1 => &mut st.p1,
            Region::System => panic!("user pmap cannot map the system region"),
        };
        let covered = if grows_down {
            vpn >= r.lr && r.base.is_some()
        } else {
            vpn < r.lr
        };
        if covered {
            return;
        }
        let old_count = if grows_down {
            REGION_PAGES - r.lr
        } else {
            r.lr
        };
        let needed = if grows_down {
            REGION_PAGES - (vpn / PTES_PER_FRAME) * PTES_PER_FRAME
        } else {
            (vpn + 1).next_multiple_of(PTES_PER_FRAME)
        };
        let mut new_count = needed.max(old_count * 2).min(REGION_PAGES);
        let mut new_frames = new_count.div_ceil(PTES_PER_FRAME);
        // Fall back to the exact requirement if memory is fragmented.
        let base = machine.frames().alloc_contig(new_frames).or_else(|| {
            new_count = needed;
            new_frames = new_count.div_ceil(PTES_PER_FRAME);
            machine.frames().alloc_contig(new_frames)
        });
        let base = base.expect("out of physical memory for VAX page table");
        let new_pa = PAddr(base.0 * PAGE);
        machine
            .phys()
            .zero(new_pa, new_frames * PAGE)
            .expect("table frames valid");
        machine.charge(machine.cost().zero_cycles(new_frames * PAGE));
        if let Some(old_base) = r.base {
            let old_pa = PAddr(old_base.0 * PAGE);
            if old_count > 0 {
                if grows_down {
                    // Old table occupied the tail; keep it at the tail.
                    let off = (new_count - old_count) * 4;
                    machine
                        .phys()
                        .copy(old_pa, PAddr(new_pa.0 + off), old_count * 4)
                        .expect("table copy");
                } else {
                    machine
                        .phys()
                        .copy(old_pa, new_pa, old_count * 4)
                        .expect("table copy");
                }
                machine.charge(machine.cost().copy_cycles(old_count * 4));
            }
            machine.frames().free_contig(old_base, r.frames);
            crate::core::stat_sub(&self.core.counters.table_bytes, r.frames * PAGE);
        }
        r.base = Some(base);
        r.frames = new_frames;
        r.lr = if grows_down {
            REGION_PAGES - new_count
        } else {
            new_count
        };
        crate::core::stat_add(&self.core.counters.table_bytes, new_frames * PAGE);
        // Register reload (the base/length pair changed) happens in
        // finish_enter, after the mutable region borrow ends.
    }

    fn reload_regs(&self, st: &VaxState) {
        let mask = self.shared.cpus_active.load(Ordering::SeqCst);
        let regs = st.hw_regs();
        for cpu in crate::core::cpu_list(mask, self.core.machine.n_cpus()) {
            self.core.machine.cpu(cpu).load_regs(CpuRegs::Vax(regs));
        }
    }

    fn read_pte(&self, st: &VaxState, va: VAddr) -> Option<(PAddr, u32)> {
        let (region, vpn) = decode(va).ok()?;
        let pte_pa = st.pte_pa(region, vpn)?;
        let word = self
            .core
            .machine
            .phys()
            .read_u32(pte_pa)
            .expect("table resident");
        // Only valid PTEs: every caller treats invalid as unmapped.
        (word & PTE_V != 0).then_some((pte_pa, word))
    }

    fn write_pte(&self, pte_pa: PAddr, word: u32) {
        self.core
            .machine
            .phys()
            .write_u32(pte_pa, word)
            .expect("table resident");
    }
}

fn attr_bits(word: u32) -> u8 {
    ((word & PTE_M != 0) as u8 * ATTR_MOD) | ((word & PTE_REF != 0) as u8 * ATTR_REF)
}

impl HwTables for VaxTables {
    type Guard<'a> = VaxGuard<'a>;

    const PAGE_SIZE: u64 = PAGE;

    fn lock(&self) -> VaxGuard<'_> {
        VaxGuard {
            st: self.state.lock(),
            grew: false,
        }
    }

    fn check_range(&self, va: VAddr, size: u64) {
        for i in 0..size / PAGE {
            let (region, _) = decode(va + i * PAGE).expect("enter within the VAX user regions");
            assert!(
                region != Region::System,
                "user pmap cannot map the system region"
            );
        }
    }

    fn insert(
        &self,
        g: &mut VaxGuard<'_>,
        va: VAddr,
        pfn: Pfn,
        prot: HwProt,
        _wired: bool,
    ) -> SlotOld {
        let (region, vpn) = decode(va).expect("checked by check_range");
        if g.st.pte_pa(region, vpn).is_none() {
            self.ensure(&mut g.st, region, vpn);
            g.grew = true;
        }
        let pte_pa = g.st.pte_pa(region, vpn).expect("table just ensured");
        let old = self
            .core
            .machine
            .phys()
            .read_u32(pte_pa)
            .expect("table resident");
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
        self.write_pte(pte_pa, word);
        slot
    }

    fn clear(&self, g: &mut VaxGuard<'_>, va: VAddr) -> Option<(Pfn, u8)> {
        let (pte_pa, old) = self.read_pte(&g.st, va)?;
        self.write_pte(pte_pa, 0);
        Some((Pfn((old & PTE_PFN_MASK) as u64), attr_bits(old)))
    }

    fn reprotect(&self, g: &mut VaxGuard<'_>, va: VAddr, prot: HwProt) -> Option<bool> {
        let (pte_pa, old) = self.read_pte(&g.st, va)?;
        let frame = Pfn((old & PTE_PFN_MASK) as u64);
        let word = pte(frame, prot) | (old & (PTE_M | PTE_REF));
        self.write_pte(pte_pa, word);
        Some(pte_prot(old).bits() & !prot.bits() != 0)
    }

    fn lookup(&self, g: &VaxGuard<'_>, va: VAddr) -> Option<Pfn> {
        let (_, word) = self.read_pte(&g.st, va)?;
        Some(Pfn((word & PTE_PFN_MASK) as u64))
    }

    fn mr(
        &self,
        g: &mut VaxGuard<'_>,
        va: VAddr,
        clear_mod: bool,
        clear_ref: bool,
    ) -> (bool, bool) {
        let Some((pte_pa, word)) = self.read_pte(&g.st, va) else {
            return (false, false);
        };
        let mask = if clear_mod { PTE_M } else { 0 } | if clear_ref { PTE_REF } else { 0 };
        if mask != 0 {
            let _ = self.core.machine.phys().update_u32(pte_pa, |w| w & !mask);
        }
        (word & PTE_M != 0, word & PTE_REF != 0)
    }

    fn finish_enter(&self, g: &mut VaxGuard<'_>) -> Option<crate::chassis::QuirkFlush> {
        if g.grew {
            self.reload_regs(&g.st);
        }
        None
    }

    fn activate(&self, g: &mut VaxGuard<'_>, cpu: usize) -> TlbTag {
        self.core
            .machine
            .cpu(cpu)
            .load_regs(CpuRegs::Vax(g.st.hw_regs()));
        // The VAX TLB is untagged: switching spaces flushes it.
        TlbTag::Untagged
    }

    fn teardown(&self, g: &mut VaxGuard<'_>) -> Vec<(VAddr, Pfn, u8)> {
        let phys = self.core.machine.phys();
        let mut harvested = Vec::new();
        // Collect every remaining mapping's pv entry, then free the tables.
        for (region, r) in [(Region::P0, &g.st.p0), (Region::P1, &g.st.p1)] {
            let Some(base) = r.base else { continue };
            let (first_vpn, count) = match region {
                Region::P0 => (0, r.lr),
                Region::P1 => (r.lr, REGION_PAGES - r.lr),
                Region::System => unreachable!(),
            };
            for i in 0..count {
                let pte_pa = PAddr(base.0 * PAGE + 4 * i);
                let word = phys.read_u32(pte_pa).unwrap_or(0);
                if word & PTE_V != 0 {
                    let frame = Pfn((word & PTE_PFN_MASK) as u64);
                    let vpn = first_vpn + i;
                    let va =
                        VAddr((if region == Region::P1 { 1u64 << 30 } else { 0 }) + vpn * PAGE);
                    harvested.push((va, frame, attr_bits(word)));
                }
            }
            self.core.machine.frames().free_contig(base, r.frames);
            crate::core::stat_sub(&self.core.counters.table_bytes, r.frames * PAGE);
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

    fn setup() -> (Arc<Machine>, Arc<VaxMachDep>) {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let md = VaxMachDep::new(&machine);
        (machine, md)
    }

    #[test]
    fn enter_then_cpu_access_works() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x2000), pa, PAGE, rw(), false);
        assert_eq!(pmap.extract(VAddr(0x2004)), Some(pa + 4));
        assert_eq!(pmap.resident_pages(), 1);

        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        machine.store_u32(VAddr(0x2000), 0xFEED).unwrap();
        assert_eq!(machine.load_u32(VAddr(0x2000)).unwrap(), 0xFEED);
        // Unmapped neighbour faults.
        assert!(machine.load_u32(VAddr(0x2000 + PAGE)).is_err());
    }

    #[test]
    fn tables_grow_lazily_and_track_bytes() {
        let (machine, md) = setup();
        let pmap = md.create();
        assert_eq!(md.stats().table_bytes, 0);
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0), pa, PAGE, rw(), false);
        let small = md.stats().table_bytes;
        assert!(small > 0);
        // Mapping a high P0 page forces a much larger table — the paper's
        // sparse-space problem on the VAX.
        let pa2 = frame(&machine, PAGE);
        pmap.enter(VAddr(1 << 24), pa2, PAGE, rw(), false);
        let big = md.stats().table_bytes;
        assert!(big > small * 100, "sparse high page must balloon the table");
        // Both mappings still present after the growth copy.
        assert_eq!(pmap.extract(VAddr(0)), Some(pa));
        assert_eq!(pmap.extract(VAddr(1 << 24)), Some(pa2));
    }

    #[test]
    fn p1_stack_region_grows_down() {
        let (machine, md) = setup();
        let pmap = md.create();
        let top = VAddr((1 << 31) - PAGE); // highest P1 page
        let pa = frame(&machine, PAGE);
        pmap.enter(top, pa, PAGE, rw(), false);
        assert_eq!(pmap.extract(top), Some(pa));
        // Grow downward.
        let lower = VAddr((1 << 31) - 200 * PAGE);
        let pa2 = frame(&machine, PAGE);
        pmap.enter(lower, pa2, PAGE, rw(), false);
        assert_eq!(pmap.extract(lower), Some(pa2));
        assert_eq!(pmap.extract(top), Some(pa), "old tail mapping preserved");

        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        machine.store_u32(top, 7).unwrap();
        machine.store_u32(lower, 8).unwrap();
        assert_eq!(machine.load_u32(top).unwrap(), 7);
    }

    #[test]
    fn remove_invalidates_and_faults() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x4000), pa, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        machine.store_u32(VAddr(0x4000), 1).unwrap();
        pmap.remove(VAddr(0x4000), VAddr(0x4000 + PAGE));
        assert_eq!(pmap.resident_pages(), 0);
        assert!(machine.load_u32(VAddr(0x4000)).is_err());
        // Modify attribute was preserved in the pv table.
        assert!(md.is_modified(pa, PAGE));
    }

    #[test]
    fn protect_narrowing_flushes_immediately() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x4000), pa, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        machine.store_u32(VAddr(0x4000), 1).unwrap();
        pmap.protect(VAddr(0x4000), VAddr(0x4000 + PAGE), HwProt::READ);
        let err = machine.store_u32(VAddr(0x4000), 2).unwrap_err();
        assert_eq!(err.access, mach_hw::Access::Write);
        assert_eq!(machine.load_u32(VAddr(0x4000)).unwrap(), 1);
    }

    #[test]
    fn remove_all_strips_every_pmap() {
        let (machine, md) = setup();
        let p1 = md.create();
        let p2 = md.create();
        let pa = frame(&machine, PAGE);
        p1.enter(VAddr(0x1000), pa, PAGE, rw(), false);
        p2.enter(VAddr(0x8000), pa, PAGE, rw(), false);
        assert_eq!(md.mapping_count(pa), 2);
        md.remove_all(pa, PAGE);
        assert_eq!(md.mapping_count(pa), 0);
        assert_eq!(p1.extract(VAddr(0x1000)), None);
        assert_eq!(p2.extract(VAddr(0x8000)), None);
    }

    #[test]
    fn copy_on_write_narrows_all_mappings() {
        let (machine, md) = setup();
        let p1 = md.create();
        let pa = frame(&machine, PAGE);
        p1.enter(VAddr(0x1000), pa, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        p1.activate(0);
        machine.store_u32(VAddr(0x1000), 3).unwrap();
        md.copy_on_write(pa, PAGE);
        assert!(machine.store_u32(VAddr(0x1000), 4).is_err());
        assert_eq!(machine.load_u32(VAddr(0x1000)).unwrap(), 3);
    }

    #[test]
    fn modify_and_reference_bits_report_and_clear() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x1000), pa, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        assert!(!md.is_referenced(pa, PAGE));
        machine.load_u32(VAddr(0x1000)).unwrap();
        assert!(md.is_referenced(pa, PAGE));
        assert!(!md.is_modified(pa, PAGE));
        machine.store_u32(VAddr(0x1000), 1).unwrap();
        assert!(md.is_modified(pa, PAGE));
        md.clear_modify(pa, PAGE);
        assert!(!md.is_modified(pa, PAGE));
        // A subsequent write sets it again despite TLB caching.
        machine.store_u32(VAddr(0x1000), 2).unwrap();
        assert!(md.is_modified(pa, PAGE));
        md.clear_reference(pa, PAGE);
        assert!(!md.is_referenced(pa, PAGE));
    }

    #[test]
    fn drop_frees_table_frames() {
        let (machine, md) = setup();
        let before = machine.frames().free_count();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0), pa, PAGE, rw(), false);
        assert!(machine.frames().free_count() < before - 1);
        drop(pmap);
        assert_eq!(machine.frames().free_count(), before - 1);
        assert_eq!(md.stats().table_bytes, 0);
        // pv entry gone too.
        assert_eq!(md.mapping_count(pa), 0);
    }

    #[test]
    fn reenter_same_frame_preserves_modify_bit() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x1000), pa, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        machine.store_u32(VAddr(0x1000), 1).unwrap();
        // Narrow then widen again via enter (fault-time re-entry).
        pmap.enter(VAddr(0x1000), pa, PAGE, rw(), false);
        assert!(md.is_modified(pa, PAGE));
    }

    #[test]
    fn enter_replacing_frame_updates_pv() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa1 = frame(&machine, PAGE);
        let pa2 = frame(&machine, PAGE);
        pmap.enter(VAddr(0x1000), pa1, PAGE, rw(), false);
        pmap.enter(VAddr(0x1000), pa2, PAGE, rw(), false);
        assert_eq!(md.mapping_count(pa1), 0);
        assert_eq!(md.mapping_count(pa2), 1);
        assert_eq!(pmap.resident_pages(), 1);
    }

    #[test]
    fn multiprocessor_shootdown_on_remove() {
        let machine = Machine::boot(MachineModel::vax_11_784());
        let md = VaxMachDep::new(&machine);
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x1000), pa, PAGE, rw(), false);

        // CPU 1 runs the task and caches the translation, then quiesces.
        {
            let _b = machine.bind_cpu(1);
            pmap.activate(1);
            machine.store_u32(VAddr(0x1000), 5).unwrap();
        }
        // CPU 0 removes the mapping; CPU 1's TLB must be shot down.
        {
            let _b = machine.bind_cpu(0);
            md.remove_all(pa, PAGE);
        }
        let _b = machine.bind_cpu(1);
        assert!(machine.load_u32(VAddr(0x1000)).is_err());
    }
}
