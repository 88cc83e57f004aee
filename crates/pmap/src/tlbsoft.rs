//! The TLB-only (RP3-style) pmap port — the paper's minimal case.
//!
//! "Machines which provide only an easily manipulated TLB could be
//! accommodated by Mach and would need little code to be written for the
//! pmap module" (§5, footnote 2). This module is that little code: there
//! are no hardware tables to build, grow, hash or steal — `pmap_enter` is
//! a software-map insert, `pmap_remove` a delete, and the TLB refills
//! itself from the software map on miss. With the shared
//! [`crate::chassis`] carrying the range walks and pv bookkeeping, the
//! whole port is an ASID pool plus a handful of map operations; compare
//! its length with the VAX port's table-growing machinery.

use std::sync::Arc;

use mach_hw::addr::{HwProt, Pfn, VAddr};
use mach_hw::arch::tlbsoft::{SoftPte, SoftTables, TlbSoftRegs, N_ASIDS, VA_LIMIT};
use mach_hw::arch::{ArchGlobal, CpuRegs};
use mach_hw::lock::{KernelGuard, KernelMutex};
use mach_hw::machine::Machine;
use parking_lot::Mutex;

use crate::chassis::{ChassisMachDep, HwTables, PortFactory, PortShared, SlotOld, TlbTag};
use crate::core::MdCore;
use crate::pv::attr_bits;

const PAGE: u64 = 4096;

/// The machine-wide pool of address-space identifiers.
#[derive(Debug)]
pub struct AsidPool {
    next: u32,
    pub(crate) free: Vec<u32>,
}

/// Builds [`TlbSoftTables`] per created pmap, handing out ASIDs.
#[derive(Debug)]
pub struct TlbSoftFactory {
    pub(crate) asids: Arc<Mutex<AsidPool>>,
}

impl PortFactory for TlbSoftFactory {
    type Tables = TlbSoftTables;

    fn new_tables(&self, core: &Arc<MdCore>, _id: u64, _shared: &Arc<PortShared>) -> TlbSoftTables {
        let asid = {
            let mut pool = self.asids.lock();
            pool.free.pop().unwrap_or_else(|| {
                assert!(pool.next < N_ASIDS, "out of address-space identifiers");
                let a = pool.next;
                pool.next += 1;
                a
            })
        };
        TlbSoftTables {
            asid,
            core: Arc::clone(core),
            asid_pool: Arc::clone(&self.asids),
        }
    }
}

/// The TLB-only machine-dependent module.
pub type TlbSoftMachDep = ChassisMachDep<TlbSoftFactory>;

impl ChassisMachDep<TlbSoftFactory> {
    /// Build the TLB-only pmap module for `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is not TLB-only.
    pub fn new(machine: &Arc<Machine>) -> Arc<TlbSoftMachDep> {
        assert_eq!(machine.kind(), mach_hw::ArchKind::TlbSoft);
        ChassisMachDep::with_factory(
            machine,
            TlbSoftFactory {
                asids: Arc::new(Mutex::new(AsidPool {
                    next: 1,
                    free: Vec::new(),
                })),
            },
        )
    }
}

/// A TLB-only pmap's "tables": an ASID plus entries in the machine's
/// software translation store.
#[derive(Debug)]
pub struct TlbSoftTables {
    asid: u32,
    core: Arc<MdCore>,
    asid_pool: Arc<Mutex<AsidPool>>,
}

impl TlbSoftTables {
    fn store(&self) -> &KernelMutex<SoftTables> {
        match self.core.machine.arch_global() {
            ArchGlobal::TlbSoft(t) => t,
            _ => unreachable!("TLB-only machine carries soft tables"),
        }
    }
}

impl Drop for TlbSoftTables {
    fn drop(&mut self) {
        // Runs after the chassis teardown has stripped this ASID's entries.
        self.asid_pool.lock().free.push(self.asid);
    }
}

impl HwTables for TlbSoftTables {
    type Guard<'a> = KernelGuard<'a, SoftTables>;

    const PAGE_SIZE: u64 = PAGE;

    fn lock(&self) -> KernelGuard<'_, SoftTables> {
        self.store().lock()
    }

    fn check_range(&self, va: VAddr, size: u64) {
        assert!(va.0 + size <= VA_LIMIT);
    }

    fn insert(
        &self,
        g: &mut KernelGuard<'_, SoftTables>,
        va: VAddr,
        pfn: Pfn,
        prot: HwProt,
        _wired: bool,
    ) -> SlotOld {
        let new = SoftPte {
            pfn,
            prot,
            modified: false,
            referenced: false,
        };
        match g.map.insert((self.asid, va.0 / PAGE), new) {
            // Same frame re-entered: carry the M/R bits over.
            Some(old) if old.pfn == pfn => {
                let e = g.map.get_mut(&(self.asid, va.0 / PAGE)).unwrap();
                (e.modified, e.referenced) = (old.modified, old.referenced);
                SlotOld::Same
            }
            Some(old) => SlotOld::Replaced {
                pfn: old.pfn,
                attrs: attr_bits(old.modified, old.referenced),
            },
            None => SlotOld::Empty,
        }
    }

    fn clear(&self, g: &mut KernelGuard<'_, SoftTables>, va: VAddr) -> Option<(Pfn, u8)> {
        let old = g.map.remove(&(self.asid, va.0 / PAGE))?;
        Some((old.pfn, attr_bits(old.modified, old.referenced)))
    }

    fn reprotect(
        &self,
        g: &mut KernelGuard<'_, SoftTables>,
        va: VAddr,
        prot: HwProt,
    ) -> Option<bool> {
        let e = g.map.get_mut(&(self.asid, va.0 / PAGE))?;
        let narrowing = e.prot.bits() & !prot.bits() != 0;
        e.prot = prot;
        Some(narrowing)
    }

    fn lookup(&self, g: &KernelGuard<'_, SoftTables>, va: VAddr) -> Option<Pfn> {
        g.map.get(&(self.asid, va.0 / PAGE)).map(|e| e.pfn)
    }

    fn mr(
        &self,
        g: &mut KernelGuard<'_, SoftTables>,
        va: VAddr,
        clear_mod: bool,
        clear_ref: bool,
    ) -> (bool, bool) {
        let Some(e) = g.map.get_mut(&(self.asid, va.0 / PAGE)) else {
            return (false, false);
        };
        let mr = (e.modified, e.referenced);
        e.modified &= !clear_mod;
        e.referenced &= !clear_ref;
        mr
    }

    fn space_vpn(&self, _g: &KernelGuard<'_, SoftTables>, va: VAddr) -> Option<(u32, u64)> {
        Some((self.asid, va.0 / PAGE))
    }

    fn activate(&self, _g: &mut KernelGuard<'_, SoftTables>, cpu: usize) -> TlbTag {
        self.core
            .machine
            .cpu(cpu)
            .load_regs(CpuRegs::TlbSoft(TlbSoftRegs {
                asid: self.asid,
                enabled: true,
            }));
        // ASID-tagged TLB: nothing to flush on switch.
        TlbTag::Tagged
    }

    fn teardown(&self, g: &mut KernelGuard<'_, SoftTables>) -> Vec<(VAddr, Pfn, u8)> {
        let mut harvested = Vec::new();
        g.map.retain(|&(asid, vpn), e| {
            if asid == self.asid {
                harvested.push((
                    VAddr(vpn * PAGE),
                    e.pfn,
                    attr_bits(e.modified, e.referenced),
                ));
            }
            asid != self.asid
        });
        harvested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{frame, rw};
    use crate::MachDep;
    use mach_hw::machine::MachineModel;

    fn setup() -> (Arc<Machine>, Arc<TlbSoftMachDep>) {
        let machine = Machine::boot(MachineModel::rp3(2));
        let md = TlbSoftMachDep::new(&machine);
        (machine, md)
    }

    #[test]
    fn enter_access_remove_with_no_tables_anywhere() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x4000), pa, PAGE, rw(), false);
        // The defining property: zero bytes of hardware tables, ever.
        assert_eq!(md.stats().table_bytes, 0);
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        machine.store_u32(VAddr(0x4000), 0x2B).unwrap();
        assert_eq!(machine.load_u32(VAddr(0x4000)).unwrap(), 0x2B);
        pmap.remove(VAddr(0x4000), VAddr(0x4000 + PAGE));
        assert!(machine.load_u32(VAddr(0x4000)).is_err());
        assert_eq!(pmap.resident_pages(), 0);
    }

    #[test]
    fn asids_isolate_address_spaces() {
        let (machine, md) = setup();
        let p1 = md.create();
        let p2 = md.create();
        let pa1 = frame(&machine, PAGE);
        let pa2 = frame(&machine, PAGE);
        p1.enter(VAddr(0x1000), pa1, PAGE, rw(), false);
        p2.enter(VAddr(0x1000), pa2, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        p1.activate(0);
        machine.store_u32(VAddr(0x1000), 1).unwrap();
        p2.activate(0);
        machine.store_u32(VAddr(0x1000), 2).unwrap();
        p1.activate(0);
        assert_eq!(machine.load_u32(VAddr(0x1000)).unwrap(), 1);
    }

    #[test]
    fn modify_reference_tracking_through_the_miss_handler() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0), pa, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        assert!(!md.is_referenced(pa, PAGE));
        machine.load_u32(VAddr(0)).unwrap();
        assert!(md.is_referenced(pa, PAGE));
        assert!(!md.is_modified(pa, PAGE));
        machine.store_u32(VAddr(0), 1).unwrap();
        assert!(md.is_modified(pa, PAGE));
        pmap.remove(VAddr(0), VAddr(PAGE));
        assert!(md.is_modified(pa, PAGE), "attribute stolen on removal");
    }

    #[test]
    fn asid_recycled_on_drop() {
        let (machine, md) = setup();
        let p1 = md.create();
        let pa = frame(&machine, PAGE);
        p1.enter(VAddr(0), pa, PAGE, rw(), false);
        drop(p1);
        assert_eq!(md.mapping_count(pa), 0, "soft entries cleaned up");
        assert_eq!(md.factory().asids.lock().free.len(), 1);
        let _p2 = md.create();
        assert!(md.factory().asids.lock().free.is_empty(), "asid reused");
    }
}
