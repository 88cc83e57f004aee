//! The IBM RT PC pmap port: managing the inverted page table.
//!
//! "One drawback of the RT ... is that it allows only one valid mapping
//! for each physical page, making it impossible to share pages without
//! triggering faults. ... The effect is that Mach treats the inverted page
//! table as a kind of large, in memory cache for the RT's translation
//! lookaside buffer" (§5.1).
//!
//! Entering a mapping for a physical frame that is already mapped at a
//! different virtual address *evicts* the previous mapping (an **alias
//! eviction**, counted in [`crate::PmapStats::alias_evictions`]); the
//! previous owner refaults if it touches the page again. Because the IPT
//! costs 16 bytes per physical frame regardless of address space size, a
//! full 4 GB task space is free ([`crate::PmapStats::table_bytes`] stays
//! flat). This module is only the hash-chain and segment-register logic,
//! plus the alias-eviction quirk (batched in the guard and flushed by the
//! [`crate::chassis`] as one coalesced round).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use mach_hw::addr::{HwProt, PAddr, Pfn, VAddr};
use mach_hw::arch::romp::{
    make_tag, RompLayout, RompRegs, F_M, F_READ, F_REF, F_WRITE, NIL, SEGREG_VALID, TAG_VALID,
};
use mach_hw::arch::{ArchGlobal, CpuRegs};
use mach_hw::lock::{KernelGuard, KernelMutex, LockSite};
use mach_hw::machine::Machine;
use mach_hw::phys::PhysMem;

use crate::chassis::{
    ChassisMachDep, HwTables, PortFactory, PortShared, QuirkFlush, SlotOld, TlbTag,
};
use crate::core::MdCore;
use crate::pv::{ATTR_MOD, ATTR_REF};

const PAGE: u64 = 2048;
const N_SEGIDS: u16 = 1 << 12;

#[derive(Debug)]
struct RompSw {
    windows: [Option<u16>; 16],
    /// The owning chassis's counters, reachable here so an alias eviction
    /// can decrement the victim pmap's resident count.
    shared: Arc<PortShared>,
}

#[derive(Debug)]
struct RompWorld {
    segid_next: u16,
    segid_free: Vec<u16>,
    pmaps: HashMap<u64, RompSw>,
}

/// Builds [`RompTables`] per created pmap over the machine-wide segment-id
/// pool and inverted table.
#[derive(Debug)]
pub struct RompFactory {
    world: Arc<KernelMutex<RompWorld>>,
}

impl PortFactory for RompFactory {
    type Tables = RompTables;

    fn new_tables(&self, core: &Arc<MdCore>, id: u64, shared: &Arc<PortShared>) -> RompTables {
        self.world.lock().pmaps.insert(
            id,
            RompSw {
                windows: [None; 16],
                shared: Arc::clone(shared),
            },
        );
        RompTables {
            id,
            core: Arc::clone(core),
            shared: Arc::clone(shared),
            world: Arc::clone(&self.world),
            layout: layout_of(&core.machine),
        }
    }
}

/// The RT PC machine-dependent module.
pub type RompMachDep = ChassisMachDep<RompFactory>;

impl ChassisMachDep<RompFactory> {
    /// Build the RT PC pmap module for `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is not an RT PC.
    pub fn new(machine: &Arc<Machine>) -> Arc<RompMachDep> {
        assert_eq!(machine.kind(), mach_hw::ArchKind::Romp);
        ChassisMachDep::with_factory(
            machine,
            RompFactory {
                world: Arc::new(KernelMutex::new(
                    LockSite::PmapTables,
                    RompWorld {
                        segid_next: 0,
                        segid_free: Vec::new(),
                        pmaps: HashMap::new(),
                    },
                )),
            },
        )
    }
}

fn layout_of(machine: &Machine) -> RompLayout {
    match machine.arch_global() {
        ArchGlobal::Romp(l) => *l,
        _ => unreachable!("RT PC machine carries ROMP layout"),
    }
}

/// Walk the hash chain for `tag`; return the IPT index if present.
fn chain_find(phys: &PhysMem, l: &RompLayout, tag: u32) -> Option<u32> {
    let mut idx = phys
        .read_u32(l.hat_addr(l.hash(tag)))
        .expect("HAT resident");
    while idx != NIL {
        let ea = l.entry_addr(Pfn(idx as u64));
        let w0 = phys.read_u32(ea).expect("IPT resident");
        if w0 & TAG_VALID != 0 && w0 & 0x1FFF_FFFF == tag {
            return Some(idx);
        }
        idx = phys.read_u32(PAddr(ea.0 + 8)).expect("IPT resident");
    }
    None
}

/// Unlink IPT entry `idx` (whose tag hashes to `bucket`) from its chain
/// and invalidate it. Returns the entry's flags word.
fn chain_unlink(phys: &PhysMem, l: &RompLayout, idx: u32, tag: u32) -> u32 {
    let bucket = l.hash(tag);
    let ea = l.entry_addr(Pfn(idx as u64));
    let next = phys.read_u32(PAddr(ea.0 + 8)).expect("IPT resident");
    let head = phys.read_u32(l.hat_addr(bucket)).expect("HAT resident");
    if head == idx {
        phys.write_u32(l.hat_addr(bucket), next)
            .expect("HAT resident");
    } else {
        let mut cur = head;
        while cur != NIL {
            let cea = l.entry_addr(Pfn(cur as u64));
            let cnext = phys.read_u32(PAddr(cea.0 + 8)).expect("IPT resident");
            if cnext == idx {
                phys.write_u32(PAddr(cea.0 + 8), next)
                    .expect("IPT resident");
                break;
            }
            cur = cnext;
        }
    }
    let flags = phys.read_u32(PAddr(ea.0 + 4)).expect("IPT resident");
    phys.write_u32(ea, 0).expect("IPT resident");
    phys.write_u32(PAddr(ea.0 + 4), 0).expect("IPT resident");
    phys.write_u32(PAddr(ea.0 + 8), NIL).expect("IPT resident");
    flags
}

/// Link IPT entry `idx` for `tag` at the head of its chain.
fn chain_link(phys: &PhysMem, l: &RompLayout, idx: u32, tag: u32, flags: u32) {
    let bucket = l.hash(tag);
    let ea = l.entry_addr(Pfn(idx as u64));
    let head = phys.read_u32(l.hat_addr(bucket)).expect("HAT resident");
    phys.write_u32(PAddr(ea.0 + 8), head).expect("IPT resident");
    phys.write_u32(ea, TAG_VALID | tag).expect("IPT resident");
    phys.write_u32(PAddr(ea.0 + 4), flags)
        .expect("IPT resident");
    phys.write_u32(l.hat_addr(bucket), idx)
        .expect("HAT resident");
}

fn prot_flags(prot: HwProt) -> u32 {
    ((prot.allows_read() || prot.allows_execute()) as u32 * F_READ)
        | (prot.allows_write() as u32 * F_WRITE)
}

/// Segment registers reflecting a pmap's current windows.
fn regs_of(sw: &RompSw) -> RompRegs {
    let mut regs = RompRegs::default();
    for (i, seg) in sw.windows.iter().enumerate() {
        if let Some(segid) = seg {
            regs.seg[i] = SEGREG_VALID | *segid as u32;
        }
    }
    regs
}

fn flag_attrs(flags: u32) -> u8 {
    ((flags & F_M != 0) as u8 * ATTR_MOD) | ((flags & F_REF != 0) as u8 * ATTR_REF)
}

/// An RT PC pmap's hardware tables: a set of segment identifiers plus the
/// machine-wide inverted table.
#[derive(Debug)]
pub struct RompTables {
    id: u64,
    core: Arc<MdCore>,
    shared: Arc<PortShared>,
    world: Arc<KernelMutex<RompWorld>>,
    layout: RompLayout,
}

/// World guard plus the batched alias-eviction flush work.
pub struct RompGuard<'a> {
    w: KernelGuard<'a, RompWorld>,
    evict: QuirkFlush,
}

impl RompTables {
    fn ensure_segid(&self, w: &mut RompWorld, window: usize) -> u16 {
        let sw = w.pmaps.get_mut(&self.id).expect("registered");
        if let Some(s) = sw.windows[window] {
            return s;
        }
        let s = if let Some(s) = w.segid_free.pop() {
            s
        } else {
            assert!(w.segid_next < N_SEGIDS, "out of ROMP segment identifiers");
            let s = w.segid_next;
            w.segid_next += 1;
            s
        };
        let sw = w.pmaps.get_mut(&self.id).unwrap();
        sw.windows[window] = Some(s);
        // CPUs currently running this pmap must see the new segment
        // register immediately.
        let regs = regs_of(sw);
        let active = self.shared.cpus_active.load(Ordering::SeqCst);
        for cpu in crate::core::cpu_list(active, self.core.machine.n_cpus()) {
            self.core.machine.cpu(cpu).load_regs(CpuRegs::Romp(regs));
        }
        s
    }

    /// `(segid, vpage, tag)` for `va`, if the window has a segment.
    fn tag_of(&self, w: &RompWorld, va: VAddr) -> Option<(u16, u64, u32)> {
        let window = ((va.0 >> 28) & 0xF) as usize;
        let segid = w.pmaps.get(&self.id)?.windows[window]?;
        let vpage = (va.0 >> 11) & ((1 << 17) - 1);
        Some((segid, vpage, make_tag(segid, vpage)))
    }

    fn flags_addr(&self, w: &RompWorld, va: VAddr) -> Option<PAddr> {
        let (_, _, tag) = self.tag_of(w, va)?;
        let idx = chain_find(self.core.machine.phys(), &self.layout, tag)?;
        Some(PAddr(self.layout.entry_addr(Pfn(idx as u64)).0 + 4))
    }
}

impl HwTables for RompTables {
    type Guard<'a> = RompGuard<'a>;

    const PAGE_SIZE: u64 = PAGE;

    fn lock(&self) -> RompGuard<'_> {
        RompGuard {
            w: self.world.lock(),
            evict: QuirkFlush::default(),
        }
    }

    fn insert(
        &self,
        g: &mut RompGuard<'_>,
        va: VAddr,
        pfn: Pfn,
        prot: HwProt,
        _wired: bool,
    ) -> SlotOld {
        let phys = self.core.machine.phys();
        let l = &self.layout;
        let window = ((va.0 >> 28) & 0xF) as usize;
        let segid = self.ensure_segid(&mut g.w, window);
        let vpage = (va.0 >> 11) & ((1 << 17) - 1);
        let tag = make_tag(segid, vpage);

        // 1. If this VA already maps some frame, deal with that slot.
        let mut slot = SlotOld::Empty;
        if let Some(old_idx) = chain_find(phys, l, tag) {
            if old_idx as u64 == pfn.0 {
                // Re-enter of the same mapping: just update protection,
                // preserving M/REF.
                let fa = PAddr(l.entry_addr(pfn).0 + 4);
                let old_flags = phys.read_u32(fa).expect("IPT");
                phys.write_u32(fa, prot_flags(prot) | (old_flags & (F_M | F_REF)))
                    .expect("IPT");
                return SlotOld::Same;
            }
            let flags = chain_unlink(phys, l, old_idx, tag);
            slot = SlotOld::Replaced {
                pfn: Pfn(old_idx as u64),
                attrs: flag_attrs(flags),
            };
        }

        // 2. If the frame's IPT slot holds another VA's mapping, evict it —
        //    the architecture permits one mapping per frame. The victim may
        //    be a different pmap; fix its bookkeeping through pv and batch a
        //    flush of *its* CPUs (they hold the stale translation).
        let ea = l.entry_addr(pfn);
        let w0 = phys.read_u32(ea).expect("IPT resident");
        if w0 & TAG_VALID != 0 {
            let old_tag = w0 & 0x1FFF_FFFF;
            let flags = chain_unlink(phys, l, pfn.0 as u32, old_tag);
            self.core.pv.merge_attrs(pfn, &[flag_attrs(flags)]);
            // Found by identity, not by upgrading the entry: the upgraded
            // `Arc` could be the victim's last, and its destructor takes
            // this world lock.
            for run in self.core.pv.take(pfn, 1, 0) {
                if let Some(sw) = g.w.pmaps.get(&run.mapper_id) {
                    let _ = sw.shared.resident.fetch_update(
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                        |v| Some(v.saturating_sub(1)),
                    );
                    g.evict.cpus |= sw.shared.cpus_cached.load(Ordering::SeqCst);
                }
            }
            g.evict
                .pages
                .push((old_tag >> 17, old_tag as u64 & 0x1_FFFF));
            crate::core::stat_add(&self.core.counters.alias_evictions, 1);
        }

        // 3. Install the new mapping.
        chain_link(phys, l, pfn.0 as u32, tag, prot_flags(prot));
        // An eviction in step 2 may have decremented our own resident
        // count (same pmap, different VA); re-entering a Replaced slot
        // must not double-count, so only Empty lets the chassis increment.
        slot
    }

    fn finish_enter(&self, g: &mut RompGuard<'_>) -> Option<QuirkFlush> {
        if g.evict.pages.is_empty() {
            None
        } else {
            Some(std::mem::take(&mut g.evict))
        }
    }

    fn clear(&self, g: &mut RompGuard<'_>, va: VAddr) -> Option<(Pfn, u8)> {
        let phys = self.core.machine.phys();
        let (_, _, tag) = self.tag_of(&g.w, va)?;
        let idx = chain_find(phys, &self.layout, tag)?;
        let flags = chain_unlink(phys, &self.layout, idx, tag);
        Some((Pfn(idx as u64), flag_attrs(flags)))
    }

    fn reprotect(&self, g: &mut RompGuard<'_>, va: VAddr, prot: HwProt) -> Option<bool> {
        let phys = self.core.machine.phys();
        let fa = self.flags_addr(&g.w, va)?;
        let old = phys.read_u32(fa).expect("IPT resident");
        let new = prot_flags(prot) | (old & (F_M | F_REF));
        phys.write_u32(fa, new).expect("IPT resident");
        Some((old & (F_READ | F_WRITE)) & !(new & (F_READ | F_WRITE)) != 0)
    }

    fn lookup(&self, g: &RompGuard<'_>, va: VAddr) -> Option<Pfn> {
        let (_, _, tag) = self.tag_of(&g.w, va)?;
        let idx = chain_find(self.core.machine.phys(), &self.layout, tag)?;
        Some(Pfn(idx as u64))
    }

    fn mr(
        &self,
        g: &mut RompGuard<'_>,
        va: VAddr,
        clear_mod: bool,
        clear_ref: bool,
    ) -> (bool, bool) {
        let Some(fa) = self.flags_addr(&g.w, va) else {
            return (false, false);
        };
        let flags = self.core.machine.phys().read_u32(fa).expect("IPT resident");
        let mask = if clear_mod { F_M } else { 0 } | if clear_ref { F_REF } else { 0 };
        if mask != 0 {
            let _ = self.core.machine.phys().update_u32(fa, |f| f & !mask);
        }
        (flags & F_M != 0, flags & F_REF != 0)
    }

    fn space_vpn(&self, g: &RompGuard<'_>, va: VAddr) -> Option<(u32, u64)> {
        self.tag_of(&g.w, va)
            .map(|(segid, vpage, _)| (segid as u32, vpage))
    }

    fn activate(&self, g: &mut RompGuard<'_>, cpu: usize) -> TlbTag {
        let regs = regs_of(&g.w.pmaps[&self.id]);
        self.core.machine.cpu(cpu).load_regs(CpuRegs::Romp(regs));
        // Tagged TLB: no flush on switch.
        TlbTag::Tagged
    }

    fn teardown(&self, g: &mut RompGuard<'_>) -> Vec<(VAddr, Pfn, u8)> {
        let phys = self.core.machine.phys();
        let l = self.layout;
        let sw = g.w.pmaps.remove(&self.id).expect("registered");
        let mine: Vec<u16> = sw.windows.iter().flatten().copied().collect();
        let mut harvested = Vec::new();
        if !mine.is_empty() {
            // Sweep the IPT for entries carrying our segment ids.
            for frame in 0..l.n_frames {
                let ea = l.entry_addr(Pfn(frame));
                let w0 = phys.read_u32(ea).unwrap_or(0);
                if w0 & TAG_VALID != 0 {
                    let tag = w0 & 0x1FFF_FFFF;
                    let segid = (tag >> 17) as u16;
                    if mine.contains(&segid) {
                        let flags = chain_unlink(phys, &l, frame as u32, tag);
                        let va = VAddr((tag as u64 & 0x1_FFFF) * PAGE);
                        harvested.push((va, Pfn(frame), flag_attrs(flags)));
                    }
                }
            }
        }
        g.w.segid_free.extend(mine);
        harvested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{frame, rw};
    use crate::MachDep;
    use mach_hw::machine::MachineModel;

    fn setup() -> (Arc<Machine>, Arc<RompMachDep>) {
        let machine = Machine::boot(MachineModel::rt_pc());
        let md = RompMachDep::new(&machine);
        (machine, md)
    }

    #[test]
    fn enter_and_cpu_access() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x8000), pa, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        machine.store_u32(VAddr(0x8000), 0xCAFE).unwrap();
        assert_eq!(machine.load_u32(VAddr(0x8000)).unwrap(), 0xCAFE);
        assert_eq!(pmap.extract(VAddr(0x8004)), Some(pa + 4));
        assert_eq!(pmap.resident_pages(), 1);
    }

    #[test]
    fn full_4gb_address_space_without_extra_tables() {
        let (machine, md) = setup();
        let pmap = md.create();
        // Map pages in windows 0, 7 and 15 — a 4 GB-sparse space.
        for &base in &[0u64, 0x7000_0000, 0xF000_0000] {
            let pa = frame(&machine, PAGE);
            pmap.enter(VAddr(base + 0x2000), pa, PAGE, rw(), false);
        }
        // The inverted table never grows: no per-task table bytes at all.
        assert_eq!(md.stats().table_bytes, 0);
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        machine.store_u32(VAddr(0xF000_2000), 1).unwrap();
        assert_eq!(machine.load_u32(VAddr(0xF000_2000)).unwrap(), 1);
    }

    #[test]
    fn alias_eviction_on_shared_frame() {
        let (machine, md) = setup();
        let p1 = md.create();
        let p2 = md.create();
        let pa = frame(&machine, PAGE);
        let _b = machine.bind_cpu(0);

        p1.enter(VAddr(0x2000), pa, PAGE, rw(), false);
        p1.activate(0);
        machine.store_u32(VAddr(0x2000), 42).unwrap();

        // Second task maps the same frame: the first mapping is evicted.
        p2.enter(VAddr(0x6000), pa, PAGE, rw(), false);
        assert_eq!(md.stats().alias_evictions, 1);
        assert_eq!(md.mapping_count(pa), 1, "only one mapping per frame");
        assert_eq!(p1.extract(VAddr(0x2000)), None, "p1's mapping evicted");

        p2.activate(0);
        assert_eq!(machine.load_u32(VAddr(0x6000)).unwrap(), 42, "same frame");

        // p1 touching the page again faults (the paper's alias fault)...
        p1.activate(0);
        assert!(machine.load_u32(VAddr(0x2000)).is_err());
        // ...and re-entering bounces the mapping back, evicting p2.
        p1.enter(VAddr(0x2000), pa, PAGE, rw(), false);
        assert_eq!(md.stats().alias_evictions, 2);
        assert_eq!(machine.load_u32(VAddr(0x2000)).unwrap(), 42);
    }

    #[test]
    fn remove_and_hash_chain_integrity() {
        let (machine, md) = setup();
        let pmap = md.create();
        // Enter many pages (some hash chains will collide), then remove
        // them in a different order and verify the survivors still walk.
        let mut mapped = Vec::new();
        for i in 0..64u64 {
            let pa = frame(&machine, PAGE);
            let va = VAddr(i * 0x10000);
            pmap.enter(va, pa, PAGE, rw(), false);
            mapped.push((va, pa));
        }
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        // Remove every even mapping.
        for (va, _) in mapped.iter().step_by(2) {
            pmap.remove(*va, VAddr(va.0 + PAGE));
        }
        for (i, (va, pa)) in mapped.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(pmap.extract(*va), None);
                assert!(machine.load_u32(*va).is_err());
            } else {
                assert_eq!(pmap.extract(*va), Some(*pa));
                machine.load_u32(*va).unwrap();
            }
        }
        assert_eq!(pmap.resident_pages(), 32);
    }

    #[test]
    fn protect_readonly_then_fault_on_write() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x2000), pa, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        machine.store_u32(VAddr(0x2000), 7).unwrap();
        pmap.protect(VAddr(0x2000), VAddr(0x2000 + PAGE), HwProt::READ);
        assert!(machine.store_u32(VAddr(0x2000), 8).is_err());
        assert_eq!(machine.load_u32(VAddr(0x2000)).unwrap(), 7);
        assert!(md.is_modified(pa, PAGE));
    }

    #[test]
    fn segment_ids_recycled_on_drop() {
        let (machine, md) = setup();
        let p1 = md.create();
        let pa = frame(&machine, PAGE);
        p1.enter(VAddr(0x2000), pa, PAGE, rw(), false);
        drop(p1);
        assert_eq!(md.mapping_count(pa), 0, "drop cleans the IPT");
        // A new pmap reuses the freed segment id without interference.
        let p2 = md.create();
        let pa2 = frame(&machine, PAGE);
        p2.enter(VAddr(0x2000), pa2, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        p2.activate(0);
        machine.store_u32(VAddr(0x2000), 9).unwrap();
        assert_eq!(machine.load_u32(VAddr(0x2000)).unwrap(), 9);
    }

    #[test]
    fn same_va_remap_to_new_frame() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa1 = frame(&machine, PAGE);
        let pa2 = frame(&machine, PAGE);
        pmap.enter(VAddr(0x2000), pa1, PAGE, rw(), false);
        pmap.enter(VAddr(0x2000), pa2, PAGE, rw(), false);
        assert_eq!(pmap.extract(VAddr(0x2000)), Some(pa2));
        assert_eq!(md.mapping_count(pa1), 0);
        assert_eq!(md.mapping_count(pa2), 1);
        assert_eq!(pmap.resident_pages(), 1);
    }
}
