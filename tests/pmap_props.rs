//! Property-based tests of the machine-dependent layer: every
//! architecture port is driven with random enter/remove/protect sequences
//! and checked against a reference model *through the simulated MMU* —
//! the loads and stores must behave exactly as the model says, table
//! formats and all.

use std::collections::HashMap;
use std::sync::Arc;

use mach_hw::machine::{Machine, MachineModel};
use mach_hw::{HwProt, PAddr, Pfn, VAddr};
use mach_pmap::Pmap;
use mach_vm::kernel::Kernel;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum PmapOp {
    /// Map page `vpn` to allocated frame index `frame_idx % frames`.
    Enter {
        vpn: u64,
        frame: usize,
        writable: bool,
    },
    /// Remove `count` pages starting at `vpn`.
    Remove { vpn: u64, count: u64 },
    /// Set protection on `count` pages starting at `vpn`.
    Protect {
        vpn: u64,
        count: u64,
        writable: bool,
    },
}

const N_PAGES: u64 = 24;
const N_FRAMES: usize = 12;

fn op_strategy() -> impl Strategy<Value = PmapOp> {
    prop_oneof![
        (0..N_PAGES, 0..N_FRAMES, any::<bool>()).prop_map(|(vpn, frame, writable)| PmapOp::Enter {
            vpn,
            frame,
            writable
        }),
        (0..N_PAGES, 1u64..6).prop_map(|(vpn, count)| PmapOp::Remove { vpn, count }),
        (0..N_PAGES, 1u64..6, any::<bool>()).prop_map(|(vpn, count, writable)| PmapOp::Protect {
            vpn,
            count,
            writable
        }),
    ]
}

/// The reference: vpn → (frame index, writable).
type Model = HashMap<u64, (usize, bool)>;

fn check_against_model(
    machine: &Arc<Machine>,
    pmap: &Arc<dyn Pmap>,
    frames: &[PAddr],
    stamps: &[u32],
    model: &Model,
    page: u64,
) {
    let _b = machine.bind_cpu(0);
    pmap.activate(0);
    for vpn in 0..N_PAGES {
        let va = VAddr(vpn * page);
        match model.get(&vpn) {
            Some(&(frame, writable)) => {
                // Reads hit the right frame's stamp.
                let got = machine
                    .load_u32(va)
                    .unwrap_or_else(|f| panic!("read of mapped page {vpn} faulted: {f}"));
                assert_eq!(got, stamps[frame], "page {vpn} maps the wrong frame");
                // extract agrees.
                assert_eq!(
                    pmap.extract(va),
                    Some(frames[frame]),
                    "extract disagrees at page {vpn}"
                );
                // Writability matches (restore the stamp after probing).
                let w = machine.store_u32(va, stamps[frame]);
                assert_eq!(w.is_ok(), writable, "writability wrong at page {vpn}");
            }
            None => {
                assert!(
                    machine.load_u32(va).is_err(),
                    "unmapped page {vpn} was readable"
                );
                assert_eq!(pmap.extract(va), None);
            }
        }
    }
    pmap.deactivate(0);
}

fn run_port(model_machine: MachineModel, ops: Vec<PmapOp>) {
    let machine = Machine::boot(model_machine);
    let md = mach_pmap::machdep_for(&machine);
    let page = machine.hw_page_size();
    let pmap = md.create();
    // Allocate distinct frames and stamp each with a unique value.
    let frames: Vec<PAddr> = (0..N_FRAMES)
        .map(|_| machine.frames().alloc().unwrap().base(page))
        .collect();
    let stamps: Vec<u32> = (0..N_FRAMES as u32).map(|i| 0xF00D_0000 | i).collect();
    for (pa, stamp) in frames.iter().zip(&stamps) {
        machine.phys().write(*pa, &stamp.to_le_bytes()).unwrap();
    }
    let mut model = Model::new();
    {
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
    }
    for op in ops {
        match op {
            PmapOp::Enter {
                vpn,
                frame,
                writable,
            } => {
                let prot = if writable {
                    HwProt::READ | HwProt::WRITE
                } else {
                    HwProt::READ
                };
                // One frame may be mapped at several pages — except on
                // the ROMP, where entering evicts prior mappings of the
                // frame. Model that faithfully.
                if machine.kind() == mach_hw::ArchKind::Romp {
                    model.retain(|_, &mut (f, _)| f != frame);
                }
                pmap.enter(VAddr(vpn * page), frames[frame], page, prot, false);
                model.insert(vpn, (frame, writable));
            }
            PmapOp::Remove { vpn, count } => {
                let end = (vpn + count).min(N_PAGES);
                pmap.remove(VAddr(vpn * page), VAddr(end * page));
                for v in vpn..end {
                    model.remove(&v);
                }
            }
            PmapOp::Protect {
                vpn,
                count,
                writable,
            } => {
                let end = (vpn + count).min(N_PAGES);
                let prot = if writable {
                    HwProt::READ | HwProt::WRITE
                } else {
                    HwProt::READ
                };
                pmap.protect(VAddr(vpn * page), VAddr(end * page), prot);
                for v in vpn..end {
                    if let Some(e) = model.get_mut(&v) {
                        e.1 = writable;
                    }
                }
            }
        }
        check_against_model(&machine, &pmap, &frames, &stamps, &model, page);
    }
    // Dropping the pmap must leave no mapping behind.
    drop(pmap);
    for pa in &frames {
        assert_eq!(md.mapping_count(*pa), 0, "pv entries leaked");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn vax_port_matches_model(ops in proptest::collection::vec(op_strategy(), 1..25)) {
        run_port(MachineModel::micro_vax_ii(), ops);
    }

    #[test]
    fn romp_port_matches_model(ops in proptest::collection::vec(op_strategy(), 1..25)) {
        run_port(MachineModel::rt_pc(), ops);
    }

    #[test]
    fn sun3_port_matches_model(ops in proptest::collection::vec(op_strategy(), 1..25)) {
        run_port(MachineModel::sun_3_160(), ops);
    }

    #[test]
    fn ns32082_port_matches_model(ops in proptest::collection::vec(op_strategy(), 1..25)) {
        run_port(MachineModel::multimax(1), ops);
    }

    #[test]
    fn tlbsoft_port_matches_model(ops in proptest::collection::vec(op_strategy(), 1..25)) {
        run_port(MachineModel::rp3(1), ops);
    }

    /// Modify/reference bits survive mapping removal (the stolen
    /// attributes of `pmap_attributes`) on every port.
    #[test]
    fn attributes_survive_removal(
        touch_read in any::<bool>(),
        touch_write in any::<bool>(),
    ) {
        for model in [
            MachineModel::micro_vax_ii(),
            MachineModel::rt_pc(),
            MachineModel::sun_3_160(),
            MachineModel::multimax(1),
            MachineModel::rp3(1),
        ] {
            let machine = Machine::boot(model);
            let md = mach_pmap::machdep_for(&machine);
            let page = machine.hw_page_size();
            let pmap = md.create();
            let pa = machine.frames().alloc().unwrap().base(page);
            pmap.enter(VAddr(0), pa, page, HwProt::READ | HwProt::WRITE, false);
            {
                let _b = machine.bind_cpu(0);
                pmap.activate(0);
                if touch_read {
                    machine.load_u32(VAddr(0)).unwrap();
                }
                if touch_write {
                    machine.store_u32(VAddr(0), 1).unwrap();
                }
            }
            pmap.remove(VAddr(0), VAddr(page));
            prop_assert_eq!(
                md.is_modified(pa, page),
                touch_write,
                "modify bit after removal"
            );
            prop_assert_eq!(
                md.is_referenced(pa, page),
                touch_read || touch_write,
                "reference bit after removal"
            );
            md.clear_modify(pa, page);
            md.clear_reference(pa, page);
            prop_assert!(!md.is_modified(pa, page));
            prop_assert!(!md.is_referenced(pa, page));
        }
    }

    /// `page_free` leaves nothing of a dying page behind on every port: no
    /// mapping in any pmap, no modify/reference bit (live or stolen by an
    /// earlier removal), and no TLB entry — a load through the old
    /// address misses the TLB and faults.
    #[test]
    fn page_free_leaves_nothing_behind(
        touch_read in any::<bool>(),
        touch_write in any::<bool>(),
        remove_first in any::<bool>(),
    ) {
        for model in [
            MachineModel::micro_vax_ii(),
            MachineModel::rt_pc(),
            MachineModel::sun_3_160(),
            MachineModel::multimax(1),
            MachineModel::rp3(1),
        ] {
            let machine = Machine::boot(model);
            let md = mach_pmap::machdep_for(&machine);
            let page = machine.hw_page_size();
            let pa = machine.frames().alloc().unwrap().base(page);
            // Two pmaps map the frame; the RT PC keeps only the later one.
            let pmaps = [md.create(), md.create()];
            for pmap in &pmaps {
                pmap.enter(VAddr(0), pa, page, HwProt::READ | HwProt::WRITE, false);
            }
            let _b = machine.bind_cpu(0);
            pmaps[1].activate(0);
            if touch_read {
                machine.load_u32(VAddr(0)).unwrap();
            }
            if touch_write {
                machine.store_u32(VAddr(0), 1).unwrap();
            }
            if remove_first {
                pmaps[1].remove(VAddr(0), VAddr(page));
            }
            md.page_free(pa, page);
            prop_assert_eq!(md.mapping_count(pa), 0, "a mapping survived");
            prop_assert!(!md.is_modified(pa, page), "modify bit survived");
            prop_assert!(!md.is_referenced(pa, page), "reference bit survived");
            for pmap in &pmaps {
                prop_assert_eq!(pmap.extract(VAddr(0)), None);
                prop_assert_eq!(pmap.resident_pages(), 0);
            }
            let before = machine.cpu(0).tlb_stats();
            prop_assert!(machine.load_u32(VAddr(0)).is_err(), "freed page still readable");
            prop_assert_eq!(machine.cpu(0).tlb_stats().hits, before.hits, "a TLB entry survived");
        }
    }

    /// DESIGN §7: "the pmap is a cache". All non-wired hardware mappings
    /// may vanish at any moment (context steal, pmeg steal, table
    /// reclaim) and the machine-independent layer must rebuild them on
    /// demand. Drive the full stack on every port, throw away the task's
    /// hardware mappings at a random point, and check the program-visible
    /// bytes are exactly what was written — only the fault count grows.
    #[test]
    fn pmap_is_a_cache_on_every_port(
        writes in proptest::collection::vec((0u64..16, any::<u32>()), 4..20),
        drop_at in 0usize..20,
    ) {
        for model in [
            MachineModel::micro_vax_ii(),
            MachineModel::rt_pc(),
            MachineModel::sun_3_160(),
            MachineModel::multimax(1),
            MachineModel::rp3(1),
        ] {
            let machine = Machine::boot(model);
            let k = Kernel::boot(&machine);
            let task = k.create_task();
            let ps = k.page_size();
            let base = 0x40_0000u64;
            task.map().allocate(k.ctx(), Some(base), 16 * ps, false).unwrap();
            let mut bytes = HashMap::new();
            for (i, &(page, val)) in writes.iter().enumerate() {
                if i == drop_at {
                    task.pmap().remove(VAddr(base), VAddr(base + 16 * ps));
                }
                task.user(0, |u| u.write_u32(base + page * ps, val).unwrap());
                bytes.insert(page, val);
            }
            // Final purge: the whole working set vanishes from hardware.
            let before = k.statistics();
            task.pmap().remove(VAddr(base), VAddr(base + 16 * ps));
            prop_assert_eq!(task.pmap().resident_pages(), 0);
            task.user(0, |u| {
                for page in 0..16u64 {
                    // Never-written pages are still zero-fill; written
                    // pages hold the last value.
                    let want = bytes.get(&page).copied().unwrap_or(0);
                    assert_eq!(
                        u.read_u32(base + page * ps).unwrap(),
                        want,
                        "page {page} changed after the cache was purged"
                    );
                }
            });
            let after = k.statistics();
            prop_assert!(
                after.faults >= before.faults + 16,
                "purged mappings must refault"
            );
            prop_assert!(
                after.resident_hits > before.resident_hits,
                "refaults are satisfied by resident pages, not pageins"
            );
        }
    }

    /// `pmap_copy` replicates exactly the source's translations,
    /// read-only, on every port.
    #[test]
    fn pmap_copy_replicates_readonly(pages in proptest::collection::vec(0u64..16, 1..8)) {
        for model in [
            MachineModel::micro_vax_ii(),
            MachineModel::sun_3_160(),
            MachineModel::multimax(1),
            MachineModel::rp3(1),
        ] {
            let machine = Machine::boot(model);
            let md = mach_pmap::machdep_for(&machine);
            let page = machine.hw_page_size();
            let src = md.create();
            let dst = md.create();
            let mut mapped = std::collections::HashSet::new();
            for &vpn in &pages {
                let pa = machine.frames().alloc().unwrap().base(page);
                machine.phys().write(pa, &(vpn as u32).to_le_bytes()).unwrap();
                src.enter(VAddr(vpn * page), pa, page, HwProt::READ | HwProt::WRITE, false);
                mapped.insert(vpn);
            }
            dst.copy_from(src.as_ref(), VAddr(0), 16 * page, VAddr(0));
            let _b = machine.bind_cpu(0);
            dst.activate(0);
            for vpn in 0..16u64 {
                let va = VAddr(vpn * page);
                if mapped.contains(&vpn) {
                    prop_assert_eq!(machine.load_u32(va).unwrap(), vpn as u32);
                    prop_assert!(machine.store_u32(va, 9).is_err(), "copy must be read-only");
                } else {
                    prop_assert!(machine.load_u32(va).is_err());
                }
            }
        }
    }
}

/// splitmix64: a seeded, dependency-free operation stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Physical Mach pages the physical-page model drives.
const PHYS_PAGES: u64 = 3;
/// Virtual Mach pages each of its pmaps can map.
const VIRT_PAGES: u64 = 4;

/// The reference for the physical-page operations, in hardware pages:
/// what each pmap maps at each virtual hardware page, and each frame's
/// modify/reference bits.
struct PhysModel {
    /// (pmap, virtual hardware page) → (frame, writable).
    maps: HashMap<(usize, u64), (u64, bool)>,
    /// Per frame: (modified, referenced).
    bits: Vec<(bool, bool)>,
    /// Whether entering a frame evicts its other mappings (the RT PC).
    one_mapping_per_frame: bool,
}

impl PhysModel {
    fn unmap_frames(&mut self, frames: std::ops::Range<u64>) {
        self.maps.retain(|_, (f, _)| !frames.contains(f));
    }

    fn mappings_of(&self, frame: u64) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.maps
            .iter()
            .filter(move |(_, &(f, _))| f == frame)
            .map(|(&at, _)| at)
    }
}

/// Drive two pmaps of `model`'s port, on Mach pages of `k` hardware
/// frames, with a seeded mix of `enter`, `remove` and `protect` (of whole
/// and partial Mach pages) and every physical-page operation, and check
/// after each step against [`PhysModel`]: every frame's mapping count
/// and modify/reference bits, every virtual page's `extract` in both
/// pmaps, and a load and a store through pmap 0, which runs on the bound
/// CPU. Pages end up mapped by both pmaps and, except on the RT PC, by
/// one pmap at two addresses, so the operations meet runs of several
/// shapes; a TLB entry a coalesced flush left behind shows up as a load
/// or store the model says must fault, or as a modify/reference bit
/// the access failed to set.
fn physical_page_ops_match_model(model: MachineModel, k: u64, seed: u64, steps: usize) {
    let machine = Machine::boot(model);
    let md = mach_pmap::machdep_for(&machine);
    let hw = machine.hw_page_size();
    let mach_page = k * hw;
    let frames = PHYS_PAGES * k;
    let run = machine
        .frames()
        .alloc_contig(frames + k)
        .expect("contiguous frames");
    let base = run.0.next_multiple_of(k);
    let frame_pa = |f: u64| Pfn(base + f).base(hw);
    let page_pa = |p: u64| frame_pa(p * k);
    let stamp = |f: u64| 0x5EED_0000 | f as u32;
    for f in 0..frames {
        machine
            .phys()
            .write(frame_pa(f), &stamp(f).to_le_bytes())
            .unwrap();
    }
    let va = |v: u64| VAddr(0x10_0000 + v * hw);
    let _b = machine.bind_cpu(0);
    let pmaps = [md.create(), md.create()];
    pmaps[0].activate(0);
    let mut m = PhysModel {
        maps: HashMap::new(),
        bits: vec![(false, false); frames as usize],
        one_mapping_per_frame: machine.kind() == mach_hw::ArchKind::Romp,
    };
    let (mut shared_by_two, mut aliased_in_one) = (false, false);
    let mut state = seed;
    for step in 0..steps {
        let r = next(&mut state);
        let p = (r >> 8) as usize % 2;
        let page = (r >> 16) % PHYS_PAGES;
        let page_frames = page * k..(page + 1) * k;
        let op = r % 16;
        match op {
            0..=4 => {
                let slot = (r >> 24) % VIRT_PAGES;
                let writable = r & (1 << 40) != 0;
                let prot = if writable {
                    HwProt::READ | HwProt::WRITE
                } else {
                    HwProt::READ
                };
                pmaps[p].enter(va(slot * k), page_pa(page), mach_page, prot, false);
                if m.one_mapping_per_frame {
                    m.unmap_frames(page_frames.clone());
                }
                for i in 0..k {
                    m.maps.insert((p, slot * k + i), (page * k + i, writable));
                }
            }
            5 | 6 => {
                // Whole or partial Mach pages, at hardware-page grain.
                let v = (r >> 24) % (VIRT_PAGES * k);
                let end = (v + 1 + (r >> 32) % (k + 2)).min(VIRT_PAGES * k);
                let prot = [HwProt::NONE, HwProt::READ, HwProt::READ | HwProt::WRITE]
                    [(r >> 44) as usize % 3];
                if op == 5 || prot.is_none() {
                    if op == 5 {
                        pmaps[p].remove(va(v), va(end));
                    } else {
                        pmaps[p].protect(va(v), va(end), prot);
                    }
                    for v in v..end {
                        m.maps.remove(&(p, v));
                    }
                } else {
                    pmaps[p].protect(va(v), va(end), prot);
                    for v in v..end {
                        if let Some(e) = m.maps.get_mut(&(p, v)) {
                            e.1 = prot.allows_write();
                        }
                    }
                }
            }
            7 => {
                md.remove_all(page_pa(page), mach_page);
                m.unmap_frames(page_frames);
            }
            8 => {
                let pending = md.remove_all_deferred(page_pa(page), mach_page);
                if r & (1 << 40) != 0 {
                    md.complete(&pending);
                } else {
                    md.update();
                }
                assert!(
                    pending.is_complete(),
                    "step {step}: deferred flush still pending"
                );
                m.unmap_frames(page_frames);
            }
            9 => {
                md.page_free(page_pa(page), mach_page);
                m.unmap_frames(page_frames.clone());
                for f in page_frames {
                    m.bits[f as usize] = (false, false);
                }
            }
            10 | 11 => {
                md.copy_on_write(page_pa(page), mach_page);
                for (f, w) in m.maps.values_mut() {
                    *w &= !page_frames.contains(f);
                }
            }
            12 | 13 => {
                md.clear_modify(page_pa(page), mach_page);
                for f in page_frames {
                    m.bits[f as usize].0 = false;
                }
            }
            _ => {
                md.clear_reference(page_pa(page), mach_page);
                for f in page_frames {
                    m.bits[f as usize].1 = false;
                }
            }
        }

        let at = |what: &str| format!("step {step} (op {op}, k {k}, seed {seed:#x}): {what}");
        for f in 0..frames {
            let mut owners: Vec<(usize, u64)> = m.mappings_of(f).collect();
            assert_eq!(
                md.mapping_count(frame_pa(f)),
                owners.len(),
                "{}",
                at(&format!("mapping count of frame {f}"))
            );
            let (modified, referenced) = m.bits[f as usize];
            assert_eq!(
                md.is_modified(frame_pa(f), hw),
                modified,
                "{}",
                at(&format!("modify bit of frame {f}"))
            );
            assert_eq!(
                md.is_referenced(frame_pa(f), hw),
                referenced,
                "{}",
                at(&format!("reference bit of frame {f}"))
            );
            owners.sort_unstable();
            shared_by_two |= owners.first().map(|o| o.0) != owners.last().map(|o| o.0);
            aliased_in_one |= owners.windows(2).any(|w| w[0].0 == w[1].0);
        }
        for (p, pmap) in pmaps.iter().enumerate() {
            for v in 0..VIRT_PAGES * k {
                let want = m.maps.get(&(p, v)).map(|&(f, _)| frame_pa(f));
                assert_eq!(
                    pmap.extract(va(v)),
                    want,
                    "{}",
                    at(&format!("extract of page {v} in pmap {p}"))
                );
            }
        }
        for v in 0..VIRT_PAGES * k {
            match m.maps.get(&(0, v)).copied() {
                Some((f, writable)) => {
                    let got = machine.load_u32(va(v));
                    assert_eq!(
                        got.ok(),
                        Some(stamp(f)),
                        "{}",
                        at(&format!("load of page {v}"))
                    );
                    let stored = machine.store_u32(va(v), stamp(f)).is_ok();
                    assert_eq!(stored, writable, "{}", at(&format!("store to page {v}")));
                    let bits = &mut m.bits[f as usize];
                    bits.1 = true;
                    bits.0 |= stored;
                }
                None => {
                    assert!(
                        machine.load_u32(va(v)).is_err(),
                        "{}",
                        at(&format!("load of unmapped page {v}"))
                    );
                    assert!(
                        machine.store_u32(va(v), 0).is_err(),
                        "{}",
                        at(&format!("store to unmapped page {v}"))
                    );
                }
            }
        }
    }
    // The RT PC keeps one mapping per frame.
    let shares = !m.one_mapping_per_frame;
    assert_eq!(shared_by_two, shares, "a frame was mapped by both pmaps");
    assert_eq!(
        aliased_in_one, shares,
        "a frame was mapped by one pmap at two addresses"
    );
    pmaps[0].deactivate(0);
}

/// [`physical_page_ops_match_model`] on all five ports, at one, two and
/// eight hardware frames per Mach page.
#[test]
fn physical_page_operations_match_a_model_on_every_port() {
    for (i, model) in [
        MachineModel::micro_vax_ii(),
        MachineModel::rt_pc(),
        MachineModel::sun_3_160(),
        MachineModel::multimax(1),
        MachineModel::rp3(1),
    ]
    .into_iter()
    .enumerate()
    {
        for k in [1, 2, 8] {
            physical_page_ops_match_model(model.clone(), k, 0xC0FFEE + i as u64 * 16 + k, 300);
        }
    }
}
