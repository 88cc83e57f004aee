//! Property-based tests of the machine-dependent layer: every
//! architecture port is driven with random enter/remove/protect sequences
//! and checked against a reference model *through the simulated MMU* —
//! the loads and stores must behave exactly as the model says, table
//! formats and all.

use std::collections::HashMap;
use std::sync::Arc;

use mach_hw::machine::{Machine, MachineModel};
use mach_hw::{HwProt, PAddr, VAddr};
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
