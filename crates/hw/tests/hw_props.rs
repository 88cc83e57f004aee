//! Property tests of the hardware substrate: physical memory is a
//! consistent byte store under arbitrary chunk-straddling operations, and
//! the TLB is a *transparent* cache — memory accesses through a warm TLB
//! behave identically to accesses through cold table walks.

use std::collections::HashMap;

use mach_hw::addr::{HwProt, PAddr, VAddr};
use mach_hw::arch::vax::{pte, REGION_PAGES};
use mach_hw::arch::CpuRegs;
use mach_hw::machine::{Machine, MachineModel};
use mach_hw::phys::PhysMem;
use mach_hw::tlb::FlushScope;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random writes and zeroings at random addresses (many straddling the
    /// 64 KiB lock stripes) read back exactly, against a flat reference
    /// model. Most of the 16 stripes are never written: memory is
    /// allocated on first write, and every range no write reached must
    /// read zero — including one a `zero` touched first.
    #[test]
    fn phys_mem_is_a_byte_store(
        ops in proptest::collection::vec(
            (0u64..(1 << 20) - 64, proptest::collection::vec(any::<u8>(), 1..64), any::<bool>()),
            1..40
        ),
        probes in proptest::collection::vec((0u64..(1 << 20) - 256, 1usize..256), 1..20),
    ) {
        let mem = PhysMem::new(1 << 20, Vec::new());
        let mut model = vec![0u8; 1 << 20];
        for (addr, data, zero) in &ops {
            let range = *addr as usize..*addr as usize + data.len();
            if *zero {
                mem.zero(PAddr(*addr), data.len() as u64).unwrap();
                model[range].fill(0);
            } else {
                mem.write(PAddr(*addr), data).unwrap();
                model[range].copy_from_slice(data);
            }
        }
        // Readback at every op's location, at random probes, then whole.
        let locations = ops.iter().map(|(a, d, _)| (*a, d.len()));
        for (addr, len) in locations.chain(probes.iter().copied()) {
            let mut buf = vec![0xA5u8; len];
            mem.read(PAddr(addr), &mut buf).unwrap();
            prop_assert_eq!(&buf, &model[addr as usize..addr as usize + len]);
        }
        let mut all = vec![0xA5u8; 1 << 20];
        mem.read(PAddr(0), &mut all).unwrap();
        prop_assert_eq!(all, model);
    }

    /// Holes reject every access overlapping them, and never corrupt
    /// neighbours.
    #[test]
    fn holes_are_inviolable(
        hole_start in 1u64..200,
        hole_len in 1u64..100,
        probe in 0u64..400,
        len in 1u64..32,
    ) {
        let hole = (hole_start * 512)..((hole_start + hole_len) * 512);
        let mem = PhysMem::new(512 * 512, vec![hole.clone()]);
        let overlaps = probe * 4 < hole.end && probe * 4 + len > hole.start;
        let r = mem.write(PAddr(probe * 4), &vec![7u8; len as usize]);
        prop_assert_eq!(r.is_err(), overlaps || probe * 4 + len > 512 * 512);
    }

    /// TLB transparency: a random sequence of loads/stores on a VAX gives
    /// byte-identical results whether or not the TLB is flushed before
    /// every access.
    #[test]
    fn tlb_is_transparent(
        accesses in proptest::collection::vec(
            (0u64..16, any::<bool>(), any::<u32>(), any::<bool>()),
            1..60
        )
    ) {
        let run = |flush_every_time: bool| -> Vec<Result<u32, ()>> {
            let machine = Machine::boot(MachineModel::micro_vax_ii());
            // Hand-build a tiny P0 page table mapping 16 pages.
            let table = machine.frames().alloc().unwrap().base(512);
            let mut frames = HashMap::new();
            for vpn in 0..16u64 {
                let f = machine.frames().alloc().unwrap();
                frames.insert(vpn, f);
                let prot = if vpn % 3 == 0 {
                    HwProt::READ
                } else {
                    HwProt::READ | HwProt::WRITE
                };
                machine
                    .phys()
                    .write_u32(PAddr(table.0 + 4 * vpn), pte(f, prot))
                    .unwrap();
            }
            let regs = mach_hw::arch::vax::VaxRegs {
                p0br: table.0,
                p0lr: 16,
                p1br: 0,
                p1lr: REGION_PAGES as u32,
                sbr: 0,
                slr: 0,
            };
            machine.cpu(0).load_regs(CpuRegs::Vax(regs));
            let _b = machine.bind_cpu(0);
            let mut out = Vec::new();
            for (vpn, is_write, val, _) in &accesses {
                if flush_every_time {
                    machine.flush_local(FlushScope::All);
                }
                let va = VAddr(vpn * 512);
                if *is_write {
                    out.push(machine.store_u32(va, *val).map(|_| 0).map_err(|_| ()));
                } else {
                    out.push(machine.load_u32(va).map_err(|_| ()));
                }
            }
            out
        };
        prop_assert_eq!(run(false), run(true), "TLB changed visible behaviour");
    }

    /// The frame allocator never double-allocates and conserves frames.
    #[test]
    fn frame_allocator_conserves(ops in proptest::collection::vec(any::<bool>(), 1..100)) {
        let mem = PhysMem::new(1 << 20, Vec::new());
        let fa = mach_hw::phys::FrameAlloc::new(&mem, 4096, 0);
        let total = fa.free_count();
        let mut held = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for take in ops {
            if take {
                if let Some(f) = fa.alloc() {
                    prop_assert!(seen.insert(f), "double allocation of {f}");
                    held.push(f);
                }
            } else if let Some(f) = held.pop() {
                fa.free(f);
                seen.remove(&f);
            }
        }
        prop_assert_eq!(fa.free_count() + held.len(), total);
    }
}

/// Deterministic regression: a TLB entry made stale by a direct PTE edit
/// self-heals through the denied-then-rewalk path without a spurious
/// machine-independent fault.
#[test]
fn stale_tlb_self_heals_on_protection_widening() {
    let machine = Machine::boot(MachineModel::micro_vax_ii());
    let table = machine.frames().alloc().unwrap().base(512);
    let frame = machine.frames().alloc().unwrap();
    machine
        .phys()
        .write_u32(PAddr(table.0), pte(frame, HwProt::READ))
        .unwrap();
    let regs = mach_hw::arch::vax::VaxRegs {
        p0br: table.0,
        p0lr: 1,
        p1br: 0,
        p1lr: REGION_PAGES as u32,
        sbr: 0,
        slr: 0,
    };
    machine.cpu(0).load_regs(CpuRegs::Vax(regs));
    let _b = machine.bind_cpu(0);
    // Warm the TLB read-only.
    machine.load_u32(VAddr(0)).unwrap();
    assert!(machine.store_u32(VAddr(0), 1).is_err());
    // Widen the PTE directly (as a lazy pmap would, with no flush).
    machine
        .phys()
        .write_u32(PAddr(table.0), pte(frame, HwProt::READ | HwProt::WRITE))
        .unwrap();
    // The stale entry denies, the hardware re-walks, the store succeeds —
    // the "temporary inconsistency" of §5.2 healing itself.
    machine.store_u32(VAddr(0), 0xAB).unwrap();
    assert_eq!(machine.load_u32(VAddr(0)).unwrap(), 0xAB);
}
