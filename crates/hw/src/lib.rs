//! # mach-hw — the simulated hardware substrate
//!
//! This crate stands in for the 1987 machines the Mach VM paper was
//! measured on: it simulates byte-addressable physical memory, one or more
//! CPUs with per-CPU TLBs (and, crucially, **no** hardware TLB coherence),
//! inter-processor interrupts, and the in-memory translation structures of
//! four period MMU architectures — the VAX, the IBM RT PC's inverted page
//! table, the SUN 3's context/segment/pmeg MMU, and the NS32082 found in
//! the Encore MultiMax and Sequent Balance.
//!
//! Everything a real MMU would decide is decided here, in the hardware's
//! own table formats stored in simulated physical memory; the
//! machine-dependent `pmap` layer (crate `mach-pmap`) writes those formats
//! and the machine-independent VM (crate `mach-vm`) never sees them.
//!
//! A deterministic cost model charges cycles for memory references, table
//! walks, traps, copies and IPIs so benchmarks can report simulated time.
//!
//! ## Quick example
//!
//! ```
//! use mach_hw::machine::{Machine, MachineModel};
//! use mach_hw::addr::{VAddr, Access};
//!
//! let machine = Machine::boot(MachineModel::micro_vax_ii());
//! let _bind = machine.bind_cpu(0);
//! // Nothing is mapped yet: the very first access faults, exactly the
//! // event the machine-independent fault handler exists to resolve.
//! assert!(machine.load_u32(VAddr(0x1000)).is_err());
//! ```

// `single_range_in_vec_init` fires on hole lists with one hole — but a
// machine may have any number of holes; the Vec is the API.
#![allow(clippy::single_range_in_vec_init)]

pub mod addr;
pub mod arch;
pub mod bus;
pub mod cost;
pub mod cpu;
pub mod lock;
pub mod machine;
pub mod phys;
pub mod tlb;

pub use addr::{Access, Fault, FaultCode, HwProt, PAddr, Pfn, VAddr};
pub use arch::{ArchKind, CpuRegs};
pub use cost::{Clock, ClockSnapshot, CostModel, DiskModel};
pub use machine::{Machine, MachineModel};
pub use tlb::FlushScope;

/// Next value of a SplitMix64 stream: the seeded generator behind this
/// crate's randomized tests.
#[cfg(test)]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
