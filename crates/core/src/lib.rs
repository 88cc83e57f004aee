//! # mach-vm — machine-independent virtual memory management
//!
//! A faithful Rust reproduction of the VM system of *Machine-Independent
//! Virtual Memory Management for Paged Uniprocessor and Multiprocessor
//! Architectures* (Rashid, Tevanian, Young, Golub, Baron, Black, Bolosky,
//! Chew — CMU, ASPLOS 1987): the memory system that became the ancestor of
//! the BSD/XNU VM.
//!
//! The paper's four data structures map onto four modules:
//!
//! | paper | module |
//! |---|---|
//! | resident page table | [`page`] |
//! | address map (+ sharing maps) | [`map`] |
//! | memory object (+ shadow chains, object cache) | [`object`] |
//! | pmap | the separate **`mach-pmap`** crate |
//!
//! plus the fault handler ([`fault`]), the paging daemon ([`pageout`]),
//! the pagers ([`pager`], [`xpager`] for external user-state pagers), and
//! the user-visible operations of Table 2-1 on [`kernel::Kernel`] and
//! [`task::Task`].
//!
//! **Everything here is machine-independent**: there is no architecture
//! name anywhere in this crate. Hardware is reached only through the
//! `mach-pmap` traits, and all VM information can be reconstructed at
//! fault time, so the pmap layer may discard mappings at will (§3.6).
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use mach_hw::machine::{Machine, MachineModel};
//! use mach_vm::kernel::Kernel;
//!
//! let machine = Machine::boot(MachineModel::micro_vax_ii());
//! let kernel = Kernel::boot(&machine);
//! let task = kernel.create_task();
//!
//! // vm_allocate + touch through the simulated MMU.
//! let addr = task.map().allocate(kernel.ctx(), None, 64 * 1024, true)?;
//! task.user(0, |u| {
//!     u.write_u32(addr, 42).unwrap();
//!     assert_eq!(u.read_u32(addr).unwrap(), 42);
//! });
//!
//! // fork is a copy-on-write copy of the whole space.
//! let child = task.fork();
//! child.user(0, |u| assert_eq!(u.read_u32(addr).unwrap(), 42));
//! # Ok::<(), mach_vm::types::VmError>(())
//! ```

pub mod ctx;
pub mod fault;
pub mod fleet;
pub mod health;
pub mod inject;
pub mod kernel;
pub mod map;
pub mod msg;
pub mod netmsg;
pub mod object;
pub mod ops;
pub mod page;
pub mod pageout;
pub mod pager;
pub mod profile;
pub mod stats;
pub mod task;
pub mod trace;
pub mod trace_export;
pub mod types;
pub mod xpager;

pub use ctx::CoreRefs;
pub use fleet::{BurstProbe, FleetOptions, PagerFleet};
pub use health::{GaugeStats, HealthReport, HealthSink, QueueSample};
pub use inject::{InjectKind, InjectPlan, InjectedEvent, Injector};
pub use kernel::{BootOptions, Kernel};
pub use mach_hw::lock::{LockSite, LockSiteReport, LockStats};
pub use map::{RegionInfo, VmMap};
pub use msg::RegionTicket;
pub use object::VmObject;
pub use ops::{OpRecord, OpRecorder, VmOp};
pub use page::PageId;
pub use pager::{InodePager, Pager, PagerReply};
pub use profile::{ProfileReport, ProfileRow, Profiler, SpanKind, SpanTotals};
pub use stats::VmStats;
pub use task::{Task, UserCtx};
pub use trace::{
    causal_scope, current_causal, CausalBreakdown, CausalPhase, CausalScope, FaultPair,
    FaultResolution, Histogram, PagerMsg, TraceEvent, TraceLog, TraceRecord, TraceSink,
    TraceTotals, VmRollup,
};
pub use trace_export::chrome_trace_json;
pub use types::{Inheritance, Protection, VmError, VmResult};
pub use xpager::{serve_pager, UserPager};
