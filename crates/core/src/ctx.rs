//! Shared kernel context handed around the machine-independent layer.

use std::sync::Arc;

use mach_hw::machine::Machine;
use mach_pmap::MachDep;

use crate::health::HealthSink;
use crate::inject::Injector;
use crate::object::ObjectCache;
use crate::ops::{OpRecorder, VmOp};
use crate::page::ResidentTable;
use crate::pager::Pager;
use crate::profile::{Profiler, SpanGuard, SpanKind};
use crate::stats::VmStatsAtomic;
use crate::trace::{TraceEvent, TraceSink};

/// The references every machine-independent subsystem needs: the resident
/// page table, the machine-dependent module, the object cache and the
/// statistics block. One instance per booted kernel.
#[derive(Debug)]
pub struct CoreRefs {
    /// The simulated machine.
    pub machine: Arc<Machine>,
    /// The machine-dependent (pmap) module.
    pub machdep: Arc<dyn MachDep>,
    /// The resident page table.
    pub resident: Arc<ResidentTable>,
    /// The cache of unreferenced persistent objects.
    pub cache: Arc<ObjectCache>,
    /// Event counters.
    pub stats: Arc<VmStatsAtomic>,
    /// The default pager: backing store for anonymous memory at pageout.
    pub default_pager: Arc<dyn Pager>,
    /// The machine-independent page size (a power-of-two multiple of the
    /// hardware page size, fixed at boot — paper §3.1).
    pub page_size: u64,
    /// Ablation switch: disable shadow-chain garbage collection (§3.5) to
    /// measure what the collapse machinery is worth.
    pub collapse_enabled: std::sync::atomic::AtomicBool,
    /// Ablation switch: resolve hint-miss address-map lookups through the
    /// O(log n) ordered index (the default). Cleared, lookups fall back to
    /// the paper's pure linear entry walk — the reference implementation
    /// the index is property-tested against (`tests/map_index_props.rs`)
    /// and priced against in `BENCH_vm.json`'s `map_index_ablation` rows.
    /// Hint semantics and Table 2-1 accounting are identical either way;
    /// only the hint-miss search algorithm (and its charged cycles)
    /// changes.
    pub map_indexed: std::sync::atomic::AtomicBool,
    /// How long a fault waits on an unresponsive pager before declaring it
    /// dead (boot-time option; see [`crate::BootOptions::pager_timeout`]).
    pub pager_timeout: std::time::Duration,
    /// The VM event trace sink (disabled by default; a branch, not a
    /// lock, on every emission site — see [`crate::trace`]).
    pub trace: Arc<TraceSink>,
    /// The deterministic fault-injection engine (inert unless the kernel
    /// booted with an [`crate::BootOptions::inject`] plan — see
    /// [`crate::inject`]).
    pub injector: Arc<Injector>,
    /// The span profiler (disabled by default; same one-relaxed-load
    /// contract as [`CoreRefs::trace`] — see [`crate::profile`]).
    pub profile: Arc<Profiler>,
    /// The structure-health gauges (disabled by default — see
    /// [`crate::health`]).
    pub health: Arc<HealthSink>,
    /// The replay-visible op recorder (disabled by default; same
    /// one-relaxed-load contract as [`CoreRefs::trace`] — see
    /// [`crate::ops`]).
    pub ops: Arc<OpRecorder>,
}

impl CoreRefs {
    /// Round `x` down to a page boundary.
    #[inline]
    pub fn trunc_page(&self, x: u64) -> u64 {
        x & !(self.page_size - 1)
    }

    /// Round `x` up to a page boundary.
    #[inline]
    pub fn round_page(&self, x: u64) -> u64 {
        (x + self.page_size - 1) & !(self.page_size - 1)
    }

    /// Emit a trace event stamped with the current CPU's simulated cycle
    /// clock. A single-branch no-op while tracing is disabled.
    #[inline]
    pub fn trace_emit(&self, task: u64, object: u64, offset: u64, event: TraceEvent) {
        self.trace.emit(&self.machine, task, object, offset, event);
    }

    /// Open a profiler span on the current CPU. An inert guard (one
    /// relaxed atomic load) while profiling is disabled.
    #[inline]
    pub fn prof_span(&self, kind: SpanKind) -> SpanGuard<'_> {
        self.profile.span(&self.machine, kind)
    }

    /// Record a replay-visible op stamped with the current CPU. A
    /// single-branch no-op while op recording is disabled.
    #[inline]
    pub fn record_op(&self, op: VmOp) {
        self.ops.record(&self.machine, op);
    }
}
