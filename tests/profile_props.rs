//! Properties of the cycle profiler and its reconciliation with the trace
//! ring: spans always balance (every enter has a matching exit, children
//! never out-spend their parent), the fault span's total agrees *exactly*
//! with the trace's fault-latency sum, and both invariants survive
//! deterministic fault injection.

use std::sync::Arc;
use std::time::Duration;

use mach_hw::machine::{Machine, MachineModel};
use mach_ipc::Port;
use mach_vm::inject::InjectPlan;
use mach_vm::kernel::{BootOptions, Kernel};
use mach_vm::profile::{ProfileReport, SpanKind};
use mach_vm::{serve_pager, UserPager};
use proptest::prelude::*;

const PS: u64 = 4096;

fn boot() -> Arc<Kernel> {
    Kernel::boot(&Machine::boot(MachineModel::micro_vax_ii()))
}

/// Structural invariants every report must satisfy:
/// - each non-root row's path prefix exists as a row (the tree is closed);
/// - `self <= total` and `count > 0` per row;
/// - per row, self time plus the direct children's totals equals the
///   row's total exactly — cycles are attributed once, never dropped.
fn assert_tree_balances(report: &ProfileReport) {
    for row in &report.rows {
        assert!(row.totals.count > 0, "empty row {:?}", row.path);
        assert!(
            row.totals.self_cycles <= row.totals.total_cycles,
            "self > total at {:?}",
            row.path
        );
        if row.path.len() > 1 {
            let parent = &row.path[..row.path.len() - 1];
            assert!(
                report.path_totals(parent).is_some(),
                "orphan row {:?}",
                row.path
            );
        }
        let child_total: u64 = report
            .children_of(&row.path)
            .iter()
            .map(|c| c.totals.total_cycles)
            .sum();
        assert_eq!(
            row.totals.self_cycles + child_total,
            row.totals.total_cycles,
            "cycles leaked at {:?}",
            row.path
        );
    }
}

#[derive(Debug, Clone)]
enum Op {
    Write { task: u8, page: u8 },
    Read { task: u8, page: u8 },
    Fork { task: u8 },
    Reclaim,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(task, page)| Op::Write { task, page }),
        (any::<u8>(), any::<u8>()).prop_map(|(task, page)| Op::Read { task, page }),
        any::<u8>().prop_map(|task| Op::Fork { task }),
        Just(Op::Reclaim),
    ]
}

fn run_ops(k: &Arc<Kernel>, ops: Vec<Op>) {
    let root = k.create_task();
    let addr = root
        .map()
        .allocate(k.ctx(), Some(0x10_0000), 16 * PS, false)
        .unwrap();
    let mut tasks = vec![root];
    for op in ops {
        match op {
            Op::Write { task, page } => {
                let t = &tasks[task as usize % tasks.len()];
                let p = (page % 16) as u64;
                t.user(0, |u| u.write_u32(addr + p * PS, u32::from(page)).unwrap());
            }
            Op::Read { task, page } => {
                let t = &tasks[task as usize % tasks.len()];
                let p = (page % 16) as u64;
                t.user(0, |u| {
                    u.read_u32(addr + p * PS).unwrap();
                });
            }
            Op::Fork { task } => {
                if tasks.len() < 6 {
                    let child = tasks[task as usize % tasks.len()].fork();
                    tasks.push(child);
                }
            }
            Op::Reclaim => {
                k.reclaim(4);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Spans balance over an arbitrary fork/write/read/reclaim workload:
    /// no span is left open, the tree is closed, and every row's self
    /// time plus its children's totals equals its own total.
    #[test]
    fn spans_balance(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let k = boot();
        k.enable_profiling();
        run_ops(&k, ops);
        prop_assert_eq!(k.profiler().open_spans(), 0, "unbalanced enter/exit");
        assert_tree_balances(&k.profile_report());
    }

    /// The reconciliation contract: the `fault` span's total cycles equal
    /// the sum of the trace ring's per-fault latencies *exactly* (the
    /// span brackets precisely the FaultBegin/FaultEnd emission window),
    /// and the span count equals the pair count.
    #[test]
    fn fault_span_reconciles_with_trace(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let k = boot();
        k.enable_profiling();
        k.enable_tracing(65_536);
        run_ops(&k, ops);

        let log = k.trace_log();
        prop_assert!(!log.wrapped(), "ring must hold the full ledger");
        let trace_sum: u64 = log
            .fault_pairs()
            .iter()
            .map(|p| p.end_cycles - p.begin_cycles)
            .sum();
        let span = k
            .profile_report()
            .path_totals(&[SpanKind::Fault])
            .unwrap_or_default();
        prop_assert_eq!(span.count as usize, log.fault_pairs().len());
        prop_assert_eq!(span.total_cycles, trace_sum);
    }

    /// Percentiles from the trace latency histogram are monotone in the
    /// percentile argument and bounded by min/max.
    #[test]
    fn latency_percentiles_are_monotone(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        cuts in proptest::collection::vec(0u32..=1000, 2..8),
    ) {
        let k = boot();
        k.enable_tracing(65_536);
        run_ops(&k, ops);
        let h = k.trace_log().latency_histogram();
        // The ops vector may contain no faulting ops; skip the empty case.
        if h.count() > 0 {
            let mut sorted = cuts;
            sorted.sort_unstable();
            let values: Vec<u64> = sorted
                .iter()
                .map(|&p| h.percentile(f64::from(p) / 1000.0))
                .collect();
            for w in values.windows(2) {
                prop_assert!(w[0] <= w[1], "percentile not monotone: {:?}", values);
            }
            prop_assert!(h.min() <= values[0]);
            prop_assert!(values[values.len() - 1] <= h.max());
        }
    }
}

/// A prompt, well-behaved pager; failures are injected, not organic.
struct EchoPager;

impl UserPager for EchoPager {
    fn read(&mut self, offset: u64, length: u64) -> Option<Vec<u8>> {
        Some((0..length).map(|i| (offset + i) as u8).collect())
    }

    fn write(&mut self, _offset: u64, _data: &[u8]) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Span balance holds under chaos: stalls, drops, pager deaths and
    /// duplicate messages abort faults through early-return paths, and
    /// the RAII guards must still close every span.
    #[test]
    fn spans_balance_under_chaos(
        seed in any::<u64>(),
        stall in 0u32..=400,
        drops in 0u32..=400,
        death in 0u32..=200,
        pages in 1u64..=5,
    ) {
        let plan = InjectPlan::new(seed)
            .pager_stall(stall)
            .msg_drop(drops)
            .pager_death(death);
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let mut opts = BootOptions::for_machine(&machine);
        opts.pager_timeout = Duration::from_millis(100);
        opts.inject = Some(plan);
        let k = Kernel::boot_with(&machine, opts);
        k.enable_profiling();

        let task = k.create_task();
        let (pager_tx, pager_rx) = Port::allocate("profile-chaos-pager", 64);
        std::thread::spawn(move || serve_pager(&pager_rx, EchoPager));
        let addr = k
            .allocate_with_pager(&task, None, pages * PS, true, pager_tx, 0)
            .unwrap();
        for i in 0..pages {
            // Faults may fail (injected); spans must balance regardless.
            let _ = task.user(0, |u| u.read_u32(addr + i * PS));
        }

        // The detached pager-service thread may still be inside a
        // `PagerService` span when the last fault returns (its guard
        // closes asynchronously), so settle-poll before asserting that
        // no span leaked on an error path.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while k.profiler().open_spans() != 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        prop_assert_eq!(k.profiler().open_spans(), 0, "span leaked on error path");
        // Under chaos the pager-service thread and the faulting thread can
        // interleave on the same CPU's span stack, so the strict
        // tree-closure invariant of `assert_tree_balances` does not apply;
        // the per-row invariants still must.
        for row in &k.profile_report().rows {
            prop_assert!(row.totals.count > 0, "empty row {:?}", row.path);
            prop_assert!(
                row.totals.self_cycles <= row.totals.total_cycles,
                "self > total at {:?}",
                row.path
            );
        }
    }
}

/// Tentpole acceptance: the causal decomposition sums to the existing
/// `pager_wait` span *exactly*, on all five architecture ports at 1 and
/// 4 CPUs. Each refault through the pager fleet leaves five boundary
/// stamps whose consecutive differences telescope to Wake − Enqueue;
/// Enqueue coincides with the span opening and Wake with its close, so
/// Σ(queue_wait + service_time + transport + wake) over complete chains
/// equals the span total cycle-for-cycle — no epsilon, no tolerance.
#[test]
fn causal_decomposition_reconciles_with_pager_wait_span() {
    use mach_bench::replay::{port_model, PORTS};
    use mach_vm::FleetOptions;

    for port in PORTS {
        for cpus in [1usize, 4] {
            let machine = Machine::boot(port_model(port, cpus));
            let mut opts = BootOptions::for_machine(&machine);
            opts.pager_fleet = Some(FleetOptions {
                pagers: 3,
                queue_capacity: 4,
            });
            let kernel = Kernel::boot_with(&machine, opts);
            let ps = kernel.page_size();

            // Unmeasured setup: one dirtied region per CPU, all evicted
            // through the fleet.
            let regions: Vec<_> = (0..cpus)
                .map(|_| {
                    let t = kernel.create_task();
                    let addr = t.map().allocate(kernel.ctx(), None, 16 * ps, true).unwrap();
                    t.user(0, |u| u.dirty_range(addr, 16 * ps).unwrap());
                    (t, addr)
                })
                .collect();
            while kernel.reclaim(16) > 0 {}

            // Measured: every CPU refaults its region concurrently —
            // each pagein is a traced fleet RPC.
            kernel.enable_profiling();
            kernel.enable_tracing(65_536);
            std::thread::scope(|s| {
                for (cpu, (t, addr)) in regions.iter().enumerate() {
                    let (t, addr) = (Arc::clone(t), *addr);
                    s.spawn(move || {
                        t.user(cpu, |u| {
                            for p in (0..16u64).step_by(2) {
                                u.read_u32(addr + p * ps).unwrap();
                            }
                        });
                    });
                }
            });

            let log = kernel.trace_log();
            kernel.disable_tracing();
            assert!(!log.wrapped(), "{port} x{cpus}: ring holds the full ledger");
            let chains = log.causal_breakdowns();
            assert!(
                !chains.is_empty(),
                "{port} x{cpus}: refaults crossed the fleet"
            );
            let span = kernel.profile_report().leaf_totals(SpanKind::PagerWait);
            kernel.disable_profiling();
            assert_eq!(
                chains.len() as u64,
                span.count,
                "{port} x{cpus}: one complete chain per pager_wait span"
            );
            let sum: u64 = chains.iter().map(|c| c.total()).sum();
            assert_eq!(
                sum, span.total_cycles,
                "{port} x{cpus}: decomposition must sum to the span exactly"
            );
        }
    }
}
