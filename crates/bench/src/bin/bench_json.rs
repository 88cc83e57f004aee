//! Machine-readable benchmark harness: canonical VM workloads across the
//! five architecture ports and 1/2/4/8 CPUs, emitted as `BENCH_vm.json`.
//!
//! Every run boots a fresh simulated machine, performs its setup
//! unmeasured, then runs the workload body with tracing, profiling and
//! health sampling enabled — **one pinned OS thread per simulated CPU**
//! ([`measured_parallel`]), so fault streams, COW pushes, pageout and
//! shootdown IPIs genuinely race through the kernel. The emitted record
//! carries the simulated system/elapsed time (system summed across CPUs,
//! elapsed the slowest CPU's wall), the [`VmStats`] delta over the body,
//! fault-latency percentiles from the trace, and the profiler's span
//! breakdown. A top-level `scaling` table reports aggregate fault
//! throughput at each CPU count against the 1-CPU run of the same
//! workload/port.
//!
//! Single-CPU rows are deterministic; multi-CPU rows race real threads,
//! so their numbers carry run-to-run jitter (the regression gates account
//! for this — see [`check_regressions`]). The exception is the
//! `trace_replay_*` family: those rows replay committed golden traces
//! (`tests/traces/`) through the lockstep engine of
//! `mach_bench::replay`, which serializes ops in recorded order, so they
//! are byte-stable at every CPU count and double as cross-port
//! conformance gates.
//!
//! ```text
//! cargo run --release -p mach-bench --bin bench_json
//! ```
//!
//! Flags: `--ports vax,romp,...` `--cpus 1,4`
//! `--workloads zero_fill,trace_replay_fork_storm,...` `--out PATH`
//! `--check BASELINE` (exit 1 if a 1-CPU workload's elapsed_us regressed
//! more than 20%, any workload's scaling gain fell below half its
//! baseline, or a trace-replay row's observables diverge — see
//! [`check_regressions`]). An unknown port, workload or flag, a CPU
//! count outside 1..=64, or a baseline that cannot be read and parsed
//! exits 2 before any row runs.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use mach_bench::json::{self, Json};
use mach_bench::measure::{measured_parallel, SimTime};
use mach_bench::replay::{port_model, Observables, PORTS};
use mach_fs::{BlockDevice, SimFs};
use mach_hw::machine::{Machine, MachineCounts};
use mach_pmap::{ShootdownPolicy, ShootdownStrategy};
use mach_vm::kernel::{BootOptions, Kernel};
use mach_vm::types::Protection;
use mach_vm::{Task, VmStats};

const SCHEMA: &str = "mach-vm-bench-v5";
const ALL_CPUS: [usize; 4] = [1, 2, 4, 8];
/// The pmap layer tracks CPUs in 64-bit masks.
const MAX_CPUS: usize = 64;
const WORKLOADS: [&str; 11] = [
    "zero_fill",
    "fork_cow",
    "file_reread",
    "shootdown_immediate",
    "shootdown_deferred",
    "shootdown_lazy",
    "pageout_reclaim",
    "server_fleet",
    "pager_fleet",
    // Golden-trace replays (`tests/traces/`): the lockstep engine makes
    // these rows bit-deterministic at every CPU count, and gate 5 demands
    // the machine-independent observables agree across every row and
    // match the trace's pinned expectation.
    "trace_replay_fork_storm",
    "trace_replay_chaos_pager",
];
/// Regression gate for `--check`: a 1-CPU elapsed_us may grow by at most
/// 20%.
const REGRESSION_FRAC: f64 = 0.20;
/// Scaling gate for `--check`: a (workload, port, cpus) throughput gain
/// may fall to no less than half its baseline (threaded runs are noisy;
/// half is far outside jitter but catches a lock that re-serialized).
const SCALING_FLOOR_FRAC: f64 = 0.50;
/// Ablation gate: at 10⁶ map entries the indexed lookup must be at least
/// this many times cheaper (in charged cycles per lookup) than the linear
/// reference walk.
const ABLATION_MIN_SPEEDUP_1M: u64 = 10;
/// Fleet gate: `server_fleet`'s 95th-percentile shadow-chain depth must
/// stay at or below this across all ports and CPU counts — fork storms
/// advance lineages every 4 generations, so uncompacted chains would
/// reach ~60 levels.
const FLEET_MAX_SHADOW_DEPTH_P95: u64 = 6;

/// One task per CPU, each with `pages` fresh pages allocated and, when
/// `dirty`, written once from CPU 0 — the unmeasured set-up most
/// workloads start from.
fn regions(kernel: &Kernel, n: usize, pages: u64, dirty: bool) -> Vec<(Arc<Task>, u64)> {
    let size = pages * kernel.page_size();
    (0..n)
        .map(|_| {
            let task = kernel.create_task();
            let addr = task
                .map()
                .allocate(kernel.ctx(), None, size, true)
                .expect("allocate");
            if dirty {
                task.user(0, |u| u.dirty_range(addr, size).expect("dirty"));
            }
            (task, addr)
        })
        .collect()
}

/// Per-workload setup; returns the measured body, which drives every
/// simulated CPU from its own pinned thread and reports the aggregate
/// interval. Workloads weak-scale: each CPU gets its own fixed quantum
/// of work, so aggregate fault throughput is the scaling metric.
fn setup(
    workload: &str,
    machine: &Arc<Machine>,
    kernel: &Arc<Kernel>,
) -> Box<dyn FnOnce() -> SimTime> {
    let ps = kernel.page_size();
    let n = machine.n_cpus();
    match workload {
        // Every CPU dirties its own 64 fresh pages: racing zero-fill
        // fault streams against the sharded resident table.
        "zero_fill" => {
            let pages = 64u64;
            let regions = regions(kernel, n, pages, false);
            let machine = Arc::clone(machine);
            Box::new(move || {
                measured_parallel(&machine, n, |cpu| {
                    let (task, addr) = &regions[cpu];
                    task.user(cpu, |u| u.dirty_range(*addr, pages * ps).unwrap());
                })
                .0
            })
        }
        // Every CPU forks its own pre-dirtied parent and writes every
        // page in the child: concurrent COW pushes.
        "fork_cow" => {
            let pages = 32u64;
            let parents = regions(kernel, n, pages, true);
            let machine = Arc::clone(machine);
            Box::new(move || {
                measured_parallel(&machine, n, |cpu| {
                    machine.charge(mach_bench::workloads::PROC_CREATE_CYCLES);
                    let (parent, addr) = &parents[cpu];
                    let child = parent.fork();
                    child.user(cpu, |u| {
                        for p in 0..pages {
                            u.write_u32(addr + p * ps, p as u32).unwrap();
                        }
                    });
                    drop(child);
                })
                .0
            })
        }
        // Every CPU maps + touches its own file twice; the second pass
        // hits the (sharded) object cache.
        "file_reread" => {
            let size = 32 * ps;
            let bs = machine.disk().block_size;
            let dev = BlockDevice::new(machine, (2 * size * n as u64).div_ceil(bs) + 128);
            let fs = SimFs::format(&dev);
            let files: Vec<_> = (0..n)
                .map(|i| {
                    let f = fs.create(&format!("data{i}")).unwrap();
                    fs.write_at(f, 0, &vec![0x11u8; size as usize]).unwrap();
                    (kernel.create_task(), f)
                })
                .collect();
            let kernel = Arc::clone(kernel);
            let machine = Arc::clone(machine);
            Box::new(move || {
                measured_parallel(&machine, n, |cpu| {
                    let (task, f) = &files[cpu];
                    let addr = kernel
                        .map_file(task, &fs, *f, None, Protection::READ)
                        .expect("map");
                    task.user(cpu, |u| u.touch_range(addr, size).unwrap());
                    task.map().deallocate(kernel.ctx(), addr, size).unwrap();
                    let addr = kernel
                        .map_file(task, &fs, *f, None, Protection::READ)
                        .expect("remap");
                    task.user(cpu, |u| u.touch_range(addr, size).unwrap());
                })
                .0
            })
        }
        // The shootdown ablation (§5.2): CPU 0 runs a fork storm against a
        // task whose pmap is live on every CPU — each fork COW-narrows all
        // mappings, which is a time-critical shootdown round — while the
        // other CPUs race writes through the same pages and take real COW
        // faults. The three variants force one uniform strategy each, so
        // Immediate pays IPI round-trips into live targets, Deferred
        // batches them onto the `update()` tick, and Lazy lets remote TLBs
        // stay stale (writes sail through without faulting).
        "shootdown_immediate" | "shootdown_deferred" | "shootdown_lazy" => {
            let strategy = match workload {
                "shootdown_immediate" => ShootdownStrategy::Immediate,
                "shootdown_deferred" => ShootdownStrategy::Deferred,
                _ => ShootdownStrategy::Lazy,
            };
            kernel
                .machdep()
                .set_shootdown_policy(ShootdownPolicy::uniform(strategy));
            let pages = 8u64;
            let (task, addr) = regions(kernel, 1, pages, true).pop().expect("one region");
            let kernel = Arc::clone(kernel);
            let machine = Arc::clone(machine);
            Box::new(move || {
                // All CPUs rendezvous before the storm: a remote parked at
                // the barrier inside `user()` is a *bound, active* CPU with
                // the pmap cached, so every narrowing round sends it a real
                // IPI instead of taking the free quiescent-flush path.
                let barrier = std::sync::Barrier::new(n);
                let done = AtomicBool::new(false);
                let writers = AtomicUsize::new(n - 1);
                measured_parallel(&machine, n, |cpu| {
                    if cpu == 0 {
                        barrier.wait();
                        for _ in 0..12 {
                            let child = task.fork();
                            drop(child);
                            // Write the pages back: every one is a COW
                            // fault racing the remote writers.
                            task.user(0, |u| {
                                for p in 0..pages {
                                    u.write_u32(addr + p * ps, p as u32).unwrap();
                                }
                            });
                            // The timer tick deferred flushes ride on.
                            kernel.machdep().update();
                            machine.poll_cpu(0);
                        }
                        while writers.load(Ordering::Acquire) > 0 {
                            machine.poll_cpu(0);
                            std::thread::yield_now();
                        }
                        done.store(true, Ordering::Release);
                    } else {
                        task.user(cpu, |u| {
                            barrier.wait();
                            for i in 0..48u64 {
                                machine.poll_cpu(cpu);
                                u.write_u32(addr + (i % pages) * ps, i as u32).unwrap();
                            }
                        });
                        writers.fetch_sub(1, Ordering::AcqRel);
                        // Keep servicing IPIs until the storm ends so CPU 0
                        // never waits out an ack timeout on this CPU.
                        while !done.load(Ordering::Acquire) {
                            machine.poll_cpu(cpu);
                            std::thread::yield_now();
                        }
                    }
                })
                .0
            })
        }
        // Every CPU reclaims against its own dirtied region, then faults
        // half of it back in: concurrent reclaimers exercise the
        // work-stealing sweep and the default-pager write path.
        // `pager_fleet` runs the same body on a kernel whose default pager
        // is N external pager services over real `mach-ipc` port queues
        // (`BootOptions::pager_fleet`, see [`run_one`]), so pageouts and
        // pageins are acknowledged RPCs against whichever service each
        // object is bound to. After its body, a quiet-point burst probe
        // pauses each service and oversubscribes its queue, which makes
        // the backpressure gauges exact: depth saturates at the queue
        // capacity and every overflow counts a throttle (gate 6 holds the
        // per-pager gauges to the bound).
        "pageout_reclaim" | "pager_fleet" => {
            let pages = 96u64;
            let regions = regions(kernel, n, pages, true);
            let kernel = Arc::clone(kernel);
            let machine = Arc::clone(machine);
            Box::new(move || {
                let time = measured_parallel(&machine, n, |cpu| {
                    // Two passes: the first ages reference bits, the
                    // second evicts (writing dirty pages to the default
                    // pager).
                    kernel.reclaim(pages as usize / 2);
                    kernel.reclaim(pages as usize / 2);
                    let (task, addr) = &regions[cpu];
                    task.user(cpu, |u| {
                        for p in (0..pages).step_by(2) {
                            u.read_u32(addr + p * ps).unwrap();
                        }
                    });
                })
                .0;
                // Tear the tasks down *before* a fleet's gauges are read:
                // each drop sends an async `pager_terminate`, and an
                // in-flight one would race the queue-depth snapshot
                // (depth 0 vs 1).
                drop(regions);
                if let Some(fleet) = kernel.fleet() {
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                    while (0..fleet.pagers()).any(|i| fleet.depth(i) > 0)
                        && std::time::Instant::now() < deadline
                    {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                time
            })
        }
        // The fleet scenario (ROADMAP item 1, docs/WORKLOADS.md): every
        // CPU is a tenant running a fork storm — hundreds of sequential
        // forks per CPU (thousands of tasks machine-wide at 8 CPUs) over
        // a parent whose address space mixes `Shared` and `Copy`
        // inheritance plus a mapping of a file *shared by all tenants*
        // through the object cache. Children write their COW pages and
        // the shared page, a bounded live-set rotates (constant
        // teardown), and every 4th generation the lineage advances so
        // shadow chains genuinely deepen. This is the workload the
        // O(log n) map index, the obscured-splice collapse and the
        // proactive compaction triggers exist for; `shadow_depth_p95`
        // staying bounded is gated in `check_regressions`.
        "server_fleet" => {
            let anon_pages = 16u64;
            let shared_pages = 8u64; // first half of the anon region
            let file_size = 8 * ps;
            let forks_per_cpu = 256usize;
            let bs = machine.disk().block_size;
            let dev = BlockDevice::new(machine, (4 * file_size).div_ceil(bs) + 128);
            let fs = SimFs::format(&dev);
            let file = fs.create("fleet_shared").unwrap();
            fs.write_at(file, 0, &vec![0x5au8; file_size as usize])
                .unwrap();
            let tenants: Vec<_> = regions(kernel, n, anon_pages, true)
                .into_iter()
                .map(|(task, anon)| {
                    task.map()
                        .inherit(
                            kernel.ctx(),
                            anon,
                            shared_pages * ps,
                            mach_vm::types::Inheritance::Shared,
                        )
                        .expect("inherit");
                    // Every tenant maps the same file: the object cache
                    // hands them one shared VmObject, so each CPU's fork
                    // storm shadows a common backing object.
                    let fmap = kernel
                        .map_file(&task, &fs, file, None, Protection::READ)
                        .expect("map file");
                    (task, anon, fmap)
                })
                .collect();
            let machine = Arc::clone(machine);
            let kernel = Arc::clone(kernel);
            Box::new(move || {
                // The fs must outlive the storm: children page the shared
                // file in during the measured body.
                let _fs = &fs;
                measured_parallel(&machine, n, |cpu| {
                    let (parent, anon, fmap) = &tenants[cpu];
                    let (anon, fmap) = (*anon, *fmap);
                    let mut lineage = Arc::clone(parent);
                    let mut live = std::collections::VecDeque::new();
                    for g in 0..forks_per_cpu {
                        machine.charge(mach_bench::workloads::PROC_CREATE_CYCLES);
                        if g % 16 == 15 {
                            // The paging daemon runs under the storm: a
                            // real fleet lives under memory pressure, the
                            // frame-poor ports (SUN 3: 8 KB pages in
                            // 16 MB) need the frames back, and the sweep
                            // is one of the proactive shadow-compaction
                            // triggers this workload exists to exercise.
                            kernel.reclaim(32);
                        }
                        let child = lineage.fork();
                        child.user(cpu, |u| {
                            // Two private COW pushes in the Copy half...
                            let g = g as u64;
                            let copy_lo = shared_pages;
                            let copy_n = anon_pages - shared_pages;
                            u.write_u32(anon + (copy_lo + g % copy_n) * ps, g as u32)
                                .unwrap();
                            u.write_u32(anon + (copy_lo + (g + 5) % copy_n) * ps, g as u32)
                                .unwrap();
                            // ...one coherent write in the Shared half...
                            u.write_u32(anon + (g % shared_pages) * ps, g as u32)
                                .unwrap();
                            // ...and a pass over the shared file pages.
                            u.read_u32(fmap + (g % 8) * ps).unwrap();
                            u.read_u32(fmap + ((g + 3) % 8) * ps).unwrap();
                        });
                        if g % 4 == 3 {
                            // The lineage advances: the next fork comes
                            // off this child, deepening the chain.
                            lineage = child;
                        } else {
                            live.push_back(child);
                            if live.len() > 4 {
                                live.pop_front(); // teardown pressure
                            }
                        }
                    }
                })
                .0
            })
        }
        _ => unreachable!("parse_args admits only WORKLOADS"),
    }
}

/// Entry counts for the hint-only vs indexed lookup ablation.
const ABLATION_SIZES: [u64; 3] = [100, 10_000, 1_000_000];
/// Hint-thrashing lookups measured per (size, mode) cell.
const ABLATION_LOOKUPS: u64 = 64;

/// Price the O(log n) map index against the paper's linear entry walk
/// (same `BTreeMap` storage, different hint-miss search — see
/// `crates/core/src/map.rs`). One map per size is built with `entries`
/// single-page mappings of one shared object at two-page stride (the gap
/// defeats coalescing), then [`ABLATION_LOOKUPS`] resolves jump around it
/// pseudo-randomly so every lookup misses the last-fault hint and pays
/// the search. Cycles are read straight off the simulated CPU clock —
/// each entry visited (linear) or tree level probed (indexed) charges
/// `lookup_step` — so the rows are deterministic and the ≥10×-at-10⁶
/// acceptance gate in [`check_regressions`] prices the index instead of
/// asserting it.
fn map_index_ablation() -> Vec<Json> {
    let mut rows = Vec::new();
    for &entries in &ABLATION_SIZES {
        let machine = Machine::boot(port_model("vax", 1));
        let kernel = Kernel::boot(&machine);
        let ps = kernel.page_size();
        // A raw task map over a space wide enough for 10^6 two-page
        // slots (a task's map would hit the user VA limit).
        let map =
            mach_vm::map::VmMap::new_task_map(kernel.ctx(), kernel.machdep().create(), 0, 1 << 44);
        let object = mach_vm::object::VmObject::new_internal(ps);
        let stride = 2 * ps;
        for i in 0..entries {
            object.reference();
            map.map_object(
                kernel.ctx(),
                Some(i * stride),
                ps,
                Arc::clone(&object),
                0,
                Protection::DEFAULT,
                Protection::ALL,
                false,
            )
            .expect("map entry");
        }
        for mode in ["indexed", "linear"] {
            kernel.set_map_indexed(mode == "indexed");
            let clock = &machine.cpu(0).clock;
            // Deterministic hint-thrashing address sequence (minstd LCG).
            let mut x: u64 = 12345;
            let before = clock.system_cycles();
            for _ in 0..ABLATION_LOOKUPS {
                x = (x.wrapping_mul(48271)) % 0x7fff_ffff;
                let addr = (x % entries) * stride;
                map.resolve(kernel.ctx(), addr).expect("resolve");
            }
            let cycles = clock.system_cycles() - before;
            eprintln!(
                "ablation: {entries} entries, {mode}: {} cycles/lookup",
                cycles / ABLATION_LOOKUPS
            );
            rows.push(Json::obj(vec![
                ("entries", Json::UInt(entries)),
                ("mode", Json::Str(mode.to_string())),
                ("lookups", Json::UInt(ABLATION_LOOKUPS)),
                ("total_cycles", Json::UInt(cycles)),
                ("cycles_per_lookup", Json::UInt(cycles / ABLATION_LOOKUPS)),
            ]));
        }
        kernel.set_map_indexed(true);
    }
    rows
}

fn stats_json(s: &VmStats) -> Json {
    Json::obj(vec![
        ("pagesize", Json::UInt(s.pagesize)),
        ("free_count", Json::UInt(s.free_count)),
        ("active_count", Json::UInt(s.active_count)),
        ("inactive_count", Json::UInt(s.inactive_count)),
        ("wire_count", Json::UInt(s.wire_count)),
        ("faults", Json::UInt(s.faults)),
        ("zero_fill_count", Json::UInt(s.zero_fill_count)),
        ("cow_faults", Json::UInt(s.cow_faults)),
        ("resident_hits", Json::UInt(s.resident_hits)),
        ("pageins", Json::UInt(s.pageins)),
        ("pageouts", Json::UInt(s.pageouts)),
        ("reclaims", Json::UInt(s.reclaims)),
        ("reactivations", Json::UInt(s.reactivations)),
        ("collapses", Json::UInt(s.collapses)),
        ("bypasses", Json::UInt(s.bypasses)),
        ("object_cache_hits", Json::UInt(s.object_cache_hits)),
        ("object_cache_misses", Json::UInt(s.object_cache_misses)),
        ("hint_hits", Json::UInt(s.hint_hits)),
        ("hint_misses", Json::UInt(s.hint_misses)),
        ("pager_deaths", Json::UInt(s.pager_deaths)),
        ("pager_throttles", Json::UInt(s.pager_throttles)),
        ("pager_rebinds", Json::UInt(s.pager_rebinds)),
        ("io_retries", Json::UInt(s.io_retries)),
        ("failed_pageouts", Json::UInt(s.failed_pageouts)),
    ])
}

/// The row's cross-processor counters (schema v5), totalled over the
/// whole run — set-up included, so a forced shootdown flush anywhere in
/// the row fails gate 9.
fn machine_json(m: MachineCounts) -> Json {
    Json::obj(vec![
        ("shootdown_timeouts", Json::UInt(m.shootdown_timeouts)),
        ("ipis_sent", Json::UInt(m.ipis_sent)),
        ("ipis_handled", Json::UInt(m.ipis_handled)),
    ])
}

/// A `trace_replay_*` row: replay the named golden trace through the
/// lockstep engine. Replay rows are fully deterministic (the engine
/// serializes ops in recorded order even across CPUs), so both the times
/// and the observables are byte-stable under regeneration; the
/// machine-independent observables are additionally conformance-gated in
/// [`check_regressions`] (gate 5).
fn replay_run(trace: &str, workload: &str, port: &str, cpus: usize) -> Json {
    let scenario = mach_bench::scenario::load_golden(trace);
    let outcome = mach_bench::replay::replay(&scenario, port, cpus)
        .unwrap_or_else(|e| panic!("replay {trace} on {port} x{cpus}: {e}"));
    let o = &outcome.obs;
    let mut fields: Vec<(&str, Json)> =
        o.gated().iter().map(|&(k, v)| (k, Json::UInt(v))).collect();
    fields.extend([
        ("faults", Json::UInt(o.faults)),
        ("resident_hits", Json::UInt(o.resident_hits)),
        ("reactivations", Json::UInt(o.reactivations)),
        ("shadow_depth_p95", Json::UInt(o.shadow_depth_p95)),
    ]);
    Json::obj(vec![
        ("workload", Json::Str(workload.to_string())),
        ("port", Json::Str(port.to_string())),
        ("cpus", Json::UInt(cpus as u64)),
        ("system_us", Json::UInt(outcome.time.system_us)),
        ("elapsed_us", Json::UInt(outcome.time.elapsed_us)),
        ("stats", stats_json(&outcome.stats)),
        ("observables", Json::obj(fields)),
        ("machine", machine_json(outcome.machine)),
    ])
}

fn run_one(workload: &str, port: &str, cpus: usize) -> Json {
    if let Some(trace) = workload.strip_prefix("trace_replay_") {
        return replay_run(trace, workload, port, cpus);
    }
    let machine = Machine::boot(port_model(port, cpus));
    let mut opts = BootOptions::for_machine(&machine);
    if workload == "pager_fleet" {
        opts.pager_fleet = Some(mach_vm::FleetOptions::default());
    }
    let kernel = Kernel::boot_with(&machine, opts);
    let body = setup(workload, &machine, &kernel);

    kernel.enable_tracing(65_536);
    kernel.enable_profiling();
    kernel.enable_health();
    kernel.enable_lock_stats();
    let base = kernel.statistics();
    let md0 = kernel.machdep().stats();
    let tlb_flushed =
        |m: &Machine| -> u64 { (0..m.n_cpus()).map(|i| m.cpu(i).tlb_stats().flushed).sum() };
    let tlb0 = tlb_flushed(&machine);
    let time = body();
    // Quiet-point burst probe (fleet rows only, after the drained body):
    // pause each service and oversubscribe its queue so the backpressure
    // gauges are exact, and keep the modeled overflow queue_wait for the
    // per-pager rows — gate 8 holds it to the throttle counter. Runs
    // before the stats delta is read so the probe's throttles are in the
    // row it gates.
    let probes: Vec<mach_vm::BurstProbe> = kernel.fleet().map_or_else(Vec::new, |fleet| {
        (0..fleet.pagers())
            .map(|i| {
                let cap = fleet.queue_capacity(i);
                let probe = fleet.burst_probe(i, 2 * cap);
                assert_eq!(probe.depth, cap, "paused queue saturates at capacity");
                assert_eq!(probe.throttles as usize, cap, "every overflow throttles");
                probe
            })
            .collect()
    });
    let stats = kernel.statistics().delta(&base);
    let md = kernel.machdep().stats();
    let tlb1 = tlb_flushed(&machine);
    let log = kernel.trace_log();
    let profile = kernel.profile_report();
    let health = kernel.health_report();
    let lock_report = kernel.lock_report();
    kernel.disable_tracing();
    kernel.disable_profiling();
    kernel.disable_health();
    kernel.disable_lock_stats();
    let chains = log.causal_breakdowns();

    let lat = log.latency_histogram();
    let latency = Json::obj(vec![
        ("count", Json::UInt(lat.count() as u64)),
        ("mean", Json::UInt(lat.mean())),
        ("p50", Json::UInt(lat.percentile(0.50))),
        ("p90", Json::UInt(lat.percentile(0.90))),
        ("p95", Json::UInt(lat.percentile(0.95))),
        ("p99", Json::UInt(lat.percentile(0.99))),
        ("max", Json::UInt(lat.max())),
    ]);

    let rows = profile
        .rows
        .iter()
        .map(|r| {
            let path = r
                .path
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join("/");
            Json::obj(vec![
                ("path", Json::Str(path)),
                ("count", Json::UInt(r.totals.count)),
                ("total_cycles", Json::UInt(r.totals.total_cycles)),
                ("self_cycles", Json::UInt(r.totals.self_cycles)),
            ])
        })
        .collect();

    // Shootdown cost to remote quiescent CPUs never shows up as initiator
    // cycles, so flush work is reported as counters: rounds/IPIs from the
    // pmap chassis plus TLB entries invalidated machine-wide.
    let pmap_json = Json::obj(vec![
        ("enters", Json::UInt(md.enters - md0.enters)),
        ("removes", Json::UInt(md.removes - md0.removes)),
        ("protects", Json::UInt(md.protects - md0.protects)),
        (
            "deferred_queued",
            Json::UInt(md.deferred_queued - md0.deferred_queued),
        ),
        (
            "flush_rounds",
            Json::UInt(md.flush_rounds - md0.flush_rounds),
        ),
        ("flush_ipis", Json::UInt(md.flush_ipis - md0.flush_ipis)),
        ("tlb_flushed", Json::UInt(tlb1 - tlb0)),
    ]);

    let health_json = Json::obj(vec![
        (
            "shadow_depth_p95",
            Json::UInt(health.shadow_depth.percentile(0.95)),
        ),
        (
            "pv_list_len_p95",
            Json::UInt(health.pv_list_len.percentile(0.95)),
        ),
        (
            "hint_hit_rate_pct",
            Json::UInt((health.hint_hit_rate() * 100.0).round() as u64),
        ),
    ]);

    // The causal decomposition rollup (schema v4): complete
    // enqueue→wake chains from the trace, with the component sums in
    // simulated cycles. Gate 7 holds queue_wait inside the profiler's
    // pager_wait span.
    let causal_json = Json::obj(vec![
        ("chains", Json::UInt(chains.len() as u64)),
        (
            "queue_wait_cycles",
            Json::UInt(chains.iter().map(|c| c.queue_wait).sum()),
        ),
        (
            "service_cycles",
            Json::UInt(chains.iter().map(|c| c.service_time).sum()),
        ),
        (
            "transport_cycles",
            Json::UInt(chains.iter().map(|c| c.transport).sum()),
        ),
        (
            "wake_cycles",
            Json::UInt(chains.iter().map(|c| c.wake).sum()),
        ),
    ]);

    // Top-contended lock sites (schema v4): the observatory's counters
    // for the busiest sharded-layer locks, most-contended first. Wall
    // (host) nanosecond histograms stay out of the row — they are not
    // deterministic under regeneration; counts are, on 1-CPU rows.
    let mut sites: Vec<_> = lock_report.iter().filter(|s| s.acquisitions > 0).collect();
    sites.sort_by(|a, b| {
        (b.contended, b.acquisitions, a.site.rank()).cmp(&(
            a.contended,
            a.acquisitions,
            b.site.rank(),
        ))
    });
    let locks_json: Vec<Json> = sites
        .iter()
        .take(3)
        .map(|s| {
            Json::obj(vec![
                ("site", Json::Str(s.site.name().to_string())),
                ("acquisitions", Json::UInt(s.acquisitions)),
                ("contended", Json::UInt(s.contended)),
            ])
        })
        .collect();

    let mut fields = vec![
        ("workload", Json::Str(workload.to_string())),
        ("port", Json::Str(port.to_string())),
        ("cpus", Json::UInt(cpus as u64)),
        ("system_us", Json::UInt(time.system_us)),
        ("elapsed_us", Json::UInt(time.elapsed_us)),
        ("stats", stats_json(&stats)),
        ("fault_latency_cycles", latency),
        ("profile", Json::Arr(rows)),
        ("pmap", pmap_json),
        ("health", health_json),
        ("causal", causal_json),
        ("locks", Json::Arr(locks_json)),
        ("machine", machine_json(machine.stats.snapshot())),
    ];
    // Per-pager queue-depth gauges when the kernel runs a pager service
    // fleet. Pagers are reported by index, not raw port id: port ids come
    // off a process-global counter that drifts with the (nondeterministic)
    // reply-port traffic of earlier multi-CPU rows, and these single-CPU
    // gauge rows must regenerate byte-identically.
    if let Some(fleet) = kernel.fleet() {
        let pagers: Vec<Json> = (0..fleet.pagers())
            .map(|i| {
                // Queue-wait percentiles (schema v4) come off the causal
                // chains attributed to this service's port, in simulated
                // cycles. Zero on every row whose queue never overflowed
                // — queue_wait is charged only on a throttled enqueue.
                let port = fleet.port_id_of(i);
                let mut qw: Vec<u64> = chains
                    .iter()
                    .filter(|c| c.pager == port)
                    .map(|c| c.queue_wait)
                    .collect();
                qw.sort_unstable();
                let pct = |f: f64| -> u64 {
                    if qw.is_empty() {
                        0
                    } else {
                        qw[((qw.len() - 1) as f64 * f) as usize]
                    }
                };
                let mut row = vec![
                    ("pager", Json::UInt(i as u64)),
                    ("live", Json::UInt(u64::from(fleet.is_live(i)))),
                    ("queue_capacity", Json::UInt(fleet.queue_capacity(i) as u64)),
                    ("queue_depth", Json::UInt(fleet.depth(i) as u64)),
                    ("queue_depth_hwm", Json::UInt(fleet.depth_hwm(i))),
                    ("served", Json::UInt(fleet.served(i))),
                    ("queue_wait_p50", Json::UInt(pct(0.50))),
                    ("queue_wait_p95", Json::UInt(pct(0.95))),
                ];
                if let Some(p) = probes.get(i) {
                    row.push(("probe_throttles", Json::UInt(p.throttles)));
                    row.push(("probe_queue_wait_us", Json::UInt(p.queue_wait_us)));
                }
                Json::obj(row)
            })
            .collect();
        fields.push(("pager_fleet", Json::Arr(pagers)));
    }
    Json::obj(fields)
}

/// A row's (workload, port, cpus) identity: the key every row lookup and
/// every gate failure uses.
fn key(row: &Json) -> (&str, &str, u64) {
    let name = |k| row.get(k).and_then(Json::as_str).unwrap_or("");
    (
        name("workload"),
        name("port"),
        field(row, &["cpus"]).unwrap_or(0),
    )
}

/// The integer at `path` inside `row`, if there is one.
fn field(row: &Json, path: &[&str]) -> Option<u64> {
    path.iter().try_fold(row, |j, k| j.get(k))?.as_u64()
}

/// The array member `name` of `doc` (empty when absent).
fn list<'a>(doc: &'a Json, name: &str) -> &'a [Json] {
    doc.get(name).and_then(Json::as_arr).unwrap_or_default()
}

/// Aggregate fault throughput (faults per simulated second) of one run.
fn throughput(run: &Json) -> u64 {
    let faults = field(run, &["stats", "faults"]).unwrap_or(0);
    faults.saturating_mul(1_000_000) / field(run, &["elapsed_us"]).unwrap_or(0).max(1)
}

/// Per-(workload, port, cpus>1) scaling rows: aggregate fault throughput
/// against the 1-CPU run. `gain_permille` = 1000 × (throughput at N CPUs
/// ÷ throughput at 1 CPU); weak-scaling workloads should grow toward
/// 1000 × N.
fn scaling_rows(runs: &[Json]) -> Vec<Json> {
    let mut out = Vec::new();
    for run in runs {
        let (w, p, cpus) = key(run);
        // The lockstep replay engine serializes ops by design — replay
        // rows are conformance artifacts, not scaling workloads.
        if cpus <= 1 || w.starts_with("trace_replay_") {
            continue;
        }
        let Some(base) = runs.iter().find(|r| key(r) == (w, p, 1)) else {
            continue;
        };
        let thr_base = throughput(base);
        let thr = throughput(run);
        out.push(Json::obj(vec![
            ("workload", Json::Str(w.to_string())),
            ("port", Json::Str(p.to_string())),
            ("cpus", Json::UInt(cpus)),
            ("base_faults_per_sec", Json::UInt(thr_base)),
            ("faults_per_sec", Json::UInt(thr)),
            (
                "gain_permille",
                Json::UInt(thr.saturating_mul(1000) / thr_base.max(1)),
            ),
        ]));
    }
    out
}

#[derive(Debug)]
struct Cli {
    ports: Vec<String>,
    cpus: Vec<usize>,
    workloads: Vec<String>,
    out: String,
    check: Option<String>,
}

/// Parse the arguments after the program name. Every port, workload and
/// CPU count is checked here, so bad input fails before any row runs.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        ports: PORTS.iter().map(|s| s.to_string()).collect(),
        cpus: ALL_CPUS.to_vec(),
        workloads: WORKLOADS.iter().map(|s| s.to_string()).collect(),
        out: "BENCH_vm.json".to_string(),
        check: None,
    };
    const FLAGS: [&str; 5] = ["--ports", "--cpus", "--workloads", "--out", "--check"];
    while let Some(flag) = args.next() {
        if !FLAGS.contains(&flag.as_str()) {
            return Err(format!(
                "unknown flag {flag:?} (valid: {})",
                FLAGS.join(", ")
            ));
        }
        let val = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let items = val.split(',').map(|s| s.trim().to_string());
        match flag.as_str() {
            "--ports" => cli.ports = known(items, &PORTS, "port")?,
            "--workloads" => cli.workloads = known(items, &WORKLOADS, "workload")?,
            "--cpus" => {
                cli.cpus = items
                    .map(|c| {
                        c.parse()
                            .ok()
                            .filter(|n| (1..=MAX_CPUS).contains(n))
                            .ok_or_else(|| {
                                format!("--cpus takes integers 1..={MAX_CPUS}, not {c:?}")
                            })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--out" => cli.out = val,
            _ => cli.check = Some(val),
        }
    }
    Ok(cli)
}

/// `items`, or an error naming the first that is not in `valid`.
fn known(
    items: impl Iterator<Item = String>,
    valid: &[&str],
    what: &str,
) -> Result<Vec<String>, String> {
    items
        .map(|item| {
            if valid.contains(&item.as_str()) {
                Ok(item)
            } else {
                Err(format!(
                    "unknown {what} {item:?} (valid: {})",
                    valid.join(", ")
                ))
            }
        })
        .collect()
}

/// Format one `--check` gate failure. Every gate goes through this so
/// each message leads with the offending (workload, port, cpus) row in
/// one greppable shape.
fn gate_failure(workload: &str, port: &str, cpus: u64, msg: &str) -> String {
    format!("{workload}/{port}/{cpus} cpus: {msg}")
}

/// Compare fresh runs against a committed baseline; returns regression
/// descriptions (empty = pass). Nine gates:
///
/// 1. **1-CPU elapsed**: single-threaded rows are deterministic, so
///    elapsed_us growing past [`REGRESSION_FRAC`] fails. Multi-CPU rows
///    race real threads and are exempt from the elapsed gate.
/// 2. **Scaling**: each (workload, port, cpus) throughput gain must stay
///    at or above [`SCALING_FLOOR_FRAC`] of the baseline's gain — the
///    gate that catches a decomposed lock quietly re-serializing.
/// 3. **Index ablation** (self-gating on the fresh run): the indexed
///    lookup must beat the linear walk ≥[`ABLATION_MIN_SPEEDUP_1M`]× at
///    10⁶ entries and must not lose at 10² — the priced form of the
///    "O(log n) with no small-map regression" claim.
/// 4. **Chain depth** (self-gating): every `server_fleet` row's
///    `shadow_depth_p95` must stay ≤ [`FLEET_MAX_SHADOW_DEPTH_P95`],
///    proving the compaction triggers keep fork-storm chains bounded.
/// 5. **Trace-replay conformance** (self-gating): every `trace_replay_*`
///    row in the fresh run must report machine-independent observables
///    identical to every other row of the same trace *and* equal to the
///    trace's pinned `expect` line — the paper's "pmap is a cache" claim
///    (section 4) as a benchmark gate.
/// 6. **Fleet backpressure** (self-gating): every per-pager gauge of a
///    `pager_fleet` row must respect the bounded port queue — observed
///    depth and its high-water mark at or below the queue capacity — and
///    every pager must still be live (the bench workload applies
///    pressure, not chaos).
/// 7. **Causal nesting** (self-gating): each row's summed causal
///    `queue_wait_cycles` must fit inside the profiler's `pager_wait`
///    span total — queue wait is by construction a *component* of the
///    pager wait, so a row where it exceeds the span means the
///    decomposition and the profiler disagree about the same interval.
/// 8. **Probe backpressure pricing** (self-gating): on `pager_fleet`
///    rows the burst probe's modeled `queue_wait_us` must be non-zero
///    exactly when it counted throttles, and any probe throttle must
///    show up in the row's `pager_throttles` stat — overflow is priced
///    iff it happened.
/// 9. **No forced shootdowns** (self-gating): every row's
///    `machine.shootdown_timeouts` must be 0. A waited shootdown ends
///    when each target has acknowledged or gone quiescent; a timeout
///    means some CPU waited in the kernel without parking, a protocol
///    bug that costs host time the simulated clock never shows.
fn check_regressions(current: &Json, baseline: &Json) -> Vec<String> {
    let mut out = Vec::new();
    // Gate 3: indexed vs linear lookup pricing on the fresh rows.
    let cell = |entries: u64, mode: &str| {
        list(current, "map_index_ablation")
            .iter()
            .find(|r| {
                field(r, &["entries"]) == Some(entries)
                    && r.get("mode").and_then(Json::as_str) == Some(mode)
            })
            .and_then(|r| field(r, &["cycles_per_lookup"]))
    };
    if let (Some(idx), Some(lin)) = (cell(1_000_000, "indexed"), cell(1_000_000, "linear")) {
        if idx.saturating_mul(ABLATION_MIN_SPEEDUP_1M) > lin {
            out.push(format!(
                "map_index_ablation at 10^6 entries: indexed {idx} cycles/lookup is not \
                 {ABLATION_MIN_SPEEDUP_1M}x better than linear {lin}"
            ));
        }
    }
    if let (Some(idx), Some(lin)) = (cell(100, "indexed"), cell(100, "linear")) {
        if idx > lin {
            out.push(format!(
                "map_index_ablation at 10^2 entries: indexed {idx} cycles/lookup regressed \
                 vs linear {lin}"
            ));
        }
    }
    // The first row of each replayed trace, which the trace's later rows
    // must match (gate 5).
    let mut first_replays: Vec<(&str, &Json)> = Vec::new();
    for run in list(current, "runs") {
        let (workload, port, cpus) = key(run);
        let mut fail = |msg: String| out.push(gate_failure(workload, port, cpus, &msg));
        let baseline_of = |section| list(baseline, section).iter().find(|b| key(b) == key(run));
        // Gate 1: multi-CPU rows race real threads, so only 1-CPU rows
        // answer for elapsed time; the rest are gated on scaling.
        if let (1, Some(base)) = (cpus, baseline_of("runs")) {
            let cur_us = field(run, &["elapsed_us"]).unwrap_or(0);
            let base_us = field(base, &["elapsed_us"]).unwrap_or(0);
            let limit = (base_us as f64 * (1.0 + REGRESSION_FRAC)).ceil() as u64;
            if cur_us > limit {
                fail(format!(
                    "elapsed {cur_us} us > {limit} us (baseline {base_us} us +{:.0}%)",
                    REGRESSION_FRAC * 100.0
                ));
            }
        }
        // Gate 2: this row's scaling gain against the baseline's.
        let gain = |r: &Json| field(r, &["gain_permille"]).unwrap_or(0);
        let scaling = list(current, "scaling").iter().find(|s| key(s) == key(run));
        if let (Some(cur), Some(base)) = (scaling, baseline_of("scaling")) {
            let (cur, base_gain) = (gain(cur), gain(base));
            let floor = (base_gain as f64 * SCALING_FLOOR_FRAC).floor() as u64;
            if cur < floor {
                fail(format!(
                    "scaling gain {cur}‰ < floor {floor}‰ (baseline {base_gain}‰ × {:.0}%)",
                    SCALING_FLOOR_FRAC * 100.0
                ));
            }
        }
        // Gate 4: fork-storm shadow chains stay bounded.
        let depth = field(run, &["health", "shadow_depth_p95"]).unwrap_or(0);
        if workload == "server_fleet" && depth > FLEET_MAX_SHADOW_DEPTH_P95 {
            fail(format!(
                "shadow_depth_p95 {depth} > {FLEET_MAX_SHADOW_DEPTH_P95} \
                 (chain compaction not keeping up)"
            ));
        }
        // Gate 5: replay rows agree with the trace's first row, and that
        // row with the trace's pinned expectation.
        if let Some(trace) = workload.strip_prefix("trace_replay_") {
            let observed = |r: &Json| {
                Observables::GATED
                    .map(|name| (name, field(r, &["observables", name]).unwrap_or(u64::MAX)))
            };
            match first_replays.iter().find(|(t, _)| *t == trace) {
                Some(&(_, first)) => {
                    let (_, first_port, first_cpus) = key(first);
                    for ((name, got), (_, want)) in observed(run).into_iter().zip(observed(first)) {
                        if got != want {
                            fail(format!(
                                "{name} {got} diverges from {first_port}/{first_cpus} cpus \
                                 ({want}) — machine-independent observable differs across ports"
                            ));
                        }
                    }
                }
                None => {
                    let pinned = mach_bench::scenario::load_golden(trace)
                        .expect
                        .map(|e| Observables::pinned(&e));
                    for ((name, got), (_, want)) in
                        observed(run).into_iter().zip(pinned.into_iter().flatten())
                    {
                        if got != want {
                            fail(format!("{name} {got} != pinned expectation {want}"));
                        }
                    }
                    first_replays.push((trace, run));
                }
            }
        }
        // Gates 6 and 8: each pager's gauges respect its queue bound, and
        // the burst probe prices overflow iff it observed overflow.
        let mut probe_throttles = 0u64;
        for p in list(run, "pager_fleet") {
            let g = |f: &str| field(p, &[f]).unwrap_or(u64::MAX);
            let (idx, cap) = (g("pager"), g("queue_capacity"));
            if g("queue_depth") > cap || g("queue_depth_hwm") > cap {
                fail(format!(
                    "pager {idx} queue depth {}/hwm {} exceeds capacity {cap}",
                    g("queue_depth"),
                    g("queue_depth_hwm")
                ));
            }
            if g("live") != 1 {
                fail(format!(
                    "pager {idx} died under a chaos-free bench workload"
                ));
            }
            let probe = (
                field(p, &["probe_throttles"]),
                field(p, &["probe_queue_wait_us"]),
            );
            if let (Some(t), Some(qw)) = probe {
                probe_throttles += t;
                if (qw > 0) != (t > 0) {
                    fail(format!(
                        "pager {idx} probe queue_wait {qw} us with {t} throttles — \
                         overflow must be priced exactly when it happens"
                    ));
                }
            }
        }
        if probe_throttles > 0 && field(run, &["stats", "pager_throttles"]).unwrap_or(0) == 0 {
            fail(format!(
                "burst probe counted {probe_throttles} throttles but the row's \
                 pager_throttles stat is 0"
            ));
        }
        // Gate 7: the causal queue_wait sum nests inside the pager_wait
        // span, which nests wherever the fault path entered it (e.g.
        // `fault/shadow_walk/pager_wait`), so every pager_wait leaf counts.
        let qw = field(run, &["causal", "queue_wait_cycles"]).unwrap_or(0);
        let pager_wait: u64 = list(run, "profile")
            .iter()
            .filter(|r| {
                r.get("path")
                    .and_then(Json::as_str)
                    .is_some_and(|p| p == "pager_wait" || p.ends_with("/pager_wait"))
            })
            .filter_map(|r| field(r, &["total_cycles"]))
            .sum();
        if qw > pager_wait {
            fail(format!(
                "causal queue_wait {qw} cycles exceeds the pager_wait span total \
                 {pager_wait} — the decomposition does not nest in the span it explains"
            ));
        }
        // Gate 9: no shootdown ever fell back to a forced flush.
        let timeouts = field(run, &["machine", "shootdown_timeouts"]).unwrap_or(0);
        if timeouts > 0 {
            fail(format!(
                "{timeouts} shootdown timeouts — a CPU waited in the kernel without \
                 being quiescent"
            ));
        }
    }
    out
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("bench_json: {e}");
            return ExitCode::from(2);
        }
    };
    // Read the baseline before any row runs, so a bad one fails fast.
    let baseline = match &cli.check {
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text))
        {
            Ok(doc) => Some((path, doc)),
            Err(e) => {
                eprintln!("bench_json: baseline {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let mut runs = Vec::new();
    for workload in &cli.workloads {
        for port in &cli.ports {
            for &cpus in &cli.cpus {
                eprintln!("run: {workload} on {port} x{cpus}");
                runs.push(run_one(workload, port, cpus));
            }
        }
    }
    let scaling = scaling_rows(&runs);
    // The lookup-algorithm ablation is port-independent (it prices map
    // search steps, not MMU behavior), so it runs once, on the vax
    // model, whenever vax is in the port list.
    let ablation = if cli.ports.iter().any(|p| p == "vax") {
        map_index_ablation()
    } else {
        Vec::new()
    };
    let doc = Json::obj(vec![
        ("schema", Json::Str(SCHEMA.to_string())),
        (
            "harness",
            Json::Str("cargo run --release -p mach-bench --bin bench_json".to_string()),
        ),
        ("runs", Json::Arr(runs)),
        ("scaling", Json::Arr(scaling)),
        ("map_index_ablation", Json::Arr(ablation)),
    ]);
    std::fs::write(&cli.out, doc.to_pretty()).expect("write output");
    eprintln!("wrote {}", cli.out);

    if let Some((baseline_path, baseline)) = baseline {
        let regressions = check_regressions(&doc, &baseline);
        if !regressions.is_empty() {
            eprintln!("REGRESSIONS vs {baseline_path}:");
            for r in &regressions {
                eprintln!("  {r}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!("no regressions vs {baseline_path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(current: &str, baseline: &str) -> Vec<String> {
        check_regressions(
            &json::parse(current).unwrap(),
            &json::parse(baseline).unwrap(),
        )
    }

    #[test]
    fn gate_one_bounds_one_cpu_elapsed_growth() {
        let msgs = check(
            r#"{"runs":[
                {"workload":"zero_fill","port":"vax","cpus":1,"elapsed_us":110},
                {"workload":"fork_cow","port":"vax","cpus":1,"elapsed_us":130},
                {"workload":"fork_cow","port":"vax","cpus":2,"elapsed_us":999}]}"#,
            r#"{"runs":[
                {"workload":"zero_fill","port":"vax","cpus":1,"elapsed_us":100},
                {"workload":"fork_cow","port":"vax","cpus":1,"elapsed_us":100},
                {"workload":"fork_cow","port":"vax","cpus":2,"elapsed_us":100}]}"#,
        );
        assert_eq!(
            msgs,
            ["fork_cow/vax/1 cpus: elapsed 130 us > 120 us (baseline 100 us +20%)"]
        );
    }

    #[test]
    fn gate_two_holds_scaling_gain_to_half_the_baseline() {
        let msgs = check(
            r#"{"runs":[
                {"workload":"zero_fill","port":"romp","cpus":2},
                {"workload":"fork_cow","port":"romp","cpus":2}],
              "scaling":[
                {"workload":"zero_fill","port":"romp","cpus":2,"gain_permille":1000},
                {"workload":"fork_cow","port":"romp","cpus":2,"gain_permille":900}]}"#,
            r#"{"scaling":[
                {"workload":"zero_fill","port":"romp","cpus":2,"gain_permille":1900},
                {"workload":"fork_cow","port":"romp","cpus":2,"gain_permille":2000}]}"#,
        );
        assert_eq!(
            msgs,
            ["fork_cow/romp/2 cpus: scaling gain 900‰ < floor 1000‰ (baseline 2000‰ × 50%)"]
        );
    }

    #[test]
    fn gate_three_prices_the_map_index() {
        let ablation = |idx_1m: u64, idx_100: u64| {
            format!(
                r#"{{"map_index_ablation":[
                    {{"entries":100,"mode":"indexed","cycles_per_lookup":{idx_100}}},
                    {{"entries":100,"mode":"linear","cycles_per_lookup":55}},
                    {{"entries":1000000,"mode":"indexed","cycles_per_lookup":{idx_1m}}},
                    {{"entries":1000000,"mode":"linear","cycles_per_lookup":474616}}]}}"#
            )
        };
        assert!(check(&ablation(21, 8), "{}").is_empty());
        assert_eq!(
            check(&ablation(50_000, 56), "{}"),
            [
                "map_index_ablation at 10^6 entries: indexed 50000 cycles/lookup is not 10x \
                 better than linear 474616",
                "map_index_ablation at 10^2 entries: indexed 56 cycles/lookup regressed vs \
                 linear 55",
            ]
        );
    }

    #[test]
    fn gate_four_bounds_fleet_shadow_depth() {
        let msgs = check(
            r#"{"runs":[
                {"workload":"server_fleet","port":"sun3","cpus":2,"health":{"shadow_depth_p95":6}},
                {"workload":"server_fleet","port":"sun3","cpus":4,"health":{"shadow_depth_p95":7}},
                {"workload":"fork_cow","port":"sun3","cpus":4,"health":{"shadow_depth_p95":50}}]}"#,
            "{}",
        );
        assert_eq!(
            msgs,
            ["server_fleet/sun3/4 cpus: shadow_depth_p95 7 > 6 (chain compaction not keeping up)"]
        );
    }

    /// `row` with its `idx`-th gated observable off by one.
    fn skewed(mut row: Json, idx: usize) -> Json {
        let Json::Obj(fields) = &mut row else {
            unreachable!("a run row is an object")
        };
        for (k, v) in fields {
            if let (true, Json::Obj(obs)) = (k == "observables", v) {
                if let Json::UInt(n) = &mut obs[idx].1 {
                    *n += 1;
                }
            }
        }
        row
    }

    #[test]
    fn gate_five_holds_replay_rows_to_the_trace_and_to_each_other() {
        let row = |port| replay_run("fork_storm", "trace_replay_fork_storm", port, 1);
        let runs = |rows| Json::obj(vec![("runs", Json::Arr(rows))]);
        let msgs = check_regressions(&runs(vec![row("vax"), skewed(row("romp"), 2)]), &Json::Null);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs[0].starts_with("trace_replay_fork_storm/romp/1 cpus: ")
                && msgs[0].contains("diverges from vax/1 cpus"),
            "{msgs:?}"
        );
        // The first row of a trace answers to the trace's pinned line.
        let msgs = check_regressions(&runs(vec![skewed(row("vax"), 6)]), &Json::Null);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs[0].starts_with("trace_replay_fork_storm/vax/1 cpus: ")
                && msgs[0].contains("!= pinned expectation"),
            "{msgs:?}"
        );
    }

    #[test]
    fn gate_six_holds_fleet_gauges_to_the_queue_bound() {
        let msgs = check(
            r#"{"runs":[
                {"workload":"pager_fleet","port":"vax","cpus":1,"pager_fleet":[
                    {"pager":0,"live":1,"queue_capacity":6,"queue_depth":0,"queue_depth_hwm":6}]},
                {"workload":"pager_fleet","port":"vax","cpus":2,"pager_fleet":[
                    {"pager":0,"live":0,"queue_capacity":6,"queue_depth":0,"queue_depth_hwm":2},
                    {"pager":1,"live":1,"queue_capacity":6,"queue_depth":7,"queue_depth_hwm":7}]}]}"#,
            "{}",
        );
        assert_eq!(
            msgs,
            [
                "pager_fleet/vax/2 cpus: pager 0 died under a chaos-free bench workload",
                "pager_fleet/vax/2 cpus: pager 1 queue depth 7/hwm 7 exceeds capacity 6",
            ]
        );
    }

    #[test]
    fn gate_seven_nests_queue_wait_in_the_pager_wait_span() {
        let row = |cpus: u64, queue_wait: u64| {
            format!(
                r#"{{"workload":"pageout_reclaim","port":"romp","cpus":{cpus},
                    "causal":{{"queue_wait_cycles":{queue_wait}}},
                    "profile":[{{"path":"fault","total_cycles":900}},
                               {{"path":"fault/shadow_walk/pager_wait","total_cycles":60}},
                               {{"path":"pager_wait","total_cycles":40}}]}}"#
            )
        };
        let msgs = check(
            &format!(r#"{{"runs":[{},{}]}}"#, row(1, 100), row(2, 101)),
            "{}",
        );
        assert_eq!(
            msgs,
            [
                "pageout_reclaim/romp/2 cpus: causal queue_wait 101 cycles exceeds the pager_wait \
                 span total 100 — the decomposition does not nest in the span it explains"
            ]
        );
    }

    #[test]
    fn gate_failure_leads_with_the_offending_row() {
        let m = gate_failure("pager_fleet", "vax", 4, "queue depth 9 exceeds capacity 6");
        assert_eq!(
            m,
            "pager_fleet/vax/4 cpus: queue depth 9 exceeds capacity 6"
        );
    }

    #[test]
    fn probe_pricing_gate_names_workload_port_and_cpus() {
        // A pager_fleet row whose probe counted throttles but priced no
        // queue wait: gate 8 must fire, and the message must lead with
        // the offending workload/port/cpus triple.
        let doc = json::parse(
            r#"{"runs":[{"workload":"pager_fleet","port":"romp","cpus":2,
                "stats":{"pager_throttles":0},
                "pager_fleet":[{"pager":0,"live":1,"queue_capacity":6,
                    "queue_depth":0,"queue_depth_hwm":6,
                    "probe_throttles":6,"probe_queue_wait_us":0}]}]}"#,
        )
        .unwrap();
        let empty = json::parse("{}").unwrap();
        let msgs = check_regressions(&doc, &empty);
        assert!(
            msgs.iter()
                .any(|m| m.starts_with("pager_fleet/romp/2 cpus:") && m.contains("pager 0")),
            "expected a row-scoped probe-pricing failure, got {msgs:?}"
        );
    }

    #[test]
    fn forced_shootdown_fails_gate_nine() {
        let doc = json::parse(
            r#"{"runs":[
                {"workload":"server_fleet","port":"sun3","cpus":2,
                 "machine":{"shootdown_timeouts":3,"ipis_sent":9,"ipis_handled":9}},
                {"workload":"server_fleet","port":"sun3","cpus":4,
                 "machine":{"shootdown_timeouts":0,"ipis_sent":9,"ipis_handled":9}}]}"#,
        )
        .unwrap();
        let msgs = check_regressions(&doc, &json::parse("{}").unwrap());
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].starts_with("server_fleet/sun3/2 cpus: 3 shootdown timeouts"));
    }

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn cli_defaults_to_the_full_matrix() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.ports, PORTS);
        assert_eq!(cli.workloads, WORKLOADS);
        assert_eq!(cli.cpus, ALL_CPUS);
        assert_eq!((cli.out.as_str(), cli.check), ("BENCH_vm.json", None));
        let cli = parse(&[
            "--ports",
            "vax, sun3",
            "--cpus",
            "1,64",
            "--workloads",
            "pager_fleet",
            "--out",
            "b.json",
            "--check",
            "BENCH_vm.json",
        ])
        .unwrap();
        assert_eq!(cli.ports, ["vax", "sun3"]);
        assert_eq!(cli.cpus, [1, 64]);
        assert_eq!(cli.workloads, ["pager_fleet"]);
        assert_eq!(cli.out, "b.json");
        assert_eq!(cli.check.as_deref(), Some("BENCH_vm.json"));
    }

    #[test]
    fn cli_rejects_what_no_row_can_run() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        let e = err(&["--ports", "vax,bogus"]);
        assert!(
            e.contains("\"bogus\"") && e.contains("vax, romp, sun3, ns32082, tlbsoft"),
            "{e}"
        );
        let e = err(&["--workloads", "zero_fil"]);
        assert!(
            e.contains("\"zero_fil\"") && e.contains("trace_replay_chaos_pager"),
            "{e}"
        );
        for cpus in ["0", "65", "two", "1,,2"] {
            assert!(err(&["--cpus", cpus]).contains("1..=64"), "--cpus {cpus}");
        }
        assert!(err(&["--cpu", "1"]).contains("unknown flag \"--cpu\""));
        assert_eq!(err(&["--out"]), "--out needs a value");
    }
}
