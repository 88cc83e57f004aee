//! Two-clock benchmark of the Mach VM reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fork_storm|fault_stream|paging|paging_fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! A run repeats *rounds* until `--seconds` have passed (at least three).
//! Each round boots a fresh machine and kernel (the timed set-up), then
//! drives the seeded plan on two simulated CPUs (the measured body).
//! Every end-to-end metric is a median over the untraced rounds, read in
//! both clocks: the host's (how fast the simulator runs) and the
//! simulated machine's (what the modelled 1987 hardware would take). With `--trace 1`, every other round is traced
//! and the run reports per-layer metrics and the tracing overhead instead.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod gen;
mod host;
mod layers;
mod spans;
mod world;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use gen::{Plan, Workload, CPUS};
use world::{CpuOutcome, World};

const USAGE: &str =
    "usage: perfbench --workload fork_storm|fault_stream|paging|paging_fleet --seed N --seconds S --trace 0|1";

/// Rounds a run makes however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Every end-to-end metric: name, clock, unit, and whether the result
/// line carries it (the metrics `BENCHMARK.json` bounds).
/// `ops_failed_ratio` is printed with them but travels in the result's
/// `attempted`/`failed`. The step latencies are printed but not bounded:
/// on `fork_storm` a step takes whole multiples of the 100 ms forced
/// shootdown timeout, in proportions that follow the host's scheduling,
/// so their median and p90 jump between those multiples from run to run.
const END_TO_END: &[(&str, &str, &str, bool)] = &[
    ("host_wall_s", "host", "s", true),
    ("host_cpu_s", "host", "s", true),
    ("host_faults_per_s", "host", "1/s", true),
    ("host_step_p50_us", "host", "us", false),
    ("host_step_tail_us", "host", "us", false),
    ("sim_elapsed_ms", "sim", "ms", true),
    ("sim_system_ms", "sim", "ms", true),
    ("setup_s", "host", "s", true),
    ("host_rss_peak_mb", "host", "MiB", true),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?.clamp(1, 600)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

/// One round: a fresh world set up, driven through the plan, measured.
struct Round {
    traced: bool,
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    sim_elapsed_us: u64,
    sim_system_us: u64,
    counters: layers::Counters,
    cpus: Vec<CpuOutcome>,
    sinks: Option<layers::Sinks>,
}

impl Round {
    fn faults(&self) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == "fault.faults")
            .map_or(0, |&(_, v)| v)
    }
}

fn round(plan: &Plan, traced: bool, cores: &[usize]) -> Result<Round, String> {
    let t0 = Instant::now();
    let world = World::setup(plan)?;
    let setup_s = t0.elapsed().as_secs_f64();
    if traced {
        layers::enable_sinks(&world);
    }
    let (c0, k0) = (world.clocks(), layers::counters(&world));
    let (cpu0, _) = host::rusage();
    let w0 = Instant::now();
    let mut cpus = world.run(plan, traced, cores);
    let wall_s = w0.elapsed().as_secs_f64();
    let (cpu1, _) = host::rusage();
    let (c1, k1) = (world.clocks(), layers::counters(&world));
    let sinks = traced.then(|| layers::read_sinks(&world));
    let mhz = world.machine.model().mhz;
    let d: Vec<_> = c0.iter().zip(&c1).map(|(a, b)| a.delta(*b)).collect();
    // Teardown stays outside the body: tasks still alive go with the world.
    for c in &mut cpus {
        c.keep.clear();
    }
    drop(world);
    Ok(Round {
        traced,
        setup_s,
        wall_s,
        cpu_s: cpu1 - cpu0,
        sim_elapsed_us: d.iter().map(|x| x.elapsed_us(mhz)).max().unwrap_or(0),
        sim_system_us: d.iter().map(|x| x.system_us(mhz)).sum(),
        counters: layers::delta(&k0, &k1),
        cpus,
        sinks,
    })
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// Write every span of the traced rounds, one JSON object a line, to
/// `out/spans-<workload>-<seed>.jsonl` beside this package's manifest.
fn write_spans(rounds: &[Round], args: &Args) -> std::io::Result<String> {
    use std::io::Write;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (r, round) in rounds.iter().enumerate().filter(|(_, r)| r.traced) {
        for (cpu, c) in round.cpus.iter().enumerate() {
            for s in &c.spans {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    w,
                    "{{\"round\": {r}, \"cpu\": {cpu}, \"step\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.step, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
    }
    w.flush()?;
    Ok(path.display().to_string())
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // More simulated CPUs than host cores would measure the host
    // scheduler, not the program.
    let cores = host::allowed_cores();
    if cores.len() < CPUS {
        eprintln!(
            "perfbench: refusing to drive {CPUS} simulated CPUs on {} host core(s)",
            cores.len()
        );
        return ExitCode::from(3);
    }
    let plan = gen::plan(args.workload, args.seed);
    let (model, port) = world::model(args.workload);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "env host_nproc={nproc} sim_cpus={CPUS} port={port} model=\"{}\" profile={} commit={}",
        model.name,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_commit()
    );

    let start = Instant::now();
    let min_rounds = if args.trace {
        2 * MIN_ROUNDS
    } else {
        MIN_ROUNDS
    };
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let traced = args.trace && rounds.len() % 2 == 1;
        match round(&plan, traced, &cores) {
            Ok(r) => rounds.push(r),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let (_, rss_kib) = host::rusage();

    // Outputs: read-back mismatches are wrong answers; error returns are
    // failures the run survives and reports.
    let all = || rounds.iter().flat_map(|r| &r.cpus);
    let attempted: u64 = all().map(|c| c.attempted).sum();
    let failed: u64 = all().map(CpuOutcome::failed).sum();
    let mismatches: u64 = all().map(|c| c.mismatches).sum();
    let mut errors: BTreeMap<&str, u64> = BTreeMap::new();
    for c in all() {
        for (k, v) in &c.errors {
            *errors.entry(k).or_default() += v;
        }
    }
    let mut correct = mismatches == 0;
    if let Some(m) = all().find_map(|c| c.first_mismatch.as_deref()) {
        println!("MISMATCH {mismatches} reads, first: {m}");
    }
    // The simulated clock of `fault_stream` is deterministic: every round
    // replays one plan on a fresh kernel, so every round must read alike.
    let sims: Vec<(u64, u64)> = rounds
        .iter()
        .map(|r| (r.sim_elapsed_us, r.sim_system_us))
        .collect();
    if args.workload == Workload::FaultStream && sims.windows(2).any(|w| w[0] != w[1]) {
        println!("NONDETERMINISTIC fault_stream simulated clock across rounds: {sims:?}");
        correct = false;
    }

    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let med =
        |f: &dyn Fn(&Round) -> f64| host::median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    let mut steps: Vec<u64> = plain
        .iter()
        .flat_map(|r| &r.cpus)
        .flat_map(|c| c.step_ns.iter().copied())
        .collect();
    steps.sort_unstable();
    let tail = host::tail(&steps);
    let e2e: BTreeMap<&str, f64> = BTreeMap::from([
        ("host_wall_s", med(&|r| r.wall_s)),
        ("host_cpu_s", med(&|r| r.cpu_s)),
        ("host_faults_per_s", med(&|r| r.faults() as f64 / r.wall_s)),
        (
            "host_step_p50_us",
            host::percentile(&steps, 50.0) as f64 / 1e3,
        ),
        ("host_step_tail_us", tail.value as f64 / 1e3),
        ("sim_elapsed_ms", med(&|r| r.sim_elapsed_us as f64) / 1e3),
        ("sim_system_ms", med(&|r| r.sim_system_us as f64) / 1e3),
        (
            "setup_s",
            host::median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        ),
        ("host_rss_peak_mb", rss_kib as f64 / 1024.0),
    ]);

    let traced_n = rounds.len() - plain.len();
    println!(
        "rounds={} (untraced {}, traced {traced_n}) steps/round={} ops attempted={attempted} failed={failed}",
        rounds.len(),
        plain.len(),
        plan.cpus.iter().map(Vec::len).sum::<usize>(),
    );
    let mut walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    walls.sort_by(f64::total_cmp);
    if let (Some(lo), Some(hi)) = (walls.first(), walls.last()) {
        println!(
            "host_wall_s by round: min {lo:.6} median {:.6} max {hi:.6}",
            host::median(&walls)
        );
    }
    println!(
        "{:<20} {:<5} {:>16} {:<6} note",
        "metric", "clock", "value", "unit"
    );
    for &(name, clock, unit, _) in END_TO_END {
        let note = match name {
            "host_step_tail_us" => format!(
                "p{} of {} steps, {} beyond",
                tail.pct,
                steps.len(),
                tail.beyond
            ),
            "host_rss_peak_mb" => "whole run".into(),
            "setup_s" => format!("median of {} set-ups", rounds.len()),
            "host_step_p50_us" => format!("of {} steps", steps.len()),
            _ => format!("median of {} rounds", plain.len()),
        };
        println!("{name:<20} {clock:<5} {:>16.6} {unit:<6} {note}", e2e[name]);
    }
    let ratio = if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    };
    println!(
        "{:<20} {:<5} {:>16.6} {:<6} {failed} of {attempted} ops; errors by kind {errors:?}, mismatches {mismatches}",
        "ops_failed_ratio", "-", ratio, "ratio"
    );

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let traced: Vec<layers::TracedRound> = rounds
            .iter()
            .filter_map(|r| {
                Some(layers::TracedRound {
                    counters: &r.counters,
                    cpus: &r.cpus,
                    sinks: r.sinks.as_ref()?,
                })
            })
            .collect();
        let traced_wall = host::median(
            &rounds
                .iter()
                .filter(|r| r.traced)
                .map(|r| r.wall_s)
                .collect::<Vec<_>>(),
        );
        let overhead = traced_wall / e2e["host_wall_s"] - 1.0;
        let per_layer = layers::metrics(&traced, overhead);
        match write_spans(&rounds, &args) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => println!("spans not written: {e}"),
        }
        println!(
            "per-layer report, {} ({traced_n} traced rounds; counts per round)",
            args.workload.name()
        );
        println!("{:<32} {:>16} {:<6} basis", "metric", "value", "unit");
        let mut layer = "";
        for &(name, unit) in layers::PER_LAYER {
            let this = name.split('.').next().unwrap_or(name);
            if this != layer {
                layer = this;
                println!("[{layer}]");
            }
            let m = &per_layer[name];
            println!("  {name:<30} {:>16.4} {unit:<6} {}", m.value, m.note);
        }
        layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| (name.to_string(), per_layer[name].value, unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.3)
            .map(|&(name, _, unit, _)| (name.to_string(), e2e[name], unit))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `{...}` entries of the `key` array of `BENCHMARK.json`.
    fn entries<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let body = &json[json.find(&format!("\"{key}\"")).expect("key present")..];
        body[..body.find(']').expect("array closes")]
            .split('{')
            .skip(1)
            .collect()
    }

    /// The string value of field `f` of one entry.
    fn field(entry: &str, f: &str) -> String {
        let at = entry.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
        entry[at..]
            .split('"')
            .next()
            .unwrap_or_default()
            .to_string()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = |key: &str| -> Vec<(String, String)> {
            entries(&json, key)
                .iter()
                .map(|e| (field(e, "name"), field(e, "unit")))
                .collect()
        };
        let own = |v: Vec<(&str, &str)>| -> Vec<(String, String)> {
            v.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            declared("end_to_end"),
            own(END_TO_END
                .iter()
                .filter(|m| m.3)
                .map(|&(n, _, u, _)| (n, u))
                .collect())
        );
        assert_eq!(declared("per_layer"), own(layers::PER_LAYER.to_vec()));
        for e in entries(&json, "workloads") {
            assert!(Workload::parse(&field(e, "name")).is_some(), "{e}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string()));
        let a = args(&[
            "--workload",
            "paging",
            "--seed",
            "4",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Paging, 4, 2, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "paging", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }
}
