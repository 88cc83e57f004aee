//! Per-layer metrics of a traced run. Counters are read from each layer's
//! public statistics at the round's boundaries; host times come from the
//! benchmark's own spans around each layer call; simulated-cycle and
//! lock breakdowns come from the kernel's existing profiler, health,
//! lock-stat and trace sinks, switched on for traced rounds only.

use std::collections::BTreeMap;

use mach_vm::{LockSite, SpanKind};

use crate::host;
use crate::spans::{self, Span};
use crate::world::{CpuOutcome, World};

/// Every per-layer metric, with its unit, in report order. The layer is
/// the name's prefix: `machine` (crates/hw), `pmap` (crates/pmap),
/// `task`, `fault`, `map`, `object`, `page`, `pageout`, `fleet`
/// (crates/core), `fs` (crates/fs); `bench` and `trace` are the
/// benchmark's own. Counts are per round.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("machine.shootdown_timeouts", "count"),
    ("machine.ipis_sent", "count"),
    ("machine.ipis_handled", "count"),
    ("machine.tlb_hit_ratio", "ratio"),
    ("machine.tlb_flushed", "count"),
    ("pmap.enters", "count"),
    ("pmap.removes", "count"),
    ("pmap.protects", "count"),
    ("pmap.flush_rounds", "count"),
    ("pmap.flush_ipis", "count"),
    ("pmap.deferred_queued", "count"),
    ("pmap.context_steals", "count"),
    ("task.self_ms", "ms"),
    ("task.fork_calls", "count"),
    ("task.fork_host_us_p50", "us"),
    ("task.fork_host_us_tail", "us"),
    ("task.user_calls", "count"),
    ("task.user_host_us_p50", "us"),
    ("task.user_host_us_tail", "us"),
    ("task.drop_calls", "count"),
    ("fault.faults", "count"),
    ("fault.zero_fill", "count"),
    ("fault.cow", "count"),
    ("fault.resident_hits", "count"),
    ("fault.pageins", "count"),
    ("fault.failed", "count"),
    ("fault.host_ns_per_fault", "ns"),
    ("fault.map_lookup_self_cycles", "cycles"),
    ("fault.shadow_walk_self_cycles", "cycles"),
    ("fault.pager_wait_self_cycles", "cycles"),
    ("fault.zero_fill_self_cycles", "cycles"),
    ("fault.copy_self_cycles", "cycles"),
    ("fault.pmap_enter_self_cycles", "cycles"),
    ("map.self_ms", "ms"),
    ("map.alloc_calls", "count"),
    ("map.alloc_host_us_p50", "us"),
    ("map.dealloc_calls", "count"),
    ("map.dealloc_host_us_p50", "us"),
    ("map.hint_hit_ratio", "ratio"),
    ("object.self_ms", "ms"),
    ("object.collapses", "count"),
    ("object.bypasses", "count"),
    ("object.cache_hit_ratio", "ratio"),
    ("object.map_file_calls", "count"),
    ("object.map_file_host_us_p50", "us"),
    ("object.shadow_depth_p95", "count"),
    ("page.reactivations", "count"),
    ("page.free_min", "pages"),
    ("page.hash_contended", "count"),
    ("page.hash_wait_ns", "ns"),
    ("page.queue_contended", "count"),
    ("page.queue_wait_ns", "ns"),
    ("page.free_list_contended", "count"),
    ("page.free_list_wait_ns", "ns"),
    ("page.reserve_contended", "count"),
    ("page.reserve_wait_ns", "ns"),
    ("pageout.self_ms", "ms"),
    ("pageout.reclaim_calls", "count"),
    ("pageout.reclaim_host_us_p50", "us"),
    ("pageout.reclaim_host_us_tail", "us"),
    ("pageout.reclaimed_ratio", "ratio"),
    ("pageout.pageouts", "count"),
    ("pageout.failed_pageouts", "count"),
    ("fleet.served", "count"),
    ("fleet.queue_depth_hwm", "count"),
    ("fleet.throttles", "count"),
    ("fleet.rebinds", "count"),
    ("fleet.queue_wait_cycles", "cycles"),
    ("fleet.service_cycles", "cycles"),
    ("fs.block_reads", "count"),
    ("fs.block_writes", "count"),
    ("bench.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Named counters of every layer, read at one instant.
pub type Counters = Vec<(&'static str, u64)>;

/// Read every layer's counters.
pub fn counters(world: &World) -> Counters {
    let m = &world.machine;
    let s = world.kernel.statistics();
    let p = world.kernel.machdep().stats();
    let tlb = (0..m.n_cpus()).map(|i| m.cpu(i).tlb_stats());
    let (mut hits, mut misses, mut flushed) = (0, 0, 0);
    for t in tlb {
        hits += t.hits;
        misses += t.misses;
        flushed += t.flushed;
    }
    let relaxed = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    let dev = world.fs.device().stats();
    let served = world
        .kernel
        .fleet()
        .map_or(0, |f| (0..f.pagers()).map(|i| f.served(i)).sum());
    vec![
        (
            "machine.shootdown_timeouts",
            relaxed(&m.stats.shootdown_timeouts),
        ),
        ("machine.ipis_sent", relaxed(&m.stats.ipis_sent)),
        ("machine.ipis_handled", relaxed(&m.stats.ipis_handled)),
        ("machine.tlb_hits", hits),
        ("machine.tlb_misses", misses),
        ("machine.tlb_flushed", flushed),
        ("pmap.enters", p.enters),
        ("pmap.removes", p.removes),
        ("pmap.protects", p.protects),
        ("pmap.flush_rounds", p.flush_rounds),
        ("pmap.flush_ipis", p.flush_ipis),
        ("pmap.deferred_queued", p.deferred_queued),
        ("pmap.context_steals", p.context_steals),
        ("fault.faults", s.faults),
        ("fault.zero_fill", s.zero_fill_count),
        ("fault.cow", s.cow_faults),
        ("fault.resident_hits", s.resident_hits),
        ("fault.pageins", s.pageins),
        ("map.hint_hits", s.hint_hits),
        ("map.hint_misses", s.hint_misses),
        ("object.collapses", s.collapses),
        ("object.bypasses", s.bypasses),
        ("object.cache_hits", s.object_cache_hits),
        ("object.cache_misses", s.object_cache_misses),
        ("page.reactivations", s.reactivations),
        ("pageout.pageouts", s.pageouts),
        ("pageout.failed_pageouts", s.failed_pageouts),
        ("fleet.served", served),
        ("fleet.throttles", s.pager_throttles),
        ("fleet.rebinds", s.pager_rebinds),
        ("fs.block_reads", dev.reads),
        ("fs.block_writes", dev.writes),
    ]
}

/// `later - earlier`, counter by counter.
pub fn delta(earlier: &Counters, later: &Counters) -> Counters {
    earlier
        .iter()
        .zip(later)
        .map(|(&(n, a), &(_, b))| (n, b.saturating_sub(a)))
        .collect()
}

/// Switch on the kernel's existing observability sinks.
pub fn enable_sinks(world: &World) {
    let k = &world.kernel;
    k.enable_tracing(1 << 16);
    k.enable_profiling();
    k.enable_health();
    k.enable_lock_stats();
}

/// What a traced round's sinks recorded.
#[derive(Debug, Default)]
pub struct Sinks {
    /// Simulated self cycles by profiler span kind.
    self_cycles: BTreeMap<SpanKind, u64>,
    /// Shadow-chain depth, 95th percentile.
    shadow_depth_p95: u64,
    /// `(contended, wait ns)` by lock site.
    locks: BTreeMap<LockSite, (u64, u64)>,
    /// Causal pager-request chains: summed queue-wait and service cycles.
    queue_wait_cycles: u64,
    service_cycles: u64,
    /// Highest queue depth any fleet service saw.
    queue_depth_hwm: u64,
}

/// Read and switch off the sinks [`enable_sinks`] switched on.
pub fn read_sinks(world: &World) -> Sinks {
    let k = &world.kernel;
    let chains = k.trace_log().causal_breakdowns();
    let sinks = Sinks {
        self_cycles: k.profile_report().self_time_by_kind(),
        shadow_depth_p95: k.health_report().shadow_depth.percentile(0.95),
        locks: k
            .lock_report()
            .iter()
            .map(|r| (r.site, (r.contended, r.wait_ns_total)))
            .collect(),
        queue_wait_cycles: chains.iter().map(|c| c.queue_wait).sum(),
        service_cycles: chains.iter().map(|c| c.service_time).sum(),
        queue_depth_hwm: k.fleet().map_or(0, |f| {
            (0..f.pagers()).map(|i| f.depth_hwm(i)).max().unwrap_or(0)
        }),
    };
    k.disable_tracing();
    k.disable_profiling();
    k.disable_health();
    k.disable_lock_stats();
    sinks
}

/// One traced round's inputs to the per-layer report.
pub struct TracedRound<'a> {
    /// Counter deltas over the measured body.
    pub counters: &'a Counters,
    /// Per-CPU outcomes, spans included.
    pub cpus: &'a [CpuOutcome],
    /// Sink readings.
    pub sinks: &'a Sinks,
}

/// A per-layer metric value, with the base of a ratio or the percentile
/// of a tail spelled out.
pub struct Metric {
    /// Value.
    pub value: f64,
    /// Base or percentile, when the value alone does not say it.
    pub note: String,
}

/// Compute every [`PER_LAYER`] metric from the traced rounds. `overhead`
/// is the traced rounds' median wall time over the untraced rounds'.
pub fn metrics(rounds: &[TracedRound], overhead: f64) -> BTreeMap<&'static str, Metric> {
    let n = rounds.len().max(1) as f64;
    let mut sum: BTreeMap<&str, u64> = BTreeMap::new();
    for r in rounds {
        for &(name, v) in r.counters {
            *sum.entry(name).or_default() += v;
        }
    }
    let total = |name: &str| sum.get(name).copied().unwrap_or(0);
    let logs: Vec<&[Span]> = rounds
        .iter()
        .flat_map(|r| r.cpus.iter().map(|c| c.spans.as_slice()))
        .collect();
    let by_layer = spans::self_time_by_layer(&logs);

    let mut out: BTreeMap<&'static str, Metric> = BTreeMap::new();
    let mut put = |name: &'static str, value: f64, note: String| {
        out.insert(name, Metric { value, note });
    };
    let per_round = |v: u64| v as f64 / n;
    let ratio = |hits: u64, of: u64, what: &str| -> (f64, String) {
        let r = if of == 0 {
            0.0
        } else {
            hits as f64 / of as f64
        };
        (r, format!("{hits} {what} of {of}"))
    };

    // Plain counters, per round.
    for &(name, _) in PER_LAYER {
        if sum.contains_key(name) {
            put(name, per_round(total(name)), String::new());
        }
    }
    let hits = total("machine.tlb_hits");
    let (r, note) = ratio(hits, hits + total("machine.tlb_misses"), "hits, lookups");
    put("machine.tlb_hit_ratio", r, note);
    let hits = total("map.hint_hits");
    let (r, note) = ratio(hits, hits + total("map.hint_misses"), "hint hits, lookups");
    put("map.hint_hit_ratio", r, note);
    let hits = total("object.cache_hits");
    let (r, note) = ratio(
        hits,
        hits + total("object.cache_misses"),
        "cache hits, lookups",
    );
    put("object.cache_hit_ratio", r, note);
    let freed: u64 = rounds
        .iter()
        .flat_map(|r| r.cpus)
        .map(|c| c.reclaim_freed)
        .sum();
    let asked: u64 = rounds
        .iter()
        .flat_map(|r| r.cpus)
        .map(|c| c.reclaim_asked)
        .sum();
    let (r, note) = ratio(freed, asked, "pages freed, asked");
    put("pageout.reclaimed_ratio", r, note);

    // Host time per layer, from the spans.
    for (layer, name) in [
        ("task", "task.self_ms"),
        ("map", "map.self_ms"),
        ("object", "object.self_ms"),
        ("pageout", "pageout.self_ms"),
        ("bench", "bench.self_ms"),
    ] {
        let (ns, calls) = by_layer.get(layer).copied().unwrap_or((0, 0));
        put(name, ns as f64 / 1e6 / n, format!("{calls} spans"));
    }
    let mut latency =
        |call: &str, calls: &'static str, p50: &'static str, tail: Option<&'static str>| {
            let d = spans::durations(&logs, call);
            put(calls, d.len() as f64 / n, String::new());
            put(
                p50,
                host::percentile(&d, 50.0) as f64 / 1e3,
                format!("of {} calls", d.len()),
            );
            if let Some(tail_name) = tail {
                let t = host::tail(&d);
                let note = format!("p{} of {} calls, {} beyond", t.pct, d.len(), t.beyond);
                put(tail_name, t.value as f64 / 1e3, note);
            }
            d.iter().sum::<u64>()
        };
    latency(
        "task.fork",
        "task.fork_calls",
        "task.fork_host_us_p50",
        Some("task.fork_host_us_tail"),
    );
    let user_ns = latency(
        "task.user",
        "task.user_calls",
        "task.user_host_us_p50",
        Some("task.user_host_us_tail"),
    );
    latency(
        "map.allocate",
        "map.alloc_calls",
        "map.alloc_host_us_p50",
        None,
    );
    latency(
        "map.deallocate",
        "map.dealloc_calls",
        "map.dealloc_host_us_p50",
        None,
    );
    latency(
        "object.map_file",
        "object.map_file_calls",
        "object.map_file_host_us_p50",
        None,
    );
    latency(
        "pageout.reclaim",
        "pageout.reclaim_calls",
        "pageout.reclaim_host_us_p50",
        Some("pageout.reclaim_host_us_tail"),
    );
    let drops = spans::durations(&logs, "task.drop").len();
    put("task.drop_calls", drops as f64 / n, String::new());
    let faults = total("fault.faults");
    let per_fault = if faults == 0 {
        0.0
    } else {
        user_ns as f64 / faults as f64
    };
    put(
        "fault.host_ns_per_fault",
        per_fault,
        format!("{user_ns} ns in user() over {faults} faults"),
    );
    let failed: u64 = rounds
        .iter()
        .flat_map(|r| r.cpus)
        .map(|c| c.errors.values().sum::<u64>())
        .sum();
    put("fault.failed", per_round(failed), String::new());

    // Simulated cycles and structure health, from the kernel's sinks.
    for (kind, name) in [
        (SpanKind::MapLookup, "fault.map_lookup_self_cycles"),
        (SpanKind::ShadowWalk, "fault.shadow_walk_self_cycles"),
        (SpanKind::PagerWait, "fault.pager_wait_self_cycles"),
        (SpanKind::ZeroFill, "fault.zero_fill_self_cycles"),
        (SpanKind::Copy, "fault.copy_self_cycles"),
        (SpanKind::PmapEnter, "fault.pmap_enter_self_cycles"),
    ] {
        let c: u64 = rounds
            .iter()
            .map(|r| r.sinks.self_cycles.get(&kind).copied().unwrap_or(0))
            .sum();
        put(name, per_round(c), String::new());
    }
    let depths: Vec<f64> = rounds
        .iter()
        .map(|r| r.sinks.shadow_depth_p95 as f64)
        .collect();
    put(
        "object.shadow_depth_p95",
        host::median(&depths),
        "median over rounds".into(),
    );
    for (site, contended, wait) in [
        (
            LockSite::PageHashShard,
            "page.hash_contended",
            "page.hash_wait_ns",
        ),
        (
            LockSite::PageQueueShard,
            "page.queue_contended",
            "page.queue_wait_ns",
        ),
        (
            LockSite::FreeLocal,
            "page.free_list_contended",
            "page.free_list_wait_ns",
        ),
        (
            LockSite::FreeReserve,
            "page.reserve_contended",
            "page.reserve_wait_ns",
        ),
    ] {
        let (c, w) = rounds.iter().fold((0, 0), |(c, w), r| {
            let (dc, dw) = r.sinks.locks.get(&site).copied().unwrap_or((0, 0));
            (c + dc, w + dw)
        });
        put(contended, per_round(c), String::new());
        put(wait, per_round(w), String::new());
    }
    let free_min = rounds
        .iter()
        .flat_map(|r| r.cpus)
        .filter_map(|c| c.free_min)
        .min();
    put(
        "page.free_min",
        free_min.unwrap_or(0) as f64,
        "lowest at any step boundary".into(),
    );
    let qw: u64 = rounds.iter().map(|r| r.sinks.queue_wait_cycles).sum();
    let sv: u64 = rounds.iter().map(|r| r.sinks.service_cycles).sum();
    put("fleet.queue_wait_cycles", per_round(qw), String::new());
    put("fleet.service_cycles", per_round(sv), String::new());
    let hwm = rounds
        .iter()
        .map(|r| r.sinks.queue_depth_hwm)
        .max()
        .unwrap_or(0);
    put(
        "fleet.queue_depth_hwm",
        hwm as f64,
        "highest over rounds".into(),
    );

    put(
        "trace.overhead_ratio",
        overhead,
        "traced / untraced median wall - 1".into(),
    );
    put(
        "trace.spans",
        logs.iter().map(|l| l.len()).sum::<usize>() as f64 / n,
        String::new(),
    );
    out
}
