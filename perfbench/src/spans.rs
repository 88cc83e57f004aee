//! Host-clock spans recorded from the benchmark's own code: one span per
//! step, and one per call into a kernel layer's public function, named
//! `layer.call` and parented to its step. Spans stay in memory until the
//! run ends; when tracing is off, [`Spans::call`] is a plain call.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the span that brackets one step. Its self time is the
/// benchmark's own work: generation lookups and read-back checks.
pub const STEP: &str = "bench.step";

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`, or [`STEP`].
    pub name: &'static str,
    /// The step this span belongs to (unique across CPUs).
    pub step: u64,
    /// Index of the parent span in the same log (`None` for a step).
    pub parent: Option<usize>,
    /// Host nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// See [`Span::start_ns`].
    pub end_ns: u64,
}

impl Span {
    /// Host duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the part of the name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One CPU thread's span log.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    next_step: u64,
    open: Option<usize>,
    /// Closed spans, in close order of steps (calls precede their step).
    pub spans: Vec<Span>,
}

impl Spans {
    /// A log for CPU `cpu`; records nothing unless `on`.
    pub fn new(on: bool, epoch: Instant, cpu: usize) -> Spans {
        Spans {
            on,
            epoch,
            next_step: (cpu as u64) << 32,
            open: None,
            spans: Vec::new(),
        }
    }

    /// Whether this log records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a step span.
    pub fn begin_step(&mut self) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name: STEP,
            step: self.next_step,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.open = Some(self.spans.len() - 1);
    }

    /// Close the open step span.
    pub fn end_step(&mut self) {
        if let Some(i) = self.open.take() {
            self.spans[i].end_ns = self.now();
            self.next_step += 1;
        }
    }

    /// Run `f`, recording it as a span named `name` under the open step.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            step: self.next_step,
            parent: self.open,
            start_ns,
            end_ns,
        });
        r
    }
}

/// Per-layer `(self ns, span count)`. A span's self time is its duration
/// minus its children's; calls never nest, so only steps have children.
pub fn self_time_by_layer(logs: &[&[Span]]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for spans in logs {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        for (s, children) in spans.iter().zip(child_ns) {
            let e = out.entry(s.layer()).or_default();
            e.0 += s.ns().saturating_sub(children);
            e.1 += 1;
        }
    }
    out
}

/// Ascending host durations (ns) of every span named `name`.
pub fn durations(logs: &[&[Span]], name: &str) -> Vec<u64> {
    let mut v: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.iter())
        .filter(|s| s.name == name)
        .map(Span::ns)
        .collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_are_parented_to_their_step_and_self_time_subtracts_children() {
        let mut log = Spans::new(true, Instant::now(), 1);
        log.begin_step();
        log.call("task.fork", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.call("task.user", || ());
        log.end_step();
        log.begin_step();
        log.end_step();
        let s = &log.spans;
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert_eq!(s[0].step, 1 << 32);
        assert_eq!(s[3].step, (1 << 32) + 1);
        let by = self_time_by_layer(&[s]);
        assert_eq!(by["task"].1, 2);
        assert_eq!(by["bench"].1, 2);
        let step_self = s[0].ns() - s[1].ns() - s[2].ns();
        assert_eq!(by["bench"].0, step_self + s[3].ns());
        assert!(by["task"].0 >= 2_000_000);
        assert_eq!(durations(&[s], "task.fork").len(), 1);
    }

    #[test]
    fn a_log_that_is_off_records_nothing() {
        let mut log = Spans::new(false, Instant::now(), 0);
        log.begin_step();
        assert_eq!(log.call("map.allocate", || 5), 5);
        log.end_step();
        assert!(log.spans.is_empty());
    }
}
