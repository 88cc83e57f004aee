//! Perfetto export: capture a pager-fleet workload in the VM trace ring
//! and render it as Chrome trace-event JSON.
//!
//! Runs [`fleet_refault_trace`]: a kernel with a three-service pager
//! fleet drives a dirty → reclaim → refault workload so every refault
//! crosses a fleet port (minting a causal id and its enqueue/dequeue/
//! served/delivered/wake boundary stamps). The log is exported with
//! [`mach_vm::chrome_trace_json`]:
//!
//! ```text
//! cargo run --example perfetto_export -- trace.json
//! ```
//!
//! Load `trace.json` in `chrome://tracing` or <https://ui.perfetto.dev>:
//! process 0 has one track per simulated CPU with a slice per fault;
//! process 1 has one track per pager service with each request's
//! `queue_wait → service → transport → wake` decomposition, and flow
//! arrows tie every fault slice to the service that resolved it. With no
//! argument the JSON goes to stdout.
//!
//! The export is a pure function of the log and the workload is
//! single-CPU deterministic, so re-running this example produces a
//! byte-identical file (checked by `export_determinism` in
//! `crates/bench` and by the CI artifact job).

use mach_bench::workloads::fleet_refault_trace;
use mach_vm::chrome_trace_json;

fn main() {
    let out_path = std::env::args().nth(1);
    let log = fleet_refault_trace();

    let pairs = log.fault_pairs();
    let chains = log.causal_breakdowns();
    let json = chrome_trace_json(&log);
    eprintln!(
        "captured {} records: {} fault slices, {} causal chains, {} bytes of JSON",
        log.len(),
        pairs.len(),
        chains.len(),
        json.len()
    );
    assert!(
        !chains.is_empty(),
        "the refault workload crossed the fleet, so causal chains exist"
    );

    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("write trace file");
            eprintln!("wrote {path} — open it in chrome://tracing or ui.perfetto.dev");
        }
        None => print!("{json}"),
    }
}
