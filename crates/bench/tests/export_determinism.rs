//! CI gate for the Perfetto exporter: the same (seeded, single-CPU)
//! workload captured twice must render to **byte-identical** Chrome-trace
//! JSON, and that JSON must actually parse as a trace-event document —
//! valid enough for `chrome://tracing` / ui.perfetto.dev, checked with
//! the bench crate's own hand-rolled parser (`mach_bench::json`).

use mach_bench::json::{self, Json};
use mach_bench::workloads::fleet_refault_trace;
use mach_vm::chrome_trace_json;

/// The deterministic fleet refault workload, exported as Chrome-trace
/// JSON. Two captures produce identical logs and therefore identical
/// bytes.
fn export_once() -> String {
    let log = fleet_refault_trace();
    assert!(
        !log.causal_breakdowns().is_empty(),
        "the workload leaves causal chains to export"
    );
    chrome_trace_json(&log)
}

#[test]
fn export_is_byte_identical_across_regenerations() {
    let a = export_once();
    let b = export_once();
    assert_eq!(a.len(), b.len(), "regenerated export changed size");
    assert!(a == b, "regenerated export is not byte-identical");
}

#[test]
fn export_is_valid_chrome_trace_json() {
    let text = export_once();
    let doc = json::parse(&text).expect("export must parse as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut flows = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("event phase");
        assert!(
            matches!(ph, "X" | "M" | "s" | "f"),
            "unexpected phase {ph:?}"
        );
        for field in ["pid", "tid", "ts"] {
            assert!(
                e.get(field).and_then(Json::as_u64).is_some(),
                "event missing {field}: {e:?}"
            );
        }
        match ph {
            "X" => {
                assert!(e.get("dur").and_then(Json::as_u64).is_some());
            }
            "s" | "f" => {
                assert!(e.get("id").and_then(Json::as_u64).is_some());
                flows += 1;
            }
            _ => {}
        }
    }
    assert!(flows > 0, "causal flow arrows exported");
    // The two named processes are present.
    for name in ["kernel CPUs", "pager services"] {
        assert!(
            events.iter().any(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some(name)
            }),
            "missing process_name metadata {name:?}"
        );
    }
    // Every pager-track slice carries one of the four decomposition names.
    assert!(text.contains("\"queue_wait\"") && text.contains("\"service\""));
}
