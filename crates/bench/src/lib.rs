//! # mach-bench — regenerating the paper's evaluation
//!
//! Workload generators and measurement plumbing for every exhibit of the
//! ASPLOS 1987 Mach VM paper:
//!
//! - [`workloads`] reproduces **Table 7-1** (zero fill, fork 256K, file
//!   reads first/second time) and **Table 7-2** (compilation suites under
//!   two buffer-cache configurations), running each operation under both
//!   the Mach kernel (`mach-vm`) and the 4.3bsd baseline (`mach-unix`) on
//!   the same simulated hardware;
//! - [`ablate`] turns the qualitative claims of **Section 5** into
//!   measurements: RT PC alias evictions, SUN 3 context thrash, the
//!   NS32082 erratum workaround, VAX page-table space, TLB shootdown
//!   strategies, and shadow-chain collapse;
//! - [`measure`] and [`report`] convert charged cycles into the paper's
//!   system/elapsed presentation.
//!
//! The `tables` binary prints the reproduced tables:
//!
//! ```text
//! cargo run -p mach-bench --bin tables --release
//! ```
//!
//! and `bench_json` writes and gates the simulated-clock matrix
//! `BENCH_vm.json`. Host time is measured by the separate `perfbench`
//! package, so each clock has one harness.

pub mod ablate;
pub mod json;
pub mod measure;
pub mod replay;
pub mod report;
pub mod scenario;
pub mod workloads;

pub use measure::{measured, traced, SimTime};
