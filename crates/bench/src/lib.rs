//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§7) on the simulated machine.
//!
//! Each figure/table has a binary in `src/bin/` (see DESIGN.md §2 for the
//! index). This library holds what they share: dataset construction with
//! the paper's warmup/test protocol, one path from a built index to a
//! report row (`harness::run_cell`, `PerfSink::attach`, `PerfSink::push`),
//! and table-formatted reporting.
//!
//! Scales are reduced from the paper's 300 M-point warmups to simulator-
//! friendly sizes (see DESIGN.md substitution 3); every binary accepts
//! `--points N`, `--batch N`, and `--modules P` to re-scale.

pub mod args;
pub mod datasets;
pub mod harness;
pub mod perf;
pub mod report;
pub mod tail;
pub mod trace_events;
pub mod trace_report;

pub use args::BenchArgs;
pub use datasets::Dataset;
pub use harness::OpKind;
pub use perf::PerfSink;
