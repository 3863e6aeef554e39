//! # pim-serve — the online serving layer for PIM-zd-tree
//!
//! The index's batched operations want *big* batches (a BSP round has a
//! fixed setup cost to amortize), but an online service receives requests
//! one at a time and is judged on tail latency. This crate bridges the two:
//! a request front-end that accumulates a concurrent stream of
//! inserts/deletes/kNN/box queries into batches under a latency budget,
//! pipelines batch formation against the in-flight BSP round, and serves
//! reads from epoch-pinned snapshots while a write batch is in flight.
//!
//! Four pieces:
//!
//! * [`BatchPolicy`] / [`ThroughputEstimator`] — when to seal a batch: on
//!   latency-budget expiry, or when the batch reaches the size a recent
//!   throughput fit says saturates a round.
//! * [`PimServer`] — the virtual-time event loop: admission control with
//!   bounded-queue backpressure, one write lane + one read lane, snapshot
//!   reads ([`pim_zd_tree::TreeSnapshot`]) for read/write pipelining.
//! * [`ServeReport`] — canonical run artifacts, all byte-comparable: one
//!   [`Reply`] per request and one [`BatchTrace`] per executed batch (the
//!   batch journal) — the run's only records — plus latency samples and
//!   simulated-cost totals.
//! * [`trace`] — causal request tracing, a view of those records
//!   ([`ServeTrace::of`], kept per run after [`PimServer::set_tracing`]):
//!   per-request phase spans that sum exactly to the reply latency, batch →
//!   BSP-round links, a Perfetto-loadable trace-event export, and the
//!   `spans.jsonl` reader. See ARCHITECTURE.md §9.
//!
//! # Determinism
//!
//! Everything is simulated in **virtual time**; wall clock and host thread
//! count never enter the model. Given a recorded
//! [`ArrivalTrace`](pim_workloads::ArrivalTrace) and a seed, results,
//! journals, and metrics snapshots are byte-reproducible at any thread
//! count (`tests/serving_determinism.rs`). Closed-loop runs *record* the
//! trace they induced, so any interactive experiment can be replayed
//! exactly. ARCHITECTURE.md §8 documents the design.
//!
//! ```
//! use pim_serve::{PimServer, ServeConfig};
//! use pim_sim::MachineConfig;
//! use pim_workloads::{open_loop_trace, uniform, RequestMix};
//! use pim_zd_tree::{PimZdConfig, PimZdTree};
//!
//! let data = uniform::<3>(2_000, 42);
//! let tree = PimZdTree::build(
//!     &data,
//!     PimZdConfig::throughput_optimized(2_000, 16),
//!     MachineConfig::with_modules(16),
//! );
//! let trace = open_loop_trace(&data, 200, 20_000.0, &RequestMix::read_heavy(), 7);
//! let mut server = PimServer::new(tree, ServeConfig::default());
//! let report = server.run_trace(&trace);
//! assert_eq!(report.replies.len(), trace.len());
//! assert!(report.latency_us(None).quantile(0.99) >= report.latency_us(None).quantile(0.5));
//! ```

#![deny(missing_docs)]

pub mod policy;
pub mod report;
pub mod server;
pub mod trace;

pub use pim_sim::wire::{fnv_fold, FNV_OFFSET};
pub use policy::{BatchPolicy, ThroughputEstimator};
pub use report::{Reply, SealReason, ServeReport, Totals};
pub use server::{ClassKey, ClosedLoop, PimServer, ServeConfig};
pub use trace::{split_service_us, BatchTrace, RequestTrace, ServeTrace, TraceId};
