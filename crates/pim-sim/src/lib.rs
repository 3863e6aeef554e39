//! A deterministic UPMEM-class BLIMP machine simulator.
//!
//! This crate is the substitute for the paper's real PIM server (see
//! DESIGN.md §1). It implements the PIM Model of \[47\] — the abstraction the
//! paper's own analysis is written in — plus the two practical effects the
//! paper highlights beyond the model:
//!
//! * **BSP rounds with mux-switch overhead** (§2.2, §7.2): every round pays a
//!   fixed latency for switching MRAM control between the CPU and PIM cores.
//! * **Per-transfer SDK call overhead vs the Direct API** (§6): each
//!   module-targeted transfer in a round costs a per-call CPU-side overhead,
//!   with the Direct Interface reducing it by an order of magnitude.
//!
//! The machine consists of `P` modules, each owning arbitrary Rust state
//! (`M`) standing in for its local memory, and a weak core modeled by a
//! cycle meter ([`ctx::PimCtx`]) with UPMEM's published instruction costs
//! (1-cycle word ops, 32-cycle multiply/divide \[37\]). Rounds execute the
//! per-module handlers in parallel with rayon — the simulation is parallel,
//! but all *accounting* is deterministic: byte counts and cycle counts do
//! not depend on host thread scheduling.
//!
//! Simulated time decomposes exactly the way the paper's Fig. 6 does:
//! CPU time (charged by the host algorithm through `pim_memsim::CpuMeter`),
//! PIM time (max per-module core time per round), and communication time
//! (channel transfer + mux/call overheads).

#![deny(missing_docs)]

pub mod config;
pub mod ctx;
pub mod energy;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod placement;
pub mod stats;
pub mod system;
pub mod trace;
pub mod wire;

pub use config::MachineConfig;
pub use ctx::PimCtx;
pub use energy::{EnergyEstimate, EnergyModel};
pub use fault::{FaultConfig, FaultEvent, FaultKind, FaultPlan};
pub use metrics::{log2_bucket, quantile_sorted, Histogram, Metrics, MetricsRegistry, Samples};
pub use placement::{hash_place, rendezvous_owner};
pub use stats::{RoundBreakdown, SimStats};
pub use system::{PimSystem, SimCounters};
pub use trace::{Journal, RoundKind, RoundRecord};
pub use wire::{checksum_bytes, Wire};
