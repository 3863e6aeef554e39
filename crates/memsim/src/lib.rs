//! CPU memory-hierarchy model for the shared-memory side of the evaluation.
//!
//! The paper's Fig. 5 reports, for each index, both throughput and
//! *per-element memory traffic* — "the total memory-bus communication (in
//! bytes) incurred per returned element, including both CPU-DRAM and CPU-PIM
//! communication" (§7.1). The PIM side of that accounting lives in
//! `pim-sim`; this crate provides the CPU-DRAM side: a set-associative LRU
//! last-level cache ([`cache::CacheSim`]) and a time/traffic model
//! ([`cpu::CpuModel`]) that converts instrumented work (cycles) and memory
//! accesses (addresses) into simulated seconds and DRAM bytes.
//!
//! The baselines (`pim-zdtree-base`, `pim-pkdtree`) thread a [`cpu::CpuMeter`]
//! through their traversals; every node visit charges cycles and touches the
//! node's arena address, so cache locality differences between the indexes —
//! the very thing the paper's Fig. 5/8 traffic series measure — fall out of
//! the model instead of being assumed, at the cycle prices of [`costs`].

pub mod cache;
pub mod costs;
pub mod cpu;

pub use cache::{CacheConfig, CacheSim, CacheSnapshot, CacheWaySnapshot};
pub use cpu::{CpuConfig, CpuMeter, CpuModel, CpuStats, MeterSnapshot};
