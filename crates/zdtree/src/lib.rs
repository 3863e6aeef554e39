//! Shared-memory parallel batch-dynamic zd-tree (the baseline of \[12\] and
//! the correctness oracle for the PIM index).
//!
//! The zd-tree (§2.3) is a *compressed radix tree over Morton keys*: empty
//! leaves are omitted and single-child paths are contracted, so every
//! internal node has exactly two children and the structure is uniquely
//! determined by the key set (history-independent). A leaf holds up to
//! `leaf_cap` points (more only when forced by duplicate keys, which cannot
//! be split).
//!
//! Operations are *batch*-oriented, matching the paper's evaluation
//! protocol: `build`, `batch_insert`, `batch_delete`, `batch_knn`,
//! `batch_box_count`, `batch_box_fetch`. Construction parallelizes with
//! rayon; measured query/update paths are instrumented through a
//! [`pim_memsim::CpuMeter`] so every node visit charges cycles and memory
//! touches — that is how this baseline's Fig. 5 throughput and traffic
//! numbers are produced.
//!
//! The instrumentation itself — arena, charges, kNN and range walks, batch
//! wrappers ([`engine`]) and the cycle table they charge from ([`costs`]) —
//! is shared with the Pkd-tree baseline, which builds on this crate.

pub mod costs;
pub mod engine;
pub mod node;
pub mod query;
pub mod tree;
pub mod update;

pub use node::{Node, NodeKind};
pub use tree::ZdTree;
