//! Shared-memory parallel kd-tree with batch updates — the **Pkd-tree**
//! baseline \[63\] of the paper's evaluation.
//!
//! Where the zd-tree partitions space at spatial medians (z-order bits), the
//! Pkd-tree uses *object-median* splits: each internal node splits its point
//! set in half along the widest dimension of its bounding box. Balance under
//! dynamic updates is maintained the way Pkd-tree does it — weight-balance
//! invariants with partial reconstruction of violating subtrees — rather
//! than by rotations.
//!
//! The arena, the [`pim_memsim::CpuMeter`] charges and the kNN / range
//! queries are not this crate's: they are the engine the zd-tree baseline
//! runs on too (`pim_zdtree_base::engine`), so the two baselines' Fig. 5
//! series come from the same cost model by construction.

pub mod query;
pub mod tree;
pub mod update;

pub use tree::{PkNode, PkNodeKind, PkdTree};
