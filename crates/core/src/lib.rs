//! # PIM-zd-tree
//!
//! A tunable three-layer space-partitioning index for processing-in-memory
//! systems — the reproduction of the PPoPP'26 paper's primary contribution.
//!
//! The index maintains a batch-dynamic zd-tree (a compressed radix tree over
//! Morton keys) laid out across the modules of a BLIMP PIM machine:
//!
//! * **L0 (globally shared, §3.1)** — the top of the tree (subtree size
//!   ≥ θ_L0) lives host-side; when it outgrows the CPU cache its replication
//!   cost across all modules is accounted.
//! * **L1 (partially shared)** — subtree-size-chunked *meta-nodes* (§3.2)
//!   placed on hash-randomized master modules, with structure-only copies of
//!   ancestor/descendant meta-nodes cached alongside each master so searches
//!   cross all of L1 in one round.
//! * **L2 (exclusive)** — master-only meta-nodes near the leaves.
//!
//! Batched operations (`SEARCH`, `INSERT`, `DELETE`, `kNN`, `BoxCount`,
//! `BoxFetch`) run in BSP rounds over [`pim_sim::PimSystem`], using
//! **push-pull search** (§3.3) for load balance and **lazy counters** (§3.4)
//! for cheap approximate subtree sizes. Two presets reproduce the paper's
//! implementations: [`PimZdConfig::throughput_optimized`] and
//! [`PimZdConfig::skew_resistant`] (Table 2).
//!
//! ```
//! use pim_zd_tree::{PimZdConfig, PimZdTree};
//! use pim_sim::MachineConfig;
//! use pim_geom::{Metric, Point};
//!
//! let machine = MachineConfig::with_modules(16);
//! let cfg = PimZdConfig::throughput_optimized(1_000, 16);
//! let pts: Vec<Point<3>> = (0..1_000u32)
//!     .map(|i| Point::new([i * 97 % 2048, i * 31 % 2048, i * 7 % 2048]))
//!     .collect();
//! let mut index = PimZdTree::build(&pts, cfg, machine);
//! let knn = index.batch_knn(&[pts[0]], 3, Metric::L2);
//! assert_eq!(knn[0].len(), 3);
//! assert_eq!(knn[0][0].1, pts[0]);
//! ```

pub mod boxq;
pub mod build;
pub mod checkpoint;
pub mod codec;
pub mod config;
pub mod frag;
pub mod host;
pub mod index;
pub mod inline;
pub mod insert;
pub mod invariants;
pub mod knn;
pub mod meta;
pub mod module;
pub mod search;
pub mod shard;
pub mod snapshot;
pub mod soa;
pub mod stats;
pub mod wal;

mod traverse;

pub use checkpoint::DurabilityError;
pub use config::{Layer, PimZdConfig, Toggles};
pub use frag::{BKind, BNode, ChildRef, Fragment, MetaId, RemoteRef};
pub use host::PimZdTree;
pub use index::{BatchIndex, BatchRead};
pub use shard::{CellId, PlacementTable, ShardConfig, ShardOpStats, ShardedZdTree};
pub use snapshot::TreeSnapshot;
pub use soa::{CoordBlock, KBest, PointSet};
pub use stats::{OpBreakdown, OpStats};
pub use wal::{Wal, WalOp, WalReadMode, WalRecord};
