//! Umbrella crate for the PIM-zd-tree reproduction workspace.
//!
//! Re-exports the public surface of every member crate so examples and
//! downstream users can depend on a single name. See the workspace README
//! for the architecture overview and DESIGN.md for the paper-to-code map.

pub use pim_geom as geom;
pub use pim_memsim as memsim;
pub use pim_pkdtree as pkdtree;
pub use pim_serve as serve;
pub use pim_sim as sim;
pub use pim_workloads as workloads;
pub use pim_zd_tree as index;
pub use pim_zdtree_base as zdtree;
pub use pim_zorder as zorder;

pub use pim_geom::{Aabb, Metric, Point};
pub use pim_sim::{FaultConfig, FaultPlan, MachineConfig, SimStats};
pub use pim_zd_tree::{BatchIndex, BatchRead};
pub use pim_zd_tree::{DurabilityError, PimZdConfig, PimZdTree, Wal, WalOp, WalReadMode};
pub use pim_zd_tree::{PlacementTable, ShardConfig, ShardedZdTree};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_builds_an_index() {
        let pts = workloads::uniform::<3>(500, 1);
        let cfg = PimZdConfig::throughput_optimized(500, 8);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(8));
        assert_eq!(t.len(), 500);
        let found = t.batch_contains(&pts[..10]);
        assert!(found.iter().all(|&f| f));
    }
}
