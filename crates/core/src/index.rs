//! One batch surface: the paper's six batch operations (Alg. 1–3, §4.4) as
//! two traits, so a consumer is written once and runs on every composition
//! of the index.
//!
//! * [`BatchRead`] — `SEARCH`, `kNN`, `BoxCount`, `BoxFetch`, plus the two
//!   things every consumer asks afterwards: what the batch cost
//!   ([`OpStats`]) and how many points are stored.
//! * [`BatchIndex`] — a [`BatchRead`] that also takes `INSERT` and `DELETE`.
//!
//! [`PimZdTree`] and [`ShardedZdTree`] implement both;
//! [`TreeSnapshot`](crate::TreeSnapshot) implements [`BatchRead`] only,
//! which is how "a snapshot is read-only" stays a property of the type. The
//! serving layer's read lane, the bench harness's `run_cell` (where the
//! shared-memory baselines join through an adaptor) and the edge-case
//! suites (`tests/empty_tree.rs`, `tests/properties.rs`) are the consumers.
//!
//! What is deliberately **not** here: `epoch`, `snapshot()` and the
//! round-id hook. They belong to the one composition the server fronts
//! today and are read where that target is chosen; they join the surface
//! when a second served composition (shards) needs them. The inherent
//! methods of the live trees stay — the traits forward to them — because
//! most callers hold a concrete tree and should not need an import to use
//! it.

use crate::host::PimZdTree;
use crate::shard::ShardedZdTree;
use crate::stats::OpStats;
use pim_geom::{Aabb, Metric, Point};

/// The read half of the batch surface. Methods take `&mut self` because
/// even a read runs simulated rounds and refreshes the stats.
pub trait BatchRead<const D: usize> {
    /// Batched point membership (`SEARCH`), one flag per query.
    fn batch_contains(&mut self, pts: &[Point<D>]) -> Vec<bool>;

    /// Exact batched kNN: per query ≤ `k` distinct `(comparable distance,
    /// point)` pairs sorted by `(distance, coords)`.
    fn batch_knn(
        &mut self,
        queries: &[Point<D>],
        k: usize,
        metric: Metric,
    ) -> Vec<Vec<(u64, Point<D>)>>;

    /// Batched orthogonal range count.
    fn batch_box_count(&mut self, queries: &[Aabb<D>]) -> Vec<u64>;

    /// Batched orthogonal range fetch (order within a result unspecified).
    fn batch_box_fetch(&mut self, queries: &[Aabb<D>]) -> Vec<Vec<Point<D>>>;

    /// Statistics of the most recent non-empty batch.
    fn last_op_stats(&self) -> &OpStats;

    /// Number of stored points (multiset size).
    fn len(&self) -> usize;

    /// Whether nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The full batch surface: reads plus the two batch-dynamic updates.
pub trait BatchIndex<const D: usize>: BatchRead<D> {
    /// Inserts a batch of points (multiset semantics).
    fn batch_insert(&mut self, points: &[Point<D>]);

    /// Deletes one stored instance per request point, returning how many
    /// were removed.
    fn batch_delete(&mut self, points: &[Point<D>]) -> usize;
}

/// Both traits for a live tree, forwarding to its inherent methods.
macro_rules! forward_to_inherent {
    ($tree:ident) => {
        impl<const D: usize> BatchRead<D> for $tree<D> {
            fn batch_contains(&mut self, pts: &[Point<D>]) -> Vec<bool> {
                $tree::batch_contains(self, pts)
            }
            fn batch_knn(
                &mut self,
                queries: &[Point<D>],
                k: usize,
                metric: Metric,
            ) -> Vec<Vec<(u64, Point<D>)>> {
                $tree::batch_knn(self, queries, k, metric)
            }
            fn batch_box_count(&mut self, queries: &[Aabb<D>]) -> Vec<u64> {
                $tree::batch_box_count(self, queries)
            }
            fn batch_box_fetch(&mut self, queries: &[Aabb<D>]) -> Vec<Vec<Point<D>>> {
                $tree::batch_box_fetch(self, queries)
            }
            fn last_op_stats(&self) -> &OpStats {
                $tree::last_op_stats(self)
            }
            fn len(&self) -> usize {
                $tree::len(self)
            }
        }

        impl<const D: usize> BatchIndex<D> for $tree<D> {
            fn batch_insert(&mut self, points: &[Point<D>]) {
                $tree::batch_insert(self, points)
            }
            fn batch_delete(&mut self, points: &[Point<D>]) -> usize {
                $tree::batch_delete(self, points)
            }
        }
    };
}

forward_to_inherent!(PimZdTree);
forward_to_inherent!(ShardedZdTree);
