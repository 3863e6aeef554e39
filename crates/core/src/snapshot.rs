//! Epoch-pinned snapshot reads: a consistent frozen view of the tree.
//!
//! The index's `epoch` counter (see [`PimZdTree::epoch`]) advances only at
//! mutation-batch boundaries, so the state *between* two write batches is a
//! well-defined consistent view. A [`TreeSnapshot`] is that view: a **fork**
//! of the tree that shares its structure with the live tree and serves the
//! four read operations while the live tree moves on.
//!
//! This is what lets the serving layer (`pim-serve`) pipeline reads against
//! an in-flight write batch: before a write batch is applied, the server
//! forks the tree; read batches that are dispatched while the write's BSP
//! rounds are (virtually) in flight run against the fork and observe
//! **exactly** the pre-batch epoch — never a half-applied batch, never the
//! new epoch early. ARCHITECTURE.md §8 describes the full read/write
//! pipeline.
//!
//! # What a fork shares, copies and leaves behind
//!
//! * **Shared, copied on first write** — every module's master and cache
//!   fragments (`Arc<Fragment>`, granularity one fragment: a write batch
//!   after a fork path-copies the fragments it touches and nothing else)
//!   and the warm LLC model of the host meter (chunks of 64 sets, frozen
//!   behind `Arc`s by the fork: either side copies the chunks it touches).
//! * **Copied** — the host-resident L0 fragment, the meta-node directory,
//!   and the simulator's counters, so the fork's rounds continue the
//!   numbering from the capture point.
//! * **Left behind** — the round journal, metrics handle, fault plan, phase
//!   stack and WAL are attachments of the live tree; the fork has none, so
//!   its rounds are never journaled or published and using it never
//!   perturbs the live tree's observability artifacts.
//!
//! A fork is observably the tree that
//! `restore_bytes(&checkpoint_bytes())` would build — same results, same
//! `OpStats` bit for bit, same round ids, same checkpoint afterwards
//! (`tests/snapshot_fork.rs`) — at a cost proportional to the number of
//! fragments and directory entries rather than to the resident points.
//! Checkpoint images (`PZDCKPT1`, ARCHITECTURE.md §7) are a durability
//! mechanism only; [`TreeSnapshot::from_image`] remains for a caller that
//! holds one.
//!
//! # Determinism
//!
//! Sharing is invisible to both sides, so snapshot query results are as
//! deterministic as live-tree results.

use crate::host::{HostState, PimZdTree};
use crate::index::BatchRead;
use crate::{DurabilityError, OpStats};
use pim_geom::{Aabb, Metric, Point};

/// A read-only view of the tree pinned at one epoch.
///
/// Obtained from [`PimZdTree::snapshot`] (or [`TreeSnapshot::from_image`]
/// when the caller already holds checkpoint bytes). The four read
/// operations are its [`BatchRead`] impl and nothing else: there is no way
/// to write through a snapshot. They take `&mut self` because the
/// snapshot's own machine still meters simulated work, but the *logical*
/// contents never change: every query answers against the state frozen at
/// [`Self::epoch`].
pub struct TreeSnapshot<const D: usize> {
    tree: PimZdTree<D>,
}

impl<const D: usize> PimZdTree<D> {
    /// Forks a snapshot of the current (post-last-batch) state. The result
    /// is pinned at [`Self::epoch`] and unaffected by any later mutation of
    /// `self`; it is the tree `restore_bytes(&self.checkpoint_bytes())`
    /// would build, without serializing anything (see the module docs for
    /// what is shared and what is left behind).
    pub fn snapshot(&self) -> TreeSnapshot<D> {
        TreeSnapshot {
            tree: PimZdTree::assemble(
                self.cfg,
                self.sys.fork(),
                self.l0.clone(),
                self.dir.clone(),
                self.meter.clone(),
                HostState {
                    epoch: self.epoch,
                    n_points: self.n_points,
                    staging_next: self.staging_next,
                    l0_replicated: self.l0_replicated,
                },
            ),
        }
    }
}

impl<const D: usize> TreeSnapshot<D> {
    /// Materializes a snapshot from a checkpoint image (the bytes of
    /// [`PimZdTree::checkpoint_bytes`]). Fails exactly when a restore of the
    /// same image would fail.
    pub fn from_image(bytes: &[u8]) -> Result<Self, DurabilityError> {
        Ok(Self { tree: PimZdTree::restore_bytes(bytes)? })
    }

    /// Serializes the frozen view as a checkpoint image (see
    /// [`PimZdTree::checkpoint_bytes`]) — how to persist a consistent epoch
    /// while the live tree keeps applying batches.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        self.tree.checkpoint_bytes()
    }

    /// The epoch this snapshot is pinned at: the number of mutation batches
    /// the captured tree had applied.
    pub fn epoch(&self) -> u64 {
        self.tree.epoch()
    }

    /// Number of points in the frozen view (inherent as well as in
    /// [`BatchRead`]: `benchmark/` sizes a fork with it, without the trait).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the frozen view is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The id the snapshot machine's next accounted BSP round will carry.
    /// A fork (like a checkpoint image) keeps the round counter, so a
    /// snapshot's ids continue from the capture point and may collide with
    /// later ids of the live tree — consumers must key snapshot ranges
    /// separately (the serving tracer's `snapshot` flag).
    pub fn next_round_id(&self) -> u64 {
        self.tree.next_round_id()
    }
}

/// The read operations against the frozen view (same contracts as the live
/// tree's; the stats are what the serving layer schedules completions from).
impl<const D: usize> BatchRead<D> for TreeSnapshot<D> {
    fn batch_contains(&mut self, pts: &[Point<D>]) -> Vec<bool> {
        self.tree.batch_contains(pts)
    }

    fn batch_knn(
        &mut self,
        queries: &[Point<D>],
        k: usize,
        metric: Metric,
    ) -> Vec<Vec<(u64, Point<D>)>> {
        self.tree.batch_knn(queries, k, metric)
    }

    fn batch_box_count(&mut self, queries: &[Aabb<D>]) -> Vec<u64> {
        self.tree.batch_box_count(queries)
    }

    fn batch_box_fetch(&mut self, queries: &[Aabb<D>]) -> Vec<Vec<Point<D>>> {
        self.tree.batch_box_fetch(queries)
    }

    fn last_op_stats(&self) -> &OpStats {
        self.tree.last_op_stats()
    }

    fn len(&self) -> usize {
        self.tree.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::MachineConfig;

    fn pts(n: u32, salt: u32) -> Vec<Point<3>> {
        (0..n)
            .map(|i| {
                let j = i.wrapping_mul(2654435761).wrapping_add(salt);
                Point::new([j % 2048, (j / 7) % 2048, (j / 31) % 2048])
            })
            .collect()
    }

    #[test]
    fn snapshot_is_pinned_while_the_live_tree_moves() {
        let data = pts(3_000, 1);
        let cfg = crate::PimZdConfig::throughput_optimized(3_000, 16);
        let mut t = PimZdTree::build(&data, cfg, MachineConfig::with_modules(16));
        let epoch0 = t.epoch();
        let mut snap = t.snapshot();
        assert_eq!(snap.epoch(), epoch0);
        assert_eq!(snap.len(), t.len());

        // Mutate the live tree: insert fresh points well away from the data.
        let fresh: Vec<Point<3>> = (0..64u32).map(|i| Point::new([4000 + i, 4000, 4000])).collect();
        t.batch_insert(&fresh);
        assert_eq!(t.epoch(), epoch0 + 1);

        // The live tree sees them; the snapshot does not.
        assert!(t.batch_contains(&fresh).iter().all(|&b| b));
        assert!(snap.batch_contains(&fresh).iter().all(|&b| !b));
        assert_eq!(snap.epoch(), epoch0, "snapshot epoch never moves");
        assert_eq!(snap.len(), 3_000);
    }

    #[test]
    fn snapshot_reads_match_the_pre_mutation_tree() {
        let data = pts(2_000, 9);
        let cfg = crate::PimZdConfig::skew_resistant(16);
        let mut t = PimZdTree::build(&data, cfg, MachineConfig::with_modules(16));
        let image = t.checkpoint_bytes();
        let probes: Vec<Point<3>> = data.iter().step_by(37).copied().collect();

        // Answers from the live tree before mutation...
        let live_knn = t.batch_knn(&probes[..20], 5, Metric::L2);
        let live_contains = t.batch_contains(&probes);

        // ...mutate, then ask the snapshot.
        t.batch_delete(&data[..500]);
        let mut snap = TreeSnapshot::from_image(&image).unwrap();
        assert_eq!(snap.batch_knn(&probes[..20], 5, Metric::L2), live_knn);
        assert_eq!(snap.batch_contains(&probes), live_contains);
    }

    /// Counts the live tree's module-store entries, an entry being one
    /// `(module, store, meta)`: all of them, those no longer sharing their
    /// fragment with the snapshot, and those whose fragment differs from the
    /// snapshot's (or is new) — the ones a write actually touched.
    fn sharing(live: &PimZdTree<3>, snap: &TreeSnapshot<3>) -> (usize, usize, usize) {
        let (mut total, mut unshared, mut touched) = (0, 0, 0);
        for m in 0..live.n_modules() {
            let (l, s) = (live.sys.peek(m), snap.tree.sys.peek(m));
            for (ours, theirs) in [(&l.masters, &s.masters), (&l.caches, &s.caches)] {
                for (meta, f) in ours {
                    let old = theirs.get(meta);
                    total += 1;
                    unshared += old.is_none_or(|g| !std::sync::Arc::ptr_eq(f, g)) as usize;
                    touched += old.is_none_or(|g| format!("{g:?}") != format!("{f:?}")) as usize;
                }
            }
        }
        (total, unshared, touched)
    }

    #[test]
    fn a_write_batch_unshares_only_the_fragments_it_touches() {
        for cfg in [
            crate::PimZdConfig::throughput_optimized(20_000, 16),
            crate::PimZdConfig::skew_resistant(16),
        ] {
            let data = pts(20_000, 5);
            let mut t = PimZdTree::build(&data, cfg, MachineConfig::with_modules(16));
            let snap = t.snapshot();
            let (total, unshared, _) = sharing(&t, &snap);
            assert_eq!(unshared, 0, "a fork shares every fragment");

            // k clustered inserts and k scattered deletes: each point lands
            // in one leaf fragment, and batches this small cross no
            // maintenance threshold.
            let k = 8usize;
            let fresh: Vec<Point<3>> =
                (0..k as u32).map(|i| Point::new([700 + i, 700, 700])).collect();
            t.batch_insert(&fresh);
            assert_eq!(t.batch_delete(&data[..k]), k);

            let (now, unshared, touched) = sharing(&t, &snap);
            assert_eq!(now, total, "no fragment was created or dissolved");
            assert_eq!(unshared, touched, "a fragment is copied exactly when it is written");
            assert!((1..=2 * k).contains(&unshared), "{unshared} of {total} entries copied");
            assert!(unshared < total);
        }
    }
}
