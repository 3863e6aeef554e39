//! Property tests: the parallel batch query paths vs a sequential oracle.
//!
//! `par_batch_knn` / `par_batch_box_count` / `par_batch_box_fetch` /
//! `par_batch_contains` execute on the real work-stealing pool; each
//! property compares them against a brute-force scan of the input multiset
//! under all three metrics. Inputs are drawn from a tiny coordinate cube so
//! duplicate points are common, and `k` ranges past the tree size — the two
//! edge cases where a wrong tie rule or off-by-one would hide.
//!
//! The PIM index's batch kNN sits beside them: its ball phase hands one
//! collected point set to every query of a run, and the tiny cube makes
//! runs of every shape — identical queries, neighbours whose balls nearly
//! coincide, universe balls once `k` passes the tree size.
//!
//! The CI matrix runs this file under `RAYON_NUM_THREADS` 1 and 4, so the
//! oracle equality is itself checked under two schedules.

mod common;

use common::{aabb_from, knn_copies, knn_distinct, tiny_point, tiny_points};
use pim_geom::{Aabb, Metric};
use pim_zd_tree_repro::{MachineConfig, PimZdConfig, PimZdTree};
use pim_zdtree_base::ZdTree;
use proptest::prelude::*;

const METRICS: [Metric; 3] = [Metric::L1, Metric::L2, Metric::Linf];

/// Side of the cube the inputs are drawn from: in 8×8×8, collisions
/// (duplicates) arrive quickly.
const CUBE: u32 = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel batch kNN ≡ brute force, all metrics, k from 0 past |tree|.
    #[test]
    fn par_batch_knn_matches_brute_force(
        data in tiny_points(CUBE, 40),
        queries in tiny_points(CUBE, 6),
        k in 0usize..64,
        leaf_cap in 1usize..6,
    ) {
        let tree = ZdTree::build(&data, leaf_cap);
        prop_assert_eq!(tree.len(), data.len());
        for metric in METRICS {
            let got = tree.par_batch_knn(&queries, k, metric);
            for (q, res) in queries.iter().zip(&got) {
                let want = knn_copies(&data, q, k, metric);
                prop_assert_eq!(res.len(), want.len().min(k));
                prop_assert_eq!(res, &want, "kNN diverged under {:?}", metric);
            }
        }
    }

    /// PIM batch kNN ≡ brute force over the *distinct* stored points (its
    /// documented contract), whichever queries share a ball-phase run: both
    /// presets, with the coarse ℓ1 stage and with squared-ℓ2 radii.
    #[test]
    fn pim_batch_knn_matches_brute_force(
        data in tiny_points(CUBE, 60),
        queries in tiny_points(CUBE, 24),
        k in 0usize..64,
        skew in proptest::bool::ANY,
        coarse_fine in proptest::bool::ANY,
    ) {
        let mut cfg = if skew {
            PimZdConfig::skew_resistant(8)
        } else {
            PimZdConfig::throughput_optimized(data.len() as u64, 8)
        };
        cfg.toggles.coarse_fine_knn = coarse_fine;
        let mut tree = PimZdTree::build(&data, cfg, MachineConfig::with_modules(8));
        for metric in METRICS {
            let got = tree.batch_knn(&queries, k, metric);
            for (q, res) in queries.iter().zip(&got) {
                let want = knn_distinct(&data, q, k, metric);
                prop_assert_eq!(res, &want, "kNN diverged under {:?}", metric);
            }
        }
    }

    /// Parallel BoxCount and BoxFetch ≡ brute-force membership scans; fetch
    /// returns exactly the multiset the count claims.
    #[test]
    fn par_batch_box_queries_match_brute_force(
        data in tiny_points(CUBE, 48),
        corners in proptest::collection::vec((tiny_point(CUBE), tiny_point(CUBE)), 1..8),
        leaf_cap in 1usize..6,
    ) {
        let tree = ZdTree::build(&data, leaf_cap);
        let boxes: Vec<Aabb<3>> = corners.into_iter().map(|(a, b)| aabb_from(a, b)).collect();

        let counts = tree.par_batch_box_count(&boxes);
        let fetched = tree.par_batch_box_fetch(&boxes);
        prop_assert_eq!(counts.len(), boxes.len());
        prop_assert_eq!(fetched.len(), boxes.len());

        for ((b, count), hits) in boxes.iter().zip(&counts).zip(&fetched) {
            let want_count = data.iter().filter(|p| b.contains(p)).count() as u64;
            prop_assert_eq!(*count, want_count);
            prop_assert_eq!(hits.len() as u64, want_count, "fetch disagrees with count");
            // Compare as multisets: the tree returns Morton order, the
            // oracle input order.
            let mut got: Vec<[u32; 3]> = hits.iter().map(|p| p.coords).collect();
            let mut want: Vec<[u32; 3]> =
                data.iter().filter(|p| b.contains(p)).map(|p| p.coords).collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    /// Parallel membership ≡ linear scan, probing both present and absent
    /// points.
    #[test]
    fn par_batch_contains_matches_brute_force(
        data in tiny_points(CUBE, 40),
        probes in tiny_points(CUBE, 20),
        leaf_cap in 1usize..6,
    ) {
        let tree = ZdTree::build(&data, leaf_cap);
        let got = tree.par_batch_contains(&probes);
        for (p, present) in probes.iter().zip(&got) {
            prop_assert_eq!(*present, data.contains(p));
        }
    }
}
