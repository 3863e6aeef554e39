//! Oracle equivalence for the scale-out shard router (ARCHITECTURE.md §10).
//!
//! An N-shard [`ShardedZdTree`] must be observationally identical to one
//! [`PimZdTree`] holding the same multiset: sharding is a performance
//! topology, not a semantics change. Properties drive both against each
//! other *and* against a brute-force scan, under the two input families
//! where partitioned indexes classically break — duplicate-heavy tiny
//! cubes (points collide across shard boundaries, ties must resolve by
//! the documented `(distance, coords)` rule) and Varden skew (nearly all
//! mass on one rank, so the kNN widen phase and the rebalancer both run
//! hot). Also here: rebalance-under-churn and a fault plan pinned to one
//! rank — results must stay byte-identical to the clean single-rank
//! reference through both — and the inputs that decide how the kNN widen
//! phase coalesces its fetches (identical, clustered, universe-ball and
//! far-apart queries), each held to the single-rank answer and to the
//! `widen_requests` / `widen_fetches` counters; and what the rebalancer
//! triggers on (a rank's straggler path) and stops at (a move that would
//! not lower the hotter rank).

mod common;

use common::{aabb_from, knn_distinct, tiny_point, tiny_points};
use pim_zd_tree_repro::workloads as wl;
use pim_zd_tree_repro::{
    Aabb, FaultConfig, FaultPlan, MachineConfig, Metric, PimZdConfig, PimZdTree, Point,
    ShardConfig, ShardedZdTree,
};
use proptest::prelude::*;

const METRICS: [Metric; 3] = [Metric::L1, Metric::L2, Metric::Linf];

fn zcfg(n: usize) -> PimZdConfig {
    PimZdConfig::throughput_optimized(n.max(64) as u64, 8)
}

fn build_pair<const D: usize>(ranks: usize, data: &[Point<D>]) -> (ShardedZdTree<D>, PimZdTree<D>) {
    let machine = MachineConfig::with_modules(8);
    let cfg = zcfg(data.len());
    let sh = ShardedZdTree::build(data, ShardConfig::new(ranks), cfg, machine);
    let single = PimZdTree::build(data, cfg, machine);
    (sh, single)
}

/// Side of the cube the inputs are drawn from: in 6×6×6, duplicates arrive
/// quickly, and with more than a handful of ranks almost every query's
/// neighbourhood spans a boundary.
const CUBE: u32 = 6;

/// Box-fetch result order is unspecified (the sharded router returns
/// coords-sorted, the single rank in traversal order): canonicalize.
fn sorted(rows: Vec<Vec<Point<3>>>) -> Vec<Vec<Point<3>>> {
    rows.into_iter()
        .map(|mut v| {
            v.sort_unstable_by_key(|p| p.coords);
            v
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// N-shard kNN ≡ single rank ≡ brute force, duplicate-heavy inputs,
    /// every metric, k from 0 past the tree size.
    #[test]
    fn sharded_knn_matches_single_rank_and_brute_force(
        data in tiny_points(CUBE, 48),
        queries in tiny_points(CUBE, 5),
        k in 0usize..64,
        ranks in 2usize..6,
    ) {
        let (mut sh, mut single) = build_pair(ranks, &data);
        for metric in METRICS {
            let got = sh.batch_knn(&queries, k, metric);
            let want = single.batch_knn(&queries, k, metric);
            prop_assert_eq!(&got, &want);
            for (q, row) in queries.iter().zip(&got) {
                prop_assert_eq!(row, &knn_distinct(&data, q, k, metric));
            }
        }
    }

    /// N-shard BoxCount / BoxFetch / Contains ≡ single rank ≡ brute force.
    #[test]
    fn sharded_box_ops_match_single_rank_and_brute_force(
        data in tiny_points(CUBE, 48),
        corners in proptest::collection::vec((tiny_point(CUBE), tiny_point(CUBE)), 1..5),
        ranks in 2usize..6,
    ) {
        let (mut sh, mut single) = build_pair(ranks, &data);
        let boxes: Vec<Aabb<3>> = corners.iter().map(|(a, b)| aabb_from(*a, *b)).collect();
        let counts = sh.batch_box_count(&boxes);
        prop_assert_eq!(&counts, &single.batch_box_count(&boxes));
        let fetched = sorted(sh.batch_box_fetch(&boxes));
        prop_assert_eq!(&fetched, &sorted(single.batch_box_fetch(&boxes)));
        for (b, (count, fetch)) in boxes.iter().zip(counts.iter().zip(&fetched)) {
            let brute = data.iter().filter(|p| b.contains(p)).count();
            prop_assert_eq!(*count as usize, brute);
            prop_assert_eq!(fetch.len(), brute);
        }
        let probes: Vec<Point<3>> = corners.iter().map(|(a, _)| *a).collect();
        let got = sh.batch_contains(&probes);
        prop_assert_eq!(&got, &single.batch_contains(&probes));
        for (p, present) in probes.iter().zip(&got) {
            prop_assert_eq!(*present, data.contains(p));
        }
    }

    /// Insert + delete churn with an aggressive rebalancer: results stay
    /// equivalent after every mutation round, and migration never changes
    /// the stored multiset size.
    #[test]
    fn rebalance_under_churn_preserves_equivalence(
        data in tiny_points(CUBE, 40),
        extra in tiny_points(CUBE, 24),
        ranks in 2usize..5,
        seed in 0u64..1024,
    ) {
        let machine = MachineConfig::with_modules(8);
        let cfg = zcfg(data.len() + extra.len());
        let mut scfg = ShardConfig::new(ranks);
        scfg.rebalance_threshold = 1.01; // rebalance on nearly every batch
        let mut sh = ShardedZdTree::build(&data, scfg, cfg, machine);
        let mut single = PimZdTree::build(&data, cfg, machine);
        let queries = wl::point_queries(&data, 8, 1, seed);
        for round in 0..3 {
            sh.batch_insert(&extra);
            single.batch_insert(&extra);
            prop_assert_eq!(sh.len(), single.len(), "round {} insert", round);
            prop_assert_eq!(
                sh.batch_knn(&queries, 4, Metric::L2),
                single.batch_knn(&queries, 4, Metric::L2)
            );
            let half = extra.len() / 2 + 1;
            let removed = sh.batch_delete(&extra[..half]);
            prop_assert_eq!(removed, single.batch_delete(&extra[..half]));
            prop_assert_eq!(sh.len(), single.len(), "round {} delete", round);
            prop_assert_eq!(sh.batch_contains(&extra), single.batch_contains(&extra));
            // Restore for the next round.
            let rest = sh.batch_delete(&extra);
            prop_assert_eq!(rest, single.batch_delete(&extra));
        }
    }
}

/// Varden skew: nearly all points (and queries) on a filament owned by few
/// ranks. The widen phase and rebalancer both engage; equivalence holds.
#[test]
fn varden_skewed_inputs_stay_equivalent() {
    let data = wl::varden::<3>(4_000, 7);
    let (mut sh, mut single) = build_pair(8, &data);
    let queries = wl::point_queries(&data, 128, 3, 11);
    for k in [1usize, 10] {
        assert_eq!(
            sh.batch_knn(&queries, k, Metric::L2),
            single.batch_knn(&queries, k, Metric::L2)
        );
    }
    let side = wl::box_side_for_expected::<3>(data.len(), 100.0);
    let boxes = wl::box_queries(&data, 64, side, 13);
    assert_eq!(sh.batch_box_count(&boxes), single.batch_box_count(&boxes));
    assert_eq!(sorted(sh.batch_box_fetch(&boxes)), sorted(single.batch_box_fetch(&boxes)));
    let st = sh.last_shard_stats();
    assert!(st.fanout() >= 1.0 && st.busy_cycle_imbalance() >= 1.0);
}

/// Runs one kNN batch on both trees, holds the sharded answer to the
/// single-rank one, and returns the batch's `(widen_requests,
/// widen_fetches)`.
fn widen_counts<const D: usize>(
    case: &str,
    (sh, single): &mut (ShardedZdTree<D>, PimZdTree<D>),
    queries: &[Point<D>],
    k: usize,
    metric: Metric,
) -> (u64, u64) {
    assert_eq!(sh.batch_knn(queries, k, metric), single.batch_knn(queries, k, metric), "{case}");
    let st = sh.last_shard_stats();
    assert_eq!(st.rank_touches, queries.len() as u64 + st.widen_requests, "{case}: fan-out");
    (st.widen_requests, st.widen_fetches)
}

/// The grid midpoint: a corner of every placement cell at every level, so
/// a ball around it always crosses cell boundaries.
fn mid<const D: usize>() -> Point<D> {
    Point::new([pim_zd_tree_repro::geom::max_coord_for_dim(D) / 2 + 1; D])
}

/// The inputs that decide how the kNN widen phase coalesces: clustered
/// batches pull each foreign rank with fewer boxes than requests, far-apart
/// queries keep one box each, and every answer equals the single rank's.
#[test]
fn widen_coalescing_cases_match_single_rank() {
    let uniform = wl::uniform::<3>(3_000, 5);

    // Identical queries: one box per foreign rank the shared ball reaches.
    let mut pair = build_pair(4, &uniform);
    let same = vec![mid::<3>(); 64];
    for metric in METRICS {
        let (req, fetch) = widen_counts("identical", &mut pair, &same, 10, metric);
        assert!(req >= 64 && fetch == req / 64, "identical {metric:?}: {fetch} of {req}");
    }

    // Far-apart queries: nothing to share, the per-query fetch unchanged.
    let quarter = mid::<3>().coords[0] / 2;
    let far: Vec<Point<3>> = (0..8u32)
        .map(|i| Point::new([0, 1, 2].map(|axis| quarter * (1 + 2 * (i >> axis & 1)))))
        .collect();
    let (req, fetch) = widen_counts("far apart", &mut pair, &far, 10, Metric::L2);
    assert!(req > 0 && fetch == req, "far apart: {fetch} of {req}");

    // An all-Varden batch over 8 ranks, before and after a forced rebalance.
    let varden = wl::varden::<3>(4_000, 7);
    let walk = wl::point_queries(&varden, 256, 2, 11);
    let machine = MachineConfig::with_modules(8);
    let mut scfg = ShardConfig::new(8);
    scfg.rebalance_threshold = 1.01;
    let mut pair = (
        ShardedZdTree::build(&uniform, scfg, zcfg(uniform.len()), machine),
        PimZdTree::build(&uniform, zcfg(uniform.len()), machine),
    );
    for round in 0..3 {
        let (req, fetch) = widen_counts("varden", &mut pair, &walk, 10, Metric::L2);
        assert!(fetch < req, "varden round {round}: {fetch} of {req}");
    }
    let (moves, splits, _) = pair.0.rebalance_counters();
    assert!(moves + splits > 0, "the all-Varden batch must force a rebalance");

    // k past every home rank's point count: every ball is the universe, so
    // each rank is asked by every query homed elsewhere and answers once.
    let few = wl::uniform::<3>(40, 9);
    let mut pair = build_pair(4, &few);
    let queries = wl::uniform::<3>(32, 10);
    let (req, fetch) = widen_counts("universe", &mut pair, &queries, 64, Metric::L2);
    assert_eq!((req, fetch), (32 * 3, 4), "universe balls: one fetch per rank");

    // Duplicate-heavy stored points astride the cell corner at the grid
    // midpoint: ties resolve by (distance, coords) and copies collapse.
    let c = mid::<3>().coords[0];
    let lattice: Vec<Point<3>> = (0..6u32.pow(3))
        .map(|i| Point::new([c - 3 + i % 6, c - 3 + i / 6 % 6, c - 3 + i / 36]))
        .collect();
    let stored: Vec<Point<3>> = lattice.iter().chain(&lattice).chain(&lattice).copied().collect();
    let mut pair = build_pair(5, &stored);
    for metric in METRICS {
        let (req, fetch) = widen_counts("duplicates", &mut pair, &lattice, 7, metric);
        assert!(fetch < req, "duplicates {metric:?}: {fetch} of {req}");
    }

    // D = 2, diamond and square balls, a cluster around the grid midpoint.
    let plane = wl::uniform::<2>(2_000, 13);
    let mut pair = build_pair(4, &plane);
    let cluster = wl::point_queries(&[mid::<2>()], 96, 1 << 12, 15);
    for metric in [Metric::L1, Metric::Linf] {
        let (req, fetch) = widen_counts("2d", &mut pair, &cluster, 10, metric);
        assert!(fetch < req, "2d {metric:?}: {fetch} of {req}");
    }
}

/// A fault plan pinned to one rank of four: retries/salvage are confined to
/// that rank's fault plane and results remain byte-identical to the clean
/// single-rank reference.
#[test]
fn fault_plan_on_one_rank_preserves_results() {
    let data = wl::uniform::<3>(3_000, 21);
    let (mut sh, mut single) = build_pair(4, &data);
    sh.set_fault_plan_on(1, Some(FaultPlan::new(FaultConfig::uniform(0.15, 0xF00D))));
    let queries = wl::point_queries(&data, 200, 2, 23);
    assert_eq!(sh.batch_knn(&queries, 10, Metric::L2), single.batch_knn(&queries, 10, Metric::L2));
    let side = wl::box_side_for_expected::<3>(data.len(), 10.0);
    let boxes = wl::box_queries(&data, 100, side, 29);
    assert_eq!(sh.batch_box_count(&boxes), single.batch_box_count(&boxes));
    assert_eq!(sorted(sh.batch_box_fetch(&boxes)), sorted(single.batch_box_fetch(&boxes)));
    assert_eq!(sh.batch_contains(&data[..256]), single.batch_contains(&data[..256]));
    // The faulty rank really did fault (retry/salvage rounds happened),
    // and its fault plane stayed confined to rank 1.
    assert!(
        sh.rank(1).sim_stats().total_faults() > 0,
        "fault plan on rank 1 must actually inject faults"
    );
    assert_eq!(sh.rank(0).sim_stats().total_faults(), 0, "faults must not leak across ranks");
}

/// A point mass of heat — one query repeated — cannot be balanced by moving
/// it: wherever it sits is the hot rank. The move loop is a descent, so a
/// trigger moves it at most once (here: off the rank that also carries all
/// the background heat) and no later trigger moves it back.
#[test]
fn point_mass_heat_moves_at_most_once_and_never_back() {
    let data = wl::uniform::<3>(3_000, 31);
    let mut scfg = ShardConfig::new(2);
    scfg.rebalance_threshold = 1.01;
    let machine = MachineConfig::with_modules(8);
    let mut sh = ShardedZdTree::build(&data, scfg, zcfg(data.len()), machine);
    let mut single = PimZdTree::build(&data, zcfg(data.len()), machine);
    let mass = data[5];
    let home = sh.placement().owner_of_point(&mass);
    let mut batch = vec![mass; 256];
    batch.extend(data.iter().filter(|p| sh.placement().owner_of_point(p) == home).take(64));

    let mut owners = vec![home];
    let (mut actions, mut moves_before) = (0, 0);
    for round in 0..6 {
        assert_eq!(sh.batch_knn(&batch, 10, Metric::L2), single.batch_knn(&batch, 10, Metric::L2));
        let (moves, ..) = sh.rebalance_counters();
        assert!(moves - moves_before <= 1, "round {round}: {} moves", moves - moves_before);
        moves_before = moves;
        actions += sh.last_shard_stats().rebalance_actions;
        owners.push(sh.placement().owner_of_point(&mass));
    }
    assert!(actions > 0, "the point mass must trigger the rebalancer");
    owners.dedup();
    assert_eq!(owners, [home, 1 - home], "the point mass moves once, off the busier rank");
}

/// What sets a rank's time is its busiest module, round by round. A hot
/// cell puts one rank's work on one module: summed over modules the ranks
/// read as balanced, and the rebalancer still sees the straggler. Queries
/// that follow the data leave it alone.
#[test]
fn rebalancer_sees_a_rank_whose_cycles_sit_on_one_module() {
    let data = wl::uniform::<3>(20_000, 41);
    let mut scfg = ShardConfig::new(4);
    scfg.auto_rebalance = false;
    let machine = MachineConfig::with_modules(16);
    let cfg = PimZdConfig::throughput_optimized(data.len() as u64, 16);
    for (case, hot_frac, triggers) in [("hot cell", 0.4, true), ("spread", 0.0, false)] {
        let mut sh = ShardedZdTree::build(&data, scfg, cfg, machine);
        let queries = wl::hot_cell_queries(&data, 2_000, hot_frac, 8, 43);
        sh.batch_knn(&queries, 10, Metric::L2);
        let by_sum = sh.last_shard_stats().busy_cycle_imbalance();
        assert!(by_sum < scfg.rebalance_threshold, "{case}: cycle sums read {by_sum}");
        assert_eq!(sh.rebalance_now() > 0, triggers, "{case}");
    }
}

/// A migration's delete can empty a rank's L0 together with its last
/// fragment (101 points, 100 of them one point, plus three grid corners over
/// 8 ranks): the first kNN batch triggers the rebalance that does it.
#[test]
fn a_migration_may_empty_a_rank_down_to_its_last_fragment() {
    let max = (1u32 << 21) - 1;
    let mut pts = vec![Point::new([0, 0, 0])];
    pts.extend([Point::new([7, 7, 7]); 100]);
    pts.extend([[max, max, max], [0, max, 0], [max, 0, max]].map(Point::new));
    let (mut sh, mut single) = build_pair(8, &pts);
    for metric in METRICS {
        assert_eq!(sh.batch_knn(&pts[..6], 1, metric), single.batch_knn(&pts[..6], 1, metric));
    }
    assert!(sh.rebalance_counters().2 > 0, "the rebalancer migrated points");
    assert_eq!(sh.batch_delete(&pts), pts.len());
    assert_eq!(sh.len(), 0);
}
