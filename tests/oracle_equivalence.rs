//! Cross-crate integration: the PIM index must agree with the shared-memory
//! zd-tree oracle on every operation, across configurations, datasets, and
//! update schedules — and with a brute-force scan on the inputs that decide
//! how the kNN ball phase cuts its queries into runs.

mod common;

use common::knn_distinct;
use pim_memsim::{CpuConfig, CpuMeter};
use pim_zd_tree_repro::sim::Metrics;
use pim_zd_tree_repro::{workloads, Aabb, MachineConfig, Metric, PimZdConfig, PimZdTree, Point};
use pim_zdtree_base::ZdTree;

fn meter() -> CpuMeter {
    CpuMeter::new(CpuConfig::xeon())
}

/// Runs the full operation battery comparing index vs oracle.
fn battery(data: &[Point<3>], index: &mut PimZdTree<3>, oracle: &ZdTree<3>, seed: u64) {
    let mut m = meter();

    // Point membership.
    let probes: Vec<Point<3>> = data.iter().step_by(37).copied().collect();
    let got = index.batch_contains(&probes);
    let want = oracle.batch_contains(&probes, &mut m);
    assert_eq!(got, want, "contains diverged");

    // kNN across metrics and k values.
    let queries = workloads::knn_queries(data, 25, seed);
    for metric in [Metric::L2, Metric::L1, Metric::Linf] {
        for k in [1usize, 8] {
            let got = index.batch_knn(&queries, k, metric);
            let want = oracle.batch_knn(&queries, k, metric, &mut m);
            for (qid, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "kNN diverged: metric {metric:?} k={k} q#{qid}");
            }
        }
    }

    // Box queries at three selectivities.
    for expect in [1.0, 10.0, 100.0] {
        let side = workloads::box_side_for_expected::<3>(data.len().max(1), expect);
        let boxes = workloads::box_queries(data, 20, side, seed ^ 0xB0);
        let got = index.batch_box_count(&boxes);
        let want: Vec<u64> = boxes.iter().map(|b| oracle.box_count(b, &mut m)).collect();
        assert_eq!(got, want, "box_count diverged at expect={expect}");

        let got = index.batch_box_fetch(&boxes);
        for (i, b) in boxes.iter().enumerate() {
            let mut g: Vec<[u32; 3]> = got[i].iter().map(|p| p.coords).collect();
            let mut w: Vec<[u32; 3]> =
                oracle.box_fetch(b, &mut m).iter().map(|p| p.coords).collect();
            g.sort_unstable();
            w.sort_unstable();
            assert_eq!(g, w, "box_fetch diverged at expect={expect} box#{i}");
        }
    }
}

#[test]
fn uniform_throughput_mode() {
    let data = workloads::uniform::<3>(10_000, 1);
    let cfg = PimZdConfig::throughput_optimized(10_000, 32);
    let mut index = PimZdTree::build(&data, cfg, MachineConfig::with_modules(32));
    let oracle = ZdTree::build(&data, cfg.leaf_cap);
    battery(&data, &mut index, &oracle, 11);
}

#[test]
fn uniform_skew_resistant_mode() {
    let data = workloads::uniform::<3>(12_000, 2);
    let cfg = PimZdConfig::skew_resistant(32);
    let mut index = PimZdTree::build(&data, cfg, MachineConfig::with_modules(32));
    let oracle = ZdTree::build(&data, cfg.leaf_cap);
    battery(&data, &mut index, &oracle, 22);
}

#[test]
fn osm_like_skewed_data() {
    let data = workloads::osm_like::<3>(10_000, 3);
    let cfg = PimZdConfig::skew_resistant(32);
    let mut index = PimZdTree::build(&data, cfg, MachineConfig::with_modules(32));
    let oracle = ZdTree::build(&data, cfg.leaf_cap);
    battery(&data, &mut index, &oracle, 33);
}

#[test]
fn cosmos_like_data_throughput_mode() {
    let data = workloads::cosmos_like::<3>(10_000, 4);
    let cfg = PimZdConfig::throughput_optimized(10_000, 16);
    let mut index = PimZdTree::build(&data, cfg, MachineConfig::with_modules(16));
    let oracle = ZdTree::build(&data, cfg.leaf_cap);
    battery(&data, &mut index, &oracle, 44);
}

#[test]
fn equivalence_survives_update_schedule() {
    // Interleave inserts and deletes, checking the battery between rounds.
    let initial = workloads::uniform::<3>(6_000, 5);
    let extra = workloads::uniform::<3>(6_000, 6);
    let cfg = PimZdConfig::skew_resistant(16);
    let mut index = PimZdTree::build(&initial, cfg, MachineConfig::with_modules(16));
    let mut oracle = ZdTree::build(&initial, cfg.leaf_cap);
    let mut m = meter();
    let mut live: Vec<Point<3>> = initial.clone();

    for round in 0..3 {
        let ins = &extra[round * 2_000..(round + 1) * 2_000];
        index.batch_insert(ins);
        oracle.batch_insert(ins, &mut m);
        live.extend_from_slice(ins);

        let del: Vec<Point<3>> = live.iter().step_by(5).copied().collect();
        let a = index.batch_delete(&del);
        let b = oracle.batch_delete(&del, &mut m);
        assert_eq!(a, b, "delete count diverged in round {round}");
        // Rebuild the live multiset.
        let removed: std::collections::HashSet<[u32; 3]> = del.iter().map(|p| p.coords).collect();
        let mut budget: std::collections::HashMap<[u32; 3], usize> = Default::default();
        for p in &del {
            *budget.entry(p.coords).or_insert(0) += 1;
        }
        let mut kept = Vec::with_capacity(live.len());
        for p in live {
            if removed.contains(&p.coords) {
                let b = budget.get_mut(&p.coords).unwrap();
                if *b > 0 {
                    *b -= 1;
                    continue;
                }
            }
            kept.push(p);
        }
        live = kept;

        assert_eq!(index.len(), oracle.len(), "sizes diverged in round {round}");
        index.check_invariants(&live);
        battery(&live, &mut index, &oracle, 100 + round as u64);
    }
}

#[test]
fn two_dimensional_equivalence() {
    let data = workloads::uniform::<2>(8_000, 7);
    let cfg = PimZdConfig::throughput_optimized(8_000, 16);
    let mut index = PimZdTree::build(&data, cfg, MachineConfig::with_modules(16));
    let oracle = ZdTree::build(&data, cfg.leaf_cap);
    let mut m = meter();

    let queries: Vec<Point<2>> = data.iter().step_by(400).copied().collect();
    let got = index.batch_knn(&queries, 10, Metric::L2);
    let want = oracle.batch_knn(&queries, 10, Metric::L2, &mut m);
    assert_eq!(got, want, "2D kNN diverged");

    let boxes: Vec<Aabb<2>> = workloads::box_queries(&data, 20, 1 << 27, 8);
    let got = index.batch_box_count(&boxes);
    let want: Vec<u64> = boxes.iter().map(|b| oracle.box_count(b, &mut m)).collect();
    assert_eq!(got, want, "2D box_count diverged");
}

#[test]
fn pkdtree_also_agrees_on_queries() {
    // Sanity: the second baseline answers the same queries identically.
    use pim_pkdtree::PkdTree;
    let data = workloads::uniform::<3>(5_000, 9);
    let cfg = PimZdConfig::throughput_optimized(5_000, 16);
    let mut index = PimZdTree::build(&data, cfg, MachineConfig::with_modules(16));
    let pkd = PkdTree::build(&data, 32);
    let mut m = meter();
    let queries = workloads::knn_queries(&data, 30, 10);
    let got = index.batch_knn(&queries, 6, Metric::L2);
    let want: Vec<_> = queries.iter().map(|q| pkd.knn(q, 6, Metric::L2, &mut m)).collect();
    assert_eq!(got, want);
}

/// `k` is caller input: the largest one asks for everything, on every index
/// behind the batch API.
#[test]
fn knn_with_the_largest_k_returns_every_stored_point() {
    use pim_pkdtree::PkdTree;
    use pim_zd_tree_repro::{ShardConfig, ShardedZdTree};

    let data = workloads::osm_like::<3>(500, 1616);
    let q = [data[7], Point::new([9, 9, 9])];
    let want: Vec<_> = q.iter().map(|q| knn_distinct(&data, q, usize::MAX, Metric::L2)).collect();
    assert_eq!(want[0].len(), data.len());

    let cfg = PimZdConfig::skew_resistant(16);
    let machine = MachineConfig::with_modules(16);
    let mut single = PimZdTree::build(&data, cfg, machine);
    assert_eq!(single.batch_knn(&q, usize::MAX, Metric::L2), want);
    // The sharded `elements` stat is `queries × k`: half the range overflows
    // it as surely as all of it.
    let mut sharded = ShardedZdTree::build(&data, ShardConfig::new(2), cfg, machine);
    for k in [usize::MAX / 2, usize::MAX] {
        assert_eq!(sharded.batch_knn(&q, k, Metric::L2), want, "k={k}");
    }
    let mut m = meter();
    let zd = ZdTree::build(&data, cfg.leaf_cap);
    assert_eq!(zd.batch_knn(&q, usize::MAX, Metric::L2, &mut m), want);
    let pkd = PkdTree::build(&data, cfg.leaf_cap);
    assert_eq!(pkd.batch_knn(&q, usize::MAX, Metric::L2, &mut m), want);
}

/// Runs one kNN batch, holds every answer to the brute-force scan of `data`,
/// and returns the batch's ball-phase `(queries, runs)` as the registry
/// counted them.
fn ball_runs<const D: usize>(
    case: &str,
    index: &mut PimZdTree<D>,
    data: &[Point<D>],
    queries: &[Point<D>],
    k: usize,
    metric: Metric,
) -> (u64, u64) {
    let metrics = Metrics::enabled_new();
    index.set_metrics(metrics.clone());
    let got = index.batch_knn(queries, k, metric);
    index.set_metrics(Metrics::disabled());
    for (qid, (q, row)) in queries.iter().zip(&got).enumerate() {
        assert_eq!(row, &knn_distinct(data, q, k, metric), "{case}: {metric:?} k={k} q#{qid}");
    }
    let count = |name| metrics.with(|m| m.counter(name, &[])).flatten().unwrap_or(0);
    (count("host_knn_ball_queries_total"), count("host_knn_ball_runs_total"))
}

/// The grid midpoint.
fn mid<const D: usize>() -> Point<D> {
    Point::new([pim_zd_tree_repro::geom::max_coord_for_dim(D) / 2 + 1; D])
}

/// The inputs that decide how the ball phase coalesces: queries that share
/// a neighbourhood share one traversal, queries that do not keep their own,
/// and every answer is the brute-force one either way.
#[test]
fn ball_phase_runs_match_brute_force() {
    const METRICS: [Metric; 3] = [Metric::L1, Metric::L2, Metric::Linf];
    let machine = MachineConfig::with_modules(16);
    let data = workloads::uniform::<3>(6_000, 12);
    let no_coarse_stage = {
        // The modules evaluate ℓ2 themselves: radii are squared distances.
        let mut cfg = PimZdConfig::throughput_optimized(6_000, 16);
        cfg.toggles.coarse_fine_knn = false;
        cfg
    };
    for (preset, cfg) in [
        ("throughput", PimZdConfig::throughput_optimized(6_000, 16)),
        ("skew", PimZdConfig::skew_resistant(16)),
        ("squared radii", no_coarse_stage),
    ] {
        let mut index = PimZdTree::build(&data, cfg, machine);

        // Identical queries: one ball, one run.
        let same = vec![data[17]; 64];
        for metric in METRICS {
            let runs = ball_runs(preset, &mut index, &data, &same, 10, metric);
            assert_eq!(runs, (64, 1), "{preset}: identical queries under {metric:?}");
        }

        // One query per octant: nothing to share, one run each.
        let quarter = mid::<3>().coords[0] / 2;
        let far: Vec<Point<3>> = (0..8u32)
            .map(|i| Point::new([0, 1, 2].map(|axis| quarter * (1 + 2 * (i >> axis & 1)))))
            .collect();
        let runs = ball_runs(preset, &mut index, &data, &far, 10, Metric::L2);
        assert_eq!(runs, (8, 8), "{preset}: far-apart queries");

        // An all-Varden batch: a filament of queries far closer to each
        // other than to their neighbours.
        let walk = workloads::point_queries(&workloads::varden::<3>(4_000, 7), 256, 2, 11);
        for metric in METRICS {
            let (queries, runs) = ball_runs(preset, &mut index, &data, &walk, 10, metric);
            assert!(queries == 256 && runs < 64, "{preset}: Varden under {metric:?}: {runs} runs");
        }
    }

    // k past the tree size: every ball is the universe, and universe balls
    // join each other — one fetch of everything, not one per query.
    let few = workloads::uniform::<3>(40, 9);
    let cfg = PimZdConfig::throughput_optimized(64, 16);
    let mut index = PimZdTree::build(&few, cfg, machine);
    let queries = workloads::uniform::<3>(32, 10);
    assert_eq!(ball_runs("universe", &mut index, &few, &queries, 64, Metric::L2), (32, 1));

    // A 6×6×6 lattice stored three times over: ties resolve by (distance,
    // coords) and copies collapse, whoever shares a run with whom.
    let c = mid::<3>().coords[0];
    let lattice: Vec<Point<3>> = (0..6u32.pow(3))
        .map(|i| Point::new([c - 3 + i % 6, c - 3 + i / 6 % 6, c - 3 + i / 36]))
        .collect();
    let stored: Vec<Point<3>> = lattice.iter().chain(&lattice).chain(&lattice).copied().collect();
    let cfg = PimZdConfig::skew_resistant(16);
    let mut index = PimZdTree::build(&stored, cfg, machine);
    for metric in METRICS {
        let (queries, runs) = ball_runs("duplicates", &mut index, &stored, &lattice, 7, metric);
        assert!(runs < queries, "duplicates under {metric:?}: {runs} runs of {queries}");
    }

    // D = 2: diamond, disc and square balls around one cluster.
    let plane = workloads::uniform::<2>(2_000, 13);
    let cfg = PimZdConfig::throughput_optimized(2_000, 16);
    let mut index = PimZdTree::build(&plane, cfg, machine);
    let cluster = workloads::point_queries(&[mid::<2>()], 96, 1 << 12, 15);
    for metric in METRICS {
        let (queries, runs) = ball_runs("2d", &mut index, &plane, &cluster, 10, metric);
        assert!(runs < queries, "2d under {metric:?}: {runs} runs of {queries}");
    }
}

/// Stored points and queries that put the two-stage ball's cube against
/// every edge it has: both ends of the grid (the cube's box saturates there,
/// as the ball's does), copies of one point, queries on stored points (a
/// cube of radius 0 for `k = 1`), and clusters of queries that share a run
/// (in debug builds `batch_knn` asserts every member's cube lies inside its
/// run's).
fn cube_inputs<const D: usize>() -> (Vec<Point<D>>, Vec<Point<D>>) {
    let m = pim_zd_tree_repro::geom::max_coord_for_dim(D);
    let corners: Vec<Point<D>> = (0..1u32 << D)
        .step_by(3)
        .chain([(1 << D) - 1])
        .map(|bits| Point::new(std::array::from_fn(|axis| m * (bits >> axis & 1))))
        .collect();
    let jitter = (m / 64).max(2);
    let mut data = workloads::uniform::<D>(300, 21);
    data.extend(&corners);
    data.extend(workloads::point_queries(&corners, 120, jitter, 22));
    data.extend(vec![data[5]; 40]);
    data.extend(vec![corners[0]; 12]);

    let mut queries = corners.clone();
    queries.extend(&data[..12]);
    queries.push(mid::<D>());
    // Runs: tight clusters around a corner, a stored point and the middle.
    queries.extend(workloads::point_queries(&[corners[0], data[5], mid::<D>()], 36, 2, 23));
    queries.extend(workloads::uniform::<D>(8, 24));
    (data, queries)
}

fn cube_cases<const D: usize>() {
    use pim_zd_tree_repro::{FaultConfig, FaultPlan};
    let (data, queries) = cube_inputs::<D>();
    let n = data.len();
    let machine = MachineConfig::with_modules(16);
    let no_coarse_stage = {
        let mut cfg = PimZdConfig::throughput_optimized(n as u64, 16);
        cfg.toggles.coarse_fine_knn = false;
        cfg
    };
    for (preset, cfg) in [
        ("throughput", PimZdConfig::throughput_optimized(n as u64, 16)),
        ("skew", PimZdConfig::skew_resistant(16)),
        ("no cube", no_coarse_stage),
    ] {
        let case = format!("D={D} {preset}");
        let mut index = PimZdTree::build(&data, cfg, machine);
        // k = n and k > n: the universe ball, which has no cube.
        for k in [1, 7, n, n + 5] {
            ball_runs(&case, &mut index, &data, &queries, k, Metric::L2);
        }
        // A replayed or re-homed task of the fused SEARCH round answers the
        // same.
        index.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.05, 25))));
        let metrics = Metrics::enabled_new();
        index.set_metrics(metrics.clone());
        for k in [1, 7, 1, 7, 1, 7] {
            let got = index.batch_knn(&queries, k, Metric::L2);
            for (qid, (q, row)) in queries.iter().zip(&got).enumerate() {
                assert_eq!(
                    row,
                    &knn_distinct(&data, q, k, Metric::L2),
                    "{case} faulty k={k} q#{qid}"
                );
            }
        }
        assert!(index.sim_stats().retries > 0, "{case}: the plan must be biting");
        let fused = metrics.with(|m| m.counter("host_knn_fused_total", &[])).flatten();
        assert!(fused > Some(0), "{case}: no best-k rode a SEARCH round");
    }
}

/// `batch_knn(ℓ2)` is exact where the ball test is ℓ1 ≤ √D·r₂ ∧ ℓ∞ ≤ r₂, in
/// every dimension with its own coordinate width.
#[test]
fn two_stage_ball_with_its_cube_matches_brute_force() {
    cube_cases::<2>();
    cube_cases::<3>();
    cube_cases::<4>();
    cube_cases::<6>();
}

/// Boxes that put a box's split node at the top of the tree and at its
/// edges: boxes and slabs centred on the grid midpoint, where the root's
/// split planes cross (from a point to a box touching both grid edges), the
/// whole grid, zero-volume boxes, and small boxes in the grid's corners.
fn edge_boxes<const D: usize>(data: &[Point<D>]) -> Vec<Aabb<D>> {
    let m = pim_zd_tree_repro::geom::max_coord_for_dim(D);
    let c = mid::<D>();
    let around = |p: Point<D>, r: u32| {
        Aabb::new(
            Point::new(p.coords.map(|x| x.saturating_sub(r))),
            Point::new(p.coords.map(|x| x.saturating_add(r).min(m))),
        )
    };
    let mut boxes = vec![Aabb::universe(), Aabb::point(c), Aabb::point(data[5])];
    for shift in [0, 1, 4, 8, 12, 16] {
        boxes.push(around(c, (m >> shift).max(1)));
    }
    for axis in 0..D {
        // A slab across every split plane of one axis, both edges included,
        // thin on the others; and the same slab flattened to zero volume.
        let mut slab = around(c, (m >> 10).max(1));
        (slab.lo.coords[axis], slab.hi.coords[axis]) = (0, m);
        boxes.push(slab);
        slab.lo.coords[(axis + 1) % D] = slab.hi.coords[(axis + 1) % D];
        boxes.push(slab);
    }
    let corner = |bits: u32| Point::new(std::array::from_fn(|axis| m * (bits >> axis & 1)));
    for bits in 0..1u32 << D {
        boxes.push(around(corner(bits), (m >> 6).max(1)));
        boxes.push(Aabb::point(corner(bits)));
    }
    boxes.extend(data.iter().step_by(23).map(|&p| around(p, (m >> 9).max(1))));
    // Out of order, so the batch's own sort has work to do.
    boxes.reverse();
    boxes
}

fn edge_box_cases<const D: usize>() {
    let (mut data, _) = cube_inputs::<D>();
    data.extend(workloads::point_queries(&[mid::<D>()], 60, 3, 26));
    let n = data.len();
    let boxes = edge_boxes(&data);
    let machine = MachineConfig::with_modules(16);
    for (preset, cfg) in [
        ("throughput", PimZdConfig::throughput_optimized(n as u64, 16)),
        ("skew", PimZdConfig::skew_resistant(16)),
    ] {
        let mut index = PimZdTree::build(&data, cfg, machine);
        let counts = index.batch_box_count(&boxes);
        let fetched = index.batch_box_fetch(&boxes);
        for (i, b) in boxes.iter().enumerate() {
            let mut want: Vec<[u32; D]> =
                data.iter().filter(|p| b.contains(p)).map(|p| p.coords).collect();
            assert_eq!(counts[i], want.len() as u64, "D={D} {preset}: count of box#{i} {b:?}");
            let mut got: Vec<[u32; D]> = fetched[i].iter().map(|p| p.coords).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "D={D} {preset}: fetch of box#{i} {b:?}");
        }
    }
}

/// BoxCount and BoxFetch enter L0 at each box's split node; on boxes whose
/// split node is the root or near it, or that touch the grid's edges, they
/// still answer what a scan of the points answers.
#[test]
fn boxes_across_the_top_split_planes_match_brute_force() {
    edge_box_cases::<2>();
    edge_box_cases::<3>();
    edge_box_cases::<4>();
    edge_box_cases::<6>();
}

/// 10-NN is two rounds where SEARCH is one and ends beside every anchor (3
/// when best-k had a round of its own): the best-k step rides the SEARCH
/// round and only the ball phase is left. Under `skew_resistant` a search
/// that goes on to an L2 fragment has its anchor above it, in an L1 fragment
/// that is on another module unless placement put the two masters together:
/// those queries (here 652 of 2 000; 645 under one hash per master) keep
/// their best-k rounds, so the count stays 6 — SEARCH 2, best-k 2, ball 2 —
/// with fewer tasks in each of the last four.
#[test]
fn ten_nn_round_counts() {
    let data = workloads::uniform::<3>(40_000, 15);
    let queries = workloads::uniform::<3>(2_000, 16);
    let machine = MachineConfig::with_modules(64);
    for (cfg, rounds) in
        [(PimZdConfig::throughput_optimized(40_000, 64), 2), (PimZdConfig::skew_resistant(64), 6)]
    {
        let mut index = PimZdTree::build(&data, cfg, machine);
        let metrics = Metrics::enabled_new();
        index.set_metrics(metrics.clone());
        index.batch_knn(&queries, 10, Metric::L2);
        assert_eq!(index.last_op_stats().rounds, rounds);
        let count = |name| metrics.with(|m| m.counter(name, &[])).flatten().unwrap_or(0);
        let fused = if rounds == 2 { 2_000 } else { 2_000 - 652 };
        assert_eq!(count("host_knn_fused_total"), fused);
        assert!(count("host_knn_ball_points_total") >= 10 * 2_000);
    }
}
