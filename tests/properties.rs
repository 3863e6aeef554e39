//! Property-based tests (proptest) over core data-structure invariants.

mod common;

use common::knn_distinct;
use pim_geom::{max_coord_for_dim, Aabb, Metric, Point};
use pim_memsim::{CpuConfig, CpuMeter};
use pim_zd_tree_repro::sim::{FaultKind, Metrics};
use pim_zd_tree_repro::{
    workloads, BatchIndex, FaultConfig, FaultPlan, MachineConfig, PimZdConfig, PimZdTree,
    ShardConfig, ShardedZdTree,
};
use pim_zdtree_base::ZdTree;
use pim_zorder::prefix::Prefix;
use pim_zorder::ZKey;
use proptest::prelude::*;

fn coord3() -> impl Strategy<Value = u32> {
    0..=max_coord_for_dim(3)
}

fn point3() -> impl Strategy<Value = Point<3>> {
    (coord3(), coord3(), coord3()).prop_map(|(x, y, z)| Point::new([x, y, z]))
}

fn points3(max: usize) -> impl Strategy<Value = Vec<Point<3>>> {
    proptest::collection::vec(point3(), 1..max)
}

/// The fixed schedule that first caught a splice leaving counters stale: a
/// half-filament batch goes in and comes out again, so the fragments the
/// filament grew empty and are spliced out of their parents — whose
/// counters must forget them. A counter that does not hands kNN an anchor
/// promising 2k points over two, best-k comes back short, the ball becomes
/// the universe and the query fetches the whole tree.
fn counters_survive_spliced_out_fragments() {
    let n = 100_000;
    let pts = workloads::uniform::<3>(n, 2026);
    let filament = workloads::varden::<3>(n, 2027);
    let cfg = PimZdConfig::throughput_optimized(n as u64, 64);
    let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(64));
    let churn = workloads::mixed_queries(&pts, &filament, 5_000, 0.5, 21 ^ 0x600);
    t.batch_insert(&churn);
    assert_eq!(t.batch_delete(&churn), churn.len());
    t.check_invariants(&pts);

    let queries = workloads::point_queries(&filament, 2_000, 0, 21);
    t.batch_knn(&queries, 10, Metric::L2);
    let per_query = t.last_op_stats().channel_bytes / queries.len() as u64;
    assert!(per_query < 4096, "a filament 10-NN moved {per_query} B over the channel");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fast and naive Morton encoders agree, and decode inverts encode.
    #[test]
    fn morton_roundtrip_and_equivalence(p in point3()) {
        let k = ZKey::<3>::encode(&p);
        prop_assert_eq!(k, ZKey::<3>::encode_naive(&p));
        prop_assert_eq!(k.decode(), p);
    }

    /// Morton order sorts a point before another iff interleaved bits do:
    /// keys agree with lexicographic comparison of the bit interleaving.
    #[test]
    fn morton_order_matches_prefix_order(a in point3(), b in point3()) {
        let (ka, kb) = (ZKey::<3>::encode(&a), ZKey::<3>::encode(&b));
        let lcp = ka.common_prefix_len(kb);
        if lcp < ZKey::<3>::BITS {
            // The first differing bit decides the order.
            prop_assert_eq!(ka < kb, ka.bit(lcp) < kb.bit(lcp));
        } else {
            prop_assert_eq!(ka, kb);
        }
    }

    /// A prefix's box contains exactly the points whose keys it covers.
    #[test]
    fn prefix_box_is_exact(p in point3(), q in point3(), len in 0u32..=63) {
        let pre = Prefix::new(ZKey::<3>::encode(&p), len);
        let kq = ZKey::<3>::encode(&q);
        prop_assert_eq!(pre.covers(kq), pre.to_box().contains(&q));
    }

    /// Box minimum distances lower-bound every member's distance.
    #[test]
    fn box_min_dist_is_a_lower_bound(
        a in point3(), b in point3(), q in point3()
    ) {
        let bx = Aabb::new(a, b);
        for metric in [Metric::L1, Metric::L2, Metric::Linf] {
            for member in [a, b] {
                prop_assert!(bx.min_dist(&q, metric) <= metric.cmp_dist(&q, &member));
            }
        }
    }

    /// The zd-tree is canonical: build(set) == insert-in-any-split order.
    #[test]
    fn zdtree_history_independence(pts in points3(300), split in 0usize..300) {
        let split = split.min(pts.len());
        let whole = ZdTree::build(&pts, 8);
        let mut staged = ZdTree::build(&pts[..split], 8);
        let mut m = CpuMeter::new(CpuConfig::xeon());
        staged.batch_insert(&pts[split..], &mut m);
        staged.check_invariants();
        prop_assert_eq!(whole.all_points(), staged.all_points());
        prop_assert_eq!(whole.node_count(), staged.node_count());
    }

    /// zd-tree kNN equals brute force on arbitrary point sets (duplicates,
    /// collinear degeneracies and all).
    #[test]
    fn zdtree_knn_is_exact(pts in points3(200), q in point3(), k in 1usize..20) {
        let t = ZdTree::build(&pts, 4);
        let mut m = CpuMeter::new(CpuConfig::xeon());
        let got = t.knn(&q, k, Metric::L2, &mut m);
        let want = pim_zdtree_base::query::oracle::knn(&pts, &q, k, Metric::L2);
        prop_assert_eq!(got, want);
    }

    /// zd-tree box count equals a linear scan.
    #[test]
    fn zdtree_box_count_is_exact(pts in points3(200), a in point3(), b in point3()) {
        let t = ZdTree::build(&pts, 4);
        let mut m = CpuMeter::new(CpuConfig::xeon());
        let bx = Aabb::new(a, b);
        prop_assert_eq!(
            t.box_count(&bx, &mut m),
            pts.iter().filter(|p| bx.contains(p)).count() as u64
        );
    }
}

proptest! {
    // The distributed index is slower to exercise: fewer, fatter cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// PIM index invariants + oracle equality hold on arbitrary data with an
    /// arbitrary insert split, in both configurations.
    #[test]
    fn pim_index_matches_oracle(
        pts in points3(400),
        split in 0usize..400,
        skew_mode in proptest::bool::ANY,
        q in point3(),
    ) {
        let split = split.min(pts.len());
        let cfg = if skew_mode {
            PimZdConfig::skew_resistant(8)
        } else {
            PimZdConfig::throughput_optimized(pts.len() as u64, 8)
        };
        let mut t = PimZdTree::build(&pts[..split], cfg, MachineConfig::with_modules(8));
        t.batch_insert(&pts[split..]);
        t.check_invariants(&pts);

        let oracle = ZdTree::build(&pts, cfg.leaf_cap);
        let mut m = CpuMeter::new(CpuConfig::xeon());
        let got = t.batch_knn(&[q], 5, Metric::L2);
        let want = oracle.batch_knn(&[q], 5, Metric::L2, &mut m);
        prop_assert_eq!(&got[0], &want[0]);
    }

    /// Lazy counters stay in the Lemma 3.1 band under random update mixes
    /// (checked inside `check_invariants`).
    #[test]
    fn lazy_counters_stay_in_band(
        base in points3(300),
        extra in points3(300),
        del_stride in 2usize..8,
    ) {
        static FIXED_SCHEDULE: std::sync::Once = std::sync::Once::new();
        FIXED_SCHEDULE.call_once(counters_survive_spliced_out_fragments);

        let cfg = PimZdConfig::skew_resistant(8);
        let mut t = PimZdTree::build(&base, cfg, MachineConfig::with_modules(8));
        t.batch_insert(&extra);
        let del: Vec<Point<3>> = base.iter().step_by(del_stride).copied().collect();
        let removed = t.batch_delete(&del);
        prop_assert_eq!(removed, del.len());

        let mut live: Vec<Point<3>> = Vec::new();
        let mut budget: std::collections::HashMap<[u32;3], usize> = Default::default();
        for p in &del { *budget.entry(p.coords).or_insert(0) += 1; }
        for p in base.iter().chain(extra.iter()) {
            if let Some(b) = budget.get_mut(&p.coords) {
                if *b > 0 { *b -= 1; continue; }
            }
            live.push(*p);
        }
        t.check_invariants(&live);
    }
}

/// A multiset of stored points, the model every composition is held to.
struct Model<const D: usize>(Vec<Point<D>>);

impl<const D: usize> Model<D> {
    /// Removes one stored instance per request, like `batch_delete`.
    fn delete(&mut self, reqs: &[Point<D>]) -> usize {
        let before = self.0.len();
        for r in reqs {
            if let Some(i) = self.0.iter().position(|p| p == r) {
                self.0.swap_remove(i);
            }
        }
        before - self.0.len()
    }

    /// `len`, membership, box counts and 5-NN of `t` equal a scan.
    fn check(&self, t: &mut impl BatchIndex<D>, probes: &[Point<D>], what: &str) {
        assert_eq!(t.len(), self.0.len(), "{what}: len");
        let found: Vec<bool> = probes.iter().map(|q| self.0.contains(q)).collect();
        assert_eq!(t.batch_contains(probes), found, "{what}: contains");
        let mut boxes = vec![Aabb::universe()];
        boxes.extend(probes.iter().map(|q| Aabb::point(*q)));
        boxes.extend(probes.windows(2).map(|w| Aabb::new(w[0], w[1])));
        let counts: Vec<u64> =
            boxes.iter().map(|b| self.0.iter().filter(|p| b.contains(p)).count() as u64).collect();
        assert_eq!(t.batch_box_count(&boxes), counts, "{what}: box count");
        let knn: Vec<Vec<(u64, Point<D>)>> =
            probes.iter().map(|q| knn_distinct(&self.0, q, 5, Metric::L2)).collect();
        assert_eq!(t.batch_knn(probes, 5, Metric::L2), knn, "{what}: 5-NN");
    }
}

/// Runs one duplicate-heavy schedule on a single tree and a 4-rank sharded
/// tree, through the batch surface, checking both against the model after
/// every step (and the single tree's invariants). `steps` are `(kind, hot
/// point, copies as % of θ_L0, other points)`; kinds 0–1 insert, 2 deletes,
/// 3 deletes everything stored.
fn run_duplicate_schedule<const D: usize>(
    skew: bool,
    seed: u64,
    n0: usize,
    hot0_pct: u64,
    steps: &[(u32, usize, u64, usize)],
) {
    const P: usize = 8;
    let cfg = if skew {
        PimZdConfig::skew_resistant(P)
    } else {
        PimZdConfig::throughput_optimized(n0 as u64, P)
    };
    let copies = |pct: u64| (cfg.theta_l0 * pct / 100) as usize;
    let max = max_coord_for_dim(D);
    let corners: [Point<D>; 4] = [
        Point::new([0; D]),
        Point::new([max; D]),
        Point::new(std::array::from_fn(|i| if i % 2 == 0 { 0 } else { max })),
        Point::new(std::array::from_fn(|i| if i % 2 == 0 { max } else { 0 })),
    ];
    let uniform = workloads::uniform::<D>(n0 + 2 + 24 * steps.len(), seed);
    let hot = [uniform[n0], uniform[n0 + 1], corners[1]];
    let mut fresh = uniform[n0 + 2..].chunks(24);
    let mut probes = hot.to_vec();
    probes.extend_from_slice(&corners);
    probes.extend(uniform.iter().step_by(1 + uniform.len() / 6));

    let mut model = Model(uniform[..n0].to_vec());
    model.0.extend(std::iter::repeat_n(hot[0], copies(hot0_pct)));
    let machine = MachineConfig::with_modules(P);
    let mut single = PimZdTree::build(&model.0, cfg, machine);
    let mut sharded = ShardedZdTree::build(&model.0, ShardConfig::new(4), cfg, machine);
    single.check_invariants(&model.0);
    model.check(&mut single, &probes, "single, built");
    model.check(&mut sharded, &probes, "sharded, built");

    for (i, &(kind, h, pct, others)) in steps.iter().enumerate() {
        let mut batch = vec![hot[h]; copies(pct).max(1)];
        batch.extend_from_slice(&corners[..others % 5]);
        if kind < 2 {
            batch.extend_from_slice(&fresh.next().unwrap()[..others]);
            BatchIndex::batch_insert(&mut single, &batch);
            BatchIndex::batch_insert(&mut sharded, &batch);
            model.0.extend_from_slice(&batch);
        } else {
            if kind == 3 {
                batch = model.0.clone();
            } else {
                batch.extend(model.0.iter().step_by(3).take(others));
            }
            let removed = model.delete(&batch);
            assert_eq!(BatchIndex::batch_delete(&mut single, &batch), removed, "step {i}");
            assert_eq!(BatchIndex::batch_delete(&mut sharded, &batch), removed, "step {i}");
        }
        single.check_invariants(&model.0);
        model.check(&mut single, &probes, &format!("single, step {i} (kind {kind})"));
        model.check(&mut sharded, &probes, &format!("sharded, step {i} (kind {kind})"));
    }
}

/// The generated schedules that each first caught a defect in the splice
/// and promotion paths, kept as fixed cases so they outlive any change to
/// the generator below.
#[test]
fn pinned_duplicate_schedules_match_the_model() {
    // A splice takes a fragment's root node; whoever holds the ref to the
    // fragment must hear its narrower prefix.
    run_duplicate_schedule::<2>(
        false,
        589_389,
        1,
        194,
        &[(1, 2, 55, 0), (2, 1, 147, 19), (1, 1, 218, 0)],
    );
    // … and the parent's lazy counter must follow what the splice removed.
    run_duplicate_schedule::<3>(
        true,
        397_484,
        2,
        76,
        &[(0, 0, 144, 17), (2, 0, 283, 1), (2, 0, 195, 10), (3, 1, 11, 15)],
    );
    // L0 absorbs a fragment that has a chunk directory and is then patched
    // in place: a stale directory sends the next search to a freed node.
    run_duplicate_schedule::<3>(
        true,
        911_676,
        1,
        68,
        &[(2, 0, 22, 13), (0, 2, 241, 4), (1, 0, 220, 8), (1, 0, 179, 15)],
    );
    // A promoted fragment's structure caches must go with it.
    run_duplicate_schedule::<2>(
        true,
        85_400,
        165,
        58,
        &[(1, 1, 7, 14), (0, 1, 188, 6), (1, 2, 219, 13), (2, 0, 31, 1), (0, 0, 85, 14)],
    );
}

/// Update batches under a 5 % fault plan on a skew-resistant tree, with a
/// module killed halfway. A batch's maintenance sends each module its
/// masters, counter syncs, root splits and structure pulls in one round, in
/// that order, and a replay after a fault or a death re-homes those tasks
/// behind another module's own; a death also moves masters, and with them
/// the cache targets around them. After every batch the invariants hold —
/// every structure copy where the directory and §3.1 put it — and the tree
/// answers as the model does.
#[test]
fn update_batches_under_a_fault_plan_keep_the_invariants() {
    const P: usize = 32;
    let seed = 2_605;
    let base = workloads::osm_like::<3>(3_000, seed);
    let mut t =
        PimZdTree::build(&base, PimZdConfig::skew_resistant(P), MachineConfig::with_modules(P));
    t.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.05, seed))));
    let probes = workloads::point_queries(&base, 40, 0, seed + 1);
    let mut model = Model(base.clone());
    for step in 0..8u64 {
        if step == 4 {
            t.kill_module(5);
        }
        let batch = workloads::point_queries(&base, 400, 4, seed ^ step);
        if step % 2 == 0 {
            t.batch_insert(&batch);
            model.0.extend_from_slice(&batch);
        } else {
            let gone: Vec<Point<3>> = model.0.iter().step_by(5).copied().collect();
            assert_eq!(t.batch_delete(&gone), model.delete(&gone), "step {step}");
        }
        t.check_invariants(&model.0);
        model.check(&mut t, &probes, &format!("step {step}"));
    }
    let log = t.sim_stats();
    let salvages = log.faults_of(FaultKind::Salvage);
    assert!(log.retries > 0 && salvages > 0, "the plan and the kill must bite: {log:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A delete that only thins a fragment sends its structure copies a
    /// patch of what it lowered, not a new copy. A copy may count fewer
    /// points than its master, never more: a kNN anchor picked on a copy
    /// that overcounts could promise 2k points over fewer than k, and the
    /// query's best-k would come back short and fetch the whole space.
    /// Skew trees on 64 modules with 24-node fragments, so that L1 metas
    /// nest and carry copies, under a 5 % fault plan, lose original points
    /// in thinning steps, which lowers counts and narrows leaf prefixes.
    /// After every step the invariants hold (every copy at or below its
    /// master), the tree answers as the model does, and no 5-NN query fell
    /// back to the whole space.
    #[test]
    fn thinning_deletes_keep_every_copy_at_or_below_its_master(
        seed in 0u64..1 << 16,
        stride in 3usize..9,
    ) {
        const P: usize = 64;
        let cfg = PimZdConfig { max_fragment_nodes: 24, ..PimZdConfig::skew_resistant(P) };
        let base = workloads::osm_like::<3>(3_000, seed);
        let mut t = PimZdTree::build(&base, cfg, MachineConfig::with_modules(P));
        let metrics = Metrics::enabled_new();
        t.set_metrics(metrics.clone());
        t.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.05, seed))));
        let probes = workloads::point_queries(&base, 30, 0, seed + 1);
        let mut model = Model(base);
        let counter = |name| metrics.with(|m| m.counter(name, &[]).unwrap_or(0)).unwrap();
        for step in 0..5 {
            let gone: Vec<Point<3>> = model.0.iter().step_by(stride).copied().collect();
            prop_assert_eq!(t.batch_delete(&gone), model.delete(&gone), "step {}", step);
            t.check_invariants(&model.0);
            model.check(&mut t, &probes, &format!("seed {seed} step {step}"));
            prop_assert_eq!(counter("host_knn_unbounded_total"), 0, "step {}", step);
        }
        prop_assert!(model.0.len() > 300, "n stays well above k");
        prop_assert!(counter("host_cache_patches_total") > 0, "the deletes must patch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Duplicate-heavy schedules — a few hot points (one at a grid corner)
    /// with up to 3 × θ_L0 copies each, mixed with uniform points and the
    /// grid corners, inserted and deleted in batches, over trees from empty
    /// to a few hundred points, in 2-D and 3-D — keep a single tree and a
    /// 4-rank sharded tree equal to a `Vec<Point>` multiset.
    #[test]
    fn duplicate_heavy_schedules_match_the_model(
        d3 in proptest::bool::ANY,
        skew in proptest::bool::ANY,
        seed in 0u64..1 << 20,
        n0 in (proptest::bool::ANY, 0usize..3, 100usize..400),
        hot0_pct in 0u64..=300,
        steps in proptest::collection::vec((0u32..4, 0usize..3, 1u64..=300, 0usize..24), 2..6),
    ) {
        let n0 = if n0.0 { n0.1 } else { n0.2 };
        if d3 {
            run_duplicate_schedule::<3>(skew, seed, n0, hot0_pct, &steps);
        } else {
            run_duplicate_schedule::<2>(skew, seed, n0, hot0_pct, &steps);
        }
    }
}

/// `cfg` with every batch pulling every fragment it demands, as the
/// pull-always regime of `tests/cost_pins.rs` sets it: every read runs
/// on the host, from pulls the host keeps.
fn pull_always(cfg: PimZdConfig) -> PimZdConfig {
    PimZdConfig { imbalance_factor: 0.0, k_pull_l1: 0, k_pull_l2: 0, ..cfg }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The host keeps every master it pulled until a round that may write
    /// one. Under pull-always, the reads of a step (contains, box count,
    /// 5-NN) reuse one another's pulls and the write of the next step must
    /// void them all. Writes and reads interleave on osm-like trees of both
    /// presets; after every write and every read the invariants hold —
    /// every kept pull its master's exact copy — and the tree answers as
    /// the model does.
    #[test]
    fn kept_pulls_stay_their_masters_across_reads_and_writes(
        seed in 0u64..1 << 16,
        skew in proptest::bool::ANY,
        writes in proptest::collection::vec(proptest::bool::ANY, 3..7),
    ) {
        const P: usize = 16;
        let base = workloads::osm_like::<3>(2_000, seed);
        let cfg = if skew {
            PimZdConfig::skew_resistant(P)
        } else {
            PimZdConfig::throughput_optimized(base.len() as u64, P)
        };
        let mut t = PimZdTree::build(&base, pull_always(cfg), MachineConfig::with_modules(P));
        let metrics = Metrics::enabled_new();
        t.set_metrics(metrics.clone());
        let probes = workloads::point_queries(&base, 30, 0, seed + 1);
        let mut model = Model(base.clone());
        for (step, insert) in writes.into_iter().enumerate() {
            if insert {
                let batch = workloads::point_queries(&base, 200, 4, seed ^ step as u64);
                t.batch_insert(&batch);
                model.0.extend_from_slice(&batch);
            } else {
                let gone: Vec<Point<3>> = model.0.iter().step_by(7).copied().collect();
                prop_assert_eq!(t.batch_delete(&gone), model.delete(&gone), "step {}", step);
            }
            t.check_invariants(&model.0);
            model.check(&mut t, &probes, &format!("seed {seed} step {step}"));
            t.check_invariants(&model.0);
        }
        let reused = metrics.with(|m| m.counter("host_pulls_reused_total", &[])).unwrap();
        prop_assert!(reused.unwrap_or(0) > 0, "the reads must reuse pulls");
    }
}

/// A module fail-stops while the host holds pulls. Under pull-always every
/// round a read sends is a pull, so the read after the kill detects it in
/// one: recovery's re-install round, inside that pull round, voids every
/// kept pull, and the read pulls again what it then misses. It must not
/// panic, and it must read no copy of a master that recovery moved.
#[test]
fn a_module_killed_inside_a_pull_round_voids_the_kept_pulls() {
    const P: usize = 16;
    let seed = 3_331;
    let base = workloads::osm_like::<3>(3_000, seed);
    let cfg = pull_always(PimZdConfig::skew_resistant(P));
    let mut t = PimZdTree::build(&base, cfg, MachineConfig::with_modules(P));
    let metrics = Metrics::enabled_new();
    t.set_metrics(metrics.clone());
    let counter = |name| metrics.with(|m| m.counter(name, &[]).unwrap_or(0)).unwrap();
    let model = Model(base.clone());
    let (near, far) = (&base[..10], &base[base.len() - 10..]);
    // Some pulls held, not all: the next read has something to pull.
    assert!(t.batch_contains(near).iter().all(|&f| f));
    t.check_invariants(&model.0);
    t.kill_module(3);
    let (recoveries, reused) =
        (counter("host_recoveries_total"), counter("host_pulls_reused_total"));
    model.check(&mut t, far, "after the kill");
    assert_eq!(counter("host_recoveries_total"), recoveries + 1, "the read detects the kill");
    assert!(counter("host_pulls_reused_total") > reused, "the read meets kept pulls");
    t.check_invariants(&model.0);
    model.check(&mut t, near, "after the recovery");
    t.check_invariants(&model.0);
}
