//! Property-based tests (proptest) over core data-structure invariants.

use pim_geom::{max_coord_for_dim, Aabb, Metric, Point};
use pim_memsim::{CpuConfig, CpuMeter};
use pim_zd_tree_repro::{workloads, MachineConfig, PimZdConfig, PimZdTree};
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
