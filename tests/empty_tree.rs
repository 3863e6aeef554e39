//! Regression tests: every batch operation on an empty tree must return
//! empty results instead of panicking — whether the tree was born empty
//! (built over no points) or emptied by deleting everything. The checks are
//! written once against the batch surface (`BatchRead` / `BatchIndex`) and
//! run on every composition: a single tree under both presets, a sharded
//! tree at 1, 2 and 8 ranks (also across a rebalance), a snapshot while the
//! live tree is written, and a server fronting an empty tree.

use pim_zd_tree_repro::serve::{PimServer, ServeConfig};
use pim_zd_tree_repro::workloads::{open_loop_trace, RequestMix};
use pim_zd_tree_repro::{
    workloads, Aabb, BatchIndex, BatchRead, MachineConfig, Metric, PimZdConfig, PimZdTree, Point,
    ShardConfig, ShardedZdTree,
};

const MODULES: usize = 8;

fn presets(n: u64) -> [PimZdConfig; 2] {
    [PimZdConfig::skew_resistant(MODULES), PimZdConfig::throughput_optimized(n, MODULES)]
}

fn machine() -> MachineConfig {
    MachineConfig::with_modules(MODULES)
}

fn empty_tree() -> PimZdTree<3> {
    PimZdTree::build(&[], presets(1)[0], machine())
}

/// Every read against an index storing exactly `stored` (nothing, or a
/// point or two) equals a scan of `stored`: membership, kNN for the
/// edge-case `k`s under all three metrics, and box queries including a
/// zero-volume box and the universe.
fn assert_reads_see(t: &mut impl BatchRead<3>, stored: &[Point<3>]) {
    let mut pts = workloads::uniform::<3>(32, 7);
    pts.extend_from_slice(stored);
    assert_eq!(t.len(), stored.len());
    assert_eq!(t.is_empty(), stored.is_empty());
    let found: Vec<bool> = pts.iter().map(|p| stored.contains(p)).collect();
    assert_eq!(t.batch_contains(&pts), found, "contains");
    for metric in [Metric::L1, Metric::L2, Metric::Linf] {
        for k in [0, 1, 5, stored.len() + 500, usize::MAX] {
            let knn = t.batch_knn(&pts, k, metric);
            assert_eq!(knn.len(), pts.len());
            for (q, got) in pts.iter().zip(&knn) {
                let mut want: Vec<(u64, Point<3>)> =
                    stored.iter().map(|p| (metric.cmp_dist(q, p), *p)).collect();
                want.sort_unstable_by_key(|(d, p)| (*d, p.coords));
                want.dedup();
                want.truncate(k);
                assert_eq!(got, &want, "kNN {metric:?} k={k}");
            }
        }
    }
    let boxes = [
        Aabb::universe(),
        Aabb::new(Point::new([1, 1, 1]), Point::new([9, 9, 9])),
        Aabb::point(pts[0]),
        Aabb::point(*pts.last().unwrap()),
    ];
    let inside = |b: &Aabb<3>| -> Vec<Point<3>> {
        let mut v: Vec<Point<3>> = stored.iter().filter(|p| b.contains(p)).copied().collect();
        v.sort_unstable_by_key(|p| p.coords);
        v
    };
    let counts: Vec<u64> = boxes.iter().map(|b| inside(b).len() as u64).collect();
    assert_eq!(t.batch_box_count(&boxes), counts, "box count");
    let mut fetched = t.batch_box_fetch(&boxes);
    for v in &mut fetched {
        v.sort_unstable_by_key(|p| p.coords);
    }
    assert_eq!(fetched, boxes.iter().map(inside).collect::<Vec<_>>(), "box fetch");
}

fn assert_all_queries_empty(t: &mut impl BatchIndex<3>) {
    assert_reads_see(t, &[]);
    let pts = workloads::uniform::<3>(32, 7);
    assert_eq!(t.batch_delete(&pts), 0, "deleting from empty removes nothing");
    assert_reads_see(t, &[]);
}

#[test]
fn born_empty_tree_answers_everything_empty() {
    for cfg in presets(1) {
        let mut t = PimZdTree::build(&[], cfg, machine());
        assert_all_queries_empty(&mut t);
        assert_eq!(t.space_bytes(), 0, "empty tree stores nothing");
    }
}

#[test]
fn empty_input_batches_are_no_ops() {
    let mut t = empty_tree();
    t.batch_insert(&[]);
    assert_eq!(t.batch_delete(&[]), 0);
    assert!(t.batch_contains(&[]).is_empty());
    assert!(t.batch_knn(&[], 3, Metric::L2).is_empty());
    assert!(t.batch_box_count(&[]).is_empty());
    assert!(t.batch_box_fetch(&[]).is_empty());
    assert_eq!(t.epoch(), 0, "empty batches do not advance the epoch");
}

#[test]
fn deleted_to_empty_tree_answers_everything_empty() {
    let pts = workloads::uniform::<3>(400, 3);
    for cfg in presets(400) {
        let mut t = PimZdTree::build(&pts, cfg, machine());
        assert_eq!(t.len(), 400);
        assert_eq!(t.batch_delete(&pts), 400);
        assert_all_queries_empty(&mut t);
        assert_eq!(t.space_bytes(), 0, "empty tree stores nothing");
    }
}

#[test]
fn emptied_tree_accepts_new_inserts() {
    let pts = workloads::uniform::<3>(300, 5);
    let mut t = PimZdTree::build(&pts, presets(300)[0], machine());
    assert_eq!(t.batch_delete(&pts), 300);
    assert_all_queries_empty(&mut t);
    t.batch_insert(&pts[..50]);
    assert_eq!(t.len(), 50);
    assert!(t.batch_contains(&pts[..50]).iter().all(|&f| f));
    let knn = t.batch_knn(&pts[..4], 1, Metric::L2);
    for (q, res) in pts[..4].iter().zip(&knn) {
        assert_eq!(res[0].1, *q, "inserted point is its own nearest neighbor");
    }
}

#[test]
fn insert_into_born_empty_tree_works() {
    let mut t = empty_tree();
    let pts = workloads::uniform::<3>(64, 9);
    t.batch_insert(&pts);
    assert_eq!(t.len(), 64);
    assert!(t.batch_contains(&pts).iter().all(|&f| f));
    assert_eq!(t.batch_box_count(&[Aabb::universe()]), vec![64]);
}

#[test]
fn sharded_empty_trees_answer_everything_empty() {
    let pts = workloads::uniform::<3>(400, 3);
    for ranks in [1, 2, 8] {
        for zcfg in presets(400) {
            // Born empty, also across a rebalance with nothing to move.
            let mut t = ShardedZdTree::build(&[], ShardConfig::new(ranks), zcfg, machine());
            assert_all_queries_empty(&mut t);
            t.rebalance_now();
            assert_all_queries_empty(&mut t);

            // Emptied, with a rebalancer that fires on nearly every batch.
            let mut scfg = ShardConfig::new(ranks);
            scfg.rebalance_threshold = 1.01;
            let mut t = ShardedZdTree::build(&pts, scfg, zcfg, machine());
            t.batch_knn(&pts[..64], 3, Metric::L2);
            assert_eq!(t.batch_delete(&pts), 400);
            assert_all_queries_empty(&mut t);
            t.batch_insert(&pts[..1]);
            assert_reads_see(&mut t, &pts[..1]);
        }
    }
}

#[test]
fn snapshots_of_empty_and_one_point_trees_stay_pinned() {
    let pts = workloads::uniform::<3>(200, 11);
    for cfg in presets(200) {
        let mut live = PimZdTree::build(&[], cfg, machine());
        let mut empty = live.snapshot();
        live.batch_insert(&pts[..1]);
        let mut one = live.snapshot();
        // The live tree moves on under both snapshots.
        live.batch_insert(&pts[1..]);
        assert_reads_see(&mut empty, &[]);
        assert_reads_see(&mut one, &pts[..1]);
        assert_eq!(live.batch_delete(&pts), 200);
        assert_reads_see(&mut one, &pts[..1]);
        assert_reads_see(&mut empty, &[]);
        assert_all_queries_empty(&mut live);
    }
}

#[test]
fn server_over_an_empty_tree_replies_to_every_request() {
    let data = workloads::uniform::<3>(500, 13);
    let mut server = PimServer::new(empty_tree(), ServeConfig::default());
    let delete_heavy = RequestMix { insert: 5, delete: 60, ..RequestMix::read_heavy() };
    for (mix, seed) in [(RequestMix::read_heavy(), 17), (delete_heavy, 19)] {
        let trace = open_loop_trace(&data, 600, 200_000.0, &mix, seed);
        let report = server.run_trace(&trace);
        assert_eq!(report.replies.len(), 600, "one reply per request");
        assert!(report.replies.iter().enumerate().all(|(i, r)| r.id == i as u64));
        assert_eq!(report.rejected, 0);
    }
}
