//! Observability invariants of the metrics registry.
//!
//! Two contracts are held here:
//!
//! 1. **Thread-count invariance** — every metric is fed from the simulator's
//!    sequential accounting blocks, so the full snapshot (exposition text
//!    and JSON) must be *byte-identical* at 1, 2, and 8 executor threads,
//!    exactly like the trace journal in `parallel_determinism.rs`.
//! 2. **Registry ↔ `SimStats` consistency** — the registry is a second
//!    view of the same accounting, not an estimate: round counts and byte
//!    counters must agree exactly, per-module busy cycles must sum to the
//!    machine total, and the float second-sums must agree to rounding.

mod common;

use common::HOST_CACHE_COUNTERS;
use pim_zd_tree_repro::sim::Metrics;
use pim_zd_tree_repro::{workloads, Aabb, MachineConfig, Metric, PimZdConfig, PimZdTree};

const SEED: u64 = 2026;
const N: usize = 6_000;
const MODULES: usize = 64;

/// Seeded mini workload covering every metered path: insert (splices via
/// delete), delete, contains, kNN, box count/fetch — on enough modules for
/// L1 structure caches, so the updates' cache reconciles publish too.
/// Returns the tree with its metrics handle still attached.
fn run_workload() -> (PimZdTree<3>, Metrics) {
    let pts = workloads::uniform::<3>(N, SEED);
    let cfg = PimZdConfig::skew_resistant(MODULES);
    let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(MODULES));
    let metrics = Metrics::enabled_new();
    t.set_metrics(metrics.clone());

    let extra = workloads::uniform::<3>(800, SEED + 1);
    t.batch_insert(&extra);
    let _ = t.batch_delete(&pts[..400]);

    let probes = workloads::knn_queries(&pts, 300, SEED + 2);
    let _ = t.batch_contains(&probes);
    let _ = t.batch_knn(&probes[..150], 4, Metric::L2);

    let side = workloads::box_side_for_expected::<3>(N, 30.0);
    let boxes = workloads::box_queries(&pts, 200, side, SEED + 3);
    let _ = t.batch_box_count(&boxes);
    let _ = t.batch_box_fetch(&boxes[..100]);
    (t, metrics)
}

fn snapshots() -> (String, String) {
    let (_, metrics) = run_workload();
    (metrics.snapshot_text().unwrap(), metrics.snapshot_json().unwrap())
}

#[test]
fn metrics_snapshots_are_byte_identical_at_1_2_and_8_threads() {
    let (base_text, base_json) = rayon::ThreadPool::new(1).install(snapshots);
    assert!(base_text.contains("# TYPE sim_rounds_total counter"), "{base_text}");
    assert!(base_text.contains("host_batches_total"), "host feeds missing:\n{base_text}");

    for threads in [2usize, 8] {
        let pool = rayon::ThreadPool::new(threads);
        assert_eq!(pool.current_num_threads(), threads);
        let (text, json) = pool.install(snapshots);
        assert_eq!(text, base_text, "metrics text snapshot diverged at {threads} threads");
        assert_eq!(json, base_json, "metrics JSON snapshot diverged at {threads} threads");
    }
}

#[test]
fn registry_agrees_with_sim_stats() {
    let (t, metrics) = run_workload();
    let stats = *t.sim_stats();

    metrics
        .with(|m| {
            // Exact integer counters.
            assert_eq!(m.counter_sum("sim_rounds_total"), stats.rounds);
            assert_eq!(m.counter_sum("sim_cpu_to_pim_bytes_total"), stats.cpu_to_pim_bytes);
            assert_eq!(m.counter_sum("sim_pim_to_cpu_bytes_total"), stats.pim_to_cpu_bytes);
            // Per-module busy cycles partition the machine total exactly.
            assert_eq!(m.counter_sum("sim_module_busy_cycles_total"), stats.total_pim_cycles);

            // Float sums: the registry groups by phase, `SimStats` adds in
            // round order, so allow only summation-order rounding.
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
            assert!(close(m.counter_sum_f("sim_pim_seconds_total"), stats.pim_s));
            assert!(close(m.counter_sum_f("sim_comm_seconds_total"), stats.comm_s));
            assert!(close(m.counter_sum_f("sim_overhead_seconds_total"), stats.overhead_s));

            // Host-side feeds fired for each batched op family.
            for op in ["insert", "delete", "search", "knn", "box_count", "box_fetch"] {
                assert_eq!(
                    m.counter("host_batches_total", &[("op", op)]),
                    Some(1),
                    "missing host batch counter for {op}"
                );
            }
            // The searches count the nodes they enter on the host, at least
            // one per query; the box queries run none.
            let nodes = |op| m.counter("host_search_nodes_total", &[("op", op)]);
            for (op, queries) in [("insert", 800), ("delete", 400), ("search", 300), ("knn", 150)] {
                let n = nodes(op).expect("every measured batch publishes its search nodes");
                assert!(n >= queries, "{op}: {n} search nodes for {queries} queries");
            }
            assert_eq!((nodes("box_count"), nodes("box_fetch")), (Some(0), Some(0)));
            // The kNN ball phase: every query counted, in no more runs than
            // queries.
            let ball = |name| m.counter(name, &[]).expect("kNN publishes its ball phase");
            assert_eq!(ball("host_knn_ball_queries_total"), 150);
            assert!((1..=150).contains(&ball("host_knn_ball_runs_total")));
            assert!((1..=150).contains(&ball("host_knn_fused_total")));
            assert!(ball("host_knn_ball_points_total") >= 150);
            // The cache reconcile of the two update batches, whose counts
            // are those of the management rounds' tasks: copies installed,
            // pulled only for metas that flipped into L1, dropped where a
            // meta left L1, and patched where the delete only thinned.
            let cache = |name| m.counter(name, &[]).expect("the updates reconcile caches");
            let [pulls, installs, drops, patches, flips] = HOST_CACHE_COUNTERS.map(cache);
            assert!(installs >= pulls, "{pulls} pulls, {installs} installs");
            assert!(pulls <= flips && flips > 0, "{pulls} pulls, {flips} flips");
            assert!(drops > 0 && patches > 0, "{drops} drops, {patches} patches");
            // kNN reports whether any query's best-k step came back short.
            assert_eq!(m.counter("host_knn_unbounded_total", &[]), Some(0));
            // The fault-free workload must not invent fault metrics.
            assert_eq!(m.counter_sum("sim_faults_total"), 0);
            assert_eq!(m.counter_sum("sim_retries_total"), 0);
        })
        .expect("metrics handle is enabled");
}

#[test]
fn detached_run_records_nothing_and_changes_no_results() {
    // The same workload with metrics never attached must produce the same
    // query results (observability is passive) — spot-check via stats.
    let (a, metrics) = run_workload();
    let pts = workloads::uniform::<3>(N, SEED);
    let cfg = PimZdConfig::skew_resistant(MODULES);
    let mut b = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(MODULES));
    let extra = workloads::uniform::<3>(800, SEED + 1);
    b.batch_insert(&extra);
    let _ = b.batch_delete(&pts[..400]);
    let probes = workloads::knn_queries(&pts, 300, SEED + 2);
    let _ = b.batch_contains(&probes);
    let _ = b.batch_knn(&probes[..150], 4, Metric::L2);
    let side = workloads::box_side_for_expected::<3>(N, 30.0);
    let boxes = workloads::box_queries(&pts, 200, side, SEED + 3);
    let _ = b.batch_box_count(&boxes);
    let _ = b.batch_box_fetch(&boxes[..100]);

    assert!(!b.metrics().enabled());
    assert_eq!(format!("{:?}", a.sim_stats()), format!("{:?}", b.sim_stats()));
    assert!(metrics.with(|m| m.n_series()).unwrap() > 10, "metered run recorded families");
}

/// `host_range_nodes_total{op}` counts the nodes the host's box, best-k and
/// ball walks enter: their L0 descents and their steps on L0 and pulled
/// fragments. A box batch is sorted by lower corner and each box enters L0
/// at its split node by SEARCH's resumed descent, so on a batch whose boxes
/// share prefixes the count falls below that of the same boxes sent one per
/// batch (each descending from the L0 root), and a batch of point boxes
/// enters the nodes SEARCH enters for the points.
#[test]
fn range_walks_count_the_host_nodes_they_enter() {
    let pts = workloads::uniform::<3>(N, SEED);
    let cfg = PimZdConfig::skew_resistant(MODULES);
    let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(MODULES));
    let metrics = Metrics::enabled_new();
    t.set_metrics(metrics.clone());
    let nodes = |name: &str, op: &str| {
        metrics.with(|m| m.counter(name, &[("op", op)]).unwrap_or(0)).unwrap()
    };

    let side = workloads::box_side_for_expected::<3>(N, 4.0);
    let boxes = workloads::box_queries(&pts, 200, side, SEED + 3);
    let _ = t.batch_box_count(&boxes);
    let batch = nodes("host_range_nodes_total", "box_count");
    for b in &boxes {
        let _ = t.batch_box_count(std::slice::from_ref(b));
    }
    let singles = nodes("host_range_nodes_total", "box_count") - batch;
    println!("box_count: {batch} host nodes as one batch, {singles} one box per batch");
    assert!(batch > 0 && batch < singles, "{batch} !< {singles}");

    // A point box's descent is its point's SEARCH descent through L0, and
    // its split node is the fragment below L0 that holds the point; at this
    // size nothing is pulled, so the host enters nothing else.
    let points: Vec<Aabb<3>> = pts[..200].iter().map(|&p| Aabb::point(p)).collect();
    let _ = t.batch_box_fetch(&points);
    let _ = t.batch_contains(&pts[..200]);
    let range = nodes("host_range_nodes_total", "box_fetch");
    let search = nodes("host_search_nodes_total", "search");
    println!("point boxes: {range} host nodes; their SEARCH: {search}");
    assert_eq!(range, search, "point boxes enter L0 as SEARCH does");
}
