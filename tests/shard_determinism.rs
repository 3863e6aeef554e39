//! Thread-count invariance of the scale-out shard router.
//!
//! A 4-rank [`ShardedZdTree`] runs a seeded end-to-end workload (build +
//! insert + delete + contains + kNN with cross-shard widening + BoxCount +
//! BoxFetch + a forced skew-driven rebalance) inside explicit 1-, 2-, and
//! 8-thread pools. Ranks execute concurrently on the pool, but every
//! reduction is index-ordered and every rank journals into its own buffer,
//! so the per-rank trace journals, the merged metrics snapshot (with the
//! ranks' kNN counters `host_knn_fused_total`, `host_knn_ball_queries_total`,
//! `host_knn_ball_runs_total` and `host_knn_ball_points_total` in it), per-op
//! `ShardOpStats` (the
//! coalesced-widening counters `widen_requests` and `widen_fetches`
//! included), and all query results must be **byte-identical** across the
//! three schedules (ISSUE acceptance criterion; ARCHITECTURE.md §10
//! "determinism quarantine").

use pim_zd_tree_repro::sim::Metrics;
use pim_zd_tree_repro::{
    workloads as wl, MachineConfig, Metric, PimZdConfig, ShardConfig, ShardedZdTree,
};

const SEED: u64 = 2026;
const N: usize = 5_000;
const RANKS: usize = 4;

/// Everything observable from one run, in byte-comparable form.
#[derive(Debug, PartialEq, Eq)]
struct RunArtifacts {
    /// Per-rank JSONL trace journals, rank order.
    journals: Vec<String>,
    /// Merged metrics snapshot (text exposition; sorted and typed).
    metrics: String,
    /// `Debug` rendering of each op's `ShardOpStats` (covers per-rank and
    /// aggregate simulated seconds, bytes, rounds, imbalance and the widen
    /// counters bit-for-bit).
    op_stats: Vec<String>,
    /// Σ over the run's ops of `(widen_requests, widen_fetches)`.
    widen: (u64, u64),
    /// Query results flattened to a fingerprint stream.
    results: Vec<u64>,
    /// (leaf moves, cell splits, migrated points) after the forced rebalance.
    rebalance: (u64, u64, u64),
}

/// The seeded workload; must be a pure function of `SEED`.
fn run_workload() -> RunArtifacts {
    let data = wl::uniform::<3>(N, SEED);
    let mut scfg = ShardConfig::new(RANKS);
    scfg.rebalance_threshold = 1.05; // make the rebalancer part of the run
    let zcfg = PimZdConfig::throughput_optimized(N as u64, 16);
    let mut t = ShardedZdTree::build(&data, scfg, zcfg, MachineConfig::with_modules(16));
    let journals = t.attach_journals();
    let metrics = Metrics::enabled_new();
    t.set_metrics(metrics.clone());

    let mut op_stats = Vec::new();
    let mut results = Vec::new();
    let mut widen = (0u64, 0u64);
    let mut snap = |t: &ShardedZdTree<3>, results: &mut Vec<u64>, fp: u64| {
        results.push(fp);
        let st = t.last_shard_stats();
        widen = (widen.0 + st.widen_requests, widen.1 + st.widen_fetches);
        format!("{st:?}")
    };

    let extra = wl::point_queries(&data, 600, 9, SEED ^ 0xA);
    t.batch_insert(&extra);
    op_stats.push(snap(&t, &mut results, t.len() as u64));

    let removed = t.batch_delete(&extra[..250]);
    op_stats.push(snap(&t, &mut results, removed as u64));

    let probes = wl::point_queries(&data, 300, 2, SEED ^ 0xB);
    let found = t.batch_contains(&probes);
    op_stats.push(snap(&t, &mut results, found.iter().filter(|&&f| f).count() as u64));

    // Hot-cell kNN storm: concentrates heat so the skew rebalancer fires.
    let hot = wl::hot_cell_queries(&data, 400, 0.8, 8, SEED ^ 0xC);
    for _ in 0..3 {
        let rows = t.batch_knn(&hot, 10, Metric::L2);
        let fp = rows.iter().flatten().fold(0u64, |acc, (d, p)| {
            acc.wrapping_mul(0x100000001B3).wrapping_add(d ^ p.coords[0] as u64)
        });
        op_stats.push(snap(&t, &mut results, fp));
    }

    let side = wl::box_side_for_expected::<3>(N, 50.0);
    let boxes = wl::box_queries(&data, 120, side, SEED ^ 0xD);
    let counts = t.batch_box_count(&boxes);
    op_stats.push(snap(&t, &mut results, counts.iter().sum()));
    let fetched = t.batch_box_fetch(&boxes);
    op_stats.push(snap(&t, &mut results, fetched.iter().map(|v| v.len() as u64).sum()));

    let (moves, splits, migrated) = t.rebalance_counters();
    t.merge_rank_metrics();
    RunArtifacts {
        journals: journals.iter().map(|j| j.to_jsonl()).collect(),
        metrics: metrics.snapshot_text().expect("metrics enabled"),
        op_stats,
        widen,
        results,
        rebalance: (moves, splits, migrated),
    }
}

#[test]
fn four_rank_run_is_byte_identical_at_1_2_8_threads() {
    let baseline = rayon::ThreadPool::new(1).install(run_workload);
    assert!(
        baseline.journals.iter().any(|j| !j.is_empty()),
        "the workload must journal rounds on at least one rank"
    );
    assert!(
        baseline.rebalance.0 + baseline.rebalance.1 > 0,
        "the hot-cell storm must trigger the rebalancer (moves={} splits={})",
        baseline.rebalance.0,
        baseline.rebalance.1
    );
    // The hot-cell storm coalesces, and the registry carries what the
    // per-op stats counted.
    let (requests, fetches) = baseline.widen;
    assert!(0 < fetches && fetches < requests, "widening: {fetches} boxes for {requests} requests");
    for (series, total) in
        [("shard_widen_requests_total", requests), ("shard_widen_fetches_total", fetches)]
    {
        assert!(
            baseline.metrics.lines().any(|l| l == format!("{series} {total}")),
            "{series} {total} missing from the merged snapshot"
        );
    }
    // Inside the ranks the same storm coalesces too: the ball phase ran the
    // three batches' queries in fewer runs than queries.
    let ball = |series: &str| -> u64 {
        let lines = baseline.metrics.lines().filter(|l| l.starts_with(series));
        lines.map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap()).sum()
    };
    let (ball_queries, ball_runs) =
        (ball("host_knn_ball_queries_total"), ball("host_knn_ball_runs_total"));
    assert_eq!(ball_queries, 3 * 400, "every kNN query has one home ball phase");
    assert!(0 < ball_runs && ball_runs < ball_queries, "{ball_runs} runs for {ball_queries}");
    // Where the work moved: best-k steps that rode their SEARCH round,
    // points the ball replies carried.
    let (fused, ball_points) = (ball("host_knn_fused_total"), ball("host_knn_ball_points_total"));
    assert!(0 < fused && fused <= ball_queries, "{fused} fused best-k steps");
    assert!(ball_runs <= ball_points, "{ball_points} points from {ball_runs} runs");
    for threads in [2usize, 8] {
        let pool = rayon::ThreadPool::new(threads);
        assert_eq!(pool.current_num_threads(), threads);
        let run = pool.install(run_workload);
        for (r, (a, b)) in baseline.journals.iter().zip(&run.journals).enumerate() {
            assert_eq!(a, b, "rank {r} journal diverged at {threads} threads");
        }
        assert_eq!(run.metrics, baseline.metrics, "metrics diverged at {threads} threads");
        assert_eq!(run.op_stats, baseline.op_stats, "op stats diverged at {threads} threads");
        assert_eq!(run.widen, baseline.widen, "widen counters diverged at {threads} threads");
        assert_eq!(run.results, baseline.results, "results diverged at {threads} threads");
        assert_eq!(run.rebalance, baseline.rebalance, "rebalance diverged at {threads} threads");
    }
}

/// Repeated runs inside the *same* pool are also identical (no hidden
/// global state leaks between `ShardedZdTree` instances).
#[test]
fn repeated_runs_in_one_pool_are_identical() {
    let pool = rayon::ThreadPool::new(4);
    let a = pool.install(run_workload);
    let b = pool.install(run_workload);
    assert_eq!(a, b);
}
