//! Thread-count invariance of the whole simulation stack.
//!
//! The executor's contract (vendor/rayon) is that parallelism changes
//! wall-clock only: every reduction is index-ordered, never
//! completion-ordered. This test holds the *entire* stack to it — a seeded
//! mini end-to-end workload (build + insert + delete + contains + kNN +
//! BoxCount + BoxFetch) runs at 1, 2, and 8 threads inside explicit pools,
//! and the serialized trace journal, per-op `OpStats`, per-phase Fig-6
//! breakdowns, and all query results must be **byte-identical** across the
//! three schedules.

use pim_zd_tree_repro::sim::trace::Journal;
use pim_zd_tree_repro::{workloads, MachineConfig, Metric, PimZdConfig, PimZdTree};

const SEED: u64 = 2026;
const N: usize = 6_000;
const MODULES: usize = 16;

/// Everything observable from one run, in byte-comparable form.
#[derive(Debug, PartialEq, Eq)]
struct RunArtifacts {
    /// The full JSONL-serialized round journal.
    journal_jsonl: String,
    /// `Debug` rendering of each batched op's `OpStats`, in op order
    /// (covers simulated seconds, bytes, rounds, imbalance bit-for-bit).
    op_stats: Vec<String>,
    /// Fig-6 per-phase breakdown aggregated from the journal:
    /// (phase, pim_s bits, comm_s bits, overhead_s bits, rounds).
    per_phase: Vec<(String, u64, u64, u64, u64)>,
    /// Query results flattened to a fingerprint stream.
    results: Vec<u64>,
    /// Points removed by the delete batch.
    deleted: usize,
}

/// The seeded mini end-to-end workload; must be a pure function of `SEED`.
fn run_workload() -> RunArtifacts {
    let pts = workloads::uniform::<3>(N, SEED);
    let cfg = PimZdConfig::skew_resistant(MODULES);
    let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(MODULES));

    let journal = Journal::new();
    t.set_journal(Some(journal.clone()));

    let mut op_stats = Vec::new();
    let mut results: Vec<u64> = Vec::new();

    let extra = workloads::uniform::<3>(800, SEED + 1);
    t.batch_insert(&extra);
    op_stats.push(format!("{:?}", t.last_op_stats()));

    let deleted = t.batch_delete(&pts[..400]);
    op_stats.push(format!("{:?}", t.last_op_stats()));

    let probes = workloads::knn_queries(&pts, 300, SEED + 2);
    let found = t.batch_contains(&probes);
    op_stats.push(format!("{:?}", t.last_op_stats()));
    results.extend(found.iter().map(|&b| b as u64));

    for metric in [Metric::L1, Metric::L2, Metric::Linf] {
        let knn = t.batch_knn(&probes[..150], 4, metric);
        op_stats.push(format!("{:?}", t.last_op_stats()));
        results.extend(knn.iter().flat_map(|r| r.iter().map(|(d, p)| d ^ u64::from(p.coords[0]))));
    }

    let side = workloads::box_side_for_expected::<3>(N, 30.0);
    let boxes = workloads::box_queries(&pts, 200, side, SEED + 3);
    let counts = t.batch_box_count(&boxes);
    op_stats.push(format!("{:?}", t.last_op_stats()));
    results.extend(counts.iter().copied());

    let fetched = t.batch_box_fetch(&boxes[..100]);
    op_stats.push(format!("{:?}", t.last_op_stats()));
    results.extend(fetched.iter().flat_map(|r| r.iter().map(|p| u64::from(p.coords[1]))));

    // Fig-6 per-phase aggregation, exactly as `trace_summary` groups it.
    // f64 sums are compared as bit patterns: identical summation order at
    // any thread count is part of the determinism contract.
    let mut per_phase: Vec<(String, u64, u64, u64, u64)> = Vec::new();
    for rec in journal.snapshot() {
        let phase = rec.phase.split('/').next().unwrap_or("").to_string();
        if per_phase.last().map(|(p, ..)| p.as_str()) != Some(phase.as_str()) {
            per_phase.push((phase, 0, 0, 0, 0));
        }
        let e = per_phase.last_mut().unwrap();
        e.1 = (f64::from_bits(e.1) + rec.breakdown.pim_s).to_bits();
        e.2 = (f64::from_bits(e.2) + rec.breakdown.comm_s).to_bits();
        e.3 = (f64::from_bits(e.3) + rec.breakdown.overhead_s).to_bits();
        e.4 += 1;
    }

    RunArtifacts { journal_jsonl: journal.to_jsonl(), op_stats, per_phase, results, deleted }
}

#[test]
fn full_stack_is_byte_identical_at_1_2_and_8_threads() {
    let baseline = rayon::ThreadPool::new(1).install(run_workload);
    assert!(!baseline.journal_jsonl.is_empty(), "workload must journal rounds");
    assert!(baseline.per_phase.len() >= 4, "expected several traced phases");
    assert!(baseline.deleted > 0, "delete batch must remove points");

    for threads in [2usize, 8] {
        let pool = rayon::ThreadPool::new(threads);
        assert_eq!(pool.current_num_threads(), threads);
        let run = pool.install(run_workload);
        assert_eq!(
            run.journal_jsonl, baseline.journal_jsonl,
            "trace journal diverged at {threads} threads"
        );
        assert_eq!(
            run.op_stats, baseline.op_stats,
            "per-op SimStats diverged at {threads} threads"
        );
        assert_eq!(
            run.per_phase, baseline.per_phase,
            "Fig-6 per-phase breakdown diverged at {threads} threads"
        );
        assert_eq!(run.results, baseline.results, "query results diverged at {threads} threads");
        assert_eq!(run.deleted, baseline.deleted);
        assert_eq!(pool.outstanding_jobs(), 0, "pool must be quiescent after the run");
    }
}

#[test]
fn repeated_runs_on_one_pool_are_identical() {
    // Same pool, same seed, twice in a row: smokes out any state leaking
    // between runs through the executor (queues, worker TLS, budget).
    let pool = rayon::ThreadPool::new(4);
    let a = pool.install(run_workload);
    let b = pool.install(run_workload);
    assert_eq!(a, b);
    assert_eq!(pool.outstanding_jobs(), 0);
}
