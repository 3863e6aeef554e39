//! Thread-count invariance and snapshot-read isolation of the serving
//! layer.
//!
//! `pim-serve`'s contract: given a recorded arrival trace and a seed, the
//! run's results, serving journal, and metrics snapshot are byte-identical
//! at any host thread count — all timing lives in virtual time, behind the
//! trace. This test replays one fixed trace at 1, 2, and 8 threads inside
//! explicit pools and compares every artifact byte for byte, then pins the
//! snapshot-read semantics: a query dispatched while a write batch is in
//! flight observes exactly the pre-batch epoch, and none of the batch's
//! points.

mod common;

use common::{fixed_trace, served_data, served_tree, server};
use pim_zd_tree_repro::serve::{fnv_fold, BatchPolicy, PimServer, ServeConfig, FNV_OFFSET};
use pim_zd_tree_repro::sim::Metrics;
use pim_zd_tree_repro::workloads::{Arrival, ArrivalTrace, ReqOp};
use pim_zd_tree_repro::{Aabb, Point};

/// Everything observable from one serving run, in byte-comparable form.
#[derive(Debug, PartialEq, Eq)]
struct RunArtifacts {
    /// Canonical per-request reply JSONL (ids, times, epochs, result
    /// fingerprints).
    results_jsonl: String,
    /// The per-batch serving journal JSONL.
    journal_jsonl: String,
    /// The Prometheus-style metrics snapshot.
    metrics_text: String,
    /// FNV digest of the results (redundant with `results_jsonl`, kept as
    /// the one-number summary the docs quote).
    digest: u64,
}

/// One full serving run; must be a pure function of its inputs.
fn run_serving() -> RunArtifacts {
    let (mut server, data) = server(96);
    let metrics = Metrics::enabled_new();
    server.set_metrics(metrics.clone());
    let report = server.run_trace(&fixed_trace(&data));
    RunArtifacts {
        results_jsonl: report.results_jsonl(),
        journal_jsonl: report.journal_jsonl(),
        metrics_text: metrics.snapshot_text().unwrap(),
        digest: report.results_digest(),
    }
}

#[test]
fn serving_run_is_byte_identical_at_1_2_and_8_threads() {
    let baseline = rayon::ThreadPool::new(1).install(run_serving);
    assert!(!baseline.results_jsonl.is_empty());
    assert!(
        baseline.journal_jsonl.contains("\"snapshot\":true"),
        "the fixed trace must exercise pipelined snapshot reads:\n{}",
        baseline.journal_jsonl
    );
    assert!(baseline.metrics_text.contains("serve_requests_total"));

    for threads in [2usize, 8] {
        let pool = rayon::ThreadPool::new(threads);
        let run = pool.install(run_serving);
        assert_eq!(
            run.results_jsonl, baseline.results_jsonl,
            "serving results diverged at {threads} threads"
        );
        assert_eq!(
            run.journal_jsonl, baseline.journal_jsonl,
            "serving journal diverged at {threads} threads"
        );
        assert_eq!(
            run.metrics_text, baseline.metrics_text,
            "metrics snapshot diverged at {threads} threads"
        );
        assert_eq!(run.digest, baseline.digest);
        assert_eq!(pool.outstanding_jobs(), 0, "pool must be quiescent after the run");
    }
}

#[test]
fn trace_jsonl_roundtrip_preserves_the_run() {
    // A trace written to JSONL and read back drives an identical run —
    // the on-disk form is the determinism boundary, not the in-memory one.
    let data = served_data();
    let trace = fixed_trace(&data);
    let roundtripped = ArrivalTrace::<3>::from_jsonl(&trace.to_jsonl()).unwrap();
    assert_eq!(trace, roundtripped);

    let build = || PimServer::new(served_tree(&data), ServeConfig::default());
    let a = build().run_trace(&trace);
    let b = build().run_trace(&roundtripped);
    assert_eq!(a.results_jsonl(), b.results_jsonl());
    assert_eq!(a.journal_jsonl(), b.journal_jsonl());
}

#[test]
fn snapshot_reads_observe_exactly_the_pre_batch_epoch() {
    // Hand-built trace with deterministic overlap. With max_batch = 200
    // and no estimator history, the size target is exactly 200:
    //   * 199 inserts at t=0 stay below it, seal by budget at t=1000, and
    //     dispatch (the round takes well over 1 us of virtual time);
    //   * 200 contains-probes at t=1001 hit the size target on arrival and
    //     dispatch immediately — while the insert round is in flight;
    //   * a late probe wave at t=1s runs after everything drained.
    // The mid-flight probes must run against the pre-batch snapshot:
    // pre-batch epoch in the reply, none of the in-flight points visible.
    let tree = served_tree(&served_data());
    let epoch0 = tree.epoch();
    let fresh: Vec<Point<3>> =
        (0..200u32).map(|i| Point::new([500_000 + i, 500_000, 500_000])).collect();

    let mut arrivals: Vec<Arrival<3>> =
        fresh[..199].iter().map(|p| Arrival { t_us: 0, op: ReqOp::Insert(*p) }).collect();
    arrivals.extend(fresh.iter().map(|p| Arrival { t_us: 1_001, op: ReqOp::Contains(*p) }));
    arrivals
        .extend(fresh[..199].iter().map(|p| Arrival { t_us: 1_000_000, op: ReqOp::Contains(*p) }));

    let cfg = ServeConfig {
        policy: BatchPolicy { budget_us: 1_000, min_batch: 1, max_batch: 200 },
        ..ServeConfig::default()
    };
    let mut server = PimServer::new(tree, cfg);
    let report = server.run_trace(&ArrivalTrace { arrivals });

    let inserts: Vec<_> = report.replies.iter().filter(|r| r.op == "insert").collect();
    assert_eq!(inserts.len(), 199);
    assert!(inserts.iter().all(|r| r.epoch == epoch0 + 1), "insert batch produced epoch0+1");
    let ins = inserts[0];
    assert_eq!(ins.dispatch_us, 1_000, "insert seals by budget at t=1000");

    // The early probe wave dispatched at t=1001, strictly inside the
    // insert's flight window, and saw the PRE-batch world: old epoch,
    // points absent (fingerprint 0 = "false").
    let early: Vec<_> =
        report.replies.iter().filter(|r| r.op == "contains" && r.arrival_us == 1_001).collect();
    assert_eq!(early.len(), 200);
    assert!(ins.complete_us > 1_001, "a 199-point insert round must outlast 1 us of virtual time");
    for r in &early {
        assert_eq!(r.dispatch_us, 1_001, "size target reached => immediate dispatch");
        assert!(r.dispatch_us >= ins.dispatch_us && r.dispatch_us < ins.complete_us);
        assert_eq!(r.epoch, epoch0, "mid-flight read must be pinned to the pre-batch epoch");
        assert_eq!(r.fingerprint, 0, "mid-flight read must not see in-flight inserts");
    }
    assert!(report.journal_jsonl().contains("\"snapshot\":true"));

    // The late wave ran on the live tree after the write drained: new
    // epoch, all inserted points visible.
    let late: Vec<_> =
        report.replies.iter().filter(|r| r.op == "contains" && r.arrival_us == 1_000_000).collect();
    assert_eq!(late.len(), 199);
    for r in &late {
        assert!(r.dispatch_us >= ins.complete_us);
        assert_eq!(r.epoch, epoch0 + 1);
        assert_eq!(r.fingerprint, 1, "post-completion read must see the applied batch");
    }
}

/// A trace with one arrival of every class, in `D` dimensions, with
/// coordinates up to `u32::MAX` and a time past 2^32.
fn every_class<const D: usize>() -> ArrivalTrace<D> {
    let p = |s: u32| Point::new(std::array::from_fn(|i| s.wrapping_mul(2_654_435_761) >> i));
    let ops = [
        ReqOp::Insert(p(1)),
        ReqOp::Delete(p(2)),
        ReqOp::Contains(p(3)),
        ReqOp::Knn(p(4), 10),
        ReqOp::BoxCount(Aabb::new(p(5), p(6))),
        ReqOp::BoxFetch(Aabb::new(Point::new([0; D]), Point::new([u32::MAX; D]))),
    ];
    let at = |i: usize| if i == 5 { 1 << 40 } else { 17 * i as u64 };
    ArrivalTrace {
        arrivals: ops.into_iter().enumerate().map(|(i, op)| Arrival { t_us: at(i), op }).collect(),
    }
}

#[test]
fn arrival_jsonl_bytes_are_pinned() {
    let digest = |text: String| text.bytes().fold(FNV_OFFSET, |fp, b| fnv_fold(fp, b as u64));
    assert_eq!(digest(every_class::<2>().to_jsonl()), 0x1d526822506d6305);
    assert_eq!(digest(every_class::<3>().to_jsonl()), 0xe5263a75b13cd470);
}
