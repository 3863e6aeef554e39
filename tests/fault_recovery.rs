//! Fault injection and recovery: the index must survive module failures.
//!
//! Three contracts are held here, end to end:
//!
//! 1. **Scripted kill**: fail-stopping live modules mid-workload loses no
//!    data — every query still agrees with the shared-memory oracle, the
//!    dead modules' masters are salvaged and re-homed, and the trace
//!    journal shows the salvage rounds.
//! 2. **Seeded injection**: under a `FaultPlan` mixing transient handler
//!    faults, reply drops/corruptions, stragglers, and permanent deaths,
//!    query results are *identical* to the fault-free run (retry and
//!    recovery are exact, not approximate).
//! 3. **Determinism**: the same fault seed yields byte-identical trace
//!    journals and results at 1, 2, and 8 host threads — fault draws are
//!    part of PR 2's thread-count-invariance contract.

use pim_zd_tree_repro::sim::trace::Journal;
use pim_zd_tree_repro::sim::FaultKind;
use pim_zd_tree_repro::{
    workloads, FaultConfig, FaultPlan, MachineConfig, Metric, PimZdConfig, PimZdTree,
};
use pim_zdtree_base::ZdTree;
use proptest::prelude::*;

const MODULES: usize = 16;

fn build_index(n: usize, seed: u64) -> (Vec<pim_zd_tree_repro::Point<3>>, PimZdTree<3>) {
    let pts = workloads::uniform::<3>(n, seed);
    let cfg = PimZdConfig::throughput_optimized(n as u64, MODULES);
    let t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(MODULES));
    (pts, t)
}

/// Query fingerprints covering all operation families.
fn query_fingerprint(t: &mut PimZdTree<3>, pts: &[pim_zd_tree_repro::Point<3>]) -> Vec<u64> {
    let mut out = Vec::new();
    let probes: Vec<_> = pts.iter().step_by(23).copied().collect();
    out.extend(t.batch_contains(&probes).iter().map(|&b| b as u64));
    let queries = workloads::knn_queries(pts, 40, 7);
    for (d, p) in t.batch_knn(&queries, 4, Metric::L2).iter().flatten() {
        out.push(d ^ u64::from(p.coords[0]));
    }
    let side = workloads::box_side_for_expected::<3>(pts.len().max(1), 20.0);
    let boxes = workloads::box_queries(pts, 30, side, 11);
    out.extend(t.batch_box_count(&boxes));
    out
}

#[test]
fn scripted_kills_preserve_oracle_results_and_journal_recovery() {
    let (pts, mut t) = build_index(8_000, 42);
    let cfg_leaf_cap = t.cfg.leaf_cap;
    let mut meter = pim_memsim::CpuMeter::new(pim_memsim::CpuConfig::xeon());

    let journal = Journal::new();
    t.set_journal(Some(journal.clone()));

    // Kill three modules; with thousands of points over 16 modules each
    // holds master fragments, so recovery must migrate data.
    for m in [1usize, 7, 12] {
        t.kill_module(m);
    }

    // Updates after the kills: recovery runs inside the first round.
    let extra = workloads::uniform::<3>(600, 43);
    t.batch_insert(&extra);
    let removed = t.batch_delete(&pts[..300]);

    let mut all: Vec<_> = pts[300..].to_vec();
    all.extend_from_slice(&extra);
    let oracle2 = ZdTree::build(&all, cfg_leaf_cap);
    assert_eq!(removed, 300, "deletes must still find their targets");

    // Every query family agrees with the oracle built from surviving data.
    let probes: Vec<_> = all.iter().step_by(17).copied().collect();
    assert_eq!(
        t.batch_contains(&probes),
        oracle2.batch_contains(&probes, &mut meter),
        "contains diverged after module deaths"
    );
    let queries = workloads::knn_queries(&all, 30, 5);
    assert_eq!(
        t.batch_knn(&queries, 8, Metric::L2),
        oracle2.batch_knn(&queries, 8, Metric::L2, &mut meter),
        "kNN diverged after module deaths"
    );
    let side = workloads::box_side_for_expected::<3>(all.len(), 50.0);
    let boxes = workloads::box_queries(&all, 25, side, 9);
    let got = t.batch_box_count(&boxes);
    let brute: Vec<u64> = boxes.iter().map(|b| oracle2.box_count(b, &mut meter)).collect();
    assert_eq!(got, brute, "box counts diverged after module deaths");

    // Recovery observable: salvages happened, the dead modules are
    // evacuated, and the journal carries Salvage rounds + fault events.
    let log = t.sim_stats();
    assert_eq!(log.faults_of(FaultKind::Death), 3);
    assert!(log.faults_of(FaultKind::Salvage) >= 3, "each dead module is salvaged once");
    assert!(log.salvaged_bytes > 0);
    assert_eq!(t.n_live_modules(), MODULES - 3);
    let jsonl = journal.to_jsonl();
    assert!(jsonl.contains("\"kind\":\"Salvage\""), "journal must show salvage rounds");
    assert!(jsonl.contains("\"faults\":"), "journal must carry fault events");
}

#[test]
fn seeded_fault_plan_matches_fault_free_results() {
    // Fault-free baseline.
    let (pts, mut base) = build_index(5_000, 77);
    let extra = workloads::uniform::<3>(400, 78);
    base.batch_insert(&extra);
    let mut all = pts.clone();
    all.extend_from_slice(&extra);
    let want = query_fingerprint(&mut base, &all);

    // Same workload under an aggressive mixed plan (transients, drops,
    // corruptions, stragglers, rare deaths).
    let (_, mut t) = build_index(5_000, 77);
    t.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.15, 0xF00D))));
    t.batch_insert(&extra);
    let got = query_fingerprint(&mut t, &all);

    assert_eq!(got, want, "recoverable faults must not change any query result");
    let log = t.sim_stats();
    assert!(log.total_faults() > 0, "the plan must actually inject at this rate");
    assert!(log.retries > 0, "transient faults must force retries");
}

#[test]
fn fault_journal_is_byte_identical_across_thread_counts() {
    let run = || {
        let (pts, mut t) = build_index(4_000, 99);
        let journal = Journal::new();
        t.set_journal(Some(journal.clone()));
        t.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.12, 0xBEEF))));
        let extra = workloads::uniform::<3>(500, 100);
        t.batch_insert(&extra);
        t.kill_module(3);
        let mut all = pts;
        all.extend_from_slice(&extra);
        let fp = query_fingerprint(&mut t, &all);
        let log = format!("{:?}", t.sim_stats());
        (journal.to_jsonl(), fp, log)
    };
    let baseline = rayon::ThreadPool::new(1).install(run);
    assert!(baseline.0.contains("\"faults\":"), "plan must inject during the workload");
    for threads in [2usize, 8] {
        let out = rayon::ThreadPool::new(threads).install(run);
        assert_eq!(out.0, baseline.0, "fault journal diverged at {threads} threads");
        assert_eq!(out.1, baseline.1, "query results diverged at {threads} threads");
        assert_eq!(out.2, baseline.2, "fault log diverged at {threads} threads");
    }
}

#[test]
fn zero_rate_plan_changes_nothing() {
    let run = |plan: Option<FaultPlan>| {
        let (pts, mut t) = build_index(3_000, 55);
        let journal = Journal::new();
        t.set_journal(Some(journal.clone()));
        t.set_fault_plan(plan);
        let extra = workloads::uniform::<3>(300, 56);
        t.batch_insert(&extra);
        let mut all = pts;
        all.extend_from_slice(&extra);
        let fp = query_fingerprint(&mut t, &all);
        (journal.to_jsonl(), fp)
    };
    let without = run(None);
    let with = run(Some(FaultPlan::new(FaultConfig::uniform(0.0, 123))));
    assert_eq!(with.0, without.0, "a zero-rate plan must not change journal bytes");
    assert_eq!(with.1, without.1, "a zero-rate plan must not change results");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Oracle equivalence under injection: for any seed and rate in the
    /// recoverable band, the faulted index answers queries exactly like
    /// the fault-free one.
    #[test]
    fn any_recoverable_plan_preserves_query_results(
        seed in 0u64..1u64 << 48,
        rate_milli in 0u64..250,
    ) {
        let rate = rate_milli as f64 / 1000.0;
        let pts = workloads::uniform::<3>(1_200, 7);
        let cfg = PimZdConfig::throughput_optimized(1_200u64, 8);

        let mut base = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(8));
        let extra = workloads::uniform::<3>(150, 8);
        base.batch_insert(&extra);
        let mut all = pts.clone();
        all.extend_from_slice(&extra);
        let want = query_fingerprint(&mut base, &all);

        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(8));
        t.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(rate, seed))));
        t.batch_insert(&extra);
        let got = query_fingerprint(&mut t, &all);
        prop_assert_eq!(got, want);
    }
}
