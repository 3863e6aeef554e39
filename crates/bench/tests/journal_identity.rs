//! End-to-end determinism gate for the host batch pipeline: a fig5-small
//! workload must produce **byte-identical** round journals regardless of
//! worker count, with and without fault injection. This is the contract the
//! radix sort, buffer pooling, and copy-on-fault dispatch all promised to
//! preserve — only host wall-clock may change. (The matching pre/post-PR
//! comparison of committed figure artifacts is recorded in EXPERIMENTS.md.)

use pim_bench::harness::{make_queries, scaled_cpu, OpKind, Queries};
use pim_bench::Dataset;
use pim_geom::Metric;
use pim_sim::wire::fnv1a;
use pim_sim::{FaultConfig, FaultPlan, Journal, MachineConfig};
use pim_zd_tree::{PimZdConfig, PimZdTree};

const POINTS: usize = 20_000;
const BATCH: usize = 2_000;
const MODULES: usize = 64;
const SEED: u64 = 2026;

/// Builds the index, runs a reduced fig-5 battery, and returns the round
/// journal serialized exactly as `--trace` writes it.
fn run_pipeline(fault_rate: f64) -> String {
    let (warm, test) = Dataset::Uniform.warmup_and_test(POINTS, SEED);
    let cfg = PimZdConfig::throughput_optimized(POINTS as u64, MODULES);
    let machine =
        MachineConfig { cpu: scaled_cpu(warm.len()), ..MachineConfig::with_modules(MODULES) };
    let mut index = PimZdTree::build(&warm, cfg, machine);
    let journal = Journal::new();
    index.set_journal(Some(journal.clone()));
    if fault_rate > 0.0 {
        index.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(fault_rate, SEED))));
    }

    for op in [OpKind::Insert, OpKind::BoxCount(10.0), OpKind::BoxFetch(10.0), OpKind::Knn(10)] {
        match make_queries(op, &test, POINTS, BATCH, SEED ^ 0xF15) {
            Queries::Points(pts) => index.batch_insert(&pts),
            Queries::Boxes(boxes) => {
                index.batch_box_count(&boxes);
                index.batch_box_fetch(&boxes);
            }
            Queries::Knn(pts, k) => drop(index.batch_knn(&pts, k, Metric::L2)),
        }
    }
    journal.to_jsonl()
}

#[test]
fn journal_is_byte_identical_across_thread_counts() {
    // The golden digests pin the journal against the *previous build*, not
    // just against another thread count of this one; they may only change
    // together with a CHANGES.md entry naming the artifact that moved.
    for (rate, golden) in [(0.0, 0xbca1_1d36_da7e_d5ceu64), (0.05, 0xb7b4_21f2_9cd2_5bc1)] {
        let runs: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&n| rayon::ThreadPool::new(n).install(|| run_pipeline(rate)))
            .collect();
        assert!(!runs[0].is_empty(), "journal captured no rounds at fault rate {rate}");
        for (n, r) in [2usize, 8].iter().zip(&runs[1..]) {
            assert_eq!(
                &runs[0], r,
                "journal diverged between 1 and {n} threads at fault rate {rate}"
            );
        }
        let digest = fnv1a(runs[0].as_bytes());
        assert_eq!(digest, golden, "journal digest moved at fault rate {rate}: {digest:#018x}");
    }
}
