//! End-to-end determinism gate for the host batch pipeline: a fig5-small
//! workload must produce **byte-identical** round journals regardless of
//! worker count, with and without fault injection. This is the contract the
//! radix sort, buffer pooling, and copy-on-fault dispatch all promised to
//! preserve — only host wall-clock may change. (The matching pre/post-PR
//! comparison of committed figure artifacts is recorded in EXPERIMENTS.md.)

use pim_bench::harness::{make_queries, scaled_cpu, OpKind, Queries};
use pim_bench::Dataset;
use pim_geom::Metric;
use pim_sim::{FaultConfig, FaultPlan, JournalSink, MachineConfig};
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
    let mut index = PimZdTree::build_with_cpu(
        &warm,
        cfg,
        MachineConfig::with_modules(MODULES),
        scaled_cpu(warm.len()),
    );
    let (sink, journal) = JournalSink::new();
    index.set_trace_sink(Box::new(sink));
    if fault_rate > 0.0 {
        index.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(fault_rate, SEED))));
    }

    for op in [OpKind::Insert, OpKind::BoxCount(10.0), OpKind::BoxFetch(10.0), OpKind::Knn(10)] {
        match make_queries(op, &test, POINTS, BATCH, SEED ^ 0xF15) {
            Queries::Points(pts) => {
                index.batch_insert(&pts);
            }
            Queries::Boxes(boxes) => {
                let _ = index.batch_box_count(&boxes);
                let _ = index.batch_box_fetch(&boxes);
            }
            Queries::Knn(pts, k) => {
                let _ = index.batch_knn(&pts, k, Metric::L2);
            }
        }
    }
    journal.to_jsonl()
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn journal_is_byte_identical_across_thread_counts() {
    // The golden digests pin the journal against the *previous build*, not
    // just against another thread count of this one; they may only change
    // together with a CHANGES.md entry naming the artifact that moved.
    for (rate, golden) in [(0.0, 0x0cf7_eab7_ee88_7f4cu64), (0.05, 0xb3b5_8d3a_0924_b3e9)] {
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
        let digest = fnv1a(&runs[0]);
        assert_eq!(digest, golden, "journal digest moved at fault rate {rate}: {digest:#018x}");
    }
}
