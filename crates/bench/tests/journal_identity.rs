//! End-to-end determinism gate for the host batch pipeline: a fig5-small
//! workload must produce **byte-identical** round journals regardless of
//! worker count, with and without fault injection. This is the contract the
//! radix sort, buffer pooling, and copy-on-fault dispatch all promised to
//! preserve — only host wall-clock may change. (The matching pre/post-PR
//! comparison of committed figure artifacts is recorded in EXPERIMENTS.md.)
//!
//! The same file pins the other side of every Fig. 5 ratio: the charges and
//! results of the two shared-memory baselines behind the batch surface.

use pim_bench::harness::{make_queries, scaled_cpu, CpuRunner, OpKind, Queries};
use pim_bench::Dataset;
use pim_geom::{Metric, Point};
use pim_sim::wire::{fnv1a, fnv_fold, FNV_OFFSET};
use pim_sim::{FaultConfig, FaultPlan, Journal, MachineConfig};
use pim_zd_tree::{BatchIndex, PimZdConfig, PimZdTree};

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

/// Folds the last op into `h`: the bit patterns of what it cost on the
/// metered CPU model, then a digest of what it returned.
fn absorb(h: &mut u64, index: &impl BatchIndex<3>, result: impl IntoIterator<Item = u64>) {
    let s = index.last_op_stats();
    let cost = [s.breakdown.cpu_s.to_bits(), s.cpu_dram_bytes, s.cpu_cycles, s.elements];
    let bytes = cost.into_iter().chain(result).flat_map(u64::to_le_bytes);
    *h = bytes.fold(*h, |h, b| fnv_fold(h, u64::from(b)));
}

fn words(p: &Point<3>) -> impl Iterator<Item = u64> {
    p.coords.map(u64::from).into_iter()
}

/// One shared-memory baseline through the Fig. 5 battery, then a delete and
/// a membership batch, all on the batch surface and in that order (the LLC
/// model is stateful, so the order is part of the result). Returns the
/// `(reads, writes)` digests.
fn baseline_digests(
    mut index: impl BatchIndex<3>,
    warm: &[Point<3>],
    test: &[Point<3>],
) -> (u64, u64) {
    let (mut reads, mut writes) = (FNV_OFFSET, FNV_OFFSET);
    let mut inserted = Vec::new();
    for op in OpKind::fig5_battery() {
        match (op, make_queries(op, test, POINTS, BATCH, SEED ^ 0xF15)) {
            (_, Queries::Points(pts)) => {
                index.batch_insert(&pts);
                absorb(&mut writes, &index, [index.len() as u64]);
                inserted = pts;
            }
            (OpKind::BoxCount(_), Queries::Boxes(boxes)) => {
                let counts = index.batch_box_count(&boxes);
                absorb(&mut reads, &index, counts);
            }
            (_, Queries::Boxes(boxes)) => {
                let rows = index.batch_box_fetch(&boxes);
                let flat = rows
                    .iter()
                    .flat_map(|r| std::iter::once(r.len() as u64).chain(r.iter().flat_map(words)));
                absorb(&mut reads, &index, flat);
            }
            (_, Queries::Knn(pts, k)) => {
                let rows = index.batch_knn(&pts, k, Metric::L2);
                let flat = rows
                    .iter()
                    .flat_map(|r| r.iter().flat_map(|(d, p)| std::iter::once(*d).chain(words(p))));
                absorb(&mut reads, &index, flat);
            }
        }
    }
    // Stored points from both ends of the tree's history, and absent ones.
    let mut victims = inserted[..BATCH / 2].to_vec();
    victims.extend_from_slice(&warm[..BATCH / 2]);
    victims.extend_from_slice(&test[..BATCH / 4]);
    let removed = index.batch_delete(&victims);
    absorb(&mut writes, &index, [removed as u64, index.len() as u64]);
    let probes: Vec<Point<3>> =
        inserted[BATCH / 4..BATCH].iter().chain(&warm[..BATCH]).copied().collect();
    let found = index.batch_contains(&probes);
    absorb(&mut reads, &index, found.into_iter().map(u64::from));
    (reads, writes)
}

#[test]
fn journal_is_byte_identical_across_thread_counts() {
    // The golden digests pin the journal against the *previous build*, not
    // just against another thread count of this one; they may only change
    // together with a CHANGES.md entry naming the artifact that moved. Last
    // moved when masters began to go to the least-loaded of four hashed
    // modules: the rounds' active modules, cycles and stragglers moved.
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

#[test]
fn baseline_costs_and_results_are_pinned() {
    // Both Fig. 5 denominators: every charge (cycles, LLC-filtered DRAM
    // bytes, modelled seconds) and every result of the zd-tree and Pkd-tree
    // baselines. The metered paths are sequential by design, so the pool
    // they run under (the bulk build forks) must not show. Recorded after
    // the Pkd-tree emit-walk fix; the zd-tree rows are also their values
    // before it.
    type Build = fn(&[Point<3>], &[Point<3>]) -> (u64, u64);
    let zd: Build = |warm, test| baseline_digests(CpuRunner::zd(warm), warm, test);
    let pkd: Build = |warm, test| baseline_digests(CpuRunner::pkd(warm), warm, test);
    for (name, dataset, run, golden) in [
        (
            "zd-tree/uniform",
            Dataset::Uniform,
            zd,
            (0x7c5a_382d_24f6_5fb9u64, 0x5680_8695_523b_a51d),
        ),
        ("zd-tree/osm", Dataset::Osm, zd, (0x49f3_a370_9d81_cd8e, 0x6577_491f_40f7_246f)),
        ("Pkd-tree/uniform", Dataset::Uniform, pkd, (0xb138_ceb1_91b9_fd15, 0xde81_94d0_2c67_ca2f)),
        ("Pkd-tree/osm", Dataset::Osm, pkd, (0xf4cf_b668_4ce5_5da0, 0x0fc7_4598_6a4b_7a18)),
    ] {
        let (warm, test) = dataset.warmup_and_test(POINTS, SEED);
        let one = rayon::ThreadPool::new(1).install(|| run(&warm, &test));
        let four = rayon::ThreadPool::new(4).install(|| run(&warm, &test));
        assert_eq!(one, four, "{name}: digests depend on the thread pool");
        assert_eq!(
            one, golden,
            "{name}: (reads, writes) moved: ({:#018x}, {:#018x})",
            one.0, one.1
        );
    }
}
