//! **Fig. 8 (E6)** — 1-NN throughput and memory traffic across base dataset
//! sizes.
//!
//! The theory (§5, Theorem 5.3): PIM-zd-tree's communication depends on P
//! and the layer thresholds, not on n, so performance stays flat as the
//! dataset grows; the shared-memory baselines' search paths grow with
//! log n *and* fall out of cache, so they degrade.
//!
//! ```sh
//! cargo run --release -p pim-bench --bin fig8_dataset_size
//! ```

use pim_bench::harness::{make_queries, run_cell, CpuRunner, OpKind, PimRunner};
use pim_bench::{BenchArgs, Dataset, PerfSink};
use pim_sim::MachineConfig;
use pim_zd_tree::PimZdConfig;

fn main() {
    let args = BenchArgs::parse();
    let mut perf = PerfSink::new("fig8_dataset_size", &args);
    // Paper sweep: 20M…300M; scaled by 100x.
    let sizes = [200_000usize, 400_000, 1_000_000, 2_000_000, 3_000_000];

    println!("== Fig. 8: 1-NN vs base dataset size ({} modules) ==\n", args.modules);
    println!(
        "{:>10} | {:>11} {:>9} | {:>11} {:>9} | {:>11} {:>9}",
        "n", "PIM Mq/s", "B/elem", "Pkd Mq/s", "B/elem", "zd Mq/s", "B/elem"
    );
    println!("{}", "-".repeat(84));

    for &n in &sizes {
        if n > args.points * 6 {
            continue; // respect a caller-imposed cap
        }
        let (warm, test) = Dataset::Uniform.warmup_and_test(n, args.seed);
        let cfg = PimZdConfig::throughput_optimized(n as u64, args.modules);
        let mut pim = PimRunner::new(&warm, cfg, MachineConfig::with_modules(args.modules));
        pim.attach_perf(&perf);
        let mut pkd = CpuRunner::pkd(&warm);
        let mut zd = CpuRunner::zd(&warm);

        let op = OpKind::Knn(1);
        let q = make_queries(op, &test, n, args.batch.min(n / 4), args.seed ^ 0xF18);
        let a = run_cell(&mut pim.index, "PIM-zd-tree", op, &q);
        let b = run_cell(&mut pkd, "Pkd-tree", op, &q);
        let c = run_cell(&mut zd, "zd-tree", op, &q);
        for m in [&a, &b, &c] {
            perf.push(&format!("n={n}"), m);
        }
        println!(
            "{:>10} | {:>11.2} {:>9.0} | {:>11.2} {:>9.0} | {:>11.2} {:>9.0}",
            n,
            a.throughput / 1e6,
            a.traffic,
            b.throughput / 1e6,
            b.traffic,
            c.throughput / 1e6,
            c.traffic
        );
    }
    println!("\n(paper: PIM-zd-tree flat; Pkd/zd degrade 1.4x/1.6x with 15x more data)");
    perf.finish();
}
