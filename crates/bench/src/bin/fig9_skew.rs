//! **Fig. 9 (E7)** — 1-NN throughput of the throughput-optimized vs the
//! skew-resistant configuration as the query batch mixes in an increasing
//! fraction of Varden (extreme-skew) queries.
//!
//! ```sh
//! cargo run --release -p pim-bench --bin fig9_skew
//! ```

use pim_bench::harness::{pim_tree, run_cell, OpKind, Queries};
use pim_bench::{BenchArgs, Dataset, PerfSink};
use pim_sim::MachineConfig;
use pim_workloads as wl;
use pim_zd_tree::PimZdConfig;

fn main() {
    let args = BenchArgs::parse();
    let mut perf = PerfSink::new("fig9_skew", &args);
    let fractions = [0.0, 0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02];

    println!(
        "== Fig. 9: 1-NN throughput vs Varden query fraction ({} pts, {} modules) ==\n",
        args.points, args.modules
    );
    let warm = Dataset::Uniform.generate(args.points, args.seed);
    let varden = wl::varden::<3>(args.points / 10, args.seed ^ 0xF19);

    let machine = MachineConfig::with_modules(args.modules);
    let mut thr = pim_tree(
        &warm,
        PimZdConfig::throughput_optimized(args.points as u64, args.modules),
        machine,
    );
    let mut skw = pim_tree(&warm, PimZdConfig::skew_resistant(args.modules), machine);
    perf.attach(&mut thr);
    perf.attach(&mut skw);

    println!(
        "{:>10} | {:>14} {:>9} | {:>14} {:>9}",
        "varden", "thr-opt Mq/s", "imbal", "skew-res Mq/s", "imbal"
    );
    println!("{}", "-".repeat(68));

    for (i, &f) in fractions.iter().enumerate() {
        let q = Queries::Knn(
            wl::mixed_queries(&warm, &varden, args.batch, f, args.seed ^ (0x900 + i as u64)),
            1,
        );
        let a = run_cell(&mut thr, "thr-opt", OpKind::Knn(1), &q);
        let b = run_cell(&mut skw, "skew-res", OpKind::Knn(1), &q);
        let label = format!("varden={f}");
        perf.push(&label, &a);
        perf.push(&label, &b);
        println!(
            "{:>9.2}% | {:>14.2} {:>8.1}x | {:>14.2} {:>8.1}x",
            f * 100.0,
            a.throughput / 1e6,
            thr.last_op_stats().worst_imbalance,
            b.throughput / 1e6,
            skw.last_op_stats().worst_imbalance
        );
    }
    println!("\n(paper: skew-resistant fluctuates ≤ 4.1%; throughput-optimized degrades");
    println!(" 10.66x at 2% Varden and is overtaken beyond 0.1%)");
    perf.finish();
}
