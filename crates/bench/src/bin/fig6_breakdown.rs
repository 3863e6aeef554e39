//! **Fig. 6 (E4)** — runtime breakdown of PIM-zd-tree operations into CPU
//! computation, PIM computation, and CPU-PIM communication.
//!
//! ```sh
//! cargo run --release -p pim-bench --bin fig6_breakdown
//! # with a per-round trace journal for trace_summary:
//! cargo run --release -p pim-bench --bin fig6_breakdown -- --trace fig6.jsonl
//! ```

use pim_bench::harness::{make_queries, pim_tree, run_cell, OpKind};
use pim_bench::{BenchArgs, Dataset, PerfSink};
use pim_sim::MachineConfig;
use pim_zd_tree::PimZdConfig;

fn main() {
    let args = BenchArgs::parse();
    let mut perf = PerfSink::new("fig6_breakdown", &args);
    println!(
        "== Fig. 6: runtime breakdown (uniform, {} pts, batch {}, {} modules) ==\n",
        args.points, args.batch, args.modules
    );
    let (warm, test) = Dataset::Uniform.warmup_and_test(args.points, args.seed);
    let cfg = PimZdConfig::throughput_optimized(args.points as u64, args.modules);
    let mut pim = pim_tree(&warm, cfg, MachineConfig::with_modules(args.modules));
    perf.attach(&mut pim);

    let ops = [
        OpKind::Insert,
        OpKind::BoxCount(1.0),
        OpKind::BoxCount(100.0),
        OpKind::BoxFetch(100.0),
        OpKind::Knn(100),
    ];
    println!("{:<10} {:>8} {:>8} {:>8}   {:>10}", "op", "CPU %", "PIM %", "Comm %", "total");
    println!("{}", "-".repeat(52));
    for op in ops {
        let q = make_queries(op, &test, args.points, args.batch, args.seed ^ 0xF16);
        let m = run_cell(&mut pim, "PIM-zd-tree", op, &q);
        perf.push("uniform", &m);
        let t = m.total_s;
        println!(
            "{:<10} {:>7.1}% {:>7.1}% {:>7.1}%   {:>8.2}ms",
            m.op,
            100.0 * m.cpu_s / t,
            100.0 * m.pim_s / t,
            100.0 * m.comm_s / t,
            t * 1e3
        );
    }
    println!("\n(paper: INSERT is CPU-heavy from batch preprocessing; BF-100 is");
    println!(" communication-heavy from output volume; the rest is PIM-dominated)");
    perf.finish();
}
