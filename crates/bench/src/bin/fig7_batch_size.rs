//! **Fig. 7 (E5)** — INSERT throughput and per-op memory traffic as a
//! function of batch size.
//!
//! The paper's finding: throughput grows with batch size (mux-switch and
//! per-call overheads amortize, load balance improves), but once the batch's
//! host-side auxiliary state outgrows the LLC, memory traffic per operation
//! rises.
//!
//! ```sh
//! cargo run --release -p pim-bench --bin fig7_batch_size            # INSERT
//! cargo run --release -p pim-bench --bin fig7_batch_size -- knn     # 10-NN
//! cargo run --release -p pim-bench --bin fig7_batch_size -- box     # BC-10
//! ```
//!
//! The paper notes "similar trends were observed for box and kNN queries" —
//! the optional positional argument sweeps those instead.

use pim_bench::harness::{make_queries, run_cell, OpKind, PimRunner};
use pim_bench::{BenchArgs, Dataset, PerfSink};
use pim_sim::MachineConfig;
use pim_zd_tree::PimZdConfig;

fn main() {
    let args = BenchArgs::parse();
    let mut perf = PerfSink::new("fig7_batch_size", &args);
    let op = match args.positional.as_deref() {
        Some("knn") => OpKind::Knn(10),
        Some("box") => OpKind::BoxCount(10.0),
        _ => OpKind::Insert,
    };
    // Paper sweep: 50k…2M; scaled to the warmup size.
    let batches: Vec<usize> =
        [5_000, 10_000, 20_000, 50_000, 100_000, 200_000].into_iter().collect();

    println!(
        "== Fig. 7: {} vs batch size (uniform, {} pts, {} modules) ==\n",
        op.label(),
        args.points,
        args.modules
    );
    println!("{:>10} {:>16} {:>14}", "batch", "thpt (Mops/s)", "traffic B/op");
    println!("{}", "-".repeat(44));

    let (warm, test) = Dataset::Uniform.warmup_and_test(args.points, args.seed);
    for &batch in &batches {
        // Fresh index per size so tree growth doesn't confound the sweep.
        let cfg = PimZdConfig::throughput_optimized(args.points as u64, args.modules);
        let mut pim = PimRunner::new(&warm, cfg, MachineConfig::with_modules(args.modules));
        pim.attach_perf(&perf);
        let q = make_queries(op, &test, args.points, batch, args.seed ^ 0xF17);
        let m = run_cell(&mut pim.index, "PIM-zd-tree", op, &q);
        perf.push(&format!("batch={batch}"), &m);
        println!("{:>10} {:>16.2} {:>14.1}", batch, m.throughput / 1e6, m.traffic);
    }
    println!("\n(paper: throughput rises with batch size; traffic/op rises once");
    println!(" batch state exceeds the LLC — there at 200k ops of 50M-scale runs)");
    perf.finish();
}
