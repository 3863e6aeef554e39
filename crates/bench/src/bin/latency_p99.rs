//! **§7.2 latency (E10)** — P99 latency of 1-NN batches on the OSM-like
//! dataset for all three indexes.
//!
//! The paper reports P99 latencies of 0.0325 s / 0.0449 s / 0.210 s for
//! PIM-zd-tree / Pkd-tree / zd-tree; the *ordering* is the reproducible
//! claim.
//!
//! ```sh
//! cargo run --release -p pim-bench --bin latency_p99
//! ```

use pim_bench::harness::{make_queries, run_cell, CpuRunner, OpKind, PimRunner};
use pim_bench::{BenchArgs, Dataset, PerfSink};
use pim_sim::{MachineConfig, Samples};
use pim_zd_tree::PimZdConfig;

fn main() {
    let args = BenchArgs::parse();
    let n_batches = 40;
    let per_batch = args.batch.max(10_000);

    println!(
        "== §7.2 P99 latency: 1-NN on OSM-like ({} pts, {} batches x {} queries) ==\n",
        args.points, n_batches, per_batch
    );
    let (warm, test) = Dataset::Osm.warmup_and_test(args.points, args.seed);
    let cfg = PimZdConfig::skew_resistant(args.modules);
    let mut perf = PerfSink::new("latency_p99", &args);
    let mut pim = PimRunner::new(&warm, cfg, MachineConfig::with_modules(args.modules));
    pim.attach_perf(&perf);
    let mut pkd = CpuRunner::pkd(&warm);
    let mut zd = CpuRunner::zd(&warm);

    let mut lat: [Samples; 3] = [Samples::new(), Samples::new(), Samples::new()];
    for b in 0..n_batches {
        let q = make_queries(OpKind::Knn(1), &test, args.points, per_batch, args.seed + b as u64);
        let ms = [
            run_cell(&mut pim.index, "PIM-zd-tree", OpKind::Knn(1), &q),
            run_cell(&mut pkd, "Pkd-tree", OpKind::Knn(1), &q),
            run_cell(&mut zd, "zd-tree", OpKind::Knn(1), &q),
        ];
        for (l, m) in lat.iter_mut().zip(&ms) {
            l.push(m.total_s);
            if b == 0 {
                perf.push("osm", m);
            }
        }
    }

    println!("{:<14} {:>10} {:>10} {:>10}", "index", "P50", "P99", "max");
    println!("{}", "-".repeat(48));
    for (name, l) in ["PIM-zd-tree", "Pkd-tree", "zd-tree"].iter().zip(lat.iter_mut()) {
        println!(
            "{:<14} {:>8.2}ms {:>8.2}ms {:>8.2}ms",
            name,
            l.quantile(0.5) * 1e3,
            l.quantile(0.99) * 1e3,
            l.max() * 1e3
        );
    }
    println!("\n(paper: PIM-zd-tree 32.5ms < Pkd-tree 44.9ms < zd-tree 210ms at full scale)");
    perf.finish();
}
