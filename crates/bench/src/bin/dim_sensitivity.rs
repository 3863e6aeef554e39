//! **§7.3 dimension sensitivity (E11)** — 2D vs 3D uniform workloads.
//!
//! The paper: 2D INSERT is only 1.02x faster (bounded by fixed-length
//! Morton-key searches) while range/kNN ops gain 1.2–2.1x from cheaper
//! vector computations.
//!
//! ```sh
//! cargo run --release -p pim-bench --bin dim_sensitivity
//! ```

use pim_bench::harness::{measurement_from_stats, run_cell, OpKind, Queries};
use pim_bench::{BenchArgs, PerfSink};
use pim_sim::MachineConfig;
use pim_workloads as wl;
use pim_zd_tree::{PimZdConfig, PimZdTree};

fn run<const D: usize>(args: &BenchArgs, perf: &mut PerfSink) -> Vec<(String, f64)> {
    let warm = wl::uniform::<D>(args.points, args.seed);
    let cfg = PimZdConfig::throughput_optimized(args.points as u64, args.modules);
    let mut t = PimZdTree::build_with_cpu(
        &warm,
        cfg,
        MachineConfig::with_modules(args.modules),
        pim_bench::harness::scaled_cpu(args.points),
    );
    t.set_metrics(perf.metrics());
    let dim = format!("{D}D");
    let mut out = Vec::new();

    let ins = wl::point_queries(&warm, args.batch, 4, args.seed ^ 1);
    t.batch_insert(&ins);
    perf.push(&dim, &measurement_from_stats("PIM-zd-tree", "Insert", t.last_op_stats()));
    out.push(("Insert".into(), t.last_op_stats().throughput()));

    let side = wl::box_side_for_expected::<D>(args.points, 10.0);
    let boxes = Queries::Boxes(wl::box_queries(&warm, args.batch / 10, side, args.seed ^ 2));
    let knn = Queries::Knn(wl::knn_queries(&warm, args.batch / 10, args.seed ^ 3), 10);
    for (op, q) in [
        (OpKind::BoxCount(10.0), &boxes),
        (OpKind::BoxFetch(10.0), &boxes),
        (OpKind::Knn(10), &knn),
    ] {
        let m = run_cell(&mut t, "PIM-zd-tree", op, q);
        perf.push(&dim, &m);
        out.push((m.op, m.throughput));
    }
    out
}

fn main() {
    let args = BenchArgs::parse();
    let mut perf = PerfSink::new("dim_sensitivity", &args);
    println!("== §7.3 dimension sensitivity ({} pts, {} modules) ==\n", args.points, args.modules);
    let d2 = run::<2>(&args, &mut perf);
    let d3 = run::<3>(&args, &mut perf);
    println!("{:<10} {:>12} {:>12} {:>10}", "op", "2D (Mop/s)", "3D (Mop/s)", "2D/3D");
    println!("{}", "-".repeat(48));
    for ((op, a), (_, b)) in d2.iter().zip(&d3) {
        println!("{:<10} {:>12.2} {:>12.2} {:>9.2}x", op, a / 1e6, b / 1e6, a / b);
    }
    println!("\n(paper: insert 1.02x; box counts 1.49x; box fetch 1.22x; kNN 2.13x)");
    perf.finish();
}
