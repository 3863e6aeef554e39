//! **Table 2 (E9)** — measured properties of the two implemented
//! configurations: space consumption and per-operation communication.
//!
//! ```sh
//! cargo run --release -p pim-bench --bin table2_configs
//! ```

use pim_bench::harness::{run_cell, OpKind, Queries};
use pim_bench::perf::PerfEntry;
use pim_bench::{BenchArgs, Dataset, PerfSink};
use pim_geom::Point;
use pim_sim::MachineConfig;
use pim_workloads as wl;
use pim_zd_tree::{PimZdConfig, PimZdTree};

fn main() {
    let args = BenchArgs::parse();
    let mut perf = PerfSink::new("table2_configs", &args);
    println!(
        "== Table 2: configuration properties ({} pts, {} modules) ==\n",
        args.points, args.modules
    );
    let warm = Dataset::Uniform.generate(args.points, args.seed);
    let raw_bytes = (args.points * 3 * 4) as f64;

    println!("{:<22} {:>22} {:>18}", "property", "throughput-optimized", "skew-resistant");
    println!("{}", "-".repeat(64));

    let mut rows: Vec<Vec<String>> = vec![Vec::new(); 6];
    for preset in 0..2 {
        let cfg = if preset == 0 {
            PimZdConfig::throughput_optimized(args.points as u64, args.modules)
        } else {
            PimZdConfig::skew_resistant(args.modules)
        };
        let mut t = PimZdTree::build(&warm, cfg, MachineConfig::with_modules(args.modules));
        perf.attach(&mut t);
        let preset_name = if preset == 0 { "thr-opt" } else { "skew-res" };
        rows[0].push(format!("{}", cfg.theta_l0));
        rows[1].push(format!("{}", cfg.theta_l1));
        rows[2].push(format!("{:.2}x raw data", t.space_bytes() as f64 / raw_bytes));

        // Communication per op, in bytes.
        let q: Vec<Point<3>> = wl::knn_queries(&warm, args.batch, args.seed ^ 2);
        let _ = t.batch_contains(&q);
        perf.push("uniform", &PerfEntry::of(preset_name, "SEARCH", t.last_op_stats()));
        rows[3].push(format!(
            "{:.1} B ({} rnds)",
            t.last_op_stats().channel_bytes as f64 / args.batch as f64,
            t.last_op_stats().rounds
        ));

        let ins = wl::point_queries(&warm, args.batch, 4, args.seed ^ 3);
        t.batch_insert(&ins);
        perf.push("uniform", &PerfEntry::of(preset_name, "Insert", t.last_op_stats()));
        rows[4].push(format!(
            "{:.1} B ({} rnds)",
            t.last_op_stats().channel_bytes as f64 / args.batch as f64,
            t.last_op_stats().rounds
        ));

        let knn_q = Queries::Knn(wl::knn_queries(&warm, args.batch / 10, args.seed ^ 4), 10);
        perf.push("uniform", &run_cell(&mut t, preset_name, OpKind::Knn(10), &knn_q));
        rows[5].push(format!(
            "{:.1} B ({} rnds)",
            t.last_op_stats().channel_bytes as f64 / (args.batch / 10) as f64,
            t.last_op_stats().rounds
        ));
    }

    for (label, row) in
        ["theta_L0", "theta_L1", "space", "SEARCH comm/op", "INSERT comm/op", "10-NN comm/op"]
            .iter()
            .zip(rows)
    {
        println!("{:<22} {:>22} {:>18}", label, row[0], row[1]);
    }
    println!("\n(Table 2: both configs O(n) space; SEARCH/updates O(1) comm for");
    println!(" throughput-optimized vs O(log_B log_B P) for skew-resistant; kNN +O(k))");
    perf.finish();
}
