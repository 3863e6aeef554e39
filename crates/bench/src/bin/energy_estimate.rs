//! **Energy extension** — a first-order energy comparison between
//! PIM-zd-tree and the shared-memory baselines.
//!
//! Not a paper table: §7.1 motivates the memory-traffic metric because
//! "memory traffic is a primary contributor to power consumption", citing
//! the UPMEM energy studies [37, 48, 66]. This binary completes the thought
//! with an explicit estimate from the counters the simulator collects
//! (core cycles × per-cycle cost, traffic × per-byte cost).
//!
//! ```sh
//! cargo run --release -p pim-bench --bin energy_estimate
//! ```

use pim_bench::harness::{make_queries, pim_tree, run_cell, CpuRunner, OpKind, Queries};
use pim_bench::{BenchArgs, Dataset, PerfSink};
use pim_sim::{EnergyModel, MachineConfig};
use pim_zd_tree::{BatchIndex, PimZdConfig};

fn main() {
    let args = BenchArgs::parse();
    let mut perf = PerfSink::new("energy_estimate", &args);
    let model = EnergyModel::default();
    println!(
        "== energy estimate per returned element ({} pts, batch {}, {} modules) ==\n",
        args.points, args.batch, args.modules
    );
    let (warm, test) = Dataset::Uniform.warmup_and_test(args.points, args.seed);
    let cfg = PimZdConfig::throughput_optimized(args.points as u64, args.modules);
    let mut pim = pim_tree(&warm, cfg, MachineConfig::with_modules(args.modules));
    perf.attach(&mut pim);
    let mut pkd = CpuRunner::pkd(&warm);
    let mut zd = CpuRunner::zd(&warm);

    println!(
        "{:<10} {:<14} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "op", "index", "nJ/elem", "cpu %", "pim %", "dram %", "chan %"
    );
    println!("{}", "-".repeat(82));
    for op in [OpKind::Insert, OpKind::BoxCount(10.0), OpKind::Knn(10)] {
        let q = make_queries(op, &test, args.points, args.batch, args.seed ^ 0xE6);
        energy_row(&mut pim, "PIM-zd-tree", op, &q, &mut perf, &model);
        energy_row(&mut pkd, "Pkd-tree", op, &q, &mut perf, &model);
        energy_row(&mut zd, "zd-tree", op, &q, &mut perf, &model);
        println!();
    }
    println!("(wimpy PIM cores + on-bank access make the PIM index cheaper per");
    println!(" element wherever it also wins on traffic — the paper's energy claim)");
    perf.finish();
}

/// Runs one cell and prints its energy per returned element by component,
/// priced from the cell's `OpStats` the same way for every index (a
/// baseline has no PIM cycles and no channel bytes).
fn energy_row(
    index: &mut impl BatchIndex<3>,
    name: &str,
    op: OpKind,
    q: &Queries,
    perf: &mut PerfSink,
    model: &EnergyModel,
) {
    perf.push("uniform", &run_cell(index, name, op, q));
    let s = index.last_op_stats();
    let e = s.energy(model);
    let t = e.total_j().max(1e-18);
    println!(
        "{:<10} {:<14} {:>12.2} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}%",
        op.label(),
        name,
        e.total_j() * 1e9 / s.elements.max(1) as f64,
        100.0 * e.cpu_j / t,
        100.0 * e.pim_j / t,
        100.0 * e.dram_j / t,
        100.0 * e.channel_j / t
    );
}
