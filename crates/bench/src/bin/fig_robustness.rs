//! **E-R (robustness)** — overhead of the fault-injection + recovery plane,
//! swept over failure rate × straggler factor.
//!
//! ```sh
//! cargo run --release -p pim-bench --bin fig_robustness
//! # one custom cell instead of the default sweep:
//! cargo run --release -p pim-bench --bin fig_robustness -- --fault-rate 0.1 --fault-seed 7
//! ```
//!
//! Each cell rebuilds the index from the same warmup set (builds are always
//! fault-free: the plan attaches after construction), attaches a seeded
//! [`FaultPlan`], runs the same insert/box/kNN battery, and reports the
//! simulated-time overhead versus the fault-free baseline alongside the
//! injection and recovery counters. Every cell also checks that its query
//! results are *byte-identical* to the baseline — recovery is exact, so a
//! nonzero rate costs time and traffic but never correctness.

use pim_bench::harness::{make_queries, pim_tree, run_cell, OpKind};
use pim_bench::{BenchArgs, Dataset, PerfSink};
use pim_geom::Point;
use pim_sim::{FaultConfig, FaultKind, FaultPlan, MachineConfig, SimStats};
use pim_zd_tree::PimZdConfig;

/// One sweep cell: the battery's total simulated seconds, the query
/// fingerprint it produced, and the machine's counters after the run.
struct Cell {
    rate: f64,
    factor: f64,
    total_s: f64,
    fingerprint: Vec<u64>,
    stats: SimStats,
}

fn sweep_cell(
    args: &BenchArgs,
    warm: &[Point<3>],
    test: &[Point<3>],
    plan: Option<FaultPlan>,
    perf: &mut PerfSink,
) -> Cell {
    let (rate, factor) = plan
        .as_ref()
        .map_or((0.0, 1.0), |p| (p.config().p_exec_fault, p.config().straggler_factor));
    let cfg = PimZdConfig::throughput_optimized(args.points as u64, args.modules);
    let mut pim = pim_tree(warm, cfg, MachineConfig::with_modules(args.modules));
    perf.attach(&mut pim);
    pim.set_fault_plan(plan);

    let ops = [OpKind::Insert, OpKind::BoxCount(100.0), OpKind::Knn(10)];
    let mut total_s = 0.0;
    let mut fingerprint = Vec::new();
    let cell_label = format!("rate={rate},strag={factor}");
    for op in ops {
        let q = make_queries(op, test, args.points, args.batch, args.seed ^ 0xF16);
        let m = run_cell(&mut pim, "PIM-zd-tree", op, &q);
        perf.push(&cell_label, &m);
        total_s += m.total_s;
    }
    // Result fingerprint over all query families (compared across cells).
    let probes: Vec<Point<3>> = test.iter().step_by(37).copied().collect();
    fingerprint.extend(pim.batch_contains(&probes).iter().map(|&b| b as u64));
    let side = pim_workloads::box_side_for_expected::<3>(args.points, 50.0);
    let boxes = pim_workloads::box_queries(test, 20, side, args.seed ^ 0xB0B);
    fingerprint.extend(pim.batch_box_count(&boxes));
    let knn = pim_workloads::knn_queries(test, 20, args.seed ^ 0x514);
    for (d, p) in pim.batch_knn(&knn, 4, pim_geom::Metric::L2).iter().flatten() {
        fingerprint.push(d ^ u64::from(p.coords[0]));
    }

    Cell { rate, factor, total_s, fingerprint, stats: *pim.sim_stats() }
}

fn main() {
    let args = BenchArgs::parse();
    let fault_seed = args.fault_seed.unwrap_or(args.seed);
    println!(
        "== Robustness: fault-rate × straggler sweep (uniform, {} pts, batch {}, {} modules, fault seed {}) ==\n",
        args.points, args.batch, args.modules, fault_seed
    );
    let (warm, test) = Dataset::Uniform.warmup_and_test(args.points, args.seed);

    // `--fault-rate R` narrows the sweep to that single rate; otherwise the
    // default grid covers the recoverable band.
    let rates: Vec<f64> =
        if args.fault_rate > 0.0 { vec![args.fault_rate] } else { vec![0.01, 0.05, 0.10, 0.20] };
    let factors = [2.0, 8.0];

    let mut perf = PerfSink::new("fig_robustness", &args);
    let base = sweep_cell(&args, &warm, &test, None, &mut perf);
    println!(
        "{:>6} {:>7} {:>10} {:>9}  {:>7} {:>7} {:>7} {:>6} {:>7} {:>11}  results",
        "rate",
        "stragx",
        "total ms",
        "overhead",
        "faults",
        "retries",
        "deaths",
        "salv",
        "strag",
        "resent KiB",
    );
    println!("{}", "-".repeat(104));
    println!(
        "{:>6} {:>7} {:>10.2} {:>9}  {:>7} {:>7} {:>7} {:>6} {:>7} {:>11}  reference",
        "0",
        "-",
        base.total_s * 1e3,
        "baseline",
        0,
        0,
        0,
        0,
        0,
        0,
    );

    for &rate in &rates {
        for &factor in &factors {
            let mut cfg = FaultConfig::uniform(rate, fault_seed);
            cfg.straggler_factor = factor;
            let cell = sweep_cell(&args, &warm, &test, Some(FaultPlan::new(cfg)), &mut perf);
            let overhead = 100.0 * (cell.total_s - base.total_s) / base.total_s;
            let ok = cell.fingerprint == base.fingerprint;
            println!(
                "{:>6.2} {:>6.0}x {:>10.2} {:>8.1}%  {:>7} {:>7} {:>7} {:>6} {:>7} {:>11.1}  {}",
                cell.rate,
                cell.factor,
                cell.total_s * 1e3,
                overhead,
                cell.stats.total_faults(),
                cell.stats.retries,
                cell.stats.faults_of(FaultKind::Death),
                cell.stats.faults_of(FaultKind::Salvage),
                cell.stats.faults_of(FaultKind::Straggler),
                cell.stats.retransmitted_bytes as f64 / 1024.0,
                if ok { "identical" } else { "DIVERGED" }
            );
            assert!(ok, "rate {rate} × straggler {factor}: query results diverged from baseline");
        }
    }
    println!("\n(overhead = simulated-time increase over the fault-free run; every cell's");
    println!(" query results are checked byte-identical to the baseline — recovery is exact)");
    perf.finish();
}
