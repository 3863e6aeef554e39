//! **Fig. 5 (E1–E3)** — end-to-end comparison of PIM-zd-tree (throughput-
//! optimized), Pkd-tree, and zd-tree on INSERT, BoxCount, BoxFetch, and kNN
//! at three sizes each, over the three evaluation datasets.
//!
//! ```sh
//! cargo run --release -p pim-bench --bin fig5_end_to_end -- uniform
//! cargo run --release -p pim-bench --bin fig5_end_to_end -- cosmos
//! cargo run --release -p pim-bench --bin fig5_end_to_end -- osm
//! cargo run --release -p pim-bench --bin fig5_end_to_end -- all
//! ```
//!
//! `--trace PATH` writes PIM-zd-tree's round journal to `PATH` (with
//! `all`, the last dataset's), for `trace_summary`.

use pim_bench::harness::{make_queries, pim_tree, run_cell, CpuRunner, OpKind};
use pim_bench::{report, BenchArgs, Dataset, PerfSink};
use pim_sim::MachineConfig;
use pim_zd_tree::PimZdConfig;

fn main() {
    let args = BenchArgs::parse();
    let which = args.positional.as_deref().unwrap_or("uniform");
    let datasets: Vec<Dataset> = if which == "all" {
        vec![Dataset::Uniform, Dataset::Cosmos, Dataset::Osm]
    } else {
        vec![Dataset::parse(which).unwrap_or_else(|| {
            eprintln!("unknown dataset {which:?}; use uniform|cosmos|osm|all");
            std::process::exit(2);
        })]
    };

    let mut perf = PerfSink::new("fig5_end_to_end", &args);
    for ds in datasets {
        run_dataset(ds, &args, &mut perf);
    }
    perf.finish();
}

fn run_dataset(ds: Dataset, args: &BenchArgs, perf: &mut PerfSink) {
    println!(
        "== Fig. 5 [{}]: warmup {} pts, batch {} ops, {} modules ==\n",
        ds.name(),
        args.points,
        args.batch,
        args.modules
    );
    let (warm, test) = ds.warmup_and_test(args.points, args.seed);

    let cfg = PimZdConfig::throughput_optimized(args.points as u64, args.modules);
    let mut pim = pim_tree(&warm, cfg, MachineConfig::with_modules(args.modules));
    perf.attach(&mut pim);
    let mut pkd = CpuRunner::pkd(&warm);
    let mut zd = CpuRunner::zd(&warm);

    report::fig5_header();
    let mut speedup_pkd = Vec::new();
    let mut speedup_zd = Vec::new();
    let mut traffic_pkd = Vec::new();
    let mut traffic_zd = Vec::new();

    for op in OpKind::fig5_battery() {
        let q = make_queries(op, &test, args.points, args.batch, args.seed ^ 0xF15);
        let m_pim = run_cell(&mut pim, "PIM-zd-tree", op, &q);
        let m_pkd = run_cell(&mut pkd, "Pkd-tree", op, &q);
        let m_zd = run_cell(&mut zd, "zd-tree", op, &q);
        for m in [&m_pim, &m_pkd, &m_zd] {
            report::row(m);
            perf.push(ds.name(), m);
        }
        speedup_pkd.push(m_pim.throughput / m_pkd.throughput);
        speedup_zd.push(m_pim.throughput / m_zd.throughput);
        if m_pim.traffic > 0.0 {
            traffic_pkd.push(m_pkd.traffic / m_pim.traffic);
            traffic_zd.push(m_zd.traffic / m_pim.traffic);
        }
        report::sep();
    }

    println!(
        "geomean speedup vs Pkd-tree: {:.2}x | vs zd-tree: {:.2}x",
        report::geomean(&speedup_pkd),
        report::geomean(&speedup_zd)
    );
    println!(
        "geomean traffic reduction vs Pkd-tree: {:.2}x | vs zd-tree: {:.2}x",
        report::geomean(&traffic_pkd),
        report::geomean(&traffic_zd)
    );
    println!("(paper, uniform: speedups up to 4.25x / 99x; traffic 3.5x / 18.8x average)\n");
}
