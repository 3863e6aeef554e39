//! **E-S scale-out** — rank-count × skew sweep of the shard router:
//! batch-query throughput, per-rank busy-cycle imbalance, and cross-shard
//! fan-out, 1 → 8 ranks (see ARCHITECTURE.md §10).
//!
//! ```sh
//! cargo run --release -p pim-bench --bin fig_shard
//! cargo run --release -p pim-bench --bin fig_shard -- \
//!     --points 20000 --batch 4000 --modules 32 --json fig_shard.json
//! ```
//!
//! Each rank is an independent `--modules`-module machine, so adding ranks
//! adds hardware (scale-out): the headline is near-linear 10-NN batch
//! throughput in *simulated* time on uniform queries, and bounded per-rank
//! busy-cycle imbalance on the Varden mix (50% of queries target the skew
//! filament), where the router's skew-driven rebalancer splits and migrates
//! the hot cells between batches and the kNN widen phase pulls each cluster
//! of filament queries with one fetch (`coalesce` = widen requests per
//! scattered box; 1.00 = every query fetched alone). `--trace PATH` writes one journal per
//! rank (`PATH.r{ranks}.{workload}.rank{r}.jsonl`) for the largest sweep
//! cell; feed them all to `trace_summary` for a rank-tagged merge. The
//! ranks take no fault plan: `--fault-rate` exits 2.

use pim_bench::perf::PerfEntry;
use pim_bench::{BenchArgs, PerfSink};
use pim_geom::{Metric, Point};
use pim_sim::MachineConfig;
use pim_workloads as wl;
use pim_zd_tree::{OpStats, PimZdConfig, ShardConfig, ShardedZdTree};

const K: usize = 10;
const BATCHES: usize = 4;

struct Cell {
    stats: OpStats,
    imbalance: f64,
    fanout: f64,
    /// Widen requests per scattered widen box (1.0 when nothing widened).
    coalesce: f64,
    rebalances: u64,
}

fn run_cell(
    warm: &[Point<3>],
    varden: &[Point<3>],
    ranks: usize,
    workload: &str,
    args: &BenchArgs,
    metrics: pim_sim::Metrics,
    trace: bool,
) -> Cell {
    let machine = MachineConfig {
        cpu: pim_bench::harness::scaled_cpu(args.points),
        ..MachineConfig::with_modules(args.modules)
    };
    let zcfg = PimZdConfig::throughput_optimized(args.points as u64, args.modules);
    let mut tree = ShardedZdTree::build(warm, ShardConfig::new(ranks), zcfg, machine);
    tree.set_metrics(metrics);
    let journals = if trace && args.trace.is_some() { tree.attach_journals() } else { Vec::new() };

    let base: Vec<u64> = (0..ranks).map(|r| tree.rank(r).sim_stats().total_pim_cycles).collect();
    let mut agg = OpStats::default();
    let (mut touches, mut rebalances) = (0u64, 0u64);
    let (mut requests, mut fetches) = (0u64, 0u64);
    for i in 0..BATCHES {
        let seed = args.seed ^ (0x5D00 + i as u64);
        let queries = match workload {
            "uniform" => wl::point_queries(warm, args.batch, 0, seed),
            _ => wl::mixed_queries(warm, varden, args.batch, 0.5, seed),
        };
        let _ = tree.batch_knn(&queries, K, Metric::L2);
        let st = tree.last_shard_stats();
        agg.add(&st.agg);
        touches += st.rank_touches;
        requests += st.widen_requests;
        fetches += st.widen_fetches;
        rebalances += st.rebalance_actions;
    }
    // Imbalance over the whole measured window (rebalancer effects
    // included): max/mean of each rank's PIM-cycle delta.
    let deltas: Vec<u64> =
        (0..ranks).map(|r| tree.rank(r).sim_stats().total_pim_cycles - base[r]).collect();
    let total: u64 = deltas.iter().sum();
    let imbalance = if total == 0 {
        1.0
    } else {
        *deltas.iter().max().unwrap() as f64 / (total as f64 / ranks as f64)
    };
    let fanout = touches as f64 / agg.batch_ops.max(1) as f64;
    let coalesce = if fetches == 0 { 1.0 } else { requests as f64 / fetches as f64 };
    tree.merge_rank_metrics();
    if let Some(path) = args.trace.as_deref() {
        for (r, j) in journals.iter().enumerate() {
            let p = format!("{path}.r{ranks}.{workload}.rank{r}.jsonl");
            if let Err(e) = j.write_jsonl(&p) {
                eprintln!("fig_shard: cannot write {p}: {e}");
            }
        }
    }
    Cell { stats: agg, imbalance, fanout, coalesce, rebalances }
}

fn main() {
    let args = BenchArgs::parse();
    args.refuse(&["--fault-rate"]);
    let mut perf = PerfSink::new("fig_shard", &args);
    let rank_counts = [1usize, 2, 4, 8];

    println!(
        "== E-S: sharded {K}-NN scale-out, {} pts, {} modules/rank, {} × {} queries ==\n",
        args.points, args.modules, BATCHES, args.batch
    );
    let warm = wl::uniform::<3>(args.points, args.seed);
    let varden = wl::varden::<3>((args.points / 10).max(64), args.seed ^ 0xF19);

    println!(
        "{:>5} | {:>12} {:>7} {:>7} {:>8} | {:>12} {:>7} {:>7} {:>8} {:>6}",
        "ranks",
        "unif Mq/s",
        "imbal",
        "fanout",
        "coalesce",
        "vard Mq/s",
        "imbal",
        "fanout",
        "coalesce",
        "rebal"
    );
    println!("{}", "-".repeat(98));

    let mut base_thr = 0.0;
    let mut top = (0.0, 1.0, 1.0); // 8-rank (uniform thr, uniform imb, varden imb)
    for &ranks in &rank_counts {
        let last = ranks == *rank_counts.last().unwrap();
        let u = run_cell(&warm, &varden, ranks, "uniform", &args, perf.metrics(), last);
        let v = run_cell(&warm, &varden, ranks, "varden", &args, perf.metrics(), last);
        let label = format!("ranks={ranks}");
        perf.push(&label, &PerfEntry::of("sharded-uniform", &format!("{K}-NN"), &u.stats));
        perf.push(&label, &PerfEntry::of("sharded-varden", &format!("{K}-NN"), &v.stats));
        if ranks == 1 {
            base_thr = u.stats.throughput();
        }
        if last {
            top = (u.stats.throughput(), u.imbalance, v.imbalance);
        }
        println!(
            "{:>5} | {:>12.2} {:>6.2}x {:>7.2} {:>8.2} | {:>12.2} {:>6.2}x {:>7.2} {:>8.2} {:>6}",
            ranks,
            u.stats.throughput() / 1e6,
            u.imbalance,
            u.fanout,
            u.coalesce,
            v.stats.throughput() / 1e6,
            v.imbalance,
            v.fanout,
            v.coalesce,
            v.rebalances,
        );
    }
    let scaling = if base_thr > 0.0 { top.0 / base_thr } else { 0.0 };
    println!(
        "\nuniform scaling 1→{} ranks: {scaling:.2}x; 8-rank imbalance uniform {:.2}x vs varden {:.2}x",
        rank_counts.last().unwrap(),
        top.1,
        top.2
    );
    println!("(target: ≥3x scaling at 8 ranks; varden imbalance ≤ 2x the uniform case)");
    perf.finish();
}
