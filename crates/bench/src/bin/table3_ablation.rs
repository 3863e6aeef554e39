//! **Table 3 (E8)** — impact of the §6 implementation techniques: slowdown
//! when each is individually removed from the final design.
//!
//! | technique    | affects                                      |
//! |--------------|----------------------------------------------|
//! | lazy counter | INSERT (eager sync of every counter change)  |
//! | fast z-order | all ops (naive bit-interleave per key)       |
//! | fast ℓ2-norm | kNN (evaluate ℓ2 on the 32-cycle-mul PIM)    |
//! | Direct API   | all ops (per-transfer SDK call overhead)     |
//!
//! ```sh
//! cargo run --release -p pim-bench --bin table3_ablation
//! ```

use pim_bench::harness::{make_queries, pim_tree, run_cell, OpKind};
use pim_bench::{report, BenchArgs, Dataset, PerfSink};
use pim_sim::config::TransferApi;
use pim_sim::MachineConfig;
use pim_zd_tree::PimZdConfig;

#[derive(Clone, Copy, Debug)]
enum Ablation {
    None,
    LazyCounter,
    FastZOrder,
    FastL2,
    DirectApi,
    PracticalChunking,
}

impl Ablation {
    fn name(&self) -> &'static str {
        match self {
            Ablation::None => "(full design)",
            Ablation::LazyCounter => "Lazy Counter",
            Ablation::FastZOrder => "Fast z-order",
            Ablation::FastL2 => "Fast l2-norm",
            Ablation::DirectApi => "Direct API",
            Ablation::PracticalChunking => "Dense chunking",
        }
    }
}

fn main() {
    let args = BenchArgs::parse();
    println!(
        "== Table 3: slowdown with each technique removed (uniform, {} pts, batch {}) ==\n",
        args.points, args.batch
    );
    let (warm, test) = Dataset::Uniform.warmup_and_test(args.points, args.seed);
    let mut perf = PerfSink::new("table3_ablation", &args);

    // Measure a configuration: returns per-op-family throughput.
    let measure = |ab: Ablation, perf: &mut PerfSink| -> Vec<(String, f64)> {
        let mut cfg = PimZdConfig::throughput_optimized(args.points as u64, args.modules);
        let mut machine = MachineConfig::with_modules(args.modules);
        match ab {
            Ablation::None => {}
            Ablation::LazyCounter => cfg.toggles.lazy_counters = false,
            Ablation::FastZOrder => cfg.toggles.fast_zorder = false,
            Ablation::FastL2 => cfg.toggles.coarse_fine_knn = false,
            Ablation::DirectApi => machine.api = TransferApi::Sdk,
            Ablation::PracticalChunking => cfg.toggles.practical_chunking = false,
        }
        let mut pim = pim_tree(&warm, cfg, machine);
        perf.attach(&mut pim);
        let mut out = Vec::new();
        // INSERT.
        let q = make_queries(OpKind::Insert, &test, args.points, args.batch, args.seed ^ 0x73);
        let m = run_cell(&mut pim, "PIM-zd-tree", OpKind::Insert, &q);
        perf.push(ab.name(), &m);
        out.push(("Insert".into(), m.throughput));
        // BoxCount / BoxFetch / kNN: geometric mean over the three sizes.
        for (label, ops) in [
            (
                "BoxCount",
                vec![OpKind::BoxCount(1.0), OpKind::BoxCount(10.0), OpKind::BoxCount(100.0)],
            ),
            (
                "BoxFetch",
                vec![OpKind::BoxFetch(1.0), OpKind::BoxFetch(10.0), OpKind::BoxFetch(100.0)],
            ),
            ("kNN", vec![OpKind::Knn(1), OpKind::Knn(10), OpKind::Knn(100)]),
        ] {
            let ts: Vec<f64> = ops
                .iter()
                .map(|&op| {
                    let q = make_queries(op, &test, args.points, args.batch, args.seed ^ 0x73);
                    let m = run_cell(&mut pim, "PIM-zd-tree", op, &q);
                    perf.push(ab.name(), &m);
                    m.throughput
                })
                .collect();
            out.push((label.into(), report::geomean(&ts)));
        }
        out
    };

    let base = measure(Ablation::None, &mut perf);
    println!("{:<14} {:>9} {:>9} {:>9} {:>9}", "removed", "Insert", "BoxCount", "BoxFetch", "kNN");
    println!("{}", "-".repeat(56));
    for ab in [
        Ablation::LazyCounter,
        Ablation::FastZOrder,
        Ablation::FastL2,
        Ablation::DirectApi,
        Ablation::PracticalChunking,
    ] {
        let m = measure(ab, &mut perf);
        let slowdowns: Vec<String> =
            base.iter().zip(&m).map(|((_, b), (_, x))| format!("{:>8.2}x", b / x)).collect();
        println!("{:<14} {}", ab.name(), slowdowns.join(" "));
    }
    println!("\n(paper: lazy counter 1.49x on Insert; fast z-order 1.31–1.99x across ops;");
    println!(" fast l2 1.58x on kNN; Direct API 1.06–1.09x at large batches.");
    println!(" Dense chunking is this reproduction's extra row: the §6 practical-");
    println!(" chunking jump table, not separately ablated in the paper's Table 3.");
    println!(" It reads 1.00x here because a throughput-optimized fragment holds");
    println!(" about theta_L0/8 nodes, under dense mode's B/4 = theta_L0/4. Under");
    println!(" skew-resistant (B = 16; 200 k uniform points, P = 512, one 20 k");
    println!(" contains batch) it cuts PIM time 20.7 -> 14.3 us and the batch");
    println!(" 351.7 -> 344.0 us; EXPERIMENTS.md E8)");
    perf.finish();
}
