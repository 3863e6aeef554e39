//! Shape-regression tests: fast, reduced-scale versions of the paper's key
//! evaluation claims. They guard the *qualitative* results (who wins, what
//! stays flat, which direction an ablation moves) so refactors of the cost
//! model or the index can't silently break the reproduction.

use pim_bench::harness::{make_queries, pim_tree, run_cell, CpuRunner, OpKind};
use pim_bench::Dataset;
use pim_geom::Metric;
use pim_sim::MachineConfig;
use pim_workloads as wl;
use pim_zd_tree::{PimZdConfig, PimZdTree};

const N: usize = 120_000;
const MODULES: usize = 512;
const BATCH: usize = 12_000;

fn setup() -> (Vec<pim_geom::Point<3>>, Vec<pim_geom::Point<3>>) {
    Dataset::Uniform.warmup_and_test(N, 99)
}

#[test]
fn fig5_shape_pim_wins_box_count() {
    let (warm, test) = setup();
    let cfg = PimZdConfig::throughput_optimized(N as u64, MODULES);
    let mut pim = pim_tree(&warm, cfg, MachineConfig::with_modules(MODULES));
    let mut pkd = CpuRunner::pkd(&warm);
    let op = OpKind::BoxCount(10.0);
    // Larger batch so the per-round mux overhead is amortized (the regime
    // the paper measures; Fig. 7's low-batch penalty is tested separately).
    let q = make_queries(op, &test, N, BATCH * 4, 1);
    let a = run_cell(&mut pim, "PIM-zd-tree", op, &q);
    let b = run_cell(&mut pkd, "Pkd-tree", op, &q);
    assert!(
        a.throughput > 1.2 * b.throughput,
        "BoxCount must favour PIM: {:.2e} !> 1.2×{:.2e}",
        a.throughput,
        b.throughput
    );
    assert!(a.traffic < b.traffic, "and use less memory traffic");
}

#[test]
fn fig5_shape_large_knn_is_pims_weak_spot() {
    let (warm, test) = setup();
    let cfg = PimZdConfig::throughput_optimized(N as u64, MODULES);
    let mut pim = pim_tree(&warm, cfg, MachineConfig::with_modules(MODULES));
    let mut pkd = CpuRunner::pkd(&warm);
    let small = make_queries(OpKind::Knn(1), &test, N, BATCH, 2);
    let large = make_queries(OpKind::Knn(100), &test, N, BATCH, 2);
    let r1 = run_cell(&mut pim, "PIM-zd-tree", OpKind::Knn(1), &small).throughput
        / run_cell(&mut pkd, "Pkd-tree", OpKind::Knn(1), &small).throughput;
    let r100 = run_cell(&mut pim, "PIM-zd-tree", OpKind::Knn(100), &large).throughput
        / run_cell(&mut pkd, "Pkd-tree", OpKind::Knn(100), &large).throughput;
    assert!(r1 > 1.0, "PIM must win 1-NN (got {r1:.2}x)");
    assert!(
        r100 < r1,
        "the PIM advantage must shrink with k (paper's crossover): {r100:.2} !< {r1:.2}"
    );
}

#[test]
fn fig8_shape_pim_flat_baseline_degrades() {
    let run = |n: usize| {
        let (warm, test) = Dataset::Uniform.warmup_and_test(n, 5);
        let cfg = PimZdConfig::throughput_optimized(n as u64, MODULES);
        let mut pim = pim_tree(&warm, cfg, MachineConfig::with_modules(MODULES));
        let mut zd = CpuRunner::zd(&warm);
        let op = OpKind::Knn(1);
        let q = make_queries(op, &test, n, BATCH, 6);
        (
            run_cell(&mut pim, "PIM-zd-tree", op, &q).throughput,
            run_cell(&mut zd, "zd-tree", op, &q).throughput,
        )
    };
    let (pim_s, zd_s) = run(60_000);
    let (pim_l, zd_l) = run(360_000);
    let pim_drop = pim_s / pim_l;
    let zd_drop = zd_s / zd_l;
    assert!(
        pim_drop < zd_drop,
        "PIM must degrade less with 6x data: pim {pim_drop:.2}x vs zd {zd_drop:.2}x"
    );
    assert!(pim_drop < 1.4, "PIM should be near-flat, dropped {pim_drop:.2}x");
}

#[test]
fn fig9_shape_skew_resistance() {
    let warm = wl::uniform::<3>(N, 7);
    let varden = wl::varden::<3>(N / 10, 8);
    let machine = MachineConfig::with_modules(MODULES);
    let mut thr = pim_tree(&warm, PimZdConfig::throughput_optimized(N as u64, MODULES), machine);
    let mut skw = pim_tree(&warm, PimZdConfig::skew_resistant(MODULES), machine);
    let measure = |t: &mut PimZdTree<3>, frac: f64| {
        let q = wl::mixed_queries(&warm, &varden, BATCH, frac, 9);
        let _ = t.batch_knn(&q, 1, Metric::L2);
        t.last_op_stats().throughput()
    };
    let thr_drop = measure(&mut thr, 0.0) / measure(&mut thr, 0.05);
    let skw_drop = measure(&mut skw, 0.0) / measure(&mut skw, 0.05);
    assert!(
        thr_drop > skw_drop,
        "skew must hurt the throughput-optimized config more: {thr_drop:.2}x vs {skw_drop:.2}x"
    );
}

#[test]
fn table3_shape_coarse_fine_helps_knn() {
    let (warm, test) = setup();
    let machine = MachineConfig::with_modules(MODULES);
    let mut on_cfg = PimZdConfig::throughput_optimized(N as u64, MODULES);
    let mut off_cfg = on_cfg;
    off_cfg.toggles.coarse_fine_knn = false;
    let _ = &mut on_cfg;
    let mut on = pim_tree(&warm, on_cfg, machine);
    let mut off = pim_tree(&warm, off_cfg, machine);
    let op = OpKind::Knn(10);
    let q = make_queries(op, &test, N, BATCH, 10);
    let t_on = run_cell(&mut on, "PIM-zd-tree", op, &q).throughput;
    let t_off = run_cell(&mut off, "PIM-zd-tree", op, &q).throughput;
    assert!(t_on > t_off, "ℓ1-anchored filtering must beat ℓ2-on-PIM: {t_on:.2e} !> {t_off:.2e}");
}

#[test]
fn table2_shape_throughput_config_uses_fewer_rounds() {
    let warm = wl::uniform::<3>(N, 11);
    let machine = MachineConfig::with_modules(MODULES);
    let mut thr =
        PimZdTree::build(&warm, PimZdConfig::throughput_optimized(N as u64, MODULES), machine);
    let mut skw = PimZdTree::build(&warm, PimZdConfig::skew_resistant(MODULES), machine);
    let q = wl::knn_queries(&warm, BATCH, 12);
    let _ = thr.batch_contains(&q);
    let r_thr = thr.last_op_stats().rounds;
    let _ = skw.batch_contains(&q);
    let r_skw = skw.last_op_stats().rounds;
    assert!(r_thr <= 2, "O(1)-communication search, got {r_thr} rounds");
    assert!(r_skw >= r_thr, "finer chunking costs rounds: {r_skw} !>= {r_thr}");
}
