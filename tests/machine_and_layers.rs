//! Integration tests for machine-level behaviours of the index: L0
//! replication, transfer-API sensitivity, per-dimension generality, and
//! accounting sanity.

use pim_memsim::{CacheConfig, CpuConfig};
use pim_sim::config::TransferApi;
use pim_zd_tree_repro::{workloads, MachineConfig, Metric, PimZdConfig, PimZdTree};

/// A host CPU with an unrealistically tiny LLC, to force L0 overflow.
fn tiny_cpu() -> CpuConfig {
    CpuConfig { llc: CacheConfig::tiny(8 * 1024), ..CpuConfig::xeon() }
}

#[test]
fn l0_replicates_when_it_outgrows_the_cache() {
    let pts = workloads::uniform::<3>(30_000, 1);
    // Low θ_L0 → large L0; tiny LLC → must replicate (§3.1).
    let mut cfg = PimZdConfig::skew_resistant(16);
    cfg.theta_l0 = 64;
    let machine = MachineConfig::with_modules(16);
    let small = PimZdTree::build(&pts, cfg, machine);
    let replicated = PimZdTree::build(&pts, cfg, MachineConfig { cpu: tiny_cpu(), ..machine });
    assert!(
        replicated.space_bytes() > small.space_bytes(),
        "replicated L0 must add space: {} !> {}",
        replicated.space_bytes(),
        small.space_bytes()
    );
    // Correctness unaffected.
    let mut r = replicated;
    let found = r.batch_contains(&pts[..100]);
    assert!(found.iter().all(|&f| f));
}

#[test]
fn sdk_api_slows_small_batches_most() {
    let pts = workloads::uniform::<3>(20_000, 2);
    let run = |api: TransferApi, batch: usize| {
        let mut machine = MachineConfig::with_modules(64);
        machine.api = api;
        let cfg = PimZdConfig::throughput_optimized(20_000, 64);
        let mut t = PimZdTree::build(&pts, cfg, machine);
        let q = workloads::knn_queries(&pts, batch, 3);
        let _ = t.batch_contains(&q);
        t.last_op_stats().breakdown.total_s()
    };
    let slow_small = run(TransferApi::Sdk, 200) / run(TransferApi::Direct, 200);
    let slow_large = run(TransferApi::Sdk, 20_000) / run(TransferApi::Direct, 20_000);
    assert!(slow_small > 1.0, "SDK must cost something");
    assert!(
        slow_small > slow_large,
        "overhead must amortize with batch size: {slow_small:.3} !> {slow_large:.3}"
    );
}

#[test]
fn four_dimensional_index_works() {
    let pts = workloads::uniform::<4>(4_000, 3);
    let cfg = PimZdConfig::throughput_optimized(4_000, 8);
    let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(8));
    t.check_invariants(&pts);
    let q = pts[123];
    let got = t.batch_knn(&[q], 5, Metric::L2);
    // Brute force.
    let mut want: Vec<(u64, _)> = pts.iter().map(|p| (Metric::L2.cmp_dist(&q, p), *p)).collect();
    want.sort_unstable_by_key(|(d, p)| (*d, p.coords));
    want.truncate(5);
    assert_eq!(got[0], want);
}

#[test]
fn five_dimensional_l1_metric() {
    let pts = workloads::uniform::<5>(2_000, 4);
    let cfg = PimZdConfig::skew_resistant(8);
    let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(8));
    let q = pts[55];
    let got = t.batch_knn(&[q], 3, Metric::L1);
    let mut want: Vec<(u64, _)> = pts.iter().map(|p| (Metric::L1.cmp_dist(&q, p), *p)).collect();
    want.sort_unstable_by_key(|(d, p)| (*d, p.coords));
    want.truncate(3);
    assert_eq!(got[0], want);
}

#[test]
fn practical_chunking_toggle_changes_cost_not_results() {
    let pts = workloads::uniform::<3>(20_000, 5);
    let machine = MachineConfig::with_modules(32);
    let mut on_cfg = PimZdConfig::skew_resistant(32);
    on_cfg.toggles.practical_chunking = true;
    let mut off_cfg = on_cfg;
    off_cfg.toggles.practical_chunking = false;

    let mut on = PimZdTree::build(&pts, on_cfg, machine);
    let mut off = PimZdTree::build(&pts, off_cfg, machine);
    let q = workloads::knn_queries(&pts, 2_000, 6);

    let a = on.batch_contains(&q);
    let b = off.batch_contains(&q);
    assert_eq!(a, b, "results must be identical");
    let cyc_on = on.last_op_stats().pim_cycles;
    let cyc_off = off.last_op_stats().pim_cycles;
    assert!(
        cyc_on < cyc_off,
        "dense chunk directories must save PIM cycles: {cyc_on} !< {cyc_off}"
    );
}

#[test]
fn op_stats_are_internally_consistent() {
    let pts = workloads::uniform::<3>(10_000, 7);
    let cfg = PimZdConfig::throughput_optimized(10_000, 16);
    let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
    let q = workloads::knn_queries(&pts, 1_000, 8);
    let res = t.batch_knn(&q, 7, Metric::L2);
    let s = t.last_op_stats().clone();
    let total: usize = res.iter().map(Vec::len).sum();
    assert_eq!(s.elements as usize, total);
    assert_eq!(s.batch_ops, 1_000);
    assert!(s.breakdown.total_s() > 0.0);
    assert!(s.throughput() > 0.0);
    assert!(s.worst_imbalance >= 1.0);
    let e = s.energy(&pim_sim::EnergyModel::default());
    assert!(e.total_j() > 0.0);
}

#[test]
fn skew_resistant_pulls_under_concentration() {
    // All queries target one point: skew-resistant must pull (host time
    // grows, imbalance stays bounded); throughput-optimized cannot pull.
    let pts = workloads::uniform::<3>(40_000, 9);
    let machine = MachineConfig::with_modules(64);
    let hot = vec![pts[7]; 20_000];

    let mut skw = PimZdTree::build(&pts, PimZdConfig::skew_resistant(64), machine);
    let _ = skw.batch_contains(&hot);
    let s_skw = skw.last_op_stats().clone();

    let mut thr = PimZdTree::build(&pts, PimZdConfig::throughput_optimized(40_000, 64), machine);
    let _ = thr.batch_contains(&hot);
    let s_thr = thr.last_op_stats().clone();

    // The skew-resistant config pulls the hot meta-node to the host, so its
    // PIM side stays nearly idle, while the throughput-optimized config
    // funnels all 20k searches through one module.
    assert!(
        s_skw.breakdown.pim_s < s_thr.breakdown.pim_s / 4.0,
        "pulling must unload the straggler module: {:.2e} !< {:.2e}/4",
        s_skw.breakdown.pim_s,
        s_thr.breakdown.pim_s
    );
    assert!(
        s_skw.breakdown.total_s() < s_thr.breakdown.total_s(),
        "and win end-to-end under point skew"
    );
}

#[test]
fn index_survives_empty_and_refill_cycles() {
    let cfg = PimZdConfig::skew_resistant(8);
    let mut t = PimZdTree::<3>::new(cfg, MachineConfig::with_modules(8));
    for cycle in 0..3 {
        let pts = workloads::uniform::<3>(2_000, 100 + cycle);
        t.batch_insert(&pts);
        t.check_invariants(&pts);
        let removed = t.batch_delete(&pts);
        assert_eq!(removed, 2_000, "cycle {cycle}");
        assert!(t.is_empty());
        t.check_invariants(&[]);
    }
}

#[test]
fn single_point_index_works_end_to_end() {
    let cfg = PimZdConfig::throughput_optimized(1, 4);
    let mut t = PimZdTree::<3>::new(cfg, MachineConfig::with_modules(4));
    let p = pim_geom::Point::new([7u32, 8, 9]);
    t.batch_insert(&[p]);
    assert_eq!(t.batch_contains(&[p]), vec![true]);
    let nn = t.batch_knn(&[pim_geom::Point::new([0u32, 0, 0])], 1, Metric::L2);
    assert_eq!(nn[0][0].1, p);
    let c = t.batch_box_count(&[pim_geom::Aabb::universe()]);
    assert_eq!(c[0], 1);
    assert_eq!(t.batch_delete(&[p]), 1);
    t.check_invariants(&[]);
}
