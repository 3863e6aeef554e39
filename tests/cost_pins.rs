//! Pins every simulated cost the index charges, one digest per row.
//!
//! A row is one configuration run through the same schedule: an insert
//! batch, a SEARCH batch, 10-NN under ℓ1/ℓ2/ℓ∞, BoxCount and BoxFetch over
//! one box set, and a delete batch. Its digest is an FNV-1a over the bits of
//! every `OpStats` field after each op (`f64::to_bits` for the times and the
//! imbalance), then every `SimStats` field of the tree (of each rank, for a
//! sharded tree). The rows cover
//!
//! * both presets at D = 2 and 3, with all four Table 3 toggles on and with
//!   each of them off in turn;
//! * a 5 % fault plan under both presets (D = 3);
//! * a 4-rank `ShardedZdTree` whose rebalancer fires (D = 2 and 3).
//!
//! The digests hold the cost model, not the answers (the oracle suites hold
//! those). A change that renames a charge moves no digest; a change that
//! moves one names the rows it touches. A digest may only move together with
//! a CHANGES.md entry saying which charge moved and why.

use pim_zd_tree_repro::index::{OpBreakdown, OpStats};
use pim_zd_tree_repro::sim::wire::fnv1a;
use pim_zd_tree_repro::{
    workloads, Aabb, BatchIndex, FaultConfig, FaultPlan, MachineConfig, Metric, PimZdConfig,
    PimZdTree, Point, ShardConfig, ShardedZdTree, SimStats,
};
use std::fmt::Write;

const N: usize = 3_000;
const MODULES: usize = 16;
const SEED: u64 = 4404;

/// Every `OpStats` field, floats as their bits. Destructured in full, so a
/// new field does not compile until it is pinned too.
fn write_op(text: &mut String, op: &str, s: &OpStats) {
    let OpStats {
        breakdown: OpBreakdown { cpu_s, pim_s, comm_s },
        rounds,
        channel_bytes,
        cpu_dram_bytes,
        batch_ops,
        elements,
        worst_imbalance,
        cpu_cycles,
        pim_cycles,
    } = s;
    let fields = [
        cpu_s.to_bits(),
        pim_s.to_bits(),
        comm_s.to_bits(),
        *rounds,
        *channel_bytes,
        *cpu_dram_bytes,
        *batch_ops,
        *elements,
        worst_imbalance.to_bits(),
        *cpu_cycles,
        *pim_cycles,
    ];
    writeln!(text, "{op} {fields:x?}").unwrap();
}

/// Every `SimStats` field, floats as their bits.
fn write_sim(text: &mut String, s: &SimStats) {
    let SimStats {
        rounds,
        cpu_to_pim_bytes,
        pim_to_cpu_bytes,
        pim_s,
        comm_s,
        overhead_s,
        total_pim_cycles,
        sum_max_cycles,
        n_modules,
        faults,
        retries,
        retransmitted_bytes,
        timeout_s,
        salvaged_bytes,
    } = s;
    let fields = [
        *rounds,
        *cpu_to_pim_bytes,
        *pim_to_cpu_bytes,
        pim_s.to_bits(),
        comm_s.to_bits(),
        overhead_s.to_bits(),
        *total_pim_cycles,
        *sum_max_cycles,
        *n_modules as u64,
        *retries,
        *retransmitted_bytes,
        timeout_s.to_bits(),
        *salvaged_bytes,
    ];
    writeln!(text, "sim {fields:x?} faults {faults:?}").unwrap();
}

/// The fixed inputs of every row of one dimension.
struct Schedule<const D: usize> {
    built: Vec<Point<D>>,
    inserted: Vec<Point<D>>,
    probes: Vec<Point<D>>,
    queries: Vec<Point<D>>,
    boxes: Vec<Aabb<D>>,
}

impl<const D: usize> Schedule<D> {
    fn new() -> Self {
        let built = workloads::osm_like::<D>(N, SEED);
        let inserted = workloads::uniform::<D>(300, SEED + 1);
        let probes = workloads::point_queries(&built, 200, 2, SEED + 2);
        let queries = workloads::knn_queries(&built, 40, SEED + 3);
        let side = workloads::box_side_for_expected::<D>(N, 8.0);
        let boxes = workloads::box_queries(&built, 30, side, SEED + 4);
        Schedule { built, inserted, probes, queries, boxes }
    }

    /// Runs the schedule on `t`, recording each op's stats into `text`.
    fn run(&self, t: &mut impl BatchIndex<D>, text: &mut String) {
        t.batch_insert(&self.inserted);
        write_op(text, "insert", t.last_op_stats());
        t.batch_contains(&self.probes);
        write_op(text, "contains", t.last_op_stats());
        for metric in [Metric::L1, Metric::L2, Metric::Linf] {
            t.batch_knn(&self.queries, 10, metric);
            write_op(text, &format!("knn/{metric:?}"), t.last_op_stats());
        }
        t.batch_box_count(&self.boxes);
        write_op(text, "box_count", t.last_op_stats());
        t.batch_box_fetch(&self.boxes);
        write_op(text, "box_fetch", t.last_op_stats());
        assert_eq!(t.batch_delete(&self.built[..200]), 200);
        write_op(text, "delete", t.last_op_stats());
    }
}

fn preset(skew: bool) -> PimZdConfig {
    if skew {
        PimZdConfig::skew_resistant(MODULES)
    } else {
        PimZdConfig::throughput_optimized(N as u64, MODULES)
    }
}

/// One row: the schedule on a tree built with `cfg`, under `plan`.
fn tree_row<const D: usize>(s: &Schedule<D>, cfg: PimZdConfig, plan: Option<FaultPlan>) -> u64 {
    let mut t = PimZdTree::build(&s.built, cfg, MachineConfig::with_modules(MODULES));
    let faulty = plan.is_some();
    t.set_fault_plan(plan);
    let mut text = String::new();
    s.run(&mut t, &mut text);
    if faulty {
        assert!(t.sim_stats().retries > 0, "the plan must be biting");
    }
    write_sim(&mut text, t.sim_stats());
    fnv1a(text.as_bytes())
}

/// One row: the schedule, then a hot-cell 10-NN storm, on a 4-rank tree
/// whose rebalancer fires.
fn shard_row<const D: usize>(s: &Schedule<D>) -> u64 {
    let mut scfg = ShardConfig::new(4);
    scfg.rebalance_threshold = 1.2;
    let machine = MachineConfig::with_modules(MODULES);
    let mut t = ShardedZdTree::build(&s.built, scfg, preset(false), machine);
    let mut text = String::new();
    s.run(&mut t, &mut text);
    let hot = workloads::hot_cell_queries(&s.built, 400, 0.8, 8, SEED + 5);
    for i in 0..3 {
        t.batch_knn(&hot, 10, Metric::L2);
        write_op(&mut text, &format!("hot_knn/{i}"), t.last_op_stats());
    }
    let (moves, splits, migrated) = t.rebalance_counters();
    assert!(moves + splits > 0, "the rebalancer must fire");
    writeln!(text, "rebalance {moves} {splits} {migrated}").unwrap();
    for r in 0..t.n_ranks() {
        write_sim(&mut text, t.rank(r).sim_stats());
    }
    fnv1a(text.as_bytes())
}

/// Both presets with all toggles on, then each toggle off in turn.
fn toggle_rows<const D: usize>(rows: &mut Vec<(String, u64)>) {
    let s = Schedule::<D>::new();
    for (skew, name) in [(false, "throughput"), (true, "skew")] {
        for off in
            ["all", "-fast_zorder", "-lazy_counters", "-coarse_fine_knn", "-practical_chunking"]
        {
            let mut cfg = preset(skew);
            let t = &mut cfg.toggles;
            match off {
                "-fast_zorder" => t.fast_zorder = false,
                "-lazy_counters" => t.lazy_counters = false,
                "-coarse_fine_knn" => t.coarse_fine_knn = false,
                "-practical_chunking" => t.practical_chunking = false,
                _ => {}
            }
            rows.push((format!("D{D}/{name}/{off}"), tree_row(&s, cfg, None)));
        }
    }
    rows.push((format!("D{D}/shard4"), shard_row(&s)));
}

/// `(row, digest)`, recorded when the table was pinned. The eleven D = 2
/// rows moved when a leaf point began to be charged at its own size
/// (4·D B), not a 3-D point's 12 B; the D = 3 rows did not move. All 24
/// moved when box and ball walks began to enter L0 at their split node
/// (`Fragment::split_from`) and a best-k reply began to be taken whole
/// into an empty list at a merge's price per entry, not pushed candidate
/// by candidate at a heap step and a push each: only the CPU fields (`cpu_s`,
/// `cpu_cycles`) of the kNN, BoxCount and BoxFetch ops moved, and of the
/// sharded rows' hot kNN batches and the D = 3 insert whose rebalance
/// migrates leaves through a box fetch; every channel byte, PIM time and
/// cycle, round and `SimStats` field held. See the module docs for when a
/// digest may change.
const GOLDEN: [(&str, u64); 24] = [
    ("D2/throughput/all", 0x8bccbbb96c9e8862),
    ("D2/throughput/-fast_zorder", 0x320baa117f3f4f20),
    ("D2/throughput/-lazy_counters", 0xa41ef41876f52766),
    ("D2/throughput/-coarse_fine_knn", 0xe4f6a70f46f927f1),
    ("D2/throughput/-practical_chunking", 0x862515db6cd5d6d6),
    ("D2/skew/all", 0xe3f48a3280dda8cc),
    ("D2/skew/-fast_zorder", 0x2339d8a437420680),
    ("D2/skew/-lazy_counters", 0x67f735798a7a73b2),
    ("D2/skew/-coarse_fine_knn", 0xf8ec491439ce40be),
    ("D2/skew/-practical_chunking", 0x8d637d6f76fa9f3a),
    ("D2/shard4", 0xc2350b9b8a38dce3),
    ("D3/throughput/all", 0xe0be45497c1c790a),
    ("D3/throughput/-fast_zorder", 0xec954942ff01b898),
    ("D3/throughput/-lazy_counters", 0xb13d1f425a82f92c),
    ("D3/throughput/-coarse_fine_knn", 0x52620dd720bebf73),
    ("D3/throughput/-practical_chunking", 0x09036bd63293117b),
    ("D3/skew/all", 0x2249cbd2ed1579fe),
    ("D3/skew/-fast_zorder", 0xb6b8f1783f7a397a),
    ("D3/skew/-lazy_counters", 0x7d7f7071edea60fb),
    ("D3/skew/-coarse_fine_knn", 0x07fb8d49aa564a7a),
    ("D3/skew/-practical_chunking", 0xaf771f6fe0ff63ad),
    ("D3/shard4", 0x78033ebe208fe241),
    ("D3/throughput/faults5", 0xff845dd74a7c4eba),
    ("D3/skew/faults5", 0xe1318a10bc5b5a41),
];

#[test]
fn every_charge_of_every_op_is_pinned() {
    let mut rows = Vec::new();
    toggle_rows::<2>(&mut rows);
    toggle_rows::<3>(&mut rows);
    let s = Schedule::<3>::new();
    for (skew, name) in [(false, "throughput"), (true, "skew")] {
        let plan = FaultPlan::new(FaultConfig::uniform(0.05, SEED));
        rows.push((format!("D3/{name}/faults5"), tree_row(&s, preset(skew), Some(plan))));
    }
    let table: String =
        rows.iter().map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n")).collect();
    assert_eq!(rows.len(), GOLDEN.len(), "computed digests:\n{table}");
    let moved: Vec<&str> = rows
        .iter()
        .zip(GOLDEN)
        .filter(|((name, d), (want_name, want))| {
            assert_eq!(name, want_name);
            d != want
        })
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(moved.is_empty(), "moved rows {moved:?}; computed digests:\n{table}");
}
