//! One pin table for every index behind the batch API.
//!
//! Each row runs a schedule (batch ops and their inputs) through [`run`] and
//! keeps three FNV-1a digests, one per class of what an op yields:
//!
//! * **answers** — each op's result, `batch_ops`, `elements` and the
//!   index's `len` after it;
//! * **machine** — each op's `rounds`, `channel_bytes`, `pim_s`, `comm_s`,
//!   `pim_cycles` and `worst_imbalance`, then every `SimStats` field (of
//!   each rank), the rebalance counters and the round journal;
//! * **host** — each op's `cpu_s`, `cpu_cycles` and `cpu_dram_bytes`.
//!
//! `OpStats` and `SimStats` are destructured in full, so a new field does
//! not compile until it has a class. The rows: 24 *cost* rows, 24 *regime*
//! halves and 4 *baseline* rows, each family described at its test.

mod common;

use common::knn_distinct;
use pim_bench::harness::{make_queries, CpuRunner, OpKind, Queries};
use pim_bench::Dataset;
use pim_zd_tree_repro::index::{OpBreakdown, OpStats, Toggles};
use pim_zd_tree_repro::sim::{trace::Journal, wire::fnv1a};
use pim_zd_tree_repro::{
    workloads, Aabb, BatchIndex, FaultConfig, FaultPlan, MachineConfig, Metric, PimZdConfig,
    PimZdTree, Point, ShardConfig, ShardedZdTree, SimStats,
};
use std::fmt::Write;

const N: usize = 3_000;
const MODULES: usize = 16;

#[derive(Clone)]
enum Op<const D: usize> {
    Insert(Vec<Point<D>>),
    Delete(Vec<Point<D>>),
    Contains(Vec<Point<D>>),
    Knn(Vec<Point<D>>, usize, Metric),
    BoxCount(Vec<Aabb<D>>),
    BoxFetch(Vec<Aabb<D>>),
}

#[derive(Debug, PartialEq)]
enum Reply<const D: usize> {
    Inserted,
    Deleted(usize),
    Found(Vec<bool>),
    Knn(Vec<Vec<(u64, Point<D>)>>),
    Counts(Vec<u64>),
    Fetched(Vec<Vec<Point<D>>>),
}

/// A row's three digest texts (`{:?}` of an f64 round-trips, so equal text
/// is equal bits), and the channel bytes its ops moved.
#[derive(Default)]
struct Row {
    answers: String,
    machine: String,
    host: String,
    channel_bytes: u64,
}

impl Row {
    fn op<const D: usize>(&mut self, reply: &Reply<D>, s: &OpStats, len: usize) {
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
        } = *s;
        writeln!(self.answers, "{reply:?} {batch_ops} {elements} {len}").unwrap();
        let m = (rounds, channel_bytes, pim_s, comm_s, pim_cycles, worst_imbalance);
        writeln!(self.machine, "{m:?}").unwrap();
        writeln!(self.host, "{:?}", (cpu_s, cpu_cycles, cpu_dram_bytes)).unwrap();
        self.channel_bytes += channel_bytes;
    }

    /// Every field is machine.
    fn sim(&mut self, s: &SimStats) {
        let SimStats {
            rounds: _,
            cpu_to_pim_bytes: _,
            pim_to_cpu_bytes: _,
            pim_s: _,
            comm_s: _,
            overhead_s: _,
            total_pim_cycles: _,
            sum_max_cycles: _,
            n_modules: _,
            faults: _,
            retries: _,
            retransmitted_bytes: _,
            timeout_s: _,
            salvaged_bytes: _,
        } = s;
        writeln!(self.machine, "{s:?}").unwrap();
    }

    fn digests(&self) -> [u64; 3] {
        [&self.answers, &self.machine, &self.host].map(|text| fnv1a(text.as_bytes()))
    }
}

/// Runs `ops` on `t` in order, recording each into `row`.
fn run<const D: usize>(t: &mut impl BatchIndex<D>, ops: &[Op<D>], row: &mut Row) -> Vec<Reply<D>> {
    let mut replies = Vec::new();
    for op in ops {
        let reply = match op {
            Op::Insert(points) => {
                t.batch_insert(points);
                Reply::Inserted
            }
            Op::Delete(points) => Reply::Deleted(t.batch_delete(points)),
            Op::Contains(points) => Reply::Found(t.batch_contains(points)),
            Op::Knn(queries, k, metric) => Reply::Knn(t.batch_knn(queries, *k, *metric)),
            Op::BoxCount(boxes) => Reply::Counts(t.batch_box_count(boxes)),
            Op::BoxFetch(boxes) => Reply::Fetched(t.batch_box_fetch(boxes)),
        };
        row.op(&reply, t.last_op_stats(), t.len());
        replies.push(reply);
    }
    replies
}

/// `(row, answers, machine, host)`. A digest may move only with a CHANGES.md
/// entry naming the charge or artifact that moved it, and only in the class
/// that charge belongs to; a refactor moves none.
const GOLDEN: [(&str, u64, u64, u64); 52] = [
    ("D2/thr/all", 0x0bcb9fa7a31160d3, 0x9beff298091e9fd3, 0x2502733deb417c87),
    ("D2/thr/-fast_zorder", 0x0bcb9fa7a31160d3, 0x9beff298091e9fd3, 0x3854251bc6459d92),
    ("D2/thr/-lazy_counters", 0x0bcb9fa7a31160d3, 0x9beff298091e9fd3, 0xad3b483ea725b35d),
    ("D2/thr/-coarse_fine_knn", 0x0bcb9fa7a31160d3, 0x8fd1af1a6921975f, 0x026056921b2784c0),
    ("D2/thr/-practical_chunking", 0x0bcb9fa7a31160d3, 0xc137fa32e790438b, 0x2502733deb417c87),
    ("D2/skew/all", 0x04951f76b18a10ab, 0x594cd72d1d9e1a98, 0x84783499616190c1),
    ("D2/skew/-fast_zorder", 0x04951f76b18a10ab, 0x594cd72d1d9e1a98, 0x7f76c81ae8d05018),
    ("D2/skew/-lazy_counters", 0x04951f76b18a10ab, 0x61c2474af7f0bb69, 0x72bdade9e6c59c49),
    ("D2/skew/-coarse_fine_knn", 0x04951f76b18a10ab, 0x6ceedb9cd85434e2, 0x6fa83e06f8f74d6d),
    ("D2/skew/-practical_chunking", 0x04951f76b18a10ab, 0xdbf692abd2858d57, 0x84783499616190c1),
    ("D2/shard4", 0x5f06dfc523011504, 0x1f1172f506524147, 0xd4b8715fbb30cb6a),
    ("D3/thr/all", 0xabed6ce977de32f2, 0xb7bab44a92d031c1, 0xbfa3039a0760dd23),
    ("D3/thr/-fast_zorder", 0xabed6ce977de32f2, 0xb7bab44a92d031c1, 0x16593282022154a8),
    ("D3/thr/-lazy_counters", 0xabed6ce977de32f2, 0x3615c0d1eeab4331, 0x5dbb046943ddc223),
    ("D3/thr/-coarse_fine_knn", 0xabed6ce977de32f2, 0x4e426703f7eaa606, 0x977591180e896b4b),
    ("D3/thr/-practical_chunking", 0xabed6ce977de32f2, 0xee0bbb4736921a13, 0xbfa3039a0760dd23),
    ("D3/skew/all", 0xc2393a73475de8ce, 0xba91fec99f45aa2a, 0xb710c0ccf7ec978b),
    ("D3/skew/-fast_zorder", 0xc2393a73475de8ce, 0xba91fec99f45aa2a, 0xd0848ffaed36a3fa),
    ("D3/skew/-lazy_counters", 0xc2393a73475de8ce, 0x8b3c672c9e9633f1, 0x17491fa0147be16d),
    ("D3/skew/-coarse_fine_knn", 0xc2393a73475de8ce, 0xd550317472325932, 0x87d59321c805299d),
    ("D3/skew/-practical_chunking", 0xc2393a73475de8ce, 0xc4666e666a2f8ff9, 0xb710c0ccf7ec978b),
    ("D3/shard4", 0xcc3eb5dd091ec6b3, 0xfcd48ff82e3d4e1d, 0xa1e851887fac32c0),
    ("D3/thr/faults5", 0xaf31f0fb5d852de2, 0xf682e5a2a2870f69, 0xbfa3039a0760dd23),
    ("D3/skew/faults5", 0x43e4dcd75ea7a806, 0x8d2595bb26f55d3d, 0x40e15943f7e4df2c),
    ("thr/PushOnly/clean/knn", 0x2542dbd4bcac0858, 0x99e26f3eea8994c1, 0x6f3262bf7d7fc7a4),
    ("thr/PushOnly/clean/box", 0x983450414f7a14b0, 0x2f1bf3c84c43bc1c, 0x7310c29e1e0b7954),
    ("thr/PushOnly/faulty/knn", 0x2542dbd4bcac0858, 0xdee02aa179203092, 0x6f3262bf7d7fc7a4),
    ("thr/PushOnly/faulty/box", 0xb1e990ab588a1a98, 0x2b799a5d0eebcc2b, 0x7310c29e1e0b7954),
    ("thr/PullAlways/clean/knn", 0x2542dbd4bcac0858, 0xe554e3973851f06b, 0xbd6576ba4243f5bc),
    ("thr/PullAlways/clean/box", 0xa1570bfc49231f40, 0x3ef33c56d7db023a, 0x4da949afccc8aca6),
    ("thr/PullAlways/faulty/knn", 0x2542dbd4bcac0858, 0x10b46992aaa474c4, 0xbd6576ba4243f5bc),
    ("thr/PullAlways/faulty/box", 0xa1570bfc49231f40, 0xb71a51656300a214, 0x34769083cbb26b3c),
    ("thr/Preset/clean/knn", 0x2542dbd4bcac0858, 0x99e26f3eea8994c1, 0x6f3262bf7d7fc7a4),
    ("thr/Preset/clean/box", 0x983450414f7a14b0, 0x2f1bf3c84c43bc1c, 0x7310c29e1e0b7954),
    ("thr/Preset/faulty/knn", 0x2542dbd4bcac0858, 0xdee02aa179203092, 0x6f3262bf7d7fc7a4),
    ("thr/Preset/faulty/box", 0xb1e990ab588a1a98, 0x2b799a5d0eebcc2b, 0x7310c29e1e0b7954),
    ("skew/PushOnly/clean/knn", 0x2542dbd4bcac0858, 0xf2279402275f7bf2, 0x8d14c60fba4643ef),
    ("skew/PushOnly/clean/box", 0x4aa3b5ced1539192, 0x0f91a646f09f6706, 0xfc8cd1f03773964a),
    ("skew/PushOnly/faulty/knn", 0x2542dbd4bcac0858, 0x8ee6275b8e62dffd, 0x8d14c60fba4643ef),
    ("skew/PushOnly/faulty/box", 0x599e4c2008ed1a62, 0x298e6479db9fd207, 0xfc8cd1f03773964a),
    ("skew/PullAlways/clean/knn", 0x2542dbd4bcac0858, 0xd198e1c49339c3e5, 0xfc059c371225ac96),
    ("skew/PullAlways/clean/box", 0x60c7ef42ceaf802e, 0xcd182be4058d43c5, 0x945c6f6db800a3e4),
    ("skew/PullAlways/faulty/knn", 0x2542dbd4bcac0858, 0xbf6b37ca24d14cff, 0xfc059c371225ac96),
    ("skew/PullAlways/faulty/box", 0x60c7ef42ceaf802e, 0x71a0cc58ae52b0ce, 0x0563909cbe1dee3e),
    ("skew/Preset/clean/knn", 0x2542dbd4bcac0858, 0x6e897f9af52b5858, 0x342d4d2b947de87e),
    ("skew/Preset/clean/box", 0x4aa3b5ced1539192, 0x0f91a646f09f6706, 0xfc8cd1f03773964a),
    ("skew/Preset/faulty/knn", 0x2542dbd4bcac0858, 0x3fa88e6585b4b2e0, 0x342d4d2b947de87e),
    ("skew/Preset/faulty/box", 0x599e4c2008ed1a62, 0x298e6479db9fd207, 0xfc8cd1f03773964a),
    ("zd-tree/uniform", 0x23d00abca33f3dfe, 0xc2c6e308e9cea505, 0xd2c5471b0d6082e5),
    ("zd-tree/osm", 0x9ea1f787e410289f, 0xc2c6e308e9cea505, 0x5e1534861370d0fb),
    ("Pkd-tree/uniform", 0x25e162b25ce93ac6, 0xc2c6e308e9cea505, 0x4b07346e22c5f25a),
    ("Pkd-tree/osm", 0x845beed34d1acc9b, 0xc2c6e308e9cea505, 0x6046e447647da422),
];

/// Holds `rows` to `pinned`, naming each moved row and class.
fn check(pinned: &[(&str, u64, u64, u64)], rows: &[(String, [u64; 3])]) {
    let (mut table, mut moved) = (String::new(), String::new());
    for ((name, got), &(pin, a, m, h)) in rows.iter().zip(pinned) {
        let [ga, gm, gh] = got;
        writeln!(table, "    (\"{name}\", {ga:#018x}, {gm:#018x}, {gh:#018x}),").unwrap();
        let classes = [("answers", a), ("machine", m), ("host", h)].into_iter().zip(got);
        for ((class, want), got) in classes.filter(|((_, want), got)| want != *got) {
            writeln!(moved, "  {name}: {class} {want:#018x} -> {got:#018x}").unwrap();
        }
        assert_eq!(name, pin, "a row is missing from the table or out of its order");
    }
    assert_eq!(rows.len(), pinned.len(), "computed digests:\n{table}");
    assert!(moved.is_empty(), "moved rows:\n{moved}computed digests:\n{table}");
}

/// `f` inside a 1- and a 4-thread pool, which must agree.
fn pooled<T: PartialEq + std::fmt::Debug + Send>(what: &str, f: impl Fn() -> T + Sync) -> T {
    let [one, four] = [1, 4].map(|threads| rayon::ThreadPool::new(threads).install(&f));
    assert_eq!(one, four, "{what}: 1 vs 4 threads");
    one
}

const COST_SEED: u64 = 4404;

fn preset(skew: bool) -> PimZdConfig {
    if skew {
        PimZdConfig::skew_resistant(MODULES)
    } else {
        PimZdConfig::throughput_optimized(N as u64, MODULES)
    }
}

/// A named change to a `T`.
type Setting<T> = (&'static str, fn(&mut T));

/// The Table 3 toggles: all on, and each off in turn.
const TOGGLES: [Setting<Toggles>; 5] = [
    ("all", |_| {}),
    ("-fast_zorder", |t| t.fast_zorder = false),
    ("-lazy_counters", |t| t.lazy_counters = false),
    ("-coarse_fine_knn", |t| t.coarse_fine_knn = false),
    ("-practical_chunking", |t| t.practical_chunking = false),
];

/// A cost row's built points and its schedule: an insert batch, a SEARCH
/// batch, 10-NN under ℓ1/ℓ2/ℓ∞, BoxCount and BoxFetch over one box set,
/// and a delete batch.
fn cost_schedule<const D: usize>() -> (Vec<Point<D>>, Vec<Op<D>>) {
    let built = workloads::osm_like::<D>(N, COST_SEED);
    let queries = workloads::knn_queries(&built, 40, COST_SEED + 3);
    let side = workloads::box_side_for_expected::<D>(N, 8.0);
    let boxes = workloads::box_queries(&built, 30, side, COST_SEED + 4);
    let mut ops = vec![
        Op::Insert(workloads::uniform::<D>(300, COST_SEED + 1)),
        Op::Contains(workloads::point_queries(&built, 200, 2, COST_SEED + 2)),
    ];
    ops.extend([Metric::L1, Metric::L2, Metric::Linf].map(|m| Op::Knn(queries.clone(), 10, m)));
    ops.extend([Op::BoxCount(boxes.clone()), Op::BoxFetch(boxes)]);
    ops.push(Op::Delete(built[..200].to_vec()));
    (built, ops)
}

/// The schedule on a tree built with `cfg`, under `plan`.
fn tree_row<const D: usize>(
    (built, ops): &(Vec<Point<D>>, Vec<Op<D>>),
    cfg: PimZdConfig,
    plan: Option<FaultPlan>,
) -> [u64; 3] {
    let mut t = PimZdTree::build(built, cfg, MachineConfig::with_modules(MODULES));
    let faulty = plan.is_some();
    t.set_fault_plan(plan);
    let mut row = Row::default();
    assert_eq!(run(&mut t, ops, &mut row).pop(), Some(Reply::Deleted(200)));
    assert!(!faulty || t.sim_stats().retries > 0, "the plan must be biting");
    row.sim(t.sim_stats());
    row.digests()
}

/// The schedule, then a hot-cell 10-NN storm, on a 4-rank tree whose
/// rebalancer fires.
fn shard_row<const D: usize>((built, ops): &(Vec<Point<D>>, Vec<Op<D>>)) -> [u64; 3] {
    let mut scfg = ShardConfig::new(4);
    scfg.rebalance_threshold = 1.2;
    let machine = MachineConfig::with_modules(MODULES);
    let mut t = ShardedZdTree::build(built, scfg, preset(false), machine);
    let hot = workloads::hot_cell_queries(built, 400, 0.8, 8, COST_SEED + 5);
    let mut row = Row::default();
    assert_eq!(run(&mut t, ops, &mut row).pop(), Some(Reply::Deleted(200)));
    run(&mut t, &vec![Op::Knn(hot, 10, Metric::L2); 3], &mut row);
    let (moves, splits, migrated) = t.rebalance_counters();
    assert!(moves + splits > 0, "the rebalancer must fire");
    writeln!(row.machine, "rebalance {moves} {splits} {migrated}").unwrap();
    for r in 0..t.n_ranks() {
        row.sim(t.rank(r).sim_stats());
    }
    row.digests()
}

/// Both presets at D = 2 and 3 under every [`TOGGLES`] entry, a 4-rank tree
/// at each D, and a 5 % fault plan under both presets at D = 3.
#[test]
fn every_charge_of_every_op_is_pinned() {
    fn cost_rows<const D: usize>(rows: &mut Vec<(String, [u64; 3])>) {
        let s = cost_schedule::<D>();
        for (skew, name) in [(false, "thr"), (true, "skew")] {
            for (off, toggle) in TOGGLES {
                let mut cfg = preset(skew);
                toggle(&mut cfg.toggles);
                rows.push((format!("D{D}/{name}/{off}"), tree_row(&s, cfg, None)));
            }
        }
        rows.push((format!("D{D}/shard4"), shard_row(&s)));
    }
    let mut rows = Vec::new();
    cost_rows::<2>(&mut rows);
    cost_rows::<3>(&mut rows);
    let s = cost_schedule::<3>();
    for (skew, name) in [(false, "thr"), (true, "skew")] {
        let plan = FaultPlan::new(FaultConfig::uniform(0.05, COST_SEED));
        rows.push((format!("D3/{name}/faults5"), tree_row(&s, preset(skew), Some(plan))));
    }
    check(&GOLDEN[..24], &rows);
}

const REGIME_SEED: u64 = 1616;
/// Copies of one query in a hot batch: its fragments' demand is what makes
/// the skew-resistant preset pull (on small inputs it rarely would).
const HOT: usize = 300;
const DELETED: usize = 200;

/// Push-only (no load is ever imbalanced enough), pull-always (every load
/// is, and every demanded meta is hot enough), and the preset's thresholds.
const REGIMES: [Setting<PimZdConfig>; 3] = [
    ("PushOnly", |c| c.imbalance_factor = f64::INFINITY),
    ("PullAlways", |c| (c.imbalance_factor, c.k_pull_l1, c.k_pull_l2) = (0.0, 0, 0)),
    ("Preset", |_| {}),
];

fn sorted(mut v: Vec<Point<3>>) -> Vec<Point<3>> {
    v.sort_unstable_by_key(|p| p.coords);
    v
}

/// What a read returns on `stored`, by a scan (BoxFetch rows sorted).
fn brute_force(stored: &[Point<3>], op: &Op<3>) -> Reply<3> {
    let inside = |b: &Aabb<3>| -> Vec<Point<3>> {
        stored.iter().filter(|p| b.contains(p)).copied().collect()
    };
    match op {
        Op::Knn(qs, k, m) => {
            Reply::Knn(qs.iter().map(|q| knn_distinct(stored, q, *k, *m)).collect())
        }
        Op::BoxCount(bs) => Reply::Counts(bs.iter().map(|b| inside(b).len() as u64).collect()),
        Op::BoxFetch(bs) => Reply::Fetched(bs.iter().map(|b| sorted(inside(b))).collect()),
        _ => unreachable!("the regime halves only read"),
    }
}

/// The regime rows' tree history, and their kNN and box half, each as ops
/// with the replies a scan gives.
struct Regimes {
    built: Vec<Point<3>>,
    inserted: Vec<Point<3>>,
    halves: [(Vec<Op<3>>, Vec<Reply<3>>); 2],
}

impl Regimes {
    fn new() -> Self {
        let built = workloads::osm_like::<3>(N, REGIME_SEED);
        let inserted = workloads::uniform::<3>(300, REGIME_SEED + 1);
        let stored: Vec<Point<3>> = built[DELETED..].iter().chain(&inserted).copied().collect();
        let queries = workloads::knn_queries(&stored, 24, REGIME_SEED + 2);
        let mut knn = Vec::new();
        for metric in [Metric::L1, Metric::L2, Metric::Linf] {
            // Each `k > n` answer is the whole dataset: one query will do.
            for (k, nq) in [(0, 24), (1, 24), (7, 24), (N + 500, 1)] {
                knn.push(Op::Knn(queries[..nq].to_vec(), k, metric));
            }
        }
        knn.push(Op::Knn(vec![queries[0]; HOT], 7, Metric::L2));
        let side = workloads::box_side_for_expected::<3>(N, 4.0);
        let mut generated = workloads::box_queries(&stored, 30, side, REGIME_SEED + 3);
        let absent = Point::new([3, 1, 4]);
        assert!(!stored.contains(&absent));
        let (stored5, universe) = (Aabb::new(stored[5], stored[5]), Aabb::universe());
        generated.extend([universe, stored5, Aabb::new(absent, absent)]);
        let boxes = [vec![generated[0]; HOT], generated]
            .into_iter()
            .flat_map(|bs| [Op::BoxCount(bs.clone()), Op::BoxFetch(bs)])
            .collect();
        let halves = [knn, boxes].map(|ops| {
            let want = ops.iter().map(|op| brute_force(&stored, op)).collect();
            (ops, want)
        });
        Regimes { built, inserted, halves }
    }

    /// A tree with the insert and the delete batch behind it.
    fn tree(&self, cfg: PimZdConfig) -> PimZdTree<3> {
        let mut t = PimZdTree::build(&self.built, cfg, MachineConfig::with_modules(MODULES));
        t.batch_insert(&self.inserted);
        assert_eq!(t.batch_delete(&self.built[..DELETED]), DELETED);
        t
    }
}

/// One half of a cell, journaled, on a tree of its own: fault fates are a
/// pure function of the round id, so on one tree the box half would be
/// dealt other faults whenever kNN's round count moved. Returns the
/// digests and the channel bytes.
fn regime_half(s: &Regimes, cfg: PimZdConfig, faulty: bool, boxes: bool) -> ([u64; 3], u64) {
    let tag = format!("{cfg:?} faulty={faulty} boxes={boxes}");
    let mut t = s.tree(cfg);
    let journal = Journal::new();
    t.set_journal(Some(journal.clone()));
    if faulty {
        t.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.05, REGIME_SEED))));
    }
    if faulty && boxes {
        // On top of whatever the plan kills: the boxes run across a recovery.
        t.kill_module(5);
    }
    let (ops, want) = &s.halves[usize::from(boxes)];
    let mut row = Row::default();
    for (i, (got, want)) in run(&mut t, ops, &mut row).into_iter().zip(want).enumerate() {
        let got = match got {
            Reply::Fetched(rows) => Reply::Fetched(rows.into_iter().map(sorted).collect()),
            got => got,
        };
        assert_eq!(&got, want, "{tag}: op #{i}");
    }
    if faulty {
        assert!(t.sim_stats().retries > 0, "{tag}: the plan must be biting");
        assert!(!boxes || t.n_live_modules() < MODULES, "{tag}: the kill went unseen");
    } else if !boxes {
        // The hot batch runs last, and its copies share one covering ball:
        // its last round, the end of its ball phase, is one run's tasks.
        let ball = journal.snapshot().pop().expect("the batch ran rounds");
        assert!((ball.tasks as usize) < HOT, "{tag}: {} ball tasks", ball.tasks);
    }
    row.sim(t.sim_stats());
    row.machine.push_str(&journal.to_jsonl());
    (row.digests(), row.channel_bytes)
}

/// Each of [`REGIMES`] under both presets, without and with a 5 % fault
/// plan (and a scripted kill in the box half), at 1 and 4 threads, on a tree
/// with an insert and a delete batch behind it. The kNN half runs ℓ1/ℓ2/ℓ∞
/// with `k` ∈ {0, 1, 7, > n}, the box half BoxCount and BoxFetch over
/// generated, universe and zero-volume boxes; each ends on a hot batch.
#[test]
fn every_regime_answers_exactly_and_moves_no_byte() {
    let s = Regimes::new();
    let mut rows = Vec::new();
    for (skew, preset_name) in [(false, "thr"), (true, "skew")] {
        let mut bytes = Vec::new();
        for (regime, set) in REGIMES {
            let mut cfg = preset(skew);
            set(&mut cfg);
            for (faulty, plan) in [(false, "clean"), (true, "faulty")] {
                let name = format!("{preset_name}/{regime}/{plan}");
                let one = pooled(&name, || {
                    [false, true].map(|boxes| regime_half(&s, cfg, faulty, boxes))
                });
                if !faulty {
                    bytes.push(one[0].1 + one[1].1);
                }
                rows.push((format!("{name}/knn"), one[0].0));
                rows.push((format!("{name}/box"), one[1].0));
            }
        }
        // The regimes are different executions of the same answers —
        // except that `throughput_optimized` disables pulls by construction.
        let [push, pull, preset] = bytes[..] else { unreachable!() };
        assert_ne!(push, pull, "skew={skew}: pull-always never pulled");
        assert_ne!(pull, preset, "skew={skew}: the preset must also push");
        assert_eq!(push != preset, skew, "skew={skew}: the hot batches make the preset pull");
    }
    check(&GOLDEN[24..48], &rows);
}

const POINTS: usize = 20_000;
const BATCH: usize = 2_000;
const BASE_SEED: u64 = 2026;

/// The Fig. 5 battery, a delete of stored points from both ends of the
/// tree's history and of absent ones, and a membership batch, in that order
/// (the LLC model is stateful).
fn baseline_schedule(warm: &[Point<3>], test: &[Point<3>]) -> Vec<Op<3>> {
    let mut ops: Vec<Op<3>> = OpKind::fig5_battery()
        .into_iter()
        .map(|op| match (op, make_queries(op, test, POINTS, BATCH, BASE_SEED ^ 0xF15)) {
            (_, Queries::Points(points)) => Op::Insert(points),
            (OpKind::BoxCount(_), Queries::Boxes(boxes)) => Op::BoxCount(boxes),
            (_, Queries::Boxes(boxes)) => Op::BoxFetch(boxes),
            (_, Queries::Knn(queries, k)) => Op::Knn(queries, k, Metric::L2),
        })
        .collect();
    let Op::Insert(inserted) = &ops[0] else { unreachable!("the battery inserts first") };
    let victims = [&inserted[..BATCH / 2], &warm[..BATCH / 2], &test[..BATCH / 4]].concat();
    let probes = [&inserted[BATCH / 4..BATCH], &warm[..BATCH]].concat();
    ops.extend([Op::Delete(victims), Op::Contains(probes)]);
    ops
}

/// Both Fig. 5 denominators, the zd-tree and the Pkd-tree, on uniform and
/// OSM-like data, at 1 and 4 threads: their metered paths are sequential by
/// design, and the pool their bulk build forks in must not show.
#[test]
fn baseline_costs_and_results_are_pinned() {
    let mut rows = Vec::new();
    for tree in ["zd-tree", "Pkd-tree"] {
        for (dataset, data) in [(Dataset::Uniform, "uniform"), (Dataset::Osm, "osm")] {
            let (warm, test) = dataset.warmup_and_test(POINTS, BASE_SEED);
            let ops = baseline_schedule(&warm, &test);
            let name = format!("{tree}/{data}");
            let digests = pooled(&name, || {
                let mut row = Row::default();
                match tree {
                    "zd-tree" => run(&mut CpuRunner::zd(&warm), &ops, &mut row),
                    _ => run(&mut CpuRunner::pkd(&warm), &ops, &mut row),
                };
                row.digests()
            });
            rows.push((name, digests));
        }
    }
    check(&GOLDEN[48..], &rows);
}

/// §6's two-stage execution off: the modules evaluate ℓ2 themselves.
#[test]
fn knn_without_the_coarse_stage_is_still_exact() {
    let s = Regimes::new();
    let mut cfg = preset(false);
    cfg.toggles.coarse_fine_knn = false;
    let (ops, want) = &s.halves[0];
    let Op::Knn(queries, 7, Metric::L2) = &ops[6] else { unreachable!("op 6 is ℓ2 7-NN") };
    assert_eq!(Reply::Knn(s.tree(cfg).batch_knn(queries, 7, Metric::L2)), want[6]);
}
