//! kNN and box queries under every pull regime.
//!
//! The push-pull traversal decides per round whether a fragment is *pulled*
//! to the host or its tasks are *pushed* to the modules (PAPER.md §3.3). The
//! presets leave that to `k_pull_l1` / `k_pull_l2` / `imbalance_factor`, and
//! on small inputs they rarely pull, so the pull half of the traversal would
//! otherwise run only by accident. Every cell here is one of
//!
//! * {push-only, pull-always, preset} × {`throughput_optimized`,
//!   `skew_resistant`} × {no faults, a 5 % fault plan and a scripted kill},
//!   at 1 and 4 threads,
//!
//! and runs the same schedule on a tree with an insert and a delete batch
//! behind it: kNN under ℓ1/ℓ2/ℓ∞ with `k` ∈ {0, 1, 7, > n}, BoxCount and
//! BoxFetch over generated, universe and zero-volume boxes, and one hot
//! batch of each family that makes `skew_resistant` pull. (An empty tree
//! seeds no traversal, whatever the regime: `tests/empty_tree.rs` has it.)
//!
//! * **Conformance** — every answer equals a brute-force scan, hence the
//!   regimes, presets, fault plans and thread counts all agree.
//! * **Golden** — two FNV-1a digests per cell, one over the kNN half of the
//!   schedule and one over the box half, each over the `OpStats` and raw
//!   result of every op (BoxFetch in the order returned) and the journal
//!   JSONL of a tree that ran only that half. A digest may only move together
//!   with a CHANGES.md entry saying which artifact moved and why; a refactor
//!   of the traversal moves none, and a change to kNN moves no box half.

mod common;

use common::knn_distinct;
use pim_zd_tree_repro::sim::trace::Journal;
use pim_zd_tree_repro::sim::wire::fnv1a;
use pim_zd_tree_repro::{
    workloads, Aabb, FaultConfig, FaultPlan, MachineConfig, Metric, PimZdConfig, PimZdTree, Point,
};
use std::fmt::Write;

const N: usize = 3_000;
const MODULES: usize = 16;
const SEED: u64 = 1616;
/// Copies of one query in a hot batch: its fragments' demand is what makes
/// the skew-resistant preset pull.
const HOT: usize = 300;

#[derive(Clone, Copy, Debug)]
enum Regime {
    PushOnly,
    PullAlways,
    Preset,
}

fn config(skew: bool, regime: Regime) -> PimZdConfig {
    let mut cfg = if skew {
        PimZdConfig::skew_resistant(MODULES)
    } else {
        PimZdConfig::throughput_optimized(N as u64, MODULES)
    };
    match regime {
        // No load is ever imbalanced enough.
        Regime::PushOnly => cfg.imbalance_factor = f64::INFINITY,
        // Every load is, and every demanded meta is hot enough.
        Regime::PullAlways => {
            cfg.imbalance_factor = 0.0;
            cfg.k_pull_l1 = 0;
            cfg.k_pull_l2 = 0;
        }
        Regime::Preset => {}
    }
    cfg
}

type Neighbors = Vec<(u64, Point<3>)>;

fn sorted(mut v: Vec<Point<3>>) -> Vec<Point<3>> {
    v.sort_unstable_by_key(|p| p.coords);
    v
}

/// The fixed inputs and their brute-force answers, shared by every cell.
struct Schedule {
    built: Vec<Point<3>>,
    inserted: Vec<Point<3>>,
    deleted: usize,
    /// `(queries, k, metric, answers)`.
    knn: Vec<(Vec<Point<3>>, usize, Metric, Vec<Neighbors>)>,
    /// `(boxes, sorted contents)`.
    boxes: Vec<(Vec<Aabb<3>>, Vec<Vec<Point<3>>>)>,
}

impl Schedule {
    fn new() -> Self {
        let built = workloads::osm_like::<3>(N, SEED);
        let inserted = workloads::uniform::<3>(300, SEED + 1);
        let deleted = 200;
        let stored: Vec<Point<3>> = built[deleted..].iter().chain(&inserted).copied().collect();

        let queries = workloads::knn_queries(&stored, 24, SEED + 2);
        let mut knn = Vec::new();
        for metric in [Metric::L1, Metric::L2, Metric::Linf] {
            // Each `k > n` answer is the whole dataset: one query will do.
            for (k, nq) in [(0, 24), (1, 24), (7, 24), (N + 500, 1)] {
                knn.push((queries[..nq].to_vec(), k, metric));
            }
        }
        knn.push((vec![queries[0]; HOT], 7, Metric::L2));
        let knn = knn
            .into_iter()
            .map(|(qs, k, metric)| {
                let want = qs.iter().map(|q| knn_distinct(&stored, q, k, metric)).collect();
                (qs, k, metric, want)
            })
            .collect();

        let side = workloads::box_side_for_expected::<3>(N, 4.0);
        let mut generated = workloads::box_queries(&stored, 30, side, SEED + 3);
        let absent = Point::new([3, 1, 4]);
        assert!(!stored.contains(&absent));
        generated.extend([
            Aabb::universe(),
            Aabb::new(stored[5], stored[5]),
            Aabb::new(absent, absent),
        ]);
        let boxes = [vec![generated[0]; HOT], generated]
            .into_iter()
            .map(|bs| {
                let inside =
                    |b: &Aabb<3>| stored.iter().filter(|p| b.contains(p)).copied().collect();
                let want = bs.iter().map(|b| sorted(inside(b))).collect();
                (bs, want)
            })
            .collect();
        Schedule { built, inserted, deleted, knn, boxes }
    }
}

/// A tree with the schedule's insert and delete batch behind it, journaled,
/// under the 5 % fault plan when `faulty`.
fn fresh_tree(
    s: &Schedule,
    skew: bool,
    regime: Regime,
    faulty: bool,
) -> (PimZdTree<3>, pim_zd_tree_repro::sim::trace::Journal) {
    let machine = MachineConfig::with_modules(MODULES);
    let mut t = PimZdTree::build(&s.built, config(skew, regime), machine);
    t.batch_insert(&s.inserted);
    assert_eq!(t.batch_delete(&s.built[..s.deleted]), s.deleted);
    let journal = Journal::new();
    t.set_journal(Some(journal.clone()));
    if faulty {
        t.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.05, SEED))));
    }
    (t, journal)
}

/// One half of a cell's artifacts: the `OpStats` and raw result of every op,
/// then the journal.
#[derive(Default)]
struct Artifacts {
    text: String,
    channel_bytes: u64,
}

impl Artifacts {
    fn record(&mut self, t: &PimZdTree<3>, result: &dyn std::fmt::Debug) {
        // `{:?}` of an f64 round-trips, so equal text means equal bits.
        writeln!(self.text, "{:?} {result:?}", t.last_op_stats()).unwrap();
        self.channel_bytes += t.last_op_stats().channel_bytes;
    }

    fn digest(mut self, journal: &pim_zd_tree_repro::sim::trace::Journal) -> (u64, u64) {
        self.text.push_str(&journal.to_jsonl());
        (fnv1a(self.text.as_bytes()), self.channel_bytes)
    }
}

/// Runs the kNN half of the schedule on a fresh tree, holding every answer
/// to `s`. Returns its digest and the channel bytes its queries moved.
fn run_knn(s: &Schedule, skew: bool, regime: Regime, faulty: bool) -> (u64, u64) {
    let tag = format!("skew={skew} {regime:?} faulty={faulty}");
    let (mut t, journal) = fresh_tree(s, skew, regime, faulty);
    let mut out = Artifacts::default();
    for (queries, k, metric, want) in &s.knn {
        let got = t.batch_knn(queries, *k, *metric);
        assert_eq!(&got, want, "{tag}: {metric:?} k={k}");
        out.record(&t, &got);
        if queries.len() == HOT && !faulty {
            // The copies share one covering ball: the batch's last round,
            // the end of its ball phase, is one run's worth of tasks.
            let ball = journal.snapshot().pop().expect("the batch ran rounds");
            assert!((ball.tasks as usize) < HOT, "{tag}: {} ball tasks", ball.tasks);
        }
    }
    if faulty {
        assert!(t.sim_stats().retries > 0, "{tag}: the plan must be biting kNN");
    }
    out.digest(&journal)
}

/// Runs the box half of the schedule on a fresh tree of its own — fault
/// fates are a pure function of the machine's round id, so on one tree the
/// box half would be dealt different faults whenever kNN's round count
/// moved. Returns its digest and the channel bytes its queries moved.
fn run_boxes(s: &Schedule, skew: bool, regime: Regime, faulty: bool) -> (u64, u64) {
    let tag = format!("skew={skew} {regime:?} faulty={faulty}");
    let (mut t, journal) = fresh_tree(s, skew, regime, faulty);
    let mut out = Artifacts::default();
    if faulty {
        // On top of whatever the plan kills: the box queries run across a
        // recovery for certain.
        t.kill_module(5);
    }
    for (boxes, want) in &s.boxes {
        let counts = t.batch_box_count(boxes);
        let lens: Vec<u64> = want.iter().map(|w| w.len() as u64).collect();
        assert_eq!(counts, lens, "{tag}: box counts");
        out.record(&t, &counts);

        let fetched = t.batch_box_fetch(boxes);
        out.record(&t, &fetched);
        for (i, (got, want)) in fetched.into_iter().zip(want).enumerate() {
            assert_eq!(&sorted(got), want, "{tag}: contents of box #{i}");
        }
    }
    if faulty {
        assert!(t.sim_stats().retries > 0, "{tag}: the plan must be biting the boxes");
        assert!(t.n_live_modules() < MODULES, "{tag}: the kill must have been detected");
    }
    out.digest(&journal)
}

/// `(cell, kNN digest, box digest)`, each half on a tree of its own. All 24
/// were re-recorded when the apply round began to carry the structure
/// copies back: the insert and the delete batch behind every cell's tree
/// take fewer rounds and send other copies, so every later round id, fault
/// draw and cache-assisted step moved and no answer did (CHANGES.md has the
/// entry). Every kNN half and four skew box halves moved again when SEARCH
/// began to walk its batch in key order: its walks read fewer nodes, and
/// those box halves start from the host cache state that the insert and
/// delete batch behind them leave; no answer, channel byte or round moved.
/// The six cells that pull (pull-always, and the skew preset's hot batches)
/// moved when the host began to keep what it pulled until a round could
/// write a master: a query batch that follows another reuses its pulls, so
/// it sends fewer rounds and bytes and reads the kept copies where they
/// landed; no answer moved. Every digest moved when masters began to go to
/// the least-loaded of four hashed modules: each round's tasks land on
/// other modules, with other cycles, and the skew preset's box batches no
/// longer cross the pull trigger (its busiest module stays under 3× the
/// mean), so its box halves equal push-only's; no answer moved. See the
/// module docs for when a digest may change.
const GOLDEN: [(&str, u64, u64); 12] = [
    ("throughput/PushOnly/clean", 0xb86331b171bef90c, 0x088ebd642d831c8f),
    ("throughput/PushOnly/faulty", 0x0142bd024eb1b120, 0x2acdde8e27509055),
    ("throughput/PullAlways/clean", 0xfa03c1cfb45225e0, 0x9c8bda301742c936),
    ("throughput/PullAlways/faulty", 0x46a5024c15a447b5, 0x6fe51fa0d87bc694),
    ("throughput/Preset/clean", 0xb86331b171bef90c, 0x088ebd642d831c8f),
    ("throughput/Preset/faulty", 0x0142bd024eb1b120, 0x2acdde8e27509055),
    ("skew/PushOnly/clean", 0x5ccb260c6af2f31b, 0x83333f373d2c2396),
    ("skew/PushOnly/faulty", 0x5024084319eb1849, 0x79c48bd12e4137ec),
    ("skew/PullAlways/clean", 0x211b6ab32a84bd1f, 0x5909fda622f6a3b3),
    ("skew/PullAlways/faulty", 0x07313e92be11d006, 0x81cb0b39f870d408),
    ("skew/Preset/clean", 0x0865c6a5997053d5, 0x83333f373d2c2396),
    ("skew/Preset/faulty", 0x9eb2b9a8d0a4c4f8, 0x79c48bd12e4137ec),
];

#[test]
fn every_regime_answers_exactly_and_moves_no_byte() {
    let s = Schedule::new();
    let mut computed = Vec::new();
    for (skew, preset) in [(false, "throughput"), (true, "skew")] {
        let mut bytes = Vec::new();
        for regime in [Regime::PushOnly, Regime::PullAlways, Regime::Preset] {
            for (faulty, plan) in [(false, "clean"), (true, "faulty")] {
                let name = format!("{preset}/{regime:?}/{plan}");
                let [one, four] = [1, 4].map(|threads| {
                    rayon::ThreadPool::new(threads).install(|| {
                        let (knn, knn_bytes) = run_knn(&s, skew, regime, faulty);
                        let (boxes, box_bytes) = run_boxes(&s, skew, regime, faulty);
                        (knn, boxes, knn_bytes + box_bytes)
                    })
                });
                assert_eq!(one, four, "{name}: 1 vs 4 threads");
                if !faulty {
                    bytes.push(one.2);
                }
                computed.push((name, one.0, one.1));
            }
        }
        // The regimes are different executions of the same answers —
        // except that `throughput_optimized` disables pulls by construction.
        let [push, pull, preset] = bytes[..] else { unreachable!() };
        assert_ne!(push, pull, "skew={skew}: pull-always never pulled");
        assert_ne!(pull, preset, "skew={skew}: the preset must also push");
        assert_eq!(push != preset, skew, "skew={skew}: the hot batches make the preset pull");
    }
    let table: String = computed
        .iter()
        .map(|(name, knn, boxes)| format!("    (\"{name}\", {knn:#018x}, {boxes:#018x}),\n"))
        .collect();
    for ((name, knn, boxes), (want_name, want_knn, want_boxes)) in computed.iter().zip(GOLDEN) {
        assert_eq!(name, want_name);
        assert_eq!(*knn, want_knn, "{name}: kNN half moved; computed digests:\n{table}");
        assert_eq!(*boxes, want_boxes, "{name}: box half moved; computed digests:\n{table}");
    }
}

/// §6's two-stage execution off: the modules evaluate ℓ2 themselves.
#[test]
fn knn_without_the_coarse_stage_is_still_exact() {
    let s = Schedule::new();
    let mut cfg = config(false, Regime::Preset);
    cfg.toggles.coarse_fine_knn = false;
    let mut t = PimZdTree::build(&s.built, cfg, MachineConfig::with_modules(MODULES));
    t.batch_insert(&s.inserted);
    t.batch_delete(&s.built[..s.deleted]);
    let (queries, k, metric, want) = &s.knn[6];
    assert_eq!((*k, *metric), (7, Metric::L2));
    assert_eq!(&t.batch_knn(queries, *k, *metric), want);
}

/// `k` is caller input: the largest one asks for everything, on every index
/// behind the batch API.
#[test]
fn knn_with_the_largest_k_returns_every_stored_point() {
    use pim_zd_tree_repro::memsim::{CpuConfig, CpuMeter};
    use pim_zd_tree_repro::{pkdtree::PkdTree, zdtree::ZdTree, ShardConfig, ShardedZdTree};

    let data = workloads::osm_like::<3>(500, SEED);
    let q = [data[7], Point::new([9, 9, 9])];
    let want: Vec<_> = q.iter().map(|q| knn_distinct(&data, q, usize::MAX, Metric::L2)).collect();
    assert_eq!(want[0].len(), data.len());

    let cfg = config(true, Regime::Preset);
    let machine = MachineConfig::with_modules(MODULES);
    let mut single = PimZdTree::build(&data, cfg, machine);
    assert_eq!(single.batch_knn(&q, usize::MAX, Metric::L2), want);
    // The sharded `elements` stat is `queries × k`: half the range overflows
    // it as surely as all of it.
    let mut sharded = ShardedZdTree::build(&data, ShardConfig::new(2), cfg, machine);
    for k in [usize::MAX / 2, usize::MAX] {
        assert_eq!(sharded.batch_knn(&q, k, Metric::L2), want, "k={k}");
    }
    let mut meter = CpuMeter::new(CpuConfig::xeon());
    let zd = ZdTree::build(&data, cfg.leaf_cap);
    assert_eq!(zd.batch_knn(&q, usize::MAX, Metric::L2, &mut meter), want);
    let pkd = PkdTree::build(&data, cfg.leaf_cap);
    assert_eq!(pkd.batch_knn(&q, usize::MAX, Metric::L2, &mut meter), want);
}
