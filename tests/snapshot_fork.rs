//! `PimZdTree::snapshot()` forks the tree by sharing its structure; before
//! that it serialized a checkpoint image and restored it. This file holds
//! the fork to the restore, which stays the specification:
//!
//! * **fork ≡ `restore_bytes(checkpoint_bytes())`** — the same read schedule
//!   on both gives equal results, bit-equal `OpStats`, equal round ids, and
//!   byte-equal checkpoint images before and after, for D ∈ {2, 3} and both
//!   presets, on a plain tree, on one that lost a module, and on one with a
//!   fault plan, a journal sink and a metrics registry attached — none of
//!   which the fork may carry over or feed.
//! * **isolation** — write batches on the live tree never show in the fork.
//!
//! (That a write batch un-shares only the fragments it touches needs the
//! module stores and is pinned next to them, in `core/src/snapshot.rs`.)

use pim_zd_tree_repro::index::{BatchRead, OpStats, TreeSnapshot};
use pim_zd_tree_repro::sim::trace::Journal;
use pim_zd_tree_repro::sim::{FaultKind, Metrics};
use pim_zd_tree_repro::{
    workloads, Aabb, FaultConfig, FaultPlan, MachineConfig, Metric, PimZdConfig, PimZdTree, Point,
};

const N: usize = 6_000;
const MODULES: usize = 16;
const SEED: u64 = 1414;

#[derive(Clone, Copy, Debug)]
enum Preset {
    Throughput,
    Skew,
}

#[derive(Clone, Copy, Debug)]
enum Variant {
    Plain,
    /// One module fail-stopped and was recovered from before the fork.
    Killed,
    /// A fault plan, a journal sink and a metrics registry are attached to
    /// the live tree when it is forked.
    Observed,
}

/// A tree with some history: built, one insert and one delete batch, and a
/// probe batch hot enough to pull fragments to the host, so epochs, free
/// arena slots, lazy counters, the staging cursor and the round history are
/// all non-trivial when the fork is taken.
fn live_tree<const D: usize>(preset: Preset) -> (Vec<Point<D>>, PimZdTree<D>) {
    let data = workloads::uniform::<D>(N, SEED);
    let cfg = match preset {
        Preset::Throughput => PimZdConfig::throughput_optimized(N as u64, MODULES),
        Preset::Skew => PimZdConfig::skew_resistant(MODULES),
    };
    let mut t = PimZdTree::build(&data, cfg, MachineConfig::with_modules(MODULES));
    t.batch_insert(&workloads::uniform::<D>(400, SEED + 1));
    t.batch_delete(&data[..300]);
    t.batch_contains(&[data[777]; 2_000]);
    (data, t)
}

/// Everything one read returns, in comparable form.
#[derive(Debug, PartialEq)]
enum Answer<const D: usize> {
    Contains(Vec<bool>),
    Knn(Vec<Vec<(u64, Point<D>)>>),
    BoxCount(Vec<u64>),
    BoxFetch(Vec<Vec<Point<D>>>),
}

/// Steps of the read schedule.
const STEPS: usize = 6;

/// The read schedule: every read family, two of them twice (a later run
/// hits a warmer LLC model, so it also compares the cache state the earlier
/// ones left), one batch skewed enough to take the pull path.
struct Schedule<const D: usize> {
    probes: Vec<Point<D>>,
    queries: Vec<Point<D>>,
    boxes: Vec<Aabb<D>>,
}

impl<const D: usize> Schedule<D> {
    fn new(data: &[Point<D>]) -> Self {
        let side = workloads::box_side_for_expected::<D>(N, 20.0);
        Self {
            probes: data.iter().step_by(11).copied().collect(),
            queries: workloads::knn_queries(data, 60, SEED + 2),
            boxes: workloads::box_queries(data, 50, side, SEED + 3),
        }
    }

    fn run(&self, step: usize, s: &mut TreeSnapshot<D>) -> Answer<D> {
        match step {
            0 => Answer::Contains(s.batch_contains(&self.probes)),
            4 => Answer::Contains(s.batch_contains(&[self.probes[5]; 2_000])),
            1 => Answer::Knn(s.batch_knn(&self.queries, 5, Metric::L2)),
            2 => Answer::BoxCount(s.batch_box_count(&self.boxes)),
            3 => Answer::BoxFetch(s.batch_box_fetch(&self.boxes)),
            _ => Answer::Knn(s.batch_knn(&self.queries[..20], 3, Metric::L1)),
        }
    }
}

/// `OpStats` with its floats as bit patterns: equal means identical, not
/// close.
fn bits(s: &OpStats) -> [u64; 11] {
    [
        s.breakdown.cpu_s.to_bits(),
        s.breakdown.pim_s.to_bits(),
        s.breakdown.comm_s.to_bits(),
        s.worst_imbalance.to_bits(),
        s.rounds,
        s.channel_bytes,
        s.cpu_dram_bytes,
        s.batch_ops,
        s.elements,
        s.cpu_cycles,
        s.pim_cycles,
    ]
}

fn fork_matches_restore<const D: usize>(preset: Preset, variant: Variant) {
    let tag = format!("D={D} {preset:?} {variant:?}");
    let (data, mut live) = live_tree::<D>(preset);
    let schedule = Schedule::new(&data);

    let journal = Journal::new();
    let metrics = Metrics::enabled_new();
    match variant {
        Variant::Plain => {}
        Variant::Killed => {
            live.kill_module(3);
            // Detection and recovery run with the next round.
            live.batch_contains(&schedule.probes);
            assert_eq!(live.n_live_modules(), MODULES - 1, "{tag}");
            assert!(
                live.sim_stats().faults_of(FaultKind::Salvage) > 0,
                "{tag}: recovery must have run"
            );
        }
        Variant::Observed => {
            // A third of all deliveries fail transiently: a fork that kept
            // the plan could not match a plan-less restore for even a round.
            live.set_fault_plan(Some(FaultPlan::new(FaultConfig {
                p_death: 0.0,
                ..FaultConfig::uniform(0.3, SEED)
            })));
            live.set_journal(Some(journal.clone()));
            live.set_metrics(metrics.clone());
            live.batch_knn(&schedule.queries, 4, Metric::L2);
            assert!(live.sim_stats().retries > 0, "{tag}: the plan must be biting");
        }
    }
    let journal_len = journal.snapshot().len();
    let metrics_text = metrics.snapshot_text();

    let image = live.checkpoint_bytes();
    let mut fork = live.snapshot();
    let mut restored = TreeSnapshot::<D>::from_image(&image).expect("own image restores");
    assert_eq!(fork.checkpoint_bytes(), image, "{tag}: a fork is the tree its image describes");
    assert_eq!((fork.epoch(), fork.len()), (live.epoch(), live.len()), "{tag}");

    for step in 0..STEPS {
        let (a, b) = (schedule.run(step, &mut fork), schedule.run(step, &mut restored));
        assert_eq!(a, b, "{tag}: results of step {step}");
        assert_eq!(
            bits(fork.last_op_stats()),
            bits(restored.last_op_stats()),
            "{tag}: OpStats of step {step}"
        );
        assert_eq!(fork.next_round_id(), restored.next_round_id(), "{tag}: step {step}");
    }
    assert_eq!(
        fork.checkpoint_bytes(),
        restored.checkpoint_bytes(),
        "{tag}: machine, meter and structure state after the schedule"
    );

    // The fork ran on its own detached machine: nothing it did reached the
    // live tree's journal or registry, and the live tree is where it was.
    assert_eq!(journal.snapshot().len(), journal_len, "{tag}: fork rounds were journaled");
    assert_eq!(metrics.snapshot_text(), metrics_text, "{tag}: fork rounds were published");
    assert_eq!(live.checkpoint_bytes(), image, "{tag}: reading a fork changed the live tree");
}

#[test]
fn fork_matches_restore_d3() {
    for preset in [Preset::Throughput, Preset::Skew] {
        for variant in [Variant::Plain, Variant::Killed, Variant::Observed] {
            fork_matches_restore::<3>(preset, variant);
        }
    }
}

#[test]
fn fork_matches_restore_d2() {
    for preset in [Preset::Throughput, Preset::Skew] {
        for variant in [Variant::Plain, Variant::Killed, Variant::Observed] {
            fork_matches_restore::<2>(preset, variant);
        }
    }
}

#[test]
fn a_fork_never_sees_later_writes_and_the_live_tree_sees_them_all() {
    for preset in [Preset::Throughput, Preset::Skew] {
        let (data, mut live) = live_tree::<3>(preset);
        let schedule = Schedule::new(&data);
        let mut reference = TreeSnapshot::<3>::from_image(&live.checkpoint_bytes()).unwrap();
        let mut fork = live.snapshot();

        let fresh: Vec<Point<3>> =
            (0..200u32).map(|i| Point::new([900_000 + i, 900_000, 900_000 + 3 * i])).collect();
        live.batch_insert(&fresh);
        let gone = &data[1_000..1_200];
        assert_eq!(live.batch_delete(gone), gone.len(), "{preset:?}");

        assert_eq!(fork.epoch() + 2, live.epoch(), "{preset:?}");
        assert!(fork.batch_contains(&fresh).iter().all(|&b| !b), "{preset:?}: insert leaked");
        assert!(fork.batch_contains(gone).iter().all(|&b| b), "{preset:?}: delete leaked");
        assert!(live.batch_contains(&fresh).iter().all(|&b| b), "{preset:?}");
        assert!(live.batch_contains(gone).iter().all(|&b| !b), "{preset:?}");
        // Beyond those probes the fork still answers exactly as the
        // pre-write tree: same schedule, same answers as a restore of the
        // image taken before the writes (which ran the same two probes).
        reference.batch_contains(&fresh);
        reference.batch_contains(gone);
        for step in 0..STEPS {
            assert_eq!(
                schedule.run(step, &mut fork),
                schedule.run(step, &mut reference),
                "{preset:?}: step {step} after the live tree moved on"
            );
            assert_eq!(bits(fork.last_op_stats()), bits(reference.last_op_stats()), "{preset:?}");
        }
        assert_eq!(fork.checkpoint_bytes(), reference.checkpoint_bytes(), "{preset:?}");
    }
}
