//! `shard_skew`: the scale-out router under skewed queries and churn.
//!
//! `ShardedZdTree` with `ShardConfig::new(4)` (auto-rebalance on), 64
//! modules per rank, 400 k uniform points. A rep runs `batch_knn` (k = 10)
//! on 20 k queries of which half follow a Varden random walk, then inserts
//! and deletes 5 k points of the same mix; without the delete the Varden
//! filament grows and rep time drifts, hence the churn shape. Five distinct
//! reps make a cycle. The sharded tree has no image, so a fresh index is a
//! rebuild, followed by one untimed warm-up rep: the rebalancer reacts to the
//! first skewed batch it sees with a burst of splits and migrations, a
//! one-off that a timed rep would otherwise carry.

use super::{
    call, knn_distances, mismatches, Call, Digest, Layer, Rep, Scale, Verdict, Workload, D, P,
};
use crate::layers;
use crate::recorder::Recorder;
use crate::stats::median;
use pim_geom::Metric;
use pim_memsim::CpuMeter;
use pim_sim::{MachineConfig, Metrics};
use pim_workloads as wl;
use pim_zd_tree::{PimZdConfig, ShardConfig, ShardedZdTree};
use pim_zdtree_base::ZdTree;

const POINTS: usize = 400_000;
const VARDEN_POINTS: usize = 100_000;
/// The stored points and the Varden walk are one fixed scene, not a draw per
/// seed; the seed draws the query and write batches from them. Where the
/// filament falls relative to the placement cells (fixed by
/// `ShardConfig::new`) and to the module boundaries inside a rank decides
/// fan-out, the rebalancer's actions and the load of the hottest module:
/// with everything drawn per seed, simulated throughput ranged threefold
/// over ten seeds (119 %..64 % quartile spread), with only the walk fixed
/// still 11 %, with the scene fixed 0.5 %.
const DATA_SEED: u64 = 2026;
const VARDEN_SEED: u64 = 2027;
const RANKS: usize = 4;
const MODULES_PER_RANK: usize = 64;
const QUERIES: usize = 20_000;
const WRITES: usize = 5_000;
const K: usize = 10;
const CYCLE: usize = 5;

struct Batches {
    knn: Vec<P>,
    writes: Vec<P>,
}

struct Answers {
    knn: Vec<Vec<(u64, P)>>,
    deleted: usize,
    len: usize,
}

impl Answers {
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.knn(&self.knn);
        d.u64(self.deleted as u64);
        d.u64(self.len as u64);
        d.0
    }
}

/// The sharded tree with the router figures of its calls so far, which
/// `OpStats` does not carry.
pub struct State {
    tree: ShardedZdTree<D>,
    fanout: Vec<f64>,
    rank_imbalance: Vec<f64>,
    /// Rebalance actions per rep; the first entry is the warm-up's.
    rebalance_actions: Vec<u64>,
}

pub struct ShardSkew {
    points: Vec<P>,
    built: Option<ShardedZdTree<D>>,
    reps: Vec<Batches>,
}

fn build(points: &[P]) -> ShardedZdTree<D> {
    ShardedZdTree::build(
        points,
        ShardConfig::new(RANKS),
        PimZdConfig::throughput_optimized((points.len() / RANKS) as u64, MODULES_PER_RANK),
        MachineConfig::with_modules(MODULES_PER_RANK),
    )
}

impl ShardSkew {
    fn calls(&self, st: &mut State, i: usize, rec: &mut Recorder) -> (Vec<Call>, Answers) {
        let b = &self.reps[i];
        let mut calls = Vec::with_capacity(3);
        let stats = |s: &State| s.tree.last_shard_stats().agg.clone();
        let knn =
            call(rec, &mut calls, "knn", st, |s| s.tree.batch_knn(&b.knn, K, Metric::L2), stats);
        let routed = st.tree.last_shard_stats();
        st.fanout.push(routed.fanout());
        st.rank_imbalance.push(routed.busy_cycle_imbalance());
        let mut actions = routed.rebalance_actions;
        call(rec, &mut calls, "insert", st, |s| s.tree.batch_insert(&b.writes), stats);
        actions += st.tree.last_shard_stats().rebalance_actions;
        let deleted =
            call(rec, &mut calls, "delete", st, |s| s.tree.batch_delete(&b.writes), stats);
        actions += st.tree.last_shard_stats().rebalance_actions;
        st.rebalance_actions.push(actions);
        (calls, Answers { knn, deleted, len: st.tree.len() })
    }
}

impl Workload for ShardSkew {
    const NAME: &'static str = "shard_skew";
    const LAYER: &'static str = "shard";
    type State = State;

    fn setup(seed: u64, scale: Scale, rec: &mut Recorder) -> Self {
        let ((points, varden), _) = rec.span("gen", |_| {
            (
                wl::uniform::<D>(scale.of(POINTS), DATA_SEED),
                wl::varden::<D>(scale.of(VARDEN_POINTS), VARDEN_SEED),
            )
        });
        let (built, _) = rec.span("shard_build", |_| build(&points));
        let (reps, _) = rec.span("batches", |_| {
            (0..CYCLE as u64)
                .map(|i| Batches {
                    knn: wl::mixed_queries(
                        &points,
                        &varden,
                        scale.of(QUERIES),
                        0.5,
                        seed ^ (0x500 + i),
                    ),
                    writes: wl::mixed_queries(
                        &points,
                        &varden,
                        scale.of(WRITES),
                        0.5,
                        seed ^ (0x600 + i),
                    ),
                })
                .collect()
        });
        Self { points, built: Some(built), reps }
    }

    fn cycle(&self) -> usize {
        CYCLE
    }

    fn ops_per_rep(&self) -> u64 {
        (self.reps[0].knn.len() + 2 * self.reps[0].writes.len()) as u64
    }

    fn fresh(&mut self) -> State {
        let tree = self.built.take().unwrap_or_else(|| build(&self.points));
        let mut st = State {
            tree,
            fanout: Vec::new(),
            rank_imbalance: Vec::new(),
            rebalance_actions: Vec::new(),
        };
        self.calls(&mut st, CYCLE - 1, &mut Recorder::new(false));
        st.fanout.clear();
        st.rank_imbalance.clear();
        st
    }

    fn observe(&self, st: &mut State, on: bool) {
        st.tree.set_metrics(if on { Metrics::enabled_new() } else { Metrics::disabled() });
    }

    fn rep(&self, st: &mut State, i: usize, rec: &mut Recorder) -> Rep {
        let (calls, answers) = self.calls(st, i, rec);
        Rep { calls, results: answers.digest(), refused: 0 }
    }

    fn verify(&mut self, _timed: &mut Self::State) -> Verdict {
        let mut st = self.fresh();
        let (_, got) = self.calls(&mut st, 0, &mut Recorder::new(false));
        let b = &self.reps[0];
        let meter = &mut CpuMeter::disabled();
        let mut oracle = ZdTree::build(&self.points, ZdTree::<D>::DEFAULT_LEAF_CAP);
        let knn = oracle.par_batch_knn(&b.knn, K, Metric::L2);
        oracle.batch_insert(&b.writes, meter);
        let deleted = oracle.batch_delete(&b.writes, meter);
        let mismatches = mismatches(&knn_distances(&got.knn), &knn_distances(&knn))
            + u64::from(got.deleted != deleted) * b.writes.len() as u64
            + u64::from(got.len != oracle.len()) * b.writes.len() as u64;
        Verdict { checked: self.ops_per_rep(), mismatches, results: got.digest() }
    }

    fn layer(&mut self, st: &mut State, first_cycle: &[Rep]) -> Layer {
        // Router figures over the first cycle, like every simulated number.
        let n = first_cycle.len().min(st.fanout.len());
        let mut m = layers::zorder(&self.points);
        m.insert("shard.fanout".into(), median(&st.fanout[..n]));
        m.insert("shard.rank_imbalance".into(), median(&st.rank_imbalance[..n]));
        m.insert(
            "shard.rebalance_actions".into(),
            st.rebalance_actions[..=n].iter().sum::<u64>() as f64,
        );
        m
    }
}
