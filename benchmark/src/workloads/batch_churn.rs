//! `batch_churn`: writes beside reads on skewed data, one rank.
//!
//! 1 M osm-like points, skew-resistant preset, 2048 modules. A rep inserts
//! 50 k points (data points jittered ±4), looks the same 50 k up, and
//! deletes them again, so the stored set is back at its base after every
//! rep. Four distinct reps make a cycle.

use super::{call, mismatches, Call, Digest, Layer, Rep, Scale, Verdict, Workload, D, P};
use crate::layers;
use crate::recorder::Recorder;
use pim_memsim::CpuMeter;
use pim_sim::{MachineConfig, Metrics};
use pim_workloads as wl;
use pim_zd_tree::{PimZdConfig, PimZdTree};
use pim_zdtree_base::ZdTree;

const POINTS: usize = 1_000_000;
const MODULES: usize = 2048;
const BATCH: usize = 50_000;
const CYCLE: usize = 4;

/// What the calls of a rep returned, and the size the tree ended at.
struct Answers {
    found: Vec<bool>,
    deleted: usize,
    len: usize,
}

impl Answers {
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.bools(&self.found);
        d.u64(self.deleted as u64);
        d.u64(self.len as u64);
        d.0
    }
}

pub struct BatchChurn {
    points: Vec<P>,
    image: Vec<u8>,
    reps: Vec<Vec<P>>,
}

impl BatchChurn {
    fn calls(&self, tree: &mut PimZdTree<D>, i: usize, rec: &mut Recorder) -> (Vec<Call>, Answers) {
        let batch = &self.reps[i];
        let mut calls = Vec::with_capacity(3);
        let stats = |t: &PimZdTree<D>| t.last_op_stats().clone();
        call(rec, &mut calls, "insert", tree, |t| t.batch_insert(batch), stats);
        let found = call(rec, &mut calls, "contains", tree, |t| t.batch_contains(batch), stats);
        let deleted = call(rec, &mut calls, "delete", tree, |t| t.batch_delete(batch), stats);
        (calls, Answers { found, deleted, len: tree.len() })
    }
}

impl Workload for BatchChurn {
    const NAME: &'static str = "batch_churn";
    const LAYER: &'static str = "core";
    type State = PimZdTree<D>;

    fn setup(seed: u64, scale: Scale, rec: &mut Recorder) -> Self {
        let n = scale.of(POINTS);
        let (points, _) = rec.span("gen", |_| wl::osm_like::<D>(n, seed));
        let (tree, _) = rec.span("build", |_| {
            PimZdTree::build(
                &points,
                PimZdConfig::skew_resistant(MODULES),
                MachineConfig::with_modules(MODULES),
            )
        });
        let (image, _) = rec.span("image", |_| tree.checkpoint_bytes());
        drop(tree);
        let (reps, _) = rec.span("batches", |_| {
            (0..CYCLE as u64)
                .map(|i| wl::point_queries(&points, scale.of(BATCH), 4, seed ^ (0x400 + i)))
                .collect()
        });
        Self { points, image, reps }
    }

    fn cycle(&self) -> usize {
        CYCLE
    }

    fn ops_per_rep(&self) -> u64 {
        3 * self.reps[0].len() as u64
    }

    fn fresh(&mut self) -> PimZdTree<D> {
        PimZdTree::restore_bytes(&self.image).expect("an image this tree wrote restores")
    }

    fn observe(&self, tree: &mut PimZdTree<D>, on: bool) {
        tree.set_metrics(if on { Metrics::enabled_new() } else { Metrics::disabled() });
    }

    fn rep(&self, tree: &mut PimZdTree<D>, i: usize, rec: &mut Recorder) -> Rep {
        let (calls, answers) = self.calls(tree, i, rec);
        Rep { calls, results: answers.digest(), refused: 0 }
    }

    fn verify(&mut self, _timed: &mut Self::State) -> Verdict {
        let mut tree = self.fresh();
        let (_, got) = self.calls(&mut tree, 0, &mut Recorder::new(false));
        let batch = &self.reps[0];
        let meter = &mut CpuMeter::disabled();
        let mut oracle = ZdTree::build(&self.points, ZdTree::<D>::DEFAULT_LEAF_CAP);
        oracle.batch_insert(batch, meter);
        let found = oracle.par_batch_contains(batch);
        let deleted = oracle.batch_delete(batch, meter);
        let mismatches = mismatches(&got.found, &found)
            + u64::from(got.deleted != deleted) * batch.len() as u64
            + u64::from(got.len != oracle.len()) * batch.len() as u64;
        Verdict { checked: self.ops_per_rep(), mismatches, results: got.digest() }
    }

    fn layer(&mut self, tree: &mut PimZdTree<D>, _first_cycle: &[Rep]) -> Layer {
        let mut m = layers::image_costs(tree);
        m.extend(layers::zorder(&self.points));
        m
    }
}
