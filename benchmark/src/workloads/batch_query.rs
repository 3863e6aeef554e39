//! `batch_query`: the read path of the paper's Fig. 5 on one rank.
//!
//! 1 M uniform points, throughput-optimized preset, 2048 modules. A rep is
//! 100 k `batch_contains` (queries jittered ±2 around data points), then
//! 10 k each of `batch_knn` (k = 10, ℓ2), `batch_box_count` and
//! `batch_box_fetch` (boxes sized to hold 10 points). Eight distinct reps
//! make a cycle, so the simulated LLC never sees the same batch twice in a
//! row.

use super::{
    call, knn_distances, mismatches, Box3, Call, Digest, Layer, Rep, Scale, Verdict, Workload, D, P,
};
use crate::layers;
use crate::recorder::Recorder;
use crate::stats::median;
use pim_geom::Metric;
use pim_sim::{MachineConfig, Metrics};
use pim_workloads as wl;
use pim_zd_tree::{PimZdConfig, PimZdTree};
use pim_zdtree_base::{query::sort_points, ZdTree};

const POINTS: usize = 1_000_000;
const MODULES: usize = 2048;
const CONTAINS: usize = 100_000;
const QUERIES: usize = 10_000;
pub const K: usize = 10;
const CYCLE: usize = 8;

/// The input batches of one rep.
pub struct Batches {
    pub contains: Vec<P>,
    pub knn: Vec<P>,
    pub boxes: Vec<Box3>,
}

/// Everything the four read calls of a rep returned.
struct Answers {
    contains: Vec<bool>,
    knn: Vec<Vec<(u64, P)>>,
    counts: Vec<u64>,
    fetched: Vec<Vec<P>>,
}

impl Answers {
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.bools(&self.contains);
        d.knn(&self.knn);
        d.counts(&self.counts);
        d.fetched(&self.fetched);
        d.0
    }
}

pub struct BatchQuery {
    points: Vec<P>,
    image: Vec<u8>,
    reps: Vec<Batches>,
}

impl BatchQuery {
    fn calls(&self, tree: &mut PimZdTree<D>, i: usize, rec: &mut Recorder) -> (Vec<Call>, Answers) {
        let b = &self.reps[i];
        let mut calls = Vec::with_capacity(4);
        let stats = |t: &PimZdTree<D>| t.last_op_stats().clone();
        let answers = Answers {
            contains: call(
                rec,
                &mut calls,
                "contains",
                tree,
                |t| t.batch_contains(&b.contains),
                stats,
            ),
            knn: call(rec, &mut calls, "knn", tree, |t| t.batch_knn(&b.knn, K, Metric::L2), stats),
            counts: call(
                rec,
                &mut calls,
                "box_count",
                tree,
                |t| t.batch_box_count(&b.boxes),
                stats,
            ),
            fetched: call(
                rec,
                &mut calls,
                "box_fetch",
                tree,
                |t| t.batch_box_fetch(&b.boxes),
                stats,
            ),
        };
        (calls, answers)
    }
}

impl Workload for BatchQuery {
    const NAME: &'static str = "batch_query";
    const LAYER: &'static str = "core";
    type State = PimZdTree<D>;

    fn setup(seed: u64, scale: Scale, rec: &mut Recorder) -> Self {
        let n = scale.of(POINTS);
        let (points, _) = rec.span("gen", |_| wl::uniform::<D>(n, seed));
        let (tree, _) = rec.span("build", |_| {
            let cfg = PimZdConfig::throughput_optimized(n as u64, MODULES);
            PimZdTree::build(&points, cfg, MachineConfig::with_modules(MODULES))
        });
        let (image, _) = rec.span("image", |_| tree.checkpoint_bytes());
        drop(tree);
        let (reps, _) = rec.span("batches", |_| {
            let side = wl::box_side_for_expected::<D>(n, 10.0);
            (0..CYCLE as u64)
                .map(|i| Batches {
                    contains: wl::point_queries(&points, scale.of(CONTAINS), 2, seed ^ (0x100 + i)),
                    knn: wl::knn_queries(&points, scale.of(QUERIES), seed ^ (0x200 + i)),
                    boxes: wl::box_queries(&points, scale.of(QUERIES), side, seed ^ (0x300 + i)),
                })
                .collect()
        });
        Self { points, image, reps }
    }

    fn cycle(&self) -> usize {
        CYCLE
    }

    fn ops_per_rep(&self) -> u64 {
        let b = &self.reps[0];
        (b.contains.len() + b.knn.len() + 2 * b.boxes.len()) as u64
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
        let oracle = ZdTree::build(&self.points, ZdTree::<D>::DEFAULT_LEAF_CAP);
        let b = &self.reps[0];
        let canonical = |v: Vec<Vec<P>>| v.into_iter().map(sort_points).collect::<Vec<_>>();
        let results = got.digest();
        let mismatches = mismatches(&got.contains, &oracle.par_batch_contains(&b.contains))
            + mismatches(
                &knn_distances(&got.knn),
                &knn_distances(&oracle.par_batch_knn(&b.knn, K, Metric::L2)),
            )
            + mismatches(&got.counts, &oracle.par_batch_box_count(&b.boxes))
            + mismatches(&canonical(got.fetched), &canonical(oracle.par_batch_box_fetch(&b.boxes)));
        Verdict { checked: self.ops_per_rep(), mismatches, results }
    }

    fn layer(&mut self, tree: &mut PimZdTree<D>, first_cycle: &[Rep]) -> Layer {
        let mut m = layers::image_costs(tree);
        m.extend(layers::zorder(&self.points));
        m.extend(layers::baselines(&self.points, &self.reps[0], &first_cycle[0]));
        // Thread scaling: the first cycle again on a fresh tree and a wider
        // pool, against the one-thread first cycle of the timed section.
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
        let one = median(&first_cycle.iter().map(|r| r.host_ns() as f64).collect::<Vec<_>>());
        let many = rayon::ThreadPool::new(threads).install(|| {
            let mut tree = self.fresh();
            let mut rec = Recorder::new(false);
            median(
                &(0..CYCLE)
                    .map(|i| self.rep(&mut tree, i, &mut rec).host_ns() as f64)
                    .collect::<Vec<_>>(),
            )
        });
        m.insert("host.mt_speedup".into(), one / many);
        m.insert("host.mt_threads".into(), threads as f64);
        m
    }
}
