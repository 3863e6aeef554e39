//! The four workloads behind one interface, so one driver times them all.
//!
//! A workload generates its inputs from the seed, builds its index through
//! the public constructors, and then runs *reps*: fixed sequences of public
//! batch calls. Reps come in a *cycle* of distinct input batches that
//! repeats for as long as the run lasts, every cycle on a fresh index. So
//! every cycle is the same work: rep times are samples of one distribution
//! however many the host managed, and every simulated number, taken over
//! the first cycle, repeats in all the others.

pub mod batch_churn;
pub mod batch_query;
pub mod serve_mixed;
pub mod shard_skew;

use crate::recorder::Recorder;
use pim_geom::{Aabb, Point};
use pim_zd_tree::OpStats;
use std::collections::BTreeMap;

/// Dimension of every dataset (the paper's evaluation is 3-D).
pub const D: usize = 3;
pub type P = Point<D>;
pub type Box3 = Aabb<D>;

/// Input sizes: the defined ones, or about a twentieth for smoke runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    /// `n` at full scale, `n / 20` (at least 1) at quick scale.
    pub fn of(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Quick => (n / 20).max(1),
        }
    }
}

/// One timed call into a public batch operation.
#[derive(Clone, Debug)]
pub struct Call {
    /// Which operation: one of `spec::OPS`, or a rate label of `serve_mixed`.
    pub op: &'static str,
    /// Wall-clock nanoseconds around the call.
    pub host_ns: u64,
    /// The simulated measurement the call left behind.
    pub sim: OpStats,
}

/// What one rep did.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub calls: Vec<Call>,
    /// FNV over every result the calls returned.
    pub results: u64,
    /// Operations the system refused (serving rejections).
    pub refused: u64,
}

impl Rep {
    /// The rep's timed host time: the sum of its public calls.
    pub fn host_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.host_ns).sum()
    }

    /// FNV over every result and every simulated measurement of the rep.
    pub fn digest(&self) -> u64 {
        let mut d = Digest(self.results);
        self.calls.iter().for_each(|c| d.stats(&c.sim));
        d.0
    }
}

/// Outcome of checking rep 0 in full against the oracle.
#[derive(Clone, Copy, Debug, Default)]
pub struct Verdict {
    /// Individual results compared.
    pub checked: u64,
    /// Results that differ from the oracle's.
    pub mismatches: u64,
    /// Result digest of the rep that was checked; the timed rep 0 must have
    /// produced the same.
    pub results: u64,
}

/// Named values a workload adds to the per-layer metrics of a traced run.
pub type Layer = BTreeMap<String, f64>;

pub trait Workload: Sized {
    const NAME: &'static str;
    /// The layer whose names the per-call metrics go under (`core.knn.host_ms`).
    const LAYER: &'static str;
    /// The index the reps run on.
    type State;

    /// Generates the inputs, builds the index and captures what `fresh`
    /// starts from. Each phase runs in a span of `rec` (`gen`, `build`, …).
    fn setup(seed: u64, scale: Scale, rec: &mut Recorder) -> Self;
    /// Distinct reps before the inputs repeat.
    fn cycle(&self) -> usize;
    /// Individual operations one rep issues.
    fn ops_per_rep(&self) -> u64;
    /// The index as set-up left it (and warmed up, where a workload says
    /// so), identical on every call.
    fn fresh(&mut self) -> Self::State;
    /// Switches the program's own observability (host spans, metrics
    /// registry, request tracing) on or off for the reps that follow.
    fn observe(&self, state: &mut Self::State, on: bool);
    /// Runs rep `i` (`i < cycle()`), each public call in a span of `rec`.
    fn rep(&self, state: &mut Self::State, i: usize, rec: &mut Recorder) -> Rep;
    /// Compares every result of rep 0 with the oracle: by default of rep 0
    /// run once more on a fresh index, `state` being the timed one.
    fn verify(&mut self, state: &mut Self::State) -> Verdict;
    /// Per-layer metrics only this workload can measure, taken after the
    /// timed section of a traced run.
    fn layer(&mut self, state: &mut Self::State, first_cycle: &[Rep]) -> Layer;
    /// Latency samples `(µs, weight)` behind `sim_p50_us` / `sim_p99_us`.
    /// By default every operation waits for the batch it is in.
    fn latency_samples(&self, _state: &Self::State, first_cycle: &[Rep]) -> Vec<(f64, u64)> {
        first_cycle
            .iter()
            .flat_map(|r| &r.calls)
            .map(|c| (c.sim.latency_s() * 1e6, c.sim.batch_ops))
            .collect()
    }
}

/// FNV-1a folding of result values into a digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(pim_serve::FNV_OFFSET)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.0 = pim_serve::fnv_fold(self.0, v);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn point(&mut self, p: &P) {
        for c in p.coords {
            self.u64(c as u64);
        }
    }

    pub fn bools(&mut self, v: &[bool]) {
        self.u64(v.len() as u64);
        v.iter().for_each(|b| self.u64(*b as u64));
    }

    pub fn counts(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        v.iter().for_each(|c| self.u64(*c));
    }

    pub fn knn(&mut self, v: &[Vec<(u64, P)>]) {
        self.u64(v.len() as u64);
        for neighbours in v {
            self.u64(neighbours.len() as u64);
            for (dist, p) in neighbours {
                self.u64(*dist);
                self.point(p);
            }
        }
    }

    pub fn fetched(&mut self, v: &[Vec<P>]) {
        self.u64(v.len() as u64);
        for hits in v {
            self.u64(hits.len() as u64);
            hits.iter().for_each(|p| self.point(p));
        }
    }

    /// Every field of a simulated measurement, floats by their bits.
    pub fn stats(&mut self, s: &OpStats) {
        self.f64(s.breakdown.cpu_s);
        self.f64(s.breakdown.pim_s);
        self.f64(s.breakdown.comm_s);
        self.u64(s.rounds);
        self.u64(s.channel_bytes);
        self.u64(s.cpu_dram_bytes);
        self.u64(s.batch_ops);
        self.u64(s.elements);
        self.f64(s.worst_imbalance);
        self.u64(s.cpu_cycles);
        self.u64(s.pim_cycles);
    }
}

/// Times one public call: runs `f` in a span called `op`, then reads the
/// simulated measurement it left with `stats`.
pub fn call<S, R>(
    rec: &mut Recorder,
    calls: &mut Vec<Call>,
    op: &'static str,
    state: &mut S,
    f: impl FnOnce(&mut S) -> R,
    stats: impl FnOnce(&S) -> OpStats,
) -> R {
    let (out, host_ns) = rec.span(op, |_| f(state));
    calls.push(Call { op, host_ns, sim: stats(state) });
    out
}

/// Distances of each query's neighbours: kNN answers are compared by
/// distance, since equidistant neighbours may legitimately differ.
pub fn knn_distances(v: &[Vec<(u64, P)>]) -> Vec<Vec<u64>> {
    v.iter().map(|n| n.iter().map(|x| x.0).collect()).collect()
}

/// Counts positions where two result lists differ (length differences count).
pub fn mismatches<T: PartialEq>(got: &[T], want: &[T]) -> u64 {
    let differing = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (differing + got.len().abs_diff(want.len())) as u64
}
