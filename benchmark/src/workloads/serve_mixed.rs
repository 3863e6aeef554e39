//! `serve_mixed`: the `pim-serve` front-end under an open loop.
//!
//! 50 k uniform points on 64 modules behind `PimServer` with
//! `ServeConfig::default()` (budget 1000 µs, snapshot reads on, queue of
//! 8192 so that nothing is refused). Three fixed Poisson traces of
//! `RequestMix::read_heavy()` at the rates of `spec::RATES`, each 30 virtual
//! milliseconds long (6 k, 12 k and 24 k requests); every rate starts on a
//! fresh server restored from the set-up image, so every rep is the same
//! work and a cycle is one rep. The loop is open and runs in virtual time: a
//! request's latency counts from its due arrival time and the generator is
//! never late.
//!
//! A rate meets the latency limit when its p99 is at most 2000 µs, nothing
//! is rejected, and the backlog does not grow: the mean number of requests
//! outstanding over the last quarter of arrivals is at most 1.5× that over
//! the second quarter.

use super::{mismatches, Call, Digest, Layer, Rep, Scale, Verdict, Workload, D, P};
use crate::layers;
use crate::recorder::Recorder;
use crate::spec::RATES;
use crate::stats::{median, tail};
use pim_geom::Aabb;
use pim_memsim::CpuMeter;
use pim_serve::{PimServer, ServeConfig, ServeReport, ServeTrace};
use pim_sim::{MachineConfig, Metrics};
use pim_workloads::{self as wl, ArrivalTrace, ReqOp, RequestMix};
use pim_zd_tree::{OpBreakdown, OpStats, PimZdConfig, PimZdTree};
use pim_zdtree_base::{query::sort_points, ZdTree};

const POINTS: usize = 50_000;
const MODULES: usize = 64;
/// Virtual seconds of arrivals per rate: every rate offers `rate × SPAN_S`
/// requests, so each sees the same number of budget windows.
const SPAN_S: f64 = 0.03;
/// The latency limit on the tail percentile, virtual µs.
const LIMIT_US: f64 = 2_000.0;
/// How much the backlog may grow between the second and the last quarter.
const BACKLOG_GROWTH_OK: f64 = 1.5;
/// The rate whose latencies are the end-to-end `sim_p50_us` / `sim_p99_us`:
/// the lightest, where the tail is set by the budget and the service time
/// and not by which seed's arrivals happened to bunch.
const LATENCY_RATE: &str = "r200k";
/// The rate whose per-request spans a traced run reports.
const SPAN_RATE: &str = "r400k";

/// What one rate's run came to (all on the simulated clock).
#[derive(Clone, Debug)]
struct RateSummary {
    label: &'static str,
    rate: f64,
    latencies_us: Vec<f64>,
    goodput: f64,
    rejected: u64,
    batches: u64,
    snapshot_batches: u64,
    backlog_growth: f64,
    /// Median per-request spans of a traced run: queue, wait, cpu, pim, comm.
    spans_us: Option<[f64; 5]>,
}

impl RateSummary {
    fn new(label: &'static str, rate: f64, trace: &ArrivalTrace<D>, report: &ServeReport) -> Self {
        Self {
            label,
            rate,
            latencies_us: report
                .replies
                .iter()
                .filter(|r| !r.rejected)
                .map(|r| r.latency_us() as f64)
                .collect(),
            goodput: report.achieved_rate(),
            rejected: report.rejected,
            batches: report.batches,
            snapshot_batches: report.snapshot_batches,
            backlog_growth: backlog_growth(trace, report),
            spans_us: None,
        }
    }

    fn percentile(&self, cap: f64) -> f64 {
        let samples: Vec<(f64, u64)> = self.latencies_us.iter().map(|l| (*l, 1)).collect();
        tail(&samples, cap).value
    }

    fn meets_limit(&self) -> bool {
        self.rejected == 0
            && self.percentile(0.99) <= LIMIT_US
            && self.backlog_growth <= BACKLOG_GROWTH_OK
    }
}

/// Mean requests outstanding (arrived, not yet answered) seen by the
/// arrivals of the last quarter of the trace, over the same for the second
/// quarter. A queue in balance hovers around 1; one that cannot keep up
/// grows with the length of the trace.
fn backlog_growth(trace: &ArrivalTrace<D>, report: &ServeReport) -> f64 {
    let mut done: Vec<u64> = report.replies.iter().map(|r| r.complete_us).collect();
    done.sort_unstable();
    let outstanding: Vec<f64> = trace
        .arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| (i + 1 - done.partition_point(|&c| c <= a.t_us)) as f64)
        .collect();
    let n = outstanding.len();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    mean(&outstanding[3 * n / 4..]) / mean(&outstanding[n / 4..n / 2]).max(1.0)
}

pub struct State {
    observing: bool,
    /// Per-rate summaries of the first rep (every rep is the same work).
    first: Vec<RateSummary>,
    /// What the first rep's servers produced, kept for the oracle check.
    first_served: Vec<Kept>,
}

/// The part of a rate's run the oracle check needs: small, so that holding
/// it through the timed section does not show in the peak RSS.
struct Kept {
    report: ServeReport,
    /// Every point the tree held when the run ended.
    stored: Vec<P>,
}

pub struct ServeMixed {
    points: Vec<P>,
    image: Vec<u8>,
    traces: Vec<ArrivalTrace<D>>,
}

/// One rate's run with everything it produced.
struct Served {
    host_ns: u64,
    report: ServeReport,
    trace: Option<ServeTrace>,
    tree: PimZdTree<D>,
}

impl ServeMixed {
    fn restore(&self) -> PimZdTree<D> {
        PimZdTree::restore_bytes(&self.image).expect("an image this tree wrote restores")
    }

    fn serve(&self, rate: usize, observing: bool, rec: &mut Recorder) -> Served {
        let (tree, _) = rec.span("restore", |_| self.restore());
        let mut server = PimServer::new(tree, ServeConfig::default());
        if observing {
            server.set_tracing(true);
            server.set_metrics(Metrics::enabled_new());
        }
        let (report, host_ns) = rec.span(RATES[rate].0, |_| server.run_trace(&self.traces[rate]));
        Served { host_ns, report, trace: server.take_trace(), tree: server.into_tree() }
    }
}

/// The simulated cost of every batch a run executed, as one `OpStats`.
fn totals_as_stats(report: &ServeReport) -> OpStats {
    let t = &report.totals;
    let completed = report.completed() as u64;
    OpStats {
        breakdown: OpBreakdown { cpu_s: t.cpu_s, pim_s: t.pim_s, comm_s: t.comm_s },
        rounds: t.rounds,
        channel_bytes: t.channel_bytes,
        cpu_dram_bytes: t.cpu_dram_bytes,
        batch_ops: completed,
        elements: completed,
        ..OpStats::default()
    }
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve_mixed";
    const LAYER: &'static str = "serve";
    type State = State;

    fn setup(seed: u64, scale: Scale, rec: &mut Recorder) -> Self {
        let n = scale.of(POINTS);
        let (points, _) = rec.span("gen", |_| wl::uniform::<D>(n, seed));
        let (tree, _) = rec.span("build", |_| {
            let cfg = PimZdConfig::throughput_optimized(n as u64, MODULES);
            PimZdTree::build(&points, cfg, MachineConfig::with_modules(MODULES))
        });
        let (image, _) = rec.span("image", |_| tree.checkpoint_bytes());
        drop(tree);
        let (traces, _) = rec.span("batches", |_| {
            let mix = RequestMix::read_heavy();
            RATES
                .iter()
                .enumerate()
                .map(|(i, (_, rate))| {
                    let requests = scale.of((rate * SPAN_S) as usize);
                    wl::open_loop_trace(&points, requests, *rate, &mix, seed ^ (0x700 + i as u64))
                })
                .collect()
        });
        Self { points, image, traces }
    }

    fn cycle(&self) -> usize {
        1
    }

    fn ops_per_rep(&self) -> u64 {
        self.traces.iter().map(|t| t.len() as u64).sum()
    }

    fn fresh(&mut self) -> State {
        State { observing: false, first: Vec::new(), first_served: Vec::new() }
    }

    fn observe(&self, st: &mut State, on: bool) {
        st.observing = on;
    }

    fn rep(&self, st: &mut State, _i: usize, rec: &mut Recorder) -> Rep {
        let mut rep = Rep::default();
        let mut digest = Digest::default();
        let mut summaries = Vec::new();
        let keep = st.first.is_empty();
        for (r, (label, rate)) in RATES.iter().enumerate() {
            let mut served = self.serve(r, st.observing, rec);
            digest.u64(served.report.results_digest());
            digest.u64(served.tree.len() as u64);
            rep.refused += served.report.rejected;
            rep.calls.push(Call {
                op: label,
                host_ns: served.host_ns,
                sim: totals_as_stats(&served.report),
            });
            let mut summary = RateSummary::new(label, *rate, &self.traces[r], &served.report);
            summary.spans_us = served.trace.take().map(|t| {
                let admitted: Vec<_> = t.requests.iter().filter(|q| !q.rejected).collect();
                let med = |f: fn(&pim_serve::RequestTrace) -> u64| {
                    median(&admitted.iter().map(|q| f(q) as f64).collect::<Vec<_>>())
                };
                [
                    med(|q| q.queue_us),
                    med(|q| q.wait_us),
                    med(|q| q.cpu_us),
                    med(|q| q.pim_us),
                    med(|q| q.comm_us),
                ]
            });
            summaries.push(summary);
            if keep {
                let stored =
                    served.tree.batch_box_fetch(&[Aabb::universe()]).pop().unwrap_or_default();
                st.first_served.push(Kept { report: served.report, stored });
            }
        }
        rep.results = digest.0;
        // The simulated figures of the first rep stand for the run; a traced
        // rep only adds the per-request spans to them.
        if st.first.is_empty() {
            st.first = summaries;
        } else {
            for (first, now) in st.first.iter_mut().zip(summaries) {
                first.spans_us = first.spans_us.or(now.spans_us);
            }
        }
        rep
    }

    /// Checks what the first timed rep produced instead of serving the three
    /// traces once more: every rep is the same work, and a serving rep is long.
    fn verify(&mut self, st: &mut State) -> Verdict {
        let mut verdict = Verdict::default();
        let mut digest = Digest::default();
        for (trace, kept) in self.traces.iter().zip(std::mem::take(&mut st.first_served)) {
            digest.u64(kept.report.results_digest());
            digest.u64(kept.stored.len() as u64);
            verdict.checked += trace.len() as u64;
            verdict.mismatches += self.check_rate(trace, kept);
        }
        verdict.results = digest.0;
        verdict
    }

    fn layer(&mut self, st: &mut State, first_cycle: &[Rep]) -> Layer {
        let mut m = layers::image_costs(&self.restore());
        m.extend(layers::zorder(&self.points));
        for s in &st.first {
            let key = |suffix: &str| format!("serve.{}.{suffix}", s.label);
            m.insert(key("goodput"), s.goodput);
            m.insert(key("p50_us"), s.percentile(0.5));
            m.insert(key("p99_us"), s.percentile(0.99));
            m.insert(key("rejected"), s.rejected as f64);
            m.insert(key("batches"), s.batches as f64);
            m.insert(key("snapshot_batches"), s.snapshot_batches as f64);
            m.insert(key("backlog_growth"), s.backlog_growth);
            if let (true, Some(spans)) = (s.label == SPAN_RATE, s.spans_us) {
                for (name, v) in ["queue", "wait", "cpu", "pim", "comm"].iter().zip(spans) {
                    m.insert(format!("serve.span.{name}_us"), v);
                }
            }
        }
        let best = st.first.iter().filter(|s| s.meets_limit()).map(|s| s.rate).fold(0.0, f64::max);
        m.insert("serve.max_rate_ok".into(), best);
        let batches: u64 = st.first.iter().map(|s| s.batches).sum();
        let host_ms =
            median(&first_cycle.iter().map(|r| r.host_ns() as f64 / 1e6).collect::<Vec<_>>());
        m.insert("serve.host_ms_per_batch".into(), host_ms / batches.max(1) as f64);
        m
    }

    fn latency_samples(&self, st: &State, _first_cycle: &[Rep]) -> Vec<(f64, u64)> {
        let s = st
            .first
            .iter()
            .find(|s| s.label == LATENCY_RATE)
            .expect("the latency rate is one of RATES");
        s.latencies_us.iter().map(|l| (*l, 1)).collect()
    }
}

impl ServeMixed {
    /// Checks one rate's run: exactly one reply per request, in id order;
    /// completed + rejected = offered; every `contains` and `box_count`
    /// reply against the oracle at the epoch the reply observed; and the
    /// final tree against the oracle fed the admitted writes in epoch order.
    fn check_rate(&self, trace: &ArrivalTrace<D>, kept: Kept) -> u64 {
        let replies = &kept.report.replies;
        let mut bad = mismatches(
            &replies.iter().map(|r| r.id).collect::<Vec<_>>(),
            &(0..trace.len() as u64).collect::<Vec<_>>(),
        );
        bad +=
            u64::from(kept.report.completed() as u64 + kept.report.rejected != trace.len() as u64);
        if bad > 0 {
            return bad; // replies cannot be matched to requests; nothing further is meaningful
        }
        let op = |id: u64| trace.arrivals[id as usize].op;
        let mut admitted: Vec<_> = replies.iter().filter(|r| !r.rejected).collect();
        admitted.sort_by_key(|r| (r.epoch, r.id));
        let meter = &mut CpuMeter::disabled();
        let mut oracle = ZdTree::build(&self.points, ZdTree::<D>::DEFAULT_LEAF_CAP);
        // A write batch's replies carry the epoch it produced, a read's the
        // epoch it saw: at equal epochs the writes come first.
        for batch in admitted.chunk_by(|a, b| a.epoch == b.epoch) {
            let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
            for r in batch {
                match op(r.id) {
                    ReqOp::Insert(p) => inserts.push(p),
                    ReqOp::Delete(p) => deletes.push(p),
                    _ => {}
                }
            }
            oracle.batch_insert(&inserts, meter);
            oracle.batch_delete(&deletes, meter);
            for r in batch {
                bad += match op(r.id) {
                    ReqOp::Contains(p) => {
                        u64::from(r.fingerprint != oracle.contains(&p, meter) as u64)
                    }
                    ReqOp::BoxCount(b) => u64::from(r.fingerprint != oracle.box_count(&b, meter)),
                    _ => 0,
                };
            }
        }
        let want: Vec<P> = oracle.all_points().into_iter().map(|(_, p)| p).collect();
        bad + mismatches(&sort_points(kept.stored), &sort_points(want))
    }
}
