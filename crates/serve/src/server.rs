//! The virtual-time serving event loop: admission, batching, pipelined
//! dispatch, and epoch snapshot reads.
//!
//! # Model
//!
//! [`PimServer`] replays a recorded arrival trace ([`PimServer::run_trace`],
//! its one entry point) in **virtual microseconds**. All timing comes from
//! the simulator: a dispatched batch occupies its lane for
//! `OpStats::breakdown.total_s()` of simulated time, and nothing in the loop
//! reads a wall clock or depends on host thread count. That makes every
//! artifact — replies, journal, latency percentiles, metrics — a pure
//! function of `(tree, config, trace)`.
//!
//! # Records
//!
//! A run records each executed batch once, as the [`BatchTrace`] that
//! `execute` builds and the batch's flight carries to its completion, and
//! each request once, as its [`Reply`], which names its batch. The report's
//! counts, its JSONL renderings and the span view of [`crate::trace`] are
//! all derived from those two lists.
//!
//! # Event loop
//!
//! Events are processed in nondecreasing virtual time; at one timestamp the
//! phases run in a fixed order, which *defines* the tie-breaks:
//!
//! 1. **Completions** (by batch sequence number): the finished batch's
//!    service time feeds its class's [`ThroughputEstimator`], replies are
//!    emitted, the batch's record joins the journal, and the lane frees.
//! 2. **Arrivals** (trace order): admission control rejects when
//!    `pending + sealed` requests already fill the bounded queue
//!    ([`ServeConfig::queue_cap`]); admitted requests join their class
//!    queue, which seals into a batch the moment it reaches the adaptive
//!    size target ([`BatchPolicy::target`]).
//! 3. **Budget seals** (class order): any class whose oldest queued request
//!    has aged past [`BatchPolicy::budget_us`] seals, regardless of size.
//! 4. **Dispatch**: at most one write batch and one read batch are in
//!    flight. Writes dispatch in seal order. A read dispatched while a
//!    write is in flight runs against the [`TreeSnapshot`] forked from the
//!    pre-write tree and observes exactly the pre-batch epoch, so no read
//!    ever observes a half-applied batch.
//!
//! # Result fingerprints
//!
//! Replies carry an FNV-1a fingerprint of the request's result instead of
//! the full payload: `contains` folds the boolean, `knn` folds every
//! neighbor's id and coordinates, `box_count` folds the count, `box_fetch`
//! folds the hit count and every returned coordinate, `insert` acks with 1,
//! and `delete` folds the batch's removed-count (the underlying
//! [`PimZdTree::batch_delete`] reports one aggregate count per batch).

use std::collections::{BTreeMap, VecDeque};

use pim_geom::{Aabb, Metric, Point};
use pim_sim::wire::{fnv_fold, FNV_OFFSET};
use pim_sim::Metrics;
use pim_workloads::{Arrival, ArrivalTrace, ReqClass, ReqOp};
use pim_zd_tree::{BatchRead, PimZdTree, TreeSnapshot};

use crate::policy::{BatchPolicy, ThroughputEstimator};
use crate::report::{Reply, SealReason, ServeReport, Totals};
use crate::trace::{split_service_us, BatchTrace, ServeTrace};

/// Batch-compatibility key of a request: requests batch together exactly
/// when their keys are equal (kNN batches share one `k`). Keys order by
/// class, then `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ClassKey {
    /// The request class.
    pub class: ReqClass,
    /// The `k` of a kNN class (0 for every other class).
    pub k: usize,
}

impl ClassKey {
    /// The key of a request.
    pub fn of<const D: usize>(op: &ReqOp<D>) -> Self {
        let k = if let ReqOp::Knn(_, k) = op { *k } else { 0 };
        Self { class: op.class(), k }
    }
}

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Batch formation policy.
    pub policy: BatchPolicy,
    /// Bounded-queue capacity: admission control rejects a new arrival when
    /// this many requests are already pending or sealed (backpressure).
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { policy: BatchPolicy::default(), queue_cap: 8_192 }
    }
}

/// One admitted, not-yet-dispatched request.
struct Queued<const D: usize> {
    id: u64,
    arrival_us: u64,
    op: ReqOp<D>,
}

/// A sealed batch waiting for (or occupying) a lane.
struct Sealed<const D: usize> {
    seq: u64,
    key: ClassKey,
    reqs: Vec<Queued<D>>,
    sealed_us: u64,
    reason: SealReason,
}

/// An executing batch: results are already computed (execution happens at
/// dispatch), the reply is withheld until the simulated round completes.
struct Flight<const D: usize> {
    key: ClassKey,
    reqs: Vec<Queued<D>>,
    fingerprints: Vec<u64>,
    /// The batch's record, complete at dispatch; it joins the journal when
    /// the batch completes.
    record: BatchTrace,
}

/// Per-run mutable state of the event loop.
#[derive(Default)]
struct RunState<const D: usize> {
    /// The trace's arrivals, stably sorted by time. Those before
    /// `next_arrival` have been admitted or rejected, and each one's index
    /// here is its request id.
    arrivals: Vec<Arrival<D>>,
    next_arrival: usize,
    pending: BTreeMap<ClassKey, VecDeque<Queued<D>>>,
    sealed_writes: VecDeque<Sealed<D>>,
    sealed_reads: VecDeque<Sealed<D>>,
    /// Requests pending or sealed (the bounded queue's occupancy).
    queued: usize,
    write_flight: Option<Flight<D>>,
    read_flight: Option<Flight<D>>,
    estimators: BTreeMap<ClassKey, ThroughputEstimator>,
    /// The pre-write tree, forked at each write dispatch and dropped when
    /// that write completes (nothing can read it after that, and while it
    /// lives the live tree copies what it writes), with whether a read has
    /// used it yet.
    snapshot: Option<(TreeSnapshot<D>, bool)>,
    batch_seq: u64,
    replies: Vec<Reply>,
    journal: Vec<BatchTrace>,
    totals: Totals,
    now: u64,
}

/// The serving front-end: owns the tree and replays recorded arrival traces
/// against it under a [`ServeConfig`]. See the module docs for the full model.
pub struct PimServer<const D: usize> {
    tree: PimZdTree<D>,
    cfg: ServeConfig,
    metrics: Metrics,
    /// The last run's span view; `Some` exactly while request tracing is on.
    tracer: Option<ServeTrace>,
}

impl<const D: usize> PimServer<D> {
    /// Wraps a built tree in a server.
    pub fn new(tree: PimZdTree<D>, cfg: ServeConfig) -> Self {
        Self { tree, cfg, metrics: Metrics::disabled(), tracer: None }
    }

    /// Turns causal request tracing on or off (off by default). Every run
    /// records its batches and replies the same way either way; while on,
    /// each run also keeps the span view derived from them
    /// ([`ServeTrace::of`], see [`crate::trace`]) for [`Self::take_trace`].
    /// Tracing never perturbs virtual time, so a traced run's replies and
    /// journal are byte-identical to an untraced one's.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracer = on.then(ServeTrace::default);
    }

    /// Takes the span record of the last run (`None` when tracing is off),
    /// leaving an empty one behind. Requests are sorted by id, batches by
    /// sequence number.
    pub fn take_trace(&mut self) -> Option<ServeTrace> {
        self.tracer.as_mut().map(std::mem::take)
    }

    /// Attaches (or with `None` detaches) a round journal on the
    /// underlying tree (see [`pim_sim::trace`]); the records it collects are
    /// what the per-batch round-id links of [`crate::trace`] resolve into.
    pub fn set_journal(&mut self, journal: Option<pim_sim::Journal>) {
        self.tree.set_journal(journal);
    }

    /// Attaches a metrics registry to the server *and* the underlying tree.
    /// Serving metrics (`serve_*` families) are updated sequentially inside
    /// the event loop, so snapshots are thread-count independent.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics.clone();
        self.tree.set_metrics(metrics);
    }

    /// The underlying tree (e.g. to inspect epoch or size between runs).
    pub fn tree(&self) -> &PimZdTree<D> {
        &self.tree
    }

    /// Consumes the server, returning the tree with all applied writes.
    pub fn into_tree(self) -> PimZdTree<D> {
        self.tree
    }

    /// Replays a recorded arrival trace to completion and returns the run's
    /// artifacts. Arrivals are taken in time order, ties in trace order, and
    /// a request's id is its place in that order, so an unsorted trace runs
    /// as its stable sort by time does. Deterministic: same tree + config +
    /// trace → byte identical report, at any host thread count.
    pub fn run_trace(&mut self, trace: &ArrivalTrace<D>) -> ServeReport {
        let mut arrivals = trace.arrivals.clone();
        arrivals.sort_by_key(|a| a.t_us);
        let mut st = RunState { arrivals, ..RunState::default() };
        self.drive(&mut st);
        self.finish(st)
    }

    /// Freezes a drained run into its report — replies sorted by id, the
    /// counts read off the replies and the journal — and, while tracing is
    /// on, keeps the span view of it.
    fn finish(&mut self, st: RunState<D>) -> ServeReport {
        debug_assert!(st.pending.is_empty(), "drained loop left pending requests");
        debug_assert!(st.write_flight.is_none() && st.read_flight.is_none());
        let mut replies = st.replies;
        replies.sort_by_key(|r| r.id);
        let report = ServeReport {
            rejected: replies.iter().filter(|r| r.rejected).count() as u64,
            batches: st.journal.len() as u64,
            snapshot_batches: st.journal.iter().filter(|b| b.snapshot).count() as u64,
            replies,
            makespan_us: st.now,
            journal: st.journal,
            totals: st.totals,
        };
        if let Some(trace) = self.tracer.as_mut() {
            *trace = ServeTrace::of(&report);
        }
        report
    }

    // -----------------------------------------------------------------
    // Event loop
    // -----------------------------------------------------------------

    fn drive(&mut self, st: &mut RunState<D>) {
        while let Some(t) = self.next_event(st) {
            debug_assert!(t >= st.now, "virtual time must not run backwards");
            st.now = t;
            self.complete_at(st, t);
            self.ingest_at(st, t);
            self.seal_expired(st, t);
            self.dispatch_ready(st, t);
        }
    }

    /// The next virtual timestamp at which anything can happen.
    fn next_event(&self, st: &RunState<D>) -> Option<u64> {
        let mut t = None;
        let mut consider = |c: u64| t = Some(t.map_or(c, |x: u64| x.min(c)));
        if let Some(a) = st.arrivals.get(st.next_arrival) {
            consider(a.t_us);
        }
        for f in [&st.write_flight, &st.read_flight].into_iter().flatten() {
            consider(f.record.complete_us);
        }
        for q in st.pending.values() {
            if let Some(front) = q.front() {
                consider(front.arrival_us + self.cfg.policy.budget_us);
            }
        }
        t
    }

    /// Phase 1: finish flights whose round completes at `t`.
    fn complete_at(&mut self, st: &mut RunState<D>, t: u64) {
        let mut done: Vec<Flight<D>> = Vec::new();
        if st.write_flight.as_ref().is_some_and(|f| f.record.complete_us == t) {
            done.push(st.write_flight.take().unwrap());
            st.snapshot = None;
        }
        if st.read_flight.as_ref().is_some_and(|f| f.record.complete_us == t) {
            done.push(st.read_flight.take().unwrap());
        }
        done.sort_by_key(|f| f.record.seq);
        for f in done {
            let b = f.record;
            st.estimators.entry(f.key).or_default().observe(f.reqs.len(), b.service_us as f64);
            for (q, fingerprint) in f.reqs.iter().zip(f.fingerprints) {
                st.replies.push(Reply {
                    id: q.id,
                    op: b.class,
                    batch: Some(b.seq),
                    arrival_us: q.arrival_us,
                    dispatch_us: b.dispatch_us,
                    complete_us: b.complete_us,
                    epoch: b.epoch,
                    fingerprint,
                    rejected: false,
                });
                self.metrics.with(|m| {
                    // The request id rides along as a bounded histogram
                    // exemplar (JSON snapshot only), so a latency bucket
                    // can name requests to look up in a span trace.
                    m.observe_exemplar(
                        "serve_latency_us",
                        &[("op", b.class)],
                        b.complete_us - q.arrival_us,
                        q.id,
                    )
                });
            }
            st.journal.push(b);
        }
    }

    /// Phase 2: admit (or reject) every arrival stamped `t`, sealing any
    /// class that reaches its size target.
    fn ingest_at(&mut self, st: &mut RunState<D>, t: u64) {
        while let Some(&Arrival { t_us, op }) = st.arrivals.get(st.next_arrival) {
            if t_us != t {
                break;
            }
            let id = st.next_arrival as u64;
            st.next_arrival += 1;
            let label = op.label();
            self.metrics.with(|m| m.add("serve_requests_total", &[("op", label)], 1));
            if st.queued >= self.cfg.queue_cap {
                st.replies.push(Reply {
                    id,
                    op: label,
                    batch: None,
                    arrival_us: t,
                    dispatch_us: t,
                    complete_us: t,
                    epoch: self.tree.epoch(),
                    fingerprint: 0,
                    rejected: true,
                });
                self.metrics.with(|m| m.add("serve_rejected_total", &[("op", label)], 1));
                continue;
            }
            let key = ClassKey::of(&op);
            st.pending.entry(key).or_default().push_back(Queued { id, arrival_us: t, op });
            st.queued += 1;
            let target = self
                .cfg
                .policy
                .target(st.estimators.entry(key).or_default())
                .min(self.cfg.policy.max_batch);
            if st.pending[&key].len() >= target {
                self.seal(st, key, t, SealReason::Size);
            }
        }
    }

    /// Phase 3: seal every class whose oldest request has exhausted the
    /// latency budget (repeatedly, in case a backlog spans several
    /// max-size batches).
    fn seal_expired(&mut self, st: &mut RunState<D>, t: u64) {
        let keys: Vec<ClassKey> = st.pending.keys().copied().collect();
        for key in keys {
            while st
                .pending
                .get(&key)
                .and_then(|q| q.front())
                .is_some_and(|front| front.arrival_us + self.cfg.policy.budget_us <= t)
            {
                self.seal(st, key, t, SealReason::Budget);
            }
        }
    }

    /// Seals up to `max_batch` requests of class `key` into one batch.
    fn seal(&mut self, st: &mut RunState<D>, key: ClassKey, t: u64, reason: SealReason) {
        let q = st.pending.get_mut(&key).expect("seal of an empty class");
        let n = q.len().min(self.cfg.policy.max_batch);
        let reqs: Vec<Queued<D>> = q.drain(..n).collect();
        if q.is_empty() {
            st.pending.remove(&key);
        }
        let batch = Sealed { seq: st.batch_seq, key, reqs, sealed_us: t, reason };
        st.batch_seq += 1;
        let label = key.class.label();
        self.metrics.with(|m| {
            m.add("serve_batches_total", &[("op", label)], 1);
            m.observe("serve_batch_size", &[], batch.reqs.len() as u64);
            match reason {
                SealReason::Budget => m.add("serve_seal_budget_total", &[], 1),
                SealReason::Size => m.add("serve_seal_size_total", &[], 1),
            }
        });
        if key.class.is_write() {
            st.sealed_writes.push_back(batch);
        } else {
            st.sealed_reads.push_back(batch);
        }
    }

    /// Phase 4: fill free lanes from the sealed queues.
    fn dispatch_ready(&mut self, st: &mut RunState<D>, t: u64) {
        if st.write_flight.is_none() {
            if let Some(batch) = st.sealed_writes.pop_front() {
                st.write_flight = Some(self.execute(st, batch, t, false));
            }
        }
        if st.read_flight.is_none() {
            if let Some(batch) = st.sealed_reads.pop_front() {
                let use_snapshot = st.write_flight.is_some();
                st.read_flight = Some(self.execute(st, batch, t, use_snapshot));
            }
        }
    }

    /// Executes a batch at dispatch time and schedules its completion. A
    /// write batch forks the pre-write snapshot, then applies to the live
    /// tree; a read batch runs against the live tree, or — `use_snapshot`,
    /// a write is in flight — against that pinned snapshot. Whichever
    /// target is chosen is also asked, right there, for the two things the
    /// batch surface does not carry: its epoch and the round ids the batch
    /// spanned on its machine.
    fn execute(
        &mut self,
        st: &mut RunState<D>,
        batch: Sealed<D>,
        t: u64,
        use_snapshot: bool,
    ) -> Flight<D> {
        st.queued -= batch.reqs.len();
        let mut materialized = false;
        let (round_lo, fingerprints, round_hi, epoch, stats) = if batch.key.class.is_write() {
            let tree = &mut self.tree;
            let lo = tree.next_round_id();
            st.snapshot = Some((tree.snapshot(), false));
            let pts: Vec<Point<D>> = batch.reqs.iter().map(|q| point_of(&q.op)).collect();
            let fps = match batch.key.class {
                ReqClass::Insert => {
                    tree.batch_insert(&pts);
                    vec![1; pts.len()]
                }
                _ => vec![tree.batch_delete(&pts) as u64; pts.len()],
            };
            (lo, fps, tree.next_round_id(), tree.epoch(), tree.last_op_stats())
        } else if use_snapshot {
            self.metrics.with(|m| m.add("serve_snapshot_reads_total", &[], 1));
            let (snap, used) =
                st.snapshot.as_mut().expect("the write in flight forked its pre-write tree");
            materialized = !std::mem::replace(used, true);
            // A snapshot's machine continues the round counter from the
            // fork point; its ids are private to it (the link's `snapshot`
            // flag disambiguates).
            let lo = snap.next_round_id();
            let fps = run_read(snap, &batch);
            (lo, fps, snap.next_round_id(), snap.epoch(), snap.last_op_stats())
        } else {
            let tree = &mut self.tree;
            let lo = tree.next_round_id();
            let fps = run_read(tree, &batch);
            (lo, fps, tree.next_round_id(), tree.epoch(), tree.last_op_stats())
        };
        // Whole virtual µs, ≥ 1 so a completion never collides with its own
        // dispatch instant.
        let service_us = ((stats.breakdown.total_s() * 1e6).round() as u64).max(1);
        st.totals.add(stats);
        let (cpu_us, pim_us, comm_us) = split_service_us(service_us, &stats.breakdown);
        let record = BatchTrace {
            seq: batch.seq,
            class: batch.key.class.label(),
            n: batch.reqs.len() as u64,
            sealed_us: batch.sealed_us,
            dispatch_us: t,
            complete_us: t + service_us,
            service_us,
            cpu_us,
            pim_us,
            comm_us,
            epoch,
            snapshot: use_snapshot,
            materialized,
            seal: batch.reason.as_str(),
            round_lo,
            round_hi,
        };
        Flight { key: batch.key, reqs: batch.reqs, fingerprints, record }
    }
}

/// Executes one read batch against `target`, returning per-request result
/// fingerprints (see the module docs for the folding per class).
fn run_read<const D: usize>(target: &mut impl BatchRead<D>, batch: &Sealed<D>) -> Vec<u64> {
    match batch.key.class {
        ReqClass::Contains => {
            let pts: Vec<Point<D>> = batch.reqs.iter().map(|q| point_of(&q.op)).collect();
            target.batch_contains(&pts).into_iter().map(|b| b as u64).collect()
        }
        ReqClass::Knn => {
            let pts: Vec<Point<D>> = batch.reqs.iter().map(|q| point_of(&q.op)).collect();
            target
                .batch_knn(&pts, batch.key.k, Metric::L2)
                .into_iter()
                .map(|nbrs| {
                    nbrs.iter().fold(FNV_OFFSET, |fp, (id, p)| {
                        p.coords.iter().fold(fnv_fold(fp, *id), |fp, c| fnv_fold(fp, *c as u64))
                    })
                })
                .collect()
        }
        ReqClass::BoxCount => {
            let boxes: Vec<Aabb<D>> = batch.reqs.iter().map(|q| box_of(&q.op)).collect();
            target.batch_box_count(&boxes)
        }
        ReqClass::BoxFetch => {
            let boxes: Vec<Aabb<D>> = batch.reqs.iter().map(|q| box_of(&q.op)).collect();
            target
                .batch_box_fetch(&boxes)
                .into_iter()
                .map(|hits| {
                    hits.iter().fold(fnv_fold(FNV_OFFSET, hits.len() as u64), |fp, p| {
                        p.coords.iter().fold(fp, |fp, c| fnv_fold(fp, *c as u64))
                    })
                })
                .collect()
        }
        other => unreachable!("read lane got write class {other:?}"),
    }
}

/// The point payload of a point-carrying request.
fn point_of<const D: usize>(op: &ReqOp<D>) -> Point<D> {
    match op {
        ReqOp::Insert(p) | ReqOp::Delete(p) | ReqOp::Contains(p) | ReqOp::Knn(p, _) => *p,
        other => unreachable!("no point payload on {other:?}"),
    }
}

/// The box payload of a range request.
fn box_of<const D: usize>(op: &ReqOp<D>) -> Aabb<D> {
    match op {
        ReqOp::BoxCount(b) | ReqOp::BoxFetch(b) => *b,
        other => unreachable!("no box payload on {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::MachineConfig;
    use pim_workloads::{open_loop_trace, uniform, RequestMix};
    use pim_zd_tree::PimZdConfig;

    fn server(n: usize, seed: u64, cfg: ServeConfig) -> (PimServer<3>, Vec<Point<3>>) {
        let data = uniform::<3>(n, seed);
        let tree = PimZdTree::build(
            &data,
            PimZdConfig::throughput_optimized(n as u64, 16),
            MachineConfig::with_modules(16),
        );
        (PimServer::new(tree, cfg), data)
    }

    #[test]
    fn trace_replay_is_deterministic_and_replies_every_request() {
        let (mut s, data) = server(3_000, 1, ServeConfig::default());
        let trace = open_loop_trace(&data, 400, 20_000.0, &RequestMix::read_heavy(), 7);
        let rep = s.run_trace(&trace);
        assert_eq!(rep.replies.len(), trace.len(), "one reply per request");
        assert!(rep.replies.iter().enumerate().all(|(i, r)| r.id == i as u64));
        assert!(rep.batches > 0);

        let (mut s2, _) = server(3_000, 1, ServeConfig::default());
        let rep2 = s2.run_trace(&trace);
        assert_eq!(rep.results_jsonl(), rep2.results_jsonl());
        assert_eq!(rep.journal_jsonl(), rep2.journal_jsonl());
        assert_eq!(rep.results_digest(), rep2.results_digest());

        // An unsorted trace, ties included, runs as its stable sort by time.
        let mut shuffled = trace.clone();
        shuffled.arrivals.reverse();
        for a in shuffled.arrivals.iter_mut().step_by(3) {
            a.t_us -= a.t_us % 200;
        }
        let mut sorted = shuffled.clone();
        sorted.arrivals.sort_by_key(|a| a.t_us);
        assert!(sorted.arrivals.windows(2).any(|w| w[0].t_us == w[1].t_us), "ties occur");
        let (mut s3, _) = server(3_000, 1, ServeConfig::default());
        let (mut s4, _) = server(3_000, 1, ServeConfig::default());
        let (rep3, rep4) = (s3.run_trace(&shuffled), s4.run_trace(&sorted));
        assert_eq!(rep3.results_jsonl(), rep4.results_jsonl());
        assert_eq!(rep3.journal_jsonl(), rep4.journal_jsonl());
    }

    #[test]
    fn both_seal_reasons_occur_across_load_levels() {
        // Trickle: budget expiries dominate. Flood: size seals appear.
        let (mut s, data) = server(2_000, 2, ServeConfig::default());
        let trickle = open_loop_trace(&data, 60, 300.0, &RequestMix::read_heavy(), 3);
        let rep = s.run_trace(&trickle);
        assert!(rep.journal_jsonl().contains("\"seal\":\"budget\""), "{}", rep.journal_jsonl());

        let cfg = ServeConfig {
            policy: BatchPolicy { min_batch: 4, max_batch: 64, ..BatchPolicy::default() },
            ..ServeConfig::default()
        };
        let (mut s, data) = server(2_000, 2, cfg);
        let flood = open_loop_trace(&data, 800, 2_000_000.0, &RequestMix::read_heavy(), 3);
        let rep = s.run_trace(&flood);
        assert!(rep.journal_jsonl().contains("\"seal\":\"size\""), "{}", rep.journal_jsonl());
    }

    #[test]
    fn admission_control_rejects_past_queue_cap() {
        let cfg = ServeConfig { queue_cap: 8, ..ServeConfig::default() };
        let (mut s, data) = server(2_000, 3, cfg);
        // 200 requests in one virtual µs: far beyond an 8-slot queue.
        let flood = open_loop_trace(&data, 200, 200_000_000.0, &RequestMix::read_only(), 5);
        let rep = s.run_trace(&flood);
        assert!(rep.rejected > 0, "queue cap must bite");
        assert_eq!(rep.replies.len(), flood.len(), "rejections still reply");
        assert_eq!(rep.replies.iter().filter(|r| r.rejected).count() as u64, rep.rejected);
        assert!(rep.completed() + rep.rejected as usize == flood.len());
    }

    #[test]
    fn snapshot_reads_pin_the_pre_write_epoch() {
        let (mut s, data) = server(4_000, 4, ServeConfig::default());
        let epoch0 = s.tree().epoch();
        // Heavy write burst with reads interleaved at high rate, so read
        // batches dispatch while insert batches are (virtually) in flight.
        let mix = RequestMix { insert: 60, ..RequestMix::read_heavy() };
        let trace = open_loop_trace(&data, 600, 3_000_000.0, &mix, 11);
        let rep = s.run_trace(&trace);
        assert!(rep.snapshot_batches > 0, "expected mid-flight reads\n{}", rep.journal_jsonl());
        // Every snapshot read observed a consistent committed epoch, and
        // epochs only ever advanced.
        let mut last_write_epoch = epoch0;
        for r in &rep.replies {
            if r.rejected {
                continue;
            }
            if r.op == "insert" || r.op == "delete" {
                assert!(r.epoch > epoch0);
                last_write_epoch = last_write_epoch.max(r.epoch);
            } else {
                assert!(r.epoch <= last_write_epoch.max(epoch0) + 1);
            }
        }
    }

    #[test]
    fn writes_apply_and_reads_see_them_after_completion() {
        let (mut s, _) = server(2_000, 8, ServeConfig::default());
        let n0 = s.tree().len();
        // A burst of inserts at distinct far-away points, then (after the
        // write drains) contains probes for them.
        let fresh: Vec<Point<3>> =
            (0..40u32).map(|i| Point::new([100_000 + i, 100_000, 100_000])).collect();
        let mut arrivals: Vec<Arrival<3>> =
            fresh.iter().map(|p| Arrival { t_us: 0, op: ReqOp::Insert(*p) }).collect();
        arrivals.extend(fresh.iter().map(|p| Arrival { t_us: 1_000_000, op: ReqOp::Contains(*p) }));
        let rep = s.run_trace(&ArrivalTrace { arrivals });
        assert_eq!(s.tree().len(), n0 + 40);
        let probes: Vec<&Reply> = rep.replies.iter().filter(|r| r.op == "contains").collect();
        assert_eq!(probes.len(), 40);
        assert!(probes.iter().all(|r| r.fingerprint == 1), "late reads see the applied write");
    }

    #[test]
    fn metrics_families_are_populated() {
        let (mut s, data) = server(2_000, 9, ServeConfig::default());
        let m = Metrics::enabled_new();
        s.set_metrics(m.clone());
        let trace = open_loop_trace(&data, 200, 50_000.0, &RequestMix::read_heavy(), 17);
        let rep = s.run_trace(&trace);
        let text = m.snapshot_text().unwrap();
        for family in ["serve_requests_total", "serve_batches_total", "serve_latency_us"] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        assert!(rep.batches > 0);
    }
}
