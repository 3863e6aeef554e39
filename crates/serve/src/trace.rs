//! Causal request tracing: per-request phase spans, batch↔round linkage,
//! and Chrome trace-event (Perfetto) export.
//!
//! # Model
//!
//! Every admitted request gets a deterministic [`TraceId`] — its 0-based
//! admission index, the same number its [`Reply`] carries — and one
//! [`RequestTrace`] describing its whole life through the batcher state
//! machine (enqueue → seal → dispatch → reply) as **exact integer spans in
//! virtual µs**:
//!
//! ```text
//! arrival ──queue──▶ sealed ──wait──▶ dispatch ──cpu──pim──comm──▶ reply
//! ```
//!
//! The five spans sum to the request's `latency_us` *exactly* (tested for
//! 100% of completed requests): `queue_us` and `wait_us` fall out of the
//! batcher timestamps, and the batch's service time is split into
//! cpu/pim/comm µs by [`split_service_us`], a largest-remainder integer
//! apportionment of the simulator's [`OpBreakdown`] that loses nothing to
//! rounding.
//!
//! Each executed batch is one [`BatchTrace`], built when the batch executes,
//! carrying the cross-layer link: the half-open range `[round_lo, round_hi)`
//! of [`RoundRecord`] ids the batch produced, read from the executing
//! machine's monotonic round counter immediately before and after
//! execution. A `Reply` therefore resolves to its batch journal entry, which
//! resolves to its BSP rounds and their Fig-6 phase breakdowns. Snapshot
//! read batches run on the snapshot's *private* machine, whose counter
//! continues from the point the snapshot was forked — their ranges may
//! overlap later live ids, so every link carries the `snapshot` flag as the
//! disambiguating key (only live ranges index into the live round journal).
//!
//! # Contracts
//!
//! * **One record, many views** — a run records its batches once (the
//!   [`ServeReport::journal`]) and its requests once (the replies);
//!   [`ServeTrace::of`] derives the span record from those two lists, so
//!   there is no second recording path to keep in step and tracing cannot
//!   perturb virtual time. [`PimServer::set_tracing`](crate::PimServer::set_tracing)
//!   only asks for that view to be kept after each run.
//! * **Determinism** — all span data derives from virtual-time state, so
//!   the span stream, both JSONL renderings, and the trace-event export
//!   are byte-identical at any host thread count
//!   (`tests/request_tracing.rs`).

use pim_sim::json::{self, FromJson, Object, Serialize, Value};
use pim_sim::RoundRecord;
use pim_workloads::ReqClass;
use pim_zd_tree::OpBreakdown;

use crate::report::{Reply, ServeReport};

/// Deterministic identity of one request: its 0-based admission index,
/// assigned at arrival (trace order for replays). Equal to the `id` of the
/// request's [`Reply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl Serialize for TraceId {
    fn json_write(&self, out: &mut String) {
        self.0.json_write(out)
    }
}

impl FromJson for TraceId {
    fn from_json(v: &Value, key: &str) -> Result<Self, String> {
        u64::from_json(v, key).map(TraceId)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The recorded life of one request, as exact virtual-µs spans.
///
/// For a completed request `queue_us + wait_us + cpu_us + pim_us +
/// comm_us == latency_us` exactly. A rejected request has every span 0, no
/// batch, and its seal, dispatch and completion at its arrival.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestTrace {
    /// The request's trace id (= reply id).
    pub id: TraceId,
    /// Stable class label (`insert`, `contains`, …).
    pub op: &'static str,
    /// Sequence number of the batch that served it (`None` when rejected).
    pub batch: Option<u64>,
    /// Virtual arrival time.
    pub arrival_us: u64,
    /// Virtual time the request's batch sealed (arrival time if rejected).
    pub sealed_us: u64,
    /// Virtual time the batch dispatched.
    pub dispatch_us: u64,
    /// Virtual reply time.
    pub complete_us: u64,
    /// Time queued before the batch sealed (`sealed_us - arrival_us`).
    pub queue_us: u64,
    /// Time sealed but waiting for a free lane (`dispatch_us - sealed_us`).
    pub wait_us: u64,
    /// Host-CPU share of the batch's service time.
    pub cpu_us: u64,
    /// PIM-module share of the batch's service time.
    pub pim_us: u64,
    /// Channel-transfer share of the batch's service time.
    pub comm_us: u64,
    /// Whether admission control rejected the request.
    pub rejected: bool,
}

impl RequestTrace {
    /// The spans of a request turned away at `arrival_us`.
    fn refused(id: TraceId, op: &'static str, arrival_us: u64) -> Self {
        Self {
            id,
            op,
            batch: None,
            arrival_us,
            sealed_us: arrival_us,
            dispatch_us: arrival_us,
            complete_us: arrival_us,
            queue_us: 0,
            wait_us: 0,
            cpu_us: 0,
            pim_us: 0,
            comm_us: 0,
            rejected: true,
        }
    }

    /// Reply latency in virtual µs (0 for rejected requests).
    pub fn latency_us(&self) -> u64 {
        self.complete_us - self.arrival_us
    }

    /// The five phase spans: queue, wait, cpu, pim, comm.
    pub fn phases(&self) -> [u64; 5] {
        [self.queue_us, self.wait_us, self.cpu_us, self.pim_us, self.comm_us]
    }

    /// Sum of the five phase spans; equals [`Self::latency_us`] for every
    /// completed request (the tracer's exactness invariant).
    pub fn span_sum_us(&self) -> u64 {
        self.phases().iter().sum()
    }

    /// The latency a completed request's spans line carries (`None` when
    /// `complete_us < arrival_us`, which no run records).
    fn checked_latency_us(&self) -> Option<u64> {
        self.complete_us.checked_sub(self.arrival_us)
    }
}

json::record! {
    RequestTrace {
        if rejected {
            "id": id, "op": op as ReqClass, "arrival_us": arrival_us;
            ..RequestTrace::refused(id, op, arrival_us)
        } else {
            "id": id, "op": op as ReqClass, "batch": batch as u64, "arrival_us": arrival_us,
            "sealed_us": sealed_us, "dispatch_us": dispatch_us, "complete_us": complete_us,
            "queue_us": queue_us, "wait_us": wait_us, "cpu_us": cpu_us, "pim_us": pim_us,
            "comm_us": comm_us; "latency_us" == checked_latency_us
        }
    }
}

/// Reads a `spans.jsonl` document (as [`ServeTrace::spans_jsonl`] writes
/// it) back into its records. Strict: a line that is not JSON, lacks a key
/// the writer always emits, names an unknown class, or whose `latency_us`
/// is not `complete_us - arrival_us` is an error naming the line. Blank
/// lines are skipped. Whether the spans sum to the latency is left to the
/// consumer (`pim_bench::tail::summarize` refuses rows that do not).
pub fn parse_spans_jsonl(text: &str) -> Result<Vec<RequestTrace>, String> {
    json::read_jsonl(text)
}

/// The recorded life of one executed batch, with its round-id link. The
/// serving journal ([`ServeReport::journal`]) is a list of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchTrace {
    /// Batch sequence number (dispatch order within each lane).
    pub seq: u64,
    /// Class label of the batch.
    pub class: &'static str,
    /// Requests in the batch.
    pub n: u64,
    /// Virtual seal time.
    pub sealed_us: u64,
    /// Virtual dispatch time.
    pub dispatch_us: u64,
    /// Virtual completion time.
    pub complete_us: u64,
    /// Service time (`complete_us - dispatch_us`).
    pub service_us: u64,
    /// Host-CPU share of `service_us` (see [`split_service_us`]).
    pub cpu_us: u64,
    /// PIM share of `service_us`.
    pub pim_us: u64,
    /// Channel share of `service_us`.
    pub comm_us: u64,
    /// Epoch the batch observed or produced (reply semantics).
    pub epoch: u64,
    /// Whether the batch ran against an epoch snapshot. Snapshot round ids
    /// live in the snapshot machine's private counter (continued from the
    /// fork point) and must not be resolved against the live round journal.
    pub snapshot: bool,
    /// Whether this dispatch was the first read served by its epoch's
    /// snapshot (false for later reads of the same snapshot and for live
    /// batches).
    pub materialized: bool,
    /// Seal reason label (`budget` / `size`).
    pub seal: &'static str,
    /// First round id produced by the batch (inclusive).
    pub round_lo: u64,
    /// One past the last round id produced by the batch.
    pub round_hi: u64,
}

impl BatchTrace {
    /// Whether `round` (a live-journal round id) belongs to this batch.
    /// Always false for snapshot batches — their ids are in a private
    /// counter space.
    pub fn owns_round(&self, round: u64) -> bool {
        !self.snapshot && round >= self.round_lo && round < self.round_hi
    }
}

json::record! {
    write BatchTrace {
        "batch": seq, "class": class, "n": n, "sealed_us": sealed_us, "dispatch_us": dispatch_us,
        "complete_us": complete_us, "service_us": service_us, "cpu_us": cpu_us, "pim_us": pim_us,
        "comm_us": comm_us, "epoch": epoch, "snapshot": snapshot, "materialized": materialized,
        "seal": seal, "round_lo": round_lo, "round_hi": round_hi
    }
}

/// A batch's serving-journal line (`serving.jsonl`): ten of its record's
/// keys.
pub(crate) struct JournalLine<'a>(pub(crate) &'a BatchTrace);

impl std::ops::Deref for JournalLine<'_> {
    type Target = BatchTrace;

    fn deref(&self) -> &BatchTrace {
        self.0
    }
}

json::record! {
    write JournalLine<'_> {
        "batch": seq, "class": class, "n": n, "sealed_us": sealed_us, "dispatch_us": dispatch_us,
        "complete_us": complete_us, "epoch": epoch, "snapshot": snapshot, "seal": seal,
        "service_us": service_us
    }
}

/// Splits an integer service time into (cpu, pim, comm) µs proportional to
/// the simulator's [`OpBreakdown`], by floor-then-largest-remainder
/// apportionment: the three parts always sum to `service_us` exactly, and
/// the result is a deterministic function of its inputs. Ties in the
/// fractional remainders break in (cpu, pim, comm) order. A zero breakdown
/// attributes everything to cpu (the µs floor of `service_of` can exceed a
/// sub-µs simulated time).
pub fn split_service_us(service_us: u64, b: &OpBreakdown) -> (u64, u64, u64) {
    let parts = [b.cpu_s.max(0.0), b.pim_s.max(0.0), b.comm_s.max(0.0)];
    let total: f64 = parts.iter().sum();
    if total <= 0.0 {
        return (service_us, 0, 0);
    }
    let mut floors = [0u64; 3];
    let mut fracs = [0.0f64; 3];
    for i in 0..3 {
        let exact = parts[i] / total * service_us as f64;
        floors[i] = exact as u64; // trunc == floor for non-negative
        fracs[i] = exact - floors[i] as f64;
    }
    let mut rem = service_us - floors.iter().sum::<u64>();
    // Largest fractional remainder first; ties by index for determinism.
    let mut order = [0usize, 1, 2];
    order.sort_by(|&a, &b| fracs[b].partial_cmp(&fracs[a]).unwrap().then(a.cmp(&b)));
    for &i in order.iter().cycle() {
        if rem == 0 {
            break;
        }
        floors[i] += 1;
        rem -= 1;
    }
    (floors[0], floors[1], floors[2])
}

/// The complete span record of one serving run: requests sorted by id,
/// batches by sequence number. Derived from a [`ServeReport`] by
/// [`ServeTrace::of`]; [`PimServer::take_trace`](crate::PimServer::take_trace)
/// hands out the last run's.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeTrace {
    /// One entry per request (admitted and rejected), sorted by id.
    pub requests: Vec<RequestTrace>,
    /// One entry per executed batch, sorted by sequence number.
    pub batches: Vec<BatchTrace>,
}

/// The class a recorded label names.
fn class_of(label: &str) -> ReqClass {
    ReqClass::from_label(label).expect("a recorded class label")
}

/// One pending trace event, sortable into per-track monotone order.
struct Ev {
    pid: u64,
    tid: u64,
    ts: u64,
    json: String,
}

/// Queues one event of phase `ph` at `ts` on track `(pid, tid)`; `rest` is
/// the JSON after `ts` (`,"dur":…`, `,"args":{…}`, or nothing).
fn push_ev(evs: &mut Vec<Ev>, name: &str, ph: &str, (pid, tid): (u64, u64), ts: u64, rest: &str) {
    let mut json = String::from("{\"name\":");
    name.json_write(&mut json);
    json.push_str(&format!(",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}{rest}}}"));
    evs.push(Ev { pid, tid, ts, json });
}

fn meta(pid: u64, tid: Option<u64>, what: &str, name: &str) -> String {
    let mut json = format!("{{\"name\":\"{what}\",\"ph\":\"M\",\"pid\":{pid}");
    if let Some(tid) = tid {
        json.push_str(&format!(",\"tid\":{tid}"));
    }
    json.push_str(",\"args\":{\"name\":");
    name.json_write(&mut json);
    json.push_str("}}");
    json
}

impl ServeTrace {
    /// The span view of a run: its journal sorted by sequence number, and
    /// one [`RequestTrace`] per reply, whose spans are cut from the reply's
    /// batch record.
    pub fn of(report: &ServeReport) -> Self {
        let mut trace = Self { requests: Vec::new(), batches: report.journal.clone() };
        trace.batches.sort_by_key(|b| b.seq);
        let request = |r: &Reply| {
            let Some(seq) = r.batch else {
                return RequestTrace::refused(TraceId(r.id), r.op, r.arrival_us);
            };
            let b = trace.batch(seq).expect("a reply's batch is journaled");
            RequestTrace {
                id: TraceId(r.id),
                op: r.op,
                batch: Some(seq),
                arrival_us: r.arrival_us,
                sealed_us: b.sealed_us,
                dispatch_us: b.dispatch_us,
                complete_us: b.complete_us,
                queue_us: b.sealed_us - r.arrival_us,
                wait_us: b.dispatch_us - b.sealed_us,
                cpu_us: b.cpu_us,
                pim_us: b.pim_us,
                comm_us: b.comm_us,
                rejected: false,
            }
        };
        trace.requests = report.replies.iter().map(request).collect();
        trace
    }

    /// Per-request spans as canonical JSONL (one line per request, id
    /// order). This is `tail_report`'s input (`spans.jsonl`); read it back
    /// with [`parse_spans_jsonl`].
    pub fn spans_jsonl(&self) -> String {
        json::write_jsonl(&self.requests)
    }

    /// Per-batch link records as canonical JSONL (`batches.jsonl`).
    pub fn batches_jsonl(&self) -> String {
        json::write_jsonl(&self.batches)
    }

    /// The batch trace with sequence number `seq`, if any.
    pub fn batch(&self, seq: u64) -> Option<&BatchTrace> {
        self.batches.binary_search_by_key(&seq, |b| b.seq).ok().map(|i| &self.batches[i])
    }

    /// Renders the run as Chrome trace-event JSON, loadable in Perfetto
    /// (`ui.perfetto.dev`) or `chrome://tracing`. Timestamps are virtual
    /// µs. Three processes:
    ///
    /// * pid 1 `requests` — one track per request class; every completed
    ///   request contributes one complete (`X`) event per non-trivial
    ///   phase span, tagged with its trace id and batch.
    /// * pid 2 `lanes` — the exclusive write and read lanes; every batch
    ///   is one `B`/`E` duration pair over its flight window (the lanes
    ///   hold at most one batch each, so the pairs nest trivially).
    /// * pid 3 `modules` — one track per straggler module rank; every BSP
    ///   round of a **live** batch (resolved through the batch's round-id
    ///   range into `rounds`) is an `X` event on its busiest module's
    ///   track, laid out sequentially from the batch's dispatch.
    ///
    /// Events are ordered so `ts` is monotone non-decreasing within every
    /// `(pid, tid)` track — the shape `fig_serving` validates before it
    /// writes the export. Byte-identical output at any host thread count.
    pub fn trace_events(&self, rounds: &[RoundRecord]) -> String {
        let mut evs: Vec<Ev> = Vec::new();

        // pid 1: request class tracks.
        for r in &self.requests {
            if r.rejected {
                continue;
            }
            let track = (1, class_of(r.op) as u64);
            let mut args = String::new();
            Object::new(&mut args).key("trace_id", &r.id).key("batch", &r.batch).end();
            let spans = [
                ("queue", r.arrival_us, r.queue_us),
                ("wait", r.sealed_us, r.wait_us),
                ("cpu", r.dispatch_us, r.cpu_us),
                ("pim", r.dispatch_us + r.cpu_us, r.pim_us),
                ("comm", r.dispatch_us + r.cpu_us + r.pim_us, r.comm_us),
            ];
            for (name, ts, dur) in spans {
                if dur > 0 {
                    push_ev(
                        &mut evs,
                        name,
                        "X",
                        track,
                        ts,
                        &format!(",\"dur\":{dur},\"args\":{args}"),
                    );
                }
            }
        }

        // pid 2: lane tracks (B/E pairs; each lane is exclusive, so pairs
        // are sequential and balance trivially).
        for b in &self.batches {
            let track = (2, u64::from(!class_of(b.class).is_write()));
            let name = format!("{}#{}", b.class, b.seq);
            let mut args = String::new();
            Object::new(&mut args)
                .key("batch", &b.seq)
                .key("n", &b.n)
                .key("epoch", &b.epoch)
                .key("snapshot", &b.snapshot)
                .key("seal", b.seal)
                .key("round_lo", &b.round_lo)
                .key("round_hi", &b.round_hi)
                .end();
            push_ev(&mut evs, &name, "B", track, b.dispatch_us, &format!(",\"args\":{args}"));
            push_ev(&mut evs, &name, "E", track, b.complete_us, "");
        }

        // pid 3: module tracks — live batches' rounds on their busiest
        // module's track, laid out sequentially from the dispatch instant.
        let mut module_tids: Vec<u64> = Vec::new();
        for b in &self.batches {
            if b.snapshot {
                continue;
            }
            let lo = rounds.partition_point(|r| r.round < b.round_lo);
            let mut offset = 0u64;
            for r in &rounds[lo..] {
                if r.round >= b.round_hi {
                    break;
                }
                let dur = ((r.breakdown.pim_s + r.breakdown.comm_s + r.breakdown.overhead_s) * 1e6)
                    .round() as u64;
                if let Some(&m) = r.stragglers.first() {
                    let tid = m as u64;
                    if !module_tids.contains(&tid) {
                        module_tids.push(tid);
                    }
                    let name = if r.phase.is_empty() { "round" } else { r.phase.as_str() };
                    let mut args = String::new();
                    Object::new(&mut args)
                        .key("round", &r.round)
                        .key("batch", &b.seq)
                        .key("tasks", &r.tasks)
                        .key("max_cycles", &r.max_cycles)
                        .end();
                    let rest = format!(",\"dur\":{dur},\"args\":{args}");
                    push_ev(&mut evs, name, "X", (3, tid), b.dispatch_us + offset, &rest);
                }
                offset += dur;
            }
        }

        // Stable sort groups tracks and makes ts monotone per track while
        // preserving emission order on ties (E before the next B).
        evs.sort_by_key(|e| (e.pid, e.tid, e.ts));

        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |line: String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(&line);
        };
        for (pid, name) in [(1, "requests"), (2, "lanes"), (3, "modules")] {
            push(meta(pid, None, "process_name", name), &mut first);
        }
        for class in ReqClass::ALL {
            push(meta(1, Some(class as u64), "thread_name", class.label()), &mut first);
        }
        push(meta(2, Some(0), "thread_name", "write lane"), &mut first);
        push(meta(2, Some(1), "thread_name", "read lane"), &mut first);
        module_tids.sort_unstable();
        for tid in module_tids {
            push(meta(3, Some(tid), "thread_name", &format!("module {tid}")), &mut first);
        }
        for e in evs {
            push(e.json, &mut first);
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(cpu: f64, pim: f64, comm: f64) -> OpBreakdown {
        OpBreakdown { cpu_s: cpu, pim_s: pim, comm_s: comm }
    }

    #[test]
    fn split_is_exact_and_deterministic() {
        for (us, b) in [
            (1, bd(0.0, 0.0, 0.0)),
            (1, bd(1e-7, 2e-7, 3e-7)),
            (1000, bd(0.3, 0.3, 0.4)),
            (997, bd(1.0, 1.0, 1.0)),
            (123_456, bd(5e-3, 1e-2, 2e-3)),
        ] {
            let (c, p, m) = split_service_us(us, &b);
            assert_eq!(c + p + m, us, "split must be exact for {us} {b:?}");
            assert_eq!((c, p, m), split_service_us(us, &b), "split must be deterministic");
        }
    }

    #[test]
    fn split_follows_proportions() {
        let (c, p, m) = split_service_us(1_000, &bd(0.1, 0.7, 0.2));
        assert_eq!((c, p, m), (100, 700, 200));
        let (c, p, m) = split_service_us(10, &bd(0.0, 1.0, 0.0));
        assert_eq!((c, p, m), (0, 10, 0));
    }

    #[test]
    fn request_spans_sum_to_latency() {
        let r = RequestTrace {
            id: TraceId(7),
            op: "knn",
            batch: Some(3),
            arrival_us: 10,
            sealed_us: 25,
            dispatch_us: 30,
            complete_us: 100,
            queue_us: 15,
            wait_us: 5,
            cpu_us: 20,
            pim_us: 40,
            comm_us: 10,
            rejected: false,
        };
        assert_eq!(r.latency_us(), 90);
        assert_eq!(r.span_sum_us(), 90);
        let mut line = String::new();
        r.json_write(&mut line);
        assert!(line.contains("\"latency_us\":90"), "{line}");
        assert!(line.contains("\"batch\":3"), "{line}");
    }

    #[test]
    fn span_reader_is_strict_and_names_the_line() {
        let ok = "{\"id\":0,\"op\":\"knn\",\"batch\":2,\"arrival_us\":10,\"sealed_us\":25,\
                  \"dispatch_us\":30,\"complete_us\":100,\"queue_us\":15,\"wait_us\":5,\
                  \"cpu_us\":20,\"pim_us\":40,\"comm_us\":10,\"latency_us\":90}";
        let refused = "{\"id\":1,\"op\":\"insert\",\"arrival_us\":7,\"rejected\":true}";
        let rows = parse_spans_jsonl(&format!("{ok}\n\n{refused}\n")).unwrap();
        assert_eq!(rows[0].span_sum_us(), 90);
        assert_eq!(rows[1], RequestTrace::refused(TraceId(1), "insert", 7));
        for (bad, what) in [
            (ok.replace("\"knn\"", "\"scan\""), "unknown op \"scan\""),
            (ok.replace("\"wait_us\":5,", ""), "missing \"wait_us\""),
            (ok.replace("\"latency_us\":90", "\"latency_us\":91"), "latency_us 91"),
            ("not json".to_string(), ""),
        ] {
            let err = parse_spans_jsonl(&format!("{refused}\n{bad}\n")).unwrap_err();
            assert!(err.starts_with("line 2: ") && err.contains(what), "{err}");
        }
    }

    #[test]
    fn span_reader_refuses_times_a_u64_cannot_hold() {
        for line in [
            "{\"id\":1,\"op\":\"insert\",\"arrival_us\":1e300,\"rejected\":true}",
            "{\"id\":0,\"op\":\"knn\",\"batch\":2,\"arrival_us\":1e300,\"sealed_us\":25,\
             \"dispatch_us\":30,\"complete_us\":100,\"queue_us\":15,\"wait_us\":5,\
             \"cpu_us\":20,\"pim_us\":40,\"comm_us\":10,\"latency_us\":90}",
        ] {
            let err = parse_spans_jsonl(line).unwrap_err();
            assert!(err.starts_with("line 1: arrival_us is not a u64"), "{err}");
        }
    }

    #[test]
    fn trace_event_export_is_valid_shape() {
        let trace = ServeTrace {
            requests: vec![RequestTrace {
                id: TraceId(0),
                op: "contains",
                batch: Some(0),
                arrival_us: 0,
                sealed_us: 4,
                dispatch_us: 6,
                complete_us: 16,
                queue_us: 4,
                wait_us: 2,
                cpu_us: 3,
                pim_us: 5,
                comm_us: 2,
                rejected: false,
            }],
            batches: vec![BatchTrace {
                seq: 0,
                class: "contains",
                n: 1,
                sealed_us: 4,
                dispatch_us: 6,
                complete_us: 16,
                service_us: 10,
                cpu_us: 3,
                pim_us: 5,
                comm_us: 2,
                epoch: 0,
                snapshot: false,
                materialized: false,
                seal: "budget",
                round_lo: 0,
                round_hi: 0,
            }],
        };
        let text = trace.trace_events(&[]);
        let v = serde_json::from_str(&text).expect("export parses as JSON");
        let evs = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let bs = evs.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("B")).count();
        let es = evs.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("E")).count();
        assert_eq!(bs, es, "every B has an E");
        assert!(evs.iter().any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")));
        assert_eq!(trace.batch(0).unwrap().seq, 0);
        assert!(trace.batch(1).is_none());
    }
}
