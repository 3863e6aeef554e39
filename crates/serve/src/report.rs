//! Artifacts of a serving run: per-request replies, the batch journal, and
//! the aggregate report.
//!
//! A run records each request once, as a [`Reply`], and each executed batch
//! once, as a [`BatchTrace`] in [`ServeReport::journal`]; every other view —
//! the counts here, the span record of [`crate::trace`] — is derived from
//! those two lists. Everything is rendered in canonical forms (JSONL with
//! fixed key order, FNV-1a digests) so two runs can be compared byte for
//! byte — the serving layer's determinism contract
//! (`tests/serving_determinism.rs`) is stated directly over these artifacts.

use pim_sim::wire::fnv1a;
use pim_sim::{json, Samples};
use pim_zd_tree::OpStats;

use crate::trace::{BatchTrace, JournalLine};

/// The fate of one request.
///
/// Every admitted request gets exactly one reply when its batch's virtual
/// BSP round completes; a request rejected by admission control gets an
/// immediate reply with [`Reply::rejected`] set (its `dispatch_us` and
/// `complete_us` equal the arrival time, its fingerprint is 0 and it names
/// no batch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    /// Request id: the 0-based admission order (trace order for replays).
    pub id: u64,
    /// Stable class label (`insert`, `delete`, `contains`, `knn`,
    /// `box_count`, `box_fetch`).
    pub op: &'static str,
    /// Sequence number of the batch that served the request, its entry in
    /// [`ServeReport::journal`] (`None` when rejected).
    pub batch: Option<u64>,
    /// Virtual arrival time in µs.
    pub arrival_us: u64,
    /// Virtual time the request's batch was dispatched.
    pub dispatch_us: u64,
    /// Virtual time the batch's round completed (reply time).
    pub complete_us: u64,
    /// Epoch the request observed: for reads, the epoch of the view it ran
    /// against (snapshot reads report the pinned pre-batch epoch); for
    /// writes, the epoch the batch produced.
    pub epoch: u64,
    /// FNV-1a fingerprint of the request's result (see module docs of
    /// `server` for the per-class folding); 0 for rejected requests.
    /// Delete replies carry the *batch's* removed-count, since the
    /// underlying `batch_delete` reports one aggregate count per batch.
    pub fingerprint: u64,
    /// Whether admission control rejected the request.
    pub rejected: bool,
}

impl Reply {
    /// Reply latency in virtual µs (0 for rejected requests).
    pub fn latency_us(&self) -> u64 {
        self.complete_us - self.arrival_us
    }
}

pim_sim::json::record! {
    write Reply {
        if rejected {
            "id": id, "op": op, "arrival_us": arrival_us
        } else {
            "id": id, "op": op, "arrival_us": arrival_us, "dispatch_us": dispatch_us,
            "complete_us": complete_us, "epoch": epoch, "fp": fingerprint
        }
    }
}

/// Why a batch was sealed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SealReason {
    /// The oldest queued request of the class aged past the latency budget.
    Budget,
    /// The class queue reached the adaptive size target.
    Size,
}

impl SealReason {
    /// Journal label (`budget` / `size`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SealReason::Budget => "budget",
            SealReason::Size => "size",
        }
    }
}

/// Simulated-cost totals accumulated across every executed batch (live and
/// snapshot reads both count — a snapshot round is still simulated work).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Host CPU seconds.
    pub cpu_s: f64,
    /// PIM module seconds.
    pub pim_s: f64,
    /// Channel transfer seconds.
    pub comm_s: f64,
    /// BSP rounds.
    pub rounds: u64,
    /// Bytes crossing the memory channel.
    pub channel_bytes: u64,
    /// Host DRAM bytes touched.
    pub cpu_dram_bytes: u64,
}

impl Totals {
    /// Accumulates one batch's [`OpStats`].
    pub fn add(&mut self, s: &OpStats) {
        self.cpu_s += s.breakdown.cpu_s;
        self.pim_s += s.breakdown.pim_s;
        self.comm_s += s.breakdown.comm_s;
        self.rounds += s.rounds;
        self.channel_bytes += s.channel_bytes;
        self.cpu_dram_bytes += s.cpu_dram_bytes;
    }
}

/// The complete artifact set of one serving run.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// One reply per request, sorted by request id.
    pub replies: Vec<Reply>,
    /// Number of executed batches (the journal's length).
    pub batches: u64,
    /// Of those, how many read batches ran against an epoch snapshot.
    pub snapshot_batches: u64,
    /// Requests turned away by admission control.
    pub rejected: u64,
    /// Virtual time of the last event in the run.
    pub makespan_us: u64,
    /// One record per executed batch, in completion order.
    pub journal: Vec<BatchTrace>,
    /// Aggregate simulated cost of every executed batch.
    pub totals: Totals,
}

impl ServeReport {
    /// The batch journal as JSONL, one line per batch in completion order
    /// (seal/dispatch/complete times, epoch, snapshot flag, seal reason,
    /// service time; `batches.jsonl` carries the full record).
    pub fn journal_jsonl(&self) -> String {
        json::write_jsonl(self.journal.iter().map(JournalLine))
    }

    /// All replies in canonical JSONL (one line per request, id order).
    pub fn results_jsonl(&self) -> String {
        json::write_jsonl(&self.replies)
    }

    /// FNV-1a digest over [`Self::results_jsonl`] — a one-number summary of
    /// every result, reply time, and epoch in the run.
    pub fn results_digest(&self) -> u64 {
        fnv1a(self.results_jsonl().as_bytes())
    }

    /// Number of requests that completed (admitted and replied).
    pub fn completed(&self) -> usize {
        self.replies.iter().filter(|r| !r.rejected).count()
    }

    /// Achieved goodput in requests per virtual second.
    pub fn achieved_rate(&self) -> f64 {
        if self.makespan_us == 0 {
            0.0
        } else {
            self.completed() as f64 / (self.makespan_us as f64 / 1e6)
        }
    }

    /// Reply latencies in virtual µs of completed requests, optionally
    /// restricted to one class label. Empty when nothing matched.
    pub fn latency_us(&self, class: Option<&str>) -> Samples {
        let mut s = Samples::new();
        for r in &self.replies {
            if !r.rejected && class.is_none_or(|c| c == r.op) {
                s.push(r.latency_us() as f64);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(id: u64, arrival: u64, complete: u64, rejected: bool) -> Reply {
        Reply {
            id,
            op: "contains",
            batch: (!rejected).then_some(0),
            arrival_us: arrival,
            dispatch_us: arrival + 1,
            complete_us: complete,
            epoch: 0,
            fingerprint: 7,
            rejected,
        }
    }

    #[test]
    fn jsonl_and_digest_are_stable() {
        let rep = ServeReport {
            replies: vec![reply(0, 5, 40, false), reply(1, 6, 6, true)],
            makespan_us: 40,
            ..ServeReport::default()
        };
        let text = rep.results_jsonl();
        assert_eq!(
            text,
            "{\"id\":0,\"op\":\"contains\",\"arrival_us\":5,\"dispatch_us\":6,\
             \"complete_us\":40,\"epoch\":0,\"fp\":7}\n\
             {\"id\":1,\"op\":\"contains\",\"arrival_us\":6,\"rejected\":true}\n"
        );
        assert_eq!(rep.results_digest(), rep.clone().results_digest());
        assert_eq!(rep.completed(), 1);
        let mut lat = rep.latency_us(None);
        assert_eq!(lat.len(), 1);
        assert_eq!(lat.quantile(0.5), 35.0);
    }
}
