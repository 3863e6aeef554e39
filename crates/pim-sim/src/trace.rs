//! Round-level trace journal.
//!
//! Every accounted BSP round (scatter/gather or broadcast) appends one
//! [`RoundRecord`] to the [`Journal`] attached to the
//! [`PimSystem`](crate::PimSystem), if one is. With none attached (the
//! default) the executor builds no record — tracing is zero-cost until a
//! journal is attached.
//!
//! A [`Journal`] is a cloneable handle over one record buffer: the system
//! appends through its copy while the caller keeps another and renders the
//! records to JSON Lines for offline analysis, e.g. by the `trace_summary`
//! bench binary, which reassembles the paper's Fig. 6 CPU/PIM/Comm breakdown
//! per phase.
//!
//! [`parse_jsonl`] reads such a file back into the records that wrote it.
//!
//! Phase labels come from [`PimSystem::scoped_phase`](crate::PimSystem::scoped_phase)
//! (or the lower-level `push_phase`/`pop_phase`): nested scopes join with
//! `/`, so a maintenance round inside a delete batch is labeled
//! `delete/maintain`.

use crate::fault::FaultEvent;
use crate::stats::RoundBreakdown;
use std::sync::{Arc, Mutex};

/// Number of log₂ buckets in the per-round cycle histogram.
pub const HIST_BUCKETS: usize = 16;

/// How many straggler module ids a record retains.
pub const TOP_STRAGGLERS: usize = 4;

/// Which executor entry point produced a round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RoundKind {
    /// `execute_round`: scatter to non-idle modules, gather replies.
    #[default]
    Execute,
    /// `broadcast`: one value replicated to all modules.
    Broadcast,
    /// `salvage`: one DMA read of a dead module's memory during recovery.
    Salvage,
}

crate::json::labels! {
    /// The kind's label in the journal.
    RoundKind::label { Execute => "Execute", Broadcast => "Broadcast", Salvage => "Salvage" }
}

/// One BSP round, as seen by the accountant.
///
/// Summing the breakdown/byte/cycle fields of every record of a run
/// reproduces the final [`SimStats`](crate::SimStats) exactly — by
/// construction: the executor builds each record from the very value it
/// feeds `SimStats` with — so a journal is a lossless refinement of the
/// lifetime counters.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundRecord {
    /// Round id: the number of accounted rounds before this one.
    pub round: u64,
    /// Phase label at emission time (`""` when unlabeled); nested scopes
    /// join with `/`, e.g. `insert/maintain`.
    pub phase: String,
    /// Executor entry point.
    pub kind: RoundKind,
    /// The round's time decomposition (Fig. 6 categories).
    pub breakdown: RoundBreakdown,
    /// Bytes scattered CPU → PIM.
    pub cpu_to_pim_bytes: u64,
    /// Bytes gathered PIM → CPU.
    pub pim_to_cpu_bytes: u64,
    /// Tasks scattered (total over modules; 1 for a broadcast value).
    pub tasks: u64,
    /// Replies gathered (total over modules).
    pub replies: u64,
    /// Modules that executed their handler.
    pub active_modules: u32,
    /// Straggler cycles (max over modules).
    pub max_cycles: u64,
    /// Mean cycles over all modules (idle ones count as 0).
    pub mean_cycles: f64,
    /// Total cycles over all modules.
    pub sum_cycles: u64,
    /// Log₂-bucket histogram of per-module cycles: bucket 0 counts idle
    /// modules, bucket `i ≥ 1` counts modules with `2^(i-1) ≤ c < 2^i`
    /// cycles (the last bucket absorbs everything larger).
    pub cycle_hist: [u32; HIST_BUCKETS],
    /// Module ids with the most cycles this round, busiest first (at most
    /// [`TOP_STRAGGLERS`]; idle modules never appear).
    pub stragglers: Vec<u32>,
    /// Fault and recovery events of the round, in module order (empty in
    /// fault-free rounds, and then omitted from the JSONL encoding so
    /// fault-free journals are byte-identical to pre-fault-plane ones).
    pub faults: Vec<FaultEvent>,
}

crate::json::record! {
    RoundRecord {
        "round": round, "phase": phase, "kind": kind, "breakdown": breakdown,
        "cpu_to_pim_bytes": cpu_to_pim_bytes, "pim_to_cpu_bytes": pim_to_cpu_bytes,
        "tasks": tasks, "replies": replies, "active_modules": active_modules,
        "max_cycles": max_cycles, "mean_cycles": mean_cycles, "sum_cycles": sum_cycles,
        "cycle_hist": cycle_hist, "stragglers": stragglers, "faults" ? faults
    }
}

/// Reads a JSON Lines journal (as [`Journal::to_jsonl`] writes it) back
/// into its records. Every key the writer always emits is required;
/// `faults`, which it leaves out of fault-free rounds, reads as empty.
/// Blank lines are skipped. Fails on the first malformed line, naming it:
/// journals are machine-written, and silence would hide truncation.
pub fn parse_jsonl(text: &str) -> Result<Vec<RoundRecord>, String> {
    crate::json::read_jsonl(text)
}

impl RoundRecord {
    /// Max/mean imbalance of the round (1.0 when no module did work).
    pub fn imbalance(&self) -> f64 {
        if self.mean_cycles <= 0.0 {
            1.0
        } else {
            self.max_cycles as f64 / self.mean_cycles
        }
    }
}

/// Builds the log₂ histogram and straggler list from per-module cycles.
pub fn summarize_cycles(cycles: &[u64]) -> ([u32; HIST_BUCKETS], Vec<u32>) {
    let mut hist = [0u32; HIST_BUCKETS];
    for &c in cycles {
        hist[crate::metrics::log2_bucket(c, HIST_BUCKETS)] += 1;
    }
    let mut busy: Vec<(u64, u32)> =
        cycles.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (c, i as u32)).collect();
    // Busiest first; ties broken by module id for determinism.
    busy.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    busy.truncate(TOP_STRAGGLERS);
    (hist, busy.into_iter().map(|(_, i)| i).collect())
}

/// A buffer of round records behind a cloneable handle: attach one copy to
/// a machine with [`PimSystem::set_journal`](crate::PimSystem::set_journal)
/// and read the records through another.
///
/// ```
/// use pim_sim::{Journal, MachineConfig, PimSystem};
///
/// let journal = Journal::new();
/// let mut sys = PimSystem::new(MachineConfig::with_modules(2), |_| 0u64);
/// sys.set_journal(Some(journal.clone()));
/// sys.scoped_phase("demo", |s| {
///     s.execute_round(vec![vec![1u32], vec![2u32]], |_, _, ctx, t| {
///         ctx.op(10);
///         t
///     })
/// });
/// let recs = journal.snapshot();
/// assert_eq!(recs.len(), 1);
/// assert_eq!(recs[0].phase, "demo");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Journal {
    buf: Arc<Mutex<Vec<RoundRecord>>>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one record.
    pub(crate) fn record(&self, rec: RoundRecord) {
        self.buf.lock().unwrap().push(rec);
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap().len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out all records buffered so far.
    pub fn snapshot(&self) -> Vec<RoundRecord> {
        self.buf.lock().unwrap().clone()
    }

    /// Renders the journal as JSON Lines (one record per line).
    pub fn to_jsonl(&self) -> String {
        crate::json::write_jsonl(self.buf.lock().unwrap().iter())
    }

    /// Writes the journal as JSON Lines to `path`.
    pub fn write_jsonl(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let (hist, stragglers) = summarize_cycles(&[0, 1, 2, 3, 4, 1 << 40]);
        assert_eq!(hist[0], 1, "idle module");
        assert_eq!(hist[1], 1, "c = 1");
        assert_eq!(hist[2], 2, "c in [2, 4)");
        assert_eq!(hist[3], 1, "c in [4, 8)");
        assert_eq!(hist[HIST_BUCKETS - 1], 1, "huge counts land in the last bucket");
        assert_eq!(stragglers[0], 5, "busiest module leads");
    }

    #[test]
    fn stragglers_are_sorted_and_capped() {
        let cycles: Vec<u64> = (0..10).map(|i| (i as u64) * 100).collect();
        let (_, s) = summarize_cycles(&cycles);
        assert_eq!(s, vec![9, 8, 7, 6]);
    }

    #[test]
    fn journal_roundtrips_to_jsonl() {
        let journal = Journal::new();
        journal.record(RoundRecord {
            round: 3,
            phase: "insert/maintain".into(),
            kind: RoundKind::Execute,
            breakdown: RoundBreakdown { pim_s: 1e-6, comm_s: 2e-6, overhead_s: 3e-6 },
            cpu_to_pim_bytes: 128,
            pim_to_cpu_bytes: 256,
            tasks: 4,
            replies: 2,
            active_modules: 2,
            max_cycles: 100,
            mean_cycles: 50.0,
            sum_cycles: 100,
            cycle_hist: [0; HIST_BUCKETS],
            stragglers: vec![1],
            faults: vec![],
        });
        assert_eq!(journal.len(), 1);
        let line = journal.to_jsonl();
        assert!(!line.contains("faults"), "fault-free records omit the faults key");
        assert_eq!(parse_jsonl(&line).unwrap(), journal.snapshot());
    }

    #[test]
    fn parse_is_strict_about_missing_keys_and_names_the_line() {
        let journal = Journal::new();
        journal.record(RoundRecord {
            round: 1,
            phase: "knn".into(),
            kind: RoundKind::Salvage,
            breakdown: RoundBreakdown { pim_s: 0.25, comm_s: 0.5, overhead_s: 0.125 },
            cpu_to_pim_bytes: 64,
            pim_to_cpu_bytes: 32,
            tasks: 3,
            replies: 2,
            active_modules: 2,
            max_cycles: 9,
            mean_cycles: 4.5,
            sum_cycles: 9,
            cycle_hist: [1; HIST_BUCKETS],
            stragglers: vec![1, 0],
            faults: vec![],
        });
        let line = journal.to_jsonl();
        let text = format!("\n{line}{}", line.replace("\"replies\":2,", ""));
        assert_eq!(parse_jsonl(&text).unwrap_err(), "line 3: missing \"replies\"");
        assert!(parse_jsonl("not json\n").unwrap_err().starts_with("line 1: "));
    }

    #[test]
    fn integers_a_field_cannot_hold_exactly_are_errors() {
        let journal = Journal::new();
        journal.record(RoundRecord {
            round: 1,
            phase: String::new(),
            kind: RoundKind::Broadcast,
            breakdown: RoundBreakdown::default(),
            cpu_to_pim_bytes: 64,
            pim_to_cpu_bytes: 0,
            tasks: 1,
            replies: 0,
            active_modules: 0,
            max_cycles: 0,
            mean_cycles: 0.0,
            sum_cycles: 0,
            cycle_hist: [0; HIST_BUCKETS],
            stragglers: vec![],
            faults: vec![],
        });
        let line = journal.to_jsonl();
        for (from, to) in [
            ("\"round\":1,", "\"round\":1e30,"),
            ("\"cpu_to_pim_bytes\":64", "\"cpu_to_pim_bytes\":9007199254740993"),
            ("\"active_modules\":0", "\"active_modules\":4294967296"),
        ] {
            let err = parse_jsonl(&line.replace(from, to)).unwrap_err();
            let key = &from[1..from.find(':').unwrap() - 1];
            assert!(err.starts_with(&format!("line 1: {key} is not ")), "{err}");
        }
    }

    #[test]
    fn fault_events_serialize_when_present() {
        use crate::fault::{FaultEvent, FaultKind};
        let journal = Journal::new();
        journal.record(RoundRecord {
            round: 0,
            phase: "search".into(),
            kind: RoundKind::Execute,
            breakdown: RoundBreakdown::default(),
            cpu_to_pim_bytes: 0,
            pim_to_cpu_bytes: 0,
            tasks: 0,
            replies: 0,
            active_modules: 0,
            max_cycles: 0,
            mean_cycles: 0.0,
            sum_cycles: 0,
            cycle_hist: [0; HIST_BUCKETS],
            stragglers: vec![],
            faults: vec![
                FaultEvent { module: 5, attempt: 0, kind: FaultKind::ReplyDrop },
                FaultEvent { module: 7, attempt: 0, kind: FaultKind::Death },
            ],
        });
        let line = journal.to_jsonl();
        assert!(line.contains(r#""faults":[{"module":5,"attempt":0,"kind":"ReplyDrop"}"#));
        assert_eq!(parse_jsonl(&line).unwrap(), journal.snapshot());
    }
}
