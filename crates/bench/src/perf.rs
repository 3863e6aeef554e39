//! Machine-readable perf reports.
//!
//! [`PerfSink`] is the one path from a built tree to a row in a report.
//! [`PerfSink::attach`] puts a `PimZdTree` under every flag of the run —
//! the metrics registry behind `--json PATH` (a versioned perf report) and
//! `--metrics PATH` (the Prometheus-style snapshot), the `--fault-rate` /
//! `--fault-seed` plan and the `--trace PATH` round journal — and
//! `--profile PATH` turns on the host wall-clock profiler for the whole
//! run. Every row is cut from one [`OpStats`] by [`PerfEntry::of`] (the
//! harness's `run_cell` returns it) and filed under its dataset by
//! [`PerfSink::push`]. With none of the flags given, the binaries' stdout
//! is byte-identical to a build without this module.
//!
//! Reports follow schema [`SCHEMA`] and hold only simulated quantities
//! (throughput, traffic, simulated seconds, rounds, latency), which are
//! deterministic per config and thread count. A committed report is
//! therefore checked by comparing a fresh one with it byte for byte; host
//! wall-clock belongs to `--profile`. (`fig_durability`, which times real
//! file I/O, is the one binary whose rows are host seconds.)

use crate::BenchArgs;
use pim_sim::json::{self, FromJson, Serialize, Value};
use pim_zd_tree::{OpStats, PimZdTree};

/// Report schema identifier; bump when the shape changes incompatibly.
pub const SCHEMA: &str = "pim-zd-bench/2";

/// One measured (dataset, index, op) cell of a perf report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfEntry {
    /// Dataset label (binaries without a dataset axis use their sweep key).
    pub dataset: String,
    /// Index under test.
    pub index: String,
    /// Operation label.
    pub op: String,
    /// Elements per simulated second.
    pub throughput: f64,
    /// Memory-bus bytes per element.
    pub traffic: f64,
    /// Simulated host CPU seconds (the `CpuModel`'s, not wall-clock).
    pub cpu_s: f64,
    /// PIM execution seconds.
    pub pim_s: f64,
    /// Communication + overhead seconds.
    pub comm_s: f64,
    /// Batch latency in simulated seconds.
    pub total_s: f64,
    /// BSP rounds.
    pub rounds: u64,
    /// Elements returned.
    pub elements: u64,
    /// Median reply latency in virtual seconds (serving benches only;
    /// `null` for throughput benches).
    pub p50_s: Option<f64>,
    /// 99th-percentile reply latency in virtual seconds.
    pub p99_s: Option<f64>,
    /// 99.9th-percentile reply latency in virtual seconds.
    pub p999_s: Option<f64>,
    /// Offered load in requests per virtual second (serving benches only).
    pub offered: Option<f64>,
}

json::record! {
    PerfEntry {
        "dataset": dataset, "index": index, "op": op, "throughput": throughput,
        "traffic": traffic, "cpu_s": cpu_s, "pim_s": pim_s, "comm_s": comm_s, "total_s": total_s,
        "rounds": rounds, "elements": elements, "p50_s": p50_s, "p99_s": p99_s,
        "p999_s": p999_s, "offered": offered
    }
}

/// The machine and inputs a report was measured at: the shared flags of
/// [`BenchArgs`].
#[derive(Clone, Debug, PartialEq)]
pub struct ReportConfig {
    /// `--batch`.
    pub batch: usize,
    /// `--fault-rate`.
    pub fault_rate: f64,
    /// `--modules`.
    pub modules: usize,
    /// `--points`.
    pub points: usize,
    /// `--seed`.
    pub seed: u64,
    /// The positional argument, if any.
    pub positional: Option<String>,
}

json::record! {
    ReportConfig {
        "batch": batch, "fault_rate": fault_rate, "modules": modules, "points": points,
        "seed": seed, "positional": positional
    }
}

/// A metrics snapshot object as [`pim_sim::Metrics::snapshot_json`]
/// renders it: written verbatim, so its counters stay integers, and read
/// back as the parsed object's rendering.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsJson(pub String);

impl Serialize for MetricsJson {
    fn json_write(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

impl FromJson for MetricsJson {
    fn from_json(v: &Value, key: &str) -> Result<Self, String> {
        match v {
            Value::Object(_) => Ok(Self(serde_json::to_string(v).expect("values serialize"))),
            _ => Err(format!("{key} is not an object")),
        }
    }
}

/// One perf report, schema [`SCHEMA`].
#[derive(Clone, Debug)]
pub struct Report {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// The binary that wrote the report.
    pub bench: String,
    /// What it was run at.
    pub config: ReportConfig,
    /// The measured cells.
    pub results: Vec<PerfEntry>,
    /// The metrics snapshot.
    pub metrics: MetricsJson,
}

json::record! {
    Report {
        "schema": schema, "bench": bench, "config": config, "results": results, "metrics": metrics
    }
}

impl PerfEntry {
    /// The row of one operation's stats, under no dataset yet
    /// ([`PerfSink::push`] files it under one).
    pub fn of(index: &str, op: &str, s: &OpStats) -> Self {
        Self {
            index: index.to_string(),
            op: op.to_string(),
            throughput: s.throughput(),
            traffic: s.traffic_per_element(),
            cpu_s: s.breakdown.cpu_s,
            pim_s: s.breakdown.pim_s,
            comm_s: s.breakdown.comm_s,
            total_s: s.breakdown.total_s(),
            rounds: s.rounds,
            elements: s.elements,
            ..Self::default()
        }
    }
}

/// Collects measurements and observability artifacts for one binary run and
/// writes them out at the end. Constructing one with no relevant flags set
/// is free: no metrics registry is allocated, the profiler stays off, and
/// [`finish`](Self::finish) writes nothing.
pub struct PerfSink {
    bench: &'static str,
    args: BenchArgs,
    metrics: pim_sim::Metrics,
    entries: Vec<PerfEntry>,
    /// The round journal of the last tree attached under `--trace`.
    journal: Option<pim_sim::Journal>,
}

impl PerfSink {
    /// Creates the sink for a binary named `bench`; reads `--json`,
    /// `--metrics` and `--profile` from `args`.
    pub fn new(bench: &'static str, args: &BenchArgs) -> Self {
        let metrics = if args.json.is_some() || args.metrics.is_some() {
            pim_sim::Metrics::enabled_new()
        } else {
            pim_sim::Metrics::disabled()
        };
        if args.profile.is_some() {
            pim_obs::reset();
            pim_obs::enable();
        }
        Self { bench, args: args.clone(), metrics, entries: Vec::new(), journal: None }
    }

    /// The shared metrics handle (disabled when no output was requested),
    /// for what [`Self::attach`] cannot take: sharded ranks and servers.
    pub fn metrics(&self) -> pim_sim::Metrics {
        self.metrics.clone()
    }

    /// Puts a built tree under the run's flags: the metrics handle; the
    /// `--fault-rate` / `--fault-seed` plan (a no-op at rate 0; attached
    /// after the build, so construction is always fault-free, and measured
    /// operations then retry, salvage and re-home — results are unchanged,
    /// only time and traffic grow); and under `--trace` a fresh round
    /// journal, which replaces that of any tree attached before and which
    /// [`Self::finish`] writes.
    pub fn attach<const D: usize>(&mut self, tree: &mut PimZdTree<D>) {
        tree.set_metrics(self.metrics());
        if let Some(plan) = self.args.fault_plan() {
            let seed = self.args.fault_seed.unwrap_or(self.args.seed);
            eprintln!("fault plane: rate {} seed {seed}", self.args.fault_rate);
            tree.set_fault_plan(Some(plan));
        }
        if self.args.trace.is_some() {
            self.journal = Some(pim_sim::Journal::new());
            tree.set_journal(self.journal.clone());
        }
    }

    /// Records one row under a dataset (or sweep-point) label.
    pub fn push(&mut self, dataset: &str, entry: &PerfEntry) {
        if self.args.json.is_some() {
            self.entries.push(PerfEntry { dataset: dataset.to_string(), ..entry.clone() });
        }
    }

    /// Writes every requested artifact: the round journal, the JSON report,
    /// the metrics snapshot, and the profiler table + collapsed stacks.
    /// Errors are reported on stderr but never fatal (a failed report write
    /// must not turn a completed benchmark into a failure).
    pub fn finish(&self) {
        if let (Some(journal), Some(path)) = (&self.journal, &self.args.trace) {
            match journal.write_jsonl(path) {
                Ok(()) => eprintln!("trace: wrote {} round records to {path}", journal.len()),
                Err(e) => eprintln!("trace: failed to write {path}: {e}"),
            }
        }
        if let Some(path) = &self.args.json {
            let report = self.render_report();
            match std::fs::write(path, report) {
                Ok(()) => eprintln!("perf: wrote {} result entries to {path}", self.entries.len()),
                Err(e) => eprintln!("perf: failed to write {path}: {e}"),
            }
        }
        if let Some(path) = &self.args.metrics {
            let text = self.metrics.snapshot_text().unwrap_or_default();
            match std::fs::write(path, &text) {
                Ok(()) => eprintln!("metrics: wrote snapshot to {path}"),
                Err(e) => eprintln!("metrics: failed to write {path}: {e}"),
            }
        }
        if let Some(path) = &self.args.profile {
            pim_obs::disable();
            let report = pim_obs::report();
            eprintln!("{}", report.render_table());
            match std::fs::write(path, report.render_collapsed()) {
                Ok(()) => eprintln!("profile: wrote collapsed stacks to {path}"),
                Err(e) => eprintln!("profile: failed to write {path}: {e}"),
            }
        }
    }

    /// Renders the full report document (deterministic key order; the
    /// same bytes at any thread count and with or without `--profile`).
    pub fn render_report(&self) -> String {
        let a = &self.args;
        let report = Report {
            schema: SCHEMA.into(),
            bench: self.bench.into(),
            config: ReportConfig {
                batch: a.batch,
                fault_rate: a.fault_rate,
                modules: a.modules,
                points: a.points,
                seed: a.seed,
                positional: a.positional.clone(),
            },
            results: self.entries.clone(),
            metrics: MetricsJson(self.metrics.snapshot_json().unwrap_or_else(|| "{}".into())),
        };
        json::write_jsonl([report])
    }
}

/// Reads `v` as a report of the current [`SCHEMA`]: the schema check, then
/// a strict decode of every key the writer emits.
pub fn validate_schema(v: &Value) -> Result<Report, String> {
    let schema: String = json::read(v, "schema")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    Report::from_json(v, "report")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_report_bytes_are_pinned() {
        let args = BenchArgs {
            json: Some("/dev/null".into()),
            positional: Some("all".into()),
            fault_rate: 0.05,
            ..Default::default()
        };
        let mut sink = PerfSink::new("unit_test", &args);
        let m = PerfEntry {
            index: "PIM-zd-tree".into(),
            op: "Insert".into(),
            throughput: 13994034.236514311,
            traffic: 57.5872,
            cpu_s: 1.7080805194805195e-5,
            pim_s: 0.1,
            comm_s: 1e-7,
            total_s: 0.000357295109865718,
            rounds: 2,
            elements: 5000,
            ..PerfEntry::default()
        };
        sink.push("uniform", &m);
        let served = PerfEntry {
            p50_s: Some(7.11e-4),
            p99_s: Some(1.24e-3),
            p999_s: Some(0.0),
            offered: Some(3.3e4),
            ..m
        };
        sink.push("load-0.1x", &served);
        sink.metrics().with(|r| {
            r.add("sim_rounds_total", &[("kind", "execute")], 12);
            r.observe("sim_round_cycles", &[], 300);
        });
        let text = sink.render_report();
        assert_eq!(pim_sim::wire::fnv1a(text.as_bytes()), 0xd2d0d9b117c95fee, "{text}");
    }

    #[test]
    fn rendered_report_validates_and_roundtrips() {
        let args = BenchArgs { json: Some("/dev/null".into()), ..Default::default() };
        let mut sink = PerfSink::new("unit_test", &args);
        sink.push(
            "uniform",
            &PerfEntry {
                index: "PIM-zd-tree".into(),
                op: "Insert".into(),
                throughput: 1.25e6,
                traffic: 301.5,
                cpu_s: 0.1,
                pim_s: 0.2,
                comm_s: 0.3,
                total_s: 0.6,
                rounds: 40,
                elements: 5000,
                ..PerfEntry::default()
            },
        );
        let doc = serde_json::from_str(&sink.render_report()).unwrap();
        validate_schema(&doc).unwrap();
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("unit_test"));
        let cell = &doc.get("results").unwrap().as_array().unwrap()[0];
        assert_eq!(cell.get("elements").unwrap().as_u64(), Some(5000));
        let old = sink.render_report().replace(SCHEMA, "pim-zd-bench/1");
        let err = validate_schema(&serde_json::from_str(&old).unwrap()).unwrap_err();
        assert!(err.contains("pim-zd-bench/1"), "{err}");
    }
}
