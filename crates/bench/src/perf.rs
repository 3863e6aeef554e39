//! Machine-readable perf baselines and the regression diff gate.
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
//! Reports follow schema [`SCHEMA`] and are compared by the `perf_diff`
//! binary: simulated quantities (throughput, traffic, latency, rounds) are
//! deterministic per config, so any drift beyond the noise threshold is a
//! real change in the modelled system, not measurement jitter. Wall-clock
//! time is recorded (`wall_s`) but never compared.

use crate::BenchArgs;
use pim_sim::json::{self, FromJson, Serialize, Value};
use pim_zd_tree::{OpStats, PimZdTree};
use std::collections::BTreeMap;

/// Report schema identifier; bump when the shape changes incompatibly.
pub const SCHEMA: &str = "pim-zd-bench/1";

/// Default relative noise threshold of the diff gate.
pub const DEFAULT_THRESHOLD: f64 = 0.10;

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
    /// Host CPU seconds.
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
    /// `null` for throughput benches). Latency fields are **advisory** in
    /// the diff gate: they are reported, never compared against the
    /// threshold, because tail latency is far noisier across policy tweaks
    /// than the gated throughput/traffic quantities.
    pub p50_s: Option<f64>,
    /// 99th-percentile reply latency in virtual seconds (advisory).
    pub p99_s: Option<f64>,
    /// 99.9th-percentile reply latency in virtual seconds (advisory).
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

impl MetricsJson {
    /// The metric series the snapshot holds.
    pub fn names(&self) -> Vec<String> {
        match serde_json::from_str(&self.0) {
            Ok(Value::Object(m)) => m.into_keys().collect(),
            _ => Vec::new(),
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
    /// The git revision it was built from.
    pub git_rev: String,
    /// What it was run at.
    pub config: ReportConfig,
    /// Host wall-clock seconds of the run (recorded, never compared).
    pub wall_s: f64,
    /// Host profiler self-time in seconds per span label (`--profile` runs
    /// only; see [`PerfSink::render_report`]).
    pub host_spans: Option<Value>,
    /// The measured cells.
    pub results: Vec<PerfEntry>,
    /// The metrics snapshot.
    pub metrics: MetricsJson,
}

json::record! {
    Report {
        "schema": schema, "bench": bench, "git_rev": git_rev, "config": config, "wall_s": wall_s,
        "host_spans" ? host_spans, "results": results, "metrics": metrics
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
    started: std::time::Instant,
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
        Self {
            bench,
            args: args.clone(),
            metrics,
            entries: Vec::new(),
            started: std::time::Instant::now(),
            journal: None,
        }
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

    /// Renders the full report document (deterministic key order). The
    /// `host_spans` object is only written when `--profile` enabled the
    /// profiler, so unprofiled runs keep byte-stable reports;
    /// `perf_diff --host-time` reads its `encode_batch` and `fine_filter`
    /// keys for its advisory kernel self-time lines.
    pub fn render_report(&self) -> String {
        let a = &self.args;
        let report = Report {
            schema: SCHEMA.into(),
            bench: self.bench.into(),
            git_rev: git_rev(),
            config: ReportConfig {
                batch: a.batch,
                fault_rate: a.fault_rate,
                modules: a.modules,
                points: a.points,
                seed: a.seed,
                positional: a.positional.clone(),
            },
            wall_s: self.started.elapsed().as_secs_f64(),
            host_spans: pim_obs::is_enabled().then(host_spans),
            results: self.entries.clone(),
            metrics: MetricsJson(self.metrics.snapshot_json().unwrap_or_else(|| "{}".into())),
        };
        json::write_jsonl([report])
    }
}

/// The host profiler's self-time per span (seconds, summed over every
/// path ending in the span label).
fn host_spans() -> Value {
    let report = pim_obs::report();
    let mut spans: BTreeMap<String, u64> = BTreeMap::new();
    for (path, s) in &report.paths {
        let leaf = path.rsplit(';').next().unwrap_or(path).to_string();
        *spans.entry(leaf).or_default() += s.self_ns;
    }
    Value::Object(
        spans.into_iter().map(|(leaf, ns)| (leaf, Value::Number(ns as f64 / 1e9))).collect(),
    )
}

/// The current git revision (or `"unknown"` outside a repository).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

// ---------------------------------------------------------------------
// Diff gate
// ---------------------------------------------------------------------

/// Outcome of comparing a new report against a baseline.
#[derive(Debug, Default)]
pub struct DiffOutcome {
    /// Human-readable regression lines; non-empty means the gate fails.
    pub regressions: Vec<String>,
    /// Improvements beyond the threshold (informational).
    pub improvements: Vec<String>,
    /// Advisory-only movement (serving latency percentiles): reported for
    /// the record, never gated — see [`PerfEntry::p50_s`].
    pub advisories: Vec<String>,
    /// Number of (dataset, index, op) cells compared.
    pub compared: usize,
}

impl DiffOutcome {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Reads `v` as a report of the current [`SCHEMA`]. This is the shape gate
/// CI runs against committed baselines; it asserts nothing about timing.
pub fn validate_schema(v: &Value) -> Result<Report, String> {
    let schema: String = json::read(v, "schema")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    Report::from_json(v, "report")
}

/// The report's cells by `dataset/index/op`.
fn cells(r: &Report) -> BTreeMap<String, &PerfEntry> {
    r.results.iter().map(|e| (format!("{}/{}/{}", e.dataset, e.index, e.op), e)).collect()
}

/// Compares `new` against `base` with a relative noise `threshold`.
///
/// Structural problems (schema/config mismatch, a baseline cell or metric
/// absent from the new report) are hard errors: they mean the two runs are
/// not comparable, or coverage silently shrank. Performance movement beyond
/// the threshold lands in [`DiffOutcome::regressions`] /
/// [`DiffOutcome::improvements`].
pub fn diff_reports(base: &Value, new: &Value, threshold: f64) -> Result<DiffOutcome, String> {
    let base = validate_schema(base).map_err(|e| format!("baseline: {e}"))?;
    let new = validate_schema(new).map_err(|e| format!("new report: {e}"))?;

    // Same simulated machine or the numbers mean nothing. (`positional`
    // may differ: a superset run still covers the baseline's cells.)
    let machine = |c: &ReportConfig| ReportConfig { positional: None, ..c.clone() };
    if machine(&base.config) != machine(&new.config) {
        return Err(format!("config mismatch: baseline {:?} vs new {:?}", base.config, new.config));
    }

    let new_cells = cells(&new);
    let mut out = DiffOutcome::default();

    for (key, b) in cells(&base) {
        let n = new_cells
            .get(&key)
            .ok_or(format!("cell {key} present in baseline but missing from new report"))?;
        out.compared += 1;

        // Correctness first: the same config must return the same elements.
        if b.elements != n.elements {
            out.regressions
                .push(format!("{key}: elements changed {} -> {}", b.elements, n.elements));
            continue;
        }
        // Higher-is-better vs lower-is-better quantities.
        for (metric, bv, nv, higher_better) in [
            ("throughput", b.throughput, n.throughput, true),
            ("traffic", b.traffic, n.traffic, false),
            ("total_s", b.total_s, n.total_s, false),
            ("rounds", b.rounds as f64, n.rounds as f64, false),
        ] {
            if bv == 0.0 {
                continue;
            }
            let rel = nv / bv - 1.0;
            let (worse, better) = if higher_better { (-rel, rel) } else { (rel, -rel) };
            if worse > threshold {
                out.regressions.push(format!(
                    "{key}: {metric} regressed {bv:.4e} -> {nv:.4e} ({:+.1}%)",
                    rel * 100.0
                ));
            } else if better > threshold {
                out.improvements.push(format!(
                    "{key}: {metric} improved {bv:.4e} -> {nv:.4e} ({:+.1}%)",
                    rel * 100.0
                ));
            }
        }
        // Serving latency percentiles: advisory only, never gated.
        for (metric, bv, nv) in [
            ("p50_s", b.p50_s, n.p50_s),
            ("p99_s", b.p99_s, n.p99_s),
            ("p999_s", b.p999_s, n.p999_s),
        ] {
            if let (Some(bv), Some(nv)) = (bv, nv) {
                if bv > 0.0 && (nv / bv - 1.0).abs() > threshold {
                    out.advisories.push(format!(
                        "{key}: {metric} moved {bv:.4e} -> {nv:.4e} ({:+.1}%, advisory)",
                        (nv / bv - 1.0) * 100.0
                    ));
                }
            }
        }
    }

    // A metric family recorded in the baseline must still exist: losing one
    // means an instrumentation point was dropped.
    let new_names = new.metrics.names();
    for name in base.metrics.names() {
        if !new_names.contains(&name) {
            return Err(format!("metric {name:?} present in baseline but missing from new report"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(throughput: f64, traffic: f64, with_metric: bool) -> Value {
        let metrics =
            if with_metric { r#"{"sim_rounds_total{kind=\"execute\"}":12}"# } else { "{}" };
        let doc = format!(
            concat!(
                "{{\"schema\":\"pim-zd-bench/1\",\"bench\":\"fig5_end_to_end\",",
                "\"git_rev\":\"abc123\",\"config\":{{\"batch\":5000,\"fault_rate\":0.0,",
                "\"modules\":64,\"points\":50000,\"seed\":2026,\"positional\":null}},",
                "\"wall_s\":1.5,\"results\":[{{\"dataset\":\"uniform\",",
                "\"index\":\"PIM-zd-tree\",\"op\":\"Insert\",\"throughput\":{t},",
                "\"traffic\":{tr},\"cpu_s\":0.1,\"pim_s\":0.2,\"comm_s\":0.3,",
                "\"total_s\":0.6,\"rounds\":40,\"elements\":5000}}],",
                "\"metrics\":{m}}}"
            ),
            t = throughput,
            tr = traffic,
            m = metrics,
        );
        serde_json::from_str(&doc).unwrap()
    }

    #[test]
    fn identical_reports_pass() {
        let a = report(1.0e6, 300.0, true);
        let d = diff_reports(&a, &a, DEFAULT_THRESHOLD).unwrap();
        assert!(d.passed());
        assert_eq!(d.compared, 1);
        assert!(d.improvements.is_empty());
    }

    #[test]
    fn noise_below_threshold_passes() {
        let base = report(1.0e6, 300.0, false);
        let new = report(0.95e6, 310.0, false);
        assert!(diff_reports(&base, &new, DEFAULT_THRESHOLD).unwrap().passed());
    }

    #[test]
    fn throughput_drop_is_a_regression() {
        let base = report(1.0e6, 300.0, false);
        let new = report(0.8e6, 300.0, false);
        let d = diff_reports(&base, &new, DEFAULT_THRESHOLD).unwrap();
        assert!(!d.passed());
        assert!(d.regressions[0].contains("throughput"), "{:?}", d.regressions);
    }

    #[test]
    fn traffic_growth_is_a_regression_and_reduction_an_improvement() {
        let base = report(1.0e6, 300.0, false);
        let worse = report(1.0e6, 400.0, false);
        let better = report(1.0e6, 200.0, false);
        assert!(!diff_reports(&base, &worse, DEFAULT_THRESHOLD).unwrap().passed());
        let d = diff_reports(&base, &better, DEFAULT_THRESHOLD).unwrap();
        assert!(d.passed());
        assert_eq!(d.improvements.len(), 1);
    }

    #[test]
    fn missing_metric_family_is_an_error() {
        let base = report(1.0e6, 300.0, true);
        let new = report(1.0e6, 300.0, false);
        let err = diff_reports(&base, &new, DEFAULT_THRESHOLD).unwrap_err();
        assert!(err.contains("sim_rounds_total"), "{err}");
    }

    #[test]
    fn missing_cell_is_an_error() {
        let base = report(1.0e6, 300.0, false);
        let mut doc = serde_json::to_string(&base).unwrap();
        doc = doc.replace("\"op\":\"Insert\"", "\"op\":\"BC-10\"");
        let renamed = serde_json::from_str(&doc).unwrap();
        let err = diff_reports(&base, &renamed, DEFAULT_THRESHOLD).unwrap_err();
        assert!(err.contains("missing from new report"), "{err}");
    }

    #[test]
    fn config_mismatch_is_an_error() {
        let base = report(1.0e6, 300.0, false);
        let mut doc = serde_json::to_string(&base).unwrap();
        doc = doc.replace("\"seed\":2026", "\"seed\":7");
        let other = serde_json::from_str(&doc).unwrap();
        assert!(diff_reports(&base, &other, DEFAULT_THRESHOLD).unwrap_err().contains("seed"));
    }

    #[test]
    fn schema_validation_rejects_malformed_reports() {
        assert!(validate_schema(&serde_json::from_str("{}").unwrap()).is_err());
        let wrong = serde_json::from_str(r#"{"schema":"pim-zd-bench/0"}"#).unwrap();
        assert!(validate_schema(&wrong).unwrap_err().contains("pim-zd-bench/0"));
        assert!(validate_schema(&report(1.0, 1.0, true)).is_ok());
    }

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
        // git_rev and wall_s vary by checkout and run: hash them blank.
        let blank = |text: &str, key: &str, end: char| {
            let at = text.find(key).expect("the key is rendered") + key.len();
            let to = at + text[at..].find(end).expect("the value ends");
            format!("{}{}", &text[..at], &text[to..])
        };
        let text = blank(&blank(&sink.render_report(), "\"git_rev\":\"", '"'), "\"wall_s\":", ',');
        assert_eq!(pim_sim::wire::fnv1a(text.as_bytes()), 0x127cfad5599c2e93, "{text}");
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
    }
}
