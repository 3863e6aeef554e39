//! A lock-cheap registry of named counters, gauges, and log₂ histograms.
//!
//! This is the measurement substrate of the observability layer (see
//! README "Metrics & profiling"): the simulator publishes per-round and
//! per-module counters here, the host index publishes batch/splice/recovery
//! counters, and the bench harness publishes the host cache-model counters
//! — all under one [`Metrics`] handle that defaults to **disabled** and
//! costs a single branch per feeding site when off.
//!
//! # Determinism
//!
//! All registry updates happen from *sequential* accounting code (the
//! post-round folds of [`PimSystem`](crate::PimSystem), the host's
//! measurement scaffolding), never from inside parallel module handlers, so
//! a snapshot is byte-identical at any host thread count — the same
//! contract the trace journal meets, and a tested invariant
//! (`tests/metrics_and_perf.rs`). Families and series are stored in
//! `BTreeMap`s, so both snapshot formats are sorted and stable.
//!
//! # Snapshot formats
//!
//! * [`MetricsRegistry::snapshot_text`] — Prometheus-exposition-style text
//!   (`# TYPE` headers, one `name{labels} value` line per series, sorted).
//! * [`MetricsRegistry::snapshot_json`] — one flat JSON object mapping the
//!   same series keys to values (histograms become
//!   `{"buckets":[...],"count":n,"sum":x}`), the form embedded in the
//!   bench `--json` perf reports, which CI compares byte for byte.
//!
//! The module also hosts the shared percentile/histogram math: the exact
//! sample quantile ([`quantile_sorted`] on [`quantile_rank`], used by the
//! `latency_p99` bench and the serving tail report), the log₂ bucketing
//! ([`log2_bucket`], shared with the trace layer's cycle histograms) and the
//! bounded exemplar set ([`keep_smallest`]) live here so there is exactly
//! one implementation of each.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Number of log₂ buckets in a registry [`Histogram`].
pub const HIST_BUCKETS: usize = 32;

/// The log₂ bucket of `v`: bucket 0 holds `v = 0`, bucket `i ≥ 1` holds
/// `2^(i-1) ≤ v < 2^i`, and the last bucket absorbs everything larger.
/// This is the single bucketing function shared by the registry histograms
/// and the trace layer's per-round cycle histograms.
#[inline]
pub fn log2_bucket(v: u64, n_buckets: usize) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(n_buckets - 1)
    }
}

/// Inserts `id` into the ascending set `ids` if it is among the `cap`
/// smallest ids offered so far, dropping the largest one past `cap`. An id
/// offered twice stays one entry, so the kept set is a pure function of the
/// offered set, whatever the order: the exemplar rule of [`Histogram`] and
/// of the serving tail report.
#[inline]
pub fn keep_smallest(ids: &mut Vec<u64>, id: u64, cap: usize) {
    if let Err(pos) = ids.binary_search(&id) {
        if pos < cap {
            ids.insert(pos, id);
            ids.truncate(cap);
        }
    }
}

/// Index of the `q` quantile in an ascending-sorted sequence of `len`
/// items, by the nearest-rank-below rule `⌊(len−1)·q⌋` (the formula the
/// latency bench has always used; lifted here so there is one
/// implementation). Panics when `len` is 0.
#[inline]
pub fn quantile_rank(len: usize, q: f64) -> usize {
    ((len - 1) as f64 * q.clamp(0.0, 1.0)) as usize
}

/// Exact sample quantile over an ascending-sorted slice:
/// `sorted[quantile_rank(len, q)]`.
///
/// Panics on an empty slice — a quantile of nothing is a caller bug.
#[inline]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    sorted[quantile_rank(sorted.len(), q)]
}

/// A growable set of f64 samples with exact quantiles (sorts lazily).
///
/// ```
/// use pim_sim::metrics::Samples;
/// let mut s = Samples::new();
/// for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
///     s.push(v);
/// }
/// assert_eq!(s.quantile(0.5), 3.0);
/// assert_eq!(s.quantile(1.0), 5.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Samples {
    xs: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.xs.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Exact quantile by [`quantile_sorted`]. Panics when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.xs.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
            self.sorted = true;
        }
        quantile_sorted(&self.xs, q)
    }

    /// Largest sample. Panics when empty.
    pub fn max(&mut self) -> f64 {
        self.quantile(1.0)
    }

    /// Arithmetic mean (0 when empty). Reported alongside quantiles by the
    /// serving benches; note that under open-loop load the mean hides the
    /// tail — compare p99/p999, not means (EXPERIMENTS.md §E-S).
    pub fn mean(&self) -> f64 {
        if self.xs.is_empty() {
            0.0
        } else {
            self.xs.iter().sum::<f64>() / self.xs.len() as f64
        }
    }
}

/// Exemplar ids a histogram bucket retains at most (see
/// [`Histogram::observe_with_exemplar`]).
pub const EXEMPLARS_PER_BUCKET: usize = 4;

/// A log₂-bucket histogram of `u64` observations.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Bucket counts (see [`log2_bucket`] for the bucket boundaries).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Optional per-bucket exemplar ids: the [`EXEMPLARS_PER_BUCKET`]
    /// *smallest* ids observed into each bucket, ascending — a bounded,
    /// deterministic set (order of observation never matters). Allocated
    /// on the first [`Histogram::observe_with_exemplar`]; plain
    /// [`Histogram::observe`] never allocates it. Rendered in the JSON
    /// snapshot only — the Prometheus exposition text is byte-identical
    /// with or without exemplars, so text-based baselines never churn.
    pub exemplars: Option<Box<[Vec<u64>; HIST_BUCKETS]>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, exemplars: None }
    }
}

impl Histogram {
    /// Folds another histogram into this one: buckets, count, and sum add;
    /// exemplar sets merge keeping each bucket's smallest ids. Order of
    /// merging never matters, so shard-router metric merges stay
    /// deterministic regardless of which rank finished first.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if let Some(oex) = &other.exemplars {
            let ex = self.exemplars.get_or_insert_with(Box::default);
            for (mine, theirs) in ex.iter_mut().zip(oex.iter()) {
                for &id in theirs {
                    keep_smallest(mine, id, EXEMPLARS_PER_BUCKET);
                }
            }
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[log2_bucket(v, HIST_BUCKETS)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Records one observation and offers `id` as the bucket's exemplar.
    /// Each bucket keeps its [`EXEMPLARS_PER_BUCKET`] smallest ids, so the
    /// retained set is a pure function of the observed multiset.
    pub fn observe_with_exemplar(&mut self, v: u64, id: u64) {
        self.observe(v);
        let ex = self.exemplars.get_or_insert_with(Box::default);
        keep_smallest(&mut ex[log2_bucket(v, HIST_BUCKETS)], id, EXEMPLARS_PER_BUCKET);
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Serialize for Histogram {
    fn json_write(&self, out: &mut String) {
        // Trailing zero buckets are trimmed so small histograms stay small;
        // the bucket index is the log₂ boundary, so the prefix is lossless.
        let hi = HIST_BUCKETS - self.buckets.iter().rev().take_while(|&&b| b == 0).count();
        out.push_str("{\"buckets\":");
        self.buckets[..hi].json_write(out);
        out.push_str(",\"count\":");
        self.count.json_write(out);
        out.push_str(",\"sum\":");
        self.sum.json_write(out);
        // Exemplars render as a sparse object keyed by bucket index; the
        // key is absent entirely for exemplar-free histograms, so their
        // JSON stays byte-identical to the pre-exemplar encoding.
        if let Some(ex) = &self.exemplars {
            if ex.iter().any(|ids| !ids.is_empty()) {
                out.push_str(",\"exemplars\":{");
                let mut first = true;
                for (i, ids) in ex.iter().enumerate() {
                    if ids.is_empty() {
                        continue;
                    }
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    i.to_string().json_write(out);
                    out.push(':');
                    ids.json_write(out);
                }
                out.push('}');
            }
        }
        out.push('}');
    }
}

/// What a metric family holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic integer counter.
    Counter,
    /// Monotonic f64 counter (simulated-seconds totals).
    CounterF,
    /// Last-write-wins f64 value.
    Gauge,
    /// Log₂ histogram of u64 observations.
    Histogram,
}

impl MetricKind {
    fn prom_type(self) -> &'static str {
        match self {
            MetricKind::Counter | MetricKind::CounterF => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One series' value.
#[derive(Clone, Debug)]
enum MetricValue {
    Counter(u64),
    CounterF(f64),
    Gauge(f64),
    Hist(Box<Histogram>),
}

/// All series of one metric name.
#[derive(Clone, Debug)]
struct Family {
    kind: MetricKind,
    /// Canonical label string (`""` or `{k="v",…}`) → value.
    series: BTreeMap<String, MetricValue>,
}

/// Renders labels canonically: `{k1="v1",k2="v2"}` sorted by key, `""`
/// when unlabeled. Label values are escaped like JSON strings.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut ls: Vec<(&str, &str)> = labels.to_vec();
    ls.sort_unstable();
    let mut out = String::from("{");
    for (i, (k, v)) in ls.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// The registry proper: named families of labeled series.
///
/// Usually accessed through a shared [`Metrics`] handle; direct use is for
/// tests and single-owner callers.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
    /// Labels stamped onto every series key (update *and* read paths).
    /// Empty by default, so snapshots of label-free registries stay
    /// byte-identical to the pre-base-label encoding.
    base_labels: Vec<(String, String)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets labels implicitly attached to every series touched from now on
    /// (both updates and point reads). The shard router gives each rank's
    /// registry a `("shard", "<r>")` base label so merged snapshots carry
    /// the rank dimension without threading it through every feeding site.
    /// Series created before the call keep their old keys; set base labels
    /// before feeding. An empty slice restores the unlabeled behaviour —
    /// single-rank snapshots are byte-identical to a registry that never
    /// heard of base labels.
    pub fn set_base_labels(&mut self, labels: &[(&str, &str)]) {
        self.base_labels = labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    }

    /// The canonical series key for `labels` with base labels folded in.
    fn full_key(&self, labels: &[(&str, &str)]) -> String {
        if self.base_labels.is_empty() {
            return label_key(labels);
        }
        let mut all: Vec<(&str, &str)> =
            self.base_labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        all.extend_from_slice(labels);
        label_key(&all)
    }

    fn series_mut(
        &mut self,
        name: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
    ) -> &mut MetricValue {
        let key = self.full_key(labels);
        let fam = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family { kind, series: BTreeMap::new() });
        debug_assert_eq!(fam.kind, kind, "metric {name} re-registered with a different kind");
        fam.series.entry(key).or_insert_with(|| match kind {
            MetricKind::Counter => MetricValue::Counter(0),
            MetricKind::CounterF => MetricValue::CounterF(0.0),
            MetricKind::Gauge => MetricValue::Gauge(0.0),
            MetricKind::Histogram => MetricValue::Hist(Box::default()),
        })
    }

    /// Adds `v` to the counter `name{labels}`.
    pub fn add(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        if let MetricValue::Counter(c) = self.series_mut(name, MetricKind::Counter, labels) {
            *c += v;
        }
    }

    /// Adds `v` to the f64 counter `name{labels}` (simulated-seconds
    /// totals; updates are sequential, so the sum order is deterministic).
    pub fn add_f(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        if let MetricValue::CounterF(c) = self.series_mut(name, MetricKind::CounterF, labels) {
            *c += v;
        }
    }

    /// Sets the gauge `name{labels}` to `v`.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        if let MetricValue::Gauge(g) = self.series_mut(name, MetricKind::Gauge, labels) {
            *g = v;
        }
    }

    /// Records `v` into the histogram `name{labels}`.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        if let MetricValue::Hist(h) = self.series_mut(name, MetricKind::Histogram, labels) {
            h.observe(v);
        }
    }

    /// Records `v` into the histogram `name{labels}` with `id` as the
    /// bucket-exemplar candidate (see [`Histogram::observe_with_exemplar`]).
    pub fn observe_exemplar(&mut self, name: &str, labels: &[(&str, &str)], v: u64, id: u64) {
        if let MetricValue::Hist(h) = self.series_mut(name, MetricKind::Histogram, labels) {
            h.observe_with_exemplar(v, id);
        }
    }

    /// Reads a counter back (`None` when the series does not exist).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.families.get(name)?.series.get(&self.full_key(labels))? {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// Sum of a counter family over all its series (e.g. a per-phase total
    /// back to a lifetime total — the registry ↔ `SimStats` invariant).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.families.get(name).map_or(0, |f| {
            f.series.values().map(|v| if let MetricValue::Counter(c) = v { *c } else { 0 }).sum()
        })
    }

    /// Sum of an f64-counter family over all its series.
    pub fn counter_sum_f(&self, name: &str) -> f64 {
        self.families.get(name).map_or(0.0, |f| {
            f.series.values().map(|v| if let MetricValue::CounterF(c) = v { *c } else { 0.0 }).sum()
        })
    }

    /// Reads a histogram back.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.families.get(name)?.series.get(&self.full_key(labels))? {
            MetricValue::Hist(h) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Folds every series of `other` into this registry: counters and
    /// histograms add, gauges take `other`'s value (last-write-wins, and
    /// the merge *is* the later write). Series keys are taken verbatim —
    /// `other`'s base labels are already baked into its keys — so merging
    /// per-rank registries tagged with distinct `shard` labels lands each
    /// rank's series side by side. Merging the same registries in rank
    /// order is deterministic: disjoint keys make the result independent
    /// of which rank finished its batch first, and overlapping counter
    /// keys still commute because addition does.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (name, ofam) in &other.families {
            let fam = self
                .families
                .entry(name.clone())
                .or_insert_with(|| Family { kind: ofam.kind, series: BTreeMap::new() });
            debug_assert_eq!(fam.kind, ofam.kind, "metric {name} merged with a different kind");
            for (key, oval) in &ofam.series {
                match fam.series.entry(key.clone()).or_insert_with(|| match ofam.kind {
                    MetricKind::Counter => MetricValue::Counter(0),
                    MetricKind::CounterF => MetricValue::CounterF(0.0),
                    MetricKind::Gauge => MetricValue::Gauge(0.0),
                    MetricKind::Histogram => MetricValue::Hist(Box::default()),
                }) {
                    MetricValue::Counter(c) => {
                        if let MetricValue::Counter(o) = oval {
                            *c += o;
                        }
                    }
                    MetricValue::CounterF(c) => {
                        if let MetricValue::CounterF(o) = oval {
                            *c += o;
                        }
                    }
                    MetricValue::Gauge(g) => {
                        if let MetricValue::Gauge(o) = oval {
                            *g = *o;
                        }
                    }
                    MetricValue::Hist(h) => {
                        if let MetricValue::Hist(o) = oval {
                            h.merge_from(o);
                        }
                    }
                }
            }
        }
    }

    /// Number of registered series across all families.
    pub fn n_series(&self) -> usize {
        self.families.values().map(|f| f.series.len()).sum()
    }

    /// Deterministic Prometheus-exposition-style text: families sorted by
    /// name (each prefixed with a `# TYPE` header), series sorted by label
    /// key. Histograms render cumulative `_bucket{le=…}` lines plus
    /// `_count`/`_sum`, like a native Prometheus histogram.
    pub fn snapshot_text(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(fam.kind.prom_type());
            out.push('\n');
            for (labels, value) in &fam.series {
                match value {
                    MetricValue::Counter(c) => {
                        out.push_str(&format!("{name}{labels} {c}\n"));
                    }
                    MetricValue::CounterF(c) | MetricValue::Gauge(c) => {
                        out.push_str(&format!("{name}{labels} {c:?}\n"));
                    }
                    MetricValue::Hist(h) => {
                        let mut cum = 0u64;
                        let hi =
                            HIST_BUCKETS - h.buckets.iter().rev().take_while(|&&b| b == 0).count();
                        for (i, b) in h.buckets[..hi].iter().enumerate() {
                            cum += b;
                            let le = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                            let sep = if labels.is_empty() { "{" } else { ",\0" };
                            // `le` is the inclusive upper cycle bound of the
                            // bucket: 0, 1, 2, 4, 8, … (log₂ boundaries).
                            if sep == "{" {
                                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
                            } else {
                                let inner = &labels[..labels.len() - 1];
                                out.push_str(&format!(
                                    "{name}_bucket{inner},le=\"{le}\"}} {cum}\n"
                                ));
                            }
                        }
                        out.push_str(&format!("{name}_count{labels} {}\n", h.count));
                        out.push_str(&format!("{name}_sum{labels} {}\n", h.sum));
                    }
                }
            }
        }
        out
    }

    /// Deterministic flat JSON object: `"name{labels}"` → value (histograms
    /// become `{"buckets":[…],"count":n,"sum":x}`), sorted by key. This is
    /// the form embedded in bench `--json` perf reports.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, fam) in &self.families {
            for (labels, value) in &fam.series {
                if !first {
                    out.push(',');
                }
                first = false;
                format!("{name}{labels}").json_write(&mut out);
                out.push(':');
                match value {
                    MetricValue::Counter(c) => c.json_write(&mut out),
                    MetricValue::CounterF(c) | MetricValue::Gauge(c) => c.json_write(&mut out),
                    MetricValue::Hist(h) => h.json_write(&mut out),
                }
            }
        }
        out.push('}');
        out
    }
}

/// A cloneable, shareable handle over a [`MetricsRegistry`].
///
/// Defaults to **disabled** ([`Metrics::disabled`]): every feeding site
/// checks [`Metrics::enabled`] (one branch) and skips all key formatting
/// and locking when off, so the registry is zero-cost until attached —
/// the same bar the round journal meets.
///
/// The lock is coarse by design: feeders batch all of a round's updates
/// under one [`Metrics::with`] call, and updates only happen from
/// sequential accounting code, so the mutex is effectively uncontended.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    inner: Option<Arc<Mutex<MetricsRegistry>>>,
}

impl Metrics {
    /// The default no-op handle.
    pub fn disabled() -> Self {
        Metrics { inner: None }
    }

    /// A fresh enabled registry.
    pub fn enabled_new() -> Self {
        Metrics { inner: Some(Arc::new(Mutex::new(MetricsRegistry::new()))) }
    }

    /// Whether updates will be recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` against the registry under the lock (no-op when disabled).
    /// Feeders batch a whole round's updates into one call.
    pub fn with<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
        self.inner.as_ref().map(|m| f(&mut m.lock().unwrap()))
    }

    /// Snapshot in Prometheus text format (`None` when disabled).
    pub fn snapshot_text(&self) -> Option<String> {
        self.inner.as_ref().map(|m| m.lock().unwrap().snapshot_text())
    }

    /// Snapshot as flat JSON (`None` when disabled).
    pub fn snapshot_json(&self) -> Option<String> {
        self.inner.as_ref().map(|m| m.lock().unwrap().snapshot_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_match_trace_layer_semantics() {
        assert_eq!(log2_bucket(0, 16), 0);
        assert_eq!(log2_bucket(1, 16), 1);
        assert_eq!(log2_bucket(2, 16), 2);
        assert_eq!(log2_bucket(3, 16), 2);
        assert_eq!(log2_bucket(4, 16), 3);
        assert_eq!(log2_bucket(u64::MAX, 16), 15, "clamped to the last bucket");
    }

    #[test]
    fn quantile_matches_the_latency_bench_formula() {
        let l: Vec<f64> = (1..=40).map(|i| i as f64).collect();
        // The historical formula: l[((len - 1) as f64 * q) as usize].
        for q in [0.0, 0.5, 0.99, 1.0] {
            let want = l[((l.len() - 1) as f64 * q) as usize];
            assert_eq!(quantile_sorted(&l, q), want);
        }
        let mut s = Samples::new();
        for &v in l.iter().rev() {
            s.push(v);
        }
        assert_eq!(s.quantile(0.99), 39.0);
        assert_eq!(s.max(), 40.0);
    }

    #[test]
    fn counters_accumulate_per_series() {
        let mut r = MetricsRegistry::new();
        r.add("rounds", &[("kind", "execute")], 2);
        r.add("rounds", &[("kind", "execute")], 3);
        r.add("rounds", &[("kind", "broadcast")], 1);
        assert_eq!(r.counter("rounds", &[("kind", "execute")]), Some(5));
        assert_eq!(r.counter_sum("rounds"), 6);
        assert_eq!(r.counter("rounds", &[("kind", "salvage")]), None);
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut r = MetricsRegistry::new();
        r.add("x", &[("a", "1"), ("b", "2")], 1);
        r.add("x", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.counter("x", &[("a", "1"), ("b", "2")]), Some(2));
        assert_eq!(r.n_series(), 1, "label sets are canonicalized");
    }

    #[test]
    fn snapshot_text_is_sorted_and_typed() {
        let mut r = MetricsRegistry::new();
        r.add("z_total", &[], 1);
        r.add("a_total", &[("m", "1")], 2);
        r.add("a_total", &[("m", "0")], 3);
        r.set_gauge("g", &[], 1.5);
        let text = r.snapshot_text();
        let a = text.find("a_total{m=\"0\"} 3").unwrap();
        let b = text.find("a_total{m=\"1\"} 2").unwrap();
        let z = text.find("z_total 1").unwrap();
        assert!(a < b && b < z, "families and series sort lexically:\n{text}");
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("# TYPE g gauge"));
        assert!(text.contains("g 1.5"));
    }

    #[test]
    fn histogram_snapshots_render_cumulative_buckets() {
        let mut r = MetricsRegistry::new();
        for v in [0u64, 1, 2, 3, 100] {
            r.observe("cycles", &[("phase", "knn")], v);
        }
        let h = r.histogram("cycles", &[("phase", "knn")]).unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 106);
        let text = r.snapshot_text();
        assert!(text.contains("cycles_bucket{phase=\"knn\",le=\"0\"} 1"), "{text}");
        assert!(text.contains("cycles_count{phase=\"knn\"} 5"));
        assert!(text.contains("cycles_sum{phase=\"knn\"} 106"));
        let json = r.snapshot_json();
        let v = serde_json::from_str(&json).unwrap();
        let hist = v.get("cycles{phase=\"knn\"}").unwrap();
        assert_eq!(hist.get("count").and_then(|x| x.as_u64()), Some(5));
        assert_eq!(hist.get("sum").and_then(|x| x.as_u64()), Some(106));
    }

    #[test]
    fn exemplars_are_bounded_deterministic_and_json_only() {
        let mut r = MetricsRegistry::new();
        for (id, v) in [(9u64, 3u64), (2, 3), (5, 3), (1, 3), (7, 3), (0, 200)] {
            r.observe_exemplar("lat", &[], v, id);
        }
        let h = r.histogram("lat", &[]).unwrap();
        let ex = h.exemplars.as_ref().unwrap();
        assert_eq!(
            ex[log2_bucket(3, HIST_BUCKETS)],
            vec![1, 2, 5, 7],
            "buckets keep the smallest ids, ascending, capped at {EXEMPLARS_PER_BUCKET}"
        );
        assert_eq!(ex[log2_bucket(200, HIST_BUCKETS)], vec![0]);

        // Feeding the same ids in any order retains the same set.
        let mut r2 = MetricsRegistry::new();
        for (id, v) in [(0u64, 200u64), (1, 3), (7, 3), (5, 3), (2, 3), (9, 3)] {
            r2.observe_exemplar("lat", &[], v, id);
        }
        assert_eq!(r.snapshot_json(), r2.snapshot_json());

        // Prometheus text is byte-identical to an exemplar-free registry
        // fed the same values; only the JSON snapshot differs.
        let mut plain = MetricsRegistry::new();
        for v in [3u64, 3, 3, 3, 3, 200] {
            plain.observe("lat", &[], v);
        }
        assert_eq!(r.snapshot_text(), plain.snapshot_text());
        assert!(!plain.snapshot_json().contains("exemplars"));
        let json = r.snapshot_json();
        let v = serde_json::from_str(&json).unwrap();
        let got = v.get("lat").and_then(|h| h.get("exemplars")).expect("exemplars in JSON");
        let b2 = got.get(&log2_bucket(3, HIST_BUCKETS).to_string()).unwrap();
        assert_eq!(b2.as_array().unwrap().len(), 4, "{json}");
    }

    #[test]
    fn disabled_handle_is_inert() {
        let m = Metrics::disabled();
        assert!(!m.enabled());
        assert_eq!(m.with(|r| r.add("x", &[], 1)), None);
        assert_eq!(m.snapshot_text(), None);
    }

    #[test]
    fn shared_handle_sees_all_updates() {
        let m = Metrics::enabled_new();
        let m2 = m.clone();
        m.with(|r| r.add("x", &[], 1));
        m2.with(|r| r.add("x", &[], 2));
        assert_eq!(m.with(|r| r.counter("x", &[])).flatten(), Some(3));
    }

    #[test]
    fn base_labels_stamp_every_series_and_empty_is_identity() {
        let mut plain = MetricsRegistry::new();
        plain.add("x", &[("op", "knn")], 3);
        plain.observe("h", &[], 7);

        // Empty base labels are the identity: byte-identical snapshots.
        let mut empty = MetricsRegistry::new();
        empty.set_base_labels(&[]);
        empty.add("x", &[("op", "knn")], 3);
        empty.observe("h", &[], 7);
        assert_eq!(plain.snapshot_text(), empty.snapshot_text());
        assert_eq!(plain.snapshot_json(), empty.snapshot_json());

        let mut r = MetricsRegistry::new();
        r.set_base_labels(&[("shard", "2")]);
        r.add("x", &[("op", "knn")], 3);
        r.observe("h", &[], 7);
        // Base labels sort with call labels into one canonical key…
        assert!(r.snapshot_text().contains("x{op=\"knn\",shard=\"2\"} 3"));
        assert!(r.snapshot_text().contains("h_count{shard=\"2\"} 1"));
        // …and point reads through the same handle see them.
        assert_eq!(r.counter("x", &[("op", "knn")]), Some(3));
        assert_eq!(r.histogram("h", &[]).map(|h| h.count), Some(1));
    }

    #[test]
    fn merge_from_sums_counters_and_keeps_rank_series_disjoint() {
        let mk = |shard: &str, v: u64| {
            let mut r = MetricsRegistry::new();
            r.set_base_labels(&[("shard", shard)]);
            r.add("ops", &[("op", "box")], v);
            r.observe_exemplar("lat", &[], 3, v);
            r.set_gauge("depth", &[], v as f64);
            r.add_f("secs", &[], v as f64 * 0.5);
            r
        };
        let (a, b) = (mk("0", 2), mk("1", 5));
        let mut m = MetricsRegistry::new();
        m.merge_from(&a);
        m.merge_from(&b);
        assert_eq!(m.counter("ops", &[("op", "box"), ("shard", "0")]), Some(2));
        assert_eq!(m.counter("ops", &[("op", "box"), ("shard", "1")]), Some(5));
        assert_eq!(m.counter_sum("ops"), 7);
        assert_eq!(m.counter_sum_f("secs"), 3.5);

        // Same-key merges: counters add, histograms fold, exemplar sets
        // keep the smallest ids regardless of merge order.
        let mut twice = MetricsRegistry::new();
        twice.merge_from(&a);
        twice.merge_from(&a);
        assert_eq!(twice.counter("ops", &[("op", "box"), ("shard", "0")]), Some(4));
        let h = twice.histogram("lat", &[("shard", "0")]).unwrap();
        assert_eq!((h.count, h.sum), (2, 6));

        // Merge order over disjoint rank keys does not change the snapshot.
        let mut m2 = MetricsRegistry::new();
        m2.merge_from(&b);
        m2.merge_from(&a);
        assert_eq!(m.snapshot_text(), m2.snapshot_text());
        assert_eq!(m.snapshot_json(), m2.snapshot_json());
    }

    #[test]
    fn snapshots_are_reproducible() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.add("b", &[("p", "x")], 1);
            r.add("a", &[], 2);
            r.observe("h", &[], 7);
            r.add_f("s", &[("p", "y")], 0.25);
            (r.snapshot_text(), r.snapshot_json())
        };
        assert_eq!(build(), build(), "identical feeds produce identical snapshots");
    }
}
