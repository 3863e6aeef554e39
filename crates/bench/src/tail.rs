//! Tail-latency attribution over per-request span records.
//!
//! Input is the serving tracer's `spans.jsonl` (one
//! [`RequestTrace`] line per request, see `fig_serving --journal`), read by
//! [`pim_serve::trace::parse_spans_jsonl`] beside its writer; output is the
//! `tail_report` binary's text: the p50/p99/p999 replies decomposed into
//! their exact per-phase contributions, plus a log₂ latency-bucket table with
//! mean phase shares and the smallest exemplar `TraceId`s per bucket — the
//! ids to look up in `batches.jsonl`/`rounds.jsonl` when a bucket needs
//! explaining.
//!
//! The tracer's exactness invariant (`queue + wait + cpu + pim + comm ==
//! latency` for every completed request) is *enforced* here, not assumed:
//! [`summarize`] refuses rows that do not sum, so a report can never
//! silently misattribute time. Everything is integer virtual µs in, fixed
//! formatting out — byte-identical output for byte-identical input.

use pim_serve::RequestTrace;
use pim_sim::metrics::{keep_smallest, log2_bucket, quantile_rank};

/// Exemplar ids retained per latency bucket.
pub const BUCKET_EXEMPLARS: usize = 4;

/// Latency buckets in the report (log₂; 2^40 µs ≈ 13 days of virtual time
/// dwarfs any run this harness produces).
pub const BUCKETS: usize = 41;

/// One log₂ latency bucket's aggregates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bucket {
    /// Completed requests in the bucket.
    pub count: u64,
    /// Per-phase µs sums (report order: queue, wait, cpu, pim, comm).
    pub phase_sums: [u64; 5],
    /// The [`BUCKET_EXEMPLARS`] smallest trace ids in the bucket.
    pub exemplars: Vec<u64>,
}

/// The assembled tail-attribution report.
#[derive(Clone, Debug, PartialEq)]
pub struct TailReport {
    /// Completed requests.
    pub completed: u64,
    /// Rejected requests.
    pub rejected: u64,
    /// `(label, row)` for each reported percentile, in ascending order.
    pub percentiles: Vec<(&'static str, RequestTrace)>,
    /// Non-empty latency buckets as `(bucket_index, aggregates)`.
    pub buckets: Vec<(usize, Bucket)>,
}

/// Builds the report. Errors when any completed row's spans do not sum to
/// its latency — the tracer's exactness invariant, enforced so the report
/// cannot silently misattribute time — or when there are no completed rows.
pub fn summarize(rows: &[RequestTrace]) -> Result<TailReport, String> {
    let mut completed: Vec<&RequestTrace> = Vec::new();
    let mut rejected = 0u64;
    for r in rows {
        if r.rejected {
            rejected += 1;
            continue;
        }
        let sum = r.span_sum_us();
        if sum != r.latency_us() {
            return Err(format!(
                "trace id {}: phase spans sum to {sum} µs but latency is {} µs — \
                 refusing to report inexact attribution",
                r.id,
                r.latency_us()
            ));
        }
        completed.push(r);
    }
    if completed.is_empty() {
        return Err("no completed requests in the span record".into());
    }
    // Ascending (latency, id): the id tie-break pins percentile exemplars.
    completed.sort_by_key(|r| (r.latency_us(), r.id));
    let pick = |q: f64| completed[quantile_rank(completed.len(), q)].clone();
    let percentiles = vec![("p50", pick(0.50)), ("p99", pick(0.99)), ("p999", pick(0.999))];

    let mut table: Vec<Bucket> = vec![Bucket::default(); BUCKETS];
    for r in &completed {
        let b = &mut table[log2_bucket(r.latency_us(), BUCKETS)];
        b.count += 1;
        for (s, p) in b.phase_sums.iter_mut().zip(r.phases()) {
            *s += p;
        }
        keep_smallest(&mut b.exemplars, r.id.0, BUCKET_EXEMPLARS);
    }
    let buckets = table.into_iter().enumerate().filter(|(_, b)| b.count > 0).collect::<Vec<_>>();
    Ok(TailReport { completed: completed.len() as u64, rejected, percentiles, buckets })
}

/// Upper-exclusive bound label of a latency bucket (`[lo, hi)` in µs).
fn bucket_range(i: usize) -> String {
    if i == 0 {
        "0".to_string()
    } else if i == BUCKETS - 1 {
        format!("{}+", 1u64 << (i - 1))
    } else {
        format!("{}..{}", 1u64 << (i - 1), 1u64 << i)
    }
}

impl TailReport {
    /// Renders the report as a fixed-format text table (byte-deterministic
    /// for identical input).
    pub fn render(&self) -> String {
        let mut out = format!(
            "== tail_report: {} completed, {} rejected ==\n\n\
             percentile decomposition (virtual us; spans sum exactly to latency):\n\
             {:>5}  {:>9}  {:>8}  {:>9}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}  {:>6}\n",
            self.completed,
            self.rejected,
            "pct",
            "latency",
            "trace_id",
            "op",
            "queue",
            "wait",
            "cpu",
            "pim",
            "comm",
            "batch",
        );
        for (label, r) in &self.percentiles {
            out.push_str(&format!(
                "{label:>5}  {:>9}  {:>8}  {:>9}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}  {:>6}\n",
                r.latency_us(),
                r.id.0,
                r.op,
                r.queue_us,
                r.wait_us,
                r.cpu_us,
                r.pim_us,
                r.comm_us,
                r.batch.expect("percentile rows are completed requests"),
            ));
        }
        out.push_str(&format!(
            "\nlog2 latency buckets (means in us; exemplars are the smallest trace ids):\n\
             {:>16}  {:>7}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}  exemplar_ids\n",
            "range_us", "count", "queue", "wait", "cpu", "pim", "comm",
        ));
        for (i, b) in &self.buckets {
            let mean = |s: u64| s as f64 / b.count as f64;
            let ids = b.exemplars.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            out.push_str(&format!(
                "{:>16}  {:>7}  {:>8.1}  {:>8.1}  {:>8.1}  {:>8.1}  {:>8.1}  {ids}\n",
                bucket_range(*i),
                b.count,
                mean(b.phase_sums[0]),
                mean(b.phase_sums[1]),
                mean(b.phase_sums[2]),
                mean(b.phase_sums[3]),
                mean(b.phase_sums[4]),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_serve::trace::parse_spans_jsonl;

    fn row(id: u64, phases: [u64; 5]) -> String {
        let latency: u64 = phases.iter().sum();
        format!(
            "{{\"id\":{id},\"op\":\"knn\",\"batch\":0,\"arrival_us\":0,\"sealed_us\":0,\
             \"dispatch_us\":0,\"complete_us\":{latency},\"queue_us\":{},\"wait_us\":{},\
             \"cpu_us\":{},\"pim_us\":{},\"comm_us\":{},\"latency_us\":{latency}}}",
            phases[0], phases[1], phases[2], phases[3], phases[4]
        )
    }

    #[test]
    fn parses_summarizes_and_renders_deterministically() {
        let mut text = String::new();
        for i in 0..20u64 {
            text.push_str(&row(i, [i, 1, 2, 3, 4]));
            text.push('\n');
        }
        text.push_str("{\"id\":20,\"op\":\"insert\",\"arrival_us\":5,\"rejected\":true}\n");
        let rows = parse_spans_jsonl(&text).unwrap();
        assert_eq!(rows.len(), 21);
        let rep = summarize(&rows).unwrap();
        assert_eq!(rep.completed, 20);
        assert_eq!(rep.rejected, 1);
        assert_eq!(rep.percentiles[0].0, "p50");
        // Exemplar index is floor((n-1)*q): 19*0.999 -> 18.
        assert_eq!(rep.percentiles[2].1.id.0, 18);
        assert!(rep.percentiles[0].1.latency_us() <= rep.percentiles[2].1.latency_us());
        let total: u64 = rep.buckets.iter().map(|(_, b)| b.count).sum();
        assert_eq!(total, 20);
        for (_, b) in &rep.buckets {
            assert!(b.exemplars.len() <= BUCKET_EXEMPLARS);
            assert!(b.exemplars.windows(2).all(|w| w[0] < w[1]), "ascending ids");
        }
        assert_eq!(rep.render(), summarize(&rows).unwrap().render());
        assert!(rep.render().contains("p999"));
    }

    #[test]
    fn rejects_inexact_span_sums() {
        let bad = row(0, [1, 1, 1, 1, 1])
            .replace("\"complete_us\":5", "\"complete_us\":6")
            .replace("\"latency_us\":5", "\"latency_us\":6");
        let rows = parse_spans_jsonl(&bad).unwrap();
        let err = summarize(&rows).unwrap_err();
        assert!(err.contains("refusing"), "{err}");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_spans_jsonl("{\"id\":0}").is_err());
        assert!(parse_spans_jsonl("not json").is_err());
        let empty = summarize(&[]).unwrap_err();
        assert!(empty.contains("no completed"), "{empty}");
    }

    #[test]
    fn bucket_ranges_are_log2() {
        assert_eq!(bucket_range(0), "0");
        assert_eq!(bucket_range(1), "1..2");
        assert_eq!(bucket_range(4), "8..16");
        assert_eq!(bucket_range(BUCKETS - 1), format!("{}+", 1u64 << (BUCKETS - 2)));
    }
}
