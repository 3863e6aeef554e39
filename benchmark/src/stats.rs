//! Order statistics: medians, quartiles, and the percentile rule.

/// The three quartiles of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Distance between the first and the third quartile as a share of the
    /// median: the spread `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation at position `pos` (0-based, fractional) of an
/// ascending slice.
fn interpolate(v: &[f64], pos: f64) -> f64 {
    let lo = pos.floor().clamp(0.0, (v.len() - 1) as f64) as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64).clamp(0.0, 1.0)
}

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: a median of nothing is a caller bug.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    interpolate(&v, (v.len() - 1) as f64 / 2.0)
}

/// Quartiles by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so the spreads printed here are
/// the ones the pipeline computes. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Quartiles {
    let v = sorted(values);
    let at = |k: f64| interpolate(&v, k * (v.len() + 1) as f64 / 4.0 - 1.0);
    Quartiles { q1: at(1.0), median: at(2.0), q3: at(3.0) }
}

/// Percentiles the rule chooses among, highest first, in per mille (whole
/// numbers, so that "ten samples beyond" is exact arithmetic).
const LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// A tail percentile together with what supports it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported, as a fraction (0.99 = p99).
    pub percentile: f64,
    pub value: f64,
    /// Total weight (sample count) behind the figure.
    pub samples: u64,
}

/// The percentile rule: the highest percentile of [`LADDER`], but no higher
/// than `cap`, that still has at least ten samples beyond it. `samples` are
/// `(value, weight)` pairs; a batch of `n` operations that all waited the
/// same time is one pair of weight `n`. Panics when empty.
pub fn tail(samples: &[(f64, u64)], cap: f64) -> Tail {
    let total: u64 = samples.iter().map(|s| s.1).sum();
    assert!(total > 0, "a percentile needs at least one sample");
    let percentile = LADDER
        .iter()
        .copied()
        .find(|&p| p as f64 / 1e3 <= cap && total * (1000 - p) >= 10 * 1000)
        .map_or(0.5, |p| p as f64 / 1e3);
    Tail { percentile, value: weighted_quantile(samples, percentile), samples: total }
}

/// The value below which a share `q` of the total weight lies (nearest rank).
pub fn weighted_quantile(samples: &[(f64, u64)], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = v.iter().map(|s| s.1).sum();
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (value, weight) in &v {
        seen += weight;
        if seen >= rank {
            return *value;
        }
    }
    v.last().expect("non-empty").0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((q.spread() - 1.0).abs() < 1e-12);
        let one = quartiles(&[3.0]);
        assert_eq!((one.q1, one.median, one.q3), (3.0, 3.0, 3.0));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        let uniform = |n: u64| -> Vec<(f64, u64)> { (1..=n).map(|i| (i as f64, 1)).collect() };
        // 1000 samples: exactly ten lie beyond p99, none of the rungs above.
        let t = tail(&uniform(1000), 0.99);
        assert_eq!((t.percentile, t.value, t.samples), (0.99, 990.0, 1000));
        // 999 samples: 9.99 beyond p99 is not enough, p95 is.
        assert_eq!(tail(&uniform(999), 0.99).percentile, 0.95);
        assert_eq!(tail(&uniform(250), 0.99).percentile, 0.95);
        assert_eq!(tail(&uniform(100), 0.99).percentile, 0.9);
        assert_eq!(tail(&uniform(15), 0.99).percentile, 0.5);
        // The cap keeps a large sample at the percentile the metric names.
        assert_eq!(tail(&uniform(100_000), 0.99).percentile, 0.99);
        assert_eq!(tail(&uniform(100_000), 1.0).percentile, 0.999);
    }

    #[test]
    fn weights_count_as_samples() {
        // 900 fast operations in one batch, 100 slow ones in another.
        let s = [(5.0, 900), (50.0, 100)];
        assert_eq!(weighted_quantile(&s, 0.5), 5.0);
        assert_eq!(weighted_quantile(&s, 0.9), 5.0);
        assert_eq!(weighted_quantile(&s, 0.95), 50.0);
        assert_eq!(tail(&s, 0.99), Tail { percentile: 0.99, value: 50.0, samples: 1000 });
    }
}
