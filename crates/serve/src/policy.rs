//! Batch formation policy: the latency budget, the adaptive size target,
//! and the recent-throughput estimator behind it.
//!
//! The batcher trades two costs against each other (ARCHITECTURE.md §8):
//! every BSP round pays a fixed setup cost (mux switch + per-transfer call
//! overhead — the effect the UPMEM benchmarking study measures at small
//! transfer sizes), so tiny batches waste the machine; but a request parked
//! in the accumulator is aging toward its latency budget, so huge batches
//! buy throughput with p99. The [`ThroughputEstimator`] fits the round cost
//! model `service ≈ a + b·n` from recently completed batches and derives the
//! **saturation size** — the batch size past which the per-request share of
//! the setup cost `a` has fallen below a slack fraction (10%) of the marginal
//! per-request cost `b`, i.e. where growing the batch further no longer
//! meaningfully amortizes anything.

/// Amortization slack ε: a batch saturates a round once the per-request
/// share of the round setup cost drops below ε × the marginal per-request
/// cost.
const SLACK: f64 = 0.1;

/// Batch formation policy for one server.
///
/// A batch seals when **either** the oldest queued request of its class has
/// aged past `budget_us` **or** the class queue reaches the adaptive size
/// target (see [`BatchPolicy::target`]).
///
/// ```
/// use pim_serve::{BatchPolicy, ThroughputEstimator};
///
/// let policy = BatchPolicy { min_batch: 8, max_batch: 1024, ..BatchPolicy::default() };
/// let mut est = ThroughputEstimator::default();
/// // No history yet: accumulate until the budget forces a flush.
/// assert_eq!(policy.target(&est), 1024);
///
/// // Feed completed batches following service ≈ 1000 µs + 10 µs/request …
/// for n in [50u64, 100, 200, 400] {
///     est.observe(n as usize, 1_000.0 + 10.0 * n as f64);
/// }
/// // … the fit recovers (a=1000, b=10); with 10% slack the saturation
/// // size is a/(slack·b) = 1000 requests, clamped into the policy range.
/// assert_eq!(policy.target(&est), 1000);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Max age (µs of virtual time) of the oldest queued request before its
    /// class is force-flushed.
    pub budget_us: u64,
    /// Lower clamp of the adaptive target.
    pub min_batch: usize,
    /// Upper clamp of the adaptive target (and hard cap on any batch).
    pub max_batch: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self { budget_us: 1_000, min_batch: 16, max_batch: 4_096 }
    }
}

impl BatchPolicy {
    /// The current size target for sealing a batch: the estimator's
    /// saturation size at 10% slack clamped to `[min_batch, max_batch]`, or
    /// `max_batch` while the estimator has too little history (the budget
    /// still bounds latency in that regime).
    pub fn target(&self, est: &ThroughputEstimator) -> usize {
        match est.saturation_size(SLACK) {
            Some(n) => n.clamp(self.min_batch, self.max_batch),
            None => self.max_batch,
        }
    }
}

/// Number of recent batch completions the estimator remembers.
const WINDOW: usize = 32;

/// Online least-squares fit of the per-class round cost model
/// `service_us ≈ a + b·batch_size` over a sliding window of recently
/// completed batches.
#[derive(Clone, Debug, Default)]
pub struct ThroughputEstimator {
    /// `(batch_size, service_us)` of recent completions, oldest first.
    window: Vec<(f64, f64)>,
}

impl ThroughputEstimator {
    /// Records one completed batch.
    pub fn observe(&mut self, batch_size: usize, service_us: f64) {
        if self.window.len() == WINDOW {
            self.window.remove(0);
        }
        self.window.push((batch_size as f64, service_us));
    }

    /// The fitted `(setup_us, per_request_us)` of the round cost model, or
    /// `None` until the window holds at least two distinct batch sizes.
    /// Negative fitted components clamp to zero (noise at tiny windows).
    pub fn fit(&self) -> Option<(f64, f64)> {
        let n = self.window.len() as f64;
        if n < 2.0 {
            return None;
        }
        let mean_x = self.window.iter().map(|(x, _)| x).sum::<f64>() / n;
        let mean_y = self.window.iter().map(|(_, y)| y).sum::<f64>() / n;
        let var: f64 = self.window.iter().map(|(x, _)| (x - mean_x) * (x - mean_x)).sum();
        if var == 0.0 {
            return None;
        }
        let cov: f64 = self.window.iter().map(|(x, y)| (x - mean_x) * (y - mean_y)).sum();
        let b = (cov / var).max(0.0);
        let a = (mean_y - b * mean_x).max(0.0);
        Some((a, b))
    }

    /// The batch size that saturates a round under slack ε: the smallest
    /// `n` with `a/n ≤ ε·b`, i.e. `⌈a / (ε·b)⌉`. `None` while unfitted or
    /// when the fitted marginal cost is zero (no per-request signal yet).
    pub fn saturation_size(&self, slack: f64) -> Option<usize> {
        let (a, b) = self.fit()?;
        if b <= 0.0 || slack <= 0.0 {
            return None;
        }
        Some((a / (slack * b)).ceil().max(1.0) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_a_clean_linear_model() {
        let mut est = ThroughputEstimator::default();
        for n in [10u64, 20, 50, 80, 160] {
            est.observe(n as usize, 500.0 + 2.5 * n as f64);
        }
        let (a, b) = est.fit().unwrap();
        assert!((a - 500.0).abs() < 1e-6, "setup {a}");
        assert!((b - 2.5).abs() < 1e-9, "marginal {b}");
        // a/(0.2*b) = 1000
        assert_eq!(est.saturation_size(0.2), Some(1000));
    }

    #[test]
    fn degenerate_windows_give_no_target() {
        let mut est = ThroughputEstimator::default();
        assert!(est.fit().is_none());
        est.observe(100, 1_000.0);
        assert!(est.fit().is_none(), "one sample is not a fit");
        est.observe(100, 1_200.0);
        assert!(est.fit().is_none(), "identical sizes have zero variance");
        let policy = BatchPolicy::default();
        assert_eq!(policy.target(&est), policy.max_batch);
    }

    #[test]
    fn window_slides() {
        let mut est = ThroughputEstimator::default();
        // Old regime: huge setup cost.
        for n in [10u64, 100] {
            est.observe(n as usize, 100_000.0 + 1.0 * n as f64);
        }
        // Flood the window with the new regime: tiny setup cost.
        for _ in 0..WINDOW / 2 {
            for n in [10u64, 100] {
                est.observe(n as usize, 50.0 + 1.0 * n as f64);
            }
        }
        let (a, _) = est.fit().unwrap();
        assert!(a < 100.0, "stale regime must age out, fitted setup {a}");
    }
}
