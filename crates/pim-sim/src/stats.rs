//! Simulation counters: time, traffic, rounds, and load balance.

use crate::fault::FaultEvent;
use crate::trace::RoundKind;

/// Per-round time decomposition, matching the paper's Fig. 6 categories.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundBreakdown {
    /// Max-over-modules core time for the round (the "PIM time").
    pub pim_s: f64,
    /// Channel transfer time.
    pub comm_s: f64,
    /// Fixed overheads: mux switch + transfer-call overhead.
    pub overhead_s: f64,
}

crate::json::record! {
    RoundBreakdown { "pim_s": pim_s, "comm_s": comm_s, "overhead_s": overhead_s }
}

impl RoundBreakdown {
    /// Total simulated seconds of the round.
    pub fn total_s(&self) -> f64 {
        self.pim_s + self.comm_s + self.overhead_s
    }
}

/// Everything the accountant knows about one round — the single value
/// that [`SimStats`], the round journal and the metrics registry are all
/// fed from, so the three agree by construction.
#[derive(Default)]
pub(crate) struct RoundAccount {
    /// Which kind of round this was.
    pub kind: RoundKind,
    /// The round's price.
    pub breakdown: RoundBreakdown,
    /// Bytes moved CPU → PIM, re-sends included.
    pub sent: u64,
    /// Bytes moved PIM → CPU, discarded fetches included.
    pub recv: u64,
    /// Tasks scattered (1 for a broadcast value).
    pub tasks: u64,
    /// Replies gathered.
    pub replies: u64,
    /// Modules whose handler committed.
    pub active_modules: u32,
    /// Machine width `P` (idle modules count towards the mean).
    pub n_modules: usize,
    /// Maximum of `module_cycles`.
    pub max_cycles: u64,
    /// Sum of `module_cycles`.
    pub sum_cycles: u64,
    /// Cycles charged per module, retry and straggler multipliers included
    /// (empty when no module ran: a salvage).
    pub module_cycles: Vec<u64>,
    /// Tasks scattered per module (empty when the round has no per-module
    /// buffers: a broadcast, a salvage).
    pub module_tasks: Vec<u64>,
    /// Fault and recovery events, in module order.
    pub events: Vec<FaultEvent>,
    /// Delivery attempts beyond each module's first.
    pub retries: u64,
}

impl RoundAccount {
    /// A round of `kind` on `n_modules` modules in which nothing happened.
    pub(crate) fn empty(kind: RoundKind, n_modules: usize) -> Self {
        RoundAccount { kind, n_modules, ..Default::default() }
    }

    /// Mean per-module cycles over *all* modules (idle ones count as 0).
    pub(crate) fn mean_cycles(&self) -> f64 {
        self.sum_cycles as f64 / self.n_modules as f64
    }
}

/// Lifetime counters of a [`crate::PimSystem`]. Reset between warmup and
/// measurement phases.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Number of BSP rounds executed.
    pub rounds: u64,
    /// Bytes sent CPU → PIM.
    pub cpu_to_pim_bytes: u64,
    /// Bytes sent PIM → CPU.
    pub pim_to_cpu_bytes: u64,
    /// Sum over rounds of the max-over-modules core time.
    pub pim_s: f64,
    /// Sum of channel transfer time.
    pub comm_s: f64,
    /// Sum of fixed overheads (mux + call overhead).
    pub overhead_s: f64,
    /// Worst max/mean cycle imbalance seen in any round with PIM work.
    pub worst_imbalance: f64,
    /// Total PIM core cycles across all modules (for energy-style metrics).
    pub total_pim_cycles: u64,
    /// Sum over rounds of the per-round maximum module cycles (the
    /// straggler path length).
    pub sum_max_cycles: u64,
    /// Number of modules (for aggregate imbalance).
    pub n_modules: usize,
    /// Per-round imbalance, indexed by round number (0.0 for rounds without
    /// PIM work, mirroring how such rounds never move `worst_imbalance`).
    /// Lets [`Self::since`] report the *window's* worst imbalance instead of
    /// the lifetime one.
    pub imbalance_history: Vec<f64>,
}

impl SimStats {
    /// Total CPU⇄PIM traffic in bytes (the PIM half of the Fig. 5 traffic
    /// metric).
    pub fn channel_bytes(&self) -> u64 {
        self.cpu_to_pim_bytes + self.pim_to_cpu_bytes
    }

    /// Total simulated seconds spent in PIM rounds (excludes host compute,
    /// which the host algorithm accounts via its `CpuMeter`).
    pub fn round_time_s(&self) -> f64 {
        self.pim_s + self.comm_s + self.overhead_s
    }

    /// Cycle-weighted load imbalance: the straggler path (Σ per-round max
    /// cycles) over the perfectly-balanced path (Σ cycles / P). Unlike
    /// [`Self::worst_imbalance`], tiny management rounds barely move it.
    pub fn agg_imbalance(&self) -> f64 {
        if self.total_pim_cycles == 0 || self.n_modules == 0 {
            return 1.0;
        }
        self.sum_max_cycles as f64 / (self.total_pim_cycles as f64 / self.n_modules as f64)
    }

    /// Folds one round into the lifetime counters.
    pub(crate) fn record(&mut self, a: &RoundAccount) {
        self.rounds += 1;
        self.cpu_to_pim_bytes += a.sent;
        self.pim_to_cpu_bytes += a.recv;
        self.pim_s += a.breakdown.pim_s;
        self.comm_s += a.breakdown.comm_s;
        self.overhead_s += a.breakdown.overhead_s;
        self.total_pim_cycles += a.sum_cycles;
        self.sum_max_cycles += a.max_cycles;
        self.n_modules = a.n_modules;
        // Max/mean imbalance; rounds without PIM work record 0.0 and never
        // move the worst case.
        let im = if a.max_cycles > 0 { a.max_cycles as f64 / a.mean_cycles() } else { 0.0 };
        self.worst_imbalance = self.worst_imbalance.max(im);
        self.imbalance_history.push(im);
    }

    /// The scalar counters at this instant, without the per-round history:
    /// all [`Self::since`] needs of an earlier point, and O(1) to take
    /// however many rounds the machine has run (a `clone` copies one `f64`
    /// per lifetime round).
    pub fn mark(&self) -> SimStats {
        SimStats { imbalance_history: Vec::new(), ..*self }
    }

    /// Difference `self - earlier` for phase-relative measurements.
    ///
    /// `earlier` must be a [`Self::mark`] (or a clone) of this same stats
    /// object taken at some earlier round (the only way the subtraction is
    /// meaningful); the window is cut from `self`'s history by round index.
    /// The result's `worst_imbalance` covers only the rounds of the window —
    /// previously it leaked the lifetime value, so a balanced phase measured
    /// after one imbalanced round reported the stale maximum forever.
    pub fn since(&self, earlier: &SimStats) -> SimStats {
        let lo = (earlier.rounds as usize).min(self.imbalance_history.len());
        let hi = (self.rounds as usize).min(self.imbalance_history.len());
        let window = self.imbalance_history[lo..hi].to_vec();
        let worst = window.iter().fold(0.0f64, |a, &b| a.max(b));
        SimStats {
            rounds: self.rounds - earlier.rounds,
            cpu_to_pim_bytes: self.cpu_to_pim_bytes - earlier.cpu_to_pim_bytes,
            pim_to_cpu_bytes: self.pim_to_cpu_bytes - earlier.pim_to_cpu_bytes,
            pim_s: self.pim_s - earlier.pim_s,
            comm_s: self.comm_s - earlier.comm_s,
            overhead_s: self.overhead_s - earlier.overhead_s,
            worst_imbalance: worst,
            total_pim_cycles: self.total_pim_cycles - earlier.total_pim_cycles,
            sum_max_cycles: self.sum_max_cycles - earlier.sum_max_cycles,
            n_modules: self.n_modules.max(earlier.n_modules),
            imbalance_history: window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A four-module round with the given price, traffic and load (the
    /// mean is `sum_cycles / 4`).
    fn round(pim_s: f64, sent: u64, recv: u64, max_cycles: u64, sum_cycles: u64) -> RoundAccount {
        RoundAccount {
            breakdown: RoundBreakdown { pim_s, comm_s: 2.0, overhead_s: 0.5 },
            sent,
            recv,
            max_cycles,
            sum_cycles,
            ..RoundAccount::empty(RoundKind::Execute, 4)
        }
    }

    #[test]
    fn record_accumulates() {
        let mut s = SimStats::default();
        s.record(&round(1.0, 100, 200, 10, 20));
        assert_eq!(s.rounds, 1);
        assert_eq!(s.channel_bytes(), 300);
        assert!((s.round_time_s() - 3.5).abs() < 1e-12);
        assert!((s.worst_imbalance - 2.0).abs() < 1e-12);
        assert_eq!((s.total_pim_cycles, s.sum_max_cycles, s.n_modules), (20, 10, 4));
    }

    #[test]
    fn since_subtracts() {
        let mut a = SimStats::default();
        a.record(&round(1.0, 10, 20, 0, 0));
        let snapshot = a.clone();
        a.record(&round(2.0, 1, 2, 0, 0));
        let d = a.since(&snapshot);
        assert_eq!(d.rounds, 1);
        assert_eq!(d.cpu_to_pim_bytes, 1);
        assert!((d.pim_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn since_reports_window_imbalance_not_lifetime() {
        let mut s = SimStats::default();
        // Round 1: heavily imbalanced (max 40, mean 10 → 4.0).
        s.record(&round(0.0, 0, 0, 40, 40));
        let snapshot = s.mark();
        // Round 2: perfectly balanced (max 100, mean 100 → 1.0).
        s.record(&round(0.0, 0, 0, 100, 400));
        assert!((s.worst_imbalance - 4.0).abs() < 1e-12, "lifetime keeps the max");
        let w = s.since(&snapshot);
        assert!(
            (w.worst_imbalance - 1.0).abs() < 1e-12,
            "window must see only its own rounds, got {}",
            w.worst_imbalance
        );
        // Window with no PIM work reports the 0.0 default, like a fresh stats.
        let empty = s.since(&s.clone());
        assert_eq!(empty.worst_imbalance, 0.0);
        assert_eq!(empty.rounds, 0);
    }

    #[test]
    fn nested_since_windows_stay_consistent() {
        let mut s = SimStats::default();
        for max in [30u64, 20, 10] {
            s.record(&round(0.0, 0, 0, max, 40));
        }
        let whole = s.since(&SimStats::default());
        assert!((whole.worst_imbalance - 3.0).abs() < 1e-12);
        // A window over the last two rounds sees 2.0, not 3.0.
        let mut snap2 = SimStats::default();
        snap2.record(&round(0.0, 0, 0, 30, 40));
        let tail = s.since(&snap2);
        assert!((tail.worst_imbalance - 2.0).abs() < 1e-12);
    }
}
