//! Simulation counters: time, traffic, rounds, load balance and faults.

use crate::fault::{FaultEvent, FaultKind};
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
    /// Scatter bytes those retries re-sent (part of `sent`).
    pub retransmitted_bytes: u64,
    /// Detection-timeout seconds (part of `breakdown.overhead_s`).
    pub timeout_s: f64,
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

/// Lifetime counters of a [`crate::PimSystem`], each a sum over its
/// accounted rounds (but for the two fault counts no round carries, see
/// `PimSystem::kill_module`). A phase is a [`since`](SimStats::since) window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
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
    /// Total PIM core cycles across all modules (for energy-style metrics).
    pub total_pim_cycles: u64,
    /// Sum over rounds of the per-round maximum module cycles (the
    /// straggler path length).
    pub sum_max_cycles: u64,
    /// Number of modules (for aggregate imbalance).
    pub n_modules: usize,
    /// Fault and recovery events by kind, indexed like [`FaultKind::ALL`].
    pub faults: [u64; FaultKind::COUNT],
    /// Delivery attempts beyond the first (host-side retries).
    pub retries: u64,
    /// Scatter bytes re-sent by retries (wasted channel traffic).
    pub retransmitted_bytes: u64,
    /// Detection-timeout seconds charged to overhead.
    pub timeout_s: f64,
    /// Bytes DMA'd out of dead modules by salvage rounds.
    pub salvaged_bytes: u64,
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
    /// cycles) over the perfectly-balanced path (Σ cycles / P), so tiny
    /// management rounds barely move it. Per-round max/mean imbalance is
    /// [`crate::RoundRecord::imbalance`].
    pub fn agg_imbalance(&self) -> f64 {
        if self.total_pim_cycles == 0 || self.n_modules == 0 {
            return 1.0;
        }
        self.sum_max_cycles as f64 / (self.total_pim_cycles as f64 / self.n_modules as f64)
    }

    /// Events of one kind.
    pub fn faults_of(&self, kind: FaultKind) -> u64 {
        self.faults[kind as usize]
    }

    /// Injected module-side faults: every kind but `Salvage` and `HostCrash`.
    /// Each is an event in the journal record of its round, except a
    /// scripted `PimSystem::kill_module` death.
    pub fn total_faults(&self) -> u64 {
        self.faults[..FaultKind::Salvage as usize].iter().sum()
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
        for e in &a.events {
            self.faults[e.kind as usize] += 1;
        }
        self.retries += a.retries;
        self.retransmitted_bytes += a.retransmitted_bytes;
        self.timeout_s += a.timeout_s;
        if a.kind == RoundKind::Salvage {
            self.salvaged_bytes += a.recv;
        }
    }

    /// Difference `self - earlier`, field by field, for phase-relative
    /// measurements; `earlier` is a copy of these counters taken at some
    /// earlier round.
    pub fn since(&self, earlier: &SimStats) -> SimStats {
        SimStats {
            rounds: self.rounds - earlier.rounds,
            cpu_to_pim_bytes: self.cpu_to_pim_bytes - earlier.cpu_to_pim_bytes,
            pim_to_cpu_bytes: self.pim_to_cpu_bytes - earlier.pim_to_cpu_bytes,
            pim_s: self.pim_s - earlier.pim_s,
            comm_s: self.comm_s - earlier.comm_s,
            overhead_s: self.overhead_s - earlier.overhead_s,
            total_pim_cycles: self.total_pim_cycles - earlier.total_pim_cycles,
            sum_max_cycles: self.sum_max_cycles - earlier.sum_max_cycles,
            n_modules: self.n_modules.max(earlier.n_modules),
            faults: std::array::from_fn(|k| self.faults[k] - earlier.faults[k]),
            retries: self.retries - earlier.retries,
            retransmitted_bytes: self.retransmitted_bytes - earlier.retransmitted_bytes,
            timeout_s: self.timeout_s - earlier.timeout_s,
            salvaged_bytes: self.salvaged_bytes - earlier.salvaged_bytes,
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
        assert!((s.agg_imbalance() - 2.0).abs() < 1e-12);
        assert_eq!((s.total_pim_cycles, s.sum_max_cycles, s.n_modules), (20, 10, 4));
    }

    #[test]
    fn record_counts_a_rounds_faults() {
        let event = |kind| FaultEvent { module: 0, attempt: 0, kind };
        let mut s = SimStats::default();
        s.record(&RoundAccount {
            events: vec![event(FaultKind::ExecFault), event(FaultKind::Death)],
            retries: 1,
            retransmitted_bytes: 100,
            timeout_s: 0.25,
            ..round(1.0, 200, 0, 0, 0)
        });
        let salvage = RoundAccount {
            recv: 4096,
            events: vec![event(FaultKind::Salvage)],
            ..RoundAccount::empty(RoundKind::Salvage, 4)
        };
        s.record(&salvage);
        assert_eq!(s.faults, [1, 0, 0, 0, 1, 1, 0]);
        assert_eq!(s.total_faults(), 2, "a salvage is a recovery, not a fault");
        assert_eq!((s.retries, s.retransmitted_bytes, s.timeout_s), (1, 100, 0.25));
        assert_eq!(s.salvaged_bytes, 4096);
        let before = s;
        s.record(&salvage);
        let d = s.since(&before);
        assert_eq!((d.faults_of(FaultKind::Salvage), d.salvaged_bytes, d.retries), (1, 4096, 0));
    }

    #[test]
    fn since_subtracts() {
        let mut a = SimStats::default();
        a.record(&round(1.0, 10, 20, 0, 0));
        let snapshot = a;
        a.record(&round(2.0, 1, 2, 0, 0));
        let d = a.since(&snapshot);
        assert_eq!(d.rounds, 1);
        assert_eq!(d.cpu_to_pim_bytes, 1);
        assert!((d.pim_s - 2.0).abs() < 1e-12);
    }
}
