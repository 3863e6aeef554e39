//! Per-operation measurement: simulated time, its Fig. 6 breakdown, and the
//! Fig. 5 memory-traffic metric.

use pim_memsim::{CpuModel, CpuStats};
use pim_sim::SimStats;

/// Time decomposition of one batched operation (the Fig. 6 categories).
#[derive(Clone, Copy, Debug, Default)]
pub struct OpBreakdown {
    /// Host CPU time (batch preprocessing, pulls, L0 traversal, filtering).
    pub cpu_s: f64,
    /// PIM execution time (sum over rounds of the slowest module).
    pub pim_s: f64,
    /// CPU⇄PIM communication time including mux/call overheads.
    pub comm_s: f64,
}

impl OpBreakdown {
    /// Total simulated seconds.
    pub fn total_s(&self) -> f64 {
        self.cpu_s + self.pim_s + self.comm_s
    }
}

/// Full measurement of one batched operation.
#[derive(Clone, Debug, Default)]
pub struct OpStats {
    /// Time breakdown.
    pub breakdown: OpBreakdown,
    /// BSP rounds executed.
    pub rounds: u64,
    /// CPU⇄PIM channel bytes (both directions).
    pub channel_bytes: u64,
    /// Host CPU-DRAM bytes (LLC misses + writebacks).
    pub cpu_dram_bytes: u64,
    /// Number of operations in the batch.
    pub batch_ops: u64,
    /// Number of elements returned (equals `batch_ops` for point ops; the
    /// output size for range ops — the paper's throughput denominator).
    pub elements: u64,
    /// Cycle-weighted PIM load imbalance over the whole operation: the
    /// straggler path over the perfectly-balanced path (1.0 = balanced).
    pub worst_imbalance: f64,
    /// Host CPU cycles (for energy estimation).
    pub cpu_cycles: u64,
    /// Total PIM core cycles across all modules (for energy estimation).
    pub pim_cycles: u64,
}

impl OpStats {
    /// Builds an `OpStats` from phase-relative counter deltas.
    pub fn from_deltas(
        cpu_model: &CpuModel,
        host: CpuStats,
        sim: SimStats,
        batch_ops: u64,
        elements: u64,
    ) -> Self {
        OpStats {
            breakdown: OpBreakdown {
                cpu_s: cpu_model.time_seconds(&host),
                pim_s: sim.pim_s,
                comm_s: sim.comm_s + sim.overhead_s,
            },
            rounds: sim.rounds,
            channel_bytes: sim.channel_bytes(),
            cpu_dram_bytes: host.dram_bytes,
            batch_ops,
            elements,
            worst_imbalance: sim.agg_imbalance(),
            cpu_cycles: host.work_cycles + host.span_cycles,
            pim_cycles: sim.total_pim_cycles,
        }
    }

    /// Sums `src` into `self` field by field (`worst_imbalance` keeps the
    /// max): the totals of several operations, or of the ranks of one.
    pub fn add(&mut self, src: &OpStats) {
        self.breakdown.cpu_s += src.breakdown.cpu_s;
        self.breakdown.pim_s += src.breakdown.pim_s;
        self.breakdown.comm_s += src.breakdown.comm_s;
        self.rounds += src.rounds;
        self.channel_bytes += src.channel_bytes;
        self.cpu_dram_bytes += src.cpu_dram_bytes;
        self.batch_ops += src.batch_ops;
        self.elements += src.elements;
        self.worst_imbalance = self.worst_imbalance.max(src.worst_imbalance);
        self.cpu_cycles += src.cpu_cycles;
        self.pim_cycles += src.pim_cycles;
    }

    /// First-order energy estimate of this operation (see
    /// [`pim_sim::EnergyModel`] — an extension beyond the paper's tables).
    pub fn energy(&self, model: &pim_sim::EnergyModel) -> pim_sim::EnergyEstimate {
        model.estimate(self.cpu_cycles, self.cpu_dram_bytes, self.pim_cycles, self.channel_bytes)
    }

    /// Throughput in returned elements per simulated second (§7.1's metric).
    pub fn throughput(&self) -> f64 {
        let t = self.breakdown.total_s();
        if t <= 0.0 {
            0.0
        } else {
            self.elements as f64 / t
        }
    }

    /// Memory-bus bytes per returned element (§7.1's traffic metric:
    /// CPU-DRAM plus CPU-PIM traffic over output size).
    pub fn traffic_per_element(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            (self.channel_bytes + self.cpu_dram_bytes) as f64 / self.elements as f64
        }
    }

    /// Latency of the batch (total simulated seconds).
    pub fn latency_s(&self) -> f64 {
        self.breakdown.total_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_memsim::CpuConfig;

    #[test]
    fn throughput_and_traffic() {
        let s = OpStats {
            breakdown: OpBreakdown { cpu_s: 0.5, pim_s: 0.25, comm_s: 0.25 },
            rounds: 3,
            channel_bytes: 600,
            cpu_dram_bytes: 400,
            batch_ops: 100,
            elements: 100,
            worst_imbalance: 1.0,
            cpu_cycles: 0,
            pim_cycles: 0,
        };
        assert!((s.throughput() - 100.0).abs() < 1e-9);
        assert!((s.traffic_per_element() - 10.0).abs() < 1e-9);
        assert!((s.latency_s() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn from_deltas_wires_fields() {
        let model = CpuModel::new(CpuConfig::xeon());
        let host = CpuStats { work_cycles: 1_000, dram_bytes: 64, ..Default::default() };
        let sim = SimStats {
            rounds: 2,
            pim_s: 0.001,
            cpu_to_pim_bytes: 10,
            pim_to_cpu_bytes: 20,
            ..Default::default()
        };
        let s = OpStats::from_deltas(&model, host, sim, 5, 7);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.channel_bytes, 30);
        assert_eq!(s.elements, 7);
        assert!(s.breakdown.cpu_s > 0.0);
    }

    #[test]
    fn empty_op_has_zero_throughput() {
        let s = OpStats::default();
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.traffic_per_element(), 0.0);
    }
}
