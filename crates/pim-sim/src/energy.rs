//! Energy estimation — an extension beyond the paper's tables.
//!
//! §7.1 motivates the memory-traffic metric as "a primary contributor to
//! power consumption in index-based applications", citing the UPMEM
//! characterization studies [37, 48, 66]. This module turns the counters the
//! simulator already collects into a first-order energy estimate using
//! coarse per-event costs from those studies' regime (DRAM access energy
//! dominated by I/O, on-bank access far cheaper, wimpy in-order PIM cores
//! far below a big out-of-order host core per cycle).
//!
//! The absolute joules are indicative only; the *ratios* between indexes —
//! which inherit from measured traffic and cycles — are the meaningful
//! output, exactly as with the traffic metric itself.

/// Per-event energy costs in picojoules.
#[derive(Clone, Copy, Debug)]
pub struct EnergyModel {
    /// Host CPU core energy per cycle (big OoO core, amortized).
    pub cpu_pj_per_cycle: f64,
    /// PIM core energy per cycle (wimpy in-order core).
    pub pim_pj_per_cycle: f64,
    /// Off-chip DRAM traffic (CPU⇄DRAM), per byte.
    pub dram_pj_per_byte: f64,
    /// CPU⇄PIM channel traffic, per byte.
    pub channel_pj_per_byte: f64,
    /// PIM-local (on-DIMM bank) traffic, per byte.
    pub local_pj_per_byte: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            cpu_pj_per_cycle: 300.0,
            pim_pj_per_cycle: 15.0,
            dram_pj_per_byte: 20.0,
            channel_pj_per_byte: 15.0,
            local_pj_per_byte: 4.0,
        }
    }
}

/// An energy estimate decomposed by component, in joules.
#[derive(Clone, Copy, Debug, Default)]
pub struct EnergyEstimate {
    /// Host core energy.
    pub cpu_j: f64,
    /// PIM core energy (sum over all modules).
    pub pim_j: f64,
    /// CPU-DRAM traffic energy.
    pub dram_j: f64,
    /// CPU⇄PIM channel traffic energy.
    pub channel_j: f64,
}

impl EnergyEstimate {
    /// Total joules.
    pub fn total_j(&self) -> f64 {
        self.cpu_j + self.pim_j + self.dram_j + self.channel_j
    }
}

impl EnergyModel {
    /// Estimates the energy of an operation from its counters.
    pub fn estimate(
        &self,
        cpu_cycles: u64,
        cpu_dram_bytes: u64,
        pim_cycles: u64,
        channel_bytes: u64,
    ) -> EnergyEstimate {
        EnergyEstimate {
            cpu_j: cpu_cycles as f64 * self.cpu_pj_per_cycle * 1e-12,
            pim_j: pim_cycles as f64 * self.pim_pj_per_cycle * 1e-12,
            dram_j: cpu_dram_bytes as f64 * self.dram_pj_per_byte * 1e-12,
            channel_j: channel_bytes as f64 * self.channel_pj_per_byte * 1e-12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_decomposes() {
        let m = EnergyModel::default();
        let e = m.estimate(1_000_000, 1_000, 2_000_000, 500);
        assert!(e.cpu_j > 0.0 && e.pim_j > 0.0 && e.dram_j > 0.0 && e.channel_j > 0.0);
        let total = e.cpu_j + e.pim_j + e.dram_j + e.channel_j;
        assert!((e.total_j() - total).abs() < 1e-18);
    }

    #[test]
    fn wimpy_cores_are_cheaper_per_cycle() {
        let m = EnergyModel::default();
        assert!(m.pim_pj_per_cycle < m.cpu_pj_per_cycle / 10.0);
    }

    #[test]
    fn local_traffic_is_cheaper_than_offchip() {
        let m = EnergyModel::default();
        assert!(m.local_pj_per_byte < m.dram_pj_per_byte);
        assert!(m.local_pj_per_byte < m.channel_pj_per_byte);
    }
}
