//! Machine parameters for the simulated PIM system.

use pim_memsim::CpuConfig;

/// Which host⇄PIM transfer interface is in use (§6 "Improved Direct API").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferApi {
    /// The stock UPMEM SDK path: each per-module transfer call traverses the
    /// SDK layers (≈ 2 µs of host work per call).
    Sdk,
    /// The Direct Interface of \[50\]: raw reads/writes of the mapped MRAM
    /// regions (≈ 0.15 µs per call).
    Direct,
}

/// Parameters of the simulated machine: the host CPU and its `P` modules.
/// Defaults follow the evaluation server of §7.1 and UPMEM's published
/// microarchitectural numbers \[37\].
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Number of PIM modules `P` (2048 on the paper's server).
    pub n_modules: usize,
    /// PIM core frequency in Hz (350 MHz).
    pub pim_freq_hz: f64,
    /// Per-module local (MRAM) streaming bandwidth, bytes/s (628 MB/s).
    pub pim_local_bw: f64,
    /// Per-module CPU⇄PIM channel bandwidth, bytes/s.
    pub channel_bw_per_module: f64,
    /// Aggregate CPU⇄PIM channel bandwidth across all modules, bytes/s
    /// (bounded by the populated memory channels).
    pub channel_bw_aggregate: f64,
    /// Fixed mux-switch latency per BSP round, seconds.
    pub mux_switch_s: f64,
    /// Which transfer API is in use.
    pub api: TransferApi,
    /// Host threads available to issue transfer calls (overlaps calls).
    pub host_threads: usize,
    /// Per-module local memory capacity in bytes (Θ(N/P) in the model;
    /// 64 MB MRAM per DPU on UPMEM). Exceeding it is a simulation error:
    /// the index's invariant check fails.
    pub local_mem_bytes: u64,
    /// The host CPU that runs the index's host half (benches scale its LLC
    /// with the dataset, keeping the paper's cache-to-data ratio at reduced
    /// scales).
    pub cpu: CpuConfig,
}

impl MachineConfig {
    /// The paper's server: 2048 modules, 350 MHz cores, the Xeon host.
    pub fn upmem_2048() -> Self {
        Self::with_modules(2048)
    }

    /// Same microarchitecture with a custom module count (tests use small
    /// counts; sweeps vary P).
    pub fn with_modules(p: usize) -> Self {
        Self {
            n_modules: p,
            pim_freq_hz: 350e6,
            pim_local_bw: 628e6,
            channel_bw_per_module: 300e6,
            channel_bw_aggregate: 38.4e9,
            mux_switch_s: 70e-6,
            api: TransferApi::Direct,
            host_threads: 32,
            local_mem_bytes: 64 << 20,
            cpu: CpuConfig::xeon(),
        }
    }

    /// Host-side seconds consumed by one per-module transfer call.
    pub fn call_overhead_s(&self) -> f64 {
        match self.api {
            TransferApi::Sdk => 2.0e-6,
            TransferApi::Direct => 0.15e-6,
        }
    }

    /// Channel time to move the given per-module byte vector in one round:
    /// transfers proceed in parallel across modules but share the aggregate
    /// channel capacity.
    pub fn transfer_time_s(&self, total_bytes: u64, max_module_bytes: u64) -> f64 {
        let agg = total_bytes as f64 / self.channel_bw_aggregate;
        let per = max_module_bytes as f64 / self.channel_bw_per_module;
        agg.max(per)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let c = MachineConfig::upmem_2048();
        assert_eq!(c.n_modules, 2048);
        assert_eq!(c.pim_freq_hz, 350e6);
        assert_eq!(c.pim_local_bw, 628e6);
    }

    #[test]
    fn direct_api_is_cheaper() {
        let mut c = MachineConfig::with_modules(8);
        c.api = TransferApi::Sdk;
        let sdk = c.call_overhead_s();
        c.api = TransferApi::Direct;
        assert!(c.call_overhead_s() < sdk / 10.0);
    }

    #[test]
    fn transfer_time_respects_both_limits() {
        let c = MachineConfig::with_modules(4);
        // Tiny total but all on one module → per-module limit dominates.
        let t1 = c.transfer_time_s(1000, 1000);
        assert!((t1 - 1000.0 / c.channel_bw_per_module).abs() < 1e-15);
        // Huge total spread evenly → aggregate limit dominates.
        let t2 = c.transfer_time_s(u64::MAX / 4, 1);
        assert!(t2 > (u64::MAX / 4) as f64 / c.channel_bw_aggregate * 0.99);
    }
}
