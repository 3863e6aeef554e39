//! CPU time/traffic model.
//!
//! Converts instrumented work into simulated time. The model is the standard
//! throughput decomposition: a batch's time is the maximum of its compute
//! time (work cycles spread over the machine's threads at a parallel
//! efficiency) and its memory time (DRAM bytes over effective bandwidth) —
//! batches overlap compute with memory, and whichever resource saturates
//! bounds throughput. This is exactly the regime the paper targets ("their
//! throughput is often memory-bottlenecked", §1).

use crate::cache::{CacheConfig, CacheSim};

/// Parameters of the simulated host CPU.
#[derive(Clone, Copy, Debug)]
pub struct CpuConfig {
    /// Core frequency in Hz.
    pub freq_hz: f64,
    /// Hardware threads participating in batch processing.
    pub threads: usize,
    /// Fraction of linear speedup actually achieved on tree workloads.
    pub parallel_efficiency: f64,
    /// LLC geometry.
    pub llc: CacheConfig,
    /// Effective DRAM bandwidth for the (mostly random) access patterns of
    /// index traversal, bytes/second, aggregated over channels.
    pub dram_bw_bytes_per_s: f64,
}

impl CpuConfig {
    /// The baseline machine of §7.1: 2× Xeon E5-2630 v4 (20 cores/40 threads,
    /// paper uses it against a 32-thread PIM host; we model 32 threads),
    /// 2.2 GHz, 25 MB LLC per socket (we model one 22 MB LLC to match the
    /// UPMEM host's cache, keeping the two machines comparable as the paper
    /// argues they are), 8 DDR4 channels ≈ 68 GB/s peak ⇒ ~16 GB/s effective
    /// for pointer-chasing reads.
    pub fn xeon() -> Self {
        Self {
            freq_hz: 2.2e9,
            threads: 32,
            parallel_efficiency: 0.7,
            llc: CacheConfig::xeon_llc(),
            dram_bw_bytes_per_s: 16e9,
        }
    }
}

/// Accumulated work/traffic counters for a measured phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuStats {
    /// Instruction work in cycles (sequential total; parallelized by model).
    pub work_cycles: u64,
    /// Critical-path length in cycles (charged unparallelized).
    pub span_cycles: u64,
    /// DRAM bytes moved (misses + writebacks).
    pub dram_bytes: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// LLC hits.
    pub llc_hits: u64,
}

impl CpuStats {
    /// Fraction of LLC accesses that hit (0 when nothing was touched) —
    /// the derived view the metrics/perf reports use alongside the raw
    /// hit/miss counters.
    pub fn llc_hit_rate(&self) -> f64 {
        let total = self.llc_hits + self.llc_misses;
        if total == 0 {
            0.0
        } else {
            self.llc_hits as f64 / total as f64
        }
    }

    /// Component-wise sum.
    pub fn merge(&self, other: &CpuStats) -> CpuStats {
        CpuStats {
            work_cycles: self.work_cycles + other.work_cycles,
            span_cycles: self.span_cycles.max(other.span_cycles),
            dram_bytes: self.dram_bytes + other.dram_bytes,
            llc_misses: self.llc_misses + other.llc_misses,
            llc_hits: self.llc_hits + other.llc_hits,
        }
    }
}

/// The time model: maps [`CpuStats`] to simulated seconds.
#[derive(Clone, Copy, Debug)]
pub struct CpuModel {
    /// CPU parameters.
    pub cfg: CpuConfig,
}

impl CpuModel {
    /// Creates a model over the given CPU parameters.
    pub fn new(cfg: CpuConfig) -> Self {
        Self { cfg }
    }

    /// Simulated seconds for a batch with the given counters. Compute and
    /// memory add: index batches proceed in phases (key preparation is
    /// compute-bound, traversal is bandwidth-bound), so their costs do not
    /// overlap across the batch.
    pub fn time_seconds(&self, s: &CpuStats) -> f64 {
        let eff_threads = self.cfg.threads as f64 * self.cfg.parallel_efficiency;
        let compute = s.work_cycles as f64 / (self.cfg.freq_hz * eff_threads)
            + s.span_cycles as f64 / self.cfg.freq_hz;
        let memory = s.dram_bytes as f64 / self.cfg.dram_bw_bytes_per_s;
        compute + memory
    }
}

/// An instrumented execution context threaded through baseline traversals:
/// owns the LLC simulator and the counters. A clone shares the warm LLC's
/// storage until either side touches it (see [`CacheSim`]).
#[derive(Clone)]
pub struct CpuMeter {
    cache: CacheSim,
    stats: CpuStats,
    line_bytes: u64,
    /// When false, `touch`/`work` are no-ops — used during untimed warmup
    /// construction so only the measured phase is charged.
    pub enabled: bool,
}

impl CpuMeter {
    /// Creates a disabled meter with a minimal cache — for code paths that
    /// need a meter argument but should not be charged (parallel unmetered
    /// query variants, test scaffolding).
    pub fn disabled() -> Self {
        let mut m = Self::new(CpuConfig {
            llc: crate::cache::CacheConfig::tiny(1024),
            ..CpuConfig::xeon()
        });
        m.enabled = false;
        m
    }

    /// Creates a meter with a cold cache.
    pub fn new(cfg: CpuConfig) -> Self {
        let line = cfg.llc.line_bytes;
        Self {
            cache: CacheSim::new(cfg.llc),
            stats: CpuStats::default(),
            line_bytes: line,
            enabled: true,
        }
    }

    /// Charges `cycles` of parallelizable instruction work.
    #[inline]
    pub fn work(&mut self, cycles: u64) {
        if self.enabled {
            self.stats.work_cycles += cycles;
        }
    }

    /// Charges `cycles` on the critical path (e.g. per-BSP-round latency).
    #[inline]
    pub fn span(&mut self, cycles: u64) {
        if self.enabled {
            self.stats.span_cycles += cycles;
        }
    }

    /// Touches memory at `addr` for `bytes` bytes. The cache decides whether
    /// DRAM traffic results. Warmup phases (enabled = false) still update the
    /// cache contents — warm data stays warm — but don't count traffic.
    #[inline]
    pub fn touch(&mut self, addr: u64, bytes: u64, write: bool) {
        let o = self.cache.access(addr, bytes, write);
        if self.enabled {
            self.stats.llc_hits += o.hit_lines;
            self.stats.llc_misses += o.miss_lines;
            self.stats.dram_bytes += (o.miss_lines + o.writeback_lines) * self.line_bytes;
        }
    }

    /// Charges a DRAM-bypass transfer (e.g. streaming output) of `bytes`.
    #[inline]
    pub fn stream_bytes(&mut self, bytes: u64) {
        if self.enabled {
            self.stats.dram_bytes += bytes;
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Resets counters, keeping the cache warm (start of a measured phase).
    pub fn start_measurement(&mut self) {
        self.stats = CpuStats::default();
        self.cache.reset_counters();
        self.enabled = true;
    }

    /// Underlying cache (for tests/diagnostics).
    pub fn cache(&self) -> &CacheSim {
        &self.cache
    }

    /// Exports the meter's full restorable state (counters + warm cache)
    /// for host checkpoints.
    pub fn snapshot(&self) -> MeterSnapshot {
        MeterSnapshot { stats: self.stats, cache: self.cache.snapshot(), enabled: self.enabled }
    }

    /// Rebuilds a meter from a snapshot under the given CPU parameters.
    /// Returns `None` on a geometry mismatch (see
    /// [`CacheSim::from_snapshot`]).
    pub fn from_snapshot(cfg: CpuConfig, snap: &MeterSnapshot) -> Option<Self> {
        Some(Self {
            cache: CacheSim::from_snapshot(cfg.llc, &snap.cache)?,
            stats: snap.stats,
            line_bytes: cfg.llc.line_bytes,
            enabled: snap.enabled,
        })
    }
}

/// Full restorable state of a [`CpuMeter`] (see [`CpuMeter::snapshot`]).
#[derive(Clone, Debug)]
pub struct MeterSnapshot {
    /// Accumulated counters of the current measured phase.
    pub stats: CpuStats,
    /// The warm LLC contents.
    pub cache: crate::cache::CacheSnapshot,
    /// Whether charging was on.
    pub enabled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CpuConfig {
        CpuConfig {
            freq_hz: 1e9,
            threads: 4,
            parallel_efficiency: 1.0,
            llc: CacheConfig::tiny(1024),
            dram_bw_bytes_per_s: 1e9,
        }
    }

    #[test]
    fn compute_bound_batch() {
        let m = CpuModel::new(small_cfg());
        let s = CpuStats { work_cycles: 4_000_000, ..Default::default() };
        // 4M cycles over 4 threads at 1 GHz = 1 ms.
        assert!((m.time_seconds(&s) - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_batch() {
        let m = CpuModel::new(small_cfg());
        let s = CpuStats { work_cycles: 100, dram_bytes: 2_000_000, ..Default::default() };
        // 2 MB at 1 GB/s = 2 ms, dominating the 25 ns of compute.
        assert!((m.time_seconds(&s) - 2e-3).abs() < 1e-6);
    }

    #[test]
    fn span_is_not_parallelized() {
        let m = CpuModel::new(small_cfg());
        let a = CpuStats { span_cycles: 1_000_000, ..Default::default() };
        assert!((m.time_seconds(&a) - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn meter_charges_misses_once() {
        let mut meter = CpuMeter::new(small_cfg());
        meter.touch(0, 64, false);
        meter.touch(0, 64, false);
        let s = meter.stats();
        assert_eq!(s.llc_misses, 1);
        assert_eq!(s.llc_hits, 1);
        assert_eq!(s.dram_bytes, 64);
    }

    #[test]
    fn warmup_keeps_cache_warm_but_uncounted() {
        let mut meter = CpuMeter::new(small_cfg());
        meter.enabled = false;
        meter.touch(0, 64, false); // warmup: populates cache silently
        meter.start_measurement();
        meter.touch(0, 64, false);
        let s = meter.stats();
        assert_eq!(s.llc_misses, 0, "warm line must hit");
        assert_eq!(s.llc_hits, 1);
    }

    #[test]
    fn stream_bytes_counts_directly() {
        let mut meter = CpuMeter::new(small_cfg());
        meter.stream_bytes(1234);
        assert_eq!(meter.stats().dram_bytes, 1234);
    }

    #[test]
    fn hit_rate_is_hits_over_accesses() {
        assert_eq!(CpuStats::default().llc_hit_rate(), 0.0, "no accesses, no rate");
        let s = CpuStats { llc_hits: 3, llc_misses: 1, ..Default::default() };
        assert_eq!(s.llc_hit_rate(), 0.75);
    }
}
