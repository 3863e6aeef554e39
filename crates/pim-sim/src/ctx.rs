//! Per-module cost meter: the "weak PIM core".
//!
//! Handlers running on behalf of a PIM module charge their instruction and
//! local-memory costs here. Costs follow UPMEM's published numbers \[37\]:
//! simple word operations (add, sub, compare, bitwise, branch) retire in one
//! cycle; multiplication and division take up to 32 cycles — the asymmetry
//! behind the paper's coarse/fine distance-metric split (§6). The index's
//! cost table (`pim_zd_tree::costs`) prices each step, distance evaluations
//! on [`MUL_DIV_CYCLES`] included, and charges it through [`PimCtx::op`].

/// Cycle cost of a multiply or divide on a BLIMP PIM core.
pub const MUL_DIV_CYCLES: u64 = 32;

/// The per-module execution context for one BSP round.
#[derive(Clone, Copy, Debug, Default)]
pub struct PimCtx {
    /// Core cycles consumed this round.
    pub cycles: u64,
    /// Local (MRAM) bytes streamed this round.
    pub local_bytes: u64,
}

impl PimCtx {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `n` single-cycle word operations.
    #[inline]
    pub fn op(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Charges a local-memory access of `bytes` bytes (plus the issuing
    /// instruction).
    #[inline]
    pub fn mem(&mut self, bytes: u64) {
        self.cycles += 1;
        self.local_bytes += bytes;
    }

    /// Charges `n` local-memory accesses of `bytes_each` bytes — exactly
    /// equivalent to `n` [`mem`](Self::mem) calls (one issuing-instruction
    /// cycle *per access*), so batched leaf kernels can aggregate without
    /// shifting the cycle accounting.
    #[inline]
    pub fn mems(&mut self, n: u64, bytes_each: u64) {
        self.cycles += n;
        self.local_bytes += n * bytes_each;
    }

    /// Core time in seconds at the given frequency/bandwidth. UPMEM DPUs
    /// run 11+ hardware tasklets precisely so MRAM DMA overlaps with other
    /// tasklets' compute; with enough parallel slack (batch workloads have
    /// it), the core is bound by whichever resource saturates.
    #[inline]
    pub fn time_s(&self, freq_hz: f64, local_bw: f64) -> f64 {
        (self.cycles as f64 / freq_hz).max(self.local_bytes as f64 / local_bw)
    }

    /// Accumulates another meter into this one.
    #[inline]
    pub fn merge(&mut self, other: &PimCtx) {
        self.cycles += other.cycles;
        self.local_bytes += other.local_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_costs_accumulate() {
        let mut c = PimCtx::new();
        c.op(10);
        c.mem(64);
        assert_eq!(c.cycles, 10 + 1);
        assert_eq!(c.local_bytes, 64);
    }

    #[test]
    fn time_is_bound_by_the_saturated_resource() {
        let mut c = PimCtx::new();
        c.op(350); // 1 µs at 350 MHz
        c.local_bytes = 1256; // 2 µs at 628 MB/s — memory-bound
        let t = c.time_s(350e6, 628e6);
        assert!((t - 2e-6).abs() < 1e-12, "tasklets overlap DMA with compute");
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = PimCtx { cycles: 5, local_bytes: 7 };
        a.merge(&PimCtx { cycles: 3, local_bytes: 2 });
        assert_eq!(a.cycles, 8);
        assert_eq!(a.local_bytes, 9);
    }
}
