//! Tunable configuration of the PIM-zd-tree (§3.1, §3.2, Table 2).
//!
//! The index's behaviour is governed by three structural knobs — the layer
//! thresholds `θ_L0` and `θ_L1` and the chunking factor `B` — plus the
//! push-pull thresholds of Alg. 1 and the lazy-counter deltas of Table 1.
//! The two presets are the paper's two implemented extremes:
//!
//! | knob | throughput-optimized | skew-resistant |
//! |------|----------------------|----------------|
//! | θ_L0 | n / P                | Θ(P)           |
//! | θ_L1 | 1 (no L2)            | Θ(log_B P)     |
//! | B    | θ_L0                 | 16             |

#![allow(clippy::unusual_byte_groupings)] // seeds are mnemonic, not numeric

/// Which implementation techniques are enabled — each is a Table 3 ablation.
#[derive(Clone, Copy, Debug)]
pub struct Toggles {
    /// Fast gap-interleave z-order computation (§6). Off = naive bitwise.
    pub fast_zorder: bool,
    /// Lazy counters (§3.4). Off = eagerly synchronize every counter change
    /// to every replica.
    pub lazy_counters: bool,
    /// Coarse(ℓ1-on-PIM)/fine(ℓ2-on-CPU) kNN filtering (§6). Off = evaluate
    /// the expensive metric directly on the PIM cores.
    pub coarse_fine_knn: bool,
    /// Practical chunking's dense mode (§6): fragments with ≥ B/4 nodes get
    /// a radix jump table at their root, replacing up to log2(B) sequential
    /// node reads per lookup with one table read.
    pub practical_chunking: bool,
}

impl Default for Toggles {
    fn default() -> Self {
        Self {
            fast_zorder: true,
            lazy_counters: true,
            coarse_fine_knn: true,
            practical_chunking: true,
        }
    }
}

/// Full configuration of a PIM-zd-tree instance.
#[derive(Clone, Copy, Debug)]
pub struct PimZdConfig {
    /// Subtree-size threshold for L0 (globally shared) membership:
    /// `T(N) ≥ theta_l0` ⇒ L0.
    pub theta_l0: u64,
    /// Subtree-size threshold for L2 (exclusive) membership:
    /// `T(N) < theta_l1` ⇒ L2.
    pub theta_l1: u64,
    /// Chunking factor `B` (§3.2): a meta-node rooted at `N` absorbs
    /// descendants with `T > T(N)/B`.
    pub chunk_b: u64,
    /// Leaf capacity (max points per leaf node).
    pub leaf_cap: usize,
    /// Pull threshold for L1 meta-nodes (Alg. 1 step 2): pull when more than
    /// this many queries target one meta-node.
    pub k_pull_l1: u64,
    /// Pull threshold per L2 level (Alg. 1 step 4): `K = B`.
    pub k_pull_l2: u64,
    /// Load-imbalance trigger: pull rounds run while the busiest module gets
    /// more than this multiple of the average load (Alg. 1: 3×).
    pub imbalance_factor: f64,
    /// Lazy-counter sync threshold Δ for L1 meta-nodes (Table 1); L0 path
    /// counters are host-maintained, and L2 has Δ = 0 (master-only exact).
    pub delta_l1: u64,
    /// Hash seed for master placement.
    pub placement_seed: u64,
    /// Implementation-technique toggles (Table 3 ablations).
    pub toggles: Toggles,
    /// Maximum binary nodes a fragment may hold before it is re-chunked
    /// (keeps pull costs bounded at O(B) — "practical chunking", §6).
    pub max_fragment_nodes: usize,
}

impl PimZdConfig {
    /// The throughput-optimized preset (Table 2): θ_L0 = n/P, θ_L1 = 1
    /// (no L2 layer), B = θ_L0 — each subtree below L0 is one meta-node on
    /// one module, so a balanced SEARCH costs O(1) communication.
    pub fn throughput_optimized(n_estimate: u64, p: usize) -> Self {
        let theta_l0 = (n_estimate / p as u64).max(64);
        Self {
            theta_l0,
            theta_l1: 1,
            chunk_b: theta_l0,
            leaf_cap: 16,
            // Pulling is the skew-resistant machinery; the throughput-
            // optimized extreme is a pure range-partitioned layout whose
            // allowed skew is (P log P, 3) — beyond that it simply degrades
            // (Fig. 9). Disable pulls entirely.
            k_pull_l1: u64::MAX,
            k_pull_l2: u64::MAX,
            imbalance_factor: 3.0,
            // Table 1: Δ_L1 = min(θ_L1, log_B(θ_L0/θ_L1)) degenerates; use
            // θ_L0/8 so root counters stay within the Lemma 3.1 band.
            delta_l1: (theta_l0 / 8).max(1),
            placement_seed: 0x9D_1A_2048,
            toggles: Toggles::default(),
            max_fragment_nodes: usize::MAX,
        }
    }

    /// The skew-resistant preset (Table 2): θ_L0 = Θ(P), θ_L1 = Θ(log_B P),
    /// B = 16 — fine-grained meta-nodes with L1 caching tolerate arbitrary
    /// skew at O(log_B log_B P) communication per operation.
    pub fn skew_resistant(p: usize) -> Self {
        let b = 16u64;
        let log_b_p = ((p.max(2) as f64).ln() / (b as f64).ln()).ceil().max(1.0) as u64;
        let theta_l0 = 4 * p as u64;
        let theta_l1 = (4 * log_b_p).max(2);
        let ratio = (theta_l0 / theta_l1).max(2);
        let log_b_ratio = ((ratio as f64).ln() / (b as f64).ln()).ceil().max(1.0) as u64;
        Self {
            theta_l0,
            theta_l1,
            chunk_b: b,
            leaf_cap: 16,
            k_pull_l1: b * log_b_ratio,
            k_pull_l2: b,
            imbalance_factor: 3.0,
            delta_l1: theta_l1.min(log_b_ratio).max(1),
            placement_seed: 0x5E_0B_2048,
            toggles: Toggles::default(),
            max_fragment_nodes: (8 * b as usize).max(64),
        }
    }

    /// Width in bits of the dense-mode chunk directory (§6), 0 when the
    /// feature is toggled off: log2(B), clamped so tables stay small.
    pub fn chunk_dir_bits(&self) -> u32 {
        if !self.toggles.practical_chunking {
            return 0;
        }
        let log_b = 64 - (self.chunk_b.max(2) - 1).leading_zeros();
        log_b.clamp(2, 8)
    }

    /// Minimum live nodes before a fragment switches to dense mode (B/4).
    pub fn chunk_dense_min(&self) -> u32 {
        (self.chunk_b / 4).clamp(4, u32::MAX as u64) as u32
    }

    /// Layer of a subtree-size value under this configuration.
    pub fn layer_of(&self, subtree_size: u64) -> Layer {
        if subtree_size >= self.theta_l0 {
            Layer::L0
        } else if subtree_size >= self.theta_l1 {
            Layer::L1
        } else {
            Layer::L2
        }
    }
}

/// The three layers of §3.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// Globally shared (host-resident, replicated when it outgrows cache).
    L0,
    /// Partially shared (random master + ancestor/descendant caching).
    L1,
    /// Exclusive (master only).
    L2,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_preset_matches_table2() {
        let c = PimZdConfig::throughput_optimized(2_000_000, 2048);
        assert_eq!(c.theta_l0, 2_000_000 / 2048);
        assert_eq!(c.theta_l1, 1);
        assert_eq!(c.chunk_b, c.theta_l0);
    }

    #[test]
    fn skew_preset_matches_table2() {
        let c = PimZdConfig::skew_resistant(2048);
        assert_eq!(c.chunk_b, 16);
        assert_eq!(c.theta_l0, 4 * 2048);
        assert!(c.theta_l1 >= 2 && c.theta_l1 <= 64);
        assert!(c.max_fragment_nodes >= 64);
    }

    #[test]
    fn layer_classification() {
        let c = PimZdConfig::skew_resistant(64);
        assert_eq!(c.layer_of(c.theta_l0), Layer::L0);
        assert_eq!(c.layer_of(c.theta_l0 - 1), Layer::L1);
        assert_eq!(c.layer_of(c.theta_l1), Layer::L1);
        assert_eq!(c.layer_of(c.theta_l1 - 1), Layer::L2);
    }

    #[test]
    fn throughput_preset_has_floor_for_tiny_n() {
        let c = PimZdConfig::throughput_optimized(10, 2048);
        assert!(c.theta_l0 >= 64);
    }
}

#[cfg(test)]
mod chunking_cfg_tests {
    use super::*;

    #[test]
    fn chunk_dir_bits_follows_b() {
        let mut c = PimZdConfig::skew_resistant(64);
        assert_eq!(c.chunk_b, 16);
        assert_eq!(c.chunk_dir_bits(), 4, "log2(16)");
        assert_eq!(c.chunk_dense_min(), 4, "B/4");
        c.toggles.practical_chunking = false;
        assert_eq!(c.chunk_dir_bits(), 0, "toggle disables the table");
    }

    #[test]
    fn chunk_dir_bits_is_clamped_for_huge_b() {
        let c = PimZdConfig::throughput_optimized(1_000_000, 16);
        assert!(c.chunk_b > 256);
        assert_eq!(c.chunk_dir_bits(), 8, "tables stay bounded");
    }

    #[test]
    fn toggles_default_everything_on() {
        let t = Toggles::default();
        assert!(t.fast_zorder && t.lazy_counters && t.coarse_fine_knn && t.practical_chunking);
    }
}
