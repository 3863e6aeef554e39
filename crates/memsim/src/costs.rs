//! CPU cycle-cost constants for instrumented traversals: the one table
//! both shared-memory baselines charge from (the engine's walks, the
//! zd-tree's merge and the Pkd-tree's reconstruction alike), and that the
//! PIM index's host steps charge from where they do the same work: the
//! batch Morton encode ([`zorder_fast_cycles`]), a host distance
//! ([`dist_cycles`]), a kNN candidate ([`HEAP_OP`]) and an emitted box point
//! ([`EMIT`]). Fig. 5's speedups compare the two sides at these prices, so
//! each is defined once. The index's own steps, and everything a PIM core
//! runs, are priced in `pim_zd_tree::costs`.
//!
//! These are coarse per-step instruction estimates; only their relative
//! magnitudes matter for the shape of the results. They follow the obvious
//! instruction counts of each step on a superscalar x86 core.

/// Pointer-chase + compare + branch of one internal-node traversal step.
pub const NODE_VISIT: u64 = 20;

/// Per-point distance evaluation in `d` dimensions on the CPU (multiply is
/// cheap here — that asymmetry versus PIM cores is the point of §6).
#[inline]
pub const fn dist_cycles(d: usize) -> u64 {
    6 * d as u64
}

/// Box/point or box/box overlap test in `d` dimensions.
#[inline]
pub const fn box_test_cycles(d: usize) -> u64 {
    8 * d as u64
}

/// Fast gap-interleave Morton encoding (§6): ~5 mask rounds × `d` coords.
#[inline]
pub const fn zorder_fast_cycles(d: usize) -> u64 {
    12 * d as u64
}

/// Heap push/pop pair in a k-bounded priority queue.
pub const HEAP_OP: u64 = 30;

/// Per-element cost of moving a result into the output buffer.
pub const EMIT: u64 = 4;

/// Per-key cost of the batch preprocessing sort, amortized (radix-ish).
pub const SORT_PER_KEY: u64 = 25;

/// Per-key cost of one step of a two-run merge or multiset difference.
pub const MERGE_PER_KEY: u64 = 4;

/// Per-point equality scan of a leaf bucket.
pub const LEAF_SCAN_PER_POINT: u64 = 2;

/// Per-point staging of an unsorted update batch (copy + routing prep).
pub const STAGE_PER_POINT: u64 = 30;

/// Per-point compare-and-move routing a batch across one split.
pub const ROUTE_PER_POINT: u64 = 6;

/// Per-point, per-level selection work of an object-median partition.
pub const PARTITION_PER_POINT: u64 = 8;

/// Per-point cost of gathering a subtree's points for reconstruction.
pub const GATHER_PER_POINT: u64 = 10;
