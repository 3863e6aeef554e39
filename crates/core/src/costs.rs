//! The index's cost table: every cycle and byte a step of the index charges,
//! named once.
//!
//! Two machines run the index. A fragment kernel (`frag.rs`: a walk, a
//! merge, a kNN or box step) charges through a
//! [`CostSink`](crate::frag::CostSink): on a module that is the PIM core's
//! [`PimCtx`](pim_sim::PimCtx), on the host (L0, pulled fragments) the
//! host's [`CpuMeter`](pim_memsim::CpuMeter). Its prices below are cycles
//! of whichever core runs it, and bytes of whichever memory holds the
//! fragment. The module handlers' management tasks run on the PIM cores
//! only; the host steps (grouping, maintenance, the kNN runs, the shard
//! router) on the host only.
//!
//! The host steps that the shared-memory baselines take too — a Morton
//! encode, a host distance, a kNN candidate, an emitted point — are priced
//! in [`pim_memsim::costs`], which both sides read, so Fig. 5 compares the
//! two at one price per step.
//!
//! Every price is a `const` or a `const fn` of the dimension; nothing here
//! is configurable. Changing one moves the rows of `tests/cost_pins.rs` that
//! charge it.

use pim_geom::{coord_bits_for_dim, Metric};
use pim_sim::ctx::MUL_DIV_CYCLES;

// ---------------------------------------------------------------------
// Fragment kernels: cycles of the core that runs them
// ---------------------------------------------------------------------

/// Entering one binary node: the prefix compare and the branch, on top of
/// reading its record (`BNODE_BYTES`). Every walk pays it per node.
pub const NODE_ENTER: u64 = 10;

/// A resumed walk's common-prefix length with the previous key (XOR,
/// leading zeros), once per key.
pub const RESUME_LCP: u64 = 2;

/// A resumed walk's compare per path node it pops.
pub const RESUME_POP: u64 = 1;

/// Checking whether a remote child's prefix covers the key.
pub const REF_CHECK: u64 = 4;

/// Practical chunking's dense-mode jump: the slot index arithmetic, and
/// the [`DENSE_SLOT_BYTES`] slot it reads just after the root's record.
pub const DENSE_SLOT: u64 = 4;
/// Bytes of one dense-mode table slot.
pub const DENSE_SLOT_BYTES: u64 = 4;

/// One node the kNN anchor walk (`Fragment::lowest_on_path`) looks at on a
/// module, during SEARCH.
pub const ANCHOR_STEP_MODULE: u64 = 6;
/// One node (of L0) or hop (of the trace below it) the host's walk to a
/// ball run's entry node looks at.
pub const ANCHOR_STEP_HOST: u64 = 12;

/// A module's search moving on into a fragment the module also holds (a
/// cached copy or a co-located master), without a round trip.
pub const LOCAL_HOP: u64 = 4;

/// Holding one candidate against a k-best list.
pub const CAND_PUSH: u64 = 12;

/// Per-axis difference, absolute value and sum of a distance evaluation.
pub const DIST_AXIS: u64 = 3;

/// One distance evaluation in `d` dimensions on a PIM core: per axis
/// [`DIST_AXIS`], and for ℓ2 one multiply at [`MUL_DIV_CYCLES`]. That
/// multiply is why §6 filters coarsely in ℓ1 on the modules and finely in
/// ℓ2 on the host.
#[inline]
pub const fn pim_dist_cycles(metric: Metric, d: usize) -> u64 {
    let per_axis = match metric {
        Metric::L1 | Metric::Linf => DIST_AXIS,
        Metric::L2 => DIST_AXIS + MUL_DIV_CYCLES,
    };
    per_axis * d as u64
}

/// Bytes of one point's coordinates in `d` dimensions (`Point::wire_bytes`):
/// what a PIM distance evaluation reads, what the query kernels read per
/// leaf point and what a newly built leaf is written with per point.
#[inline]
pub const fn point_bytes(d: usize) -> u64 {
    (d * std::mem::size_of::<u32>()) as u64
}

/// Bytes of the Morton key stored beside each leaf point.
pub const KEY_BYTES: u64 = 8;

/// A box test in `d` dimensions: a box's lower bound under a metric, a
/// box/box overlap, or a point-in-box test.
#[inline]
pub const fn box_test_cycles(d: usize) -> u64 {
    8 * d as u64
}

/// A BoxCount/BoxFetch node's classification (disjoint, covered or cut) on
/// top of its box test.
pub const BOX_CLASSIFY: u64 = 6;

/// The ball phase's ℓ∞ cube check, per leaf point: a compare per axis,
/// twice.
#[inline]
pub const fn cube_test_cycles(d: usize) -> u64 {
    2 * d as u64
}

/// Moving one accepted point into a kernel's reply.
pub const EMIT_POINT: u64 = 4;

/// Per key of a leaf's merge (insert) or multiset difference (delete).
pub const MERGE_PER_KEY: u64 = 4;

/// Per node an insert merge or a delete descends into.
pub const UPDATE_STEP: u64 = 12;

/// Building one node of a canonical subtree...
pub const BUILD_NODE: u64 = 8;
/// ...plus this per item below it (finding the split).
pub const BUILD_PER_ITEM: u64 = 1;

// ---------------------------------------------------------------------
// Module management tasks: PIM-core cycles, each with one node record
// ---------------------------------------------------------------------

/// Lowering the counter of one node of a cached copy.
pub const PATCH_NODE: u64 = 8;

/// Syncing one child counter into a master or a copy (per repeat under the
/// eager-counter ablation).
pub const SYNC_CHILD: u64 = 20;

/// Replacing one child ref of a master and of its copy.
pub const REPLACE_CHILD: u64 = 30;

/// Bytes of one counter update broadcast to the L0 replicas.
pub const COUNT_UPDATE_BYTES: u64 = 16;

// ---------------------------------------------------------------------
// Host steps only the index takes: host cycles
// ---------------------------------------------------------------------

/// Per key of a batch's `(key, qid)` sort (SEARCH, Alg. 1 step 1), and per
/// item of insert's and delete's grouping pass over that order.
pub const BATCH_SORT_PER_KEY: u64 = 20;

/// Table 3's naive bitwise Morton encode of one point in `d` dimensions:
/// four cycles per output bit.
#[inline]
pub const fn zorder_naive_cycles(d: usize) -> u64 {
    4 * d as u64 * coord_bits_for_dim(d) as u64
}

/// Replacing one child ref in L0 or in a structure copy in hand.
pub const HOST_REPLACE_REF: u64 = 60;

/// Syncing one child counter into L0 or a structure copy in hand (per
/// repeat under the eager-counter ablation).
pub const HOST_SYNC_REF: u64 = 40;

/// Registering one fragment demoted out of L0 in the directory.
pub const HOST_REGISTER: u64 = 40;

/// Splicing a promoted fragment root into L0.
pub const HOST_GRAFT: u64 = 80;

/// Per item ordered and cut into coalesced runs (a merge step plus a
/// routing step, as the router prices them): kNN queries into ball runs,
/// the router's widen requests into fetch runs.
pub const COALESCE_CYCLES: u64 = 32;

/// Starting one ball run: taking over a finished walk and setting its entry.
pub const BALL_RUN_START: u64 = 30;

/// Per ball point a kNN reply adds to its walk's set.
pub const BALL_POINT: u64 = 8;

/// The shard router, per item routed (key encode and trie walk).
pub const ROUTE_CYCLES: u64 = 24;

/// The shard router, per box routed to the ranks it intersects: a trie
/// walk per corner.
pub const ROUTE_BOX_CYCLES: u64 = 2 * ROUTE_CYCLES;

/// The shard router, per element merged or sorted at the gather stage.
pub const MERGE_CYCLES: u64 = 8;

/// The shard router's widen filter, per (member, fetched point) pair: an
/// eighth of a PIM ℓ2 evaluation plus a merge step. The distance part is a
/// PIM price charged to the host.
#[inline]
pub const fn widen_filter_cycles(d: usize) -> u64 {
    pim_dist_cycles(Metric::L2, d) / 8 + MERGE_CYCLES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_is_what_makes_pim_distances_dear() {
        assert!(pim_dist_cycles(Metric::L2, 3) > 10 * pim_dist_cycles(Metric::L1, 3));
        assert_eq!(pim_dist_cycles(Metric::L1, 3), pim_dist_cycles(Metric::Linf, 3));
    }
}
