//! The shard placement table: a Morton-prefix trie with rendezvous-hashed
//! leaf ownership.
//!
//! The key space is partitioned into **cells** — aligned Morton prefixes,
//! i.e. aligned hypercubes of the grid — and every leaf cell is owned by
//! exactly one rank. Initial ownership is rendezvous hashing
//! ([`pim_sim::rendezvous_owner`]) of the cell id over the member set, the
//! construction the fraktor-style placement coordinators use: balanced,
//! deterministic, and minimally disruptive under membership change. The
//! table is the routing **directory**: every override ([`set_owner`]) and
//! refinement ([`split`]) is recorded here *before* data moves, so routing
//! stays authoritative during a migration — queries issued mid-rebalance
//! consult the same table the migrator just wrote.
//!
//! [`set_owner`]: PlacementTable::set_owner
//! [`split`]: PlacementTable::split

use pim_geom::{coord_bits_for_dim, Aabb, Point};
use pim_zorder::ZKey;

/// An aligned Morton-prefix cell: `level` refinement steps (one step splits
/// every axis once, i.e. consumes `D` key bits), with the prefix stored
/// right-aligned in `bits` (`level * D` significant bits).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId {
    /// Refinement depth: the cell's side is `2^(COORD_BITS - level)`.
    pub level: u32,
    /// The `level * D` prefix bits, right-aligned.
    pub bits: u64,
}

impl CellId {
    /// The root cell (the whole grid).
    pub const ROOT: CellId = CellId { level: 0, bits: 0 };

    /// A collision-free `u64` id for rendezvous hashing: the prefix bits
    /// with a leading 1 marker, so cells of different levels never alias.
    fn uid<const D: usize>(self) -> u64 {
        let w = self.level as u64 * D as u64;
        debug_assert!(w < 64);
        (1u64 << w) | self.bits
    }

    /// The child cell holding `key` (a full Morton key).
    fn child_for_key<const D: usize>(self, key: u64) -> u64 {
        (key >> (ZKey::<D>::BITS - (self.level + 1) * D as u32)) & ((1 << D) - 1)
    }

    /// The `i`-th child cell (Morton order).
    fn child<const D: usize>(self, i: u64) -> CellId {
        CellId { level: self.level + 1, bits: (self.bits << D) | i }
    }

    /// The axis-aligned box the cell covers.
    pub fn aabb<const D: usize>(self) -> Aabb<D> {
        let side_shift = ZKey::<D>::COORD_BITS - self.level;
        let lo = ZKey::<D>(self.bits << (ZKey::<D>::BITS - self.level * D as u32)).decode();
        let mut hi = lo;
        for c in hi.coords.iter_mut() {
            *c += (1u32 << side_shift) - 1;
        }
        Aabb::new(lo, hi)
    }
}

/// One trie node: a leaf owned by a rank, or a split into `2^D` contiguous
/// children.
#[derive(Clone, Copy, Debug)]
enum Node {
    Leaf { owner: u32 },
    Split { children: u32 },
}

/// The membership/placement table (see the module docs).
#[derive(Clone, Debug)]
pub struct PlacementTable<const D: usize> {
    seed: u64,
    /// Member ranks (`0..n_ranks` today): what `rendezvous` hashes over.
    members: Vec<u32>,
    nodes: Vec<Node>,
    overrides: u64,
}

impl<const D: usize> PlacementTable<D> {
    /// A table over ranks `0..n_ranks`, uniformly refined to
    /// `initial_levels` (so `2^(D·initial_levels)` leaves) with rendezvous
    /// owners. `initial_levels` may be 0 (one leaf, rank chosen by hash).
    pub fn new(seed: u64, n_ranks: usize, initial_levels: u32) -> Self {
        assert!(n_ranks > 0, "a placement table needs at least one rank");
        assert!(
            (initial_levels as u64) * (D as u64) < 64 && initial_levels < coord_bits_for_dim(D),
            "initial_levels too deep for the grid"
        );
        let members: Vec<u32> = (0..n_ranks as u32).collect();
        let mut t =
            PlacementTable { seed, members, nodes: vec![Node::Leaf { owner: 0 }], overrides: 0 };
        t.nodes[0] = Node::Leaf { owner: t.rendezvous(CellId::ROOT) };
        let mut frontier = vec![CellId::ROOT];
        for _ in 0..initial_levels {
            let mut next = Vec::with_capacity(frontier.len() << D);
            for cell in frontier {
                next.extend(t.split(cell).into_iter().map(|(c, _)| c));
            }
            frontier = next;
        }
        t.overrides = 0; // construction-time splits are not migrations
        t
    }

    /// Number of recorded overrides (ownership moves + refinement splits)
    /// since construction.
    pub fn overrides(&self) -> u64 {
        self.overrides
    }

    /// Number of leaf cells.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }

    fn rendezvous(&self, cell: CellId) -> u32 {
        pim_sim::rendezvous_owner(self.seed, cell.uid::<D>(), &self.members)
    }

    /// Walks to the leaf holding `key`, returning `(node index, cell)`.
    fn walk(&self, key: u64) -> (usize, CellId) {
        let mut idx = 0usize;
        let mut cell = CellId::ROOT;
        loop {
            match self.nodes[idx] {
                Node::Leaf { .. } => return (idx, cell),
                Node::Split { children } => {
                    let c = cell.child_for_key::<D>(key);
                    idx = children as usize + c as usize;
                    cell = cell.child::<D>(c);
                }
            }
        }
    }

    /// The leaf cell containing `key` (a full Morton key).
    pub fn cell_of_key(&self, key: u64) -> CellId {
        self.walk(key).1
    }

    /// The rank owning `key`.
    pub fn owner_of_key(&self, key: u64) -> u32 {
        match self.nodes[self.walk(key).0] {
            Node::Leaf { owner } => owner,
            Node::Split { .. } => unreachable!("walk ends at a leaf"),
        }
    }

    /// The rank owning point `p` (its Morton key's leaf).
    pub fn owner_of_point(&self, p: &Point<D>) -> u32 {
        self.owner_of_key(ZKey::<D>::encode(p).0)
    }

    /// Every leaf cell intersecting `query`, with its owner, in Morton
    /// order. Non-intersecting subtrees are pruned during descent.
    pub fn leaves_intersecting(&self, query: &Aabb<D>) -> Vec<(CellId, u32)> {
        let mut out = Vec::new();
        self.collect_leaves(0, CellId::ROOT, Some(query), &mut out);
        out
    }

    /// Replaces `ranks` with the distinct ranks whose leaves intersect
    /// `query`, ascending. The trie walk writes owners straight into the
    /// caller's set and stops once every member is in it; cell boxes are
    /// halved on the way down, never decoded.
    pub fn ranks_intersecting(&self, query: &Aabb<D>, ranks: &mut Vec<u32>) {
        ranks.clear();
        self.collect_ranks(0, [0; D], 0, query, ranks);
        ranks.sort_unstable();
    }

    /// `lo` is the low corner of the level-`level` cell at node `idx`.
    fn collect_ranks(
        &self,
        idx: usize,
        lo: [u32; D],
        level: u32,
        query: &Aabb<D>,
        ranks: &mut Vec<u32>,
    ) {
        let side = 1u32 << (ZKey::<D>::COORD_BITS - level);
        let hit =
            (0..D).all(|j| lo[j] <= query.hi.coords[j] && query.lo.coords[j] <= lo[j] + (side - 1));
        if !hit || ranks.len() == self.members.len() {
            return;
        }
        match self.nodes[idx] {
            Node::Leaf { owner } => {
                if !ranks.contains(&owner) {
                    ranks.push(owner);
                }
            }
            Node::Split { children } => {
                // Child `i` (Morton order) takes the upper half of axis `j`
                // when bit `D - 1 - j` of `i` is set: dimension 0 owns the
                // most significant bit of each `D`-bit group.
                for i in 0..(1usize << D) {
                    let mut child_lo = lo;
                    for (j, c) in child_lo.iter_mut().enumerate() {
                        *c += (side / 2) * ((i >> (D - 1 - j)) & 1) as u32;
                    }
                    self.collect_ranks(children as usize + i, child_lo, level + 1, query, ranks);
                }
            }
        }
    }

    /// Every leaf cell owned by `rank`, in Morton order.
    pub fn leaves_of_rank(&self, rank: u32) -> Vec<CellId> {
        let mut out = Vec::new();
        self.collect_leaves(0, CellId::ROOT, None, &mut out);
        out.into_iter().filter(|&(_, o)| o == rank).map(|(c, _)| c).collect()
    }

    fn collect_leaves(
        &self,
        idx: usize,
        cell: CellId,
        query: Option<&Aabb<D>>,
        out: &mut Vec<(CellId, u32)>,
    ) {
        if let Some(q) = query {
            if !cell.aabb::<D>().intersects(q) {
                return;
            }
        }
        match self.nodes[idx] {
            Node::Leaf { owner } => out.push((cell, owner)),
            Node::Split { children } => {
                for i in 0..(1u64 << D) {
                    self.collect_leaves(
                        children as usize + i as usize,
                        cell.child::<D>(i),
                        query,
                        out,
                    );
                }
            }
        }
    }

    /// Records an ownership override: leaf `cell` now belongs to `rank`.
    /// Must be called *before* the data migrates so in-flight routing stays
    /// authoritative. Panics if `cell` is not a current leaf.
    pub fn set_owner(&mut self, cell: CellId, rank: u32) {
        assert!(self.members.contains(&rank), "rank {rank} is not a member");
        let (idx, found) = self.walk_to_cell(cell);
        assert_eq!(found, cell, "set_owner target {cell:?} is not a leaf");
        self.nodes[idx] = Node::Leaf { owner: rank };
        self.overrides += 1;
    }

    /// Refines leaf `cell` into its `2^D` children, each owned by its own
    /// rendezvous hash. Returns the children with their owners in Morton
    /// order (data still lives on the old owner until the caller migrates
    /// it). Panics if `cell` is not a current leaf or is at maximum depth.
    pub fn split(&mut self, cell: CellId) -> Vec<(CellId, u32)> {
        assert!(cell.level + 1 < coord_bits_for_dim(D), "cell {cell:?} is at maximum depth");
        let (idx, found) = self.walk_to_cell(cell);
        assert_eq!(found, cell, "split target {cell:?} is not a leaf");
        let base = self.nodes.len() as u32;
        let children: Vec<(CellId, u32)> = (0..(1u64 << D))
            .map(|i| {
                let c = cell.child::<D>(i);
                (c, self.rendezvous(c))
            })
            .collect();
        self.nodes.extend(children.iter().map(|&(_, owner)| Node::Leaf { owner }));
        self.nodes[idx] = Node::Split { children: base };
        self.overrides += 1;
        children
    }

    /// Walks toward `cell`, stopping at the first leaf on its path.
    fn walk_to_cell(&self, cell: CellId) -> (usize, CellId) {
        // Any key inside the cell reaches it; use its low corner's key.
        let key = if cell.level == 0 {
            0
        } else {
            cell.bits << (ZKey::<D>::BITS - cell.level * D as u32)
        };
        let mut idx = 0usize;
        let mut cur = CellId::ROOT;
        while cur.level < cell.level {
            match self.nodes[idx] {
                Node::Leaf { .. } => break,
                Node::Split { children } => {
                    let c = cur.child_for_key::<D>(key);
                    idx = children as usize + c as usize;
                    cur = cur.child::<D>(c);
                }
            }
        }
        (idx, cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_boxes_tile_the_grid() {
        let t = PlacementTable::<3>::new(7, 4, 2);
        let leaves = t.leaves_intersecting(&Aabb::universe());
        assert_eq!(leaves.len(), 64);
        let total: u128 = leaves.iter().map(|(c, _)| c.aabb::<3>().volume()).sum();
        assert_eq!(total, Aabb::<3>::universe().volume(), "leaves tile the grid exactly");
        // Every owner is a member, and the Morton-order cells are disjoint.
        for w in leaves.windows(2) {
            assert!(!w[0].0.aabb::<3>().intersects(&w[1].0.aabb::<3>()));
        }
    }

    #[test]
    fn owner_of_point_matches_the_intersecting_leaf() {
        let t = PlacementTable::<3>::new(3, 8, 2);
        for i in 0..512u32 {
            let p = Point::new([i * 4099 % (1 << 21), i * 131 % (1 << 21), i * 29 % (1 << 21)]);
            let owner = t.owner_of_point(&p);
            let leaves = t.leaves_intersecting(&Aabb::point(p));
            assert_eq!(leaves.len(), 1, "a point lives in exactly one leaf");
            assert_eq!(leaves[0].1, owner);
            assert!(leaves[0].0.aabb::<3>().contains(&p));
        }
    }

    #[test]
    fn split_refines_ownership_and_routing_follows() {
        let mut t = PlacementTable::<3>::new(11, 4, 1);
        let p = Point::new([5u32, 9, 2]);
        let cell = t.cell_of_key(ZKey::<3>::encode(&p).0);
        let kids = t.split(cell);
        assert_eq!(kids.len(), 8);
        let new_cell = t.cell_of_key(ZKey::<3>::encode(&p).0);
        assert_eq!(new_cell.level, cell.level + 1);
        let (_, owner) = kids.iter().find(|(c, _)| *c == new_cell).unwrap();
        assert_eq!(t.owner_of_point(&p), *owner);
        assert_eq!(t.overrides(), 1);
    }

    #[test]
    fn set_owner_overrides_and_is_recorded() {
        let mut t = PlacementTable::<3>::new(5, 4, 1);
        let p = Point::new([1u32 << 20, 3, 7]);
        let cell = t.cell_of_key(ZKey::<3>::encode(&p).0);
        let before = t.owner_of_point(&p);
        let target = (before + 1) % 4;
        t.set_owner(cell, target);
        assert_eq!(t.owner_of_point(&p), target);
        assert_eq!(t.overrides(), 1);
    }

    #[test]
    fn rank_leaf_listing_partitions_the_leaves() {
        let t = PlacementTable::<3>::new(19, 4, 2);
        let mut n = 0;
        for r in 0..4 {
            for c in t.leaves_of_rank(r) {
                assert_eq!(t.owner_of_key(c.bits << (ZKey::<3>::BITS - c.level * 3)), r);
                n += 1;
            }
        }
        assert_eq!(n, t.n_leaves());
    }

    #[test]
    fn rank_walk_agrees_with_the_leaf_listing() {
        // An uneven trie: one cell split two levels further, one leaf moved.
        let mut t = PlacementTable::<3>::new(23, 5, 2);
        let cell = t.cell_of_key(ZKey::<3>::encode(&Point::new([9u32, 1 << 20, 77])).0);
        let (kid, _) = t.split(cell)[5];
        t.split(kid);
        let moved = t.cell_of_key(0);
        t.set_owner(moved, 4);
        let m = (1u32 << 21) - 1;
        let mut ranks = Vec::new();
        for i in 0..400u32 {
            let h = |x: u32| x.wrapping_mul(2654435761) >> 11;
            let lo = [h(i), h(i + 1000), h(i + 2000)];
            // Sides from one grid unit to most of the grid.
            let side = 1u32 << (i % 21);
            let hi = lo.map(|c| c.saturating_add(side).min(m));
            let q = Aabb::new(Point::new(lo), Point::new(hi));
            let mut want: Vec<u32> =
                t.leaves_intersecting(&q).into_iter().map(|(_, o)| o).collect();
            want.sort_unstable();
            want.dedup();
            t.ranks_intersecting(&q, &mut ranks);
            assert_eq!(ranks, want, "box {q:?}");
        }
        t.ranks_intersecting(&Aabb::universe(), &mut ranks);
        assert_eq!(ranks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_rank_owns_everything() {
        let t = PlacementTable::<3>::new(1, 1, 2);
        let mut ranks = vec![9];
        t.ranks_intersecting(&Aabb::universe(), &mut ranks);
        assert_eq!(ranks, vec![0]);
    }
}
