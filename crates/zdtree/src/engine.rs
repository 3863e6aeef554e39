//! The instrumented binary-space-tree engine under both shared-memory
//! baselines: one node arena, one set of [`CpuMeter`] charges, one kNN walk,
//! one orthogonal-range walk and one batch wrapper, so the zd-tree's and the
//! Pkd-tree's Fig. 5 series come from one cost model by construction.
//!
//! A tree supplies what its node records are — [`TreeNode`]: a node's box,
//! its count, its two children or its leaf's points, and where and how big
//! the records are in the cache model's address space — and keeps what it
//! *is*: how it is built and how it is updated. Every charge names a
//! constant of [`costs`]; dispatch is static throughout.
//!
//! kNN uses bounded best-first branch-and-bound with exact integer metric
//! comparisons and a deterministic `(distance, coordinates)` tie rule, so
//! results are reproducible and comparable bit-for-bit against the
//! brute-force oracle in tests.

use pim_geom::{Aabb, Metric, Point};
use pim_memsim::costs;
use pim_memsim::CpuMeter;
use std::collections::BinaryHeap;

/// Handle into a node arena.
pub type NodeId = u32;

/// What a node is, as the engine sees it.
pub enum Kind<'a, I> {
    /// A leaf and its stored entries.
    Leaf(&'a [I]),
    /// An internal node and its `(left, right)` children.
    Internal(NodeId, NodeId),
}

/// What a tree supplies to the engine: how to read one of its node records.
pub trait TreeNode<const D: usize> {
    /// A stored leaf entry (a bare point, or a point with its key).
    type Item: Copy;

    /// Base of the node-record region in the cache model's address space.
    /// Node records and leaf point storage sit in disjoint regions (and each
    /// tree in regions of its own) so their cache behaviour is independent.
    const NODE_REGION: u64;
    /// Base of the leaf point-storage region (slot-per-node layout).
    const POINTS_REGION: u64;
    /// Bytes charged per node record.
    const NODE_BYTES: u64;
    /// Bytes charged per stored point.
    const POINT_BYTES: u64;

    /// A box containing every point below the node (queries prune on it).
    fn bbox(&self) -> Aabb<D>;

    /// Number of points below the node.
    fn count(&self) -> u32;

    /// Leaf entries or children.
    fn kind(&self) -> Kind<'_, Self::Item>;

    /// The point of a leaf entry.
    fn point(item: &Self::Item) -> &Point<D>;
}

/// A metered baseline built on the engine: what puts any of them behind
/// one batch surface (`pim_bench::harness::CpuRunner`). Queries come from
/// [`Self::engine`]; the two updates are each tree's own.
pub trait MeteredTree<const D: usize> {
    /// The tree's node record.
    type Node: TreeNode<D>;

    /// The engine the tree is built on.
    fn engine(&self) -> &BinTree<Self::Node, D>;

    /// Inserts a batch of points (multiset semantics: duplicates stack).
    fn batch_insert(&mut self, points: &[Point<D>], meter: &mut CpuMeter);

    /// Deletes at most one stored instance per batch element; returns the
    /// number of points removed.
    fn batch_delete(&mut self, points: &[Point<D>], meter: &mut CpuMeter) -> usize;
}

/// Charges the per-item batch bookkeeping (input read + routing/output slot)
/// that every batched operation streams through memory. Mirrors the PIM
/// index's host-side query-state accounting so baseline comparisons are
/// symmetric.
pub fn charge_batch_state(n: usize, meter: &mut CpuMeter) {
    const BATCH_REGION: u64 = 1 << 47;
    const SLOT: u64 = 24;
    for i in 0..n {
        meter.touch(BATCH_REGION + i as u64 * SLOT, SLOT, true);
    }
}

/// A kNN candidate ordered by (distance, coordinates) — the derived
/// lexicographic order over the fields as declared. `BinaryHeap` keeps the
/// *worst* candidate on top.
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug, Clone, Copy)]
struct Cand<const D: usize> {
    dist: u64,
    coords: [u32; D],
}

/// An arena-allocated binary space tree over `N` records, with every
/// measured traversal instrumented through a [`CpuMeter`].
pub struct BinTree<N, const D: usize> {
    /// Node arena. Slots on the free list are garbage.
    nodes: Vec<N>,
    /// Free arena slots available for reuse.
    free: Vec<NodeId>,
    /// Root node, `None` when empty.
    pub root: Option<NodeId>,
    /// Maximum points per leaf.
    pub leaf_cap: usize,
    /// Total points stored.
    pub n_points: usize,
}

impl<N: TreeNode<D>, const D: usize> BinTree<N, D> {
    /// An empty tree.
    pub fn new(leaf_cap: usize) -> Self {
        assert!(leaf_cap >= 1);
        Self { nodes: Vec::new(), free: Vec::new(), root: None, leaf_cap, n_points: 0 }
    }

    /// A bulk-built tree over `n_points > 0` points: `fill` writes every one
    /// of the `n_nodes` arena slots, the root at slot 0.
    pub fn bulk(
        leaf_cap: usize,
        n_points: usize,
        n_nodes: usize,
        fill: impl FnOnce(&mut [Option<N>]),
    ) -> Self {
        let mut arena: Vec<Option<N>> = (0..n_nodes).map(|_| None).collect();
        fill(&mut arena);
        let nodes = arena.into_iter().map(|n| n.expect("fill covers arena")).collect();
        Self { nodes, root: Some(0), n_points, ..Self::new(leaf_cap) }
    }

    /// Immutable node access.
    #[inline]
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id as usize]
    }

    /// Every arena slot, free ones included (space accounting).
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Number of live arena nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Allocates an arena slot.
    fn alloc(&mut self, node: N) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as NodeId
        }
    }

    /// Releases an arena slot.
    pub fn release(&mut self, id: NodeId) {
        self.free.push(id);
    }

    /// Releases an entire subtree's arena slots.
    pub fn release_subtree(&mut self, id: NodeId) {
        if let Kind::Internal(left, right) = self.node(id).kind() {
            self.release_subtree(left);
            self.release_subtree(right);
        }
        self.release(id);
    }

    /// One access to node `id`'s record.
    #[inline]
    fn touch_node(id: NodeId, write: bool, meter: &mut CpuMeter) {
        meter.touch(N::NODE_REGION + id as u64 * N::NODE_BYTES, N::NODE_BYTES, write);
    }

    /// One access to the point payload of leaf `id`.
    #[inline]
    fn touch_leaf(&self, id: NodeId, n_points: usize, write: bool, meter: &mut CpuMeter) {
        let slot = (self.leaf_cap as u64).max(n_points as u64) * N::POINT_BYTES;
        meter.touch(N::POINTS_REGION + id as u64 * slot, n_points as u64 * N::POINT_BYTES, write);
    }

    /// Charges one node visit to the meter (record read + traversal step).
    #[inline]
    pub fn charge_visit(&self, id: NodeId, meter: &mut CpuMeter) {
        meter.work(costs::NODE_VISIT);
        Self::touch_node(id, false, meter);
    }

    /// Charges reading a leaf's point payload.
    #[inline]
    pub fn charge_leaf_points(&self, id: NodeId, n_points: usize, meter: &mut CpuMeter) {
        self.touch_leaf(id, n_points, false, meter);
    }

    /// Node `id` for rewriting in place, its record write charged.
    pub fn rewrite(&mut self, id: NodeId, meter: &mut CpuMeter) -> &mut N {
        Self::touch_node(id, true, meter);
        &mut self.nodes[id as usize]
    }

    /// Allocates a node, charging the meter for the record write (and the
    /// payload write of a leaf).
    pub fn alloc_charged(&mut self, node: N, meter: &mut CpuMeter) -> NodeId {
        let leaf_pts = match node.kind() {
            Kind::Leaf(points) => points.len(),
            Kind::Internal(..) => 0,
        };
        let id = self.alloc(node);
        meter.work(costs::NODE_VISIT);
        Self::touch_node(id, true, meter);
        if leaf_pts > 0 {
            self.touch_leaf(id, leaf_pts, true, meter);
        }
        id
    }

    /// Collects every stored entry of a subtree, left to right.
    pub fn collect_points(&self, id: NodeId, out: &mut Vec<N::Item>) {
        match self.node(id).kind() {
            Kind::Leaf(points) => out.extend_from_slice(points),
            Kind::Internal(left, right) => {
                self.collect_points(left, out);
                self.collect_points(right, out);
            }
        }
    }

    /// Every stored entry, left to right.
    pub fn all_points(&self) -> Vec<N::Item> {
        let mut out = Vec::with_capacity(self.n_points);
        if let Some(r) = self.root {
            self.collect_points(r, &mut out);
        }
        out
    }

    /// The `k` nearest stored points to `q` under `metric`, sorted by
    /// (distance, coordinates). Returns fewer when the tree is smaller.
    pub fn knn(
        &self,
        q: &Point<D>,
        k: usize,
        metric: Metric,
        meter: &mut CpuMeter,
    ) -> Vec<(u64, Point<D>)> {
        let mut heap: BinaryHeap<Cand<D>> = BinaryHeap::with_capacity(k.min(self.n_points) + 1);
        if let Some(r) = self.root {
            if k > 0 {
                self.knn_rec(r, q, k, metric, &mut heap, meter);
            }
        }
        let mut out: Vec<(u64, Point<D>)> =
            heap.into_iter().map(|c| (c.dist, Point::new(c.coords))).collect();
        out.sort_unstable_by_key(|(d, p)| (*d, p.coords));
        out
    }

    fn knn_rec(
        &self,
        id: NodeId,
        q: &Point<D>,
        k: usize,
        metric: Metric,
        heap: &mut BinaryHeap<Cand<D>>,
        meter: &mut CpuMeter,
    ) {
        self.charge_visit(id, meter);
        match self.node(id).kind() {
            Kind::Leaf(points) => {
                self.charge_leaf_points(id, points.len(), meter);
                for p in points.iter().map(N::point) {
                    meter.work(costs::dist_cycles(D));
                    let cand = Cand { dist: metric.cmp_dist(q, p), coords: p.coords };
                    if heap.len() < k {
                        meter.work(costs::HEAP_OP);
                        heap.push(cand);
                    } else if cand < *heap.peek().unwrap() {
                        meter.work(costs::HEAP_OP);
                        heap.pop();
                        heap.push(cand);
                    }
                }
            }
            Kind::Internal(left, right) => {
                // Visit the child nearer to q first; prune on the bound.
                meter.work(2 * costs::box_test_cycles(D));
                let ld = self.node(left).bbox().min_dist(q, metric);
                let rd = self.node(right).bbox().min_dist(q, metric);
                let order =
                    if ld <= rd { [(ld, left), (rd, right)] } else { [(rd, right), (ld, left)] };
                for (d, child) in order {
                    let prune = heap.len() == k && d > heap.peek().unwrap().dist;
                    if !prune {
                        self.knn_rec(child, q, k, metric, heap, meter);
                    }
                }
            }
        }
    }

    /// Number of stored points inside the box (BoxCount).
    pub fn box_count(&self, query: &Aabb<D>, meter: &mut CpuMeter) -> u64 {
        match self.root {
            Some(r) => self.box_count_rec(r, query, meter),
            None => 0,
        }
    }

    fn box_count_rec(&self, id: NodeId, query: &Aabb<D>, meter: &mut CpuMeter) -> u64 {
        self.charge_visit(id, meter);
        meter.work(costs::box_test_cycles(D));
        let node = self.node(id);
        let nb = node.bbox();
        if !query.intersects(&nb) {
            return 0;
        }
        if query.contains_box(&nb) {
            // Whole subtree inside: the count answers without descent.
            return node.count() as u64;
        }
        match node.kind() {
            Kind::Leaf(points) => {
                self.charge_leaf_points(id, points.len(), meter);
                meter.work(points.len() as u64 * costs::box_test_cycles(D));
                points.iter().filter(|i| query.contains(N::point(i))).count() as u64
            }
            Kind::Internal(left, right) => {
                self.box_count_rec(left, query, meter) + self.box_count_rec(right, query, meter)
            }
        }
    }

    /// All stored points inside the box (BoxFetch), in tree order.
    pub fn box_fetch(&self, query: &Aabb<D>, meter: &mut CpuMeter) -> Vec<Point<D>> {
        let mut out = Vec::new();
        if let Some(r) = self.root {
            self.box_fetch_rec(r, query, &mut out, meter);
        }
        out
    }

    fn box_fetch_rec(
        &self,
        id: NodeId,
        query: &Aabb<D>,
        out: &mut Vec<Point<D>>,
        meter: &mut CpuMeter,
    ) {
        self.charge_visit(id, meter);
        meter.work(costs::box_test_cycles(D));
        let node = self.node(id);
        let nb = node.bbox();
        if !query.intersects(&nb) {
            return;
        }
        if query.contains_box(&nb) {
            self.emit_subtree(id, out, meter);
            return;
        }
        match node.kind() {
            Kind::Leaf(points) => {
                self.charge_leaf_points(id, points.len(), meter);
                for p in points.iter().map(N::point) {
                    meter.work(costs::box_test_cycles(D));
                    if query.contains(p) {
                        meter.work(costs::EMIT);
                        out.push(*p);
                    }
                }
            }
            Kind::Internal(left, right) => {
                self.box_fetch_rec(left, query, out, meter);
                self.box_fetch_rec(right, query, out, meter);
            }
        }
    }

    /// Emits every point of a fully-covered subtree. The caller has visited
    /// `id`; each child costs one visit before the descent.
    fn emit_subtree(&self, id: NodeId, out: &mut Vec<Point<D>>, meter: &mut CpuMeter) {
        match self.node(id).kind() {
            Kind::Leaf(points) => {
                self.charge_leaf_points(id, points.len(), meter);
                meter.work(points.len() as u64 * costs::EMIT);
                out.extend(points.iter().map(N::point));
            }
            Kind::Internal(left, right) => {
                self.charge_visit(left, meter);
                self.charge_visit(right, meter);
                self.emit_subtree(left, out, meter);
                self.emit_subtree(right, out, meter);
            }
        }
    }

    /// Batch kNN.
    pub fn batch_knn(
        &self,
        queries: &[Point<D>],
        k: usize,
        metric: Metric,
        meter: &mut CpuMeter,
    ) -> Vec<Vec<(u64, Point<D>)>> {
        charge_batch_state(queries.len(), meter);
        queries.iter().map(|q| self.knn(q, k, metric, meter)).collect()
    }

    /// Batch box counts.
    pub fn batch_box_count(&self, queries: &[Aabb<D>], meter: &mut CpuMeter) -> Vec<u64> {
        charge_batch_state(queries.len(), meter);
        queries.iter().map(|b| self.box_count(b, meter)).collect()
    }

    /// Batch box fetches.
    pub fn batch_box_fetch(&self, queries: &[Aabb<D>], meter: &mut CpuMeter) -> Vec<Vec<Point<D>>> {
        charge_batch_state(queries.len(), meter);
        queries.iter().map(|b| self.box_fetch(b, meter)).collect()
    }
}

/// The inherent surface of a baseline `$Tree<D>` — a struct whose `core`
/// field is a [`BinTree`](crate::engine::BinTree) over `$Node<D>` — written
/// once: constructor, accessors and the metered queries, each a forward to
/// the engine, so callers (and `benchmark/`, which may not change with the
/// code it measures) use a tree by its own name without importing a trait.
/// Also implements [`MeteredTree`](crate::engine::MeteredTree) over the
/// tree's own `batch_insert` / `batch_delete`.
#[macro_export]
macro_rules! baseline_surface {
    ($Tree:ident, $Node:ident) => {
        const _: () = {
            use ::pim_geom::{Aabb, Metric, Point};
            use ::pim_memsim::CpuMeter;
            use $crate::engine::{BinTree, MeteredTree, NodeId, TreeNode};

            impl<const D: usize> $Tree<D> {
                /// Creates an empty tree.
                pub fn new(leaf_cap: usize) -> Self {
                    Self { core: BinTree::new(leaf_cap) }
                }

                /// Number of stored points.
                pub fn len(&self) -> usize {
                    self.core.n_points
                }

                /// Whether the tree is empty.
                pub fn is_empty(&self) -> bool {
                    self.core.n_points == 0
                }

                /// Leaf capacity.
                pub fn leaf_cap(&self) -> usize {
                    self.core.leaf_cap
                }

                /// Root id, if any.
                pub fn root(&self) -> Option<NodeId> {
                    self.core.root
                }

                /// Immutable node access.
                #[inline]
                pub fn node(&self, id: NodeId) -> &$Node<D> {
                    self.core.node(id)
                }

                /// Number of live arena nodes.
                pub fn node_count(&self) -> usize {
                    self.core.node_count()
                }

                /// All stored entries in tree order (oracle helper).
                pub fn all_points(&self) -> Vec<<$Node<D> as TreeNode<D>>::Item> {
                    self.core.all_points()
                }

                /// The `k` nearest stored points to `q` under `metric`,
                /// sorted by (distance, coordinates). Returns fewer when the
                /// tree is smaller.
                pub fn knn(
                    &self,
                    q: &Point<D>,
                    k: usize,
                    metric: Metric,
                    meter: &mut CpuMeter,
                ) -> Vec<(u64, Point<D>)> {
                    self.core.knn(q, k, metric, meter)
                }

                /// Number of stored points inside the box (BoxCount).
                pub fn box_count(&self, query: &Aabb<D>, meter: &mut CpuMeter) -> u64 {
                    self.core.box_count(query, meter)
                }

                /// All stored points inside the box (BoxFetch), in tree order.
                pub fn box_fetch(&self, query: &Aabb<D>, meter: &mut CpuMeter) -> Vec<Point<D>> {
                    self.core.box_fetch(query, meter)
                }

                /// Batch kNN.
                pub fn batch_knn(
                    &self,
                    queries: &[Point<D>],
                    k: usize,
                    metric: Metric,
                    meter: &mut CpuMeter,
                ) -> Vec<Vec<(u64, Point<D>)>> {
                    self.core.batch_knn(queries, k, metric, meter)
                }

                /// Batch box counts.
                pub fn batch_box_count(
                    &self,
                    queries: &[Aabb<D>],
                    meter: &mut CpuMeter,
                ) -> Vec<u64> {
                    self.core.batch_box_count(queries, meter)
                }

                /// Batch box fetches.
                pub fn batch_box_fetch(
                    &self,
                    queries: &[Aabb<D>],
                    meter: &mut CpuMeter,
                ) -> Vec<Vec<Point<D>>> {
                    self.core.batch_box_fetch(queries, meter)
                }
            }

            impl<const D: usize> MeteredTree<D> for $Tree<D> {
                type Node = $Node<D>;

                fn engine(&self) -> &BinTree<$Node<D>, D> {
                    &self.core
                }

                fn batch_insert(&mut self, points: &[Point<D>], meter: &mut CpuMeter) {
                    $Tree::batch_insert(self, points, meter)
                }

                fn batch_delete(&mut self, points: &[Point<D>], meter: &mut CpuMeter) -> usize {
                    $Tree::batch_delete(self, points, meter)
                }
            }
        };
    };
}
