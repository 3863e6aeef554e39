//! Meta-node fragments: the unit of data placement (§3.2).
//!
//! A *fragment* is the physical form of a meta-node — a connected piece of
//! the binary zd-tree stored contiguously on one PIM module (or, for L0, on
//! the host). Edges leaving a fragment are [`RemoteRef`]s carrying the
//! remote root's prefix and a lazy counter snapshot, so a module can route,
//! detect compressed-edge splits, and prune kNN/box traversals *without*
//! touching the remote fragment — only an actual crossing costs a round.
//!
//! All structural algorithms on fragments (canonical merge, delete with
//! splice, branch-and-bound kNN, box traversal) live here, parameterized by
//! a [`CostSink`] so the same code is charged as PIM-core cycles when run on
//! a module and as host cycles + cache touches when a pulled fragment is
//! searched on the CPU (push-pull, §3.3).
//!
//! A fragment owns its tree. The node arena, its free list and the chunk
//! directory are private to this file, and only this file matches on
//! [`BKind`]/[`ChildRef`] (the checkpoint codec and the invariant checker
//! read them through `Fragment::nodes`); everything else works through
//! the operations below, each of which leaves counters, free list and
//! chunk directory consistent:
//!
//! * **make** — [`Fragment::build_from`] (canonical tree over sorted
//!   items) and `Fragment::build_cut` (the same, cut into fragments by a
//!   rule as it is built: bulk build), [`Fragment::singleton`], [`Fragment::structure_clone`] (a
//!   cache copy), [`Fragment::from_parts`] (the codec's checked way in);
//! * **route** — [`Fragment::search`] / [`Fragment::search_from`] (one
//!   descent, resumable through a [`Cursor`]), [`Fragment::lowest_on_path`],
//!   `Fragment::leaf_contains`;
//! * **update points** — [`Fragment::merge`], [`Fragment::remove`];
//! * **traverse** — [`Fragment::local_knn`], [`Fragment::local_ball`],
//!   [`Fragment::local_box_count`], [`Fragment::local_box_fetch`];
//! * **cut** — [`Fragment::detach_children`] (subtrees out into fragments
//!   of their own, refs left behind: demotion) and [`Fragment::split_root`]
//!   on top of it (promotion, re-chunking);
//! * **edit a ref** — [`Fragment::edit_ref`]: counter sync, replacement,
//!   splice and graft of the one slot that points at a given meta-node;
//! * **read** — [`Fragment::local_points`], [`Fragment::remote_children`],
//!   [`Fragment::self_ref`], the byte counts.

use crate::costs;
use crate::soa::PointSet;
use pim_geom::{Aabb, Metric, Point};
use pim_memsim::costs as host_costs;
use pim_sim::{PimCtx, Wire};
use pim_zorder::prefix::Prefix;
use pim_zorder::ZKey;

/// Global identifier of a meta-node.
pub type MetaId = u64;

/// A point paired with its Morton key.
pub type Keyed<const D: usize> = (ZKey<D>, Point<D>);

/// Sorts keyed points into canonical `(key, coords)` order.
///
/// Delegates to the thread-count-invariant radix primitive
/// ([`pim_zorder::sort::par_radix_sort_keyed`]); the `(key, coords)` key is
/// total (Morton encoding is injective), so the output value sequence is
/// identical to `sort_unstable_by_key(|(k, p)| (*k, p.coords))` — the
/// comparison sort this replaces on every hot path.
pub fn sort_keyed<const D: usize>(items: &mut [Keyed<D>]) {
    pim_zorder::sort::par_radix_sort_keyed(items, |e| e.0 .0, |a, b| a.1.coords.cmp(&b.1.coords));
}

/// Whether `items` are in [`sort_keyed`]'s `(key, coords)` order — the
/// order every merge, removal and build takes its items in.
pub(crate) fn is_sorted_keyed<const D: usize>(items: &[Keyed<D>]) -> bool {
    items.windows(2).all(|w| (w[0].0, w[0].1.coords) <= (w[1].0, w[1].1.coords))
}

/// Bytes of one binary-node record in PIM local memory / on the wire.
pub const BNODE_BYTES: u64 = 40;
/// Bytes of a remote reference.
pub const REMOTE_REF_BYTES: u64 = 24;

/// A remote subtree a traversal kernel could not enter, with the lower bound
/// of its box under the query's metric (0 for box queries).
pub type Edge<const D: usize> = (RemoteRef<D>, u64);

/// Where costs are charged: PIM core, host CPU, or nowhere (bulk build).
pub trait CostSink {
    /// `n` single-cycle word operations.
    fn op(&mut self, n: u64);
    /// A memory access of `bytes` at fragment-relative offset `off`.
    fn mem(&mut self, off: u64, bytes: u64);
    /// `n` distance evaluations in `d` dimensions under `metric`, charged
    /// as one exact total (a leaf kernel's whole run at once).
    fn dist_n(&mut self, metric: Metric, d: usize, n: u64);
    /// Enters the node whose record is at `off`.
    fn enter(&mut self, off: u64) {
        self.op(costs::NODE_ENTER);
        self.mem(off, BNODE_BYTES);
    }
    /// Enters a BoxCount/BoxFetch node in `d` dimensions: its box test and
    /// classification, and its record at `off`.
    fn enter_box(&mut self, off: u64, d: usize) {
        self.op(costs::box_test_cycles(d) + costs::BOX_CLASSIFY);
        self.mem(off, BNODE_BYTES);
    }
}

impl CostSink for PimCtx {
    fn op(&mut self, n: u64) {
        PimCtx::op(self, n);
    }
    fn mem(&mut self, _off: u64, bytes: u64) {
        PimCtx::mem(self, bytes);
    }
    fn dist_n(&mut self, metric: Metric, d: usize, n: u64) {
        PimCtx::op(self, costs::pim_dist_cycles(metric, d) * n);
        PimCtx::mems(self, n, costs::point_bytes(d));
    }
}

/// Charges a host CPU meter; memory goes through the LLC model at
/// `base_addr + off` (pulled fragments land at fresh host addresses).
pub struct HostSink<'a> {
    /// The host meter.
    pub meter: &'a mut pim_memsim::CpuMeter,
    /// Base address of this fragment's host-side staging area.
    pub base_addr: u64,
}

impl CostSink for HostSink<'_> {
    fn op(&mut self, n: u64) {
        self.meter.work(n);
    }
    fn mem(&mut self, off: u64, bytes: u64) {
        self.meter.touch(self.base_addr + off, bytes, false);
    }
    fn dist_n(&mut self, _metric: Metric, d: usize, n: u64) {
        self.meter.work(host_costs::dist_cycles(d) * n);
    }
}

/// Discards costs (bulk build, tests).
pub struct NullSink;

impl CostSink for NullSink {
    fn op(&mut self, _n: u64) {}
    fn mem(&mut self, _off: u64, _bytes: u64) {}
    fn dist_n(&mut self, _metric: Metric, _d: usize, _n: u64) {}
}

/// A cross-fragment edge: everything a fragment knows about a child
/// meta-node without touching it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteRef<const D: usize> {
    /// Target meta-node.
    pub meta: MetaId,
    /// Module holding the target's master.
    pub module: u32,
    /// Prefix covered by the target's root.
    pub prefix: Prefix<D>,
    /// Lazy counter snapshot of the target subtree (Lemma 3.1 band).
    pub sc: u64,
}

impl<const D: usize> Wire for RemoteRef<D> {
    fn wire_bytes(&self) -> u64 {
        REMOTE_REF_BYTES
    }
}

/// A node whose count a delete lowered without freeing any node (see
/// [`Fragment::remove`]): what a structure copy of the fragment needs to stay
/// at or below its master's counts with the master's prefixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lowered<const D: usize> {
    /// The node's arena slot; a copy shares its master's arena layout.
    pub slot: u32,
    /// How far its count fell.
    pub by: u64,
    /// Its new prefix, where a leaf's narrowed.
    pub prefix: Option<Prefix<D>>,
}

impl<const D: usize> Wire for Lowered<D> {
    fn wire_bytes(&self) -> u64 {
        // Slot and decrease four bytes each, and a prefix where there is one.
        8 + self.prefix.map_or(0, |_| 12)
    }
}

/// A child slot of an internal node.
#[derive(Clone, Copy, Debug)]
pub enum ChildRef<const D: usize> {
    /// Child inside the same fragment.
    Local(u32),
    /// Child rooted in another fragment.
    Remote(RemoteRef<D>),
}

/// Node payload.
#[derive(Clone, Debug)]
pub enum BKind<const D: usize> {
    /// Binary internal node.
    Internal {
        /// 0-side child.
        left: ChildRef<D>,
        /// 1-side child.
        right: ChildRef<D>,
    },
    /// Leaf with point payload (master copies only).
    Leaf {
        /// Points sorted by (key, coords), stored as lanes (one `u64` key
        /// lane + `D` contiguous `u32` coordinate lanes) so the distance
        /// and containment kernels over the leaf auto-vectorize.
        points: PointSet<D>,
    },
    /// Structure-only stand-in for a leaf in a *cached* copy: the payload
    /// lives at the master (§3.1 shares tree structure, not data).
    LeafStub,
}

/// One binary node of a fragment.
#[derive(Clone, Debug)]
pub struct BNode<const D: usize> {
    /// Prefix this node covers (canonical: the LCP of its subtree's keys).
    pub prefix: Prefix<D>,
    /// Subtree size: exact for fully-local subtrees, lazy (snapshot-based)
    /// where the subtree crosses into other fragments.
    pub count: u64,
    /// Payload.
    pub kind: BKind<D>,
}

impl<const D: usize> BNode<D> {
    /// Record + payload bytes of this node.
    pub fn bytes(&self) -> u64 {
        match &self.kind {
            BKind::Leaf { points } => {
                BNODE_BYTES + points.len() as u64 * (8 + Point::<D>::wire_bytes())
            }
            _ => BNODE_BYTES,
        }
    }

    /// The remote refs in this node's own two child slots.
    pub fn remote_refs(&self) -> impl Iterator<Item = RemoteRef<D>> {
        let slots = match &self.kind {
            BKind::Internal { left, right } => [Some(*left), Some(*right)],
            _ => [None, None],
        };
        slots.into_iter().flatten().filter_map(|c| match c {
            ChildRef::Remote(r) => Some(r),
            ChildRef::Local(_) => None,
        })
    }
}

/// Result of routing one key through a fragment.
#[derive(Clone, Copy, Debug)]
pub enum SearchEnd<const D: usize> {
    /// The key's leaf (which may or may not contain the key), local.
    Leaf(u32),
    /// The key's position is a stub leaf of a cached copy — continue at the
    /// master.
    Stub(u32),
    /// The key diverges from the `side` child of local node `parent`: its
    /// insertion point is a compressed-edge split inside this fragment.
    Diverge {
        /// Local parent node.
        parent: u32,
        /// Side whose child edge splits.
        side: u8,
    },
    /// The key continues in a remote fragment.
    Remote(RemoteRef<D>),
}

/// The longest node path in a fragment: prefixes lengthen strictly from a
/// node to its children, and a key has at most 64 bits.
const PATH_CAP: usize = 65;

/// Where the last walk through one fragment went: the fragment, the key it
/// routed and the nodes it entered, root side first
/// ([`Fragment::search_from`]).
#[derive(Clone, Copy, Debug)]
pub struct Cursor<const D: usize> {
    meta: MetaId,
    key: ZKey<D>,
    len: usize,
    path: [u32; PATH_CAP],
    /// Nodes entered by every walk through this cursor.
    pub(crate) entered: u64,
}

impl<const D: usize> Default for Cursor<D> {
    fn default() -> Self {
        Cursor { meta: 0, key: ZKey(0), len: 0, path: [0; PATH_CAP], entered: 0 }
    }
}

/// A meta-node's storage.
#[derive(Clone, Debug)]
pub struct Fragment<const D: usize> {
    /// This fragment's meta id.
    pub meta: MetaId,
    /// Module holding the master copy (also stored in cached copies so a
    /// search ending at a stub knows where to continue).
    pub master_module: u32,
    /// Node arena (free slots listed in `free`). Private with `free` and
    /// `chunk_dir`: only the operations of this file write them, so the
    /// invariants [`Self::from_parts`] checks hold for every fragment.
    nodes: Vec<BNode<D>>,
    /// Free arena slots.
    free: Vec<u32>,
    /// Root node index.
    pub root: u32,
    /// Leaf capacity.
    pub leaf_cap: usize,
    /// Dense-mode radix jump table over the first `bits` key bits below the
    /// root ("practical chunking", §6): pattern → deepest safely-jumpable
    /// node. Empty when the fragment is in sparse mode.
    chunk_dir: ChunkDir,
    /// Configured table width in bits (0 disables the feature); set through
    /// [`Self::set_dir_policy`].
    pub dir_bits: u32,
    /// Minimum live nodes before dense mode engages (the paper's B/4 rule).
    pub dense_min: u32,
}

/// The dense-mode chunk directory of §6: an array of `2^bits` node slots
/// indexed by the key bits following the fragment root's prefix. A slot
/// holds the deepest node on that bit path whose own prefix ends within the
/// indexed region — jumping there is always coverage-safe, and skips up to
/// `bits` sequential node reads.
#[derive(Clone, Debug, Default)]
pub struct ChunkDir {
    /// Number of key bits indexed (0 = sparse mode, no table).
    pub bits: u32,
    /// `2^bits` jump targets.
    pub slots: Vec<u32>,
}

impl ChunkDir {
    /// Bytes the table occupies in local memory (4 bytes per slot).
    pub fn bytes(&self) -> u64 {
        self.slots.len() as u64 * 4
    }
}

impl<const D: usize> Fragment<D> {
    /// An arena with no node in it yet and no chunk directory: every
    /// fragment starts here, and whoever calls this places the root before
    /// the fragment leaves the file.
    fn empty(meta: MetaId, master_module: u32, leaf_cap: usize) -> Self {
        Self {
            meta,
            master_module,
            nodes: Vec::new(),
            free: Vec::new(),
            root: 0,
            leaf_cap,
            chunk_dir: ChunkDir::default(),
            dir_bits: 0,
            dense_min: 0,
        }
    }

    /// Creates a fragment holding exactly one node (a leaf, or an internal
    /// node whose children are both remote).
    pub fn singleton(meta: MetaId, master_module: u32, node: BNode<D>, leaf_cap: usize) -> Self {
        let mut f = Self::empty(meta, master_module, leaf_cap);
        f.nodes.push(node);
        f
    }

    /// Assembles a fragment from stored parts — the checkpoint codec's way
    /// in, and the only one that takes an arena from outside this file. It
    /// refuses parts a walk would index out of bounds on: the root and every
    /// local child of a live node must be live arena slots, the free list
    /// must name distinct slots, and the chunk directory must have `2^bits`
    /// slots (none in sparse mode), each a live node, with `bits` fitting
    /// under the root's prefix.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        meta: MetaId,
        master_module: u32,
        root: u32,
        leaf_cap: usize,
        dir_bits: u32,
        dense_min: u32,
        chunk_dir: ChunkDir,
        free: Vec<u32>,
        nodes: Vec<BNode<D>>,
    ) -> Result<Self, &'static str> {
        let mut is_free = vec![false; nodes.len()];
        for &i in &free {
            let slot = is_free.get_mut(i as usize).ok_or("free-list entry outside the arena")?;
            if std::mem::replace(slot, true) {
                return Err("free-list entry listed twice");
            }
        }
        let live = |i: u32| is_free.get(i as usize) == Some(&false);
        if !live(root) {
            return Err("root is not a live arena slot");
        }
        for (n, _) in nodes.iter().zip(&is_free).filter(|(_, free)| !**free) {
            if let BKind::Internal { left, right } = &n.kind {
                for c in [left, right] {
                    if matches!(c, ChildRef::Local(i) if !live(*i)) {
                        return Err("local child is not a live arena slot");
                    }
                }
            }
        }
        let bits = chunk_dir.bits;
        let n_slots = if bits == 0 { Some(0) } else { 1usize.checked_shl(bits) };
        if n_slots != Some(chunk_dir.slots.len())
            || u64::from(nodes[root as usize].prefix.len) + u64::from(bits)
                > u64::from(ZKey::<D>::BITS)
        {
            return Err("chunk directory does not match its bit width");
        }
        if !chunk_dir.slots.iter().all(|&s| live(s)) {
            return Err("chunk-directory slot is not a live arena slot");
        }
        let mut f = Self::empty(meta, master_module, leaf_cap);
        (f.nodes, f.free, f.root, f.chunk_dir) = (nodes, free, root, chunk_dir);
        (f.dir_bits, f.dense_min) = (dir_bits, dense_min);
        Ok(f)
    }

    /// Node accessor.
    #[inline]
    pub fn node(&self, idx: u32) -> &BNode<D> {
        &self.nodes[idx as usize]
    }

    /// The arena, stale nodes in free slots included — with [`Self::free`]
    /// and [`Self::chunk_dir`] what the checkpoint codec writes and the
    /// invariant checker reads; nothing outside this file writes them.
    pub(crate) fn nodes(&self) -> &[BNode<D>] {
        &self.nodes
    }

    /// The free arena slots, in release order.
    pub(crate) fn free(&self) -> &[u32] {
        &self.free
    }

    /// The dense-mode jump table (empty in sparse mode).
    pub fn chunk_dir(&self) -> &ChunkDir {
        &self.chunk_dir
    }

    /// The ref a parent holds to this fragment as it stands: its root's
    /// prefix and counter.
    pub fn self_ref(&self) -> RemoteRef<D> {
        let root = self.root_node();
        RemoteRef {
            meta: self.meta,
            module: self.master_module,
            prefix: root.prefix,
            sc: root.count,
        }
    }

    /// Root node accessor.
    #[inline]
    pub fn root_node(&self) -> &BNode<D> {
        self.node(self.root)
    }

    /// Live node count.
    pub fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Total resident/wire bytes (what a pull transfers).
    pub fn bytes(&self) -> u64 {
        let arena: u64 = self.nodes.iter().map(BNode::bytes).sum();
        if self.free.is_empty() {
            return arena;
        }
        // Free slots are not serialized (their stale nodes stay in the arena
        // until reused); a bitmap counts each free slot once.
        let mut seen = vec![0u64; self.nodes.len().div_ceil(64)];
        let mut freed = 0;
        for &i in &self.free {
            let (word, bit) = (i as usize / 64, 1u64 << (i % 64));
            if seen[word] & bit == 0 {
                seen[word] |= bit;
                freed += self.nodes[i as usize].bytes();
            }
        }
        arena - freed
    }

    /// Structure-only bytes (what installing a cache copy transfers).
    pub fn structure_bytes(&self) -> u64 {
        self.live_nodes() as u64 * BNODE_BYTES
    }

    fn alloc(&mut self, node: BNode<D>) -> u32 {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = node;
            i
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn release(&mut self, idx: u32) {
        self.free.push(idx);
    }

    /// The fragment-relative "address" of a node for cache modeling.
    #[inline]
    fn off(idx: u32) -> u64 {
        idx as u64 * 64
    }

    /// Sets the chunk-directory policy — `dir_bits` table bits once the
    /// fragment holds `dense_min` nodes, 0 bits for none — and rebuilds the
    /// directory under it. Whoever places a fragment decides: chunks on
    /// modules get the configured table, the host's L0 gets none.
    pub fn set_dir_policy(&mut self, dir_bits: u32, dense_min: u32) {
        (self.dir_bits, self.dense_min) = (dir_bits, dense_min);
        self.rebuild_chunk_dir();
    }

    /// Rebuilds the dense-mode chunk directory after a structural change.
    /// Dense mode engages when the feature is configured (`dir_bits > 0`)
    /// and the fragment holds at least `dense_min` nodes (the §6 B/4 rule);
    /// otherwise the fragment stays sparse (plain pointer walk).
    fn rebuild_chunk_dir(&mut self) {
        let bits = self.dir_bits;
        if bits == 0
            || (self.live_nodes() as u32) < self.dense_min
            || self.root_node().prefix.len + bits > ZKey::<D>::BITS
        {
            self.chunk_dir = ChunkDir::default();
            return;
        }
        let limit = self.root_node().prefix.len + bits;
        let mut slots = vec![self.root; 1usize << bits];
        self.fill_dir(self.root, limit, bits, &mut slots);
        self.chunk_dir = ChunkDir { bits, slots };
    }

    /// Fills directory slots: every node whose prefix ends within the
    /// indexed region claims the pattern range its prefix pins down;
    /// deeper nodes overwrite shallower ones on their subranges.
    fn fill_dir(&self, idx: u32, limit: u32, bits: u32, slots: &mut [u32]) {
        let n = self.node(idx);
        debug_assert!(n.prefix.len <= limit);
        let root_len = limit - bits;
        let fixed_bits = n.prefix.len - root_len;
        let fixed = if fixed_bits == 0 {
            0
        } else {
            (n.prefix.key.0 >> (ZKey::<D>::BITS - n.prefix.len)) & ((1u64 << fixed_bits) - 1)
        };
        let span = 1usize << (bits - fixed_bits);
        let lo = (fixed as usize) << (bits - fixed_bits);
        for s in &mut slots[lo..lo + span] {
            *s = idx;
        }
        if let BKind::Internal { left, right } = &n.kind {
            for c in [left, right] {
                if let ChildRef::Local(ci) = c {
                    if self.node(*ci).prefix.len <= limit {
                        self.fill_dir(*ci, limit, bits, slots);
                    }
                }
            }
        }
    }

    /// Makes a structure-only copy for caching on other modules: leaves
    /// become stubs, everything else is cloned.
    pub fn structure_clone(&self) -> Fragment<D> {
        let nodes = self
            .nodes
            .iter()
            .map(|n| BNode {
                prefix: n.prefix,
                count: n.count,
                kind: match &n.kind {
                    BKind::Leaf { .. } => BKind::LeafStub,
                    other => other.clone(),
                },
            })
            .collect();
        let mut f = Self::empty(self.meta, self.master_module, self.leaf_cap);
        (f.nodes, f.free, f.root) = (nodes, self.free.clone(), self.root);
        (f.chunk_dir, f.dir_bits, f.dense_min) =
            (self.chunk_dir.clone(), self.dir_bits, self.dense_min);
        f
    }

    /// Routes `key` from the root to its local end. The caller guarantees
    /// the root's prefix covers `key` (cross-fragment routing checks the
    /// boundary prefix before forwarding).
    pub fn search(&self, key: ZKey<D>, sink: &mut impl CostSink) -> SearchEnd<D> {
        self.search_from(&mut Cursor::default(), key, sink)
    }

    /// Routes `key` to its local end from where `cursor`'s last walk in
    /// this fragment left off: it pops that walk's path back to the deepest
    /// node that also covers `key` and descends from there. Every node that
    /// covers `key` lies on its root walk, so the end is the one
    /// [`Self::search`] reaches, in any key order; in Morton order each key
    /// re-reads only the nodes below its common prefix with the previous
    /// one. A cursor last used in another fragment starts from the root.
    pub fn search_from(
        &self,
        cursor: &mut Cursor<D>,
        key: ZKey<D>,
        sink: &mut impl CostSink,
    ) -> SearchEnd<D> {
        debug_assert!(self.root_node().prefix.covers(key), "mis-routed key");
        if cursor.meta != self.meta {
            (cursor.meta, cursor.len) = (self.meta, 0);
        }
        if cursor.len > 0 {
            // The common-prefix length with the previous key (XOR, leading
            // zeros), then one compare per path node that falls short of it.
            sink.op(costs::RESUME_LCP);
            let lcp = key.common_prefix_len(cursor.key);
            let kept = cursor.path[..cursor.len]
                .iter()
                .rposition(|&i| self.node(i).prefix.len <= lcp)
                .map_or(0, |i| i + 1);
            sink.op(costs::RESUME_POP * (cursor.len - kept) as u64);
            cursor.len = kept;
        }
        cursor.key = key;
        let mut cur = if cursor.len > 1 || (cursor.len == 1 && cursor.path[0] != self.root) {
            // Resume at the deepest covering node, entering it again.
            cursor.len -= 1;
            cursor.path[cursor.len]
        } else {
            cursor.len = 0;
            self.walk_start(key, sink)
        };
        loop {
            sink.enter(Self::off(cur));
            cursor.entered += 1;
            // A path is at most `PATH_CAP` long (prefixes lengthen down
            // it); past that the cursor would just resume higher up.
            if let Some(slot) = cursor.path.get_mut(cursor.len) {
                (*slot, cursor.len) = (cur, cursor.len + 1);
            }
            let node = self.node(cur);
            match &node.kind {
                BKind::Leaf { .. } => return SearchEnd::Leaf(cur),
                BKind::LeafStub => return SearchEnd::Stub(cur),
                BKind::Internal { left, right } => {
                    let side = node.prefix.side_of(key);
                    let child = if side == 0 { left } else { right };
                    match child {
                        ChildRef::Local(c) => {
                            if self.node(*c).prefix.covers(key) {
                                cur = *c;
                            } else {
                                return SearchEnd::Diverge { parent: cur, side };
                            }
                        }
                        ChildRef::Remote(r) => {
                            sink.op(costs::REF_CHECK);
                            if r.prefix.covers(key) {
                                return SearchEnd::Remote(*r);
                            } else {
                                return SearchEnd::Diverge { parent: cur, side };
                            }
                        }
                    }
                }
            }
        }
    }

    /// The first node a walk from the root enters: the root, or in dense
    /// mode (§6) the chunk-directory slot for `key` — one table lookup in
    /// place of up to `bits` sequential node reads. The slot target's
    /// prefix consists only of bits the key shares, so jumping is
    /// coverage-safe.
    fn walk_start(&self, key: ZKey<D>, sink: &mut impl CostSink) -> u32 {
        if self.chunk_dir.bits == 0 {
            return self.root;
        }
        let bits = self.chunk_dir.bits;
        let root_len = self.root_node().prefix.len;
        debug_assert!(root_len + bits <= ZKey::<D>::BITS);
        let shift = ZKey::<D>::BITS - root_len - bits;
        let pattern = ((key.0 >> shift) & ((1u64 << bits) - 1)) as usize;
        sink.op(costs::DENSE_SLOT);
        sink.mem(Self::off(self.root) + BNODE_BYTES, costs::DENSE_SLOT_BYTES);
        let cur = self.chunk_dir.slots[pattern];
        debug_assert!(self.node(cur).prefix.covers(key));
        cur
    }

    /// Finds, along the root→`key` path, the deepest node — local, or the
    /// remote ref the path leaves through — whose prefix and counter
    /// `accept` takes, charging `step` cycles per local node looked at.
    /// Returns its prefix and where its subtree lives. The kNN anchor of
    /// Alg. 3 step 2 is the deepest node with a counter of at least 2k; the
    /// ball phase enters at the deepest node whose box holds the ball.
    pub fn lowest_on_path(
        &self,
        key: ZKey<D>,
        step: u64,
        accept: impl Fn(&Prefix<D>, u64) -> bool,
        sink: &mut impl CostSink,
    ) -> Option<(Prefix<D>, AnchorLoc<D>)> {
        let mut best = None;
        let mut cur = self.root;
        loop {
            sink.op(step);
            let node = self.node(cur);
            if !node.prefix.covers(key) {
                break;
            }
            if accept(&node.prefix, node.count) {
                best = Some((node.prefix, AnchorLoc::Local(cur)));
            }
            let BKind::Internal { left, right } = &node.kind else { break };
            match if node.prefix.side_of(key) == 0 { left } else { right } {
                ChildRef::Local(c) => cur = *c,
                ChildRef::Remote(r) => {
                    if r.prefix.covers(key) && accept(&r.prefix, r.sc) {
                        best = Some((r.prefix, AnchorLoc::Remote(*r)));
                    }
                    break;
                }
            }
        }
        best
    }

    /// Whether the leaf at `idx` (where a [`Self::search`] for `key` ended)
    /// holds `key`.
    pub(crate) fn leaf_contains(&self, idx: u32, key: ZKey<D>) -> bool {
        matches!(&self.node(idx).kind, BKind::Leaf { points } if points.contains_key(key))
    }

    // ------------------------------------------------------------------
    // Canonical merge (insert)
    // ------------------------------------------------------------------

    /// Merges sorted `items` into the fragment. Items must be covered by the
    /// root's prefix or diverge *below* it (cross-fragment routing sends
    /// escaping keys to the parent). Returns the number of new nodes created
    /// (the structural-change signal for cache refresh).
    pub fn merge(&mut self, items: &[Keyed<D>], sink: &mut impl CostSink) -> usize {
        debug_assert!(is_sorted_keyed(items), "merge takes sorted items");
        if items.is_empty() {
            return 0;
        }
        let before = self.live_nodes();
        let root = self.root;
        let new_root = match self.merge_child(ChildRef::Local(root), items, sink) {
            ChildRef::Local(r) => r,
            ChildRef::Remote(_) => unreachable!("merge never produces a remote root"),
        };
        self.root = new_root;
        self.rebuild_chunk_dir();
        self.live_nodes().saturating_sub(before)
    }

    fn child_prefix(&self, c: &ChildRef<D>) -> Prefix<D> {
        match c {
            ChildRef::Local(i) => self.node(*i).prefix,
            ChildRef::Remote(r) => r.prefix,
        }
    }

    fn child_count(&self, c: &ChildRef<D>) -> u64 {
        match c {
            ChildRef::Local(i) => self.node(*i).count,
            ChildRef::Remote(r) => r.sc,
        }
    }

    fn merge_child(
        &mut self,
        child: ChildRef<D>,
        items: &[Keyed<D>],
        sink: &mut impl CostSink,
    ) -> ChildRef<D> {
        if items.is_empty() {
            return child;
        }
        sink.op(costs::UPDATE_STEP);
        let cpre = self.child_prefix(&child);
        let ccount = self.child_count(&child);
        let total = ccount + items.len() as u64;

        let first = items.first().unwrap().0;
        let last = items.last().unwrap().0;
        let b = first.common_prefix_len(cpre.key).min(last.common_prefix_len(cpre.key));

        if b < cpre.len {
            // Compressed-edge split above `child` (Alg. 2 step 2c).
            let new_pre = Prefix::new(cpre.key, b);
            let side = cpre.key.bit(b);
            let split = items.partition_point(|(k, _)| k.bit(b) == 0);
            let (zero, one) = items.split_at(split);
            let (same, other) = if side == 0 { (zero, one) } else { (one, zero) };
            debug_assert!(!other.is_empty());
            let merged_same = self.merge_child(child, same, sink);
            let built_other = ChildRef::Local(self.build_local(other, sink));
            let (l, r) =
                if side == 0 { (merged_same, built_other) } else { (built_other, merged_same) };
            let idx = self.alloc(BNode {
                prefix: new_pre,
                count: total,
                kind: BKind::Internal { left: l, right: r },
            });
            sink.enter(Self::off(idx));
            return ChildRef::Local(idx);
        }

        // Covered by the child's prefix.
        match child {
            ChildRef::Remote(_) => {
                unreachable!("items covered by a remote child must be routed to its fragment")
            }
            ChildRef::Local(idx) => {
                sink.mem(Self::off(idx), BNODE_BYTES);
                match &self.node(idx).kind {
                    BKind::LeafStub => {
                        unreachable!("merge applies to master fragments only")
                    }
                    BKind::Leaf { points } => {
                        let old = points.to_vec();
                        sink.op(costs::MERGE_PER_KEY * total);
                        let keyed = costs::KEY_BYTES + costs::point_bytes(D);
                        sink.mem(Self::off(idx), old.len() as u64 * keyed);
                        let mut merged = Vec::with_capacity(total as usize);
                        let (mut i, mut j) = (0, 0);
                        while i < old.len() && j < items.len() {
                            if (old[i].0, old[i].1.coords) <= (items[j].0, items[j].1.coords) {
                                merged.push(old[i]);
                                i += 1;
                            } else {
                                merged.push(items[j]);
                                j += 1;
                            }
                        }
                        merged.extend_from_slice(&old[i..]);
                        merged.extend_from_slice(&items[j..]);
                        if is_leaf_set(&merged, self.leaf_cap) {
                            let pre = set_prefix(&merged);
                            let n = &mut self.nodes[idx as usize];
                            n.prefix = pre;
                            n.count = merged.len() as u64;
                            n.kind = BKind::Leaf { points: merged.into() };
                            ChildRef::Local(idx)
                        } else {
                            self.release(idx);
                            ChildRef::Local(self.build_local(&merged, sink))
                        }
                    }
                    BKind::Internal { left, right } => {
                        let (left, right) = (*left, *right);
                        let len = self.node(idx).prefix.len;
                        let split = items.partition_point(|(k, _)| k.bit(len) == 0);
                        let (li, ri) = items.split_at(split);
                        let nl = self.merge_child(left, li, sink);
                        let nr = self.merge_child(right, ri, sink);
                        let n = &mut self.nodes[idx as usize];
                        n.count = total;
                        n.kind = BKind::Internal { left: nl, right: nr };
                        ChildRef::Local(idx)
                    }
                }
            }
        }
    }

    /// Builds a canonical local subtree over sorted items.
    fn build_local(&mut self, items: &[Keyed<D>], sink: &mut impl CostSink) -> u32 {
        self.build_subtree(items, sink, &mut |_, _| None)
    }

    /// [`Self::build_local`] with a say for `cut` at every child (see
    /// [`Self::build_cut`]).
    fn build_subtree(
        &mut self,
        items: &[Keyed<D>],
        sink: &mut impl CostSink,
        cut: &mut impl FnMut(&[Keyed<D>], usize) -> Option<RemoteRef<D>>,
    ) -> u32 {
        debug_assert!(!items.is_empty());
        debug_assert!(is_sorted_keyed(items), "a build takes sorted items");
        sink.op(costs::BUILD_NODE + costs::BUILD_PER_ITEM * items.len() as u64);
        if is_leaf_set(items, self.leaf_cap) {
            let idx = self.alloc(BNode {
                prefix: set_prefix(items),
                count: items.len() as u64,
                kind: BKind::Leaf { points: PointSet::from_slice(items) },
            });
            sink.mem(Self::off(idx), BNODE_BYTES + items.len() as u64 * costs::point_bytes(D));
            return idx;
        }
        let pre = set_prefix(items);
        let split = items.partition_point(|(k, _)| k.bit(pre.len) == 0);
        let [left, right] =
            [&items[..split], &items[split..]].map(|half| match cut(half, self.nodes.len()) {
                Some(r) => ChildRef::Remote(r),
                None => ChildRef::Local(self.build_subtree(half, sink, cut)),
            });
        let idx = self.alloc(BNode {
            prefix: pre,
            count: items.len() as u64,
            kind: BKind::Internal { left, right },
        });
        sink.mem(Self::off(idx), BNODE_BYTES);
        idx
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    /// Removes sorted `items`; increments `removed` per removed instance.
    /// Returns what the fragment root became. The nodes whose count fell
    /// are appended to `lowered`: where the delete freed no node, that is
    /// all it changed.
    pub fn remove(
        &mut self,
        items: &[Keyed<D>],
        removed: &mut usize,
        lowered: &mut Vec<Lowered<D>>,
        sink: &mut impl CostSink,
    ) -> RootAfterRemove<D> {
        debug_assert!(is_sorted_keyed(items), "remove takes sorted items");
        if items.is_empty() {
            return RootAfterRemove::Kept;
        }
        let root = self.root;
        match self.remove_child(ChildRef::Local(root), items, removed, lowered, sink) {
            None => RootAfterRemove::Empty,
            Some(ChildRef::Local(r)) => {
                self.root = r;
                self.rebuild_chunk_dir();
                RootAfterRemove::Kept
            }
            Some(ChildRef::Remote(r)) => RootAfterRemove::CollapsedToRemote(r),
        }
    }

    fn remove_child(
        &mut self,
        child: ChildRef<D>,
        items: &[Keyed<D>],
        removed: &mut usize,
        lowered: &mut Vec<Lowered<D>>,
        sink: &mut impl CostSink,
    ) -> Option<ChildRef<D>> {
        let idx = match child {
            ChildRef::Remote(_) => return Some(child), // handled by its own fragment
            ChildRef::Local(i) => i,
        };
        // Restrict to keys this subtree can contain.
        let (lo, hi) = self.node(idx).prefix.key_range();
        let start = items.partition_point(|(k, _)| k.0 < lo);
        let end = items.partition_point(|(k, _)| k.0 <= hi);
        let items = &items[start..end];
        if items.is_empty() {
            return Some(child);
        }
        sink.op(costs::UPDATE_STEP);
        sink.mem(Self::off(idx), BNODE_BYTES);
        match &self.node(idx).kind {
            BKind::LeafStub => unreachable!("delete applies to master fragments only"),
            BKind::Leaf { points } => {
                let old = points.to_vec();
                sink.op(costs::MERGE_PER_KEY * (old.len() + items.len()) as u64);
                let mut kept: Vec<Keyed<D>> = Vec::with_capacity(old.len());
                let mut consumed = vec![false; items.len()];
                for entry in &old {
                    let mut matched = false;
                    for (j, it) in items.iter().enumerate() {
                        if !consumed[j] && it.0 == entry.0 && it.1 == entry.1 {
                            consumed[j] = true;
                            matched = true;
                            break;
                        }
                    }
                    if matched {
                        *removed += 1;
                    } else {
                        kept.push(*entry);
                    }
                }
                if kept.is_empty() {
                    self.release(idx);
                    None
                } else {
                    let pre = set_prefix(&kept);
                    let n = &mut self.nodes[idx as usize];
                    if kept.len() < old.len() {
                        let by = (old.len() - kept.len()) as u64;
                        let prefix = (pre != n.prefix).then_some(pre);
                        lowered.push(Lowered { slot: idx, by, prefix });
                    }
                    n.prefix = pre;
                    n.count = kept.len() as u64;
                    n.kind = BKind::Leaf { points: kept.into() };
                    Some(ChildRef::Local(idx))
                }
            }
            BKind::Internal { left, right } => {
                let (left, right) = (*left, *right);
                let (len, before) = (self.node(idx).prefix.len, self.node(idx).count);
                let split = items.partition_point(|(k, _)| k.bit(len) == 0);
                let (li, ri) = items.split_at(split);
                let nl = self.remove_child(left, li, removed, lowered, sink);
                let nr = self.remove_child(right, ri, removed, lowered, sink);
                match (nl, nr) {
                    (None, None) => {
                        self.release(idx);
                        None
                    }
                    (Some(c), None) | (None, Some(c)) => {
                        self.release(idx);
                        Some(c)
                    }
                    (Some(l), Some(r)) => {
                        let count = self.child_count(&l) + self.child_count(&r);
                        let n = &mut self.nodes[idx as usize];
                        n.count = count;
                        n.kind = BKind::Internal { left: l, right: r };
                        // Collapse small fully-local subtrees back into a
                        // leaf (the fold yields sorted leaves in key order).
                        let mut a = Vec::new();
                        if count <= self.leaf_cap as u64
                            && self.fold_leaves(idx, true, &mut |points| points.append_to(&mut a))
                        {
                            debug_assert!(is_sorted_keyed(&a), "a leaf fold yields sorted points");
                            self.release_child(&l);
                            self.release_child(&r);
                            let pre = set_prefix(&a);
                            let n = &mut self.nodes[idx as usize];
                            n.prefix = pre;
                            n.count = a.len() as u64;
                            n.kind = BKind::Leaf { points: a.into() };
                        } else if count < before {
                            lowered.push(Lowered { slot: idx, by: before - count, prefix: None });
                        }
                        Some(ChildRef::Local(idx))
                    }
                }
            }
        }
    }

    /// Hands the payload leaves below `idx` to `leaf`, left to right, and
    /// returns whether the subtree is entirely local — no remote child, no
    /// stub. A `strict` fold stops at the first part that is not (its
    /// caller wants all of the subtree or nothing); a lenient one skips it.
    fn fold_leaves(&self, idx: u32, strict: bool, leaf: &mut impl FnMut(&PointSet<D>)) -> bool {
        match &self.node(idx).kind {
            BKind::Leaf { points } => {
                leaf(points);
                true
            }
            BKind::LeafStub => false,
            BKind::Internal { left, right } => {
                let mut local = true;
                for c in [left, right] {
                    local &= matches!(c, ChildRef::Local(c) if self.fold_leaves(*c, strict, leaf));
                    if strict && !local {
                        break;
                    }
                }
                local
            }
        }
    }

    /// Applies to a structure copy what [`Self::remove`] lowered at its
    /// master. The decreases commute with every counter sync either side
    /// gets, so a copy that counted no more than its master still does.
    pub fn lower(&mut self, patch: &[Lowered<D>]) {
        let mut narrowed = false;
        for l in patch {
            let n = &mut self.nodes[l.slot as usize];
            n.count = n.count.saturating_sub(l.by);
            if let Some(prefix) = l.prefix {
                n.prefix = prefix;
                narrowed = true;
            }
        }
        if narrowed {
            self.rebuild_chunk_dir();
        }
    }

    fn release_child(&mut self, c: &ChildRef<D>) {
        if let ChildRef::Local(i) = c {
            if let BKind::Internal { left, right } = self.node(*i).kind {
                self.release_child(&left);
                self.release_child(&right);
            }
            self.release(*i);
        }
    }

    // ------------------------------------------------------------------
    // kNN and box traversal
    // ------------------------------------------------------------------

    /// What a cached copy surfaces for a stubbed leaf: the payload lives at
    /// this fragment's master.
    fn stub_ref(&self, stub: &BNode<D>) -> RemoteRef<D> {
        RemoteRef {
            meta: self.meta,
            module: self.master_module,
            prefix: stub.prefix,
            sc: stub.count,
        }
    }

    /// Branch-and-bound within the fragment from `start`. Improves the
    /// candidate list `cands` (kept as the k best `(dist, point)` pairs,
    /// sorted) and appends remote children that might still matter to
    /// `frontier` with their box lower bounds.
    #[allow(clippy::too_many_arguments)]
    pub fn local_knn(
        &self,
        start: u32,
        q: &Point<D>,
        k: usize,
        metric: Metric,
        cands: &mut Vec<(u64, Point<D>)>,
        frontier: &mut Vec<Edge<D>>,
        sink: &mut impl CostSink,
    ) {
        sink.enter(Self::off(start));
        let node = self.node(start);
        match &node.kind {
            BKind::LeafStub => {
                // Candidate data lives at the master: surface it as frontier.
                let d = node.prefix.to_box().min_dist(q, metric);
                frontier.push((self.stub_ref(node), d));
            }
            BKind::Leaf { points } => {
                sink.mem(Self::off(start), points.len() as u64 * costs::point_bytes(D));
                // Lane kernel: distances for the whole leaf run, charged as
                // one aggregated total (identical counter sum).
                sink.dist_n(metric, D, points.len() as u64);
                points.for_dist_chunks(q, metric, |base, dists| {
                    for (i, &dist) in dists.iter().enumerate() {
                        push_candidate(cands, k, (dist, points.point(base + i)), sink);
                    }
                });
            }
            BKind::Internal { left, right } => {
                sink.op(costs::box_test_cycles(D));
                let lp = self.child_prefix(left);
                let rp = self.child_prefix(right);
                let ld = lp.to_box().min_dist(q, metric);
                let rd = rp.to_box().min_dist(q, metric);
                let order =
                    if ld <= rd { [(ld, left), (rd, right)] } else { [(rd, right), (ld, left)] };
                for (d, child) in order {
                    let bound = knn_bound(cands, k);
                    if d > bound {
                        continue;
                    }
                    match child {
                        ChildRef::Local(c) => {
                            self.local_knn(*c, q, k, metric, cands, frontier, sink)
                        }
                        ChildRef::Remote(r) => frontier.push((*r, d)),
                    }
                }
            }
        }
    }

    /// Collects *all* points within comparable distance `radius` of `q`
    /// below `start` (Alg. 3 step 4's sphere collection) that are also
    /// within ℓ∞ distance `cube` of it (`u64::MAX` = no such bound); remote
    /// children whose boxes meet both regions go to `frontier`.
    ///
    /// The cube is what §6's two-stage execution knows beyond the ℓ1 ball:
    /// with r₂ the fine radius, every true neighbour has ℓ∞ ≤ ℓ2 ≤ r₂, while
    /// the ℓ1 ball of radius √D·r₂ that must hold them all reaches √D·r₂
    /// along each axis. ℓ∞ is a max over the per-axis differences ℓ1 sums —
    /// comparisons only — charged a second [`costs::box_test_cycles`] per
    /// internal node and [`costs::cube_test_cycles`] per leaf point on top of
    /// the ℓ1 charges.
    #[allow(clippy::too_many_arguments)]
    pub fn local_ball(
        &self,
        start: u32,
        q: &Point<D>,
        radius: u64,
        cube: u64,
        metric: Metric,
        out: &mut Vec<Point<D>>,
        frontier: &mut Vec<Edge<D>>,
        sink: &mut impl CostSink,
    ) {
        sink.enter(Self::off(start));
        let cubed = cube != u64::MAX;
        // A box's lower bound under `metric`, if the box meets the ball and
        // the cube.
        let reach = |pre: &Prefix<D>| {
            let b = pre.to_box();
            let d = b.min_dist(q, metric);
            (d <= radius && b.min_linf(q) <= cube).then_some(d)
        };
        let node = self.node(start);
        match &node.kind {
            BKind::LeafStub => {
                if let Some(d) = reach(&node.prefix) {
                    frontier.push((self.stub_ref(node), d));
                }
            }
            BKind::Leaf { points } => {
                let n = points.len() as u64;
                sink.mem(Self::off(start), n * costs::point_bytes(D));
                sink.dist_n(metric, D, n);
                if cubed {
                    sink.op(costs::cube_test_cycles(D) * n);
                }
                let mut accepted = 0u64;
                points.for_dist_chunks(q, metric, |base, dists| {
                    for (i, &dist) in dists.iter().enumerate() {
                        if dist <= radius {
                            let p = points.point(base + i);
                            if p.linf(q) <= cube {
                                accepted += 1;
                                out.push(p);
                            }
                        }
                    }
                });
                sink.op(costs::EMIT_POINT * accepted);
            }
            BKind::Internal { left, right } => {
                // The ball's test, and the cube's where there is one.
                sink.op(costs::box_test_cycles(D) * (1 + u64::from(cubed)));
                for child in [left, right] {
                    let Some(d) = reach(&self.child_prefix(child)) else { continue };
                    match child {
                        ChildRef::Local(c) => {
                            self.local_ball(*c, q, radius, cube, metric, out, frontier, sink)
                        }
                        ChildRef::Remote(r) => frontier.push((*r, d)),
                    }
                }
            }
        }
    }

    /// Counts points inside `query` below `start`. Fully-local subtrees
    /// that are fully covered contribute their exact counts without
    /// descent; remote children that intersect go to `frontier` (with the
    /// lower bound 0, so box and kNN frontiers have one shape).
    pub fn local_box_count(
        &self,
        start: u32,
        query: &Aabb<D>,
        frontier: &mut Vec<Edge<D>>,
        sink: &mut impl CostSink,
    ) -> u64 {
        sink.enter_box(Self::off(start), D);
        let node = self.node(start);
        let nb = node.prefix.to_box();
        if !query.intersects(&nb) {
            return 0;
        }
        let fully = query.contains_box(&nb);
        match &node.kind {
            BKind::LeafStub => {
                frontier.push((self.stub_ref(node), 0));
                0
            }
            BKind::Leaf { points } => {
                if fully {
                    return points.len() as u64;
                }
                sink.mem(Self::off(start), points.len() as u64 * costs::point_bytes(D));
                sink.op(points.len() as u64 * costs::box_test_cycles(D));
                points.count_in(query)
            }
            BKind::Internal { left, right } => {
                if fully {
                    // Exact only if the subtree is entirely local; otherwise
                    // descend so remote parts report exactly.
                    let mut exact = 0;
                    if self.fold_leaves(start, true, &mut |points| exact += points.len() as u64) {
                        return exact;
                    }
                }
                let mut total = 0;
                for child in [left, right] {
                    match child {
                        ChildRef::Local(c) => {
                            total += self.local_box_count(*c, query, frontier, sink)
                        }
                        ChildRef::Remote(r) => {
                            sink.op(costs::box_test_cycles(D));
                            if query.intersects(&r.prefix.to_box()) {
                                frontier.push((*r, 0));
                            }
                        }
                    }
                }
                total
            }
        }
    }

    /// Fetches points inside `query` below `start`; remote children that
    /// intersect go to `frontier`.
    pub fn local_box_fetch(
        &self,
        start: u32,
        query: &Aabb<D>,
        out: &mut Vec<Point<D>>,
        frontier: &mut Vec<Edge<D>>,
        sink: &mut impl CostSink,
    ) {
        sink.enter_box(Self::off(start), D);
        let node = self.node(start);
        let nb = node.prefix.to_box();
        if !query.intersects(&nb) {
            return;
        }
        match &node.kind {
            BKind::LeafStub => frontier.push((self.stub_ref(node), 0)),
            BKind::Leaf { points } => {
                sink.mem(Self::off(start), points.len() as u64 * costs::point_bytes(D));
                let fully = query.contains_box(&nb);
                if fully {
                    sink.op(costs::EMIT_POINT * points.len() as u64);
                    for i in 0..points.len() {
                        out.push(points.point(i));
                    }
                } else {
                    sink.op(points.len() as u64 * costs::box_test_cycles(D));
                    let mut accepted = 0u64;
                    points.for_box_chunks(query, |base, mask| {
                        for (i, &m) in mask.iter().enumerate() {
                            if m {
                                accepted += 1;
                                out.push(points.point(base + i));
                            }
                        }
                    });
                    sink.op(costs::EMIT_POINT * accepted);
                }
            }
            BKind::Internal { left, right } => {
                for child in [left, right] {
                    match child {
                        ChildRef::Local(c) => self.local_box_fetch(*c, query, out, frontier, sink),
                        ChildRef::Remote(r) => {
                            sink.op(costs::box_test_cycles(D));
                            if query.intersects(&r.prefix.to_box()) {
                                frontier.push((*r, 0));
                            }
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Building and cutting (bulk build, demotion, promotion, re-chunking)
    // ------------------------------------------------------------------

    /// Builds a fresh fragment holding the canonical tree over sorted
    /// `items`, nodes in post-order, with no chunk directory.
    pub fn build_from(
        meta: MetaId,
        master_module: u32,
        items: &[Keyed<D>],
        leaf_cap: usize,
        sink: &mut impl CostSink,
    ) -> Fragment<D> {
        Self::build_cut(meta, master_module, items, leaf_cap, sink, &mut |_, _| None)
    }

    /// [`Self::build_from`] for a tree that is cut into fragments as it is
    /// built (bulk build). Below the root, `cut(a child's items, nodes
    /// placed so far)` decides: `None` builds the child's subtree here;
    /// `Some(ref)` leaves that ref in its slot — the caller has built the
    /// subtree elsewhere, typically by calling this again on those items.
    pub(crate) fn build_cut(
        meta: MetaId,
        master_module: u32,
        items: &[Keyed<D>],
        leaf_cap: usize,
        sink: &mut impl CostSink,
        cut: &mut impl FnMut(&[Keyed<D>], usize) -> Option<RemoteRef<D>>,
    ) -> Fragment<D> {
        debug_assert!(!items.is_empty());
        let mut f = Self::empty(meta, master_module, leaf_cap);
        f.root = f.build_subtree(items, sink, cut);
        f
    }

    /// Cuts the subtree at `idx` out into a fresh fragment `(meta, module)`
    /// under this fragment's directory policy. Nodes land in post-order (so
    /// the new arena is dense) and their slots here are released, the stale
    /// nodes staying behind as in any freed slot.
    fn extract_subtree(&mut self, idx: u32, meta: MetaId, module: u32) -> Fragment<D> {
        let mut out = Self::empty(meta, module, self.leaf_cap);
        out.root = self.move_into(idx, &mut out);
        out.set_dir_policy(self.dir_bits, self.dense_min);
        out
    }

    fn move_into(&mut self, idx: u32, out: &mut Fragment<D>) -> u32 {
        let mut node = self.nodes[idx as usize].clone();
        self.release(idx);
        if let BKind::Internal { left, right } = &mut node.kind {
            for slot in [left, right] {
                if let ChildRef::Local(c) = *slot {
                    *slot = ChildRef::Local(self.move_into(c, out));
                }
            }
        }
        out.alloc(node)
    }

    /// Turns local subtrees into fragments of their own, leaving refs
    /// behind (demotion out of L0; the root split of promotion and
    /// re-chunking). Walks down from the root through local children: a
    /// child `cut` takes is extracted whole under the `(meta, module)` that
    /// `ids` gives for its count and its slot rewritten to the ref; any
    /// other child is
    /// walked into. Counters stay as they are — a ref's snapshot is the
    /// count of the subtree it replaces; the chunk directory is rebuilt if
    /// anything was cut. Returns the new fragments in the order they were
    /// cut.
    pub fn detach_children(
        &mut self,
        cut: impl Fn(&BNode<D>) -> bool,
        mut ids: impl FnMut(u64) -> (MetaId, u32),
    ) -> Vec<Fragment<D>> {
        let mut frags = Vec::new();
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            let BKind::Internal { left, right } = &self.nodes[idx as usize].kind else { continue };
            let mut slots = [*left, *right];
            for slot in &mut slots {
                let ChildRef::Local(c) = *slot else { continue };
                if cut(self.node(c)) {
                    let (meta, module) = ids(self.node(c).count);
                    let frag = self.extract_subtree(c, meta, module);
                    *slot = ChildRef::Remote(frag.self_ref());
                    frags.push(frag);
                } else {
                    stack.push(c);
                }
            }
            self.nodes[idx as usize].kind = BKind::Internal { left: slots[0], right: slots[1] };
        }
        if !frags.is_empty() {
            self.rebuild_chunk_dir();
        }
        frags
    }

    /// Splits the root off: each of its local children becomes a fragment
    /// under the next `(meta, module)` of `new_ids` (left first); remote
    /// children keep their refs. Returns the root, its children all refs
    /// now, and the new fragments. A leaf root is the whole content: it is
    /// returned alone, with nothing extracted. What is left of `self` is
    /// the root only.
    pub fn split_root(
        &mut self,
        mut new_ids: impl Iterator<Item = (MetaId, u32)>,
    ) -> (BNode<D>, Vec<Fragment<D>>) {
        let frags =
            self.detach_children(|_| true, |_| new_ids.next().expect("id for child fragment"));
        (self.root_node().clone(), frags)
    }

    /// All (key, point) pairs stored in *this* fragment (not descendants).
    pub fn local_points(&self) -> Vec<Keyed<D>> {
        let mut out = Vec::new();
        self.fold_leaves(self.root, false, &mut |points| points.append_to(&mut out));
        out
    }

    /// All remote references leaving this fragment.
    pub fn remote_children(&self) -> Vec<RemoteRef<D>> {
        let mut out = Vec::new();
        self.walk_refs(self.root, &mut out);
        out
    }

    fn walk_refs(&self, idx: u32, out: &mut Vec<RemoteRef<D>>) {
        if let BKind::Internal { left, right } = &self.node(idx).kind {
            for c in [left, right] {
                match c {
                    ChildRef::Local(i) => self.walk_refs(*i, out),
                    ChildRef::Remote(r) => out.push(*r),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Editing a ref (counter sync, splice, promotion)
    // ------------------------------------------------------------------

    /// Applies `edit` to the child slot holding the ref to `meta`, carries
    /// the change of the slot's counter up the path to the root, and — when
    /// the edit changed which nodes exist — rebuilds the chunk directory.
    /// Every maintenance step that touches a ref goes through here, on
    /// masters, cached copies and the host's L0 alike.
    pub fn edit_ref(&mut self, meta: MetaId, edit: RefEdit<D>) -> EditOutcome<D> {
        let structural = !matches!(edit, RefEdit::Sync { .. } | RefEdit::Replace(Some(_)));
        match self.edit_below(self.root, meta, &mut Some(edit)) {
            Edited::NotFound => return EditOutcome::NotFound,
            Edited::Done(_) => {}
            Edited::Spliced(ChildRef::Local(survivor), _) => self.root = survivor,
            Edited::Spliced(ChildRef::Remote(r), _) => return EditOutcome::RootCollapsed(r),
        }
        if structural {
            self.rebuild_chunk_dir();
        }
        EditOutcome::Done
    }

    fn edit_below(&mut self, idx: u32, meta: MetaId, edit: &mut Option<RefEdit<D>>) -> Edited<D> {
        let BKind::Internal { left, right } = &self.nodes[idx as usize].kind else {
            return Edited::NotFound;
        };
        let mut slots = [*left, *right];
        for side in 0..2 {
            // What the slot holds after the edit, and by how much the
            // counter of what hangs there changed.
            let (child, delta) = match slots[side] {
                ChildRef::Remote(r) if r.meta == meta => {
                    match edit.take().expect("the walk returns from the one slot it edits") {
                        RefEdit::Sync { sc, prefix } => {
                            let prefix = prefix.unwrap_or(r.prefix);
                            (
                                ChildRef::Remote(RemoteRef { sc, prefix, ..r }),
                                sc as i64 - r.sc as i64,
                            )
                        }
                        RefEdit::Replace(Some(new)) => {
                            (ChildRef::Remote(new), new.sc as i64 - r.sc as i64)
                        }
                        RefEdit::Replace(None) => {
                            // Child vanished: splice this node, keeping the
                            // sibling.
                            self.release(idx);
                            return Edited::Spliced(slots[1 - side], -(r.sc as i64));
                        }
                        RefEdit::Graft(node) => (ChildRef::Local(self.alloc(node)), 0),
                    }
                }
                ChildRef::Remote(_) => continue,
                ChildRef::Local(c) => match self.edit_below(c, meta, edit) {
                    Edited::NotFound => continue,
                    Edited::Done(delta) => (slots[side], delta),
                    Edited::Spliced(survivor, delta) => (survivor, delta),
                },
            };
            slots[side] = child;
            let n = &mut self.nodes[idx as usize];
            n.kind = BKind::Internal { left: slots[0], right: slots[1] };
            n.count = (n.count as i64 + delta).max(0) as u64;
            return Edited::Done(delta);
        }
        Edited::NotFound
    }
}

/// An edit of the one child slot that holds the ref to a given meta-node
/// (see [`Fragment::edit_ref`]).
#[derive(Clone, Debug)]
pub enum RefEdit<const D: usize> {
    /// Lazy-counter sync (§3.4): the ref's snapshot becomes `sc` — and its
    /// prefix `prefix`, when the child's root restructured.
    Sync {
        /// New counter snapshot.
        sc: u64,
        /// New prefix, if it changed.
        prefix: Option<Prefix<D>>,
    },
    /// The child fragment dissolved. `Some`: it collapsed to its one
    /// remaining child, whose ref takes the slot. `None`: it emptied, and
    /// the node holding the slot is spliced out — the slot's sibling takes
    /// the node's place (the fragment's root, if the node was the root).
    Replace(Option<RemoteRef<D>>),
    /// Promotion: the child's root node — a leaf, or its children all
    /// remote — becomes a local node in the slot. Ancestors keep their
    /// counters: the host syncs a counter before it promotes, so the node's
    /// count is what the ref's snapshot already said.
    Graft(BNode<D>),
}

/// What [`Fragment::edit_below`] did below a node; the `i64` is the change
/// of the subtree's counter, which every ancestor applies to its own.
enum Edited<const D: usize> {
    NotFound,
    Done(i64),
    /// The node was spliced out: link this (its surviving child) instead.
    Spliced(ChildRef<D>, i64),
}

/// Outcome of [`Fragment::edit_ref`].
#[derive(Clone, Copy, Debug)]
pub enum EditOutcome<const D: usize> {
    /// No reference to the named meta exists here.
    NotFound,
    /// Edited in place; the root is where it was or, after a splice that
    /// took it, the spliced root's local child.
    Done,
    /// A splice took the root and left only this remote ref: the fragment
    /// collapsed to it, and the caller (host) must dissolve the fragment
    /// and repoint *its* parent.
    RootCollapsed(RemoteRef<D>),
}

/// Outcome of a fragment-level delete.
#[derive(Clone, Copy, Debug)]
pub enum RootAfterRemove<const D: usize> {
    /// Fragment still rooted locally.
    Kept,
    /// Fragment is now empty; the parent must splice its reference.
    Empty,
    /// Fragment collapsed to a single remote reference; the parent should
    /// point directly at it.
    CollapsedToRemote(RemoteRef<D>),
}

/// Anchor location for kNN (Alg. 3 step 2).
#[derive(Clone, Copy, Debug)]
pub enum AnchorLoc<const D: usize> {
    /// A node in the current fragment.
    Local(u32),
    /// A remote subtree.
    Remote(RemoteRef<D>),
}

/// Whether a sorted item set forms a single leaf.
#[inline]
pub fn is_leaf_set<const D: usize>(items: &[Keyed<D>], leaf_cap: usize) -> bool {
    items.len() <= leaf_cap || items.first().unwrap().0 == items.last().unwrap().0
}

/// Canonical prefix of a sorted non-empty item set.
#[inline]
pub fn set_prefix<const D: usize>(items: &[Keyed<D>]) -> Prefix<D> {
    let first = items.first().unwrap().0;
    let last = items.last().unwrap().0;
    Prefix::new(first, first.common_prefix_len(last))
}

/// Inserts a candidate into the k-best list (sorted ascending by
/// (dist, coords)), keeping at most k *distinct* points. Duplicate stored
/// copies are skipped on arrival: `batch_knn` answers with distinct points,
/// so letting copies occupy slots would make the k-th candidate distance —
/// the coarse sphere radius of step 3 — too small to cover k distinct
/// neighbors on duplicate-heavy inputs.
pub fn push_candidate<const D: usize>(
    cands: &mut Vec<(u64, Point<D>)>,
    k: usize,
    cand: (u64, Point<D>),
    sink: &mut impl CostSink,
) {
    sink.op(costs::CAND_PUSH);
    let key = (cand.0, cand.1.coords);
    let pos = cands.partition_point(|(d, p)| (*d, p.coords) < key);
    if pos >= k || cands.get(pos).is_some_and(|c| *c == cand) {
        return;
    }
    // Evict the k-th before inserting, so a full list never outgrows k.
    cands.truncate(k - 1);
    cands.insert(pos, cand);
}

/// Current kNN pruning bound (∞ until k candidates exist).
#[inline]
pub fn knn_bound<const D: usize>(cands: &[(u64, Point<D>)], k: usize) -> u64 {
    if cands.len() < k {
        u64::MAX
    } else {
        cands[k - 1].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed(pts: &[[u32; 3]]) -> Vec<Keyed<3>> {
        let mut v: Vec<Keyed<3>> = pts
            .iter()
            .map(|c| {
                let p = Point::new(*c);
                (ZKey::<3>::encode(&p), p)
            })
            .collect();
        v.sort_unstable_by_key(|(k, p)| (*k, p.coords));
        v
    }

    /// A fragment over hand-placed nodes, the root in slot 0.
    fn hand_placed(meta: MetaId, nodes: Vec<BNode<3>>) -> Fragment<3> {
        Fragment::from_parts(meta, 0, 0, 4, 0, 0, ChunkDir::default(), vec![], nodes).unwrap()
    }

    fn leaf_fragment(pts: &[[u32; 3]], cap: usize) -> Fragment<3> {
        let items = keyed(pts);
        Fragment::singleton(
            1,
            0,
            BNode {
                prefix: set_prefix(&items),
                count: items.len() as u64,
                kind: BKind::Leaf { points: items.into() },
            },
            cap,
        )
    }

    #[test]
    fn search_descends_to_leaf() {
        let mut f = leaf_fragment(&[[1, 1, 1]], 2);
        f.merge(&keyed(&[[100, 100, 100], [200, 200, 200]]), &mut NullSink);
        let k = ZKey::<3>::encode(&Point::new([1, 1, 1]));
        match f.search(k, &mut NullSink) {
            SearchEnd::Leaf(idx) => {
                assert!(f.node(idx).prefix.covers(k));
            }
            other => panic!("expected leaf, got {other:?}"),
        }
    }

    #[test]
    fn merge_splits_overflowing_leaf() {
        let mut f = leaf_fragment(&[[0, 0, 0], [1, 1, 1]], 2);
        let created = f.merge(&keyed(&[[5, 5, 5], [9, 9, 9], [100, 3, 7]]), &mut NullSink);
        assert!(created > 0);
        assert_eq!(f.root_node().count, 5);
        // All five points findable.
        for c in [[0u32, 0, 0], [1, 1, 1], [5, 5, 5], [9, 9, 9], [100, 3, 7]] {
            let key = ZKey::<3>::encode(&Point::new(c));
            match f.search(key, &mut NullSink) {
                SearchEnd::Leaf(idx) => {
                    let BKind::Leaf { points } = &f.node(idx).kind else { panic!() };
                    assert!(points.contains_key(key), "{c:?} lost");
                }
                other => panic!("{c:?} → {other:?}"),
            }
        }
    }

    #[test]
    fn merge_handles_edge_split_above_remote_child() {
        // Internal root with one remote child; an item diverging from the
        // remote child's prefix must split locally.
        let items = keyed(&[[0, 0, 0], [0, 0, 1]]);
        let leaf_pre = set_prefix(&items);
        let remote_pre = {
            // A deep prefix on the 1-side of the root split.
            let k = ZKey::<3>::encode(&Point::new([2_000_000, 2_000_000, 2_000_000]));
            Prefix::new(k, 30)
        };
        let root_pre = Prefix::new(leaf_pre.key, leaf_pre.key.common_prefix_len(remote_pre.key));
        let mut f = hand_placed(
            7,
            vec![
                BNode {
                    prefix: root_pre,
                    count: 12,
                    kind: BKind::Internal {
                        left: ChildRef::Local(1),
                        right: ChildRef::Remote(RemoteRef {
                            meta: 99,
                            module: 3,
                            prefix: remote_pre,
                            sc: 10,
                        }),
                    },
                },
                BNode { prefix: leaf_pre, count: 2, kind: BKind::Leaf { points: items.into() } },
            ],
        );
        // This point goes to the 1-side of the root but diverges from the
        // remote prefix (its bit pattern differs within the first 30 bits).
        let stray = Point::new([2_000_000, 1, 1]);
        let stray_key = ZKey::<3>::encode(&stray);
        assert!(root_pre.covers(stray_key));
        assert!(!remote_pre.covers(stray_key));
        match f.search(stray_key, &mut NullSink) {
            SearchEnd::Diverge { .. } => {}
            other => panic!("expected divergence, got {other:?}"),
        }
        f.merge(&keyed(&[[2_000_000, 1, 1]]), &mut NullSink);
        // Now the stray must be findable, and the remote ref preserved.
        match f.search(stray_key, &mut NullSink) {
            SearchEnd::Leaf(_) => {}
            other => panic!("after merge: {other:?}"),
        }
        assert_eq!(f.remote_children().len(), 1);
        assert_eq!(f.remote_children()[0].meta, 99);
    }

    #[test]
    fn remove_collapses_and_empties() {
        let pts = [[0u32, 0, 0], [1, 1, 1], [5, 5, 5], [9, 9, 9], [100, 3, 7]];
        let mut f = leaf_fragment(&pts[..2], 2);
        f.merge(&keyed(&pts[2..]), &mut NullSink);
        let mut removed = 0;
        match f.remove(&keyed(&pts[..4]), &mut removed, &mut Vec::new(), &mut NullSink) {
            RootAfterRemove::Kept => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(removed, 4);
        assert_eq!(f.root_node().count, 1);
        let mut removed2 = 0;
        match f.remove(&keyed(&pts[4..]), &mut removed2, &mut Vec::new(), &mut NullSink) {
            RootAfterRemove::Empty => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn remove_around_remote_child_collapses_to_remote() {
        // Root = internal(leaf, remote); deleting the leaf must collapse the
        // fragment to the remote ref.
        let items = keyed(&[[0, 0, 0]]);
        let leaf_pre = set_prefix(&items);
        let rk = ZKey::<3>::encode(&Point::new([2_000_000, 0, 0]));
        let remote_pre = Prefix::new(rk, 20);
        let root_pre = Prefix::new(leaf_pre.key, leaf_pre.key.common_prefix_len(rk));
        let mut f = hand_placed(
            5,
            vec![
                BNode {
                    prefix: root_pre,
                    count: 11,
                    kind: BKind::Internal {
                        left: ChildRef::Local(1),
                        right: ChildRef::Remote(RemoteRef {
                            meta: 42,
                            module: 1,
                            prefix: remote_pre,
                            sc: 10,
                        }),
                    },
                },
                BNode { prefix: leaf_pre, count: 1, kind: BKind::Leaf { points: items.into() } },
            ],
        );
        let mut removed = 0;
        match f.remove(&keyed(&[[0, 0, 0]]), &mut removed, &mut Vec::new(), &mut NullSink) {
            RootAfterRemove::CollapsedToRemote(r) => assert_eq!(r.meta, 42),
            other => panic!("{other:?}"),
        }
        assert_eq!(removed, 1);
    }

    #[test]
    fn local_knn_finds_nearest_and_reports_frontier() {
        let pts = [[0u32, 0, 0], [10, 10, 10], [1000, 1000, 1000], [1001, 1001, 1001]];
        let mut f = leaf_fragment(&pts[..1], 2);
        f.merge(&keyed(&pts[1..]), &mut NullSink);
        let q = Point::new([9, 9, 9]);
        let mut cands = Vec::new();
        let mut frontier = Vec::new();
        f.local_knn(f.root, &q, 2, Metric::L2, &mut cands, &mut frontier, &mut NullSink);
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].1, Point::new([10, 10, 10]));
        assert_eq!(cands[1].1, Point::new([0, 0, 0]));
        assert!(frontier.is_empty());
    }

    #[test]
    fn local_box_count_and_fetch_agree() {
        let pts: Vec<[u32; 3]> = (0..40u32).map(|i| [i * 3, i * 5, i * 7]).collect();
        let mut f = leaf_fragment(&pts[..1], 4);
        f.merge(&keyed(&pts[1..]), &mut NullSink);
        let query = Aabb::new(Point::new([0, 0, 0]), Point::new([60, 100, 140]));
        let mut fr1 = Vec::new();
        let mut fr2 = Vec::new();
        let count = f.local_box_count(f.root, &query, &mut fr1, &mut NullSink);
        let mut out = Vec::new();
        f.local_box_fetch(f.root, &query, &mut out, &mut fr2, &mut NullSink);
        assert_eq!(count, out.len() as u64);
        let brute = pts.iter().filter(|c| query.contains(&Point::new(**c))).count() as u64;
        assert_eq!(count, brute);
    }

    #[test]
    fn split_root_partitions_fragment() {
        let pts: Vec<[u32; 3]> = (0..32u32).map(|i| [i * 1000, i, i]).collect();
        let mut f = leaf_fragment(&pts[..1], 4);
        f.merge(&keyed(&pts[1..]), &mut NullSink);
        let total = f.root_node().count;
        let ids = vec![(100u64, 5u32), (101, 6)];
        let (root, frags) = f.split_root(ids.into_iter());
        assert_eq!(frags.len(), 2);
        let BKind::Internal { left, right } = &root.kind else { panic!() };
        for c in [left, right] {
            match c {
                ChildRef::Remote(r) => assert!(r.meta == 100 || r.meta == 101),
                _ => panic!("children must be remote after split"),
            }
        }
        let sum: u64 = frags.iter().map(|fr| fr.root_node().count).sum();
        assert_eq!(sum, total);
        // Points preserved across the split.
        let n: usize = frags.iter().map(|fr| fr.local_points().len()).sum();
        assert_eq!(n, 32);
    }

    #[test]
    fn split_root_of_a_leaf_extracts_nothing() {
        // Equal keys past `leaf_cap` stay one leaf: nothing below the root.
        let mut f = leaf_fragment(&[[3, 3, 3]; 9], 4);
        let (root, frags) = f.split_root([(100u64, 5u32), (101, 6)].into_iter());
        assert!(frags.is_empty());
        assert!(matches!(root.kind, BKind::Leaf { .. }));
        assert_eq!(root.count, 9);
    }

    #[test]
    fn structure_clone_stubs_leaves() {
        let mut f = leaf_fragment(&[[0, 0, 0], [5, 5, 5]], 2);
        f.merge(&keyed(&[[9, 9, 9], [100, 50, 25]]), &mut NullSink);
        let c = f.structure_clone();
        assert_eq!(c.live_nodes(), f.live_nodes());
        assert!(c.structure_bytes() < f.bytes() + 1);
        let any_leaf = c.nodes.iter().any(|n| matches!(n.kind, BKind::Leaf { .. }));
        assert!(!any_leaf, "cached copies must not carry point payloads");
        // Searching the clone ends at stubs.
        let k = ZKey::<3>::encode(&Point::new([0, 0, 0]));
        match c.search(k, &mut NullSink) {
            SearchEnd::Stub(_) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sync_remote_child_updates_sc_and_ancestors() {
        let items = keyed(&[[0, 0, 0]]);
        let leaf_pre = set_prefix(&items);
        let rk = ZKey::<3>::encode(&Point::new([2_000_000, 0, 0]));
        let remote_pre = Prefix::new(rk, 20);
        let root_pre = Prefix::new(leaf_pre.key, leaf_pre.key.common_prefix_len(rk));
        let mut f = hand_placed(
            5,
            vec![
                BNode {
                    prefix: root_pre,
                    count: 11,
                    kind: BKind::Internal {
                        left: ChildRef::Local(1),
                        right: ChildRef::Remote(RemoteRef {
                            meta: 42,
                            module: 1,
                            prefix: remote_pre,
                            sc: 10,
                        }),
                    },
                },
                BNode { prefix: leaf_pre, count: 1, kind: BKind::Leaf { points: items.into() } },
            ],
        );
        f.edit_ref(42, RefEdit::Sync { sc: 25, prefix: None });
        assert_eq!(f.root_node().count, 26);
        assert_eq!(f.remote_children()[0].sc, 25);
    }

    #[test]
    fn replace_remote_child_updates_ancestor_counts() {
        // root ─┬─ inner ─┬─ leaf B
        //       │         └─ remote 42 (sc 10)
        //       └─ leaf A
        let leaf = |c: [u32; 3]| {
            let items = keyed(&[c]);
            BNode {
                prefix: set_prefix(&items),
                count: 1,
                kind: BKind::Leaf { points: items.into() },
            }
        };
        let (a, b) = (leaf([2_000_000, 0, 0]), leaf([0, 0, 0]));
        let rk = ZKey::<3>::encode(&Point::new([1_000_000, 0, 0]));
        let remote = RemoteRef { meta: 42, module: 1, prefix: Prefix::new(rk, 20), sc: 10 };
        let inner_pre = Prefix::new(b.prefix.key, b.prefix.key.common_prefix_len(rk));
        let root_pre = Prefix::new(b.prefix.key, b.prefix.key.common_prefix_len(a.prefix.key));
        let mut f = hand_placed(
            5,
            vec![
                BNode {
                    prefix: root_pre,
                    count: 12,
                    kind: BKind::Internal { left: ChildRef::Local(1), right: ChildRef::Local(2) },
                },
                BNode {
                    prefix: inner_pre,
                    count: 11,
                    kind: BKind::Internal {
                        left: ChildRef::Local(3),
                        right: ChildRef::Remote(remote),
                    },
                },
                a,
                b,
            ],
        );
        // The child collapsed to a smaller grandchild: every ancestor drops
        // by the difference.
        let collapsed = RemoteRef { meta: 43, sc: 3, ..remote };
        let done = |o| matches!(o, EditOutcome::Done);
        assert!(done(f.edit_ref(42, RefEdit::Replace(Some(collapsed)))));
        assert_eq!((f.root_node().count, f.node(1).count), (5, 4));
        assert_eq!(f.remote_children()[0].meta, 43);
        // It emptied: `inner` is spliced out and the root forgets its points.
        assert!(done(f.edit_ref(43, RefEdit::Replace(None))));
        assert_eq!(f.root_node().count, 2);
        assert!(f.remote_children().is_empty());
        assert!(matches!(
            f.root_node().kind,
            BKind::Internal { left: ChildRef::Local(3), right: ChildRef::Local(2) }
        ));
    }

    #[test]
    fn candidate_list_keeps_k_best_sorted() {
        let mut cands: Vec<(u64, Point<2>)> = Vec::new();
        for (d, c) in [(9u64, [9u32, 9]), (1, [1, 1]), (5, [5, 5]), (3, [3, 3])] {
            push_candidate(&mut cands, 3, (d, Point::new(c)), &mut NullSink);
        }
        assert_eq!(cands.iter().map(|(d, _)| *d).collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(knn_bound(&cands, 3), 5);
        assert_eq!(knn_bound(&cands, 4), u64::MAX);
    }
}

#[cfg(test)]
mod chunk_dir_tests {
    use super::*;

    fn keyed(pts: &[[u32; 3]]) -> Vec<Keyed<3>> {
        let mut v: Vec<Keyed<3>> = pts
            .iter()
            .map(|c| {
                let p = Point::new(*c);
                (ZKey::<3>::encode(&p), p)
            })
            .collect();
        v.sort_unstable_by_key(|(k, p)| (*k, p.coords));
        v
    }

    fn dense_fragment() -> (Fragment<3>, Vec<[u32; 3]>) {
        let pts: Vec<[u32; 3]> = (0..200u32).map(|i| [i * 9731, i * 331 + 5, i * 77]).collect();
        let items = keyed(&pts);
        let mut f = Fragment::singleton(
            1,
            0,
            BNode {
                prefix: set_prefix(&items[..1]),
                count: 1,
                kind: BKind::Leaf { points: items[..1].to_vec().into() },
            },
            4,
        );
        f.dir_bits = 4;
        f.dense_min = 4;
        f.merge(&items[1..], &mut NullSink);
        (f, pts)
    }

    #[test]
    fn dense_mode_engages_and_sparse_mode_does_not() {
        let (f, _) = dense_fragment();
        assert_eq!(f.chunk_dir.bits, 4, "200 points ≥ B/4 ⇒ dense mode");
        assert_eq!(f.chunk_dir.slots.len(), 16);

        let items = keyed(&[[1, 2, 3]]);
        let mut small = Fragment::singleton(
            2,
            0,
            BNode {
                prefix: set_prefix(&items),
                count: 1,
                kind: BKind::Leaf { points: items.into() },
            },
            4,
        );
        small.dir_bits = 4;
        small.dense_min = 4;
        small.rebuild_chunk_dir();
        assert_eq!(small.chunk_dir.bits, 0, "tiny fragment stays sparse");
    }

    #[test]
    fn dense_search_agrees_with_sparse_search() {
        let (mut f, pts) = dense_fragment();
        // Probe with every stored point plus strays.
        let mut probes: Vec<[u32; 3]> = pts.clone();
        probes.extend((0..100u32).map(|i| [i * 13331 + 7, i * 17, i * 991]));
        let dense_ends: Vec<String> = probes
            .iter()
            .map(|c| format!("{:?}", f.search(ZKey::<3>::encode(&Point::new(*c)), &mut NullSink)))
            .collect();
        f.chunk_dir = ChunkDir::default(); // force sparse walk
        let sparse_ends: Vec<String> = probes
            .iter()
            .map(|c| format!("{:?}", f.search(ZKey::<3>::encode(&Point::new(*c)), &mut NullSink)))
            .collect();
        assert_eq!(dense_ends, sparse_ends);
    }

    #[test]
    fn dense_search_is_cheaper() {
        let (mut f, pts) = dense_fragment();
        let count_cycles = |f: &Fragment<3>, pts: &[[u32; 3]]| {
            let mut ctx = pim_sim::PimCtx::new();
            for c in pts {
                let _ = f.search(ZKey::<3>::encode(&Point::new(*c)), &mut ctx);
            }
            ctx.cycles
        };
        let dense = count_cycles(&f, &pts);
        f.chunk_dir = ChunkDir::default();
        let sparse = count_cycles(&f, &pts);
        assert!(dense < sparse, "jump table must save work: {dense} !< {sparse}");
    }

    #[test]
    fn dir_rebuilds_after_mutations() {
        let (mut f, _) = dense_fragment();
        let before = f.chunk_dir.slots.clone();
        f.merge(&keyed(&[[1_999_999, 3, 4], [1_888_888, 5, 6]]), &mut NullSink);
        assert_eq!(f.chunk_dir.bits, 4, "still dense after merge");
        // The new points must be findable through the (rebuilt) table.
        for c in [[1_999_999u32, 3, 4], [1_888_888, 5, 6]] {
            match f.search(ZKey::<3>::encode(&Point::new(c)), &mut NullSink) {
                SearchEnd::Leaf(idx) => {
                    let BKind::Leaf { points } = &f.node(idx).kind else { panic!() };
                    assert!(points.iter().any(|(_, p)| p.coords == c));
                }
                other => panic!("{c:?} → {other:?}"),
            }
        }
        let _ = before;
    }
}
