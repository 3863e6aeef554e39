//! PIM-module state and round handlers.
//!
//! Each PIM module owns two keyed stores: `masters` (the meta-node fragments
//! it is responsible for) and `caches` (structure-only copies of other
//! modules' L1 fragments, §3.1 "partially-shared"). The handlers here are
//! the module-side halves of every batched operation; the host halves live
//! in `search`/`insert`/`traverse`. kNN and box tasks share one handler,
//! `chase`: what tells them apart is the `Probe` each task type
//! implements (in `knn`/`boxq`).
//!
//! Both stores hold their fragments behind `Arc`s, so cloning a
//! [`ModuleState`] (what [`PimZdTree::snapshot`](crate::PimZdTree::snapshot)
//! does for every module) shares every fragment with the original. Read
//! handlers only ever borrow a fragment; the handlers that change one go
//! through `Arc::make_mut`, which copies it first if — and only if — a
//! snapshot still holds it. A write batch after a snapshot therefore
//! path-copies exactly the fragments it touches.
//!
//! A handler may chase a traversal through any fragment *present on this
//! module* — its own masters and its caches — without communication; only
//! an edge whose target is absent locally surfaces as a `Forward`, costing
//! the next BSP round. That locality rule is exactly what the paper's L1
//! caching buys.

use crate::costs;
use crate::frag::{
    AnchorLoc, BNode, CostSink, Cursor, Edge, EditOutcome, Fragment, Keyed, Lowered, MetaId,
    RefEdit, RemoteRef, RootAfterRemove, SearchEnd, BNODE_BYTES, REMOTE_REF_BYTES,
};
use crate::inline::InlineVec;
use crate::traverse::Probe;
use pim_geom::{Aabb, Metric, Point};
use pim_sim::{PimCtx, Wire};
use pim_zorder::prefix::Prefix;
use pim_zorder::ZKey;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// A module's keyed fragment store; see the module docs for why the
/// fragments are shared.
pub type FragMap<const D: usize> = FxHashMap<MetaId, Arc<Fragment<D>>>;

/// Per-module storage.
#[derive(Clone, Default)]
pub struct ModuleState<const D: usize> {
    /// Master fragments owned by this module.
    pub masters: FragMap<D>,
    /// Structure-only cached copies of L1 fragments (ancestors/descendants
    /// of this module's masters).
    pub caches: FragMap<D>,
}

impl<const D: usize> ModuleState<D> {
    /// Local-memory bytes resident on this module (for Theorem 5.1 / Table 2
    /// space accounting).
    pub fn resident_bytes(&self) -> u64 {
        let m: u64 = self.masters.values().map(|f| f.bytes()).sum();
        let c: u64 = self.caches.values().map(|f| f.structure_bytes()).sum();
        m + c
    }

    /// Locates a fragment present on this module (master first, then cache).
    fn lookup(&self, meta: MetaId) -> Option<(&Fragment<D>, bool)> {
        if let Some(f) = self.masters.get(&meta) {
            Some((&**f, true))
        } else {
            self.caches.get(&meta).map(|f| (&**f, false))
        }
    }
}

// ---------------------------------------------------------------------
// Message types (all Wire so rounds charge channel bytes)
// ---------------------------------------------------------------------

/// One search query routed to a module.
#[derive(Clone, Copy, Debug)]
pub struct SearchTask<const D: usize> {
    /// Query index within the batch.
    pub qid: u32,
    /// Morton key being searched.
    pub key: ZKey<D>,
    /// Fragment to start in.
    pub meta: MetaId,
    /// Set by kNN, with the query point: also find the anchor of Alg. 3 on
    /// the key's path and, when the search ends on the module that holds it,
    /// run the best-k step from it in the same round.
    pub best_k: Option<(BestK, Point<D>)>,
}

impl<const D: usize> SearchTask<D> {
    /// The counter the kNN anchor must reach (0 = no anchor wanted).
    pub fn want_anchor(&self) -> u64 {
        self.best_k.map_or(0, |(b, _)| b.want_anchor())
    }
}

impl<const D: usize> Wire for SearchTask<D> {
    fn wire_bytes(&self) -> u64 {
        20 + self.best_k.map_or(0, |_| 5 + Point::<D>::wire_bytes())
    }
}

/// What the best-k step of Alg. 3 needs besides its query point and where
/// to start.
#[derive(Clone, Copy, Debug)]
pub struct BestK {
    /// Number of neighbors.
    pub k: u32,
    /// Metric evaluated on the PIM side.
    pub metric: Metric,
}

impl BestK {
    /// The anchor is the lowest path node with a counter of at least 2k,
    /// which by Lemma 3.1 holds at least k points.
    pub fn want_anchor(&self) -> u64 {
        2 * u64::from(self.k)
    }

    /// The best-k task of query `qid` at `q` entering fragment `meta` at
    /// `node`.
    pub fn task<const D: usize>(
        &self,
        qid: u32,
        q: Point<D>,
        meta: MetaId,
        node: u32,
    ) -> KnnTask<D> {
        KnnTask {
            qid,
            meta,
            node,
            q,
            k: self.k,
            bound: u64::MAX,
            cube: u64::MAX,
            metric: self.metric,
            ball: false,
        }
    }
}

/// Where a search's kNN anchor sits.
#[derive(Clone, Copy, Debug)]
pub struct AnchorInfo<const D: usize> {
    /// Fragment holding the anchor subtree's root (0 = the host's L0).
    pub meta: MetaId,
    /// Node within the fragment (`u32::MAX` = the fragment root).
    pub node: u32,
    /// Anchor prefix (its subtree box).
    pub prefix: Prefix<D>,
    /// Counter snapshot.
    pub sc: u64,
}

impl<const D: usize> AnchorInfo<D> {
    /// The anchor `frag` found at `loc` on a query's path.
    pub fn at(frag: &Fragment<D>, prefix: Prefix<D>, loc: AnchorLoc<D>) -> Self {
        match loc {
            AnchorLoc::Local(node) => {
                AnchorInfo { meta: frag.meta, node, prefix, sc: frag.node(node).count }
            }
            AnchorLoc::Remote(r) => AnchorInfo { meta: r.meta, node: u32::MAX, prefix, sc: r.sc },
        }
    }
}

/// What is known of a query's kNN anchor: a search's running answer on the
/// host, and what a module's reply adds to it.
#[derive(Clone, Debug, Default)]
pub enum Anchor<const D: usize> {
    /// None wanted, or none on the path so far.
    #[default]
    None,
    /// The deepest one seen so far.
    At(AnchorInfo<D>),
    /// The search ended on the module whose master holds the anchor as a
    /// local node, so the best-k step already ran from it: its reply (boxed:
    /// a search reply stays the size it is for `contains`, insert and
    /// delete, which never see one).
    Explored(Box<KnnReply<D>>),
}

/// Module-side search outcome for one query.
#[derive(Clone, Copy, Debug)]
pub enum SearchVerdict<const D: usize> {
    /// Reached the key's leaf in master fragment `meta`.
    Done {
        /// Owning fragment.
        meta: MetaId,
        /// Leaf node index.
        leaf: u32,
        /// Whether the exact key was present in the leaf.
        found: bool,
    },
    /// The key's insertion point is a compressed-edge split in master
    /// fragment `meta`.
    Diverge {
        /// Owning fragment.
        meta: MetaId,
    },
    /// Continue at another module.
    Forward {
        /// Next hop.
        to: RemoteRef<D>,
    },
}

/// Search reply: verdict plus what the module learnt of the kNN anchor.
#[derive(Clone, Debug)]
pub struct SearchReply<const D: usize> {
    /// Query index.
    pub qid: u32,
    /// Outcome.
    pub verdict: SearchVerdict<D>,
    /// Deepest path node with counter ≥ the task's `want_anchor` seen
    /// locally — or, where the search ended beside it, what best-k found
    /// below it.
    pub anchor: Anchor<D>,
}

impl<const D: usize> Wire for SearchReply<D> {
    fn wire_bytes(&self) -> u64 {
        16 + match &self.anchor {
            Anchor::None => 0,
            Anchor::At(_) => 28,
            Anchor::Explored(best) => best.wire_bytes(),
        }
    }
}

/// Batched inserts targeted at one fragment.
#[derive(Clone, Debug)]
pub struct InsertTask<const D: usize> {
    /// Target master fragment.
    pub meta: MetaId,
    /// Sorted (key, point) pairs.
    pub items: Vec<Keyed<D>>,
    /// The fragment has structure copies on other modules: a change of its
    /// shape comes back with the reply (one byte).
    pub copies: bool,
}

impl<const D: usize> Wire for InsertTask<D> {
    fn wire_bytes(&self) -> u64 {
        13 + self.items.len() as u64 * (8 + Point::<D>::wire_bytes())
    }
}

/// What an update's apply reply brings back for the structure copies of a
/// fragment its task said has some.
#[derive(Clone, Debug, Default)]
pub enum CopyUpdate<const D: usize> {
    /// Nothing a copy must show changed: the copies may undercount, never
    /// overcount, and an insert that adds no node only raises counts.
    #[default]
    None,
    /// The fragment's shape changed: its structure copy, read and charged
    /// as a `PullStructure` reads one.
    Copy(Fragment<D>),
    /// A delete lowered counts (and narrowed leaf prefixes) and freed no
    /// node: what it lowered, for each copy to apply.
    Patch(Vec<Lowered<D>>),
}

impl<const D: usize> Wire for CopyUpdate<D> {
    fn wire_bytes(&self) -> u64 {
        match self {
            CopyUpdate::None => 0,
            CopyUpdate::Copy(f) => f.bytes(),
            CopyUpdate::Patch(p) => p.iter().map(Wire::wire_bytes).sum(),
        }
    }
}

/// Insert outcome for one fragment.
#[derive(Clone, Debug)]
pub struct InsertReply<const D: usize> {
    /// Fragment.
    pub meta: MetaId,
    /// Points added.
    pub added: u64,
    /// New binary nodes created (structural-change signal for caching).
    pub new_nodes: u64,
    /// Fragment root count after the merge (exact local view).
    pub root_count: u64,
    /// Live binary nodes in the fragment (re-chunk trigger).
    pub live_nodes: u64,
    /// For the fragment's structure copies.
    pub copies: CopyUpdate<D>,
}

impl<const D: usize> Wire for InsertReply<D> {
    fn wire_bytes(&self) -> u64 {
        32 + self.copies.wire_bytes()
    }
}

/// Batched deletes targeted at one fragment.
#[derive(Clone, Debug)]
pub struct DeleteTask<const D: usize> {
    /// Target master fragment.
    pub meta: MetaId,
    /// Sorted (key, point) pairs to remove.
    pub items: Vec<Keyed<D>>,
    /// The fragment has structure copies on other modules: what they must
    /// hear of the delete comes back with the reply (one byte).
    pub copies: bool,
}

impl<const D: usize> Wire for DeleteTask<D> {
    fn wire_bytes(&self) -> u64 {
        13 + self.items.len() as u64 * (8 + Point::<D>::wire_bytes())
    }
}

/// Delete outcome for one fragment.
#[derive(Clone, Debug)]
pub struct DeleteReply<const D: usize> {
    /// Fragment.
    pub meta: MetaId,
    /// Instances removed.
    pub removed: u64,
    /// What happened to the fragment root.
    pub outcome: DeleteOutcome<D>,
    /// Root count and prefix after the delete (when kept).
    pub root_count: u64,
    /// Root prefix after the delete (when kept).
    pub root_prefix: Prefix<D>,
    /// For the fragment's structure copies (when kept).
    pub copies: CopyUpdate<D>,
}

/// Root status after a fragment delete.
#[derive(Clone, Copy, Debug)]
pub enum DeleteOutcome<const D: usize> {
    /// Fragment persists.
    Kept,
    /// Fragment emptied (host must splice the parent).
    Empty,
    /// Fragment collapsed to a remote ref (host repoints the parent).
    Collapsed(RemoteRef<D>),
}

impl<const D: usize> Wire for DeleteReply<D> {
    fn wire_bytes(&self) -> u64 {
        40 + self.copies.wire_bytes()
    }
}

/// Entries a kNN/box reply's `frontier` and `covered` lists hold in place
/// (see [`InlineVec`]).
pub const REPLY_INLINE: usize = 2;

/// kNN subtree exploration task.
#[derive(Clone, Copy, Debug)]
pub struct KnnTask<const D: usize> {
    /// Query index; a ball task's is the index of the run of queries it
    /// collects for.
    pub qid: u32,
    /// Fragment to explore.
    pub meta: MetaId,
    /// Start node (`u32::MAX` = fragment root).
    pub node: u32,
    /// Query point (a ball task's: the centre of its run's covering ball).
    pub q: Point<D>,
    /// Number of neighbors.
    pub k: u32,
    /// Current global pruning bound (comparable distance).
    pub bound: u64,
    /// A ball task under §6 two-stage filtering also holds every point to
    /// ℓ∞ ≤ `cube` of `q`: the run's fine radius r₂, which every true
    /// neighbour is within on every axis. `u64::MAX` = no such bound.
    pub cube: u64,
    /// Metric evaluated on the PIM side (the coarse metric under §6
    /// two-stage filtering, the target metric otherwise).
    pub metric: Metric,
    /// `false`: best-k exploration (Alg. 3 step 2). `true`: collect *every*
    /// point within `bound` (the step-4 sphere collection).
    pub ball: bool,
}

impl<const D: usize> Wire for KnnTask<D> {
    fn wire_bytes(&self) -> u64 {
        33 + Point::<D>::wire_bytes() + if self.cube == u64::MAX { 0 } else { 8 }
    }
}

/// kNN exploration reply.
#[derive(Clone, Debug)]
pub struct KnnReply<const D: usize> {
    /// Query index.
    pub qid: u32,
    /// Best-k: up to k best local candidates (comparable distance, point),
    /// which the host merges on.
    pub cands: Vec<(u64, Point<D>)>,
    /// Ball: every local point inside the ball. No distances — the fine
    /// filter evaluates the target metric from the coordinates.
    pub points: Vec<Point<D>>,
    /// Remote subtrees still worth exploring, with box lower bounds.
    pub frontier: InlineVec<(RemoteRef<D>, u64), REPLY_INLINE>,
    /// Master fragments whose payloads were fully covered locally (the host
    /// must not re-dispatch refs to them — they may have been reached by
    /// chasing a co-located ref).
    pub covered: InlineVec<MetaId, REPLY_INLINE>,
}

impl<const D: usize> Wire for KnnReply<D> {
    fn wire_bytes(&self) -> u64 {
        8 + self.cands.len() as u64 * (8 + Point::<D>::wire_bytes())
            + self.points.len() as u64 * Point::<D>::wire_bytes()
            + self.frontier.len() as u64 * (REMOTE_REF_BYTES + 8)
            + self.covered.len() as u64 * 8
    }
}

/// Box-query exploration task.
#[derive(Clone, Copy, Debug)]
pub struct BoxTask<const D: usize> {
    /// Query index.
    pub qid: u32,
    /// Fragment to explore.
    pub meta: MetaId,
    /// Start node (`u32::MAX` = fragment root).
    pub node: u32,
    /// The query box.
    pub query: Aabb<D>,
    /// Whether to return the points (BoxFetch) or only counts (BoxCount).
    pub fetch: bool,
}

impl<const D: usize> Wire for BoxTask<D> {
    fn wire_bytes(&self) -> u64 {
        17 + Aabb::<D>::wire_bytes()
    }
}

/// Box-query exploration reply.
#[derive(Clone, Debug)]
pub struct BoxReply<const D: usize> {
    /// Query index.
    pub qid: u32,
    /// Exact count of local points inside the box.
    pub count: u64,
    /// The points themselves (BoxFetch only).
    pub points: Vec<Point<D>>,
    /// Remote subtrees intersecting the box.
    pub frontier: InlineVec<RemoteRef<D>, REPLY_INLINE>,
    /// Master fragments fully handled locally (host must not re-dispatch).
    pub covered: InlineVec<MetaId, REPLY_INLINE>,
}

impl<const D: usize> Wire for BoxReply<D> {
    fn wire_bytes(&self) -> u64 {
        16 + self.points.len() as u64 * Point::<D>::wire_bytes()
            + self.frontier.len() as u64 * REMOTE_REF_BYTES
            + self.covered.len() as u64 * 8
    }
}

/// Management operations (structure distribution and maintenance).
#[derive(Clone, Debug)]
pub enum MgmtTask<const D: usize> {
    /// Install a master fragment on this module.
    InstallMaster(Fragment<D>),
    /// Install a structure-only cache copy.
    InstallCache(Fragment<D>),
    /// Drop a cache copy.
    DropCache(MetaId),
    /// Apply to a cache copy what a delete lowered at its master.
    PatchCache {
        /// The copy's meta id.
        meta: MetaId,
        /// The lowered nodes.
        patch: Vec<Lowered<D>>,
    },
    /// Drop a master fragment.
    DropMaster(MetaId),
    /// Pull: send the full master fragment to the host.
    Pull(MetaId),
    /// Pull only the structure (leaves stubbed) — what a cache refresh
    /// ships.
    PullStructure(MetaId),
    /// Update the counter snapshot (and optionally prefix) of the remote
    /// child `child` inside fragment `parent` (master or cache).
    SyncChild {
        /// Parent fragment id.
        parent: MetaId,
        /// Child meta id whose snapshot changes.
        child: MetaId,
        /// New counter snapshot.
        sc: u64,
        /// New prefix if the child root restructured.
        prefix: Option<Prefix<D>>,
        /// How many individual update messages this batches. 1 under lazy
        /// counters; the per-op count when the Table 3 ablation syncs every
        /// change eagerly (each is charged on the wire and the core).
        repeat: u32,
    },
    /// Replace (or splice out) the remote child `child` of `parent`.
    ReplaceChild {
        /// Parent fragment id.
        parent: MetaId,
        /// Child to replace.
        child: MetaId,
        /// Replacement ref (`None` splices).
        replacement: Option<RemoteRef<D>>,
    },
    /// Split the fragment's root, registering its local children as new
    /// fragments with the provided (meta, module) ids. When `keep_root` the
    /// old fragment is left holding just the root node; otherwise the root
    /// is detached and returned (promotion into L0).
    SplitRoot {
        /// Fragment to split.
        meta: MetaId,
        /// Ids/placements for extracted children, left to right.
        new_ids: Vec<(MetaId, u32)>,
        /// Keep the root node as a (now tiny) fragment?
        keep_root: bool,
    },
}

impl<const D: usize> Wire for MgmtTask<D> {
    fn wire_bytes(&self) -> u64 {
        match self {
            // Installing ships the fragment's bytes over the channel.
            MgmtTask::InstallMaster(f) => 8 + f.bytes(),
            MgmtTask::InstallCache(f) => 8 + f.structure_bytes(),
            MgmtTask::PatchCache { patch, .. } => {
                9 + patch.iter().map(Wire::wire_bytes).sum::<u64>()
            }
            MgmtTask::DropCache(_)
            | MgmtTask::DropMaster(_)
            | MgmtTask::Pull(_)
            | MgmtTask::PullStructure(_) => 9,
            MgmtTask::SyncChild { prefix, repeat, .. } => {
                (24 + if prefix.is_some() { 12 } else { 0 }) * (*repeat as u64).max(1)
            }
            MgmtTask::ReplaceChild { replacement, .. } => {
                16 + replacement.map_or(1, |_| REMOTE_REF_BYTES)
            }
            MgmtTask::SplitRoot { new_ids, .. } => 9 + new_ids.len() as u64 * 12,
        }
    }
}

/// Replies to management operations.
#[derive(Clone, Debug)]
pub enum MgmtReply<const D: usize> {
    /// Nothing to report.
    Ack,
    /// The pulled fragment (full or structure-only).
    Pulled(Fragment<D>),
    /// Outcome of a `ReplaceChild` splice.
    ReplaceStatus {
        /// Parent fragment the splice ran in.
        parent: MetaId,
        /// Set when the parent fragment collapsed to a remote ref and must
        /// be dissolved by the host.
        collapsed: Option<RemoteRef<D>>,
        /// Set when the splice took the root node and left its local
        /// sibling as the root: the fragment's new, narrower root prefix,
        /// which the host must push to whoever holds the ref to it.
        narrowed: Option<Prefix<D>>,
    },
    /// Result of a root split.
    Split {
        /// The detached/retained root node (children rewritten remote).
        root: BNode<D>,
        /// Info about each extracted child fragment, left to right.
        children: Vec<SplitChildInfo<D>>,
        /// Extracted fragments that must move to *other* modules (fragments
        /// staying on this module were installed directly).
        moved: Vec<Fragment<D>>,
    },
}

/// Directory bookkeeping about one fragment created by a root split.
#[derive(Clone, Debug)]
pub struct SplitChildInfo<const D: usize> {
    /// Reference to the new fragment.
    pub r: RemoteRef<D>,
    /// Its live binary-node count.
    pub live_nodes: u64,
    /// Meta ids of the remote children now hanging under it (the host
    /// reassigns their directory parents).
    pub grandchildren: Vec<MetaId>,
}

impl<const D: usize> Wire for SplitChildInfo<D> {
    fn wire_bytes(&self) -> u64 {
        REMOTE_REF_BYTES + 8 + self.grandchildren.len() as u64 * 8
    }
}

impl<const D: usize> Wire for MgmtReply<D> {
    fn wire_bytes(&self) -> u64 {
        match self {
            MgmtReply::Ack => 1,
            MgmtReply::ReplaceStatus { collapsed, narrowed, .. } => {
                9 + collapsed.map_or(0, |_| REMOTE_REF_BYTES) + narrowed.map_or(0, |_| 12)
            }
            MgmtReply::Pulled(f) => f.bytes(),
            MgmtReply::Split { root, children, moved } => {
                root.bytes()
                    + children.iter().map(Wire::wire_bytes).sum::<u64>()
                    + moved.iter().map(Fragment::bytes).sum::<u64>()
            }
        }
    }
}

impl<const D: usize> Wire for Fragment<D> {
    fn wire_bytes(&self) -> u64 {
        self.bytes()
    }
}

// ---------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------

/// One fragment's share of a SEARCH (Alg. 1), the same on the host (L0, a
/// pulled fragment) and on a module: the kNN anchor on the key's path when
/// `want_anchor > 0` (it replaces `anchor`, being deeper than whatever an
/// earlier fragment found), then the routing, resumed from `cursor`
/// ([`Fragment::search_from`]). Returns where the routing ends and, where
/// that is a leaf, whether the leaf holds the key.
pub(crate) fn search_step<const D: usize>(
    frag: &Fragment<D>,
    key: ZKey<D>,
    want_anchor: u64,
    anchor: &mut Anchor<D>,
    cursor: &mut Cursor<D>,
    sink: &mut impl CostSink,
) -> (SearchEnd<D>, bool) {
    if want_anchor > 0 {
        let enough = |_: &Prefix<D>, count| count >= want_anchor;
        if let Some((prefix, loc)) =
            frag.lowest_on_path(key, costs::ANCHOR_STEP_MODULE, enough, sink)
        {
            *anchor = Anchor::At(AnchorInfo::at(frag, prefix, loc));
        }
    }
    let end = frag.search_from(cursor, key, sink);
    (end, matches!(end, SearchEnd::Leaf(leaf) if frag.leaf_contains(leaf, key)))
}

/// Tasklets a module runs a SEARCH row on. The host sends a module's row in
/// key order; each tasklet takes a contiguous slice of it and walks it with
/// one [`Cursor`] per hop depth, so a key's walk resumes where the previous
/// key's walk in the same fragment left off. No cursor crosses a slice.
pub(crate) const TASKLETS: usize = 16;

/// The module id is threaded in so handlers can chase refs that point back
/// at this module's own masters without a round trip. The row is walked in
/// `TASKLETS` slices; the order tasks are met in changes only the cycles.
///
/// A kNN search (`best_k` set) that ends here with its anchor a local node
/// of one of this module's masters goes straight on to the best-k step from
/// that node — the task `chase` would be sent for it next round, run by
/// the same code — and replies with what it found instead of where the
/// anchor is. Whether it can is a property of the data: the anchor lies on
/// the path the search just walked, so it is here unless it sits in L0, in
/// a fragment pulled to the host, in an ancestor fragment mastered
/// elsewhere, or behind a cached copy.
pub fn handle_search<const D: usize>(
    module_id: usize,
    state: &mut ModuleState<D>,
    ctx: &mut PimCtx,
    tasks: Vec<SearchTask<D>>,
) -> Vec<SearchReply<D>> {
    let mut replies = Vec::with_capacity(tasks.len());
    let mut scratch = ChaseScratch::<D, KnnTask<D>>::default();
    // The running tasklet's cursors, one per local hop depth.
    let mut cursors: Vec<Cursor<D>> = Vec::new();
    let slice = tasks.len().div_ceil(TASKLETS);
    for (i, t) in tasks.into_iter().enumerate() {
        if i % slice == 0 {
            cursors.clear();
        }
        let mut meta = t.meta;
        let mut anchor = Anchor::None;
        let mut depth = 0;
        let verdict = loop {
            let Some((frag, is_master)) = state.lookup(meta) else {
                // Shouldn't happen if host routing is correct; treat as a
                // forward to wherever the directory says (host resolves).
                break SearchVerdict::Forward {
                    to: RemoteRef { meta, module: module_id as u32, prefix: Prefix::root(), sc: 0 },
                };
            };
            if cursors.len() == depth {
                cursors.push(Cursor::default());
            }
            let cursor = &mut cursors[depth];
            match search_step(frag, t.key, t.want_anchor(), &mut anchor, cursor, ctx) {
                (SearchEnd::Leaf(leaf), found) => {
                    debug_assert!(is_master, "payload leaves exist only at masters");
                    // The scan of the leaf for the key.
                    ctx.op(frag.node(leaf).count);
                    break SearchVerdict::Done { meta, leaf, found };
                }
                (SearchEnd::Diverge { .. }, _) if is_master => {
                    break SearchVerdict::Diverge { meta }
                }
                // A cached copy holds neither payloads nor the right to
                // restructure: continue at the fragment's master.
                (SearchEnd::Stub(_) | SearchEnd::Diverge { .. }, _) => {
                    break SearchVerdict::Forward { to: frag.self_ref() }
                }
                (SearchEnd::Remote(r), _) => {
                    if state.lookup(r.meta).is_some() {
                        meta = r.meta; // free local hop (cache or co-located master)
                        depth += 1;
                        ctx.op(costs::LOCAL_HOP);
                        continue;
                    }
                    break SearchVerdict::Forward { to: r };
                }
            }
        };
        if let (Anchor::At(a), Some((best_k, q))) = (&anchor, t.best_k) {
            // A forwarded search may still find a deeper anchor; a remote
            // anchor (`u32::MAX`) is some other fragment's root.
            let over = !matches!(verdict, SearchVerdict::Forward { .. });
            if over && a.node != u32::MAX && state.masters.contains_key(&a.meta) {
                // The query's only task this round: nothing covered before
                // it, nothing to meet while chasing.
                let task = best_k.task(t.qid, q, a.meta, a.node);
                let best = chase_task(state, ctx, &task, true, &[], &mut scratch);
                anchor = Anchor::Explored(Box::new(best));
            }
        }
        replies.push(SearchReply { qid: t.qid, verdict, anchor });
    }
    replies
}

/// A structure copy of `frag` for its copies elsewhere, read and charged as
/// `PullStructure` reads one.
fn copy_out<const D: usize>(frag: &Fragment<D>, ctx: &mut PimCtx) -> CopyUpdate<D> {
    ctx.mem(frag.structure_bytes());
    CopyUpdate::Copy(frag.structure_clone())
}

/// Applies insert merges to master fragments. A fragment with copies whose
/// merge added nodes sends its structure back.
pub fn handle_insert<const D: usize>(
    state: &mut ModuleState<D>,
    ctx: &mut PimCtx,
    tasks: Vec<InsertTask<D>>,
) -> Vec<InsertReply<D>> {
    let mut replies = Vec::with_capacity(tasks.len());
    for t in tasks {
        let frag = Arc::make_mut(
            state.masters.get_mut(&t.meta).expect("insert targets a master fragment"),
        );
        let added = t.items.len() as u64;
        let new_nodes = frag.merge(&t.items, ctx) as u64;
        let copies = if t.copies && new_nodes > 0 { copy_out(frag, ctx) } else { CopyUpdate::None };
        replies.push(InsertReply {
            meta: t.meta,
            added,
            new_nodes,
            root_count: frag.root_node().count,
            live_nodes: frag.live_nodes() as u64,
            copies,
        });
    }
    replies
}

/// Applies delete removals to master fragments. A kept fragment with copies
/// sends its structure back if the delete freed a node, else what it
/// lowered.
pub fn handle_delete<const D: usize>(
    state: &mut ModuleState<D>,
    ctx: &mut PimCtx,
    tasks: Vec<DeleteTask<D>>,
) -> Vec<DeleteReply<D>> {
    let mut replies = Vec::with_capacity(tasks.len());
    for t in tasks {
        let frag = Arc::make_mut(
            state.masters.get_mut(&t.meta).expect("delete targets a master fragment"),
        );
        let (live, mut removed, mut lowered) = (frag.live_nodes(), 0usize, Vec::new());
        let outcome = match frag.remove(&t.items, &mut removed, &mut lowered, ctx) {
            RootAfterRemove::Kept => DeleteOutcome::Kept,
            RootAfterRemove::Empty => DeleteOutcome::Empty,
            RootAfterRemove::CollapsedToRemote(r) => DeleteOutcome::Collapsed(r),
        };
        let (root_count, root_prefix, copies) = match outcome {
            DeleteOutcome::Kept => {
                let copies = if !t.copies {
                    CopyUpdate::None
                } else if frag.live_nodes() < live {
                    copy_out(frag, ctx)
                } else if lowered.is_empty() {
                    CopyUpdate::None
                } else {
                    CopyUpdate::Patch(lowered)
                };
                (frag.root_node().count, frag.root_node().prefix, copies)
            }
            DeleteOutcome::Empty | DeleteOutcome::Collapsed(_) => {
                state.masters.remove(&t.meta);
                (0, Prefix::root(), CopyUpdate::None)
            }
        };
        replies.push(DeleteReply {
            meta: t.meta,
            removed: removed as u64,
            outcome,
            root_count,
            root_prefix,
            copies,
        });
    }
    replies
}

/// The module-side half of a traversal: explores the task's fragment with
/// the probe's step and chases the refs it surfaces through every fragment
/// present on this module, so only truly remote subtrees cost another round.
///
/// A query can have two tasks here in one round whose traversals meet: a
/// cached copy of fragment `a` surfaces both `a`'s master (for its payload)
/// and `a`'s remote child `b`, and when both masters live on this module the
/// task for `a` chases into `b` while the task for `b` starts there. So that
/// `b`'s points are reported once, the call remembers which masters the
/// tasks of the current query covered — the host lists a module's tasks
/// query by query. Only the robust layer's re-homing after a module death
/// can merge rows out of query order; such a call chases nothing, so each
/// master is entered only by the task that names it, which the host sends
/// once.
pub(crate) fn chase<const D: usize, K: Probe<D>>(
    state: &mut ModuleState<D>,
    ctx: &mut PimCtx,
    tasks: Vec<K>,
) -> Vec<K::Reply> {
    let mut replies = Vec::with_capacity(tasks.len());
    let mut scratch = ChaseScratch::<D, K>::default();
    let may_chase = tasks.windows(2).all(|w| w[0].qid() <= w[1].qid());
    // The current query and the masters its earlier tasks covered.
    let mut qid = u32::MAX;
    let mut covered: Vec<MetaId> = Vec::new();
    for t in tasks {
        if t.qid() != qid {
            qid = t.qid();
            covered.clear();
        }
        replies.push(chase_task(state, ctx, &t, may_chase, &covered, &mut scratch));
        covered.extend_from_slice(&scratch.visited);
    }
    replies
}

/// The lists one [`chase_task`] works in. They belong to the handler call,
/// not the task: each grows to its high-water mark once per round instead of
/// from empty per task, and a reply is cut from them with one exact-size
/// allocation for its payload and none for the (short) `frontier`/`covered`.
struct ChaseScratch<const D: usize, K: Probe<D>> {
    found: K::Found,
    frontier: Vec<Edge<D>>,
    work: Vec<(MetaId, u32, u64)>,
    /// After a task: the masters it covered.
    visited: Vec<MetaId>,
    local_frontier: Vec<Edge<D>>,
}

impl<const D: usize, K: Probe<D>> Default for ChaseScratch<D, K> {
    fn default() -> Self {
        ChaseScratch {
            found: K::Found::default(),
            frontier: Vec::new(),
            work: Vec::new(),
            visited: Vec::new(),
            local_frontier: Vec::new(),
        }
    }
}

/// One task of [`chase`]: `covered` lists the masters this query's earlier
/// tasks of the round already reported, and with `may_chase` unset the task
/// stays inside the fragment it names.
fn chase_task<const D: usize, K: Probe<D>>(
    state: &ModuleState<D>,
    ctx: &mut PimCtx,
    t: &K,
    may_chase: bool,
    covered: &[MetaId],
    scratch: &mut ChaseScratch<D, K>,
) -> K::Reply {
    let ChaseScratch { found, frontier, work, visited, local_frontier } = scratch;
    frontier.clear();
    visited.clear();
    let (meta, node) = t.target();
    work.push((meta, node, 0));
    while let Some((meta, node, lb)) = work.pop() {
        if lb > t.bound(found) || visited.contains(&meta) || covered.contains(&meta) {
            continue;
        }
        visited.push(meta);
        let Some((frag, _)) = state.lookup(meta) else {
            continue;
        };
        let start = if node == u32::MAX { frag.root } else { node };
        local_frontier.clear();
        t.step(frag, start, found, local_frontier, ctx);
        for &(r, d) in local_frontier.iter() {
            // Chase locally-present fragments, except a cached
            // fragment's stub refs (r.meta == meta), whose payloads live
            // only at the master.
            if may_chase
                && r.meta != meta
                && !visited.contains(&r.meta)
                && state.lookup(r.meta).is_some()
            {
                work.push((r.meta, u32::MAX, d));
            } else {
                frontier.push((r, d));
            }
        }
    }
    // Trim frontier entries the final bound already excludes.
    let bound = t.bound(found);
    frontier.retain(|(_, d)| *d <= bound);
    frontier.sort_unstable_by_key(|(r, d)| (*d, r.meta));
    frontier.dedup_by_key(|(r, _)| r.meta);
    visited.retain(|m| state.masters.contains_key(m));
    t.reply(found, frontier, visited)
}

/// Charges `n` node edits of `cycles` each, each touching one node record.
fn edit_nodes(ctx: &mut PimCtx, cycles: u64, n: u64) {
    ctx.op(cycles * n);
    ctx.mem(BNODE_BYTES * n);
}

/// Management handler.
pub fn handle_mgmt<const D: usize>(
    module_id: usize,
    state: &mut ModuleState<D>,
    ctx: &mut PimCtx,
    tasks: Vec<MgmtTask<D>>,
) -> Vec<MgmtReply<D>> {
    let mut replies = Vec::with_capacity(tasks.len());
    for t in tasks {
        let reply = match t {
            MgmtTask::InstallMaster(f) => {
                ctx.mem(f.bytes());
                state.masters.insert(f.meta, Arc::new(f));
                MgmtReply::Ack
            }
            MgmtTask::InstallCache(f) => {
                ctx.mem(f.structure_bytes());
                state.caches.insert(f.meta, Arc::new(f));
                MgmtReply::Ack
            }
            MgmtTask::DropCache(m) => {
                state.caches.remove(&m);
                MgmtReply::Ack
            }
            MgmtTask::PatchCache { meta, patch } => {
                edit_nodes(ctx, costs::PATCH_NODE, patch.len() as u64);
                if let Some(f) = state.caches.get_mut(&meta) {
                    Arc::make_mut(f).lower(&patch);
                }
                MgmtReply::Ack
            }
            MgmtTask::DropMaster(m) => {
                state.masters.remove(&m);
                MgmtReply::Ack
            }
            MgmtTask::Pull(m) => {
                let f = state.masters.get(&m).expect("pull targets a master");
                ctx.mem(f.bytes());
                MgmtReply::Pulled(Fragment::clone(f))
            }
            MgmtTask::PullStructure(m) => {
                let f = state.masters.get(&m).expect("pull targets a master");
                ctx.mem(f.structure_bytes());
                MgmtReply::Pulled(f.structure_clone())
            }
            MgmtTask::SyncChild { parent, child, sc, prefix, repeat } => {
                edit_nodes(ctx, costs::SYNC_CHILD, repeat.max(1) as u64);
                for store in [&mut state.masters, &mut state.caches] {
                    if let Some(f) = store.get_mut(&parent) {
                        Arc::make_mut(f).edit_ref(child, RefEdit::Sync { sc, prefix });
                    }
                }
                MgmtReply::Ack
            }
            MgmtTask::ReplaceChild { parent, child, replacement } => {
                edit_nodes(ctx, costs::REPLACE_CHILD, 1);
                let (mut collapsed, mut narrowed) = (None, None);
                if let Some(f) = state.masters.get_mut(&parent) {
                    let f = Arc::make_mut(f);
                    let before = f.root_node().prefix;
                    match f.edit_ref(child, RefEdit::Replace(replacement)) {
                        EditOutcome::RootCollapsed(r) => collapsed = Some(r),
                        _ => narrowed = Some(f.root_node().prefix).filter(|p| *p != before),
                    }
                }
                if let Some(f) = state.caches.get_mut(&parent) {
                    Arc::make_mut(f).edit_ref(child, RefEdit::Replace(replacement));
                }
                if collapsed.is_some() {
                    state.masters.remove(&parent);
                }
                MgmtReply::ReplaceStatus { parent, collapsed, narrowed }
            }
            MgmtTask::SplitRoot { meta, new_ids, keep_root } => {
                let mut f = Arc::unwrap_or_clone(
                    state.masters.remove(&meta).expect("split targets a master"),
                );
                ctx.mem(f.bytes());
                let (root, frags) = f.split_root(new_ids.into_iter());
                let children: Vec<SplitChildInfo<D>> = frags
                    .iter()
                    .map(|fr| SplitChildInfo {
                        r: fr.self_ref(),
                        live_nodes: fr.live_nodes() as u64,
                        grandchildren: fr.remote_children().iter().map(|r| r.meta).collect(),
                    })
                    .collect();
                let mut moved = Vec::new();
                for fr in frags {
                    if fr.master_module as usize == module_id {
                        state.masters.insert(fr.meta, Arc::new(fr));
                    } else {
                        moved.push(fr);
                    }
                }
                if keep_root {
                    let root_frag =
                        Fragment::singleton(meta, module_id as u32, root.clone(), f.leaf_cap);
                    state.masters.insert(meta, Arc::new(root_frag));
                }
                MgmtReply::Split { root, children, moved }
            }
        };
        replies.push(reply);
    }
    replies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frag::{set_prefix, BKind, NullSink};

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

    fn frag_of(meta: MetaId, module: u32, pts: &[[u32; 3]]) -> Fragment<3> {
        let items = keyed(pts);
        let mut f = Fragment::singleton(
            meta,
            module,
            BNode {
                prefix: set_prefix(&items[..1]),
                count: 1,
                kind: BKind::Leaf { points: items[..1].to_vec().into() },
            },
            4,
        );
        f.merge(&items[1..], &mut NullSink);
        f
    }

    #[test]
    fn search_handler_finds_local_leaf() {
        let mut st = ModuleState::<3>::default();
        st.masters.insert(9, Arc::new(frag_of(9, 0, &[[1, 2, 3], [4, 5, 6], [1000, 1000, 1000]])));
        let key = ZKey::<3>::encode(&Point::new([4, 5, 6]));
        let mut ctx = PimCtx::new();
        let r = handle_search(
            0,
            &mut st,
            &mut ctx,
            vec![SearchTask { qid: 7, key, meta: 9, best_k: None }],
        );
        assert_eq!(r.len(), 1);
        match r[0].verdict {
            SearchVerdict::Done { meta, found, .. } => {
                assert_eq!(meta, 9);
                assert!(found);
            }
            other => panic!("{other:?}"),
        }
        assert!(ctx.cycles > 0, "search must charge PIM cycles");
    }

    /// Five points whose 2-point anchor for a query at the origin is a local
    /// node of the one fragment.
    fn anchored() -> Fragment<3> {
        frag_of(9, 0, &[[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3], [1 << 20, 0, 0]])
    }

    fn knn_search(st: &mut ModuleState<3>, ctx: &mut PimCtx) -> SearchReply<3> {
        let q = Point::new([0, 0, 0]);
        let best_k = Some((BestK { k: 1, metric: Metric::L1 }, q));
        let task = SearchTask { qid: 0, key: ZKey::<3>::encode(&q), meta: 9, best_k };
        handle_search(0, st, ctx, vec![task]).remove(0)
    }

    #[test]
    fn search_handler_runs_best_k_beside_the_anchor() {
        let mut st = ModuleState::<3>::default();
        st.masters.insert(9, Arc::new(anchored()));
        let mut ctx = PimCtx::new();
        let reply = knn_search(&mut st, &mut ctx);
        let SearchVerdict::Done { meta: 9, leaf, found: true } = reply.verdict else {
            panic!("{:?}", reply.verdict)
        };
        let Anchor::Explored(best) = &reply.anchor else { panic!("{:?}", reply.anchor) };
        assert_eq!(best.cands, [(0, Point::new([0, 0, 0]))]);
        assert!(best.points.is_empty() && best.frontier.is_empty());
        assert_eq!(&best.covered[..], [9]);
        // The verdict plus a best-k reply, not the 28 B of an anchor.
        assert_eq!(reply.wire_bytes(), 16 + (8 + 20 + 8));

        // It is the reply the anchor's own task would have fetched a round
        // later, and costs that task on top of the search.
        let anchor = {
            let mut found = Anchor::None;
            let key = ZKey::<3>::encode(&Point::new([0, 0, 0]));
            search_step(&anchored(), key, 2, &mut found, &mut Cursor::default(), &mut NullSink);
            let Anchor::At(a) = found else { panic!("{found:?}") };
            a
        };
        assert!(anchor.sc >= 2 && anchor.node != u32::MAX);
        let task =
            BestK { k: 1, metric: Metric::L1 }.task(0, Point::new([0, 0, 0]), 9, anchor.node);
        let mut later = PimCtx::new();
        let unfused = chase(&mut st, &mut later, vec![task]).remove(0);
        assert_eq!(unfused.cands, best.cands);
        let mut search_only = PimCtx::new();
        let mut cached = ModuleState::<3>::default();
        cached.caches.insert(9, Arc::new(anchored().structure_clone()));
        knn_search(&mut cached, &mut search_only);
        // (The cached copy ends at a stub: no scan of the leaf for the key.)
        let leaf_scan = anchored().node(leaf).count;
        assert_eq!(ctx.cycles, search_only.cycles + leaf_scan + later.cycles);
    }

    #[test]
    fn search_handler_reports_an_anchor_it_cannot_explore() {
        // A cached copy holds the structure, not the points: the search goes
        // on to the master, and so does the anchor.
        let mut st = ModuleState::<3>::default();
        st.caches.insert(9, Arc::new(anchored().structure_clone()));
        let reply = knn_search(&mut st, &mut PimCtx::new());
        assert!(matches!(reply.verdict, SearchVerdict::Forward { .. }));
        let Anchor::At(a) = reply.anchor else { panic!("{:?}", reply.anchor) };
        assert!(a.sc >= 2);
        assert_eq!(reply.wire_bytes(), 16 + 28);
    }

    /// The bytes each message is charged are the protocol: 12 B per point, 8
    /// per distance or id, 24 per remote ref.
    #[test]
    fn wire_sizes_are_pinned() {
        let p = Point::new([1, 2, 3]);
        let task = |best_k| SearchTask { qid: 0, key: ZKey::<3>::encode(&p), meta: 9, best_k };
        assert_eq!(task(None).wire_bytes(), 20);
        assert_eq!(task(Some((BestK { k: 10, metric: Metric::L1 }, p))).wire_bytes(), 37);
        let verdict = SearchVerdict::<3>::Diverge { meta: 9 };
        assert_eq!(SearchReply { qid: 0, verdict, anchor: Anchor::None }.wire_bytes(), 16);

        let r = RemoteRef { meta: 2, module: 0, prefix: Prefix::<3>::root(), sc: 2 };
        let reply = |cands: usize, points: usize| KnnReply {
            qid: 0,
            cands: vec![(7, p); cands],
            points: vec![p; points],
            frontier: InlineVec::from_slice(&[(r, 5)]),
            covered: InlineVec::from_slice(&[1, 2]),
        };
        assert_eq!(reply(0, 0).wire_bytes(), 8 + 32 + 16);
        assert_eq!(reply(3, 0).wire_bytes(), 8 + 3 * 20 + 32 + 16, "best-k: distance and point");
        assert_eq!(reply(0, 3).wire_bytes(), 8 + 3 * 12 + 32 + 16, "ball: the point alone");

        let items = vec![(ZKey::<3>::encode(&p), p); 2];
        let insert = InsertTask { meta: 9, items: items.clone(), copies: true };
        assert_eq!(insert.wire_bytes(), 13 + 2 * 20, "a flag byte beside the points");
        assert_eq!(DeleteTask { meta: 9, items, copies: false }.wire_bytes(), 13 + 2 * 20);

        let best_k = BestK { k: 10, metric: Metric::L1 }.task(0, p, 9, u32::MAX);
        assert_eq!(best_k.wire_bytes(), 45);
        let ball = KnnTask { ball: true, bound: 17, ..best_k };
        assert_eq!(ball.wire_bytes(), 45, "no cube without the two-stage radius");
        assert_eq!(KnnTask { cube: 10, ..ball }.wire_bytes(), 53);
    }

    /// An apply reply carries, for a fragment with copies, its structure
    /// when the update changed its shape and what a delete lowered when it
    /// only thinned it — and nothing for a fragment without copies. The
    /// structure is read and sized as `PullStructure` reads one; a patch is
    /// 8 B per node and 12 more per narrowed prefix, once in the reply and
    /// once in each `PatchCache`.
    #[test]
    fn apply_replies_carry_what_the_copies_need() {
        // A root over a full leaf of four points and a leaf of two.
        let pts = [[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3], [1 << 20, 0, 0], [1 << 20, 1, 1]];
        let state = || {
            let mut st = ModuleState::<3>::default();
            st.masters.insert(9, Arc::new(frag_of(9, 0, &pts)));
            st
        };
        let insert = |items: &[[u32; 3]], copies| {
            let (mut st, mut ctx) = (state(), PimCtx::new());
            let task = InsertTask { meta: 9, items: keyed(items), copies };
            (handle_insert(&mut st, &mut ctx, vec![task]).remove(0), ctx.cycles)
        };
        let delete = |items: &[[u32; 3]], copies| {
            let mut st = state();
            let task = DeleteTask { meta: 9, items: keyed(items), copies };
            handle_delete(&mut st, &mut PimCtx::new(), vec![task]).remove(0)
        };

        // The full leaf splits.
        let (grew, cycles) = insert(&[[4, 4, 4]], true);
        let CopyUpdate::Copy(copy) = &grew.copies else { panic!("{:?}", grew.copies) };
        assert!(grew.new_nodes > 0);
        assert_eq!(grew.wire_bytes(), 32 + copy.live_nodes() as u64 * BNODE_BYTES);
        let (without, plain_cycles) = insert(&[[4, 4, 4]], false);
        assert!(matches!(without.copies, CopyUpdate::None));
        assert!(cycles > plain_cycles, "reading the structure out is charged");
        assert!(matches!(insert(&[[1 << 20, 1, 0]], true).0.copies, CopyUpdate::None));

        // The leaf of two loses one, which narrows its prefix; the root
        // keeps five points, so nothing folds.
        let thinned = delete(&[[1 << 20, 1, 1]], true);
        let CopyUpdate::Patch(patch) = &thinned.copies else { panic!("{:?}", thinned.copies) };
        assert_eq!(
            patch.iter().map(|l| (l.by, l.prefix.is_some())).collect::<Vec<_>>(),
            [(1, true), (1, false)]
        );
        assert_eq!(thinned.wire_bytes(), 40 + 20 + 8);
        let task = MgmtTask::PatchCache { meta: 9, patch: patch.clone() };
        assert_eq!(task.wire_bytes(), 9 + 20 + 8);
        let mut copy = state().masters[&9].structure_clone();
        let mut cache = ModuleState::<3>::default();
        cache.caches.insert(9, Arc::new(copy.clone()));
        handle_mgmt(1, &mut cache, &mut PimCtx::new(), vec![task]);
        copy.lower(patch);
        let mut after = state();
        handle_delete(
            &mut after,
            &mut PimCtx::new(),
            vec![DeleteTask { meta: 9, items: keyed(&[[1 << 20, 1, 1]]), copies: false }],
        );
        let want = format!("{:?}", after.masters[&9].structure_clone());
        assert_eq!(format!("{copy:?}"), want);
        assert_eq!(format!("{:?}", cache.caches[&9]), want);
        assert!(matches!(delete(&[[1 << 20, 1, 1]], false).copies, CopyUpdate::None));

        // Two of the four go: the root folds into one leaf.
        let folded = delete(&[[0, 0, 0], [1, 1, 1]], true);
        assert!(matches!(&folded.copies, CopyUpdate::Copy(c) if c.live_nodes() == 1));
        assert_eq!(folded.wire_bytes(), 40 + BNODE_BYTES);
    }

    #[test]
    fn insert_handler_merges() {
        let mut st = ModuleState::<3>::default();
        st.masters.insert(3, Arc::new(frag_of(3, 0, &[[0, 0, 0]])));
        let mut ctx = PimCtx::new();
        let r = handle_insert(
            &mut st,
            &mut ctx,
            vec![InsertTask { meta: 3, items: keyed(&[[7, 7, 7], [9, 9, 9]]), copies: false }],
        );
        assert_eq!(r[0].added, 2);
        assert_eq!(r[0].root_count, 3);
    }

    #[test]
    fn delete_handler_reports_empty() {
        let mut st = ModuleState::<3>::default();
        st.masters.insert(3, Arc::new(frag_of(3, 0, &[[0, 0, 0]])));
        let mut ctx = PimCtx::new();
        let r = handle_delete(
            &mut st,
            &mut ctx,
            vec![DeleteTask { meta: 3, items: keyed(&[[0, 0, 0]]), copies: false }],
        );
        assert!(matches!(r[0].outcome, DeleteOutcome::Empty));
        assert!(!st.masters.contains_key(&3));
    }

    /// Fragment 1 references fragment 2, two points each, both masters on
    /// this module.
    fn colocated_pair() -> ModuleState<3> {
        let mut st = ModuleState::<3>::default();
        let f2 =
            frag_of(2, 0, &[[1_000_000, 1_000_000, 1_000_000], [1_000_010, 1_000_010, 1_000_010]]);
        let r2 = RemoteRef { meta: 2, module: 0, prefix: f2.root_node().prefix, sc: 2 };
        let f1_items = keyed(&[[0, 0, 0], [10, 10, 10]]);
        let leaf_pre = set_prefix(&f1_items);
        let root_pre = Prefix::new(leaf_pre.key, leaf_pre.key.common_prefix_len(r2.prefix.key));
        let f1 = Fragment::from_parts(
            1,
            0,
            0,
            4,
            0,
            0,
            Default::default(),
            vec![],
            vec![
                BNode {
                    prefix: root_pre,
                    count: 4,
                    kind: BKind::Internal {
                        left: crate::frag::ChildRef::Local(1),
                        right: crate::frag::ChildRef::Remote(r2),
                    },
                },
                BNode { prefix: leaf_pre, count: 2, kind: BKind::Leaf { points: f1_items.into() } },
            ],
        )
        .unwrap();
        st.masters.insert(1, Arc::new(f1));
        st.masters.insert(2, Arc::new(f2));
        st
    }

    /// A row in key order that spans fragments — a local hop from 1 into 2,
    /// a master of its own, a cached copy whose searches go on to its
    /// master — and is no multiple of `TASKLETS` long gets the replies each
    /// of its tasks gets alone, for fewer cycles.
    #[test]
    fn a_sorted_row_replies_as_its_tasks_do_alone() {
        let mut st = colocated_pair();
        let third: Vec<[u32; 3]> =
            (0..60).map(|i| [1_500_000 + 97 * i, 1_400_000 + 31 * i, 1_600_000]).collect();
        let fourth: Vec<[u32; 3]> = (0..10).map(|i| [300_000 + 13 * i, 700_000, 100_000]).collect();
        st.masters.insert(3, Arc::new(frag_of(3, 0, &third)));
        st.caches.insert(4, Arc::new(frag_of(4, 1, &fourth).structure_clone()));
        let first = [
            [0, 0, 0],
            [5, 5, 5],
            [10, 10, 10],
            [1_000_000, 1_000_000, 1_000_000],
            [1_000_010, 1_000_010, 1_000_010],
        ];
        let mut row = Vec::new();
        for (meta, pts) in [(1, &first[..]), (3, &third[..]), (4, &fourth[..])] {
            for c in pts {
                let (qid, key) = (row.len() as u32, ZKey::<3>::encode(&Point::new(*c)));
                row.push(SearchTask { qid, key, meta, best_k: None });
            }
        }
        row.sort_by_key(|t| t.key);
        assert!(row.len() > TASKLETS && row.len() % TASKLETS != 0);

        let mut ctx = PimCtx::new();
        let together = handle_search(0, &mut st, &mut ctx, row.clone());
        let mut fresh = PimCtx::new();
        let alone: Vec<_> =
            row.iter().flat_map(|t| handle_search(0, &mut st, &mut fresh, vec![*t])).collect();
        assert_eq!(format!("{together:?}"), format!("{alone:?}"));
        assert!(ctx.cycles < fresh.cycles, "{} !< {}", ctx.cycles, fresh.cycles);
    }

    #[test]
    fn knn_handler_explores_colocated_fragments() {
        // A single round resolves everything.
        let mut st = colocated_pair();
        let mut ctx = PimCtx::new();
        let r = chase(
            &mut st,
            &mut ctx,
            vec![KnnTask {
                qid: 0,
                meta: 1,
                node: u32::MAX,
                q: Point::new([1_000_001, 1_000_001, 1_000_001]),
                k: 1,
                bound: u64::MAX,
                cube: u64::MAX,
                metric: Metric::L2,
                ball: false,
            }],
        );
        assert_eq!(r[0].cands[0].1, Point::new([1_000_000, 1_000_000, 1_000_000]));
        assert!(r[0].frontier.is_empty());
    }

    /// A cached copy of fragment 1 elsewhere surfaces both 1 and its child
    /// 2, so the host can send one query a task for each in the same round.
    #[test]
    fn a_query_with_tasks_for_parent_and_child_gets_each_point_once() {
        let task = |qid, meta| BoxTask {
            qid,
            meta,
            node: u32::MAX,
            query: Aabb::universe(),
            fetch: false,
        };
        let counts = |tasks: Vec<BoxTask<3>>| -> Vec<u64> {
            let replies = chase(&mut colocated_pair(), &mut PimCtx::new(), tasks);
            replies.iter().map(|r| r.count).collect()
        };
        // Whichever task runs first reports fragment 2.
        assert_eq!(counts(vec![task(0, 1), task(0, 2)]), [4, 0]);
        assert_eq!(counts(vec![task(0, 2), task(0, 1)]), [2, 2]);
        // Other queries' tasks shield nothing.
        assert_eq!(counts(vec![task(0, 1), task(1, 2), task(2, 1)]), [4, 2, 4]);
        // Rows merged out of query order chase nothing: each master is
        // reported by the task that names it.
        assert_eq!(counts(vec![task(1, 1), task(0, 2), task(1, 2)]), [2, 2, 2]);
    }

    #[test]
    fn mgmt_pull_returns_fragment() {
        let mut st = ModuleState::<3>::default();
        st.masters.insert(5, Arc::new(frag_of(5, 0, &[[1, 1, 1], [2, 2, 2]])));
        let mut ctx = PimCtx::new();
        let r = handle_mgmt(0, &mut st, &mut ctx, vec![MgmtTask::Pull(5)]);
        match &r[0] {
            MgmtReply::Pulled(f) => assert_eq!(f.meta, 5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resident_bytes_counts_masters_and_caches() {
        let mut st = ModuleState::<3>::default();
        let f = frag_of(1, 0, &[[1, 1, 1], [2, 2, 2], [3, 3, 3]]);
        let cache = f.structure_clone();
        st.masters.insert(1, Arc::new(f));
        st.caches.insert(1, Arc::new(cache));
        assert!(st.resident_bytes() > 0);
        let just_master = st.masters[&1].bytes();
        assert!(st.resident_bytes() > just_master);
    }
}
