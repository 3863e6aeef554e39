//! Dynamic updates (Alg. 2) and structural maintenance.
//!
//! `INSERT`/`DELETE` run as: batched SEARCH (traces) → one application round
//! for every affected fragment → maintenance. Maintenance implements the
//! rest of Alg. 2 step 3: demotion and promotion across the L0 boundary,
//! lazy-counter synchronization (§3.4, Table 1), re-chunking ("practical
//! chunking", §6) that keeps fragments within their size budget, and the
//! refresh of the L1 structure caches (§3.1).
//!
//! The host plans all of it from the directory, and the apply round brings
//! back what the L1 structure copies need, so it costs the rounds its data
//! dependencies need and no more (`PimZdTree::maintain`):
//!
//! * **apply** — a task says whether its fragment has copies; if so, the
//!   reply carries the fragment's structure when the update changed its
//!   shape, or, for a delete that freed no node, the nodes it lowered.
//! * **M1** — demoted fragments' masters, the whole upward counter
//!   propagation (every level in one round), the root splits of due
//!   promotions or re-chunks, the structure pulls of what nothing brought
//!   back (a meta flipping into L1, the L1 descendants of a split), and,
//!   when nothing splits or is pulled, the copies' installs, patches and
//!   drops. Each module runs them in that order.
//! * **M2** — after a split or a pull, the split children's moved masters
//!   and the copies.
//!
//! One reconcile per batch covers every meta whose cache targets may have
//! moved — the meta and its L1 descendants, for each meta the directory saw
//! registered, re-parented, spliced or flipped — every dirty L1 meta and
//! every meta with something in hand. It sends a meta only where a copy is
//! stale or missing, a patch where a copy only counts too many, and pulls
//! only what nothing brought.

use crate::config::Layer;
use crate::frag::{EditOutcome, Fragment, Keyed, MetaId, RefEdit, RemoteRef};
use crate::host::PimZdTree;
use crate::meta::MetaInfo;
use crate::module::{
    handle_delete, handle_insert, CopyUpdate, DeleteOutcome, DeleteReply, DeleteTask, InsertTask,
    MgmtReply, MgmtTask,
};
use crate::search::QueryEnd;
use pim_geom::Point;
use rustc_hash::FxHashMap;

impl<const D: usize> PimZdTree<D> {
    /// Inserts a batch of points (multiset semantics).
    pub fn batch_insert(&mut self, points: &[Point<D>]) {
        if points.is_empty() {
            return;
        }
        self.wal_append(crate::wal::WalOp::Insert, points);
        self.phased("insert", |t| {
            t.measured(points.len() as u64, |t| {
                t.insert_inner(points);
                ((), points.len() as u64)
            })
        });
        self.epoch += 1;
    }

    fn insert_inner(&mut self, points: &[Point<D>]) {
        let s = self.batch_search_internal(points, None);

        // Group items per target (semi-sort; Alg. 2 step 2d's dedup falls
        // out of grouping: conflicting creations land in one fragment's
        // merge, which builds each new node once). Routing is flat and in
        // SEARCH's order, so L0's items arrive sorted and so does every
        // fragment's run after the stable scatter by meta below, with no
        // per-meta hash map or per-meta `Vec` allocations.
        let group_span = pim_obs::span("group_and_sort");
        self.meter.work(points.len() as u64 * 20);
        let mut l0_items: Vec<Keyed<D>> = self.bufs.take_vec();
        let mut frag_items: Vec<(MetaId, Keyed<D>)> = self.bufs.take_vec();
        // The host reads the per-query state front to back.
        for qid in 0..points.len() {
            self.touch_query_state(qid, false);
        }
        for &q in &s.order {
            let qid = q as usize;
            let item = (s.keys[qid], points[qid]);
            match s.ends[qid] {
                QueryEnd::Empty | QueryEnd::L0Leaf { .. } | QueryEnd::L0Diverge => {
                    l0_items.push(item)
                }
                QueryEnd::FragLeaf { meta, .. } | QueryEnd::FragDiverge { meta } => {
                    frag_items.push((meta, item))
                }
            }
        }
        drop(group_span);
        self.bufs.put_vec(s.order);

        // Apply to L0 host-side.
        if !l0_items.is_empty() {
            let _span = pim_obs::span("l0_merge");
            if let Some(l0) = self.l0.as_mut() {
                let mut sink = Self::l0_sink(&mut self.meter);
                l0.merge(&l0_items, &mut sink);
            } else {
                // First ever points: bootstrap L0 from the batch.
                let mut sink = Self::l0_sink(&mut self.meter);
                self.l0 = Some(Fragment::build_from(
                    crate::host::L0_META,
                    u32::MAX,
                    &l0_items,
                    self.cfg.leaf_cap,
                    &mut sink,
                ));
            }
        }
        self.bufs.put_vec(l0_items);

        // Apply to fragments: one round (Alg. 2 step 3a/3b).
        if !frag_items.is_empty() {
            let sort_span = pim_obs::span("sort_tasks");
            let mut tasks: Vec<Vec<InsertTask<D>>> = self.task_matrix();
            self.for_each_meta_run(&frag_items, |meta, module, copies, run| {
                tasks[module].push(InsertTask { meta, items: run.to_vec(), copies })
            });
            drop(sort_span);
            let replies = self.robust_round(tasks, |_, m, ctx, t| handle_insert(m, ctx, t));
            let _span = pim_obs::span("apply_replies");
            for r in replies.into_iter().flatten() {
                let e = self.dir.get_mut(r.meta);
                e.pending_delta += r.added as i64;
                e.live_nodes = r.live_nodes;
                if r.new_nodes > 0 {
                    e.dirty = true;
                }
                self.hold(r.meta, r.copies);
            }
        }
        self.bufs.put_vec(frag_items);

        self.n_points += points.len();
        self.maintain();
    }

    /// Groups `(target meta, item)` pairs into one run per target and hands
    /// each `(meta, master module, whether it has structure copies, run)` to
    /// `emit`, metas ascending. A counting sort on the meta id (dense
    /// directory index): one histogram pass, one stable scatter. The pairs
    /// come in SEARCH's `(key, qid)` order and the scatter keeps it, so each
    /// run arrives z-ordered. Allocates nothing per meta.
    fn for_each_meta_run(
        &mut self,
        frag_items: &[(MetaId, Keyed<D>)],
        mut emit: impl FnMut(MetaId, usize, bool, &[Keyed<D>]),
    ) {
        let Some(&(_, first)) = frag_items.first() else { return };
        let bound = self.dir.id_bound() as usize;
        let mut cursor: Vec<u32> = self.bufs.take_vec();
        cursor.resize(bound + 1, 0);
        for (meta, _) in frag_items {
            cursor[*meta as usize] += 1;
        }
        let mut acc = 0u32;
        for c in cursor.iter_mut() {
            let n = *c;
            *c = acc;
            acc += n;
        }
        let mut grouped: Vec<Keyed<D>> = self.bufs.take_vec();
        // Placeholder value; the scatter writes every slot exactly once.
        grouped.resize(frag_items.len(), first);
        for &(meta, item) in frag_items {
            let c = &mut cursor[meta as usize];
            grouped[*c as usize] = item;
            *c += 1;
        }
        // After the scatter `cursor[m]` is the end of m's run; starts are
        // recovered by walking metas in order (runs are contiguous and
        // untouched entries carry the previous run's end forward).
        let mut prev = 0usize;
        for (m, end) in cursor.iter().enumerate() {
            let end = *end as usize;
            if end > prev {
                let run = &grouped[prev..end];
                let meta = m as MetaId;
                let e = self.dir.get(meta);
                emit(meta, e.module as usize, !e.cached_on.is_empty(), run);
                prev = end;
            }
        }
        self.bufs.put_vec(cursor);
        self.bufs.put_vec(grouped);
    }

    /// Deletes a batch of points; each element removes at most one stored
    /// instance. Returns the number removed.
    pub fn batch_delete(&mut self, points: &[Point<D>]) -> usize {
        if points.is_empty() {
            return 0;
        }
        self.wal_append(crate::wal::WalOp::Delete, points);
        let removed = self.phased("delete", |t| {
            t.measured(points.len() as u64, |t| {
                let removed = t.delete_inner(points);
                (removed, points.len() as u64)
            })
        });
        self.epoch += 1;
        removed
    }

    fn delete_inner(&mut self, points: &[Point<D>]) -> usize {
        let s = self.batch_search_internal(points, None);

        let group_span = pim_obs::span("group_and_sort");
        self.meter.work(points.len() as u64 * 20);

        let mut l0_items: Vec<Keyed<D>> = Vec::new();
        let mut frag_items: Vec<(MetaId, Keyed<D>)> = self.bufs.take_vec();
        for &q in &s.order {
            let qid = q as usize;
            let item = (s.keys[qid], points[qid]);
            match s.ends[qid] {
                QueryEnd::L0Leaf { found: true } => l0_items.push(item),
                QueryEnd::FragLeaf { meta, found: true } => frag_items.push((meta, item)),
                // Not present: nothing to delete.
                _ => {}
            }
        }
        drop(group_span);
        self.bufs.put_vec(s.order);

        let mut removed = 0usize;

        // L0 first, host-side. A removal that leaves L0 a bare ref to its
        // last fragment makes that fragment the new L0 — and whatever this
        // batch holds for it (in key order, as `frag_items` is) is then L0's
        // to remove as well, before any task is built for a meta the
        // directory no longer has.
        while !l0_items.is_empty() {
            let _span = pim_obs::span("l0_merge");
            let l0 = self.l0.as_mut().unwrap();
            let mut sink = Self::l0_sink(&mut self.meter);
            l0_items = match l0.remove(&l0_items, &mut removed, &mut Vec::new(), &mut sink) {
                crate::frag::RootAfterRemove::Kept => Vec::new(),
                crate::frag::RootAfterRemove::Empty => {
                    self.l0 = None;
                    Vec::new()
                }
                crate::frag::RootAfterRemove::CollapsedToRemote(r) => {
                    self.absorb_fragment_into_l0(r);
                    let mut theirs = Vec::new();
                    frag_items.retain(|&(meta, item)| {
                        if meta == r.meta {
                            theirs.push(item);
                        }
                        meta != r.meta
                    });
                    theirs
                }
            };
        }

        if !frag_items.is_empty() {
            let sort_span = pim_obs::span("sort_tasks");
            let mut tasks: Vec<Vec<DeleteTask<D>>> = self.task_matrix();
            self.for_each_meta_run(&frag_items, |meta, module, copies, run| {
                tasks[module].push(DeleteTask { meta, items: run.to_vec(), copies })
            });
            drop(sort_span);
            let replies = self.robust_round(tasks, |_, m, ctx, t| handle_delete(m, ctx, t));
            let reply_span = pim_obs::span("apply_replies");
            let mut splices: Vec<(Option<MetaId>, MetaId, Option<RemoteRef<D>>)> = Vec::new();
            let mut urgent_syncs: Vec<MetaId> = Vec::new();
            for r in replies.into_iter().flatten() {
                removed += r.removed as usize;
                self.apply_delete_reply(r, &mut splices, &mut urgent_syncs);
            }
            drop(reply_span);
            self.process_splices(splices, &mut urgent_syncs);
            // Prefix changes must reach parents before the next routing
            // decision (part of Alg. 2's pointer-fixing rounds).
            self.sync_metas(&urgent_syncs, true);
        }

        self.bufs.put_vec(frag_items);

        self.n_points -= removed;
        self.maintain();
        removed
    }

    fn apply_delete_reply(
        &mut self,
        r: DeleteReply<D>,
        splices: &mut Vec<(Option<MetaId>, MetaId, Option<RemoteRef<D>>)>,
        urgent_syncs: &mut Vec<MetaId>,
    ) {
        match r.outcome {
            DeleteOutcome::Kept => {
                let e = self.dir.get_mut(r.meta);
                e.pending_delta -= r.removed as i64;
                // Only a freed node changes what a copy must show beyond
                // counts and leaf prefixes, which the patch carries.
                if matches!(r.copies, CopyUpdate::Copy(_)) {
                    e.dirty = true;
                }
                if e.prefix != r.root_prefix {
                    e.prefix = r.root_prefix;
                    urgent_syncs.push(r.meta);
                }
                self.hold(r.meta, r.copies);
            }
            DeleteOutcome::Empty => {
                let parent = self.dir.get(r.meta).parent;
                splices.push((parent, r.meta, None));
            }
            DeleteOutcome::Collapsed(rr) => {
                let parent = self.dir.get(r.meta).parent;
                splices.push((parent, r.meta, Some(rr)));
            }
        }
    }

    /// Applies parent splices after fragments emptied/collapsed, cascading
    /// until stable.
    ///
    /// Several fragments may dissolve in the same batch, forming chains
    /// (`X` collapsed to a ref to `Y`, but `Y` itself emptied). Every
    /// replacement is therefore resolved through the dying set before being
    /// installed, so no parent is ever pointed at a dissolved fragment. A
    /// parent whose root prefix a splice narrowed joins `urgent_syncs`.
    fn process_splices(
        &mut self,
        mut splices: Vec<(Option<MetaId>, MetaId, Option<RemoteRef<D>>)>,
        urgent_syncs: &mut Vec<MetaId>,
    ) {
        let _span = pim_obs::span("process_splices");
        // Dissolved child → its recorded parent and (unresolved)
        // replacement; grows as cascades surface.
        let mut dying: FxHashMap<MetaId, (Option<MetaId>, Option<RemoteRef<D>>)> =
            FxHashMap::default();
        let mut spliced = 0u64;
        let mut guard = 0;
        while !splices.is_empty() {
            spliced += splices.len() as u64;
            guard += 1;
            assert!(guard < 100, "splice cascade failed to converge");
            for (parent, child, replacement) in &splices {
                dying.insert(*child, (*parent, *replacement));
            }
            let resolve = |mut r: Option<RemoteRef<D>>,
                           dying: &FxHashMap<MetaId, (Option<MetaId>, Option<RemoteRef<D>>)>| {
                let mut hops = 0;
                while let Some((_, next)) = r.and_then(|rr| dying.get(&rr.meta)) {
                    r = *next;
                    hops += 1;
                    assert!(hops < 1000, "replacement chain loops");
                }
                r
            };

            let mut next = Vec::new();
            let mut tasks: Vec<Vec<MgmtTask<D>>> = self.task_matrix();
            // Host-side L0 patches are deferred until after the module
            // round: an L0 root collapse absorbs a parent fragment into L0,
            // and that fragment must first receive its own pending
            // `ReplaceChild` splices module-side, or L0 inherits dangling
            // refs to dissolved children.
            let mut l0_patches: Vec<(MetaId, Option<RemoteRef<D>>)> = Vec::new();
            for (parent, child, replacement) in splices {
                let replacement = resolve(replacement, &dying);
                // A recorded parent that has left the directory was either
                // dissolved (nothing references `child` any more) or
                // absorbed into L0 (L0 now holds its ref to `child`); both
                // cases are served by the L0 patch path below, where a
                // missing ref is a no-op.
                let live_parent = parent.filter(|p| self.dir.metas.contains_key(p));
                // Fix the directory first.
                if let Some(rr) = replacement {
                    // The survivor at the end of the chain hangs off the
                    // nearest ancestor of the dissolved child that is not
                    // dissolving with it, whichever splice is taken first.
                    let mut above = parent;
                    while let Some((up, _)) = above.and_then(|p| dying.get(&p)) {
                        above = *up;
                    }
                    self.dir.adopt(above.filter(|p| self.dir.metas.contains_key(p)), rr.meta);
                }
                let gone = self.dir.remove(child);
                // The fragment is gone; so are the copies of its structure.
                for &m in gone.iter().flat_map(|g| &g.cached_on) {
                    tasks[m as usize].push(MgmtTask::DropCache(child));
                }
                match live_parent {
                    None => l0_patches.push((child, replacement)),
                    Some(p) => {
                        // The parent's subtree changes by what its ref to
                        // the child said, against what the replacement
                        // says (the change the splice applies module-side).
                        if let Some(gone) = gone {
                            self.dir.get_mut(p).pending_delta +=
                                replacement.map_or(0, |rr| rr.sc as i64) - gone.synced_sc as i64;
                        }
                        let module = self.dir.get(p).module as usize;
                        tasks[module].push(MgmtTask::ReplaceChild {
                            parent: p,
                            child,
                            replacement,
                        });
                        // Keep parent's caches consistent too.
                        for &m in &self.dir.get(p).cached_on.clone() {
                            tasks[m as usize].push(MgmtTask::ReplaceChild {
                                parent: p,
                                child,
                                replacement,
                            });
                        }
                        self.edit_in_hand(p, child, RefEdit::Replace(replacement), 60);
                    }
                }
            }
            for r in self.mgmt_round_if_any(tasks).into_iter().flatten() {
                let MgmtReply::ReplaceStatus { parent, collapsed, narrowed } = r else {
                    continue;
                };
                let Some(e) = self.dir.metas.get_mut(&parent) else { continue };
                if let Some(rr) = collapsed {
                    next.push((e.parent, parent, Some(rr)));
                } else if let Some(prefix) = narrowed {
                    // The splice took the parent's root node: the ref to the
                    // parent must hear its new prefix.
                    e.prefix = prefix;
                    if !urgent_syncs.contains(&parent) {
                        urgent_syncs.push(parent);
                    }
                }
            }
            // Parents that collapsed module-side in this round already lost
            // their masters; record their replacements now so an L0 absorb
            // below never tries to pull one of them.
            for (parent, child, replacement) in &next {
                dying.insert(*child, (*parent, *replacement));
            }
            for (child, replacement) in l0_patches {
                let Some(l0) = self.l0.as_mut() else { continue };
                self.meter.work(60);
                if let EditOutcome::RootCollapsed(r) =
                    l0.edit_ref(child, RefEdit::Replace(replacement))
                {
                    match resolve(Some(r), &dying) {
                        None => self.l0 = None,
                        Some(rr) => self.absorb_fragment_into_l0(rr),
                    }
                }
            }
            splices = next;
        }
        if spliced > 0 {
            self.sys.metrics().with(|m| m.add("host_splices_total", &[], spliced));
        }
    }

    /// Pulls a whole fragment into L0 (the tree shrank so far that the host
    /// must re-own the top).
    fn absorb_fragment_into_l0(&mut self, r: RemoteRef<D>) {
        self.pull_fragments(&[r.meta]);
        let (mut f, _) = self.held.remove(&r.meta).expect("fragment exists");
        let mut tasks: Vec<Vec<MgmtTask<D>>> = self.task_matrix();
        tasks[self.dir.get(r.meta).module as usize].push(MgmtTask::DropMaster(r.meta));
        // Drop any caches of it as well.
        for &m in &self.dir.get(r.meta).cached_on.clone() {
            tasks[m as usize].push(MgmtTask::DropCache(r.meta));
        }
        self.mgmt_round(tasks);
        // Children of the absorbed fragment now hang off L0.
        for c in f.remote_children() {
            self.dir.adopt(None, c.meta);
        }
        self.dir.remove(r.meta);
        f.meta = 0;
        f.master_module = u32::MAX;
        // L0 carries no chunk directory (it is LLC-warm, see `build`).
        f.set_dir_policy(0, f.dense_min);
        self.l0 = Some(f);
    }

    // -----------------------------------------------------------------
    // Maintenance (Alg. 2 steps 3c–3e)
    // -----------------------------------------------------------------

    /// Runs the maintenance of an update batch. Everything is planned on the
    /// host from the directory and sent in as few rounds as its data
    /// dependencies allow (ARCHITECTURE §"An update batch, round by round").
    ///
    /// Round M1 carries the demoted fragments' masters, the whole counter
    /// propagation and the root split of every due promotion — or, when
    /// none is due, of every due re-chunk — and each module runs them in
    /// that order. The copies the apply round sent back are in hand, so
    /// when nothing splits and nothing lacks a copy no reply brought, the
    /// cache reconcile's installs, patches and drops ride M1 too: one
    /// round. A split's children are known only from its replies, so the
    /// copies take the round after it, and what the reconcile will have to
    /// pull is pulled in the split's round: two. Only a cascade — a split
    /// child that must split again, or re-chunks after promotions — adds
    /// rounds.
    pub(crate) fn maintain(&mut self) {
        self.phased("maintain", |t| {
            let mut round = t.task_matrix();
            t.demote_small_l0_children(&mut round);
            t.sync_lazy_counters(&mut round);
            // Promotions until none is due, then re-chunks, so that new ids
            // go out in that order. Layers flip before each: the counters
            // are synced, so the first flips are every existing meta's, which
            // a pull ahead of a split must see; the second add the
            // promotions' children's (the re-chunks' wait for the next
            // batch).
            for keep_root in [false, true] {
                t.layer_transitions();
                let mut guard = 0;
                loop {
                    let cands = t.split_candidates(keep_root);
                    if cands.is_empty() {
                        break;
                    }
                    guard += 1;
                    assert!(guard < 64, "split cascade failed to converge");
                    t.pull_ahead(&cands, &mut round);
                    round = t.split_roots(&cands, keep_root, round);
                }
            }
            t.refresh_caches(round);
            t.update_l0_replication();
        });
    }

    /// Extracts L0-resident subtrees that fell below θ_L0 into new
    /// fragments (demotion; also how freshly-inserted structure leaves L0),
    /// their masters' installs added to `round`.
    fn demote_small_l0_children(&mut self, round: &mut [Vec<MgmtTask<D>>]) {
        let Some(mut l0) = self.l0.take() else { return };
        let theta_l0 = self.cfg.theta_l0;
        // The topmost local children below the threshold.
        let frags = l0.detach_children(
            |child| child.count < theta_l0,
            || {
                let id = self.dir.next_id();
                (id, self.place_module(id))
            },
        );
        self.l0 = Some(l0);
        for mut frag in frags {
            // L0 carries no chunk directory; demoted fragments get one.
            frag.set_dir_policy(self.cfg.chunk_dir_bits(), self.cfg.chunk_dense_min());
            let r = frag.self_ref();
            self.meter.work(40);
            let layer = self.cfg.layer_of(r.sc);
            self.dir.insert(MetaInfo::new(&r, layer, None, frag.live_nodes() as u64));
            for g in frag.remote_children() {
                self.dir.adopt(Some(r.meta), g.meta);
            }
            round[r.module as usize].push(MgmtTask::InstallMaster(frag));
        }
    }

    /// Plans the synchronization of every lazy counter whose pending delta
    /// exceeds the Table 1 threshold (or of every non-zero delta when the
    /// ablation disables laziness) into `round`.
    ///
    /// Syncing a meta shifts its delta onto its parent (the paper's upward
    /// propagation of counter changes, §3.4), which may make the parent due
    /// in turn. Every value is the directory's, so the host plans the
    /// propagation level by level and sends all of it at once: each module
    /// runs its syncs in level order — the order a round per level would
    /// apply them in — so the same messages leave the same state.
    fn sync_lazy_counters(&mut self, round: &mut [Vec<MgmtTask<D>>]) {
        let lazy = self.cfg.toggles.lazy_counters;
        let delta_l1 = self.cfg.delta_l1;
        let mut l0_updates = 0;
        // Depth bounds the number of levels.
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 128, "counter propagation failed to converge");
            let due: Vec<MetaId> = self
                .dir
                .metas
                .values()
                .filter(|e| {
                    if e.pending_delta == 0 {
                        return false;
                    }
                    if !lazy {
                        return true;
                    }
                    // Sync early enough that Lemma 3.1's factor-2 band
                    // holds: Δ ≤ min(Δ_L1, SC/2).
                    let band = (e.synced_sc / 2).max(1);
                    (e.pending_delta.unsigned_abs()) >= delta_l1.min(band)
                })
                .map(|e| e.id)
                .collect();
            if due.is_empty() {
                break;
            }
            l0_updates += self.plan_syncs(&due, false, round);
        }
        self.replicate_l0_counts(l0_updates);
    }

    /// Pushes the current counts (and optionally prefixes) of `metas` to
    /// their parents' masters and caches, plus L0 where the parent is L0,
    /// in a round of their own.
    pub(crate) fn sync_metas(&mut self, metas: &[MetaId], with_prefix: bool) {
        if metas.is_empty() {
            return;
        }
        let mut tasks = self.task_matrix();
        let l0_updates = self.plan_syncs(metas, with_prefix, &mut tasks);
        self.replicate_l0_counts(l0_updates);
        self.mgmt_round_if_any(tasks);
    }

    /// Plans the syncs of [`Self::sync_metas`] into `tasks`: L0's refs are
    /// edited on the spot, the directory moves each synced delta onto the
    /// parent's. Returns the number of L0 counter updates.
    fn plan_syncs(
        &mut self,
        metas: &[MetaId],
        with_prefix: bool,
        tasks: &mut [Vec<MgmtTask<D>>],
    ) -> u64 {
        let mut l0_count_updates = 0u64;
        for &m in metas {
            if !self.dir.metas.contains_key(&m) {
                continue;
            }
            let (new_sc, old_sc, parent, prefix, pending) = {
                let e = self.dir.get(m);
                (
                    e.estimated_count(),
                    e.synced_sc,
                    e.parent,
                    if with_prefix { Some(e.prefix) } else { None },
                    e.pending_delta,
                )
            };
            // Under lazy counters a sync is one batched message; the eager
            // ablation pays one message per individual counter change
            // (what "ensuring consistency during dynamic updates" costs,
            // §3.4).
            let repeat: u32 = if self.cfg.toggles.lazy_counters {
                1
            } else {
                pending.unsigned_abs().clamp(1, u32::MAX as u64) as u32
            };
            match parent {
                None => {
                    if let Some(l0) = self.l0.as_mut() {
                        self.meter.work(40 * repeat as u64);
                        l0.edit_ref(m, RefEdit::Sync { sc: new_sc, prefix });
                        l0_count_updates += repeat as u64;
                    }
                }
                Some(p) => {
                    let task =
                        MgmtTask::SyncChild { parent: p, child: m, sc: new_sc, prefix, repeat };
                    let pe = self.dir.get(p);
                    for &module in std::iter::once(&pe.module).chain(&pe.cached_on) {
                        tasks[module as usize].push(task.clone());
                    }
                    self.edit_in_hand(p, m, RefEdit::Sync { sc: new_sc, prefix }, 40);
                }
            }
            let e = self.dir.get_mut(m);
            e.synced_sc = new_sc;
            e.pending_delta = 0;
            // The parent's subtree estimate shifted by the same amount: its
            // own counter (as seen by *its* parent) accumulates the delta —
            // the upward propagation of §3.4.
            if let Some(p) = parent {
                if self.dir.metas.contains_key(&p) {
                    self.dir.get_mut(p).pending_delta += new_sc as i64 - old_sc as i64;
                }
            }
        }
        l0_count_updates
    }

    /// Replicated L0 copies must hear about `updates` counter updates made
    /// to the host's L0.
    fn replicate_l0_counts(&mut self, updates: u64) {
        if updates > 0 && self.l0_replicated {
            self.sys.broadcast(crate::host::ReplBytes(updates * 16), |_, _, ctx, b| {
                ctx.mem(b.0);
            });
        }
    }

    /// The fragments due a root split, in directory order: those hanging
    /// off L0 whose counters reached θ_L0 (promotion, Alg. 2 step 3d) or,
    /// with `keep_root`, those that outgrew the chunk budget (re-chunking:
    /// §6 practical chunking keeps pulls O(B)-sized).
    fn split_candidates(&self, keep_root: bool) -> Vec<MetaId> {
        let (theta_l0, max_nodes) = (self.cfg.theta_l0, self.cfg.max_fragment_nodes as u64);
        self.dir
            .metas
            .values()
            .filter(|e| {
                if keep_root {
                    e.live_nodes > max_nodes
                } else {
                    e.parent.is_none() && e.estimated_count() >= theta_l0
                }
            })
            .map(|e| e.id)
            .collect()
    }

    /// Adds a root split of every fragment in `cands` to `round` and sends
    /// it, then registers the extracted children; returns the next round,
    /// holding the masters of the children placed on other modules. With
    /// `keep_root` the fragment stays, holding just its root, as the
    /// children's parent (re-chunking); without, the root is spliced into
    /// L0 in place of the ref to the fragment, which dissolves (promotion).
    /// A root that is a leaf — equal keys past `leaf_cap`, so nothing below
    /// it to extract — comes back with no children and is promoted as it
    /// is.
    fn split_roots(
        &mut self,
        cands: &[MetaId],
        keep_root: bool,
        mut round: Vec<Vec<MgmtTask<D>>>,
    ) -> Vec<Vec<MgmtTask<D>>> {
        for &meta in cands {
            let new_ids = (0..2)
                .map(|_| {
                    let id = self.dir.next_id();
                    (id, self.place_module(id))
                })
                .collect();
            // What was in hand for its copies is stale once it splits.
            self.in_hand.remove(&meta);
            let e = self.dir.get(meta);
            round[e.module as usize].push(MgmtTask::SplitRoot { meta, new_ids, keep_root });
            if !keep_root {
                // The fragment dissolves; so do the copies of its structure
                // (in this round, so that they cost no round of their own).
                for &m in &e.cached_on {
                    round[m as usize].push(MgmtTask::DropCache(meta));
                }
            }
        }
        // Replies come back flattened in (module, task) order — recover
        // which meta each split answers from the same traversal.
        let dispatch_order: Vec<MetaId> = round
            .iter()
            .flatten()
            .filter_map(|t| match t {
                MgmtTask::SplitRoot { meta, .. } => Some(*meta),
                _ => None,
            })
            .collect();
        let replies = self.mgmt_round(round);
        let mut next: Vec<Vec<MgmtTask<D>>> = self.task_matrix();
        let mut promoted_bytes = 0u64;
        let mut splits = Vec::new();
        for r in replies.into_iter().flatten() {
            match r {
                MgmtReply::Split { root, children, moved } => splits.push((root, children, moved)),
                MgmtReply::Pulled(f) => self.hold(f.meta, CopyUpdate::Copy(f)),
                _ => {}
            }
        }
        for (meta, (root, children, moved)) in dispatch_order.into_iter().zip(splits) {
            if keep_root {
                // The old meta's former children are re-parented onto the
                // split children via their grandchild lists, except those
                // the root itself holds a ref to.
                self.dir.get_mut(meta).children.clear();
                for rr in root.remote_refs() {
                    self.dir.adopt(Some(meta), rr.meta);
                }
                self.register_split_children(meta, &children, Some(meta));
                let e = self.dir.get_mut(meta);
                e.live_nodes = 1;
                e.dirty = true;
                // The copies of what stays and of the children that move
                // are made from what came back; a child that stays on the
                // module is pulled if it needs copies.
                let kept = Fragment::singleton(meta, e.module, root.clone(), self.cfg.leaf_cap);
                self.hold(meta, CopyUpdate::Copy(kept.structure_clone()));
                for f in &moved {
                    self.hold(f.meta, CopyUpdate::Copy(f.structure_clone()));
                }
            } else {
                promoted_bytes += root.bytes();
                self.register_split_children(meta, &children, None);
                // Pre-existing remote children of the promoted root now hang
                // off L0 too.
                for rr in root.remote_refs() {
                    self.dir.adopt(None, rr.meta);
                }
                // Splice the promoted node into L0.
                let l0 = self.l0.as_mut().expect("promotion implies L0 exists");
                self.meter.work(80);
                let grafted = l0.edit_ref(meta, RefEdit::Graft(root));
                debug_assert!(
                    matches!(grafted, EditOutcome::Done),
                    "promoted meta must be referenced from L0"
                );
                self.dir.remove(meta);
            }
            for f in moved {
                next[f.master_module as usize].push(MgmtTask::InstallMaster(f));
            }
        }
        if self.l0_replicated && promoted_bytes > 0 {
            self.sys.broadcast(crate::host::ReplBytes(promoted_bytes), |_, _, ctx, b| ctx.mem(b.0));
        }
        next
    }

    /// Registers the children of a root split in the directory.
    fn register_split_children(
        &mut self,
        old_meta: MetaId,
        children: &[crate::module::SplitChildInfo<D>],
        parent: Option<MetaId>,
    ) {
        for info in children {
            let layer = self.cfg.layer_of(info.r.sc);
            self.dir.insert(MetaInfo::new(&info.r, layer, parent, info.live_nodes));
            for &g in info.grandchildren.iter().filter(|&&g| g != old_meta) {
                self.dir.adopt(Some(info.r.meta), g);
            }
        }
    }

    /// Flips meta layers where counters crossed θ_L1; the cache reconcile
    /// moves the copies. With a registry attached, the flips are counted in
    /// `host_layer_flips_total`.
    fn layer_transitions(&mut self) {
        let cfg = self.cfg;
        let mut changed: Vec<MetaId> = Vec::new();
        for e in self.dir.metas.values_mut() {
            let new_layer = match cfg.layer_of(e.estimated_count().max(1)) {
                Layer::L0 => Layer::L1, // promotion handles true L0 crossings
                l => l,
            };
            if new_layer != e.layer {
                e.layer = new_layer;
                changed.push(e.id);
            }
        }
        if !changed.is_empty() {
            let flips = changed.len() as u64;
            self.sys.metrics().with(|m| m.add("host_layer_flips_total", &[], flips));
        }
        for id in changed {
            self.dir.touch(id);
        }
    }

    /// Keeps what an apply reply, a split or a pull brought for `meta`'s
    /// structure copies until the batch's cache reconcile. A copy pulled
    /// over a delete's patch goes to every target: the patch is dropped.
    fn hold(&mut self, meta: MetaId, update: CopyUpdate<D>) {
        if matches!(update, CopyUpdate::None) {
            return;
        }
        if let Some(CopyUpdate::Patch(_)) = self.in_hand.insert(meta, update) {
            self.dir.get_mut(meta).dirty = true;
        }
    }

    /// Applies to the structure copy in hand for `parent`, if any, an edit
    /// its master and copies are sent, charging the host `cycles`.
    fn edit_in_hand(&mut self, parent: MetaId, child: MetaId, edit: RefEdit<D>, cycles: u64) {
        if let Some(CopyUpdate::Copy(f)) = self.in_hand.get_mut(&parent) {
            self.meter.work(cycles);
            f.edit_ref(child, edit);
        }
    }

    /// Adds to `round`, which splits `cands`, the structure pulls the
    /// batch's cache reconcile will need and has nothing in hand for: the
    /// L1 descendants of `cands`, which hang under new fragments on other
    /// modules once they split, and every meta the reconcile would visit
    /// now and find lacking a copy — a flip into L1, a child a demoted
    /// fragment adopted. Splits aside, nothing later in the batch moves a
    /// cache target, so with the copies the split's replies bring these are
    /// all the reconcile needs, bar a re-chunked child that stays on its
    /// module.
    fn pull_ahead(&mut self, cands: &[MetaId], round: &mut [Vec<MgmtTask<D>>]) {
        let touched = self.dir.touched().to_vec();
        let mut want = self.reconcile_set(touched);
        want.retain(|&m| self.lacks_copy(m));
        want.extend(cands.iter().flat_map(|&c| self.dir.l1_descendants(c)));
        want.sort_unstable();
        want.dedup();
        for m in want {
            if cands.contains(&m) || matches!(self.in_hand.get(&m), Some(CopyUpdate::Copy(_))) {
                continue;
            }
            round[self.dir.get(m).module as usize].push(MgmtTask::PullStructure(m));
        }
    }

    /// Whether L1 meta `m` needs a copy sent to a cache target: one lacks
    /// it, or it is dirty and has targets.
    fn lacks_copy(&self, m: MetaId) -> bool {
        let e = self.dir.get(m);
        e.layer == Layer::L1
            && self.dir.cache_targets(m).iter().any(|t| e.dirty || !e.cached_on.contains(t))
    }

    /// Sends `round` (what else is due to the modules next) with one cache
    /// reconcile riding it: over the L1 neighbourhood of every meta whose
    /// place in the meta-tree changed in this batch — splits, demotions,
    /// splices, layer flips —, every dirty L1 meta and every meta with
    /// something in hand for its copies. A module that fail-stops meanwhile
    /// moves masters and marks their neighbourhoods dirty, and those are
    /// reconciled again: the batch ends with every copy where §3.1 puts it.
    fn refresh_caches(&mut self, mut round: Vec<Vec<MgmtTask<D>>>) {
        let touched = self.dir.take_touched();
        let mut metas = self.reconcile_set(touched);
        let mut guard = 0;
        loop {
            self.reconcile_caches(&metas, round);
            let touched = self.dir.take_touched();
            metas = self.reconcile_set(touched);
            if metas.is_empty() {
                break;
            }
            guard += 1;
            assert!(guard < 16, "cache reconcile failed to converge");
            round = self.task_matrix();
        }
        self.in_hand.clear();
    }

    /// The metas a reconcile visits, ascending: every meta in `touched`
    /// with its L1 descendants, whose cache targets the move may have
    /// changed, every dirty L1 meta and every meta with something in hand.
    /// Dirt on the other layers is cleared: nobody caches them.
    fn reconcile_set(&mut self, mut touched: Vec<MetaId>) -> Vec<MetaId> {
        touched.sort_unstable();
        touched.dedup();
        let mut set: Vec<MetaId> =
            touched.into_iter().flat_map(|id| self.dir.l1_neighbourhood(id)).collect();
        for e in self.dir.metas.values_mut() {
            if e.dirty {
                if e.layer == Layer::L1 {
                    set.push(e.id);
                } else {
                    e.dirty = false;
                }
            }
        }
        set.extend(self.in_hand.keys().filter(|m| self.dir.metas.contains_key(m)));
        set.sort_unstable();
        set.dedup();
        set
    }
}

#[cfg(test)]
mod tests {
    use crate::config::PimZdConfig;
    use crate::host::PimZdTree;
    use pim_geom::{Aabb, Metric, Point};
    use pim_sim::MachineConfig;
    use pim_workloads::{osm_like, point_queries, uniform};

    fn brute(data: &[Point<3>], q: &Point<3>, k: usize) -> Vec<(u64, Point<3>)> {
        let mut all: Vec<(u64, Point<3>)> =
            data.iter().map(|p| (Metric::L2.cmp_dist(q, p), *p)).collect();
        all.sort_unstable_by_key(|(d, p)| (*d, p.coords));
        all.dedup();
        all.truncate(k);
        all
    }

    #[test]
    fn staged_inserts_preserve_invariants_throughput_mode() {
        let pts = uniform::<3>(6_000, 1);
        let cfg = PimZdConfig::throughput_optimized(6_000, 16);
        let mut t = PimZdTree::build(&pts[..2_000], cfg, MachineConfig::with_modules(16));
        for (i, chunk) in pts[2_000..].chunks(1_000).enumerate() {
            t.batch_insert(chunk);
            let expected = &pts[..2_000 + (i + 1) * 1_000];
            t.check_invariants(expected);
        }
        assert_eq!(t.len(), 6_000);
    }

    #[test]
    fn staged_inserts_preserve_invariants_skew_mode() {
        let pts = uniform::<3>(8_000, 2);
        let cfg = PimZdConfig::skew_resistant(16);
        let mut t = PimZdTree::build(&pts[..3_000], cfg, MachineConfig::with_modules(16));
        for (i, chunk) in pts[3_000..].chunks(1_000).enumerate() {
            t.batch_insert(chunk);
            t.check_invariants(&pts[..3_000 + (i + 1) * 1_000]);
        }
    }

    #[test]
    fn insert_into_empty_index_bootstraps() {
        let pts = uniform::<3>(2_000, 3);
        let cfg = PimZdConfig::throughput_optimized(2_000, 8);
        let mut t = PimZdTree::new(cfg, MachineConfig::with_modules(8));
        t.batch_insert(&pts[..1_000]);
        t.check_invariants(&pts[..1_000]);
        t.batch_insert(&pts[1_000..]);
        t.check_invariants(&pts);
    }

    #[test]
    fn inserts_trigger_promotion() {
        // Grow one region until its fragments must promote into L0.
        let pts = uniform::<3>(4_000, 4);
        let cfg = PimZdConfig::throughput_optimized(1_000, 8);
        let mut t = PimZdTree::build(&pts[..1_000], cfg, MachineConfig::with_modules(8));
        let l0_before = t.l0.as_ref().unwrap().live_nodes();
        t.batch_insert(&pts[1_000..]);
        t.check_invariants(&pts);
        let l0_after = t.l0.as_ref().unwrap().live_nodes();
        assert!(
            l0_after > l0_before,
            "quadrupling n with fixed θ_L0 must promote: {l0_before} → {l0_after}"
        );
    }

    #[test]
    fn queries_stay_correct_after_updates() {
        let pts = uniform::<3>(5_000, 5);
        let extra = uniform::<3>(1_500, 6);
        let cfg = PimZdConfig::skew_resistant(16);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        t.batch_delete(&pts[..2_500]);
        t.batch_insert(&extra);
        let mut data: Vec<Point<3>> = pts[2_500..].to_vec();
        data.extend_from_slice(&extra);
        t.check_invariants(&data);
        for q in extra.iter().step_by(300) {
            let got = t.batch_knn(&[*q], 8, Metric::L2);
            assert_eq!(got[0], brute(&data, q, 8));
        }
    }

    #[test]
    fn delete_everything_empties_index() {
        let pts = uniform::<3>(3_000, 7);
        let cfg = PimZdConfig::throughput_optimized(3_000, 8);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(8));
        let removed = t.batch_delete(&pts);
        assert_eq!(removed, 3_000);
        assert!(t.is_empty());
        t.check_invariants(&[]);
    }

    #[test]
    fn delete_in_stages_keeps_invariants() {
        let pts = uniform::<3>(4_000, 8);
        let cfg = PimZdConfig::skew_resistant(16);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        for i in 0..4 {
            t.batch_delete(&pts[i * 1_000..(i + 1) * 1_000]);
            t.check_invariants(&pts[(i + 1) * 1_000..]);
        }
        assert!(t.is_empty());
    }

    #[test]
    fn delete_absent_points_is_noop() {
        let pts = uniform::<3>(1_000, 9);
        let absent = uniform::<3>(200, 999);
        let cfg = PimZdConfig::throughput_optimized(1_000, 8);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(8));
        let removed = t.batch_delete(&absent);
        assert!(removed <= 1);
        t.check_invariants(&pts);
    }

    #[test]
    fn duplicate_inserts_stack_and_delete_one_by_one() {
        let p = Point::new([123u32, 456, 789]);
        let cfg = PimZdConfig::throughput_optimized(100, 4);
        let mut t = PimZdTree::new(cfg, MachineConfig::with_modules(4));
        t.batch_insert(&[p; 5]);
        assert_eq!(t.len(), 5);
        assert_eq!(t.batch_delete(&[p, p]), 2);
        assert_eq!(t.len(), 3);
        t.check_invariants(&[p; 3]);
    }

    /// θ_L0 or more copies of one point land in a fragment under L0 whose
    /// root is an unsplittable leaf: it is promoted as it is, once.
    #[test]
    fn a_fat_leaf_of_duplicates_is_promoted_once() {
        let base = uniform::<3>(2_000, 5);
        let hot = base[17];
        for (cfg, copies) in [
            (PimZdConfig::skew_resistant(8), 31),
            (PimZdConfig::throughput_optimized(2_000, 8), 400),
        ] {
            assert!(copies + 1 >= cfg.theta_l0 as usize && copies > cfg.leaf_cap);
            let mut t = PimZdTree::build(&base, cfg, MachineConfig::with_modules(8));
            t.batch_insert(&vec![hot; copies]);
            let mut data = base.clone();
            data.extend(std::iter::repeat_n(hot, copies));
            t.check_invariants(&data);
            assert_eq!(t.batch_knn(&[hot], 10, Metric::L2)[0], brute(&data, &hot, 10));
            assert_eq!(t.batch_box_count(&[Aabb::point(hot)]), vec![copies as u64 + 1]);
            assert_eq!(t.batch_delete(&vec![hot; copies]), copies);
            t.check_invariants(&base);
        }
    }

    /// One batch empties L0's own points — leaving it a bare ref to its
    /// last fragment, which becomes L0 — and also deletes from that very
    /// fragment.
    #[test]
    fn a_delete_can_empty_l0_and_its_last_fragment_together() {
        let mut pts = vec![Point::new([0u32, 0, 0])];
        pts.extend([Point::new([7, 7, 7]); 100]);
        for cfg in [PimZdConfig::throughput_optimized(104, 8), PimZdConfig::skew_resistant(8)] {
            let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(8));
            assert_eq!(t.batch_delete(&pts), 101);
            assert!(t.is_empty());
            t.check_invariants(&[]);
        }
    }

    /// Fragments of a dozen nodes dissolve in chains: one delete batch
    /// collapses X onto its child Y and Y onto its child Z. Whichever of the
    /// two splices is taken first, Z ends up registered under X's parent.
    #[test]
    fn a_chain_of_collapses_in_one_batch_keeps_the_directory_whole() {
        let cfg = PimZdConfig { max_fragment_nodes: 12, ..PimZdConfig::skew_resistant(64) };
        let base = osm_like::<3>(4_000, 4_047);
        let grown = osm_like::<3>(3_000, 4_048);
        let mut t = PimZdTree::build(&base, cfg, MachineConfig::with_modules(64));
        t.batch_insert(&grown);
        assert_eq!(t.batch_delete(&base[..3_600]), 3_600);
        let mut left = grown;
        left.extend_from_slice(&base[3_600..]);
        t.check_invariants(&left);
        assert_eq!(t.batch_delete(&left[..left.len() - 10]), left.len() - 10);
        t.check_invariants(&left[left.len() - 10..]);
    }

    /// A promotion dissolves a fragment whose L1 children then hang off the
    /// split's new children, on other modules: their copies must move there
    /// from the dissolved fragment's module, and the new children need
    /// copies of their own. A jittered osm-like batch (`batch_churn` in
    /// small) promotes two fragments here; before promotions joined the
    /// cache reconcile, 32 L1 metas were left with copies on the wrong
    /// modules.
    #[test]
    fn a_promotion_moves_the_copies_it_re_parents() {
        let base = osm_like::<3>(4_000, 4_047);
        let cfg = PimZdConfig::skew_resistant(64);
        let mut t = PimZdTree::build(&base, cfg, MachineConfig::with_modules(64));
        let off_l0: Vec<_> =
            t.dir.metas.values().filter(|e| e.parent.is_none()).map(|e| e.id).collect();
        let batch = point_queries(&base, 500, 4, 4_047 ^ 0x400);
        t.batch_insert(&batch);
        let promoted = off_l0.iter().filter(|id| !t.dir.metas.contains_key(id)).count();
        assert!(promoted > 0, "the batch must promote");
        let mut all = base;
        all.extend_from_slice(&batch);
        t.check_invariants(&all);
    }

    #[test]
    fn skewed_inserts_stay_consistent() {
        let base = uniform::<3>(4_000, 10);
        let skewed = osm_like::<3>(4_000, 11);
        let cfg = PimZdConfig::skew_resistant(16);
        let mut t = PimZdTree::build(&base, cfg, MachineConfig::with_modules(16));
        for chunk in skewed.chunks(1_000) {
            t.batch_insert(chunk);
        }
        let mut all = base.clone();
        all.extend_from_slice(&skewed);
        t.check_invariants(&all);
    }

    #[test]
    fn update_stats_are_recorded() {
        let pts = uniform::<3>(2_000, 12);
        let cfg = PimZdConfig::throughput_optimized(2_000, 8);
        let mut t = PimZdTree::build(&pts[..1_000], cfg, MachineConfig::with_modules(8));
        t.batch_insert(&pts[1_000..]);
        let s = t.last_op_stats().clone();
        assert_eq!(s.batch_ops, 1_000);
        assert!(s.channel_bytes > 0);
        assert!(s.breakdown.total_s() > 0.0);
        assert!(s.breakdown.cpu_s > 0.0, "insert has host preprocessing");
    }
}
