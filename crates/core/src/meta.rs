//! Host-side meta-node directory.
//!
//! The host tracks, for every meta-node: its master module, layer, position
//! in the meta-tree (parent/children), lazy-counter bookkeeping, and which
//! modules cache its structure. This is topology-only state (O(#meta-nodes)
//! host DRAM — the host legitimately has DRAM in the PIM Model): it contains
//! no key-routing information, so queries still traverse L0 and the PIM
//! fragments to find their way. The directory is what lets the host batch
//! lazy-counter syncs, cache refreshes, and promotions without broadcasting
//! queries.

use crate::config::Layer;
use crate::frag::{MetaId, RemoteRef};
use pim_zorder::prefix::Prefix;
use rustc_hash::FxHashMap;

/// Directory entry for one meta-node.
#[derive(Clone, Debug)]
pub struct MetaInfo<const D: usize> {
    /// Meta id.
    pub id: MetaId,
    /// Master module.
    pub module: u32,
    /// Layer (L1 or L2; L0 is the host fragment, not a directory entry).
    pub layer: Layer,
    /// Parent meta (`None` = hangs off L0).
    pub parent: Option<MetaId>,
    /// Child metas.
    pub children: Vec<MetaId>,
    /// Root prefix (bookkeeping; refreshed on structural change).
    pub prefix: Prefix<D>,
    /// Counter snapshot last propagated to the parent and caches.
    pub synced_sc: u64,
    /// Host-tracked count change since the last sync (the host routes every
    /// update, so it knows each fragment's delta exactly — propagation to
    /// replicas is what lazy counters defer).
    pub pending_delta: i64,
    /// Modules holding structure caches of this fragment.
    pub cached_on: Vec<u32>,
    /// Live binary nodes (re-chunk trigger).
    pub live_nodes: u64,
    /// Structure changed since last cache refresh.
    pub dirty: bool,
}

impl<const D: usize> MetaInfo<D> {
    /// The entry of the fragment `r` refers to as it comes into being:
    /// counter in sync, no children listed, nothing cached, nothing dirty.
    pub fn new(r: &RemoteRef<D>, layer: Layer, parent: Option<MetaId>, live_nodes: u64) -> Self {
        MetaInfo {
            id: r.meta,
            module: r.module,
            layer,
            parent,
            children: Vec::new(),
            prefix: r.prefix,
            synced_sc: r.sc,
            pending_delta: 0,
            cached_on: Vec::new(),
            live_nodes,
            dirty: false,
        }
    }

    /// Current best host-side estimate of the fragment's true count.
    pub fn estimated_count(&self) -> u64 {
        (self.synced_sc as i64 + self.pending_delta).max(0) as u64
    }
}

/// The directory of all meta-nodes.
#[derive(Clone, Default)]
pub struct Directory<const D: usize> {
    /// Entries by id.
    pub metas: FxHashMap<MetaId, MetaInfo<D>>,
    next_id: MetaId,
    /// Metas whose place in the meta-tree changed since the last cache
    /// reconcile — registered, re-parented, left with one child fewer, or
    /// flipped layer — so that the cache targets around them may have
    /// moved. Drained by every update batch's maintenance, so it is empty
    /// between batches (and never checkpointed).
    touched: Vec<MetaId>,
}

impl<const D: usize> Directory<D> {
    /// Creates an empty directory. Meta id 0 is reserved for L0.
    pub fn new() -> Self {
        Self { metas: FxHashMap::default(), next_id: 1, touched: Vec::new() }
    }

    /// Allocates a fresh meta id.
    pub fn next_id(&mut self) -> MetaId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Exclusive upper bound on every id ever handed out. Ids are dense
    /// small integers, so batch grouping sizes its counting-sort scratch
    /// by this instead of hashing.
    pub fn id_bound(&self) -> MetaId {
        self.next_id
    }

    /// Rebuilds a directory from checkpointed entries and the id cursor.
    /// Restoring `next_id` (not just the entries) matters: ids must never
    /// be reissued, or a replayed batch would mint a meta id that collides
    /// with one the pre-crash run already placed. The parameters are in
    /// checkpoint layout order.
    pub(crate) fn from_parts(next_id: MetaId, metas: FxHashMap<MetaId, MetaInfo<D>>) -> Self {
        Self { metas, next_id, touched: Vec::new() }
    }

    /// Inserts an entry.
    pub fn insert(&mut self, info: MetaInfo<D>) {
        self.touched.push(info.id);
        if let Some(p) = info.parent {
            if let Some(pe) = self.metas.get_mut(&p) {
                if !pe.children.contains(&info.id) {
                    pe.children.push(info.id);
                }
            }
        }
        self.metas.insert(info.id, info);
    }

    /// Hangs `child` — if it is still registered — under `parent` (`None` =
    /// L0): sets its parent and lists it once among the parent's children.
    /// The previous parent's list is left alone: wherever this is called
    /// that parent is being dissolved or has just had its list cleared.
    pub fn adopt(&mut self, parent: Option<MetaId>, child: MetaId) {
        let Some(c) = self.metas.get_mut(&child) else { return };
        c.parent = parent;
        self.touched.push(child);
        if let Some(p) = parent {
            let siblings = &mut self.get_mut(p).children;
            if !siblings.contains(&child) {
                siblings.push(child);
            }
        }
    }

    /// Entry accessor.
    pub fn get(&self, id: MetaId) -> &MetaInfo<D> {
        &self.metas[&id]
    }

    /// Mutable entry accessor.
    pub fn get_mut(&mut self, id: MetaId) -> &mut MetaInfo<D> {
        self.metas.get_mut(&id).expect("unknown meta id")
    }

    /// Removes an entry, detaching it from its parent's child list.
    pub fn remove(&mut self, id: MetaId) -> Option<MetaInfo<D>> {
        let info = self.metas.remove(&id)?;
        if let Some(p) = info.parent {
            if let Some(pe) = self.metas.get_mut(&p) {
                pe.children.retain(|c| *c != id);
            }
            self.touched.push(p);
        }
        Some(info)
    }

    /// Records that `id` moved in the meta-tree in a way the methods above
    /// do not see (a layer flip).
    pub(crate) fn touch(&mut self, id: MetaId) {
        self.touched.push(id);
    }

    /// The metas recorded as moved so far.
    pub(crate) fn touched(&self) -> &[MetaId] {
        &self.touched
    }

    /// Hands over (and forgets) the metas recorded as moved.
    pub(crate) fn take_touched(&mut self) -> Vec<MetaId> {
        std::mem::take(&mut self.touched)
    }

    /// L1 ancestors of `id` (nearest first, excluding `id`). The walk ends
    /// at the first parent that is not L1 — or not registered, as a parent
    /// in the middle of a splice may not be.
    pub fn l1_ancestors(&self, id: MetaId) -> Vec<MetaId> {
        let mut out = Vec::new();
        let mut cur = self.metas.get(&id).and_then(|e| e.parent);
        while let Some(e) = cur.and_then(|p| self.metas.get(&p)) {
            if e.layer != Layer::L1 {
                break;
            }
            out.push(e.id);
            cur = e.parent;
        }
        out
    }

    /// L1 descendants of `id` (BFS, excluding `id`), stopping at the L1/L2
    /// border (and skipping children no longer registered).
    pub fn l1_descendants(&self, id: MetaId) -> Vec<MetaId> {
        let mut out = Vec::new();
        let mut queue: Vec<MetaId> = self.metas.get(&id).map_or(Vec::new(), |e| e.children.clone());
        while let Some(c) = queue.pop() {
            let Some(e) = self.metas.get(&c) else { continue };
            if e.layer == Layer::L1 {
                out.push(c);
                queue.extend_from_slice(&e.children);
            }
        }
        out
    }

    /// `id` — if registered — and its L1 descendants: the metas whose cache
    /// targets a change at `id` can move.
    pub(crate) fn l1_neighbourhood(&self, id: MetaId) -> Vec<MetaId> {
        if !self.metas.contains_key(&id) {
            return Vec::new();
        }
        let mut out = vec![id];
        out.extend(self.l1_descendants(id));
        out
    }

    /// Which modules should hold a structure cache of L1 meta `id`: the
    /// master modules of its L1 ancestors, excluding its own master. §3.1
    /// attaches "a copy of all its ancestors and descendants in L1" to a
    /// master; only the descendants' copies are ever read (every traversal
    /// runs downward), so only those are kept (DESIGN.md substitution 9).
    pub fn cache_targets(&self, id: MetaId) -> Vec<u32> {
        let own = self.get(id).module;
        let mut mods: Vec<u32> = self
            .l1_ancestors(id)
            .into_iter()
            .map(|m| self.get(m).module)
            .filter(|m| *m != own)
            .collect();
        mods.sort_unstable();
        mods.dedup();
        mods
    }

    /// Number of registered metas.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(id: MetaId, parent: Option<MetaId>, layer: Layer, module: u32) -> MetaInfo<3> {
        MetaInfo {
            id,
            module,
            layer,
            parent,
            children: Vec::new(),
            prefix: Prefix::root(),
            synced_sc: 0,
            pending_delta: 0,
            cached_on: Vec::new(),
            live_nodes: 1,
            dirty: false,
        }
    }

    #[test]
    fn parent_child_links_maintained() {
        let mut d = Directory::<3>::new();
        d.insert(info(1, None, Layer::L1, 0));
        d.insert(info(2, Some(1), Layer::L1, 1));
        d.insert(info(3, Some(1), Layer::L2, 2));
        assert_eq!(d.get(1).children, vec![2, 3]);
        d.remove(2);
        assert_eq!(d.get(1).children, vec![3]);
    }

    #[test]
    fn l1_ancestors_stop_at_l0() {
        let mut d = Directory::<3>::new();
        d.insert(info(1, None, Layer::L1, 0));
        d.insert(info(2, Some(1), Layer::L1, 1));
        d.insert(info(3, Some(2), Layer::L1, 2));
        assert_eq!(d.l1_ancestors(3), vec![2, 1]);
        assert!(d.l1_ancestors(1).is_empty());
    }

    #[test]
    fn l1_descendants_stop_at_l2() {
        let mut d = Directory::<3>::new();
        d.insert(info(1, None, Layer::L1, 0));
        d.insert(info(2, Some(1), Layer::L1, 1));
        d.insert(info(3, Some(2), Layer::L2, 2));
        d.insert(info(4, Some(3), Layer::L2, 3));
        let desc = d.l1_descendants(1);
        assert_eq!(desc, vec![2]);
    }

    #[test]
    fn cache_targets_are_the_l1_ancestors_modules() {
        let mut d = Directory::<3>::new();
        d.insert(info(1, None, Layer::L1, 10));
        d.insert(info(2, Some(1), Layer::L1, 11));
        d.insert(info(3, Some(2), Layer::L1, 12));
        d.insert(info(4, Some(2), Layer::L2, 13));
        d.insert(info(5, Some(3), Layer::L1, 10));
        assert_eq!(d.cache_targets(2), vec![10]);
        assert_eq!(d.cache_targets(3), vec![10, 11]);
        assert_eq!(d.cache_targets(5), vec![11, 12], "not on its own master's module");
        assert_eq!(d.l1_neighbourhood(2), vec![2, 3, 5]);
    }

    #[test]
    fn estimated_count_tracks_pending() {
        let mut e = info(1, None, Layer::L1, 0);
        e.synced_sc = 100;
        e.pending_delta = -30;
        assert_eq!(e.estimated_count(), 70);
    }
}
