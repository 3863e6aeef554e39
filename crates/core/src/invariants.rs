//! Whole-index invariant checking (test support).
//!
//! Reassembles the logical tree from L0 and every module's master fragments
//! and verifies:
//!
//! 1. **Point completeness** — the stored multiset equals the expected one.
//! 2. **Structural validity** — child prefixes extend their routing regions,
//!    every internal node has two children, leaves respect capacity (except
//!    duplicate-key leaves), fragment-local subtrees have exact counts.
//! 3. **Lemma 3.1** — every replicated counter snapshot `SC` satisfies
//!    `T/2 ≤ SC ≤ 2T` against the true subtree size `T`.
//! 4. **Directory consistency** — every directory meta is referenced exactly
//!    once, from the fragment the directory names as its parent, and is
//!    listed among that parent's children and nowhere else; every reference
//!    resolves to an installed master on the recorded module; every cache
//!    copy has its master's arena, topology and prefixes, and no count
//!    above its master's; every pull the host holds is its master, exactly.
//! 6. **Cache placement** — an L1 meta's structure copies sit exactly on
//!    its cache targets (the masters' modules of its L1 ancestors, §3.1),
//!    `cached_on` lists exactly those, and no other meta has a copy
//!    anywhere.
//! 5. **Box soundness** — the box of every node's prefix (and so of every
//!    `RemoteRef`'s, which item 2 pins to its target root's) contains every
//!    point beneath it: the one property the kNN, ball and box kernels prune
//!    on, checked against the boxes `Prefix::to_box` hands them.
//! 7. **Local memory** — no module holds more resident bytes (masters plus
//!    structure copies) than `MachineConfig::local_mem_bytes`.

use crate::config::Layer;
use crate::frag::{BKind, ChildRef, Fragment, Keyed, MetaId};
use crate::host::PimZdTree;
use pim_geom::{Aabb, Point};
use pim_sim::wire::{fnv_fold, FNV_OFFSET};
use pim_zorder::prefix::Prefix;
use rustc_hash::FxHashMap;

impl<const D: usize> PimZdTree<D> {
    /// Panics (with a description) if any invariant fails. `expected` is the
    /// point multiset the index should currently store.
    pub fn check_invariants(&self, expected: &[Point<D>]) {
        let cap = self.sys.config().local_mem_bytes;
        for i in 0..self.sys.n_modules() {
            let resident = self.sys.peek(i).resident_bytes();
            assert!(resident <= cap, "module {i} holds {resident} B, over its {cap} B of memory");
        }
        let Some(l0) = self.l0.as_ref() else {
            assert!(expected.is_empty(), "index empty but {} points expected", expected.len());
            assert_eq!(self.n_points, 0);
            assert!(self.held.is_empty(), "the host holds pulls of an empty index");
            return;
        };
        assert_eq!(self.n_points, expected.len(), "n_points out of date");

        // Gather every master fragment (by meta) for resolution.
        let mut masters: FxHashMap<MetaId, (&Fragment<D>, u32)> = FxHashMap::default();
        for i in 0..self.sys.n_modules() {
            for (id, f) in &self.sys.peek(i).masters {
                let dup = masters.insert(*id, (f, i as u32));
                assert!(dup.is_none(), "meta {id} installed on two modules");
            }
        }
        // Directory ↔ installed masters agree.
        for (id, info) in &self.dir.metas {
            let (_, module) = masters
                .get(id)
                .unwrap_or_else(|| panic!("directory meta {id} has no installed master"));
            assert_eq!(*module, info.module, "directory module wrong for meta {id}");
        }
        for id in masters.keys() {
            assert!(self.dir.metas.contains_key(id), "installed meta {id} not in directory");
        }
        // Every meta is listed by its parent, once, and only there.
        let mut listed: FxHashMap<MetaId, MetaId> = FxHashMap::default();
        for (id, info) in &self.dir.metas {
            for c in &info.children {
                let twice = listed.insert(*c, *id);
                assert!(twice.is_none(), "meta {c} is listed by {id} and by {}", twice.unwrap());
            }
        }
        for (id, info) in &self.dir.metas {
            assert_eq!(listed.remove(id), info.parent, "meta {id} is not listed by its parent");
        }
        assert!(listed.is_empty(), "children lists name unregistered metas: {listed:?}");

        // Walk the logical tree.
        let mut points: Vec<Keyed<D>> = Vec::new();
        let mut seen_metas: Vec<MetaId> = Vec::new();
        let (true_total, _) =
            self.walk_node(l0, l0.root, None, &masters, &mut points, &mut seen_metas);
        assert_eq!(true_total as usize, expected.len(), "logical tree point count");

        // Every master referenced exactly once.
        seen_metas.sort_unstable();
        let mut unique = seen_metas.clone();
        unique.dedup();
        assert_eq!(seen_metas.len(), unique.len(), "a meta is referenced twice");
        assert_eq!(unique.len(), masters.len(), "orphan master fragments exist");

        // Multiset equality.
        let mut got: Vec<[u32; D]> = points.iter().map(|(_, p)| p.coords).collect();
        let mut want: Vec<[u32; D]> = expected.iter().map(|p| p.coords).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "stored point multiset diverged");

        // Cache copies mirror their masters, counting no more than they do.
        for i in 0..self.sys.n_modules() {
            for (id, cache) in &self.sys.peek(i).caches {
                let Some((master, _)) = masters.get(id) else {
                    panic!("cache of unknown meta {id} on module {i}")
                };
                check_copy(&format!("copy of meta {id} on module {i}"), master, cache);
            }
        }
        for (id, (held, _)) in &self.held {
            let Some((master, _)) = masters.get(id) else {
                panic!("the host holds a pull of unknown meta {id}")
            };
            check_held(&format!("held pull of meta {id}"), master, held);
        }

        // Copies sit where the directory says, and that is where §3.1 puts
        // them.
        let mut holders: FxHashMap<MetaId, Vec<u32>> = FxHashMap::default();
        for i in 0..self.sys.n_modules() {
            for id in self.sys.peek(i).caches.keys() {
                holders.entry(*id).or_default().push(i as u32);
            }
        }
        for (id, info) in &self.dir.metas {
            let targets =
                if info.layer == Layer::L1 { self.dir.cache_targets(*id) } else { Vec::new() };
            assert_eq!(info.cached_on, targets, "cached_on of meta {id} is not its cache targets");
            let held = holders.remove(id).unwrap_or_default();
            assert_eq!(held, targets, "copies of meta {id} are not on its cache targets");
        }
    }

    /// Recursively verifies the subtree rooted at `idx` of `frag`; returns
    /// the true point count and the hull of the points (no subtree is empty).
    fn walk_node(
        &self,
        frag: &Fragment<D>,
        idx: u32,
        region: Option<(Prefix<D>, u8)>,
        masters: &FxHashMap<MetaId, (&Fragment<D>, u32)>,
        points: &mut Vec<Keyed<D>>,
        seen: &mut Vec<MetaId>,
    ) -> (u64, Aabb<D>) {
        let node = frag.node(idx);
        if let Some((ppre, side)) = region {
            assert!(
                node.prefix.len > ppre.len,
                "child prefix must extend parent: meta={} parent=({:#x},{}) child=({:#x},{})",
                frag.meta,
                ppre.key.0,
                ppre.len,
                node.prefix.key.0,
                node.prefix.len
            );
            assert!(
                ppre.child(side).covers_prefix(&node.prefix),
                "node escapes its routing region: meta={} parent=({:#x},{}) side={} child=({:#x},{})",
                frag.meta,
                ppre.key.0,
                ppre.len,
                side,
                node.prefix.key.0,
                node.prefix.len
            );
        }
        let (total, hull) = match &node.kind {
            BKind::LeafStub => panic!("stub leaf in a master fragment"),
            BKind::Leaf { points: pts } => {
                assert!(!pts.is_empty(), "empty leaf must be spliced");
                assert!(
                    pts.len() <= frag.leaf_cap || pts.keys().windows(2).all(|w| w[0] == w[1]),
                    "oversized leaf without duplicate keys"
                );
                for (k, p) in pts.iter() {
                    assert_eq!(k, pim_zorder::ZKey::<D>::encode(&p), "stale key in leaf");
                    assert!(node.prefix.covers(k), "point outside its leaf prefix");
                }
                assert_eq!(node.count as usize, pts.len(), "leaf count mismatch");
                pts.append_to(points);
                let mut hull = Aabb::point(pts.point(0));
                pts.iter().for_each(|(_, p)| hull.expand(&p));
                (pts.len() as u64, hull)
            }
            BKind::Internal { left, right } => {
                let mut total = 0u64;
                let mut hull: Option<Aabb<D>> = None;
                for (side, child) in [(0u8, left), (1u8, right)] {
                    let (t, child_hull) = match child {
                        ChildRef::Local(c) => self.walk_node(
                            frag,
                            *c,
                            Some((node.prefix, side)),
                            masters,
                            points,
                            seen,
                        ),
                        ChildRef::Remote(r) => {
                            seen.push(r.meta);
                            let (child_frag, module) = masters.get(&r.meta).unwrap_or_else(|| {
                                panic!(
                                    "dangling ref to meta {} (referenced from meta {})",
                                    r.meta, frag.meta
                                )
                            });
                            // A ref's module is advisory: it goes stale when
                            // its target is re-homed off a fail-stopped one.
                            assert!(
                                *module == r.module || self.sys.is_dead(r.module as usize),
                                "ref to meta {} names module {}, not its master's {module}",
                                r.meta,
                                r.module
                            );
                            assert_eq!(
                                self.dir.get(r.meta).parent,
                                Some(frag.meta).filter(|m| *m != crate::host::L0_META),
                                "directory parent of meta {} is not the holder of its ref",
                                r.meta
                            );
                            let croot = child_frag.root_node();
                            assert_eq!(
                                croot.prefix, r.prefix,
                                "boundary prefix stale for meta {}",
                                r.meta
                            );
                            let (t, child_hull) = self.walk_node(
                                child_frag,
                                child_frag.root,
                                Some((node.prefix, side)),
                                masters,
                                points,
                                seen,
                            );
                            // Lemma 3.1 on the replicated snapshot.
                            assert!(
                                r.sc >= t.div_ceil(2) && r.sc <= 2 * t.max(1),
                                "lazy counter out of band for meta {}: sc={} T={}",
                                r.meta,
                                r.sc,
                                t
                            );
                            (t, child_hull)
                        }
                    };
                    assert!(t > 0, "empty child subtree must be spliced");
                    total += t;
                    hull = Some(hull.map_or(child_hull, |h| h.union(&child_hull)));
                }
                // The node's own count: exact when fully local, otherwise a
                // snapshot-combined value — hold it to the Lemma 3.1 band.
                assert!(
                    node.count >= total.div_ceil(2) && node.count <= 2 * total,
                    "internal count out of band: count={} T={}",
                    node.count,
                    total
                );
                (total, hull.expect("an internal node has two children"))
            }
        };
        assert!(
            node.prefix.to_box().contains_box(&hull),
            "prefix box misses points beneath it: meta={} prefix=({:#x},{}) box={:?} hull={:?}",
            frag.meta,
            node.prefix.key.0,
            node.prefix.len,
            node.prefix.to_box(),
            hull
        );
        (total, hull)
    }

    /// A digest of the data the index holds, apart from how it is cached
    /// and what it cost: the point count, L0 and every master fragment
    /// (walked from the root: node prefixes and counts, leaf points, remote
    /// refs with their counters), the id cursor, and each directory entry's
    /// module, layer, parent, children, prefix and counters. Structure
    /// caches, `cached_on`, `dirty`, arena order and simulator counters are
    /// left out, so two trees that differ only in cache traffic digest
    /// alike.
    pub fn data_digest(&self) -> u64 {
        let mut h = Fnv(FNV_OFFSET);
        h.word(self.n_points as u64);
        if let Some(l0) = &self.l0 {
            h.subtree(l0, l0.root);
        }
        let mut masters: Vec<&Fragment<D>> = (0..self.sys.n_modules())
            .flat_map(|i| self.sys.peek(i).masters.values().map(|f| &**f))
            .collect();
        masters.sort_unstable_by_key(|f| f.meta);
        for f in masters {
            h.word(f.meta);
            h.subtree(f, f.root);
        }
        h.word(self.dir.id_bound());
        let mut ids: Vec<MetaId> = self.dir.metas.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let e = self.dir.get(id);
            let mut children = e.children.clone();
            children.sort_unstable();
            h.word(id);
            h.word(e.module as u64);
            h.word(e.layer as u64);
            h.word(e.parent.map_or(u64::MAX, |p| p));
            h.word(children.len() as u64);
            children.iter().for_each(|&c| h.word(c));
            h.prefix(&e.prefix);
            h.word(e.synced_sc);
            h.word(e.pending_delta as u64);
            h.word(e.live_nodes);
        }
        h.0
    }

    /// Layer sanity: every directory meta's recorded layer is within one
    /// hysteresis band of what its true count implies. Separate from
    /// `check_invariants` because tests drive updates that legitimately
    /// defer transitions until maintenance.
    pub fn check_layering(&self) {
        for info in self.dir.metas.values() {
            match info.layer {
                Layer::L0 => panic!("directory metas are never L0"),
                Layer::L1 | Layer::L2 => {}
            }
        }
    }
}

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        self.0 = w.to_le_bytes().iter().fold(self.0, |fp, &b| fnv_fold(fp, u64::from(b)));
    }

    fn prefix<const D: usize>(&mut self, p: &Prefix<D>) {
        self.word(p.key.0);
        self.word(p.len as u64);
    }

    /// The subtree below node `idx` of `frag`, pre-order.
    fn subtree<const D: usize>(&mut self, frag: &Fragment<D>, idx: u32) {
        let node = frag.node(idx);
        self.prefix(&node.prefix);
        self.word(node.count);
        match &node.kind {
            BKind::LeafStub => self.word(0),
            BKind::Leaf { points } => {
                self.word(1);
                self.word(points.len() as u64);
                for (_, p) in points.iter() {
                    p.coords.iter().for_each(|&c| self.word(c as u64));
                }
            }
            BKind::Internal { left, right } => {
                self.word(2);
                for child in [left, right] {
                    match child {
                        ChildRef::Local(c) => self.subtree(frag, *c),
                        ChildRef::Remote(r) => {
                            self.word(3);
                            self.word(r.meta);
                            self.word(r.sc);
                            self.prefix(&r.prefix);
                        }
                    }
                }
            }
        }
    }
}

/// Holds a structure copy to its master: the same arena, root and free
/// slots; every live node with the master's prefix and kind (a stub for a
/// leaf, the same local children, refs to the same metas with the same
/// prefixes); and no count — of a node or a ref — above the master's. A
/// copy may undercount, which only ever moves a kNN anchor up to a node
/// that holds enough points; it may never overcount.
fn check_copy<const D: usize>(at: &str, master: &Fragment<D>, copy: &Fragment<D>) {
    let free = |f: &Fragment<D>| {
        let mut v = f.free().to_vec();
        v.sort_unstable();
        v.dedup();
        v
    };
    let slots = free(master);
    assert_eq!(
        (copy.root, copy.nodes().len(), free(copy)),
        (master.root, master.nodes().len(), slots.clone()),
        "{at}: the arena is not the master's"
    );
    let live = master.nodes().iter().zip(copy.nodes()).enumerate();
    for (idx, (m, c)) in live.filter(|(i, _)| slots.binary_search(&(*i as u32)).is_err()) {
        assert_eq!(c.prefix, m.prefix, "{at}: prefix of node {idx}");
        assert!(c.count <= m.count, "{at}: node {idx} counts {} > {}", c.count, m.count);
        let same = match (&m.kind, &c.kind) {
            (BKind::Leaf { .. }, BKind::LeafStub) => true,
            (BKind::Internal { left: ml, right: mr }, BKind::Internal { left: cl, right: cr }) => {
                [(ml, cl), (mr, cr)].into_iter().all(|pair| match pair {
                    (ChildRef::Local(a), ChildRef::Local(b)) => a == b,
                    (ChildRef::Remote(a), ChildRef::Remote(b)) => {
                        (a.meta, a.prefix) == (b.meta, b.prefix) && b.sc <= a.sc
                    }
                    _ => false,
                })
            }
            _ => false,
        };
        assert!(same, "{at}: node {idx} differs from the master's");
    }
}

/// Holds a pull the host kept to its master, exactly: the same id, module,
/// leaf capacity, arena (stale slots too), root, free list in release
/// order, chunk directory and policy, and every node's prefix, count and
/// payload — leaf points, local children, refs with their counters. A held
/// pull is read in place of its master, so it may differ in nothing.
fn check_held<const D: usize>(at: &str, master: &Fragment<D>, held: &Fragment<D>) {
    let shape = |f: &Fragment<D>| {
        (f.meta, f.master_module, f.leaf_cap, f.root, f.nodes().len(), f.free().to_vec())
    };
    assert_eq!(shape(held), shape(master), "{at}: the arena is not the master's");
    let dir = |f: &Fragment<D>| {
        (f.dir_bits, f.dense_min, f.chunk_dir().bits, f.chunk_dir().slots.clone())
    };
    assert_eq!(dir(held), dir(master), "{at}: the chunk directory is not the master's");
    for (idx, (m, h)) in master.nodes().iter().zip(held.nodes()).enumerate() {
        assert_eq!((h.prefix, h.count), (m.prefix, m.count), "{at}: node {idx}");
        let same = match (&m.kind, &h.kind) {
            (BKind::Leaf { points: a }, BKind::Leaf { points: b }) => a == b,
            (BKind::LeafStub, BKind::LeafStub) => true,
            (BKind::Internal { left: ml, right: mr }, BKind::Internal { left: hl, right: hr }) => {
                [(ml, hl), (mr, hr)].into_iter().all(|pair| match pair {
                    (ChildRef::Local(a), ChildRef::Local(b)) => a == b,
                    (ChildRef::Remote(a), ChildRef::Remote(b)) => a == b,
                    _ => false,
                })
            }
            _ => false,
        };
        assert!(same, "{at}: node {idx} differs from the master's");
    }
}

#[cfg(test)]
mod tests {
    use crate::config::PimZdConfig;
    use crate::host::PimZdTree;
    use pim_sim::MachineConfig;
    use pim_workloads::{osm_like, uniform};

    #[test]
    fn fresh_build_passes_throughput_mode() {
        let pts = uniform::<3>(8_000, 1);
        let cfg = PimZdConfig::throughput_optimized(8_000, 16);
        let t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        t.check_invariants(&pts);
        t.check_layering();
    }

    #[test]
    fn fresh_build_passes_skew_mode() {
        let pts = uniform::<3>(12_000, 2);
        let cfg = PimZdConfig::skew_resistant(16);
        let t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        t.check_invariants(&pts);
    }

    #[test]
    fn fresh_build_passes_on_skewed_data() {
        let pts = osm_like::<3>(10_000, 3);
        let cfg = PimZdConfig::skew_resistant(16);
        let t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        t.check_invariants(&pts);
    }

    #[test]
    fn a_module_over_its_local_memory_fails() {
        let pts = uniform::<3>(8_000, 4);
        let cfg = PimZdConfig::throughput_optimized(8_000, 16);
        let t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        let fullest = (0..16).map(|i| t.sys.peek(i).resident_bytes()).max().unwrap();
        let at = |local_mem_bytes| {
            let machine = MachineConfig { local_mem_bytes, ..MachineConfig::with_modules(16) };
            let t = PimZdTree::build(&pts, cfg, machine);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.check_invariants(&pts)))
        };
        assert!(at(fullest).is_ok(), "a module may fill its local memory exactly");
        assert!(at(1 << 10).is_err(), "1 KiB of module memory holds no fragment");
        let err = at(fullest - 1).expect_err("one byte over the cap is an error");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("B of memory"), "{msg}");
    }

    #[test]
    fn empty_index_passes() {
        let cfg = PimZdConfig::throughput_optimized(16, 4);
        let t = PimZdTree::<3>::new(cfg, MachineConfig::with_modules(4));
        t.check_invariants(&[]);
    }
}
