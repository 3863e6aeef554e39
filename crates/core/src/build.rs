//! Bulk construction: canonical tree → layer partition → distribution.
//!
//! Build is the paper's warmup phase (untimed): the host constructs the
//! canonical compressed zd-tree, carves it into L0 plus subtree-size chunks
//! (§3.2), places each chunk's master on a hash-randomized module, and
//! installs the L1 ancestor/descendant caches (§3.1).

use crate::config::Layer;
use crate::frag::{BKind, BNode, ChildRef, Fragment, Keyed, MetaId, RemoteRef};
use crate::host::PimZdTree;
use crate::meta::MetaInfo;
use crate::module::MgmtTask;
use pim_geom::Point;
use pim_sim::hash_place;
use pim_zorder::prefix::Prefix;
use pim_zorder::ZKey;
use rayon::prelude::*;

/// Temporary host-side node used during construction.
enum TmpKind<const D: usize> {
    Leaf(Vec<Keyed<D>>),
    Internal(usize, usize),
}

struct TmpNode<const D: usize> {
    prefix: Prefix<D>,
    count: u64,
    kind: TmpKind<D>,
}

/// Builds the canonical compressed tree into a temp arena; returns root.
fn build_tmp<const D: usize>(
    arena: &mut Vec<TmpNode<D>>,
    items: &[Keyed<D>],
    leaf_cap: usize,
) -> usize {
    debug_assert!(!items.is_empty());
    let first = items.first().unwrap().0;
    let last = items.last().unwrap().0;
    let lcp = first.common_prefix_len(last);
    if items.len() <= leaf_cap || first == last {
        arena.push(TmpNode {
            prefix: Prefix::new(first, lcp),
            count: items.len() as u64,
            kind: TmpKind::Leaf(items.to_vec()),
        });
        return arena.len() - 1;
    }
    let split = items.partition_point(|(k, _)| k.bit(lcp) == 0);
    let l = build_tmp(arena, &items[..split], leaf_cap);
    let r = build_tmp(arena, &items[split..], leaf_cap);
    arena.push(TmpNode {
        prefix: Prefix::new(first, lcp),
        count: items.len() as u64,
        kind: TmpKind::Internal(l, r),
    });
    arena.len() - 1
}

struct Carver<'a, const D: usize> {
    cfg: crate::config::PimZdConfig,
    p: usize,
    tmp: &'a [TmpNode<D>],
    dir: &'a mut crate::meta::Directory<D>,
    frags: Vec<Fragment<D>>,
}

impl<const D: usize> Carver<'_, D> {
    /// Copies node `idx` into L0, recursing; small children become chunks.
    fn carve_l0(&mut self, idx: usize, l0: &mut Fragment<D>) -> u32 {
        let n = &self.tmp[idx];
        let kind = match &n.kind {
            TmpKind::Leaf(pts) => BKind::Leaf { points: crate::soa::PointSet::from_slice(pts) },
            TmpKind::Internal(l, r) => {
                let lr = self.l0_child(*l, l0);
                let rr = self.l0_child(*r, l0);
                BKind::Internal { left: lr, right: rr }
            }
        };
        push_node(l0, BNode { prefix: n.prefix, count: n.count, kind })
    }

    fn l0_child(&mut self, idx: usize, l0: &mut Fragment<D>) -> ChildRef<D> {
        if self.tmp[idx].count >= self.cfg.theta_l0 {
            ChildRef::Local(self.carve_l0(idx, l0))
        } else {
            ChildRef::Remote(self.new_chunk(idx, None))
        }
    }

    /// Starts a new meta-node chunk rooted at `idx`.
    fn new_chunk(&mut self, idx: usize, parent: Option<MetaId>) -> RemoteRef<D> {
        let id = self.dir.next_id();
        let module = hash_place(self.cfg.placement_seed, id, self.p) as u32;
        let n = &self.tmp[idx];
        let layer = self.cfg.layer_of(n.count);
        let chunk_root_count = n.count;
        let mut frag = Fragment {
            meta: id,
            master_module: module,
            nodes: Vec::new(),
            free: Vec::new(),
            root: 0,
            leaf_cap: self.cfg.leaf_cap,
            chunk_dir: Default::default(),
            dir_bits: self.cfg.chunk_dir_bits(),
            dense_min: self.cfg.chunk_dense_min(),
        };
        let root_local = self.carve_chunk(idx, &mut frag, chunk_root_count, layer, id, module);
        frag.root = root_local;
        frag.rebuild_chunk_dir();
        let r = RemoteRef { meta: id, module, prefix: n.prefix, sc: n.count };
        let info = MetaInfo::new(&r, layer, parent, frag.live_nodes() as u64);
        self.dir.insert(info);
        self.frags.push(frag);
        r
    }

    /// Copies node `idx` into `frag`, applying the §3.2 chunk rule to its
    /// children.
    fn carve_chunk(
        &mut self,
        idx: usize,
        frag: &mut Fragment<D>,
        chunk_root_count: u64,
        layer: Layer,
        self_meta: MetaId,
        _module: u32,
    ) -> u32 {
        let n = &self.tmp[idx];
        let kind = match &n.kind {
            TmpKind::Leaf(pts) => BKind::Leaf { points: crate::soa::PointSet::from_slice(pts) },
            TmpKind::Internal(l, r) => {
                let mut slot = [ChildRef::Local(0); 2];
                for (i, &c) in [*l, *r].iter().enumerate() {
                    let ccount = self.tmp[c].count;
                    // Stay in the chunk iff T(child) > T(chunk root)/B, the
                    // child is in the same layer, and the fragment has room.
                    let stays = ccount * self.cfg.chunk_b > chunk_root_count
                        && self.cfg.layer_of(ccount) == layer
                        && frag.nodes.len() < self.cfg.max_fragment_nodes;
                    slot[i] = if stays {
                        ChildRef::Local(self.carve_chunk(
                            c,
                            frag,
                            chunk_root_count,
                            layer,
                            self_meta,
                            _module,
                        ))
                    } else {
                        ChildRef::Remote(self.new_chunk(c, Some(self_meta)))
                    };
                }
                BKind::Internal { left: slot[0], right: slot[1] }
            }
        };
        push_node(frag, BNode { prefix: n.prefix, count: n.count, kind })
    }
}

fn push_node<const D: usize>(frag: &mut Fragment<D>, node: BNode<D>) -> u32 {
    frag.nodes.push(node);
    (frag.nodes.len() - 1) as u32
}

impl<const D: usize> PimZdTree<D> {
    /// Builds the index over `points` (the warmup phase: untimed, but the
    /// resulting layout is exactly what the measured phases operate on).
    pub fn build(
        points: &[Point<D>],
        cfg: crate::config::PimZdConfig,
        machine: pim_sim::MachineConfig,
    ) -> Self {
        Self::build_with_cpu(points, cfg, machine, pim_memsim::CpuConfig::xeon())
    }

    /// [`Self::build`] with an explicit host CPU model.
    pub fn build_with_cpu(
        points: &[Point<D>],
        cfg: crate::config::PimZdConfig,
        machine: pim_sim::MachineConfig,
        cpu: pim_memsim::CpuConfig,
    ) -> Self {
        let mut t = Self::new_with_cpu(cfg, machine, cpu);
        if points.is_empty() {
            return t;
        }
        // Warmup: nothing is charged (and, being unaccounted, nothing is
        // journaled — the label only matters if a caller re-enables
        // accounting to trace construction itself).
        t.sys.push_phase("build");
        t.sys.accounting = false;
        t.meter.enabled = false;

        // Parallel encode + radix sort; the (key, coords) total key makes
        // the sort's output canonical at any thread count, so the carved
        // layout — and every downstream journal — is deterministic.
        let mut items: Vec<Keyed<D>> =
            points.par_iter().map(|p| (ZKey::<D>::encode(p), *p)).collect();
        crate::frag::sort_keyed(&mut items);

        let mut tmp: Vec<TmpNode<D>> = Vec::with_capacity(2 * items.len() / cfg.leaf_cap + 4);
        let root = build_tmp(&mut tmp, &items, cfg.leaf_cap);

        let mut l0 = Fragment {
            meta: crate::host::L0_META,
            master_module: u32::MAX,
            nodes: Vec::new(),
            free: Vec::new(),
            root: 0,
            leaf_cap: cfg.leaf_cap,
            // L0 is host-resident and LLC-warm; it needs no jump table.
            chunk_dir: Default::default(),
            dir_bits: 0,
            dense_min: 0,
        };
        let p = t.sys.n_modules();
        let mut carver = Carver { cfg, p, tmp: &tmp, dir: &mut t.dir, frags: Vec::new() };
        // The root always lives in L0 (the host must be able to route).
        let l0_root = carver.carve_l0(root, &mut l0);
        l0.root = l0_root;
        let frags = std::mem::take(&mut carver.frags);

        // Distribute masters.
        let mut tasks = t.task_matrix::<MgmtTask<D>>();
        for f in frags {
            tasks[f.master_module as usize].push(MgmtTask::InstallMaster(f));
        }
        t.mgmt_round(tasks);

        t.l0 = Some(l0);
        t.n_points = items.len();

        // Install L1 caches (§3.1 partially-shared layer).
        let l1_metas: Vec<MetaId> =
            t.dir.metas.values().filter(|m| m.layer == Layer::L1).map(|m| m.id).collect();
        t.install_caches(&l1_metas);

        t.update_l0_replication();
        t.sys.accounting = true;
        t.meter.enabled = true;
        t.sys.pop_phase();
        t
    }

    /// Installs/updates structure caches for the given L1 metas on their
    /// target modules (ancestor/descendant masters). Used at build and after
    /// structural maintenance.
    pub(crate) fn install_caches(&mut self, metas: &[MetaId]) {
        if metas.is_empty() {
            return;
        }
        // Fetch current structures from masters (round 1)…
        let live: Vec<MetaId> =
            metas.iter().copied().filter(|m| self.dir.metas.contains_key(m)).collect();
        let to_pull: Vec<MetaId> = live
            .iter()
            .copied()
            .filter(|&m| {
                self.dir.get(m).layer == Layer::L1 && !self.dir.cache_targets(m).is_empty()
            })
            .collect();
        let pulled = self.pull_structures(&to_pull);
        // …then install on each target and drop stale holders (round 2).
        let mut tasks = self.task_matrix::<MgmtTask<D>>();
        let mut any = false;
        for &m in &live {
            let targets = if self.dir.get(m).layer == Layer::L1 {
                self.dir.cache_targets(m)
            } else {
                Vec::new()
            };
            for &old in &self.dir.get(m).cached_on.clone() {
                if !targets.contains(&old) {
                    tasks[old as usize].push(MgmtTask::DropCache(m));
                    any = true;
                }
            }
            if let Some(clone) = pulled.get(&m) {
                for &module in &targets {
                    tasks[module as usize].push(MgmtTask::InstallCache(clone.clone()));
                    any = true;
                }
            }
            self.dir.get_mut(m).cached_on = targets;
            self.dir.get_mut(m).dirty = false;
        }
        if any {
            self.mgmt_round(tasks);
        }
    }

    /// Pulls structure-only clones of the given metas (round).
    pub(crate) fn pull_structures(
        &mut self,
        metas: &[MetaId],
    ) -> rustc_hash::FxHashMap<MetaId, Fragment<D>> {
        let mut tasks = self.task_matrix::<MgmtTask<D>>();
        for &m in metas {
            tasks[self.dir.get(m).module as usize].push(MgmtTask::PullStructure(m));
        }
        let replies = self.mgmt_round(tasks);
        let mut out = rustc_hash::FxHashMap::default();
        for per_module in replies {
            for r in per_module {
                if let crate::module::MgmtReply::Pulled(f) = r {
                    out.insert(f.meta, f);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PimZdConfig;
    use pim_sim::MachineConfig;
    use pim_workloads::uniform;

    #[test]
    fn build_distributes_all_points() {
        let pts = uniform::<3>(5_000, 1);
        let cfg = PimZdConfig::throughput_optimized(5_000, 16);
        let t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        assert_eq!(t.len(), 5_000);
        // Every point lives in exactly one master leaf.
        let mut total = t.l0.as_ref().unwrap().local_points().len();
        for i in 0..t.n_modules() {
            for f in t.sys.peek(i).masters.values() {
                total += f.local_points().len();
            }
        }
        assert_eq!(total, 5_000);
    }

    #[test]
    fn throughput_layout_has_no_l2_and_no_caches() {
        let pts = uniform::<3>(5_000, 2);
        let cfg = PimZdConfig::throughput_optimized(5_000, 16);
        let t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        for m in t.dir.metas.values() {
            assert_eq!(m.layer, Layer::L1, "θ_L1 = 1 ⇒ every chunk is L1");
            assert!(m.parent.is_none(), "chunks hang directly off L0");
            assert!(m.cached_on.is_empty(), "whole-subtree chunks need no caching");
        }
    }

    #[test]
    fn skew_layout_has_l1_and_l2_with_caches() {
        // θ_L0/θ_L1 must exceed B for multi-level L1 chunking (and hence
        // ancestor/descendant caching) to appear: use 64 modules.
        let pts = uniform::<3>(50_000, 3);
        let cfg = PimZdConfig::skew_resistant(64);
        let t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(64));
        let l1 = t.dir.metas.values().filter(|m| m.layer == Layer::L1).count();
        let l2 = t.dir.metas.values().filter(|m| m.layer == Layer::L2).count();
        assert!(l1 > 0, "expected L1 metas");
        assert!(l2 > 0, "expected L2 metas");
        let chained = t.dir.metas.values().any(|m| m.layer == Layer::L1 && m.parent.is_some());
        assert!(chained, "expected L1 metas hanging under L1 parents");
        // Deep L1 chains imply caching somewhere.
        let cached: usize = t.dir.metas.values().map(|m| m.cached_on.len()).sum();
        assert!(cached > 0, "expected installed caches");
    }

    #[test]
    fn l0_respects_threshold() {
        let pts = uniform::<3>(10_000, 4);
        let cfg = PimZdConfig::skew_resistant(16);
        let t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        let l0 = t.l0.as_ref().unwrap();
        for (i, n) in l0.nodes.iter().enumerate() {
            if i as u32 == l0.root {
                continue; // root is always host-resident
            }
            assert!(
                n.count >= cfg.theta_l0,
                "L0 node with count {} < θ_L0 {}",
                n.count,
                cfg.theta_l0
            );
        }
    }

    #[test]
    fn fragment_sizes_bounded_in_skew_mode() {
        let pts = uniform::<3>(30_000, 5);
        let cfg = PimZdConfig::skew_resistant(16);
        let t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
        for i in 0..t.n_modules() {
            for f in t.sys.peek(i).masters.values() {
                assert!(
                    f.live_nodes() <= cfg.max_fragment_nodes,
                    "fragment {} has {} nodes",
                    f.meta,
                    f.live_nodes()
                );
            }
        }
    }

    #[test]
    fn placement_spreads_masters() {
        let pts = uniform::<3>(30_000, 6);
        let cfg = PimZdConfig::skew_resistant(32);
        let t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(32));
        let mut counts = vec![0usize; 32];
        for m in t.dir.metas.values() {
            counts[m.module as usize] += 1;
        }
        let nonempty = counts.iter().filter(|&&c| c > 0).count();
        assert!(nonempty > 16, "masters should spread over modules, got {nonempty}");
    }
}
