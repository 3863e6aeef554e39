//! Bulk construction: canonical tree → layer partition → distribution.
//!
//! Build is the paper's warmup phase (untimed): the host constructs the
//! canonical compressed zd-tree, carves it into L0 plus subtree-size chunks
//! (§3.2), places each chunk's master on a hash-randomized module, and
//! installs the L1 ancestor/descendant caches (§3.1).

use crate::config::{Layer, PimZdConfig};
use crate::frag::{Fragment, Keyed, MetaId, NullSink, RemoteRef};
use crate::host::{PimZdTree, L0_META};
use crate::meta::{Directory, MetaInfo};
use crate::module::{MgmtReply, MgmtTask};
use pim_geom::Point;
use pim_sim::hash_place;
use pim_zorder::ZKey;
use rayon::prelude::*;

/// Cuts the canonical tree into meta-node chunks (§3.2) as it is built,
/// registering each.
struct Carver<'a, const D: usize> {
    cfg: PimZdConfig,
    p: usize,
    dir: &'a mut Directory<D>,
    frags: Vec<Fragment<D>>,
}

impl<const D: usize> Carver<'_, D> {
    /// Builds the subtree over `items` as a new chunk, and what the §3.2
    /// chunk rule turns away below its root as chunks of their own.
    fn new_chunk(&mut self, items: &[Keyed<D>], parent: Option<MetaId>) -> RemoteRef<D> {
        let id = self.dir.next_id();
        let module = hash_place(self.cfg.placement_seed, id, self.p) as u32;
        let root_count = items.len() as u64;
        let layer = self.cfg.layer_of(root_count);
        let leaf_cap = self.cfg.leaf_cap;
        let mut frag = Fragment::build_cut(
            id,
            module,
            items,
            leaf_cap,
            &mut NullSink,
            &mut |child, placed| {
                let ccount = child.len() as u64;
                // Stay in the chunk iff T(child) > T(chunk root)/B, the
                // child is in the same layer, and the fragment has room.
                let stays = ccount * self.cfg.chunk_b > root_count
                    && self.cfg.layer_of(ccount) == layer
                    && placed < self.cfg.max_fragment_nodes;
                (!stays).then(|| self.new_chunk(child, Some(id)))
            },
        );
        frag.set_dir_policy(self.cfg.chunk_dir_bits(), self.cfg.chunk_dense_min());
        let r = frag.self_ref();
        self.dir.insert(MetaInfo::new(&r, layer, parent, frag.live_nodes() as u64));
        self.frags.push(frag);
        r
    }
}

impl<const D: usize> PimZdTree<D> {
    /// Builds the index over `points` (the warmup phase: untimed, but the
    /// resulting layout is exactly what the measured phases operate on).
    pub fn build(points: &[Point<D>], cfg: PimZdConfig, machine: pim_sim::MachineConfig) -> Self {
        Self::build_with_cpu(points, cfg, machine, pim_memsim::CpuConfig::xeon())
    }

    /// [`Self::build`] with an explicit host CPU model.
    pub fn build_with_cpu(
        points: &[Point<D>],
        cfg: PimZdConfig,
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

        // One canonical build, cut up as it goes: L0 keeps the root (the
        // host must be able to route) and every subtree of at least θ_L0
        // points; the rest goes into chunks. L0 is host-resident and
        // LLC-warm, so it gets no jump table.
        let p = t.sys.n_modules();
        let mut carver = Carver { cfg, p, dir: &mut t.dir, frags: Vec::new() };
        let l0 = Fragment::build_cut(
            L0_META,
            u32::MAX,
            &items,
            cfg.leaf_cap,
            &mut NullSink,
            &mut |child, _| {
                ((child.len() as u64) < cfg.theta_l0).then(|| carver.new_chunk(child, None))
            },
        );
        let frags = carver.frags;

        // Distribute masters.
        let mut tasks = t.task_matrix::<MgmtTask<D>>();
        for f in frags {
            tasks[f.master_module as usize].push(MgmtTask::InstallMaster(f));
        }
        t.mgmt_round(tasks);

        t.l0 = Some(l0);
        t.n_points = items.len();

        // Install L1 caches (§3.1 partially-shared layer): every L1 meta
        // gains all of its targets.
        t.dir.take_touched();
        let l1_metas: Vec<MetaId> =
            t.dir.metas.values().filter(|m| m.layer == Layer::L1).map(|m| m.id).collect();
        let round = t.task_matrix();
        t.reconcile_caches(&l1_metas, round);

        t.update_l0_replication();
        t.sys.accounting = true;
        t.meter.enabled = true;
        t.sys.pop_phase();
        t
    }

    /// Brings the structure copies of `metas` to their cache targets — the
    /// masters' modules of their L1 ancestors and descendants (§3.1); none
    /// for other layers — with the least traffic. A copy that is not dirty
    /// is current (every counter sync and splice also reaches the copies
    /// `cached_on` lists), so a meta is pulled only if it is dirty or gained
    /// a target, and installed on every target if it is dirty, otherwise
    /// only on the targets that lack a copy. Copies on modules that are no
    /// longer targets are dropped.
    ///
    /// The pulls ride `round`, behind whatever it already holds for each
    /// module; the installs and drops take the round after it.
    pub(crate) fn reconcile_caches(&mut self, metas: &[MetaId], mut round: Vec<Vec<MgmtTask<D>>>) {
        let mut installs = self.task_matrix::<MgmtTask<D>>();
        let mut fresh: Vec<(MetaId, Vec<u32>)> = Vec::new();
        for &m in metas {
            let e = self.dir.get(m);
            let targets = if e.layer == Layer::L1 { self.dir.cache_targets(m) } else { Vec::new() };
            for &old in e.cached_on.iter().filter(|old| !targets.contains(old)) {
                installs[old as usize].push(MgmtTask::DropCache(m));
            }
            let to: Vec<u32> =
                targets.iter().copied().filter(|t| e.dirty || !e.cached_on.contains(t)).collect();
            if !to.is_empty() {
                round[e.module as usize].push(MgmtTask::PullStructure(m));
                fresh.push((m, to));
            }
            let e = self.dir.get_mut(m);
            e.cached_on = targets;
            e.dirty = false;
        }
        // A reconcile sends `round` even with nothing in it: what an update
        // batch costs on a tree with nothing to pull (`throughput_optimized`,
        // whose chunks seldom nest) is pinned with this round in it, and
        // dropping the round is a change of its own.
        let mut pulled: rustc_hash::FxHashMap<MetaId, Fragment<D>> = self
            .mgmt_round(round)
            .into_iter()
            .flatten()
            .filter_map(|r| match r {
                MgmtReply::Pulled(f) => Some((f.meta, f)),
                _ => None,
            })
            .collect();
        for (m, to) in fresh {
            let copy = pulled.remove(&m).expect("every structure pull is answered");
            for &module in &to {
                installs[module as usize].push(MgmtTask::InstallCache(copy.clone()));
            }
        }
        self.mgmt_round_if_any(installs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for (i, n) in l0.nodes().iter().enumerate() {
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

    /// The reconcile sends what changed and nothing else: a current copy
    /// stays; a meta that gained a target is pulled once and installed
    /// there alone; a dirty meta is pulled once and installed on every
    /// target; a module that stopped being a target loses its copy. (The
    /// pull round goes out whenever a meta is visited.)
    #[test]
    fn reconcile_sends_only_what_changed() {
        // A promotion leaves fragments hanging off L0 with L1 descendants
        // on several modules (the bulk build's L1 chains are short).
        let mut pts = pim_workloads::osm_like::<3>(4_000, 4_047);
        let cfg = PimZdConfig::skew_resistant(64);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(64));
        let batch = pim_workloads::point_queries(&pts, 500, 4, 4_047 ^ 0x400);
        t.batch_insert(&batch);
        pts.extend_from_slice(&batch);
        let metrics = pim_sim::Metrics::enabled_new();
        t.set_metrics(metrics.clone());
        let names =
            ["host_cache_pulls_total", "host_cache_installs_total", "host_cache_drops_total"];
        let mut seen = [0u64; 3];
        let mut reconcile = |t: &mut PimZdTree<3>, m: MetaId| {
            let rounds = t.sim_stats().rounds;
            let round = t.task_matrix();
            t.reconcile_caches(&[m], round);
            let now = metrics.with(|r| names.map(|n| r.counter(n, &[]).unwrap_or(0))).unwrap();
            let sent = [0, 1, 2].map(|i| now[i] - seen[i]);
            seen = now;
            (sent, t.sim_stats().rounds - rounds)
        };
        let m = t
            .dir
            .metas
            .values()
            .filter(|e| e.layer == Layer::L1 && e.cached_on.len() >= 2)
            .map(|e| e.id)
            .min()
            .expect("an L1 meta cached on two modules");
        let targets = t.dir.get(m).cached_on.clone();

        assert_eq!(reconcile(&mut t, m), ([0, 0, 0], 1), "current copies: an empty pull round");
        t.dir.get_mut(m).cached_on.remove(0);
        assert_eq!(reconcile(&mut t, m), ([1, 1, 0], 2), "one target gained");
        t.dir.get_mut(m).dirty = true;
        let every = targets.len() as u64;
        assert_eq!(reconcile(&mut t, m), ([1, every, 0], 2), "dirty: every target");
        let stranger = (0..64).find(|x| !targets.contains(x) && *x != t.dir.get(m).module);
        t.dir.get_mut(m).cached_on.push(stranger.unwrap());
        assert_eq!(reconcile(&mut t, m), ([0, 0, 1], 2), "a target lost");
        assert_eq!(t.dir.get(m).cached_on, targets);
        t.check_invariants(&pts);
    }
}
