//! Bulk construction: canonical tree → layer partition → distribution.
//!
//! Build is the paper's warmup phase (untimed): the host constructs the
//! canonical compressed zd-tree, carves it into L0 plus subtree-size chunks
//! (§3.2), places each chunk's master on the least-loaded of its hashed
//! candidate modules (`pim_sim::place_least_loaded`, §3's hash-randomized
//! placement with d choices), and installs the L1 ancestor/descendant
//! caches (§3.1).

use crate::config::{Layer, PimZdConfig};
use crate::frag::{Fragment, Keyed, MetaId, NullSink, RemoteRef};
use crate::host::{place, PimZdTree, L0_META};
use crate::meta::{Directory, MetaInfo};
use crate::module::{CopyUpdate, MgmtReply, MgmtTask};
use pim_geom::Point;
use pim_zorder::ZKey;
use rayon::prelude::*;

/// Cuts the canonical tree into meta-node chunks (§3.2) as it is built,
/// registering each. `load` tallies the points of the masters placed so
/// far, per module (what `PimZdTree::module_loads` would fold from the
/// directory).
struct Carver<'a, const D: usize> {
    cfg: PimZdConfig,
    dead: &'a [bool],
    load: Vec<u64>,
    dir: &'a mut Directory<D>,
    frags: Vec<Fragment<D>>,
}

impl<const D: usize> Carver<'_, D> {
    /// Builds the subtree over `items` as a new chunk, and what the §3.2
    /// chunk rule turns away below its root as chunks of their own.
    fn new_chunk(&mut self, items: &[Keyed<D>], parent: Option<MetaId>) -> RemoteRef<D> {
        let id = self.dir.next_id();
        let root_count = items.len() as u64;
        let module = place(self.cfg.placement_seed, id, root_count, &mut self.load, self.dead);
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
        // The chunks cut below this one were registered before it, when
        // there was no entry yet to list them under.
        let mut info = MetaInfo::new(&r, layer, parent, frag.live_nodes() as u64);
        info.children = frag.remote_children().iter().map(|c| c.meta).collect();
        self.dir.insert(info);
        self.frags.push(frag);
        r
    }
}

impl<const D: usize> PimZdTree<D> {
    /// Builds the index over `points` (the warmup phase: untimed, but the
    /// resulting layout is exactly what the measured phases operate on).
    pub fn build(points: &[Point<D>], cfg: PimZdConfig, machine: pim_sim::MachineConfig) -> Self {
        let mut t = Self::new(cfg, machine);
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
        let dead = t.sys.dead_mask();
        let load = vec![0; dead.len()];
        let mut carver = Carver { cfg, dead, load, dir: &mut t.dir, frags: Vec::new() };
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
    /// masters' modules of their L1 ancestors (§3.1); none for other layers
    /// — with the least traffic. A copy that is not dirty is current up to
    /// counts that may run low (every counter sync and splice also reaches
    /// the copies `cached_on` lists), so a meta is sent where it is dirty
    /// or gained a target: on every target if it is dirty, otherwise only
    /// on the targets that lack a copy. A delete's patch goes to the
    /// targets that keep theirs. Copies on modules that are no longer
    /// targets are dropped.
    ///
    /// A copy comes from what the batch has in hand for the meta — an apply
    /// reply's, a split's or a pull's — and is pulled only where there is
    /// none. With nothing to pull, the copies ride `round`, behind whatever
    /// it already holds for each module; otherwise the pulls ride it and
    /// the copies take the round after. Nothing to send sends no round.
    pub(crate) fn reconcile_caches(&mut self, metas: &[MetaId], mut round: Vec<Vec<MgmtTask<D>>>) {
        let mut copies = self.task_matrix::<MgmtTask<D>>();
        let mut pulls: Vec<(MetaId, Vec<u32>)> = Vec::new();
        for &m in metas {
            let e = self.dir.get(m);
            let targets = if e.layer == Layer::L1 { self.dir.cache_targets(m) } else { Vec::new() };
            for &old in e.cached_on.iter().filter(|old| !targets.contains(old)) {
                copies[old as usize].push(MgmtTask::DropCache(m));
            }
            let (to, kept): (Vec<u32>, Vec<u32>) =
                targets.iter().partition(|t| e.dirty || !e.cached_on.contains(t));
            let in_hand = self.in_hand.remove(&m).unwrap_or_default();
            if let CopyUpdate::Patch(patch) = &in_hand {
                for &t in &kept {
                    copies[t as usize].push(MgmtTask::PatchCache { meta: m, patch: patch.clone() });
                }
            }
            match in_hand {
                CopyUpdate::Copy(mut f) => {
                    f.master_module = e.module;
                    for &t in &to {
                        copies[t as usize].push(MgmtTask::InstallCache(f.clone()));
                    }
                }
                _ if !to.is_empty() => {
                    round[e.module as usize].push(MgmtTask::PullStructure(m));
                    pulls.push((m, to));
                }
                _ => {}
            }
            let e = self.dir.get_mut(m);
            e.cached_on = targets;
            e.dirty = false;
        }
        if pulls.is_empty() {
            for (row, more) in round.iter_mut().zip(copies.iter_mut()) {
                row.append(more);
            }
            self.bufs.put_matrix(copies);
            self.mgmt_round_if_any(round);
            return;
        }
        let mut pulled: rustc_hash::FxHashMap<MetaId, Fragment<D>> = self
            .mgmt_round(round)
            .into_iter()
            .flatten()
            .filter_map(|r| match r {
                MgmtReply::Pulled(f) => Some((f.meta, f)),
                _ => None,
            })
            .collect();
        for (m, to) in pulls {
            let copy = pulled.remove(&m).expect("every structure pull is answered");
            for &module in &to {
                copies[module as usize].push(MgmtTask::InstallCache(copy.clone()));
            }
        }
        self.mgmt_round_if_any(copies);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frag::SearchEnd;
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

    /// Points held in masters on each module.
    fn master_points(t: &PimZdTree<3>) -> Vec<u64> {
        (0..t.n_modules())
            .map(|i| t.sys.peek(i).masters.values().map(|f| f.local_points().len() as u64).sum())
            .collect()
    }

    #[test]
    fn throughput_build_leaves_no_module_idle() {
        // θ_L0 = n/P hangs about 1.5 fragments on each module, where one
        // hash per fragment leaves 14 of 64 modules empty and the busiest
        // at 2.93× the mean; the least-loaded of four hashed choices leaves
        // none empty, the busiest at 1.51×.
        let pts = uniform::<3>(50_000, 1);
        let cfg = PimZdConfig::throughput_optimized(50_000, 64);
        let t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(64));
        let load = master_points(&t);
        let idle = load.iter().filter(|&&l| l == 0).count();
        let mean = load.iter().sum::<u64>() as f64 / load.len() as f64;
        let ratio = *load.iter().max().unwrap() as f64 / mean;
        assert_eq!(idle, 0, "{idle} of 64 modules hold no master");
        assert!(ratio <= 2.0, "busiest module holds {ratio:.2}× the mean");
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

    /// The carve registers a chunk after the chunks it cuts below itself;
    /// each of those is listed among its children all the same (at 50 k
    /// uniform points on 64 modules: all 2 864 chunks that have a parent).
    #[test]
    fn a_built_directory_lists_every_chunk_under_its_parent() {
        let pts = uniform::<3>(50_000, 3);
        let cfg = PimZdConfig::skew_resistant(64);
        let t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(64));
        let mut nested = 0;
        for e in t.dir.metas.values() {
            if let Some(p) = e.parent {
                assert!(t.dir.get(p).children.contains(&e.id), "meta {} not under {p}", e.id);
                nested += 1;
            }
        }
        assert_eq!(nested, 2_864);
        t.check_invariants(&pts);
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

    /// A skew-resistant tree of 4 000 osm-like points on 64 modules after a
    /// jittered insert of 500 (which promotes: it leaves fragments hanging
    /// off L0 with L1 descendants on other modules), journaled and metered.
    fn churned() -> (PimZdTree<3>, Vec<Point<3>>, pim_sim::trace::Journal, pim_sim::Metrics) {
        let mut pts = pim_workloads::osm_like::<3>(4_000, 4_047);
        let cfg = PimZdConfig::skew_resistant(64);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(64));
        let batch = pim_workloads::point_queries(&pts, 500, 4, 4_047 ^ 0x400);
        t.batch_insert(&batch);
        pts.extend_from_slice(&batch);
        let journal = pim_sim::trace::Journal::new();
        t.set_journal(Some(journal.clone()));
        let metrics = pim_sim::Metrics::enabled_new();
        t.set_metrics(metrics.clone());
        (t, pts, journal, metrics)
    }

    /// The structure pulls, copy installs, drops and patches `f` sends, and
    /// the rounds it takes (of them, under `phase` only, when one is given).
    fn sent(
        t: &mut PimZdTree<3>,
        journal: &pim_sim::trace::Journal,
        metrics: &pim_sim::Metrics,
        phase: Option<&str>,
        f: impl FnOnce(&mut PimZdTree<3>),
    ) -> ([u64; 4], usize) {
        let names = [
            "host_cache_pulls_total",
            "host_cache_installs_total",
            "host_cache_drops_total",
            "host_cache_patches_total",
        ];
        let counters = || metrics.with(|r| names.map(|n| r.counter(n, &[]).unwrap_or(0))).unwrap();
        let (before, seen) = (counters(), journal.len());
        f(t);
        let after = counters();
        let rounds = journal.snapshot()[seen..]
            .iter()
            .filter(|r| phase.is_none_or(|p| r.phase == p))
            .count();
        ([0, 1, 2, 3].map(|i| after[i] - before[i]), rounds)
    }

    /// The first L1 meta with copies — in id order — whose master `pick`
    /// finds something in, and what it found.
    fn in_a_cached_master<X>(
        t: &PimZdTree<3>,
        pick: impl Fn(&Fragment<3>) -> Option<X>,
    ) -> (MetaId, X) {
        let mut cached: Vec<&MetaInfo<3>> =
            t.dir.metas.values().filter(|e| !e.cached_on.is_empty()).collect();
        cached.sort_unstable_by_key(|e| e.id);
        cached
            .into_iter()
            .find_map(|e| pick(&t.sys.peek(e.module as usize).masters[&e.id]).map(|x| (e.id, x)))
            .expect("a cached master with what the test needs")
    }

    /// The reconcile sends what changed and nothing else: a current copy
    /// stays; a meta that gained a target is pulled once and installed
    /// there alone; a dirty meta is pulled once and installed on every
    /// target; a module that stopped being a target loses its copy. Copies
    /// ride the round after the pulls, or the one round there is.
    #[test]
    fn reconcile_sends_only_what_changed() {
        let (mut t, pts, journal, metrics) = churned();
        let (m, ()) = in_a_cached_master(&t, |_| Some(()));
        let targets = t.dir.get(m).cached_on.clone();
        let reconcile = |t: &mut PimZdTree<3>| {
            sent(t, &journal, &metrics, None, |t| {
                let round = t.task_matrix();
                t.reconcile_caches(&[m], round);
            })
        };
        let every = targets.len() as u64;
        assert_eq!(reconcile(&mut t), ([0, 0, 0, 0], 0), "current copies: no round");
        t.dir.get_mut(m).cached_on.remove(0);
        assert_eq!(reconcile(&mut t), ([1, 1, 0, 0], 2), "one target gained");
        t.dir.get_mut(m).dirty = true;
        assert_eq!(reconcile(&mut t), ([1, every, 0, 0], 2), "dirty: every target");
        let stranger = (0..64).find(|x| !targets.contains(x) && *x != t.dir.get(m).module);
        t.dir.get_mut(m).cached_on.push(stranger.unwrap());
        assert_eq!(reconcile(&mut t), ([0, 0, 1, 0], 1), "a target lost");
        assert_eq!(t.dir.get(m).cached_on, targets);
        t.check_invariants(&pts);
    }

    /// An insert that adds nodes to a fragment with copies gets the
    /// fragment's structure back with the apply round: the reconcile
    /// installs it on every target in the batch's one maintenance round and
    /// pulls nothing.
    #[test]
    fn a_copy_from_the_apply_reply_sends_no_pull() {
        let (mut t, mut pts, journal, metrics) = churned();
        // A point next to one of a fragment's own that its merge must build
        // a node for.
        let (m, q) = in_a_cached_master(&t, |master| {
            let near = |(_, p): Keyed<3>| (1..4).map(move |d| Point::new(p.coords.map(|c| c ^ d)));
            master.local_points().into_iter().flat_map(near).find(|q| {
                let key = pim_zorder::ZKey::<3>::encode(q);
                let inside = master.root_node().prefix.covers(key)
                    && !matches!(master.search(key, &mut NullSink), SearchEnd::Remote(_));
                inside && master.clone().merge(&[(key, *q)], &mut NullSink) > 0
            })
        });
        let every = t.dir.get(m).cached_on.len() as u64;
        let insert = |t: &mut PimZdTree<3>| t.batch_insert(&[q]);
        let (copies, rounds) = sent(&mut t, &journal, &metrics, Some("insert/maintain"), insert);
        assert_eq!((copies, rounds), ([0, every, 0, 0], 1));
        pts.push(q);
        t.check_invariants(&pts);
    }

    /// A delete that frees no node only lowers counts: each copy gets the
    /// patch, in the batch's one maintenance round, and none is re-sent.
    #[test]
    fn a_count_only_delete_sends_one_patch_per_target_and_no_install() {
        let (mut t, mut pts, journal, metrics) = churned();
        let (m, (_, gone)) = in_a_cached_master(&t, |master| {
            master.local_points().into_iter().find(|item| {
                let mut f = master.clone();
                f.remove(&[*item], &mut 0, &mut Vec::new(), &mut NullSink);
                f.live_nodes() == master.live_nodes()
            })
        });
        let every = t.dir.get(m).cached_on.len() as u64;
        let delete = |t: &mut PimZdTree<3>| assert_eq!(t.batch_delete(&[gone]), 1);
        let (copies, rounds) = sent(&mut t, &journal, &metrics, Some("delete/maintain"), delete);
        assert_eq!((copies, rounds), ([0, 0, 0, every], 1));
        let at = pts.iter().position(|p| *p == gone).unwrap();
        pts.swap_remove(at);
        t.check_invariants(&pts);
    }

    /// A meta that flips into L1 under an L1 parent needs copies nothing
    /// brought back. In a batch that also splits, its pull rides the
    /// split's round: the copies follow in the second maintenance round,
    /// and there is no third.
    #[test]
    fn a_meta_flipping_into_l1_beside_a_split_is_pulled_in_m1() {
        let (mut t, mut pts, journal, metrics) = churned();
        let l2: Vec<MetaId> =
            t.dir.metas.values().filter(|e| e.layer == Layer::L2).map(|e| e.id).collect();
        let batch = pim_workloads::point_queries(&pts, 800, 4, 4_047 ^ 0x401);
        let off_l0: Vec<MetaId> =
            t.dir.metas.values().filter(|e| e.parent.is_none()).map(|e| e.id).collect();
        let insert = |t: &mut PimZdTree<3>| t.batch_insert(&batch);
        let (copies, rounds) = sent(&mut t, &journal, &metrics, Some("insert/maintain"), insert);
        let split = off_l0.iter().any(|id| !t.dir.metas.contains_key(id));
        let flipped =
            l2.iter().filter(|id| t.dir.metas.get(id).is_some_and(|e| !e.cached_on.is_empty()));
        assert!(split, "the batch must promote");
        assert!(flipped.count() > 0, "a meta must flip into L1 below an L1 parent");
        assert!(copies[0] > 0);
        assert_eq!(rounds, 2);
        pts.extend_from_slice(&batch);
        t.check_invariants(&pts);
    }
}
