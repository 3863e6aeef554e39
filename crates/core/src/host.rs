//! The host-side index object and its shared round machinery.
//!
//! [`PimZdTree`] owns the L0 fragment (host-resident, §3.1), the meta-node
//! directory, the simulated PIM machine, and the host cost meter. The
//! operation orchestrators (`search`, `insert`, `knn`, `boxq`, and the
//! traversal engine the last two run on, `traverse`) live in their own
//! modules; this file provides what they share: measurement scaffolding,
//! management rounds, the pull half of push-pull search, and the robust
//! round layer (fault detection → bounded replay → recovery; see
//! ARCHITECTURE.md §"Fault & recovery").

use crate::config::{Layer, PimZdConfig};
use crate::frag::{Fragment, HostSink, MetaId};
use crate::meta::Directory;
use crate::module::{handle_mgmt, CopyUpdate, MgmtReply, MgmtTask, ModuleState};
use crate::stats::OpStats;
use pim_memsim::{CpuMeter, CpuModel, CpuStats};
use pim_sim::{place_least_loaded, FaultPlan, MachineConfig, PimCtx, PimSystem, Wire};
use rustc_hash::FxHashMap;

/// Recycled per-operation host buffers (clear-not-drop).
///
/// One entry per element type, each holding a stack of spare structures:
/// `pools` stores task/reply matrices (`Vec<Vec<T>>`), `flats` stores flat
/// scratch vectors (`Vec<T>`). Taking pops a spare (or allocates the first
/// time); putting clears contents but keeps every row's capacity, so a
/// 2048-module machine allocates its per-module row `Vec`s once per task
/// type instead of once per operation. Purely a host-side wall-clock
/// optimization: simulated metrics never observe where a buffer came from.
#[derive(Default)]
pub(crate) struct RoundBuffers {
    pools: FxHashMap<std::any::TypeId, Box<dyn std::any::Any + Send>>,
    flats: FxHashMap<std::any::TypeId, Box<dyn std::any::Any + Send>>,
    /// The per-meta demand table of the push-pull rounds, kept for its
    /// buckets.
    demand: FxHashMap<MetaId, u64>,
}

impl RoundBuffers {
    fn stack<T: Send + 'static>(&mut self) -> &mut Vec<Vec<Vec<T>>> {
        self.pools
            .entry(std::any::TypeId::of::<T>())
            .or_insert_with(|| Box::new(Vec::<Vec<Vec<T>>>::new()))
            .downcast_mut()
            .expect("matrix pool entries are keyed by their element TypeId")
    }

    fn flat_stack<T: Send + 'static>(&mut self) -> &mut Vec<Vec<T>> {
        self.flats
            .entry(std::any::TypeId::of::<T>())
            .or_insert_with(|| Box::new(Vec::<Vec<T>>::new()))
            .downcast_mut()
            .expect("flat pool entries are keyed by their element TypeId")
    }

    /// A matrix of `p` empty rows, recycled when a spare is pooled.
    pub(crate) fn take_matrix<T: Send + 'static>(&mut self, p: usize) -> Vec<Vec<T>> {
        let mut m = self.stack::<T>().pop().unwrap_or_default();
        debug_assert!(m.iter().all(Vec::is_empty), "pooled matrices are stored cleared");
        m.resize_with(p, Vec::new);
        m
    }

    /// Returns a matrix to the pool, clearing rows but keeping capacity.
    pub(crate) fn put_matrix<T: Send + 'static>(&mut self, mut m: Vec<Vec<T>>) {
        for row in &mut m {
            row.clear();
        }
        self.stack::<T>().push(m);
    }

    /// An empty flat scratch vector, recycled when a spare is pooled.
    pub(crate) fn take_vec<T: Send + 'static>(&mut self) -> Vec<T> {
        self.flat_stack::<T>().pop().unwrap_or_default()
    }

    /// Returns a flat scratch vector to the pool, cleared.
    pub(crate) fn put_vec<T: Send + 'static>(&mut self, mut v: Vec<T>) {
        v.clear();
        self.flat_stack::<T>().push(v);
    }

    /// The (empty) demand table; hand it back with [`Self::put_demand`].
    pub(crate) fn take_demand(&mut self) -> FxHashMap<MetaId, u64> {
        std::mem::take(&mut self.demand)
    }

    /// Returns the demand table, cleared but with its buckets.
    pub(crate) fn put_demand(&mut self, mut demand: FxHashMap<MetaId, u64>) {
        demand.clear();
        self.demand = demand;
    }
}

/// Meta id of the host-resident L0 fragment; module fragments count from 1.
pub(crate) const L0_META: MetaId = 0;
/// Host virtual-address region of the L0 fragment.
pub(crate) const L0_REGION: u64 = 1 << 44;
/// Base of the staging region where pulled fragments land.
pub(crate) const STAGING_REGION: u64 = 1 << 45;
/// Base of the per-query batch-state region (search traces, grouping
/// buffers). Batches larger than the LLC start missing here — the Fig. 7
/// effect ("excessively large batches, combined with auxiliary structures,
/// may exceed the capacity of the L3 cache").
pub(crate) const QUERY_STATE_REGION: u64 = 1 << 46;
/// Bytes of host-side state per query (trace hop + grouping slot).
pub(crate) const QUERY_STATE_BYTES: u64 = 24;

/// The scalars a tree carries besides its fragments, directory, meter and
/// machine (see the fields of the same names on [`PimZdTree`]).
pub(crate) struct HostState {
    pub epoch: u64,
    pub n_points: usize,
    pub staging_next: u64,
    pub l0_replicated: bool,
}

/// The PIM-zd-tree index.
pub struct PimZdTree<const D: usize> {
    /// Structure configuration.
    pub cfg: PimZdConfig,
    pub(crate) sys: PimSystem<ModuleState<D>>,
    /// L0: the globally-shared top of the tree (`None` when empty).
    pub(crate) l0: Option<Fragment<D>>,
    pub(crate) dir: Directory<D>,
    pub(crate) meter: CpuMeter,
    pub(crate) cpu_model: CpuModel,
    pub(crate) n_points: usize,
    pub(crate) last_stats: OpStats,
    pub(crate) staging_next: u64,
    /// Set once L0 outgrows the LLC: its structure counts as replicated on
    /// every module (space + broadcast-on-update accounting, §3.1).
    pub(crate) l0_replicated: bool,
    /// Recycled per-op buffers (task matrices, robust-round scratch,
    /// grouping scratch): the host hot path is allocation-free in steady
    /// state. Simulated costs never observe the pool — it only changes
    /// where host-side `Vec`s come from.
    pub(crate) bufs: RoundBuffers,
    /// Number of applied mutation batches (insert/delete). Checkpoints
    /// record the epoch of the frozen view they capture; WAL records carry
    /// the epoch their batch produces, so replay-to-consistent-point is
    /// "apply every record with `epoch > checkpoint.epoch`, in order".
    /// Bumped only at batch boundaries — mid-batch state is never epoch-
    /// visible, which is what makes a checkpoint a consistent frozen view
    /// even if one is requested while a batch is logically in flight.
    pub(crate) epoch: u64,
    /// Write-ahead log of applied batches; `None` = durability off (the
    /// default — query-only workloads and most tests never pay for it).
    pub(crate) wal: Option<crate::wal::Wal>,
    /// What the running update batch's cache reconcile has in hand for a
    /// meta's structure copies — a copy or a delete's patch, from an apply
    /// reply, a root split or a pull ahead of one — so that it pulls only
    /// what nothing brought. Empty between batches.
    pub(crate) in_hand: FxHashMap<MetaId, CopyUpdate<D>>,
    /// Nodes the running measured batch's searches entered on the host (L0
    /// and pulled fragments), published as `host_search_nodes_total`.
    pub(crate) search_nodes: u64,
    /// Nodes the running measured batch's box, best-k and ball walks entered
    /// on the host (L0 and pulled fragments, and the L0 descents that seed
    /// them), published as `host_range_nodes_total`.
    pub(crate) range_nodes: u64,
    /// Every master the host pulled since the last round that could write
    /// one, with the staging address it landed at: push-pull reads them in
    /// place instead of pulling them again. [`Self::robust_round`] empties
    /// it before any round that is not all reads.
    pub(crate) held: FxHashMap<MetaId, (Fragment<D>, u64)>,
}

impl<const D: usize> PimZdTree<D> {
    /// Creates an empty index over a fresh simulated machine, whose host
    /// CPU model is `machine.cpu`.
    pub fn new(cfg: PimZdConfig, machine: MachineConfig) -> Self {
        Self::assemble(
            cfg,
            PimSystem::new(machine, |_| ModuleState::default()),
            None,
            Directory::new(),
            CpuMeter::new(machine.cpu),
            HostState { epoch: 0, n_points: 0, staging_next: STAGING_REGION, l0_replicated: false },
        )
    }

    /// The tree over the given resident state — how an empty tree, a fork
    /// and a restored image are all put together. Per-op scratch and the
    /// held pulls start empty and the WAL comes back detached; what is
    /// attached to `sys` (journal, plan) is the caller's business. The host
    /// CPU model is the machine's.
    pub(crate) fn assemble(
        cfg: PimZdConfig,
        sys: PimSystem<ModuleState<D>>,
        l0: Option<Fragment<D>>,
        dir: Directory<D>,
        meter: CpuMeter,
        host: HostState,
    ) -> Self {
        Self {
            cfg,
            cpu_model: CpuModel::new(sys.config().cpu),
            sys,
            l0,
            dir,
            meter,
            n_points: host.n_points,
            // The next measured batch overwrites it.
            last_stats: OpStats::default(),
            staging_next: host.staging_next,
            l0_replicated: host.l0_replicated,
            bufs: RoundBuffers::default(),
            epoch: host.epoch,
            wal: None,
            in_hand: FxHashMap::default(),
            search_nodes: 0,
            range_nodes: 0,
            held: FxHashMap::default(),
        }
    }

    /// Number of mutation batches applied so far (see the `epoch` field's
    /// docs; checkpoints and WAL records are ordered by it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Attaches a write-ahead log: every subsequent `batch_insert` /
    /// `batch_delete` appends its points *before* applying them, so a host
    /// crash at any batch boundary loses nothing that was acknowledged.
    /// Returns the previous log, if any (detach by passing a fresh one and
    /// dropping the result, or via [`Self::take_wal`]).
    pub fn set_wal(&mut self, wal: crate::wal::Wal) -> Option<crate::wal::Wal> {
        self.wal.replace(wal)
    }

    /// Detaches and returns the write-ahead log.
    pub fn take_wal(&mut self) -> Option<crate::wal::Wal> {
        self.wal.take()
    }

    /// Logs a mutation batch before it is applied (no-op with no WAL
    /// attached). An append failure aborts: applying a batch the log did
    /// not durably record would silently void the recovery guarantee.
    pub(crate) fn wal_append(&mut self, op: crate::wal::WalOp, points: &[pim_geom::Point<D>]) {
        if let Some(w) = self.wal.as_mut() {
            w.append::<D>(self.epoch + 1, op, points)
                .expect("WAL append failed; refusing to apply an unlogged batch");
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.n_points
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.n_points == 0
    }

    /// Number of PIM modules.
    pub fn n_modules(&self) -> usize {
        self.sys.n_modules()
    }

    /// Statistics of the most recent batched operation.
    pub fn last_op_stats(&self) -> &OpStats {
        &self.last_stats
    }

    /// Total space consumption in bytes: host L0 (+ its replication on all
    /// modules when it outgrew the cache) plus every module's masters and
    /// caches (Theorem 5.1 / Table 2).
    pub fn space_bytes(&self) -> u64 {
        let l0 = self.l0.as_ref().map_or(0, Fragment::bytes);
        let replicated = if self.l0_replicated { l0 * self.sys.n_modules() as u64 } else { 0 };
        let modules: u64 =
            (0..self.sys.n_modules()).map(|i| self.sys.peek(i).resident_bytes()).sum();
        l0 + replicated + modules
    }

    /// Number of live meta-nodes (directory size).
    pub fn meta_count(&self) -> usize {
        self.dir.len()
    }

    // -----------------------------------------------------------------
    // Measurement scaffolding
    // -----------------------------------------------------------------

    /// Runs `f` as one measured batched operation: snapshots counters,
    /// executes, and stores the per-op [`OpStats`] (retrievable via
    /// [`Self::last_op_stats`]). `f` returns `(result, elements_returned)`.
    pub(crate) fn measured<R>(
        &mut self,
        batch_ops: u64,
        f: impl FnOnce(&mut Self) -> (R, u64),
    ) -> R {
        self.meter.start_measurement();
        (self.search_nodes, self.range_nodes) = (0, 0);
        let sim_before = *self.sys.stats();
        let (result, elements) = f(self);
        let host: CpuStats = self.meter.stats();
        let sim = self.sys.stats().since(&sim_before);
        self.last_stats = OpStats::from_deltas(&self.cpu_model, host, sim, batch_ops, elements);
        if self.sys.metrics().enabled() {
            // One publish per measured batch, labeled with the op's phase
            // (`measured` always runs inside the op's `phased` scope). This
            // is where the memsim cache-model counters enter the registry.
            let op = self.sys.current_phase();
            self.sys.metrics().with(|m| {
                let ol: &[(&str, &str)] = &[("op", &op)];
                m.add("host_batches_total", ol, 1);
                m.observe("host_batch_ops", ol, batch_ops);
                m.add("host_elements_returned_total", ol, elements);
                m.add("host_work_cycles_total", ol, host.work_cycles);
                m.add("host_search_nodes_total", ol, self.search_nodes);
                m.add("host_range_nodes_total", ol, self.range_nodes);
                m.add("host_span_cycles_total", ol, host.span_cycles);
                m.add("host_llc_hits_total", ol, host.llc_hits);
                m.add("host_llc_misses_total", ol, host.llc_misses);
                m.add("host_dram_bytes_total", ol, host.dram_bytes);
            });
        }
        result
    }

    /// Runs `f` under a trace phase label: every PIM round executed inside
    /// is journaled with the label (nested calls join with `/`, so a
    /// maintenance round inside a delete batch reads `delete/maintain`).
    /// This is the index-side counterpart of
    /// [`PimSystem::scoped_phase`](pim_sim::PimSystem::scoped_phase), needed
    /// because operations borrow the whole tree, not just the system. The
    /// label doubles as a wall-clock profiler span, so host profiles nest
    /// the same way journal phases do.
    pub(crate) fn phased<R>(&mut self, label: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let _span = pim_obs::span(label);
        self.sys.push_phase(label);
        let out = f(self);
        self.sys.pop_phase();
        out
    }

    /// Attaches (or with `None` detaches) a round journal on the simulated
    /// machine (see [`pim_sim::trace`]).
    pub fn set_journal(&mut self, journal: Option<pim_sim::Journal>) {
        self.sys.set_journal(journal);
    }

    /// The id the machine's next accounted BSP round will carry (the
    /// monotonic counter behind `RoundRecord::round`). Reading it before
    /// and after a batched operation yields the half-open round-id range
    /// the operation produced — the cross-layer link the serving tracer
    /// records per batch. A pure read; never perturbs accounting.
    pub fn next_round_id(&self) -> u64 {
        self.sys.next_round_id()
    }

    /// Attaches a metrics registry handle (see [`pim_sim::metrics`]): the
    /// simulated machine publishes per-round counters and the index adds
    /// host-side ones (cache-model counters per op, batch sizes, splice
    /// and recovery events). Pass [`pim_sim::Metrics::disabled`] to detach.
    pub fn set_metrics(&mut self, metrics: pim_sim::Metrics) {
        self.sys.set_metrics(metrics);
    }

    /// The attached metrics handle (disabled by default).
    pub fn metrics(&self) -> &pim_sim::Metrics {
        self.sys.metrics()
    }

    /// Cumulative simulator statistics over every *accounted* round (builds
    /// run unaccounted) — the ground truth the metrics registry must agree
    /// with.
    pub fn sim_stats(&self) -> &pim_sim::SimStats {
        self.sys.stats()
    }

    /// A cost sink charging the host meter at the L0 region.
    pub(crate) fn l0_sink(meter: &mut CpuMeter) -> HostSink<'_> {
        HostSink { meter, base_addr: L0_REGION }
    }

    /// Charges one access to query `qid`'s host-side batch state (trace
    /// recording / grouping).
    #[inline]
    pub(crate) fn touch_query_state(&mut self, qid: usize, write: bool) {
        self.meter.touch(
            QUERY_STATE_REGION + qid as u64 * QUERY_STATE_BYTES,
            QUERY_STATE_BYTES,
            write,
        );
    }

    /// Allocates a staging address range for a pulled fragment.
    pub(crate) fn stage_addr(&mut self, bytes: u64) -> u64 {
        let a = self.staging_next;
        self.staging_next += bytes.max(64);
        a
    }

    // -----------------------------------------------------------------
    // Management rounds
    // -----------------------------------------------------------------

    /// Executes one management round with per-module task lists. With a
    /// metrics registry attached, the structure-cache traffic it carries is
    /// counted.
    pub(crate) fn mgmt_round(&mut self, tasks: Vec<Vec<MgmtTask<D>>>) -> Vec<Vec<MgmtReply<D>>> {
        if self.sys.metrics().enabled() {
            let mut counts = [0u64; 4];
            for t in tasks.iter().flatten() {
                match t {
                    MgmtTask::PullStructure(_) => counts[0] += 1,
                    MgmtTask::InstallCache(_) => counts[1] += 1,
                    MgmtTask::DropCache(_) => counts[2] += 1,
                    MgmtTask::PatchCache { .. } => counts[3] += 1,
                    _ => {}
                }
            }
            let names = [
                "host_cache_pulls_total",
                "host_cache_installs_total",
                "host_cache_drops_total",
                "host_cache_patches_total",
            ];
            self.sys.metrics().with(|m| {
                for (name, n) in names.into_iter().zip(counts).filter(|(_, n)| *n > 0) {
                    m.add(name, &[], n);
                }
            });
        }
        self.robust_round(tasks, handle_mgmt)
    }

    /// [`Self::mgmt_round`], unless there is nothing to send: an empty
    /// round still costs its fixed overhead.
    pub(crate) fn mgmt_round_if_any(
        &mut self,
        tasks: Vec<Vec<MgmtTask<D>>>,
    ) -> Vec<Vec<MgmtReply<D>>> {
        if tasks.iter().all(Vec::is_empty) {
            self.bufs.put_matrix(tasks);
            return Vec::new();
        }
        self.mgmt_round(tasks)
    }

    // -----------------------------------------------------------------
    // Robust rounds: detection → bounded replay → graceful degradation
    // -----------------------------------------------------------------

    /// Executes one round with fault detection and recovery.
    ///
    /// With the fault plane inactive this is exactly
    /// [`PimSystem::execute_round`] — dispatched before any retry
    /// scaffolding (slot matrices, clones) is even touched, so the
    /// fault-free path does zero extra work and its accounting stays
    /// byte-identical. Otherwise rounds proceed in waves over pooled
    /// scratch, with **copy-on-fault** dispatch: fault fates are a pure
    /// function of `(seed, round, module, attempt)`, so the plan is
    /// consulted *before* each wave and only the task rows of modules that
    /// will actually fail it are cloned — every other row moves into the
    /// round, as on the fast path. A module whose validated replies never
    /// arrive has fail-stopped (the simulator retried transients internally
    /// and declared the survivor dead), so its kept originals are replayed
    /// on other modules after [`Self::recover_modules`] repairs the
    /// directory. Replay is safe because round attempts are all-or-nothing:
    /// a task whose reply was lost was never applied.
    ///
    /// Replies are reassembled at each task's *original* `(module,
    /// position)` slot, so callers that match replies positionally (e.g.
    /// the split flows) are oblivious to replays and reroutes.
    pub(crate) fn robust_round<T>(
        &mut self,
        mut tasks: Vec<Vec<T>>,
        handler: impl Fn(usize, &mut ModuleState<D>, &mut PimCtx, Vec<T>) -> Vec<T::Reply> + Sync + Copy,
    ) -> Vec<Vec<T::Reply>>
    where
        T: Reroutable<D> + Wire + Send + Clone + 'static,
    {
        // A held pull is its master's exact copy only until a master is
        // written, and any round but a read may write one.
        if T::may_write(&tasks) {
            self.held.clear();
        }
        if !self.sys.fault_plane_active() {
            let out = self.sys.execute_round_in(&mut tasks, handler);
            self.bufs.put_matrix(tasks);
            return out;
        }
        let p = self.sys.n_modules();
        tasks.resize_with(p, Vec::new);
        // Pooled scratch: reply slots, per-row task provenance, and the
        // wave's send matrix (all cleared-not-dropped on return).
        let mut out: Vec<Vec<Option<T::Reply>>> = self.bufs.take_matrix(p);
        let mut slots: Vec<Vec<(usize, usize)>> = self.bufs.take_matrix(p);
        let mut send: Vec<Vec<T>> = self.bufs.take_matrix(p);
        for (m, row) in tasks.iter().enumerate() {
            out[m].resize_with(row.len(), || None);
            slots[m].extend((0..row.len()).map(|j| (m, j)));
        }
        // The originals; `work[m]` and `slots[m]` stay index-aligned until
        // module `m`'s replies land (or its entries are re-homed).
        let mut work = tasks;
        loop {
            // Detection → recovery: repair deaths from previous waves (or
            // from broadcasts / earlier ops) before dispatching.
            let newly = self.sys.take_newly_dead();
            if !newly.is_empty() {
                self.recover_modules(&newly);
            }
            // Re-route entries parked on dead modules (stale caller routing
            // or the previous wave's losses).
            for m in 0..p {
                if self.sys.is_dead(m) && !work[m].is_empty() {
                    let row = std::mem::take(&mut work[m]);
                    let row_slots = std::mem::take(&mut slots[m]);
                    for (mut t, slot) in row.into_iter().zip(row_slots) {
                        match t.reroute(self) {
                            Route::To(nm) => {
                                debug_assert!(!self.sys.is_dead(nm as usize));
                                work[nm as usize].push(t);
                                slots[nm as usize].push(slot);
                            }
                            Route::Void(r) => out[slot.0][slot.1] = Some(r),
                        }
                    }
                }
            }
            if work.iter().all(Vec::is_empty) {
                break;
            }
            // Copy-on-fault: a fail-stop loses the module's task buffer
            // mid-round, so rows whose module the plan fails this wave are
            // dispatched from clones with the originals kept for replay.
            // Every other row — all of them, at fault rate 0 with a dead
            // module elsewhere — moves into the round, zero-copy.
            for m in 0..p {
                if work[m].is_empty() {
                    continue;
                }
                if self.sys.predict_round_failure(m as u32) {
                    send[m].extend(work[m].iter().cloned());
                } else {
                    send[m] = std::mem::take(&mut work[m]);
                }
            }
            let replies = self.sys.execute_round_in(&mut send, handler);
            let mut any_lost = false;
            for (m, reps) in replies.into_iter().enumerate() {
                if slots[m].is_empty() {
                    continue;
                }
                if reps.is_empty() {
                    // No validated reply arrived: the module fail-stopped.
                    // Its originals were kept (the plan predicted this
                    // failure); the next iteration re-homes them.
                    assert!(
                        !work[m].is_empty(),
                        "module {m} failed a wave the fault plan predicted it would survive"
                    );
                    any_lost = true;
                    continue;
                }
                assert_eq!(reps.len(), slots[m].len(), "module handlers reply 1:1");
                work[m].clear();
                for (slot, r) in slots[m].drain(..).zip(reps) {
                    out[slot.0][slot.1] = Some(r);
                }
            }
            if !any_lost {
                break;
            }
        }
        // Deaths in the final wave (typically of modules idle this round)
        // are repaired eagerly so the next round starts consistent.
        let pending = self.sys.take_newly_dead();
        if !pending.is_empty() {
            self.recover_modules(&pending);
        }
        let result: Vec<Vec<T::Reply>> = out
            .iter_mut()
            .map(|row| row.drain(..).map(|o| o.expect("every task resolved")).collect())
            .collect();
        self.bufs.put_matrix(out);
        self.bufs.put_matrix(slots);
        self.bufs.put_matrix(send);
        self.bufs.put_matrix(work);
        result
    }

    /// Graceful degradation after fail-stop: salvages each dead module's
    /// resident master fragments over host DMA (the fail-stop axiom keeps
    /// MRAM readable, see `pim_sim::fault`), re-homes them on surviving
    /// modules via [`Self::place_module`] (a dead module is never a
    /// candidate, so the masters of one spread over their other hashed
    /// choices), repairs the directory, purges
    /// cache registrations lost with the module, and re-installs the moved
    /// fragments — itself a robust round, since recovery can be hit by
    /// further faults.
    fn recover_modules(&mut self, dead: &[u32]) {
        let mut rescued: Vec<Fragment<D>> = Vec::new();
        for &d in dead {
            let frags = self.sys.salvage(d as usize, |m| {
                // Copies only the fragments a snapshot still shares.
                let mut frags: Vec<Fragment<D>> = std::mem::take(&mut m.masters)
                    .into_values()
                    .map(std::sync::Arc::unwrap_or_clone)
                    .collect();
                // The DMA read covers the whole resident image; caches are
                // not worth re-homing — they can be rebuilt from masters.
                let bytes: u64 = frags.iter().map(Fragment::bytes).sum::<u64>()
                    + m.caches.values().map(|f| f.structure_bytes()).sum::<u64>();
                m.caches.clear();
                frags.sort_unstable_by_key(|f| f.meta);
                (frags, bytes)
            });
            rescued.extend(frags);
        }
        // Cache copies hosted on the dead modules died with them.
        for e in self.dir.metas.values_mut() {
            e.cached_on.retain(|m| !dead.contains(m));
        }
        let mut installs = self.task_matrix::<MgmtTask<D>>();
        let mut load = self.module_loads();
        for mut f in rescued {
            // Only re-home fragments the directory still routes to a dead
            // module; anything else is a stale copy pending a drop.
            let Some(e) = self.dir.metas.get(&f.meta).filter(|e| dead.contains(&e.module)) else {
                continue;
            };
            let target = self.place_module(f.meta, e.estimated_count(), &mut load);
            f.master_module = target;
            self.rehome(f.meta, target);
            installs[target as usize].push(MgmtTask::InstallMaster(f));
        }
        if self.sys.metrics().enabled() {
            let rehomed: u64 = installs.iter().map(|v| v.len() as u64).sum();
            self.sys.metrics().with(|m| {
                m.add("host_recoveries_total", &[], dead.len() as u64);
                m.add("host_rehomed_fragments_total", &[], rehomed);
            });
        }
        self.mgmt_round_if_any(installs);
    }

    /// Each module's point load: the sum of the host-known counters
    /// (`synced_sc + pending_delta`) of the masters it holds. Derived from
    /// the directory, never stored, so a restored tree places exactly as
    /// the live one would. A step that places several masters folds it
    /// once and lets [`Self::place_module`] charge each placement to it.
    pub(crate) fn module_loads(&self) -> Vec<u64> {
        let mut load = vec![0u64; self.sys.n_modules()];
        for e in self.dir.metas.values() {
            load[e.module as usize] += e.estimated_count();
        }
        load
    }

    /// Places master `id` of about `count` points on the least-loaded live
    /// one of its hashed choices under `load` ([`place_least_loaded`]), and
    /// charges `count` to the module chosen.
    pub(crate) fn place_module(&self, id: MetaId, count: u64, load: &mut [u64]) -> u32 {
        place(self.cfg.placement_seed, id, count, load, self.sys.dead_mask())
    }

    /// Records that `meta`'s master now lives on `module`. The cache
    /// targets around it moved with it, so the meta and its L1 ancestors
    /// and descendants are marked dirty: the next update batch's cache
    /// reconcile resends them (a mark survives a checkpoint).
    pub(crate) fn rehome(&mut self, meta: MetaId, module: u32) {
        self.dir.get_mut(meta).module = module;
        for id in self.dir.l1_neighbourhood(meta) {
            self.dir.get_mut(id).dirty = true;
        }
    }

    /// The module currently hosting `meta`'s master (directory-
    /// authoritative; [`RemoteRef`](crate::frag::RemoteRef) module fields
    /// are advisory and may go stale after a recovery migration).
    pub(crate) fn master_module(&self, meta: MetaId) -> u32 {
        self.dir.get(meta).module
    }

    /// An empty per-module task matrix, recycled from the buffer pool.
    ///
    /// The matrix flows into a round (usually via [`Self::robust_round`],
    /// which returns it to the pool); its row capacities survive the trip,
    /// so steady-state operations stop allocating one `Vec` per module per
    /// op.
    pub(crate) fn task_matrix<T: Send + 'static>(&mut self) -> Vec<Vec<T>> {
        let p = self.sys.n_modules();
        self.bufs.take_matrix(p)
    }

    /// Makes the host hold the master fragment of each of `metas`, pulling
    /// in one round those it does not hold yet (none: no round). This is the
    /// "pull" of push-pull search: only master storage is fetched (caches
    /// excluded, §3.3) and the bytes are charged as PIM→CPU traffic. Read
    /// them from [`Self::held`], each at its staging address. A recovery
    /// inside the round empties the set, so a meta held before the call
    /// may be missing after it; callers push what they do not find.
    pub(crate) fn pull_fragments(&mut self, metas: &[MetaId]) {
        let mut tasks = self.task_matrix::<MgmtTask<D>>();
        let mut sent = 0u64;
        for &m in metas.iter().filter(|m| !self.held.contains_key(m)) {
            let module = self.dir.get(m).module as usize;
            tasks[module].push(MgmtTask::Pull(m));
            sent += 1;
        }
        let reused = metas.len() as u64 - sent;
        if reused > 0 {
            self.sys.metrics().with(|m| m.add("host_pulls_reused_total", &[], reused));
        }
        for per_module in self.mgmt_round_if_any(tasks) {
            for r in per_module {
                if let MgmtReply::Pulled(f) = r {
                    let addr = self.stage_addr(f.bytes());
                    self.held.insert(f.meta, (f, addr));
                }
            }
        }
    }

    /// Decides which meta-nodes to pull given per-meta demand (Alg. 1 step
    /// 2): while the busiest module carries more than `imbalance_factor` ×
    /// the average load, every meta whose demand exceeds its layer's K
    /// threshold is pulled. Returns the chosen metas.
    pub(crate) fn pull_candidates(&self, demand: &FxHashMap<MetaId, u64>) -> Vec<MetaId> {
        if demand.is_empty() {
            return Vec::new();
        }
        let mut per_module: FxHashMap<u32, u64> = FxHashMap::default();
        let mut total = 0u64;
        for (&meta, &n) in demand {
            *per_module.entry(self.dir.get(meta).module).or_insert(0) += n;
            total += n;
        }
        let busiest = per_module.values().copied().max().unwrap_or(0);
        let avg = total as f64 / self.sys.n_modules() as f64;
        if (busiest as f64) <= self.cfg.imbalance_factor * avg.max(1.0) {
            return Vec::new();
        }
        let mut out: Vec<MetaId> = demand
            .iter()
            .filter(|(&meta, &n)| {
                let k = match self.dir.get(meta).layer {
                    Layer::L1 => self.cfg.k_pull_l1,
                    _ => self.cfg.k_pull_l2,
                };
                n > k
            })
            .map(|(&m, _)| m)
            .collect();
        out.sort_unstable();
        out
    }

    // -----------------------------------------------------------------
    // Fault-plane control (public API)
    // -----------------------------------------------------------------

    /// Attaches (or with `None` detaches) a fault-injection plan to the
    /// simulated machine (see `pim_sim::fault`) and clears the dead-module
    /// markers, but not the fault counters of [`Self::sim_stats`]: an
    /// experiment attaches its plan once, to a fresh tree. Injection only
    /// applies to accounted rounds, so warmup/build phases run fault-free.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.sys.set_fault_plan(plan);
    }

    /// Scripted fail-stop of one module (test/bench hook). Detection and
    /// recovery happen at the next round the index executes.
    pub fn kill_module(&mut self, module: usize) {
        self.sys.kill_module(module);
    }

    /// Number of modules still alive.
    pub fn n_live_modules(&self) -> usize {
        self.sys.n_live()
    }

    /// Re-checks whether L0 still fits in the LLC; flips the replication
    /// flag (and charges the replication broadcast) when it first overflows.
    pub(crate) fn update_l0_replication(&mut self) {
        let l0_bytes = self.l0.as_ref().map_or(0, Fragment::bytes);
        let cache = self.meter.cache().config().capacity_bytes;
        if !self.l0_replicated && l0_bytes > cache {
            self.l0_replicated = true;
            // Replicating L0 to every module is a broadcast of its bytes.
            self.sys.broadcast(ReplBytes(l0_bytes), |_, _, ctx, b| {
                ctx.mem(b.0);
            });
        }
    }
}

/// The held copy of `meta` and its staging address, if `meta` is one of
/// `step` — the metas one pull step chose (sorted, as
/// [`PimZdTree::pull_candidates`] returns them), which that step walks on
/// the host, whatever else the host holds. A free function so that a
/// caller can charge the tree's meter while it reads the copy.
pub(crate) fn held_in<'a, const D: usize>(
    held: &'a FxHashMap<MetaId, (Fragment<D>, u64)>,
    step: &[MetaId],
    meta: MetaId,
) -> Option<&'a (Fragment<D>, u64)> {
    step.binary_search(&meta).ok().and_then(|_| held.get(&meta))
}

/// [`PimZdTree::place_module`] as a free function, for call sites that
/// hold partial borrows of the tree (the build's carver).
pub(crate) fn place(seed: u64, id: MetaId, count: u64, load: &mut [u64], dead: &[bool]) -> u32 {
    let m = place_least_loaded(seed, id, load, dead);
    load[m] += count;
    m as u32
}

/// Where a task goes when its target module fail-stopped before the task
/// committed.
pub(crate) enum Route<R> {
    /// Replay on this (live) module.
    To(u32),
    /// The task is moot after the failure; this reply stands in at its
    /// original position so positional reply matching stays aligned.
    Void(R),
}

/// A round task the robust layer can re-home after a module death. The
/// directory is authoritative for routing; embedded `RemoteRef` module
/// fields are advisory hints that may go stale across a recovery.
pub(crate) trait Reroutable<const D: usize>: Sized {
    /// Reply type the round's handler produces for this task.
    type Reply: Wire + Send + 'static;
    /// Picks a new destination after recovery repaired the directory.
    fn reroute(&mut self, tree: &mut PimZdTree<D>) -> Route<Self::Reply>;
    /// Whether a round of these tasks may write a master. Decided by the
    /// task type; only management rounds, a few tasks each, are looked at.
    fn may_write(rows: &[Vec<Self>]) -> bool;
}

/// Tasks that run at the master of the fragment they name follow it.
macro_rules! reroute_to_master {
    ($($task:ident => $reply:ty, writes: $writes:literal),* $(,)?) => {$(
        impl<const D: usize> Reroutable<D> for crate::module::$task<D> {
            type Reply = $reply;
            fn reroute(&mut self, tree: &mut PimZdTree<D>) -> Route<Self::Reply> {
                Route::To(tree.master_module(self.meta))
            }
            fn may_write(_: &[Vec<Self>]) -> bool {
                $writes
            }
        }
    )*};
}

reroute_to_master! {
    SearchTask => crate::module::SearchReply<D>, writes: false,
    InsertTask => crate::module::InsertReply<D>, writes: true,
    DeleteTask => crate::module::DeleteReply<D>, writes: true,
    KnnTask => crate::module::KnnReply<D>, writes: false,
    BoxTask => crate::module::BoxReply<D>, writes: false,
}

impl<const D: usize> Reroutable<D> for MgmtTask<D> {
    type Reply = MgmtReply<D>;
    fn may_write(rows: &[Vec<Self>]) -> bool {
        let read = |t: &Self| matches!(t, MgmtTask::Pull(_) | MgmtTask::PullStructure(_));
        !rows.iter().flatten().all(read)
    }
    fn reroute(&mut self, tree: &mut PimZdTree<D>) -> Route<Self::Reply> {
        match self {
            MgmtTask::InstallMaster(f) => {
                // The destination died before the install committed:
                // re-place on a survivor and repoint the directory (the
                // split flows register entries before installing). One
                // placement: the tally is dropped, so nothing is charged.
                let target = tree.place_module(f.meta, 0, &mut tree.module_loads());
                f.master_module = target;
                if tree.dir.metas.contains_key(&f.meta) {
                    tree.rehome(f.meta, target);
                }
                Route::To(target)
            }
            // The cached copy — or a stale master already pending a drop —
            // died with its host; the task is moot. (Recovery only re-homes
            // fragments the directory still routes to the dead module, so a
            // dropped-in-flight master is never resurrected.)
            MgmtTask::InstallCache(_)
            | MgmtTask::DropCache(_)
            | MgmtTask::PatchCache { .. }
            | MgmtTask::DropMaster(_) => Route::Void(MgmtReply::Ack),
            MgmtTask::Pull(m) | MgmtTask::PullStructure(m) => Route::To(tree.master_module(*m)),
            // Counter syncs write absolute values, so reaching the re-homed
            // master — possibly in addition to a copy of this task that
            // already ran there — is idempotent. A void reply covers a
            // parent that dissolved concurrently.
            MgmtTask::SyncChild { parent, .. } => match tree.dir.metas.get(parent) {
                Some(e) => Route::To(e.module),
                None => Route::Void(MgmtReply::Ack),
            },
            // Splices no-op when the child ref is already gone
            // (`ReplaceOutcome::NotFound`), so replaying a cache-host copy
            // against the master is safe.
            MgmtTask::ReplaceChild { parent, .. } => match tree.dir.metas.get(parent) {
                Some(e) => Route::To(e.module),
                None => Route::Void(MgmtReply::ReplaceStatus {
                    parent: *parent,
                    collapsed: None,
                    narrowed: None,
                }),
            },
            MgmtTask::SplitRoot { meta, new_ids, .. } => {
                // Re-place split children headed for modules that died
                // after placement, each charged half the splitting meta.
                let half = tree.dir.get(*meta).estimated_count() / 2;
                let mut load = tree.module_loads();
                for (id, module) in new_ids.iter_mut() {
                    if tree.sys.is_dead(*module as usize) {
                        *module = tree.place_module(*id, half, &mut load);
                    }
                }
                Route::To(tree.master_module(*meta))
            }
        }
    }
}

/// Opaque broadcast payload carrying only a byte count (used to charge L0
/// replication without materializing per-module copies the simulation never
/// reads — the host copy is authoritative for correctness).
pub(crate) struct ReplBytes(pub u64);

impl pim_sim::Wire for ReplBytes {
    fn wire_bytes(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PimZdConfig;
    use pim_workloads::uniform;
    use std::collections::{BTreeMap, BTreeSet};

    /// Each meta's master module, by meta id.
    fn placement(t: &PimZdTree<3>) -> BTreeMap<MetaId, u32> {
        t.dir.metas.values().map(|e| (e.id, e.module)).collect()
    }

    #[test]
    fn a_dead_modules_masters_spread_over_the_survivors() {
        let pts = uniform::<3>(20_000, 5);
        let mut t = PimZdTree::build(
            &pts,
            PimZdConfig::skew_resistant(32),
            MachineConfig::with_modules(32),
        );
        let before = placement(&t);
        let mut held = vec![0usize; 32];
        for &m in before.values() {
            held[m as usize] += 1;
        }
        let victim = (0..32).max_by_key(|&m| held[m]).unwrap() as u32;
        assert!(held[victim as usize] >= 3, "the busiest module holds {held:?}");
        t.kill_module(victim as usize);
        // Detection and recovery happen at the next round.
        assert!(t.batch_contains(&pts[..100]).iter().all(|&hit| hit));
        let after = placement(&t);
        let survivors: BTreeSet<u32> =
            before.iter().filter(|&(_, &m)| m == victim).map(|(id, _)| after[id]).collect();
        assert!(!survivors.contains(&victim));
        assert!(
            survivors.len() >= 2,
            "{} masters of module {victim} all moved to {survivors:?}",
            held[victim as usize]
        );
    }

    #[test]
    fn a_restored_tree_places_new_fragments_as_the_live_one_does() {
        let pts = uniform::<3>(20_000, 6);
        let mut more = uniform::<3>(12_000, 7);
        // The last batch crowds into a quarter of the space, so that its
        // fragments grow past θ_L0 and split.
        for p in &mut more[3_000..] {
            p.coords[0] /= 4;
        }
        for cfg in [PimZdConfig::skew_resistant(16), PimZdConfig::throughput_optimized(20_000, 16)]
        {
            let mut live = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(16));
            // Counters the image must carry: pending deltas, a dead module.
            live.batch_insert(&more[..2_000]);
            live.kill_module(3);
            live.batch_insert(&more[2_000..3_000]);
            let mut restored = PimZdTree::<3>::restore_bytes(&live.checkpoint_bytes()).unwrap();
            let before = live.dir.id_bound();
            live.batch_insert(&more[3_000..]);
            restored.batch_insert(&more[3_000..]);
            let placed = placement(&live);
            assert!(placed.keys().any(|&id| id >= before), "the batch placed no new fragment");
            assert_eq!(placed, placement(&restored));
        }
    }
}
