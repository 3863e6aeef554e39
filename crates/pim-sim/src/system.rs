//! The BSP round executor.
//!
//! A [`PimSystem`] owns `P` module states and executes bulk-synchronous
//! rounds: the host scatters per-module task buffers, every module's handler
//! runs (in parallel, via rayon), and the host gathers per-module reply
//! buffers. All four cost channels are accounted per round:
//!
//! 1. **CPU→PIM bytes** — the wire size of the scattered tasks;
//! 2. **PIM→CPU bytes** — the wire size of the gathered replies;
//! 3. **PIM time** — the *maximum* per-module core time (the PIM Model's
//!    round metric; stragglers determine round completion, §1 Q1);
//! 4. **Overheads** — one mux switch per round plus one transfer-call
//!    overhead per module that sent or received data (the Direct-API knob).
//!
//! Handlers receive `(module_index, &mut M, &mut PimCtx, Vec<T>)` and must
//! charge their work to the ctx; the simulator trusts but verifies nothing —
//! the cost model is part of the algorithm under test, exactly as a DPU
//! kernel's cycle count is part of a real implementation.
//!
//! # One round path
//!
//! Every kind of round — [`PimSystem::execute_round`],
//! [`PimSystem::broadcast`], with or without a fault plan — is the same four
//! steps over different data:
//!
//! 1. `draw_fates`: each module's sequence of delivery attempts. `[Ok]` for
//!    a module the host sends work to, `[]` for an idle or dead one, and
//!    whatever the [`FaultPlan`] draws when one is attached;
//! 2. `run_modules`: the parallel step, running the handler of every
//!    module whose fate ends in a success;
//! 3. `account`: the sequential wave/retry fold of fates, meters and
//!    per-module byte vectors into one `RoundAccount`, priced by the PIM
//!    Model formula in `price` (the only place it is written down);
//! 4. `commit`: that one value advances [`SimStats`] — its fault counters
//!    included — feeds the metrics registry and becomes the journaled
//!    [`RoundRecord`], whose id is the count of rounds committed before it
//!    (`SimStats::rounds`).
//!
//! A fault-free round is not a separate fast path but the one-wave case of
//! step 3, and [`PimSystem::salvage`] — a host DMA no module takes part in —
//! skips to `price` and `commit`. So the journal, the stats and the metrics
//! agree because they are the same number, not because a test compares
//! them. The only counts that no round carries are a scripted
//! [`PimSystem::kill_module`] death and [`PimSystem::record_host_crash`].

use crate::config::MachineConfig;
use crate::ctx::PimCtx;
use crate::fault::{AttemptOutcome, FaultEvent, FaultKind, FaultPlan, ModuleFate};
use crate::metrics::Metrics;
use crate::stats::{RoundAccount, RoundBreakdown, SimStats};
use crate::trace::{summarize_cycles, Journal, RoundKind, RoundRecord};
use crate::wire::{checksum64, validate_checksum, Wire};
use rayon::prelude::*;

/// A simulated PIM machine with module state `M`.
///
/// ```
/// use pim_sim::{MachineConfig, PimSystem};
///
/// let mut sys = PimSystem::new(MachineConfig::with_modules(4), |_| 0u64);
/// let tasks: Vec<Vec<u32>> = (0..4).map(|i| vec![i as u32]).collect();
/// let replies = sys.execute_round(tasks, |_, state, ctx, t| {
///     ctx.op(t.len() as u64);
///     *state += t.len() as u64;
///     t
/// });
/// assert_eq!(replies[3], vec![3]);
/// assert!(sys.stats().channel_bytes() > 0);
/// ```
pub struct PimSystem<M> {
    cfg: MachineConfig,
    modules: Vec<M>,
    stats: SimStats,
    /// When false, rounds execute but are not charged (warmup phases).
    pub accounting: bool,
    /// Round journal; none (no records built) by default.
    journal: Option<Journal>,
    /// Metrics registry handle; disabled (no registry) by default.
    metrics: Metrics,
    /// Active phase labels, innermost last; records carry their `/`-join.
    phase_stack: Vec<String>,
    /// Fault-injection oracle; `None` keeps the fault plane entirely off
    /// the round hot path.
    plan: Option<FaultPlan>,
    /// Per-module fail-stop markers. A dead module's handler never runs
    /// again; its state stays resident for [`Self::salvage`].
    dead: Vec<bool>,
    /// Modules declared dead since the last [`Self::take_newly_dead`].
    newly_dead: Vec<u32>,
}

/// The simulator counters a checkpoint must carry (see
/// [`PimSystem::export_counters`]). Module *state* travels separately —
/// the host serializes its own `ModuleState` payloads — this is the
/// machine-side bookkeeping around them.
#[derive(Clone, Debug)]
pub struct SimCounters {
    /// Lifetime stats, fault counters and round count included.
    pub stats: SimStats,
    /// Per-module fail-stop markers.
    pub dead: Vec<bool>,
}

impl<M: Send> PimSystem<M> {
    /// Builds a machine whose module `i` starts as `init(i)`.
    pub fn new(cfg: MachineConfig, init: impl FnMut(usize) -> M) -> Self {
        let modules: Vec<M> = (0..cfg.n_modules).map(init).collect();
        let p = modules.len();
        Self {
            cfg,
            modules,
            stats: SimStats::default(),
            accounting: true,
            journal: None,
            metrics: Metrics::disabled(),
            phase_stack: Vec::new(),
            plan: None,
            dead: vec![false; p],
            newly_dead: Vec::new(),
        }
    }

    /// Attaches (or with `None` detaches) a round journal; every subsequent
    /// accounted round appends a [`RoundRecord`] to it.
    pub fn set_journal(&mut self, journal: Option<Journal>) {
        self.journal = journal;
    }

    /// Attaches a metrics registry handle; every subsequent *accounted*
    /// round publishes counters into it (see ARCHITECTURE.md §2 for the
    /// exact hook points). Pass [`Metrics::disabled`] to detach. Like the
    /// journal, a detached handle keeps the round hot path free of any
    /// metrics work beyond one branch.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// The attached metrics handle (disabled unless [`Self::set_metrics`]
    /// enabled one).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Opens a phase label for the dynamic extent of `f`: rounds executed
    /// inside carry the label (nested scopes join with `/`, e.g.
    /// `insert/maintain`). Labels are tracked even with tracing disabled —
    /// the bookkeeping is two `Vec` operations per scope.
    pub fn scoped_phase<R>(
        &mut self,
        label: impl Into<String>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.push_phase(label);
        let out = f(self);
        self.pop_phase();
        out
    }

    /// Opens a phase label (prefer [`Self::scoped_phase`]; this exists for
    /// callers that cannot express the scope as a closure over the system,
    /// e.g. methods of a struct that owns it).
    pub fn push_phase(&mut self, label: impl Into<String>) {
        self.phase_stack.push(label.into());
    }

    /// Closes the innermost phase label.
    pub fn pop_phase(&mut self) {
        self.phase_stack.pop();
    }

    /// The current `/`-joined phase label (`""` outside any scope).
    pub fn current_phase(&self) -> String {
        self.phase_stack.join("/")
    }

    /// Number of modules `P`.
    pub fn n_modules(&self) -> usize {
        self.modules.len()
    }

    /// Machine parameters.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Mutable machine parameters (benches flip the transfer API knob).
    pub fn config_mut(&mut self) -> &mut MachineConfig {
        &mut self.cfg
    }

    /// Read-only access to a module's state **for tests and invariant checks
    /// only** — it bypasses communication accounting.
    pub fn peek(&self, module: usize) -> &M {
        &self.modules[module]
    }

    /// Lifetime statistics, fault and recovery counters included.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Attaches (or with `None` detaches) a fault-injection plan and clears
    /// the dead-module markers, but no counter: an experiment attaches its
    /// plan once, to a fresh machine. Injection only applies to *accounted*
    /// rounds — warmup/build phases run fault-free by construction.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
        self.dead = vec![false; self.modules.len()];
        self.newly_dead.clear();
    }

    /// Restorable simulator counters: everything a host-process restart
    /// must re-establish so post-restore rounds are byte-identical to the
    /// uninterrupted run (the round count is the next round's id, which
    /// drives fault draws and journal records; stats drive `since`-window
    /// deltas).
    pub fn export_counters(&self) -> SimCounters {
        SimCounters { stats: self.stats, dead: self.dead.clone() }
    }

    /// Reinstates counters exported by [`Self::export_counters`] — the one
    /// sanctioned rewind of the otherwise-monotonic round count, sound
    /// only because it runs in a *fresh process* restoring a checkpoint:
    /// the rounds past the snapshot never happened in this lifetime, and
    /// WAL replay is about to re-execute them under their original ids.
    /// Sinks, metrics handles, and the fault plan are process-local
    /// attachments and are left untouched. Panics if the dead-mask width
    /// disagrees with the machine (that is a config mismatch the
    /// checkpoint layer rejects earlier with a typed error).
    pub fn import_counters(&mut self, c: SimCounters) {
        assert_eq!(c.dead.len(), self.modules.len(), "dead mask width must match the machine");
        self.stats = c.stats;
        self.dead = c.dead;
        self.newly_dead.clear();
    }

    /// An independent machine in this one's state: the same configuration,
    /// a clone of every module's state, the same counters and accounting
    /// switch — what restoring a checkpoint of this machine would build,
    /// without the serialization. It costs whatever `M::clone` costs, so a
    /// module state that shares its bulk behind `Arc`s forks in O(entries).
    /// The journal, metrics handle, fault plan and phase stack are
    /// attachments of *this* machine and are not carried over (the fork has
    /// none), exactly as after [`Self::import_counters`] into a new machine.
    pub fn fork(&self) -> Self
    where
        M: Clone,
    {
        let mut sys = Self::new(self.cfg, |i| self.modules[i].clone());
        sys.import_counters(self.export_counters());
        sys.accounting = self.accounting;
        sys
    }

    /// Records one recovered host crash (see [`FaultKind::HostCrash`]):
    /// called by the durability layer when WAL replay finds batches past
    /// the checkpoint epoch. Deliberately *not* journaled or metered — the
    /// crash happened between process lifetimes, and the byte-identity
    /// contract requires the replayed rounds to reproduce the original
    /// journal exactly, with no extra records.
    pub fn record_host_crash(&mut self) {
        self.stats.faults[FaultKind::HostCrash as usize] += 1;
    }

    /// Whether `module` has fail-stopped.
    pub fn is_dead(&self, module: usize) -> bool {
        self.dead[module]
    }

    /// Per-module fail-stop markers (`true` = dead), indexed by module.
    pub fn dead_mask(&self) -> &[bool] {
        &self.dead
    }

    /// Number of modules still alive.
    pub fn n_live(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Drains the list of modules declared dead since the last drain
    /// (sorted, deduplicated). The host's robust layer calls this after
    /// every round to trigger recovery.
    pub fn take_newly_dead(&mut self) -> Vec<u32> {
        let mut out = std::mem::take(&mut self.newly_dead);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Scripted fail-stop of one module (test/bench hook): the module is
    /// marked dead exactly as if the fault plan had drawn its death. The
    /// death is counted here, since no round's journal record carries it.
    pub fn kill_module(&mut self, module: usize) {
        if !self.dead[module] {
            self.mark_dead(module);
            self.stats.faults[FaultKind::Death as usize] += 1;
        }
    }

    /// Marks `module` fail-stopped, for [`Self::take_newly_dead`].
    fn mark_dead(&mut self, module: usize) {
        self.dead[module] = true;
        self.newly_dead.push(module as u32);
    }

    /// One host-side DMA read of a (typically dead) module's memory.
    ///
    /// `f` inspects the module state and returns `(result, bytes_read)`;
    /// the bytes are charged as PIM→CPU channel traffic plus one transfer
    /// call and a mux switch, and the round is journaled as
    /// [`RoundKind::Salvage`]. This models the fail-stop axiom that a dead
    /// core's MRAM stays host-readable (see `pim_sim::fault`).
    pub fn salvage<R>(&mut self, module: usize, f: impl FnOnce(&mut M) -> (R, u64)) -> R {
        let (out, bytes) = f(&mut self.modules[module]);
        if self.accounting {
            // No module runs: the DMA is one call issued before the host
            // knows the image size, so it is charged even for an empty one.
            self.commit(RoundAccount {
                breakdown: self.price(0.0, bytes, bytes, 1, 0.0),
                recv: bytes,
                events: vec![FaultEvent {
                    module: module as u32,
                    attempt: 0,
                    kind: FaultKind::Salvage,
                }],
                ..RoundAccount::empty(RoundKind::Salvage, self.modules.len())
            });
        }
        out
    }

    /// Executes one BSP round. `tasks[i]` is scattered to module `i`;
    /// modules with an empty task list do not run (no transfer call, no
    /// cycles). Returns `replies[i]` from each module.
    pub fn execute_round<T, R, F>(&mut self, mut tasks: Vec<Vec<T>>, handler: F) -> Vec<Vec<R>>
    where
        T: Wire + Send,
        R: Wire + Send,
        F: Fn(usize, &mut M, &mut PimCtx, Vec<T>) -> Vec<R> + Sync,
    {
        self.execute_round_in(&mut tasks, handler)
    }

    /// Like [`Self::execute_round`], but borrows the task matrix instead of
    /// consuming it: each row is taken (left empty) by the scatter, and the
    /// outer `Vec` survives for the caller to recycle. This is what the
    /// host's `RoundBuffers` pool builds on — per-op matrix allocations
    /// become clear-and-reuse.
    pub fn execute_round_in<T, R, F>(&mut self, tasks: &mut Vec<Vec<T>>, handler: F) -> Vec<Vec<R>>
    where
        T: Wire + Send,
        R: Wire + Send,
        F: Fn(usize, &mut M, &mut PimCtx, Vec<T>) -> Vec<R> + Sync,
    {
        let p = self.modules.len();
        assert!(tasks.len() <= p, "scattered {} task buffers onto {} modules", tasks.len(), p);
        tasks.resize_with(p, Vec::new);
        for (i, t) in tasks.iter().enumerate() {
            debug_assert!(
                t.is_empty() || !self.dead[i],
                "host scattered {} tasks to dead module {i}",
                t.len()
            );
        }
        // Sizes and counts are only observable before the rows move into
        // the handlers.
        let module_tasks: Vec<u64> = tasks.iter().map(|t| t.len() as u64).collect();
        let sent: Vec<u64> = tasks.iter().map(|t| t.wire_bytes()).collect();
        let fates = self.draw_fates(|i| module_tasks[i] > 0);
        let (replies, ctxs) = self.run_modules(tasks, &fates, handler);
        if self.accounting {
            let recv: Vec<u64> = replies.iter().map(|r| r.wire_bytes()).collect();
            let shape = RoundAccount {
                tasks: module_tasks.iter().sum(),
                replies: replies.iter().map(|r| r.len() as u64).sum(),
                module_tasks,
                ..RoundAccount::empty(RoundKind::Execute, p)
            };
            let account = self.account(shape, &fates, &ctxs, &sent, &recv);
            self.commit(account);
        }
        replies
    }

    /// Broadcasts one value to all live modules and applies it: charges one
    /// copy of the value's wire size per module of CPU→PIM traffic (how L0
    /// replication and promoted-node broadcasts are paid for, Alg 2 step
    /// 3d). It is a round like any other — same fates, same retry waves,
    /// same price — whose every module is sent the same bytes and replies
    /// with none, so a drop/corrupt draw models a lost delivery
    /// acknowledgement. Dead modules are skipped: the host knows the dead
    /// set and does not pay to reach them.
    pub fn broadcast<T, F>(&mut self, item: T, handler: F)
    where
        T: Wire + Sync,
        F: Fn(usize, &mut M, &mut PimCtx, &T) + Sync,
    {
        let p = self.modules.len();
        let fates = self.draw_fates(|_| true);
        let (_, ctxs) =
            self.run_modules(&mut vec![(); p], &fates, |i, m, ctx, ()| handler(i, m, ctx, &item));
        if self.accounting {
            let shape = RoundAccount { tasks: 1, ..RoundAccount::empty(RoundKind::Broadcast, p) };
            let account =
                self.account(shape, &fates, &ctxs, &vec![item.wire_bytes(); p], &vec![0; p]);
            self.commit(account);
        }
    }

    /// Whether a round can lose a module's replies: an active plan is
    /// attached, or some module has already fail-stopped (scripted kills
    /// work without a plan). Warmup (`accounting = false`) never injects,
    /// but must still route around dead modules. The executor itself does
    /// not branch on this — a fault-free round is simply one whose fates
    /// are all `[Ok]` — but the host's robust layer does, to decide whether
    /// a round needs retry/recovery scaffolding (task cloning, provenance
    /// tracking) at all.
    pub fn fault_plane_active(&self) -> bool {
        self.dead.iter().any(|&d| d)
            || (self.accounting && self.plan.as_ref().is_some_and(|pl| pl.config().is_active()))
    }

    /// The id the **next** accounted round will carry — in its journal
    /// record, and as the round its fault fates are drawn with.
    pub fn next_round_id(&self) -> u64 {
        self.stats.rounds
    }

    /// Whether `module`, if it takes part in the next round, will fail it
    /// — i.e. produce no validated reply. Fates are a pure function of
    /// `(plan seed, round, module, attempt)`, so the answer is exactly what
    /// the round will then draw. The host's robust layer uses this to clone
    /// only the task rows that will actually be lost this wave; a wrong
    /// prediction would either leak clones (harmless) or lose tasks (caught
    /// by the robust layer's reply-count assertion).
    pub fn predict_round_failure(&self, module: u32) -> bool {
        !self.fate(module as usize, true).success()
    }

    /// The fate of `module` in the next round — the one place that knows a
    /// dead module sits every round out, and that with no plan attached, or
    /// in an unaccounted round, a live participant simply succeeds.
    fn fate(&self, module: usize, participating: bool) -> ModuleFate {
        if self.dead[module] {
            return ModuleFate::IDLE;
        }
        match &self.plan {
            Some(pl) if self.accounting => {
                pl.module_fate(self.stats.rounds, module as u32, participating)
            }
            _ if participating => ModuleFate::OK,
            _ => ModuleFate::IDLE,
        }
    }

    /// Per-module fates for the next round, drawn sequentially (thread-count
    /// independent); modules whose fate is death are marked dead, and
    /// counted when the round commits its `Death` events.
    /// `participating(i)` is whether the host sends module `i` anything.
    fn draw_fates(&mut self, participating: impl Fn(usize) -> bool) -> Vec<ModuleFate> {
        let fates: Vec<ModuleFate> =
            (0..self.modules.len()).map(|i| self.fate(i, participating(i))).collect();
        for (i, f) in fates.iter().enumerate() {
            if f.died {
                self.mark_dead(i);
            }
        }
        fates
    }

    /// Runs `run` on every module whose fate commits, in parallel, handing
    /// it the module's input (taken, so every slot is left empty whether or
    /// not its module ran — a fail-stop loses the buffer). A module commits
    /// exactly once — at its successful attempt — or never (atomic
    /// attempts), so replay never double-applies state.
    ///
    /// Determinism audit: `collect` places each output at its module index
    /// (and each meter is written at its own) regardless of which worker
    /// finished first, nothing in
    /// the closure reads shared mutable state, and every order-sensitive
    /// fold over the results happens later, sequentially, in
    /// [`Self::account`]. A journal written at 16 threads is byte-identical
    /// to one written at 1.
    fn run_modules<I, O>(
        &mut self,
        inputs: &mut [I],
        fates: &[ModuleFate],
        run: impl Fn(usize, &mut M, &mut PimCtx, I) -> O + Sync,
    ) -> (Vec<O>, Vec<PimCtx>)
    where
        I: Default + Send,
        O: Default + Send,
    {
        let mut ctxs = vec![PimCtx::new(); fates.len()];
        let outs = self
            .modules
            .par_iter_mut()
            .zip(inputs.par_iter_mut())
            .zip(ctxs.par_iter_mut())
            .enumerate()
            .map(|(i, ((m, slot), ctx))| {
                let input = std::mem::take(slot);
                if fates[i].success() {
                    run(i, m, ctx, input)
                } else {
                    O::default()
                }
            })
            .collect();
        (outs, ctxs)
    }

    /// The PIM Model's price of one round (§2.1), applied here and nowhere
    /// else: the slowest module's core time, the channel time of the bytes
    /// moved (bounded per module and in aggregate), and the fixed costs —
    /// one mux switch, one host call per module-targeted transfer, and any
    /// fault-detection timeouts.
    fn price(
        &self,
        pim_s: f64,
        bytes: u64,
        max_module_bytes: u64,
        calls: u64,
        timeouts_s: f64,
    ) -> RoundBreakdown {
        RoundBreakdown {
            pim_s,
            comm_s: self.cfg.transfer_time_s(bytes, max_module_bytes),
            overhead_s: self.cfg.mux_switch_s
                + calls as f64 * self.cfg.call_overhead_s() / self.cfg.host_threads as f64
                + timeouts_s,
        }
    }

    /// Accounts one executed round: folds the per-module fates, meters and
    /// byte vectors (`sent[i]`/`recv[i]` are what one delivery to / one
    /// fetch from module `i` moves) into the round's [`RoundAccount`],
    /// completing `shape`. It counts nothing: `commit` folds the result.
    ///
    /// The round proceeds in *waves*. In wave `a`, every module whose fate
    /// has an attempt `a` gets its buffer (re-)sent; attempts that fail
    /// cost the host a detection timeout and a retry. Attempt `a` of every
    /// still-retrying module overlaps, so the round's PIM time is the sum
    /// over waves of the slowest member. A fault-free round is the
    /// one-wave case: the same float operations in the same order as a
    /// plain max over modules (`0.0 + max` and `… + 0 × timeout` are exact).
    fn account(
        &self,
        shape: RoundAccount,
        fates: &[ModuleFate],
        ctxs: &[PimCtx],
        sent: &[u64],
        recv: &[u64],
    ) -> RoundAccount {
        let round = self.stats.rounds;
        let plan = self.plan.as_ref();
        let factor = plan.map_or(1.0, |pl| pl.config().straggler_factor.max(1.0));
        // What one attempt costs relative to one clean run of the handler;
        // `× 1.0`, `× 0.0` and `+ 0.0` are exact, so this is pure bookkeeping.
        let weight = |o: AttemptOutcome| match o {
            AttemptOutcome::Straggler => factor,
            _ if o.executed() => 1.0,
            _ => 0.0,
        };
        let (mut retries, mut retransmitted_bytes) = (0u64, 0u64);
        let (mut total_sent, mut total_recv, mut max_module_bytes, mut calls) = (0u64, 0, 0, 0);
        let (mut max_cycles, mut sum_cycles) = (0u64, 0u64);
        let (mut n_waves, mut active_modules) = (0usize, 0u32);
        let mut module_cycles = Vec::with_capacity(fates.len());
        let mut events: Vec<FaultEvent> = Vec::new();

        for (i, fate) in fates.iter().enumerate() {
            n_waves = n_waves.max(fate.attempts.len());
            active_modules += fate.success() as u32;

            // Cycles: one full execution per executed attempt; the terminal
            // straggler attempt runs `factor` times slower.
            let (mut mult, mut fetches) = (0.0f64, 0u64);
            for (a, &o) in fate.attempts.iter().enumerate() {
                mult += weight(o);
                fetches += o.fetched_reply() as u64;
                if let (Some(pl), AttemptOutcome::ReplyCorrupt) = (plan, o) {
                    // Response validation: a corrupted reply is the good
                    // transfer checksum under a nonzero mask, and always
                    // fails the recomputation.
                    let key = pl.config().seed;
                    let got = checksum64(key, round, i as u32, recv[i])
                        ^ pl.corruption_mask(round, i as u32, a as u32);
                    debug_assert!(!validate_checksum(key, round, i as u32, recv[i], got));
                }
                if let Some(kind) = o.fault() {
                    events.push(FaultEvent { module: i as u32, attempt: a as u32, kind });
                }
            }
            if fate.died {
                events.push(FaultEvent {
                    module: i as u32,
                    attempt: fate.attempts.len().saturating_sub(1) as u32,
                    kind: FaultKind::Death,
                });
            }
            // Integral unless a retry or straggler actually scaled them.
            let cycles = ctxs[i].cycles;
            let charged = if mult == 1.0 { cycles } else { (cycles as f64 * mult) as u64 };
            max_cycles = max_cycles.max(charged);
            sum_cycles += charged;
            module_cycles.push(charged);

            // Bytes: every attempt re-sends, every fetch re-reads; one
            // transfer call each. A scatter skips modules it has no bytes
            // for; a broadcast addresses every live module regardless.
            let n_att = fate.attempts.len() as u64;
            let (m_sent, m_recv) = (sent[i] * n_att, recv[i] * fetches);
            let addressed = sent[i] > 0 || shape.kind == RoundKind::Broadcast;
            calls += if addressed { n_att } else { 0 } + if recv[i] > 0 { fetches } else { 0 };
            total_sent += m_sent;
            total_recv += m_recv;
            max_module_bytes = max_module_bytes.max(m_sent + m_recv);
            retries += n_att.saturating_sub(1);
            retransmitted_bytes += sent[i] * n_att.saturating_sub(1);
        }

        // Wave fold; each wave containing a failure charges one host
        // detection timeout to overhead.
        let mut pim_s = 0.0f64;
        let mut timeout_waves = 0u64;
        for w in 0..n_waves {
            let mut wave_max = 0.0f64;
            let mut wave_failed = false;
            for (fate, ctx) in fates.iter().zip(ctxs) {
                if let Some(&o) = fate.attempts.get(w) {
                    let base = ctx.time_s(self.cfg.pim_freq_hz, self.cfg.pim_local_bw);
                    wave_max = wave_max.max(base * weight(o));
                    wave_failed |= !o.is_success();
                }
            }
            pim_s += wave_max;
            timeout_waves += wave_failed as u64;
        }
        let timeout_s = timeout_waves as f64 * plan.map_or(0.0, |pl| pl.config().timeout_s);

        RoundAccount {
            breakdown: self.price(
                pim_s,
                total_sent + total_recv,
                max_module_bytes,
                calls,
                timeout_s,
            ),
            sent: total_sent,
            recv: total_recv,
            active_modules,
            max_cycles,
            sum_cycles,
            module_cycles,
            events,
            retries,
            retransmitted_bytes,
            timeout_s,
            ..shape
        }
    }

    /// Commits one accounted round: the single place where the lifetime
    /// stats advance (the round count, which is the round's id, and the
    /// fault counters with it), and the metrics registry and the journal
    /// are fed — all from the same [`RoundAccount`], so
    /// "Σ journal records = `SimStats`" and "metrics cover the rounds stats
    /// cover" hold by construction. Runs on the host thread after the
    /// parallel step, so feed order — and therefore every snapshot — is
    /// independent of host thread count. With no registry or journal attached
    /// each costs one branch.
    fn commit(&mut self, a: RoundAccount) {
        let round = self.stats.rounds;
        self.stats.record(&a);
        self.meter_round(&a);
        if let Some(journal) = &self.journal {
            let (cycle_hist, stragglers) = summarize_cycles(&a.module_cycles);
            journal.record(RoundRecord {
                round,
                phase: self.current_phase(),
                kind: a.kind,
                breakdown: a.breakdown,
                cpu_to_pim_bytes: a.sent,
                pim_to_cpu_bytes: a.recv,
                tasks: a.tasks,
                replies: a.replies,
                active_modules: a.active_modules,
                max_cycles: a.max_cycles,
                mean_cycles: a.mean_cycles(),
                sum_cycles: a.sum_cycles,
                cycle_hist,
                stragglers,
                faults: a.events,
            });
        }
    }

    /// Publishes one round into the metrics registry (no-op when the handle
    /// is disabled). `module_cycles` are charged cycles — retry/straggler
    /// multipliers included — so the busy-cycle counters sum to
    /// `SimStats::total_pim_cycles` exactly.
    fn meter_round(&self, a: &RoundAccount) {
        if !self.metrics.enabled() {
            return;
        }
        let kind = match a.kind {
            RoundKind::Execute => "execute",
            RoundKind::Broadcast => "broadcast",
            RoundKind::Salvage => "salvage",
        };
        let phase = self.current_phase();
        self.metrics.with(|m| {
            let ph: &[(&str, &str)] = &[("phase", &phase)];
            m.add("sim_rounds_total", &[("kind", kind)], 1);
            m.add("sim_cpu_to_pim_bytes_total", ph, a.sent);
            m.add("sim_pim_to_cpu_bytes_total", ph, a.recv);
            m.add("sim_tasks_total", ph, a.tasks);
            m.add_f("sim_pim_seconds_total", ph, a.breakdown.pim_s);
            m.add_f("sim_comm_seconds_total", ph, a.breakdown.comm_s);
            m.add_f("sim_overhead_seconds_total", ph, a.breakdown.overhead_s);
            m.observe("sim_round_max_cycles", ph, a.max_cycles);
            for (i, &c) in a.module_cycles.iter().enumerate() {
                // Rounds without per-module task buffers (broadcasts)
                // count none.
                let t = a.module_tasks.get(i).copied().unwrap_or(0);
                // Idle modules are skipped to keep series cardinality at
                // "modules ever used", not "modules × rounds".
                if c == 0 && t == 0 {
                    continue;
                }
                let id = i.to_string();
                let ml: &[(&str, &str)] = &[("module_id", &id)];
                m.add("sim_module_busy_cycles_total", ml, c);
                m.add("sim_module_tasks_total", ml, t);
            }
            if a.retries > 0 {
                m.add("sim_retries_total", &[], a.retries);
            }
            for e in &a.events {
                m.add("sim_faults_total", &[("kind", e.kind.name())], 1);
            }
            if a.kind == RoundKind::Salvage {
                m.add("sim_salvaged_bytes_total", &[], a.recv);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(p: usize) -> PimSystem<u64> {
        PimSystem::new(MachineConfig::with_modules(p), |_| 0u64)
    }

    #[test]
    fn round_scatters_and_gathers_in_order() {
        let mut sys = machine(4);
        let tasks: Vec<Vec<u32>> = vec![vec![1], vec![2, 2], vec![], vec![4]];
        let replies = sys.execute_round(tasks, |i, state, ctx, t| {
            *state += t.len() as u64;
            ctx.op(t.len() as u64);
            t.into_iter().map(|x| x as u64 * 10 + i as u64).collect::<Vec<u64>>()
        });
        assert_eq!(replies[0], vec![10]);
        assert_eq!(replies[1], vec![21, 21]);
        assert!(replies[2].is_empty());
        assert_eq!(replies[3], vec![43]);
        assert_eq!(*sys.peek(1), 2);
        assert_eq!(*sys.peek(2), 0, "idle module must not run");
    }

    #[test]
    fn byte_accounting_counts_both_directions() {
        let mut sys = machine(2);
        let tasks: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![]];
        let _ = sys.execute_round(tasks, |_, _, _, t| {
            t.into_iter().map(|x| x as u64).collect::<Vec<u64>>()
        });
        let s = sys.stats();
        assert_eq!(s.cpu_to_pim_bytes, 12);
        assert_eq!(s.pim_to_cpu_bytes, 24);
        assert_eq!(s.rounds, 1);
    }

    #[test]
    fn pim_time_is_max_over_modules() {
        let mut sys = machine(4);
        let tasks: Vec<Vec<u32>> = vec![vec![0], vec![0], vec![0], vec![0]];
        let _ = sys.execute_round(tasks, |i, _, ctx, _| {
            ctx.op(if i == 2 { 3500 } else { 35 });
            Vec::<u32>::new()
        });
        // 3500 cycles at 350 MHz = 10 µs.
        assert!((sys.stats().pim_s - 1e-5).abs() < 1e-9);
        assert!(sys.stats().agg_imbalance() > 3.0);
    }

    #[test]
    fn warmup_rounds_are_free() {
        let mut sys = machine(2);
        sys.accounting = false;
        let _ = sys.execute_round(vec![vec![1u32], vec![2u32]], |_, s, ctx, t| {
            *s += 1;
            ctx.op(1000);
            t
        });
        assert_eq!(sys.stats().rounds, 0);
        assert_eq!(sys.stats().channel_bytes(), 0);
        assert_eq!(*sys.peek(0), 1, "state still mutated during warmup");
    }

    #[test]
    fn broadcast_charges_p_copies() {
        let mut sys = machine(8);
        sys.broadcast(7u64, |_, s, ctx, v| {
            *s = *v;
            ctx.op(1);
        });
        assert_eq!(sys.stats().cpu_to_pim_bytes, 8 * 8);
        for i in 0..8 {
            assert_eq!(*sys.peek(i), 7);
        }
    }

    #[test]
    fn zero_byte_broadcast_still_charges_a_call_per_module() {
        let mut sys = machine(8);
        sys.broadcast((), |_, _, _, _| {});
        let cfg = sys.config();
        let want = cfg.mux_switch_s + 8.0 * cfg.call_overhead_s() / cfg.host_threads as f64;
        assert_eq!(sys.stats().overhead_s.to_bits(), want.to_bits());
    }

    #[test]
    fn sdk_api_has_higher_overhead() {
        let run = |api| {
            let mut cfg = MachineConfig::with_modules(64);
            cfg.api = api;
            let mut sys = PimSystem::new(cfg, |_| 0u64);
            let tasks: Vec<Vec<u32>> = (0..64).map(|_| vec![1u32]).collect();
            let _ = sys.execute_round(tasks, |_, _, _, _| vec![1u32]);
            sys.stats().overhead_s
        };
        let sdk = run(crate::config::TransferApi::Sdk);
        let direct = run(crate::config::TransferApi::Direct);
        assert!(sdk > direct);
    }

    #[test]
    #[should_panic(expected = "scattered")]
    fn too_many_task_buffers_panics() {
        let mut sys = machine(1);
        let _ = sys.execute_round(vec![vec![1u32], vec![2u32]], |_, _, _, t| t);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn aggregate_imbalance_dilutes_tiny_rounds() {
        let journal = Journal::new();
        let mut sys = PimSystem::new(MachineConfig::with_modules(4), |_| 0u64);
        sys.set_journal(Some(journal.clone()));
        // Round 1: heavily imbalanced but tiny (1 module, 40 cycles).
        let _ = sys.execute_round(vec![vec![1u32]], |_, _, ctx, _| {
            ctx.op(40);
            Vec::<u32>::new()
        });
        // Round 2: big and balanced.
        let tasks: Vec<Vec<u32>> = (0..4).map(|_| vec![0u32; 10]).collect();
        let _ = sys.execute_round(tasks, |_, _, ctx, _| {
            ctx.op(100_000);
            Vec::<u32>::new()
        });
        let s = sys.stats();
        assert!(journal.snapshot()[0].imbalance() >= 4.0, "per-round metric sees the tiny round");
        assert!(s.agg_imbalance() < 1.2, "aggregate metric must not: {:.3}", s.agg_imbalance());
    }

    #[test]
    fn summed_trace_records_reproduce_sim_stats_exactly() {
        let journal = Journal::new();
        let mut sys = PimSystem::new(MachineConfig::with_modules(4), |_| 0u64);
        sys.set_journal(Some(journal.clone()));

        // A mix of round shapes: skewed execute, short matrix, broadcast.
        sys.scoped_phase("search", |s| {
            let _ = s.execute_round(vec![vec![1u32, 2], vec![3u32]], |i, _, ctx, t| {
                ctx.op((i as u64 + 1) * 500);
                ctx.mem(64);
                t
            });
        });
        sys.scoped_phase("insert", |s| {
            s.scoped_phase("maintain", |s| {
                let _ = s.execute_round(vec![vec![9u32]], |_, _, ctx, _| {
                    ctx.op(100);
                    vec![7u64]
                });
            });
            s.broadcast(42u64, |_, _, ctx, _| ctx.op(10));
        });

        let recs = journal.snapshot();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].phase, "search");
        assert_eq!(recs[1].phase, "insert/maintain");
        assert_eq!(recs[2].phase, "insert");
        assert_eq!(recs[2].kind, crate::trace::RoundKind::Broadcast);
        // Monotonic ids.
        assert!(recs.windows(2).all(|w| w[1].round == w[0].round + 1));

        // Exact reassembly of the lifetime counters from the journal.
        let s = sys.stats();
        assert_eq!(recs.iter().map(|r| r.cpu_to_pim_bytes).sum::<u64>(), s.cpu_to_pim_bytes);
        assert_eq!(recs.iter().map(|r| r.pim_to_cpu_bytes).sum::<u64>(), s.pim_to_cpu_bytes);
        assert_eq!(recs.iter().map(|r| r.sum_cycles).sum::<u64>(), s.total_pim_cycles);
        assert_eq!(recs.iter().map(|r| r.max_cycles).sum::<u64>(), s.sum_max_cycles);
        assert_eq!(recs.len() as u64, s.rounds);
        let sum = |f: fn(&crate::trace::RoundRecord) -> f64| recs.iter().map(f).sum::<f64>();
        assert!((sum(|r| r.breakdown.pim_s) - s.pim_s).abs() < 1e-15);
        assert!((sum(|r| r.breakdown.comm_s) - s.comm_s).abs() < 1e-15);
        assert!((sum(|r| r.breakdown.overhead_s) - s.overhead_s).abs() < 1e-15);
    }

    #[test]
    fn unaccounted_rounds_emit_no_records() {
        let journal = Journal::new();
        let mut sys = PimSystem::new(MachineConfig::with_modules(2), |_| 0u64);
        sys.set_journal(Some(journal.clone()));
        sys.accounting = false;
        let _ = sys.execute_round(vec![vec![1u32]], |_, _, ctx, t| {
            ctx.op(1);
            t
        });
        assert!(journal.is_empty(), "warmup rounds stay out of the journal");
    }

    #[test]
    fn phase_labels_nest_and_unwind() {
        let mut sys = PimSystem::new(MachineConfig::with_modules(1), |_| 0u64);
        assert_eq!(sys.current_phase(), "");
        let label =
            sys.scoped_phase("insert", |s| s.scoped_phase("redistribute", |s| s.current_phase()));
        assert_eq!(label, "insert/redistribute");
        assert_eq!(sys.current_phase(), "", "labels unwind with their scopes");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::FaultConfig;

    fn run_workload(sys: &mut PimSystem<u64>, rounds: u64) {
        for r in 0..rounds {
            let p = sys.n_modules();
            let tasks: Vec<Vec<u32>> = (0..p)
                .map(|i| if sys.is_dead(i) { vec![] } else { vec![r as u32, i as u32] })
                .collect();
            let _ = sys.execute_round(tasks, |_, s, ctx, t| {
                ctx.op(100 + t.len() as u64 * 7);
                ctx.mem(32);
                *s += t.len() as u64;
                t
            });
            sys.broadcast(r, |_, s, ctx, v| {
                ctx.op(5);
                *s ^= v;
            });
        }
    }

    #[test]
    fn zero_rate_plan_is_charge_identical_to_no_plan() {
        let mut plain = PimSystem::new(MachineConfig::with_modules(8), |_| 0u64);
        let mut planned = PimSystem::new(MachineConfig::with_modules(8), |_| 0u64);
        planned.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.0, 99))));
        run_workload(&mut plain, 20);
        run_workload(&mut planned, 20);
        let (a, b) = (plain.stats(), planned.stats());
        assert_eq!(a.cpu_to_pim_bytes, b.cpu_to_pim_bytes);
        assert_eq!(a.pim_to_cpu_bytes, b.pim_to_cpu_bytes);
        assert_eq!(a.total_pim_cycles, b.total_pim_cycles);
        assert_eq!(a.pim_s.to_bits(), b.pim_s.to_bits(), "same float ops in the same order");
        assert_eq!(a.comm_s.to_bits(), b.comm_s.to_bits());
        assert_eq!(a.overhead_s.to_bits(), b.overhead_s.to_bits());
        assert_eq!(planned.stats().total_faults(), 0);
    }

    #[test]
    fn active_plan_is_deterministic() {
        let mk = || {
            let mut sys = PimSystem::new(MachineConfig::with_modules(8), |_| 0u64);
            sys.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.05, 7))));
            run_workload(&mut sys, 30);
            sys
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.stats().pim_s.to_bits(), b.stats().pim_s.to_bits());
        assert_eq!(a.stats().overhead_s.to_bits(), b.stats().overhead_s.to_bits());
        assert_eq!(a.stats().cpu_to_pim_bytes, b.stats().cpu_to_pim_bytes);
        assert!(a.stats().total_faults() > 0, "5% over 240 module-rounds must fire");
    }

    #[test]
    fn faults_cost_more_than_fault_free() {
        let mut plain = PimSystem::new(MachineConfig::with_modules(8), |_| 0u64);
        let mut faulty = PimSystem::new(MachineConfig::with_modules(8), |_| 0u64);
        faulty.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            p_death: 0.0,
            ..FaultConfig::uniform(0.2, 3)
        })));
        run_workload(&mut plain, 20);
        run_workload(&mut faulty, 20);
        assert!(faulty.stats().cpu_to_pim_bytes > plain.stats().cpu_to_pim_bytes, "retransmits");
        assert!(faulty.stats().overhead_s > plain.stats().overhead_s, "timeouts");
        assert!(faulty.stats().retries > 0);
    }

    #[test]
    fn killed_module_stops_executing_and_is_reported() {
        let mut sys = PimSystem::new(MachineConfig::with_modules(4), |_| 0u64);
        sys.kill_module(2);
        assert!(sys.is_dead(2));
        assert_eq!(sys.n_live(), 3);
        assert_eq!(sys.take_newly_dead(), vec![2]);
        assert!(sys.take_newly_dead().is_empty(), "drain empties the list");
        // The dead module's handler must never run again.
        let _ = sys.execute_round(vec![vec![1u32], vec![1], vec![], vec![1]], |_, s, ctx, _| {
            ctx.op(1);
            *s += 1;
            Vec::<u32>::new()
        });
        sys.broadcast(9u64, |_, s, ctx, _| {
            ctx.op(1);
            *s += 100;
        });
        assert_eq!(*sys.peek(2), 0, "dead module state is frozen");
        assert_eq!(*sys.peek(1), 101);
    }

    #[test]
    fn transient_faults_commit_exactly_once() {
        // Atomic attempts: no matter how many retries a round takes, the
        // handler's state mutation applies exactly once.
        let mut sys = PimSystem::new(MachineConfig::with_modules(8), |_| 0u64);
        sys.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            p_death: 0.0,
            max_retries: 20, // high enough that nothing ever dies
            ..FaultConfig::uniform(0.3, 5)
        })));
        for _ in 0..50 {
            let tasks: Vec<Vec<u32>> = (0..8).map(|_| vec![1]).collect();
            let _ = sys.execute_round(tasks, |_, s, ctx, t| {
                ctx.op(10);
                *s += 1;
                t
            });
        }
        assert!(sys.stats().retries > 0, "30% fault mass must retry sometimes");
        for i in 0..8 {
            assert_eq!(*sys.peek(i), 50, "module {i} must commit each round exactly once");
        }
    }

    #[test]
    fn death_draw_eventually_kills_and_replies_go_missing() {
        let mut sys = PimSystem::new(MachineConfig::with_modules(8), |_| 0u64);
        sys.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            p_death: 0.05,
            ..FaultConfig::disabled(1234)
        })));
        let mut saw_missing_reply = false;
        for r in 0..100u32 {
            let tasks: Vec<Vec<u32>> =
                (0..8).map(|i| if sys.is_dead(i) { vec![] } else { vec![r] }).collect();
            let expected: Vec<bool> = tasks.iter().map(|t| !t.is_empty()).collect();
            let replies = sys.execute_round(tasks, |_, _, ctx, t| {
                ctx.op(1);
                t
            });
            for (i, r) in replies.iter().enumerate() {
                if expected[i] && r.is_empty() {
                    saw_missing_reply = true; // died this round, before committing
                }
            }
        }
        assert!(sys.stats().faults_of(FaultKind::Death) > 0, "5% death rate over 100 rounds");
        assert!(saw_missing_reply, "a death mid-round must surface as a missing reply");
        assert_eq!(
            sys.take_newly_dead().len() as u64,
            sys.stats().faults_of(FaultKind::Death),
            "every death is reported exactly once"
        );
    }

    #[test]
    fn retried_broadcast_charges_the_same_channel_bound_as_a_retried_scatter() {
        // Same plan, same round id, same 4 000 B per module ⇒ same fates, so
        // a broadcast and a scatter must price the channel identically:
        // every re-send crosses the retried module's own channel again.
        let faulted = || {
            let mut sys = PimSystem::new(MachineConfig::with_modules(8), |_| 0u64);
            sys.set_fault_plan(Some(FaultPlan::new(FaultConfig {
                p_exec_fault: 0.5,
                ..FaultConfig::disabled(11)
            })));
            sys
        };
        let payload = vec![0u32; 1000];
        let mut scatter = faulted();
        let _ = scatter.execute_round(vec![payload.clone(); 8], |_, _, _, _| Vec::<u32>::new());
        let mut bcast = faulted();
        bcast.broadcast(payload, |_, _, _, _| {});

        assert!(bcast.stats().retries > 0, "a 50% fault mass over 8 modules must retry");
        let faults = |s: &SimStats| (s.faults, s.retries, s.retransmitted_bytes, s.timeout_s);
        assert_eq!(faults(bcast.stats()), faults(scatter.stats()));
        assert_eq!(bcast.stats().cpu_to_pim_bytes, scatter.stats().cpu_to_pim_bytes);
        assert_eq!(bcast.stats().comm_s.to_bits(), scatter.stats().comm_s.to_bits());
        let cfg = MachineConfig::with_modules(8);
        assert!(
            bcast.stats().comm_s >= 2.0 * 4000.0 / cfg.channel_bw_per_module,
            "the bound is bytes × attempts on the most-retried module"
        );
    }

    #[test]
    fn salvage_charges_channel_traffic_and_journals() {
        let journal = Journal::new();
        let mut sys = PimSystem::new(MachineConfig::with_modules(4), |i| i as u64);
        sys.set_journal(Some(journal.clone()));
        sys.kill_module(3);
        let before = sys.stats().pim_to_cpu_bytes;
        let got = sys.salvage(3, |m| (*m, 4096));
        assert_eq!(got, 3, "salvage reads the dead module's resident state");
        assert_eq!(sys.stats().pim_to_cpu_bytes - before, 4096);
        assert_eq!(sys.stats().faults_of(FaultKind::Salvage), 1);
        assert_eq!(sys.stats().salvaged_bytes, 4096);
        let recs = journal.snapshot();
        let rec = recs.last().unwrap();
        assert_eq!(rec.kind, RoundKind::Salvage);
        assert_eq!(rec.pim_to_cpu_bytes, 4096);
        assert_eq!(rec.faults.len(), 1);
        assert_eq!(rec.faults[0].kind, FaultKind::Salvage);
    }

    #[test]
    fn fault_events_land_in_the_journal() {
        let journal = Journal::new();
        let mut sys = PimSystem::new(MachineConfig::with_modules(8), |_| 0u64);
        sys.set_journal(Some(journal.clone()));
        sys.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            p_death: 0.0,
            ..FaultConfig::uniform(0.2, 8)
        })));
        run_workload(&mut sys, 10);
        let recs = journal.snapshot();
        let n_events: usize = recs.iter().map(|r| r.faults.len()).sum();
        assert_eq!(n_events as u64, sys.stats().total_faults());
        assert!(n_events > 0);
    }

    #[test]
    fn fault_counters_are_the_journal_events_by_kind() {
        // A plan that draws deaths, a scripted kill, the salvage of every
        // dead module and a host crash: every kind of count `SimStats`
        // keeps. Only the scripted death and the crash are counted between
        // rounds; every other count is an event of some round's record.
        let journal = Journal::new();
        let mut sys = PimSystem::new(MachineConfig::with_modules(8), |i| i as u64);
        sys.set_journal(Some(journal.clone()));
        sys.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            p_death: 0.02,
            ..FaultConfig::uniform(0.1, 31)
        })));
        for step in 0..12 {
            if step == 4 {
                let live = (0..8).find(|&i| !sys.is_dead(i)).unwrap();
                sys.kill_module(live);
            }
            run_workload(&mut sys, 1);
            for d in sys.take_newly_dead() {
                sys.salvage(d as usize, |m| (*m, 64 + *m));
            }
        }
        sys.record_host_crash();

        let recs = journal.snapshot();
        let mut journaled = [0u64; FaultKind::COUNT];
        for e in recs.iter().flat_map(|r| &r.faults) {
            journaled[e.kind as usize] += 1;
        }
        let s = sys.stats();
        for kind in FaultKind::ALL {
            let between_rounds = matches!(kind, FaultKind::Death | FaultKind::HostCrash) as u64;
            assert_eq!(s.faults_of(kind), journaled[kind as usize] + between_rounds, "{kind:?}");
            if kind != FaultKind::HostCrash {
                assert!(journaled[kind as usize] > 0, "no {kind:?} event was journaled");
            }
        }
        let salvaged: u64 =
            recs.iter().filter(|r| r.kind == RoundKind::Salvage).map(|r| r.pim_to_cpu_bytes).sum();
        assert_eq!(s.salvaged_bytes, salvaged);
        assert_eq!(s.rounds, recs.len() as u64);
        assert_eq!(sys.next_round_id(), recs.last().unwrap().round + 1);
    }

    #[test]
    fn warmup_rounds_never_inject() {
        let mut sys = PimSystem::new(MachineConfig::with_modules(4), |_| 0u64);
        sys.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.9, 2))));
        sys.accounting = false;
        for _ in 0..20 {
            let tasks: Vec<Vec<u32>> = (0..4).map(|_| vec![1]).collect();
            let _ = sys.execute_round(tasks, |_, s, _, t| {
                *s += 1;
                t
            });
        }
        assert_eq!(sys.stats().total_faults(), 0, "build/warmup is fault-free");
        for i in 0..4 {
            assert_eq!(*sys.peek(i), 20);
        }
    }
}
