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

use crate::config::MachineConfig;
use crate::ctx::PimCtx;
use crate::fault::{AttemptOutcome, FaultEvent, FaultKind, FaultLog, FaultPlan, ModuleFate};
use crate::metrics::Metrics;
use crate::stats::{LoadStats, RoundBreakdown, SimStats};
use crate::trace::{summarize_cycles, NullSink, RoundKind, RoundRecord, TraceSink};
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
    /// Trace receiver; [`NullSink`] (disabled) by default.
    sink: Box<dyn TraceSink>,
    /// Metrics registry handle; disabled (no registry) by default.
    metrics: Metrics,
    /// Monotonic id of the next accounted round (never reset).
    trace_round: u64,
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
    /// Lifetime fault/recovery counters.
    fault_log: FaultLog,
}

/// The simulator counters a checkpoint must carry (see
/// [`PimSystem::export_counters`]). Module *state* travels separately —
/// the host serializes its own `ModuleState` payloads — this is the
/// machine-side bookkeeping around them.
#[derive(Clone, Debug)]
pub struct SimCounters {
    /// Lifetime stats, including the per-round imbalance history that
    /// `SimStats::since` windows over.
    pub stats: SimStats,
    /// Id of the next accounted round.
    pub trace_round: u64,
    /// Lifetime fault/recovery counters.
    pub fault_log: FaultLog,
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
            sink: Box::new(NullSink),
            metrics: Metrics::disabled(),
            trace_round: 0,
            phase_stack: Vec::new(),
            plan: None,
            dead: vec![false; p],
            newly_dead: Vec::new(),
            fault_log: FaultLog::default(),
        }
    }

    /// Attaches a trace sink; every subsequent accounted round emits a
    /// [`RoundRecord`] to it. Pass `Box::new(NullSink)` to detach.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = sink;
    }

    /// Attaches a metrics registry handle; every subsequent *accounted*
    /// round publishes counters into it (see ARCHITECTURE.md §2 for the
    /// exact hook points). Pass [`Metrics::disabled`] to detach. Like the
    /// trace sink, a detached handle keeps the round hot path free of any
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

    /// Lifetime statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Resets statistics (e.g. after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }

    /// Attaches (or with `None` detaches) a fault-injection plan. This
    /// starts a fresh failure experiment: dead-module markers and the
    /// fault log are cleared. Injection only applies to *accounted*
    /// rounds — warmup/build phases run fault-free by construction.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
        self.dead = vec![false; self.modules.len()];
        self.newly_dead.clear();
        self.fault_log = FaultLog::default();
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Lifetime fault/recovery counters.
    pub fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }

    /// Restorable simulator counters: everything a host-process restart
    /// must re-establish so post-restore rounds are byte-identical to the
    /// uninterrupted run (round ids drive fault draws and journal records;
    /// stats drive `since`-window deltas).
    pub fn export_counters(&self) -> SimCounters {
        SimCounters {
            stats: self.stats.clone(),
            trace_round: self.trace_round,
            fault_log: self.fault_log.clone(),
            dead: self.dead.clone(),
        }
    }

    /// Reinstates counters exported by [`Self::export_counters`] — the one
    /// sanctioned rewind of the otherwise-monotonic `trace_round`, sound
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
        self.trace_round = c.trace_round;
        self.fault_log = c.fault_log;
        self.dead = c.dead;
        self.newly_dead.clear();
    }

    /// Records one recovered host crash (see [`FaultKind::HostCrash`]):
    /// called by the durability layer when WAL replay finds batches past
    /// the checkpoint epoch. Deliberately *not* journaled or metered — the
    /// crash happened between process lifetimes, and the byte-identity
    /// contract requires the replayed rounds to reproduce the original
    /// journal exactly, with no extra records.
    pub fn record_host_crash(&mut self) {
        self.fault_log.host_crashes += 1;
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
    /// marked dead exactly as if the fault plan had drawn its death.
    pub fn kill_module(&mut self, module: usize) {
        if !self.dead[module] {
            self.dead[module] = true;
            self.newly_dead.push(module as u32);
            self.fault_log.deaths += 1;
        }
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
            let breakdown = RoundBreakdown {
                pim_s: 0.0,
                comm_s: self.cfg.transfer_time_s(bytes, bytes),
                overhead_s: self.cfg.mux_switch_s
                    + self.cfg.call_overhead_s() / self.cfg.host_threads as f64,
            };
            let p = self.modules.len();
            self.stats.n_modules = p;
            self.stats.record(breakdown, LoadStats { max_cycles: 0, mean_cycles: 0.0 }, 0, bytes);
            self.fault_log.salvages += 1;
            self.fault_log.salvaged_bytes += bytes;
            let round = self.trace_round;
            self.trace_round += 1;
            if self.metrics.enabled() {
                let ev = FaultEvent { module: module as u32, attempt: 0, kind: FaultKind::Salvage };
                self.meter_round("salvage", &breakdown, 0, bytes, 0, 0, &[], &[], &[ev], 0);
                self.metrics.with(|m| m.add("sim_salvaged_bytes_total", &[], bytes));
            }
            if self.sink.enabled() {
                let (cycle_hist, stragglers) = summarize_cycles(&[]);
                self.sink.record(RoundRecord {
                    round,
                    phase: self.current_phase(),
                    kind: RoundKind::Salvage,
                    breakdown,
                    cpu_to_pim_bytes: 0,
                    pim_to_cpu_bytes: bytes,
                    tasks: 0,
                    replies: 0,
                    active_modules: 0,
                    max_cycles: 0,
                    mean_cycles: 0.0,
                    sum_cycles: 0,
                    cycle_hist,
                    stragglers,
                    faults: vec![FaultEvent {
                        module: module as u32,
                        attempt: 0,
                        kind: FaultKind::Salvage,
                    }],
                });
            }
        }
        out
    }

    /// Publishes one accounted round into the metrics registry. Called
    /// only from the sequential accounting blocks (after `stats.record`),
    /// so feed order — and therefore every snapshot — is independent of
    /// host thread count. No-op when the handle is disabled.
    ///
    /// `module_cycles[i]` is module `i`'s charged cycles this round
    /// (effective cycles on the fault path, i.e. including retry/straggler
    /// multipliers, so the busy-cycle counters sum to
    /// `SimStats::total_pim_cycles` exactly). `per_module_tasks` may be
    /// empty when the round has no per-module task buffers (broadcasts).
    #[allow(clippy::too_many_arguments)]
    fn meter_round(
        &self,
        kind: &'static str,
        breakdown: &RoundBreakdown,
        sent: u64,
        recv: u64,
        n_tasks: u64,
        max_cycles: u64,
        module_cycles: &[u64],
        per_module_tasks: &[u64],
        events: &[FaultEvent],
        retries: u64,
    ) {
        if !self.metrics.enabled() {
            return;
        }
        let phase = self.current_phase();
        self.metrics.with(|m| {
            let ph: &[(&str, &str)] = &[("phase", &phase)];
            m.add("sim_rounds_total", &[("kind", kind)], 1);
            m.add("sim_cpu_to_pim_bytes_total", ph, sent);
            m.add("sim_pim_to_cpu_bytes_total", ph, recv);
            m.add("sim_tasks_total", ph, n_tasks);
            m.add_f("sim_pim_seconds_total", ph, breakdown.pim_s);
            m.add_f("sim_comm_seconds_total", ph, breakdown.comm_s);
            m.add_f("sim_overhead_seconds_total", ph, breakdown.overhead_s);
            m.observe("sim_round_max_cycles", ph, max_cycles);
            for (i, &c) in module_cycles.iter().enumerate() {
                let t = per_module_tasks.get(i).copied().unwrap_or(0);
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
            if retries > 0 {
                m.add("sim_retries_total", &[], retries);
            }
            for e in events {
                m.add("sim_faults_total", &[("kind", e.kind.name())], 1);
            }
        });
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
        self.run_round(&mut tasks, handler, false)
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
        self.run_round(tasks, handler, false)
    }

    /// Like [`Self::execute_round`], but invokes the handler on **every**
    /// module, even those with no input (used for broadcast application,
    /// e.g. replicating L0 updates). Modules without input still pay no
    /// CPU→PIM transfer, but their work and replies are charged.
    pub fn execute_round_all<T, R, F>(&mut self, mut tasks: Vec<Vec<T>>, handler: F) -> Vec<Vec<R>>
    where
        T: Wire + Send,
        R: Wire + Send,
        F: Fn(usize, &mut M, &mut PimCtx, Vec<T>) -> Vec<R> + Sync,
    {
        self.run_round(&mut tasks, handler, true)
    }

    fn run_round<T, R, F>(
        &mut self,
        tasks: &mut Vec<Vec<T>>,
        handler: F,
        run_all: bool,
    ) -> Vec<Vec<R>>
    where
        T: Wire + Send,
        R: Wire + Send,
        F: Fn(usize, &mut M, &mut PimCtx, Vec<T>) -> Vec<R> + Sync,
    {
        let p = self.modules.len();
        assert!(tasks.len() <= p, "scattered {} task buffers onto {} modules", tasks.len(), p);
        tasks.resize_with(p, Vec::new);

        // The fault plane has a dedicated path so the common case below
        // stays exactly the pre-fault code (same float operations in the
        // same order — accounting is byte-identical when no plan is
        // attached, and when an attached plan has all-zero rates the
        // faulty path provably degenerates to the same arithmetic).
        if self.fault_plane_active() {
            return self.run_round_faulty(tasks, handler, run_all);
        }

        // Task counts are only observable before the buffers move into the
        // parallel scatter; gather them now iff a sink or the metrics
        // registry will consume them.
        let tracing = self.accounting && self.sink.enabled();
        let metered = self.accounting && self.metrics.enabled();
        let per_module_tasks: Vec<u64> =
            if metered { tasks.iter().map(|t| t.len() as u64).collect() } else { Vec::new() };
        let (n_tasks, n_active) = if tracing || metered {
            let active = if run_all { p } else { tasks.iter().filter(|t| !t.is_empty()).count() };
            (tasks.iter().map(|t| t.len() as u64).sum::<u64>(), active as u32)
        } else {
            (0, 0)
        };

        let per_module_sent: Vec<u64> = tasks.iter().map(|t| t.wire_bytes()).collect();

        // Run all module handlers in parallel. Determinism audit: `collect`
        // places each `(reply, ctx)` at its module index regardless of which
        // worker finished first, and everything order-sensitive below — the
        // f64 max/sum folds, `per_module_recv`, the traced cycle vector —
        // iterates that index-ordered Vec sequentially. A journal written at
        // 16 threads is byte-identical to one written at 1.
        let results: Vec<(Vec<R>, PimCtx)> = self
            .modules
            .par_iter_mut()
            .zip(tasks.par_iter_mut())
            .enumerate()
            .map(|(i, (m, tr))| {
                let t = std::mem::take(tr);
                let mut ctx = PimCtx::new();
                let replies =
                    if run_all || !t.is_empty() { handler(i, m, &mut ctx, t) } else { Vec::new() };
                (replies, ctx)
            })
            .collect();

        let per_module_recv: Vec<u64> = results.iter().map(|(r, _)| r.wire_bytes()).collect();

        if self.accounting {
            let sent: u64 = per_module_sent.iter().sum();
            let recv: u64 = per_module_recv.iter().sum();
            let max_module_bytes =
                per_module_sent.iter().zip(&per_module_recv).map(|(a, b)| a + b).max().unwrap_or(0);

            let mut max_time = 0.0f64;
            let mut max_cycles = 0u64;
            let mut sum_cycles = 0u64;
            for (_, ctx) in &results {
                max_time = max_time.max(ctx.time_s(self.cfg.pim_freq_hz, self.cfg.pim_local_bw));
                max_cycles = max_cycles.max(ctx.cycles);
                sum_cycles += ctx.cycles;
            }
            self.stats.total_pim_cycles += sum_cycles;

            let calls = per_module_sent.iter().filter(|&&b| b > 0).count()
                + per_module_recv.iter().filter(|&&b| b > 0).count();
            let overhead = self.cfg.mux_switch_s
                + calls as f64 * self.cfg.call_overhead_s() / self.cfg.host_threads as f64;

            let breakdown = RoundBreakdown {
                pim_s: max_time,
                comm_s: self.cfg.transfer_time_s(sent + recv, max_module_bytes),
                overhead_s: overhead,
            };
            let load = LoadStats { max_cycles, mean_cycles: sum_cycles as f64 / p as f64 };
            self.stats.n_modules = p;
            self.stats.record(breakdown, load, sent, recv);

            let round = self.trace_round;
            self.trace_round += 1;
            let cycles: Vec<u64> = if tracing || metered {
                results.iter().map(|(_, c)| c.cycles).collect()
            } else {
                Vec::new()
            };
            if tracing {
                let (cycle_hist, stragglers) = summarize_cycles(&cycles);
                self.sink.record(RoundRecord {
                    round,
                    phase: self.current_phase(),
                    kind: if run_all { RoundKind::ExecuteAll } else { RoundKind::Execute },
                    breakdown,
                    cpu_to_pim_bytes: sent,
                    pim_to_cpu_bytes: recv,
                    tasks: n_tasks,
                    replies: results.iter().map(|(r, _)| r.len() as u64).sum(),
                    active_modules: n_active,
                    max_cycles,
                    mean_cycles: sum_cycles as f64 / p as f64,
                    sum_cycles,
                    cycle_hist,
                    stragglers,
                    faults: Vec::new(),
                });
            }
            if metered {
                self.meter_round(
                    if run_all { "execute_all" } else { "execute" },
                    &breakdown,
                    sent,
                    recv,
                    n_tasks,
                    max_cycles,
                    &cycles,
                    &per_module_tasks,
                    &[],
                    0,
                );
            }
        }

        results.into_iter().map(|(r, _)| r).collect()
    }

    /// Whether rounds take the fault-aware path: an active plan is
    /// attached, or some module has already fail-stopped (scripted kills
    /// work without a plan). Warmup (`accounting = false`) never injects,
    /// but must still route around dead modules. The host's robust layer
    /// branches on this to decide whether a round needs retry/recovery
    /// scaffolding (task cloning, provenance tracking) at all.
    pub fn fault_plane_active(&self) -> bool {
        self.dead.iter().any(|&d| d)
            || (self.accounting && self.plan.as_ref().is_some_and(|pl| pl.config().is_active()))
    }

    /// The round id the **next** accounted round will draw its fault fates
    /// with. Fates are a pure function of `(plan seed, round, module,
    /// attempt)`, so a caller holding this id can predict the outcome of a
    /// dispatch it is about to make — see [`Self::predict_round_failure`].
    pub fn next_round_id(&self) -> u64 {
        self.trace_round
    }

    /// Whether a live module that participates in round `round` (the value
    /// of [`Self::next_round_id`] at dispatch time) will fail it — i.e.
    /// produce no validated reply — per the attached fault plan.
    ///
    /// Mirrors the `draw_fates` logic exactly: the plan is only consulted
    /// for accounted rounds, and with no plan attached a live participating
    /// module always succeeds (scripted kills only mark modules dead
    /// *between* rounds). The host's robust layer uses this to clone only
    /// the task rows that will actually be lost this wave; a wrong
    /// prediction here would either leak clones (harmless) or lose tasks
    /// (caught by the robust layer's reply-count assertion).
    pub fn predict_round_failure(&self, round: u64, module: u32) -> bool {
        if !self.accounting {
            return false;
        }
        self.plan.as_ref().is_some_and(|pl| !pl.module_fate(round, module, true).success)
    }

    /// Per-module fates for one round, drawn sequentially (thread-count
    /// independent). `participating[i]` is whether the host scattered work
    /// to module `i` (or the round is `run_all`).
    fn draw_fates(&mut self, round: u64, participating: &[bool]) -> Vec<ModuleFate> {
        let plan = if self.accounting { self.plan.as_ref() } else { None };
        let fates: Vec<ModuleFate> = participating
            .iter()
            .enumerate()
            .map(|(i, &part)| {
                if self.dead[i] {
                    ModuleFate::idle()
                } else if let Some(pl) = plan {
                    pl.module_fate(round, i as u32, part)
                } else if part {
                    ModuleFate { attempts: vec![AttemptOutcome::Ok], success: true, died: false }
                } else {
                    ModuleFate::idle()
                }
            })
            .collect();
        for (i, f) in fates.iter().enumerate() {
            if f.died {
                self.dead[i] = true;
                self.newly_dead.push(i as u32);
                self.fault_log.deaths += 1;
            }
        }
        fates
    }

    /// The fault-aware sibling of the hot path in [`Self::run_round`].
    ///
    /// Execution model: the round proceeds in *waves*. In wave `a`, every
    /// module whose fate has an attempt `a` gets its task buffer
    /// (re-)scattered; modules whose attempt fails cost the host a
    /// detection timeout and a retry. A module commits its handler exactly
    /// once — at its successful attempt — or never (atomic attempts), so
    /// replay never double-applies state. Modules that exhaust retries or
    /// draw the death fate are marked dead; the host's robust layer drains
    /// [`Self::take_newly_dead`] and re-routes their lost tasks.
    fn run_round_faulty<T, R, F>(
        &mut self,
        tasks: &mut [Vec<T>],
        handler: F,
        run_all: bool,
    ) -> Vec<Vec<R>>
    where
        T: Wire + Send,
        R: Wire + Send,
        F: Fn(usize, &mut M, &mut PimCtx, Vec<T>) -> Vec<R> + Sync,
    {
        let p = self.modules.len();
        let round = self.trace_round;
        let plan = if self.accounting { self.plan.clone() } else { None };
        let factor = plan.as_ref().map_or(1.0, |pl| pl.config().straggler_factor.max(1.0));
        let key = plan.as_ref().map_or(0, |pl| pl.config().seed);

        let participating: Vec<bool> = tasks.iter().map(|t| run_all || !t.is_empty()).collect();
        if cfg!(debug_assertions) {
            for (i, t) in tasks.iter().enumerate() {
                debug_assert!(
                    t.is_empty() || !self.dead[i],
                    "host scattered {} tasks to dead module {i}",
                    t.len()
                );
            }
        }
        let fates = self.draw_fates(round, &participating);

        let tracing = self.accounting && self.sink.enabled();
        let metered = self.accounting && self.metrics.enabled();
        let per_module_tasks: Vec<u64> =
            if metered { tasks.iter().map(|t| t.len() as u64).collect() } else { Vec::new() };
        let n_tasks =
            if tracing || metered { tasks.iter().map(|t| t.len() as u64).sum::<u64>() } else { 0 };

        let per_module_sent: Vec<u64> = tasks.iter().map(|t| t.wire_bytes()).collect();

        // Same determinism contract as the plain path: results land at
        // their module index; every fold below is sequential over them.
        let results: Vec<(Vec<R>, PimCtx)> = self
            .modules
            .par_iter_mut()
            .zip(tasks.par_iter_mut())
            .enumerate()
            .map(|(i, (m, tr))| {
                let t = std::mem::take(tr);
                let mut ctx = PimCtx::new();
                let replies =
                    if fates[i].success { handler(i, m, &mut ctx, t) } else { Vec::new() };
                (replies, ctx)
            })
            .collect();

        let per_module_recv: Vec<u64> = results.iter().map(|(r, _)| r.wire_bytes()).collect();

        if self.accounting {
            let retries_before = self.fault_log.retries;
            let mut sent = 0u64;
            let mut recv = 0u64;
            let mut max_module_bytes = 0u64;
            let mut send_calls = 0usize;
            let mut recv_calls = 0usize;
            let mut base_time = vec![0.0f64; p];
            let mut eff_cycles = vec![0u64; p];
            let mut events: Vec<FaultEvent> = Vec::new();

            for i in 0..p {
                let fate = &fates[i];
                let ctx = &results[i].1;
                base_time[i] = ctx.time_s(self.cfg.pim_freq_hz, self.cfg.pim_local_bw);
                let n_att = fate.attempts.len() as u64;
                if per_module_sent[i] > 0 {
                    send_calls += n_att as usize;
                    self.fault_log.retransmitted_bytes +=
                        per_module_sent[i] * n_att.saturating_sub(1);
                }
                let fetches = fate.attempts.iter().filter(|o| o.fetched_reply()).count() as u64;
                if per_module_recv[i] > 0 {
                    recv_calls += fetches as usize;
                }
                let m_sent = per_module_sent[i] * n_att;
                let m_recv = per_module_recv[i] * fetches;
                sent += m_sent;
                recv += m_recv;
                max_module_bytes = max_module_bytes.max(m_sent + m_recv);

                // Cycles: one full execution per executed attempt; the
                // terminal straggler attempt runs `factor` times slower.
                let mut mult = 0.0f64;
                for (a, &o) in fate.attempts.iter().enumerate() {
                    match o {
                        AttemptOutcome::Ok
                        | AttemptOutcome::ReplyDrop
                        | AttemptOutcome::ReplyCorrupt => mult += 1.0,
                        AttemptOutcome::Straggler => mult += factor,
                        AttemptOutcome::ExecFault | AttemptOutcome::Death => {}
                    }
                    self.fault_log.count(o);
                    if o.fetched_reply() {
                        // Response validation: recompute the transfer
                        // checksum; a corrupted reply always fails it.
                        let good = checksum64(key, round, i as u32, per_module_recv[i]);
                        let got = match (&plan, o) {
                            (Some(pl), AttemptOutcome::ReplyCorrupt) => {
                                good ^ pl.corruption_mask(round, i as u32, a as u32)
                            }
                            _ => good,
                        };
                        let valid =
                            validate_checksum(key, round, i as u32, per_module_recv[i], got);
                        debug_assert_eq!(valid, o != AttemptOutcome::ReplyCorrupt);
                    }
                    let kind = match o {
                        AttemptOutcome::Ok | AttemptOutcome::Death => continue,
                        AttemptOutcome::Straggler => FaultKind::Straggler,
                        AttemptOutcome::ExecFault => FaultKind::ExecFault,
                        AttemptOutcome::ReplyDrop => FaultKind::ReplyDrop,
                        AttemptOutcome::ReplyCorrupt => FaultKind::ReplyCorrupt,
                    };
                    events.push(FaultEvent { module: i as u32, attempt: a as u32, kind });
                }
                if fate.died {
                    events.push(FaultEvent {
                        module: i as u32,
                        attempt: fate.attempts.len().saturating_sub(1) as u32,
                        kind: FaultKind::Death,
                    });
                }
                self.fault_log.retries += n_att.saturating_sub(1);
                eff_cycles[i] = (ctx.cycles as f64 * mult) as u64;
            }

            let mut max_cycles = 0u64;
            let mut sum_cycles = 0u64;
            for &c in &eff_cycles {
                max_cycles = max_cycles.max(c);
                sum_cycles += c;
            }
            self.stats.total_pim_cycles += sum_cycles;

            // Wave fold: attempt `a` of every still-retrying module
            // overlaps, so the round's PIM time is the sum over waves of
            // the slowest member; each wave containing a failure charges
            // one host detection timeout to overhead.
            let n_waves = fates.iter().map(|f| f.attempts.len()).max().unwrap_or(0);
            let mut pim_s = 0.0f64;
            let mut timeout_waves = 0u64;
            for w in 0..n_waves {
                let mut wave_max = 0.0f64;
                let mut wave_failed = false;
                for i in 0..p {
                    if let Some(&o) = fates[i].attempts.get(w) {
                        let t = match o {
                            AttemptOutcome::Ok
                            | AttemptOutcome::ReplyDrop
                            | AttemptOutcome::ReplyCorrupt => base_time[i],
                            AttemptOutcome::Straggler => base_time[i] * factor,
                            AttemptOutcome::ExecFault | AttemptOutcome::Death => 0.0,
                        };
                        wave_max = wave_max.max(t);
                        if !o.is_success() {
                            wave_failed = true;
                        }
                    }
                }
                pim_s += wave_max;
                if wave_failed {
                    timeout_waves += 1;
                }
            }
            let timeout_s = plan.as_ref().map_or(0.0, |pl| pl.config().timeout_s);
            self.fault_log.timeout_s += timeout_waves as f64 * timeout_s;

            let calls = send_calls + recv_calls;
            let overhead = self.cfg.mux_switch_s
                + calls as f64 * self.cfg.call_overhead_s() / self.cfg.host_threads as f64
                + timeout_waves as f64 * timeout_s;

            let breakdown = RoundBreakdown {
                pim_s,
                comm_s: self.cfg.transfer_time_s(sent + recv, max_module_bytes),
                overhead_s: overhead,
            };
            let load = LoadStats { max_cycles, mean_cycles: sum_cycles as f64 / p as f64 };
            self.stats.n_modules = p;
            self.stats.record(breakdown, load, sent, recv);

            self.trace_round += 1;
            if metered {
                self.meter_round(
                    if run_all { "execute_all" } else { "execute" },
                    &breakdown,
                    sent,
                    recv,
                    n_tasks,
                    max_cycles,
                    &eff_cycles,
                    &per_module_tasks,
                    &events,
                    self.fault_log.retries - retries_before,
                );
            }
            if tracing {
                let (cycle_hist, stragglers) = summarize_cycles(&eff_cycles);
                self.sink.record(RoundRecord {
                    round,
                    phase: self.current_phase(),
                    kind: if run_all { RoundKind::ExecuteAll } else { RoundKind::Execute },
                    breakdown,
                    cpu_to_pim_bytes: sent,
                    pim_to_cpu_bytes: recv,
                    tasks: n_tasks,
                    replies: results.iter().map(|(r, _)| r.len() as u64).sum(),
                    active_modules: fates.iter().filter(|f| f.success).count() as u32,
                    max_cycles,
                    mean_cycles: sum_cycles as f64 / p as f64,
                    sum_cycles,
                    cycle_hist,
                    stragglers,
                    faults: events,
                });
            }
        }

        results.into_iter().map(|(r, _)| r).collect()
    }

    /// Broadcasts one value to all modules and applies it: charges `P ×`
    /// the value's wire size of CPU→PIM traffic (how L0 replication and
    /// promoted-node broadcasts are paid for, Alg 2 step 3d).
    pub fn broadcast<T, F>(&mut self, item: T, handler: F)
    where
        T: Wire + Sync,
        F: Fn(usize, &mut M, &mut PimCtx, &T) + Sync,
    {
        if self.fault_plane_active() {
            return self.broadcast_faulty(item, handler);
        }
        let bytes = item.wire_bytes();
        let p = self.modules.len();
        // Same determinism contract as `run_round`: ctxs land in module
        // order, and the accounting folds below run sequentially over them.
        let ctxs: Vec<PimCtx> = self
            .modules
            .par_iter_mut()
            .enumerate()
            .map(|(i, m)| {
                let mut ctx = PimCtx::new();
                handler(i, m, &mut ctx, &item);
                ctx
            })
            .collect();

        if self.accounting {
            let mut max_time = 0.0f64;
            let mut max_cycles = 0u64;
            let mut sum_cycles = 0u64;
            for ctx in &ctxs {
                max_time = max_time.max(ctx.time_s(self.cfg.pim_freq_hz, self.cfg.pim_local_bw));
                max_cycles = max_cycles.max(ctx.cycles);
                sum_cycles += ctx.cycles;
            }
            self.stats.total_pim_cycles += sum_cycles;
            let sent = bytes * p as u64;
            let overhead = self.cfg.mux_switch_s
                + p as f64 * self.cfg.call_overhead_s() / self.cfg.host_threads as f64;
            let breakdown = RoundBreakdown {
                pim_s: max_time,
                comm_s: self.cfg.transfer_time_s(sent, bytes),
                overhead_s: overhead,
            };
            let load = LoadStats { max_cycles, mean_cycles: sum_cycles as f64 / p as f64 };
            self.stats.n_modules = p;
            self.stats.record(breakdown, load, sent, 0);

            let round = self.trace_round;
            self.trace_round += 1;
            if self.sink.enabled() {
                let cycles: Vec<u64> = ctxs.iter().map(|c| c.cycles).collect();
                let (cycle_hist, stragglers) = summarize_cycles(&cycles);
                self.sink.record(RoundRecord {
                    round,
                    phase: self.current_phase(),
                    kind: RoundKind::Broadcast,
                    breakdown,
                    cpu_to_pim_bytes: sent,
                    pim_to_cpu_bytes: 0,
                    tasks: 1,
                    replies: 0,
                    active_modules: p as u32,
                    max_cycles,
                    mean_cycles: sum_cycles as f64 / p as f64,
                    sum_cycles,
                    cycle_hist,
                    stragglers,
                    faults: Vec::new(),
                });
            }
            if self.metrics.enabled() {
                let cycles: Vec<u64> = ctxs.iter().map(|c| c.cycles).collect();
                self.meter_round(
                    "broadcast",
                    &breakdown,
                    sent,
                    0,
                    1,
                    max_cycles,
                    &cycles,
                    &[],
                    &[],
                    0,
                );
            }
        }
    }

    /// Fault-aware sibling of [`Self::broadcast`]: dead modules are
    /// skipped entirely (the host knows the dead set and does not pay to
    /// reach them); live modules face the same wave/retry machinery as
    /// [`Self::run_round_faulty`], with delivery failures re-sending the
    /// broadcast value. A broadcast has no gathered reply, so drop/corrupt
    /// draws model a lost delivery acknowledgement.
    fn broadcast_faulty<T, F>(&mut self, item: T, handler: F)
    where
        T: Wire + Sync,
        F: Fn(usize, &mut M, &mut PimCtx, &T) + Sync,
    {
        let bytes = item.wire_bytes();
        let p = self.modules.len();
        let round = self.trace_round;
        let plan = if self.accounting { self.plan.clone() } else { None };
        let factor = plan.as_ref().map_or(1.0, |pl| pl.config().straggler_factor.max(1.0));

        let participating: Vec<bool> = (0..p).map(|i| !self.dead[i]).collect();
        let fates = self.draw_fates(round, &participating);

        let ctxs: Vec<PimCtx> = self
            .modules
            .par_iter_mut()
            .enumerate()
            .map(|(i, m)| {
                let mut ctx = PimCtx::new();
                if fates[i].success {
                    handler(i, m, &mut ctx, &item);
                }
                ctx
            })
            .collect();

        if self.accounting {
            let retries_before = self.fault_log.retries;
            let mut sent = 0u64;
            let mut max_module_bytes = 0u64;
            let mut calls = 0u64;
            let mut base_time = vec![0.0f64; p];
            let mut eff_cycles = vec![0u64; p];
            let mut events: Vec<FaultEvent> = Vec::new();
            for i in 0..p {
                let fate = &fates[i];
                base_time[i] = ctxs[i].time_s(self.cfg.pim_freq_hz, self.cfg.pim_local_bw);
                let n_att = fate.attempts.len() as u64;
                sent += bytes * n_att;
                // Every re-send crosses the same module's channel, exactly
                // as a retried scatter does in `run_round_faulty`.
                max_module_bytes = max_module_bytes.max(bytes * n_att);
                calls += n_att;
                self.fault_log.retransmitted_bytes += bytes * n_att.saturating_sub(1);
                self.fault_log.retries += n_att.saturating_sub(1);
                let mut mult = 0.0f64;
                for (a, &o) in fate.attempts.iter().enumerate() {
                    match o {
                        AttemptOutcome::Ok
                        | AttemptOutcome::ReplyDrop
                        | AttemptOutcome::ReplyCorrupt => mult += 1.0,
                        AttemptOutcome::Straggler => mult += factor,
                        AttemptOutcome::ExecFault | AttemptOutcome::Death => {}
                    }
                    self.fault_log.count(o);
                    let kind = match o {
                        AttemptOutcome::Ok | AttemptOutcome::Death => continue,
                        AttemptOutcome::Straggler => FaultKind::Straggler,
                        AttemptOutcome::ExecFault => FaultKind::ExecFault,
                        AttemptOutcome::ReplyDrop => FaultKind::ReplyDrop,
                        AttemptOutcome::ReplyCorrupt => FaultKind::ReplyCorrupt,
                    };
                    events.push(FaultEvent { module: i as u32, attempt: a as u32, kind });
                }
                if fate.died {
                    events.push(FaultEvent {
                        module: i as u32,
                        attempt: fate.attempts.len().saturating_sub(1) as u32,
                        kind: FaultKind::Death,
                    });
                }
                eff_cycles[i] = (ctxs[i].cycles as f64 * mult) as u64;
            }

            let mut max_cycles = 0u64;
            let mut sum_cycles = 0u64;
            for &c in &eff_cycles {
                max_cycles = max_cycles.max(c);
                sum_cycles += c;
            }
            self.stats.total_pim_cycles += sum_cycles;

            let n_waves = fates.iter().map(|f| f.attempts.len()).max().unwrap_or(0);
            let mut pim_s = 0.0f64;
            let mut timeout_waves = 0u64;
            for w in 0..n_waves {
                let mut wave_max = 0.0f64;
                let mut wave_failed = false;
                for i in 0..p {
                    if let Some(&o) = fates[i].attempts.get(w) {
                        let t = match o {
                            AttemptOutcome::Ok
                            | AttemptOutcome::ReplyDrop
                            | AttemptOutcome::ReplyCorrupt => base_time[i],
                            AttemptOutcome::Straggler => base_time[i] * factor,
                            AttemptOutcome::ExecFault | AttemptOutcome::Death => 0.0,
                        };
                        wave_max = wave_max.max(t);
                        if !o.is_success() {
                            wave_failed = true;
                        }
                    }
                }
                pim_s += wave_max;
                if wave_failed {
                    timeout_waves += 1;
                }
            }
            let timeout_s = plan.as_ref().map_or(0.0, |pl| pl.config().timeout_s);
            self.fault_log.timeout_s += timeout_waves as f64 * timeout_s;

            let overhead = self.cfg.mux_switch_s
                + calls as f64 * self.cfg.call_overhead_s() / self.cfg.host_threads as f64
                + timeout_waves as f64 * timeout_s;
            let breakdown = RoundBreakdown {
                pim_s,
                comm_s: self.cfg.transfer_time_s(sent, max_module_bytes),
                overhead_s: overhead,
            };
            let load = LoadStats { max_cycles, mean_cycles: sum_cycles as f64 / p as f64 };
            self.stats.n_modules = p;
            self.stats.record(breakdown, load, sent, 0);

            self.trace_round += 1;
            if self.metrics.enabled() {
                self.meter_round(
                    "broadcast",
                    &breakdown,
                    sent,
                    0,
                    1,
                    max_cycles,
                    &eff_cycles,
                    &[],
                    &events,
                    self.fault_log.retries - retries_before,
                );
            }
            if self.sink.enabled() {
                let (cycle_hist, stragglers) = summarize_cycles(&eff_cycles);
                self.sink.record(RoundRecord {
                    round,
                    phase: self.current_phase(),
                    kind: RoundKind::Broadcast,
                    breakdown,
                    cpu_to_pim_bytes: sent,
                    pim_to_cpu_bytes: 0,
                    tasks: 1,
                    replies: 0,
                    active_modules: fates.iter().filter(|f| f.success).count() as u32,
                    max_cycles,
                    mean_cycles: sum_cycles as f64 / p as f64,
                    sum_cycles,
                    cycle_hist,
                    stragglers,
                    faults: events,
                });
            }
        }
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
        assert!(sys.stats().worst_imbalance > 3.0);
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
    fn execute_round_all_runs_idle_modules() {
        let mut sys = PimSystem::new(MachineConfig::with_modules(3), |_| 0u64);
        let replies = sys.execute_round_all(vec![vec![5u32]], |i, s, ctx, t| {
            *s += 1 + t.len() as u64;
            ctx.op(1);
            vec![i as u32]
        });
        // All three ran; only module 0 had input.
        assert_eq!(replies.len(), 3);
        assert_eq!(*sys.peek(0), 2);
        assert_eq!(*sys.peek(1), 1);
        assert_eq!(*sys.peek(2), 1);
    }

    #[test]
    fn aggregate_imbalance_dilutes_tiny_rounds() {
        let mut sys = PimSystem::new(MachineConfig::with_modules(4), |_| 0u64);
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
        assert!(s.worst_imbalance >= 4.0, "per-round metric sees the tiny round");
        assert!(s.agg_imbalance() < 1.2, "aggregate metric must not: {:.3}", s.agg_imbalance());
    }

    #[test]
    fn summed_trace_records_reproduce_sim_stats_exactly() {
        use crate::trace::JournalSink;
        let (sink, journal) = JournalSink::new();
        let mut sys = PimSystem::new(MachineConfig::with_modules(4), |_| 0u64);
        sys.set_trace_sink(Box::new(sink));

        // A mix of round shapes: skewed execute, execute_all, broadcast.
        sys.scoped_phase("search", |s| {
            let _ = s.execute_round(vec![vec![1u32, 2], vec![3u32]], |i, _, ctx, t| {
                ctx.op((i as u64 + 1) * 500);
                ctx.mem(64);
                t
            });
        });
        sys.scoped_phase("insert", |s| {
            s.scoped_phase("maintain", |s| {
                let _ = s.execute_round_all(vec![vec![9u32]], |_, _, ctx, _| {
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
        let worst = recs.iter().map(|r| r.imbalance()).fold(0.0f64, f64::max);
        assert!((worst - s.worst_imbalance).abs() < 1e-12);
    }

    #[test]
    fn trace_round_ids_survive_stats_reset() {
        use crate::trace::JournalSink;
        let (sink, journal) = JournalSink::new();
        let mut sys = PimSystem::new(MachineConfig::with_modules(2), |_| 0u64);
        sys.set_trace_sink(Box::new(sink));
        let _ = sys.execute_round(vec![vec![1u32]], |_, _, ctx, t| {
            ctx.op(1);
            t
        });
        sys.reset_stats();
        let _ = sys.execute_round(vec![vec![2u32]], |_, _, ctx, t| {
            ctx.op(1);
            t
        });
        let recs = journal.snapshot();
        assert_eq!(recs[0].round, 0);
        assert_eq!(recs[1].round, 1, "round ids are monotonic across resets");
        assert_eq!(sys.stats().rounds, 1, "stats themselves did reset");
    }

    #[test]
    fn unaccounted_rounds_emit_no_records() {
        use crate::trace::JournalSink;
        let (sink, journal) = JournalSink::new();
        let mut sys = PimSystem::new(MachineConfig::with_modules(2), |_| 0u64);
        sys.set_trace_sink(Box::new(sink));
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

    #[test]
    fn stats_reset_clears_everything() {
        let mut sys = PimSystem::new(MachineConfig::with_modules(2), |_| 0u64);
        let _ = sys.execute_round(vec![vec![1u32], vec![2u32]], |_, _, ctx, t| {
            ctx.op(5);
            t
        });
        assert!(sys.stats().rounds > 0);
        sys.reset_stats();
        assert_eq!(sys.stats().rounds, 0);
        assert_eq!(sys.stats().channel_bytes(), 0);
        assert_eq!(sys.stats().total_pim_cycles, 0);
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
        assert_eq!(planned.fault_log().total_faults(), 0);
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
        assert_eq!(a.fault_log(), b.fault_log());
        assert_eq!(a.stats().pim_s.to_bits(), b.stats().pim_s.to_bits());
        assert_eq!(a.stats().overhead_s.to_bits(), b.stats().overhead_s.to_bits());
        assert_eq!(a.stats().cpu_to_pim_bytes, b.stats().cpu_to_pim_bytes);
        assert!(a.fault_log().total_faults() > 0, "5% over 240 module-rounds must fire");
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
        assert!(faulty.fault_log().retries > 0);
    }

    #[test]
    fn killed_module_stops_executing_and_is_reported() {
        let mut sys = PimSystem::new(MachineConfig::with_modules(4), |_| 0u64);
        sys.kill_module(2);
        assert!(sys.is_dead(2));
        assert_eq!(sys.n_live(), 3);
        assert_eq!(sys.take_newly_dead(), vec![2]);
        assert!(sys.take_newly_dead().is_empty(), "drain empties the list");
        // run_all round: dead module's handler must not run.
        let _ = sys.execute_round_all(Vec::<Vec<u32>>::new(), |_, s, ctx, _| {
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
        assert!(sys.fault_log().retries > 0, "30% fault mass must retry sometimes");
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
        assert!(sys.fault_log().deaths > 0, "5% death rate over 100 rounds");
        assert!(saw_missing_reply, "a death mid-round must surface as a missing reply");
        assert_eq!(
            sys.take_newly_dead().len() as u64,
            sys.fault_log().deaths,
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

        assert!(bcast.fault_log().retries > 0, "a 50% fault mass over 8 modules must retry");
        assert_eq!(bcast.fault_log(), scatter.fault_log());
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
        use crate::trace::JournalSink;
        let (sink, journal) = JournalSink::new();
        let mut sys = PimSystem::new(MachineConfig::with_modules(4), |i| i as u64);
        sys.set_trace_sink(Box::new(sink));
        sys.kill_module(3);
        let before = sys.stats().pim_to_cpu_bytes;
        let got = sys.salvage(3, |m| (*m, 4096));
        assert_eq!(got, 3, "salvage reads the dead module's resident state");
        assert_eq!(sys.stats().pim_to_cpu_bytes - before, 4096);
        assert_eq!(sys.fault_log().salvages, 1);
        assert_eq!(sys.fault_log().salvaged_bytes, 4096);
        let recs = journal.snapshot();
        let rec = recs.last().unwrap();
        assert_eq!(rec.kind, RoundKind::Salvage);
        assert_eq!(rec.pim_to_cpu_bytes, 4096);
        assert_eq!(rec.faults.len(), 1);
        assert_eq!(rec.faults[0].kind, FaultKind::Salvage);
    }

    #[test]
    fn fault_events_land_in_the_journal() {
        use crate::trace::JournalSink;
        let (sink, journal) = JournalSink::new();
        let mut sys = PimSystem::new(MachineConfig::with_modules(8), |_| 0u64);
        sys.set_trace_sink(Box::new(sink));
        sys.set_fault_plan(Some(FaultPlan::new(FaultConfig {
            p_death: 0.0,
            ..FaultConfig::uniform(0.2, 8)
        })));
        run_workload(&mut sys, 10);
        let recs = journal.snapshot();
        let n_events: usize = recs.iter().map(|r| r.faults.len()).sum();
        assert_eq!(n_events as u64, sys.fault_log().total_faults());
        assert!(n_events > 0);
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
        assert_eq!(sys.fault_log().total_faults(), 0, "build/warmup is fault-free");
        for i in 0..4 {
            assert_eq!(*sys.peek(i), 20);
        }
    }
}
