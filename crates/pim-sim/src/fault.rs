//! Seeded, deterministic fault injection for the simulated machine.
//!
//! Real UPMEM parts ship with disabled DPUs, observable per-module
//! stragglers, and a host SDK that can time out or return garbage on a
//! flaky rank. This module gives the simulator the same hazards under a
//! **deterministic** plan so every failure scenario is byte-reproducible
//! at any host thread count.
//!
//! # Failure model (see ARCHITECTURE.md §6 for the full contract)
//!
//! * **Fail-stop cores, surviving MRAM.** A dead module's core never
//!   answers again, but the host can still DMA its local memory once to
//!   salvage resident state ([`crate::PimSystem::salvage`]) — matching
//!   how a disabled DPU's MRAM stays host-readable on real hardware.
//! * **Atomic round attempts.** A failed delivery/execution attempt
//!   leaves module state unchanged; the handler commits exactly once, at
//!   the successful attempt, or never. Replaying a round is therefore
//!   idempotent by construction.
//! * **Checksummed transfers.** Every gathered reply carries a checksum
//!   ([`checksum64`](crate::wire::checksum64)); corruption is always
//!   detected and surfaces as a failed attempt, never as silent data
//!   poisoning. Silent corruption is explicitly out of scope.
//!
//! Every random decision is a pure function of
//! `(seed, round, module, attempt, channel)` through a splitmix64-style
//! mixer — no global RNG state, so concurrent rounds at different thread
//! counts draw identical faults.
//!
//! The plane only draws: what happened is a [`FaultEvent`] of the round,
//! and the executor counts those events when it folds the round into
//! [`SimStats`](crate::SimStats).

use crate::placement::mix64;
use std::borrow::Cow;

/// Probability knobs of the injection plane. All probabilities are per
/// module per round attempt (except `p_death`, drawn once per module per
/// round).
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed from which every fault decision is derived.
    pub seed: u64,
    /// P(transient execution failure): the module faults before finishing
    /// its handler. No cycles are charged; the attempt's scatter bytes are
    /// wasted.
    pub p_exec_fault: f64,
    /// P(reply drop): the module does the work (cycles charged) but its
    /// reply never reaches the host.
    pub p_reply_drop: f64,
    /// P(reply corruption): the reply arrives but fails checksum
    /// validation (cycles and reply bytes charged, then discarded).
    pub p_reply_corrupt: f64,
    /// P(straggler): the attempt succeeds but the module runs slow by
    /// [`straggler_factor`](Self::straggler_factor).
    pub p_straggler: f64,
    /// Slowdown multiplier applied to a straggling module's cycles.
    pub straggler_factor: f64,
    /// P(permanent death) per module per round: the module fail-stops and
    /// never answers again.
    pub p_death: f64,
    /// Retries after the first failed attempt before the host declares
    /// the module dead.
    pub max_retries: u32,
    /// Host-side detection window charged (as overhead) for every wave
    /// that contains at least one failed attempt.
    pub timeout_s: f64,
}

impl FaultConfig {
    /// A plan that never injects anything (useful as a base to tweak).
    pub fn disabled(seed: u64) -> Self {
        Self {
            seed,
            p_exec_fault: 0.0,
            p_reply_drop: 0.0,
            p_reply_corrupt: 0.0,
            p_straggler: 0.0,
            straggler_factor: 4.0,
            p_death: 0.0,
            max_retries: 3,
            timeout_s: 200e-6,
        }
    }

    /// The single-knob mapping used by the bench `--fault-rate` flag:
    /// transient failures at `rate`, drops at `rate/2`, corruptions at
    /// `rate/4`, stragglers at `rate`, deaths at `rate/100` (deaths are
    /// rare but catastrophic, so they get the smallest share).
    pub fn uniform(rate: f64, seed: u64) -> Self {
        Self {
            p_exec_fault: rate,
            p_reply_drop: rate / 2.0,
            p_reply_corrupt: rate / 4.0,
            p_straggler: rate,
            p_death: rate / 100.0,
            ..Self::disabled(seed)
        }
    }

    /// Whether any fault can ever fire under this config.
    pub fn is_active(&self) -> bool {
        self.p_exec_fault > 0.0
            || self.p_reply_drop > 0.0
            || self.p_reply_corrupt > 0.0
            || self.p_straggler > 0.0
            || self.p_death > 0.0
    }
}

/// What one delivery/execution attempt did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Handler ran, reply validated. Terminal.
    Ok,
    /// Handler ran slow (cycles × factor), reply validated. Terminal.
    Straggler,
    /// Module faulted before finishing: no cycles, no reply.
    ExecFault,
    /// Work done (cycles charged), reply lost on the wire.
    ReplyDrop,
    /// Work done, reply fetched but failed checksum validation.
    ReplyCorrupt,
    /// Module fail-stopped this round; nothing runs.
    Death,
}

impl AttemptOutcome {
    /// Terminal success (the round committed on this module).
    pub fn is_success(self) -> bool {
        matches!(self, AttemptOutcome::Ok | AttemptOutcome::Straggler)
    }

    /// Whether the module executed its handler to completion (cycles are
    /// charged even when the reply is subsequently lost or corrupted).
    pub fn executed(self) -> bool {
        !matches!(self, AttemptOutcome::ExecFault | AttemptOutcome::Death)
    }

    /// Whether the host fetched reply bytes for this attempt (a corrupt
    /// reply is transferred, then discarded).
    pub fn fetched_reply(self) -> bool {
        matches!(
            self,
            AttemptOutcome::Ok | AttemptOutcome::Straggler | AttemptOutcome::ReplyCorrupt
        )
    }

    /// The fault this attempt was, if any. A death is one event per module,
    /// not per attempt, so it names none here.
    pub(crate) fn fault(self) -> Option<FaultKind> {
        match self {
            AttemptOutcome::Ok | AttemptOutcome::Death => None,
            AttemptOutcome::Straggler => Some(FaultKind::Straggler),
            AttemptOutcome::ExecFault => Some(FaultKind::ExecFault),
            AttemptOutcome::ReplyDrop => Some(FaultKind::ReplyDrop),
            AttemptOutcome::ReplyCorrupt => Some(FaultKind::ReplyCorrupt),
        }
    }
}

/// The per-round fate of one module: its attempt sequence plus the
/// conclusion the host draws from it.
#[derive(Clone, Debug)]
pub struct ModuleFate {
    /// Outcome of each delivery attempt, in order; at most
    /// `max_retries + 1` entries, and only the last can be a success.
    /// Borrowed for the two fates every fault-free round is made of
    /// ([`Self::OK`], [`Self::IDLE`]), so drawing them allocates nothing.
    pub attempts: Cow<'static, [AttemptOutcome]>,
    /// The host declared this module dead this round (fail-stop draw or
    /// retry exhaustion — indistinguishable from outside).
    pub died: bool,
}

impl ModuleFate {
    /// Fate of a participating module nothing happens to.
    pub const OK: ModuleFate =
        ModuleFate { attempts: Cow::Borrowed(&[AttemptOutcome::Ok]), died: false };

    /// Fate of a module that takes no part in a round.
    pub const IDLE: ModuleFate = ModuleFate { attempts: Cow::Borrowed(&[]), died: false };

    /// The round committed on this module.
    pub fn success(&self) -> bool {
        self.attempts.last().is_some_and(|o| o.is_success())
    }
}

/// Deterministic fault oracle: pure functions of
/// `(seed, round, module, attempt)`.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

/// Converts a probability to an integer threshold over 53 random bits, so
/// fault draws compare integers (`bits < threshold`) and never depend on
/// platform float quirks.
#[inline]
fn threshold(p: f64) -> u64 {
    (p.clamp(0.0, 1.0) * (1u64 << 53) as f64) as u64
}

/// Distinct draw channels (salts) so the death draw never correlates with
/// the attempt-outcome draw of the same `(round, module)`.
const SALT_OUTCOME: u64 = 0x0bad_c0de_0000_0001;
const SALT_DEATH: u64 = 0x0bad_c0de_0000_0002;

impl FaultPlan {
    /// Wraps a config into an oracle.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg }
    }

    /// The config this plan draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// 53 uniform bits for `(round, module, attempt, salt)`.
    #[inline]
    fn bits(&self, round: u64, module: u32, attempt: u32, salt: u64) -> u64 {
        let h = mix64(
            self.cfg.seed.wrapping_mul(0xd1b5_4a32_d192_ed03)
                ^ mix64(round)
                ^ mix64((module as u64) << 32 | attempt as u64)
                ^ salt,
        );
        h >> 11
    }

    /// Whether the module fail-stops in this round (drawn once per round,
    /// independent of attempts).
    pub fn dies(&self, round: u64, module: u32) -> bool {
        self.cfg.p_death > 0.0
            && self.bits(round, module, 0, SALT_DEATH) < threshold(self.cfg.p_death)
    }

    /// Outcome of attempt `attempt` of `(round, module)`.
    pub fn outcome(&self, round: u64, module: u32, attempt: u32) -> AttemptOutcome {
        let u = self.bits(round, module, attempt, SALT_OUTCOME);
        let mut acc = threshold(self.cfg.p_exec_fault);
        if u < acc {
            return AttemptOutcome::ExecFault;
        }
        acc += threshold(self.cfg.p_reply_drop);
        if u < acc {
            return AttemptOutcome::ReplyDrop;
        }
        acc += threshold(self.cfg.p_reply_corrupt);
        if u < acc {
            return AttemptOutcome::ReplyCorrupt;
        }
        acc += threshold(self.cfg.p_straggler);
        if u < acc {
            return AttemptOutcome::Straggler;
        }
        AttemptOutcome::Ok
    }

    /// Nonzero bit-flip mask applied to a corrupted reply's checksum, so
    /// validation provably rejects it (checksums are 64-bit; flipping any
    /// bit of a correct sum makes it wrong).
    pub fn corruption_mask(&self, round: u64, module: u32, attempt: u32) -> u64 {
        self.bits(round, module, attempt, SALT_OUTCOME ^ SALT_DEATH) | 1
    }

    /// Full fate of one module for one round. `participating` is whether
    /// the host scattered work to it; non-participants only face the
    /// death draw (the host notices at its next contact).
    pub fn module_fate(&self, round: u64, module: u32, participating: bool) -> ModuleFate {
        if self.dies(round, module) {
            let attempts: &[AttemptOutcome] =
                if participating { &[AttemptOutcome::Death] } else { &[] };
            return ModuleFate { attempts: Cow::Borrowed(attempts), died: true };
        }
        if !participating {
            return ModuleFate::IDLE;
        }
        let mut attempts = Vec::new();
        for attempt in 0..=self.cfg.max_retries {
            let o = self.outcome(round, module, attempt);
            attempts.push(o);
            if o.is_success() {
                return ModuleFate { attempts: Cow::Owned(attempts), died: false };
            }
        }
        // Retry budget exhausted: the host cannot tell a run of transient
        // faults from a death and declares the module dead.
        ModuleFate { attempts: Cow::Owned(attempts), died: true }
    }
}

/// Category of a [`FaultEvent`], for journals and the recovery table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Transient execution failure (one attempt).
    ExecFault,
    /// Reply lost on the wire (one attempt).
    ReplyDrop,
    /// Reply failed checksum validation (one attempt).
    ReplyCorrupt,
    /// Module ran slow by the straggler factor.
    Straggler,
    /// Module declared permanently dead.
    Death,
    /// Host salvaged a dead module's memory.
    Salvage,
    /// The host process itself died at a batch boundary and came back via
    /// checkpoint restore + WAL replay. Unlike the module-side kinds this
    /// is never drawn by a [`FaultPlan`] — the crash harness in tests kills
    /// the host deliberately, and the recovery path counts the event
    /// ([`crate::PimSystem::record_host_crash`]) when replay finds work
    /// past the checkpoint epoch. No round journals it.
    HostCrash,
}

impl FaultKind {
    /// Number of kinds (the width of any per-kind count array).
    pub const COUNT: usize = 7;

    /// Every kind, in declaration order — the single source of truth for
    /// fault-kind ordering. Journal columns, report tables, metric labels
    /// and [`SimStats::faults`](crate::SimStats::faults) all index by
    /// position in this array, which is `kind as usize`.
    pub const ALL: [FaultKind; FaultKind::COUNT] = [
        FaultKind::ExecFault,
        FaultKind::ReplyDrop,
        FaultKind::ReplyCorrupt,
        FaultKind::Straggler,
        FaultKind::Death,
        FaultKind::Salvage,
        FaultKind::HostCrash,
    ];
}

crate::json::labels! {
    /// The kind's stable wire name — exactly the string the journal's
    /// `kind` field carries. The match is exhaustive, so adding a variant
    /// without extending [`FaultKind::ALL`] fails the `all_is_exhaustive`
    /// test and consumers never see an unnamed kind.
    FaultKind::name {
        ExecFault => "ExecFault", ReplyDrop => "ReplyDrop", ReplyCorrupt => "ReplyCorrupt",
        Straggler => "Straggler", Death => "Death", Salvage => "Salvage", HostCrash => "HostCrash",
    }
}

/// One injected fault or recovery action, as recorded in a
/// [`RoundRecord`](crate::trace::RoundRecord)'s `faults` list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Module the event happened on.
    pub module: u32,
    /// Attempt index the event belongs to (0 for `Death`/`Salvage`).
    pub attempt: u32,
    /// What happened.
    pub kind: FaultKind,
}

crate::json::record! { FaultEvent { "module": module, "attempt": attempt, "kind": kind } }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Serialize;

    fn active_plan() -> FaultPlan {
        FaultPlan::new(FaultConfig::uniform(0.05, 42))
    }

    #[test]
    fn draws_are_deterministic() {
        let a = active_plan();
        let b = active_plan();
        for round in 0..50 {
            for module in 0..16 {
                assert_eq!(a.dies(round, module), b.dies(round, module));
                for attempt in 0..4 {
                    assert_eq!(
                        a.outcome(round, module, attempt),
                        b.outcome(round, module, attempt)
                    );
                }
            }
        }
    }

    #[test]
    fn zero_rates_never_fault() {
        let plan = FaultPlan::new(FaultConfig::disabled(7));
        assert!(!plan.config().is_active());
        for round in 0..200 {
            for module in 0..8 {
                let fate = plan.module_fate(round, module, true);
                assert_eq!(*fate.attempts, [AttemptOutcome::Ok]);
                assert!(fate.success());
                assert!(!fate.died);
            }
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let a = FaultPlan::new(FaultConfig::uniform(0.2, 1));
        let b = FaultPlan::new(FaultConfig::uniform(0.2, 2));
        let mut differs = false;
        for round in 0..100 {
            for module in 0..8 {
                if a.outcome(round, module, 0) != b.outcome(round, module, 0) {
                    differs = true;
                }
            }
        }
        assert!(differs, "different seeds must draw different fault sequences");
    }

    #[test]
    fn rates_roughly_match_draws() {
        let plan = FaultPlan::new(FaultPlan::new(FaultConfig::uniform(0.1, 9)).cfg);
        let mut faults = 0u32;
        let n = 20_000;
        for i in 0..n {
            if !plan.outcome(i as u64, 0, 0).is_success() {
                faults += 1;
            }
        }
        // exec 0.1 + drop 0.05 + corrupt 0.025 = 0.175 expected failure mass.
        let rate = faults as f64 / n as f64;
        assert!((rate - 0.175).abs() < 0.02, "observed failure rate {rate}");
    }

    #[test]
    fn fate_terminates_on_success_and_caps_attempts() {
        let plan = FaultPlan::new(FaultConfig { max_retries: 2, ..FaultConfig::uniform(0.3, 3) });
        for round in 0..500 {
            let fate = plan.module_fate(round, 5, true);
            assert!(fate.attempts.len() <= 3);
            if fate.success() {
                assert!(!fate.died);
                assert!(fate.attempts[..fate.attempts.len() - 1].iter().all(|o| !o.is_success()));
            } else {
                assert!(fate.died, "non-success without death must be retry exhaustion");
            }
        }
    }

    #[test]
    fn death_hits_non_participants_too() {
        let plan = FaultPlan::new(FaultConfig { p_death: 0.5, ..FaultConfig::disabled(11) });
        let mut deaths = 0;
        for round in 0..200 {
            let fate = plan.module_fate(round, 3, false);
            assert!(fate.attempts.is_empty());
            if fate.died {
                deaths += 1;
            }
        }
        assert!(deaths > 50, "death draw must apply to idle modules (got {deaths})");
    }

    #[test]
    fn outcomes_name_their_fault() {
        assert_eq!(AttemptOutcome::ExecFault.fault(), Some(FaultKind::ExecFault));
        assert_eq!(AttemptOutcome::ReplyDrop.fault(), Some(FaultKind::ReplyDrop));
        assert_eq!(AttemptOutcome::ReplyCorrupt.fault(), Some(FaultKind::ReplyCorrupt));
        assert_eq!(AttemptOutcome::Straggler.fault(), Some(FaultKind::Straggler));
        assert_eq!(AttemptOutcome::Ok.fault(), None);
        assert_eq!(AttemptOutcome::Death.fault(), None, "deaths count once per module");
    }

    #[test]
    fn all_is_exhaustive() {
        // `ALL` and `name()` are what the journal readers index by; both
        // must stay in lock-step with the enum and with the serialized
        // (derive) spelling of each variant.
        assert_eq!(FaultKind::ALL.len(), FaultKind::COUNT);
        for (i, k) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(
                FaultKind::ALL.iter().position(|x| x == k),
                Some(i),
                "duplicate kind in ALL"
            );
            assert_eq!(*k as usize, i, "ALL must be in declaration order");
            assert_eq!(format!("{k:?}"), k.name(), "wire name must match the derive spelling");
            let mut json = String::new();
            k.json_write(&mut json);
            assert_eq!(json, format!("{:?}", k.name()), "journal string must match name()");
        }
    }
}
