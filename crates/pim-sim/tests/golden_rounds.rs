//! Golden pins for the round executor.
//!
//! Every other journal/metrics identity suite compares two runs of the
//! *same* build (thread counts, record/replay), so none of them would
//! notice a change that moves a byte on every run alike. This file pins
//! FNV-1a digests of everything one accounted round publishes — journal
//! JSONL, `SimStats` field bits (the fault counters `commit` folds in
//! included), the metrics text snapshot, the gathered replies and the final
//! module states — for a fixed mix of skewed scatters, empty-row rounds,
//! broadcasts, a warmup round and salvages, with no plan, a zero-rate plan,
//! and a 5 % plan plus a scripted kill. A digest may only change together
//! with an entry in CHANGES.md saying which artifact moved and why.

use pim_sim::wire::fnv1a;
use pim_sim::{FaultConfig, FaultPlan, Journal, MachineConfig, Metrics, PimSystem};
use std::fmt::Write;

const MODULES: usize = 16;
const STEPS: u32 = 24;

/// Runs the fixed round mix under `plan` (an active plan also gets one
/// scripted kill) and renders every published artifact as text.
fn run(plan: Option<FaultConfig>) -> String {
    let mut sys = PimSystem::new(MachineConfig::with_modules(MODULES), |i| i as u64);
    let journal = Journal::new();
    sys.set_journal(Some(journal.clone()));
    sys.set_metrics(Metrics::enabled_new());
    sys.set_fault_plan(plan.map(FaultPlan::new));

    let mut out = String::new();
    for step in 0..STEPS {
        // Skewed scatter: row lengths 0..=4, dead modules get nothing.
        let tasks: Vec<Vec<u32>> = (0..MODULES)
            .map(|i| {
                let n = if sys.is_dead(i) { 0 } else { (i as u32 * 7 + step) % 5 };
                (0..n).map(|j| step * 100 + j).collect()
            })
            .collect();
        let replies = sys.scoped_phase("search", |s| {
            s.execute_round(tasks, |i, state, ctx, t| {
                ctx.op(100 + 37 * t.len() as u64 * (i as u64 + 1));
                ctx.mem(64 * t.len() as u64);
                *state += t.len() as u64;
                t.into_iter().map(|x| x as u64 * 3 + i as u64).collect::<Vec<u64>>()
            })
        });
        writeln!(out, "replies {step}: {replies:?}").unwrap();

        sys.scoped_phase("insert", |s| {
            s.broadcast(vec![step; 1 + step as usize % 3], |_, state, ctx, v| {
                ctx.op(5 * v.len() as u64);
                *state ^= v.len() as u64;
            });
            if step % 4 == 1 {
                // All rows empty, and a matrix shorter than the machine.
                s.scoped_phase("maintain", |s| {
                    let _ = s.execute_round(vec![Vec::<u32>::new(); 3], |_, _, _, t| t);
                });
            }
        });

        if step == 6 {
            // A warmup round mid-run: unaccounted, never injected, still
            // routed around dead modules.
            sys.accounting = false;
            let warm: Vec<Vec<u32>> =
                (0..MODULES).map(|i| if sys.is_dead(i) { vec![] } else { vec![1] }).collect();
            let _ = sys.execute_round(warm, |_, state, ctx, t| {
                ctx.op(1000);
                *state += 1;
                t
            });
            sys.accounting = true;
        }
        if step == 9 && plan.is_some_and(|c| c.is_active()) {
            sys.kill_module(3);
        }
        for d in sys.take_newly_dead() {
            let seen = sys.salvage(d as usize, |m| (*m, 512 + 8 * *m));
            writeln!(out, "salvaged {d}: {seen}").unwrap();
        }
    }

    let s = sys.stats();
    writeln!(
        out,
        "stats: {} {} {} {:016x} {:016x} {:016x} {} {} {}",
        s.rounds,
        s.cpu_to_pim_bytes,
        s.pim_to_cpu_bytes,
        s.pim_s.to_bits(),
        s.comm_s.to_bits(),
        s.overhead_s.to_bits(),
        s.total_pim_cycles,
        s.sum_max_cycles,
        s.n_modules,
    )
    .unwrap();
    writeln!(
        out,
        "faults: {:?} {} {} {:016x} {}",
        s.faults,
        s.retries,
        s.retransmitted_bytes,
        s.timeout_s.to_bits(),
        s.salvaged_bytes,
    )
    .unwrap();
    writeln!(out, "dead: {:?}", sys.dead_mask()).unwrap();
    writeln!(out, "state: {:?}", (0..MODULES).map(|i| *sys.peek(i)).collect::<Vec<_>>()).unwrap();
    out.push_str(&journal.to_jsonl());
    out.push_str(&sys.metrics().snapshot_text().expect("metrics attached"));
    out
}

fn pinned(plan: Option<FaultConfig>, digest: u64) {
    let runs: Vec<String> =
        [1usize, 4].iter().map(|&n| rayon::ThreadPool::new(n).install(|| run(plan))).collect();
    assert_eq!(runs[0], runs[1], "artifacts diverged between 1 and 4 worker threads");
    let got = fnv1a(runs[0].as_bytes());
    assert_eq!(got, digest, "golden digest moved: {got:#018x}");
}

/// A zero-rate plan must publish exactly what no plan does, so the two
/// fault-free modes share one digest.
const FAULT_FREE: u64 = 0x7346_e631_fab7_f519;

#[test]
fn no_plan_artifacts_are_pinned() {
    pinned(None, FAULT_FREE);
}

#[test]
fn zero_rate_plan_artifacts_are_pinned() {
    pinned(Some(FaultConfig::uniform(0.0, 7)), FAULT_FREE);
}

#[test]
fn faulted_run_with_kill_and_salvage_is_pinned() {
    pinned(Some(FaultConfig::uniform(0.05, 2026)), 0x5a7e_0d30_2a6e_a28d);
}
