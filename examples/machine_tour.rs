//! A tour of the simulated BLIMP machine (`pim-sim`) on its own — no index,
//! just the execution and cost model the whole reproduction rests on.
//!
//! Demonstrates: BSP rounds, per-module cost metering, the straggler effect
//! (PIM time = max over modules), communication accounting, and the
//! SDK-vs-Direct-API transfer overhead (§6).
//!
//! ```sh
//! cargo run --release --example machine_tour
//! ```

use pim_zd_tree_repro::sim::{config::TransferApi, MachineConfig, PimCtx, PimSystem};

fn main() {
    println!("== pim-sim machine tour ==\n");
    let cfg = MachineConfig::with_modules(16);
    // Each module's local state: a vector of values it owns.
    let mut sys = PimSystem::new(cfg, |i| vec![i as u64; 1000]);

    // Round 1: scatter increments, each module sums its slice.
    let tasks: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64; 64]).collect();
    let sums = sys.execute_round(tasks, |_, state, ctx, incoming| {
        // Charge the work: one add per element, plus streaming the state.
        ctx.op(incoming.len() as u64 + state.len() as u64);
        ctx.mem(state.len() as u64 * 8);
        state.extend(incoming);
        vec![state.iter().sum::<u64>()]
    });
    println!("round 1: per-module sums gathered, e.g. module 3 → {}", sums[3][0]);
    let s = sys.stats();
    println!(
        "  sent {} B, received {} B, PIM time {:.2} µs, comm+overhead {:.2} µs",
        s.cpu_to_pim_bytes,
        s.pim_to_cpu_bytes,
        s.pim_s * 1e6,
        (s.comm_s + s.overhead_s) * 1e6
    );

    // Round 2: a straggler — module 7 gets 100x the work.
    let before = *sys.stats();
    let tasks: Vec<Vec<u64>> =
        (0..16).map(|i| vec![0u64; if i == 7 { 6400 } else { 64 }]).collect();
    let _ = sys.execute_round(tasks, |_, _, ctx: &mut PimCtx, incoming| {
        ctx.op(incoming.len() as u64 * 50);
        Vec::<u64>::new()
    });
    let s = sys.stats().since(&before);
    println!(
        "\nround 2 (straggler): load imbalance = {:.1}x — the round takes as long as module 7",
        s.agg_imbalance()
    );

    // Rounds 3+4: the Direct-API ablation — same transfer, different API.
    for api in [TransferApi::Sdk, TransferApi::Direct] {
        let before = *sys.stats();
        sys.config_mut().api = api;
        let tasks: Vec<Vec<u64>> = (0..16).map(|_| vec![1u64; 4]).collect();
        let _ = sys.execute_round(tasks, |_, _, _, t| t);
        println!(
            "small-batch transfer with {:?} API: overhead {:.2} µs/round",
            api,
            sys.stats().since(&before).overhead_s * 1e6
        );
    }

    println!("\nthe index crates charge every operation through exactly this machinery.");
}
