//! Renders a Fig-6-style per-phase breakdown from one or more round-trace
//! journals.
//!
//! ```sh
//! cargo run --release -p pim-bench --bin fig6_breakdown -- --trace fig6.jsonl
//! cargo run --release -p pim-bench --bin trace_summary -- fig6.jsonl
//! cargo run --release -p pim-bench --bin trace_summary -- s.rank0.jsonl s.rank1.jsonl
//! ```
//!
//! A journal is the JSONL file a `--trace` run writes: one
//! `pim_sim::RoundRecord` per accounted BSP round. This binary groups the
//! rounds by phase label and prints (a) the PIM/Comm/overhead time
//! attribution per phase — the Fig. 6 categories, with `Comm + Ovhd`
//! matching the harness's communication column exactly — and (b) a
//! per-phase traffic and load-imbalance table (Fig. 9's metric).
//!
//! With several journal arguments (the per-rank files a sharded `--trace`
//! run writes), the rounds merge in stable rank-tagged order: file `r`'s
//! phases render as `rank{r}/<phase>`, in argument order, so per-rank
//! attribution survives the merge and the output is independent of how the
//! ranks interleaved in wall-clock. A single argument renders exactly the
//! pre-sharding report.

use pim_bench::trace_report::{merge_rank_rows, render, summarize};
use pim_sim::trace::parse_jsonl;

fn main() {
    // Accept any number of journal paths: every non-flag token, plus an
    // explicit `--trace PATH` for compatibility with the shared arg set.
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        if a == "--trace" {
            if let Some(p) = args.next() {
                paths.push(p);
            }
        } else if a.starts_with("--") {
            // Shared-flag value (e.g. `--seed 7`): skip it.
            if args.peek().is_some_and(|v| !v.starts_with("--")) {
                args.next();
            }
        } else {
            paths.push(a);
        }
    }
    if paths.is_empty() {
        eprintln!("usage: trace_summary <journal.jsonl> [more-rank-journals.jsonl ...]");
        std::process::exit(2);
    }
    let mut per_rank = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("trace_summary: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        match parse_jsonl(&text) {
            Ok(r) => per_rank.push(r),
            Err(e) => {
                eprintln!("trace_summary: malformed journal {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let rows = merge_rank_rows(&per_rank);
    if rows.is_empty() {
        println!("(empty journal: no accounted rounds were traced)");
        return;
    }
    if paths.len() == 1 {
        println!("journal: {} ({} round records)\n", paths[0], rows.len());
    } else {
        println!("journals: {} ranks, {} round records", paths.len(), rows.len());
        for (r, path) in paths.iter().enumerate() {
            println!("  rank{r}: {path} ({} rounds)", per_rank[r].len());
        }
        println!();
    }
    print!("{}", render(&summarize(&rows)));
}
