//! **E-T tail attribution** — decomposes serving latency percentiles into
//! exact per-phase contributions from a recorded span journal.
//!
//! ```text
//! tail_report DIR              read every DIR/spans*.jsonl (filename order)
//! tail_report spans.jsonl      read a span file directly
//! tail_report a.jsonl b.jsonl  merge several span files (argument order)
//! ```
//!
//! The report (see `pim_bench::tail`) prints the p50/p99/p999 requests with
//! their queue/wait/cpu/pim/comm breakdown — spans that *sum exactly* to
//! each reply's latency, enforced here with a hard error — plus a log₂
//! latency-bucket table with per-phase means and the smallest exemplar
//! trace ids per bucket. Those ids resolve into the same journal dir:
//! `spans.jsonl` → `batches.jsonl` (the request's batch and round-id range)
//! → `rounds.jsonl` (the batch's BSP rounds, `trace_summary`-compatible).
//!
//! Multi-rank runs write one span file per rank (`spans.rank0.jsonl`, …);
//! a directory argument picks them all up in filename order — a stable,
//! rank-tagged order, so the merged report never depends on wall-clock
//! interleaving. Everything is virtual time from a deterministic run, so
//! the output is byte-identical for byte-identical input. Exit status: 0 on
//! success, 1 on malformed input or an exactness violation, 2 on usage
//! errors.

use pim_bench::tail::summarize;
use pim_serve::trace::parse_spans_jsonl;
use pim_serve::RequestTrace;
use std::path::Path;

/// Expands one CLI argument into span-file paths: a directory yields every
/// `spans*.jsonl` inside it sorted by filename, a file yields itself.
fn expand(arg: &str) -> Result<Vec<String>, String> {
    let p = Path::new(arg);
    if !p.is_dir() {
        return Ok(vec![arg.to_string()]);
    }
    let mut files: Vec<String> = std::fs::read_dir(p)
        .map_err(|e| format!("{arg}: {e}"))?
        .filter_map(|ent| {
            let path = ent.ok()?.path();
            let name = path.file_name()?.to_str()?;
            (name.starts_with("spans") && name.ends_with(".jsonl"))
                .then(|| path.display().to_string())
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{arg}: no spans*.jsonl files"));
    }
    Ok(files)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: tail_report JOURNAL_DIR|spans.jsonl [more-span-files ...]");
        std::process::exit(2);
    }
    let run = || -> Result<String, String> {
        let mut rows: Vec<RequestTrace> = Vec::new();
        for arg in &args {
            for path in expand(arg)? {
                let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                rows.extend(parse_spans_jsonl(&text).map_err(|e| format!("{path}: {e}"))?);
            }
        }
        Ok(summarize(&rows)?.render())
    };
    match run() {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("tail_report: error: {e}");
            std::process::exit(1);
        }
    }
}
