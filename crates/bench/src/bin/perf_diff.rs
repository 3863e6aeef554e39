//! Perf regression gate over `--json` reports.
//!
//! ```text
//! perf_diff BASELINE NEW [--threshold R]   compare two reports
//! perf_diff BASELINE_DIR NEW [...]         pick the baseline whose "bench"
//!                                          field matches NEW's
//! perf_diff --check-schema FILE...         shape-validate reports only
//! perf_diff --check-trace-events FILE...   shape-validate Perfetto exports
//! ```
//!
//! `--host-time` additionally prints the host wall-clock delta between the
//! two reports' `wall_s` fields, plus — when a report carries the
//! profiler's `host_spans` object (`--profile` runs) — the `encode_batch`
//! and `fine_filter` kernel self-time deltas. All of it is **advisory
//! only** — wall-clock is machine- and load-dependent, so it never affects
//! the exit status; the gate stays over simulated (deterministic) metrics.
//!
//! Exit status: 0 when the gate passes, 1 on a regression or structural
//! error (schema/config mismatch, missing cell or metric family), 2 on
//! usage errors. Structural errors are errors rather than regressions
//! because they mean the comparison itself is invalid.

use pim_bench::perf::{diff_reports, validate_schema, DEFAULT_THRESHOLD};
use pim_bench::trace_events::validate_trace_events;
use serde_json::Value;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Resolves a baseline argument: a file is used as-is; a directory is
/// searched for the report whose `bench` field matches the new report's.
fn resolve_baseline(arg: &str, new: &Value) -> Result<(String, Value), String> {
    if !std::path::Path::new(arg).is_dir() {
        return Ok((arg.to_string(), load(arg)?));
    }
    let bench = new.get("bench").and_then(Value::as_str).ok_or("new report: missing \"bench\"")?;
    let mut paths: Vec<_> = std::fs::read_dir(arg)
        .map_err(|e| format!("{arg}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for p in paths {
        let path = p.display().to_string();
        let Ok(v) = load(&path) else { continue };
        if v.get("bench").and_then(Value::as_str) == Some(bench) {
            return Ok((path, v));
        }
    }
    Err(format!("{arg}: no baseline with bench {bench:?}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("--check-schema") {
        if args.len() < 2 {
            eprintln!("usage: perf_diff --check-schema FILE...");
            std::process::exit(2);
        }
        let mut failed = false;
        for path in &args[1..] {
            match load(path).and_then(|v| validate_schema(&v).map_err(|e| format!("{path}: {e}"))) {
                Ok(_) => println!("{path}: ok"),
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
        std::process::exit(if failed { 1 } else { 0 });
    }

    if args.first().map(String::as_str) == Some("--check-trace-events") {
        if args.len() < 2 {
            eprintln!("usage: perf_diff --check-trace-events FILE...");
            std::process::exit(2);
        }
        let mut failed = false;
        for path in &args[1..] {
            match load(path)
                .and_then(|v| validate_trace_events(&v).map_err(|e| format!("{path}: {e}")))
            {
                Ok(stats) => println!(
                    "{path}: ok ({} events, {} tracks, {} X, {} B/E spans)",
                    stats.events, stats.tracks, stats.complete, stats.spans
                ),
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
        std::process::exit(if failed { 1 } else { 0 });
    }

    let mut threshold = DEFAULT_THRESHOLD;
    let mut host_time = false;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => match it.next().map(|v| (v.parse::<f64>(), v)) {
                Some((Ok(t), _)) if t >= 0.0 => threshold = t,
                other => {
                    eprintln!("error: --threshold expects a non-negative ratio, got {other:?}");
                    std::process::exit(2);
                }
            },
            "--host-time" => host_time = true,
            _ if !a.starts_with("--") => positional.push(a),
            other => {
                eprintln!("error: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    let [base_arg, new_arg] = positional.as_slice() else {
        eprintln!(
            "usage: perf_diff BASELINE NEW [--threshold R] [--host-time] | \
             perf_diff --check-schema FILE... | perf_diff --check-trace-events FILE..."
        );
        std::process::exit(2);
    };

    let run = || -> Result<bool, String> {
        let new = load(new_arg)?;
        let (base_path, base) = resolve_baseline(base_arg, &new)?;
        let outcome = diff_reports(&base, &new, threshold)?;
        println!(
            "perf_diff: {} vs {new_arg}: {} cells compared (threshold {:.0}%)",
            base_path,
            outcome.compared,
            threshold * 100.0
        );
        for line in &outcome.improvements {
            println!("improved:  {line}");
        }
        for line in &outcome.regressions {
            println!("REGRESSED: {line}");
        }
        // Serving latency percentiles print but never gate (they are far
        // noisier across batching-policy tweaks than the gated quantities).
        for line in &outcome.advisories {
            println!("advisory:  {line}");
        }
        if host_time {
            // Advisory: wall-clock depends on the machine the report was
            // captured on, so this prints but never gates.
            match (
                base.get("wall_s").and_then(Value::as_f64),
                new.get("wall_s").and_then(Value::as_f64),
            ) {
                (Some(b), Some(n)) if b > 0.0 => {
                    println!(
                        "host-time (advisory): wall_s {b:.3} -> {n:.3} ({:+.1}%)",
                        (n - b) / b * 100.0
                    );
                }
                _ => println!("host-time (advisory): wall_s missing from one or both reports"),
            }
            // Kernel self-time from the host profiler (`--profile` runs
            // record a "host_spans" object). Same advisory-only contract.
            for span in ["encode_batch", "fine_filter"] {
                let get = |v: &Value| {
                    v.get("host_spans").and_then(|h| h.get(span)).and_then(Value::as_f64)
                };
                match (get(&base), get(&new)) {
                    (Some(b), Some(n)) if b > 0.0 => println!(
                        "host-time (advisory): {span} self {:.3}ms -> {:.3}ms ({:+.1}%)",
                        b * 1e3,
                        n * 1e3,
                        (n - b) / b * 100.0
                    ),
                    (_, Some(n)) => println!(
                        "host-time (advisory): {span} self {:.3}ms (no baseline span)",
                        n * 1e3
                    ),
                    _ => {}
                }
            }
        }
        if outcome.passed() {
            println!("perf_diff: PASS");
        } else {
            println!("perf_diff: FAIL ({} regressions)", outcome.regressions.len());
        }
        Ok(outcome.passed())
    };
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perf_diff: error: {e}");
            std::process::exit(1);
        }
    }
}
