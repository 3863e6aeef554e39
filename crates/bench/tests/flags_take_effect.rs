//! The shared `--fault-rate` and `--trace` flags take effect in every
//! figure binary that measures a `PimZdTree`, and the binaries that cannot
//! apply them refuse them with exit 2: no report carries a `fault_rate`
//! its run did not inject. `fig_durability`, whose steps are host
//! wall-clock, refuses `--json` too, so every perf report is simulated.
//! A malformed, zero or missing count or seed exits 2 as well.

use std::path::PathBuf;
use std::process::Command;

/// A scratch path unique to this test process.
fn scratch(name: &str) -> String {
    let path: PathBuf =
        std::env::temp_dir().join(format!("pzd-flags-{}-{name}", std::process::id()));
    path.to_str().expect("the temp dir is UTF-8").to_string()
}

/// Runs `bin` with `args` and returns its exit code.
fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin).args(args).output().expect("the binary starts").status.code()
}

/// The `results` array of the perf report at `path`.
fn results(path: &str) -> serde_json::Value {
    let text = std::fs::read_to_string(path).expect("the report was written");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("the report parses");
    doc.get("results").expect("the report has results").clone()
}

/// Runs `bin` at `scale` with and without `--fault-rate 0.05 --trace`,
/// and checks that the faulted run journals its faults, counts them in
/// the metrics snapshot and reports different simulated results.
fn faults_and_trace_take_effect(bin: &str, name: &str, scale: &[&str]) {
    let [trace, json, metrics, clean] =
        ["trace.jsonl", "faulted.json", "metrics.prom", "clean.json"]
            .map(|f| scratch(&format!("{name}-{f}")));
    let faulted = [
        &["--fault-rate", "0.05", "--trace", &trace, "--json", &json, "--metrics", &metrics],
        scale,
    ]
    .concat();
    assert_eq!(exit_code(bin, &faulted), Some(0), "{name} with the flags");
    assert_eq!(
        exit_code(bin, &[&["--json", clean.as_str()], scale].concat()),
        Some(0),
        "{name} without"
    );

    let journal = std::fs::read_to_string(&trace).expect("--trace wrote a journal");
    assert!(journal.contains("\"faults\""), "{name}: the journal records no fault");
    let snapshot = std::fs::read_to_string(&metrics).expect("--metrics wrote a snapshot");
    let faults: u64 = snapshot
        .lines()
        .filter(|l| l.starts_with("sim_faults_total"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert!(faults > 0, "{name}: no sim_faults_total in\n{snapshot}");
    assert_ne!(results(&json), results(&clean), "{name}: the fault plan changed no result");
    for path in [trace, json, metrics, clean] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn fig7_applies_fault_rate_and_trace() {
    let scale = ["--points", "4000", "--modules", "16"];
    faults_and_trace_take_effect(env!("CARGO_BIN_EXE_fig7_batch_size"), "fig7", &scale);
}

#[test]
fn table3_applies_fault_rate_and_trace() {
    let scale = ["--points", "4000", "--batch", "400", "--modules", "16"];
    faults_and_trace_take_effect(env!("CARGO_BIN_EXE_table3_ablation"), "table3", &scale);
}

#[test]
fn binaries_that_cannot_apply_a_flag_refuse_it() {
    let trace = scratch("refused.jsonl");
    let report = scratch("refused.json");
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fig_serving"), ["--fault-rate", "0.05"]),
        (env!("CARGO_BIN_EXE_fig_serving"), ["--trace", trace.as_str()]),
        (env!("CARGO_BIN_EXE_fig_durability"), ["--fault-rate", "0.05"]),
        (env!("CARGO_BIN_EXE_fig_durability"), ["--trace", trace.as_str()]),
        (env!("CARGO_BIN_EXE_fig_durability"), ["--json", report.as_str()]),
        (env!("CARGO_BIN_EXE_fig_shard"), ["--fault-rate", "0.05"]),
    ] {
        assert_eq!(exit_code(bin, &args), Some(2), "{bin} {args:?}");
    }
    for path in [&trace, &report] {
        assert!(!std::path::Path::new(path).exists(), "a refused run wrote {path}");
    }
}

/// A shared count or seed flag whose value is malformed, zero where a count
/// must be positive, or missing exits 2 and names the flag; none of them
/// runs at a default the user did not ask for. Each case is followed by a
/// small valid scale, so a binary that ignored the bad value would finish
/// quickly with exit 0.
#[test]
fn malformed_counts_and_seeds_exit_2() {
    let bin = env!("CARGO_BIN_EXE_fig6_breakdown");
    let scale = ["--points", "2000", "--batch", "200", "--modules", "16"];
    for bad in [
        &["--modules", "2O48"][..],
        &["--modules", "0"],
        &["--points", "1e4"],
        &["--points", "0"],
        &["--batch", "ten"],
        &["--batch", "0"],
        &["--seed", "-1"],
        &["--fault-seed", "x1"],
    ] {
        let out = Command::new(bin).args(bad).args(scale).output().expect("the binary starts");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(bad[0]), "{bad:?}: the message names the flag: {stderr}");
    }
    let out = Command::new(bin).args(scale).arg("--seed").output().expect("the binary starts");
    assert_eq!(out.status.code(), Some(2), "a missing --seed value");
}
