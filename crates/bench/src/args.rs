//! Minimal command-line handling shared by every figure binary: one scan
//! of `std::env::args`, into the shared flags plus the `--name value` pairs
//! of binary-specific flags ([`BenchArgs::extra`]).
//!
//! The shared flags reach a tree under test through one door,
//! [`crate::PerfSink::attach`]. A binary that measures something `attach`
//! cannot take (sharded ranks, servers over restored images, durability
//! steps) wires the flags it can apply itself and [`refuses`](BenchArgs::refuse)
//! the rest, so no report carries a flag its run ignored.

use std::collections::BTreeMap;

/// Common scale knobs. Defaults keep each binary within a few minutes of
/// simulation; pass larger values to stress the machine.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Warmup dataset size (the paper: 300 M; default here: 500 k).
    pub points: usize,
    /// Point-operation batch size (the paper: 50 M; default here: 50 k).
    pub batch: usize,
    /// PIM modules (the paper's server: 2048; default here: 256).
    pub modules: usize,
    /// Free-form positional argument (e.g. the fig5 dataset name).
    pub positional: Option<String>,
    /// Seed for all generators.
    pub seed: u64,
    /// Round-trace output path (JSONL); `None` disables tracing.
    pub trace: Option<String>,
    /// Perf-report output path (versioned JSON, see `perf::SCHEMA`);
    /// `None` disables the report (and the metrics registry behind it).
    pub json: Option<String>,
    /// Host wall-clock profile output path (collapsed stacks); `None`
    /// keeps the profiler off (one relaxed atomic load per span site).
    pub profile: Option<String>,
    /// Metrics-snapshot output path (Prometheus exposition text); `None`
    /// disables the registry unless `--json` asked for it.
    pub metrics: Option<String>,
    /// Worker threads for the host-side executor; `None` defers to
    /// `RAYON_NUM_THREADS`, then to the machine's available parallelism.
    /// Results are identical at any setting — only wall-clock changes.
    pub threads: Option<usize>,
    /// Seed of the fault-injection plan (defaults to `seed`; only
    /// meaningful with a nonzero `--fault-rate`).
    pub fault_seed: Option<u64>,
    /// Uniform fault rate (see `pim_sim::FaultConfig::uniform`); 0 keeps
    /// the fault plane entirely off the hot path.
    pub fault_rate: f64,
    /// Binary-specific `--name value` pairs, keyed by `--name` (read with
    /// [`Self::extra`]).
    pub(crate) extra: BTreeMap<String, String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            points: 1_000_000,
            batch: 100_000,
            modules: 2048,
            positional: None,
            seed: 2026,
            trace: None,
            json: None,
            profile: None,
            metrics: None,
            threads: None,
            fault_seed: None,
            fault_rate: 0.0,
            extra: BTreeMap::new(),
        }
    }
}

impl BenchArgs {
    /// Parses `--points N --batch N --modules N --seed N --trace PATH
    /// --json PATH --profile PATH --metrics PATH --threads N
    /// --fault-seed N --fault-rate R [positional]` and any other
    /// `--name value` pairs, then pins the global thread pool to
    /// `--threads` when given.
    pub fn parse() -> Self {
        let mut out = Self::default();
        let mut args = std::env::args().skip(1).peekable();
        while let Some(a) = args.next() {
            let mut count = |flag: &str| value(args.next(), flag, "a positive count", |&n| n > 0);
            match a.as_str() {
                "--points" => out.points = count("--points"),
                "--batch" => out.batch = count("--batch"),
                "--modules" => out.modules = count("--modules"),
                "--seed" => out.seed = value(args.next(), "--seed", "an unsigned seed", |_| true),
                "--trace" => out.trace = args.next(),
                "--json" => out.json = args.next(),
                "--profile" => out.profile = args.next(),
                "--metrics" => out.metrics = args.next(),
                "--fault-seed" => {
                    let seed = value(args.next(), "--fault-seed", "an unsigned seed", |_| true);
                    out.fault_seed = Some(seed);
                }
                // A silently dropped fault rate would report a fault-free
                // run as a robustness result.
                "--fault-rate" => {
                    let in_range = |r: &f64| (0.0..=1.0).contains(r);
                    out.fault_rate =
                        value(args.next(), "--fault-rate", "a rate in [0, 1]", in_range);
                }
                // Silently falling back to the default pool size would let a
                // run the user believes is pinned use every core.
                "--threads" => {
                    out.threads = Some(value(args.next(), "--threads", "a thread count", |_| true));
                }
                other if !other.starts_with("--") => out.positional = Some(other.to_string()),
                // An unknown flag consumes its value token (if any) into
                // `extra`, so a binary-specific flag like `--requests 600`
                // never leaks its value into `positional` (which is
                // serialized into perf reports and compared by the diff gate).
                flag => {
                    if let Some(v) = args.next_if(|v| !v.starts_with("--")) {
                        out.extra.insert(flag.to_string(), v);
                    }
                }
            }
        }
        out.init_thread_pool();
        out
    }

    /// The value of the binary-specific flag `name` (`--requests`, …), if
    /// it was given and parses as a `T`.
    pub fn extra<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.extra.get(name).and_then(|v| v.parse().ok())
    }

    /// Exits 2, as a malformed `--threads` does, when the run asked for one
    /// of `flags` (`--fault-rate` at a nonzero rate, `--trace`, `--json`): a
    /// binary names the shared flags it cannot apply, so no report carries
    /// a `fault_rate` its run did not inject, no run promises a journal it
    /// does not write, and no report holds host wall-clock rows.
    pub fn refuse(&self, flags: &[&str]) {
        for &flag in flags {
            let given = match flag {
                "--fault-rate" => self.fault_rate != 0.0,
                "--trace" => self.trace.is_some(),
                "--json" => self.json.is_some(),
                other => panic!("{other} is not a refusable flag"),
            };
            if given {
                eprintln!("error: {flag} is not supported by this binary");
                std::process::exit(2);
            }
        }
    }

    /// The fault-injection plan these args describe: `None` at rate 0
    /// (fault plane fully off the hot path), otherwise a uniform plan
    /// seeded by `--fault-seed` (defaulting to `--seed`).
    pub fn fault_plan(&self) -> Option<pim_sim::FaultPlan> {
        if self.fault_rate == 0.0 {
            return None;
        }
        let seed = self.fault_seed.unwrap_or(self.seed);
        Some(pim_sim::FaultPlan::new(pim_sim::FaultConfig::uniform(self.fault_rate, seed)))
    }

    /// Sizes the global executor from `--threads`. Must run before the first
    /// parallel call; a late (ignored) request only costs wall-clock, never
    /// correctness, so we warn rather than abort.
    pub fn init_thread_pool(&self) {
        if let Some(n) = self.threads {
            if rayon::ThreadPoolBuilder::new().num_threads(n).build_global().is_err() {
                eprintln!(
                    "warning: --threads {n} ignored; the global thread pool was already built"
                );
            }
        }
    }
}

/// `v`, the value given for `flag`, parsed as a `T` that `valid` accepts.
/// A shared flag's value is never ignored: a missing, malformed or
/// rejected one (`--modules 2O48`, `--modules 0`) exits 2 with a message
/// naming the flag and what it expects, so no run goes on at a default the
/// user did not ask for.
fn value<T: std::str::FromStr>(
    v: Option<String>,
    flag: &str,
    expects: &str,
    valid: impl Fn(&T) -> bool,
) -> T {
    let Some(v) = v else {
        eprintln!("error: {flag} requires a value");
        std::process::exit(2);
    };
    match v.parse() {
        Ok(x) if valid(&x) => x,
        _ => {
            eprintln!("error: {flag} expects {expects}, got {v:?}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let a = BenchArgs::default();
        assert!(a.points >= a.batch);
        assert!(a.modules.is_power_of_two());
    }
}
