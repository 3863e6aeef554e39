//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]   one run (what BENCHMARK.json invokes)
//! benchmark run [--seed N] [--seconds S] [--quick]                    every workload, untraced then traced
//! benchmark compare A.json B.json [--same-code]                       B against A, held to the bounds
//! benchmark spec [--markdown]                                         BENCHMARK.json (or README's tables) as the code defines them
//! ```

mod compare;
mod driver;
mod json;
mod layers;
mod recorder;
mod run;
mod spec;
mod stats;
mod workloads;

use driver::{Args, Outcome};
use std::process::ExitCode;
use workloads::{
    batch_churn::BatchChurn, batch_query::BatchQuery, serve_mixed::ServeMixed,
    shard_skew::ShardSkew, Scale, Workload,
};

const USAGE: &str = "usage:
  benchmark --workload <batch_query|batch_churn|serve_mixed|shard_skew> --seed <n> --seconds <s> --trace <0|1> [--quick]
  benchmark run [--seed <n>] [--seconds <s>] [--quick]
  benchmark compare <A.json> <B.json> [--same-code]
  benchmark spec [--markdown]";

/// `--name value` pairs and bare flags after the subcommand.
struct Flags {
    args: Vec<String>,
}

impl Flags {
    fn value(&self, name: &str) -> Result<Option<&str>, String> {
        match self.args.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => match self.args.get(i + 1) {
                Some(v) if !v.starts_with("--") => Ok(Some(v)),
                _ => Err(format!("{name} needs a value")),
            },
        }
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.value(name)? {
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read `{v}`")),
            None => default.ok_or_else(|| format!("{name} is required")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }
}

/// One run on a one-thread pool: the load generator is this same process,
/// and on a small box a second worker thread only adds noise (README.md).
fn one_run<W: Workload>(args: &Args) -> Outcome {
    rayon::ThreadPool::new(1).install(|| driver::run::<W>(args))
}

fn contract_run(flags: &Flags) -> Result<bool, String> {
    let workload: String = flags.parsed("--workload", None)?;
    let seconds: f64 = flags.parsed("--seconds", None)?;
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0..=600"));
    }
    let trace = match flags.parsed::<u8>("--trace", None)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let scale = if flags.has("--quick") { Scale::Quick } else { Scale::Full };
    let args = Args { seed: flags.parsed("--seed", None)?, seconds, trace, scale };
    let outcome = match workload.as_str() {
        BatchQuery::NAME => one_run::<BatchQuery>(&args),
        BatchChurn::NAME => one_run::<BatchChurn>(&args),
        ServeMixed::NAME => one_run::<ServeMixed>(&args),
        ShardSkew::NAME => one_run::<ShardSkew>(&args),
        other => return Err(format!("unknown workload `{other}`")),
    };
    outcome.print();
    outcome
        .write_files()
        .map_err(|e| format!("cannot write under {}: {e}", driver::out_dir().display()))?;
    println!("{}", outcome.contract_line());
    Ok(outcome.correct)
}

fn dispatch(argv: Vec<String>) -> Result<bool, String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c.to_string(), argv[1..].to_vec()),
        _ => (String::new(), argv),
    };
    let flags = Flags { args: rest };
    match command.as_str() {
        "" if flags.has("--workload") => contract_run(&flags),
        "run" => {
            let quick = flags.has("--quick");
            // A smoke run does one cycle of reps per pass.
            let seconds = flags
                .parsed("--seconds", Some(if quick { 0.0 } else { spec::RUN_SECONDS as f64 }))?;
            run::run(&run::RunArgs { seed: flags.parsed("--seed", Some(2026))?, seconds, quick })
        }
        "compare" => {
            match flags.args.iter().filter(|a| !a.starts_with("--")).collect::<Vec<_>>()[..] {
                [a, b] => compare::compare(a, b, flags.has("--same-code")),
                _ => Err("compare takes two result files".into()),
            }
        }
        "spec" => {
            if flags.has("--markdown") {
                print!("{}", spec::markdown());
            } else {
                print!("{}", json::pretty(&spec::benchmark_json()));
            }
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    // A panic anywhere below (a layer's, or a failed check's) must fail the
    // command, not just one thread of it.
    let outcome = std::panic::catch_unwind(|| dispatch(std::env::args().skip(1).collect()));
    match outcome {
        Ok(Ok(true)) => ExitCode::SUCCESS,
        Ok(Ok(false)) => {
            eprintln!("benchmark: outputs are not correct (see `failed` above)");
            ExitCode::from(1)
        }
        Ok(Err(message)) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
        Err(_) => {
            eprintln!("benchmark: a call panicked; counted as a failed run");
            ExitCode::from(3)
        }
    }
}
