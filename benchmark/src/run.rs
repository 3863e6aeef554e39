//! `benchmark run`: the whole benchmark in one command.
//!
//! Every (workload, pass) is its own child process of this executable, so
//! passes share nothing but the seed. The untraced passes go round-robin
//! over the workloads (A B C D A B C D A B C D): a burst from a neighbour on
//! the machine then hits one pass of every workload and not every pass of
//! one. A host metric is taken from the fastest pass, with the quartile
//! spread of all passes' reps beside it; a simulated metric must read the
//! same in every pass. One traced pass per workload follows for the
//! per-layer metrics.

use crate::driver::out_dir;
use crate::json::{self, number, object, text};
use crate::spec::{self, WORKLOADS};
use crate::stats::quartiles;
use serde_json::Value;
use std::process::Command;

/// Untraced passes per workload.
const PASSES: usize = 3;

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

fn f64_of(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("run file has no number `{key}`"))
}

fn floats(v: &Value, key: &str) -> Vec<f64> {
    let items = v
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("run file has no list `{key}`"));
    items.iter().filter_map(Value::as_f64).collect()
}

/// Runs one pass in a child process and reads back the file it wrote.
fn pass(workload: &str, a: &RunArgs, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &a.seed.to_string(),
        "--seconds",
        &a.seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end before returning.
    let out = cmd.output().map_err(|e| format!("cannot start the {workload} pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} pass failed ({}):\n{}{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let kind = if trace { "traced" } else { "untraced" };
    let path = out_dir().join(format!("{workload}-{kind}.json"));
    let file = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&file).map_err(|e| format!("{}: {e}", path.display()))
}

/// Merges a workload's untraced passes and its traced pass.
fn merge(workload: &str, passes: &[Value], traced: &Value) -> Result<Value, String> {
    let metric = |p: &Value, name: &str| p.get("metrics").map_or(0.0, |m| f64_of(m, name));
    let fastest = passes
        .iter()
        .max_by(|a, b| metric(a, "host_ops_per_s").total_cmp(&metric(b, "host_ops_per_s")))
        .expect("at least one pass");
    let digest = |p: &Value| p.get("digest").and_then(Value::as_str).unwrap_or("").to_string();
    if passes.iter().chain([traced]).any(|p| digest(p) != digest(fastest)) {
        return Err(format!("{workload}: result_digest differs between passes of one run"));
    }
    let pooled = |key: &str| passes.iter().flat_map(|p| floats(p, key)).collect::<Vec<_>>();
    let mut end_to_end = Vec::new();
    for m in spec::end_to_end() {
        let values: Vec<f64> = passes.iter().map(|p| metric(p, &m.name)).collect();
        if m.exact && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            return Err(format!(
                "{workload}: simulated metric {} differs between passes: {values:?}",
                m.name
            ));
        }
        // Spread: of all passes' reps for the rate, of the passes otherwise.
        let spread = match m.name.as_str() {
            "host_ops_per_s" => quartiles(&pooled("rep_ms_all")).spread(),
            _ => quartiles(&values).spread(),
        };
        end_to_end.push((
            m.name.clone(),
            object([
                ("value", number(metric(fastest, &m.name))),
                ("unit", text(m.unit)),
                ("spread", number(spread)),
                ("passes", Value::Array(values.into_iter().map(number).collect())),
            ]),
        ));
    }
    let per_layer = spec::per_layer().into_iter().map(|m| {
        (
            m.name.clone(),
            object([("value", number(metric(traced, &m.name))), ("unit", text(m.unit))]),
        )
    });
    Ok(object([
        ("digest", text(&digest(fastest))),
        ("attempted", number(passes.iter().chain([traced]).map(|p| f64_of(p, "attempted")).sum())),
        ("failed", number(passes.iter().chain([traced]).map(|p| f64_of(p, "failed")).sum())),
        ("reps", number(passes.iter().map(|p| f64_of(p, "reps")).sum())),
        ("tail_percentile", number(f64_of(fastest, "tail_percentile"))),
        ("tail_samples", number(f64_of(fastest, "tail_samples"))),
        ("end_to_end", object(end_to_end)),
        ("per_layer", object(per_layer)),
    ]))
}

fn print_result(result: &Value) {
    let workloads = result.get("workloads").expect("result has workloads");
    for (name, _) in WORKLOADS {
        let w = workloads.get(name).expect("every workload is in the result");
        println!(
            "\n{name}: result_digest {}, {} reps, attempted {} failed {}, tail p{} of {} samples",
            w.get("digest").and_then(Value::as_str).unwrap_or("?"),
            f64_of(w, "reps"),
            f64_of(w, "attempted"),
            f64_of(w, "failed"),
            f64_of(w, "tail_percentile") * 100.0,
            f64_of(w, "tail_samples"),
        );
        for m in spec::end_to_end() {
            let e = w
                .get("end_to_end")
                .and_then(|e| e.get(&m.name))
                .expect("every metric is in the result");
            println!(
                "  {:<34} {:>18.4} {:<7} better {:<6} bound {:>4.0} %  spread {:>5.1} %",
                m.name,
                f64_of(e, "value"),
                m.unit,
                m.better.as_str(),
                m.bound.unwrap_or(0.0) * 100.0,
                f64_of(e, "spread") * 100.0
            );
        }
        for m in spec::per_layer() {
            let v =
                w.get("per_layer").and_then(|e| e.get(&m.name)).map_or(0.0, |e| f64_of(e, "value"));
            if v != 0.0 {
                println!("  {:<34} {:>18.4} {}", m.name, v, m.unit);
            }
        }
    }
    println!("\nbaseline.* are this cost model's ratios on batch_query's inputs. The paper's, on uniform");
    println!(
        "data (EXPERIMENTS.md): BoxCount / BoxFetch / kNN 4.25x / 3.08x / 1.46x over Pkd-tree and"
    );
    println!(
        "518x / 99x / 3.46x over zd-tree. The model is not validated against hardware, so no error"
    );
    println!("figure is given.");
}

/// Runs every workload (untraced passes, then a traced pass each), prints
/// every metric and writes `out/result.json` and `out/trace.json`.
/// Returns whether every output was correct.
pub fn run(a: &RunArgs) -> Result<bool, String> {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    let mut untraced: Vec<Vec<Value>> = vec![Vec::new(); names.len()];
    for p in 0..PASSES {
        for (i, name) in names.iter().enumerate() {
            eprintln!("pass {} of {PASSES}, untraced: {name}", p + 1);
            untraced[i].push(pass(name, a, false)?);
        }
    }
    let mut merged = Vec::new();
    let mut traces = Vec::new();
    for (i, name) in names.iter().enumerate() {
        eprintln!("traced: {name}");
        let traced = pass(name, a, true)?;
        merged.push((name.to_string(), merge(name, &untraced[i], &traced)?));
        let path = out_dir().join(format!("{name}-trace.json"));
        traces.push(
            std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        );
    }
    let failed: f64 = merged.iter().map(|(_, w)| f64_of(w, "failed")).sum();
    let result = object([
        ("schema", text("pim-zd-benchmark/1")),
        ("quick", Value::Bool(a.quick)),
        ("seed", number(a.seed as f64)),
        ("seconds", number(a.seconds)),
        ("passes", number(PASSES as f64)),
        ("threads", number(1.0)),
        ("host_cpus", number(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)),
        ("workloads", object(merged)),
    ]);
    print_result(&result);
    let write = |name: &str, body: String| {
        let path = out_dir().join(name);
        std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write("result.json", json::pretty(&result))?;
    // One Chrome trace with a process per workload.
    let events: Vec<String> = traces
        .iter()
        .enumerate()
        .flat_map(|(pid, t)| {
            let doc = serde_json::from_str(t).expect("the trace this program wrote parses");
            let events =
                doc.get("traceEvents").and_then(Value::as_array).cloned().unwrap_or_default();
            events.into_iter().map(move |mut e| {
                if let Value::Object(fields) = &mut e {
                    fields.insert("pid".into(), number(pid as f64 + 1.0));
                }
                json::compact(&e)
            })
        })
        .collect();
    write("trace.json", format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")))?;
    println!("\nwrote {} and trace.json beside it", out_dir().join("result.json").display());
    Ok(failed == 0.0)
}
