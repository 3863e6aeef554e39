//! `benchmark compare A.json B.json`: B against A, one row per
//! (metric, workload), held to the bound the benchmark fixed.

use crate::spec::{self, Better, MetricSpec, WORKLOADS};
use serde_json::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Reads exactly the same.
    Same,
    /// Improved by more than both runs' spreads.
    Better,
    /// Moved by less than the bound (and, if it improved, less than the spread).
    Within,
    /// Got worse by more than the bound.
    Worse,
    /// A run's own quartile spread is wider than the bound: no verdict.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub value: f64,
    /// Quartile spread of the run's own samples, as a share of the median.
    pub spread: f64,
}

/// Judges `b` against `a`. With `same_code`, a simulated metric that moved
/// at all is `Worse`: one program and one seed must repeat exactly.
pub fn judge(m: &MetricSpec, a: Reading, b: Reading, same_code: bool) -> Verdict {
    if a.value.to_bits() == b.value.to_bits() {
        return Verdict::Same;
    }
    if m.exact && same_code {
        return Verdict::Worse;
    }
    let bound = m.bound.unwrap_or(0.0);
    let spread = a.spread.max(b.spread);
    if !m.exact && spread > bound {
        return Verdict::Unresolved;
    }
    // Positive when B is worse than A, as a share of A.
    let worse_by = match m.better {
        Better::Higher => (a.value - b.value) / a.value.abs(),
        Better::Lower => (b.value - a.value) / a.value.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<Value, String> {
    let file = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = serde_json::from_str(&file).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("pim-zd-benchmark/1") {
        return Err(format!("{path} is not a result of `benchmark run`"));
    }
    if doc.get("quick") != Some(&Value::Bool(false)) {
        return Err(format!("{path} is a --quick result: smoke sizes are not comparable"));
    }
    Ok(doc)
}

fn reading(doc: &Value, workload: &str, table: &str, metric: &str) -> Option<Reading> {
    let e = doc.get("workloads")?.get(workload)?.get(table)?.get(metric)?;
    Some(Reading {
        value: e.get("value")?.as_f64()?,
        spread: e.get("spread").and_then(Value::as_f64).unwrap_or(0.0),
    })
}

/// One row of the table; every cell already rendered.
fn row(workload: &str, metric: &str, cells: [&str; 5], verdict: &str) {
    let [a, b, change, better, bound] = cells;
    println!(
        "{workload:<12} {metric:<34} {a:>16} {b:>16} {change:>8} {better:<6} {bound:>6}  {verdict}"
    );
}

/// Prints the table and returns whether no row is `worse`.
pub fn compare(path_a: &str, path_b: &str, same_code: bool) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut worse = 0;
    row("workload", "metric", ["A", "B", "B vs A", "better", "bound"], "verdict");
    for (w, _) in WORKLOADS {
        let field = |doc: &Value, key: &str| {
            doc.get("workloads").and_then(|ws| ws.get(w)).and_then(|x| x.get(key)).cloned()
        };
        let digest = |doc: &Value| {
            field(doc, "digest").and_then(|d| d.as_str().map(String::from)).unwrap_or("?".into())
        };
        let verdict = match (digest(&a) == digest(&b), same_code) {
            (true, _) => "same",
            (false, false) => "changed",
            (false, true) => "worse",
        };
        worse += usize::from(verdict == "worse");
        row(w, "result_digest", [&digest(&a), &digest(&b), "", "", ""], verdict);

        let failed = |doc: &Value| field(doc, "failed").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let verdict = match failed(&b).total_cmp(&failed(&a)) {
            std::cmp::Ordering::Greater => "worse",
            std::cmp::Ordering::Equal => "same",
            std::cmp::Ordering::Less => "better",
        };
        worse += usize::from(verdict == "worse");
        let count = |doc: &Value| failed(doc).to_string();
        row(w, "failed", [&count(&a), &count(&b), "", "lower", "0 %"], verdict);

        for (table, specs) in [("end_to_end", spec::end_to_end()), ("per_layer", spec::per_layer())]
        {
            for m in specs {
                let (Some(ra), Some(rb)) =
                    (reading(&a, w, table, &m.name), reading(&b, w, table, &m.name))
                else {
                    return Err(format!("{w}: metric {} is missing from a result", m.name));
                };
                if ra.value == 0.0 && rb.value == 0.0 {
                    continue; // a layer this workload does not reach
                }
                // Per-layer metrics have no bound: only exact ones get a verdict.
                let verdict = match (m.bound, m.exact) {
                    (Some(_), _) => judge(&m, ra, rb, same_code).as_str(),
                    (None, true) if ra.value == rb.value => "same",
                    (None, true) if same_code => "worse",
                    (None, true) => "changed",
                    (None, false) => "-",
                };
                worse += usize::from(verdict == "worse");
                let change = (rb.value - ra.value) / ra.value.abs().max(f64::MIN_POSITIVE);
                let cells = [
                    &format!("{:.4}", ra.value),
                    &format!("{:.4}", rb.value),
                    &format!("{:+.1}%", change * 100.0),
                    m.better.as_str(),
                    &m.bound.map_or("-".to_string(), |b| format!("{:.0} %", b * 100.0)),
                ];
                row(w, &m.name, cells.map(|c| c as &str), verdict);
            }
        }
    }
    println!("{worse} row(s) worse");
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric like the spec's `name`, but with a bound of 10 %.
    fn metric(name: &str) -> MetricSpec {
        MetricSpec { bound: Some(0.10), ..spec::find(name).expect("known metric") }
    }

    fn r(value: f64, spread: f64) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn host_metrics_are_held_to_their_bound_and_spread() {
        let m = metric("host_ops_per_s"); // higher is better, bound 10 %
        assert_eq!(judge(&m, r(100.0, 0.02), r(100.0, 0.02), false), Verdict::Same);
        assert_eq!(judge(&m, r(100.0, 0.02), r(95.0, 0.02), false), Verdict::Within);
        assert_eq!(judge(&m, r(100.0, 0.02), r(89.0, 0.02), false), Verdict::Worse);
        assert_eq!(judge(&m, r(100.0, 0.02), r(101.0, 0.02), false), Verdict::Within);
        assert_eq!(judge(&m, r(100.0, 0.02), r(104.0, 0.02), false), Verdict::Better);
        assert_eq!(judge(&m, r(100.0, 0.12), r(80.0, 0.02), false), Verdict::Unresolved);
        let lower = metric("host_peak_rss_mb");
        assert_eq!(judge(&lower, r(100.0, 0.0), r(111.0, 0.0), false), Verdict::Worse);
        assert_eq!(judge(&lower, r(100.0, 0.0), r(90.0, 0.0), false), Verdict::Better);
    }

    #[test]
    fn simulated_metrics_must_repeat_exactly_for_the_same_code() {
        let m = metric("sim_ops_per_s");
        assert_eq!(judge(&m, r(100.0, 0.0), r(100.0, 0.0), true), Verdict::Same);
        assert_eq!(judge(&m, r(100.0, 0.0), r(100.000001, 0.0), true), Verdict::Worse);
        assert_eq!(judge(&m, r(100.0, 0.0), r(100.000001, 0.0), false), Verdict::Better);
        assert_eq!(judge(&m, r(100.0, 0.0), r(89.0, 0.0), false), Verdict::Worse);
    }

    #[test]
    fn quick_results_are_refused() {
        let dir = crate::driver::out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test-quick-result.json");
        std::fs::write(&path, r#"{"schema":"pim-zd-benchmark/1","quick":true,"workloads":{}}"#)
            .unwrap();
        let err = load(path.to_str().unwrap()).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.contains("--quick"), "{err}");
    }
}
