//! The benchmark's definition: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics with the end-to-end metric each
//! should move. `../BENCHMARK.json` and the tables of `README.md` are
//! renderings of this file (`benchmark spec`), pinned by a test.

use crate::json::{number, object, text};
use serde_json::Value;

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// Workload names with the reason each exists (one line, ≤ 200 characters).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "batch_query",
        "Read path of the paper's Fig. 5 (contains, 10-NN, box count, box fetch) on 1 M uniform points: \
         encode, rounds and query kernels do all the work; checkpoint, serve and shard code do none",
    ),
    (
        "batch_churn",
        "Insert, look up and delete 50 k points per rep on 1 M skewed (osm-like) points, skew-resistant \
         preset: sort, group and splice paths, so a read-path gain that costs updates shows",
    ),
    (
        "serve_mixed",
        "Open-loop read-heavy serving at three fixed Poisson rates with snapshot reads: the event loop and \
         the per-write-batch image capture and snapshot restore, which the batch workloads bypass",
    ),
    (
        "shard_skew",
        "Four-rank sharded tree under half-Varden 10-NN queries plus insert and delete churn: the only \
         workload where the router, cross-rank kNN widening and the rebalancer run",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the benchmark.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
    /// Counted on the simulated clock: repeats exactly for one seed and code.
    pub exact: bool,
    /// What the metric is (end to end) or which end-to-end metric it should
    /// move, on which workload (per layer).
    pub note: &'static str,
}

fn e2e(
    name: &str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    note: &'static str,
) -> MetricSpec {
    MetricSpec { name: name.into(), unit, better, bound: Some(bound), exact, note }
}

/// The end-to-end metrics; every workload reports all of them.
pub fn end_to_end() -> Vec<MetricSpec> {
    use Better::*;
    vec![
        e2e("setup_s", "s", Lower, 0.25, false,
            "host seconds to generate the inputs, build the index, capture its image and make the \
             query batches or traces; median of the set-ups of a run, outside the timed section"),
        e2e("host_ops_per_s", "1/s", Higher, 0.25, false,
            "points, queries or requests completed per host second: operations of a rep over the \
             median rep time of the fastest cycle, a rep's time being the sum of its timed public calls"),
        e2e("host_peak_rss_mb", "MB", Lower, 0.25, false,
            "VmHWM of the benchmark process when the timed section ends (set-up included, the \
             oracle check excluded)"),
        e2e("sim_ops_per_s", "1/s", Higher, 0.20, true,
            "operations per simulated second of machine time: sum of batch_ops over sum of \
             OpStats latency, first cycle of reps (serve_mixed: over every executed batch)"),
        e2e("sim_bytes_per_op", "B", Lower, 0.10, true,
            "memory-bus bytes per operation: channel_bytes + cpu_dram_bytes over batch_ops, \
             first cycle of reps"),
        e2e("sim_p50_us", "us", Lower, 0.20, true,
            "median simulated time an operation waits for its answer: reply latency from the due \
             arrival time at r200k (serve_mixed), else the latency of the batch the operation is in"),
        e2e("sim_p99_us", "us", Lower, 0.25, true,
            "same, at the highest percentile up to p99 with ten samples beyond it"),
    ]
}

/// The six batch operations, in the order reps call them.
pub const OPS: [&str; 6] = ["contains", "knn", "box_count", "box_fetch", "insert", "delete"];

/// The serving rates of `serve_mixed`: label and virtual requests per second.
pub const RATES: [(&str, f64); 3] = [("r200k", 200e3), ("r400k", 400e3), ("r800k", 800e3)];

/// The per-layer metrics; a traced run reports all of them, 0 where the
/// workload does not reach the layer.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::*;
    let mut v = Vec::new();
    let mut add = |name: String, unit, better, exact, note| {
        v.push(MetricSpec { name, unit, better, bound: None, exact, note })
    };
    const SETUP: &str = "setup_s, every workload";
    add("workloads.gen_ms".into(), "ms", Lower, false, SETUP);
    add("core.build.host_ms".into(), "ms", Lower, false, SETUP);
    add("shard.build.host_ms".into(), "ms", Lower, false, "setup_s on shard_skew");
    add("zorder.encode_mpts_per_s".into(), "Mpts/s", Higher, false,
        "isolation, this workload's points: host_ops_per_s on batch_query and batch_churn; nothing on serve_mixed");
    add("zorder.sort_mkeys_per_s".into(), "Mkeys/s", Higher, false,
        "isolation, this workload's points: host_ops_per_s on batch_churn (sort) and setup_s (build)");
    add("pimsim.empty_round_us".into(), "us", Lower, false,
        "isolation, 2048 modules, one word each: host_ops_per_s in proportion to pimsim.rounds per rep");
    add(
        "pimsim.task_ns".into(),
        "ns",
        Lower,
        false,
        "isolation, 100 k echo tasks in one round: host_ops_per_s on batch_query and batch_churn",
    );
    add(
        "pimsim.rounds".into(),
        "count",
        Lower,
        true,
        "rounds per rep: sim_ops_per_s (each round pays the mux switch) and host_ops_per_s",
    );
    add(
        "pimsim.host_us_per_round".into(),
        "us",
        Lower,
        false,
        "timed host time over rounds: host_ops_per_s on batch_query and batch_churn",
    );
    const COUNTS: &str =
        "per rep, exact: sim_bytes_per_op and sim_ops_per_s on the workload counted; a host-only change leaves it identical";
    add("pimsim.channel_bytes".into(), "B", Lower, true, COUNTS);
    add("pimsim.pim_cycles".into(), "count", Lower, true, COUNTS);
    add("pimsim.imbalance".into(), "ratio", Lower, true, COUNTS);
    add("memsim.cpu_dram_bytes".into(), "B", Lower, true, COUNTS);
    add("memsim.cpu_cycles".into(), "count", Lower, true, COUNTS);
    for op in OPS {
        const HOST: &str = "median per call: host_ops_per_s on batch_query (reads) and batch_churn (insert, delete, contains); saves at most its share of a rep";
        const SIM: &str = "median per call: sim_ops_per_s and sim_p50_us/sim_p99_us on the workload that calls it";
        const SHARE: &str = "share of the call's simulated time: says which clock term a sim_ops_per_s change came from";
        add(format!("core.{op}.host_ms"), "ms", Lower, false, HOST);
        add(format!("core.{op}.sim_us"), "us", Lower, true, SIM);
        add(format!("core.{op}.sim_cpu_share"), "ratio", Lower, true, SHARE);
        add(format!("core.{op}.sim_pim_share"), "ratio", Higher, true, SHARE);
        add(format!("core.{op}.sim_comm_share"), "ratio", Lower, true, SHARE);
        add(
            format!("core.{op}.bytes_per_op"),
            "B",
            Lower,
            true,
            "median per call: sim_bytes_per_op",
        );
    }
    const IMAGE: &str =
        "in memory, on this workload's tree: host_ops_per_s and host_peak_rss_mb on serve_mixed only (one per write batch); setup_s elsewhere";
    add("core.checkpoint.host_ms".into(), "ms", Lower, false, IMAGE);
    add("core.checkpoint.bytes_per_point".into(), "B", Lower, true, IMAGE);
    add("core.restore.host_ms".into(), "ms", Lower, false, IMAGE);
    add("core.snapshot.host_ms".into(), "ms", Lower, false, IMAGE);
    for (r, _) in RATES {
        const SERVE: &str = "serve_mixed at this rate: sim_p50_us/sim_p99_us (r400k), sim_ops_per_s (batches), host_ops_per_s (host_ms)";
        add(format!("serve.{r}.host_ms"), "ms", Lower, false, SERVE);
        add(format!("serve.{r}.goodput"), "1/s", Higher, true, SERVE);
        add(format!("serve.{r}.p50_us"), "us", Lower, true, SERVE);
        add(format!("serve.{r}.p99_us"), "us", Lower, true, SERVE);
        add(
            format!("serve.{r}.rejected"),
            "count",
            Lower,
            true,
            "failed operations; 0 at every rate",
        );
        add(format!("serve.{r}.batches"), "count", Lower, true, SERVE);
        add(format!("serve.{r}.snapshot_batches"), "count", Lower, true, SERVE);
        add(format!("serve.{r}.backlog_growth"), "ratio", Lower, true,
            "mean requests outstanding in the last quarter of arrivals over the second quarter: serve.max_rate_ok");
    }
    add("serve.max_rate_ok".into(), "1/s", Higher, true,
        "highest rate with p99 <= 2000 us, no rejection and no growing backlog: the capacity figure of serve_mixed");
    add("serve.host_ms_per_batch".into(), "ms", Lower, false,
        "host_ops_per_s on serve_mixed: image capture and snapshot restore are paid per write batch");
    for s in ["queue", "wait", "cpu", "pim", "comm"] {
        add(
            format!("serve.span.{s}_us"),
            "us",
            Lower,
            true,
            "median per request at r400k, from ServeTrace: sim_p99_us (queue and wait dominate)",
        );
    }
    const SHARD: &str =
        "shard_skew: sim_ops_per_s, sim_bytes_per_op, host_ops_per_s; the slowest rank sets the phase time";
    add("shard.knn.host_ms".into(), "ms", Lower, false, SHARD);
    add("shard.insert.host_ms".into(), "ms", Lower, false, SHARD);
    add("shard.delete.host_ms".into(), "ms", Lower, false, SHARD);
    add("shard.knn.sim_us".into(), "us", Lower, true, SHARD);
    add("shard.fanout".into(), "ratio", Lower, true, SHARD);
    add("shard.rank_imbalance".into(), "ratio", Lower, true, SHARD);
    add("shard.rebalance_actions".into(), "count", Lower, true, SHARD);
    const BASE: &str =
        "batch_query inputs, geomean over the read ops: the paper's headline; cost model unvalidated against hardware";
    add("baseline.zd.sim_ops_per_s".into(), "1/s", Higher, true, BASE);
    add("baseline.pkd.sim_ops_per_s".into(), "1/s", Higher, true, BASE);
    add("baseline.speedup_vs_zd".into(), "ratio", Higher, true, BASE);
    add("baseline.speedup_vs_pkd".into(), "ratio", Higher, true, BASE);
    add("baseline.traffic_reduction_vs_zd".into(), "ratio", Higher, true, BASE);
    const DIAG: &str = "diagnostic; moves nothing gated";
    add("obs.unspanned_share".into(), "ratio", Lower, false, DIAG);
    add("trace.overhead_share".into(), "ratio", Lower, false, DIAG);
    add("trace.call_share".into(), "ratio", Higher, false,
        "share of the traced reps' wall time inside the per-call spans; the rest is the benchmark's own bookkeeping");
    add("host.mt_speedup".into(), "ratio", Higher, false, DIAG);
    add("host.mt_threads".into(), "count", Higher, false, DIAG);
    v
}

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<MetricSpec> {
    end_to_end().into_iter().chain(per_layer()).find(|m| m.name == name)
}

/// `BENCHMARK.json` as this file defines it.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    object([
        ("command", Value::Array(command.iter().map(|s| text(s)).collect())),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", number(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| object([("name", text(name)), ("why", text(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                end_to_end()
                    .iter()
                    .map(|m| {
                        object([
                            ("name", text(&m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", number(m.bound.expect("end-to-end metrics are bounded"))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                per_layer()
                    .iter()
                    .map(|m| {
                        object([
                            ("name", text(&m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The metric tables of `README.md`.
pub fn markdown() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | what it is |\n|---|---|---|---|---|\n",
    );
    for m in end_to_end() {
        let bound = m.bound.expect("end-to-end metrics are bounded") * 100.0;
        out.push_str(&format!(
            "| `{}` | {} | {} | {bound:.0} % | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.note
        ));
    }
    out.push_str(
        "\n| per-layer metric | unit | better | clock | should move |\n|---|---|---|---|---|\n",
    );
    for m in per_layer() {
        let clock = if m.exact { "sim" } else { "host" };
        out.push_str(&format!(
            "| `{}` | {} | {} | {clock} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.note
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let e = end_to_end();
        let p = per_layer();
        assert!(
            (1..=16).contains(&e.len()) && (1..=128).contains(&p.len()),
            "{} {}",
            e.len(),
            p.len()
        );
        let mut seen = BTreeSet::new();
        for m in e.iter().chain(&p) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{} is used twice", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for m in &e {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = e.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(e.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        for (name, why) in WORKLOADS {
            assert!(
                valid_name(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(on_disk.len() <= 64 * 1024);
        let on_disk = serde_json::from_str(&on_disk).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, benchmark_json(), "refresh it with `benchmark spec > BENCHMARK.json`");
    }
}
