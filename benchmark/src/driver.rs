//! One run of one workload: set-up, the timed section, the oracle check,
//! and the metrics that come out of them.
//!
//! An untraced run measures the end-to-end metrics with every observability
//! switch of the program off. A traced run spends the first third of its
//! time the same way and the rest with the program's host spans, metrics
//! registry and request tracing on and the benchmark's own recorder keeping
//! a span per call; it reports the per-layer metrics, and the difference
//! between its two parts is the tracing overhead.

use crate::json::{self, number, object, text};
use crate::layers;
use crate::recorder::{self, Recorder, Span};
use crate::spec;
use crate::stats::{median, quartiles, tail, weighted_quantile, Tail};
use crate::workloads::{Digest, Layer, Rep, Scale, Workload};
use serde_json::Value;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What the driver is asked to run.
#[derive(Clone, Debug)]
pub struct Args {
    pub seed: u64,
    /// Seconds the timed section lasts; it always completes the cycle of
    /// reps it is in, and at least one.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One timed rep with how it was run.
struct TimedRep {
    rep: Rep,
    /// Whether the program's observability was on.
    observed: bool,
}

/// Everything one run produced.
pub struct Outcome {
    pub workload: &'static str,
    pub args: Args,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// FNV over every result and every `OpStats` of the first cycle.
    pub digest: u64,
    /// Host milliseconds of every timed rep.
    pub rep_ms_all: Vec<f64>,
    pub setups_s: Vec<f64>,
    /// The tail percentile behind `sim_p99_us` and its sample count.
    pub tail: Tail,
    /// `(name, value)` in the order of the spec: the end-to-end metrics of
    /// an untraced run, the per-layer metrics of a traced one.
    pub metrics: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

/// Runs whole cycles of reps until `until` seconds after `start`, each cycle
/// on a fresh index, so every cycle is the same work whatever came before
/// it. Returns the index the last cycle ran on.
fn run_cycles<W: Workload>(
    w: &mut W,
    rec: &mut Recorder,
    observed: bool,
    start: Instant,
    until: f64,
    out: &mut Vec<TimedRep>,
) -> W::State {
    let mut last = None;
    loop {
        drop(last.take()); // one index's memory at a time
        let (mut state, _) = rec.span("fresh", |_| w.fresh());
        w.observe(&mut state, observed);
        for i in 0..w.cycle() {
            rec.rep = out.len() as u32 + 1;
            let (rep, _) = rec.span("rep", |r| w.rep(&mut state, i, r));
            out.push(TimedRep { rep, observed });
        }
        rec.rep = 0;
        last = Some(state);
        if start.elapsed().as_secs_f64() >= until {
            return last.expect("the cycle just run left its index");
        }
    }
}

pub fn run<W: Workload>(args: &Args) -> Outcome {
    let mut rec = Recorder::new(args.trace);

    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take()); // one set-up's memory at a time
        let (w, ns) = rec.span("setup", |r| W::setup(args.seed, args.scale, r));
        setups_s.push(ns as f64 / 1e9);
        workload = Some(w);
    }
    let mut w = workload.expect("SETUPS is at least one");

    let mut timed = Vec::new();
    let start = Instant::now();
    let mut state = if args.trace {
        drop(run_cycles(&mut w, &mut rec, false, start, args.seconds / 3.0, &mut timed));
        pim_obs::reset();
        pim_obs::enable();
        let state = run_cycles(&mut w, &mut rec, true, start, args.seconds, &mut timed);
        pim_obs::disable();
        state
    } else {
        run_cycles(&mut w, &mut rec, false, start, args.seconds, &mut timed)
    };
    let peak_rss = peak_rss_mb();

    let cycle = w.cycle();
    let first_cycle: Vec<Rep> = timed[..cycle].iter().map(|t| t.rep.clone()).collect();
    let mut digest = Digest::default();
    first_cycle.iter().for_each(|rep| digest.u64(rep.digest()));

    // Correctness: rep 0 in full against the oracle, and every later rep
    // (results and simulated measurements) against the rep of the first
    // cycle that ran the same inputs from the same state.
    let verdict = w.verify(&mut state);
    let ops = w.ops_per_rep();
    let repeats_differ = timed
        .iter()
        .enumerate()
        .filter(|(n, t)| t.rep.digest() != first_cycle[n % cycle].digest())
        .count() as u64;
    let unchecked_rep0 = u64::from(verdict.results != first_cycle[0].results);
    let refused: u64 = timed.iter().map(|t| t.rep.refused).sum();
    let failed = refused + verdict.mismatches + (repeats_differ + unchecked_rep0) * ops;
    let attempted = timed.len() as u64 * ops + verdict.checked;

    let rep_ms: Vec<f64> = timed.iter().map(|t| t.rep.host_ns() as f64 / 1e6).collect();
    // Interference from a neighbour on the machine only ever slows a rep, and
    // comes in bursts that can outlast a rep. Every cycle is the same work,
    // so the rate is read off the fastest one: the median rep of the cycle
    // with the least timed host time.
    let fastest_cycle = rep_ms
        .chunks(cycle)
        .min_by(|a, b| a.iter().sum::<f64>().total_cmp(&b.iter().sum()))
        .expect("at least one cycle was timed");
    let samples = w.latency_samples(&state, &first_cycle);
    let tail99 = tail(&samples, 0.99);
    let metrics = if args.trace {
        let mut layer = per_layer_common(&rec, &timed, &first_cycle);
        layer.insert("obs.unspanned_share".into(), layers::unspanned_share());
        layer.extend(layers::pimsim());
        for (name, value) in w.layer(&mut state, &first_cycle) {
            assert!(
                spec::find(&name).is_some(),
                "{} reports {name}, which the spec does not define",
                W::NAME
            );
            layer.insert(name, value);
        }
        // `per_op` names every figure of every call; the spec keeps the ones
        // defined for this layer (`shard.knn.sim_us` but no `shard.knn.*_share`).
        layer.extend(per_op(W::LAYER, &timed, &first_cycle));
        spec::per_layer()
            .into_iter()
            .map(|m| (m.name.clone(), layer.get(&m.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let calls = || first_cycle.iter().flat_map(|r| &r.calls);
        let sim_ops: u64 = calls().map(|c| c.sim.batch_ops).sum();
        let sim_s: f64 = calls().map(|c| c.sim.latency_s()).sum();
        let sim_bytes: u64 = calls().map(|c| c.sim.channel_bytes + c.sim.cpu_dram_bytes).sum();
        let value = |name: &str| match name {
            "setup_s" => median(&setups_s),
            "host_ops_per_s" => ops as f64 / (median(fastest_cycle) / 1e3),
            "host_peak_rss_mb" => peak_rss,
            "sim_ops_per_s" => sim_ops as f64 / sim_s,
            "sim_bytes_per_op" => sim_bytes as f64 / sim_ops as f64,
            "sim_p50_us" => weighted_quantile(&samples, 0.5),
            "sim_p99_us" => tail99.value,
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        spec::end_to_end().into_iter().map(|m| (m.name.clone(), value(&m.name))).collect()
    };

    Outcome {
        workload: W::NAME,
        args: args.clone(),
        correct: failed == 0,
        attempted,
        failed,
        digest: digest.0,
        rep_ms_all: rep_ms,
        setups_s,
        tail: tail99,
        metrics,
        spans: rec.spans().to_vec(),
    }
}

/// Per-call metrics `<prefix>.<op>.*`: host time over the observed reps,
/// simulated figures over the first cycle, each a median per call.
fn per_op(prefix: &str, timed: &[TimedRep], first_cycle: &[Rep]) -> Layer {
    let mut m = Layer::new();
    let mut ops: Vec<&str> = first_cycle.iter().flat_map(|r| &r.calls).map(|c| c.op).collect();
    ops.sort_unstable();
    ops.dedup();
    for op in ops {
        let observed =
            timed.iter().filter(|t| t.observed).flat_map(|t| &t.rep.calls).filter(|c| c.op == op);
        let host_ms: Vec<f64> = observed.map(|c| c.host_ns as f64 / 1e6).collect();
        let sims: Vec<_> = first_cycle
            .iter()
            .flat_map(|r| &r.calls)
            .filter(|c| c.op == op)
            .map(|c| &c.sim)
            .collect();
        let med = |f: &dyn Fn(&pim_zd_tree::OpStats) -> f64| {
            median(&sims.iter().map(|s| f(s)).collect::<Vec<_>>())
        };
        m.insert(format!("{prefix}.{op}.host_ms"), median(&host_ms));
        m.insert(format!("{prefix}.{op}.sim_us"), med(&|s| s.latency_s() * 1e6));
        m.insert(
            format!("{prefix}.{op}.sim_cpu_share"),
            med(&|s| s.breakdown.cpu_s / s.latency_s()),
        );
        m.insert(
            format!("{prefix}.{op}.sim_pim_share"),
            med(&|s| s.breakdown.pim_s / s.latency_s()),
        );
        m.insert(
            format!("{prefix}.{op}.sim_comm_share"),
            med(&|s| s.breakdown.comm_s / s.latency_s()),
        );
        m.insert(
            format!("{prefix}.{op}.bytes_per_op"),
            med(&|s| (s.channel_bytes + s.cpu_dram_bytes) as f64 / s.batch_ops.max(1) as f64),
        );
    }
    m
}

/// Per-layer metrics every workload has: set-up phases, simulator counts
/// per rep, and what tracing itself cost.
fn per_layer_common(rec: &Recorder, timed: &[TimedRep], first_cycle: &[Rep]) -> Layer {
    let mut m = Layer::new();
    let phase = |name: &str| {
        let ms = rec.durations_ms(name);
        if ms.is_empty() {
            0.0
        } else {
            median(&ms)
        }
    };
    m.insert("workloads.gen_ms".into(), phase("gen") + phase("batches"));
    m.insert("core.build.host_ms".into(), phase("build"));
    m.insert("shard.build.host_ms".into(), phase("shard_build"));

    let per_rep = |f: &dyn Fn(&pim_zd_tree::OpStats) -> f64| {
        median(
            &first_cycle
                .iter()
                .map(|r| r.calls.iter().map(|c| f(&c.sim)).sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    let rounds = per_rep(&|s| s.rounds as f64);
    m.insert("pimsim.rounds".into(), rounds);
    m.insert("pimsim.channel_bytes".into(), per_rep(&|s| s.channel_bytes as f64));
    m.insert("pimsim.pim_cycles".into(), per_rep(&|s| s.pim_cycles as f64));
    m.insert("memsim.cpu_dram_bytes".into(), per_rep(&|s| s.cpu_dram_bytes as f64));
    m.insert("memsim.cpu_cycles".into(), per_rep(&|s| s.cpu_cycles as f64));
    let imbalance: Vec<f64> =
        first_cycle.iter().flat_map(|r| &r.calls).map(|c| c.sim.worst_imbalance).collect();
    m.insert("pimsim.imbalance".into(), median(&imbalance));

    let host_ms = |observed: bool| {
        median(
            &timed
                .iter()
                .filter(|t| t.observed == observed)
                .map(|t| t.rep.host_ns() as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    m.insert("pimsim.host_us_per_round".into(), host_ms(true) * 1e3 / rounds.max(1.0));
    m.insert("trace.overhead_share".into(), host_ms(true) / host_ms(false) - 1.0);
    // Share of the reps' wall time inside the spans around calls into a
    // layer; a rep's self time is the benchmark's own bookkeeping.
    let spans = rec.spans();
    let reps = || spans.iter().zip(recorder::self_times_ns(spans)).filter(|(s, _)| s.name == "rep");
    let (own, wall) = reps().fold((0u64, 0u64), |(o, w), (s, own)| (o + own, w + s.duration_ns()));
    m.insert("trace.call_share".into(), 1.0 - own as f64 / wall.max(1) as f64);
    m
}

impl Outcome {
    fn unit_of(name: &str) -> &'static str {
        spec::find(name).map_or("", |m| m.unit)
    }

    /// The line the pipeline reads: `correct`, `attempted`, `failed` and
    /// the metrics of this kind of run.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, v)| {
            (name.clone(), object([("value", number(*v)), ("unit", text(Self::unit_of(name)))]))
        });
        json::compact(&object([
            ("correct", Value::Bool(self.correct)),
            ("attempted", number(self.attempted as f64)),
            ("failed", number(self.failed as f64)),
            ("metrics", object(metrics)),
        ]))
    }

    /// Every metric by name with its unit, for a reader.
    pub fn print(&self) {
        let a = &self.args;
        let rep_ms = quartiles(&self.rep_ms_all);
        println!(
            "{} seed {} {} run, {:.1} s asked, scale {:?}: {} reps, rep {:.2} ms (quartiles {:.2} .. {:.2}), digest {:016x}",
            self.workload,
            a.seed,
            if a.trace { "traced" } else { "untraced" },
            a.seconds,
            a.scale,
            self.rep_ms_all.len(),
            rep_ms.median,
            rep_ms.q1,
            rep_ms.q3,
            self.digest
        );
        println!(
            "  set-ups {:?} s; tail percentile p{} of {} samples; attempted {} failed {}",
            self.setups_s,
            self.tail.percentile * 100.0,
            self.tail.samples,
            self.attempted,
            self.failed
        );
        for (name, v) in &self.metrics {
            println!("  {name:<34} {v:>18.4} {}", Self::unit_of(name));
        }
    }

    /// The run as a JSON document: what `run` merges and `compare` reads.
    pub fn to_json(&self) -> Value {
        let metrics = self.metrics.iter().map(|(name, v)| (name.clone(), number(*v)));
        object([
            ("workload", text(self.workload)),
            ("seed", number(self.args.seed as f64)),
            ("seconds", number(self.args.seconds)),
            ("trace", Value::Bool(self.args.trace)),
            ("quick", Value::Bool(self.args.scale == Scale::Quick)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", number(self.attempted as f64)),
            ("failed", number(self.failed as f64)),
            ("digest", text(&format!("{:016x}", self.digest))),
            ("reps", number(self.rep_ms_all.len() as f64)),
            ("rep_ms_all", Value::Array(self.rep_ms_all.iter().map(|s| number(*s)).collect())),
            ("setups_s", Value::Array(self.setups_s.iter().map(|s| number(*s)).collect())),
            ("tail_percentile", number(self.tail.percentile)),
            ("tail_samples", number(self.tail.samples as f64)),
            ("metrics", object(metrics)),
        ])
    }

    /// Writes the run's JSON, and the spans of a traced run as a Chrome
    /// trace, under `out/` in the benchmark's directory.
    pub fn write_files(&self) -> std::io::Result<()> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let kind = if self.args.trace { "traced" } else { "untraced" };
        std::fs::write(
            dir.join(format!("{}-{kind}.json", self.workload)),
            json::pretty(&self.to_json()),
        )?;
        if self.args.trace {
            let trace = recorder::chrome_trace(&self.spans, self.workload);
            std::fs::write(dir.join(format!("{}-trace.json", self.workload)), trace)?;
        }
        Ok(())
    }
}

/// `out/` beside the benchmark's sources: the only place it writes.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{
        batch_churn::BatchChurn, batch_query::BatchQuery, serve_mixed::ServeMixed,
        shard_skew::ShardSkew,
    };

    /// Quick-scale run of one cycle on a pool of `threads` workers.
    fn quick<W: Workload>(threads: usize, trace: bool) -> Outcome {
        let args = Args { seed: 11, seconds: 0.0, trace, scale: Scale::Quick };
        rayon::ThreadPool::new(threads).install(|| run::<W>(&args))
    }

    fn same_at_one_and_two_threads<W: Workload>() {
        let one = quick::<W>(1, false);
        let two = quick::<W>(2, false);
        assert!(
            one.correct && two.correct,
            "{}: {} and {} failures",
            W::NAME,
            one.failed,
            two.failed
        );
        assert_eq!(
            one.digest,
            two.digest,
            "{}: result_digest differs between 1 and 2 threads",
            W::NAME
        );
        for ((name, a), (_, b)) in one.metrics.iter().zip(&two.metrics) {
            if spec::find(name).expect("known metric").exact {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}: {name} differs between 1 and 2 threads",
                    W::NAME
                );
            }
        }
        for (name, v) in &one.metrics {
            assert!(*v > 0.0 && v.is_finite(), "{}: end-to-end metric {name} = {v}", W::NAME);
        }
    }

    #[test]
    fn batch_query_is_thread_count_invariant() {
        same_at_one_and_two_threads::<BatchQuery>();
    }

    #[test]
    fn batch_churn_is_thread_count_invariant() {
        same_at_one_and_two_threads::<BatchChurn>();
    }

    #[test]
    fn serve_mixed_is_thread_count_invariant() {
        same_at_one_and_two_threads::<ServeMixed>();
    }

    #[test]
    fn shard_skew_is_thread_count_invariant() {
        same_at_one_and_two_threads::<ShardSkew>();
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric_and_accounts_for_the_reps() {
        let traced = quick::<BatchQuery>(1, true);
        assert!(traced.correct);
        let names: Vec<String> = spec::per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(traced.metrics.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(), names);
        let get = |name: &str| traced.metrics.iter().find(|(n, _)| n == name).unwrap().1;
        assert!(
            get("trace.call_share") >= 0.9,
            "calls cover {} of the reps",
            get("trace.call_share")
        );
        for name in [
            "core.knn.host_ms",
            "core.knn.sim_us",
            "zorder.encode_mpts_per_s",
            "pimsim.empty_round_us",
            "core.restore.host_ms",
            "baseline.speedup_vs_zd",
            "workloads.gen_ms",
            "core.build.host_ms",
            "host.mt_speedup",
        ] {
            assert!(get(name) > 0.0, "{name} is not measured");
        }
        assert_eq!(get("core.insert.host_ms"), 0.0, "batch_query never inserts");
        assert_eq!(get("serve.r400k.p99_us"), 0.0, "batch_query never serves");
        // Simulated figures do not depend on tracing.
        assert_eq!(traced.digest, quick::<BatchQuery>(1, false).digest);
        // The recorder saw the set-ups and a root span per rep.
        assert_eq!(traced.spans.iter().filter(|s| s.name == "setup").count(), SETUPS);
        assert_eq!(
            traced.spans.iter().filter(|s| s.name == "rep").count(),
            traced.rep_ms_all.len()
        );
    }
}
