//! **E-S serving** — online serving latency and throughput-vs-offered-load
//! curves for the `pim-serve` front-end.
//!
//! The binary first *calibrates*: it floods the server with a short probe
//! trace to estimate the saturation throughput of the (tree, policy)
//! combination. It then sweeps offered load at fixed fractions of that
//! capacity (0.25×, 0.5×, 1×, 2×) with seeded open-loop (Poisson) traces
//! and reports, per load point, the achieved goodput and reply-latency
//! percentiles (p50/p99/p999 in virtual time). The 2× point deliberately
//! overloads the server so admission-control rejections and queue growth
//! show up in the curve.
//!
//! Determinism: all timing is virtual (see `pim-serve` docs) — the numbers
//! in the report are byte-reproducible at any host thread count. Latency
//! percentiles land in the perf report as advisory fields (`p50_s`, …)
//! that `perf_diff` prints but never gates; the gated quantities are the
//! usual deterministic throughput/traffic/rounds.
//!
//! Both clocks: next to each table row, **stderr** gets the point's real
//! (host wall-clock) requests per second beside the virtual achieved rate.
//! Stdout and the JSON report carry virtual time only (plus the report's
//! one ungated `wall_s`), so they stay byte-stable across hosts.
//!
//! ```sh
//! cargo run --release -p pim-bench --bin fig_serving -- \
//!     --points 50000 --requests 2000 --mix read_heavy --json serving.json
//! ```
//!
//! Extra flags beyond the shared set: `--requests N` (requests per sweep
//! point), `--budget-us N` (batching latency budget), `--mix NAME`
//! (`read_heavy` | `write_heavy` | `read_only`). The servers run over
//! fault-free restored images and journal through the flags below, so
//! `--fault-rate` and `--trace` exit 2.
//!
//! Two tracing flags turn on causal request tracing for the 1.0x sweep
//! point only (the at-capacity point, where tail structure is most
//! interesting). Tracing is pure observation — the sweep numbers and the
//! stdout table are byte-identical with and without these flags:
//!
//! * `--trace-events PATH` writes a Chrome trace-event JSON file
//!   (Perfetto-loadable; request/lane/module tracks in virtual µs).
//! * `--journal DIR` writes the offline-analysis journal dir consumed by
//!   `tail_report` and `trace_summary` (see ARCHITECTURE.md §9 for the
//!   file layout: `replies.jsonl`, `serving.jsonl`, `spans.jsonl`,
//!   `batches.jsonl`, `rounds.jsonl`).

use pim_bench::perf::PerfEntry;
use pim_bench::{BenchArgs, PerfSink};
use pim_serve::{BatchPolicy, PimServer, ServeConfig, ServeReport};
use pim_sim::{Journal, MachineConfig};
use pim_workloads::{open_loop_trace, uniform, ArrivalTrace, RequestMix};
use pim_zd_tree::{PimZdConfig, PimZdTree};
use std::path::Path;
use std::time::Instant;

/// Offered-load fractions of the calibrated capacity swept by the figure.
/// The flood calibration measures drain rate under maximal batching, which
/// budget-bounded batching cannot sustain, so the sweep reaches down to
/// 0.1x to capture the uncongested left edge of the curve.
const LOAD_RATIOS: [f64; 5] = [0.1, 0.25, 0.5, 1.0, 2.0];

fn mix_by_name(name: &str) -> RequestMix {
    match name {
        "read_heavy" => RequestMix::read_heavy(),
        "write_heavy" => RequestMix::write_heavy(),
        "read_only" => RequestMix::read_only(),
        other => {
            eprintln!("error: unknown --mix {other:?} (read_heavy|write_heavy|read_only)");
            std::process::exit(2);
        }
    }
}

/// A fresh server over an identical tree, restored from the prebuilt image
/// so every sweep point starts from byte-identical state.
fn fresh_server(image: &[u8], cfg: ServeConfig, sink: &PerfSink) -> PimServer<3> {
    let tree = PimZdTree::<3>::restore_bytes(image).expect("self-produced image restores");
    let mut server = PimServer::new(tree, cfg);
    server.set_metrics(sink.metrics());
    server
}

fn write_or_die(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("fig_serving: error: {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// One sweep point as a perf-report entry plus a human table row.
fn record(label: &str, rep: &ServeReport, trace: &ArrivalTrace<3>) -> (PerfEntry, String) {
    let mut lat = rep.latency_us(None);
    let (p50, p99, p999) = if lat.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (lat.quantile(0.50), lat.quantile(0.99), lat.quantile(0.999))
    };
    let completed = rep.completed() as u64;
    let entry = PerfEntry {
        index: "PIM-zd-tree".to_string(),
        op: "serve".to_string(),
        throughput: rep.achieved_rate(),
        traffic: rep.totals.channel_bytes as f64 / completed.max(1) as f64,
        cpu_s: rep.totals.cpu_s,
        pim_s: rep.totals.pim_s,
        comm_s: rep.totals.comm_s,
        total_s: rep.makespan_us as f64 / 1e6,
        rounds: rep.totals.rounds,
        elements: completed,
        p50_s: Some(p50 / 1e6),
        p99_s: Some(p99 / 1e6),
        p999_s: Some(p999 / 1e6),
        offered: Some(trace.offered_rate()),
        ..PerfEntry::default()
    };
    let row = format!(
        "{label:>9}  {:>9.0}  {:>9.0}  {:>8.0}  {:>8.0}  {:>8.0}  {:>6}  {:>7}  {:>8}",
        trace.offered_rate(),
        rep.achieved_rate(),
        p50,
        p99,
        p999,
        rep.rejected,
        rep.batches,
        rep.snapshot_batches,
    );
    (entry, row)
}

fn main() {
    let args = BenchArgs::parse();
    args.refuse(&["--fault-rate", "--trace"]);
    let requests: usize = args.extra("--requests").unwrap_or(2_000);
    let budget_us: u64 = args.extra("--budget-us").unwrap_or(1_000);
    let mix_name: String = args.extra("--mix").unwrap_or_else(|| "read_heavy".to_string());
    let mix = mix_by_name(&mix_name);
    let trace_events_path: Option<String> = args.extra("--trace-events");
    let journal_dir: Option<String> = args.extra("--journal");
    let trace_point = trace_events_path.is_some() || journal_dir.is_some();
    let mut sink = PerfSink::new("fig_serving", &args);

    println!(
        "== E-S serving: latency vs offered load ({} pts, {} modules, {} reqs/point, \
         mix {mix_name}, budget {budget_us} us) ==\n",
        args.points, args.modules, requests
    );

    let data = uniform::<3>(args.points, args.seed);
    let tree = PimZdTree::build(
        &data,
        PimZdConfig::throughput_optimized(args.points as u64, args.modules),
        MachineConfig::with_modules(args.modules),
    );
    let image = tree.checkpoint_bytes();
    drop(tree);

    let cfg = ServeConfig {
        policy: BatchPolicy { budget_us, ..BatchPolicy::default() },
        // Sized so the 2x overload point visibly rejects: deep enough to
        // absorb bursts at <=1x, shallow enough to fill under sustained
        // overload.
        queue_cap: (requests / 8).max(64),
    };

    // Calibrate: flood with a short probe trace (everything arrives almost
    // at once) and take the drain rate as the capacity estimate.
    let probe_n = requests.min(512);
    let probe = open_loop_trace(&data, probe_n, 1e9, &mix, args.seed ^ 0xCA11);
    let mut server = fresh_server(&image, ServeConfig { queue_cap: usize::MAX, ..cfg }, &sink);
    let capacity = server.run_trace(&probe).achieved_rate();
    println!("calibration: {probe_n} flooded requests drain at {capacity:.0} req/s (virtual)\n");

    println!(
        "{:>9}  {:>9}  {:>9}  {:>8}  {:>8}  {:>8}  {:>6}  {:>7}  {:>8}",
        "load", "offered", "achieved", "p50us", "p99us", "p999us", "reject", "batches", "snapshot"
    );
    for ratio in LOAD_RATIOS {
        let rate = (capacity * ratio).max(1.0);
        let trace = open_loop_trace(&data, requests, rate, &mix, args.seed);
        let mut server = fresh_server(&image, cfg, &sink);
        // Trace the at-capacity point. Tracing only keeps the span view
        // derived from the run's replies and batch journal after the run,
        // so the sweep numbers (and the stdout table) are byte-identical
        // with and without the flags.
        let traced = trace_point && ratio == 1.0;
        let journal = traced.then(Journal::new);
        server.set_journal(journal.clone());
        server.set_tracing(traced);
        let started = Instant::now();
        let rep = server.run_trace(&trace);
        let wall_s = started.elapsed().as_secs_f64();
        let label = format!("load-{ratio}x");
        let (entry, row) = record(&label, &rep, &trace);
        println!("{row}");
        eprintln!(
            "{label:>10}  real {:>9.0} req/s ({} completed in {:.1} ms)  |  virtual {:>9.0} req/s",
            rep.completed() as f64 / wall_s,
            rep.completed(),
            wall_s * 1e3,
            rep.achieved_rate(),
        );
        sink.push(&label, &entry);
        if let Some(journal) = journal {
            let st = server.take_trace().expect("tracing was enabled for this point");
            let rounds = journal.snapshot();
            if let Some(dir) = &journal_dir {
                let dir = Path::new(dir);
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("fig_serving: error: {}: {e}", dir.display());
                    std::process::exit(1);
                }
                write_or_die(&dir.join("replies.jsonl"), &rep.results_jsonl());
                write_or_die(&dir.join("serving.jsonl"), &rep.journal_jsonl());
                write_or_die(&dir.join("spans.jsonl"), &st.spans_jsonl());
                write_or_die(&dir.join("batches.jsonl"), &st.batches_jsonl());
                write_or_die(&dir.join("rounds.jsonl"), &journal.to_jsonl());
            }
            if let Some(path) = &trace_events_path {
                write_or_die(Path::new(path), &st.trace_events(&rounds));
            }
        }
    }

    println!("\nLatency is virtual time: identical inputs give identical percentiles.");
    sink.finish();
}
