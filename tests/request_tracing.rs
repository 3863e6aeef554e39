//! Cross-layer linkage and determinism of causal request tracing.
//!
//! The serving tracer's contract (`pim-serve::trace`, ARCHITECTURE.md §9):
//!
//! 1. **Linkage** — every non-rejected reply resolves to exactly one batch
//!    journal entry, and every batch to at least one simulator round; live
//!    batches' round-id ranges resolve into the round journal.
//! 2. **Exactness** — for 100% of completed requests the five phase spans
//!    (queue/wait/cpu/pim/comm) sum to the reply latency, exactly.
//! 3. **Determinism** — span stream, batch stream, round journal, and the
//!    trace-event export are byte-identical at 1, 2, and 8 threads.
//! 4. **One recording path** — the span record is derived from the
//!    replies and the batch journal, so tracing on vs off changes no reply
//!    and no journal byte; the six rendered artifacts are pinned by digest,
//!    and the span file reads back into the records that wrote it.
//!
//! The trace-event export is additionally run through the same shape
//! validator CI applies to generated files (`pim_bench::trace_events`).

mod common;

use common::{fixed_trace, server};
use pim_bench::trace_events::validate_trace_events;
use pim_zd_tree_repro::serve::{
    fnv_fold, trace::parse_spans_jsonl, ServeReport, ServeTrace, FNV_OFFSET,
};
use pim_zd_tree_repro::sim::{Journal, Metrics, RoundRecord};

/// Small enough that the fixed trace still overflows it now that a kNN
/// batch takes two rounds (96 no longer rejects anything).
const QUEUE_CAP: usize = 80;

/// One traced serving run: the report, the span/batch record, the
/// simulator round journal, and the JSON metrics snapshot (with exemplars).
fn traced_run(tracing: bool) -> (ServeReport, Option<ServeTrace>, Vec<RoundRecord>, String) {
    let (mut server, data) = server(QUEUE_CAP);
    let journal = Journal::new();
    server.set_journal(Some(journal.clone()));
    let metrics = Metrics::enabled_new();
    server.set_metrics(metrics.clone());
    server.set_tracing(tracing);
    let report = server.run_trace(&fixed_trace(&data));
    (report, server.take_trace(), journal.snapshot(), metrics.snapshot_json().unwrap())
}

#[test]
fn every_completed_reply_links_to_one_batch_and_its_rounds() {
    let (report, trace, rounds, _) = traced_run(true);
    let trace = trace.expect("tracing was on");
    assert_eq!(trace.requests.len(), report.replies.len(), "one span record per request");
    assert!(report.rejected > 0, "the fixed trace must exercise rejections");
    assert!(trace.batches.iter().any(|b| b.snapshot), "and pipelined snapshot reads");

    for (reply, rt) in report.replies.iter().zip(&trace.requests) {
        assert_eq!(rt.id.0, reply.id, "span records are in reply order");
        assert_eq!(rt.batch, reply.batch, "a reply names the batch its spans come from");
        assert_eq!(rt.op, reply.op);
        assert_eq!(rt.rejected, reply.rejected);
        assert_eq!(rt.arrival_us, reply.arrival_us);
        if reply.rejected {
            assert_eq!(rt.batch, None);
            assert_eq!(rt.span_sum_us(), 0);
            continue;
        }
        // Exactness: the five spans sum to the reply latency for 100% of
        // completed requests — not approximately, not 99% of them.
        assert_eq!(
            rt.span_sum_us(),
            reply.latency_us(),
            "spans of request {} must sum to its latency",
            reply.id
        );
        assert_eq!(rt.dispatch_us, reply.dispatch_us);
        assert_eq!(rt.complete_us, reply.complete_us);

        // Linkage: exactly one batch journal entry owns the request.
        let seq = rt.batch.expect("completed request has a batch");
        let batch = trace.batch(seq).expect("the batch is journaled");
        assert_eq!(batch.epoch, reply.epoch, "reply epoch comes from the batch");
        assert!(batch.sealed_us >= rt.arrival_us && batch.dispatch_us == rt.dispatch_us);
        assert_eq!(trace.batches.iter().filter(|b| b.seq == seq).count(), 1);
    }

    // Every batch produced at least one simulator round, and live batches'
    // round ranges resolve into the round journal (snapshot batches run on
    // a private machine whose rounds are deliberately not journaled).
    for b in &trace.batches {
        assert!(b.round_hi > b.round_lo, "batch {} produced no rounds", b.seq);
        assert_eq!(b.service_us, b.complete_us - b.dispatch_us);
        assert_eq!(b.cpu_us + b.pim_us + b.comm_us, b.service_us, "batch-level exactness");
        if b.snapshot {
            assert!(!b.owns_round(b.round_lo), "snapshot ranges never resolve as live");
        } else {
            for round in b.round_lo..b.round_hi {
                assert!(b.owns_round(round));
                assert!(
                    rounds.iter().any(|r| r.round == round),
                    "live round {round} of batch {} missing from the journal",
                    b.seq
                );
            }
        }
    }
    // Live ranges tile without overlap: no round is owned by two batches.
    for r in &rounds {
        assert!(
            trace.batches.iter().filter(|b| b.owns_round(r.round)).count() <= 1,
            "round {} owned by more than one batch",
            r.round
        );
    }
}

#[test]
fn trace_artifacts_are_byte_identical_at_1_2_and_8_threads() {
    let run = || {
        let (report, trace, rounds, _) = traced_run(true);
        let trace = trace.unwrap();
        (
            trace.spans_jsonl(),
            trace.batches_jsonl(),
            trace.trace_events(&rounds),
            report.results_jsonl(),
        )
    };
    let baseline = rayon::ThreadPool::new(1).install(run);
    assert!(!baseline.0.is_empty() && !baseline.2.is_empty());
    for threads in [2usize, 8] {
        let got = rayon::ThreadPool::new(threads).install(run);
        assert_eq!(got.0, baseline.0, "span stream diverged at {threads} threads");
        assert_eq!(got.1, baseline.1, "batch stream diverged at {threads} threads");
        assert_eq!(got.2, baseline.2, "trace-event export diverged at {threads} threads");
        assert_eq!(got.3, baseline.3, "replies diverged at {threads} threads");
    }
}

#[test]
fn tracing_is_pure_observation() {
    let (with, _, rounds_with, _) = traced_run(true);
    let (without, no_trace, rounds_without, _) = traced_run(false);
    assert!(no_trace.is_none(), "take_trace yields nothing when tracing is off");
    assert_eq!(with.results_jsonl(), without.results_jsonl());
    assert_eq!(with.journal_jsonl(), without.journal_jsonl());
    assert_eq!(rounds_with.len(), rounds_without.len(), "tracing adds no simulator rounds");
}

#[test]
fn trace_event_export_passes_the_ci_shape_gate() {
    let (_, trace, rounds, _) = traced_run(true);
    let text = trace.unwrap().trace_events(&rounds);
    let doc = serde_json::from_str(&text).expect("export is well-formed JSON");
    let stats = validate_trace_events(&doc).expect("export passes the shape validator");
    assert!(stats.complete > 0, "request phase spans present");
    assert!(stats.spans > 0, "lane B/E spans present");
    assert!(stats.tracks >= 3, "request + both lane tracks at minimum");
}

/// FNV-1a over a rendered artifact's bytes.
fn digest(text: &str) -> u64 {
    text.bytes().fold(FNV_OFFSET, |fp, b| fnv_fold(fp, b as u64))
}

/// Pins every byte the traced run renders. The fixed trace has rejections,
/// snapshot reads and both seal reasons, so each rendering's branches are
/// covered; a refactor of how replies, batches and spans are recorded must
/// leave all six digests standing.
#[test]
fn traced_run_artifacts_are_pinned() {
    let (report, trace, rounds, metrics_json) = traced_run(true);
    let trace = trace.unwrap();
    let journal = report.journal_jsonl();
    assert!(journal.contains("\"seal\":\"budget\"") && journal.contains("\"seal\":\"size\""));
    assert!(report.rejected > 0 && report.snapshot_batches > 0);
    assert!(metrics_json.contains("exemplars"), "the JSON snapshot carries exemplars");
    let got = [
        digest(&report.results_jsonl()),
        digest(&journal),
        digest(&trace.spans_jsonl()),
        digest(&trace.batches_jsonl()),
        digest(&trace.trace_events(&rounds)),
        digest(&metrics_json),
    ];
    // All six moved when box and ball walks began to enter L0 at their
    // split node and a best-k reply began to be taken whole into an empty
    // list at a merge's price per entry: the box and kNN
    // batches' service times fell, so arrivals grouped into other batches
    // at other virtual times (every reply still matches its epoch's
    // oracle), and the registry gained `host_range_nodes_total`. All six
    // moved when masters began to go to the least-loaded of four
    // hashed modules: every batch's service time moved, and with it the
    // arrival-to-batch grouping, the virtual timestamps and the replies'
    // epochs (every reply still matches its epoch's oracle). Before that,
    // the metrics digest moved when insert and delete began to take
    // SEARCH's order instead of sorting their items again (the host's
    // update cycles fell), and when SEARCH began to walk its batch in key
    // order (the host's search cycles, and the registry gained
    // `host_search_nodes_total`); the other five held both times.
    let pinned = [
        0x6698_3fb0_48ef_1271,
        0xf1be_2cad_e750_9e20,
        0x78ca_df7e_8b2e_de59,
        0xbf67_64e3_cb38_f5db,
        0x7ee2_8394_b936_7448,
        0x7012_9374_e4e9_86eb,
    ];
    assert_eq!(got, pinned, "results, journal, spans, batches, trace events, metrics");
}

#[test]
fn spans_jsonl_reads_back_into_the_records_that_wrote_it() {
    let (_, trace, _, _) = traced_run(true);
    let trace = trace.unwrap();
    let back = parse_spans_jsonl(&trace.spans_jsonl()).expect("the writer's output parses");
    assert_eq!(back, trace.requests);
}
