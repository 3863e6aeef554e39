//! The text formats read back exactly what they wrote: the committed
//! artifacts, read through their typed readers, re-render byte for byte —
//! every line of the serving baseline's round journal and spans file, and
//! each committed perf report, its metrics snapshot included.

use pim_bench::perf::validate_schema;
use pim_zd_tree_repro::serve::trace::parse_spans_jsonl;
use pim_zd_tree_repro::sim::json::write_jsonl;
use pim_zd_tree_repro::sim::trace::parse_jsonl;

fn committed(path: &str) -> String {
    let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn serving_baseline_journal_and_spans_re_render_byte_for_byte() {
    let rounds = committed("results/serving_baseline/rounds.jsonl");
    assert_eq!(write_jsonl(parse_jsonl(&rounds).expect("the journal reads")), rounds);
    let spans = committed("results/serving_baseline/spans.jsonl");
    let rows = parse_spans_jsonl(&spans).expect("the spans read");
    assert!(rows.iter().any(|r| r.rejected) && rows.iter().any(|r| !r.rejected));
    assert_eq!(write_jsonl(&rows), spans);
}

#[test]
fn committed_perf_reports_re_render_their_config_and_results() {
    for name in ["BENCH_fig5.json", "BENCH_fig_serving.json", "BENCH_fig_shard.json"] {
        let text = committed(name);
        let report = validate_schema(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(write_jsonl([report]) == text, "{name}: the report re-renders differently");
    }
}
