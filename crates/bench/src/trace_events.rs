//! Shape validation of Chrome trace-event JSON exports.
//!
//! The serving tracer's Perfetto export (`fig_serving --trace-events`) has
//! a deterministic, machine-checkable shape; `fig_serving` checks every
//! export against it before writing one and exits 1 on a failure. It checks structure,
//! not values: well-formed JSON with a `traceEvents` array, known phase
//! kinds, required fields per kind, `ts` monotone non-decreasing within
//! every `(pid, tid)` track, and `B`/`E` duration pairs that balance like
//! a stack per track with matching names. Anything Perfetto would render
//! misleadingly — an unclosed `B`, time running backwards on a track — is
//! an error here.

use serde_json::Value;
use std::collections::BTreeMap;

/// Counters of a successfully validated export.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceEventStats {
    /// Total events, metadata included.
    pub events: usize,
    /// Distinct `(pid, tid)` tracks with at least one timed event.
    pub tracks: usize,
    /// `B`/`E` duration pairs.
    pub spans: usize,
    /// Complete (`X`) events.
    pub complete: usize,
}

fn field_u64(ev: &Value, key: &str, i: usize) -> Result<u64, String> {
    pim_sim::json::read(ev, key).map_err(|e| format!("event {i}: {e}"))
}

/// Validates one parsed trace-event document. Returns summary counters, or
/// the first structural error found.
pub fn validate_trace_events(doc: &Value) -> Result<TraceEventStats, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("top level must be an object with a \"traceEvents\" array")?;
    let mut stats = TraceEventStats { events: events.len(), ..Default::default() };
    // Per-track state: last timestamp and the open B-span name stack.
    let mut last_ts: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut open: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"name\""))?;
        let pid = field_u64(ev, "pid", i)?;
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let tid = field_u64(ev, "tid", i)?;
        let ts = field_u64(ev, "ts", i)?;
        let track = (pid, tid);
        if let Some(&prev) = last_ts.get(&track) {
            if ts < prev {
                return Err(format!(
                    "event {i} ({name:?}): ts {ts} < {prev} — time runs backwards on track \
                     pid={pid} tid={tid}"
                ));
            }
        }
        last_ts.insert(track, ts);
        match ph {
            "X" => {
                field_u64(ev, "dur", i)?;
                stats.complete += 1;
            }
            "B" => {
                open.entry(track).or_default().push(name.to_string());
            }
            "E" => {
                let top = open.get_mut(&track).and_then(Vec::pop).ok_or_else(|| {
                    format!("event {i} ({name:?}): E without a matching B on track {track:?}")
                })?;
                if top != name {
                    return Err(format!(
                        "event {i}: E named {name:?} closes B named {top:?} on track {track:?}"
                    ));
                }
                stats.spans += 1;
            }
            other => return Err(format!("event {i}: unknown phase kind {other:?}")),
        }
    }
    for (track, stack) in &open {
        if let Some(name) = stack.last() {
            return Err(format!("unclosed B {name:?} on track {track:?} — every B needs an E"));
        }
    }
    stats.tracks = last_ts.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::from_str;

    fn check(s: &str) -> Result<TraceEventStats, String> {
        validate_trace_events(&from_str(s).expect("test doc parses"))
    }

    #[test]
    fn accepts_a_minimal_valid_export() {
        let stats = check(
            r#"{"traceEvents":[
                {"name":"process_name","ph":"M","pid":1,"args":{"name":"requests"}},
                {"name":"queue","ph":"X","pid":1,"tid":0,"ts":5,"dur":3},
                {"name":"queue","ph":"X","pid":1,"tid":0,"ts":5,"dur":0},
                {"name":"b0","ph":"B","pid":2,"tid":0,"ts":1},
                {"name":"b0","ph":"E","pid":2,"tid":0,"ts":9},
                {"name":"b1","ph":"B","pid":2,"tid":0,"ts":9},
                {"name":"b1","ph":"E","pid":2,"tid":0,"ts":12}
            ]}"#,
        )
        .expect("valid export");
        assert_eq!(stats.events, 7);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.complete, 2);
        assert_eq!(stats.tracks, 2);
    }

    #[test]
    fn rejects_backwards_time_per_track() {
        let err = check(
            r#"{"traceEvents":[
                {"name":"a","ph":"X","pid":1,"tid":0,"ts":10,"dur":1},
                {"name":"b","ph":"X","pid":1,"tid":0,"ts":9,"dur":1}
            ]}"#,
        )
        .unwrap_err();
        assert!(err.contains("backwards"), "{err}");
        // Interleaved tracks are fine: monotonicity is per (pid, tid).
        check(
            r#"{"traceEvents":[
                {"name":"a","ph":"X","pid":1,"tid":0,"ts":10,"dur":1},
                {"name":"b","ph":"X","pid":1,"tid":1,"ts":9,"dur":1}
            ]}"#,
        )
        .expect("separate tracks may interleave");
    }

    #[test]
    fn rejects_unbalanced_or_mismatched_spans() {
        let err = check(r#"{"traceEvents":[{"name":"b0","ph":"B","pid":2,"tid":0,"ts":1}]}"#)
            .unwrap_err();
        assert!(err.contains("unclosed"), "{err}");
        let err = check(r#"{"traceEvents":[{"name":"b0","ph":"E","pid":2,"tid":0,"ts":1}]}"#)
            .unwrap_err();
        assert!(err.contains("without a matching B"), "{err}");
        let err = check(
            r#"{"traceEvents":[
                {"name":"b0","ph":"B","pid":2,"tid":0,"ts":1},
                {"name":"b1","ph":"E","pid":2,"tid":0,"ts":2}
            ]}"#,
        )
        .unwrap_err();
        assert!(err.contains("closes B"), "{err}");
    }

    #[test]
    fn rejects_missing_fields_and_unknown_phases() {
        assert!(check(r#"{"events":[]}"#).is_err(), "wrong top-level key");
        assert!(check(r#"{"traceEvents":[{"ph":"X","pid":1,"tid":0,"ts":0,"dur":0}]}"#).is_err());
        assert!(check(r#"{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":0,"ts":0}]}"#).is_err());
        let err =
            check(r#"{"traceEvents":[{"name":"x","ph":"Q","pid":1,"tid":0,"ts":0}]}"#).unwrap_err();
        assert!(err.contains("unknown phase"), "{err}");
    }
}
