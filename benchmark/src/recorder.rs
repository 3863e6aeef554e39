//! The benchmark's own span recorder: a span around every call into a layer,
//! kept in memory and written out as Chrome trace events when the run ends.
//!
//! Spans are recorded from outside the program, on the one thread that
//! drives it, so they nest strictly: a span's children never overlap, and
//! its self time is its duration minus its children's.

use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder was made.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one rep (0 outside the reps).
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when tracing, and only times the calls when not.
pub struct Recorder {
    origin: Instant,
    /// `Some` exactly on a traced run.
    spans: Option<Vec<Span>>,
    open: Vec<usize>,
    /// Rep identifier stamped on spans opened from now on.
    pub rep: u32,
}

impl Recorder {
    pub fn new(tracing: bool) -> Self {
        Self { origin: Instant::now(), spans: tracing.then(Vec::new), open: Vec::new(), rep: 0 }
    }

    /// Runs `f` inside a span called `name` and returns its result with the
    /// wall-clock nanoseconds it took. The clock is read the same way
    /// whether or not spans are kept.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (R, u64) {
        let slot = self.spans.as_mut().map(|spans| {
            spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                rep: self.rep,
            });
            spans.len() - 1
        });
        if let Some(i) = slot {
            self.open.push(i);
        }
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let (Some(i), Some(spans)) = (slot, self.spans.as_mut()) {
            self.open.pop();
            spans[i].start_ns = (start - self.origin).as_nanos() as u64;
            spans[i].end_ns = (end - self.origin).as_nanos() as u64;
        }
        (out, (end - start).as_nanos() as u64)
    }

    /// Every closed span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }
}

/// Self time of every span: its duration minus the part its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Renders the spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// `B` and one `E` event per span on a single track, timestamps in µs.
/// Events are emitted by walking the span tree, so they nest by construction.
pub fn chrome_trace(spans: &[Span], process: &str) -> String {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":{}}}}}",
        json_string(process)
    ));
    // (span, whether its B has been written)
    let mut todo: Vec<(usize, bool)> = roots.into_iter().rev().map(|i| (i, false)).collect();
    while let Some((i, opened)) = todo.pop() {
        let s = &spans[i];
        let (phase, ns) = if opened { ('E', s.end_ns) } else { ('B', s.start_ns) };
        out.push_str(&format!(
            ",\n{{\"name\":{},\"ph\":\"{phase}\",\"ts\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"rep\":{}}}}}",
            json_string(&s.name),
            ns as f64 / 1e3,
            s.rep
        ));
        if !opened {
            todo.push((i, true));
            todo.extend(children[i].iter().rev().map(|&c| (c, false)));
        }
    }
    out.push_str("\n]}\n");
    out
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings always serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    fn recorded() -> Vec<Span> {
        let mut rec = Recorder::new(true);
        for rep in 1..=3 {
            rec.rep = rep;
            rec.span("rep", |r| {
                busy(20_000);
                r.span("contains", |_| busy(50_000));
                r.span("knn", |r| {
                    busy(10_000);
                    r.span("inner", |_| busy(30_000));
                });
            });
        }
        rec.spans().to_vec()
    }

    #[test]
    fn untraced_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let ((), ns) = rec.span("x", |_| busy(100_000));
        assert!(ns >= 100_000);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn children_never_exceed_parent_and_self_times_sum_to_roots() {
        let spans = recorded();
        assert_eq!(spans.len(), 12);
        let mut child_sum = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
                assert_eq!(spans[p].rep, s.rep, "spans of one rep share its identifier");
                child_sum[p] += s.duration_ns();
            }
        }
        for (s, c) in spans.iter().zip(&child_sum) {
            assert!(*c <= s.duration_ns(), "children of {} cover more than it lasts", s.name);
        }
        let own = self_times_ns(&spans);
        let roots: u64 = spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_ns).sum();
        assert_eq!(own.iter().sum::<u64>(), roots);
    }

    #[test]
    fn trace_file_closes_every_b_and_keeps_ts_monotone() {
        let text = chrome_trace(&recorded(), "test");
        let doc = serde_json::from_str(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents");
        let mut stack: Vec<String> = Vec::new();
        let mut last_ts = 0.0;
        let mut pairs = 0;
        for e in events {
            let name = e.get("name").and_then(|n| n.as_str()).expect("name").to_string();
            match e.get("ph").and_then(|p| p.as_str()).expect("ph") {
                "M" => continue,
                "B" => stack.push(name),
                "E" => {
                    assert_eq!(stack.pop().as_deref(), Some(name.as_str()), "E closes the open B");
                    pairs += 1;
                }
                other => panic!("unexpected phase {other}"),
            }
            let ts = e.get("ts").and_then(|t| t.as_f64()).expect("ts");
            assert!(ts >= last_ts, "ts goes backwards on the track");
            last_ts = ts;
        }
        assert!(stack.is_empty(), "every B is closed");
        assert_eq!(pairs, 12);
    }
}
