//! Recorded arrival traces: the determinism boundary of the serving layer.
//!
//! The serving layer (`pim-serve`) replays traffic in **virtual time**: a
//! trace is a sorted list of `(t_us, op)` arrivals, and everything a server
//! run produces — results, the serving journal, latency percentiles — is a
//! pure function of `(trace, policy, tree seed)`. Wall-clock time and host
//! thread count never enter the model, which is how the repo's byte-identity
//! contract (ARCHITECTURE.md §4) extends to online serving: all timing
//! nondeterminism is quarantined *behind* the trace. Generate once (with the
//! seeded open-loop generator here) or read a committed JSONL file, then
//! replay anywhere.
//!
//! Traces serialize as one JSON object per line (JSONL), the same style as
//! the round journal, so they diff cleanly and commit well.

use pim_geom::{Aabb, Point};
use pim_sim::json;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// One serving request, with its full payload.
///
/// The six variants map 1:1 onto the batched operations of
/// `pim_zd_tree::PimZdTree`; the serving layer groups compatible requests
/// (same variant, same `k`) into batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqOp<const D: usize> {
    /// Insert one point (multiset semantics).
    Insert(Point<D>),
    /// Delete one point (one copy, if present).
    Delete(Point<D>),
    /// Point-membership probe.
    Contains(Point<D>),
    /// k-nearest-neighbor query (`.1` is k).
    Knn(Point<D>, usize),
    /// Orthogonal range count.
    BoxCount(Aabb<D>),
    /// Orthogonal range fetch.
    BoxFetch(Aabb<D>),
}

impl<const D: usize> ReqOp<D> {
    /// The request's class, without its payload.
    pub fn class(&self) -> ReqClass {
        match self {
            ReqOp::Insert(_) => ReqClass::Insert,
            ReqOp::Delete(_) => ReqClass::Delete,
            ReqOp::Contains(_) => ReqClass::Contains,
            ReqOp::Knn(..) => ReqClass::Knn,
            ReqOp::BoxCount(_) => ReqClass::BoxCount,
            ReqOp::BoxFetch(_) => ReqClass::BoxFetch,
        }
    }

    /// Whether the request mutates the index.
    pub fn is_write(&self) -> bool {
        self.class().is_write()
    }

    /// Stable label used in journals and metrics (`insert`, `knn`, …).
    pub fn label(&self) -> &'static str {
        self.class().label()
    }
}

/// The class of a request, without its payload. [`ReqClass::label`] is the
/// one table of class labels: arrival traces, serving journals, span files,
/// metrics and trace-event tracks all write it, and their readers map a
/// label back through [`ReqClass::from_label`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReqClass {
    /// [`ReqOp::Insert`].
    Insert,
    /// [`ReqOp::Delete`].
    Delete,
    /// [`ReqOp::Contains`].
    Contains,
    /// [`ReqOp::Knn`], any `k`.
    Knn,
    /// [`ReqOp::BoxCount`].
    BoxCount,
    /// [`ReqOp::BoxFetch`].
    BoxFetch,
}

json::labels! {
    /// Stable label (`insert`, `delete`, `contains`, `knn`, `box_count`,
    /// `box_fetch`).
    ReqClass::label {
        Insert => "insert", Delete => "delete", Contains => "contains", Knn => "knn",
        BoxCount => "box_count", BoxFetch => "box_fetch",
    }
}

impl From<ReqClass> for &'static str {
    fn from(c: ReqClass) -> Self {
        c.label()
    }
}

impl ReqClass {
    /// Every class, in declaration order (the trace-event track order).
    pub const ALL: [ReqClass; 6] = [
        ReqClass::Insert,
        ReqClass::Delete,
        ReqClass::Contains,
        ReqClass::Knn,
        ReqClass::BoxCount,
        ReqClass::BoxFetch,
    ];

    /// The class a label names (`None` for an unknown label).
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.label() == label)
    }

    /// Whether requests of this class mutate the index.
    pub fn is_write(self) -> bool {
        matches!(self, ReqClass::Insert | ReqClass::Delete)
    }
}

/// One timed arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival<const D: usize> {
    /// Arrival time in virtual microseconds from the start of the run.
    pub t_us: u64,
    /// The request.
    pub op: ReqOp<D>,
}

/// A recorded request stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArrivalTrace<const D: usize> {
    /// Arrivals. Generated and parsed traces are in non-decreasing `t_us`
    /// order; one built in code may not be, and its span and rate do not
    /// depend on the order.
    pub arrivals: Vec<Arrival<D>>,
}

impl<const D: usize> ArrivalTrace<D> {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Time of the latest arrival (0 for an empty trace).
    pub fn duration_us(&self) -> u64 {
        self.arrivals.iter().map(|a| a.t_us).max().unwrap_or(0)
    }

    /// Offered load in requests per (virtual) second, over the arrival span.
    pub fn offered_rate(&self) -> f64 {
        let d = self.duration_us();
        if d == 0 {
            0.0
        } else {
            self.arrivals.len() as f64 / (d as f64 / 1e6)
        }
    }

    /// Serializes the trace as JSONL (one arrival per line).
    pub fn to_jsonl(&self) -> String {
        json::write_jsonl(&self.arrivals)
    }

    /// Parses a JSONL trace. Arrivals must be sorted by `t_us`; a malformed
    /// line or out-of-order timestamp is an error (replaying a half-read
    /// trace would silently change every downstream artifact).
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let arrivals: Vec<Arrival<D>> = json::read_jsonl(text)?;
        if let Some(i) = arrivals.windows(2).position(|w| w[1].t_us < w[0].t_us) {
            let (prev, t_us) = (arrivals[i].t_us, arrivals[i + 1].t_us);
            return Err(format!("arrival {}: t_us {t_us} < previous {prev}", i + 2));
        }
        Ok(Self { arrivals })
    }
}

/// `t_us`, `op`, then the payload keys of its class.
impl<const D: usize> json::Serialize for Arrival<D> {
    fn json_write(&self, out: &mut String) {
        let mut o = json::Object::new(out);
        o.key("t_us", &self.t_us).key("op", &self.op.class());
        match &self.op {
            ReqOp::Insert(p) | ReqOp::Delete(p) | ReqOp::Contains(p) => o.key("p", &p.coords),
            ReqOp::Knn(p, k) => o.key("k", k).key("p", &p.coords),
            ReqOp::BoxCount(b) | ReqOp::BoxFetch(b) => {
                o.key("lo", &b.lo.coords).key("hi", &b.hi.coords)
            }
        };
        o.end();
    }
}

impl<const D: usize> json::FromJson for Arrival<D> {
    fn from_json(v: &json::Value, _: &str) -> Result<Self, String> {
        let p = |key| json::read(v, key).map(Point::new);
        let bx = || -> Result<Aabb<D>, String> { Ok(Aabb::new(p("lo")?, p("hi")?)) };
        let op = match json::read(v, "op")? {
            ReqClass::Insert => ReqOp::Insert(p("p")?),
            ReqClass::Delete => ReqOp::Delete(p("p")?),
            ReqClass::Contains => ReqOp::Contains(p("p")?),
            ReqClass::Knn => ReqOp::Knn(p("p")?, json::read(v, "k")?),
            ReqClass::BoxCount => ReqOp::BoxCount(bx()?),
            ReqClass::BoxFetch => ReqOp::BoxFetch(bx()?),
        };
        Ok(Arrival { t_us: json::read(v, "t_us")?, op })
    }
}

// ---------------------------------------------------------------------
// Request mixes and the open-loop generator
// ---------------------------------------------------------------------

/// Relative weights of the request classes in a generated stream.
///
/// Weights are integers (not probabilities) so mixes compare exactly across
/// platforms; a weight of 0 removes the class. kNN requests share one `k`
/// and box requests one expected coverage, matching how the serving layer
/// batches compatible requests together.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestMix {
    /// Weight of `Insert`.
    pub insert: u32,
    /// Weight of `Delete`.
    pub delete: u32,
    /// Weight of `Contains`.
    pub contains: u32,
    /// Weight of `Knn`.
    pub knn: u32,
    /// `k` used by every kNN request.
    pub knn_k: usize,
    /// Weight of `BoxCount`.
    pub box_count: u32,
    /// Weight of `BoxFetch`.
    pub box_fetch: u32,
    /// Expected points covered by each box query (sizes the box side).
    pub box_expected: f64,
}

impl RequestMix {
    /// Read-heavy serving mix: 80% reads (contains/kNN/box), 20% writes.
    pub fn read_heavy() -> Self {
        Self {
            insert: 15,
            delete: 5,
            contains: 30,
            knn: 35,
            knn_k: 10,
            box_count: 10,
            box_fetch: 5,
            box_expected: 10.0,
        }
    }

    /// Update-heavy mix: 70% writes, 30% point reads (churn workloads).
    pub fn write_heavy() -> Self {
        Self {
            insert: 50,
            delete: 20,
            contains: 20,
            knn: 10,
            knn_k: 10,
            box_count: 0,
            box_fetch: 0,
            box_expected: 10.0,
        }
    }

    /// Query-only mix (no writes; every batch reads the same epoch).
    pub fn read_only() -> Self {
        Self { insert: 0, delete: 0, ..Self::read_heavy() }
    }

    /// Sum of all weights.
    pub fn total_weight(&self) -> u32 {
        self.insert + self.delete + self.contains + self.knn + self.box_count + self.box_fetch
    }
}

/// Generates `n` arrivals with exponential (Poisson-process) inter-arrival
/// times at `rate_per_s` requests per virtual second, with request payloads
/// drawn from the `data` distribution (queries follow the data, §7.1) under
/// `mix`. Pure function of its arguments: the same seed always yields the
/// same trace, byte for byte.
pub fn open_loop_trace<const D: usize>(
    data: &[Point<D>],
    n: usize,
    rate_per_s: f64,
    mix: &RequestMix,
    seed: u64,
) -> ArrivalTrace<D> {
    assert!(rate_per_s > 0.0, "offered rate must be positive");
    assert!(!data.is_empty(), "payloads are drawn from the data distribution");
    assert!(mix.total_weight() > 0, "request mix must enable at least one class");
    let side = crate::box_side_for_expected::<D>(data.len(), mix.box_expected);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5E2E);
    let mut t = 0.0f64;
    let arrivals = (0..n)
        .map(|_| {
            // `1.0 - r` keeps ln() finite.
            let r: f64 = rng.random();
            t += -(1.0 - r).ln() * 1e6 / rate_per_s;
            Arrival { t_us: t as u64, op: sample_op(data, mix, side, &mut rng) }
        })
        .collect();
    ArrivalTrace { arrivals }
}

/// Draws one request payload from the data distribution under `mix`.
fn sample_op<const D: usize>(
    data: &[Point<D>],
    mix: &RequestMix,
    box_side: u32,
    rng: &mut ChaCha8Rng,
) -> ReqOp<D> {
    let pick = rng.random_range(0..mix.total_weight());
    let base = data[rng.random_range(0..data.len())];
    let mut jittered = || {
        let m = pim_geom::max_coord_for_dim(D) as i64;
        let mut c = base.coords;
        for x in c.iter_mut() {
            let d = rng.random_range(0..=8u32) as i64 - 4;
            *x = (*x as i64 + d).clamp(0, m) as u32;
        }
        Point::new(c)
    };
    let bx = || {
        let m = pim_geom::max_coord_for_dim(D) as i64;
        let half = (box_side / 2) as i64;
        let mut lo = [0u32; D];
        let mut hi = [0u32; D];
        for i in 0..D {
            lo[i] = (base.coords[i] as i64 - half).clamp(0, m) as u32;
            hi[i] = (base.coords[i] as i64 + half).clamp(0, m) as u32;
        }
        Aabb::new(Point::new(lo), Point::new(hi))
    };
    let mut hi = mix.insert;
    if pick < hi {
        return ReqOp::Insert(jittered());
    }
    hi += mix.delete;
    if pick < hi {
        return ReqOp::Delete(base);
    }
    hi += mix.contains;
    if pick < hi {
        return ReqOp::Contains(base);
    }
    hi += mix.knn;
    if pick < hi {
        return ReqOp::Knn(base, mix.knn_k);
    }
    hi += mix.box_count;
    if pick < hi {
        return ReqOp::BoxCount(bx());
    }
    ReqOp::BoxFetch(bx())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::uniform;

    #[test]
    fn open_loop_is_seed_deterministic_and_sorted() {
        let data = uniform::<3>(2_000, 1);
        let mix = RequestMix::read_heavy();
        let a = open_loop_trace(&data, 500, 10_000.0, &mix, 7);
        let b = open_loop_trace(&data, 500, 10_000.0, &mix, 7);
        assert_eq!(a, b);
        assert_ne!(a, open_loop_trace(&data, 500, 10_000.0, &mix, 8));
        assert!(a.arrivals.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        // Mean inter-arrival ≈ 100 µs at 10 k req/s.
        let mean = a.duration_us() as f64 / a.len() as f64;
        assert!((50.0..=200.0).contains(&mean), "mean inter-arrival {mean} µs");
    }

    #[test]
    fn span_and_rate_do_not_depend_on_arrival_order() {
        let data = uniform::<3>(500, 4);
        let sorted = open_loop_trace(&data, 200, 5_000.0, &RequestMix::read_heavy(), 5);
        let mut reversed = sorted.clone();
        reversed.arrivals.reverse();
        assert!(sorted.duration_us() > 0);
        assert_eq!(reversed.duration_us(), sorted.duration_us());
        assert_eq!(reversed.offered_rate().to_bits(), sorted.offered_rate().to_bits());
    }

    #[test]
    fn jsonl_roundtrips_exactly() {
        let data = uniform::<3>(500, 2);
        let mut mix = RequestMix::read_heavy();
        mix.box_count = 20; // make sure box payloads are covered
        let t = open_loop_trace(&data, 300, 5_000.0, &mix, 3);
        let text = t.to_jsonl();
        let back = ArrivalTrace::<3>::from_jsonl(&text).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.to_jsonl(), text, "re-serialization is byte-stable");
    }

    #[test]
    fn parser_rejects_malformed_and_unsorted() {
        assert!(ArrivalTrace::<3>::from_jsonl("{\"t_us\":1}").is_err());
        assert!(ArrivalTrace::<3>::from_jsonl("not json").is_err());
        let unsorted = "{\"t_us\":5,\"op\":\"contains\",\"p\":[1,2,3]}\n\
                        {\"t_us\":4,\"op\":\"contains\",\"p\":[1,2,3]}\n";
        let err = ArrivalTrace::<3>::from_jsonl(unsorted).unwrap_err();
        assert!(err.contains("t_us"), "{err}");
        let wrong_dim = "{\"t_us\":1,\"op\":\"contains\",\"p\":[1,2]}";
        assert!(ArrivalTrace::<3>::from_jsonl(wrong_dim).is_err());
    }

    #[test]
    fn class_labels_are_one_table() {
        for (i, c) in ReqClass::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "ALL lists the classes in declaration order");
            assert_eq!(ReqClass::from_label(c.label()), Some(c));
        }
        assert_eq!(ReqClass::from_label("scan"), None);
        let unknown = "{\"t_us\":1,\"op\":\"scan\",\"p\":[1,2,3]}";
        let err = ArrivalTrace::<3>::from_jsonl(unknown).unwrap_err();
        assert!(err.contains("unknown op \"scan\""), "{err}");
    }

    #[test]
    fn mix_weights_are_respected() {
        let data = uniform::<3>(1_000, 4);
        let mix = RequestMix::write_heavy();
        let t = open_loop_trace(&data, 4_000, 1_000.0, &mix, 5);
        let writes = t.arrivals.iter().filter(|a| a.op.is_write()).count();
        let frac = writes as f64 / t.len() as f64;
        assert!((0.65..=0.75).contains(&frac), "write fraction {frac}");
        let ro = open_loop_trace(&data, 500, 1_000.0, &RequestMix::read_only(), 5);
        assert!(ro.arrivals.iter().all(|a| !a.op.is_write()));
    }
}
