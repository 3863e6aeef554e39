//! Batched k-nearest-neighbor queries (Alg. 3) with the §6 two-stage
//! coarse/fine metric execution, in two BSP rounds where the data allows.
//!
//! (1) SEARCH records each query's trace and its *anchor* — the lowest
//! path node whose lazy counter guarantees ≥ k true points (we require
//! SC ≥ 2k, which by Lemma 3.1 implies T ≥ k). (2) A best-k traversal of the
//! anchor's subtree yields k candidates under the *coarse* metric (ℓ1 on the
//! PIM side — additions only; UPMEM multiplies are dear,
//! [`costs::pim_dist_cycles`]). Its first
//! task **rides the SEARCH round**: a module whose search ends with the
//! anchor a local node of one of its masters runs the step then and there
//! (`module::handle_search`) and replies with the best-k reply instead of
//! the anchor; the host resumes the query's walk from that reply, and
//! best-k runs rounds of its own only for walks with somewhere left to go
//! — an anchor in L0, on the host in a pulled fragment, in an ancestor
//! fragment on another module or behind a cached copy, or a frontier that
//! survived. (3) The k-th candidate distance defines a sphere per query,
//! and the queries are cut into **runs** that share one sphere (below).
//! (4) One ball traversal per run, from the lowest node of its centre's
//! trace that contains the run's region, gathers every point inside it;
//! replies carry the points alone. (5) The host evaluates the exact target
//! metric over the collected set, once per member — the fine-grained stage
//! — and emits each final k.
//!
//! **The ball and its cube.** Under two-stage execution the host knows r₂,
//! the k-th *fine* distance among the k coarse candidates, and every true
//! neighbour p has `ℓ∞(q,p) ≤ ℓ2(q,p) ≤ r₂` as well as `ℓ1(q,p) ≤ √D·ℓ2(q,p)
//! ≤ √D·r₂` (ℓ∞ ≤ ℓ2 ≤ ℓ1 ≤ √D·ℓ2 in any dimension). The ℓ1 ball alone is
//! loose: in 3-D an octahedron of volume (4/3)·(√3·r₂)³ = 6.93 r₂³ around a
//! sphere of 4.19 r₂³, its six tips reaching √3·r₂ along the axes. Cutting
//! them off at r₂ — the cube `ℓ∞ ≤ r₂` — leaves 6.93 − 6·0.26 = 5.36 r₂³
//! (each tip a pyramid of height (√3−1)·r₂ over a square of diagonal twice
//! that). So a ball task carries both radii, `Fragment::local_ball` prunes a
//! child box on either lower bound and a point on either distance, and ℓ∞
//! being a max over the per-axis differences ℓ1 sums, the PIM side still
//! only adds and compares. With the toggle off, or an ℓ1/ℓ∞ query, there is
//! no cube (`u64::MAX`) and the test is the metric's own ball.
//!
//! **Runs** are the push-pull rule (§3.3) applied to the ball phase: where
//! a cluster of queries wants the same region, the region is pulled to the
//! host once, not once per query. The queries are ordered by `(Morton key,
//! qid)` — Morton order keeps spatial neighbours adjacent — and that order
//! is cut greedily (`cut_runs`): a query joins the open run only while the
//! run's *covering ball* — centred on the run's first query, radius
//! `R = max over members (r_i + dist(centre, q_i))` by the triangle
//! inequality — keeps `R^D ≤ COALESCE_VOLUME_FACTOR · r_min^D` (factor 2).
//! The run's *covering cube* grows beside it by the same inequality under
//! ℓ∞, `max(r₂ᵢ + ℓ∞(centre, qᵢ))`, and decides nothing. A member's own
//! ball and cube lie inside the covering ones, so the fine filter sees
//! a superset of the member's true k nearest (and only stored points): the
//! answers are those of one traversal per query, bit for bit. The volume
//! rule bounds both sides on any input: a member sifts through at most that
//! factor × its own ball's worth of points, and a run of two or more
//! fetches at most the factor × its smallest member's volume — no more (at
//! factor 2) than its members' balls sum to. A query with no such
//! neighbour is a run of one, whose task is the per-query one.
//!
//! Steps 2 and 4 are the two modes of one `Probe`, [`KnnTask`], run by
//! the shared engine in `traverse.rs` (and, for the task that rides SEARCH,
//! by the same module-side loop); this file says what the probe does inside
//! a fragment and with a reply, and drives the five steps.

use crate::costs;
use crate::frag::{
    knn_bound, push_candidate, AnchorLoc, CostSink, Edge, Fragment, MetaId, RemoteRef,
};
use crate::host::{PimZdTree, L0_META};
use crate::inline::InlineVec;
use crate::module::{Anchor, BestK, KnnReply, KnnTask, REPLY_INLINE};
use crate::soa::{fine_select, CoordBlock};
use crate::traverse::{Hop, Probe, Walk};
use pim_geom::{isqrt_ceil, max_coord_for_dim, Aabb, Metric, Point};
use pim_memsim::{costs as host_costs, CpuMeter};
use pim_zorder::prefix::Prefix;

/// Cap on the up-front reservation of a query's best-k list (`k` is caller
/// input; anything larger grows on demand).
const MAX_CANDS_RESERVE: usize = 1024;

/// A coalesced run may span at most this many times the volume of its
/// smallest member: the covering ball of a ball-phase run here, the union
/// box of a widen-fetch run in the shard router.
pub(crate) const COALESCE_VOLUME_FACTOR: u128 = 2;

/// Cuts `items`, in the order given, greedily into runs: an item joins the
/// open run when `join` returns the run's grown accumulator, and otherwise
/// starts the next run with `start`. Returns each run's `(accumulator,
/// length)`. The one loop behind both coalescing steps; what a run may span
/// is the accumulator's business.
pub(crate) fn cut_runs<T, S>(
    items: impl IntoIterator<Item = T>,
    start: impl Fn(&T) -> S,
    join: impl Fn(&S, &T) -> Option<S>,
) -> Vec<(S, usize)> {
    let mut runs: Vec<(S, usize)> = Vec::new();
    for item in items {
        if let Some((state, len)) = runs.last_mut() {
            if let Some(grown) = join(state, &item) {
                (*state, *len) = (grown, *len + 1);
                continue;
            }
        }
        runs.push((start(&item), 1));
    }
    runs
}

/// The covering ball of a ball-phase run. Radii come in two forms: the
/// metric's *comparable* one, which tasks carry (squared for ℓ2), and the
/// linear one the triangle inequality and the volume rule need (`⌈√·⌉` of
/// it for ℓ2, so every rounding widens the ball).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct BallRun<const D: usize> {
    /// The run's first query.
    pub centre: Point<D>,
    /// Comparable radius around `centre` covering every member's ball
    /// (`u64::MAX` = the universe).
    pub bound: u64,
    /// The smallest member radius, linear.
    pub r_min: u64,
    /// ℓ∞ radius around `centre` covering every member's cube — the cube
    /// of side 2·r₂ that holds a member's true neighbours under §6 two-stage
    /// execution (`u64::MAX` = none known).
    pub cube: u64,
}

/// The comparable radius `bound` as a length along an axis (`⌈√·⌉` for ℓ2).
fn linear_radius(metric: Metric, bound: u64) -> u64 {
    match metric {
        Metric::L2 => isqrt_ceil(bound),
        Metric::L1 | Metric::Linf => bound,
    }
}

impl<const D: usize> BallRun<D> {
    /// A run of one: the query's own ball and cube, untouched.
    pub fn start(metric: Metric, q: &Point<D>, bound: u64, cube: u64) -> Self {
        BallRun { centre: *q, bound, r_min: linear_radius(metric, bound), cube }
    }

    /// The run with the ball of comparable radius `bound` around `q` (and
    /// the cube of ℓ∞ radius `cube` around it) in it, if the covering ball
    /// stays within [`COALESCE_VOLUME_FACTOR`] × the smallest member's
    /// volume. Universe balls join each other and nothing else. The cube
    /// never decides: it grows by the same triangle inequality, under ℓ∞.
    pub fn join(&self, metric: Metric, q: &Point<D>, bound: u64, cube: u64) -> Option<Self> {
        if self.bound == u64::MAX || bound == u64::MAX {
            return (self.bound == bound).then_some(*self);
        }
        let r = linear_radius(metric, bound);
        let reach = r + linear_radius(metric, metric.cmp_dist(&self.centre, q));
        let radius = linear_radius(metric, self.bound).max(reach);
        let r_min = self.r_min.min(r);
        let volume = |r: u64| u128::from(r).checked_pow(D as u32);
        if volume(radius)? > COALESCE_VOLUME_FACTOR.saturating_mul(volume(r_min)?) {
            return None;
        }
        let bound = match metric {
            Metric::L2 => radius.saturating_mul(radius),
            Metric::L1 | Metric::Linf => radius,
        };
        let cube = self.cube.max(cube.saturating_add(self.centre.linf(q)));
        Some(BallRun { centre: self.centre, bound, r_min, cube })
    }

    /// Whether the cube of ℓ∞ radius `cube` around `q`, as far as it lies on
    /// the grid, lies inside the run's (what makes the run's one traversal a
    /// superset of `q`'s own).
    fn holds_cube(&self, q: &Point<D>, cube: u64) -> bool {
        let on_grid = |c: &Point<D>, r| ball_box(c, r, Metric::Linf);
        on_grid(&self.centre, self.cube).contains_box(&on_grid(q, cube))
    }
}

/// What a kNN walk gathers, one list per mode of [`KnnTask`].
#[derive(Default)]
pub(crate) struct KnnFound<const D: usize> {
    /// Best-k: the `k` nearest distinct points seen so far, sorted, with
    /// their distances; the bound is the k-th.
    pub best: Vec<(u64, Point<D>)>,
    /// Ball: every point within the fixed radius, unsorted, duplicates and
    /// all — the fine filter evaluates the target metric anyway.
    pub ball: Vec<Point<D>>,
}

impl<const D: usize> Probe<D> for KnnTask<D> {
    type Found = KnnFound<D>;

    fn qid(&self) -> u32 {
        self.qid
    }

    fn reply_qid(reply: &KnnReply<D>) -> u32 {
        reply.qid
    }

    fn target(&self) -> (MetaId, u32) {
        (self.meta, self.node)
    }

    fn aimed(self, meta: MetaId, node: u32, bound: u64) -> Self {
        KnnTask { meta, node, bound, ..self }
    }

    fn bound(&self, found: &Self::Found) -> u64 {
        if self.ball {
            self.bound
        } else {
            knn_bound(&found.best, self.k as usize).min(self.bound)
        }
    }

    fn step(
        &self,
        frag: &Fragment<D>,
        start: u32,
        found: &mut Self::Found,
        frontier: &mut Vec<Edge<D>>,
        sink: &mut impl CostSink,
    ) {
        let (q, metric) = (&self.q, self.metric);
        if self.ball {
            let ball = &mut found.ball;
            frag.local_ball(start, q, self.bound, self.cube, metric, ball, frontier, sink);
        } else {
            frag.local_knn(start, q, self.k as usize, metric, &mut found.best, frontier, sink);
        }
    }

    fn reply(
        &self,
        found: &mut Self::Found,
        frontier: &[Edge<D>],
        covered: &[MetaId],
    ) -> KnnReply<D> {
        let (cands, points) = (found.best.clone(), found.ball.clone());
        found.best.clear();
        found.ball.clear();
        KnnReply {
            qid: self.qid,
            cands,
            points,
            frontier: InlineVec::from_slice(frontier),
            covered: InlineVec::from_slice(covered),
        }
    }

    fn absorb(
        &self,
        found: &mut Self::Found,
        reply: KnnReply<D>,
        meter: &mut CpuMeter,
        frontier: &mut Vec<Hop>,
    ) -> InlineVec<MetaId, REPLY_INLINE> {
        frontier.extend(reply.frontier.iter().map(|(r, d)| (r.meta, u32::MAX, *d)));
        meter.work(costs::BALL_POINT * reply.points.len() as u64);
        if found.ball.is_empty() {
            // The reply's one allocation becomes the walk's.
            found.ball = reply.points;
        } else {
            found.ball.extend_from_slice(&reply.points);
        }
        for c in reply.cands {
            meter.work(host_costs::HEAP_OP);
            let mut sink = PimZdTree::<D>::l0_sink(meter);
            push_candidate(&mut found.best, self.k as usize, c, &mut sink);
        }
        reply.covered
    }
}

impl<const D: usize> PimZdTree<D> {
    /// Batched exact k-nearest-neighbor query under `metric`. Results are
    /// sorted by (comparable distance, coordinates); ℓ2 distances are
    /// squared.
    ///
    /// The ball phase runs once per *run* of queries, not once per query:
    /// queries in Morton order whose spheres fit one covering ball of at
    /// most twice (`COALESCE_VOLUME_FACTOR`) the smallest sphere's volume share
    /// one traversal, and each takes its k nearest from the shared set (see
    /// the module docs for the rule and why no answer changes). The host
    /// meter is charged [`costs::COALESCE_CYCLES`] per query for the grouping pass
    /// and the fine filter per (member, collected point) pair; a registry,
    /// when attached, gets `host_knn_fused_total` (queries whose best-k
    /// step rode the SEARCH round), `host_knn_unbounded_total` (queries
    /// whose best-k step found fewer than k points, so that their ball is
    /// the whole space), `host_knn_ball_queries_total`,
    /// `host_knn_ball_runs_total` and `host_knn_ball_points_total` (points
    /// the ball replies carried).
    pub fn batch_knn(
        &mut self,
        queries: &[Point<D>],
        k: usize,
        metric: Metric,
    ) -> Vec<Vec<(u64, Point<D>)>> {
        if queries.is_empty() {
            return Vec::new();
        }
        self.phased("knn", |t| {
            t.measured(queries.len() as u64, |t| {
                let out = t.knn_inner(queries, k, metric);
                let elements: u64 = out.iter().map(|v| v.len() as u64).sum();
                (out, elements)
            })
        })
    }

    fn knn_inner(
        &mut self,
        queries: &[Point<D>],
        k: usize,
        metric: Metric,
    ) -> Vec<Vec<(u64, Point<D>)>> {
        let n = queries.len();
        // Empty tree or k = 0: every query answers with no neighbors. The
        // root is captured here so no later step needs to touch `self.l0`
        // unguarded.
        let l0_root = match self.l0.as_ref() {
            Some(l0) if k > 0 => l0.root,
            _ => return vec![Vec::new(); n],
        };
        let two_stage = self.cfg.toggles.coarse_fine_knn && metric.needs_multiplication();
        let coarse = if two_stage { Metric::L1 } else { metric };

        // Step 1: SEARCH with anchors (SC ≥ 2k ⇒ T ≥ k by Lemma 3.1). Where
        // a query's search ended beside its anchor, step 2's first task ran
        // in the same round.
        let best_k = BestK { k: k.min(u32::MAX as usize) as u32, metric: coarse };
        let s = self.batch_search_internal(queries, Some(best_k));

        // Step 2: best-k traversal of the anchor subtrees (coarse metric),
        // each walk from wherever step 1 left it.
        let mut fused = 0;
        let mut walks: Vec<Walk<D, KnnTask<D>>> = (s.anchors.into_iter().zip(queries).enumerate())
            .map(|(qid, (anchor, q))| {
                let at = |meta, node| {
                    let mut walk = Walk::new(best_k.task(qid as u32, *q, meta, node));
                    walk.found.best = Vec::with_capacity(k.min(MAX_CANDS_RESERVE));
                    walk
                };
                match anchor {
                    Anchor::Explored(reply) => {
                        fused += 1;
                        // (A resumed walk never looks at its target.)
                        let mut walk = at(L0_META, l0_root);
                        walk.resume(*reply, &mut self.meter);
                        walk
                    }
                    Anchor::At(a) => at(a.meta, a.node),
                    // No anchor (tiny tree): start at the root.
                    Anchor::None => at(L0_META, l0_root),
                }
            })
            .collect();
        self.traverse(&mut walks);

        // Step 3: sphere radius per query, and under two-stage execution the
        // cube that goes with it.
        let mut fine: Vec<u64> = self.bufs.take_vec();
        let mut radii: Vec<(u64, u64)> = self.bufs.take_vec();
        let mut unbounded = 0;
        for w in walks.iter_mut() {
            let best = &mut w.found.best;
            let x = if best.len() >= k { best[k - 1].0 } else { u64::MAX };
            unbounded += u64::from(x == u64::MAX);
            // Radius under the coarse metric guaranteed to contain the true
            // k nearest under the target metric.
            radii.push(if x == u64::MAX {
                (u64::MAX, u64::MAX)
            } else if two_stage {
                // Tighten first: evaluate the *fine* metric on the k coarse
                // candidates host-side (k cheap CPU multiplies). The k-th
                // fine distance r₂ upper-bounds the true k-th ℓ2 distance,
                // so the true kNN all lie within ℓ1 ≤ √D·r₂ ≤ √D·x — and,
                // since ℓ∞ ≤ ℓ2, within r₂ of the query on every axis.
                self.meter.work(host_costs::dist_cycles(D) * best.len() as u64);
                fine.clear();
                fine.extend(best.iter().map(|(_, p)| metric.cmp_dist(&w.probe.q, p)));
                fine.sort_unstable();
                let r2_sq = fine[k - 1];
                let r2 = isqrt_ceil(r2_sq);
                (Metric::anchor_inflate(r2, D), r2)
            } else {
                (x, u64::MAX)
            });
            best.clear();
        }
        self.bufs.put_vec(fine);

        // SEARCH's `(Morton key, qid)` order, cut into runs that share one
        // covering ball (module docs).
        let order = s.order;
        self.meter.work(n as u64 * costs::COALESCE_CYCLES);
        let member = |&qid: &u32| (&queries[qid as usize], radii[qid as usize]);
        let runs = cut_runs(
            order.iter().map(member),
            |&(q, (r, cube))| BallRun::start(coarse, q, r, cube),
            |run, &(q, (r, cube))| run.join(coarse, q, r, cube),
        );
        debug_assert!(
            {
                let mut members = order.iter().map(member);
                runs.iter().all(|(run, len)| {
                    members.by_ref().take(*len).all(|(q, (_, cube))| run.holds_cube(q, cube))
                })
            },
            "a member's cube pokes out of its run's"
        );
        self.bufs.put_vec(radii);

        // Each run takes over one of the finished walks, storage and all,
        // and enters at the lowest node of its centre's trace that contains
        // the covering ball — or the cube, which lies inside the ball's box.
        let mut first = 0;
        for (j, (run, len)) in runs.iter().enumerate() {
            self.meter.work(costs::BALL_RUN_START);
            let hops = &s.hops[order[first] as usize];
            let (meta, node) = self.lowest_trace_node_containing(hops, run, coarse);
            let w = &mut walks[j];
            w.restart(KnnTask {
                qid: j as u32,
                meta,
                node,
                q: run.centre,
                bound: run.bound,
                cube: run.cube,
                ball: true,
                ..w.probe
            });
            first += len;
        }

        // Step 4: collect everything inside the covering balls.
        self.traverse(&mut walks[..runs.len()]);
        self.sys.metrics().with(|m| {
            let points: usize = walks[..runs.len()].iter().map(|w| w.found.ball.len()).sum();
            m.add("host_knn_fused_total", &[], fused);
            m.add("host_knn_unbounded_total", &[], unbounded);
            m.add("host_knn_ball_queries_total", &[], n as u64);
            m.add("host_knn_ball_runs_total", &[], runs.len() as u64);
            m.add("host_knn_ball_points_total", &[], points as u64);
        });

        // Step 5: fine filtering on the CPU (§6) — a run's points go
        // lane-major into one reused block, once, and the SoA distance
        // kernel streams it through a bounded max-heap per member (k results
        // in (distance, coords) order, duplicates dropped). One aggregated
        // charge per run stands for the per-(member, point) charges.
        let _span = pim_obs::span("fine_filter");
        let mut block = CoordBlock::new();
        let mut out = vec![Vec::new(); n];
        let mut members = order.iter();
        for (w, (_, len)) in walks.iter().zip(&runs) {
            self.meter.work(host_costs::dist_cycles(D) * (w.found.ball.len() * len) as u64);
            block.refill(w.found.ball.iter());
            for &qid in members.by_ref().take(*len) {
                out[qid as usize] = fine_select(&block, &queries[qid as usize], metric, k);
            }
        }
        self.bufs.put_vec(order);
        out
    }

    /// Finds the deepest node on the trace of `run`'s centre (at meta
    /// granularity: the host-visible L0 path plus the hop chain) whose box
    /// contains everything the run can collect — its covering cube where it
    /// has one, its covering ball otherwise.
    fn lowest_trace_node_containing(
        &mut self,
        hops: &[RemoteRef<D>],
        run: &BallRun<D>,
        metric: Metric,
    ) -> (MetaId, u32) {
        let q = &run.centre;
        // kNN on an empty tree returns before reaching this step; the hop
        // fallback keeps the path structurally panic-free regardless.
        let Some(l0) = self.l0.as_ref() else {
            return (hops.first().map_or(L0_META, |r| r.meta), u32::MAX);
        };
        let mut best = (L0_META, l0.root);
        if run.bound == u64::MAX {
            return best;
        }
        // Clipping to the grid is safe: no point lies outside it.
        let region = if run.cube == u64::MAX {
            ball_box(q, run.bound, metric)
        } else {
            ball_box(q, run.cube, Metric::Linf)
        };
        let contains = |p: &Prefix<D>| p.to_box().contains_box(&region);

        // The L0 part of the path; the ref it leaves L0 through is the
        // first hop of the chain below.
        let key = pim_zorder::ZKey::<D>::encode(q);
        let mut sink = Self::l0_sink(&mut self.meter);
        if let Some((_, AnchorLoc::Local(node))) =
            l0.lowest_on_path(key, costs::ANCHOR_STEP_HOST, |p, _| contains(p), &mut sink)
        {
            best = (L0_META, node);
        }
        // Then the hop chain (fragment roots).
        for r in hops {
            self.meter.work(costs::ANCHOR_STEP_HOST);
            if contains(&r.prefix) {
                best = (r.meta, u32::MAX);
            }
        }
        best
    }
}

/// The axis-aligned box guaranteed to contain every point within comparable
/// distance `bound` of `q` (`bound` is squared for ℓ2), clamped to the
/// grid. `u64::MAX` means "unbounded" and yields the universe.
pub(crate) fn ball_box<const D: usize>(q: &Point<D>, bound: u64, metric: Metric) -> Aabb<D> {
    if bound == u64::MAX {
        return Aabb::universe();
    }
    let m = max_coord_for_dim(D) as u64;
    let half = linear_radius(metric, bound).min(m);
    let mut lo = [0u32; D];
    let mut hi = [0u32; D];
    for i in 0..D {
        let c = q.coords[i] as u64;
        lo[i] = c.saturating_sub(half) as u32;
        hi[i] = (c + half).min(m) as u32;
    }
    Aabb::new(Point::new(lo), Point::new(hi))
}
