//! Orthogonal range queries: BoxCount and BoxFetch (§4.4).
//!
//! Execution "closely follows that of SEARCH, where push-pull search is
//! applied level by level", except that every node *intersecting* the box is
//! tracked — which is the shared traversal of `traverse.rs` with no
//! pruning bound. [`BoxTask`] is the `Probe`; this file says what it does
//! inside a fragment and with a reply. Counts are exact: fully-covered
//! subtrees answer from their (locally exact) counts when they are
//! fragment-local, and are descended otherwise so each master reports
//! exactly.

use crate::frag::{CostSink, Edge, Fragment, MetaId};
use crate::host::{PimZdTree, L0_META};
use crate::inline::InlineVec;
use crate::module::{BoxReply, BoxTask, REPLY_INLINE};
use crate::traverse::{Hop, Probe, Walk};
use pim_geom::{Aabb, Point};
use pim_memsim::{costs, CpuMeter};

/// What a box traversal gathers: the count (BoxCount) or the points
/// (BoxFetch).
#[derive(Default)]
pub(crate) struct BoxFound<const D: usize> {
    count: u64,
    points: Vec<Point<D>>,
}

impl<const D: usize> Probe<D> for BoxTask<D> {
    type Found = BoxFound<D>;

    fn qid(&self) -> u32 {
        self.qid
    }

    fn reply_qid(reply: &BoxReply<D>) -> u32 {
        reply.qid
    }

    fn target(&self) -> (MetaId, u32) {
        (self.meta, self.node)
    }

    fn aimed(self, meta: MetaId, node: u32, _bound: u64) -> Self {
        BoxTask { meta, node, ..self }
    }

    fn bound(&self, _found: &BoxFound<D>) -> u64 {
        u64::MAX
    }

    fn step(
        &self,
        frag: &Fragment<D>,
        start: u32,
        found: &mut BoxFound<D>,
        frontier: &mut Vec<Edge<D>>,
        sink: &mut impl CostSink,
    ) {
        if self.fetch {
            frag.local_box_fetch(start, &self.query, &mut found.points, frontier, sink);
        } else {
            found.count += frag.local_box_count(start, &self.query, frontier, sink);
        }
    }

    fn reply(
        &self,
        found: &mut BoxFound<D>,
        frontier: &[Edge<D>],
        covered: &[MetaId],
    ) -> BoxReply<D> {
        let points = found.points.clone();
        found.points.clear();
        BoxReply {
            qid: self.qid,
            count: std::mem::take(&mut found.count),
            points,
            frontier: InlineVec::collect(frontier.iter().map(|(r, _)| *r)),
            covered: InlineVec::from_slice(covered),
        }
    }

    fn absorb(
        &self,
        found: &mut BoxFound<D>,
        reply: BoxReply<D>,
        meter: &mut CpuMeter,
        frontier: &mut Vec<Hop>,
    ) -> InlineVec<MetaId, REPLY_INLINE> {
        frontier.extend(reply.frontier.iter().map(|r| (r.meta, u32::MAX, 0)));
        found.count += reply.count;
        meter.work(reply.points.len() as u64 * costs::EMIT);
        if found.points.is_empty() {
            // The reply's one allocation becomes the result's.
            found.points = reply.points;
        } else {
            found.points.extend_from_slice(&reply.points);
        }
        reply.covered
    }
}

impl<const D: usize> PimZdTree<D> {
    /// Batched BoxCount: exact number of stored points in each box.
    pub fn batch_box_count(&mut self, queries: &[Aabb<D>]) -> Vec<u64> {
        self.phased("box_count", |t| {
            t.measured(queries.len() as u64, |t| {
                let out: Vec<u64> =
                    t.box_inner(queries, false).into_iter().map(|f| f.count).collect();
                let n = out.len() as u64;
                (out, n)
            })
        })
    }

    /// Batched BoxFetch: the stored points in each box (unspecified order).
    pub fn batch_box_fetch(&mut self, queries: &[Aabb<D>]) -> Vec<Vec<Point<D>>> {
        self.phased("box_fetch", |t| {
            t.measured(queries.len() as u64, |t| {
                let out: Vec<Vec<Point<D>>> =
                    t.box_inner(queries, true).into_iter().map(|f| f.points).collect();
                let elements = out.iter().map(|v| v.len() as u64).sum();
                (out, elements)
            })
        })
    }

    /// One traversal per box, from the L0 root.
    fn box_inner(&mut self, queries: &[Aabb<D>], fetch: bool) -> Vec<BoxFound<D>> {
        let mut walks: Vec<Walk<D, BoxTask<D>>> = queries
            .iter()
            .enumerate()
            .map(|(qid, &query)| {
                Walk::new(BoxTask { qid: qid as u32, meta: L0_META, node: u32::MAX, query, fetch })
            })
            .collect();
        self.traverse(&mut walks);
        walks.into_iter().map(|w| w.found).collect()
    }
}
