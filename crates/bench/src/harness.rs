//! The measurement harness: shared query generation and one [`run_cell`]
//! over the batch surface (`pim_zd_tree::BatchIndex`), so every index —
//! PIM-zd-tree, a sharded tree, the zd-tree and Pkd-tree baselines — is
//! measured by the same code and every comparison is apples-to-apples.
//! A cell's row is its index's last [`OpStats`], cut by
//! [`PerfEntry::of`]; a PIM-zd-tree built by [`pim_tree`] goes under the
//! run's flags through [`crate::PerfSink::attach`].

use crate::perf::PerfEntry;
use pim_geom::{Aabb, Metric, Point};
use pim_memsim::{CpuConfig, CpuMeter, CpuModel};
use pim_pkdtree::PkdTree;
use pim_sim::{MachineConfig, SimStats};
use pim_workloads as wl;
use pim_zd_tree::{BatchIndex, BatchRead, OpStats, PimZdConfig, PimZdTree};
use pim_zdtree_base::engine::MeteredTree;
use pim_zdtree_base::ZdTree;

/// Host CPU model with the LLC scaled to the dataset: the paper's server
/// pairs a 22 MB LLC with 300 M-point datasets (cache ≈ 0.07 bytes/point);
/// reduced-scale runs keep that ratio (clamped to [512 KB, 22 MB]) so the
/// baselines stay in the memory-bound regime the paper measures.
pub fn scaled_cpu(n_points: usize) -> CpuConfig {
    let target = 22.0 * 1024.0 * 1024.0 * n_points as f64 / 300.0e6;
    let capacity = target.clamp(512.0 * 1024.0, 22.0 * 1024.0 * 1024.0) as u64;
    CpuConfig {
        llc: pim_memsim::CacheConfig { capacity_bytes: capacity, line_bytes: 64, ways: 16 },
        ..CpuConfig::xeon()
    }
}

/// Builds the PIM index over the warmup set with the LLC scaled to it.
pub fn pim_tree<const D: usize>(
    warmup: &[Point<D>],
    cfg: PimZdConfig,
    machine: MachineConfig,
) -> PimZdTree<D> {
    PimZdTree::build(warmup, cfg, MachineConfig { cpu: scaled_cpu(warmup.len()), ..machine })
}

/// The ten operations of Fig. 5.
#[derive(Clone, Copy, Debug)]
pub enum OpKind {
    /// Batch insertion of fresh points.
    Insert,
    /// Orthogonal range count; boxes sized to cover ≈ this many points.
    BoxCount(f64),
    /// Orthogonal range fetch.
    BoxFetch(f64),
    /// k-nearest-neighbor with this k.
    Knn(usize),
}

impl OpKind {
    /// Figure label (`BC-10`, `100-NN`, …).
    pub fn label(&self) -> String {
        match self {
            OpKind::Insert => "Insert".into(),
            OpKind::BoxCount(c) => format!("BC-{}", *c as u64),
            OpKind::BoxFetch(c) => format!("BF-{}", *c as u64),
            OpKind::Knn(k) => format!("{k}-NN"),
        }
    }

    /// The ten-operation battery of Fig. 5.
    pub fn fig5_battery() -> Vec<OpKind> {
        vec![
            OpKind::Insert,
            OpKind::BoxCount(1.0),
            OpKind::BoxCount(10.0),
            OpKind::BoxCount(100.0),
            OpKind::BoxFetch(1.0),
            OpKind::BoxFetch(10.0),
            OpKind::BoxFetch(100.0),
            OpKind::Knn(1),
            OpKind::Knn(10),
            OpKind::Knn(100),
        ]
    }

    /// Number of queries issued for a target batch size (range operations
    /// retrieve ≈ `batch` elements in total, §7.2).
    pub fn n_queries(&self, batch: usize) -> usize {
        match self {
            OpKind::Insert => batch,
            OpKind::BoxCount(_) => (batch / 10).max(64),
            OpKind::BoxFetch(c) => ((batch as f64 / c).ceil() as usize).clamp(64, batch),
            OpKind::Knn(k) => (batch / k).max(64),
        }
    }
}

/// Pre-generated queries for one operation, shared across indexes.
pub enum Queries<const D: usize = 3> {
    /// Insert batch.
    Points(Vec<Point<D>>),
    /// Box queries.
    Boxes(Vec<Aabb<D>>),
    /// kNN queries with k.
    Knn(Vec<Point<D>>, usize),
}

/// Generates the query set for `op` against `data` (queries follow the data
/// distribution, §7.1).
pub fn make_queries(
    op: OpKind,
    data: &[Point<3>],
    n_total: usize,
    batch: usize,
    seed: u64,
) -> Queries {
    let n = op.n_queries(batch);
    match op {
        // Twice the batch: the first half is an unmeasured pre-batch that
        // absorbs the structural churn of the first insert after warmup
        // (the paper measures steady-state batches in sequence).
        OpKind::Insert => Queries::Points(wl::point_queries(data, 2 * n, 4, seed)),
        OpKind::BoxCount(c) | OpKind::BoxFetch(c) => {
            let side = wl::box_side_for_expected::<3>(n_total, c);
            Queries::Boxes(wl::box_queries(data, n, side, seed))
        }
        OpKind::Knn(k) => Queries::Knn(wl::knn_queries(data, n, seed), k),
    }
}

/// Runs one (index, operation) cell on anything with the batch surface and
/// returns the row of its stats. An insert set is split in two: the
/// first half is an unmeasured steady-state pre-batch, the second half is
/// measured (the tree grows, exactly as in the paper's protocol).
pub fn run_cell<const D: usize>(
    index: &mut impl BatchIndex<D>,
    name: &str,
    op: OpKind,
    q: &Queries<D>,
) -> PerfEntry {
    match (op, q) {
        (OpKind::Insert, Queries::Points(pts)) => {
            let (pre, measured) = pts.split_at(pts.len() / 2);
            index.batch_insert(pre);
            index.batch_insert(measured);
        }
        (OpKind::BoxCount(_), Queries::Boxes(boxes)) => drop(index.batch_box_count(boxes)),
        (OpKind::BoxFetch(_), Queries::Boxes(boxes)) => drop(index.batch_box_fetch(boxes)),
        (OpKind::Knn(_), Queries::Knn(pts, k)) => drop(index.batch_knn(pts, *k, Metric::L2)),
        _ => panic!("query set does not belong to {}", op.label()),
    }
    PerfEntry::of(name, &op.label(), index.last_op_stats())
}

// ---------------------------------------------------------------------
// Shared-memory baselines
// ---------------------------------------------------------------------

/// A shared-memory baseline behind the batch surface: the tree, the
/// `CpuMeter` its traversals are instrumented through and the `CpuModel`
/// that times them. Every batch is one measured phase whose counters become
/// the [`OpStats`] a PIM index would report, over a machine that ran no
/// round: all time is host time, all traffic CPU-DRAM, imbalance 1.0.
pub struct CpuRunner<T> {
    index: T,
    meter: CpuMeter,
    model: CpuModel,
    last: OpStats,
}

impl<T> CpuRunner<T> {
    /// Wraps a baseline built (untimed) over `n` warmup points, with the
    /// LLC scaled to them.
    fn over(index: T, n: usize) -> Self {
        let cpu = scaled_cpu(n);
        Self {
            index,
            meter: CpuMeter::new(cpu),
            model: CpuModel::new(cpu),
            last: OpStats::default(),
        }
    }

    /// Runs `op` over a batch of `n` as one measured phase returning one
    /// element per operation.
    fn measured<R>(&mut self, n: usize, op: impl FnOnce(&mut T, &mut CpuMeter) -> R) -> R {
        self.meter.start_measurement();
        let out = op(&mut self.index, &mut self.meter);
        let (host, sim) = (self.meter.stats(), SimStats::default());
        self.last = OpStats::from_deltas(&self.model, host, sim, n as u64, n as u64);
        out
    }

    /// [`Self::measured`] for an op that returns a row of elements per query.
    fn measured_rows<E>(
        &mut self,
        n: usize,
        op: impl FnOnce(&mut T, &mut CpuMeter) -> Vec<Vec<E>>,
    ) -> Vec<Vec<E>> {
        let rows = self.measured(n, op);
        self.last.elements = rows.iter().map(|row| row.len() as u64).sum();
        rows
    }
}

impl CpuRunner<ZdTree<3>> {
    /// Builds the zd-tree baseline \[12\].
    pub fn zd(warmup: &[Point<3>]) -> Self {
        Self::over(ZdTree::build(warmup, ZdTree::<3>::DEFAULT_LEAF_CAP), warmup.len())
    }
}

impl CpuRunner<PkdTree<3>> {
    /// Builds the Pkd-tree baseline \[63\].
    pub fn pkd(warmup: &[Point<3>]) -> Self {
        Self::over(PkdTree::build(warmup, PkdTree::<3>::DEFAULT_LEAF_CAP), warmup.len())
    }
}

/// The batch surface for a baseline runner, once for every tree built on
/// the shared engine.
impl<T: MeteredTree<3>> BatchRead<3> for CpuRunner<T> {
    fn batch_contains(&mut self, pts: &[Point<3>]) -> Vec<bool> {
        // A membership probe is the count of a one-point box.
        let boxes: Vec<Aabb<3>> = pts.iter().map(|p| Aabb::point(*p)).collect();
        self.batch_box_count(&boxes).into_iter().map(|c| c > 0).collect()
    }
    fn batch_knn(
        &mut self,
        queries: &[Point<3>],
        k: usize,
        metric: Metric,
    ) -> Vec<Vec<(u64, Point<3>)>> {
        self.measured_rows(queries.len(), |t, m| t.engine().batch_knn(queries, k, metric, m))
    }
    fn batch_box_count(&mut self, queries: &[Aabb<3>]) -> Vec<u64> {
        self.measured(queries.len(), |t, m| t.engine().batch_box_count(queries, m))
    }
    fn batch_box_fetch(&mut self, queries: &[Aabb<3>]) -> Vec<Vec<Point<3>>> {
        self.measured_rows(queries.len(), |t, m| t.engine().batch_box_fetch(queries, m))
    }
    fn last_op_stats(&self) -> &OpStats {
        &self.last
    }
    fn len(&self) -> usize {
        self.index.engine().n_points
    }
}

impl<T: MeteredTree<3>> BatchIndex<3> for CpuRunner<T> {
    fn batch_insert(&mut self, points: &[Point<3>]) {
        self.measured(points.len(), |t, m| t.batch_insert(points, m))
    }
    fn batch_delete(&mut self, points: &[Point<3>]) -> usize {
        self.measured(points.len(), |t, m| t.batch_delete(points, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;

    #[test]
    fn battery_has_ten_ops() {
        assert_eq!(OpKind::fig5_battery().len(), 10);
    }

    #[test]
    fn runners_produce_consistent_measurements() {
        let (warm, test) = Dataset::Uniform.warmup_and_test(20_000, 1);
        let cfg = PimZdConfig::throughput_optimized(20_000, 32);
        let mut pim = pim_tree(&warm, cfg, MachineConfig::with_modules(32));
        let mut zd = CpuRunner::zd(&warm);

        let op = OpKind::Knn(10);
        let q = make_queries(op, &test, 20_000, 2_000, 9);
        let a = run_cell(&mut pim, "PIM-zd-tree", op, &q);
        let b = run_cell(&mut zd, "zd-tree", op, &q);
        assert_eq!(a.elements, b.elements, "same queries, same output size");
        assert!(a.throughput > 0.0 && b.throughput > 0.0);
        assert!(a.traffic > 0.0 && b.traffic > 0.0);
    }

    #[test]
    fn traced_run_attribution_matches_harness_totals() {
        use crate::trace_report::summarize;

        let (warm, test) = Dataset::Uniform.warmup_and_test(20_000, 7);
        let cfg = PimZdConfig::throughput_optimized(20_000, 32);
        let mut pim = pim_tree(&warm, cfg, MachineConfig::with_modules(32));
        let journal = pim_sim::Journal::new();
        pim.set_journal(Some(journal.clone()));
        assert!(journal.is_empty(), "build/warmup rounds are unaccounted, hence untraced");

        // Ops without an unmeasured pre-batch, so every journaled round of
        // the phase belongs to the measured window.
        for (op, phase) in [
            (OpKind::BoxCount(10.0), "box_count"),
            (OpKind::BoxFetch(10.0), "box_fetch"),
            (OpKind::Knn(10), "knn"),
        ] {
            let q = make_queries(op, &test, 20_000, 2_000, 11);
            let before = journal.len();
            let m = run_cell(&mut pim, "PIM-zd-tree", op, &q);
            let recs = journal.snapshot().split_off(before);
            assert!(!recs.is_empty(), "{phase}: no rounds traced");
            let s = summarize(&recs);
            assert_eq!(s.len(), 1, "{phase}: one phase label expected, got {s:?}");
            assert_eq!(s[0].phase, phase);
            assert_eq!(s[0].rounds, m.rounds, "{phase}: round counts");
            assert!(
                (s[0].pim_s - m.pim_s).abs() < 1e-9,
                "{phase}: PIM attribution {} vs harness {}",
                s[0].pim_s,
                m.pim_s
            );
            assert!(
                (s[0].comm_incl_overhead_s() - m.comm_s).abs() < 1e-9,
                "{phase}: Comm attribution {} vs harness {}",
                s[0].comm_incl_overhead_s(),
                m.comm_s
            );
        }
    }

    #[test]
    fn insert_measurement_uses_steady_state_prebatch() {
        let (warm, test) = Dataset::Uniform.warmup_and_test(10_000, 2);
        let cfg = PimZdConfig::throughput_optimized(10_000, 16);
        let mut pim = pim_tree(&warm, cfg, MachineConfig::with_modules(16));
        let before = pim.len();
        let q = make_queries(OpKind::Insert, &test, 10_000, 1_000, 3);
        let m = run_cell(&mut pim, "PIM-zd-tree", OpKind::Insert, &q);
        assert_eq!(m.elements, 1_000, "only the second half is measured");
        assert_eq!(pim.len(), before + 2_000, "both halves are inserted");
    }
}
