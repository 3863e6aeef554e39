//! Brute-force oracles, duplicate-heavy inputs, the served tree and the
//! registry's cache counters, shared by the root test suites. Each suite uses
//! a subset, hence the module-wide `dead_code` allowance.
#![allow(dead_code)]

use pim_geom::{Aabb, Metric, Point};
use pim_zd_tree_repro::serve::{BatchPolicy, PimServer, ServeConfig};
use pim_zd_tree_repro::workloads::{self, open_loop_trace, ArrivalTrace, RequestMix};
use pim_zd_tree_repro::{MachineConfig, PimZdConfig, PimZdTree};
use proptest::prelude::*;

/// The host-cache reconcile counters of an update batch, in the registry:
/// copies pulled, installed, dropped and patched, and metas flipped between
/// layers.
pub const HOST_CACHE_COUNTERS: [&str; 5] = [
    "host_cache_pulls_total",
    "host_cache_installs_total",
    "host_cache_drops_total",
    "host_cache_patches_total",
    "host_layer_flips_total",
];

const SERVED_SEED: u64 = 2026;
const SERVED_N: usize = 5_000;
const SERVED_MODULES: usize = 16;

/// The serving suites' data: 5 000 uniform points.
pub fn served_data() -> Vec<Point<3>> {
    workloads::uniform::<3>(SERVED_N, SERVED_SEED)
}

/// A throughput-optimized tree over `data` on 16 modules.
pub fn served_tree(data: &[Point<3>]) -> PimZdTree<3> {
    let cfg = PimZdConfig::throughput_optimized(SERVED_N as u64, SERVED_MODULES);
    PimZdTree::build(data, cfg, MachineConfig::with_modules(SERVED_MODULES))
}

/// A server over [`served_data`], with a 500 µs batch budget and room for
/// `queue_cap` queued requests, and the data it holds.
pub fn server(queue_cap: usize) -> (PimServer<3>, Vec<Point<3>>) {
    let data = served_data();
    let policy = BatchPolicy { budget_us: 500, ..BatchPolicy::default() };
    (PimServer::new(served_tree(&data), ServeConfig { policy, queue_cap }), data)
}

/// A write-tinged read-heavy trace over `data` at a rate that keeps several
/// batches in flight: it exercises budget seals, size seals, pipelined
/// snapshot reads and, with a small queue, admission control.
pub fn fixed_trace(data: &[Point<3>]) -> ArrivalTrace<3> {
    let mix = RequestMix { insert: 25, delete: 10, ..RequestMix::read_heavy() };
    open_loop_trace(data, 700, 150_000.0, &mix, SERVED_SEED ^ 0x7ACE)
}

/// Every stored copy with its distance to `q`, in the order every kNN of
/// the repo answers in: nearest first, ties by coordinates.
fn ranked<const D: usize>(data: &[Point<D>], q: &Point<D>, metric: Metric) -> Vec<(u64, Point<D>)> {
    let mut all: Vec<(u64, Point<D>)> = data.iter().map(|p| (metric.cmp_dist(q, p), *p)).collect();
    all.sort_unstable_by_key(|(d, p)| (*d, p.coords));
    all
}

/// The `k` nearest stored copies: every copy competes — the zd-tree
/// baseline's rule.
pub fn knn_copies<const D: usize>(
    data: &[Point<D>],
    q: &Point<D>,
    k: usize,
    metric: Metric,
) -> Vec<(u64, Point<D>)> {
    let mut all = ranked(data, q, metric);
    all.truncate(k);
    all
}

/// The `k` nearest distinct points: duplicate stored copies collapse into
/// one — the PIM index's rule (its step-5 sort, dedup, truncate), single
/// rank or sharded.
pub fn knn_distinct<const D: usize>(
    data: &[Point<D>],
    q: &Point<D>,
    k: usize,
    metric: Metric,
) -> Vec<(u64, Point<D>)> {
    let mut all = ranked(data, q, metric);
    all.dedup();
    all.truncate(k);
    all
}

/// Points in a `side`³ cube: collisions (duplicates) arrive quickly.
pub fn tiny_point(side: u32) -> impl Strategy<Value = Point<3>> {
    (0..side, 0..side, 0..side).prop_map(|(x, y, z)| Point::new([x, y, z]))
}

/// One to `max - 1` points of [`tiny_point`]'s cube.
pub fn tiny_points(side: u32, max: usize) -> impl Strategy<Value = Vec<Point<3>>> {
    proptest::collection::vec(tiny_point(side), 1..max)
}

/// The box spanned by two corners (normalized per dimension).
pub fn aabb_from<const D: usize>(a: Point<D>, b: Point<D>) -> Aabb<D> {
    let lo = std::array::from_fn(|i| a.coords[i].min(b.coords[i]));
    let hi = std::array::from_fn(|i| a.coords[i].max(b.coords[i]));
    Aabb::new(Point::new(lo), Point::new(hi))
}
