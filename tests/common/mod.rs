//! Brute-force oracles and duplicate-heavy inputs shared by the root test
//! suites. Each suite uses a subset, hence the module-wide `dead_code`
//! allowance.
#![allow(dead_code)]

use pim_geom::{Aabb, Metric, Point};
use proptest::prelude::*;

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
