//! Structure-of-arrays candidate storage and the vectorizable kernels
//! over it.
//!
//! Leaf payloads and kNN candidate runs are the index's per-element hot
//! loops: every kNN, ball, and box query scans them computing distances or
//! containment per point. Stored AoS (`[(key, Point); n]`), each metric
//! evaluation strides over interleaved keys and coordinates and the
//! compiler cannot vectorize across points. This module keeps those runs
//! as one `u64` key lane plus `D` contiguous `u32` coordinate lanes —
//! [`PointSet`] for leaves, [`CoordBlock`] for keyless candidate runs — so
//! the distance and containment kernels become lane-major loops over
//! contiguous memory that auto-vectorize, processed in fixed-size chunks
//! through stack buffers (no per-leaf allocation).
//!
//! Everything here is observationally identical to the AoS code it
//! replaced: kernels evaluate per-point in index order with the exact
//! per-axis arithmetic of [`Point`]'s scalar methods (including the ℓ2²
//! saturating add), and [`KBest`] reproduces the historical
//! sort+dedup+truncate fine filter bit for bit — properties pinned by the
//! oracle suites in `tests/` and the round-trip tests below.

use pim_geom::{Aabb, Metric, Point};
use pim_zorder::ZKey;

/// A point paired with its Morton key (AoS view of one element).
pub type Keyed<const D: usize> = (ZKey<D>, Point<D>);

/// Points processed per stack-buffer chunk by the lane kernels.
const CHUNK: usize = 64;

/// Evaluates `metric` from `q` against `n` points stored in `lanes`,
/// chunk by chunk. `emit(base, dists)` receives the distances of points
/// `base..base + dists.len()` in index order. Per-axis arithmetic matches
/// [`Point::l1`]/[`Point::l2_sq`]/[`Point::linf`] exactly — same widening,
/// same saturating ℓ2² accumulation, same dimension order.
fn dist_chunks<const D: usize>(
    lanes: &[Vec<u32>; D],
    n: usize,
    q: &Point<D>,
    metric: Metric,
    mut emit: impl FnMut(usize, &[u64]),
) {
    let mut buf = [0u64; CHUNK];
    let mut base = 0;
    while base < n {
        let m = CHUNK.min(n - base);
        buf[..m].fill(0);
        match metric {
            Metric::L1 => {
                for (j, lane) in lanes.iter().enumerate() {
                    let qc = q.coords[j];
                    for (acc, &c) in buf[..m].iter_mut().zip(&lane[base..base + m]) {
                        *acc += u64::from(c.abs_diff(qc));
                    }
                }
            }
            Metric::L2 => {
                for (j, lane) in lanes.iter().enumerate() {
                    let qc = q.coords[j];
                    for (acc, &c) in buf[..m].iter_mut().zip(&lane[base..base + m]) {
                        let d = u64::from(c.abs_diff(qc));
                        *acc = acc.saturating_add(d * d);
                    }
                }
            }
            Metric::Linf => {
                for (j, lane) in lanes.iter().enumerate() {
                    let qc = q.coords[j];
                    for (acc, &c) in buf[..m].iter_mut().zip(&lane[base..base + m]) {
                        *acc = (*acc).max(u64::from(c.abs_diff(qc)));
                    }
                }
            }
        }
        emit(base, &buf[..m]);
        base += m;
    }
}

/// Leaf payload storage: one key lane + `D` coordinate lanes, element `i`
/// of every lane describing point `i`. Kept in the same `(key, coords)`
/// order the AoS `Vec<Keyed<D>>` held.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointSet<const D: usize> {
    keys: Vec<u64>,
    lanes: [Vec<u32>; D],
}

impl<const D: usize> Default for PointSet<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> PointSet<D> {
    /// An empty set.
    pub fn new() -> Self {
        Self { keys: Vec::new(), lanes: std::array::from_fn(|_| Vec::new()) }
    }

    /// An empty set with room for `n` points in every lane.
    pub fn with_capacity(n: usize) -> Self {
        Self { keys: Vec::with_capacity(n), lanes: std::array::from_fn(|_| Vec::with_capacity(n)) }
    }

    /// Transposes an AoS slice into lanes.
    pub fn from_slice(items: &[Keyed<D>]) -> Self {
        let mut s = Self::with_capacity(items.len());
        for (k, p) in items {
            s.push(*k, p);
        }
        s
    }

    /// Number of stored points.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Appends one point.
    #[inline]
    pub fn push(&mut self, key: ZKey<D>, p: &Point<D>) {
        self.keys.push(key.0);
        for (lane, &c) in self.lanes.iter_mut().zip(&p.coords) {
            lane.push(c);
        }
    }

    /// The raw key lane.
    #[inline]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The coordinate lane of dimension `j`.
    #[inline]
    pub fn lane(&self, j: usize) -> &[u32] {
        &self.lanes[j]
    }

    /// Key of element `i`.
    #[inline]
    pub fn key(&self, i: usize) -> ZKey<D> {
        ZKey(self.keys[i])
    }

    /// Point `i`, re-materialized from the lanes.
    #[inline]
    pub fn point(&self, i: usize) -> Point<D> {
        Point::new(std::array::from_fn(|j| self.lanes[j][i]))
    }

    /// Element `i` as an AoS pair.
    #[inline]
    pub fn get(&self, i: usize) -> Keyed<D> {
        (self.key(i), self.point(i))
    }

    /// Iterates elements as AoS pairs, in index order.
    pub fn iter(&self) -> impl Iterator<Item = Keyed<D>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Transposes back to an AoS vector (structural edits — merge, delete —
    /// run on the AoS form, mirroring the clones the old layout made).
    pub fn to_vec(&self) -> Vec<Keyed<D>> {
        self.iter().collect()
    }

    /// Appends every element to an AoS vector.
    pub fn append_to(&self, out: &mut Vec<Keyed<D>>) {
        out.reserve(self.len());
        out.extend(self.iter());
    }

    /// Whether any stored key equals `key` — a branch-free scan of the
    /// contiguous key lane.
    #[inline]
    pub fn contains_key(&self, key: ZKey<D>) -> bool {
        self.keys.contains(&key.0)
    }

    /// Distance kernel over the coordinate lanes; see `dist_chunks`.
    #[inline]
    pub fn for_dist_chunks(&self, q: &Point<D>, metric: Metric, emit: impl FnMut(usize, &[u64])) {
        dist_chunks(&self.lanes, self.len(), q, metric, emit);
    }

    /// Counts stored points inside `query` (inclusive box containment),
    /// lane-major and branch-free within each chunk.
    pub fn count_in(&self, query: &Aabb<D>) -> u64 {
        let mut total = 0u64;
        self.for_box_chunks(query, |_, mask| {
            total += mask.iter().map(|&b| u64::from(b)).sum::<u64>();
        });
        total
    }

    /// Containment kernel: `emit(base, mask)` receives one `bool` per point
    /// of the chunk, `true` when the point lies inside `query`.
    pub fn for_box_chunks(&self, query: &Aabb<D>, mut emit: impl FnMut(usize, &[bool])) {
        let mut mask = [false; CHUNK];
        let n = self.len();
        let mut base = 0;
        while base < n {
            let m = CHUNK.min(n - base);
            mask[..m].fill(true);
            for (j, lane) in self.lanes.iter().enumerate() {
                let (lo, hi) = (query.lo.coords[j], query.hi.coords[j]);
                for (keep, &c) in mask[..m].iter_mut().zip(&lane[base..base + m]) {
                    *keep &= (c >= lo) & (c <= hi);
                }
            }
            emit(base, &mask[..m]);
            base += m;
        }
    }
}

impl<const D: usize> From<Vec<Keyed<D>>> for PointSet<D> {
    fn from(items: Vec<Keyed<D>>) -> Self {
        Self::from_slice(&items)
    }
}

impl<const D: usize> FromIterator<Keyed<D>> for PointSet<D> {
    fn from_iter<I: IntoIterator<Item = Keyed<D>>>(iter: I) -> Self {
        let mut s = Self::new();
        for (k, p) in iter {
            s.push(k, &p);
        }
        s
    }
}

/// A keyless candidate run: `D` coordinate lanes only. The kNN fine filter
/// lays every in-radius candidate of a query out here so it can re-evaluate
/// distances with the lane kernel instead of striding over AoS pairs.
#[derive(Clone, Debug)]
pub struct CoordBlock<const D: usize> {
    lanes: [Vec<u32>; D],
}

impl<const D: usize> Default for CoordBlock<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> CoordBlock<D> {
    /// An empty block.
    pub fn new() -> Self {
        Self { lanes: std::array::from_fn(|_| Vec::new()) }
    }

    /// Number of stored candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.lanes[0].len()
    }

    /// Whether the block is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lanes[0].is_empty()
    }

    /// Appends one candidate point.
    #[inline]
    pub fn push(&mut self, p: &Point<D>) {
        for (lane, &c) in self.lanes.iter_mut().zip(&p.coords) {
            lane.push(c);
        }
    }

    /// Replaces the contents with `points`, keeping the lanes' storage.
    pub fn refill<'a>(&mut self, points: impl ExactSizeIterator<Item = &'a Point<D>>) {
        for lane in &mut self.lanes {
            lane.clear();
            lane.reserve(points.len());
        }
        points.for_each(|p| self.push(p));
    }

    /// Candidate `i`, re-materialized from the lanes.
    #[inline]
    pub fn point(&self, i: usize) -> Point<D> {
        Point::new(std::array::from_fn(|j| self.lanes[j][i]))
    }

    /// Distance kernel over the lanes; see `dist_chunks`.
    #[inline]
    pub fn for_dist_chunks(&self, q: &Point<D>, metric: Metric, emit: impl FnMut(usize, &[u64])) {
        dist_chunks(&self.lanes, self.len(), q, metric, emit);
    }
}

/// Bounded selector of the `k` smallest *distinct* `(dist, coords)` pairs —
/// the kNN fine filter. A binary max-heap of capacity `k` ordered by
/// `(dist, coords)` replaces the historical collect-all + `sort_unstable` +
/// `dedup` + `truncate(k)` pipeline: same output bit for bit ("left run
/// wins ties" — ascending `(dist, coords)` order — with exact duplicates
/// collapsed), but O(n log k) with no O(n) buffer, and the offer path is a
/// compare against the root plus an index-arithmetic sift with no
/// data-dependent branching beyond it.
#[derive(Clone, Debug)]
pub struct KBest<const D: usize> {
    k: usize,
    /// Max-heap by `(dist, coords)`; `heap[0]` is the current k-th best.
    heap: Vec<(u64, Point<D>)>,
}

#[inline]
fn hkey<const D: usize>(e: &(u64, Point<D>)) -> (u64, [u32; D]) {
    (e.0, e.1.coords)
}

impl<const D: usize> KBest<D> {
    /// A selector keeping at most `k` entries (`k = 0` keeps none).
    pub fn new(k: usize) -> Self {
        Self { k, heap: Vec::with_capacity(k.min(1024)) }
    }

    /// Current pruning bound: the k-th best `(dist, coords)` key, or `MAX`
    /// until `k` distinct entries exist.
    #[inline]
    pub fn bound(&self) -> (u64, [u32; D]) {
        if self.heap.len() < self.k {
            (u64::MAX, [u32::MAX; D])
        } else {
            self.heap.first().map(hkey).unwrap_or((u64::MAX, [u32::MAX; D]))
        }
    }

    /// Offers one candidate; duplicates of a held entry are dropped so the
    /// selection is over *distinct* pairs, exactly like the historical
    /// `dedup()` on the sorted run.
    pub fn offer(&mut self, dist: u64, p: Point<D>) {
        if self.k == 0 {
            return;
        }
        let key = (dist, p.coords);
        if self.heap.len() >= self.k {
            // Full: only a strictly better key can displace the root, and
            // only a key not already held may enter.
            if key >= hkey(&self.heap[0]) {
                // Covers both "not better" and "duplicate of the root".
                return;
            }
            if self.heap.iter().any(|e| hkey(e) == key) {
                return;
            }
            self.heap[0] = (dist, p);
            self.sift_down(0);
        } else {
            if self.heap.iter().any(|e| hkey(e) == key) {
                return;
            }
            self.heap.push((dist, p));
            self.sift_up(self.heap.len() - 1);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if hkey(&self.heap[i]) <= hkey(&self.heap[parent]) {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < n && hkey(&self.heap[l]) > hkey(&self.heap[largest]) {
                largest = l;
            }
            if r < n && hkey(&self.heap[r]) > hkey(&self.heap[largest]) {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }

    /// The held entries in ascending `(dist, coords)` order — the final
    /// kNN result format.
    pub fn into_sorted(self) -> Vec<(u64, Point<D>)> {
        let mut v = self.heap;
        v.sort_unstable_by_key(|(d, p)| (*d, p.coords));
        v
    }
}

/// The full fine filter: distances from `q` to every candidate in `block`
/// via the lane kernel, selected down to the `k` smallest distinct pairs.
pub fn fine_select<const D: usize>(
    block: &CoordBlock<D>,
    q: &Point<D>,
    metric: Metric,
    k: usize,
) -> Vec<(u64, Point<D>)> {
    let mut best = KBest::new(k);
    block.for_dist_chunks(q, metric, |base, dists| {
        for (i, &dist) in dists.iter().enumerate() {
            best.offer(dist, block.point(base + i));
        }
    });
    best.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed(cs: &[[u32; 3]]) -> Vec<Keyed<3>> {
        cs.iter()
            .map(|c| {
                let p = Point::new(*c);
                (ZKey::<3>::encode(&p), p)
            })
            .collect()
    }

    #[test]
    fn aos_soa_aos_identity() {
        let items = keyed(&[[1, 2, 3], [4, 5, 6], [1, 2, 3], [0, 0, 0], [7, 7, 7]]);
        let set = PointSet::from_slice(&items);
        assert_eq!(set.len(), items.len());
        assert_eq!(set.to_vec(), items, "AoS→SoA→AoS must be the identity");
        for (i, (k, p)) in items.iter().enumerate() {
            assert_eq!(set.get(i), (*k, *p));
        }
        let round: PointSet<3> = items.clone().into();
        assert_eq!(round, set);
    }

    #[test]
    fn dist_kernel_matches_scalar_metrics() {
        let items = keyed(&[[0, 0, 0], [10, 20, 30], [5, 5, 5], [1 << 20, 3, 9]]);
        let set = PointSet::from_slice(&items);
        let q = Point::new([7u32, 7, 7]);
        for metric in [Metric::L1, Metric::L2, Metric::Linf] {
            let mut got = Vec::new();
            set.for_dist_chunks(&q, metric, |base, dists| {
                assert_eq!(base, got.len());
                got.extend_from_slice(dists);
            });
            let want: Vec<u64> = items.iter().map(|(_, p)| metric.cmp_dist(&q, p)).collect();
            assert_eq!(got, want, "{metric:?}");
        }
    }

    #[test]
    fn box_kernel_matches_scalar_containment() {
        let items = keyed(&[[0, 0, 0], [10, 20, 30], [5, 5, 5], [6, 9, 2]]);
        let set = PointSet::from_slice(&items);
        let query = Aabb::new(Point::new([1u32, 1, 1]), Point::new([10u32, 20, 30]));
        let mut inside = Vec::new();
        set.for_box_chunks(&query, |base, mask| {
            for (i, &m) in mask.iter().enumerate() {
                if m {
                    inside.push(set.point(base + i));
                }
            }
        });
        let want: Vec<Point<3>> =
            items.iter().map(|(_, p)| *p).filter(|p| query.contains(p)).collect();
        assert_eq!(inside, want);
        assert_eq!(set.count_in(&query), want.len() as u64);
    }

    #[test]
    fn kbest_is_sort_dedup_truncate() {
        let cands =
            [(5u64, [1u32, 1, 1]), (3, [2, 2, 2]), (5, [1, 1, 1]), (3, [0, 0, 0]), (9, [3, 3, 3])];
        for k in 0..=6 {
            let mut best = KBest::<3>::new(k);
            for (d, c) in cands {
                best.offer(d, Point::new(c));
            }
            let mut want: Vec<(u64, Point<3>)> =
                cands.iter().map(|(d, c)| (*d, Point::new(*c))).collect();
            want.sort_unstable_by_key(|(d, p)| (*d, p.coords));
            want.dedup();
            want.truncate(k);
            assert_eq!(best.into_sorted(), want, "k={k}");
        }
    }

    #[test]
    fn chunk_boundaries_are_seamless() {
        // More points than one chunk so the kernel's chunk loop is hit.
        let items: Vec<Keyed<3>> = (0..333u32)
            .map(|i| {
                let p = Point::new([i * 7 % 1000, i * 13 % 1000, i * 29 % 1000]);
                (ZKey::<3>::encode(&p), p)
            })
            .collect();
        let set = PointSet::from_slice(&items);
        let q = Point::new([500u32, 500, 500]);
        let mut got = Vec::new();
        set.for_dist_chunks(&q, Metric::L2, |_, d| got.extend_from_slice(d));
        let want: Vec<u64> = items.iter().map(|(_, p)| p.l2_sq(&q)).collect();
        assert_eq!(got, want);
    }
}
