//! The read path's heap-allocation budget.
//!
//! The query kernels are meant to be allocation-free per node and per task:
//! module handlers reuse their scratch across a round, replies are cut with
//! one exact-size allocation, the host recycles its per-round buffers. What
//! is left is a handful of allocations per query (its result, its candidate
//! storage). This file counts them with a counting `#[global_allocator]` and
//! holds each read operation to a committed per-query budget, so a `Vec`
//! that starts growing push by push in a kernel again fails a test instead
//! of quietly costing a fifth of the host time (EXPERIMENTS.md §E-A).
//!
//! One `#[test]` only: the counter is process-wide, and the harness runs the
//! tests of a file on concurrent threads.

use pim_zd_tree_repro::{workloads, Aabb, MachineConfig, Metric, PimZdConfig, PimZdTree, Point};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, counting every call that can hand out a new block.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no bearing on it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 40_000;
const MODULES: usize = 64;
const QUERIES: usize = 2_000;
const K: usize = 10;

/// Allocations per query of `op`, measured on its third run: the first two
/// fill the tree's buffer pools and the allocator's own caches.
fn per_query<R>(queries: usize, mut op: impl FnMut() -> R) -> f64 {
    op();
    op();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = op();
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(out);
    spent as f64 / queries as f64
}

struct Budget {
    knn: f64,
    box_fetch: f64,
    contains: f64,
}

fn check(preset: &str, cfg: PimZdConfig, budget: Budget) {
    let data = workloads::uniform::<3>(N, 15);
    let mut tree = PimZdTree::build(&data, cfg, MachineConfig::with_modules(MODULES));
    let points: Vec<Point<3>> = workloads::uniform::<3>(QUERIES, 16);
    let side = workloads::box_side_for_expected::<3>(N, 10.0);
    let boxes: Vec<Aabb<3>> = workloads::box_queries(&data, QUERIES, side, 17);

    let knn = per_query(QUERIES, || tree.batch_knn(&points, K, Metric::L2));
    let box_fetch = per_query(QUERIES, || tree.batch_box_fetch(&boxes));
    let contains = per_query(QUERIES, || tree.batch_contains(&points));
    println!("{preset}: allocations per query: knn {knn:.2}, box_fetch {box_fetch:.2}, contains {contains:.2}");
    assert!(knn <= budget.knn, "{preset} batch_knn: {knn:.2} allocations per query");
    assert!(
        box_fetch <= budget.box_fetch,
        "{preset} batch_box_fetch: {box_fetch:.2} allocations per query"
    );
    assert!(
        contains <= budget.contains,
        "{preset} batch_contains: {contains:.2} allocations per query"
    );
}

#[test]
fn steady_state_reads_stay_within_their_allocation_budget() {
    rayon::ThreadPool::new(1).install(|| {
        check(
            "throughput_optimized",
            PimZdConfig::throughput_optimized(N as u64, MODULES),
            // Measured 9.31 / 3.55 / 0.15 (51.03 / 10.70 / 1.16 before the
            // kernels stopped allocating; kNN 12.08 while every query kept
            // a lane block of its own for the fine filter, 9.94 while every
            // query ran a ball traversal of its own, 9.92 before the ball
            // was held to its cube — fewer ball replies, one allocation
            // each — and the best-k reply rode the SEARCH round, boxed: one
            // more).
            Budget { knn: 10.5, box_fetch: 4.5, contains: 0.5 },
        );
        check(
            "skew_resistant",
            PimZdConfig::skew_resistant(MODULES),
            // Measured 19.43 / 6.95 / 0.30 (112.30 / 25.20 / 1.31 before;
            // kNN 26.46, then 22.05, then 21.96): smaller fragments, so
            // more tasks — and replies — per query; fewer of both since
            // the ball is held to its cube.
            Budget { knn: 22.0, box_fetch: 8.0, contains: 0.5 },
        );
    });
}
