//! Quickstart: build a PIM-zd-tree on a simulated 64-module machine and run
//! every operation family once, printing the paper's metrics (throughput,
//! memory traffic per element, time breakdown). Every answer is checked
//! against a scan of the points the index should hold (10-NN on a sample of
//! the queries); a wrong one panics before the closing line.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pim_zd_tree_repro::{workloads, Aabb, MachineConfig, Metric, PimZdConfig, PimZdTree, Point};

fn main() {
    let n_modules = 64;
    let n_points = 200_000;
    let batch = 20_000;

    println!("== PIM-zd-tree quickstart ==");
    println!("machine: {n_modules} PIM modules; dataset: {n_points} uniform 3D points\n");

    // Warmup: bulk-build the index (untimed, like the paper's warmup phase).
    let pts = workloads::uniform::<3>(n_points, 42);
    let cfg = PimZdConfig::throughput_optimized(n_points as u64, n_modules);
    let mut index = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(n_modules));
    println!(
        "built: {} points, {} meta-nodes, {:.1} MB total space",
        index.len(),
        index.meta_count(),
        index.space_bytes() as f64 / 1e6
    );

    // INSERT: a fresh batch of points.
    let new_pts = workloads::uniform::<3>(batch, 7);
    index.batch_insert(&new_pts);
    report("INSERT", &index);
    let stored: Vec<Point<3>> = pts.iter().chain(&new_pts).copied().collect();
    index.check_invariants(&stored);

    // BoxCount: boxes covering ≈100 points each.
    let side = workloads::box_side_for_expected::<3>(index.len(), 100.0);
    let boxes = workloads::box_queries(&pts, batch / 10, side, 8);
    let counts = index.batch_box_count(&boxes);
    let scanned: Vec<Vec<Point<3>>> = boxes.iter().map(|b| scan_box(&stored, b)).collect();
    assert!(counts.iter().zip(&scanned).all(|(&c, s)| c == s.len() as u64), "BoxCount");
    let avg = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    report(&format!("BoxCount (avg {avg:.0} hits)"), &index);

    // BoxFetch over the same boxes.
    let mut fetched = index.batch_box_fetch(&boxes);
    for (hits, s) in fetched.iter_mut().zip(&scanned) {
        hits.sort_unstable_by_key(|p| p.coords);
        assert_eq!(hits, s, "BoxFetch");
    }
    let total: usize = fetched.iter().map(Vec::len).sum();
    report(&format!("BoxFetch ({total} points returned)"), &index);

    // 10-NN under the Euclidean metric (coarse ℓ1 on PIM, exact ℓ2 on CPU).
    let queries = workloads::knn_queries(&pts, batch / 10, 9);
    let knn = index.batch_knn(&queries, 10, Metric::L2);
    report("10-NN", &index);
    let mut distinct = stored.clone();
    distinct.sort_unstable_by_key(|p| p.coords);
    distinct.dedup();
    for (q, got) in queries.iter().zip(&knn).step_by(20) {
        let mut ranked: Vec<(u64, Point<3>)> =
            distinct.iter().map(|p| (Metric::L2.cmp_dist(q, p), *p)).collect();
        ranked.select_nth_unstable_by_key(9, |(d, p)| (*d, p.coords));
        ranked.truncate(10);
        ranked.sort_unstable_by_key(|(d, p)| (*d, p.coords));
        assert_eq!(got, &ranked, "10-NN");
    }

    // DELETE the batch we inserted.
    let removed = index.batch_delete(&new_pts);
    report(&format!("DELETE ({removed} removed)"), &index);
    assert_eq!(removed, new_pts.len(), "DELETE");
    index.check_invariants(&pts);

    println!("\nall operations verified; final size = {}", index.len());
}

/// The points of `stored` inside `b`, in coordinate order.
fn scan_box(stored: &[Point<3>], b: &Aabb<3>) -> Vec<Point<3>> {
    let mut hits: Vec<Point<3>> = stored.iter().filter(|p| b.contains(p)).copied().collect();
    hits.sort_unstable_by_key(|p| p.coords);
    hits
}

fn report<const D: usize>(op: &str, index: &PimZdTree<D>) {
    let s = index.last_op_stats();
    let b = &s.breakdown;
    println!(
        "{op:<28} {:>9.2} Mops/s | {:>7.1} B/elem | cpu {:>5.1}% pim {:>5.1}% comm {:>5.1}% | {} rounds",
        s.throughput() / 1e6,
        s.traffic_per_element(),
        100.0 * b.cpu_s / b.total_s(),
        100.0 * b.pim_s / b.total_s(),
        100.0 * b.comm_s / b.total_s(),
        s.rounds,
    );
}
