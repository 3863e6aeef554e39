//! kNN and orthogonal range on the kd-tree are the shared engine's
//! (`pim_zdtree_base::engine`, reached through `PkdTree`'s inherent
//! forwards): what this tree supplies to it is its tight boxes and its
//! unordered leaf buckets. This module holds the checks of those queries
//! against the brute-force oracle.

#[cfg(test)]
mod tests {
    use crate::PkdTree;
    use pim_geom::{Aabb, Metric, Point};
    use pim_memsim::{CpuConfig, CpuMeter};
    use pim_workloads::{osm_like, uniform};
    use pim_zdtree_base::query::{oracle, sort_points};

    fn meter() -> CpuMeter {
        CpuMeter::new(CpuConfig::xeon())
    }

    /// An 8×8×8 grid of sites, every site stacked four deep.
    fn stacked_cube() -> Vec<Point<3>> {
        let site =
            |i: u32| Point::new([1_000 + 64 * (i % 8), 2_000 + 64 * (i / 8 % 8), 64 * (i / 64)]);
        (0..512u32).flat_map(|i| [site(i); 4]).collect()
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = uniform::<3>(3_000, 1);
        let t = PkdTree::<3>::build(&pts, 16);
        let mut m = meter();
        // Free-standing queries and one on a stored point.
        for q in uniform::<3>(30, 2).into_iter().chain([pts[7]]) {
            for metric in [Metric::L2, Metric::L1, Metric::Linf] {
                for k in [1usize, 7, 25] {
                    assert_eq!(t.knn(&q, k, metric, &mut m), oracle::knn(&pts, &q, k, metric));
                }
            }
        }
        assert_eq!(t.knn(&pts[7], 1, Metric::L2, &mut m)[0].0, 0);

        // k > n returns everything, nearest first.
        let few = &pts[..10];
        let small = PkdTree::<3>::build(few, 4);
        assert_eq!(
            small.knn(&few[0], 100, Metric::L1, &mut m),
            oracle::knn(few, &few[0], 100, Metric::L1)
        );

        // Duplicate-heavy: ties at every distance, leaves of one repeated point.
        let cube = stacked_cube();
        let t = PkdTree::<3>::build(&cube, 8);
        for q in [cube[0], cube[2_047], Point::new([1_100, 2_100, 100])] {
            for metric in [Metric::L2, Metric::L1, Metric::Linf] {
                assert_eq!(t.knn(&q, 9, metric, &mut m), oracle::knn(&cube, &q, 9, metric));
            }
        }
    }

    #[test]
    fn knn_on_skewed_data() {
        let pts = osm_like::<3>(2_000, 3);
        let t = PkdTree::<3>::build(&pts, 16);
        let mut m = meter();
        let q = pts[500];
        assert_eq!(t.knn(&q, 10, Metric::L2, &mut m), oracle::knn(&pts, &q, 10, Metric::L2));
    }

    #[test]
    fn box_queries_match_brute_force() {
        let pts = uniform::<3>(3_000, 4);
        let t = PkdTree::<3>::build(&pts, 16);
        let mut m = meter();
        for (i, c) in pts.iter().step_by(100).enumerate() {
            let side = 1u32 << (10 + (i % 10));
            let lo = Point::new(c.coords.map(|x| x.saturating_sub(side / 2)));
            let hi = Point::new(c.coords.map(|x| {
                (x as u64 + side as u64 / 2).min(pim_geom::max_coord_for_dim(3) as u64) as u32
            }));
            let b = Aabb::new(lo, hi);
            assert_eq!(t.box_count(&b, &mut m), oracle::box_count(&pts, &b));
            let got = sort_points(t.box_fetch(&b, &mut m));
            assert_eq!(got, sort_points(oracle::box_fetch(&pts, &b)));
        }

        // Duplicate-heavy: a box cutting the stacked cube, one stack alone,
        // and the universe (every subtree fully covered).
        let cube = stacked_cube();
        let t = PkdTree::<3>::build(&cube, 8);
        let cut = Aabb::new(Point::new([1_000, 2_000, 0]), Point::new([1_200, 2_130, 448]));
        for b in [cut, Aabb::point(cube[100]), Aabb::universe()] {
            assert_eq!(t.box_count(&b, &mut m), oracle::box_count(&cube, &b));
            let got = sort_points(t.box_fetch(&b, &mut m));
            assert_eq!(got, sort_points(oracle::box_fetch(&cube, &b)));
        }
    }

    #[test]
    fn queries_after_updates_stay_correct() {
        let pts = uniform::<3>(2_000, 5);
        let extra = uniform::<3>(500, 6);
        let mut t = PkdTree::<3>::build(&pts, 16);
        let mut m = meter();
        t.batch_delete(&pts[..1_000], &mut m);
        t.batch_insert(&extra, &mut m);
        let mut data: Vec<Point<3>> = pts[1_000..].to_vec();
        data.extend_from_slice(&extra);
        let q = extra[0];
        assert_eq!(t.knn(&q, 12, Metric::L2, &mut m), oracle::knn(&data, &q, 12, Metric::L2));
    }

    #[test]
    fn empty_tree_queries() {
        let t = PkdTree::<3>::new(8);
        let mut m = meter();
        assert!(t.knn(&Point::origin(), 3, Metric::L2, &mut m).is_empty());
        assert_eq!(t.box_count(&Aabb::universe(), &mut m), 0);
    }
}
