//! Property tests on the fragment layer (the core crate's own proptest
//! suite; the workspace-level `tests/properties.rs` covers the whole-index
//! surface).

use pim_geom::{Metric, Point};
use pim_sim::PimCtx;
use pim_zd_tree::frag::{
    knn_bound, push_candidate, BKind, BNode, ChildRef, Cursor, EditOutcome, Fragment, Keyed,
    MetaId, NullSink, RefEdit, RemoteRef, SearchEnd,
};
use pim_zorder::prefix::Prefix;
use pim_zorder::ZKey;
use proptest::prelude::*;

fn keyed(pts: &[Point<3>]) -> Vec<Keyed<3>> {
    let mut v: Vec<Keyed<3>> = pts.iter().map(|p| (ZKey::<3>::encode(p), *p)).collect();
    v.sort_unstable_by_key(|(k, p)| (*k, p.coords));
    v
}

fn fragment_over(pts: &[Point<3>], cap: usize, dir_bits: u32) -> Fragment<3> {
    let items = keyed(pts);
    let mut f = Fragment::singleton(
        1,
        0,
        BNode {
            prefix: Prefix::new(items[0].0, items[0].0.common_prefix_len(items[0].0)),
            count: 1,
            kind: BKind::Leaf { points: items[..1].to_vec().into() },
        },
        cap,
    );
    f.dir_bits = dir_bits;
    f.dense_min = 4;
    f.merge(&items[1..], &mut NullSink);
    f
}

/// The counter of the subtree at `idx`, every internal counter below it
/// checked to be the sum of its children's (a ref counts its snapshot).
fn checked_count(f: &Fragment<3>, idx: u32) -> u64 {
    let node = f.node(idx);
    if let BKind::Internal { left, right } = &node.kind {
        let of = |c: &ChildRef<3>| match c {
            ChildRef::Local(i) => checked_count(f, *i),
            ChildRef::Remote(r) => r.sc,
        };
        assert_eq!(node.count, of(left) + of(right), "counter of node {idx}");
    }
    node.count
}

fn point3() -> impl Strategy<Value = Point<3>> {
    (0..1u32 << 21, 0..1u32 << 21, 0..1u32 << 21).prop_map(|(x, y, z)| Point::new([x, y, z]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every merged point is findable; absent keys end in a leaf or diverge
    /// (never panic), with or without the dense chunk directory.
    #[test]
    fn merge_then_search_finds_everything(
        pts in proptest::collection::vec(point3(), 2..150),
        probes in proptest::collection::vec(point3(), 0..40),
        dir_bits in 0u32..6,
    ) {
        let f = fragment_over(&pts, 4, dir_bits);
        for p in &pts {
            let k = ZKey::<3>::encode(p);
            match f.search(k, &mut NullSink) {
                SearchEnd::Leaf(idx) => {
                    let BKind::Leaf { points } = &f.node(idx).kind else { panic!() };
                    prop_assert!(points.contains_key(k));
                }
                other => prop_assert!(false, "stored point not at a leaf: {other:?}"),
            }
        }
        let root_pre = f.root_node().prefix;
        for p in &probes {
            let k = ZKey::<3>::encode(p);
            if root_pre.covers(k) {
                // Must terminate in Leaf or Diverge; Remote/Stub impossible
                // in a fully-local fragment.
                match f.search(k, &mut NullSink) {
                    SearchEnd::Leaf(_) | SearchEnd::Diverge { .. } => {}
                    other => prop_assert!(false, "unexpected end {other:?}"),
                }
            }
        }
    }

    /// local_knn on a fully-local fragment equals brute force.
    #[test]
    fn fragment_knn_is_exact(
        pts in proptest::collection::vec(point3(), 2..120),
        q in point3(),
        k in 1usize..12,
    ) {
        let f = fragment_over(&pts, 4, 4);
        let mut cands = Vec::new();
        let mut frontier = Vec::new();
        f.local_knn(f.root, &q, k, Metric::L2, &mut cands, &mut frontier, &mut NullSink);
        prop_assert!(frontier.is_empty());
        let mut want: Vec<(u64, Point<3>)> =
            pts.iter().map(|p| (Metric::L2.cmp_dist(&q, p), *p)).collect();
        want.sort_unstable_by_key(|(d, p)| (*d, p.coords));
        want.dedup();
        want.truncate(k);
        let mut got = cands;
        got.dedup();
        prop_assert_eq!(got, want);
    }

    /// remove() deletes exactly the requested instances. Where it frees no
    /// node, what it reports lowered turns a structure copy taken before it
    /// into the copy after it: counts, prefixes and chunk directory.
    #[test]
    fn fragment_remove_is_exact(
        pts in proptest::collection::vec(point3(), 3..120),
        stride in 1usize..40,
        cap in 4usize..17,
        dir_bits in 0u32..6,
    ) {
        let mut f = fragment_over(&pts, cap, dir_bits);
        let mut copy = f.structure_clone();
        let live = f.live_nodes();
        let to_del: Vec<Point<3>> = pts.iter().step_by(stride).copied().collect();
        let (mut removed, mut lowered) = (0, Vec::new());
        let _ = f.remove(&keyed(&to_del), &mut removed, &mut lowered, &mut NullSink);
        prop_assert_eq!(removed, to_del.len());
        if f.live_nodes() == live {
            copy.lower(&lowered);
            prop_assert_eq!(format!("{copy:?}"), format!("{:?}", f.structure_clone()));
        }
    }

    /// The candidate-list helpers maintain a sorted k-bounded prefix.
    #[test]
    fn push_candidate_invariants(
        items in proptest::collection::vec((0u64..1000, point3()), 0..40),
        k in 1usize..8,
    ) {
        let mut cands: Vec<(u64, Point<3>)> = Vec::new();
        for it in &items {
            push_candidate(&mut cands, k, *it, &mut NullSink);
            prop_assert!(cands.len() <= k);
            prop_assert!(cands.windows(2).all(|w| (w[0].0, w[0].1.coords) <= (w[1].0, w[1].1.coords)));
        }
        if cands.len() == k {
            prop_assert_eq!(knn_bound(&cands, k), cands[k - 1].0);
        } else {
            prop_assert_eq!(knn_bound(&cands, k), u64::MAX);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// structure_clone preserves routing: the cached copy ends at a stub
    /// exactly where the master ends at a leaf, and diverges exactly where
    /// the master diverges.
    #[test]
    fn cache_clone_routes_identically(
        pts in proptest::collection::vec(point3(), 2..100),
        probes in proptest::collection::vec(point3(), 1..30),
    ) {
        let f = fragment_over(&pts, 4, 4);
        let c = f.structure_clone();
        let root_pre = f.root_node().prefix;
        for p in pts.iter().chain(probes.iter()) {
            let k = ZKey::<3>::encode(p);
            if !root_pre.covers(k) {
                continue;
            }
            match (f.search(k, &mut NullSink), c.search(k, &mut NullSink)) {
                (SearchEnd::Leaf(a), SearchEnd::Stub(b)) => prop_assert_eq!(a, b),
                (SearchEnd::Diverge { parent: a, side: sa },
                 SearchEnd::Diverge { parent: b, side: sb }) => {
                    prop_assert_eq!((a, sa), (b, sb));
                }
                (m, cc) => prop_assert!(false, "master {m:?} vs cache {cc:?}"),
            }
        }
    }

    /// split_root partitions the fragment: counts and point multisets are
    /// preserved across the detached root and extracted children.
    #[test]
    fn split_root_preserves_points(
        pts in proptest::collection::vec(point3(), 20..150),
    ) {
        let mut f = fragment_over(&pts, 4, 0);
        let total_pts = f.local_points().len();
        let ids = vec![(100u64, 1u32), (101, 2)];
        let (root, frags) = f.split_root(ids.into_iter());
        let sum: usize = frags.iter().map(|fr| fr.local_points().len()).sum();
        prop_assert_eq!(sum, total_pts, "points preserved");
        match &root.kind {
            BKind::Internal { .. } => prop_assert!(frags.len() <= 2),
            BKind::Leaf { .. } => prop_assert_eq!(frags.len(), 1),
            BKind::LeafStub => prop_assert!(false, "master split can't stub"),
        }
    }

    /// The one ref editor. A canonical fragment has some of its subtrees
    /// cut out (`detach_children`), which leaves refs behind; then, after
    /// every one of a sequence of sync / replace / splice / graft edits,
    /// every internal counter is the sum of its children's, the edited ref
    /// reads back, a spliced root has given way to its surviving child, and
    /// the chunk directory is the one a rebuild from scratch gives.
    #[test]
    fn ref_edits_keep_counters_refs_and_directory(
        pts in proptest::collection::vec(point3(), 40..200),
        cut_below in 3u64..40,
        dir_bits in 0u32..5,
        edits in proptest::collection::vec((0u32..4, 0usize..64, 1u64..100), 1..12),
    ) {
        let mut f = fragment_over(&pts, 4, dir_bits);
        let mut next_id: MetaId = 100;
        let mut fresh_id = |_count: u64| {
            next_id += 1;
            (next_id, 0)
        };
        let mut cut: Vec<Fragment<3>> =
            f.detach_children(|n| n.count < cut_below, &mut fresh_id);
        prop_assert_eq!(checked_count(&f, f.root), pts.len() as u64);
        // One ref per fragment cut, carrying the count of what it replaced.
        let mut left_behind: Vec<(MetaId, u64)> =
            f.remote_children().iter().map(|r| (r.meta, r.sc)).collect();
        left_behind.sort_unstable();
        let cut_out: Vec<(MetaId, u64)> =
            cut.iter().map(|c| (c.meta, c.root_node().count)).collect();
        prop_assert_eq!(left_behind, cut_out);

        for (kind, pick, sc) in edits {
            let before = f.remote_children();
            let Some(&r) = before.get(pick % before.len().max(1)) else { return };
            // The other child of the root, when the root holds the ref.
            let root_sibling = match &f.root_node().kind {
                BKind::Internal { left: ChildRef::Remote(x), right } if x.meta == r.meta => {
                    Some(*right)
                }
                BKind::Internal { left, right: ChildRef::Remote(x) } if x.meta == r.meta => {
                    Some(*left)
                }
                _ => None,
            };
            let live = f.live_nodes();
            // A graft needs the fragment behind the ref; a ref that an
            // earlier replace made up has none and gets a sync instead.
            let behind = cut.iter().position(|c| kind == 3 && c.meta == r.meta);
            // The outcome, and the ref the slot must now read as.
            let (outcome, expect) = match (kind, behind) {
                (1, _) => {
                    let new = RemoteRef { meta: fresh_id(0).0, sc, ..r };
                    (f.edit_ref(r.meta, RefEdit::Replace(Some(new))), Some(new))
                }
                (2, _) => (f.edit_ref(r.meta, RefEdit::Replace(None)), None),
                (_, Some(i)) => {
                    let ids = std::iter::from_fn(|| Some(fresh_id(0)));
                    let (root, below) = cut.swap_remove(i).split_root(ids);
                    cut.extend(below);
                    // The host syncs a counter before it promotes.
                    f.edit_ref(r.meta, RefEdit::Sync { sc: root.count, prefix: None });
                    let own: Vec<RemoteRef<3>> = root.remote_refs().collect();
                    let outcome = f.edit_ref(r.meta, RefEdit::Graft(root));
                    prop_assert_eq!(f.live_nodes(), live + 1, "a graft adds one node");
                    let now = f.remote_children();
                    prop_assert!(own.iter().all(|o| now.contains(o)), "grafted refs read back");
                    (outcome, None)
                }
                _ => {
                    let edit = RefEdit::Sync { sc, prefix: Some(r.prefix) };
                    (f.edit_ref(r.meta, edit), Some(RemoteRef { sc, ..r }))
                }
            };
            match (kind, root_sibling) {
                // The splice took the root, whose other child was a ref
                // too: the fragment is that ref now, and is done for.
                (2, Some(ChildRef::Remote(survivor))) => {
                    let collapsed = matches!(
                        outcome, EditOutcome::RootCollapsed(to) if to == survivor
                    );
                    prop_assert!(collapsed, "{outcome:?}");
                    return;
                }
                (2, Some(ChildRef::Local(survivor))) => prop_assert_eq!(f.root, survivor),
                _ => {}
            }
            prop_assert!(matches!(outcome, EditOutcome::Done), "edit {kind}: {outcome:?}");
            let now = f.remote_children();
            prop_assert!(expect.is_none_or(|e| now.contains(&e)), "edited ref reads back");
            let stays = expect.is_some_and(|e| e.meta == r.meta);
            prop_assert_eq!(now.iter().any(|x| x.meta == r.meta), stays);
            if kind == 2 {
                prop_assert_eq!(f.live_nodes(), live - 1, "a splice takes one node");
            }
            checked_count(&f, f.root);
            let mut rebuilt = f.clone();
            rebuilt.set_dir_policy(f.dir_bits, f.dense_min);
            let dir = |f: &Fragment<3>| (f.chunk_dir().bits, f.chunk_dir().slots.clone());
            prop_assert_eq!(dir(&f), dir(&rebuilt), "chunk directory after edit {kind}");
        }
    }

    /// local_box_count equals a scan for random boxes, with dense chunking
    /// on and off.
    #[test]
    fn fragment_box_count_is_exact(
        pts in proptest::collection::vec(point3(), 2..120),
        a in point3(),
        b in point3(),
        dir_bits in 0u32..6,
    ) {
        use pim_geom::Aabb;
        let f = fragment_over(&pts, 4, dir_bits);
        let bx = Aabb::new(a, b);
        let mut frontier = Vec::new();
        let got = f.local_box_count(f.root, &bx, &mut frontier, &mut NullSink);
        prop_assert!(frontier.is_empty());
        let want = pts.iter().filter(|p| bx.contains(p)).count() as u64;
        prop_assert_eq!(got, want);
    }
}

/// The keys a cursor walk is checked on, in one of four orders: sorted,
/// reversed, as drawn (random) or each key twice in a row.
fn ordered(mut keys: Vec<ZKey<3>>, order: u8) -> Vec<ZKey<3>> {
    match order {
        0 => keys.sort_unstable(),
        1 => keys.sort_unstable_by(|a, b| b.cmp(a)),
        2 => {}
        _ => keys = keys.iter().flat_map(|&k| [k, k]).collect(),
    }
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A walk resumed from the previous key's path ends where a walk from
    /// the root ends, in any key order, on sparse and dense-mode masters
    /// and on their structure copies. Points are drawn from a small pool,
    /// so leaves hold runs of equal keys.
    #[test]
    fn cursor_walk_ends_where_the_root_walk_ends(
        pool in proptest::collection::vec(point3(), 1..40),
        picks in proptest::collection::vec(0usize..1000, 2..160),
        probes in proptest::collection::vec(point3(), 0..40),
        cap in 2usize..9,
        dir_bits in 0u32..6,
        order in 0u8..4,
    ) {
        let pts: Vec<Point<3>> = picks.iter().map(|&i| pool[i % pool.len()]).collect();
        let f = fragment_over(&pts, cap, dir_bits);
        let copy = f.structure_clone();
        let root = f.root_node().prefix;
        let keys: Vec<ZKey<3>> =
            pts.iter().chain(&probes).map(ZKey::encode).filter(|&k| root.covers(k)).collect();
        let keys = ordered(keys, order);
        for frag in [&f, &copy] {
            let mut cursor = Cursor::default();
            for &k in &keys {
                let resumed = frag.search_from(&mut cursor, k, &mut NullSink);
                let fresh = frag.search(k, &mut NullSink);
                prop_assert_eq!(format!("{resumed:?}"), format!("{fresh:?}"));
            }
        }
    }

    /// On a sorted run of keys the cursor walk charges fewer cycles than
    /// walks from the root: a key re-reads only the nodes below its common
    /// prefix with the previous key.
    #[test]
    fn sorted_cursor_walk_charges_less(
        pts in proptest::collection::vec(point3(), 64..200),
        dir_bits in 0u32..6,
    ) {
        let f = fragment_over(&pts, 4, dir_bits);
        let mut keys: Vec<ZKey<3>> = pts.iter().map(ZKey::encode).collect();
        keys.sort_unstable();
        let (mut resumed, mut fresh, mut cursor) = (PimCtx::new(), PimCtx::new(), Cursor::default());
        for &k in &keys {
            f.search_from(&mut cursor, k, &mut resumed);
            f.search(k, &mut fresh);
        }
        prop_assert!(resumed.cycles < fresh.cycles, "{} !< {}", resumed.cycles, fresh.cycles);
    }
}
