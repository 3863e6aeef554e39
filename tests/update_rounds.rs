//! An update batch's maintenance, round by round.
//!
//! After its SEARCH and apply rounds, an insert or delete batch maintains
//! the tree. The apply round's replies bring back what the structure copies
//! need — a copy of a fragment whose shape changed, the lowered counts of
//! one a delete only thinned — so the first maintenance round, M1, carries
//! the demoted fragments' masters, the whole upward counter propagation and
//! every due root split, and, when nothing splits and nothing lacks a copy
//! no reply brought, the copies' installs, patches and drops as well: one
//! round. A flip into L1 needs a copy nothing brought, and a split's
//! children are known only from its replies; either way M1 carries the
//! structure pulls, and M2 the copies (after a split, beside the children's
//! moved masters): two rounds. These tests read the rounds off the journal
//! (phase `insert/maintain`, `delete/maintain`) and `last_op_stats().rounds`,
//! and the cache traffic off the metrics registry.

mod common;

use common::HOST_CACHE_COUNTERS;
use pim_zd_tree_repro::sim::trace::Journal;
use pim_zd_tree_repro::sim::Metrics;
use pim_zd_tree_repro::{workloads, MachineConfig, PimZdConfig, PimZdTree, Point};

const SEED: u64 = 4047;

/// A skew-resistant tree over `n` osm-like points on `p` modules, journaled
/// and metered.
fn tree(n: usize, p: usize) -> (Vec<Point<3>>, PimZdTree<3>, Journal, Metrics) {
    let base = workloads::osm_like::<3>(n, SEED);
    let mut t =
        PimZdTree::build(&base, PimZdConfig::skew_resistant(p), MachineConfig::with_modules(p));
    let journal = Journal::new();
    t.set_journal(Some(journal.clone()));
    let metrics = Metrics::enabled_new();
    t.set_metrics(metrics.clone());
    (base, t, journal, metrics)
}

/// What one batch sent during maintenance.
#[derive(Debug, PartialEq)]
struct Maintenance {
    /// Tasks per maintenance round, in order.
    rounds: Vec<u64>,
    /// Structure pulls, copy installs, copy drops, count patches, and the
    /// metas that flipped layer.
    pulls: u64,
    installs: u64,
    drops: u64,
    patches: u64,
    flips: u64,
}

impl Maintenance {
    /// The tasks that bring copies up to date.
    fn copies(&self) -> u64 {
        self.installs + self.drops + self.patches
    }
}

/// Runs `batch` (an insert or a delete) and reads its maintenance off the
/// journal and the registry; checks that `last_op_stats` counts every round
/// the batch journaled.
fn maintain(
    t: &mut PimZdTree<3>,
    journal: &Journal,
    metrics: &Metrics,
    op: &str,
    batch: impl FnOnce(&mut PimZdTree<3>),
) -> Maintenance {
    let counters = || {
        metrics
            .with(|m| HOST_CACHE_COUNTERS.map(|name| m.counter(name, &[]).unwrap_or(0)))
            .expect("metrics are attached")
    };
    let (seen, before) = (journal.snapshot().len(), counters());
    batch(t);
    let sent = {
        let after = counters();
        [0, 1, 2, 3, 4].map(|i| after[i] - before[i])
    };
    let records = journal.snapshot().split_off(seen);
    assert_eq!(t.last_op_stats().rounds, records.len() as u64, "{op}: rounds of the batch");
    let label = format!("{op}/maintain");
    Maintenance {
        rounds: records.iter().filter(|r| r.phase == label).map(|r| r.tasks).collect(),
        pulls: sent[0],
        installs: sent[1],
        drops: sent[2],
        patches: sent[3],
        flips: sent[4],
    }
}

/// With no split due, a batch maintains in one round unless a flip into L1
/// leaves a meta needing copies no reply brought. M1 carries the whole
/// counter propagation either way (562, 585 and 536 messages here, none for
/// the first insert), and the copies when nothing is pulled. A sync or a
/// copy goes to every module that holds the meta's master or one of its
/// cache targets, so these counts move with where masters are placed:
///
/// * a few points that flip nothing: one round, five copies of fragments
///   that grew, all back with the apply round;
/// * the deletes thin fragments, and most of what their copies hear is a
///   patch of lowered counts; they flip metas out of L1, which costs drops,
///   never pulls: one round;
/// * the jittered insert flips 72 metas into L1: each is pulled in M1 and
///   installed in M2, beside the copies of the fragments that grew: two.
#[test]
fn a_batch_pulls_only_for_a_flip_into_l1() {
    let (base, mut t, journal, metrics) = tree(20_000, 256);
    let thinned: Vec<Point<3>> = base.iter().step_by(10).copied().collect();
    let jittered = workloads::point_queries(&base, 2_000, 4, SEED ^ 0x400);
    let few = workloads::point_queries(&base, 50, 4, SEED ^ 0x50b);
    let batches: [(&str, &[Point<3>]); 4] =
        [("insert", &few), ("delete", &thinned), ("insert", &jittered), ("delete", &jittered)];
    let mut seen = Vec::new();
    for (op, batch) in batches {
        let m = maintain(&mut t, &journal, &metrics, op, |t| {
            if op == "insert" {
                t.batch_insert(batch);
            } else {
                assert_eq!(t.batch_delete(batch), batch.len());
            }
        });
        // What M1 carries besides pulls and copies: syncs (and demoted
        // masters, of which these batches have none).
        let syncs = if m.pulls == 0 {
            assert_eq!(m.rounds.len(), 1, "{op}: {m:?}");
            m.rounds[0] - m.copies()
        } else {
            assert_eq!(m.rounds[1..], [m.copies()], "{op}: M2 is the copies, {m:?}");
            m.rounds[0] - m.pulls
        };
        seen.push([m.rounds.len() as u64, syncs, m.pulls, m.installs, m.drops, m.patches]);
        assert!(m.pulls <= m.flips, "{op}: pulls only for flips into L1, {m:?}");
    }
    assert_eq!(
        seen,
        [
            [1, 0, 0, 5, 0, 0],
            [1, 562, 0, 35, 32, 540],
            [2, 585, 72, 211, 0, 0],
            [1, 536, 0, 104, 107, 483],
        ],
        "[rounds, syncs, pulls, installs, drops, patches] per batch"
    );
}

/// A batch that promotes takes one round more. Its first maintenance round
/// holds the counter syncs (117, all of one level), the three promotions'
/// root splits and the pulls of what will hang under the split children
/// and of the metas that flip into L1; the second, the split children's
/// masters and every copy. The delete after it splits nothing and pulls
/// nothing: one round.
#[test]
fn a_split_adds_one_round() {
    let (base, mut t, journal, metrics) = tree(8_000, 64);
    let batch = workloads::point_queries(&base, 1_000, 4, SEED ^ 0x400);
    let m = maintain(&mut t, &journal, &metrics, "insert", |t| t.batch_insert(&batch));
    assert_eq!(m.rounds.len(), 2, "maintenance rounds {m:?}");
    assert_eq!(m.rounds[0], 117 + 3 + m.pulls, "M1: the syncs, the splits and the pulls");
    assert_eq!(m.rounds[1], 6 + m.copies(), "M2: three splits' two children each, and copies");
    assert_eq!([m.pulls, m.installs, m.drops, m.patches, m.flips], [72, 76, 37, 0, 37]);

    let m = maintain(&mut t, &journal, &metrics, "delete", |t| {
        assert_eq!(t.batch_delete(&batch), batch.len());
    });
    assert_eq!(m.rounds, [257], "a delete splits nothing: {m:?}");
    assert_eq!([m.pulls, m.installs, m.drops, m.patches, m.flips], [0, 4, 37, 115, 37]);
}

/// The host keeps what it pulled until a round that may write a master, so
/// a lookup leaves the hot fragments of a skew-resistant tree on the host
/// and the delete after it reuses them: its SEARCH sends no pull round, and
/// every other round carries the same tasks. The same delete right after
/// the insert pulls the 25 fragments again, since the insert's apply round
/// may have written any of them. Both trees answer alike and end with the
/// same data.
#[test]
fn a_delete_after_a_lookup_reuses_its_pulls() {
    let [(deleted, digest, tasks, reused), (deleted_b, digest_b, tasks_b, reused_b)] =
        [true, false].map(|lookup| {
            let (base, mut t, journal, metrics) = tree(20_000, 256);
            let batch = workloads::point_queries(&base, 2_000, 4, SEED ^ 0x400);
            let reused = || {
                metrics.with(|m| m.counter("host_pulls_reused_total", &[]).unwrap_or(0)).unwrap()
            };
            t.batch_insert(&batch);
            if lookup {
                assert!(t.batch_contains(&batch).iter().all(|&f| f), "the lookup finds them all");
            }
            let (seen, before) = (journal.snapshot().len(), reused());
            let deleted = t.batch_delete(&batch);
            let tasks: Vec<u64> = journal.snapshot()[seen..].iter().map(|r| r.tasks).collect();
            assert_eq!(t.last_op_stats().rounds, tasks.len() as u64, "lookup={lookup}");
            (deleted, t.data_digest(), tasks, reused() - before)
        });
    assert_eq!(deleted, deleted_b, "the deletes remove alike");
    assert_eq!(digest, digest_b, "the trees hold the same data");
    assert_eq!((reused, reused_b), (25, 0), "fragments the delete found held");
    assert_eq!(tasks_b[0], reused, "without the lookup, the delete's first round pulls them");
    assert_eq!(tasks, tasks_b[1..], "after it, the delete sends the rest and no more");
}
