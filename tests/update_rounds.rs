//! An update batch's maintenance, round by round.
//!
//! After its SEARCH and apply rounds, an insert or delete batch maintains
//! the tree in two rounds: M1 carries the demoted fragments' masters, the
//! whole upward counter propagation, every due root split and — when no
//! split is due — the structure pulls of the one cache reconcile; M2
//! installs and drops the copies. A split's children are known only from
//! its replies, so a batch that splits takes one round more: its moved
//! masters and the pulls ride M2, and the copies M3. These tests read the
//! rounds off the journal (phase `insert/maintain`, `delete/maintain`) and
//! `last_op_stats().rounds`, and the cache traffic off the metrics registry.

use pim_zd_tree_repro::sim::trace::{Journal, JournalSink};
use pim_zd_tree_repro::sim::Metrics;
use pim_zd_tree_repro::{workloads, MachineConfig, PimZdConfig, PimZdTree, Point};

const SEED: u64 = 4047;

/// A skew-resistant tree over `n` osm-like points on `p` modules, journaled
/// and metered.
fn tree(n: usize, p: usize) -> (Vec<Point<3>>, PimZdTree<3>, Journal, Metrics) {
    let base = workloads::osm_like::<3>(n, SEED);
    let mut t =
        PimZdTree::build(&base, PimZdConfig::skew_resistant(p), MachineConfig::with_modules(p));
    let (sink, journal) = JournalSink::new();
    t.set_trace_sink(Box::new(sink));
    let metrics = Metrics::enabled_new();
    t.set_metrics(metrics.clone());
    (base, t, journal, metrics)
}

/// What one batch sent during maintenance.
struct Maintenance {
    /// Tasks per maintenance round, in order.
    rounds: Vec<u64>,
    /// Structure pulls, copy installs and copy drops.
    pulls: u64,
    installs: u64,
    drops: u64,
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
            .with(|m| {
                ["host_cache_pulls_total", "host_cache_installs_total", "host_cache_drops_total"]
                    .map(|name| m.counter(name, &[]).unwrap_or(0))
            })
            .expect("metrics are attached")
    };
    let (seen, before) = (journal.snapshot().len(), counters());
    batch(t);
    let after = counters();
    let records = journal.snapshot().split_off(seen);
    assert_eq!(t.last_op_stats().rounds, records.len() as u64, "{op}: rounds of the batch");
    let label = format!("{op}/maintain");
    Maintenance {
        rounds: records.iter().filter(|r| r.phase == label).map(|r| r.tasks).collect(),
        pulls: after[0] - before[0],
        installs: after[1] - before[1],
        drops: after[2] - before[2],
    }
}

/// With no split due, maintenance is two rounds, and the first carries the
/// whole counter propagation beside the structure pulls: the `SyncChild`
/// messages a round per propagation level would send, all of them (541 +
/// 30, 549 + 36 and 505 + 33 over two levels each). The second is the
/// copies' installs and drops, nothing else.
#[test]
fn counter_propagation_and_cache_pulls_share_one_round() {
    let (base, mut t, journal, metrics) = tree(20_000, 256);
    let thinned: Vec<Point<3>> = base.iter().step_by(10).copied().collect();
    let jittered = workloads::point_queries(&base, 2_000, 4, SEED ^ 0x400);
    let batches: [(&str, &[Point<3>], u64); 3] =
        [("delete", &thinned, 571), ("insert", &jittered, 585), ("delete", &jittered, 538)];
    for (op, batch, syncs) in batches {
        let m = maintain(&mut t, &journal, &metrics, op, |t| {
            if op == "insert" {
                t.batch_insert(batch);
            } else {
                assert_eq!(t.batch_delete(batch), batch.len());
            }
        });
        assert_eq!(m.rounds.len(), 2, "{op}: maintenance rounds {:?}", m.rounds);
        assert_eq!(m.rounds[0] - m.pulls, syncs, "{op}: counter syncs in M1");
        assert_eq!(m.rounds[1], m.installs + m.drops, "{op}: M2 is the copies");
        assert!(m.pulls > 0 && m.installs >= m.pulls, "{op}: a reconcile ran");
    }
}

/// A batch that promotes takes one round more. Its first maintenance round
/// holds the counter syncs (117, all of one level) and the three
/// promotions' root splits; the split children's masters and the pulls
/// follow, then the copies — among them those of the fragments the
/// promotions re-parented.
#[test]
fn a_split_adds_one_round() {
    let (base, mut t, journal, metrics) = tree(8_000, 64);
    let batch = workloads::point_queries(&base, 1_000, 4, SEED ^ 0x400);
    let m = maintain(&mut t, &journal, &metrics, "insert", |t| t.batch_insert(&batch));
    assert_eq!(m.rounds.len(), 3, "maintenance rounds {:?}", m.rounds);
    assert_eq!(m.rounds[0], 117 + 3, "M1: the syncs and the splits");
    assert_eq!(m.rounds[2], m.installs + m.drops, "M3 is the copies");
    assert!(m.rounds[1] > m.pulls, "M2: moved masters and pulls");

    let m = maintain(&mut t, &journal, &metrics, "delete", |t| {
        assert_eq!(t.batch_delete(&batch), batch.len());
    });
    assert_eq!(m.rounds.len(), 2, "a delete splits nothing: {:?}", m.rounds);
}
