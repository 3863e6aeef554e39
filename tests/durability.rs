//! Crash-restart recovery reproduces the oracle byte-for-byte.
//!
//! The acceptance criterion for the durability layer: a seeded workload
//! interrupted at a batch boundary and recovered via checkpoint + WAL
//! replay must produce **byte-identical** query results, trace journals,
//! and metrics snapshots to an uninterrupted oracle run — at 1, 2, and 8
//! rayon threads. The only permitted divergence is the recovery marker
//! itself: the `HostCrash` count of `SimStats::faults`, which is
//! deliberately excluded from journals, metrics, and `total_faults()`.

use pim_zd_tree_repro::sim::trace::Journal;
use pim_zd_tree_repro::sim::wire::fnv1a;
use pim_zd_tree_repro::sim::{FaultKind, Metrics};
use pim_zd_tree_repro::{
    workloads, MachineConfig, Metric, PimZdConfig, PimZdTree, Point, Wal, WalReadMode,
};
use std::path::PathBuf;

const SEED: u64 = 4047;
const N: usize = 4_000;
const MODULES: usize = 8;

/// The seeded mutation schedule: checkpoint after `CKPT` batches, crash
/// after `CRASH`, finish at `BATCHES.len()`.
const CKPT: usize = 2;
const CRASH: usize = 4;

enum Op {
    Insert(u64, usize),
    Delete(usize, usize),
}

fn batches() -> Vec<(bool, Vec<Point<3>>)> {
    let base = workloads::uniform::<3>(N, SEED);
    let schedule = [
        Op::Insert(SEED + 10, 300),
        Op::Delete(0, 200),
        Op::Insert(SEED + 11, 250),
        Op::Delete(500, 150),
        Op::Insert(SEED + 12, 200),
        Op::Delete(900, 100),
    ];
    schedule
        .iter()
        .map(|op| match op {
            Op::Insert(seed, n) => (true, workloads::uniform::<3>(*n, *seed)),
            Op::Delete(off, n) => (false, base[*off..off + n].to_vec()),
        })
        .collect()
}

fn fresh_tree() -> PimZdTree<3> {
    let pts = workloads::uniform::<3>(N, SEED);
    let cfg = PimZdConfig::skew_resistant(MODULES);
    PimZdTree::build(&pts, cfg, MachineConfig::with_modules(MODULES))
}

fn apply(t: &mut PimZdTree<3>, batch: &(bool, Vec<Point<3>>)) {
    if batch.0 {
        t.batch_insert(&batch.1);
    } else {
        t.batch_delete(&batch.1);
    }
}

/// Everything observable after the post-checkpoint phase, byte-comparable.
#[derive(Debug, PartialEq, Eq)]
struct Artifacts {
    journal_jsonl: String,
    metrics_text: String,
    results: Vec<u64>,
    epoch: u64,
    len: usize,
}

/// Attaches fresh observers, applies `tail` batches, runs the query mix,
/// and collects the artifacts. Both the oracle and the recovered tree go
/// through this exact function, so any divergence is state, not harness.
fn observe(mut t: PimZdTree<3>, tail: &[(bool, Vec<Point<3>>)]) -> (Artifacts, u64) {
    let journal = Journal::new();
    t.set_journal(Some(journal.clone()));
    t.set_metrics(Metrics::enabled_new());

    for b in tail {
        apply(&mut t, b);
    }

    let mut results: Vec<u64> = Vec::new();
    let probes = workloads::uniform::<3>(400, SEED + 99);
    results.extend(t.batch_contains(&probes).iter().map(|&b| b as u64));
    for (d, p) in t.batch_knn(&probes[..200], 4, Metric::L2).iter().flatten() {
        results.push(d ^ u64::from(p.coords[0]));
    }
    let side = workloads::box_side_for_expected::<3>(N, 25.0);
    let boxes = workloads::box_queries(&probes, 150, side, SEED + 98);
    results.extend(t.batch_box_count(&boxes));

    let art = Artifacts {
        journal_jsonl: journal.to_jsonl(),
        metrics_text: t.metrics().snapshot_text().expect("metrics were attached"),
        results,
        epoch: t.epoch(),
        len: t.len(),
    };
    (art, t.sim_stats().faults_of(FaultKind::HostCrash))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pzd-durability-{}-{name}", std::process::id()))
}

/// One full scenario at the current thread count: oracle vs crash+recover.
fn run_scenario(tag: &str) -> Artifacts {
    let all = batches();
    let ckpt_path = tmp(&format!("{tag}.ckpt"));
    let wal_path = tmp(&format!("{tag}.wal"));

    // Oracle: uninterrupted run, observed from the checkpoint epoch on.
    let mut oracle = fresh_tree();
    for b in &all[..CKPT] {
        apply(&mut oracle, b);
    }
    let (want, oracle_crashes) = observe(oracle, &all[CKPT..]);
    assert_eq!(oracle_crashes, 0, "the oracle never crashes");
    assert_eq!(want.epoch, all.len() as u64);

    // Crashing run: checkpoint at the same epoch, log every later batch,
    // then die between batch boundaries by dropping the tree.
    let mut victim = fresh_tree();
    for b in &all[..CKPT] {
        apply(&mut victim, b);
    }
    victim.checkpoint_to(&ckpt_path).expect("checkpoint");
    victim.set_wal(Wal::create::<3>(&wal_path).expect("create wal"));
    for b in &all[CKPT..CRASH] {
        apply(&mut victim, b);
    }
    drop(victim); // host crash: everything volatile is gone

    // Recovery: restore the checkpoint, attach fresh observers *before*
    // replay so replayed batches journal exactly like the oracle's, replay
    // the WAL, then continue the remaining schedule.
    let mut revived = PimZdTree::<3>::restore_from(&ckpt_path).expect("restore");
    assert_eq!(revived.epoch(), CKPT as u64);
    let journal = Journal::new();
    revived.set_journal(Some(journal.clone()));
    revived.set_metrics(Metrics::enabled_new());
    let replayed = revived.replay_wal(&wal_path, WalReadMode::Recovery).expect("replay");
    assert_eq!(replayed, (CRASH - CKPT) as u64, "every logged batch replays");
    assert_eq!(revived.epoch(), CRASH as u64);
    assert_eq!(revived.sim_stats().faults_of(FaultKind::HostCrash), 1, "recovery is recorded once");

    // Continue the remaining schedule and queries on the same observers.
    let mut results: Vec<u64> = Vec::new();
    for b in &all[CRASH..] {
        apply(&mut revived, b);
    }
    let probes = workloads::uniform::<3>(400, SEED + 99);
    results.extend(revived.batch_contains(&probes).iter().map(|&b| b as u64));
    for (d, p) in revived.batch_knn(&probes[..200], 4, Metric::L2).iter().flatten() {
        results.push(d ^ u64::from(p.coords[0]));
    }
    let side = workloads::box_side_for_expected::<3>(N, 25.0);
    let boxes = workloads::box_queries(&probes, 150, side, SEED + 98);
    results.extend(revived.batch_box_count(&boxes));

    let got = Artifacts {
        journal_jsonl: journal.to_jsonl(),
        metrics_text: revived.metrics().snapshot_text().expect("metrics were attached"),
        results,
        epoch: revived.epoch(),
        len: revived.len(),
    };

    assert_eq!(got.epoch, want.epoch, "recovered run ends at the oracle epoch");
    assert_eq!(got.len, want.len, "recovered run holds the oracle point count");
    assert_eq!(got.results, want.results, "query results diverged after recovery");
    assert_eq!(got.journal_jsonl, want.journal_jsonl, "trace journal diverged after recovery");
    assert_eq!(got.metrics_text, want.metrics_text, "metrics diverged after recovery");

    let _ = std::fs::remove_file(&ckpt_path);
    let _ = std::fs::remove_file(&wal_path);
    want
}

#[test]
fn crash_recovery_is_byte_identical_across_thread_counts() {
    let baseline = rayon::ThreadPool::new(1).install(|| run_scenario("t1"));
    assert!(!baseline.journal_jsonl.is_empty(), "workload must journal rounds");
    for threads in [2usize, 8] {
        let pool = rayon::ThreadPool::new(threads);
        let tag = format!("t{threads}");
        let run = pool.install(|| run_scenario(&tag));
        assert_eq!(run, baseline, "durability artifacts diverged at {threads} threads");
    }
}

#[test]
fn recover_reattaches_the_wal_and_keeps_logging() {
    let all = batches();
    let ckpt_path = tmp("reattach.ckpt");
    let wal_path = tmp("reattach.wal");

    let mut victim = fresh_tree();
    for b in &all[..CKPT] {
        apply(&mut victim, b);
    }
    victim.checkpoint_to(&ckpt_path).expect("checkpoint");
    victim.set_wal(Wal::create::<3>(&wal_path).expect("create wal"));
    for b in &all[CKPT..CRASH] {
        apply(&mut victim, b);
    }
    drop(victim);

    // recover() = restore + replay + torn-tail truncation + re-append.
    let (mut revived, replayed) = PimZdTree::<3>::recover(&ckpt_path, &wal_path).expect("recover");
    assert_eq!(replayed, (CRASH - CKPT) as u64);
    assert_eq!(revived.epoch(), CRASH as u64);

    // New batches land in the same log; a second crash recovers them too.
    for b in &all[CRASH..] {
        apply(&mut revived, b);
    }
    let want_len = revived.len();
    drop(revived);

    let (again, replayed2) = PimZdTree::<3>::recover(&ckpt_path, &wal_path).expect("re-recover");
    assert_eq!(replayed2, (all.len() - CKPT) as u64, "full log replays from the checkpoint");
    assert_eq!(again.epoch(), all.len() as u64);
    assert_eq!(again.len(), want_len);
    assert_eq!(
        again.sim_stats().faults_of(FaultKind::HostCrash),
        1,
        "one recovery event per restore"
    );

    let _ = std::fs::remove_file(&ckpt_path);
    let _ = std::fs::remove_file(&wal_path);
}

/// Satellite pin for the SoA leaf conversion: checkpoint → restore →
/// checkpoint must stay **byte-identical** now that leaf payloads are
/// stored lane-major in memory. The `PZDCKPT1` wire layout is unchanged —
/// per point a little-endian `u64` key then D little-endian `u32` coords —
/// so a checkpoint written by the SoA tree re-serializes to the same bytes
/// after a full AoS→SoA rebuild through `restore_bytes`. The tree is
/// mutated first so leaves have been through the merge/remove paths, not
/// just the bulk build.
#[test]
fn checkpoint_restore_checkpoint_is_byte_identical_with_soa_leaves() {
    let all = batches();
    let mut t = fresh_tree();
    for b in &all {
        apply(&mut t, b);
    }

    let first = t.checkpoint_bytes();
    assert_eq!(&first[..8], b"PZDCKPT1", "format magic is pinned");

    let restored = PimZdTree::<3>::restore_bytes(&first).expect("restore");
    assert_eq!(restored.len(), t.len());
    assert_eq!(restored.epoch(), t.epoch());
    let second = restored.checkpoint_bytes();
    assert_eq!(first, second, "re-serialization must be byte-identical");

    // And the restored tree answers queries identically.
    let probes = workloads::uniform::<3>(200, SEED + 77);
    let mut a = t;
    let mut b = restored;
    assert_eq!(a.batch_contains(&probes), b.batch_contains(&probes));
    assert_eq!(
        a.batch_knn(&probes[..50], 5, Metric::L2),
        b.batch_knn(&probes[..50], 5, Metric::L2)
    );
}

/// [`PimZdTree::data_digest`] after every batch of a schedule, folded into
/// one value: data that moves in one batch and back in the next still
/// shows.
#[derive(Default)]
struct DataTrail(Vec<u8>);

impl DataTrail {
    fn after(&mut self, t: &PimZdTree<3>) {
        self.0.extend(t.data_digest().to_le_bytes());
    }

    fn digest(&self) -> u64 {
        fnv1a(&self.0)
    }
}

/// The fragment layout and the data, pinned. A checkpoint image holds every
/// arena in node order with its free list and chunk directory, every meta
/// id, every lazy counter, every structure cache and the simulator's
/// counters, so one digest of it after the bulk build and one after a
/// schedule that goes through each maintenance path say that a change to
/// how fragments are built or edited moved nothing. The schedule: growth
/// (demotion, promotion), a fat leaf of duplicates promoted as it is, a
/// delete that splices fragments out in cascades, L0 collapsing into its
/// last fragment twice (its own points removed; its other child spliced
/// away), regrowth. The fifth input lowers the fragment-size budget so that
/// the carve-time cap and `rechunk` run, which neither preset reaches at
/// this scale; its deletes dissolve chains of fragments in one batch. The
/// sixth is the repo benchmark's `batch_churn` in small: osm-like points,
/// the skew-resistant preset, a jittered batch inserted, looked up and
/// deleted, twice.
///
/// Beside each layout pair sits a pair of data digests: of the built tree,
/// and the trail of the data after every batch. They leave out caches,
/// cache bookkeeping, costs and the module each master sits on, so a change
/// to how maintenance is sent or where masters are placed that moves the
/// layout digests must still hold these.
#[test]
fn fragment_layout_digests_are_pinned() {
    type Gen = fn(usize, u64) -> Vec<Point<3>>;
    let skew = PimZdConfig::skew_resistant(MODULES);
    let thr = PimZdConfig::throughput_optimized(N as u64, MODULES);
    let tight = PimZdConfig { max_fragment_nodes: 12, ..PimZdConfig::skew_resistant(64) };
    let cases: [(&str, Gen, PimZdConfig, usize); 5] = [
        ("uniform/throughput", workloads::uniform::<3>, thr, MODULES),
        ("uniform/skew", workloads::uniform::<3>, skew, MODULES),
        ("osm/throughput", workloads::osm_like::<3>, thr, MODULES),
        ("osm/skew", workloads::osm_like::<3>, skew, MODULES),
        ("osm/skew, 12-node fragments", workloads::osm_like::<3>, tight, 64),
    ];
    // One `[built, churned]` pair per case. The built digests of the first
    // three were recorded at commit 0d5d309; the others moved with the child
    // lists (the image holds them). The churned ones moved again when the
    // apply round began to carry the copies back: the images count fewer
    // rounds and hold copies that may count less than their masters. They
    // moved once more when SEARCH began to walk its batch in key order with
    // resumable descents: an image holds the host's cache state and the
    // machine's cycle counters, and the searches read fewer nodes. And once
    // more when insert and delete stopped sorting SEARCH's order again: the
    // host's cycle counters fell by the sorts' charges, nothing else moved.
    // The sixth churned half moved when the host began to keep its pulls
    // until a round could write a master: the delete reuses what the lookup
    // before it pulled, which moves the image's round and byte counters,
    // its staging cursor and the host cache state. All twelve moved with
    // checkpoint version 2, which no longer writes the simulator's per-round
    // imbalance history or the `accounting` flag: each version-1 image, with
    // those fields cut out and its header and two crcs rewritten, is the
    // version-2 image of the same tree byte for byte. All twelve moved again
    // with version 3, which writes no round id beside `SimStats::rounds` and
    // keeps the fault counts in `SimStats`: each version-2 image, with the
    // round id cut out, the fault-log fields in their new order and its
    // header and crcs rewritten, is the version-3 image byte for byte. All
    // twelve moved when masters began to go to the least-loaded of four
    // hashed modules: an image holds each master's module and the machine's
    // per-module counters; the data digests below held.
    let want_layout = [
        [0xc4fe33f97743536c, 0xc21dbbd5b2b91f25],
        [0xece5b90fc7595748, 0xd26030f2a3959308],
        [0xc035f7ef8c678099, 0x09c54a2b0fa32b51],
        [0x3d6996e18afbf7f0, 0x5b5355fdddb5b184],
        [0x54260d0c74fd7d3b, 0xb90b445bcd08aa91],
        [0x40b2cf119eb6aef6, 0xa5393dcb13a0fdde],
    ];

    // One `[built, trail]` pair per case, recorded at commit c72b0f7 and
    // moved twice since: where the bulk build began to list the chunks it
    // cuts among their parents' children (the digest hashes child lists;
    // without them it is unchanged by that fix), and where the digest
    // stopped hashing each directory entry's module, so that where a master
    // sits is layout, not data.
    let want_data = [
        [0x8cc8ab0a418f959e, 0x661237eaacc0ef8b],
        [0x26fb65e87f2e90ba, 0x20fee207228a6125],
        [0x5e482d13f36482d3, 0xb14d130d9d1c7cc4],
        [0x296a837853c9c5db, 0x49f1439f45b2b045],
        [0xe92c73dca39cf607, 0x09e2f9a90d3f9e26],
        [0x0f0317dcdac0d73d, 0x4089fb521e8193d4u64],
    ];
    let near: Vec<Point<3>> = (0..10).map(|i| Point::new([5 + i, 5, 5])).collect();
    let far: Vec<Point<3>> = (0..20).map(|i| Point::new([2_000_000 + i, 7, 7])).collect();
    let (mut layout, mut data) = (Vec::new(), Vec::new());
    for (name, gen, cfg, modules) in cases {
        let base = gen(N, SEED);
        let grown = gen(3_000, SEED + 1);
        let hot = vec![base[17]; (3 * cfg.theta_l0 as usize).min(600)];
        let mut t = PimZdTree::build(&base, cfg, MachineConfig::with_modules(modules));
        let built = fnv1a(&t.checkpoint_bytes());
        let built_data = t.data_digest();
        let mut trail = DataTrail::default();

        t.batch_insert(&grown);
        trail.after(&t);
        t.batch_insert(&hot);
        trail.after(&t);
        t.batch_insert(&near);
        trail.after(&t);
        assert_eq!(t.batch_delete(&base), N, "{name}");
        trail.after(&t);
        assert_eq!(t.batch_delete(&grown), grown.len(), "{name}");
        trail.after(&t);
        // L0 is the fat leaf and a ref to the fragment of `near`.
        assert_eq!(t.batch_delete(&hot), hot.len(), "{name}");
        trail.after(&t);
        t.batch_insert(&far);
        trail.after(&t);
        assert_eq!(t.batch_delete(&far), far.len(), "{name}");
        trail.after(&t);
        assert_eq!(t.len(), near.len(), "{name}");
        t.batch_insert(&gen(500, SEED + 2));
        trail.after(&t);
        layout.push([built, fnv1a(&t.checkpoint_bytes())]);
        data.push([built_data, trail.digest()]);
    }

    let base = workloads::osm_like::<3>(8_000, SEED);
    let mut t =
        PimZdTree::build(&base, PimZdConfig::skew_resistant(64), MachineConfig::with_modules(64));
    let built = fnv1a(&t.checkpoint_bytes());
    let built_data = t.data_digest();
    let mut trail = DataTrail::default();
    for rep in 0..2 {
        let batch = workloads::point_queries(&base, 1_000, 4, SEED ^ (0x400 + rep));
        t.batch_insert(&batch);
        trail.after(&t);
        assert!(t.batch_contains(&batch).into_iter().all(|found| found));
        assert_eq!(t.batch_delete(&batch), batch.len());
        trail.after(&t);
    }
    layout.push([built, fnv1a(&t.checkpoint_bytes())]);
    data.push([built_data, trail.digest()]);

    assert_eq!(data, want_data, "data moved; the digests now are {data:#018x?}");
    assert_eq!(layout, want_layout, "layout moved; the digests now are {layout:#018x?}");
}

/// The images above are fault-free, run default toggles and the default
/// transfer API and CPU, so a swap among fields that are zero or constant
/// in all of them would leave their digests standing. This one sets every
/// configuration field away from its preset and from its neighbours, runs a
/// 5 % fault plan with a module killed mid-schedule (fault counters, dead
/// mask, salvage, re-homing), pulls a hot fragment to the host (staging
/// addresses), shrinks the LLC until L0 counts as replicated, and crashes
/// and recovers once (`host_crashes`). The WAL that recorded the schedule
/// is pinned beside the final image: nothing else pins log bytes.
#[test]
fn every_field_image_and_its_wal_are_pinned() {
    use pim_zd_tree_repro::index::Toggles;
    use pim_zd_tree_repro::memsim::{CacheConfig, CpuConfig};
    use pim_zd_tree_repro::sim::config::TransferApi;
    use pim_zd_tree_repro::{FaultConfig, FaultPlan};

    let cfg = PimZdConfig {
        theta_l0: 40,
        theta_l1: 6,
        chunk_b: 16,
        leaf_cap: 12,
        k_pull_l1: 9,
        k_pull_l2: 5,
        imbalance_factor: 2.5,
        delta_l1: 3,
        placement_seed: 0x005e_edf1_e1d5,
        toggles: Toggles { lazy_counters: false, coarse_fine_knn: false, ..Toggles::default() },
        max_fragment_nodes: 96,
    };
    let machine = MachineConfig {
        n_modules: MODULES,
        pim_freq_hz: 410e6,
        pim_local_bw: 590e6,
        channel_bw_per_module: 270e6,
        channel_bw_aggregate: 33.1e9,
        mux_switch_s: 65e-6,
        api: TransferApi::Sdk,
        host_threads: 28,
        local_mem_bytes: 48 << 20,
        cpu: CpuConfig {
            freq_hz: 3.1e9,
            threads: 14,
            parallel_efficiency: 0.63,
            llc: CacheConfig { capacity_bytes: 3 << 10, line_bytes: 128, ways: 3 },
            dram_bw_bytes_per_s: 19e9,
        },
    };
    let all = batches();
    let ckpt_path = tmp("every-field.ckpt");
    let wal_path = tmp("every-field.wal");

    let mut t = PimZdTree::build(&workloads::uniform::<3>(N, SEED), cfg, machine);
    t.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(0.05, SEED + 5))));
    t.set_wal(Wal::create::<3>(&wal_path).expect("create wal"));
    for (i, b) in all.iter().enumerate() {
        if i == 2 {
            t.kill_module(3);
            t.batch_contains(&vec![b.1[7]; 400]);
        }
        if i == CRASH {
            t.checkpoint_to(&ckpt_path).expect("checkpoint");
        }
        apply(&mut t, b);
    }
    drop(t);
    let (t, replayed) = PimZdTree::<3>::recover(&ckpt_path, &wal_path).expect("recover");
    assert_eq!(replayed, (all.len() - CRASH) as u64);

    let log = t.sim_stats();
    let by_kind = FaultKind::ALL.map(|kind| (kind.name(), log.faults_of(kind)));
    for (name, n) in by_kind.into_iter().chain([
        ("retries", log.retries),
        ("retransmitted_bytes", log.retransmitted_bytes),
        ("salvaged_bytes", log.salvaged_bytes),
    ]) {
        assert!(n > 0, "{name} is zero");
    }
    assert!(log.timeout_s > 0.0);
    assert!(t.n_live_modules() < MODULES, "a module is dead");

    let image = t.checkpoint_bytes();
    let again = PimZdTree::<3>::restore_bytes(&image).expect("restore").checkpoint_bytes();
    assert_eq!(again, image, "re-serialization must be byte-identical");
    let got = [fnv1a(&image), fnv1a(&std::fs::read(&wal_path).expect("read wal"))];
    let _ = std::fs::remove_file(&ckpt_path);
    let _ = std::fs::remove_file(&wal_path);
    // The image moved when SEARCH began to walk its batch in key order (its
    // cache state and cycle counters), and again when insert and delete
    // stopped sorting SEARCH's order again (cycle counters only), and with
    // checkpoint version 2 (no imbalance history, no `accounting` flag;
    // every other byte equal), and with version 3 (no round id, the fault
    // counts in `SimStats`; every other byte equal), and when masters began
    // to go to the least-loaded of four hashed modules (each master's
    // module, so the rounds' costs and what the killed module held); the
    // WAL did not.
    let want = [0xddd92d83be589460, 0x3c53ba074c6bcaebu64];
    assert_eq!(got, want, "[image, wal] moved; the digests now are {got:#018x?}");
}
