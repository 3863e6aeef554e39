//! **E-D durability** — cost of the crash-safety layer: checkpoint write,
//! checkpoint restore, WAL-logged batch overhead, and full crash recovery
//! (restore + replay), with artifact sizes.
//!
//! The recovered tree is validated against an uninterrupted oracle before
//! any number is reported: identical epoch, cardinality, and a probe-query
//! fingerprint. Each step is timed in host wall-clock seconds, printed
//! beside its artifact bytes.
//!
//! ```sh
//! cargo run --release -p pim-bench --bin fig_durability
//! ```
//!
//! The steps time a fault-free host and write no round journal, and a perf
//! report holds only simulated fields: `--fault-rate`, `--trace` and
//! `--json` exit 2.

use pim_bench::{BenchArgs, PerfSink};
use pim_sim::MachineConfig;
use pim_workloads::uniform;
use pim_zd_tree::{PimZdConfig, PimZdTree, Wal};
use std::path::PathBuf;
use std::time::Instant;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pzd-figdur-{}-{name}", std::process::id()))
}

fn probe_fingerprint(t: &mut PimZdTree<3>, seed: u64) -> u64 {
    let probes = uniform::<3>(512, seed);
    let mut acc = 0u64;
    for (i, hit) in t.batch_contains(&probes).iter().enumerate() {
        acc = acc.wrapping_mul(0x100000001b3).wrapping_add(i as u64 ^ u64::from(*hit));
    }
    acc
}

fn main() {
    let args = BenchArgs::parse();
    args.refuse(&["--fault-rate", "--trace", "--json"]);
    let n_batches = 4usize;
    let per_batch = args.batch.min(args.points / 4).max(1_000);

    println!(
        "== E-D durability: checkpoint/WAL/recovery costs ({} pts, {} modules, {} logged batches x {}) ==\n",
        args.points, args.modules, n_batches, per_batch
    );

    let ckpt_path = tmp("ckpt");
    let wal_path = tmp("wal");
    let pts = uniform::<3>(args.points, args.seed);
    let batches: Vec<Vec<_>> =
        (0..n_batches).map(|i| uniform::<3>(per_batch, args.seed + 100 + i as u64)).collect();
    let cfg = PimZdConfig::skew_resistant(args.modules);

    let perf = PerfSink::new("fig_durability", &args);
    let mut rows: Vec<(String, f64, u64)> = Vec::new();

    // Oracle: the same schedule without any durability machinery.
    let mut oracle = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(args.modules));
    let t0 = Instant::now();
    for b in &batches {
        oracle.batch_insert(b);
    }
    let plain_s = t0.elapsed().as_secs_f64();
    let want_fp = probe_fingerprint(&mut oracle, args.seed + 999);
    let (want_epoch, want_len) = (oracle.epoch(), oracle.len());
    drop(oracle);

    // Checkpoint write (atomic tmp+rename, fsynced).
    let victim0 = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(args.modules));
    let t0 = Instant::now();
    let ckpt_bytes = victim0.checkpoint_to(&ckpt_path).expect("checkpoint");
    let s = t0.elapsed().as_secs_f64();
    rows.push(("checkpoint-write".into(), s, ckpt_bytes));

    // WAL-logged batches (every append is fsynced) vs the plain schedule.
    let mut victim = victim0;
    victim.set_wal(Wal::create::<3>(&wal_path).expect("create wal"));
    let t0 = Instant::now();
    for b in &batches {
        victim.batch_insert(b);
    }
    let logged_s = t0.elapsed().as_secs_f64();
    let wal_bytes = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
    rows.push(("wal-logged-batches".into(), logged_s, wal_bytes));
    drop(victim); // simulated host crash: volatile state is gone

    // Checkpoint restore alone.
    let t0 = Instant::now();
    let restored = PimZdTree::<3>::restore_from(&ckpt_path).expect("restore");
    let s = t0.elapsed().as_secs_f64();
    rows.push(("checkpoint-restore".into(), s, ckpt_bytes));
    drop(restored);

    // Full crash recovery: restore + replay every logged batch.
    let t0 = Instant::now();
    let (mut revived, replayed) = PimZdTree::<3>::recover(&ckpt_path, &wal_path).expect("recover");
    let s = t0.elapsed().as_secs_f64();
    rows.push(("crash-recovery".into(), s, ckpt_bytes + wal_bytes));

    assert_eq!(replayed, n_batches as u64, "every logged batch must replay");
    assert_eq!(revived.epoch(), want_epoch, "recovered epoch diverged from the oracle");
    assert_eq!(revived.len(), want_len, "recovered cardinality diverged from the oracle");
    assert_eq!(
        probe_fingerprint(&mut revived, args.seed + 999),
        want_fp,
        "recovered query results diverged from the oracle"
    );
    println!("{:<22} {:>12} {:>14}", "step", "seconds", "bytes");
    println!("{}", "-".repeat(50));
    for (step, s, bytes) in &rows {
        println!("{step:<22} {s:>12.4} {bytes:>14}");
    }
    println!(
        "\nWAL overhead: {:+.1}% wall over unlogged batches ({:.4}s vs {:.4}s)",
        (logged_s / plain_s - 1.0) * 100.0,
        logged_s,
        plain_s
    );
    println!("recovery validated: epoch {want_epoch}, {want_len} points, probe fingerprint match");

    let _ = std::fs::remove_file(&ckpt_path);
    let _ = std::fs::remove_file(&wal_path);
    perf.finish();
}
