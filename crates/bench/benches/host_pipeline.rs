//! Criterion microbenchmarks for the host batch pipeline's hot phases,
//! each timing the code the index runs today:
//!
//! * `sort`: the parallel LSD radix sort on duplicate-heavy Morton-keyed
//!   batches.
//! * `round_dispatch`: a full query batch through `robust_round` at fault
//!   rate 0 (zero-copy fast path) and 0.05 (copy-on-fault).
//! * `encode`: the per-batch `ZEncoder` (runtime-dispatched BMI2
//!   `pdep`/`pext` where available) behind `encode_batch`.
//! * `fine_filter`: the SoA lane kernel + bounded max-heap
//!   (`soa::fine_select`) of kNN step 5.
//!
//! The implementations these replaced are gone from the tree and are not
//! re-created here to race against; the repo benchmark's per-layer
//! `zorder.*` metrics time encode and sort in isolation on every run, and
//! the batch grouping (`for_each_meta_run`, private to the index) is timed
//! through `core.insert.host_ms`.
//!
//! CI runs this in quick mode (`HOST_PIPELINE_QUICK=1`: smaller batches,
//! fewer samples) as a smoke check.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pim_bench::harness::scaled_cpu;
use pim_geom::Metric;
use pim_geom::{Aabb, Point};
use pim_sim::{FaultConfig, FaultPlan, MachineConfig};
use pim_workloads as wl;
use pim_zd_tree::soa::{fine_select, CoordBlock};
use pim_zd_tree::{PimZdConfig, PimZdTree};
use pim_zorder::sort::par_radix_sort_keyed;
use pim_zorder::{ZEncoder, ZKey};

/// Quick mode trades resolution for CI wall-clock.
fn quick() -> bool {
    std::env::var_os("HOST_PIPELINE_QUICK").is_some()
}

fn batch_n() -> usize {
    if quick() {
        20_000
    } else {
        100_000
    }
}

fn samples() -> usize {
    if quick() {
        3
    } else {
        20
    }
}

/// Duplicate-heavy keyed batch: uniform points quantized so equal Morton
/// keys recur, matching the per-fragment merge inputs.
fn keyed_batch(n: usize) -> Vec<(ZKey<3>, Point<3>)> {
    wl::uniform::<3>(n, 7)
        .into_iter()
        .map(|p| {
            let q = Point::new([p.coords[0] & !0xfff, p.coords[1] & !0xfff, p.coords[2] & !0xfff]);
            (ZKey::<3>::encode(&q), q)
        })
        .collect()
}

fn bench_sort(c: &mut Criterion) {
    let n = batch_n();
    let input = keyed_batch(n);
    let mut g = c.benchmark_group("host_pipeline_sort");
    g.sample_size(samples());
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function(BenchmarkId::new("radix", n), |b| {
        b.iter_batched(
            || input.clone(),
            |mut v| {
                par_radix_sort_keyed(&mut v, |e| e.0 .0, |a, b| a.1.coords.cmp(&b.1.coords));
                v
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_round_dispatch(c: &mut Criterion) {
    let warm = wl::uniform::<3>(50_000, 2026);
    let boxes: Vec<Aabb<3>> =
        wl::box_queries(&warm, 500, wl::box_side_for_expected::<3>(50_000, 10.0), 2026);
    let mut g = c.benchmark_group("host_pipeline_round_dispatch");
    g.sample_size(samples());
    for rate in [0.0, 0.05] {
        let cfg = PimZdConfig::throughput_optimized(50_000, 64);
        let machine = MachineConfig { cpu: scaled_cpu(50_000), ..MachineConfig::with_modules(64) };
        let mut index = PimZdTree::build(&warm, cfg, machine);
        if rate > 0.0 {
            index.set_fault_plan(Some(FaultPlan::new(FaultConfig::uniform(rate, 2026))));
        }
        g.bench_function(BenchmarkId::new("box_count", format!("fault_{rate}")), |b| {
            b.iter(|| black_box(index.batch_box_count(black_box(&boxes))))
        });
    }
    g.finish();
}

fn bench_encode(c: &mut Criterion) {
    let n = batch_n();
    let pts = wl::uniform::<3>(n, 11);
    let mut g = c.benchmark_group("host_pipeline_encode");
    g.sample_size(samples());
    g.throughput(Throughput::Elements(n as u64));
    // One codec resolution per batch, then the dispatched slice kernel
    // (BMI2 `pdep` on capable hardware, portable otherwise).
    g.bench_function(BenchmarkId::new("codec_batch", n), |b| {
        b.iter(|| {
            let enc = ZEncoder::<3>::new();
            let mut keys = Vec::new();
            enc.encode_batch(black_box(&pts), &mut keys);
            black_box(keys)
        })
    });
    g.finish();
}

fn bench_fine_filter(c: &mut Criterion) {
    // Candidate-set size matches a generous kNN step-4 sphere collection.
    let n = batch_n() / 2;
    let cands = wl::uniform::<3>(n, 13);
    let q = cands[n / 2];
    let block: CoordBlock<3> = cands.iter().fold(CoordBlock::new(), |mut b, p| {
        b.push(p);
        b
    });
    let k = 16usize;
    let mut g = c.benchmark_group("host_pipeline_fine_filter");
    g.sample_size(samples());
    g.throughput(Throughput::Elements(n as u64));
    // Lane-major distance kernel streaming into a bounded max-heap — no
    // full materialization, no full sort.
    g.bench_function(BenchmarkId::new("soa_kbest", n), |b| {
        b.iter(|| black_box(fine_select(black_box(&block), &q, Metric::L2, k)))
    });
    g.finish();
}

criterion_group!(benches, bench_sort, bench_round_dispatch, bench_encode, bench_fine_filter);
criterion_main!(benches);
