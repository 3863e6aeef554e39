//! Layers measured in isolation, after the timed section of a traced run:
//! the Morton codec and sort, an empty simulator round, the in-memory image
//! calls, and the two CPU baselines the paper compares against.

use crate::stats::median;
use crate::workloads::batch_query::{Batches, K};
use crate::workloads::{Layer, Rep, D, P};
use pim_geom::Metric;
use pim_memsim::{CpuConfig, CpuMeter, CpuModel};
use pim_pkdtree::PkdTree;
use pim_sim::{MachineConfig, PimSystem};
use pim_zd_tree::PimZdTree;
use pim_zdtree_base::ZdTree;
use pim_zorder::{sort::par_radix_sort_keyed, ZEncoder, ZKey};
use std::hint::black_box;
use std::time::Instant;

/// Times each isolation kernel is run; the median is reported.
const RUNS: usize = 5;

/// Median wall-clock milliseconds of `RUNS` runs of `f`, each on a fresh
/// `prepare()` made outside the clock.
fn median_ms<I, R>(mut prepare: impl FnMut() -> I, mut f: impl FnMut(I) -> R) -> f64 {
    let ms: Vec<f64> = (0..RUNS)
        .map(|_| {
            let input = prepare();
            let t = Instant::now();
            let out = f(black_box(input));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(black_box(out)); // freeing the result is not the kernel's time
            ms
        })
        .collect();
    median(&ms)
}

fn layer(pairs: impl IntoIterator<Item = (&'static str, f64)>) -> Layer {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// `pim-zorder` alone: encode `points` to Morton keys, then radix-sort the
/// `(key, point)` pairs the way the build and update paths do.
pub fn zorder(points: &[P]) -> Layer {
    let encoder = ZEncoder::<D>::new();
    let encode = |mut keys: Vec<ZKey<D>>| {
        encoder.encode_batch(points, &mut keys);
        keys
    };
    let encode_ms = median_ms(|| Vec::with_capacity(points.len()), encode);
    let keyed: Vec<(ZKey<D>, P)> =
        encode(Vec::new()).into_iter().zip(points.iter().copied()).collect();
    let sort_ms = median_ms(
        || keyed.clone(),
        |mut v| {
            par_radix_sort_keyed(&mut v, |e| e.0 .0, |a, b| a.1.coords.cmp(&b.1.coords));
            v
        },
    );
    let mega_per_s = |ms: f64| points.len() as f64 / 1e6 / (ms / 1e3);
    layer([
        ("zorder.encode_mpts_per_s", mega_per_s(encode_ms)),
        ("zorder.sort_mkeys_per_s", mega_per_s(sort_ms)),
    ])
}

/// `pim-sim` alone, on a 2048-module machine whose modules hold nothing:
/// a round that sends one word to every module, and one round of 100 k
/// echo tasks spread over the modules. A task is an `Option<u64>`, which
/// like the index's task structs has no fixed wire size, so the round sizes
/// every task and reply one by one.
pub fn pimsim() -> Layer {
    const MODULES: usize = 2048;
    const TASKS: usize = 100_000;
    let mut sys: PimSystem<()> = PimSystem::new(MachineConfig::with_modules(MODULES), |_| ());
    let mut round = |per_module: usize| {
        median_ms(
            || (0..MODULES).map(|m| vec![Some(m as u64); per_module]).collect::<Vec<_>>(),
            |tasks| {
                sys.execute_round(tasks, |_, _, ctx, words: Vec<Option<u64>>| {
                    ctx.op(words.len() as u64);
                    words
                })
            },
        )
    };
    let empty_ms = round(1);
    let tasks_ms = round(TASKS.div_ceil(MODULES));
    let tasks = (TASKS.div_ceil(MODULES) * MODULES) as f64;
    layer([("pimsim.empty_round_us", empty_ms * 1e3), ("pimsim.task_ns", tasks_ms * 1e6 / tasks)])
}

/// The in-memory image calls on `tree`: what serving pays per write batch.
pub fn image_costs(tree: &PimZdTree<D>) -> Layer {
    let image = tree.checkpoint_bytes();
    layer([
        ("core.checkpoint.host_ms", median_ms(|| (), |()| tree.checkpoint_bytes())),
        ("core.checkpoint.bytes_per_point", image.len() as f64 / tree.len().max(1) as f64),
        (
            "core.restore.host_ms",
            median_ms(|| (), |()| PimZdTree::<D>::restore_bytes(&image).map(|t| t.len())),
        ),
        ("core.snapshot.host_ms", median_ms(|| (), |()| tree.snapshot().len())),
    ])
}

/// Share of the program's own op spans (`pim-obs`) that no inner span
/// covers: the part of a call still dark to the host profiler.
pub fn unspanned_share() -> f64 {
    let report = pim_obs::report();
    let roots = report.paths.iter().filter(|(path, _)| !path.contains(';'));
    let (own, total) = roots.fold((0u64, 0u64), |(o, t), (_, s)| (o + s.self_ns, t + s.total_ns));
    own as f64 / total.max(1) as f64
}

/// One baseline's simulated throughput and traffic on a read operation.
struct Cost {
    ops_per_s: f64,
    bytes_per_op: f64,
}

/// Runs `f` against a metered CPU model and costs what it touched.
fn metered(n_ops: usize, f: impl FnOnce(&mut CpuMeter)) -> Cost {
    let cpu = CpuConfig::xeon();
    let mut meter = CpuMeter::new(cpu);
    meter.start_measurement();
    f(&mut meter);
    let stats = meter.stats();
    Cost {
        ops_per_s: n_ops as f64 / CpuModel::new(cpu).time_seconds(&stats),
        bytes_per_op: stats.dram_bytes as f64 / n_ops as f64,
    }
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The paper's comparison on the inputs of `batch_query` rep 0: simulated
/// throughput of the zd-tree and Pkd-tree baselines under the same CPU
/// model, against what `rep0` measured on the PIM index. Geometric means
/// over the read operations each baseline has (the Pkd-tree has no
/// `contains`). The cost model is not validated against hardware, so these
/// are the model's ratios, printed beside the paper's, with no error figure.
pub fn baselines(points: &[P], b: &Batches, rep0: &Rep) -> Layer {
    let pim = |op: &str| {
        let s =
            &rep0.calls.iter().find(|c| c.op == op).expect("batch_query calls every read op").sim;
        Cost {
            ops_per_s: s.batch_ops as f64 / s.latency_s(),
            bytes_per_op: (s.channel_bytes + s.cpu_dram_bytes) as f64 / s.batch_ops as f64,
        }
    };
    let zd = ZdTree::build(points, ZdTree::<D>::DEFAULT_LEAF_CAP);
    let zd_costs = [
        (pim("contains"), metered(b.contains.len(), |m| drop(zd.batch_contains(&b.contains, m)))),
        (pim("knn"), metered(b.knn.len(), |m| drop(zd.batch_knn(&b.knn, K, Metric::L2, m)))),
        (pim("box_count"), metered(b.boxes.len(), |m| drop(zd.batch_box_count(&b.boxes, m)))),
        (pim("box_fetch"), metered(b.boxes.len(), |m| drop(zd.batch_box_fetch(&b.boxes, m)))),
    ];
    drop(zd);
    let pkd = PkdTree::build(points, PkdTree::<D>::DEFAULT_LEAF_CAP);
    let pkd_costs = [
        (pim("knn"), metered(b.knn.len(), |m| drop(pkd.batch_knn(&b.knn, K, Metric::L2, m)))),
        (pim("box_count"), metered(b.boxes.len(), |m| drop(pkd.batch_box_count(&b.boxes, m)))),
        (pim("box_fetch"), metered(b.boxes.len(), |m| drop(pkd.batch_box_fetch(&b.boxes, m)))),
    ];
    let over = |costs: &[(Cost, Cost)], f: fn(&(Cost, Cost)) -> f64| {
        geomean(&costs.iter().map(f).collect::<Vec<_>>())
    };
    layer([
        ("baseline.zd.sim_ops_per_s", over(&zd_costs, |(_, base)| base.ops_per_s)),
        ("baseline.pkd.sim_ops_per_s", over(&pkd_costs, |(_, base)| base.ops_per_s)),
        ("baseline.speedup_vs_zd", over(&zd_costs, |(pim, base)| pim.ops_per_s / base.ops_per_s)),
        ("baseline.speedup_vs_pkd", over(&pkd_costs, |(pim, base)| pim.ops_per_s / base.ops_per_s)),
        (
            "baseline.traffic_reduction_vs_zd",
            over(&zd_costs, |(pim, base)| base.bytes_per_op / pim.bytes_per_op),
        ),
    ])
}
