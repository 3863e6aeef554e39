//! Durable checkpoints of the full host state.
//!
//! A checkpoint is a consistent frozen view of the index at one **epoch**
//! (= number of applied mutation batches; see the `epoch` field on
//! [`PimZdTree`]). It captures everything a fresh process needs to continue
//! a run byte-identically: the configuration triple (index, machine, host
//! CPU), the host fragment and directory, every module's master and cached
//! fragments, the simulator's counters (round ids drive fault draws and
//! journal records), and the host meter including the *warm LLC contents*
//! (restoring the cache cold would shift every post-restore hit/miss count
//! and break metric byte-identity).
//!
//! Paired with the write-ahead log ([`crate::wal`]), this gives
//! crash-restart recovery: restore the newest checkpoint, then replay every
//! logged batch with a later epoch ([`PimZdTree::recover`]).
//!
//! ## File layout
//!
//! ```text
//! header:   magic "PZDCKPT1" (8) | version u32 | dims u32 | n_sections u32
//! section:  id u8 | len u64 | payload (len bytes) | crc u64
//! ```
//!
//! All integers little-endian (the [`Enc`]/[`Dec`] codec). Each section's
//! `crc` is [`checksum_bytes`] over its payload under `CKPT_KEY ^ id`, so
//! a payload transplanted between sections fails validation even if intact.
//! Sections appear once each, in id order; hash maps are serialized sorted
//! by meta id, so checkpoint bytes are a deterministic function of the
//! logical state (checkpointing a restored tree reproduces the file
//! byte-for-byte — a property the tests pin).
//!
//! Every decode path is bounds-checked: damaged input surfaces as a typed
//! [`DurabilityError`], never a panic or a silently partial restore.

use crate::config::{Layer, PimZdConfig, Toggles};
use crate::frag::{BKind, BNode, ChildRef, ChunkDir, Fragment, MetaId, RemoteRef};
use crate::host::{HostState, PimZdTree};
use crate::meta::{Directory, MetaInfo};
use crate::module::{FragMap, ModuleState};
use crate::wal::{self, Wal, WalOp, WalReadMode, WalRecord};
use pim_geom::Point;
use pim_memsim::{
    CacheConfig, CacheSnapshot, CacheWaySnapshot, CpuConfig, CpuMeter, MeterSnapshot,
};
use pim_sim::config::TransferApi;
use pim_sim::{
    checksum_bytes, Dec, Enc, FaultLog, MachineConfig, PimSystem, ShortRead, SimCounters, SimStats,
};
use pim_zorder::prefix::Prefix;
use pim_zorder::ZKey;
use rustc_hash::FxHashMap;
use std::io::Write as _;
use std::path::Path;

/// Checkpoint file magic.
pub const CKPT_MAGIC: [u8; 8] = *b"PZDCKPT1";
/// Current (only) checkpoint format version.
pub const CKPT_VERSION: u32 = 1;
/// Keyed-checksum domain for section crcs (xor'd with the section id).
const CKPT_KEY: u64 = 0x5a44_434b_5054_3159; // "ZDCKPT1Y"
/// Artifact tag used in [`DurabilityError`]s from this module.
const ARTIFACT: &str = "checkpoint";

// Section ids, in file order.
const SEC_CONFIG: u8 = 1;
const SEC_HOST: u8 = 2;
const SEC_L0: u8 = 3;
const SEC_DIR: u8 = 4;
const SEC_MODULES: u8 = 5;
const SEC_SIM: u8 = 6;
const SEC_CPU: u8 = 7;
const N_SECTIONS: usize = 7;

/// Typed failure of the durability layer. Every way a checkpoint or WAL
/// file can be unusable maps here — decoding never panics and never
/// half-applies.
#[derive(Clone, Debug, PartialEq)]
pub enum DurabilityError {
    /// Filesystem failure (message from the underlying `std::io::Error`).
    Io(String),
    /// The file does not start with the expected magic.
    BadMagic {
        /// Which artifact ("checkpoint" or "wal").
        artifact: &'static str,
    },
    /// The format version is not one this build reads.
    BadVersion {
        /// Which artifact.
        artifact: &'static str,
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The file was written for a different point dimensionality.
    DimMismatch {
        /// Which artifact.
        artifact: &'static str,
        /// Dimensionality found in the file.
        found: u32,
        /// Dimensionality expected by the caller's type.
        expected: u32,
    },
    /// The file ends before the structure it promises.
    Truncated {
        /// Which artifact.
        artifact: &'static str,
        /// Byte offset where data ran out.
        offset: usize,
    },
    /// The file is complete but its contents are damaged or inconsistent
    /// (checksum failure, epoch gap, geometry mismatch, ...).
    Corrupt {
        /// Which artifact.
        artifact: &'static str,
        /// Human-readable diagnosis.
        detail: String,
    },
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io(m) => write!(f, "durability I/O error: {m}"),
            DurabilityError::BadMagic { artifact } => write!(f, "{artifact}: bad magic"),
            DurabilityError::BadVersion { artifact, found, supported } => {
                write!(f, "{artifact}: version {found} unsupported (this build reads {supported})")
            }
            DurabilityError::DimMismatch { artifact, found, expected } => {
                write!(f, "{artifact}: written for {found}-dim points, expected {expected}-dim")
            }
            DurabilityError::Truncated { artifact, offset } => {
                write!(f, "{artifact}: truncated at byte offset {offset}")
            }
            DurabilityError::Corrupt { artifact, detail } => {
                write!(f, "{artifact}: corrupt — {detail}")
            }
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e.to_string())
    }
}

fn corrupt(detail: impl Into<String>) -> DurabilityError {
    DurabilityError::Corrupt { artifact: ARTIFACT, detail: detail.into() }
}

/// A concrete (and therefore `Copy`) short-read-to-corrupt adapter for
/// one named section.
fn short(section: &'static str, e: ShortRead) -> DurabilityError {
    corrupt(format!("{section} section: {e}"))
}

// ---------------------------------------------------------------------
// Value codecs (shared across sections)
// ---------------------------------------------------------------------

fn enc_prefix<const D: usize>(e: &mut Enc, p: &Prefix<D>) {
    e.u64(p.key.0);
    e.u32(p.len);
}

fn dec_prefix<const D: usize>(d: &mut Dec) -> Result<Prefix<D>, ShortRead> {
    let key = ZKey(d.u64()?);
    let len = d.u32()?;
    Ok(Prefix { key, len })
}

fn dec_point<const D: usize>(d: &mut Dec) -> Result<Point<D>, ShortRead> {
    let mut coords = [0u32; D];
    for c in coords.iter_mut() {
        *c = d.u32()?;
    }
    Ok(Point::new(coords))
}

fn enc_child<const D: usize>(e: &mut Enc, c: &ChildRef<D>) {
    match c {
        ChildRef::Local(i) => {
            e.u8(0);
            e.u32(*i);
        }
        ChildRef::Remote(r) => {
            e.u8(1);
            e.u64(r.meta);
            e.u32(r.module);
            enc_prefix(e, &r.prefix);
            e.u64(r.sc);
        }
    }
}

fn dec_child<const D: usize>(d: &mut Dec) -> Result<ChildRef<D>, ShortRead> {
    Ok(match d.u8()? {
        0 => ChildRef::Local(d.u32()?),
        _ => ChildRef::Remote(RemoteRef {
            meta: d.u64()?,
            module: d.u32()?,
            prefix: dec_prefix(d)?,
            sc: d.u64()?,
        }),
    })
}

fn enc_node<const D: usize>(e: &mut Enc, n: &BNode<D>) {
    enc_prefix(e, &n.prefix);
    e.u64(n.count);
    match &n.kind {
        BKind::Internal { left, right } => {
            e.u8(0);
            enc_child(e, left);
            enc_child(e, right);
        }
        BKind::Leaf { points } => {
            e.u8(1);
            e.u32(points.len() as u32);
            // Fused SoA write: hand the key column and coordinate lanes to
            // the wire layer, which interleaves them per point. Byte layout
            // (u64 key LE, then D little-endian u32 coords) is unchanged
            // from the AoS loop this replaces — PZDCKPT1 stays pinned.
            let lanes: Vec<&[u32]> = (0..D).map(|j| points.lane(j)).collect();
            e.keyed_points(points.keys(), &lanes);
        }
        BKind::LeafStub => e.u8(2),
    }
}

/// Smallest encoded node: prefix (12) + count (8) + kind tag (1), a stub.
const MIN_NODE_BYTES: usize = 21;

fn dec_node<const D: usize>(d: &mut Dec) -> Result<BNode<D>, ShortRead> {
    let prefix = dec_prefix(d)?;
    let count = d.u64()?;
    let kind = match d.u8()? {
        0 => BKind::Internal { left: dec_child(d)?, right: dec_child(d)? },
        1 => {
            let n = d.count(8 + 4 * D)?;
            let mut points = crate::soa::PointSet::with_capacity(n);
            for _ in 0..n {
                let k = ZKey(d.u64()?);
                let p = dec_point(d)?;
                points.push(k, &p);
            }
            BKind::Leaf { points }
        }
        _ => BKind::LeafStub,
    };
    Ok(BNode { prefix, count, kind })
}

fn enc_fragment<const D: usize>(e: &mut Enc, f: &Fragment<D>) {
    e.u64(f.meta);
    e.u32(f.master_module);
    e.u32(f.root);
    e.u64(f.leaf_cap as u64);
    e.u32(f.dir_bits);
    e.u32(f.dense_min);
    e.u32(f.chunk_dir().bits);
    e.u32(f.chunk_dir().slots.len() as u32);
    for &s in &f.chunk_dir().slots {
        e.u32(s);
    }
    e.u32(f.free().len() as u32);
    for &s in f.free() {
        e.u32(s);
    }
    e.u32(f.nodes().len() as u32);
    for n in f.nodes() {
        enc_node(e, n);
    }
}

/// Decodes one fragment of `section`. The bytes may be whole and still not
/// an arena (`Fragment::from_parts` says why not): both ways of failing are
/// corruption of that section.
fn dec_fragment<const D: usize>(
    d: &mut Dec,
    section: &'static str,
) -> Result<Fragment<D>, DurabilityError> {
    let s = |e: ShortRead| short(section, e);
    let meta = d.u64().map_err(s)?;
    let master_module = d.u32().map_err(s)?;
    let root = d.u32().map_err(s)?;
    let leaf_cap = d.u64().map_err(s)? as usize;
    let dir_bits = d.u32().map_err(s)?;
    let dense_min = d.u32().map_err(s)?;
    let bits = d.u32().map_err(s)?;
    let n_slots = d.count(4).map_err(s)?;
    let mut slots = Vec::with_capacity(n_slots);
    for _ in 0..n_slots {
        slots.push(d.u32().map_err(s)?);
    }
    let n_free = d.count(4).map_err(s)?;
    let mut free = Vec::with_capacity(n_free);
    for _ in 0..n_free {
        free.push(d.u32().map_err(s)?);
    }
    let n_nodes = d.count(MIN_NODE_BYTES).map_err(s)?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        nodes.push(dec_node(d).map_err(s)?);
    }
    let chunk_dir = ChunkDir { bits, slots };
    Fragment::from_parts(
        meta,
        master_module,
        root,
        leaf_cap,
        dir_bits,
        dense_min,
        chunk_dir,
        free,
        nodes,
    )
    .map_err(|why| corrupt(format!("{section} section: fragment {meta}: {why}")))
}

fn enc_frag_map<const D: usize>(e: &mut Enc, map: &FragMap<D>) {
    // Sorted by meta id: checkpoint bytes must not depend on hash order.
    let mut ids: Vec<MetaId> = map.keys().copied().collect();
    ids.sort_unstable();
    e.u32(ids.len() as u32);
    for id in ids {
        enc_fragment(e, &map[&id]);
    }
}

fn dec_frag_map<const D: usize>(
    d: &mut Dec,
    section: &'static str,
) -> Result<FragMap<D>, DurabilityError> {
    let n = d.u32().map_err(|e| short(section, e))? as usize;
    let mut map = FxHashMap::default();
    for _ in 0..n {
        let f: Fragment<D> = dec_fragment(d, section)?;
        map.insert(f.meta, std::sync::Arc::new(f));
    }
    Ok(map)
}

fn enc_meta_info<const D: usize>(e: &mut Enc, m: &MetaInfo<D>) {
    e.u64(m.id);
    e.u32(m.module);
    e.u8(match m.layer {
        Layer::L0 => 0,
        Layer::L1 => 1,
        Layer::L2 => 2,
    });
    match m.parent {
        None => e.u8(0),
        Some(p) => {
            e.u8(1);
            e.u64(p);
        }
    }
    e.u32(m.children.len() as u32);
    for &c in &m.children {
        e.u64(c);
    }
    enc_prefix(e, &m.prefix);
    e.u64(m.synced_sc);
    e.i64(m.pending_delta);
    e.u32(m.cached_on.len() as u32);
    for &c in &m.cached_on {
        e.u32(c);
    }
    e.u64(m.live_nodes);
    e.bool(m.dirty);
}

fn dec_meta_info<const D: usize>(d: &mut Dec) -> Result<MetaInfo<D>, ShortRead> {
    let id = d.u64()?;
    let module = d.u32()?;
    let layer = match d.u8()? {
        0 => Layer::L0,
        1 => Layer::L1,
        _ => Layer::L2,
    };
    let parent = match d.u8()? {
        0 => None,
        _ => Some(d.u64()?),
    };
    let n_children = d.count(8)?;
    let mut children = Vec::with_capacity(n_children);
    for _ in 0..n_children {
        children.push(d.u64()?);
    }
    let prefix = dec_prefix(d)?;
    let synced_sc = d.u64()?;
    let pending_delta = d.i64()?;
    let n_cached = d.count(4)?;
    let mut cached_on = Vec::with_capacity(n_cached);
    for _ in 0..n_cached {
        cached_on.push(d.u32()?);
    }
    let live_nodes = d.u64()?;
    let dirty = d.bool()?;
    Ok(MetaInfo {
        id,
        module,
        layer,
        parent,
        children,
        prefix,
        synced_sc,
        pending_delta,
        cached_on,
        live_nodes,
        dirty,
    })
}

// ---------------------------------------------------------------------
// Section payloads
// ---------------------------------------------------------------------

fn enc_config_section<const D: usize>(t: &PimZdTree<D>) -> Vec<u8> {
    let mut e = Enc::new();
    let c = &t.cfg;
    e.u64(c.theta_l0);
    e.u64(c.theta_l1);
    e.u64(c.chunk_b);
    e.u64(c.leaf_cap as u64);
    e.u64(c.k_pull_l1);
    e.u64(c.k_pull_l2);
    e.f64(c.imbalance_factor);
    e.u64(c.delta_l1);
    e.u64(c.placement_seed);
    e.bool(c.toggles.fast_zorder);
    e.bool(c.toggles.lazy_counters);
    e.bool(c.toggles.coarse_fine_knn);
    e.bool(c.toggles.practical_chunking);
    e.u64(c.max_fragment_nodes as u64);
    let m = t.sys.config();
    e.u64(m.n_modules as u64);
    e.f64(m.pim_freq_hz);
    e.f64(m.pim_local_bw);
    e.f64(m.channel_bw_per_module);
    e.f64(m.channel_bw_aggregate);
    e.f64(m.mux_switch_s);
    e.u8(match m.api {
        TransferApi::Sdk => 0,
        TransferApi::Direct => 1,
    });
    e.u64(m.host_threads as u64);
    e.u64(m.local_mem_bytes);
    let cc = &t.cpu_cfg;
    e.f64(cc.freq_hz);
    e.u64(cc.threads as u64);
    e.f64(cc.parallel_efficiency);
    e.u64(cc.llc.capacity_bytes);
    e.u64(cc.llc.line_bytes);
    e.u64(cc.llc.ways as u64);
    e.f64(cc.dram_bw_bytes_per_s);
    e.into_bytes()
}

fn dec_config_section(
    payload: &[u8],
) -> Result<(PimZdConfig, MachineConfig, CpuConfig), DurabilityError> {
    let s = |e: ShortRead| short("config", e);
    let mut d = Dec::new(payload);
    let cfg = PimZdConfig {
        theta_l0: d.u64().map_err(s)?,
        theta_l1: d.u64().map_err(s)?,
        chunk_b: d.u64().map_err(s)?,
        leaf_cap: d.u64().map_err(s)? as usize,
        k_pull_l1: d.u64().map_err(s)?,
        k_pull_l2: d.u64().map_err(s)?,
        imbalance_factor: d.f64().map_err(s)?,
        delta_l1: d.u64().map_err(s)?,
        placement_seed: d.u64().map_err(s)?,
        toggles: Toggles {
            fast_zorder: d.bool().map_err(s)?,
            lazy_counters: d.bool().map_err(s)?,
            coarse_fine_knn: d.bool().map_err(s)?,
            practical_chunking: d.bool().map_err(s)?,
        },
        max_fragment_nodes: d.u64().map_err(s)? as usize,
    };
    let machine = MachineConfig {
        n_modules: d.u64().map_err(s)? as usize,
        pim_freq_hz: d.f64().map_err(s)?,
        pim_local_bw: d.f64().map_err(s)?,
        channel_bw_per_module: d.f64().map_err(s)?,
        channel_bw_aggregate: d.f64().map_err(s)?,
        mux_switch_s: d.f64().map_err(s)?,
        api: match d.u8().map_err(s)? {
            0 => TransferApi::Sdk,
            _ => TransferApi::Direct,
        },
        host_threads: d.u64().map_err(s)? as usize,
        local_mem_bytes: d.u64().map_err(s)?,
    };
    let cpu = CpuConfig {
        freq_hz: d.f64().map_err(s)?,
        threads: d.u64().map_err(s)? as usize,
        parallel_efficiency: d.f64().map_err(s)?,
        llc: CacheConfig {
            capacity_bytes: d.u64().map_err(s)?,
            line_bytes: d.u64().map_err(s)?,
            ways: d.u64().map_err(s)? as usize,
        },
        dram_bw_bytes_per_s: d.f64().map_err(s)?,
    };
    Ok((cfg, machine, cpu))
}

fn enc_host_section<const D: usize>(t: &PimZdTree<D>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(t.epoch);
    e.u64(t.n_points as u64);
    e.u64(t.staging_next);
    e.bool(t.l0_replicated);
    e.bool(t.sys.accounting);
    e.into_bytes()
}

/// The host scalars and the machine's `accounting` flag.
fn dec_host_section(payload: &[u8]) -> Result<(HostState, bool), DurabilityError> {
    let s = |e: ShortRead| short("host", e);
    let mut d = Dec::new(payload);
    let host = HostState {
        epoch: d.u64().map_err(s)?,
        n_points: d.u64().map_err(s)? as usize,
        staging_next: d.u64().map_err(s)?,
        l0_replicated: d.bool().map_err(s)?,
    };
    Ok((host, d.bool().map_err(s)?))
}

fn enc_l0_section<const D: usize>(t: &PimZdTree<D>) -> Vec<u8> {
    let mut e = Enc::new();
    match &t.l0 {
        None => e.u8(0),
        Some(f) => {
            e.u8(1);
            enc_fragment(&mut e, f);
        }
    }
    e.into_bytes()
}

fn dec_l0_section<const D: usize>(payload: &[u8]) -> Result<Option<Fragment<D>>, DurabilityError> {
    let s = |e: ShortRead| short("l0", e);
    let mut d = Dec::new(payload);
    match d.u8().map_err(s)? {
        0 => Ok(None),
        _ => Ok(Some(dec_fragment(&mut d, "l0")?)),
    }
}

fn enc_dir_section<const D: usize>(t: &PimZdTree<D>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(t.dir.id_bound());
    let mut ids: Vec<MetaId> = t.dir.metas.keys().copied().collect();
    ids.sort_unstable();
    e.u32(ids.len() as u32);
    for id in ids {
        enc_meta_info(&mut e, &t.dir.metas[&id]);
    }
    e.into_bytes()
}

fn dec_dir_section<const D: usize>(payload: &[u8]) -> Result<Directory<D>, DurabilityError> {
    let s = |e: ShortRead| short("directory", e);
    let mut d = Dec::new(payload);
    let next_id = d.u64().map_err(s)?;
    let n = d.u32().map_err(s)? as usize;
    let mut metas = FxHashMap::default();
    for _ in 0..n {
        let m: MetaInfo<D> = dec_meta_info(&mut d).map_err(s)?;
        metas.insert(m.id, m);
    }
    Ok(Directory::from_parts(metas, next_id))
}

fn enc_modules_section<const D: usize>(t: &PimZdTree<D>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(t.sys.n_modules() as u32);
    for i in 0..t.sys.n_modules() {
        let m = t.sys.peek(i);
        enc_frag_map(&mut e, &m.masters);
        enc_frag_map(&mut e, &m.caches);
    }
    e.into_bytes()
}

fn dec_modules_section<const D: usize>(
    payload: &[u8],
) -> Result<Vec<ModuleState<D>>, DurabilityError> {
    let s = |e: ShortRead| short("modules", e);
    let mut d = Dec::new(payload);
    // Each module carries two fragment maps, each at least its count.
    let n = d.count(8).map_err(s)?;
    let mut states = Vec::with_capacity(n);
    for _ in 0..n {
        let masters = dec_frag_map(&mut d, "modules")?;
        let caches = dec_frag_map(&mut d, "modules")?;
        states.push(ModuleState { masters, caches });
    }
    Ok(states)
}

fn enc_sim_section<const D: usize>(t: &PimZdTree<D>) -> Vec<u8> {
    let c = t.sys.export_counters();
    let mut e = Enc::new();
    e.u64(c.stats.rounds);
    e.u64(c.stats.cpu_to_pim_bytes);
    e.u64(c.stats.pim_to_cpu_bytes);
    e.f64(c.stats.pim_s);
    e.f64(c.stats.comm_s);
    e.f64(c.stats.overhead_s);
    e.f64(c.stats.worst_imbalance);
    e.u64(c.stats.total_pim_cycles);
    e.u64(c.stats.sum_max_cycles);
    e.u64(c.stats.n_modules as u64);
    e.u32(c.stats.imbalance_history.len() as u32);
    for &v in &c.stats.imbalance_history {
        e.f64(v);
    }
    e.u64(c.trace_round);
    e.u64(c.fault_log.exec_faults);
    e.u64(c.fault_log.reply_drops);
    e.u64(c.fault_log.reply_corruptions);
    e.u64(c.fault_log.stragglers);
    e.u64(c.fault_log.deaths);
    e.u64(c.fault_log.retries);
    e.u64(c.fault_log.retransmitted_bytes);
    e.f64(c.fault_log.timeout_s);
    e.u64(c.fault_log.salvages);
    e.u64(c.fault_log.salvaged_bytes);
    e.u64(c.fault_log.host_crashes);
    e.u32(c.dead.len() as u32);
    for &b in &c.dead {
        e.bool(b);
    }
    e.into_bytes()
}

fn dec_sim_section(payload: &[u8]) -> Result<SimCounters, DurabilityError> {
    let s = |e: ShortRead| short("sim", e);
    let mut d = Dec::new(payload);
    let mut stats = SimStats {
        rounds: d.u64().map_err(s)?,
        cpu_to_pim_bytes: d.u64().map_err(s)?,
        pim_to_cpu_bytes: d.u64().map_err(s)?,
        pim_s: d.f64().map_err(s)?,
        comm_s: d.f64().map_err(s)?,
        overhead_s: d.f64().map_err(s)?,
        worst_imbalance: d.f64().map_err(s)?,
        total_pim_cycles: d.u64().map_err(s)?,
        sum_max_cycles: d.u64().map_err(s)?,
        n_modules: d.u64().map_err(s)? as usize,
        imbalance_history: Vec::new(),
    };
    let n_hist = d.count(8).map_err(s)?;
    let mut hist = Vec::with_capacity(n_hist);
    for _ in 0..n_hist {
        hist.push(d.f64().map_err(s)?);
    }
    stats.imbalance_history = hist;
    let trace_round = d.u64().map_err(s)?;
    let fault_log = FaultLog {
        exec_faults: d.u64().map_err(s)?,
        reply_drops: d.u64().map_err(s)?,
        reply_corruptions: d.u64().map_err(s)?,
        stragglers: d.u64().map_err(s)?,
        deaths: d.u64().map_err(s)?,
        retries: d.u64().map_err(s)?,
        retransmitted_bytes: d.u64().map_err(s)?,
        timeout_s: d.f64().map_err(s)?,
        salvages: d.u64().map_err(s)?,
        salvaged_bytes: d.u64().map_err(s)?,
        host_crashes: d.u64().map_err(s)?,
    };
    let n_dead = d.count(1).map_err(s)?;
    let mut dead = Vec::with_capacity(n_dead);
    for _ in 0..n_dead {
        dead.push(d.bool().map_err(s)?);
    }
    Ok(SimCounters { stats, trace_round, fault_log, dead })
}

fn enc_cpu_section<const D: usize>(t: &PimZdTree<D>) -> Vec<u8> {
    let snap = t.meter.snapshot();
    let mut e = Enc::new();
    e.u64(snap.stats.work_cycles);
    e.u64(snap.stats.span_cycles);
    e.u64(snap.stats.dram_bytes);
    e.u64(snap.stats.llc_misses);
    e.u64(snap.stats.llc_hits);
    e.bool(snap.enabled);
    e.u64(snap.cache.clock);
    e.u64(snap.cache.hits);
    e.u64(snap.cache.misses);
    e.u64(snap.cache.writebacks);
    e.u32(snap.cache.ways.len() as u32);
    for w in &snap.cache.ways {
        e.u64(w.tag);
        e.u64(w.last_use);
        e.bool(w.valid);
        e.bool(w.dirty);
    }
    e.into_bytes()
}

fn dec_cpu_section(payload: &[u8]) -> Result<MeterSnapshot, DurabilityError> {
    let s = |e: ShortRead| short("cpu", e);
    let mut d = Dec::new(payload);
    let stats = pim_memsim::CpuStats {
        work_cycles: d.u64().map_err(s)?,
        span_cycles: d.u64().map_err(s)?,
        dram_bytes: d.u64().map_err(s)?,
        llc_misses: d.u64().map_err(s)?,
        llc_hits: d.u64().map_err(s)?,
    };
    let enabled = d.bool().map_err(s)?;
    let clock = d.u64().map_err(s)?;
    let hits = d.u64().map_err(s)?;
    let misses = d.u64().map_err(s)?;
    let writebacks = d.u64().map_err(s)?;
    let n_ways = d.count(18).map_err(s)?;
    let mut ways = Vec::with_capacity(n_ways);
    for _ in 0..n_ways {
        ways.push(CacheWaySnapshot {
            tag: d.u64().map_err(s)?,
            last_use: d.u64().map_err(s)?,
            valid: d.bool().map_err(s)?,
            dirty: d.bool().map_err(s)?,
        });
    }
    Ok(MeterSnapshot {
        stats,
        cache: CacheSnapshot { ways, clock, hits, misses, writebacks },
        enabled,
    })
}

// ---------------------------------------------------------------------
// Container framing
// ---------------------------------------------------------------------

fn write_section(out: &mut Vec<u8>, id: u8, payload: Vec<u8>) {
    let mut e = Enc::new();
    e.u8(id);
    e.u64(payload.len() as u64);
    out.extend_from_slice(e.as_slice());
    let crc = checksum_bytes(CKPT_KEY ^ id as u64, &payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Splits a checkpoint image into validated section payloads, indexed by
/// section id.
fn split_sections<const D: usize>(
    bytes: &[u8],
) -> Result<[Option<&[u8]>; N_SECTIONS + 1], DurabilityError> {
    if bytes.len() < 20 {
        return Err(DurabilityError::Truncated { artifact: ARTIFACT, offset: bytes.len() });
    }
    let mut d = Dec::new(bytes);
    let magic = d.bytes(8).expect("length checked");
    if magic != CKPT_MAGIC.as_slice() {
        return Err(DurabilityError::BadMagic { artifact: ARTIFACT });
    }
    let version = d.u32().expect("length checked");
    if version != CKPT_VERSION {
        return Err(DurabilityError::BadVersion {
            artifact: ARTIFACT,
            found: version,
            supported: CKPT_VERSION,
        });
    }
    let dims = d.u32().expect("length checked");
    if dims != D as u32 {
        return Err(DurabilityError::DimMismatch {
            artifact: ARTIFACT,
            found: dims,
            expected: D as u32,
        });
    }
    let n_sections = d.u32().expect("length checked") as usize;
    if n_sections != N_SECTIONS {
        return Err(corrupt(format!("expected {N_SECTIONS} sections, file declares {n_sections}")));
    }
    let mut sections: [Option<&[u8]>; N_SECTIONS + 1] = [None; N_SECTIONS + 1];
    for _ in 0..n_sections {
        let at = d.pos();
        let id =
            d.u8().map_err(|_| DurabilityError::Truncated { artifact: ARTIFACT, offset: at })?;
        let len =
            d.u64().map_err(|_| DurabilityError::Truncated { artifact: ARTIFACT, offset: at })?
                as usize;
        let payload = d
            .bytes(len)
            .map_err(|_| DurabilityError::Truncated { artifact: ARTIFACT, offset: d.pos() })?;
        let crc = d
            .u64()
            .map_err(|_| DurabilityError::Truncated { artifact: ARTIFACT, offset: d.pos() })?;
        if checksum_bytes(CKPT_KEY ^ id as u64, payload) != crc {
            return Err(corrupt(format!("section {id} fails its checksum")));
        }
        if !(1..=N_SECTIONS as u8).contains(&id) {
            return Err(corrupt(format!("unknown section id {id}")));
        }
        if sections[id as usize].replace(payload).is_some() {
            return Err(corrupt(format!("duplicate section id {id}")));
        }
    }
    if d.remaining() != 0 {
        return Err(corrupt(format!("{} trailing bytes after final section", d.remaining())));
    }
    Ok(sections)
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

impl<const D: usize> PimZdTree<D> {
    /// Serializes the full host state as a checkpoint image (see the module
    /// docs for the format). Pure in-memory counterpart of
    /// [`Self::checkpoint_to`].
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut header = Enc::new();
        header.bytes(&CKPT_MAGIC);
        header.u32(CKPT_VERSION);
        header.u32(D as u32);
        header.u32(N_SECTIONS as u32);
        let mut out = header.into_bytes();
        write_section(&mut out, SEC_CONFIG, enc_config_section(self));
        write_section(&mut out, SEC_HOST, enc_host_section(self));
        write_section(&mut out, SEC_L0, enc_l0_section(self));
        write_section(&mut out, SEC_DIR, enc_dir_section(self));
        write_section(&mut out, SEC_MODULES, enc_modules_section(self));
        write_section(&mut out, SEC_SIM, enc_sim_section(self));
        write_section(&mut out, SEC_CPU, enc_cpu_section(self));
        out
    }

    /// Writes a checkpoint to `path` atomically (temp file + rename, both
    /// synced), returning the image size in bytes. A crash during the write
    /// leaves any previous checkpoint at `path` intact.
    pub fn checkpoint_to(&self, path: impl AsRef<Path>) -> Result<u64, DurabilityError> {
        let path = path.as_ref();
        let bytes = self.checkpoint_bytes();
        let tmp = path.with_extension("ckpt-tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(bytes.len() as u64)
    }

    /// Rebuilds a tree from a checkpoint image. The result is
    /// operation-for-operation byte-identical to the tree that was
    /// checkpointed: same structure, same simulator counters, same warm
    /// LLC. Trace sinks, metrics handles, fault plans, and the WAL are
    /// process-local attachments and come back *detached* — re-attach them
    /// before continuing a measured run.
    pub fn restore_bytes(bytes: &[u8]) -> Result<Self, DurabilityError> {
        let sections = split_sections::<D>(bytes)?;
        let sec = |id: u8| sections[id as usize].expect("split_sections verified presence");
        // split_sections guarantees all 7 ids are present exactly once.
        for id in 1..=N_SECTIONS as u8 {
            if sections[id as usize].is_none() {
                return Err(corrupt(format!("missing section id {id}")));
            }
        }
        let (cfg, machine, cpu_cfg) = dec_config_section(sec(SEC_CONFIG))?;
        let (host, accounting) = dec_host_section(sec(SEC_HOST))?;
        let l0 = dec_l0_section::<D>(sec(SEC_L0))?;
        let dir = dec_dir_section::<D>(sec(SEC_DIR))?;
        let states = dec_modules_section::<D>(sec(SEC_MODULES))?;
        let counters = dec_sim_section(sec(SEC_SIM))?;
        let meter_snap = dec_cpu_section(sec(SEC_CPU))?;

        if states.len() != machine.n_modules {
            return Err(corrupt(format!(
                "modules section has {} states for a {}-module machine",
                states.len(),
                machine.n_modules
            )));
        }
        if counters.dead.len() != machine.n_modules {
            return Err(corrupt(format!(
                "sim section has a {}-wide dead mask for a {}-module machine",
                counters.dead.len(),
                machine.n_modules
            )));
        }
        let meter = CpuMeter::from_snapshot(cpu_cfg, &meter_snap)
            .ok_or_else(|| corrupt("cpu section LLC geometry disagrees with config section"))?;

        let mut states: Vec<Option<ModuleState<D>>> = states.into_iter().map(Some).collect();
        let mut sys =
            PimSystem::new(machine, |i| states[i].take().expect("one serialized state per module"));
        sys.import_counters(counters);
        sys.accounting = accounting;

        Ok(Self::assemble(cfg, cpu_cfg, sys, l0, dir, meter, host))
    }

    /// Reads and restores a checkpoint file (see [`Self::restore_bytes`]).
    pub fn restore_from(path: impl AsRef<Path>) -> Result<Self, DurabilityError> {
        let bytes = std::fs::read(path)?;
        Self::restore_bytes(&bytes)
    }

    /// Replays a write-ahead log against this (freshly restored) tree:
    /// applies, in order, every record whose epoch is past the tree's.
    /// Returns the number of batches applied. Records at or below the
    /// current epoch are already inside the checkpoint and are skipped; a
    /// gap in the remaining epochs means checkpoint and log disagree and is
    /// rejected as [`DurabilityError::Corrupt`] *before* anything from the
    /// bad region is applied.
    pub fn replay_wal(
        &mut self,
        path: impl AsRef<Path>,
        mode: WalReadMode,
    ) -> Result<u64, DurabilityError> {
        let (records, _) = wal::read_wal::<D>(path, mode)?;
        self.apply_wal_records(records)
    }

    /// Full crash recovery: restore the checkpoint at `ckpt`, replay the
    /// WAL at `wal_path` (tolerating a torn tail), truncate the tear, and
    /// re-attach the log for appending so the recovered tree keeps logging
    /// where the crashed process stopped. Returns the tree and the number
    /// of replayed batches.
    pub fn recover(
        ckpt: impl AsRef<Path>,
        wal_path: impl AsRef<Path>,
    ) -> Result<(Self, u64), DurabilityError> {
        let wal_path = wal_path.as_ref();
        let mut tree = Self::restore_from(ckpt)?;
        let (records, consistent) = wal::read_wal::<D>(wal_path, WalReadMode::Recovery)?;
        let applied = tree.apply_wal_records(records)?;
        let file = std::fs::OpenOptions::new().write(true).open(wal_path)?;
        file.set_len(consistent)?;
        file.sync_all()?;
        drop(file);
        tree.set_wal(Wal::open_for_append::<D>(wal_path)?);
        Ok((tree, applied))
    }

    fn apply_wal_records(&mut self, records: Vec<WalRecord<D>>) -> Result<u64, DurabilityError> {
        // Detach the WAL while replaying: replayed batches are already in
        // the log and must not be re-appended.
        let detached = self.wal.take();
        let mut applied = 0u64;
        let mut outcome = Ok(());
        for rec in records {
            if rec.epoch <= self.epoch {
                continue;
            }
            if rec.epoch != self.epoch + 1 {
                outcome = Err(DurabilityError::Corrupt {
                    artifact: "wal",
                    detail: format!(
                        "epoch gap: log continues at {} while the tree is at {}",
                        rec.epoch, self.epoch
                    ),
                });
                break;
            }
            match rec.op {
                WalOp::Insert => self.batch_insert(&rec.points),
                WalOp::Delete => {
                    self.batch_delete(&rec.points);
                }
            }
            applied += 1;
        }
        self.wal = detached;
        outcome?;
        if applied > 0 {
            // Batches past the checkpoint epoch mean the previous process
            // died after acknowledging work it had not checkpointed: a
            // recovered host crash.
            self.sys.record_host_crash();
        }
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::MachineConfig;

    fn pts(n: u32, salt: u32) -> Vec<Point<3>> {
        (0..n)
            .map(|i| {
                let j = i.wrapping_mul(2654435761).wrapping_add(salt);
                Point::new([j % 2048, (j / 7) % 2048, (j / 31) % 2048])
            })
            .collect()
    }

    fn small_tree() -> PimZdTree<3> {
        churned_tree(600, 8)
    }

    fn churned_tree(n: u32, modules: usize) -> PimZdTree<3> {
        let machine = MachineConfig::with_modules(modules);
        let cfg = PimZdConfig::skew_resistant(modules);
        let mut t = PimZdTree::build(&pts(n, 1), cfg, machine);
        t.batch_insert(&pts(100, 2));
        t.batch_delete(&pts(50, 1));
        t
    }

    #[test]
    fn checkpoint_restore_roundtrip_is_byte_stable() {
        let t = small_tree();
        let img = t.checkpoint_bytes();
        let r = PimZdTree::<3>::restore_bytes(&img).expect("restore");
        assert_eq!(r.len(), t.len());
        assert_eq!(r.epoch(), t.epoch());
        assert_eq!(r.meta_count(), t.meta_count());
        assert_eq!(r.space_bytes(), t.space_bytes());
        // The restored tree's own checkpoint must be the same bytes: the
        // format is a deterministic function of the logical state.
        assert_eq!(r.checkpoint_bytes(), img, "re-checkpoint must be byte-identical");
    }

    #[test]
    fn restored_tree_answers_queries_identically() {
        let mut t = small_tree();
        let img = t.checkpoint_bytes();
        let mut r = PimZdTree::<3>::restore_bytes(&img).expect("restore");
        let queries = pts(40, 3);
        assert_eq!(
            t.batch_knn(&queries, 3, pim_geom::Metric::L2),
            r.batch_knn(&queries, 3, pim_geom::Metric::L2)
        );
        assert_eq!(t.sim_stats().rounds, r.sim_stats().rounds, "sim counters replayed in step");
        assert_eq!(
            t.last_op_stats().cpu_dram_bytes,
            r.last_op_stats().cpu_dram_bytes,
            "warm LLC must be restored for identical host metrics"
        );
        assert_eq!(t.last_op_stats().cpu_cycles, r.last_op_stats().cpu_cycles);
    }

    #[test]
    fn dim_mismatch_is_typed() {
        let t = small_tree();
        let img = t.checkpoint_bytes();
        assert!(matches!(
            PimZdTree::<2>::restore_bytes(&img),
            Err(DurabilityError::DimMismatch { artifact: "checkpoint", found: 3, expected: 2 })
        ));
    }

    #[test]
    fn damaged_images_are_rejected_with_typed_errors() {
        let t = small_tree();
        let img = t.checkpoint_bytes();

        let mut flipped = img.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            PimZdTree::<3>::restore_bytes(&flipped),
            Err(DurabilityError::Corrupt { artifact: "checkpoint", .. })
        ));

        assert!(matches!(
            PimZdTree::<3>::restore_bytes(&img[..img.len() - 9]),
            Err(DurabilityError::Truncated { artifact: "checkpoint", .. })
        ));

        let mut bumped = img.clone();
        bumped[8] = 77; // version low byte
        assert!(matches!(
            PimZdTree::<3>::restore_bytes(&bumped),
            Err(DurabilityError::BadVersion {
                artifact: "checkpoint",
                found: 77,
                supported: CKPT_VERSION
            })
        ));
    }

    /// Rewrites the four bytes at `offset` of section `id`'s payload to
    /// `u32::MAX` and re-checksums the section, as a crafted (or a drifted
    /// writer's) image would be: the crc key is a constant of this file, so
    /// the checksum only catches damage.
    fn with_hostile_count(img: &[u8], id: u8, offset: usize) -> Vec<u8> {
        let mut out = img[..20].to_vec();
        let mut d = Dec::new(&img[20..]);
        while d.remaining() > 0 {
            let sec = d.u8().unwrap();
            let len = d.u64().unwrap() as usize;
            let mut payload = d.bytes(len).unwrap().to_vec();
            d.u64().unwrap();
            if sec == id {
                payload[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }
            write_section(&mut out, sec, payload);
        }
        out
    }

    /// Where, from the start of `f`'s encoding, its first free-list entry,
    /// the first local child index of a live node and its first
    /// chunk-directory slot are written (each `None` if it has none).
    fn arena_index_offsets(f: &Fragment<3>) -> [Option<usize>; 3] {
        // meta, module, root, leaf_cap, dir_bits, dense_min, bits, n_slots.
        let slots_at = 8 + 4 + 4 + 8 + 4 + 4 + 4 + 4;
        let free_at = slots_at + 4 * f.chunk_dir().slots.len() + 4;
        let mut node_at = free_at + 4 * f.free().len() + 4;
        let mut child = None;
        for (i, n) in f.nodes().iter().enumerate() {
            let live = !f.free().contains(&(i as u32));
            if let (true, BKind::Internal { left: ChildRef::Local(_), .. }) = (live, &n.kind) {
                // Prefix, count, node tag, child tag; then the index.
                child = child.or(Some(node_at + 12 + 8 + 1 + 1));
            }
            let mut e = Enc::new();
            enc_node(&mut e, n);
            node_at += e.as_slice().len();
        }
        [
            (!f.free().is_empty()).then_some(free_at),
            child,
            (!f.chunk_dir().slots.is_empty()).then_some(slots_at),
        ]
    }

    #[test]
    fn hostile_element_counts_are_typed_errors_not_allocations() {
        // Big enough fragments that some have a chunk directory.
        let t = churned_tree(3_000, 64);
        let img = t.checkpoint_bytes();
        assert_eq!(with_hostile_count(&img, 0, 0), img, "the rewriter itself is faithful");
        // `n_hist` follows the ten 8-byte stats fields of the sim section;
        // the module count opens the modules section; L0's root index
        // follows the section's tag byte, the meta id and the module.
        let mut hostile = vec![(SEC_SIM, 80), (SEC_MODULES, 0), (SEC_L0, 13)];
        // Indices into a fragment's arena, each the first of its kind in
        // the image: a free-list entry, a local child, a directory slot.
        let mut firsts = [None; 3];
        let mut note = |id: u8, at: usize, f: &Fragment<3>| {
            for (first, off) in firsts.iter_mut().zip(arena_index_offsets(f)) {
                *first = first.or(off.map(|o| (id, at + o)));
            }
        };
        note(SEC_L0, 1, t.l0.as_ref().unwrap());
        let mut at = 4;
        for i in 0..t.sys.n_modules() {
            for map in [&t.sys.peek(i).masters, &t.sys.peek(i).caches] {
                at += 4;
                let mut ids: Vec<MetaId> = map.keys().copied().collect();
                ids.sort_unstable();
                for id in ids {
                    note(SEC_MODULES, at, &map[&id]);
                    let mut e = Enc::new();
                    enc_fragment(&mut e, &map[&id]);
                    at += e.as_slice().len();
                }
            }
        }
        hostile.extend(firsts.map(|first| first.expect("the tree has one of each")));
        for (id, offset) in hostile {
            assert!(
                matches!(
                    PimZdTree::<3>::restore_bytes(&with_hostile_count(&img, id, offset)),
                    Err(DurabilityError::Corrupt { artifact: "checkpoint", .. })
                ),
                "section {id}, offset {offset}"
            );
        }
    }
}
