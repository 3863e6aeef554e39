//! Durable checkpoints of the full host state.
//!
//! A checkpoint is a consistent frozen view of the index at one **epoch**
//! (= number of applied mutation batches; see the `epoch` field on
//! [`PimZdTree`]). It captures everything a fresh process needs to continue
//! a run byte-identically: the configuration pair (index, and machine with
//! its host CPU), the host fragment and directory, every module's master
//! and cached fragments, the simulator's counters (the round count is the
//! next round's id, which drives fault draws and journal records), and the
//! host meter including the *warm LLC contents* (restoring the cache cold
//! would shift every post-restore hit/miss count and break metric
//! byte-identity).
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
//! Each section's payload is one value of the [`Codec`] layer
//! ([`crate::codec`]), and the `record!` and `tagged!` lists below *are*
//! the payload layout: each list both writes and reads its type, so the
//! format is stated once. Each section's `crc` is [`checksum_bytes`] over
//! its payload under `CKPT_KEY ^ id`, so a payload transplanted between
//! sections fails validation even if intact. Sections appear once each, in
//! id order; maps keyed by meta id are written sorted by it, so checkpoint
//! bytes are a deterministic function of the logical state (checkpointing
//! a restored tree reproduces the file byte-for-byte — a property the tests
//! pin).
//!
//! Every decode path is bounds-checked and strict: a short payload, a tag
//! or `bool` byte that names no value, and bytes left over in a section
//! surface as a typed [`DurabilityError`], never a panic or a silently
//! different tree.

use crate::codec::{self, decode_exact, record, tagged, Codec, Dec, DecodeError, Enc};
use crate::config::{Layer, PimZdConfig, Toggles};
use crate::frag::{BKind, BNode, ChildRef, ChunkDir, Fragment, MetaId, RemoteRef};
use crate::host::{HostState, PimZdTree};
use crate::meta::{Directory, MetaInfo};
use crate::module::{FragMap, ModuleState};
use crate::soa::PointSet;
use crate::wal::{self, Wal, WalOp, WalReadMode, WalRecord};
use pim_geom::Point;
use pim_memsim::{
    CacheConfig, CacheSnapshot, CacheWaySnapshot, CpuConfig, CpuMeter, CpuStats, MeterSnapshot,
};
use pim_sim::config::TransferApi;
use pim_sim::{checksum_bytes, FaultKind, MachineConfig, PimSystem, SimCounters, SimStats};
use pim_zorder::prefix::Prefix;
use pim_zorder::ZKey;
use rustc_hash::FxHashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Checkpoint file magic.
pub const CKPT_MAGIC: [u8; 8] = *b"PZDCKPT1";
/// Current (only) checkpoint format version. Version 1 also carried the
/// simulator's per-round imbalance history and the machine's `accounting`
/// flag; version 2 carried a round id beside `SimStats::rounds`, which
/// equals it, and a separate fault log whose counts `SimStats` now holds.
/// This build refuses both.
pub const CKPT_VERSION: u32 = 3;
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
/// Section names for error messages, by id − 1.
const SECTION_NAMES: [&str; N_SECTIONS] =
    ["config", "host", "l0", "directory", "modules", "sim", "cpu"];

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
    /// (checksum failure, unknown tag, epoch gap, geometry mismatch, ...).
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

// ---------------------------------------------------------------------
// The payload format: one field list per type, in layout order
// ---------------------------------------------------------------------

record! {
    // Config section: (PimZdConfig, MachineConfig).
    [] PimZdConfig {
        theta_l0: u64, theta_l1: u64, chunk_b: u64, leaf_cap: usize, k_pull_l1: u64,
        k_pull_l2: u64, imbalance_factor: f64, delta_l1: u64, placement_seed: u64,
        toggles: Toggles, max_fragment_nodes: usize,
    }
    [] Toggles {
        fast_zorder: bool, lazy_counters: bool, coarse_fine_knn: bool, practical_chunking: bool,
    }
    [] MachineConfig {
        n_modules: usize, pim_freq_hz: f64, pim_local_bw: f64, channel_bw_per_module: f64,
        channel_bw_aggregate: f64, mux_switch_s: f64, api: TransferApi, host_threads: usize,
        local_mem_bytes: u64, cpu: CpuConfig,
    }
    [] CpuConfig {
        freq_hz: f64, threads: usize, parallel_efficiency: f64, llc: CacheConfig,
        dram_bw_bytes_per_s: f64,
    }
    [] CacheConfig { capacity_bytes: u64, line_bytes: u64, ways: usize }

    // Host section.
    [] HostState { epoch: u64, n_points: usize, staging_next: u64, l0_replicated: bool }

    // Directory section: the `Directory` below, whose entries are these.
    [const D: usize] MetaInfo<D> {
        id: MetaId, module: u32, layer: Layer, parent: Option<MetaId>, children: Vec<MetaId>,
        prefix: Prefix<D>, synced_sc: u64, pending_delta: i64, cached_on: Vec<u32>,
        live_nodes: u64, dirty: bool,
    }

    // L0 section: Option<Fragment>; modules section: Vec<ModuleState>. A
    // `Point` is also what a WAL record carries.
    [const D: usize] ModuleState<D> { masters: FragMap<D>, caches: FragMap<D> }
    [] ChunkDir { bits: u32, slots: Vec<u32> }
    [const D: usize] BNode<D> { prefix: Prefix<D>, count: u64, kind: BKind<D> }
    [const D: usize] RemoteRef<D> { meta: MetaId, module: u32, prefix: Prefix<D>, sc: u64 }
    [const D: usize] Prefix<D> { key: ZKey<D>, len: u32 }
    [const D: usize] ZKey<D> { 0: u64 }
    [const D: usize] Point<D> { coords: [u32; D] }

    // Sim section.
    [] SimCounters { stats: SimStats, dead: Vec<bool> }
    [] SimStats {
        rounds: u64, cpu_to_pim_bytes: u64, pim_to_cpu_bytes: u64, pim_s: f64, comm_s: f64,
        overhead_s: f64, total_pim_cycles: u64, sum_max_cycles: u64, n_modules: usize,
        faults: [u64; FaultKind::COUNT], retries: u64, retransmitted_bytes: u64, timeout_s: f64,
        salvaged_bytes: u64,
    }

    // CPU section: the meter with its warm LLC.
    [] MeterSnapshot { stats: CpuStats, enabled: bool, cache: CacheSnapshot }
    [] CpuStats {
        work_cycles: u64, span_cycles: u64, dram_bytes: u64, llc_misses: u64, llc_hits: u64,
    }
    [] CacheSnapshot {
        clock: u64, hits: u64, misses: u64, writebacks: u64, ways: Vec<CacheWaySnapshot>,
    }
    [] CacheWaySnapshot { tag: u64, last_use: u64, valid: bool, dirty: bool }
}

tagged! {
    [] Layer { 0 => L0, 1 => L1, 2 => L2 }
    [] TransferApi { 0 => Sdk, 1 => Direct }
    [const D: usize] ChildRef<D> { 0 => Local(index), 1 => Remote(remote) }
    [const D: usize] BKind<D> { 0 => Internal { left, right }, 1 => Leaf { points }, 2 => LeafStub }
}

// The three special cases, each written once.

/// A leaf's points: a `u32` count, then per point its key and coordinates,
/// written straight from the structure-of-arrays lanes and read back one
/// `(ZKey, Point)` pair at a time.
impl<const D: usize> Codec for PointSet<D> {
    const MIN: usize = 4;

    fn encode(&self, e: &mut Enc) {
        e.put(&(self.len() as u32));
        let lanes: Vec<&[u32]> = (0..D).map(|j| self.lane(j)).collect();
        e.keyed_points(self.keys(), &lanes);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let n = d.count(<(ZKey<D>, Point<D>)>::MIN)?;
        let mut points = PointSet::with_capacity(n);
        for _ in 0..n {
            let (key, p) = d.get::<(ZKey<D>, Point<D>)>()?;
            points.push(key, &p);
        }
        Ok(points)
    }
}

/// A fragment's arena is private to `frag.rs`: it is written from the
/// accessors and read back through [`Fragment::from_parts`], whose
/// parameters are in layout order and which refuses parts that form no
/// arena (indices outside it, a mis-sized chunk directory).
impl<const D: usize> Codec for Fragment<D> {
    const MIN: usize = 8 + 4 + 4 + 8 + 4 + 4 + ChunkDir::MIN + 4 + 4;

    fn encode(&self, e: &mut Enc) {
        e.put(&self.meta);
        e.put(&self.master_module);
        e.put(&self.root);
        e.put(&self.leaf_cap);
        e.put(&self.dir_bits);
        e.put(&self.dense_min);
        e.put(self.chunk_dir());
        e.seq(self.free().iter());
        e.seq(self.nodes().iter());
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let offset = d.pos();
        let (meta, module, root, leaf_cap, dir_bits, dense_min) =
            (d.get()?, d.get()?, d.get()?, d.get()?, d.get()?, d.get()?);
        let (chunk_dir, free, nodes) = (d.get()?, d.get()?, d.get()?);
        Fragment::from_parts(
            meta, module, root, leaf_cap, dir_bits, dense_min, chunk_dir, free, nodes,
        )
        .map_err(|why| DecodeError::Invalid { offset, why })
    }
}

/// The directory: its id cursor, then its entries. `touched` is empty
/// between batches and is not written.
impl<const D: usize> Codec for Directory<D> {
    const MIN: usize = 8 + 4;

    fn encode(&self, e: &mut Enc) {
        e.put(&self.id_bound());
        e.put(&self.metas);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Directory::from_parts(d.get()?, d.get()?))
    }
}

/// A value that knows the meta id it is filed under.
trait Keyed {
    fn id(&self) -> MetaId;
}

impl<const D: usize> Keyed for MetaInfo<D> {
    fn id(&self) -> MetaId {
        self.id
    }
}

impl<const D: usize> Keyed for Arc<Fragment<D>> {
    fn id(&self) -> MetaId {
        self.meta
    }
}

/// Maps by meta id are written as their values sorted by id, so image
/// bytes never depend on hash order, and read back keyed by the id each
/// value carries, inserted in file order.
impl<V: Codec + Keyed> Codec for FxHashMap<MetaId, V> {
    const MIN: usize = 4;

    fn encode(&self, e: &mut Enc) {
        let mut ids: Vec<MetaId> = self.keys().copied().collect();
        ids.sort_unstable();
        e.seq(ids.iter().map(|id| &self[id]));
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let n = d.count(V::MIN)?;
        let mut map = FxHashMap::default();
        for _ in 0..n {
            let v: V = d.get()?;
            map.insert(v.id(), v);
        }
        Ok(map)
    }
}

// ---------------------------------------------------------------------
// Container framing
// ---------------------------------------------------------------------

/// Appends section `id`: id, payload length, the payload `write` produces,
/// and the payload's keyed crc.
fn section(out: &mut Enc, id: u8, write: impl FnOnce(&mut Enc)) {
    let mut payload = Enc::new();
    write(&mut payload);
    let payload = payload.into_bytes();
    out.put(&(id, payload.len() as u64));
    out.bytes(&payload);
    out.put(&checksum_bytes(CKPT_KEY ^ id as u64, &payload));
}

/// One section frame: id, payload, crc.
fn read_frame<'a>(d: &mut Dec<'a>) -> Result<(u8, &'a [u8], u64), DecodeError> {
    let (id, len) = d.get::<(u8, u64)>()?;
    let payload = d.bytes(usize::try_from(len).unwrap_or(usize::MAX))?;
    Ok((id, payload, d.get()?))
}

/// Splits a checkpoint image into validated section payloads, indexed by
/// section id − 1.
fn split_sections<const D: usize>(bytes: &[u8]) -> Result<[&[u8]; N_SECTIONS], DurabilityError> {
    if bytes.len() < codec::HEADER_BYTES + 4 {
        return Err(DurabilityError::Truncated { artifact: ARTIFACT, offset: bytes.len() });
    }
    let mut d = Dec::new(bytes);
    codec::read_header::<D>(&mut d, ARTIFACT, CKPT_MAGIC, CKPT_VERSION)?;
    let n_sections = d.get::<u32>().expect("length checked") as usize;
    if n_sections != N_SECTIONS {
        return Err(corrupt(format!("expected {N_SECTIONS} sections, file declares {n_sections}")));
    }
    let mut sections = [None; N_SECTIONS];
    for _ in 0..N_SECTIONS {
        // Frames hold only integers: any failure is a short read.
        let (id, payload, crc) = read_frame(&mut d)
            .map_err(|e| DurabilityError::Truncated { artifact: ARTIFACT, offset: e.offset() })?;
        if checksum_bytes(CKPT_KEY ^ id as u64, payload) != crc {
            return Err(corrupt(format!("section {id} fails its checksum")));
        }
        let slot = (id as usize).checked_sub(1).and_then(|i| sections.get_mut(i));
        match slot {
            None => return Err(corrupt(format!("unknown section id {id}"))),
            Some(Some(_)) => return Err(corrupt(format!("duplicate section id {id}"))),
            Some(slot) => *slot = Some(payload),
        }
    }
    if d.remaining() != 0 {
        return Err(corrupt(format!("{} trailing bytes after final section", d.remaining())));
    }
    // Seven distinct ids out of seven: every slot is filled.
    Ok(sections.map(|s| s.expect("every section id seen once")))
}

/// Decodes section `id`, which must fill its payload exactly.
fn read_section<T: Codec>(sections: &[&[u8]; N_SECTIONS], id: u8) -> Result<T, DurabilityError> {
    let i = id as usize - 1;
    decode_exact(sections[i]).map_err(|e| corrupt(format!("{} section: {e}", SECTION_NAMES[i])))
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

impl<const D: usize> PimZdTree<D> {
    /// Serializes the full host state as a checkpoint image (see the module
    /// docs for the format). Pure in-memory counterpart of
    /// [`Self::checkpoint_to`].
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut out = Enc::new();
        codec::write_header::<D>(&mut out, CKPT_MAGIC, CKPT_VERSION);
        out.put(&(N_SECTIONS as u32));
        let host = HostState {
            epoch: self.epoch,
            n_points: self.n_points,
            staging_next: self.staging_next,
            l0_replicated: self.l0_replicated,
        };
        let sys = &self.sys;
        section(&mut out, SEC_CONFIG, |e| e.put(&(self.cfg, *sys.config())));
        section(&mut out, SEC_HOST, |e| e.put(&host));
        section(&mut out, SEC_L0, |e| e.put(&self.l0));
        section(&mut out, SEC_DIR, |e| e.put(&self.dir));
        section(&mut out, SEC_MODULES, |e| e.seq((0..sys.n_modules()).map(|i| sys.peek(i))));
        section(&mut out, SEC_SIM, |e| e.put(&sys.export_counters()));
        section(&mut out, SEC_CPU, |e| e.put(&self.meter.snapshot()));
        out.into_bytes()
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
    /// LLC. Round journals, metrics handles, fault plans, and the WAL are
    /// process-local attachments and come back *detached* — re-attach them
    /// before continuing a measured run.
    pub fn restore_bytes(bytes: &[u8]) -> Result<Self, DurabilityError> {
        let sections = split_sections::<D>(bytes)?;
        let (cfg, machine): (PimZdConfig, MachineConfig) = read_section(&sections, SEC_CONFIG)?;
        let host: HostState = read_section(&sections, SEC_HOST)?;
        let l0: Option<Fragment<D>> = read_section(&sections, SEC_L0)?;
        let dir: Directory<D> = read_section(&sections, SEC_DIR)?;
        let states: Vec<ModuleState<D>> = read_section(&sections, SEC_MODULES)?;
        let counters: SimCounters = read_section(&sections, SEC_SIM)?;
        let meter_snap: MeterSnapshot = read_section(&sections, SEC_CPU)?;

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
        let meter = CpuMeter::from_snapshot(machine.cpu, &meter_snap)
            .ok_or_else(|| corrupt("cpu section LLC geometry disagrees with config section"))?;

        let mut states: Vec<Option<ModuleState<D>>> = states.into_iter().map(Some).collect();
        let mut sys =
            PimSystem::new(machine, |i| states[i].take().expect("one serialized state per module"));
        sys.import_counters(counters);

        Ok(Self::assemble(cfg, sys, l0, dir, meter, host))
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

        // Version 1 carried the imbalance history and the accounting flag,
        // version 2 a round id and a fault log beside the stats.
        for old in 1..CKPT_VERSION {
            let mut stale = img.clone();
            stale[8] = old as u8;
            assert_eq!(
                PimZdTree::<3>::restore_bytes(&stale).err(),
                Some(DurabilityError::BadVersion {
                    artifact: "checkpoint",
                    found: old,
                    supported: CKPT_VERSION
                })
            );
        }
    }

    #[test]
    fn an_image_does_not_grow_with_the_trees_age() {
        let mut t = small_tree();
        let young = t.checkpoint_bytes().len();
        let probes = pts(40, 3);
        for _ in 0..50 {
            t.batch_contains(&probes);
        }
        assert!(t.sim_stats().rounds >= 50, "every read batch runs a round");
        assert_eq!(t.checkpoint_bytes().len(), young, "50 read batches later");
    }

    /// Rewrites the bytes at `offset` of section `id`'s payload to `with` and
    /// re-checksums the section, as a crafted (or a drifted writer's) image
    /// would be: the crc key is a constant of this file, so the checksum
    /// only catches damage.
    fn rewritten(img: &[u8], id: u8, offset: usize, with: &[u8]) -> Vec<u8> {
        let mut out = Enc::new();
        out.bytes(&img[..20]);
        let mut d = Dec::new(&img[20..]);
        while d.remaining() > 0 {
            let (sec, payload, _) = read_frame(&mut d).unwrap();
            let mut payload = payload.to_vec();
            if sec == id {
                payload[offset..offset + with.len()].copy_from_slice(with);
            }
            section(&mut out, sec, |e| e.bytes(&payload));
        }
        out.into_bytes()
    }

    fn encoded_len<T: Codec>(v: &T) -> usize {
        let mut e = Enc::new();
        e.put(v);
        e.into_bytes().len()
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
            node_at += encoded_len(n);
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
        assert_eq!(rewritten(&img, 0, 0, &[]), img, "the rewriter itself is faithful");
        let count = &u32::MAX.to_le_bytes()[..];
        // The dead mask's length follows the twenty 8-byte stats fields of
        // the sim section (nine round sums, seven fault kinds, four fault
        // costs); the module count opens the modules section; L0's root
        // index follows the section's tag byte, the meta id and the module.
        let mut hostile = vec![(SEC_SIM, 160, count), (SEC_MODULES, 0, count), (SEC_L0, 13, count)];
        // Tag and `bool` bytes that name no value: L0's presence tag, the
        // transfer API (after 132 bytes of config), `l0_replicated` (after
        // three u64s of host) and the first meta's layer (after the id
        // cursor, the entry count, its id and its module). Each restored
        // `Ok` before tags were strict, the last two as a different tree.
        hostile.extend([
            (SEC_L0, 0, &[2][..]),
            (SEC_CONFIG, 132, &[7]),
            (SEC_HOST, 24, &[5]),
            (SEC_DIR, 24, &[9]),
        ]);
        // Indices into a fragment's arena, each the first of its kind in
        // the image: a free-list entry, a local child, a directory slot.
        let mut firsts = [None; 3];
        let mut note = |id: u8, at: usize, f: &Fragment<3>| {
            for (first, off) in firsts.iter_mut().zip(arena_index_offsets(f)) {
                *first = first.or(off.map(|o| (id, at + o, count)));
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
                    at += encoded_len(&map[&id]);
                }
            }
        }
        hostile.extend(firsts.map(|first| first.expect("the tree has one of each")));
        for (id, offset, with) in hostile {
            assert!(
                matches!(
                    PimZdTree::<3>::restore_bytes(&rewritten(&img, id, offset, with)),
                    Err(DurabilityError::Corrupt { artifact: "checkpoint", .. })
                ),
                "section {id}, offset {offset}"
            );
        }
    }
}
