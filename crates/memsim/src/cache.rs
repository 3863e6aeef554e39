//! Set-associative LRU cache simulator.
//!
//! Models a last-level cache over an abstract byte address space. Trees
//! assign each node a stable arena address; traversals call
//! [`CacheSim::access`] with the node's address range and get back the
//! number of missed lines, which the CPU model converts into DRAM traffic.
//!
//! The implementation favours determinism and simplicity over micro-accuracy:
//! true LRU via a monotonic use-counter, no prefetcher, write-allocate with
//! writeback counted as one extra line of traffic on dirty eviction.
//!
//! # Storage and cloning
//!
//! The ways live in set-major order, cut into chunks of [`CHUNK_SETS`]
//! consecutive sets. A chunk is either *owned* by its cache — what an access
//! finds, at the price of one branch — or *shared*: [`Clone`] freezes every
//! owned chunk behind an `Arc` (moving it, not copying it) and hands the
//! clone the pointers, O(sets / `CHUNK_SETS`) of them, 352 for the 22 MB
//! Xeon LLC instead of its 360 448 ways. An access that meets a shared chunk
//! takes the ways back if the other side is gone and copies them otherwise,
//! once. Either side therefore pays for the sets it actually uses after the
//! clone, and observes exactly what a deep copy would (`tests/clone_props.rs`
//! pins that). This is what makes forking an index that owns a warm LLC
//! model cheap (`PimZdTree::snapshot`).
//!
//! Freezing happens under `&self`, so each chunk sits in a `Mutex`; an
//! access holds `&mut self` and reaches its chunk through
//! `Mutex::get_mut`, which takes no lock.

use std::sync::{Arc, Mutex};

/// Geometry of the simulated cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes (e.g. 22 MiB for the paper's Xeon LLC).
    pub capacity_bytes: u64,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// The evaluation server's LLC: 22 MB, 64 B lines, 16-way (§7.1).
    pub fn xeon_llc() -> Self {
        Self { capacity_bytes: 22 * 1024 * 1024, line_bytes: 64, ways: 16 }
    }

    /// A small cache for tests that want to force misses.
    pub fn tiny(capacity_bytes: u64) -> Self {
        Self { capacity_bytes, line_bytes: 64, ways: 4 }
    }

    /// Number of sets implied by the geometry (at least 1).
    pub fn num_sets(&self) -> u64 {
        (self.capacity_bytes / (self.line_bytes * self.ways as u64)).max(1)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u64,
    last_use: u64,
    valid: bool,
    dirty: bool,
}

/// Outcome of one (possibly multi-line) access.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Lines found in cache.
    pub hit_lines: u64,
    /// Lines fetched from DRAM.
    pub miss_lines: u64,
    /// Dirty lines written back to DRAM by evictions this access caused.
    pub writeback_lines: u64,
}

/// Sets per copy-on-write chunk. Line addresses map to sets modulo the set
/// count, so the consecutive lines of one structure land in one or two
/// chunks; 64 sets of the 16-way Xeon LLC are 24 KB, a copy of about a
/// microsecond.
pub const CHUNK_SETS: usize = 64;

/// One chunk of ways: owned outright, or frozen and shared with clones.
struct Chunk {
    /// The ways, while this cache alone holds them.
    owned: Vec<Way>,
    /// The ways, once a clone froze them; `owned` is empty then.
    shared: Option<Arc<Vec<Way>>>,
}

impl Chunk {
    fn ways(&self) -> &[Way] {
        self.shared.as_deref().unwrap_or(&self.owned)
    }

    /// The ways for writing: a shared chunk is first taken back (when every
    /// other holder is gone) or copied.
    #[inline]
    fn ways_mut(&mut self) -> &mut [Way] {
        if let Some(shared) = self.shared.take() {
            self.owned = Arc::unwrap_or_clone(shared);
        }
        &mut self.owned
    }

    /// Freezes the ways (moving them if they were owned) for a clone to hold.
    fn share(&mut self) -> Arc<Vec<Way>> {
        self.shared.get_or_insert_with(|| Arc::new(std::mem::take(&mut self.owned))).clone()
    }
}

/// Why a chunk lock is never poisoned.
const UNPOISONED: &str = "nothing panics while holding a chunk lock";

/// The cache simulator. Cloning gives an independent cache with identical
/// contents, sharing storage until either side touches it (see the module
/// docs).
pub struct CacheSim {
    cfg: CacheConfig,
    /// `cfg.num_sets()`, divided out once.
    num_sets: u64,
    /// Set-major ways, `CHUNK_SETS` sets per chunk (the last may be short).
    chunks: Vec<Mutex<Chunk>>,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Clone for CacheSim {
    fn clone(&self) -> Self {
        let chunks = self
            .chunks
            .iter()
            .map(|c| {
                let shared = c.lock().expect(UNPOISONED).share();
                Mutex::new(Chunk { owned: Vec::new(), shared: Some(shared) })
            })
            .collect();
        Self { chunks, ..*self }
    }
}

impl CacheSim {
    /// Creates an empty (cold) cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let n_ways = cfg.num_sets() as usize * cfg.ways;
        Self::from_ways(cfg, std::iter::repeat_n(Way::default(), n_ways))
    }

    /// A cache holding `ways` (set-major, one entry per way of the
    /// geometry), collected chunk by chunk.
    fn from_ways(cfg: CacheConfig, mut ways: impl ExactSizeIterator<Item = Way>) -> Self {
        let per_chunk = CHUNK_SETS * cfg.ways;
        let mut chunks = Vec::with_capacity(ways.len().div_ceil(per_chunk));
        while ways.len() > 0 {
            let owned = ways.by_ref().take(per_chunk).collect();
            chunks.push(Mutex::new(Chunk { owned, shared: None }));
        }
        Self { cfg, num_sets: cfg.num_sets(), chunks, clock: 0, hits: 0, misses: 0, writebacks: 0 }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accesses `bytes` bytes starting at `addr`; `write` marks lines dirty.
    /// Each cache line in the range is looked up (and installed on miss).
    pub fn access(&mut self, addr: u64, bytes: u64, write: bool) -> AccessOutcome {
        let mut out = AccessOutcome::default();
        if bytes == 0 {
            return out;
        }
        let first = addr / self.cfg.line_bytes;
        let last = (addr + bytes - 1) / self.cfg.line_bytes;
        for line in first..=last {
            self.clock += 1;
            let set_idx = (line % self.num_sets) as usize;
            let chunk = self.chunks[set_idx / CHUNK_SETS].get_mut().expect(UNPOISONED).ways_mut();
            let at = set_idx % CHUNK_SETS * self.cfg.ways;
            let set = &mut chunk[at..at + self.cfg.ways];
            if let Some(w) = set.iter_mut().find(|w| w.valid && w.tag == line) {
                w.last_use = self.clock;
                w.dirty |= write;
                out.hit_lines += 1;
                self.hits += 1;
                continue;
            }
            // Miss: install in the LRU way (invalid ways first).
            out.miss_lines += 1;
            self.misses += 1;
            let victim = set
                .iter_mut()
                .min_by_key(|w| if w.valid { w.last_use + 1 } else { 0 })
                .expect("set has at least one way");
            if victim.valid && victim.dirty {
                out.writeback_lines += 1;
                self.writebacks += 1;
            }
            *victim = Way { tag: line, last_use: self.clock, valid: true, dirty: write };
        }
        out
    }

    /// Total lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total lifetime writeback count.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// DRAM traffic in bytes implied by the lifetime misses + writebacks.
    pub fn dram_bytes(&self) -> u64 {
        (self.misses + self.writebacks) * self.cfg.line_bytes
    }

    /// Clears contents and counters (cold cache again).
    pub fn reset(&mut self) {
        *self = Self::new(self.cfg);
    }

    /// Clears only the counters, keeping cache contents warm — used between
    /// a warmup phase and a measured phase, mirroring the paper's protocol.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }

    /// Exports the full cache state — per-way lines in set-major order plus
    /// the LRU clock and lifetime counters — for host checkpoints. The LLC
    /// contents are host state like any other: restoring them cold instead
    /// of warm would shift every post-restore hit/miss count and break the
    /// byte-identity of replayed host metrics.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut ways = Vec::with_capacity(self.num_sets as usize * self.cfg.ways);
        for chunk in &self.chunks {
            let chunk = chunk.lock().expect(UNPOISONED);
            ways.extend(chunk.ways().iter().map(|w| CacheWaySnapshot {
                tag: w.tag,
                last_use: w.last_use,
                valid: w.valid,
                dirty: w.dirty,
            }));
        }
        CacheSnapshot {
            ways,
            clock: self.clock,
            hits: self.hits,
            misses: self.misses,
            writebacks: self.writebacks,
        }
    }

    /// Rebuilds a cache from a snapshot under the given geometry. Returns
    /// `None` when the snapshot's way count disagrees with the geometry —
    /// the caller (the checkpoint layer) turns that into a typed error.
    pub fn from_snapshot(cfg: CacheConfig, snap: &CacheSnapshot) -> Option<Self> {
        let expect = cfg.num_sets() as usize * cfg.ways;
        if snap.ways.len() != expect {
            return None;
        }
        let ways = snap.ways.iter().map(|w| Way {
            tag: w.tag,
            last_use: w.last_use,
            valid: w.valid,
            dirty: w.dirty,
        });
        let mut sim = Self::from_ways(cfg, ways);
        sim.clock = snap.clock;
        sim.hits = snap.hits;
        sim.misses = snap.misses;
        sim.writebacks = snap.writebacks;
        Some(sim)
    }
}

/// One way's state in a [`CacheSnapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheWaySnapshot {
    /// Line tag.
    pub tag: u64,
    /// LRU use stamp.
    pub last_use: u64,
    /// Whether the way holds a line.
    pub valid: bool,
    /// Whether the line is dirty (writeback on eviction).
    pub dirty: bool,
}

/// Full restorable state of a [`CacheSim`] (see [`CacheSim::snapshot`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Every way, set-major (`set * ways + way`).
    pub ways: Vec<CacheWaySnapshot>,
    /// Monotonic LRU clock.
    pub clock: u64,
    /// Lifetime hit count.
    pub hits: u64,
    /// Lifetime miss count.
    pub misses: u64,
    /// Lifetime writeback count.
    pub writebacks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheSim {
        // 4 sets × 4 ways × 64 B = 1 KiB.
        CacheSim::new(CacheConfig { capacity_bytes: 1024, line_bytes: 64, ways: 4 })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        let o1 = c.access(0, 8, false);
        assert_eq!(o1.miss_lines, 1);
        let o2 = c.access(0, 8, false);
        assert_eq!(o2.hit_lines, 1);
        assert_eq!(o2.miss_lines, 0);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut c = tiny();
        let o = c.access(60, 8, false); // crosses the 64-byte boundary
        assert_eq!(o.miss_lines, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // 4 ways in set 0: lines 0, 4, 8, 12 (stride = num_sets = 4 lines).
        for i in 0..4u64 {
            c.access(i * 4 * 64, 1, false);
        }
        // Touch line 0 to refresh it, then install a 5th line in set 0.
        c.access(0, 1, false);
        c.access(4 * 4 * 64, 1, false);
        // Line 0 must still be cached (refreshed); line 4*64 (oldest) evicted.
        assert_eq!(c.access(0, 1, false).hit_lines, 1);
        assert_eq!(c.access(4 * 64, 1, false).miss_lines, 1);
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let mut c = tiny();
        c.access(0, 1, true); // dirty line in set 0
        for i in 1..=4u64 {
            c.access(i * 4 * 64, 1, false); // evict everything in set 0
        }
        assert_eq!(c.writebacks(), 1);
        assert_eq!(c.dram_bytes(), (c.misses() + 1) * 64);
    }

    #[test]
    fn working_set_smaller_than_cache_has_no_steady_state_misses() {
        let mut c = tiny();
        // 8 lines = 512 B < 1 KiB capacity, mapped across 4 sets (2 ways each).
        for round in 0..10 {
            for line in 0..8u64 {
                let o = c.access(line * 64, 4, false);
                if round > 0 {
                    assert_eq!(o.miss_lines, 0, "round {round} line {line}");
                }
            }
        }
        assert_eq!(c.misses(), 8);
    }

    #[test]
    fn reset_counters_keeps_contents_warm() {
        let mut c = tiny();
        c.access(0, 64, false);
        c.reset_counters();
        assert_eq!(c.misses(), 0);
        assert_eq!(c.access(0, 64, false).hit_lines, 1);
    }

    #[test]
    fn zero_byte_access_is_free() {
        let mut c = tiny();
        assert_eq!(c.access(123, 0, true), AccessOutcome::default());
        assert_eq!(c.misses(), 0);
    }
}

#[cfg(test)]
mod conflict_tests {
    use super::*;

    #[test]
    fn conflict_misses_under_set_pressure() {
        // 4-way sets: 5 lines mapping to one set thrash in round-robin LRU.
        let mut c = CacheSim::new(CacheConfig { capacity_bytes: 1024, line_bytes: 64, ways: 4 });
        let stride = c.config().num_sets() * 64;
        for round in 0..3 {
            for i in 0..5u64 {
                let o = c.access(i * stride, 1, false);
                if round > 0 {
                    assert_eq!(o.miss_lines, 1, "LRU thrash must miss every time");
                }
            }
        }
    }

    #[test]
    fn reads_do_not_dirty_lines() {
        let mut c = CacheSim::new(CacheConfig::tiny(256));
        c.access(0, 1, false);
        // Evict via conflicting fills.
        for i in 1..64u64 {
            c.access(i * 64, 1, false);
        }
        assert_eq!(c.writebacks(), 0, "clean evictions write nothing back");
    }
}
