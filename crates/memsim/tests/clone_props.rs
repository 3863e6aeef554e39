//! A cloned [`CacheSim`] shares its way storage with the original until
//! either side touches it. These properties pin that the sharing is
//! invisible: a clone behaves exactly as a deep copy would, on both sides,
//! for every geometry — including a cache smaller than one chunk and a set
//! count the chunk size does not divide.

use pim_memsim::cache::CHUNK_SETS;
use pim_memsim::{CacheConfig, CacheSim};
use proptest::prelude::*;

/// The geometries under test, as `(sets, config)`.
fn geometries() -> Vec<(u64, CacheConfig)> {
    let of_sets = |sets: u64, ways: usize| {
        (sets, CacheConfig { capacity_bytes: sets * 64 * ways as u64, line_bytes: 64, ways })
    };
    vec![
        (4, CacheConfig::tiny(1024)),
        of_sets(CHUNK_SETS as u64, 2),
        of_sets(CHUNK_SETS as u64 + 37, 4),
        of_sets(3 * CHUNK_SETS as u64 + 1, 16),
    ]
}

/// One access: (line, bytes, write). Lines range over four times the set
/// count, so sets fill up and evict.
type Op = (u64, u64, bool);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u64..4096, 1u64..200, proptest::bool::ANY), 0..300)
}

fn drive(sim: &mut CacheSim, sets: u64, ops: &[Op]) {
    for &(line, bytes, write) in ops {
        sim.access(line % (4 * sets) * 64 + bytes % 64, bytes, write);
    }
}

/// A copy that shares nothing with `sim`.
fn deep_copy(sim: &CacheSim) -> CacheSim {
    CacheSim::from_snapshot(sim.config(), &sim.snapshot()).expect("same geometry")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Clone, then drive both sides with independent streams: each ends in
    /// the state (ways, clock, counters) of a deep copy driven the same way.
    #[test]
    fn clone_then_diverge_matches_deep_copies(warm in ops(), a in ops(), b in ops()) {
        for (sets, cfg) in geometries() {
            prop_assert_eq!(cfg.num_sets(), sets);
            let mut original = CacheSim::new(cfg);
            drive(&mut original, sets, &warm);
            let (mut deep_a, mut deep_b) = (deep_copy(&original), deep_copy(&original));
            let mut clone = original.clone();

            drive(&mut original, sets, &a);
            drive(&mut clone, sets, &b);
            drive(&mut deep_a, sets, &a);
            drive(&mut deep_b, sets, &b);
            prop_assert_eq!(original.snapshot(), deep_a.snapshot());
            prop_assert_eq!(clone.snapshot(), deep_b.snapshot());
        }
    }

    /// `from_snapshot(snapshot())` reproduces the cache, and the copy keeps
    /// agreeing with the original under the same further accesses.
    #[test]
    fn snapshot_roundtrips(warm in ops(), more in ops()) {
        for (sets, cfg) in geometries() {
            let mut original = CacheSim::new(cfg);
            drive(&mut original, sets, &warm);
            let mut copy = deep_copy(&original);
            prop_assert_eq!(copy.snapshot(), original.snapshot());
            drive(&mut original, sets, &more);
            drive(&mut copy, sets, &more);
            prop_assert_eq!(copy.snapshot(), original.snapshot());
        }
    }
}

#[test]
fn snapshot_of_the_wrong_geometry_is_refused() {
    let snap = CacheSim::new(CacheConfig::tiny(1024)).snapshot();
    assert!(CacheSim::from_snapshot(CacheConfig::tiny(2048), &snap).is_none());
}
