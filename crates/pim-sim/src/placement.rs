//! Hash-randomized placement of objects onto PIM modules.
//!
//! PIM-zd-tree "distributes each tree node across PIM modules using a
//! hash-based randomization strategy, ensuring that even adversarial
//! operations cannot consistently target the same node" (§3). We use a
//! seeded SplitMix64 finalizer: statistically uniform, deterministic for a
//! given seed, and cheap enough to recompute rather than store.
//!
//! One hash per object balances modules only when each holds many objects.
//! The index's throughput-optimized preset hangs about 1.5 masters on each
//! module, where one hash leaves about a fifth of the machine empty and the
//! busiest module at several times the mean, and every round waits on that
//! module. [`place_least_loaded`] therefore draws [`PLACEMENT_CHOICES`]
//! hashed candidates per object and takes the least loaded (the power of d
//! choices: the imbalance falls from Θ(log P / log log P) to O(log log P)).
//! The candidates are still a seeded hash of the id, so without the seed an
//! adversary cannot aim at a module.

/// One SplitMix64 step — a high-quality 64→64 bit mixer: the golden-ratio
/// increment, then `finalize64`.
#[inline]
pub fn mix64(z: u64) -> u64 {
    finalize64(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// The SplitMix64 finalizer (three xor-shift-multiply steps), shared by
/// [`mix64`] and [`crate::wire::checksum64`].
#[inline]
pub(crate) fn finalize64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministically assigns object `id` to one of `p` modules under `seed`.
#[inline]
pub fn hash_place(seed: u64, id: u64, p: usize) -> usize {
    debug_assert!(p > 0);
    // Multiply-shift range reduction avoids the modulo bias of `% p` and a
    // 32-cycle divide on the PIM side (placement is host-side, but cheapness
    // keeps the habit).
    let h = mix64(seed ^ mix64(id));
    ((h as u128 * p as u128) >> 64) as usize
}

/// How many hashed candidate modules [`place_least_loaded`] chooses among.
pub const PLACEMENT_CHOICES: u64 = 4;

/// The `j`-th hashed candidate module of object `id` among `p`.
#[inline]
fn candidate(seed: u64, id: u64, j: u64, p: usize) -> usize {
    let salt = if j == 0 { 0 } else { mix64(j) };
    hash_place(seed ^ salt, id, p)
}

/// Least-loaded of [`PLACEMENT_CHOICES`] hashed choices: of the candidates
/// `j` of `id` (candidate 0 is [`hash_place`], candidate `j > 0` hashes
/// under `seed ⊕ mix64(j)`), the live one with the smallest `load` (ties to
/// the lower `j`).
/// A dead module is never a candidate; when every candidate is dead, the
/// least-loaded live module wins (ties to the lower index). `load` and
/// `dead` are indexed by module; the caller charges the chosen module.
///
/// Panics if every module is dead — the index is then unrecoverable.
pub fn place_least_loaded(seed: u64, id: u64, load: &[u64], dead: &[bool]) -> usize {
    debug_assert_eq!(load.len(), dead.len());
    let p = dead.len();
    let hashed = (0..PLACEMENT_CHOICES)
        .map(|j| candidate(seed, id, j, p))
        .filter(|&m| !dead[m])
        .min_by_key(|&m| load[m]);
    hashed.unwrap_or_else(|| {
        (0..p)
            .filter(|&m| !dead[m])
            .min_by_key(|&m| load[m])
            .expect("all PIM modules have fail-stopped; index unrecoverable")
    })
}

/// Rendezvous (highest-random-weight) hashing: deterministically elects the
/// owner of object `key` among `members` under `seed`.
///
/// Every member scores `mix64(seed ⊕ mix64(key) ⊕ mix64(member))` and the
/// highest score wins (ties break toward the smaller member id, so the
/// choice is a pure function of `(seed, key, members)`). Unlike
/// [`hash_place`], removing one member only re-homes the objects that member
/// owned — the minimal-disruption property the shard router's membership /
/// placement table relies on (see the fraktor-rs cluster module's
/// `RendezvousHasher` for the same construction).
///
/// Panics on an empty member set — ownership of nothing is a caller bug.
#[inline]
pub fn rendezvous_owner(seed: u64, key: u64, members: &[u32]) -> u32 {
    assert!(!members.is_empty(), "rendezvous_owner needs at least one member");
    let k = mix64(key);
    let mut best = members[0];
    let mut best_w = mix64(seed ^ k ^ mix64(members[0] as u64));
    for &m in &members[1..] {
        let w = mix64(seed ^ k ^ mix64(m as u64));
        if w > best_w || (w == best_w && m < best) {
            best = m;
            best_w = w;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic() {
        assert_eq!(hash_place(42, 7, 100), hash_place(42, 7, 100));
        // ... and seed-dependent.
        let a: Vec<usize> = (0..64).map(|i| hash_place(1, i, 16)).collect();
        let b: Vec<usize> = (0..64).map(|i| hash_place(2, i, 16)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn placement_is_in_range() {
        for id in 0..1000u64 {
            let m = hash_place(9, id, 7);
            assert!(m < 7);
        }
    }

    #[test]
    fn placement_is_balanced() {
        // 64k ids over 16 modules: each gets 4096 ± a few hundred.
        let p = 16;
        let mut counts = vec![0u64; p];
        for id in 0..65_536u64 {
            counts[hash_place(123, id, p)] += 1;
        }
        let expect = 65_536 / p as u64;
        for (m, &c) in counts.iter().enumerate() {
            assert!(
                c > expect * 9 / 10 && c < expect * 11 / 10,
                "module {m} got {c}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn least_loaded_on_an_idle_machine_is_the_plain_hash() {
        let (load, dead) = (vec![0u64; 64], vec![false; 64]);
        for id in 0..256u64 {
            assert_eq!(place_least_loaded(3, id, &load, &dead), hash_place(3, id, 64));
        }
    }

    #[test]
    fn least_loaded_takes_the_lightest_candidate_with_ties_to_the_lower_choice() {
        let p = 64;
        let dead = vec![false; p];
        for id in 0..256u64 {
            let cands: Vec<usize> =
                (0..PLACEMENT_CHOICES).map(|j| candidate(11, id, j, p)).collect();
            // Every module weighs 10 but the last candidate, which weighs 1.
            let mut load = vec![10u64; p];
            load[cands[3]] = 1;
            assert_eq!(place_least_loaded(11, id, &load, &dead), cands[3]);
            // Equal loads: the lowest j wins.
            let load = vec![5u64; p];
            assert_eq!(place_least_loaded(11, id, &load, &dead), cands[0]);
        }
    }

    #[test]
    fn dead_modules_are_never_chosen() {
        let p = 16;
        let load = vec![0u64; p];
        for id in 0..512u64 {
            let mut dead = vec![false; p];
            for j in 0..PLACEMENT_CHOICES {
                dead[candidate(5, id, j, p)] = true;
            }
            dead[2] = false; // keep at least one live module
            let m = place_least_loaded(5, id, &load, &dead);
            assert!(!dead[m], "id {id} placed on dead module {m}");
            // Only a dead first candidate moves the choice off it.
            let mut first_dead = vec![false; p];
            first_dead[candidate(5, id, 0, p)] = true;
            let m = place_least_loaded(5, id, &load, &first_dead);
            assert_ne!(m, candidate(5, id, 0, p));
        }
    }

    #[test]
    fn all_candidates_dead_falls_back_to_the_least_loaded_live_module() {
        let p = 8;
        let id = 42u64;
        let mut dead = vec![true; p];
        let cands: Vec<usize> = (0..PLACEMENT_CHOICES).map(|j| candidate(1, id, j, p)).collect();
        let live: Vec<usize> = (0..p).filter(|m| !cands.contains(m)).take(2).collect();
        for &m in &live {
            dead[m] = false;
        }
        let mut load = vec![0u64; p];
        load[live[0]] = 9;
        load[live[1]] = 3;
        assert_eq!(place_least_loaded(1, id, &load, &dead), live[1]);
    }

    #[test]
    fn least_loaded_balances_few_objects_per_module() {
        // 1.5 unit objects per module: one hash leaves about a fifth of the
        // modules empty; four choices leave none above 3.
        let p = 2048;
        let dead = vec![false; p];
        let (mut hashed, mut balanced) = (vec![0u64; p], vec![0u64; p]);
        for id in 0..3072u64 {
            hashed[hash_place(7, id, p)] += 1;
            let m = place_least_loaded(7, id, &balanced, &dead);
            balanced[m] += 1;
        }
        let idle = |l: &[u64]| l.iter().filter(|&&c| c == 0).count();
        assert!(idle(&hashed) > p / 6, "one hash left {} idle", idle(&hashed));
        assert!(idle(&balanced) < p / 20, "four choices left {} idle", idle(&balanced));
        assert!(*balanced.iter().max().unwrap() <= 3);
    }

    #[test]
    fn mix64_has_no_fixed_point_at_zero() {
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn rendezvous_is_deterministic_and_balanced() {
        let members: Vec<u32> = (0..8).collect();
        let mut counts = [0u64; 8];
        for key in 0..32_768u64 {
            let owner = rendezvous_owner(77, key, &members);
            assert_eq!(owner, rendezvous_owner(77, key, &members));
            counts[owner as usize] += 1;
        }
        let expect = 32_768 / 8;
        for (m, &c) in counts.iter().enumerate() {
            assert!(
                c > expect * 8 / 10 && c < expect * 12 / 10,
                "member {m} owns {c}, expected ≈{expect}"
            );
        }
    }

    #[test]
    fn rendezvous_removal_only_rehomes_the_departed_members_keys() {
        let full: Vec<u32> = (0..8).collect();
        let without_3: Vec<u32> = full.iter().copied().filter(|&m| m != 3).collect();
        for key in 0..4096u64 {
            let before = rendezvous_owner(5, key, &full);
            let after = rendezvous_owner(5, key, &without_3);
            if before != 3 {
                assert_eq!(before, after, "key {key} moved although its owner survived");
            }
        }
    }

    #[test]
    fn rendezvous_ignores_member_order() {
        let a: Vec<u32> = vec![0, 1, 2, 3, 4];
        let b: Vec<u32> = vec![4, 2, 0, 3, 1];
        for key in 0..512u64 {
            assert_eq!(rendezvous_owner(9, key, &a), rendezvous_owner(9, key, &b));
        }
    }
}
