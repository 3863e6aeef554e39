//! Hash-based randomized placement of objects onto PIM modules.
//!
//! PIM-zd-tree "distributes each tree node across PIM modules using a
//! hash-based randomization strategy, ensuring that even adversarial
//! operations cannot consistently target the same node" (§3). We use a
//! seeded SplitMix64 finalizer: statistically uniform, deterministic for a
//! given seed, and cheap enough to recompute rather than store.

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
