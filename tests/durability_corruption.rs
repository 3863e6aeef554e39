//! Property-based hardening of the durability artifacts: arbitrarily
//! damaged checkpoint images and WAL files must be rejected with a *typed*
//! [`DurabilityError`] — never a panic, never a silently wrong tree.
//!
//! Three damage families are exercised, per artifact:
//! - single bit flips anywhere in the image,
//! - truncation to any shorter length,
//! - version-field bumps (forward-incompatible files).

use pim_zd_tree_repro::index::checkpoint::CKPT_VERSION;
use pim_zd_tree_repro::index::wal;
use pim_zd_tree_repro::{
    workloads, DurabilityError, MachineConfig, PimZdConfig, PimZdTree, Wal, WalOp, WalReadMode,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pzd-corrupt-{}-{name}", std::process::id()))
}

/// A small but fully populated checkpoint image (L0 + module fragments +
/// counters), built once per process.
fn checkpoint_image() -> &'static [u8] {
    use std::sync::OnceLock;
    static IMG: OnceLock<Vec<u8>> = OnceLock::new();
    IMG.get_or_init(|| {
        let pts = workloads::uniform::<3>(900, 17);
        let cfg = PimZdConfig::skew_resistant(8);
        let mut t = PimZdTree::build(&pts, cfg, MachineConfig::with_modules(8));
        t.batch_insert(&workloads::uniform::<3>(120, 18));
        t.batch_delete(&pts[..60]);
        t.checkpoint_bytes()
    })
}

/// A WAL file with several complete records, built once per process.
fn wal_image() -> &'static [u8] {
    use std::sync::OnceLock;
    static IMG: OnceLock<Vec<u8>> = OnceLock::new();
    IMG.get_or_init(|| {
        let path = tmp("seed.wal");
        let mut w = Wal::create::<3>(&path).expect("create wal");
        for (i, op) in [WalOp::Insert, WalOp::Delete, WalOp::Insert].iter().enumerate() {
            let pts = workloads::uniform::<3>(40 + i, 40 + i as u64);
            w.append::<3>(i as u64 + 1, *op, &pts).expect("append");
        }
        let bytes = std::fs::read(&path).expect("read wal back");
        let _ = std::fs::remove_file(&path);
        bytes
    })
}

/// Damaged checkpoints must fail typed; only a lucky flip inside an
/// unvalidated byte could still decode, and then it must round-trip.
fn check_checkpoint(bytes: &[u8]) {
    match PimZdTree::<3>::restore_bytes(bytes) {
        Err(
            DurabilityError::BadMagic { .. }
            | DurabilityError::BadVersion { .. }
            | DurabilityError::DimMismatch { .. }
            | DurabilityError::Truncated { .. }
            | DurabilityError::Corrupt { .. }
            | DurabilityError::Io(_),
        ) => {}
        Ok(t) => {
            // The checksums make false acceptance of a *flipped* image
            // astronomically unlikely; reaching here means the damage was
            // outside any covered byte, i.e. the image was intact.
            assert_eq!(t.checkpoint_bytes(), bytes, "accepted image must round-trip");
        }
    }
}

fn check_wal(bytes: &[u8], mode: WalReadMode) {
    match wal::decode_wal::<3>(bytes, mode) {
        Ok((_, consumed)) => {
            assert!(consumed <= bytes.len(), "cannot consume past the end");
        }
        Err(
            DurabilityError::BadMagic { .. }
            | DurabilityError::BadVersion { .. }
            | DurabilityError::DimMismatch { .. }
            | DurabilityError::Truncated { .. }
            | DurabilityError::Corrupt { .. }
            | DurabilityError::Io(_),
        ) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bit_flipped_checkpoints_never_panic(pos in 0usize..1 << 20, bit in 0u8..8) {
        let mut img = checkpoint_image().to_vec();
        let pos = pos % img.len();
        img[pos] ^= 1 << bit;
        check_checkpoint(&img);
    }

    #[test]
    fn truncated_checkpoints_never_panic(cut in 0usize..1 << 20) {
        let img = checkpoint_image();
        let cut = cut % img.len();
        prop_assert!(
            PimZdTree::<3>::restore_bytes(&img[..cut]).is_err(),
            "a strict prefix can never be a valid checkpoint"
        );
    }

    #[test]
    fn version_bumped_checkpoints_are_rejected(v in CKPT_VERSION + 1..=u32::MAX) {
        let mut img = checkpoint_image().to_vec();
        img[8..12].copy_from_slice(&v.to_le_bytes());
        prop_assert_eq!(
            PimZdTree::<3>::restore_bytes(&img).err(),
            Some(DurabilityError::BadVersion {
                artifact: "checkpoint",
                found: v,
                supported: CKPT_VERSION
            })
        );
    }

    #[test]
    fn bit_flipped_wals_never_panic(pos in 0usize..1 << 16, bit in 0u8..8, strict in proptest::bool::ANY) {
        let mut img = wal_image().to_vec();
        let pos = pos % img.len();
        img[pos] ^= 1 << bit;
        let mode = if strict { WalReadMode::Strict } else { WalReadMode::Recovery };
        check_wal(&img, mode);
    }

    #[test]
    fn truncated_wals_never_panic(cut in 0usize..1 << 16, strict in proptest::bool::ANY) {
        let img = wal_image();
        let cut = cut % img.len();
        let mode = if strict { WalReadMode::Strict } else { WalReadMode::Recovery };
        check_wal(&img[..cut], mode);
        if strict && cut > 16 {
            // Any mid-record cut is a torn tail: Strict must refuse it.
            let frame_ok = {
                let (recs, consumed) = wal::decode_wal::<3>(&img[..cut], WalReadMode::Recovery)
                    .expect("recovery tolerates torn tails");
                drop(recs);
                consumed == cut
            };
            if !frame_ok {
                prop_assert!(wal::decode_wal::<3>(&img[..cut], WalReadMode::Strict).is_err());
            }
        }
    }

    #[test]
    fn version_bumped_wals_are_rejected(v in 2u32..=u32::MAX, strict in proptest::bool::ANY) {
        let mut img = wal_image().to_vec();
        img[8..12].copy_from_slice(&v.to_le_bytes());
        let mode = if strict { WalReadMode::Strict } else { WalReadMode::Recovery };
        prop_assert_eq!(
            wal::decode_wal::<3>(&img, mode).err(),
            Some(DurabilityError::BadVersion { artifact: "wal", found: v, supported: 1 })
        );
    }
}
