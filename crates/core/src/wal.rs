//! Write-ahead log of applied mutation batches.
//!
//! Durability is a two-piece contract (see ARCHITECTURE.md §"Durability"):
//! a checkpoint captures the full host state at some epoch, and this log
//! records every mutation batch applied since, *before* it is applied.
//! Recovery is then "restore the checkpoint, replay every logged batch with
//! a later epoch" — and because the index is deterministic, the replayed
//! batches reproduce the original run's journals and metrics byte-for-byte.
//!
//! ## File layout
//!
//! ```text
//! header:  magic "PZDWAL01" (8) | version u32 | dims u32
//! record:  len u32 | crc u64 | payload (len bytes)
//! payload: epoch u64 | op u8 | n u32 | n × D × coord u32
//! ```
//!
//! The payload is one [`WalRecord`], whose field list (beside the
//! checkpoint's, in the same [`crate::codec`] layer) is its layout; the
//! header is the checkpoint's header, read by the same function. `crc` is
//! [`checksum_bytes`] over the payload under a fixed WAL key; the checksum is
//! length-seeded, so a record whose `len` field was damaged fails its crc
//! too. `epoch` is the epoch the batch *produces* (the pre-batch epoch + 1),
//! which is what lets replay skip batches already inside a checkpoint.
//!
//! ## Torn tails vs corruption
//!
//! A host crash can tear the last record (the process died mid-`write`).
//! [`WalReadMode::Recovery`] therefore treats an *incomplete* trailing
//! record as the end of the log and reports the consistent byte length so
//! the recovery path can truncate the tear before appending again. A
//! *complete* record that fails its crc is never a tear — it is damage to
//! acknowledged data — and is a hard [`DurabilityError::Corrupt`] in both
//! modes. [`WalReadMode::Strict`] (integrity audits, tests) rejects even
//! the torn tail.

use crate::checkpoint::DurabilityError;
use crate::codec::{self, decode_exact, record, tagged, Dec, Enc};
use pim_geom::Point;
use pim_sim::checksum_bytes;
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

/// WAL file magic.
pub const WAL_MAGIC: [u8; 8] = *b"PZDWAL01";
/// Current (only) WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Keyed-checksum domain for WAL record crcs.
const WAL_KEY: u64 = 0x5a44_5741_4c4b_3159; // "ZDWALK1Y"
/// Bytes of a record frame before its payload (`len u32 | crc u64`).
const WAL_FRAME_BYTES: usize = 12;
/// Artifact tag used in [`DurabilityError`]s from this module.
const ARTIFACT: &str = "wal";

/// What a logged batch did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// `batch_insert`.
    Insert,
    /// `batch_delete`.
    Delete,
}

/// One decoded WAL record: a mutation batch and the epoch it produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord<const D: usize> {
    /// Epoch after applying this batch (pre-batch epoch + 1).
    pub epoch: u64,
    /// Insert or delete.
    pub op: WalOp,
    /// The batch's points, in submission order.
    pub points: Vec<Point<D>>,
}

tagged! { [] WalOp { 0 => Insert, 1 => Delete } }
record! { [const D: usize] WalRecord<D> { epoch: u64, op: WalOp, points: Vec<Point<D>> } }

/// How strictly to treat an incomplete trailing record (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalReadMode {
    /// Tolerate a torn tail: stop at the last complete record and report
    /// the consistent length (crash recovery).
    Recovery,
    /// Reject any trailing garbage (integrity audits).
    Strict,
}

/// An open write-ahead log. Attach to a tree via
/// [`PimZdTree::set_wal`](crate::PimZdTree::set_wal); every subsequent
/// mutation batch is appended (and synced) before it is applied.
#[derive(Debug)]
pub struct Wal {
    file: std::fs::File,
    path: PathBuf,
}

impl Wal {
    /// Creates a fresh (empty) log at `path`, truncating any existing file.
    /// `D` is recorded in the header; replay rejects dimension mismatches.
    pub fn create<const D: usize>(path: impl AsRef<Path>) -> Result<Self, DurabilityError> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut e = Enc::new();
        codec::write_header::<D>(&mut e, WAL_MAGIC, WAL_VERSION);
        file.write_all(&e.into_bytes())?;
        file.sync_data()?;
        Ok(Self { file, path })
    }

    /// Opens an existing log for appending, validating its header against
    /// `D`. The caller is responsible for having truncated any torn tail
    /// first (the recovery path does; see
    /// [`PimZdTree::recover`](crate::PimZdTree::recover)).
    pub fn open_for_append<const D: usize>(
        path: impl AsRef<Path>,
    ) -> Result<Self, DurabilityError> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::OpenOptions::new().read(true).write(true).open(&path)?;
        let mut header = Vec::with_capacity(codec::HEADER_BYTES);
        (&file).take(codec::HEADER_BYTES as u64).read_to_end(&mut header)?;
        read_header::<D>(&mut Dec::new(&header))?;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(Self { file, path })
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends (and syncs) one batch. `epoch` is the epoch the batch will
    /// produce once applied.
    pub fn append<const D: usize>(
        &mut self,
        epoch: u64,
        op: WalOp,
        points: &[Point<D>],
    ) -> Result<(), DurabilityError> {
        let mut p = Enc::new();
        p.put(&WalRecord { epoch, op, points: points.to_vec() });
        let payload = p.into_bytes();
        let mut frame = Enc::new();
        frame.put(&(payload.len() as u32, checksum_bytes(WAL_KEY, &payload)));
        frame.bytes(&payload);
        self.file.write_all(&frame.into_bytes())?;
        self.file.sync_data()?;
        Ok(())
    }
}

fn read_header<const D: usize>(d: &mut Dec<'_>) -> Result<(), DurabilityError> {
    codec::read_header::<D>(d, ARTIFACT, WAL_MAGIC, WAL_VERSION)
}

/// Reads and decodes a WAL file. Returns the records and the *consistent
/// length* — the byte offset just past the last complete record, which is
/// where recovery truncates before appending again.
pub fn read_wal<const D: usize>(
    path: impl AsRef<Path>,
    mode: WalReadMode,
) -> Result<(Vec<WalRecord<D>>, u64), DurabilityError> {
    let bytes = std::fs::read(path)?;
    let (records, consistent) = decode_wal::<D>(&bytes, mode)?;
    Ok((records, consistent as u64))
}

/// Decodes a WAL image from memory (see [`read_wal`]). The second element
/// of the result is the consistent byte length.
pub fn decode_wal<const D: usize>(
    bytes: &[u8],
    mode: WalReadMode,
) -> Result<(Vec<WalRecord<D>>, usize), DurabilityError> {
    let mut d = Dec::new(bytes);
    read_header::<D>(&mut d)?;
    let mut records = Vec::new();
    let mut pos = d.pos();
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break;
        }
        if remaining < WAL_FRAME_BYTES {
            match mode {
                WalReadMode::Recovery => break,
                WalReadMode::Strict => {
                    return Err(DurabilityError::Truncated { artifact: ARTIFACT, offset: pos })
                }
            }
        }
        let (len, crc) = Dec::new(&bytes[pos..]).get::<(u32, u64)>().expect("a whole frame");
        let len = len as usize;
        if remaining - WAL_FRAME_BYTES < len {
            match mode {
                WalReadMode::Recovery => break,
                WalReadMode::Strict => {
                    return Err(DurabilityError::Truncated { artifact: ARTIFACT, offset: pos })
                }
            }
        }
        let payload = &bytes[pos + WAL_FRAME_BYTES..pos + WAL_FRAME_BYTES + len];
        // A complete record with a bad crc is damage to acknowledged data,
        // never a torn tail — hard error in both modes.
        if checksum_bytes(WAL_KEY, payload) != crc {
            return Err(DurabilityError::Corrupt {
                artifact: ARTIFACT,
                detail: format!("record at offset {pos} fails its checksum"),
            });
        }
        records.push(decode_exact(payload).map_err(|e| DurabilityError::Corrupt {
            artifact: ARTIFACT,
            detail: format!("record at offset {pos}: {e}"),
        })?);
        pos += WAL_FRAME_BYTES + len;
    }
    Ok((records, pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(vals: &[[u32; 2]]) -> Vec<Point<2>> {
        vals.iter().map(|&c| Point::new(c)).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pim_zd_wal_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn append_and_read_roundtrip() {
        let path = tmp("roundtrip");
        let mut wal = Wal::create::<2>(&path).unwrap();
        wal.append(1, WalOp::Insert, &pts(&[[1, 2], [3, 4]])).unwrap();
        wal.append(2, WalOp::Delete, &pts(&[[1, 2]])).unwrap();
        wal.append::<2>(3, WalOp::Insert, &[]).unwrap();
        let (recs, consistent) = read_wal::<2>(&path, WalReadMode::Strict).unwrap();
        assert_eq!(consistent, std::fs::metadata(&path).unwrap().len());
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs[0],
            WalRecord { epoch: 1, op: WalOp::Insert, points: pts(&[[1, 2], [3, 4]]) }
        );
        assert_eq!(recs[1], WalRecord { epoch: 2, op: WalOp::Delete, points: pts(&[[1, 2]]) });
        assert_eq!(recs[2].points, Vec::<Point<2>>::new());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_recovered_but_rejected_strictly() {
        let path = tmp("torn");
        let mut wal = Wal::create::<2>(&path).unwrap();
        wal.append(1, WalOp::Insert, &pts(&[[7, 8]])).unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        wal.append(2, WalOp::Insert, &pts(&[[9, 10]])).unwrap();
        drop(wal);
        // Tear the second record mid-payload.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (recs, consistent) = read_wal::<2>(&path, WalReadMode::Recovery).unwrap();
        assert_eq!(recs.len(), 1, "torn record dropped");
        assert_eq!(consistent, full, "consistent point is the last complete record");
        assert!(matches!(
            read_wal::<2>(&path, WalReadMode::Strict),
            Err(DurabilityError::Truncated { artifact: "wal", .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn complete_record_with_bad_crc_is_corrupt_in_both_modes() {
        let path = tmp("crc");
        let mut wal = Wal::create::<2>(&path).unwrap();
        wal.append(1, WalOp::Insert, &pts(&[[7, 8]])).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip a payload bit; the record stays complete
        std::fs::write(&path, &bytes).unwrap();
        for mode in [WalReadMode::Recovery, WalReadMode::Strict] {
            assert!(matches!(
                read_wal::<2>(&path, mode),
                Err(DurabilityError::Corrupt { artifact: "wal", .. })
            ));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatches_are_typed() {
        let path = tmp("header");
        Wal::create::<2>(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut bumped = good.clone();
        bumped[8] = 99; // version low byte
        std::fs::write(&path, &bumped).unwrap();
        assert!(matches!(
            read_wal::<2>(&path, WalReadMode::Recovery),
            Err(DurabilityError::BadVersion { artifact: "wal", found: 99, supported: 1 })
        ));

        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        std::fs::write(&path, &wrong_magic).unwrap();
        assert!(matches!(
            read_wal::<2>(&path, WalReadMode::Recovery),
            Err(DurabilityError::BadMagic { artifact: "wal" })
        ));

        std::fs::write(&path, &good).unwrap();
        assert!(matches!(
            read_wal::<3>(&path, WalReadMode::Recovery),
            Err(DurabilityError::DimMismatch { artifact: "wal", found: 2, expected: 3 })
        ));
        std::fs::remove_file(&path).ok();
    }
}
