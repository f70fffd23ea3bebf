//! Crash-safe shard journaling: the checkpoint half of the supervision
//! layer (DESIGN.md §14).
//!
//! A supervised sweep appends each completed shard result to a journal
//! file in ascending shard-id order as the fold front advances. Every
//! record is length-framed and CRC-checked, so a run killed mid-write
//! leaves at worst a torn tail that the loader silently truncates;
//! resuming then re-runs only the shards past the last durable record
//! and produces byte-identical output to an uninterrupted run.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header:  b"LKCP" | version u16 | run_id u64 | crc32(previous 14 bytes)
//! record:  shard_id u64 | payload_len u32 | payload | crc32(record so far)
//! ```
//!
//! The `run_id` is a caller-computed fingerprint of everything that
//! shapes the sweep (figure tag, seed, scale, shard count — see
//! [`run_fingerprint`]); resuming with a mismatched fingerprint is
//! refused rather than silently blending two different runs.

// The journal is the engine's one file: only the types are waived, so the
// `{to,from}_ne_bytes` ban (a disallowed method) still holds here.
#![expect(clippy::disallowed_types, reason = "the Fig. 12 journal is the sanctioned file I/O")]

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::seed::splitmix64;

/// Journal file magic bytes.
pub const JOURNAL_MAGIC: [u8; 4] = *b"LKCP";

/// Journal format version.
pub const JOURNAL_VERSION: u16 = 1;

const HEADER_LEN: usize = 4 + 2 + 8 + 4;
const RECORD_PREFIX: usize = 8 + 4;
const CRC_LEN: usize = 4;

/// CRC-32 (IEEE 802.3, reflected polynomial) over `bytes` — hand-rolled
/// and table-free so the journal format has zero dependencies.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Chains `parts` into one run fingerprint via repeated [`splitmix64`].
///
/// Callers fold every input that shapes a sweep (an experiment tag, the
/// root seed, the scale divisor, the shard count) so a journal can never
/// be resumed against a differently-shaped run.
pub fn run_fingerprint(parts: &[u64]) -> u64 {
    let mut acc = 0x1007_a51d_ec0d_e000 ^ u64::from(JOURNAL_VERSION);
    for (i, &part) in parts.iter().enumerate() {
        acc = splitmix64(acc ^ part, i as u64);
    }
    acc
}

/// Fixed-layout little-endian encoding for journaled shard results.
///
/// Implementations must be exact round-trips: `decode(encode(v)) == v`
/// bit for bit, with no platform-dependent widths, so a resumed fold is
/// byte-identical to an uninterrupted one.
pub trait JournalCodec: Sized {
    /// Appends the encoded value to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the front of `*bytes`, advancing it past
    /// the consumed prefix. `None` on any shape mismatch.
    fn decode_from(bytes: &mut &[u8]) -> Option<Self>;
    /// Decodes a value that must consume `bytes` exactly.
    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut rest = bytes;
        let value = Self::decode_from(&mut rest)?;
        rest.is_empty().then_some(value)
    }
}

fn take<'a>(r: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if r.len() < n {
        return None;
    }
    let (head, tail) = r.split_at(n);
    *r = tail;
    Some(head)
}

fn take_u64(r: &mut &[u8]) -> Option<u64> {
    let mut b = [0u8; 8];
    b.copy_from_slice(take(r, 8)?);
    Some(u64::from_le_bytes(b))
}

fn take_u32(r: &mut &[u8]) -> Option<u32> {
    let mut b = [0u8; 4];
    b.copy_from_slice(take(r, 4)?);
    Some(u32::from_le_bytes(b))
}

fn take_u16(r: &mut &[u8]) -> Option<u16> {
    let mut b = [0u8; 2];
    b.copy_from_slice(take(r, 2)?);
    Some(u16::from_le_bytes(b))
}

impl JournalCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode_from(bytes: &mut &[u8]) -> Option<Self> {
        take_u64(bytes)
    }
}

impl JournalCodec for (u64, u64, u64) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode_from(bytes: &mut &[u8]) -> Option<Self> {
        Some((take_u64(bytes)?, take_u64(bytes)?, take_u64(bytes)?))
    }
}

impl<T: JournalCodec> JournalCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode_from(bytes: &mut &[u8]) -> Option<Self> {
        let count = usize::try_from(take_u64(bytes)?).ok()?;
        // Pre-size conservatively: a corrupt count must not OOM before
        // the element decode fails.
        let mut items = Vec::with_capacity(count.min(bytes.len()));
        for _ in 0..count {
            items.push(T::decode_from(bytes)?);
        }
        Some(items)
    }
}

/// Why a journal could not be opened, read, or written.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file exists but does not start with a valid journal header.
    BadHeader(&'static str),
    /// The journal was written by a differently-configured run.
    RunIdMismatch {
        /// Fingerprint of the run being resumed.
        expected: u64,
        /// Fingerprint found in the journal header.
        found: u64,
    },
    /// A CRC-valid record failed to decode as the expected shard type.
    Decode {
        /// The shard id of the undecodable record.
        shard_id: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::BadHeader(why) => write!(f, "not a checkpoint journal: {why}"),
            JournalError::RunIdMismatch { expected, found } => write!(
                f,
                "journal belongs to a different run \
                 (expected fingerprint {expected:#x}, found {found:#x})"
            ),
            JournalError::Decode { shard_id } => {
                write!(f, "journal record for shard {shard_id} does not decode as this sweep's shard type")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

fn encode_header(run_id: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&JOURNAL_MAGIC);
    out.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    out.extend_from_slice(&run_id.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    h.copy_from_slice(&out);
    h
}

/// A typed checkpoint: records recovered from a previous run plus an
/// open journal appending this run's completions. Every appended record
/// is synced to disk before the next, so a SIGKILL loses at most the
/// record being written.
#[derive(Debug)]
pub struct Checkpoint<T> {
    file: File,
    path: PathBuf,
    buf: Vec<u8>,
    resumed: BTreeMap<usize, T>,
}

impl<T: JournalCodec> Checkpoint<T> {
    /// Starts a fresh journal at `path`, truncating any existing file.
    pub fn fresh(path: &Path, run_id: u64) -> Result<Self, JournalError> {
        let mut file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        file.write_all(&encode_header(run_id))?;
        file.sync_data()?;
        Ok(Checkpoint { file, path: path.to_path_buf(), buf: Vec::new(), resumed: BTreeMap::new() })
    }

    /// Opens `path`, recovers every valid record, truncates any torn
    /// tail, and continues appending after it. A missing or header-less
    /// (torn before the first sync) file starts fresh.
    ///
    /// # Errors
    ///
    /// [`JournalError::BadHeader`] if the file is not a journal,
    /// [`JournalError::RunIdMismatch`] if it belongs to a different run,
    /// [`JournalError::Decode`] if a CRC-valid record does not decode as
    /// `T`, or [`JournalError::Io`] on filesystem failure.
    pub fn resume(path: &Path, run_id: u64) -> Result<Self, JournalError> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Checkpoint::fresh(path, run_id);
            }
            Err(e) => return Err(e.into()),
        }
        if bytes.len() < HEADER_LEN {
            // Died before the header hit the disk: nothing recoverable.
            return Checkpoint::fresh(path, run_id);
        }
        let mut header = bytes.get(..HEADER_LEN).unwrap_or_default();
        let magic = take(&mut header, 4).unwrap_or_default();
        if magic != JOURNAL_MAGIC {
            return Err(JournalError::BadHeader("wrong magic bytes"));
        }
        let version = take_u16(&mut header).unwrap_or(0);
        if version != JOURNAL_VERSION {
            return Err(JournalError::BadHeader("unsupported version"));
        }
        let found = take_u64(&mut header).unwrap_or(0);
        let stored_crc = take_u32(&mut header).unwrap_or(0);
        let crc_input = bytes.get(..HEADER_LEN - CRC_LEN).unwrap_or_default();
        if stored_crc != crc32(crc_input) {
            return Err(JournalError::BadHeader("header checksum mismatch"));
        }
        if found != run_id {
            return Err(JournalError::RunIdMismatch { expected: run_id, found });
        }

        let mut resumed = BTreeMap::new();
        let mut valid_end = HEADER_LEN;
        loop {
            let rest = bytes.get(valid_end..).unwrap_or_default();
            let Some(record_len) = framed_record_len(rest) else { break };
            let Some(record) = rest.get(..record_len) else { break };
            let mut r = record;
            let shard_id = take_u64(&mut r).unwrap_or(0);
            let payload_len = take_u32(&mut r).unwrap_or(0) as usize;
            let payload = take(&mut r, payload_len).unwrap_or_default();
            let stored = {
                let mut tail = r;
                take_u32(&mut tail).unwrap_or(0)
            };
            let covered = record.get(..RECORD_PREFIX + payload_len).unwrap_or_default();
            if stored != crc32(covered) {
                break; // torn or corrupt tail: drop it and everything after
            }
            let Some(value) = T::decode(payload) else {
                return Err(JournalError::Decode { shard_id });
            };
            let Ok(id) = usize::try_from(shard_id) else {
                return Err(JournalError::Decode { shard_id });
            };
            resumed.insert(id, value);
            valid_end += record_len;
        }

        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_end as u64)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Checkpoint { file, path: path.to_path_buf(), buf: Vec::new(), resumed })
    }

    /// The journal's location on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Shard results recovered from the journal, keyed by shard id. The
    /// supervisor takes these once and folds them without re-running or
    /// re-journaling the shards.
    pub fn take_resumed(&mut self) -> BTreeMap<usize, T> {
        std::mem::take(&mut self.resumed)
    }

    /// Appends one completed shard result; the record is built in memory,
    /// written with a single `write_all`, and synced to disk.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on write or sync failure.
    pub fn record(&mut self, shard_id: usize, value: &T) -> Result<(), JournalError> {
        self.buf.clear();
        self.buf.extend_from_slice(&(shard_id as u64).to_le_bytes());
        self.buf.extend_from_slice(&[0u8; 4]);
        value.encode(&mut self.buf);
        let payload_len = (self.buf.len() - RECORD_PREFIX) as u32;
        if let Some(slot) = self.buf.get_mut(8..RECORD_PREFIX) {
            slot.copy_from_slice(&payload_len.to_le_bytes());
        }
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.file.write_all(&self.buf)?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// Total framed length of the record at the front of `rest`, if the
/// prefix is complete enough to tell.
fn framed_record_len(rest: &[u8]) -> Option<usize> {
    if rest.len() < RECORD_PREFIX + CRC_LEN {
        return None;
    }
    let mut r = rest;
    let _shard = take_u64(&mut r)?;
    let payload_len = take_u32(&mut r)? as usize;
    let total = RECORD_PREFIX + payload_len + CRC_LEN;
    (rest.len() >= total).then_some(total)
}

#[cfg(test)]
mod tests {
    #![expect(clippy::disallowed_methods, reason = "the tests write and corrupt journal files")]

    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lookaside-ckpt-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn codec_round_trips_exactly() {
        let rows: Vec<(u64, u64, u64)> = vec![(1, 2, 3), (u64::MAX, 0, 7)];
        let mut buf = Vec::new();
        rows.encode(&mut buf);
        assert_eq!(Vec::<(u64, u64, u64)>::decode(&buf), Some(rows));
        // Trailing garbage must be rejected by the exact-decode form.
        buf.push(0);
        assert_eq!(Vec::<(u64, u64, u64)>::decode(&buf), None);
    }

    #[test]
    fn fresh_write_then_resume_recovers_every_record() {
        let path = tmp("roundtrip");
        let run = run_fingerprint(&[1, 2, 3]);
        {
            let mut ck: Checkpoint<Vec<u64>> = Checkpoint::fresh(&path, run).expect("fresh");
            ck.record(0, &vec![10, 11]).expect("record");
            ck.record(1, &vec![]).expect("record");
            ck.record(2, &vec![99]).expect("record");
        }
        let mut ck: Checkpoint<Vec<u64>> = Checkpoint::resume(&path, run).expect("resume");
        let got = ck.take_resumed();
        assert_eq!(got.len(), 3);
        assert_eq!(got.get(&0), Some(&vec![10, 11]));
        assert_eq!(got.get(&1), Some(&vec![]));
        assert_eq!(got.get(&2), Some(&vec![99]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_to_the_last_valid_record() {
        let path = tmp("torn");
        let run = run_fingerprint(&[9]);
        {
            let mut ck: Checkpoint<u64> = Checkpoint::fresh(&path, run).expect("fresh");
            ck.record(0, &111).expect("record");
            ck.record(1, &222).expect("record");
        }
        // Simulate a SIGKILL mid-write: append half a record of garbage.
        let mut bytes = std::fs::read(&path).expect("read");
        let full = bytes.len();
        bytes.extend_from_slice(&[0x5a; 9]);
        std::fs::write(&path, &bytes).expect("write");

        let mut ck: Checkpoint<u64> = Checkpoint::resume(&path, run).expect("resume");
        let got = ck.take_resumed();
        assert_eq!(got.len(), 2);
        assert_eq!(got.get(&1), Some(&222));
        // The torn bytes are gone from disk; appends restart cleanly.
        assert_eq!(std::fs::metadata(&path).expect("meta").len() as usize, full);
        ck.record(2, &333).expect("record");
        drop(ck);
        let mut again: Checkpoint<u64> = Checkpoint::resume(&path, run).expect("resume2");
        assert_eq!(again.take_resumed().len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_record_body_drops_it_and_everything_after() {
        let path = tmp("corrupt");
        let run = run_fingerprint(&[4]);
        {
            let mut ck: Checkpoint<u64> = Checkpoint::fresh(&path, run).expect("fresh");
            ck.record(0, &5).expect("record");
            ck.record(1, &6).expect("record");
        }
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a payload byte inside the first record.
        let idx = HEADER_LEN + RECORD_PREFIX;
        bytes[idx] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write");
        let mut ck: Checkpoint<u64> = Checkpoint::resume(&path, run).expect("resume");
        assert!(ck.take_resumed().is_empty(), "corrupt first record drops the tail too");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_id_mismatch_is_refused() {
        let path = tmp("runid");
        {
            let _ck: Checkpoint<u64> = Checkpoint::fresh(&path, 7).expect("fresh");
        }
        let err = Checkpoint::<u64>::resume(&path, 8).expect_err("mismatch");
        assert!(matches!(err, JournalError::RunIdMismatch { expected: 8, found: 7 }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_journal_file_is_refused() {
        let path = tmp("notajournal");
        std::fs::write(&path, b"totally not a journal, but long enough to parse").expect("write");
        let err = Checkpoint::<u64>::resume(&path, 1).expect_err("bad header");
        assert!(matches!(err, JournalError::BadHeader(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_resumes_as_fresh() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        let mut ck: Checkpoint<u64> = Checkpoint::resume(&path, 3).expect("fresh resume");
        assert!(ck.take_resumed().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_separates_runs_and_orders() {
        assert_ne!(run_fingerprint(&[1, 2]), run_fingerprint(&[2, 1]));
        assert_ne!(run_fingerprint(&[1]), run_fingerprint(&[1, 0]));
        assert_eq!(run_fingerprint(&[5, 6]), run_fingerprint(&[5, 6]));
    }
}
