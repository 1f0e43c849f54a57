//! Crash-safe persistent report store: the write-behind third layer of
//! the result cache.
//!
//! Deriving a tight bound is expensive and the pipeline is deterministic,
//! so a finished report is worth keeping across daemon restarts. The
//! store is an **append-only journal** of rendered serve-envelope bodies
//! keyed by `(canonical content hash × options fingerprint)`, plus a
//! periodically rewritten **checksummed snapshot** the journal compacts
//! into. Durability model:
//!
//! * every append is `write(2)`-complete before the request that computed
//!   it finishes — data that reached the kernel survives `kill -9`;
//! * `fsync` happens only on [`ReportStore::flush`] (the daemon's drain
//!   path) and around compaction — a power loss between flushes can lose
//!   recent appends but can never corrupt the recovery invariant below;
//! * **recovery is corruption-tolerant**: every record carries a magic,
//!   a length prefix, and a CRC-32 of its payload. A torn tail is
//!   truncated (and counted), a corrupt record in the middle is skipped
//!   (and counted) with a magic-scan resync — the store always opens.
//!
//! The four store operations are governed seams ([`Seam::StoreAppend`],
//! [`Seam::StoreFlush`], [`Seam::StoreCompact`], [`Seam::StoreRecover`]):
//! each polls its [`CancelToken`] *before* touching the disk, so an
//! injected fault surfaces as its typed [`AnalysisError`] class and never
//! leaves a half-written record behind. Real disk failures are injected
//! through the [`StoreIo`] seam instead (short writes, disk-full, failed
//! renames), which is how the tests produce genuinely torn files.

use iolb_core::govern::{AnalysisError, CancelToken, Seam};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-record magic, scanned for when resyncing past a corrupt record.
pub const RECORD_MAGIC: [u8; 4] = *b"IOLR";
/// Snapshot file header magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"IOLBSNP1";
/// Journal file name inside the store directory.
pub const JOURNAL_FILE: &str = "journal.log";
/// Snapshot file name inside the store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Upper bound on one record's payload (a rendered report body plus its
/// key); anything larger is treated as corruption, not an allocation.
pub const MAX_RECORD: usize = 1 << 26;

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The persistent identity of one finished report: the canonical content
/// hash crossed with the full options fingerprint (which embeds the
/// engines fingerprint; it is also stored separately for introspection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreKey {
    /// 128-bit FNV-1a of the canonicalized kernel text.
    pub canon_hash: u128,
    /// [`AnalysisOptions::fingerprint`](crate::AnalysisOptions::fingerprint).
    pub options_fp: String,
    /// The canonical engine-selection spec of the request.
    pub engines_fp: String,
}

/// Injectable disk-I/O seam. The production implementation is
/// [`RealIo`]; tests substitute failing or short-writing implementations
/// to produce genuinely torn journals and disk-full appends.
pub trait StoreIo: Send + Sync {
    /// Appends `bytes` to `file` (must be all-or-error in production).
    ///
    /// # Errors
    /// The underlying I/O error; a partial write must also error.
    fn write_all(&self, file: &mut File, bytes: &[u8]) -> std::io::Result<()>;
    /// Forces `file`'s data to stable storage.
    ///
    /// # Errors
    /// The underlying fsync error.
    fn sync(&self, file: &File) -> std::io::Result<()>;
    /// Atomically renames `from` onto `to`.
    ///
    /// # Errors
    /// The underlying rename error.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
}

/// The production [`StoreIo`]: plain `std::io` calls.
#[derive(Debug, Default)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn write_all(&self, file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
        use std::io::Write as _;
        file.write_all(bytes)
    }
    fn sync(&self, file: &File) -> std::io::Result<()> {
        file.sync_data()
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }
}

/// What recovery found when the store opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records loaded from the snapshot.
    pub snapshot_records: u64,
    /// Records loaded from the journal (includes later-write-wins
    /// duplicates of snapshot keys).
    pub recovered_records: u64,
    /// Records whose CRC or framing failed — skipped, never served.
    pub skipped_corrupt_records: u64,
    /// Bytes of incomplete trailing record truncated off the journal.
    pub torn_tail_bytes: u64,
}

/// Counter snapshot of a live store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// What recovery found at open.
    pub recovery: RecoveryStats,
    /// Successful journal appends since open.
    pub appends: u64,
    /// Failed appends (the entry stays memory-only; the daemon keeps
    /// serving).
    pub append_errors: u64,
    /// Requests answered from the persisted index (store hits).
    pub persisted_hits: u64,
    /// Snapshot compactions since open.
    pub compactions: u64,
    /// Live entries in the persisted index.
    pub entries: u64,
}

/// One record, encoded:
///
/// ```text
/// magic[4] | len:u32le | payload | crc32(payload):u32le
/// payload = canon_hash:u128le
///         | opts_len:u32le | opts | eng_len:u32le | eng
///         | body_len:u32le | body
/// ```
fn encode_record(key: &StoreKey, body: &str) -> Vec<u8> {
    let mut payload =
        Vec::with_capacity(28 + key.options_fp.len() + key.engines_fp.len() + body.len());
    payload.extend_from_slice(&key.canon_hash.to_le_bytes());
    for part in [
        key.options_fp.as_bytes(),
        key.engines_fp.as_bytes(),
        body.as_bytes(),
    ] {
        payload.extend_from_slice(&(part.len() as u32).to_le_bytes());
        payload.extend_from_slice(part);
    }
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(&RECORD_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

/// Decodes one payload back into `(key, body)`; `None` on framing rot
/// (covered by the CRC in practice, but length fields are re-validated).
fn decode_payload(payload: &[u8]) -> Option<(StoreKey, String)> {
    let canon_hash = u128::from_le_bytes(payload.get(..16)?.try_into().ok()?);
    let mut at = 16usize;
    let mut parts: Vec<&[u8]> = Vec::with_capacity(3);
    for _ in 0..3 {
        let len = read_u32(payload, at)? as usize;
        at += 4;
        parts.push(payload.get(at..at + len)?);
        at += len;
    }
    if at != payload.len() {
        return None;
    }
    let options_fp = std::str::from_utf8(parts[0]).ok()?.to_string();
    let engines_fp = std::str::from_utf8(parts[1]).ok()?.to_string();
    let body = std::str::from_utf8(parts[2]).ok()?.to_string();
    Some((
        StoreKey {
            canon_hash,
            options_fp,
            engines_fp,
        },
        body,
    ))
}

/// Outcome of scanning one file of records.
struct ScanOutcome {
    /// Records decoded, in file order.
    records: Vec<(StoreKey, String)>,
    /// Corrupt records (bad CRC / bad framing) skipped over.
    skipped: u64,
    /// Offset just past the last well-formed record (journal truncation
    /// point); `< file len` means a torn tail follows.
    last_good: u64,
}

/// Scans a record stream. `bytes` starts at the first record (the caller
/// strips any file header). Corrupt records are skipped with a forward
/// scan for the next [`RECORD_MAGIC`]; an incomplete trailing record ends
/// the scan with `last_good` pointing at its start.
fn scan_records(bytes: &[u8]) -> ScanOutcome {
    let mut out = ScanOutcome {
        records: Vec::new(),
        skipped: 0,
        last_good: 0,
    };
    let mut at = 0usize;
    let resync = |from: usize| -> Option<usize> {
        bytes[from..]
            .windows(RECORD_MAGIC.len())
            .position(|w| w == RECORD_MAGIC)
            .map(|p| from + p)
    };
    while at < bytes.len() {
        if bytes.len() - at < 8 || bytes[at..at + 4] != RECORD_MAGIC {
            // Not a record start. A stray magic further on means mid-file
            // corruption (skip to it); nothing further means a torn tail.
            match resync(at + 1) {
                Some(next) => {
                    out.skipped += 1;
                    at = next;
                    continue;
                }
                None => break,
            }
        }
        let len = match read_u32(bytes, at + 4) {
            Some(l) => l as usize,
            None => break,
        };
        if len > MAX_RECORD {
            match resync(at + 1) {
                Some(next) => {
                    out.skipped += 1;
                    at = next;
                    continue;
                }
                None => break,
            }
        }
        let end = at + 8 + len + 4;
        if end > bytes.len() {
            // Declared extent runs past EOF: a torn tail, unless a later
            // magic proves the length field itself was corrupted.
            match resync(at + 1) {
                Some(next) => {
                    out.skipped += 1;
                    at = next;
                    continue;
                }
                None => break,
            }
        }
        let payload = &bytes[at + 8..at + 8 + len];
        let stored_crc = read_u32(bytes, at + 8 + len).unwrap_or(0);
        if crc32(payload) != stored_crc {
            out.skipped += 1;
            at = end;
            out.last_good = end as u64;
            continue;
        }
        match decode_payload(payload) {
            Some(rec) => out.records.push(rec),
            None => out.skipped += 1,
        }
        at = end;
        out.last_good = end as u64;
    }
    out
}

fn internal(op: &str, e: impl std::fmt::Display) -> AnalysisError {
    AnalysisError::Internal(format!("report store: {op}: {e}"))
}

struct Journal {
    file: File,
    appends_since_compact: u64,
}

/// The crash-safe persistent report store. Shared immutably (`&self`
/// methods, interior mutex) by every daemon worker; see the module docs
/// for the format and durability model.
pub struct ReportStore {
    dir: PathBuf,
    io: Box<dyn StoreIo>,
    /// Compact the journal into a snapshot every this many appends
    /// (0 = never automatically).
    compact_every: u64,
    index: Mutex<HashMap<(u128, String), Arc<String>>>,
    journal: Mutex<Journal>,
    recovery: RecoveryStats,
    appends: AtomicU64,
    append_errors: AtomicU64,
    persisted_hits: AtomicU64,
    compactions: AtomicU64,
}

/// Default append count between automatic compactions.
pub const DEFAULT_COMPACT_EVERY: u64 = 1024;

impl ReportStore {
    /// Opens (creating if needed) the store in `dir` with production I/O
    /// and the default compaction cadence.
    ///
    /// # Errors
    /// Unusable directory or journal (recovery itself never fails on
    /// corrupt *data* — it skips and counts).
    pub fn open(dir: &Path) -> Result<ReportStore, AnalysisError> {
        ReportStore::open_with(
            dir,
            DEFAULT_COMPACT_EVERY,
            Box::new(RealIo),
            &CancelToken::unlimited(),
        )
    }

    /// [`ReportStore::open`] with an explicit compaction cadence, I/O
    /// implementation, and cancellation token (the recovery scan polls
    /// [`Seam::StoreRecover`] once per file).
    ///
    /// # Errors
    /// Unusable directory/journal, or the token's typed error.
    pub fn open_with(
        dir: &Path,
        compact_every: u64,
        io: Box<dyn StoreIo>,
        token: &CancelToken,
    ) -> Result<ReportStore, AnalysisError> {
        std::fs::create_dir_all(dir).map_err(|e| internal("create dir", e))?;
        let mut recovery = RecoveryStats::default();
        let mut index: HashMap<(u128, String), Arc<String>> = HashMap::new();

        // Snapshot first (older data), then journal (later wins).
        token.check(Seam::StoreRecover)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        if snapshot_path.exists() {
            let bytes = read_file(&snapshot_path)?;
            if bytes.len() >= SNAPSHOT_MAGIC.len() + 4 && bytes[..8] == SNAPSHOT_MAGIC {
                let declared = read_u32(&bytes, 8).unwrap_or(0) as u64;
                let scan = scan_records(&bytes[12..]);
                recovery.snapshot_records = scan.records.len() as u64;
                recovery.skipped_corrupt_records += scan.skipped;
                if declared > scan.records.len() as u64 {
                    // Truncated snapshot: the missing tail counts as
                    // corruption (it gets rewritten on the next compaction).
                    recovery.skipped_corrupt_records += declared - scan.records.len() as u64;
                }
                for (key, body) in scan.records {
                    index.insert((key.canon_hash, key.options_fp), Arc::new(body));
                }
            } else if !bytes.is_empty() {
                recovery.skipped_corrupt_records += 1;
            }
        }

        token.check(Seam::StoreRecover)?;
        let journal_path = dir.join(JOURNAL_FILE);
        let mut torn_truncate_to: Option<u64> = None;
        if journal_path.exists() {
            let bytes = read_file(&journal_path)?;
            let scan = scan_records(&bytes);
            recovery.recovered_records = scan.records.len() as u64;
            recovery.skipped_corrupt_records += scan.skipped;
            if scan.last_good < bytes.len() as u64 {
                recovery.torn_tail_bytes = bytes.len() as u64 - scan.last_good;
                torn_truncate_to = Some(scan.last_good);
            }
            for (key, body) in scan.records {
                index.insert((key.canon_hash, key.options_fp), Arc::new(body));
            }
        }

        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| internal("open journal", e))?;
        if let Some(to) = torn_truncate_to {
            file.set_len(to)
                .map_err(|e| internal("truncate torn tail", e))?;
        }

        Ok(ReportStore {
            dir: dir.to_path_buf(),
            io,
            compact_every,
            index: Mutex::new(index),
            journal: Mutex::new(Journal {
                file,
                appends_since_compact: 0,
            }),
            recovery,
            appends: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
            persisted_hits: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks up a persisted body; a hit bumps the persisted-hit counter.
    /// Bodies come back as shared `Arc`s — the exact recovered bytes.
    pub fn get(&self, canon_hash: u128, options_fp: &str) -> Option<Arc<String>> {
        let index = self.index.lock().unwrap_or_else(|e| e.into_inner());
        let hit = index.get(&(canon_hash, options_fp.to_string())).cloned();
        drop(index);
        if hit.is_some() {
            self.persisted_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Appends one finished report to the journal (write-behind: the
    /// caller already holds the rendered body). The token is polled at
    /// [`Seam::StoreAppend`] *before* any bytes are written, so a fault
    /// never tears the journal. Failed appends are counted and leave the
    /// on-disk state exactly as it was.
    ///
    /// The index keeps the caller's `Arc`, not a copy: a body the memory
    /// layer also holds stays one allocation, and [`ReportStore::get`]
    /// hands that same allocation back.
    ///
    /// # Errors
    /// The token's typed error, or `Internal` on disk failure.
    pub fn append(
        &self,
        key: &StoreKey,
        body: &Arc<String>,
        token: &CancelToken,
    ) -> Result<(), AnalysisError> {
        let result = (|| {
            token.check(Seam::StoreAppend)?;
            let record = encode_record(key, body);
            let mut journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
            self.io
                .write_all(&mut journal.file, &record)
                .map_err(|e| internal("append", e))?;
            journal.appends_since_compact += 1;
            Ok(())
        })();
        match result {
            Ok(()) => {
                self.appends.fetch_add(1, Ordering::Relaxed);
                let mut index = self.index.lock().unwrap_or_else(|e| e.into_inner());
                index.insert((key.canon_hash, key.options_fp.clone()), Arc::clone(body));
                Ok(())
            }
            Err(e) => {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Forces the journal to stable storage (the drain path's last act
    /// before exit). Polls [`Seam::StoreFlush`] first.
    ///
    /// # Errors
    /// The token's typed error, or `Internal` on fsync failure.
    pub fn flush(&self, token: &CancelToken) -> Result<(), AnalysisError> {
        token.check(Seam::StoreFlush)?;
        let journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        self.io
            .sync(&journal.file)
            .map_err(|e| internal("flush", e))
    }

    /// Compacts: writes every live entry into a fresh checksummed
    /// snapshot (tmp → fsync → rename), then truncates the journal.
    /// Polls [`Seam::StoreCompact`] before touching anything; a failure
    /// at any step leaves the previous snapshot and journal intact.
    ///
    /// # Errors
    /// The token's typed error, or `Internal` on disk failure.
    pub fn compact(&self, token: &CancelToken) -> Result<(), AnalysisError> {
        token.check(Seam::StoreCompact)?;
        // Hold the journal lock across the whole rewrite so no append can
        // land between the snapshot capture and the journal truncation.
        let mut journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        let entries: Vec<(StoreKey, Arc<String>)> = {
            let index = self.index.lock().unwrap_or_else(|e| e.into_inner());
            let mut rows: Vec<_> = index
                .iter()
                .map(|((hash, fp), body)| {
                    (
                        StoreKey {
                            canon_hash: *hash,
                            options_fp: fp.clone(),
                            engines_fp: String::new(),
                        },
                        Arc::clone(body),
                    )
                })
                .collect();
            rows.sort_by(|a, b| {
                (a.0.canon_hash, &a.0.options_fp).cmp(&(b.0.canon_hash, &b.0.options_fp))
            });
            rows
        };
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut file = File::create(&tmp).map_err(|e| internal("snapshot tmp", e))?;
            let mut header = Vec::with_capacity(12);
            header.extend_from_slice(&SNAPSHOT_MAGIC);
            header.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            self.io
                .write_all(&mut file, &header)
                .map_err(|e| internal("snapshot header", e))?;
            for (key, body) in &entries {
                let record = encode_record(key, body);
                self.io
                    .write_all(&mut file, &record)
                    .map_err(|e| internal("snapshot record", e))?;
            }
            self.io
                .sync(&file)
                .map_err(|e| internal("snapshot sync", e))?;
        }
        self.io
            .rename(&tmp, &self.dir.join(SNAPSHOT_FILE))
            .map_err(|e| internal("snapshot rename", e))?;
        journal
            .file
            .set_len(0)
            .map_err(|e| internal("journal reset", e))?;
        self.io
            .sync(&journal.file)
            .map_err(|e| internal("journal sync", e))?;
        journal.appends_since_compact = 0;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Compacts when the configured append cadence has been reached.
    /// Returns whether a compaction ran.
    ///
    /// # Errors
    /// Same as [`ReportStore::compact`].
    pub fn maybe_compact(&self, token: &CancelToken) -> Result<bool, AnalysisError> {
        let due = {
            let journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
            self.compact_every > 0 && journal.appends_since_compact >= self.compact_every
        };
        if due {
            self.compact(token)?;
        }
        Ok(due)
    }

    /// What recovery found when this store opened.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            recovery: self.recovery,
            appends: self.appends.load(Ordering::Relaxed),
            append_errors: self.append_errors.load(Ordering::Relaxed),
            persisted_hits: self.persisted_hits.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// Live entries in the persisted index.
    pub fn len(&self) -> usize {
        self.index.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the persisted index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn read_file(path: &Path) -> Result<Vec<u8>, AnalysisError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| internal("read", e))?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // test-only assertions
    use super::*;
    use iolb_core::govern::{Fault, FaultKind};
    use std::sync::atomic::AtomicUsize;

    /// A unique scratch directory per test invocation (no wall clock: the
    /// process id plus a process-wide counter).
    fn scratch(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "iolb_store_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u128) -> StoreKey {
        StoreKey {
            canon_hash: n,
            options_fp: format!("opts-{n}"),
            engines_fp: "all".to_string(),
        }
    }

    fn unlimited() -> CancelToken {
        CancelToken::unlimited()
    }

    fn body(text: &str) -> Arc<String> {
        Arc::new(text.to_string())
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn roundtrip_across_reopen_is_byte_identical() {
        let dir = scratch("roundtrip");
        {
            let store = ReportStore::open(&dir).unwrap();
            for n in 0..5u128 {
                store
                    .append(
                        &key(n),
                        &body(&format!("body for {n} with unicode ⊗")),
                        &unlimited(),
                    )
                    .unwrap();
            }
            store.flush(&unlimited()).unwrap();
            assert_eq!(store.stats().appends, 5);
        }
        let store = ReportStore::open(&dir).unwrap();
        let r = store.recovery();
        assert_eq!(r.recovered_records, 5);
        assert_eq!(r.skipped_corrupt_records, 0);
        assert_eq!(r.torn_tail_bytes, 0);
        for n in 0..5u128 {
            let body = store.get(n, &format!("opts-{n}")).expect("recovered entry");
            assert_eq!(*body, format!("body for {n} with unicode ⊗"));
        }
        assert!(store.get(99, "opts-99").is_none());
        assert_eq!(store.stats().persisted_hits, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = scratch("torn");
        {
            let store = ReportStore::open(&dir).unwrap();
            store.append(&key(1), &body("one"), &unlimited()).unwrap();
            store.append(&key(2), &body("two"), &unlimited()).unwrap();
        }
        // Simulate a crash mid-append: half a record at the journal tail.
        let journal = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&journal).unwrap();
        let good_len = bytes.len();
        bytes.extend_from_slice(&RECORD_MAGIC);
        bytes.extend_from_slice(&1000u32.to_le_bytes());
        bytes.extend_from_slice(b"torn");
        std::fs::write(&journal, &bytes).unwrap();

        let store = ReportStore::open(&dir).unwrap();
        let r = store.recovery();
        assert_eq!(r.recovered_records, 2);
        assert_eq!(r.torn_tail_bytes, 12);
        assert_eq!(r.skipped_corrupt_records, 0);
        assert_eq!(*store.get(1, "opts-1").unwrap(), "one");
        // The tail was truncated off the file itself.
        assert_eq!(std::fs::metadata(&journal).unwrap().len(), good_len as u64);
        // And appends continue from the clean point.
        store.append(&key(3), &body("three"), &unlimited()).unwrap();
        drop(store);
        let store = ReportStore::open(&dir).unwrap();
        assert_eq!(store.recovery().recovered_records, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_is_skipped_counted_and_never_served() {
        let dir = scratch("flip");
        {
            let store = ReportStore::open(&dir).unwrap();
            store
                .append(&key(1), &body("first body"), &unlimited())
                .unwrap();
            store
                .append(&key(2), &body("second body"), &unlimited())
                .unwrap();
            store
                .append(&key(3), &body("third body"), &unlimited())
                .unwrap();
        }
        let journal = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&journal).unwrap();
        // Flip one byte inside the first record's payload.
        bytes[20] ^= 0xFF;
        std::fs::write(&journal, &bytes).unwrap();

        let store = ReportStore::open(&dir).unwrap();
        let r = store.recovery();
        assert_eq!(r.skipped_corrupt_records, 1, "{r:?}");
        assert_eq!(r.recovered_records, 2);
        assert!(store.get(1, "opts-1").is_none(), "corrupt record served");
        assert_eq!(*store.get(2, "opts-2").unwrap(), "second body");
        assert_eq!(*store.get(3, "opts-3").unwrap(), "third body");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_mid_file_resyncs_on_magic() {
        let dir = scratch("resync");
        let rec1 = encode_record(&key(1), "one");
        let rec2 = encode_record(&key(2), "two");
        let mut bytes = rec1;
        bytes.extend_from_slice(b"????definitely not a record????");
        bytes.extend_from_slice(&rec2);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOURNAL_FILE), &bytes).unwrap();
        let store = ReportStore::open(&dir).unwrap();
        let r = store.recovery();
        assert_eq!(r.recovered_records, 2);
        assert!(r.skipped_corrupt_records >= 1, "{r:?}");
        assert_eq!(*store.get(2, "opts-2").unwrap(), "two");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_moves_entries_to_snapshot_and_last_write_wins() {
        let dir = scratch("compact");
        {
            let store = ReportStore::open_with(&dir, 0, Box::new(RealIo), &unlimited()).unwrap();
            store.append(&key(1), &body("old"), &unlimited()).unwrap();
            store.append(&key(1), &body("new"), &unlimited()).unwrap();
            store.append(&key(2), &body("two"), &unlimited()).unwrap();
            store.compact(&unlimited()).unwrap();
            assert_eq!(store.stats().compactions, 1);
            // Journal is empty after compaction; appends keep working.
            assert_eq!(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(), 0);
            store
                .append(&key(3), &body("post-compact"), &unlimited())
                .unwrap();
        }
        let store = ReportStore::open(&dir).unwrap();
        let r = store.recovery();
        assert_eq!(r.snapshot_records, 2);
        assert_eq!(r.recovered_records, 1);
        assert_eq!(r.skipped_corrupt_records, 0);
        assert_eq!(*store.get(1, "opts-1").unwrap(), "new");
        assert_eq!(*store.get(3, "opts-3").unwrap(), "post-compact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn automatic_compaction_fires_on_the_cadence() {
        let dir = scratch("cadence");
        let store = ReportStore::open_with(&dir, 3, Box::new(RealIo), &unlimited()).unwrap();
        for n in 0..3u128 {
            store.append(&key(n), &body("x"), &unlimited()).unwrap();
        }
        assert!(store.maybe_compact(&unlimited()).unwrap());
        assert!(!store.maybe_compact(&unlimited()).unwrap());
        assert_eq!(store.stats().compactions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_is_tolerated_and_counted() {
        let dir = scratch("snaptear");
        {
            let store = ReportStore::open_with(&dir, 0, Box::new(RealIo), &unlimited()).unwrap();
            for n in 0..4u128 {
                store.append(&key(n), &body("snap"), &unlimited()).unwrap();
            }
            store.compact(&unlimited()).unwrap();
        }
        let snap = dir.join(SNAPSHOT_FILE);
        let bytes = std::fs::read(&snap).unwrap();
        std::fs::write(&snap, &bytes[..bytes.len() - 10]).unwrap();
        let store = ReportStore::open(&dir).unwrap();
        let r = store.recovery();
        assert_eq!(r.snapshot_records, 3);
        assert!(r.skipped_corrupt_records >= 1, "{r:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A [`StoreIo`] that fails the nth write with the given error kind,
    /// optionally landing a short (torn) prefix first.
    struct FailNthWrite {
        countdown: AtomicUsize,
        torn_prefix: usize,
        kind: std::io::ErrorKind,
    }

    impl StoreIo for FailNthWrite {
        fn write_all(&self, file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
            if self.countdown.fetch_sub(1, Ordering::SeqCst) == 1 {
                if self.torn_prefix > 0 {
                    use std::io::Write as _;
                    file.write_all(&bytes[..self.torn_prefix.min(bytes.len())])?;
                }
                return Err(std::io::Error::new(self.kind, "injected disk fault"));
            }
            RealIo.write_all(file, bytes)
        }
        fn sync(&self, file: &File) -> std::io::Result<()> {
            RealIo.sync(file)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            RealIo.rename(from, to)
        }
    }

    #[test]
    fn disk_full_append_is_counted_and_store_keeps_serving() {
        let dir = scratch("diskfull");
        let io = FailNthWrite {
            countdown: AtomicUsize::new(2),
            torn_prefix: 0,
            kind: std::io::ErrorKind::StorageFull,
        };
        let store = ReportStore::open_with(&dir, 0, Box::new(io), &unlimited()).unwrap();
        store.append(&key(1), &body("ok"), &unlimited()).unwrap();
        let err = store
            .append(&key(2), &body("fails"), &unlimited())
            .unwrap_err();
        assert!(matches!(err, AnalysisError::Internal(_)), "{err:?}");
        // Third append works again; the failed one was never indexed.
        store
            .append(&key(3), &body("ok again"), &unlimited())
            .unwrap();
        let stats = store.stats();
        assert_eq!(stats.append_errors, 1);
        assert_eq!(stats.appends, 2);
        assert!(store.get(2, "opts-2").is_none());
        assert_eq!(*store.get(3, "opts-3").unwrap(), "ok again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_tears_the_journal_and_recovery_truncates_it() {
        let dir = scratch("shortwrite");
        {
            let io = FailNthWrite {
                countdown: AtomicUsize::new(2),
                torn_prefix: 9,
                kind: std::io::ErrorKind::Other,
            };
            let store = ReportStore::open_with(&dir, 0, Box::new(io), &unlimited()).unwrap();
            store
                .append(&key(1), &body("intact"), &unlimited())
                .unwrap();
            assert!(store.append(&key(2), &body("torn"), &unlimited()).is_err());
        }
        let store = ReportStore::open(&dir).unwrap();
        let r = store.recovery();
        assert_eq!(r.recovered_records, 1);
        assert_eq!(r.torn_tail_bytes, 9);
        assert_eq!(*store.get(1, "opts-1").unwrap(), "intact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_snapshot_rename_leaves_previous_state_intact() {
        struct NoRename;
        impl StoreIo for NoRename {
            fn write_all(&self, file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
                RealIo.write_all(file, bytes)
            }
            fn sync(&self, file: &File) -> std::io::Result<()> {
                RealIo.sync(file)
            }
            fn rename(&self, _: &Path, _: &Path) -> std::io::Result<()> {
                Err(std::io::Error::other("injected rename failure"))
            }
        }
        let dir = scratch("norename");
        {
            let store = ReportStore::open_with(&dir, 0, Box::new(NoRename), &unlimited()).unwrap();
            store.append(&key(1), &body("kept"), &unlimited()).unwrap();
            assert!(store.compact(&unlimited()).is_err());
            assert_eq!(store.stats().compactions, 0);
        }
        let store = ReportStore::open(&dir).unwrap();
        assert_eq!(*store.get(1, "opts-1").unwrap(), "kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_store_seam_surfaces_its_fault_class_and_control_reruns_clean() {
        let dir = scratch("seams");
        let store = ReportStore::open(&dir).unwrap();
        for (seam, run) in [
            (
                Seam::StoreAppend,
                Box::new(|t: &CancelToken| store.append(&key(7), &body("b"), t))
                    as Box<dyn Fn(&CancelToken) -> Result<(), AnalysisError>>,
            ),
            (Seam::StoreFlush, Box::new(|t: &CancelToken| store.flush(t))),
            (
                Seam::StoreCompact,
                Box::new(|t: &CancelToken| store.compact(t)),
            ),
        ] {
            for kind in FaultKind::ALL {
                if kind == FaultKind::Panic {
                    continue; // panic containment is the harness's job
                }
                let token = CancelToken::with_fault(Fault { kind, seam });
                let err = run(&token).unwrap_err();
                assert_eq!(err.class_name(), kind.expected_class(), "{seam:?}: {err:?}");
                run(&unlimited()).unwrap_or_else(|e| panic!("control at {seam:?}: {e:?}"));
            }
        }
        // Recovery seam: a fresh open under a fault, then a clean control.
        for kind in [FaultKind::Oom, FaultKind::Deadline] {
            let token = CancelToken::with_fault(Fault {
                kind,
                seam: Seam::StoreRecover,
            });
            let err = match ReportStore::open_with(&dir, 0, Box::new(RealIo), &token) {
                Err(e) => e,
                Ok(_) => panic!("recovery fault at {kind:?} did not surface"),
            };
            assert_eq!(err.class_name(), kind.expected_class());
        }
        drop(store);
        assert!(ReportStore::open(&dir).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
