//! Write-ahead log: append-only segments with CRC-framed records and a
//! group-commit flusher.
//!
//! The durability contract of the ingest path (query layer) rests on
//! this module: a batch is *committed* once its record is appended and
//! the covering bytes are fsynced; everything after that — heap
//! inserts, index postings, history rows — can be replayed from the
//! log. The WAL knows nothing about batches: records are opaque byte
//! payloads framed as
//!
//! ```text
//! +----------------+----------------+=================+
//! | len: u32 (LE)  | crc32: u32 (LE)| payload (len B) |
//! +----------------+----------------+=================+
//! ```
//!
//! where `crc32` is [`crc32`] of the payload: CRC-32 over the IEEE
//! polynomial, computed 16 bytes per step (slice-by-16; the value is the
//! one a byte-at-a-time loop gives). Append and open run the same
//! function. The opening scan checksums every logged byte, so the
//! checksum's speed bounds recovery's log read.
//! Frames are packed back to back in numbered segment files
//! (`wal-00000001.seg`, `wal-00000002.seg`, ...) inside one directory.
//! A segment rotates once it crosses the segment byte limit, so
//! no single file grows without bound and sealed segments can be
//! garbage-collected once a checkpoint covers them
//! ([`Wal::gc_after_checkpoint`]).
//!
//! # Group commit
//!
//! Every append advances a monotone **LSN** — the total framed bytes
//! written through this handle. Concurrent writers append under the
//! caller's write latch, then wait for durability *outside* it through
//! a [`WalFlusher`] (cloned from [`Wal::flusher`]): `wait_durable(lsn)`
//! blocks until `durable_lsn >= lsn`. The first waiter to find no
//! flush in flight becomes the **leader**: it snapshots the current
//! appended LSN, releases the group lock, issues one `fsync`, then
//! advances the durable LSN to the snapshot and wakes every follower.
//! A single fsync thereby covers every record enqueued since the last
//! flush; followers whose LSN the leader's snapshot covers never touch
//! the disk at all. There is no busy-wait — followers sleep on a
//! condvar — and no dedicated thread to shut down.
//!
//! # Recovery
//!
//! [`Wal::open`] scans the segments in order and stops at the first
//! frame that does not check out — a torn length prefix, a length
//! running past end-of-file, or a CRC mismatch (a crash mid-`write`
//! leaves exactly such a tail). The bad tail is **truncated** and any
//! later segments are deleted, so the log ends at the last record that
//! was fully on disk; the payloads up to that point are returned for
//! the caller to replay, as ranges over the segment bytes the scan read
//! and checksummed ([`WalRecords`]), so no payload is copied again.
//! Truncation makes recovery idempotent at this layer: re-opening a
//! recovered log finds only whole records.

use crate::error::StorageError;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Frame header size: `len` + `crc32`.
const HEADER: u64 = 8;

/// Upper bound on one record's payload; a length prefix beyond this is
/// treated as corruption rather than an allocation request.
const MAX_RECORD: u32 = 64 * 1024 * 1024;

/// Default segment rotation threshold.
const DEFAULT_SEGMENT_LIMIT: u64 = 8 * 1024 * 1024;

/// Flush-wait samples kept for the p95 estimate.
const WAIT_RING: usize = 1024;

/// When the log forces data to stable storage. There is one policy:
/// the type stays so that [`Wal::create`], [`Wal::open`] and the
/// session's `attach_wal` keep the signatures the repository benchmark
/// is built against (it names `SyncPolicy::Commit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync on [`Wal::commit`], [`Wal::flush`] or through the
    /// group-commit flusher — at most one sync per flush group.
    Commit,
}

/// Counters the log keeps about itself (surfaced in `GET /stats` and
/// `ExecStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WalStats {
    /// Records appended through this handle.
    pub records_appended: u64,
    /// Payload + framing bytes written through this handle.
    pub bytes_logged: u64,
    /// fsync calls issued (appender-side + group-commit flusher).
    pub fsyncs: u64,
    /// Whole records recovered by the opening scan.
    pub records_replayed: u64,
    /// Torn-tail bytes truncated by the opening scan.
    pub truncated_bytes: u64,
    /// fsyncs issued by the group-commit flusher (each one led by the
    /// first waiter to find no flush in flight).
    pub group_commits: u64,
    /// Durability waits served by the flusher (≈ batches acknowledged
    /// through the group-commit path).
    pub commits: u64,
    /// `commits / group_commits` — how many batches each group fsync
    /// amortized. 0 when no group fsync has happened.
    pub batches_per_fsync: f64,
    /// p95 time a waiter spent blocked in `wait_durable` (over the
    /// last `WAIT_RING` (1024) waits).
    pub flush_wait_p95: Duration,
    /// Sealed segments deleted by checkpoint GC.
    pub segments_deleted: u64,
}

/// Shared state between the appender and the group-commit waiters. All
/// fields sit under one mutex: the critical sections are nanoseconds
/// against the milliseconds of the fsync they amortize, and the fsync
/// itself runs with the lock *released*.
struct GroupState {
    /// The active segment's file, shared so the flush leader can sync
    /// without borrowing the `Wal`. Rotation swaps it; bytes at or
    /// below the pre-rotation LSN live in already-sealed segments.
    file: Option<Arc<File>>,
    /// Total framed bytes appended (mirror of `Wal::appended_lsn`).
    appended_lsn: u64,
    /// Everything at or below this LSN is on stable storage.
    durable_lsn: u64,
    /// A leader is between snapshot and fsync-completion.
    flushing: bool,
    /// A leader's fsync failed; the log is unusable for durability.
    poisoned: bool,
    /// Group fsyncs issued.
    fsyncs: u64,
    /// Waits served.
    commits: u64,
    wait_ns: Vec<u64>,
    wait_next: usize,
}

impl GroupState {
    fn record_wait(&mut self, wait: Duration) {
        let ns = wait.as_nanos().min(u64::MAX as u128) as u64;
        if self.wait_ns.len() < WAIT_RING {
            self.wait_ns.push(ns);
        } else {
            self.wait_ns[self.wait_next] = ns;
            self.wait_next = (self.wait_next + 1) % WAIT_RING;
        }
    }

    fn wait_p95(&self) -> Duration {
        if self.wait_ns.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.wait_ns.clone();
        sorted.sort_unstable();
        Duration::from_nanos(sorted[(sorted.len() - 1) * 95 / 100])
    }
}

struct GroupCommit {
    state: Mutex<GroupState>,
    flushed: Condvar,
}

impl GroupCommit {
    fn new(file: Arc<File>) -> Arc<GroupCommit> {
        Arc::new(GroupCommit {
            state: Mutex::new(GroupState {
                file: Some(file),
                appended_lsn: 0,
                durable_lsn: 0,
                flushing: false,
                poisoned: false,
                fsyncs: 0,
                commits: 0,
                wait_ns: Vec::new(),
                wait_next: 0,
            }),
            flushed: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, GroupState> {
        // A panicking waiter must not wedge the whole write path.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// What one `wait_durable` call observed — folded into per-statement
/// `ExecStats` by the session.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlushTicket {
    /// How long the caller was blocked waiting for its LSN.
    pub wait: Duration,
    /// Group fsyncs this caller led on behalf of everyone (0 when it
    /// rode a flush someone else issued).
    pub fsyncs_led: u64,
}

/// A cloneable handle for waiting on durability without holding the
/// `Wal` (and therefore without holding the caller's write latch).
#[derive(Clone)]
pub struct WalFlusher {
    group: Arc<GroupCommit>,
}

impl WalFlusher {
    /// Block until every byte at or below `lsn` is on stable storage.
    ///
    /// Leader/follower: if no flush is in flight, this caller becomes
    /// the leader — it snapshots the appended LSN and the active file
    /// under the group lock, drops the lock, issues **one**
    /// `sync_data`, then advances the durable LSN to the snapshot and
    /// wakes all followers. The snapshot argument makes this safe:
    /// every byte at or below the snapshot LSN was written either to
    /// the snapshotted file or to an earlier segment that rotation
    /// already sealed and synced.
    pub fn wait_durable(&self, lsn: u64) -> Result<FlushTicket, StorageError> {
        let started = Instant::now();
        let mut led = 0u64;
        let mut state = self.group.lock();
        loop {
            if state.poisoned {
                return Err(poisoned_error());
            }
            if state.durable_lsn >= lsn {
                state.commits += 1;
                let wait = started.elapsed();
                state.record_wait(wait);
                return Ok(FlushTicket {
                    wait,
                    fsyncs_led: led,
                });
            }
            if !state.flushing {
                state.flushing = true;
                let target = state.appended_lsn;
                let file = state.file.clone();
                drop(state);
                let synced = match &file {
                    Some(f) => f.sync_data(),
                    None => Ok(()),
                };
                state = self.group.lock();
                state.flushing = false;
                match synced {
                    Ok(()) => {
                        state.durable_lsn = state.durable_lsn.max(target);
                        state.fsyncs += 1;
                        led += 1;
                    }
                    Err(e) => {
                        state.poisoned = true;
                        self.group.flushed.notify_all();
                        return Err(e.into());
                    }
                }
                self.group.flushed.notify_all();
            } else {
                state = self
                    .group
                    .flushed
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

fn poisoned_error() -> StorageError {
    StorageError::Io(std::io::Error::other(
        "WAL flusher poisoned by an earlier fsync failure",
    ))
}

/// An open write-ahead log, positioned to append at the clean tail.
pub struct Wal {
    dir: PathBuf,
    file: Arc<File>,
    seg_index: u64,
    seg_bytes: u64,
    segment_limit: u64,
    /// Total framed bytes appended through this handle — the LSN of
    /// the last appended record's end.
    appended_lsn: u64,
    group: Arc<GroupCommit>,
    stats: WalStats,
}

impl Wal {
    /// Create a log in `dir` (created if missing; must hold no
    /// segments yet).
    pub fn create(dir: impl AsRef<Path>, _policy: SyncPolicy) -> Result<Wal, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        if !segment_indexes(&dir)?.is_empty() {
            return Err(StorageError::DuplicateObject(format!(
                "WAL directory {} already holds segments; use Wal::open",
                dir.display()
            )));
        }
        let file = Arc::new(open_segment(&dir, 1)?);
        Ok(Wal {
            dir,
            group: GroupCommit::new(Arc::clone(&file)),
            file,
            seg_index: 1,
            seg_bytes: 0,
            segment_limit: DEFAULT_SEGMENT_LIMIT,
            appended_lsn: 0,
            stats: WalStats::default(),
        })
    }

    /// Open an existing log: scan every segment in order, truncate the
    /// torn tail (if any), and return the committed payloads together
    /// with a handle appending after the last whole record. Each segment
    /// is read into one buffer and checksummed there; the payloads are
    /// handed out as slices of those buffers, not copied.
    pub fn open(
        dir: impl AsRef<Path>,
        policy: SyncPolicy,
    ) -> Result<(Wal, WalRecords), StorageError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let segments = segment_indexes(&dir)?;
        if segments.is_empty() {
            let wal = Wal::create(&dir, policy)?;
            return Ok((wal, WalRecords::default()));
        }
        let mut records = WalRecords::default();
        let mut stats = WalStats::default();
        let mut clean = (segments[0], 0u64); // (segment, byte offset of the clean tail)
        let mut torn_at: Option<usize> = None;
        for (i, &seg) in segments.iter().enumerate() {
            let path = segment_path(&dir, seg);
            let bytes = std::fs::read(&path)?;
            let valid = scan_segment(&bytes, records.segments.len(), &mut records.payloads);
            let len = bytes.len() as u64;
            records.segments.push(bytes);
            stats.records_replayed = records.len() as u64;
            clean = (seg, valid);
            if valid < len {
                // Torn or corrupt tail: truncate this segment here and
                // drop everything after it.
                stats.truncated_bytes += len - valid;
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid)?;
                file.sync_all()?;
                stats.fsyncs += 1;
                torn_at = Some(i);
                break;
            }
        }
        if let Some(i) = torn_at {
            for &seg in &segments[i + 1..] {
                let path = segment_path(&dir, seg);
                stats.truncated_bytes += std::fs::metadata(&path)?.len();
                std::fs::remove_file(&path)?;
            }
        }
        let (seg_index, seg_bytes) = clean;
        let mut file = open_segment(&dir, seg_index)?;
        file.seek(SeekFrom::Start(seg_bytes))?;
        let file = Arc::new(file);
        Ok((
            Wal {
                dir,
                group: GroupCommit::new(Arc::clone(&file)),
                file,
                seg_index,
                seg_bytes,
                segment_limit: DEFAULT_SEGMENT_LIMIT,
                appended_lsn: 0,
                stats,
            },
            records,
        ))
    }

    /// Rotate segments once the current one crosses `limit` bytes.
    pub fn set_segment_limit(&mut self, limit: u64) {
        self.segment_limit = limit.max(HEADER + 1);
    }

    /// The directory holding the segments.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counters accumulated by this handle (appends, GC), its opening
    /// scan (replays, truncation), and the group-commit flusher.
    pub fn stats(&self) -> WalStats {
        let mut merged = self.stats;
        let state = self.group.lock();
        merged.fsyncs += state.fsyncs;
        merged.group_commits = state.fsyncs;
        merged.commits = state.commits;
        merged.batches_per_fsync = if state.fsyncs > 0 {
            state.commits as f64 / state.fsyncs as f64
        } else {
            0.0
        };
        merged.flush_wait_p95 = state.wait_p95();
        merged
    }

    /// fsyncs issued by this handle alone (appends, commits, rotation
    /// seals — not the group flusher's).
    pub fn appender_fsyncs(&self) -> u64 {
        self.stats.fsyncs
    }

    /// The LSN of the last appended record's end: pass it to
    /// [`WalFlusher::wait_durable`] to block until that record is on
    /// stable storage.
    pub fn last_lsn(&self) -> u64 {
        self.appended_lsn
    }

    /// A cloneable durability handle, usable without holding the `Wal`
    /// (and therefore without the caller's write latch).
    pub fn flusher(&self) -> WalFlusher {
        WalFlusher {
            group: Arc::clone(&self.group),
        }
    }

    /// Append one record. Durability waits for [`Wal::commit`] or
    /// [`WalFlusher::wait_durable`]. Returns the framed size in bytes.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StorageError> {
        if payload.len() as u64 > MAX_RECORD as u64 {
            return Err(StorageError::TupleTooLarge {
                size: payload.len(),
                max: MAX_RECORD as usize,
            });
        }
        if self.seg_bytes >= self.segment_limit {
            self.rotate(true)?;
        }
        let mut frame = Vec::with_capacity(payload.len() + HEADER as usize);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        (&*self.file).write_all(&frame)?;
        self.seg_bytes += frame.len() as u64;
        self.appended_lsn += frame.len() as u64;
        self.stats.records_appended += 1;
        self.stats.bytes_logged += frame.len() as u64;
        let mut state = self.group.lock();
        state.appended_lsn = self.appended_lsn;
        Ok(frame.len() as u64)
    }

    /// Make everything appended so far durable. This is the
    /// synchronous commit point for single-writer callers; the
    /// concurrent ingest path uses [`WalFlusher::wait_durable`]
    /// instead so one fsync can cover many batches.
    pub fn commit(&mut self) -> Result<(), StorageError> {
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        let mut state = self.group.lock();
        state.durable_lsn = state.durable_lsn.max(self.appended_lsn);
        Ok(())
    }

    /// Checkpoint barrier: force every appended byte to stable storage
    /// regardless of how the group flusher is pacing. The session calls
    /// this under its write latch right before saving the database, so
    /// the saved state is always a subset of the durable log.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        let mut state = self.group.lock();
        state.durable_lsn = state.durable_lsn.max(self.appended_lsn);
        Ok(())
    }

    /// Garbage-collect the log after a checkpoint: rotate to a fresh
    /// segment (if the current one holds records) and delete every
    /// sealed segment. Returns the number of segments deleted.
    ///
    /// # Safety rule
    ///
    /// Only call once a checkpoint has persisted the effect of **every
    /// appended record** — the session does this under its write latch
    /// (so no append can race in) right after `Database::save`, which
    /// itself runs after [`Wal::flush`]. Every deleted record's effect
    /// is then in the saved database, so recovery never needs it.
    pub fn gc_after_checkpoint(&mut self) -> Result<u64, StorageError> {
        if self.seg_bytes > 0 {
            // The caller just flushed; no second seal-sync needed.
            self.rotate(false)?;
        }
        let mut deleted = 0u64;
        for seg in segment_indexes(&self.dir)? {
            if seg < self.seg_index {
                std::fs::remove_file(segment_path(&self.dir, seg))?;
                deleted += 1;
            }
        }
        self.stats.segments_deleted += deleted;
        Ok(deleted)
    }

    fn rotate(&mut self, sync_old: bool) -> Result<(), StorageError> {
        // Seal the old segment before the new one accepts records.
        if sync_old {
            self.file.sync_data()?;
            self.stats.fsyncs += 1;
        }
        self.seg_index += 1;
        self.file = Arc::new(open_segment(&self.dir, self.seg_index)?);
        self.seg_bytes = 0;
        let mut state = self.group.lock();
        state.file = Some(Arc::clone(&self.file));
        // Everything before the rotation lives in sealed segments that
        // were just synced: a flush leader snapshotting now must not
        // fsync the fresh empty file and then mark old bytes durable
        // without covering them.
        state.durable_lsn = state.durable_lsn.max(self.appended_lsn);
        Ok(())
    }
}

/// The whole records [`Wal::open`] found, in log order: the segment
/// files as read, and each payload's place in them.
#[derive(Debug, Default)]
pub struct WalRecords {
    segments: Vec<Vec<u8>>,
    /// `(index into segments, payload byte range)` per record.
    payloads: Vec<(usize, Range<usize>)>,
}

impl WalRecords {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Whether the log held no whole record.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// The payloads in log order, borrowed from the segment buffers.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.payloads
            .iter()
            .map(|(seg, range)| &self.segments[*seg][range.clone()])
    }
}

/// Scan one segment's bytes, recording each whole payload's range as
/// belonging to segment `seg`. Returns the offset of the first byte that
/// is not part of a valid record (== `bytes.len()` when the segment is
/// clean).
fn scan_segment(bytes: &[u8], seg: usize, out: &mut Vec<(usize, Range<usize>)>) -> u64 {
    let mut pos = 0usize;
    loop {
        let Some(header) = bytes.get(pos..pos + HEADER as usize) else {
            return pos as u64; // torn header (or clean EOF)
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len as u32 > MAX_RECORD {
            return pos as u64; // absurd length: corrupt frame
        }
        let payload = pos + HEADER as usize..pos + HEADER as usize + len;
        let Some(body) = bytes.get(payload.clone()) else {
            return pos as u64; // torn payload
        };
        if crc32(body) != crc {
            return pos as u64; // bit rot or torn write inside the payload
        }
        pos = payload.end;
        out.push((seg, payload));
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:08}.seg"))
}

fn open_segment(dir: &Path, index: u64) -> Result<File, StorageError> {
    Ok(OpenOptions::new()
        .create(true)
        .append(true)
        .read(true)
        .open(segment_path(dir, index))?)
}

/// Segment indexes present in `dir`, ascending.
fn segment_indexes(dir: &Path) -> Result<Vec<u64>, StorageError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(num) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".seg"))
        {
            if let Ok(n) = num.parse::<u64>() {
                out.push(n);
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-16: table `s`
/// maps a byte to its CRC advanced through `s` further zero bytes, so
/// one step folds 16 input bytes with 16 lookups. Hand-rolled because
/// the build is dependency-free by policy.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let mut next = 0u32;
        for (w, word) in chunk.chunks_exact(4).enumerate() {
            let mut v = u32::from_le_bytes(word.try_into().expect("4 bytes"));
            if w == 0 {
                v ^= crc;
            }
            for k in 0..4 {
                next ^= CRC_TABLES[15 - 4 * w - k][(v >> (8 * k)) as u8 as usize];
            }
        }
        crc = next;
    }
    for &b in chunks.remainder() {
        crc = CRC_TABLES[0][(crc as u8 ^ b) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The slice-by-16 tables of [`crc32`], built at compile time.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path =
                std::env::temp_dir().join(format!("staccato_wal_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop over the first table: the definition the
    /// sliced [`crc32`] must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = CRC_TABLES[0][(crc as u8 ^ b) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        let data: Vec<u8> = (0..4096 + 16u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=4096 {
            for start in 0..4 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len} at {start}");
            }
        }
    }

    #[test]
    fn crc32_of_a_fixed_kib_is_pinned() {
        // Logs already on disk carry CRCs of this function: the value
        // was computed by the byte-at-a-time table loop it replaced.
        let payload: Vec<u8> = (0..1024u32).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(crc32(&payload), 0x7C32_1B5D);
    }

    #[test]
    fn append_then_open_replays_everything() {
        let tmp = TempDir::new("roundtrip");
        let payloads: Vec<Vec<u8>> = (0u8..20).map(|i| vec![i; (i as usize) * 7 + 1]).collect();
        {
            let mut wal = Wal::create(&tmp.0, SyncPolicy::Commit).unwrap();
            for p in &payloads {
                wal.append(p).unwrap();
            }
            wal.commit().unwrap();
            assert_eq!(wal.stats().records_appended, 20);
            assert_eq!(wal.stats().fsyncs, 1);
        }
        let (wal, replayed) = Wal::open(&tmp.0, SyncPolicy::Commit).unwrap();
        assert_eq!(replayed.iter().collect::<Vec<_>>(), payloads);
        assert_eq!(wal.stats().records_replayed, 20);
        assert_eq!(wal.stats().truncated_bytes, 0);
    }

    #[test]
    fn appends_continue_after_reopen() {
        let tmp = TempDir::new("continue");
        {
            let mut wal = Wal::create(&tmp.0, SyncPolicy::Commit).unwrap();
            wal.append(b"one").unwrap();
            wal.commit().unwrap();
        }
        {
            let (mut wal, replayed) = Wal::open(&tmp.0, SyncPolicy::Commit).unwrap();
            assert_eq!(replayed.len(), 1);
            wal.append(b"two").unwrap();
            wal.commit().unwrap();
        }
        let (_, replayed) = Wal::open(&tmp.0, SyncPolicy::Commit).unwrap();
        assert_eq!(
            replayed.iter().collect::<Vec<_>>(),
            vec![b"one".to_vec(), b"two".to_vec()]
        );
    }

    #[test]
    fn torn_tail_is_truncated_to_the_last_whole_record() {
        let tmp = TempDir::new("torn");
        {
            let mut wal = Wal::create(&tmp.0, SyncPolicy::Commit).unwrap();
            wal.append(b"committed record").unwrap();
            wal.append(b"the batch a crash tears").unwrap();
            wal.commit().unwrap();
        }
        // Tear the tail: chop the last record mid-payload.
        let seg = segment_path(&tmp.0, 1);
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let (wal, replayed) = Wal::open(&tmp.0, SyncPolicy::Commit).unwrap();
        assert_eq!(
            replayed.iter().collect::<Vec<_>>(),
            vec![b"committed record".to_vec()]
        );
        assert!(wal.stats().truncated_bytes > 0);
        // Idempotent: a second recovery finds a clean log.
        drop(wal);
        let (wal, replayed) = Wal::open(&tmp.0, SyncPolicy::Commit).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(wal.stats().truncated_bytes, 0);
    }

    #[test]
    fn corrupt_crc_cuts_the_log_at_the_bad_record() {
        let tmp = TempDir::new("crc");
        {
            let mut wal = Wal::create(&tmp.0, SyncPolicy::Commit).unwrap();
            wal.append(b"good one").unwrap();
            wal.append(b"about to rot").unwrap();
            wal.append(b"unreachable after the rot").unwrap();
            wal.commit().unwrap();
        }
        // Flip one payload byte of the second record.
        let seg = segment_path(&tmp.0, 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        let second_payload = HEADER as usize + b"good one".len() + HEADER as usize;
        bytes[second_payload] ^= 0xA5;
        std::fs::write(&seg, &bytes).unwrap();
        let (_, replayed) = Wal::open(&tmp.0, SyncPolicy::Commit).unwrap();
        assert_eq!(
            replayed.iter().collect::<Vec<_>>(),
            vec![b"good one".to_vec()]
        );
    }

    #[test]
    fn segments_rotate_and_replay_in_order() {
        let tmp = TempDir::new("rotate");
        {
            let mut wal = Wal::create(&tmp.0, SyncPolicy::Commit).unwrap();
            wal.set_segment_limit(64);
            for i in 0u32..40 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            wal.commit().unwrap();
        }
        assert!(
            segment_indexes(&tmp.0).unwrap().len() > 1,
            "the limit must force rotation"
        );
        let (_, replayed) = Wal::open(&tmp.0, SyncPolicy::Commit).unwrap();
        let got: Vec<u32> = replayed
            .iter()
            .map(|p| u32::from_le_bytes(p[..4].try_into().unwrap()))
            .collect();
        assert_eq!(got, (0u32..40).collect::<Vec<_>>());
    }

    #[test]
    fn torn_segment_drops_later_segments_entirely() {
        let tmp = TempDir::new("cascade");
        {
            let mut wal = Wal::create(&tmp.0, SyncPolicy::Commit).unwrap();
            wal.set_segment_limit(32);
            for i in 0u32..20 {
                wal.append(&[i as u8; 16]).unwrap();
            }
            wal.commit().unwrap();
        }
        let segments = segment_indexes(&tmp.0).unwrap();
        assert!(segments.len() >= 3);
        // Corrupt the *first* segment's second record: everything after
        // it — including whole later segments — is unreachable.
        let seg = segment_path(&tmp.0, segments[0]);
        let mut bytes = std::fs::read(&seg).unwrap();
        let second = HEADER as usize + 16 + 4;
        bytes[second] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();
        let (wal, replayed) = Wal::open(&tmp.0, SyncPolicy::Commit).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(segment_indexes(&tmp.0).unwrap(), vec![segments[0]]);
        assert!(wal.stats().truncated_bytes > 0);
    }

    #[test]
    fn sync_policies_count_fsyncs() {
        let tmp = TempDir::new("sync");
        let mut wal = Wal::create(&tmp.0, SyncPolicy::Commit).unwrap();
        wal.append(b"x").unwrap();
        wal.append(b"y").unwrap();
        assert_eq!(wal.stats().fsyncs, 0, "an append alone never syncs");
        wal.commit().unwrap();
        assert_eq!(wal.stats().fsyncs, 1, "one commit syncs both appends");
    }

    #[test]
    fn create_refuses_a_dirty_directory() {
        let tmp = TempDir::new("dirty");
        {
            let mut wal = Wal::create(&tmp.0, SyncPolicy::Commit).unwrap();
            wal.append(b"x").unwrap();
        }
        assert!(matches!(
            Wal::create(&tmp.0, SyncPolicy::Commit),
            Err(StorageError::DuplicateObject(_))
        ));
    }

    #[test]
    fn one_group_fsync_covers_every_pending_batch() {
        let tmp = TempDir::new("group");
        let mut wal = Wal::create(&tmp.0, SyncPolicy::Commit).unwrap();
        let mut lsns = Vec::new();
        for i in 0u8..5 {
            wal.append(&[i; 9]).unwrap();
            lsns.push(wal.last_lsn());
        }
        let flusher = wal.flusher();
        // The first waiter leads one fsync whose snapshot covers all
        // five records; the rest find their LSN already durable.
        for &lsn in &lsns {
            flusher.wait_durable(lsn).unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.group_commits, 1, "one leader fsync");
        assert_eq!(stats.fsyncs, 1);
        assert_eq!(stats.commits, 5);
        assert!((stats.batches_per_fsync - 5.0).abs() < 1e-9);
        drop(wal);
        let (_, replayed) = Wal::open(&tmp.0, SyncPolicy::Commit).unwrap();
        assert_eq!(replayed.len(), 5);
    }

    #[test]
    fn wait_durable_returns_immediately_when_already_durable() {
        let tmp = TempDir::new("group_nowait");
        let mut wal = Wal::create(&tmp.0, SyncPolicy::Commit).unwrap();
        wal.append(b"synced at commit").unwrap();
        wal.commit().unwrap();
        let lsn = wal.last_lsn();
        let ticket = wal.flusher().wait_durable(lsn).unwrap();
        assert_eq!(ticket.fsyncs_led, 0, "commit left no group fsync to do");
        assert_eq!(wal.stats().group_commits, 0);
    }

    #[test]
    fn concurrent_waiters_all_reach_durability() {
        const THREADS: usize = 8;
        const BATCHES: usize = 5;
        let tmp = TempDir::new("group_threads");
        let wal = Mutex::new(Wal::create(&tmp.0, SyncPolicy::Commit).unwrap());
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let wal = &wal;
                scope.spawn(move || {
                    for b in 0..BATCHES {
                        let (flusher, lsn) = {
                            let mut w = wal.lock().unwrap();
                            w.append(&[t as u8, b as u8, 0xAB]).unwrap();
                            (w.flusher(), w.last_lsn())
                        };
                        flusher.wait_durable(lsn).unwrap();
                    }
                });
            }
        });
        let wal = wal.into_inner().unwrap();
        let stats = wal.stats();
        assert_eq!(stats.commits, (THREADS * BATCHES) as u64);
        assert!(stats.group_commits >= 1);
        assert!(stats.group_commits <= (THREADS * BATCHES) as u64);
        drop(wal);
        let (_, replayed) = Wal::open(&tmp.0, SyncPolicy::Commit).unwrap();
        assert_eq!(replayed.len(), THREADS * BATCHES);
    }

    #[test]
    fn gc_after_checkpoint_deletes_sealed_segments() {
        let tmp = TempDir::new("gc");
        let mut wal = Wal::create(&tmp.0, SyncPolicy::Commit).unwrap();
        wal.set_segment_limit(64);
        for i in 0u32..40 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        wal.flush().unwrap();
        let live_before = segment_indexes(&tmp.0).unwrap().len();
        assert!(live_before > 1, "the limit must force rotation");
        let deleted = wal.gc_after_checkpoint().unwrap();
        assert_eq!(deleted as usize, live_before, "every sealed segment goes");
        assert_eq!(segment_indexes(&tmp.0).unwrap().len(), 1);
        assert_eq!(wal.stats().segments_deleted, deleted);
        // Appends continue in the fresh segment and replay alone.
        wal.append(b"after the checkpoint").unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&tmp.0, SyncPolicy::Commit).unwrap();
        assert_eq!(
            replayed.iter().collect::<Vec<_>>(),
            vec![b"after the checkpoint".to_vec()]
        );
    }

    #[test]
    fn gc_on_an_empty_segment_deletes_nothing() {
        let tmp = TempDir::new("gc_empty");
        let mut wal = Wal::create(&tmp.0, SyncPolicy::Commit).unwrap();
        assert_eq!(wal.gc_after_checkpoint().unwrap(), 0);
        assert_eq!(segment_indexes(&tmp.0).unwrap().len(), 1);
        assert_eq!(wal.stats().segments_deleted, 0);
    }
}
