//! Crash-safe durability: an append-only, checksummed mutation log with
//! warm restarts.
//!
//! Layout mirrors `net/`: [`record`] is the on-disk codec and recovery
//! scanner, [`io`] is the write-side backend seam (real disk or the
//! deterministic [`FaultFs`] injector), and this module owns the
//! [`Persist`] engine: rotating segment files under `--data-dir`,
//! `--fsync always|interval|never`, compaction-by-snapshot, and a
//! degraded-state machine that keeps the cache serving from memory when
//! the disk is sick.
//!
//! # Log discipline
//!
//! Every successful mutation (`set`/`add`/`replace`/`incr`/`decr`/
//! `delete`/`touch`/`flush_all`) appends one checksummed record to the
//! active segment *after* the shard lock is released — the log is an
//! ordered journal of acknowledged effects, not a write-ahead log, so
//! the hot path with persistence disabled is byte-identical. On boot,
//! [`Persist::open`] replays every segment in index order through the
//! scanner, truncates the torn tail a crash left behind, quarantines
//! corrupt mid-log records, and rebuilds both the sharded store and the
//! per-item CAMP costs before any listener opens.
//!
//! # Degraded state
//!
//! After `trip_after` consecutive I/O errors the engine trips to
//! `degraded`: appends are counted and dropped, the cache keeps
//! serving, and the background thread retries with jittered exponential
//! backoff. Re-arming never replays a gap — it starts a fresh segment
//! with a full snapshot (a [`Record::Clear`] followed by one set per
//! live item), so the log matches the live store the moment it heals.

pub mod io;
pub mod record;
mod state;

pub use io::{FaultFs, IoBackend, RealFs};
pub use record::{Record, ScanSummary};

use std::fmt;
use std::fs::{self, OpenOptions};
use std::io as stdio;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use camp_core::rng::Rng64;
use camp_telemetry::{kvlog, LogLevel};

use crate::fault::FaultPlan;
use crate::shard::ShardedStore;
use crate::sync::lock;

use self::state::EngineState;

/// Segment file extension (files are named `seg-<index>.camplog`).
const SEGMENT_SUFFIX: &str = ".camplog";

/// Floor for `--segment-bytes`: below this, rotation overhead dominates.
pub const MIN_SEGMENT_BYTES: u64 = 4096;

/// When to fsync the active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncMode {
    /// fsync after every record: an acknowledged write survives a crash.
    Always,
    /// fsync on a background interval (default 100 ms): bounded loss.
    #[default]
    Interval,
    /// Never fsync explicitly: the OS page cache decides.
    Never,
}

impl FromStr for FsyncMode {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        match text {
            "always" => Ok(FsyncMode::Always),
            "interval" => Ok(FsyncMode::Interval),
            "never" => Ok(FsyncMode::Never),
            other => Err(format!(
                "unknown fsync mode '{other}' (expected always|interval|never)"
            )),
        }
    }
}

impl fmt::Display for FsyncMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FsyncMode::Always => "always",
            FsyncMode::Interval => "interval",
            FsyncMode::Never => "never",
        })
    }
}

/// Configuration for the persistence engine.
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// Directory holding the segment files (created if absent).
    pub data_dir: PathBuf,
    /// Durability level for appends.
    pub fsync: FsyncMode,
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Compact (snapshot) once this many segments accumulate.
    pub keep_segments: usize,
    /// Consecutive I/O errors before tripping to `degraded`.
    pub trip_after: u32,
    /// Background fsync cadence for [`FsyncMode::Interval`].
    pub fsync_interval: Duration,
}

impl PersistOptions {
    /// Defaults: 64 MiB segments, compaction at 4 segments, degraded
    /// after 5 consecutive errors, 100 ms interval fsync.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        PersistOptions {
            data_dir: data_dir.into(),
            fsync: FsyncMode::default(),
            segment_bytes: 64 << 20,
            keep_segments: 4,
            trip_after: 5,
            fsync_interval: Duration::from_millis(100),
        }
    }
}

/// What boot-time recovery found across all segments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RecoverySummary {
    /// Segment files scanned.
    pub segments: u64,
    /// Checksum-verified records replayed into the store.
    pub records: u64,
    /// Corrupt records (or corrupt spans) skipped mid-log.
    pub quarantined: u64,
    /// Torn-tail bytes truncated or skipped.
    pub torn_bytes: u64,
    /// Whether the newest segment ended in a clean-shutdown seal.
    pub sealed: bool,
}

/// One point-in-time read of the persistence counters, for `stats` and
/// the Prometheus exporter. [`PersistSnapshot::default`] is the all-zero
/// `"disabled"` row the exporter emits when persistence is off, keeping
/// the Prometheus schema stable.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct PersistSnapshot {
    /// `"active"` or `"degraded"` (a server without `--data-dir`
    /// reports `"disabled"` by having no snapshot at all).
    pub state: &'static str,
    /// I/O errors observed (append, fsync, repair).
    pub errors: u64,
    /// Payload bytes successfully appended.
    pub bytes: u64,
    /// Successful fsyncs.
    pub fsyncs: u64,
    /// Records successfully appended.
    pub records: u64,
    /// Records dropped while degraded.
    pub dropped: u64,
    /// Records replayed by boot-time recovery.
    pub recovered: u64,
    /// Corrupt records quarantined by boot-time recovery.
    pub quarantined: u64,
    /// Torn-tail bytes found by boot-time recovery.
    pub torn_bytes: u64,
    /// Compaction snapshots taken (including re-arms).
    pub snapshots: u64,
    /// Active-to-degraded transitions (trips) since boot.
    pub trips: u64,
    /// Successful degraded-to-active recoveries.
    pub rearms: u64,
    /// Segment files currently in the log (including the active one).
    pub segments: u64,
}

impl Default for PersistSnapshot {
    fn default() -> Self {
        PersistSnapshot {
            state: "disabled",
            errors: 0,
            bytes: 0,
            fsyncs: 0,
            records: 0,
            dropped: 0,
            recovered: 0,
            quarantined: 0,
            torn_bytes: 0,
            snapshots: 0,
            trips: 0,
            rearms: 0,
            segments: 0,
        }
    }
}

/// The mutable write-side state, held under one mutex.
#[derive(Debug)]
struct LogWriter {
    backend: Box<dyn IoBackend>,
    dir: PathBuf,
    /// Index of the active segment.
    seg_index: u64,
    /// Logical bytes successfully appended to the active segment; the
    /// repair target after a failed (possibly short) write.
    committed: u64,
    consecutive_errors: u32,
    /// All live segments in index order; the active one is last.
    segments: Vec<(u64, PathBuf)>,
    /// Reusable encode buffer.
    scratch: Vec<u8>,
    /// Whether bytes were appended since the last successful fsync.
    dirty: bool,
}

/// The append-only persistence engine. One per server; shared between
/// request workers (appends), the background thread (interval fsync and
/// degraded retry) and the drain path (seal).
#[derive(Debug)]
pub struct Persist {
    writer: Mutex<LogWriter>,
    options: PersistOptions,
    engine: EngineState,
    errors: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    records: AtomicU64,
    recovered: AtomicU64,
    quarantined: AtomicU64,
    torn_bytes: AtomicU64,
    snapshots: AtomicU64,
    stop: AtomicBool,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}{SEGMENT_SUFFIX}"))
}

fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Lists `dir`'s segment files in ascending index order.
fn list_segments(dir: &Path) -> stdio::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
        else {
            continue;
        };
        if let Ok(index) = stem.parse::<u64>() {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|&(index, _)| index);
    Ok(segments)
}

/// What boot-time replay hands back to [`Persist::open`]: the scan
/// summary, the surviving segment list, and the index the new active
/// segment should use.
struct Recovered {
    summary: RecoverySummary,
    segments: Vec<(u64, PathBuf)>,
    next_index: u64,
}

/// Replays every segment into `store`, truncating the newest segment's
/// torn tail.
fn recover_into(dir: &Path, store: &ShardedStore) -> stdio::Result<Recovered> {
    let segments = list_segments(dir)?;
    let mut summary = RecoverySummary {
        segments: segments.len() as u64,
        ..RecoverySummary::default()
    };
    let now = unix_now();
    let last_index = segments.len().checked_sub(1);
    for (pos, (_, path)) in segments.iter().enumerate() {
        let bytes = fs::read(path)?;
        let scan = record::scan(&bytes, |rec| match rec {
            Record::Set {
                key,
                value,
                flags,
                cost,
                expires_at,
            } => {
                if expires_at == 0 || expires_at > now {
                    // Eviction during replay is legal (smaller memory
                    // budget than the log's working set): best effort.
                    let _ = store.set(key, value, flags, expires_at, cost);
                } else {
                    // Expired while the server was down.
                    store.delete(key);
                }
            }
            Record::Delete { key } => {
                store.delete(key);
            }
            Record::Clear => store.flush_all(),
            Record::Touch { key, expires_at } => {
                store.touch(key, expires_at);
            }
            Record::Seal => {}
        });
        summary.records += scan.applied;
        summary.quarantined += scan.quarantined;
        summary.torn_bytes += scan.torn_bytes;
        if Some(pos) == last_index {
            summary.sealed = scan.sealed;
            if scan.torn_bytes > 0 {
                // Physically truncate the torn tail so the crash leaves
                // no trace for the next scan.
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len((bytes.len() as u64).saturating_sub(scan.torn_bytes))?;
            }
        }
    }
    let next_index = segments.last().map_or(0, |&(index, _)| index + 1);
    Ok(Recovered {
        summary,
        segments,
        next_index,
    })
}

impl Persist {
    /// Opens (or creates) the log under `options.data_dir`, replays it
    /// into `store`, truncates the torn tail, and arms a fresh active
    /// segment. The backend is [`FaultFs`] when the chaos plan carries
    /// disk-fault rates, [`RealFs`] otherwise.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation, segment reads,
    /// torn-tail truncation, or creating the new active segment — boot
    /// must not proceed on a data dir it cannot use.
    pub fn open(
        options: PersistOptions,
        fault_plan: &FaultPlan,
        store: &ShardedStore,
    ) -> stdio::Result<Persist> {
        let backend: Box<dyn IoBackend> = if fault_plan.has_disk_faults() {
            Box::new(FaultFs::new(Box::new(RealFs::new()), fault_plan))
        } else {
            Box::new(RealFs::new())
        };
        Persist::open_with_backend(options, backend, store)
    }

    /// [`Persist::open`] with an explicit backend (fault-injection tests
    /// construct arbitrary backends through this).
    ///
    /// # Errors
    ///
    /// Same as [`Persist::open`].
    pub fn open_with_backend(
        options: PersistOptions,
        mut backend: Box<dyn IoBackend>,
        store: &ShardedStore,
    ) -> stdio::Result<Persist> {
        fs::create_dir_all(&options.data_dir)?;
        let Recovered {
            summary,
            mut segments,
            next_index,
        } = recover_into(&options.data_dir, store)?;
        // Always start a fresh segment: recovered segments are immutable
        // history, never appended to again.
        let active = segment_path(&options.data_dir, next_index);
        backend.create(&active)?;
        segments.push((next_index, active));
        kvlog!(
            LogLevel::Info,
            "persist_recovered",
            segments = summary.segments,
            records = summary.records,
            quarantined = summary.quarantined,
            torn_bytes = summary.torn_bytes,
            sealed = summary.sealed,
            items = store.len() as u64,
        );
        Ok(Persist {
            writer: Mutex::new(LogWriter {
                backend,
                dir: options.data_dir.clone(),
                seg_index: next_index,
                committed: 0,
                consecutive_errors: 0,
                segments,
                scratch: Vec::new(),
                dirty: false,
            }),
            options,
            engine: EngineState::new(),
            errors: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            records: AtomicU64::new(0),
            recovered: AtomicU64::new(summary.records),
            quarantined: AtomicU64::new(summary.quarantined),
            torn_bytes: AtomicU64::new(summary.torn_bytes),
            snapshots: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        })
    }

    /// Whether the engine has tripped to `degraded`.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.engine.is_degraded()
    }

    /// Logs a successful store (`set`/`add`/`replace`/arith rewrite).
    pub fn append_set(
        &self,
        store: &ShardedStore,
        key: &[u8],
        value: &[u8],
        flags: u32,
        expires_at: u64,
        cost: u64,
    ) {
        self.append_record(
            store,
            &Record::Set {
                key,
                value,
                flags,
                cost,
                expires_at,
            },
        );
    }

    /// Logs a successful delete.
    pub fn append_delete(&self, store: &ShardedStore, key: &[u8]) {
        self.append_record(store, &Record::Delete { key });
    }

    /// Logs a successful touch.
    pub fn append_touch(&self, store: &ShardedStore, key: &[u8], expires_at: u64) {
        self.append_record(store, &Record::Touch { key, expires_at });
    }

    /// Logs a `flush_all`.
    pub fn append_clear(&self, store: &ShardedStore) {
        self.append_record(store, &Record::Clear);
    }

    fn append_record(&self, store: &ShardedStore, rec: &Record<'_>) {
        if self.is_degraded() {
            self.engine.note_dropped();
            return;
        }
        let writer = &mut *lock(&self.writer);
        self.append_locked(writer, store, rec);
    }

    fn append_locked(&self, w: &mut LogWriter, store: &ShardedStore, rec: &Record<'_>) {
        if !self.write_locked(w, rec) {
            return;
        }
        if self.options.fsync == FsyncMode::Always {
            self.sync_locked(w);
        }
        if w.committed >= self.options.segment_bytes {
            self.rotate_locked(w, store);
        }
    }

    /// Encodes `rec` and appends it to the active segment. On failure a
    /// short write may have torn the tail, so the segment is truncated
    /// back to the last committed offset and the error counted; returns
    /// whether the record landed.
    fn write_locked(&self, w: &mut LogWriter, rec: &Record<'_>) -> bool {
        w.scratch.clear();
        record::encode_into(rec, &mut w.scratch);
        let len = w.scratch.len() as u64;
        if w.backend.append(&w.scratch).is_err() {
            let repaired = w.backend.truncate(w.committed).is_ok();
            self.note_io_error_locked(w);
            if !repaired {
                self.trip_locked(w);
            }
            return false;
        }
        w.committed += len;
        w.dirty = true;
        w.consecutive_errors = 0;
        // ordering: Relaxed(x2) — statistics counters; durability state
        // travels through the writer lock, not these.
        self.bytes.fetch_add(len, Ordering::Relaxed);
        self.records.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Fsyncs the active segment, counting a failure as an I/O error.
    fn sync_locked(&self, w: &mut LogWriter) {
        match w.backend.sync() {
            Ok(()) => {
                w.dirty = false;
                // ordering: Relaxed — statistics counter.
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => self.note_io_error_locked(w),
        }
    }

    fn note_io_error_locked(&self, w: &mut LogWriter) {
        // ordering: Relaxed — statistics counter.
        self.errors.fetch_add(1, Ordering::Relaxed);
        w.consecutive_errors = w.consecutive_errors.saturating_add(1);
        if w.consecutive_errors >= self.options.trip_after {
            self.trip_locked(w);
        }
    }

    fn trip_locked(&self, w: &mut LogWriter) {
        if self.engine.trip() {
            kvlog!(
                LogLevel::Warn,
                "persist_degraded",
                consecutive_errors = u64::from(w.consecutive_errors),
                // ordering: Relaxed — log-line statistic.
                errors = self.errors.load(Ordering::Relaxed),
                hint = "cache keeps serving from memory; background retry will re-arm the log",
            );
        }
    }

    /// Rotates the active segment: a plain roll while few segments are
    /// live, a compaction snapshot once `keep_segments` accumulate.
    fn rotate_locked(&self, w: &mut LogWriter, store: &ShardedStore) {
        let result = if w.segments.len() >= self.options.keep_segments {
            self.compact_locked(w, store)
        } else {
            self.roll_locked(w)
        };
        if result.is_err() {
            self.note_io_error_locked(w);
        }
    }

    fn roll_locked(&self, w: &mut LogWriter) -> stdio::Result<()> {
        let index = w.seg_index + 1;
        let path = segment_path(&w.dir, index);
        w.backend.create(&path)?;
        w.seg_index = index;
        w.committed = 0;
        w.dirty = false;
        w.segments.push((index, path));
        Ok(())
    }

    /// Compaction-by-snapshot: roll to a fresh segment, write a
    /// [`Record::Clear`] followed by one set per live item, fsync, and
    /// only then delete the older segments. Because the snapshot *leads*
    /// with `Clear`, a failed deletion is harmless — replay applies the
    /// stale history and then wipes it. A failed snapshot truncates the
    /// aborted segment to zero (removing the dangerous `Clear`) and
    /// keeps the old segments; if even that repair fails the engine
    /// trips to degraded so the next re-arm rebuilds from the live
    /// store.
    fn compact_locked(&self, w: &mut LogWriter, store: &ShardedStore) -> stdio::Result<()> {
        self.roll_locked(w)?;
        match self.snapshot_locked(w, store) {
            Ok(()) => {
                let active = w.seg_index;
                let stale: Vec<PathBuf> = w
                    .segments
                    .iter()
                    .filter(|&&(index, _)| index != active)
                    .map(|(_, path)| path.clone())
                    .collect();
                w.segments.retain(|&(index, _)| index == active);
                for path in &stale {
                    let _ = w.backend.remove(path);
                }
                // ordering: Relaxed — statistics counter.
                self.snapshots.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(err) => {
                if w.backend.truncate(0).is_err() {
                    self.trip_locked(w);
                }
                w.committed = 0;
                w.dirty = false;
                Err(err)
            }
        }
    }

    /// Writes `Clear` + one `Set` per live item into the (fresh) active
    /// segment and fsyncs it. On success `w.committed` reflects the
    /// snapshot size.
    fn snapshot_locked(&self, w: &mut LogWriter, store: &ShardedStore) -> stdio::Result<()> {
        const FLUSH_BYTES: usize = 256 * 1024;
        let LogWriter {
            backend, scratch, ..
        } = w;
        scratch.clear();
        record::encode_into(&Record::Clear, scratch);
        let mut written = 0u64;
        let mut records = 1u64;
        let mut failed: Option<stdio::Error> = None;
        store.for_each_item(|item| {
            if failed.is_some() {
                return;
            }
            record::encode_into(
                &Record::Set {
                    key: item.key,
                    value: item.value,
                    flags: item.flags,
                    cost: item.cost,
                    expires_at: item.expires_at,
                },
                scratch,
            );
            records += 1;
            if scratch.len() >= FLUSH_BYTES {
                match backend.append(scratch) {
                    Ok(()) => {
                        written += scratch.len() as u64;
                        scratch.clear();
                    }
                    Err(err) => failed = Some(err),
                }
            }
        });
        if let Some(err) = failed {
            return Err(err);
        }
        if !scratch.is_empty() {
            backend.append(scratch)?;
            written += scratch.len() as u64;
            scratch.clear();
        }
        backend.sync()?;
        w.committed = written;
        w.dirty = false;
        // ordering: Relaxed(x3) — statistics counters.
        self.bytes.fetch_add(written, Ordering::Relaxed);
        self.records.fetch_add(records, Ordering::Relaxed);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// One degraded-recovery attempt: start a fresh segment and write a
    /// full snapshot of the live store into it. On success the log
    /// exactly mirrors the cache (no silent gap from the records dropped
    /// while degraded), older segments are deleted, and the engine
    /// re-arms. Returns `true` when the engine is active afterwards.
    pub fn try_rearm(&self, store: &ShardedStore) -> bool {
        if !self.is_degraded() {
            return true;
        }
        let w = &mut *lock(&self.writer);
        let index = w.seg_index + 1;
        let path = segment_path(&w.dir, index);
        if w.backend.create(&path).is_err() {
            // ordering: Relaxed — statistics counter.
            self.errors.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        w.seg_index = index;
        w.committed = 0;
        w.dirty = false;
        w.segments.push((index, path.clone()));
        match self.snapshot_locked(w, store) {
            Ok(()) => {
                let stale: Vec<PathBuf> = w
                    .segments
                    .iter()
                    .filter(|&&(i, _)| i != index)
                    .map(|(_, p)| p.clone())
                    .collect();
                w.segments.retain(|&(i, _)| i == index);
                for p in &stale {
                    let _ = w.backend.remove(p);
                }
                w.consecutive_errors = 0;
                // ordering: Relaxed — statistics counter.
                self.snapshots.fetch_add(1, Ordering::Relaxed);
                self.engine.rearm();
                kvlog!(
                    LogLevel::Info,
                    "persist_rearmed",
                    items = store.len() as u64,
                    // ordering: Relaxed — log-line statistic.
                    errors = self.errors.load(Ordering::Relaxed),
                );
                true
            }
            Err(_) => {
                // ordering: Relaxed — statistics counter.
                self.errors.fetch_add(1, Ordering::Relaxed);
                // Scrap the aborted attempt entirely; the next retry
                // starts clean.
                let _ = w.backend.truncate(0);
                let _ = w.backend.remove(&path);
                w.segments.retain(|&(i, _)| i != index);
                w.committed = 0;
                false
            }
        }
    }

    /// Fsyncs the active segment if it has unsynced bytes (the interval
    /// mode's background flush).
    pub fn sync_now(&self) {
        if self.is_degraded() {
            return;
        }
        let w = &mut *lock(&self.writer);
        if w.dirty {
            self.sync_locked(w);
        }
    }

    /// Appends a [`Record::Seal`] and fsyncs: the drain path's clean
    /// shutdown marker. Recovery reports `sealed = true` when the newest
    /// segment ends with one.
    pub fn seal(&self) {
        if self.is_degraded() {
            return;
        }
        let w = &mut *lock(&self.writer);
        if self.write_locked(w, &Record::Seal) {
            self.sync_locked(w);
        }
    }

    /// Asks the background loop to exit at its next tick.
    pub fn request_stop(&self) {
        // ordering: Release — pairs with the loop's Acquire load so work
        // done before the stop request is visible to the loop's last tick.
        self.stop.store(true, Ordering::Release);
    }

    /// The background maintenance loop (run on a dedicated thread):
    /// interval fsync while active, jittered-exponential-backoff re-arm
    /// attempts while degraded. Returns when [`Persist::request_stop`]
    /// is called.
    pub fn background_loop(&self, store: &ShardedStore) {
        const TICK: Duration = Duration::from_millis(20);
        const BACKOFF_BASE_MS: u64 = 50;
        const BACKOFF_CAP_MS: u64 = 2_000;
        let mut rng = Rng64::seed_from_u64(0xBAC0_FF5E);
        let mut last_fsync = Instant::now();
        let mut next_retry = Instant::now();
        let mut attempts: u32 = 0;
        // ordering: Acquire — pairs with `request_stop`'s Release store.
        while !self.stop.load(Ordering::Acquire) {
            std::thread::sleep(TICK);
            if self.is_degraded() {
                if Instant::now() < next_retry {
                    continue;
                }
                if self.try_rearm(store) {
                    attempts = 0;
                } else {
                    attempts = attempts.saturating_add(1);
                    let base = (BACKOFF_BASE_MS << attempts.min(5)).min(BACKOFF_CAP_MS);
                    let jitter = rng.range_u64(0, base / 2 + 1);
                    next_retry = Instant::now() + Duration::from_millis(base + jitter);
                }
            } else if self.options.fsync == FsyncMode::Interval
                && last_fsync.elapsed() >= self.options.fsync_interval
            {
                self.sync_now();
                last_fsync = Instant::now();
            }
        }
    }

    /// The telemetry counters, read without blocking appends for long
    /// (one brief lock for the segment count).
    #[must_use]
    pub fn snapshot(&self) -> PersistSnapshot {
        let segments = lock(&self.writer).segments.len() as u64;
        PersistSnapshot {
            state: if self.is_degraded() {
                "degraded"
            } else {
                "active"
            },
            // ordering: Relaxed(x8) — statistics counters; the snapshot
            // is advisory and never gates an operation.
            errors: self.errors.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            dropped: self.engine.dropped(),
            recovered: self.recovered.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            torn_bytes: self.torn_bytes.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            trips: self.engine.trips(),
            rearms: self.engine.rearms(),
            segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::SlabConfig;
    use crate::store::{EvictionMode, StoreConfig};
    use camp_core::Precision;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("camp-persist-{tag}-{}-{seq}", std::process::id()))
    }

    fn sharded() -> ShardedStore {
        ShardedStore::new(
            StoreConfig {
                slab: SlabConfig::small(16 * 1024, 64),
                eviction: EvictionMode::Camp(Precision::Bits(5)),
            },
            4,
        )
    }

    fn options(dir: &Path) -> PersistOptions {
        PersistOptions {
            fsync: FsyncMode::Never,
            ..PersistOptions::new(dir)
        }
    }

    fn open_plain(opts: PersistOptions, store: &ShardedStore) -> Persist {
        Persist::open(opts, &FaultPlan::default(), store).expect("open persist")
    }

    #[test]
    fn fsync_mode_parses_and_displays() {
        for mode in [FsyncMode::Always, FsyncMode::Interval, FsyncMode::Never] {
            assert_eq!(mode.to_string().parse::<FsyncMode>(), Ok(mode));
        }
        assert!("sometimes".parse::<FsyncMode>().is_err());
    }

    #[test]
    fn warm_restart_round_trips_values_flags_ttls_and_costs() {
        let dir = temp_dir("roundtrip");
        let store = sharded();
        let persist = open_plain(options(&dir), &store);
        let far = unix_now() + 10_000;
        for i in 0..50u32 {
            let key = format!("key-{i}");
            let value = format!("value-{i}");
            store
                .set(key.as_bytes(), value.as_bytes(), i, 0, u64::from(i) * 7)
                .expect("set");
            persist.append_set(
                &store,
                key.as_bytes(),
                value.as_bytes(),
                i,
                0,
                u64::from(i) * 7,
            );
        }
        store.touch(b"key-3", far);
        persist.append_touch(&store, b"key-3", far);
        store.delete(b"key-7");
        persist.append_delete(&store, b"key-7");
        persist.seal();
        drop(persist);

        let recovered = sharded();
        let reopened = open_plain(options(&dir), &recovered);
        assert_eq!(recovered.len(), 49);
        assert!(!recovered.contains(b"key-7"));
        for i in 0..50u32 {
            if i == 7 {
                continue;
            }
            let key = format!("key-{i}");
            let hit = recovered.get(key.as_bytes()).expect("recovered key");
            assert_eq!(hit.value, format!("value-{i}").as_bytes());
            assert_eq!(hit.flags, i, "flags survive restart");
            assert_eq!(hit.cost, u64::from(i) * 7, "CAMP cost survives restart");
        }
        assert_eq!(
            recovered.peek_meta(b"key-3").expect("touched key").1,
            far,
            "touched expiry survives restart"
        );
        let snap = reopened.snapshot();
        assert_eq!(snap.state, "active");
        assert_eq!(snap.recovered, 53, "50 sets + touch + delete + seal");
        assert_eq!(snap.quarantined, 0);
        assert_eq!(snap.torn_bytes, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = temp_dir("torn");
        let store = sharded();
        let persist = open_plain(options(&dir), &store);
        store.set(b"good", b"value", 0, 0, 1).expect("set");
        persist.append_set(&store, b"good", b"value", 0, 0, 1);
        drop(persist);
        // Simulate a crash mid-write: a frame header promising more
        // bytes than exist.
        let seg = segment_path(&dir, 0);
        let mut torn = record::MAGIC.to_be_bytes().to_vec();
        torn.extend_from_slice(&100u32.to_be_bytes());
        torn.extend_from_slice(&0u32.to_be_bytes());
        torn.extend_from_slice(&[0xAA; 10]);
        let before = fs::read(&seg).expect("read segment").len();
        let mut file = OpenOptions::new().append(true).open(&seg).expect("open");
        stdio::Write::write_all(&mut file, &torn).expect("tear");
        drop(file);

        let recovered = sharded();
        let reopened = open_plain(options(&dir), &recovered);
        assert_eq!(recovered.get(b"good").expect("survives").value, b"value");
        let snap = reopened.snapshot();
        assert_eq!(snap.torn_bytes, torn.len() as u64);
        assert_eq!(
            fs::read(&seg).expect("reread").len(),
            before,
            "torn tail physically truncated"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_mid_log_records_are_quarantined_not_served() {
        let dir = temp_dir("quarantine");
        let store = sharded();
        let persist = open_plain(options(&dir), &store);
        for i in 0..10u32 {
            let key = format!("k{i}");
            persist.append_set(&store, key.as_bytes(), b"payload-bytes", 0, 0, 1);
        }
        drop(persist);
        // Flip one byte in the middle of the segment.
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&seg, &bytes).expect("rewrite");

        let recovered = sharded();
        let reopened = open_plain(options(&dir), &recovered);
        let snap = reopened.snapshot();
        assert!(snap.quarantined >= 1, "corruption must be counted");
        assert!(snap.recovered >= 8, "untouched records still replay");
        for i in 0..10u32 {
            let key = format!("k{i}");
            if let Some(hit) = recovered.get(key.as_bytes()) {
                assert_eq!(hit.value, b"payload-bytes", "no corrupt value served");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_compacts_and_bounds_segment_count() {
        let dir = temp_dir("compact");
        let store = sharded();
        let opts = PersistOptions {
            segment_bytes: 2048,
            keep_segments: 3,
            ..options(&dir)
        };
        let persist = open_plain(opts, &store);
        for i in 0..200u32 {
            let key = format!("key-{i:04}");
            let value = [b'v'; 48];
            store.set(key.as_bytes(), &value, 0, 0, 9).expect("set");
            persist.append_set(&store, key.as_bytes(), &value, 0, 0, 9);
        }
        let snap = persist.snapshot();
        assert!(snap.snapshots >= 1, "compaction must have run");
        assert!(
            snap.segments <= 4,
            "segment count stays bounded, got {}",
            snap.segments
        );
        drop(persist);
        let recovered = sharded();
        let _reopened = open_plain(options(&dir), &recovered);
        assert_eq!(recovered.len(), 200, "compaction preserves every key");
        assert_eq!(
            recovered.get(b"key-0123").expect("hit").cost,
            9,
            "costs survive compaction"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clear_replays_as_flush() {
        let dir = temp_dir("clear");
        let store = sharded();
        let persist = open_plain(options(&dir), &store);
        store.set(b"before", b"x", 0, 0, 1).expect("set");
        persist.append_set(&store, b"before", b"x", 0, 0, 1);
        store.flush_all();
        persist.append_clear(&store);
        store.set(b"after", b"y", 0, 0, 1).expect("set");
        persist.append_set(&store, b"after", b"y", 0, 0, 1);
        drop(persist);

        let recovered = sharded();
        let _reopened = open_plain(options(&dir), &recovered);
        assert!(!recovered.contains(b"before"));
        assert_eq!(recovered.get(b"after").expect("hit").value, b"y");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_records_are_not_resurrected() {
        let dir = temp_dir("expired");
        let store = sharded();
        let persist = open_plain(options(&dir), &store);
        persist.append_set(&store, b"stale", b"x", 0, 1, 1); // expired long ago
        persist.append_set(&store, b"fresh", b"y", 0, unix_now() + 3600, 1);
        drop(persist);
        let recovered = sharded();
        let _reopened = open_plain(options(&dir), &recovered);
        assert!(!recovered.contains(b"stale"));
        assert!(recovered.contains(b"fresh"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_faults_trip_degraded_and_rearm_restores_the_log() {
        let dir = temp_dir("degraded");
        let store = sharded();
        let plan = FaultPlan {
            enospc_rate: 0.4,
            seed: 1234,
            ..FaultPlan::default()
        };
        let opts = PersistOptions {
            trip_after: 2,
            ..options(&dir)
        };
        let persist = Persist::open(opts, &plan, &store).expect("open");
        for i in 0..400u32 {
            let key = format!("key-{i}");
            store.set(key.as_bytes(), b"value", 0, 0, 5).expect("set");
            persist.append_set(&store, key.as_bytes(), b"value", 0, 0, 5);
            if persist.is_degraded() {
                break;
            }
        }
        assert!(
            persist.is_degraded(),
            "a 40% fault rate must trip trip_after=2 within 400 appends"
        );
        // Appends while degraded are dropped, not blocked — the cache
        // itself keeps accepting the write.
        store.set(b"while-down", b"value", 0, 0, 5).expect("set");
        persist.append_set(&store, b"while-down", b"value", 0, 0, 5);
        let snap = persist.snapshot();
        assert_eq!(snap.state, "degraded");
        assert!(snap.errors >= 2);
        assert!(snap.dropped >= 1);
        // The seeded fault stream is deterministic, so re-arm retries
        // eventually land a full snapshot.
        let mut rearmed = false;
        for _ in 0..500 {
            if persist.try_rearm(&store) {
                rearmed = true;
                break;
            }
        }
        assert!(rearmed, "re-arm must eventually succeed at 40% fault rate");
        let snap = persist.snapshot();
        assert_eq!(snap.state, "active");
        assert!(snap.rearms >= 1);
        drop(persist);
        // The re-armed log is a full snapshot of the live store: every
        // key present at re-arm time recovers, including the ones whose
        // appends were dropped while degraded.
        let recovered = sharded();
        let _reopened = open_plain(options(&dir), &recovered);
        assert_eq!(recovered.len(), store.len());
        assert!(recovered.contains(b"while-down"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn background_loop_interval_fsyncs_and_stops() {
        let dir = temp_dir("bg");
        let store = Arc::new(sharded());
        let opts = PersistOptions {
            fsync: FsyncMode::Interval,
            fsync_interval: Duration::from_millis(30),
            ..PersistOptions::new(&dir)
        };
        let persist = Arc::new(open_plain(opts, &store));
        let bg = {
            let persist = Arc::clone(&persist);
            let store = Arc::clone(&store);
            std::thread::spawn(move || persist.background_loop(&store))
        };
        persist.append_set(&store, b"k", b"v", 0, 0, 1);
        std::thread::sleep(Duration::from_millis(250));
        persist.request_stop();
        bg.join().expect("background thread joins");
        assert!(
            persist.snapshot().fsyncs >= 1,
            "interval mode must fsync dirty bytes in the background"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_seal_counts_errors_and_leaves_no_torn_tail() {
        let dir = temp_dir("seal-fail");
        let store = sharded();
        let scan =
            |index| record::scan(&fs::read(segment_path(&dir, index)).expect("read"), |_| {});

        // Every append is a short write: half the seal lands, then EIO.
        let plan = FaultPlan {
            iowrite_rate: 1.0,
            ..FaultPlan::default()
        };
        let persist = Persist::open(options(&dir), &plan, &store).expect("open");
        persist.seal();
        assert_eq!(
            persist.snapshot().errors,
            1,
            "failed seal append is counted"
        );
        drop(persist);
        let first = scan(0);
        assert_eq!(first.torn_bytes, 0, "torn seal prefix truncated away");
        assert_eq!((first.applied, first.sealed), (0, false));

        // The seal lands but its fsync fails.
        let plan = FaultPlan {
            fsync_fail_rate: 1.0,
            ..FaultPlan::default()
        };
        let persist = Persist::open(options(&dir), &plan, &store).expect("reopen");
        persist.seal();
        let snap = persist.snapshot();
        assert_eq!(snap.errors, 1, "failed seal fsync is counted");
        assert_eq!(snap.fsyncs, 0);
        drop(persist);
        let second = scan(1);
        assert_eq!(second.torn_bytes, 0);
        assert_eq!(second.quarantined, 0);
        assert_eq!((second.applied, second.sealed), (1, true));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealed_flag_reflects_clean_shutdown() {
        let dir = temp_dir("seal");
        let store = sharded();
        let persist = open_plain(options(&dir), &store);
        persist.append_set(&store, b"k", b"v", 0, 0, 1);
        persist.seal();
        drop(persist);
        let recovered = recover_into(&dir, &sharded()).expect("recover");
        assert!(
            recovered.summary.sealed,
            "seal record marks a clean shutdown"
        );
        // A reboot arms a fresh (empty) active segment; scanning after
        // it reports unsealed, because the new segment has no seal.
        drop(open_plain(options(&dir), &sharded()));
        let recovered = recover_into(&dir, &sharded()).expect("recover again");
        assert!(!recovered.summary.sealed);
        fs::remove_dir_all(&dir).ok();
    }
}
