//! The on-disk store: one checksum-framed file per entry, written via
//! temp-file + atomic rename, verified on every read.
//!
//! ## Layout
//!
//! ```text
//! ROOT/
//!   objects/<hh>/<hex64>   committed entries (hh = first hex byte of the key)
//!   tmp/<pid>-<seq>        in-flight writes, renamed into objects/ on commit
//!   quarantine/<hex64>     entries that failed verification (kept for autopsy)
//! ```
//!
//! ## Frame
//!
//! ```text
//! magic  b"IST1"                 4 B   format + version in one tag
//! len    payload length, u64 LE  8 B
//! sum    SHA-256(payload)       32 B
//! payload                     len B
//! ```
//!
//! ## Crash safety
//!
//! A `put` writes the full frame to `tmp/`, fsyncs it, then renames it to
//! its `objects/` path. POSIX `rename(2)` within one filesystem is atomic,
//! so a committed entry is always a complete frame; a crash mid-write
//! leaves only a stale `tmp/` file, which the next [`Store::open`] sweeps.
//! Reads re-derive the checksum every time: any entry whose magic, length,
//! or digest disagrees is moved to `quarantine/` and reported as a miss,
//! so a torn or bit-rotted file can be re-written by the next producer but
//! never served.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

use impact_support::json::Json;

use crate::cid::Cid;
use crate::sha::sha256;

/// Format tag; the trailing digit is the frame version.
pub const MAGIC: [u8; 4] = *b"IST1";
/// Frame bytes preceding the payload.
pub const HEADER_LEN: usize = 4 + 8 + 32;

/// Read/write/corruption tallies, kept with atomics so one `Store` can be
/// shared across worker threads behind an `Arc`.
#[derive(Default)]
struct Tallies {
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    corrupt: AtomicU64,
}

/// A point-in-time snapshot of a store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// `get` calls that returned a verified payload.
    pub hits: u64,
    /// `get` calls that found nothing servable (absent or quarantined).
    pub misses: u64,
    /// Entries committed by `put` (duplicates excluded).
    pub puts: u64,
    /// Payload bytes served by hits.
    pub bytes_read: u64,
    /// Payload bytes committed by puts.
    pub bytes_written: u64,
    /// Entries that failed verification and were quarantined.
    pub corrupt: u64,
}

impl StoreCounters {
    /// Renders the counters with the `store_` prefix used by `/metrics`
    /// and `repro --metrics`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("store_hits".into(), Json::Num(self.hits as f64)),
            ("store_misses".into(), Json::Num(self.misses as f64)),
            ("store_puts".into(), Json::Num(self.puts as f64)),
            ("store_bytes_read".into(), Json::Num(self.bytes_read as f64)),
            (
                "store_bytes_written".into(),
                Json::Num(self.bytes_written as f64),
            ),
            ("store_corrupt".into(), Json::Num(self.corrupt as f64)),
        ])
    }
}

/// One committed entry, as listed by [`Store::entries`].
#[derive(Debug, Clone)]
pub struct EntryInfo {
    /// The entry's key.
    pub cid: Cid,
    /// Whole-file size (frame header + payload).
    pub file_bytes: u64,
    /// Filesystem modification time (commit time).
    pub modified: SystemTime,
}

/// Aggregate numbers for `impact store stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStat {
    /// Committed entries.
    pub entries: u64,
    /// Total committed bytes (frame + payload).
    pub bytes: u64,
    /// Files currently in `quarantine/`.
    pub quarantined: u64,
}

/// Outcome of a full [`Store::verify`] sweep.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Entries examined.
    pub checked: u64,
    /// Entries whose frame verified.
    pub ok: u64,
    /// Keys moved to quarantine by this sweep.
    pub quarantined: Vec<Cid>,
}

/// Outcome of a [`Store::gc`] pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcReport {
    /// Entries present before the pass.
    pub scanned: u64,
    /// Entries removed (oldest first).
    pub removed: u64,
    /// Bytes reclaimed.
    pub removed_bytes: u64,
    /// Bytes remaining after the pass.
    pub kept_bytes: u64,
}

/// A content-addressed store rooted at one directory.
pub struct Store {
    root: PathBuf,
    tallies: Tallies,
    tmp_seq: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) a store at `root` and sweeps stale
    /// temp files left by a crashed writer.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Store> {
        let root = root.into();
        std::fs::create_dir_all(root.join("objects"))?;
        std::fs::create_dir_all(root.join("tmp"))?;
        std::fs::create_dir_all(root.join("quarantine"))?;
        // A crash mid-put leaves a partial frame in tmp/; it was never
        // visible in objects/, so discarding it is always safe.
        if let Ok(stale) = std::fs::read_dir(root.join("tmp")) {
            for entry in stale.flatten() {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(Store {
            root,
            tallies: Tallies::default(),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The directory this store lives in.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn object_path(&self, cid: &Cid) -> PathBuf {
        let hex = cid.to_hex();
        self.root.join("objects").join(&hex[..2]).join(hex)
    }

    fn quarantine_path(&self, cid: &Cid) -> PathBuf {
        self.root.join("quarantine").join(cid.to_hex())
    }

    /// Commits `payload` under `cid`. Returns `false` (without writing)
    /// if the entry already exists: entries are immutable, and under
    /// content addressing an existing entry already holds these bytes.
    ///
    /// # Errors
    /// Propagates I/O failures from the temp write or the commit rename.
    pub fn put(&self, cid: &Cid, payload: &[u8]) -> std::io::Result<bool> {
        let dst = self.object_path(cid);
        if dst.exists() {
            return Ok(false);
        }
        if let Some(bucket) = dst.parent() {
            std::fs::create_dir_all(bucket)?;
        }
        let tmp = self.root.join("tmp").join(format!(
            "{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&MAGIC)?;
            f.write_all(&(payload.len() as u64).to_le_bytes())?;
            f.write_all(&sha256(payload))?;
            f.write_all(payload)?;
            f.sync_all()?;
        }
        match std::fs::rename(&tmp, &dst) {
            Ok(()) => {
                self.tallies.puts.fetch_add(1, Ordering::Relaxed);
                self.tallies
                    .bytes_written
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                Ok(true)
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Fetches and verifies the entry under `cid`. Absent, unreadable,
    /// or corrupt entries all return `None`; corrupt ones are moved to
    /// `quarantine/` first so a later `put` can re-create them.
    #[must_use]
    pub fn get(&self, cid: &Cid) -> Option<Vec<u8>> {
        let path = self.object_path(cid);
        let mut raw = Vec::new();
        match std::fs::File::open(&path).and_then(|mut f| f.read_to_end(&mut raw)) {
            Ok(_) => {}
            Err(_) => {
                self.tallies.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        match decode_frame(&raw) {
            Some(payload) => {
                self.tallies.hits.fetch_add(1, Ordering::Relaxed);
                self.tallies
                    .bytes_read
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                Some(payload.to_vec())
            }
            None => {
                self.quarantine(cid, &path);
                self.tallies.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether a committed entry exists for `cid` (no verification).
    #[must_use]
    pub fn contains(&self, cid: &Cid) -> bool {
        self.object_path(cid).exists()
    }

    /// Reads the first payload byte of an entry without verifying the
    /// whole frame — the entry *kind tag* by the workspace's payload
    /// convention. For listing (`impact store ls`) and for
    /// [`Store::gc`]'s eviction order; never used to serve data.
    #[must_use]
    pub fn peek_kind(&self, cid: &Cid) -> Option<u8> {
        let mut f = std::fs::File::open(self.object_path(cid)).ok()?;
        let mut head = [0u8; HEADER_LEN + 1];
        f.read_exact(&mut head).ok()?;
        Some(head[HEADER_LEN])
    }

    fn quarantine(&self, cid: &Cid, path: &Path) {
        self.tallies.corrupt.fetch_add(1, Ordering::Relaxed);
        if std::fs::rename(path, self.quarantine_path(cid)).is_err() {
            // Renames only fail here in degenerate cases (permissions,
            // root vanished); make sure the bad entry is gone regardless.
            let _ = std::fs::remove_file(path);
        }
    }

    /// Lists committed entries, sorted by key for stable output.
    #[must_use]
    pub fn entries(&self) -> Vec<EntryInfo> {
        let mut out = Vec::new();
        let Ok(buckets) = std::fs::read_dir(self.root.join("objects")) else {
            return out;
        };
        for bucket in buckets.flatten() {
            let Ok(files) = std::fs::read_dir(bucket.path()) else {
                continue;
            };
            for file in files.flatten() {
                let name = file.file_name();
                let Some(cid) = name.to_str().and_then(Cid::parse_hex) else {
                    continue;
                };
                let Ok(meta) = file.metadata() else {
                    continue;
                };
                out.push(EntryInfo {
                    cid,
                    file_bytes: meta.len(),
                    modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                });
            }
        }
        out.sort_by_key(|e| e.cid);
        out
    }

    /// Aggregate entry/byte/quarantine counts.
    #[must_use]
    pub fn stat(&self) -> StoreStat {
        let mut stat = StoreStat::default();
        for e in self.entries() {
            stat.entries += 1;
            stat.bytes += e.file_bytes;
        }
        if let Ok(q) = std::fs::read_dir(self.root.join("quarantine")) {
            stat.quarantined = q.flatten().count() as u64;
        }
        stat
    }

    /// Re-verifies every committed entry, quarantining any that fail.
    #[must_use]
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        for e in self.entries() {
            report.checked += 1;
            let path = self.object_path(&e.cid);
            let ok = std::fs::read(&path)
                .ok()
                .and_then(|raw| decode_frame(&raw).map(|_| ()))
                .is_some();
            if ok {
                report.ok += 1;
            } else {
                self.quarantine(&e.cid, &path);
                report.quarantined.push(e.cid);
            }
        }
        report
    }

    /// Evicts entries until the committed footprint is at most
    /// `max_bytes`: run-buffer artifacts first, which nothing reads any
    /// more, then results; oldest-modified first within each group.
    #[must_use]
    pub fn gc(&self, max_bytes: u64) -> GcReport {
        let mut entries = self.entries();
        // Key order breaks mtime ties deterministically.
        entries.sort_by_cached_key(|e| {
            let live = self.peek_kind(&e.cid) != Some(crate::kind::ARTIFACT);
            (live, e.modified, e.cid)
        });
        let mut report = GcReport {
            scanned: entries.len() as u64,
            ..GcReport::default()
        };
        let mut total: u64 = entries.iter().map(|e| e.file_bytes).sum();
        for e in &entries {
            if total <= max_bytes {
                break;
            }
            if std::fs::remove_file(self.object_path(&e.cid)).is_ok() {
                total -= e.file_bytes;
                report.removed += 1;
                report.removed_bytes += e.file_bytes;
            }
        }
        report.kept_bytes = total;
        report
    }

    /// Snapshot of this handle's read/write/corruption counters.
    #[must_use]
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.tallies.hits.load(Ordering::Relaxed),
            misses: self.tallies.misses.load(Ordering::Relaxed),
            puts: self.tallies.puts.load(Ordering::Relaxed),
            bytes_read: self.tallies.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.tallies.bytes_written.load(Ordering::Relaxed),
            corrupt: self.tallies.corrupt.load(Ordering::Relaxed),
        }
    }

    /// Per-kind entry counts (first payload byte), for `stat --json`.
    #[must_use]
    pub fn kind_histogram(&self) -> HashMap<u8, u64> {
        let mut hist = HashMap::new();
        for e in self.entries() {
            if let Some(kind) = self.peek_kind(&e.cid) {
                *hist.entry(kind).or_insert(0) += 1;
            }
        }
        hist
    }
}

/// Validates a raw frame and returns the payload slice, or `None` if the
/// magic, length, or checksum disagrees.
#[must_use]
pub fn decode_frame(raw: &[u8]) -> Option<&[u8]> {
    if raw.len() < HEADER_LEN || raw[..4] != MAGIC {
        return None;
    }
    let len = u64::from_le_bytes(raw[4..12].try_into().expect("8-byte len"));
    let payload = &raw[HEADER_LEN..];
    if payload.len() as u64 != len {
        return None;
    }
    if sha256(payload)[..] != raw[12..HEADER_LEN] {
        return None;
    }
    Some(payload)
}
