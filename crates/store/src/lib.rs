//! `impact-store` — a dependency-free, persistent, content-addressed
//! store.
//!
//! Entries are keyed by a stable 256-bit [`Cid`] (SHA-256 over a
//! canonical encoding, see [`cid::KeyWriter`]), written append-only via
//! temp-file + atomic rename, length- and checksum-framed, and verified
//! on every read — corrupt entries are quarantined, never served
//! (see [`store::Store`]).
//!
//! The session layer (`impact-experiments`) persists finished per-config
//! results here so `impact serve --store` restarts warm and `repro
//! --store` runs are incremental; this crate itself knows nothing about
//! traces — it stores bytes.
//!
//! By workspace convention the first payload byte of every entry is a
//! *kind tag* ([`kind`]), so `impact store ls` can label entries without
//! decoding them.

pub mod cid;
pub mod sha;
pub mod store;

pub use cid::{Cid, KeyWriter};
pub use store::{decode_frame, EntryInfo, GcReport, Store, StoreCounters, StoreStat, VerifyReport};

/// Entry-kind tags: the first payload byte of every entry.
pub mod kind {
    /// A captured trace `RunBuffer` artifact. The session writes none;
    /// older stores and perfbench's traced pass hold them.
    pub const ARTIFACT: u8 = 1;
    /// A finished per-config simulation result.
    pub const RESULT: u8 = 2;

    /// Human label for a kind tag.
    #[must_use]
    pub fn label(kind: u8) -> &'static str {
        match kind {
            ARTIFACT => "artifact",
            RESULT => "result",
            _ => "unknown",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory removed on drop.
    pub(crate) struct TempDir(pub PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "impact-store-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn open(tmp: &TempDir) -> Store {
        Store::open(tmp.0.join("store")).expect("open store")
    }

    #[test]
    fn put_get_round_trip_and_counters() {
        let tmp = TempDir::new("roundtrip");
        let store = open(&tmp);
        let cid = Cid::of(b"key-1");
        let payload = b"hello store".to_vec();
        assert!(store.put(&cid, &payload).expect("put"));
        // Duplicate put is a no-op.
        assert!(!store.put(&cid, &payload).expect("dup put"));
        assert_eq!(store.get(&cid), Some(payload.clone()));
        assert_eq!(store.get(&Cid::of(b"absent")), None);
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.puts, c.corrupt), (1, 1, 1, 0));
        assert_eq!(c.bytes_written, payload.len() as u64);
        assert_eq!(c.bytes_read, payload.len() as u64);
    }

    #[test]
    fn reopen_sees_committed_entries() {
        let tmp = TempDir::new("reopen");
        let cid = Cid::of(b"persist");
        {
            let store = open(&tmp);
            store.put(&cid, b"survives").expect("put");
        }
        let store = open(&tmp);
        assert_eq!(store.get(&cid), Some(b"survives".to_vec()));
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let tmp = TempDir::new("sweep");
        {
            let _ = open(&tmp);
        }
        let stale = tmp.0.join("store/tmp/999-crashed");
        std::fs::write(&stale, b"partial frame").expect("write stale");
        let _ = open(&tmp);
        assert!(!stale.exists(), "open must discard crashed writes");
    }

    /// Every corruption class is detected on read, quarantined, and the
    /// key is re-writable on the next miss.
    #[test]
    #[allow(clippy::type_complexity)]
    fn corruption_is_detected_quarantined_and_rewritable() {
        let cases: [(&str, fn(&mut Vec<u8>)); 3] = [
            ("truncated tail", |raw| {
                raw.truncate(raw.len() - 3);
            }),
            ("bit-flipped payload", |raw| {
                let last = raw.len() - 1;
                raw[last] ^= 0x40;
            }),
            ("wrong-length frame", |raw| {
                // Claim one more payload byte than the frame carries.
                let len = u64::from_le_bytes(raw[4..12].try_into().unwrap());
                raw[4..12].copy_from_slice(&(len + 1).to_le_bytes());
            }),
        ];
        for (name, damage) in cases {
            let tmp = TempDir::new("corrupt");
            let store = open(&tmp);
            let cid = Cid::of(name.as_bytes());
            let payload = format!("payload for {name}").into_bytes();
            store.put(&cid, &payload).expect("put");

            let hex = cid.to_hex();
            let path = tmp.0.join("store/objects").join(&hex[..2]).join(&hex);
            let mut raw = std::fs::read(&path).expect("read entry");
            damage(&mut raw);
            std::fs::write(&path, &raw).expect("rewrite damaged");

            assert_eq!(store.get(&cid), None, "{name}: must not be served");
            assert!(!path.exists(), "{name}: must leave objects/");
            assert!(
                tmp.0.join("store/quarantine").join(&hex).exists(),
                "{name}: must land in quarantine/"
            );
            assert_eq!(store.counters().corrupt, 1, "{name}");

            // The next producer re-creates the entry and it serves again.
            assert!(store.put(&cid, &payload).expect("re-put"), "{name}");
            assert_eq!(store.get(&cid), Some(payload.clone()), "{name}");
        }
    }

    #[test]
    fn verify_sweep_quarantines_bad_entries() {
        let tmp = TempDir::new("verify");
        let store = open(&tmp);
        let good = Cid::of(b"good");
        let bad = Cid::of(b"bad");
        store.put(&good, b"fine").expect("put");
        store.put(&bad, b"doomed").expect("put");
        let hex = bad.to_hex();
        let path = tmp.0.join("store/objects").join(&hex[..2]).join(&hex);
        let mut raw = std::fs::read(&path).expect("read");
        let last = raw.len() - 1;
        raw[last] ^= 1;
        std::fs::write(&path, &raw).expect("damage");

        let report = store.verify();
        assert_eq!((report.checked, report.ok), (2, 1));
        assert_eq!(report.quarantined, vec![bad]);
        assert_eq!(store.stat().quarantined, 1);
    }

    #[test]
    fn gc_evicts_oldest_until_under_budget() {
        let tmp = TempDir::new("gc");
        let store = open(&tmp);
        let mut cids = Vec::new();
        for i in 0u32..4 {
            let cid = Cid::of(&i.to_le_bytes());
            store.put(&cid, &[kind::RESULT; 100]).expect("put");
            cids.push(cid);
            // Distinct mtimes so eviction order is the commit order.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let total = store.stat().bytes;
        let per_entry = total / 4;
        let report = store.gc(total - per_entry); // forces out exactly one
        assert_eq!(report.removed, 1);
        assert!(!store.contains(&cids[0]), "oldest entry must go first");
        assert!(cids[1..].iter().all(|c| store.contains(c)));
        assert_eq!(report.kept_bytes, store.stat().bytes);

        // Budget 0 clears everything.
        let report = store.gc(0);
        assert_eq!(report.removed, 3);
        assert_eq!(store.stat().entries, 0);
    }

    #[test]
    fn gc_evicts_artifacts_before_older_results() {
        let tmp = TempDir::new("gc-kinds");
        let store = open(&tmp);
        let put = |name: &str, kind: u8| {
            let cid = Cid::of(name.as_bytes());
            store.put(&cid, &[kind; 100]).expect("put");
            std::thread::sleep(std::time::Duration::from_millis(20));
            cid
        };
        let results = [put("r0", kind::RESULT), put("r1", kind::RESULT)];
        let results_bytes = store.stat().bytes;
        let artifacts = [put("a0", kind::ARTIFACT), put("a1", kind::ARTIFACT)];
        let report = store.gc(results_bytes);
        assert_eq!(report.removed, 2);
        assert!(artifacts.iter().all(|c| !store.contains(c)));
        assert!(results.iter().all(|c| store.contains(c)));
        assert_eq!(report.kept_bytes, results_bytes);
    }

    #[test]
    fn entries_and_kinds_are_listed() {
        let tmp = TempDir::new("ls");
        let store = open(&tmp);
        let a = Cid::of(b"a");
        let r = Cid::of(b"r");
        store.put(&a, &[kind::ARTIFACT, 1, 2, 3]).expect("put");
        store.put(&r, &[kind::RESULT, 9]).expect("put");
        let entries = store.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.windows(2).all(|w| w[0].cid < w[1].cid));
        assert_eq!(store.peek_kind(&a), Some(kind::ARTIFACT));
        assert_eq!(store.peek_kind(&r), Some(kind::RESULT));
        let hist = store.kind_histogram();
        assert_eq!(hist.get(&kind::ARTIFACT), Some(&1));
        assert_eq!(hist.get(&kind::RESULT), Some(&1));
        assert_eq!(kind::label(kind::ARTIFACT), "artifact");
        assert_eq!(kind::label(kind::RESULT), "result");
        assert_eq!(kind::label(77), "unknown");
    }

    /// Property: `get(put(x)) == x` for arbitrary payloads and keys.
    #[test]
    fn round_trip_property() {
        let tmp = TempDir::new("forall");
        let store = open(&tmp);
        impact_support::check::forall(
            64,
            |rng| {
                let len = (rng.next_u64() % 2048) as usize;
                let mut payload = vec![0u8; len];
                for b in &mut payload {
                    *b = (rng.next_u64() & 0xff) as u8;
                }
                let key = rng.next_u64();
                (key, payload)
            },
            |(key, payload)| {
                let cid = Cid::of(&key.to_le_bytes());
                store.put(&cid, payload).expect("put");
                assert_eq!(store.get(&cid).as_deref(), Some(payload.as_slice()));
            },
        );
    }
}
