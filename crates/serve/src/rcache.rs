//! The serving-layer response memo: completed responses keyed by the
//! exact request bytes.
//!
//! The server keeps no per-trace state: each `/v1/simulate` runs a
//! session of its own, and only `--store` remembers traces across
//! requests, on disk. This memo is the one in-memory tier. A repeated
//! request would otherwise pay its whole handler again: decoding the
//! JSON body, parsing the embedded program, hashing its trace key,
//! walking the trace or reading its results from disk, and rendering the
//! response document.
//! All of that is a pure function of `(target, body)` for the POST
//! endpoints — `/v1/lint`, `/v1/layout`, `/v1/simulate`, and
//! `/v1/analyze` read nothing but the body, and their handlers are
//! deterministic (a session's results are bit-identical whether the
//! trace was walked or disk-served). So the reactor
//! consults this cache *before* dispatching to a worker: a hit is
//! serialized straight into the connection's write buffer, and the
//! worker pool only ever sees novel bodies.
//!
//! Entries are compared by full byte equality (the hash only picks the
//! bucket), so a hit returns exactly the bytes the handler produced the
//! first time — byte-identical responses by construction, not by luck.
//! The cache is bounded by total byte budget and entry count with FIFO
//! eviction; `GET` endpoints (`/metrics` changes between calls) and
//! oversized bodies are never cached.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

use impact_support::json::{Json, ToJson};

use crate::http::Response;
use crate::metrics::Endpoint;

/// Default byte budget for cached responses (keys + bodies).
pub const DEFAULT_CACHE_BYTES: usize = 64 * 1024 * 1024;

/// Bodies above this size are never cached: hashing multi-megabyte
/// programs on the reactor thread would cost more than a worker parse.
pub const MAX_CACHEABLE_BODY: usize = 256 * 1024;

/// Hard cap on entries regardless of byte budget.
const MAX_ENTRIES: usize = 4096;

/// One memoized response.
#[derive(Debug, Clone)]
struct Entry {
    target: String,
    body: Vec<u8>,
    endpoint: Endpoint,
    response: Response,
    cost: usize,
}

#[derive(Debug, Default)]
struct Store {
    /// Digest → entries whose key hashed there (collisions chain).
    buckets: HashMap<u64, Vec<Entry>>,
    /// Insertion order of digests for FIFO eviction.
    order: std::collections::VecDeque<u64>,
    bytes: usize,
}

/// Bounded, byte-budgeted response memo shared by reactor and workers.
#[derive(Debug)]
pub struct ResponseCache {
    store: Mutex<Store>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ResponseCache {
    /// A cache bounded to `budget` bytes; `0` disables caching entirely.
    #[must_use]
    pub fn new(budget: usize) -> Self {
        Self {
            store: Mutex::new(Store::default()),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn digest(target: &str, body: &[u8]) -> u64 {
        let mut h = DefaultHasher::new();
        target.hash(&mut h);
        body.hash(&mut h);
        h.finish()
    }

    /// Whether a request with this shape is eligible for the memo.
    #[must_use]
    pub fn cacheable(method: &str, body_len: usize) -> bool {
        method == "POST" && body_len <= MAX_CACHEABLE_BODY
    }

    /// Looks up the memoized response for `(target, body)`. Counts a
    /// hit or miss; only cacheable requests should be passed in.
    #[must_use]
    pub fn get(&self, target: &str, body: &[u8]) -> Option<(Endpoint, Response)> {
        if self.budget == 0 {
            return None;
        }
        let digest = Self::digest(target, body);
        let store = self.lock();
        let found = store.buckets.get(&digest).and_then(|chain| {
            chain
                .iter()
                .find(|e| e.target == target && e.body == body)
                .map(|e| (e.endpoint, e.response.clone()))
        });
        drop(store);
        match found {
            Some(hit) => {
                self.hits.fetch_add(1, Relaxed);
                Some(hit)
            }
            None => {
                self.misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    /// Memoizes a completed response. Statuses outside `200`/`422` are
    /// skipped: they are deterministic too, but error storms would only
    /// churn the budget. Duplicate keys (two workers racing the same
    /// novel body) keep the first entry.
    pub fn put(&self, target: &str, body: &[u8], endpoint: Endpoint, response: &Response) {
        if self.budget == 0
            || body.len() > MAX_CACHEABLE_BODY
            || !matches!(response.status, 200 | 422)
        {
            return;
        }
        let cost = target.len() + body.len() + response.body.len() + 128;
        if cost > self.budget {
            return;
        }
        let digest = Self::digest(target, body);
        let mut store = self.lock();
        let chain = store.buckets.entry(digest).or_default();
        if chain.iter().any(|e| e.target == target && e.body == body) {
            return;
        }
        chain.push(Entry {
            target: target.to_string(),
            body: body.to_vec(),
            endpoint,
            response: response.clone(),
            cost,
        });
        store.order.push_back(digest);
        store.bytes += cost;
        self.insertions.fetch_add(1, Relaxed);
        while store.bytes > self.budget || store.order.len() > MAX_ENTRIES {
            let Some(old) = store.order.pop_front() else {
                break;
            };
            let mut evicted_cost = None;
            if let Some(chain) = store.buckets.get_mut(&old) {
                if !chain.is_empty() {
                    evicted_cost = Some(chain.remove(0).cost);
                }
                if chain.is_empty() {
                    store.buckets.remove(&old);
                }
            }
            if let Some(cost) = evicted_cost {
                store.bytes -= cost;
                self.evictions.fetch_add(1, Relaxed);
            }
        }
    }

    /// Memo hits served without touching a worker.
    #[must_use]
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    /// The `response_cache` object in the `/metrics` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let store = self.lock();
        let (entries, bytes) = (
            store.order.len() as u64,
            u64::try_from(store.bytes).unwrap_or(u64::MAX),
        );
        drop(store);
        Json::Obj(vec![
            ("hits".to_string(), self.hits.load(Relaxed).to_json()),
            ("misses".to_string(), self.misses.load(Relaxed).to_json()),
            (
                "insertions".to_string(),
                self.insertions.load(Relaxed).to_json(),
            ),
            (
                "evictions".to_string(),
                self.evictions.load(Relaxed).to_json(),
            ),
            ("entries".to_string(), entries.to_json()),
            ("bytes".to_string(), bytes.to_json()),
            (
                "budget_bytes".to_string(),
                u64::try_from(self.budget).unwrap_or(u64::MAX).to_json(),
            ),
        ])
    }
}

impl Default for ResponseCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(bytes: &[u8]) -> Response {
        Response {
            status: 200,
            headers: Vec::new(),
            body: bytes.to_vec(),
        }
    }

    #[test]
    fn hit_returns_the_exact_first_response() {
        let cache = ResponseCache::new(1 << 20);
        assert!(cache.get("/v1/lint", b"{}").is_none());
        cache.put("/v1/lint", b"{}", Endpoint::Lint, &resp(b"doc-1"));
        // A later put for the same key must not replace the entry.
        cache.put("/v1/lint", b"{}", Endpoint::Lint, &resp(b"doc-2"));
        let (ep, r) = cache.get("/v1/lint", b"{}").unwrap();
        assert_eq!(ep, Endpoint::Lint);
        assert_eq!(r.body, b"doc-1");
        assert_eq!(cache.hit_count(), 1);
        // Different body, same target: distinct key.
        assert!(cache.get("/v1/lint", b"{ }").is_none());
    }

    #[test]
    fn byte_budget_evicts_fifo() {
        let cache = ResponseCache::new(600);
        for i in 0..4u8 {
            let body = vec![i; 64];
            cache.put("/v1/simulate", &body, Endpoint::Simulate, &resp(&[i; 64]));
        }
        // 4 × (~267 bytes) over a 600-byte budget: the oldest went.
        assert!(cache.get("/v1/simulate", &[0u8; 64]).is_none());
        assert!(cache.get("/v1/simulate", &[3u8; 64]).is_some());
        assert!(cache.evictions.load(Relaxed) >= 1);
    }

    #[test]
    fn disabled_and_uncacheable_shapes_are_skipped() {
        let cache = ResponseCache::new(0);
        cache.put("/v1/lint", b"x", Endpoint::Lint, &resp(b"y"));
        assert!(cache.get("/v1/lint", b"x").is_none());
        assert!(!ResponseCache::cacheable("GET", 2));
        assert!(!ResponseCache::cacheable("POST", MAX_CACHEABLE_BODY + 1));
        assert!(ResponseCache::cacheable("POST", 2));
        let cache = ResponseCache::new(1 << 20);
        cache.put(
            "/v1/lint",
            b"x",
            Endpoint::Lint,
            &Response::error(400, "nope"),
        );
        assert!(cache.get("/v1/lint", b"x").is_none(), "4xx is not cached");
    }
}
