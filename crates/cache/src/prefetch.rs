//! Next-line prefetching.
//!
//! The paper's §1 notes that conventional machines lived off small
//! instruction buffers "that prefetch instructions during idle cache
//! cycles". This module adds the classic *tagged next-line prefetcher*
//! on top of any [`Cache`]: the first demand access to a line triggers a
//! prefetch of the following line. Prefetched words count toward memory
//! traffic but prefetch fills are not demand misses — so the prefetcher
//! trades bus bandwidth for miss ratio, the inverse of the trade the
//! paper's placement optimization makes (placement gets the miss ratio
//! *and* the traffic down; see the `prefetch_vs_placement` bench).

use crate::sim::{AccessSink, Cache};
use crate::stats::CacheStats;

/// A cache wrapped with a tagged next-line prefetcher.
///
/// "Tagged": a line prefetch is issued on the first *demand* touch of a
/// line (whether it hit or missed), not on every access, so a loop
/// resident in the cache stops prefetching once warm.
#[derive(Debug, Clone)]
pub struct NextLinePrefetcher {
    cache: Cache,
    /// Last line a prefetch was issued for (suppresses duplicates).
    last_trigger: Option<u64>,
    /// Lines fetched by prefetch rather than demand.
    prefetches: u64,
}

impl NextLinePrefetcher {
    /// Wraps `cache` with the prefetcher.
    #[must_use]
    pub fn new(cache: Cache) -> Self {
        Self {
            cache,
            last_trigger: None,
            prefetches: 0,
        }
    }

    /// Demand-side statistics (accesses, demand misses, total traffic
    /// including prefetch fills).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Lines fetched by the prefetcher.
    #[must_use]
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }
}

impl NextLinePrefetcher {
    /// The first demand access to a line within a run: it fires the
    /// tagged trigger.
    fn first_touch(&mut self, addr: u64) {
        let block_bytes = self.cache.config().block_bytes;
        let line = addr / block_bytes;
        self.cache.access(addr);

        // Tagged trigger: first touch of a line prefetches the next one.
        if self.last_trigger != Some(line) {
            self.last_trigger = Some(line);
            let next = line + 1;
            let (was_absent, _) = self.cache.prefetch_fill(next * block_bytes);
            if was_absent {
                self.prefetches += 1;
            }
        }
    }
}

impl AccessSink for NextLinePrefetcher {
    fn access_run(&mut self, addr: u64, words: u64) {
        // Per line, only the first access can change the prefetcher's own
        // state. Later words of the same line see `last_trigger ==
        // Some(line)`, so they reduce to plain cache accesses and batch
        // as one run.
        let block_bytes = self.cache.config().block_bytes;
        let words_per_block = block_bytes / crate::WORD_BYTES;
        let mut a = addr;
        let mut remaining = words;
        while remaining > 0 {
            let in_block = (a % block_bytes) / crate::WORD_BYTES;
            let n = remaining.min(words_per_block - in_block);
            self.first_touch(a);
            if n > 1 {
                self.cache.access_run(a + crate::WORD_BYTES, n - 1);
            }
            a += n * crate::WORD_BYTES;
            remaining -= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cache, CacheConfig};

    use super::*;

    fn prefetcher() -> NextLinePrefetcher {
        NextLinePrefetcher::new(Cache::new(CacheConfig::direct_mapped(2048, 64)))
    }

    /// Demand misses the prefetcher saved over the same cache without
    /// it, per prefetched line: the fraction of prefetches that paid off.
    fn accuracy(addrs: impl Iterator<Item = u64>) -> f64 {
        let mut plain = Cache::new(CacheConfig::direct_mapped(2048, 64));
        let mut p = prefetcher();
        for a in addrs {
            plain.access(a);
            p.access(a);
        }
        let saved = plain.stats().misses as f64 - p.stats().misses as f64;
        saved / p.prefetches() as f64
    }

    #[test]
    fn sequential_code_misses_once_then_rides_prefetch() {
        let mut p = prefetcher();
        for i in 0..256u64 {
            p.access(i * 4); // 1 KB straight line
        }
        let s = p.stats();
        // Only the very first line is a demand miss; the rest arrive via
        // prefetch ahead of the demand stream.
        assert_eq!(s.misses, 1, "{s:?}");
        assert_eq!(s.accesses, 256);
        assert!(p.prefetches() >= 15);
        let accuracy = accuracy((0..256u64).map(|i| i * 4));
        assert!(accuracy > 0.9, "accuracy {accuracy}");
    }

    #[test]
    fn traffic_includes_prefetch_fills() {
        let mut p = prefetcher();
        for i in 0..16u64 {
            p.access(i * 4); // one line of demand
        }
        let s = p.stats();
        // One demand line + one prefetched line = 32 words.
        assert_eq!(s.words_fetched, 32);
    }

    #[test]
    fn warm_loop_stops_prefetching() {
        let mut p = prefetcher();
        for _ in 0..50 {
            for i in 0..32u64 {
                p.access(i * 4); // two lines, fits easily
            }
        }
        let total = p.prefetches();
        // Prefetches are bounded by the lines adjacent to the loop, not
        // by iteration count.
        assert!(total <= 4, "prefetched {total} lines for a 2-line loop");
    }

    #[test]
    fn useless_prefetches_lower_accuracy() {
        // Touch isolated lines 4 apart: next-line prefetches never used.
        let accuracy = accuracy((0..20u64).map(|i| i * 256));
        assert!(accuracy < 0.1, "accuracy {accuracy}");
    }
}
