//! A two-level instruction memory hierarchy.
//!
//! The paper's miss-penalty discussion (§4.2.1) assumes that "less than
//! 1% of instruction accesses need to wait for the data from an outside
//! cache or the main memory" — i.e. the small on-chip cache sits in
//! front of a larger second-level cache. [`TwoLevel`] composes two
//! [`Cache`]s: L1 demand misses access L2 at block granularity, and the
//! combined [`TwoLevel::amat`] (average memory access time) quantifies
//! the end-to-end benefit of placement across the hierarchy.

use crate::sim::{AccessSink, Cache};
use crate::stats::CacheStats;
use crate::WORD_BYTES;

/// Latency parameters for [`TwoLevel::amat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyLatency {
    /// Cycles for an L1 hit.
    pub l1_hit: u64,
    /// Additional cycles for an L2 hit (beyond the L1 probe).
    pub l2_hit: u64,
    /// Additional cycles for a main-memory access (beyond both probes).
    pub memory: u64,
}

impl Default for HierarchyLatency {
    /// 1-cycle L1, +6-cycle L2, +20-cycle memory — late-1980s-plausible.
    fn default() -> Self {
        Self {
            l1_hit: 1,
            l2_hit: 6,
            memory: 20,
        }
    }
}

/// Two composed caches: demand misses in `l1` access `l2`.
///
/// ```
/// use impact_cache::{AccessSink, Cache, CacheConfig, TwoLevel, HierarchyLatency};
/// let mut h = TwoLevel::new(
///     Cache::new(CacheConfig::direct_mapped(512, 64)),
///     Cache::new(CacheConfig::direct_mapped(8192, 64)),
/// );
/// for _ in 0..10 { for i in 0..256u64 { h.access(i * 4); } }
/// assert!(h.global_miss_ratio() < 0.01); // the L2 holds the 1 KB loop
/// assert!(h.amat(HierarchyLatency::default()) >= 1.0);
/// ```
///
/// The L2 sees one access per L1 *block fill word group* — modeled as one
/// L2 access per word the L1 fetches (a 4-byte bus between the levels,
/// matching the paper's memory-traffic accounting).
#[derive(Debug, Clone)]
pub struct TwoLevel {
    l1: Cache,
    l2: Cache,
}

impl TwoLevel {
    /// Composes two caches.
    ///
    /// # Panics
    ///
    /// Panics if the L2 block is smaller than the L1 block (fills could
    /// not be satisfied in one L2 pass).
    #[must_use]
    pub fn new(l1: Cache, l2: Cache) -> Self {
        assert!(
            l2.config().block_bytes >= l1.config().block_bytes,
            "L2 block ({}) must not be smaller than L1 block ({})",
            l2.config().block_bytes,
            l1.config().block_bytes
        );
        Self { l1, l2 }
    }

    /// L1 statistics (accesses = instruction fetches).
    #[must_use]
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// L2 statistics (accesses = words the L1 fetched).
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Global miss ratio: fraction of instruction fetches served by main
    /// memory (L2 misses per L1 access).
    #[must_use]
    pub fn global_miss_ratio(&self) -> f64 {
        let l1 = self.l1.stats();
        if l1.accesses == 0 {
            return 0.0;
        }
        self.l2.stats().misses as f64 / l1.accesses as f64
    }

    /// Average memory access time per instruction fetch under `latency`.
    ///
    /// `AMAT = l1_hit + miss1 x (l2_hit + miss2|1 x memory)` with miss
    /// ratios taken per-level (local miss ratios).
    #[must_use]
    pub fn amat(&self, latency: HierarchyLatency) -> f64 {
        let l1 = self.l1.stats();
        let l2 = self.l2.stats();
        let m1 = l1.miss_ratio();
        let m2 = l2.miss_ratio();
        latency.l1_hit as f64 + m1 * (latency.l2_hit as f64 + m2 * latency.memory as f64)
    }

    /// Decomposes into the two caches.
    #[must_use]
    pub fn into_parts(self) -> (Cache, Cache) {
        (self.l1, self.l2)
    }
}

impl AccessSink for TwoLevel {
    fn access_run(&mut self, addr: u64, words: u64) {
        // The L1 fill streams word-by-word over the inter-cache bus; the
        // L2 observes the word addresses of the filled region from the
        // L1 block base. A full-block fill happens at most once per L1
        // line, so each line segment of the run is one L1 run. Sectored
        // and partial fills burst from the block base at *each* missed
        // word, so those segments are single words.
        let l1_block = self.l1.config().block_bytes;
        let words_per_block = l1_block / WORD_BYTES;
        let full_block = matches!(self.l1.config().fill, crate::FillPolicy::FullBlock);
        let mut a = addr;
        let mut remaining = words;
        while remaining > 0 {
            let n = if full_block {
                remaining.min(words_per_block - (a % l1_block) / WORD_BYTES)
            } else {
                1
            };
            let before = self.l1.raw_words_fetched();
            self.l1.access_run(a, n);
            let fetched_words = self.l1.raw_words_fetched() - before;
            if fetched_words > 0 {
                self.l2.access_run(a / l1_block * l1_block, fetched_words);
            }
            a += n * WORD_BYTES;
            remaining -= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::CacheConfig;

    use super::*;

    fn hierarchy() -> TwoLevel {
        TwoLevel::new(
            Cache::new(CacheConfig::direct_mapped(512, 64)),
            Cache::new(CacheConfig::direct_mapped(8192, 64)),
        )
    }

    #[test]
    fn l2_absorbs_l1_capacity_misses() {
        let mut h = hierarchy();
        // 1 KB loop: thrashes the 512-byte L1, fits the 8 KB L2.
        for _ in 0..10 {
            for i in 0..256u64 {
                h.access(i * 4);
            }
        }
        let l1 = h.l1_stats();
        let l2 = h.l2_stats();
        assert!(l1.miss_ratio() > 0.01, "L1 must thrash: {l1:?}");
        // L2 misses only on the 16 cold fills.
        assert_eq!(l2.misses, 16);
        assert!(h.global_miss_ratio() < 0.01);
    }

    #[test]
    fn l2_sees_only_l1_fill_traffic() {
        let mut h = hierarchy();
        for i in 0..128u64 {
            h.access(i * 4); // 512 bytes, exactly fills L1
        }
        let l1 = h.l1_stats();
        let l2 = h.l2_stats();
        assert_eq!(l1.accesses, 128);
        assert_eq!(l2.accesses, l1.words_fetched);
    }

    #[test]
    fn amat_orders_configurations_sensibly() {
        // A bigger L1 must not have a worse AMAT on a loop.
        let lat = HierarchyLatency::default();
        let run = |l1_size: u64| {
            let mut h = TwoLevel::new(
                Cache::new(CacheConfig::direct_mapped(l1_size, 64)),
                Cache::new(CacheConfig::direct_mapped(8192, 64)),
            );
            for _ in 0..20 {
                for i in 0..256u64 {
                    h.access(i * 4);
                }
            }
            h.amat(lat)
        };
        let small = run(512);
        let large = run(2048);
        assert!(large < small, "AMAT 2K {large} !< 512B {small}");
        assert!(large >= 1.0);
    }

    #[test]
    #[should_panic(expected = "must not be smaller")]
    fn rejects_inverted_block_sizes() {
        let _ = TwoLevel::new(
            Cache::new(CacheConfig::direct_mapped(512, 64)),
            Cache::new(CacheConfig::direct_mapped(8192, 32)),
        );
    }
}
