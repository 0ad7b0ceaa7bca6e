//! A victim cache (Jouppi, ISCA 1990) behind a direct-mapped cache.
//!
//! The classic *hardware* answer to direct-mapped conflict misses: a
//! tiny fully-associative buffer holding recently evicted blocks. A miss
//! that hits in the victim buffer swaps the two blocks at small cost
//! instead of going to memory. The paper's answer to the same problem is
//! *software* (placement); the ablation benches put the two side by
//! side.

use crate::config::{CacheConfig, FillPolicy};
use crate::sim::AccessSink;
use crate::stats::CacheStats;
use crate::WORD_BYTES;

/// A direct-mapped cache with a small fully-associative victim buffer.
///
/// Implemented standalone (rather than wrapping [`Cache`](crate::Cache))
/// because the swap path needs to know which block a fill evicts.
/// Whole-block fills only.
#[derive(Debug, Clone)]
pub struct VictimCache {
    config: CacheConfig,
    /// Main array: tag per set (`u64::MAX` = empty).
    tags: Vec<u64>,
    /// Victim buffer entries: `(block address, lru stamp)`.
    victims: Vec<(u64, u64)>,
    capacity: usize,
    stamp: u64,
    stats: CacheStats,
    /// Misses served by the victim buffer (no memory traffic).
    victim_hits: u64,
}

impl VictimCache {
    /// Creates a direct-mapped cache of `config` with a `victim_blocks`-
    /// entry victim buffer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, not direct-mapped, not
    /// whole-block fill, or `victim_blocks` is zero.
    #[must_use]
    pub fn new(config: CacheConfig, victim_blocks: usize) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache config: {e}"));
        assert!(
            matches!(config.associativity, crate::Associativity::Direct),
            "victim caches back direct-mapped arrays"
        );
        assert!(
            matches!(config.fill, FillPolicy::FullBlock),
            "victim caches require whole-block fills"
        );
        assert!(victim_blocks > 0, "victim buffer must be non-empty");
        Self {
            config,
            tags: vec![u64::MAX; config.sets() as usize],
            victims: Vec::with_capacity(victim_blocks),
            capacity: victim_blocks,
            stamp: 0,
            stats: CacheStats::default(),
            victim_hits: 0,
        }
    }

    /// Demand statistics. `words_fetched` counts memory traffic only —
    /// victim-buffer swaps are free of bus traffic.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Misses that the victim buffer absorbed.
    #[must_use]
    pub fn victim_hits(&self) -> u64 {
        self.victim_hits
    }

    /// Miss ratio counting only misses that reached memory.
    #[must_use]
    pub fn memory_miss_ratio(&self) -> f64 {
        if self.stats.accesses == 0 {
            0.0
        } else {
            (self.stats.misses - self.victim_hits) as f64 / self.stats.accesses as f64
        }
    }

    /// Inserts an evicted block into the buffer, evicting its LRU entry.
    fn push_victim(&mut self, block: u64) {
        if self.victims.len() < self.capacity {
            self.victims.push((block, self.stamp));
            return;
        }
        let lru = self
            .victims
            .iter_mut()
            .min_by_key(|(_, s)| *s)
            .expect("buffer is non-empty");
        *lru = (block, self.stamp);
    }

    /// The first access of a run to a line: the only one that can miss.
    fn first_touch(&mut self, addr: u64) {
        self.stamp += 1;
        self.stats.accesses += 1;
        let block = addr / self.config.block_bytes;
        let set = (block % self.config.sets()) as usize;
        let tag = block / self.config.sets();

        if self.tags[set] == tag {
            return; // main-array hit
        }
        self.stats.misses += 1;

        let evicted = self.tags[set];
        if let Some(pos) = self.victims.iter().position(|&(b, _)| b == block) {
            // Victim hit: swap the buffered block with the resident one.
            self.victim_hits += 1;
            self.victims.swap_remove(pos);
            self.tags[set] = tag;
            if evicted != u64::MAX {
                let evicted_block = evicted * self.config.sets() + set as u64;
                self.push_victim(evicted_block);
            }
            return;
        }

        // Memory fill; the displaced block moves to the victim buffer.
        self.stats.words_fetched += self.config.block_bytes / WORD_BYTES;
        self.tags[set] = tag;
        if evicted != u64::MAX {
            let evicted_block = evicted * self.config.sets() + set as u64;
            self.push_victim(evicted_block);
        }
    }
}

impl AccessSink for VictimCache {
    fn access_run(&mut self, addr: u64, words: u64) {
        // Whole-block fills only: after the first access of a line the
        // block is resident, so the remaining words of the segment are
        // guaranteed main-array hits — pure stamp/access bookkeeping.
        let block_bytes = self.config.block_bytes;
        let mut a = addr;
        let mut remaining = words;
        while remaining > 0 {
            let in_block = (a % block_bytes) / WORD_BYTES;
            let n = remaining.min(block_bytes / WORD_BYTES - in_block);
            self.first_touch(a);
            self.stamp += n - 1;
            self.stats.accesses += n - 1;
            a += n * WORD_BYTES;
            remaining -= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(victims: usize) -> VictimCache {
        VictimCache::new(CacheConfig::direct_mapped(1024, 64), victims)
    }

    #[test]
    fn absorbs_a_two_block_conflict() {
        // Blocks 0 and 16 collide in a 16-set cache; one victim entry
        // fully absorbs the ping-pong.
        let mut c = vc(1);
        for _ in 0..50 {
            c.access(0);
            c.access(1024);
        }
        let s = c.stats();
        assert_eq!(s.misses, 100, "every access after the set is a swap miss");
        assert_eq!(c.victim_hits(), 98, "only two memory fills");
        assert_eq!(s.words_fetched, 2 * 16);
        assert!((c.memory_miss_ratio() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn buffer_capacity_limits_absorption() {
        // Three-way conflict with a single victim entry: the buffer
        // cannot hold both displaced blocks.
        let mut c = vc(1);
        for _ in 0..20 {
            c.access(0);
            c.access(1024);
            c.access(2048);
        }
        assert!(
            c.memory_miss_ratio() > 0.5,
            "1-entry buffer must thrash on a 3-way conflict: {}",
            c.memory_miss_ratio()
        );

        let mut big = vc(2);
        for _ in 0..20 {
            big.access(0);
            big.access(1024);
            big.access(2048);
        }
        assert!(
            big.memory_miss_ratio() < 0.1,
            "2-entry buffer absorbs the 3-way conflict: {}",
            big.memory_miss_ratio()
        );
    }

    #[test]
    fn no_conflicts_means_no_victim_activity() {
        let mut c = vc(4);
        for i in 0..256u64 {
            c.access(i * 4); // 1 KB straight line fills the cache once
        }
        assert_eq!(c.victim_hits(), 0);
        assert_eq!(c.stats().misses, 16);
    }

    #[test]
    fn lru_replacement_in_the_buffer() {
        let mut c = vc(2);
        // Evict blocks 0, 16, 32 into the buffer (capacity 2): block 0
        // is the LRU victim and gets dropped.
        c.access(0);
        c.access(1024); // evicts 0
        c.access(2048); // evicts 16
        c.access(3072); // evicts 32 -> buffer [16? no: [0,16] -> push 32 drops 0
                        // Re-access 0: must be a memory miss (dropped from buffer).
        let before = c.stats().words_fetched;
        c.access(0);
        assert!(c.stats().words_fetched > before);
    }

    #[test]
    #[should_panic(expected = "victim buffer must be non-empty")]
    fn zero_entries_rejected() {
        let _ = vc(0);
    }
}
