//! Single-pass multi-configuration simulation: one shared tag-probe
//! loop driving per-config state lanes.
//!
//! Configurations sharing a block size share span boundaries exactly —
//! the decomposition of a run into line spans depends only on
//! `block_bytes` — so a [`MultiLane`] groups its caches by block
//! geometry, splits each run into spans **once per group**, and feeds
//! the shared span to every lane of the group. Each lane keeps its own
//! tags, valid bits, recency stamps, and statistics; only the address
//! arithmetic is shared, so per-lane results are bit-identical to `N`
//! independent single-config passes (property-tested against the
//! reference model in `tests/lanes_equiv.rs`).
//!
//! This is the Mattson-era one-pass-many-configs idea applied to our
//! run-batched representation: with a captured
//! [`RunBuffer`](../../impact_trace/artifact/struct.RunBuffer.html)
//! artifact, evaluating a whole geometry sweep costs one walk over the
//! runs instead of one interpreter re-walk per configuration.

use crate::sim::{AccessSink, Cache, WORD_SHIFT};
use crate::stats::CacheStats;
use crate::{CacheConfig, WORD_BYTES};

/// Lanes sharing one block geometry, driven by shared line spans.
#[derive(Debug, Clone)]
struct LaneGroup {
    /// `block_bytes - 1` (configs validate block sizes as powers of two).
    block_mask: u64,
    /// Words per block of this geometry.
    words_per_block: u64,
    /// The caches of this geometry, in insertion order.
    lanes: Vec<Cache>,
}

/// A bank of caches fed by a single access stream: regenerating a
/// multi-million-instruction trace for every configuration of a sweep
/// is wasteful, so a `MultiLane` simulates the whole sweep in one pass
/// with a shared span-decomposition loop.
///
/// # Example
///
/// ```
/// use impact_cache::{AccessSink, CacheConfig, MultiLane};
///
/// // A whole size sweep at one block geometry: spans split once.
/// let mut lanes = MultiLane::new(
///     [512, 1024, 2048, 4096, 8192].map(|s| CacheConfig::direct_mapped(s, 64)),
/// );
/// lanes.access_run(0, 4096);
/// let stats = lanes.take_stats();
/// assert_eq!(stats.len(), 5);
/// assert!(stats[0].miss_ratio() >= stats[4].miss_ratio());
/// ```
#[derive(Debug, Clone)]
pub struct MultiLane {
    groups: Vec<LaneGroup>,
    /// `(group, lane)` per construction-order config, so statistics come
    /// back in the order the configs went in.
    order: Vec<(usize, usize)>,
}

impl MultiLane {
    /// Creates a lane bank from a collection of configurations.
    ///
    /// # Panics
    ///
    /// Panics if any configuration is invalid (validate user-supplied
    /// configs with [`CacheConfig::validate`] first).
    #[must_use]
    pub fn new(configs: impl IntoIterator<Item = CacheConfig>) -> Self {
        let mut groups: Vec<LaneGroup> = Vec::new();
        let mut order = Vec::new();
        for config in configs {
            let cache = Cache::new(config); // validates
            let bb = cache.block_bytes();
            let gi = match groups.iter().position(|g| g.block_mask == bb - 1) {
                Some(i) => i,
                None => {
                    groups.push(LaneGroup {
                        block_mask: bb - 1,
                        words_per_block: bb / WORD_BYTES,
                        lanes: Vec::new(),
                    });
                    groups.len() - 1
                }
            };
            order.push((gi, groups[gi].lanes.len()));
            groups[gi].lanes.push(cache);
        }
        Self { groups, order }
    }

    /// Number of simulated configurations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` if no configurations are simulated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of distinct block geometries (= span decompositions per
    /// run).
    #[must_use]
    pub fn geometry_groups(&self) -> usize {
        self.groups.len()
    }

    /// Statistics of every lane, in construction order (snapshot).
    #[must_use]
    pub fn stats(&self) -> Vec<CacheStats> {
        self.order
            .iter()
            .map(|&(g, l)| self.groups[g].lanes[l].stats())
            .collect()
    }

    /// Finalizes and returns every lane's statistics in construction
    /// order; see [`Cache::take_stats`].
    pub fn take_stats(&mut self) -> Vec<CacheStats> {
        self.order
            .iter()
            .map(|&(g, l)| self.groups[g].lanes[l].take_stats())
            .collect()
    }

    /// Every lane's [`Cache::state_fingerprint`], in construction order
    /// — the equivalence tests assert lanes leave *exactly* the state
    /// independent caches would.
    #[must_use]
    pub fn state_fingerprints(&self) -> Vec<u64> {
        self.order
            .iter()
            .map(|&(g, l)| self.groups[g].lanes[l].state_fingerprint())
            .collect()
    }
}

impl AccessSink for MultiLane {
    fn access_run(&mut self, addr: u64, words: u64) {
        for g in &mut self.groups {
            let mut a = addr;
            let mut remaining = words;
            while remaining > 0 {
                let w0 = (a & g.block_mask) >> WORD_SHIFT;
                let n = remaining.min(g.words_per_block - w0);
                for lane in &mut g.lanes {
                    lane.line_run(a, w0, n);
                }
                a += n * WORD_BYTES;
                remaining -= n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_match_independent_caches() {
        let configs = [
            CacheConfig::direct_mapped(512, 64),
            CacheConfig::direct_mapped(2048, 64),
            CacheConfig::direct_mapped(1024, 32),
        ];
        let mut lanes = MultiLane::new(configs);
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes.geometry_groups(), 2, "64 B and 32 B blocks");
        let mut solo: Vec<Cache> = configs.iter().map(|&c| Cache::new(c)).collect();
        let runs: Vec<(u64, u64)> = (0..500u64)
            .map(|i| ((i * 7919 % 512) * 4, i % 37 + 1))
            .collect();
        for &(a, n) in &runs {
            lanes.access_run(a, n);
            for c in &mut solo {
                c.access_run(a, n);
            }
        }
        let solo_stats: Vec<CacheStats> = solo.iter_mut().map(Cache::take_stats).collect();
        assert_eq!(lanes.stats(), solo_stats, "snapshot agrees");
        assert_eq!(lanes.take_stats(), solo_stats, "finalized agrees");
    }

    #[test]
    fn empty_lane_bank_is_fine() {
        let mut lanes = MultiLane::new([]);
        lanes.access_run(0, 128);
        assert!(lanes.is_empty());
        assert!(lanes.take_stats().is_empty());
    }
}
