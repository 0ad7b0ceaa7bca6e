//! Stall-cycle timing model (§4.2.1's qualitative discussion, made
//! executable).
//!
//! The paper assumes an interleaved memory delivering one 4-byte word per
//! cycle after an initial access delay, with three latency-hiding
//! mechanisms:
//!
//! * **load forwarding** — the missed word is the first word delivered,
//! * **early continuation** — the processor resumes as soon as the missed
//!   word arrives,
//! * **streaming** — sequential fetches during block repair are served
//!   from the memory bus; a *taken branch* before the repair completes
//!   stalls the processor until the whole transfer finishes.
//!
//! This module wraps a [`Cache`] and accounts cycles under those rules so
//! the trade-off the paper describes (bigger blocks: lower miss ratio but
//! longer repairs) can be measured, not just asserted.

use crate::sim::{AccessSink, Cache};
use crate::stats::CacheStats;
use crate::WORD_BYTES;

/// Memory-system timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// Cycles from miss detection to the first word's arrival.
    pub initial_latency: u64,
    /// Deliver the missed word first (load forwarding). When `false` the
    /// transfer starts at the beginning of the fetched region and the
    /// processor waits for the missed word's turn.
    pub load_forwarding: bool,
    /// Serve sequential fetches from the bus during repair. When `false`
    /// every fetch into a block under repair stalls until the repair
    /// completes.
    pub streaming: bool,
}

impl Default for TimingConfig {
    /// The paper's assumed memory system: 4-cycle initial latency with
    /// load forwarding and streaming enabled.
    fn default() -> Self {
        Self {
            initial_latency: 4,
            load_forwarding: true,
            streaming: true,
        }
    }
}

/// A cache wrapped with cycle accounting.
#[derive(Debug, Clone)]
pub struct TimingModel {
    cache: Cache,
    config: TimingConfig,
    cycle: u64,
    /// Cycle at which the in-flight block repair completes (0 = none).
    fill_done: u64,
    prev_addr: Option<u64>,
}

impl TimingModel {
    /// Wraps `cache` with the given timing parameters.
    #[must_use]
    pub fn new(cache: Cache, config: TimingConfig) -> Self {
        Self {
            cache,
            config,
            cycle: 0,
            fill_done: 0,
            prev_addr: None,
        }
    }

    /// Total cycles elapsed.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// The wrapped cache's statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Average cycles per instruction fetch (1.0 = never stalled).
    #[must_use]
    pub fn cycles_per_access(&self) -> f64 {
        let accesses = self.cache.stats().accesses;
        if accesses == 0 {
            0.0
        } else {
            self.cycle as f64 / accesses as f64
        }
    }
}

impl TimingModel {
    /// Accounts one instruction fetch at `addr`.
    fn fetch(&mut self, addr: u64) {
        let sequential = self.prev_addr == Some(addr.wrapping_sub(WORD_BYTES));
        self.prev_addr = Some(addr);

        // A taken branch while a block is still being repaired stalls
        // until the transfer finishes. With streaming, sequential fetches
        // ride the bus; without it, they stall too.
        if self.cycle < self.fill_done && (!sequential || !self.config.streaming) {
            self.cycle = self.fill_done;
        }

        let misses = self.cache.raw_misses();
        let words = self.cache.raw_words_fetched();
        self.cache.access(addr);
        let missed = self.cache.raw_misses() > misses;
        let fetched = self.cache.raw_words_fetched() - words;

        // The fetch itself.
        self.cycle += 1;

        if missed {
            let word_in_block = (addr % self.cache.config().block_bytes) / WORD_BYTES;
            // Position of the missed word in the delivery order.
            let wait_words = if self.config.load_forwarding {
                1
            } else {
                // Transfer begins at the start of the fetched region; for
                // full-block fills that is the block start.
                match self.cache.config().fill {
                    crate::FillPolicy::FullBlock => word_in_block + 1,
                    crate::FillPolicy::Sectored { sector_bytes } => {
                        let wps = sector_bytes / WORD_BYTES;
                        (word_in_block % wps) + 1
                    }
                    crate::FillPolicy::Partial => 1,
                }
            };
            let stall = self.config.initial_latency + wait_words;
            self.cycle += stall;
            // The remaining words keep arriving while execution resumes.
            let remaining = fetched.saturating_sub(wait_words.min(fetched));
            self.fill_done = self.cycle + remaining;
        }
    }
}

impl AccessSink for TimingModel {
    fn access_run(&mut self, addr: u64, words: u64) {
        // Stalls depend on each fetch's position in the repair stream,
        // so cycles are accounted word by word.
        for i in 0..words {
            self.fetch(addr + i * WORD_BYTES);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{CacheConfig, FillPolicy};

    use super::*;

    fn model(streaming: bool, forwarding: bool) -> TimingModel {
        TimingModel::new(
            Cache::new(CacheConfig::direct_mapped(2048, 64)),
            TimingConfig {
                initial_latency: 4,
                load_forwarding: forwarding,
                streaming,
            },
        )
    }

    #[test]
    fn hits_cost_one_cycle() {
        let mut m = model(true, true);
        m.access(0); // miss
        let after_miss = m.cycles();
        m.access(4); // streamed sequential hit
        assert_eq!(m.cycles(), after_miss + 1);
    }

    #[test]
    fn miss_costs_latency_plus_first_word() {
        let mut m = model(true, true);
        m.access(0);
        // 1 (fetch) + 4 (latency) + 1 (first word).
        assert_eq!(m.cycles(), 6);
    }

    #[test]
    fn without_forwarding_mid_block_miss_waits_for_preceding_words() {
        let mut m = model(true, false);
        m.access(32); // word 8 of a 16-word block
                      // 1 + 4 + 9 (words 0..=8 delivered in order).
        assert_eq!(m.cycles(), 14);
    }

    #[test]
    fn taken_branch_during_repair_stalls() {
        let mut m = model(true, true);
        m.access(0); // miss: 15 words still streaming in
        let c = m.cycles();
        m.access(512); // taken branch into another (missing) block
                       // Stalled until fill_done (c + 15), then 1 + 4 + 1 for the new miss.
        assert_eq!(m.cycles(), c + 15 + 6);
    }

    #[test]
    fn streaming_lets_sequential_fetches_proceed() {
        let mut seq_model = model(true, true);
        let mut stall_model = model(false, true);
        for i in 0..16u64 {
            seq_model.access(i * 4);
            stall_model.access(i * 4);
        }
        assert!(
            seq_model.cycles() < stall_model.cycles(),
            "streaming {} !< stalling {}",
            seq_model.cycles(),
            stall_model.cycles()
        );
    }

    #[test]
    fn partial_fill_resumes_immediately() {
        let cache = Cache::new(CacheConfig::direct_mapped(2048, 64).with_fill(FillPolicy::Partial));
        let mut m = TimingModel::new(cache, TimingConfig::default());
        m.access(32); // partial: fetch starts at the missed word
        assert_eq!(m.cycles(), 6);
    }

    #[test]
    fn cycles_per_access_reflects_stalls() {
        let mut m = model(true, true);
        for i in 0..1000u64 {
            m.access((i % 64) * 4); // 256-byte loop: 4 cold misses
        }
        let cpa = m.cycles_per_access();
        assert!(cpa > 1.0 && cpa < 1.2, "cycles per access {cpa}");
    }
}
