//! A per-word reference instruction cache: the definition every sink
//! kernel in `src/` is checked against.
//!
//! It models a cache as plainly as possible — a vector of sets, each a
//! vector of ways holding a tag, a valid bitmap and a stamp — and
//! handles one fetch at a time. It shares no code with the simulator:
//! geometry, victim choice, the three fills and the execution-run
//! counter are all written out again here, so a bug in a fast path
//! cannot hide behind the same bug in its oracle.
//!
//! Test crates include it with `mod reference;` (or `#[path]` from
//! another crate's tests).

#![allow(dead_code)]

use impact_cache::{Associativity, CacheConfig, CacheStats, FillPolicy, WORD_BYTES};

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: Option<u64>,
    /// Bit `i` set ⇒ word `i` of the block is present.
    valid: u64,
    /// Last-touch stamp.
    stamp: u64,
}

/// A per-word model of one [`CacheConfig`].
#[derive(Debug, Clone)]
pub struct ReferenceCache {
    config: CacheConfig,
    sets: Vec<Vec<Way>>,
    /// Demand accesses so far; the stamp of the current access.
    clock: u64,
    stats: CacheStats,
    prev_addr: Option<u64>,
    /// Length of the open execution run, if a miss started one.
    open_run: Option<u64>,
}

impl ReferenceCache {
    pub fn new(config: CacheConfig) -> Self {
        let blocks = config.size_bytes / config.block_bytes;
        let ways = match config.associativity {
            Associativity::Direct => 1,
            Associativity::Ways(n) => u64::from(n),
            Associativity::Full => blocks,
        };
        let empty = Way {
            tag: None,
            valid: 0,
            stamp: 0,
        };
        Self {
            config,
            sets: vec![vec![empty; ways as usize]; (blocks / ways) as usize],
            clock: 0,
            stats: CacheStats::default(),
            prev_addr: None,
            open_run: None,
        }
    }

    /// One demand fetch of the word at `addr`.
    pub fn access(&mut self, addr: u64) {
        self.clock += 1;
        self.stats.accesses += 1;
        let block = addr / self.config.block_bytes;
        let set_count = self.sets.len() as u64;
        let set = &mut self.sets[(block % set_count) as usize];
        let tag = block / set_count;
        let word = (addr % self.config.block_bytes) / WORD_BYTES;
        let words_per_block = self.config.block_bytes / WORD_BYTES;

        let way = match set.iter().position(|w| w.tag == Some(tag)) {
            Some(i) => {
                set[i].stamp = self.clock;
                i
            }
            None => {
                let i = pick_victim(set);
                set[i] = Way {
                    tag: Some(tag),
                    valid: 0,
                    stamp: self.clock,
                };
                i
            }
        };
        let way = &mut set[way];
        let missed = way.valid & (1 << word) == 0;
        if missed {
            let fetch: Vec<u64> = match self.config.fill {
                FillPolicy::FullBlock => (0..words_per_block).collect(),
                FillPolicy::Sectored { sector_bytes } => {
                    let per_sector = sector_bytes / WORD_BYTES;
                    let first = word / per_sector * per_sector;
                    (first..first + per_sector).collect()
                }
                FillPolicy::Partial => (word..words_per_block)
                    .take_while(|&w| way.valid & (1 << w) == 0)
                    .collect(),
            };
            for &w in &fetch {
                way.valid |= 1 << w;
            }
            self.stats.misses += 1;
            self.stats.words_fetched += fetch.len() as u64;
        }
        self.count_exec_run(addr, missed);
    }

    /// `words` sequential fetches from `addr`, one word at a time.
    pub fn access_run(&mut self, addr: u64, words: u64) {
        for i in 0..words {
            self.access(addr + i * WORD_BYTES);
        }
    }

    /// Statistics, counting a still-open execution run as finished.
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.stats;
        if let Some(len) = self.open_run {
            stats.exec_runs += 1;
            stats.exec_run_instrs += len;
        }
        stats
    }

    /// A run starts at each miss and ends at the next miss or the first
    /// non-sequential fetch.
    fn count_exec_run(&mut self, addr: u64, missed: bool) {
        let sequential = self.prev_addr.is_some_and(|p| p + WORD_BYTES == addr);
        self.prev_addr = Some(addr);
        if let Some(len) = self.open_run {
            if missed || !sequential {
                self.stats.exec_runs += 1;
                self.stats.exec_run_instrs += len;
                self.open_run = None;
            }
        }
        if missed {
            self.open_run = Some(1);
        } else if let Some(len) = &mut self.open_run {
            *len += 1;
        }
    }
}

/// The way a block miss replaces: the first empty way if there is one,
/// else the least recently used.
fn pick_victim(set: &[Way]) -> usize {
    if let Some(i) = set.iter().position(|w| w.tag.is_none()) {
        return i;
    }
    (0..set.len())
        .min_by_key(|&i| set[i].stamp)
        .expect("sets are non-empty")
}
