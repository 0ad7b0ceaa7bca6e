//! Single-pass multi-configuration simulation: one access stream
//! driving plain cache lanes and one-pass inclusion kernels.
//!
//! A [`MultiLane`] runs each configuration in one of three ways:
//!
//! * **Set-refinement kernel.** Configs with whole-block fill, sharing
//!   a block size and an associativity, run as one group sorted by set
//!   count. Bit-selection indexing with power-of-two set counts makes
//!   every set of the larger cache a refinement of a set of the
//!   smaller, and under LRU a set holds the `w` most recently used
//!   blocks mapping to it, so each larger cache holds every block a
//!   smaller one holds (Hill and Smith, "Evaluating Associativity in CPU
//!   Caches", IEEE Trans. Computers 38(12), 1989). The kernel probes
//!   from the smallest cache up and stops at the first hit; each cache
//!   before it misses and installs the block. A set is an MRU-ordered
//!   array of line addresses, and with more than one way a hit also
//!   refreshes the line in the larger caches until one already holds it
//!   most recently used.
//! * **Stack kernel.** Fully associative configs with whole-block fill
//!   and one block size run as one LRU move-to-front stack, bounded by
//!   the largest capacity: a line's depth `d` in the stack is its
//!   reuse distance, and every cache of capacity `≤ d` blocks misses
//!   (Mattson, Gecsei, Slutz and Traiger, "Evaluation techniques for
//!   storage hierarchies", IBM Systems Journal 1970). A bounded list
//!   measured 3.5× faster than a Fenwick tree over last-use times on
//!   Table 1's capacities, where most reuse is shallow.
//! * **Cache lane.** Every config with partial or sectored fill is its
//!   own [`Cache`].
//!
//! Both kernels report only `m`, how many of their caches missed on a
//! line span, and under inclusion those are always the `m` smallest: a
//! miss in one implies a miss in every smaller one. So a kernel keeps
//! one accumulator that still yields exact per-config [`CacheStats`]:
//! accesses are shared, a cache misses on every span whose `m` exceeds
//! its rank, fetches a whole block per miss, and opens an execution run
//! at each miss. The caches with an open run always form a prefix of
//! the group (every run closes at a non-sequential fetch, and misses
//! open runs in a prefix), so each span adds its words to the one
//! counter for the current prefix length. Every result is
//! property-tested against the per-word reference model in
//! `tests/lanes_equiv.rs`.
//!
//! With a captured
//! [`RunBuffer`](../../impact_trace/artifact/struct.RunBuffer.html)
//! artifact, evaluating a whole geometry sweep costs one walk over the
//! runs and, for a qualifying sweep, one inclusion probe per line span
//! instead of one per config.

use crate::config::{Associativity, FillPolicy};
use crate::sim::{AccessSink, Cache, WORD_SHIFT};
use crate::stats::CacheStats;
use crate::{CacheConfig, WORD_BYTES};

/// An empty slot in a kernel's line arrays (line addresses are
/// `addr >> block_shift`, so never all ones).
const EMPTY: u64 = u64::MAX;

/// Where a construction-order config reads its statistics from.
#[derive(Debug, Clone, Copy)]
enum Lane {
    /// `caches[i]`.
    Cache(usize),
    /// The cache of `size` (sets or blocks) in `kernels[kernel]`.
    Kernel { kernel: usize, size: usize },
}

/// Which inclusion kernel a config can join, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelKind {
    /// Set-refinement group of this many ways per set.
    Refine(usize),
    /// Fully associative LRU stack.
    Stack,
}

impl KernelKind {
    /// The kernel `config` qualifies for: any with whole-block fill.
    fn of(config: &CacheConfig) -> Option<Self> {
        if config.fill != FillPolicy::FullBlock {
            return None;
        }
        Some(match config.associativity {
            Associativity::Full => KernelKind::Stack,
            Associativity::Direct | Associativity::Ways(_) => {
                KernelKind::Refine(config.ways() as usize)
            }
        })
    }

    /// A config's size within its kernel: sets for a refinement group,
    /// blocks for a stack.
    fn size(self, config: &CacheConfig) -> usize {
        match self {
            KernelKind::Refine(_) => config.sets() as usize,
            KernelKind::Stack => (config.size_bytes / config.block_bytes) as usize,
        }
    }
}

/// One inclusion group: the caches of one [`KernelKind`] at one block
/// geometry, sorted by size, plus the shared miss-prefix accumulator.
#[derive(Debug, Clone)]
struct Kernel {
    kind: KernelKind,
    /// `log2(block_bytes)`.
    block_shift: u32,
    /// `block_bytes - 1` (configs validate block sizes as powers of two).
    block_mask: u64,
    /// Words per block.
    words_per_block: u64,
    /// Distinct sizes (sets or blocks), ascending; the rank of a size is
    /// its cache's index in `sets` and in the tally.
    sizes: Vec<usize>,
    /// Line addresses: for a refinement group, each cache's sets back
    /// to back, each set `ways` slots in MRU order; for a stack, the
    /// move-to-front list, MRU first, at most the largest size long.
    lines: Vec<u64>,
    /// Per cache of a refinement group: where its sets start in `lines`
    /// and its set-index mask.
    sets: Vec<(usize, usize)>,
    tally: MissTally,
}

impl Kernel {
    fn new(kind: KernelKind, block_bytes: u64) -> Self {
        Self {
            kind,
            block_shift: block_bytes.trailing_zeros(),
            block_mask: block_bytes - 1,
            words_per_block: block_bytes / WORD_BYTES,
            sizes: Vec::new(),
            lines: Vec::new(),
            sets: Vec::new(),
            tally: MissTally::default(),
        }
    }

    /// Adds a cache of `size`, unless one of that size is here already
    /// (configs that differ only in a moot policy share it).
    fn add(&mut self, size: usize) {
        if let Err(i) = self.sizes.binary_search(&size) {
            self.sizes.insert(i, size);
        }
    }

    /// Allocates the line arrays once every size is known.
    fn seal(&mut self) {
        self.tally.resize(self.sizes.len());
        if let KernelKind::Refine(ways) = self.kind {
            let mut base = 0;
            self.sets = self
                .sizes
                .iter()
                .map(|&sets| {
                    let b = base;
                    base += sets * ways;
                    (b, sets - 1)
                })
                .collect();
            self.lines = vec![EMPTY; base];
        }
    }

    /// The rank of the cache of `size`.
    fn rank(&self, size: usize) -> usize {
        self.sizes
            .binary_search(&size)
            .expect("sizes are added before ranks are read")
    }

    /// One run of `words` fetches from `addr`; `sequential` says whether
    /// it continues the previous word fetched.
    #[inline]
    fn run(&mut self, addr: u64, words: u64, sequential: bool) {
        match self.kind {
            // A constant lets the compiler specialise the direct-mapped
            // probe (one slot per set, no shifting).
            KernelKind::Refine(1) => {
                self.spans(addr, words, sequential, |k, line| k.probe_sets(line, 1))
            }
            KernelKind::Refine(ways) => {
                self.spans(addr, words, sequential, |k, line| k.probe_sets(line, ways));
            }
            KernelKind::Stack => self.spans(addr, words, sequential, Self::probe_stack),
        }
    }

    /// Splits a run into line spans and tallies each span's miss prefix,
    /// as `probe` reports it for the span's line.
    #[inline(always)]
    fn spans(
        &mut self,
        addr: u64,
        words: u64,
        mut sequential: bool,
        mut probe: impl FnMut(&mut Self, u64) -> usize,
    ) {
        let mut a = addr;
        let mut remaining = words;
        while remaining > 0 {
            let w0 = (a & self.block_mask) >> WORD_SHIFT;
            let n = remaining.min(self.words_per_block - w0);
            let m = probe(self, a >> self.block_shift);
            self.tally.span(n, m, sequential);
            sequential = true;
            a += n * WORD_BYTES;
            remaining -= n;
        }
    }

    /// Set refinement: smallest cache first, stop at the first hit; every
    /// cache before it misses and takes the line. A hit that is not
    /// already most recently used in its set must also refresh the line
    /// in the larger caches, which hold it by inclusion; a cache holding
    /// it MRU means every larger one does.
    fn probe_sets(&mut self, line: u64, ways: usize) -> usize {
        let mut caches = self.sets.iter().enumerate();
        for (rank, &(base, mask)) in caches.by_ref() {
            let at = base + (line as usize & mask) * ways;
            let set = &mut self.lines[at..at + ways];
            match set.iter().position(|&t| t == line) {
                Some(0) => return rank,
                Some(p) => {
                    to_front(set, p, line);
                    for (_, &(base, mask)) in caches {
                        let at = base + (line as usize & mask) * ways;
                        let set = &mut self.lines[at..at + ways];
                        let p = set
                            .iter()
                            .position(|&t| t == line)
                            .expect("a larger LRU cache holds every line a smaller one does");
                        if p == 0 {
                            break;
                        }
                        to_front(set, p, line);
                    }
                    return rank;
                }
                // Evict the LRU way (or an empty one: they sink to the end).
                None => to_front(set, ways - 1, line),
            }
        }
        self.sets.len()
    }

    /// Fully associative LRU: the line's depth in the move-to-front
    /// stack is its reuse distance, and every cache of at most that many
    /// blocks misses.
    fn probe_stack(&mut self, line: u64) -> usize {
        let stack = &mut self.lines;
        match stack.iter().position(|&t| t == line) {
            Some(0) => 0,
            Some(depth) => {
                stack[..=depth].rotate_right(1);
                self.sizes.partition_point(|&blocks| blocks <= depth)
            }
            None => {
                let cap = *self.sizes.last().expect("a kernel has a cache");
                if stack.len() < cap {
                    stack.push(line);
                } else {
                    *stack.last_mut().expect("capacity is at least one block") = line;
                }
                stack.rotate_right(1);
                self.sizes.len()
            }
        }
    }
}

/// Puts `line` at the front of an MRU-ordered set, shifting the `p`
/// lines before slot `p` back one and overwriting slot `p`.
#[inline]
fn to_front(set: &mut [u64], p: usize, line: u64) {
    for i in (1..=p).rev() {
        set[i] = set[i - 1];
    }
    set[0] = line;
}

/// Exact [`CacheStats`] for every cache of an inclusion group, from the
/// miss prefix `m` of each span.
#[derive(Debug, Clone, Default)]
struct MissTally {
    /// `misses_at[m]`: spans on which exactly the `m` smallest caches
    /// missed.
    misses_at: Vec<u64>,
    /// `words_at[k]`: words fetched while exactly the `k` smallest
    /// caches had an open execution run.
    words_at: Vec<u64>,
    /// How many of the smallest caches have an open execution run.
    open: usize,
}

impl MissTally {
    fn resize(&mut self, caches: usize) {
        self.misses_at = vec![0; caches + 1];
        self.words_at = vec![0; caches + 1];
    }

    /// Counts a span of `n` words on which the `m` smallest caches
    /// missed. A non-sequential entry closes every open run, and a miss
    /// (re)opens the missing caches' runs.
    #[inline]
    fn span(&mut self, n: u64, m: usize, sequential: bool) {
        if !sequential {
            self.open = 0;
        }
        self.open = self.open.max(m);
        self.misses_at[m] += 1;
        self.words_at[self.open] += n;
    }

    /// Statistics of the cache of `rank` after `accesses` fetches of
    /// `words_per_block`-word blocks, counting an open run as finished
    /// (as [`Cache::stats`] does). Every miss opens exactly one run, so
    /// runs equal misses.
    fn stats(&self, rank: usize, accesses: u64, words_per_block: u64) -> CacheStats {
        let misses: u64 = self.misses_at[rank + 1..].iter().sum();
        CacheStats {
            accesses,
            misses,
            words_fetched: misses * words_per_block,
            exec_runs: misses,
            exec_run_instrs: self.words_at[rank + 1..].iter().sum(),
        }
    }
}

/// A bank of caches fed by a single access stream: regenerating a
/// multi-million-instruction trace for every configuration of a sweep
/// is wasteful, so a `MultiLane` simulates the whole sweep in one pass,
/// running qualifying configs as one-pass inclusion kernels (see the
/// module docs).
///
/// # Example
///
/// ```
/// use impact_cache::{AccessSink, CacheConfig, MultiLane};
///
/// // A whole size sweep at one block geometry: one probe chain per line.
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
    /// The configs no kernel takes.
    caches: Vec<Cache>,
    /// One per (block size, kernel kind) among the configs.
    kernels: Vec<Kernel>,
    /// Per construction-order config, so statistics come back in the
    /// order the configs went in.
    order: Vec<Lane>,
    /// Words fetched so far: every config's accesses.
    accesses: u64,
    /// Address of the last word fetched, to tell a run that continues
    /// the previous one.
    prev: Option<u64>,
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
        let mut caches = Vec::new();
        let mut kernels: Vec<Kernel> = Vec::new();
        let mut order = Vec::new();
        for config in configs {
            let Some(kind) = KernelKind::of(&config) else {
                caches.push(Cache::new(config)); // validates
                order.push(Lane::Cache(caches.len() - 1));
                continue;
            };
            config
                .validate()
                .unwrap_or_else(|e| panic!("invalid cache config: {e}"));
            let block_mask = config.block_bytes - 1;
            let kernel = match kernels
                .iter()
                .position(|k| k.kind == kind && k.block_mask == block_mask)
            {
                Some(i) => i,
                None => {
                    kernels.push(Kernel::new(kind, config.block_bytes));
                    kernels.len() - 1
                }
            };
            let size = kind.size(&config);
            kernels[kernel].add(size);
            order.push(Lane::Kernel { kernel, size });
        }
        for k in &mut kernels {
            k.seal();
        }
        Self {
            caches,
            kernels,
            order,
            accesses: 0,
            prev: None,
        }
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

    /// Statistics of every lane, in construction order (snapshot).
    #[must_use]
    pub fn stats(&self) -> Vec<CacheStats> {
        self.order
            .iter()
            .map(|&lane| match lane {
                Lane::Cache(i) => self.caches[i].stats(),
                Lane::Kernel { kernel, size } => {
                    let k = &self.kernels[kernel];
                    k.tally
                        .stats(k.rank(size), self.accesses, k.words_per_block)
                }
            })
            .collect()
    }

    /// Finalizes and returns every lane's statistics in construction
    /// order; see [`Cache::take_stats`].
    pub fn take_stats(&mut self) -> Vec<CacheStats> {
        let stats = self.stats();
        for cache in &mut self.caches {
            cache.take_stats();
        }
        // The open runs were just counted as finished.
        for k in &mut self.kernels {
            k.tally.open = 0;
        }
        stats
    }
}

impl AccessSink for MultiLane {
    fn access_run(&mut self, addr: u64, words: u64) {
        if words == 0 {
            return;
        }
        for cache in &mut self.caches {
            cache.access_run(addr, words);
        }
        let sequential = self.prev == Some(addr.wrapping_sub(WORD_BYTES));
        self.prev = Some(addr + (words - 1) * WORD_BYTES);
        self.accesses += words;
        for k in &mut self.kernels {
            k.run(addr, words, sequential);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a lane bank and one independent cache per config over the
    /// same runs, checking stats after every run.
    fn assert_matches_independent(configs: &[CacheConfig], runs: &[(u64, u64)]) {
        let mut lanes = MultiLane::new(configs.iter().copied());
        let mut solo: Vec<Cache> = configs.iter().map(|&c| Cache::new(c)).collect();
        for &(a, n) in runs {
            lanes.access_run(a, n);
            for c in &mut solo {
                c.access_run(a, n);
            }
            let solo_stats: Vec<CacheStats> = solo.iter().map(Cache::stats).collect();
            assert_eq!(lanes.stats(), solo_stats, "after run ({a:#x}, {n})");
        }
        let solo_stats: Vec<CacheStats> = solo.iter_mut().map(Cache::take_stats).collect();
        assert_eq!(lanes.take_stats(), solo_stats, "finalized agrees");
    }

    #[test]
    fn lanes_match_independent_caches() {
        let configs = [
            CacheConfig::direct_mapped(512, 64),
            CacheConfig::direct_mapped(2048, 64),
            CacheConfig::direct_mapped(1024, 32),
            CacheConfig::direct_mapped(1024, 64).with_fill(FillPolicy::Partial),
            CacheConfig::fully_associative(256, 32),
            CacheConfig::fully_associative(1024, 32),
        ];
        let runs: Vec<(u64, u64)> = (0..500u64)
            .map(|i| ((i * 7919 % 512) * 4, i % 37 + 1))
            .collect();
        assert_matches_independent(&configs, &runs);
    }

    #[test]
    fn kernels_take_only_qualifying_configs() {
        let two_way =
            CacheConfig::direct_mapped(1024, 64).with_associativity(Associativity::Ways(2));
        let lanes = MultiLane::new([
            CacheConfig::direct_mapped(512, 64),
            CacheConfig::direct_mapped(512, 64),
            two_way,
            two_way.with_fill(FillPolicy::Sectored { sector_bytes: 16 }),
            CacheConfig::fully_associative(512, 64),
            CacheConfig::direct_mapped(512, 64).with_fill(FillPolicy::Partial),
        ]);
        let kinds: Vec<KernelKind> = lanes.kernels.iter().map(|k| k.kind).collect();
        assert_eq!(
            kinds,
            [
                KernelKind::Refine(1),
                KernelKind::Refine(2),
                KernelKind::Stack
            ]
        );
        assert_eq!(
            lanes.kernels[0].sizes,
            [8],
            "a repeated config shares a cache"
        );
        assert_eq!(
            lanes.caches.len(),
            2,
            "sectored and partial fills stay lanes"
        );
    }

    #[test]
    fn a_two_way_hit_refreshes_the_larger_caches() {
        // 64 B blocks, 2 ways: one set at 128 B, two at 256 B. Lines A=0,
        // B=2, C=4 share set 0 of both; D=1 goes to set 1 of the larger.
        // Touching A again hits the small cache with A not MRU, so the
        // larger cache must see A refreshed too, or C would evict A
        // there instead of B, and the final B would wrongly hit.
        let configs = [128, 256]
            .map(|s| CacheConfig::direct_mapped(s, 64).with_associativity(Associativity::Ways(2)));
        let runs = [0, 2, 0, 4, 1, 2].map(|line| (line * 64, 1));
        assert_matches_independent(&configs, &runs);
    }

    #[test]
    fn empty_lane_bank_is_fine() {
        let mut lanes = MultiLane::new([]);
        lanes.access_run(0, 128);
        assert!(lanes.is_empty());
        assert!(lanes.take_stats().is_empty());
    }
}
