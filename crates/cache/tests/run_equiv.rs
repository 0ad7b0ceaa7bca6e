//! Property tests pinning every sink's `access_run` kernel to the
//! per-word definition.
//!
//! [`Cache`] is checked against the independent [`ReferenceCache`]: for
//! every (fill policy × associativity × replacement) combination the
//! paper evaluates, feeding a fetch stream as runs must produce exactly
//! the statistics the per-word model does. Both the direct-mapped fast
//! path and the general per-line path are exercised. Every sink is also
//! checked for split invariance: a stream sent one word per call must
//! leave the same observable state as the same stream sent as runs.

mod reference;

use impact_cache::{
    AccessSink, Associativity, Cache, CacheConfig, CacheStats, FillPolicy, FnSink, Replacement,
    WORD_BYTES,
};
use impact_support::check;
use impact_support::rng::Rng;
use reference::ReferenceCache;

/// Every (fill × associativity × replacement) combination at the paper's
/// 1 KB / 64 B geometry (16 sets direct-mapped, down to fully
/// associative).
fn config_grid() -> Vec<CacheConfig> {
    let fills = [
        FillPolicy::FullBlock,
        FillPolicy::Sectored { sector_bytes: 8 },
        FillPolicy::Sectored { sector_bytes: 32 },
        FillPolicy::Partial,
    ];
    let assocs = [
        Associativity::Direct,
        Associativity::Ways(2),
        Associativity::Ways(4),
        Associativity::Full,
    ];
    let repls = [Replacement::Lru, Replacement::Fifo, Replacement::Random];
    let mut grid = Vec::new();
    for fill in fills {
        for assoc in assocs {
            for repl in repls {
                grid.push(
                    CacheConfig::direct_mapped(1024, 64)
                        .with_associativity(assoc)
                        .with_fill(fill)
                        .with_replacement(repl),
                );
            }
        }
    }
    grid
}

/// A randomized stream of (start address, run length) fetch runs over a
/// footprint a few times the cache size, so hits, misses, evictions and
/// partial-line entries all occur.
fn gen_runs(rng: &mut Rng) -> Vec<(u64, u64)> {
    let n_runs = rng.gen_range_inclusive(1, 64);
    (0..n_runs)
        .map(|_| {
            let start = rng.gen_below(2048) * WORD_BYTES;
            let words = 1 + rng.gen_below(48);
            (start, words)
        })
        .collect()
}

/// Drives a cache with whole runs; returns final stats and state.
fn drive_runs(config: CacheConfig, runs: &[(u64, u64)]) -> (CacheStats, u64) {
    let mut cache = Cache::new(config);
    for &(start, words) in runs {
        cache.access_run(start, words);
    }
    (cache.take_stats(), cache.state_fingerprint())
}

#[test]
fn access_run_matches_reference_across_config_grid() {
    let grid = config_grid();
    check::forall(96, gen_runs, |runs| {
        for &config in &grid {
            let mut cache = Cache::new(config);
            let mut oracle = ReferenceCache::new(config);
            for &(start, words) in runs {
                cache.access_run(start, words);
                oracle.access_run(start, words);
                assert_eq!(
                    cache.stats(),
                    oracle.stats(),
                    "diverged from the reference after run ({start:#x}, {words}) for {config:?}"
                );
            }
        }
    });
}

#[test]
fn access_run_is_split_invariant() {
    // Splitting one run into arbitrary sub-runs must not change
    // anything: the kernel may only exploit contiguity, not run
    // boundaries.
    let grid = config_grid();
    check::forall(
        64,
        |rng| {
            let start = rng.gen_below(2048) * WORD_BYTES;
            let words = 1 + rng.gen_below(96);
            let mut splits = vec![0];
            let mut at = 0;
            while at < words {
                at = (at + 1 + rng.gen_below(24)).min(words);
                splits.push(at);
            }
            (start, words, splits)
        },
        |(start, words, splits)| {
            let pieces: Vec<(u64, u64)> = splits
                .windows(2)
                .map(|w| (*start + w[0] * WORD_BYTES, w[1] - w[0]))
                .collect();
            for &config in &grid {
                let whole = drive_runs(config, &[(*start, *words)]);
                assert_eq!(whole, drive_runs(config, &pieces), "{config:?}");
            }
        },
    );
}

#[test]
fn one_word_calls_leave_the_state_whole_runs_do() {
    // Across many runs (evictions, re-entries, partial lines), `access`
    // — a run of one — must leave exactly the cache state whole runs do.
    let grid = config_grid();
    check::forall(48, gen_runs, |runs| {
        for &config in &grid {
            let mut per_word = Cache::new(config);
            for &(start, words) in runs {
                for w in 0..words {
                    per_word.access(start + w * WORD_BYTES);
                }
            }
            let per_word = (per_word.take_stats(), per_word.state_fingerprint());
            assert_eq!(per_word, drive_runs(config, runs), "{config:?}");
        }
    });
}

/// Drives two copies of any sink — one word per call, one whole runs —
/// and hands both back for observable-state comparison.
fn drive_pair<S: AccessSink + Clone>(proto: &S, runs: &[(u64, u64)]) -> (S, S) {
    let mut per_word = proto.clone();
    let mut whole = proto.clone();
    for &(start, words) in runs {
        for w in 0..words {
            per_word.access(start + w * WORD_BYTES);
        }
        whole.access_run(start, words);
    }
    (per_word, whole)
}

#[test]
fn wrapper_sinks_are_split_invariant() {
    use impact_cache::paging::{PageConfig, PagingSim, WorkingSetTracker};
    use impact_cache::{MultiLane, NextLinePrefetcher, TimingConfig, TimingModel, VictimCache};

    check::forall(48, gen_runs, |runs| {
        let lanes = MultiLane::new([
            CacheConfig::direct_mapped(512, 32),
            CacheConfig::direct_mapped(2048, 64)
                .with_associativity(Associativity::Ways(2))
                .with_fill(FillPolicy::Sectored { sector_bytes: 16 }),
        ]);
        let (mut s, mut b) = drive_pair(&lanes, runs);
        assert_eq!(
            s.state_fingerprints(),
            b.state_fingerprints(),
            "MultiLane state"
        );
        assert_eq!(s.take_stats(), b.take_stats(), "MultiLane stats");

        let pf = NextLinePrefetcher::new(Cache::new(CacheConfig::direct_mapped(1024, 64)));
        let (s, b) = drive_pair(&pf, runs);
        assert_eq!(s.stats(), b.stats(), "prefetcher stats diverged");
        assert_eq!(s.prefetches(), b.prefetches(), "prefetch count diverged");
        assert_eq!(s.accuracy(), b.accuracy(), "prefetch accuracy diverged");

        let vc = VictimCache::new(CacheConfig::direct_mapped(1024, 64), 4);
        let (s, b) = drive_pair(&vc, runs);
        assert_eq!(s.stats(), b.stats(), "victim cache stats diverged");
        assert_eq!(s.victim_hits(), b.victim_hits(), "victim hits diverged");

        for fill in [FillPolicy::FullBlock, FillPolicy::Partial] {
            let timing = TimingModel::new(
                Cache::new(CacheConfig::direct_mapped(1024, 64).with_fill(fill)),
                TimingConfig {
                    load_forwarding: false,
                    ..TimingConfig::default()
                },
            );
            let (s, b) = drive_pair(&timing, runs);
            assert_eq!(s.cycles(), b.cycles(), "timing cycles ({fill:?})");
            assert_eq!(s.stats(), b.stats(), "timing stats ({fill:?})");
        }

        for sector_bytes in [None, Some(64)] {
            let paging = PagingSim::new(PageConfig {
                page_bytes: 512,
                resident_pages: 4,
                sector_bytes,
            });
            let (s, b) = drive_pair(&paging, runs);
            assert_eq!(s.stats(), b.stats(), "paging diverged ({sector_bytes:?})");
        }

        let ws = WorkingSetTracker::new(512, 100);
        let (s, b) = drive_pair(&ws, runs);
        assert_eq!(s.mean_pages(), b.mean_pages(), "working-set mean diverged");
        assert_eq!(s.peak_pages(), b.peak_pages(), "working-set peak diverged");

        // A closure sink sees the expanded word stream either way.
        let (mut per_word, mut whole) = (Vec::new(), Vec::new());
        let mut s = FnSink(|a| per_word.push(a));
        let mut b = FnSink(|a| whole.push(a));
        for &(start, words) in runs {
            for w in 0..words {
                s.access(start + w * WORD_BYTES);
            }
            b.access_run(start, words);
        }
        let expanded: Vec<u64> = runs
            .iter()
            .flat_map(|&(a, n)| (0..n).map(move |w| a + w * WORD_BYTES))
            .collect();
        assert_eq!(per_word, expanded, "FnSink per-word stream");
        assert_eq!(whole, expanded, "FnSink run stream");
    });
}

#[test]
fn access_is_a_run_of_one() {
    // A sink that implements only `access_run` sees `access(a)` as the
    // one-word run `(a, 1)`.
    struct Recorder(Vec<(u64, u64)>);
    impl AccessSink for Recorder {
        fn access_run(&mut self, addr: u64, words: u64) {
            self.0.push((addr, words));
        }
    }
    let mut sink = Recorder(Vec::new());
    sink.access_run(100, 3);
    sink.access(400);
    assert_eq!(sink.0, vec![(100, 3), (400, 1)]);
}
