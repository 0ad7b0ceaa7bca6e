//! Property tests pinning [`MultiLane`] to the per-word reference model
//! and to N independent passes.
//!
//! The shared span-decomposition loop is a pure performance change:
//! driving one `MultiLane` over a run stream must produce exactly the
//! [`CacheStats`] the independent [`ReferenceCache`] computes for each
//! configuration, *and* leave identical internal cache state (tags,
//! valid bitmaps, recency stamps) to driving every configuration
//! through its own [`Cache`] in a separate pass. The grid covers every
//! (fill policy × associativity × replacement) combination plus mixed
//! block geometries, so shared-span grouping is exercised both within
//! one geometry group and across several.

mod reference;

use impact_cache::{
    AccessSink, Associativity, Cache, CacheConfig, CacheStats, FillPolicy, MultiLane, Replacement,
    WORD_BYTES,
};
use impact_support::check;
use impact_support::rng::Rng;
use reference::ReferenceCache;

/// Every (fill × associativity × replacement) combination at the paper's
/// 1 KB / 64 B geometry.
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

/// A randomized stream of fetch runs over a footprint a few times the
/// cache size, so hits, misses, evictions and partial lines all occur.
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

/// Per-config reference statistics, plus the state N independent
/// single-config passes leave.
fn drive_independent(configs: &[CacheConfig], runs: &[(u64, u64)]) -> (Vec<CacheStats>, Vec<u64>) {
    let mut stats = Vec::new();
    let mut states = Vec::new();
    for &config in configs {
        let mut oracle = ReferenceCache::new(config);
        let mut cache = Cache::new(config);
        for &(start, words) in runs {
            oracle.access_run(start, words);
            cache.access_run(start, words);
        }
        stats.push(oracle.stats());
        states.push(cache.state_fingerprint());
    }
    (stats, states)
}

fn drive_lanes(configs: &[CacheConfig], runs: &[(u64, u64)]) -> (Vec<CacheStats>, Vec<u64>) {
    let mut lanes = MultiLane::new(configs.iter().copied());
    for &(start, words) in runs {
        lanes.access_run(start, words);
    }
    let stats = lanes.take_stats();
    (stats, lanes.state_fingerprints())
}

#[test]
fn multi_lane_matches_reference_across_config_grid() {
    // The whole grid in ONE MultiLane: every organization rides the same
    // shared spans, and each must come out exactly as if it ran alone.
    let grid = config_grid();
    check::forall(64, gen_runs, |runs| {
        let (solo_stats, solo_states) = drive_independent(&grid, runs);
        let (lane_stats, lane_states) = drive_lanes(&grid, runs);
        assert_eq!(solo_stats, lane_stats, "stats diverged");
        assert_eq!(solo_states, lane_states, "cache state diverged");
    });
}

#[test]
fn multi_lane_handles_mixed_block_geometries() {
    // Different block sizes get different span decompositions; result
    // order must still be construction order, interleaved across groups.
    let configs = [
        CacheConfig::direct_mapped(2048, 64),
        CacheConfig::direct_mapped(1024, 16),
        CacheConfig::direct_mapped(512, 64).with_associativity(Associativity::Ways(2)),
        CacheConfig::direct_mapped(1024, 128),
        CacheConfig::direct_mapped(2048, 16).with_fill(FillPolicy::Partial),
    ];
    check::forall(64, gen_runs, |runs| {
        let (solo_stats, solo_states) = drive_independent(&configs, runs);
        let (lane_stats, lane_states) = drive_lanes(&configs, runs);
        assert_eq!(solo_stats, lane_stats, "stats diverged");
        assert_eq!(solo_states, lane_states, "cache state diverged");
    });
}
