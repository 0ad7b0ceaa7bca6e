//! Property tests pinning [`MultiLane`] to the per-word reference model.
//!
//! A `MultiLane` runs qualifying configs as one-pass inclusion kernels
//! and every other config as its own `Cache`; either way, driving it
//! over a run stream must produce exactly the [`CacheStats`] an
//! independent [`ReferenceCache`] computes for each configuration, after
//! every prefix of the stream. The grids cover every (fill policy ×
//! associativity) combination, the size sweeps the kernels take (direct-mapped, 2- and 4-way LRU, Table 1's fully
//! associative grid) with non-qualifying configs interleaved so that
//! construction order is exercised, and mixed block geometries.

mod reference;

use impact_cache::{AccessSink, Associativity, CacheConfig, FillPolicy, MultiLane, WORD_BYTES};
use impact_support::check;
use impact_support::rng::Rng;
use reference::ReferenceCache;

/// Every (fill × associativity) combination at the paper's
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
    let mut grid = Vec::new();
    for fill in fills {
        for assoc in assocs {
            grid.push(
                CacheConfig::direct_mapped(1024, 64)
                    .with_associativity(assoc)
                    .with_fill(fill),
            );
        }
    }
    grid
}

/// Power-of-two cache sizes from `from` to 8 KB.
fn sizes(from: u64) -> impl Iterator<Item = u64> {
    (0..).map(move |i| from << i).take_while(|&s| s <= 8192)
}

/// Direct-mapped 128 B – 8 KB at 64 B blocks (2 – 128 sets).
fn direct_sweep() -> Vec<CacheConfig> {
    sizes(128)
        .map(|s| CacheConfig::direct_mapped(s, 64))
        .collect()
}

/// `ways`-way LRU caches from one set up to 8 KB at 64 B blocks.
fn lru_sweep(ways: u32) -> Vec<CacheConfig> {
    sizes(64 * u64::from(ways))
        .map(|s| CacheConfig::direct_mapped(s, 64).with_associativity(Associativity::Ways(ways)))
        .collect()
}

/// Table 1's grid: fully associative LRU, 512 B – 4 KB × 16 – 128 B blocks.
fn table1_grid() -> Vec<CacheConfig> {
    let mut grid = Vec::new();
    for size in [512, 1024, 2048, 4096] {
        for block in [16, 32, 64, 128] {
            grid.push(CacheConfig::fully_associative(size, block));
        }
    }
    grid
}

/// `kernel` configs with configs no kernel takes interleaved (at the
/// last config's geometry), plus a duplicate, in a shuffled order.
fn interleaved(kernel: Vec<CacheConfig>, rng: &mut Rng) -> Vec<CacheConfig> {
    let last = kernel[kernel.len() - 1];
    let others = [
        last.with_associativity(Associativity::Ways(2))
            .with_fill(FillPolicy::Sectored { sector_bytes: 8 }),
        last.with_associativity(Associativity::Ways(4))
            .with_fill(FillPolicy::Partial),
        last.with_fill(FillPolicy::Partial),
        last.with_fill(FillPolicy::Sectored { sector_bytes: 16 }),
    ];
    let mut all: Vec<CacheConfig> = kernel.iter().copied().chain(others).collect();
    all.push(kernel[kernel.len() / 2]);
    for i in (1..all.len()).rev() {
        all.swap(i, rng.gen_below(i as u64 + 1) as usize);
    }
    all
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

/// Runs whose lines are spaced by exactly `spacing` lines (a set count
/// of the group, so they collide there) and reach up to `reach` such
/// steps, plus zero-word runs and runs that continue at the previous
/// run's end.
fn gen_adversarial(
    rng: &mut Rng,
    block: u64,
    spacings: &[u64],
    reaches: &[u64],
) -> Vec<(u64, u64)> {
    let n_runs = rng.gen_range_inclusive(1, 96);
    let words_per_block = block / WORD_BYTES;
    let mut end = 0;
    (0..n_runs)
        .map(|_| {
            let start = if rng.gen_below(4) == 0 {
                end
            } else {
                let spacing = spacings[rng.gen_below(spacings.len() as u64) as usize];
                let reach = reaches[rng.gen_below(reaches.len() as u64) as usize];
                let line = rng.gen_below(3) + rng.gen_below(reach) * spacing;
                line * block + rng.gen_below(words_per_block) * WORD_BYTES
            };
            let words = rng.gen_below(2 * words_per_block + 1);
            end = start + words * WORD_BYTES;
            (start, words)
        })
        .collect()
}

/// Drives one `MultiLane` and one `ReferenceCache` per config over
/// `runs`, asserting equal statistics after every run and at the end.
fn assert_lanes_match_reference(configs: &[CacheConfig], runs: &[(u64, u64)]) {
    let mut lanes = MultiLane::new(configs.iter().copied());
    let mut oracles: Vec<ReferenceCache> =
        configs.iter().map(|&c| ReferenceCache::new(c)).collect();
    for &(start, words) in runs {
        lanes.access_run(start, words);
        for oracle in &mut oracles {
            oracle.access_run(start, words);
        }
        let expected: Vec<_> = oracles.iter().map(ReferenceCache::stats).collect();
        assert_eq!(
            lanes.stats(),
            expected,
            "diverged after run ({start:#x}, {words}) for {configs:?}"
        );
    }
    let expected: Vec<_> = oracles.iter().map(ReferenceCache::stats).collect();
    assert_eq!(lanes.take_stats(), expected, "finalized stats diverged");
}

#[test]
fn multi_lane_matches_reference_across_config_grid() {
    // The whole grid in ONE MultiLane: every organization rides the same
    // shared spans, and each must come out exactly as if it ran alone.
    let grid = config_grid();
    check::forall(64, gen_runs, |runs| {
        assert_lanes_match_reference(&grid, runs)
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
        CacheConfig::fully_associative(512, 16),
        CacheConfig::direct_mapped(512, 16),
    ];
    check::forall(64, gen_runs, |runs| {
        assert_lanes_match_reference(&configs, runs)
    });
}

/// Checks `sweep`, interleaved with non-kernel configs, on random and
/// adversarial streams.
fn check_sweep(sweep: &[CacheConfig], spacings: &[u64], reaches: &[u64]) {
    let block = sweep[0].block_bytes;
    check::forall(
        48,
        |rng| {
            let configs = interleaved(sweep.to_vec(), rng);
            let runs = if rng.gen_below(2) == 0 {
                gen_runs(rng)
            } else {
                gen_adversarial(rng, block, spacings, reaches)
            };
            (configs, runs)
        },
        |(configs, runs)| assert_lanes_match_reference(configs, runs),
    );
}

/// The set counts of a sweep, as line spacings.
fn set_counts(sweep: &[CacheConfig]) -> Vec<u64> {
    sweep.iter().map(CacheConfig::sets).collect()
}

#[test]
fn direct_mapped_sweep_matches_reference() {
    let sweep = direct_sweep();
    check_sweep(&sweep, &set_counts(&sweep), &[2, 3]);
}

#[test]
fn set_associative_lru_sweeps_match_reference() {
    for ways in [2, 4] {
        let sweep = lru_sweep(ways);
        let reach = u64::from(ways);
        check_sweep(&sweep, &set_counts(&sweep), &[reach + 1, 2 * reach + 1]);
    }
}

#[test]
fn table1_fully_associative_grid_matches_reference() {
    // Reuse distances around every capacity of the grid (4 – 256
    // blocks), at each block geometry.
    let grid = table1_grid();
    check::forall(
        24,
        |rng| {
            let configs = interleaved(grid.clone(), rng);
            let block = [16, 32, 64, 128][rng.gen_below(4) as usize];
            let runs = gen_adversarial(rng, block, &[1], &[5, 9, 17, 33, 65, 129, 257]);
            (configs, runs)
        },
        |(configs, runs)| assert_lanes_match_reference(configs, runs),
    );
}
