//! Property tests pinning artifact replay to direct streaming.
//!
//! A [`RunBuffer`] records the exact `access_run` call sequence a
//! [`TraceGenerator`] walk produced; replaying it must therefore leave
//! every simulation sink in *exactly* the state a direct stream would —
//! identical [`CacheStats`] and identical internal cache state (tags,
//! valid bitmaps, recency stamps) — for every cache organization the
//! paper evaluates. Real workload CFGs (loops, calls, biased branches)
//! drive the walk, the capture tee is checked against the standalone
//! capture so both recording paths agree, and a replayed lane bank is
//! checked against the per-word reference model in
//! `crates/cache/tests/reference`.

use impact_cache::{Associativity, Cache, CacheConfig, CacheStats, FillPolicy, MultiLane};
use impact_profile::ExecLimits;
use impact_support::check;
use impact_support::rng::Rng;
use impact_trace::{CaptureSink, RunBuffer, TraceGenerator};

#[path = "../../cache/tests/reference/mod.rs"]
mod reference;
use reference::ReferenceCache;

const LIMITS: ExecLimits = ExecLimits::capped(30_000);

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

/// The size sweeps `MultiLane` runs as one-pass inclusion kernels:
/// direct-mapped and 2- and 4-way LRU from 128 B to 8 KB at 64 B blocks,
/// and Table 1's fully associative grid.
fn kernel_sweeps() -> Vec<CacheConfig> {
    let mut sweeps = Vec::new();
    for assoc in [
        Associativity::Direct,
        Associativity::Ways(2),
        Associativity::Ways(4),
    ] {
        let mut size = 128;
        while size <= 8192 {
            let config = CacheConfig::direct_mapped(size, 64).with_associativity(assoc);
            if config.validate().is_ok() {
                sweeps.push(config);
            }
            size *= 2;
        }
    }
    for size in [512, 1024, 2048, 4096] {
        for block in [16, 32, 64, 128] {
            sweeps.push(CacheConfig::fully_associative(size, block));
        }
    }
    sweeps
}

/// A random `(workload, input seed)` pair: varied CFG shapes × varied
/// dynamic paths.
fn gen_case(rng: &mut Rng) -> (impact_workloads::Workload, u64) {
    let all = impact_workloads::all();
    let w = all[rng.gen_below(all.len() as u64) as usize].clone();
    (w, rng.gen_below(u64::MAX))
}

#[test]
fn artifact_replay_is_bit_identical_to_direct_streaming() {
    let grid = config_grid();
    check::forall(24, gen_case, |(w, seed)| {
        let placement = impact_layout::baseline::natural(&w.program);
        let gen = TraceGenerator::new(&w.program, &placement).with_limits(LIMITS);
        let (buf, summary) = RunBuffer::capture(&gen, *seed);
        assert_eq!(buf.instructions(), summary.instructions);
        for &config in &grid {
            let mut direct = Cache::new(config);
            gen.stream(*seed, &mut direct);
            let mut replayed = Cache::new(config);
            buf.replay(&mut replayed);
            assert_eq!(
                replayed.state_fingerprint(),
                direct.state_fingerprint(),
                "cache state diverged for {config:?}"
            );
            assert_eq!(
                replayed.take_stats(),
                direct.take_stats(),
                "stats diverged for {config:?}"
            );
        }
    });
}

#[test]
fn capture_tee_agrees_with_standalone_capture_and_forwards_faithfully() {
    check::forall(24, gen_case, |(w, seed)| {
        let placement = impact_layout::baseline::natural(&w.program);
        let gen = TraceGenerator::new(&w.program, &placement).with_limits(LIMITS);

        let config = CacheConfig::direct_mapped(2048, 64);
        let mut teed = Cache::new(config);
        let mut buf = RunBuffer::new();
        gen.stream(*seed, &mut CaptureSink::new(&mut buf, &mut teed));

        let (standalone, _) = RunBuffer::capture(&gen, *seed);
        assert_eq!(buf, standalone, "tee and standalone capture diverged");

        let mut direct = Cache::new(config);
        gen.stream(*seed, &mut direct);
        assert_eq!(teed.state_fingerprint(), direct.state_fingerprint());
        assert_eq!(teed.take_stats(), direct.take_stats());
    });
}

#[test]
fn one_replay_drives_a_whole_lane_bank_exactly() {
    // The session's actual fast path: replay once into a MultiLane and
    // match the per-word reference model fed the interpreter's word
    // trace, config by config. The kernel sweeps ride along with the
    // grid's lanes, interleaved in one bank.
    let grid: Vec<CacheConfig> = config_grid().into_iter().chain(kernel_sweeps()).collect();
    check::forall(8, gen_case, |(w, seed)| {
        let placement = impact_layout::baseline::natural(&w.program);
        let gen = TraceGenerator::new(&w.program, &placement).with_limits(LIMITS);
        let (buf, _) = RunBuffer::capture(&gen, *seed);

        let mut lanes = MultiLane::new(grid.iter().copied());
        buf.replay(&mut lanes);

        let trace = gen.collect(*seed);
        let expected: Vec<CacheStats> = grid
            .iter()
            .map(|&config| {
                let mut oracle = ReferenceCache::new(config);
                for &addr in &trace {
                    oracle.access(addr);
                }
                oracle.stats()
            })
            .collect();
        assert_eq!(lanes.take_stats(), expected);
    });
}
