//! One-word vs. whole-run fetch-path throughput, plus artifact-replay
//! and cold-table delivery rates.
//!
//! Three sections, all written to `BENCH_cache.json` by a full run:
//!
//! 1. **scalar vs batched** — streams the grep benchmark's evaluation
//!    trace as sequential runs (exactly what `TraceGenerator::stream`
//!    emits), then drives each cache organization twice over the same
//!    runs. The "scalar" arm sends every word as a one-word run
//!    (`access`, which is `access_run(addr, 1)`); the "batched" arm
//!    sends each run whole through `access_run`. Both go through the
//!    same kernel, so the ratio is what run batching buys.
//! 2. **replay** — the same trace delivered to a five-config
//!    [`MultiLane`] sweep three ways: interpreted walk (the session's
//!    path), [`RunBuffer`] replay (perfbench's traced pass), and replay
//!    into one cache; plus replay into `serve_cold`'s six configs and
//!    Table 1's sixteen fully associative ones.
//! 3. **table6_cold** — the full Table 6 pipeline through a fresh
//!    storeless `SimSession`.
//!
//! Run with `--fast` (CI smoke) for a short trace, few repetitions and
//! no write to `BENCH_cache.json`. Either way the process exits non-zero
//! if the batched path is slower than scalar on the headline
//! direct-mapped organization, if artifact replay is slower than the
//! interpreted walk on the sweep, or if replay into the five-size sweep
//! runs at less than half the rate of replay into one cache — which
//! only a one-pass inclusion kernel achieves (five `Cache` lanes ran at
//! under a quarter).

use impact_cache::{
    smith, AccessSink, Associativity, Cache, CacheConfig, FillPolicy, MultiLane, WORD_BYTES,
};
use impact_experiments::prepare::{prepare_many_jobs, Budget};
use impact_experiments::runner;
use impact_experiments::session::SimSession;
use impact_layout::baseline;
use impact_profile::ExecLimits;
use impact_support::json::{Json, ToJson};
use impact_trace::{RunBuffer, TraceGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Collects the run stream `TraceGenerator::stream` emits.
struct RunCollector(Vec<(u64, u64)>);

impl AccessSink for RunCollector {
    fn access_run(&mut self, addr: u64, words: u64) {
        self.0.push((addr, words));
    }
}

/// The grep evaluation trace as (start, words) runs.
fn sample_runs(max_instructions: u64) -> (Vec<(u64, u64)>, u64) {
    let w = impact_workloads::by_name("grep").expect("grep exists");
    let placement = baseline::natural(&w.program);
    let gen = TraceGenerator::new(&w.program, &placement)
        .with_limits(ExecLimits::capped(max_instructions));
    let mut runs = RunCollector(Vec::new());
    let summary = gen.stream(w.eval_seed(), &mut runs);
    (runs.0, summary.instructions)
}

fn best_nanos(reps: u32, mut body: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        body();
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

struct Row {
    name: &'static str,
    scalar_ips: f64,
    batched_ips: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        if self.scalar_ips == 0.0 {
            0.0
        } else {
            self.batched_ips / self.scalar_ips
        }
    }
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("scalar_instrs_per_sec".into(), self.scalar_ips.to_json()),
            ("batched_instrs_per_sec".into(), self.batched_ips.to_json()),
            ("speedup".into(), self.speedup().to_json()),
        ])
    }
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let (instructions, reps) = if fast { (200_000, 3) } else { (2_000_000, 5) };
    let (runs, streamed) = sample_runs(instructions);
    eprintln!(
        "fetch bench: {streamed} instructions in {} runs ({} mode, best of {reps})",
        runs.len(),
        if fast { "fast" } else { "full" },
    );

    let configs: Vec<(&'static str, CacheConfig)> = vec![
        ("direct_2k_64", CacheConfig::direct_mapped(2048, 64)),
        (
            "assoc2_2k_64",
            CacheConfig::direct_mapped(2048, 64).with_associativity(Associativity::Ways(2)),
        ),
        (
            "full_2k_64",
            CacheConfig::direct_mapped(2048, 64).with_associativity(Associativity::Full),
        ),
        (
            "sectored_2k_64_8",
            CacheConfig::direct_mapped(2048, 64)
                .with_fill(FillPolicy::Sectored { sector_bytes: 8 }),
        ),
        (
            "partial_2k_64",
            CacheConfig::direct_mapped(2048, 64).with_fill(FillPolicy::Partial),
        ),
    ];

    let mut rows = Vec::new();
    for (name, config) in configs {
        let scalar_nanos = best_nanos(reps, || {
            let mut cache = Cache::new(config);
            for &(start, words) in &runs {
                for w in 0..words {
                    cache.access(start + w * WORD_BYTES);
                }
            }
            black_box(cache.take_stats());
        });
        let batched_nanos = best_nanos(reps, || {
            let mut cache = Cache::new(config);
            for &(start, words) in &runs {
                cache.access_run(start, words);
            }
            black_box(cache.take_stats());
        });
        let row = Row {
            name,
            scalar_ips: streamed as f64 * 1e9 / scalar_nanos as f64,
            batched_ips: streamed as f64 * 1e9 / batched_nanos as f64,
        };
        eprintln!(
            "  {name:18} scalar {:8.2}M/s  batched {:8.2}M/s  ({:.2}x)",
            row.scalar_ips / 1e6,
            row.batched_ips / 1e6,
            row.speedup(),
        );
        rows.push(row);
    }

    // Section 2: delivery-path rates for a five-size sweep at one block
    // geometry (the Table 6 shape) — interpreted walk vs artifact replay.
    let w = impact_workloads::by_name("grep").expect("grep exists");
    let placement = baseline::natural(&w.program);
    let gen =
        TraceGenerator::new(&w.program, &placement).with_limits(ExecLimits::capped(instructions));
    let seed = w.eval_seed();
    let sweep: Vec<CacheConfig> = [512u64, 1024, 2048, 4096, 8192]
        .iter()
        .map(|&s| CacheConfig::direct_mapped(s, 64))
        .collect();
    let (artifact, _) = RunBuffer::capture(&gen, seed);

    let interp_nanos = best_nanos(reps, || {
        let mut lanes = MultiLane::new(sweep.iter().copied());
        gen.stream(seed, &mut lanes);
        black_box(lanes.take_stats());
    });
    let replay_into = |configs: &[CacheConfig]| {
        best_nanos(reps, || {
            let mut lanes = MultiLane::new(configs.iter().copied());
            artifact.replay(&mut lanes);
            black_box(lanes.take_stats());
        })
    };
    let replay_nanos = replay_into(&sweep);
    let replay_one_nanos = best_nanos(reps, || {
        let mut cache = Cache::new(sweep[2]);
        artifact.replay(&mut cache);
        black_box(cache.take_stats());
    });
    // perfbench `serve_cold`'s configs: the sweep plus a 2 KB 2-way cache.
    let serve_cold: Vec<CacheConfig> = sweep
        .iter()
        .copied()
        .chain([sweep[2].with_associativity(Associativity::Ways(2))])
        .collect();
    let table1: Vec<CacheConfig> = smith::CACHE_SIZES
        .iter()
        .flat_map(|&s| {
            smith::BLOCK_SIZES
                .iter()
                .map(move |&b| CacheConfig::fully_associative(s, b))
        })
        .collect();
    let serve_cold_nanos = replay_into(&serve_cold);
    let table1_nanos = replay_into(&table1);

    let ips = |nanos: u64| streamed as f64 * 1e9 / nanos as f64;
    let replay_rows: Vec<(&str, f64)> = vec![
        ("interpreted_stream_sweep5", ips(interp_nanos)),
        ("artifact_replay_sweep5", ips(replay_nanos)),
        ("artifact_replay_direct_2k_64", ips(replay_one_nanos)),
        ("artifact_replay_serve_cold6", ips(serve_cold_nanos)),
        ("artifact_replay_table1_full16", ips(table1_nanos)),
    ];
    let replay_speedup = ips(replay_nanos) / ips(interp_nanos);
    for (name, rate) in &replay_rows {
        eprintln!("  {name:28} {:8.2}M instrs/s", rate / 1e6);
    }
    eprintln!(
        "  replay vs interpreted on the sweep: {replay_speedup:.2}x \
         (artifact: {} runs / {} KiB)",
        artifact.runs().len(),
        artifact.bytes() / 1024,
    );

    // Section 3: the whole Table 6 pipeline, cold, through a fresh
    // session. Rates come from the session's own walk-time accounting,
    // matching `repro --metrics`.
    let budget = if fast {
        Budget::fast()
    } else {
        Budget::default()
    };
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workloads = impact_workloads::all();
    let prepared = prepare_many_jobs(&workloads, &budget, jobs);
    let table6_cold = |session: &mut SimSession| {
        black_box(runner::run_tables(session, &prepared, &[6]));
        let m = session.metrics();
        (m.interpreted_instrs_per_sec(), m.instructions)
    };
    let mut cold = (0.0f64, 0u64);
    for _ in 0..reps {
        let run = table6_cold(&mut SimSession::new());
        if run.0 > cold.0 {
            cold = run;
        }
    }
    eprintln!(
        "  table6 cold: {:.2}M instrs/s ({} instrs)",
        cold.0 / 1e6,
        cold.1,
    );

    let json = Json::Obj(vec![
        ("bench".into(), "fetch".to_json()),
        ("mode".into(), if fast { "fast" } else { "full" }.to_json()),
        ("instructions".into(), streamed.to_json()),
        ("runs".into(), (runs.len() as u64).to_json()),
        ("results".into(), rows.to_json()),
        (
            "replay".into(),
            Json::Obj(vec![
                (
                    "results".into(),
                    Json::Arr(
                        replay_rows
                            .iter()
                            .map(|(name, rate)| {
                                Json::Obj(vec![
                                    ("name".to_string(), name.to_json()),
                                    ("instrs_per_sec".to_string(), rate.to_json()),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("replay_vs_interpreted".into(), replay_speedup.to_json()),
                (
                    "artifact_runs".into(),
                    (artifact.runs().len() as u64).to_json(),
                ),
                ("artifact_bytes".into(), (artifact.bytes() as u64).to_json()),
            ]),
        ),
        (
            "table6_cold".into(),
            Json::Obj(vec![
                ("instructions".into(), cold.1.to_json()),
                ("instrs_per_sec".into(), cold.0.to_json()),
                // Throughput recorded before this change on the original
                // hardware, for the speedup claim tracked in
                // EXPERIMENTS.md.
                (
                    "pre_artifact_reference_instrs_per_sec".into(),
                    32.0e6.to_json(),
                ),
                ("speedup_vs_reference".into(), (cold.0 / 32.0e6).to_json()),
            ]),
        ),
    ]);
    // Cargo runs benches with the package directory as cwd; anchor the
    // result file at the workspace root where it is committed. Only a
    // full run's figures belong there.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cache.json");
    if fast {
        eprintln!("--fast: left {out} as it is");
    } else {
        std::fs::write(out, json.to_string_pretty() + "\n").expect("write BENCH_cache.json");
        eprintln!("wrote {out}");
    }

    let headline = rows
        .iter()
        .find(|r| r.name == "direct_2k_64")
        .expect("headline config present");
    if headline.batched_ips < headline.scalar_ips {
        eprintln!(
            "FAIL: batched path slower than scalar on direct_2k_64 ({:.2}x)",
            headline.speedup()
        );
        std::process::exit(1);
    }
    if replay_speedup < 1.0 {
        eprintln!(
            "FAIL: artifact replay slower than the interpreted walk on the sweep \
             ({replay_speedup:.2}x)"
        );
        std::process::exit(1);
    }
    let sweep_vs_one = ips(replay_nanos) / ips(replay_one_nanos);
    if sweep_vs_one < 0.5 {
        eprintln!(
            "FAIL: replay into the five-size sweep runs at {sweep_vs_one:.2}x the \
             single-cache rate (< 0.5x): the sweep is not taking an inclusion kernel"
        );
        std::process::exit(1);
    }
}
