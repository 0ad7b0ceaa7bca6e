//! Property-based tests over random programs and random access traces.

use impact::analyze::verify_placement;
use impact::cache::{AccessSink, Associativity, Cache, CacheConfig, FillPolicy};
use impact::ir::{BlockId, BranchBias, FuncId, Instr, Program, ProgramBuilder, Terminator};
use impact::layout::pipeline::{Pipeline, PipelineConfig};
use impact::layout::{baseline, TraceSelector};
use impact::profile::{ExecLimits, Image, Profiler};
use impact::trace::TraceGenerator;
use impact_support::check::forall;
use impact_support::Rng;

/// A terminator with indices to be resolved modulo the actual counts.
#[derive(Clone, Debug)]
enum TermPlan {
    Jump(usize),
    Branch(usize, usize, u8),
    Switch(Vec<(usize, u32)>),
    Call(usize, usize),
    Return,
    Exit,
}

fn gen_term(rng: &mut Rng) -> TermPlan {
    match rng.gen_below(6) {
        0 => TermPlan::Jump(rng.next_u64() as usize),
        1 => TermPlan::Branch(
            rng.next_u64() as usize,
            rng.next_u64() as usize,
            rng.gen_below(256) as u8,
        ),
        2 => {
            let arms = rng.gen_range_inclusive(1, 3);
            TermPlan::Switch(
                (0..arms)
                    .map(|_| (rng.next_u64() as usize, rng.gen_below(10) as u32))
                    .collect(),
            )
        }
        3 => TermPlan::Call(rng.next_u64() as usize, rng.next_u64() as usize),
        4 => TermPlan::Return,
        _ => TermPlan::Exit,
    }
}

/// Blocks per function: `(body_len, terminator plan)`.
type FuncPlan = Vec<(usize, TermPlan)>;

fn gen_program(rng: &mut Rng) -> Program {
    let nfuncs = rng.gen_range_inclusive(1, 4);
    let plans: Vec<FuncPlan> = (0..nfuncs)
        .map(|_| {
            let nblocks = rng.gen_range_inclusive(1, 7);
            (0..nblocks)
                .map(|_| (rng.gen_below(6) as usize, gen_term(rng)))
                .collect()
        })
        .collect();
    build_program(&plans)
}

fn build_program(plans: &[FuncPlan]) -> Program {
    let mut pb = ProgramBuilder::new();
    let ids: Vec<FuncId> = (0..plans.len())
        .map(|i| pb.reserve(format!("f{i}")))
        .collect();
    for (fi, plan) in plans.iter().enumerate() {
        let mut fb = pb.function_reserved(ids[fi]);
        let blocks: Vec<BlockId> = plan
            .iter()
            .map(|(body, _)| fb.block(vec![Instr::IntAlu; *body]))
            .collect();
        let n = blocks.len();
        for (bi, (_, term)) in plan.iter().enumerate() {
            let resolve = |x: usize| blocks[x % n];
            let t = match term {
                TermPlan::Jump(t) => Terminator::jump(resolve(*t)),
                TermPlan::Branch(a, b, p) => Terminator::branch(
                    resolve(*a),
                    resolve(*b),
                    BranchBias::fixed(f64::from(*p) / 255.0),
                ),
                TermPlan::Switch(targets) => {
                    let mut arms: Vec<(BlockId, u32)> =
                        targets.iter().map(|(t, w)| (resolve(*t), *w)).collect();
                    if arms.iter().all(|(_, w)| *w == 0) {
                        arms[0].1 = 1;
                    }
                    Terminator::Switch { targets: arms }
                }
                TermPlan::Call(f, r) => Terminator::call(ids[*f % ids.len()], resolve(*r)),
                TermPlan::Return => Terminator::Return,
                TermPlan::Exit => Terminator::Exit,
            };
            fb.terminate(blocks[bi], t);
        }
        fb.finish();
    }
    pb.set_entry(ids[0]);
    pb.finish().expect("plans always build valid programs")
}

fn tight_limits() -> ExecLimits {
    ExecLimits {
        max_instructions: 5_000,
        max_call_depth: 32,
    }
}

fn tiny_pipeline(inline: bool) -> Pipeline {
    Pipeline::new(PipelineConfig {
        inline: inline.then(Default::default),
        profile_runs: 2,
        profile_base_seed: 0,
        limits: tight_limits(),
        ..PipelineConfig::default()
    })
}

/// Any generated program validates and walks deterministically.
#[test]
fn walker_is_deterministic() {
    forall(
        48,
        |rng| (gen_program(rng), rng.gen_below(1000)),
        |(program, seed)| {
            program.validate().unwrap();
            let walk = |blocks: &mut Vec<usize>| {
                Image::new(program).walk(*seed, tight_limits(), |g, _| blocks.push(g))
            };
            let (mut a, mut b) = (Vec::new(), Vec::new());
            assert_eq!(walk(&mut a), walk(&mut b));
            assert_eq!(a, b);
        },
    );
}

/// The full pipeline yields a valid placement; without inlining it
/// preserves the program and its byte count exactly.
#[test]
fn pipeline_placement_is_always_valid() {
    forall(48, gen_program, |program| {
        let no_inline = tiny_pipeline(false).run(program);
        assert!(verify_placement(&no_inline.program, &no_inline.placement).is_clean());
        assert_eq!(no_inline.program.total_bytes(), program.total_bytes());

        let inlined = tiny_pipeline(true).run(program);
        assert!(verify_placement(&inlined.program, &inlined.placement).is_clean());
        assert!(inlined.program.total_bytes() >= program.total_bytes());
    });
}

/// Trace selection always partitions each function's blocks.
#[test]
fn traces_partition_blocks() {
    forall(48, gen_program, |program| {
        let profile = Profiler::new()
            .runs(2)
            .limits(tight_limits())
            .profile(program);
        let traces = TraceSelector::new().select_program(program, &profile);
        for (fid, func) in program.functions() {
            assert!(traces[fid.index()].is_partition_of(func));
        }
    });
}

/// Every fetched address falls inside the placed image, for both
/// baseline and optimized placements.
#[test]
fn traces_stay_in_bounds() {
    forall(
        48,
        |rng| (gen_program(rng), rng.gen_below(100)),
        |(program, seed)| {
            let result = tiny_pipeline(false).run(program);
            for placement in [baseline::natural(program), result.placement] {
                let generator =
                    TraceGenerator::new(program, &placement).with_limits(tight_limits());
                let mut ok = true;
                generator.run(*seed, |addr| {
                    ok &= addr % 4 == 0 && addr < placement.total_bytes();
                });
                assert!(ok);
            }
        },
    );
}

/// Random word-aligned access traces confined to a 16 KB image.
fn gen_trace(rng: &mut Rng) -> Vec<u64> {
    let len = rng.gen_range_inclusive(1, 1999);
    (0..len).map(|_| rng.gen_below(4096) * 4).collect()
}

fn run_cache(config: CacheConfig, trace: &[u64]) -> impact::cache::CacheStats {
    let mut cache = Cache::new(config);
    for &a in trace {
        cache.access(a);
    }
    cache.stats()
}

/// LRU inclusion: a larger fully-associative LRU cache never misses
/// more, on any trace.
#[test]
fn lru_stack_property() {
    forall(64, gen_trace, |trace| {
        let mut prev = u64::MAX;
        for size in [512u64, 1024, 2048, 4096] {
            let s = run_cache(CacheConfig::fully_associative(size, 64), trace);
            assert!(s.misses <= prev, "misses grew from {prev} at size {size}");
            prev = s.misses;
        }
    });
}

/// Partial loading and sectoring never generate more memory traffic
/// than whole-block fill, and never fewer misses.
#[test]
fn reduced_fills_bound_traffic() {
    forall(64, gen_trace, |trace| {
        let base = CacheConfig::direct_mapped(2048, 64);
        let full = run_cache(base, trace);
        for fill in [
            FillPolicy::Partial,
            FillPolicy::Sectored { sector_bytes: 8 },
        ] {
            let s = run_cache(base.with_fill(fill), trace);
            assert!(s.words_fetched <= full.words_fetched, "{fill:?}");
            assert!(s.misses >= full.misses, "{fill:?}");
            assert_eq!(s.accesses, full.accesses);
        }
    });
}

/// A 1-way set-associative cache is exactly a direct-mapped cache.
#[test]
fn one_way_equals_direct_mapped() {
    forall(64, gen_trace, |trace| {
        let direct = run_cache(CacheConfig::direct_mapped(1024, 32), trace);
        let one_way = run_cache(
            CacheConfig::direct_mapped(1024, 32).with_associativity(Associativity::Ways(1)),
            trace,
        );
        assert_eq!(direct, one_way);
    });
}

/// Basic sanity on every organization: misses never exceed accesses,
/// and full-block traffic is exactly misses x block words.
#[test]
fn stats_are_internally_consistent() {
    forall(
        64,
        |rng| {
            let trace = gen_trace(rng);
            let size = 1u64 << (9 + rng.gen_below(4));
            let block = 1u64 << (4 + rng.gen_below(4));
            let ways = match rng.gen_below(4) {
                0 => Associativity::Direct,
                1 => Associativity::Ways(2),
                2 => Associativity::Ways(4),
                _ => Associativity::Full,
            };
            (trace, size, block, ways)
        },
        |(trace, size, block, ways)| {
            if *block > *size {
                return;
            }
            let config = CacheConfig::direct_mapped(*size, *block).with_associativity(*ways);
            if config.validate().is_err() {
                return;
            }
            let s = run_cache(config, trace);
            assert!(s.misses <= s.accesses);
            assert_eq!(s.words_fetched, s.misses * (block / 4));
            assert!(s.miss_ratio() <= 1.0);
        },
    );
}

/// More associativity at equal geometry never hurts... is FALSE in
/// general (LRU vs direct-mapped anomalies exist); what must hold is
/// that the fully-associative cache is at least as good as the
/// best-case for *this* trace class when the working set fits.
#[test]
fn fully_associative_fits_working_set() {
    forall(
        64,
        |rng| rng.gen_below(64),
        |&start| {
            // A looping working set of exactly 16 blocks in a 16-block cache:
            // only cold misses, regardless of where the loop sits in memory.
            let mut cache = Cache::new(CacheConfig::fully_associative(1024, 64));
            for _ in 0..10 {
                for b in 0..16u64 {
                    cache.access((start + b) * 64);
                }
            }
            assert_eq!(cache.stats().misses, 16);
        },
    );
}
