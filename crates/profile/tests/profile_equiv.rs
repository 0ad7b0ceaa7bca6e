//! Property tests pinning the flat image walk, the profiler, the family
//! profiler and the trace generator to the sparse reference definition.
//!
//! [`Image::walk`] steps through one array of blocks with integer branch
//! thresholds set per seed; [`Profiler::profile`] counts its walks into
//! flat arrays and builds its [`Profile`] once at the end;
//! [`Profiler::profile_family`] walks a code-scaled family's shared shape
//! once per seed and cuts each member at its own instruction cap;
//! [`TraceGenerator::stream`] coalesces the walk's blocks into fetch runs.
//! All must agree exactly with the [`reference`] module, which looks
//! every block up by id, recomputes every branch probability, and counts
//! through the profile's maps, on:
//! - the ten workloads, their code-scaled variants and the extended set;
//! - `check::forall`-generated synthetic specs;
//! - random CFGs whose `Switch` and `Branch` targets repeat;
//! - walks cut short by `max_instructions` and by `max_call_depth`;
//! - families whose members differ in more than block sizes, which must
//!   be walked one program at a time;
//! - at full budget (ignored by default; CI runs it in release), every
//!   benchmark's Step 1 profile and its table 9 family.

mod reference;

use impact_cache::AccessSink;
use impact_ir::{
    BlockId, BranchBias, FuncId, Instr, Program, ProgramBuilder, Terminator, BYTES_PER_INSTR,
};
use impact_layout::baseline;
use impact_layout::scale::scale_code;
use impact_profile::{ExecLimits, Image, Profile, Profiler};
use impact_support::check::forall;
use impact_support::Rng;
use impact_trace::TraceGenerator;
use impact_workloads::SyntheticSpec;

use reference::{ExecVisitor, Transfer};

/// Profiles `program` both ways, requires equal profiles and returns it.
fn assert_matches_reference(
    program: &Program,
    runs: u32,
    base_seed: u64,
    limits: ExecLimits,
) -> Profile {
    let dense = Profiler::new()
        .runs(runs)
        .base_seed(base_seed)
        .limits(limits)
        .profile(program);
    let sparse = reference::profile(program, runs, base_seed, limits);
    assert_eq!(
        dense, sparse,
        "runs {runs}, base seed {base_seed}, {limits:?}"
    );
    dense
}

/// Profiles `family` with one shared walk per seed and requires each
/// member's profile to equal the reference profile of that member.
fn assert_family_matches_reference(
    family: &[Program],
    runs: u32,
    base_seed: u64,
    limits: ExecLimits,
) -> Vec<Profile> {
    let members: Vec<&Program> = family.iter().collect();
    let profiles = Profiler::new()
        .runs(runs)
        .base_seed(base_seed)
        .limits(limits)
        .profile_family(&members);
    assert_eq!(profiles.len(), family.len());
    for (i, (program, profile)) in family.iter().zip(&profiles).enumerate() {
        let sparse = reference::profile(program, runs, base_seed, limits);
        assert_eq!(
            *profile, sparse,
            "member {i}: runs {runs}, base seed {base_seed}, {limits:?}"
        );
    }
    profiles
}

/// `program` scaled by each of table 9's factors.
fn scaled_family(program: &Program) -> Vec<Program> {
    [0.5, 0.7, 1.0, 1.1]
        .iter()
        .map(|&f| scale_code(program, f))
        .collect()
}

/// Limits that cut the walk after `instrs` instructions or `depth` calls.
fn limits(instrs: u64, depth: usize) -> ExecLimits {
    ExecLimits {
        max_instructions: instrs,
        max_call_depth: depth,
    }
}

/// Each workload under three limits: long walks, walks cut by the
/// instruction cap, and walks cut by the call depth. Two runs under a
/// 400 K-instruction cap keep the unoptimized test build quick. Returns
/// the profiles' truncation flags so callers can check both caps fired.
fn check_workload_shapes(program: &Program) -> [bool; 3] {
    [
        limits(400_000, 512),
        limits(20_000, 512),
        limits(400_000, 1),
    ]
    .map(|l| assert_matches_reference(program, 2, 3, l).totals.truncated)
}

#[test]
fn dense_profiles_match_reference_on_the_ten_workloads() {
    for w in impact_workloads::all() {
        let [_, by_instrs, by_depth] = check_workload_shapes(&w.program);
        assert!(by_instrs, "{}: the instruction cap never fired", w.name);
        // wc's loop lives in main and calls nothing on its hot path, but
        // every other workload calls from main.
        if w.name != "wc" {
            assert!(by_depth, "{}: the depth cap never fired", w.name);
        }
    }
}

#[test]
fn dense_profiles_match_reference_on_the_extended_set() {
    for w in impact_workloads::extended() {
        let [_, by_instrs, _] = check_workload_shapes(&w.program);
        assert!(by_instrs, "{}: the instruction cap never fired", w.name);
    }
}

#[test]
fn dense_profiles_match_reference_on_scaled_code() {
    for w in impact_workloads::all() {
        for factor in [0.5, 0.7, 1.1] {
            check_workload_shapes(&scale_code(&w.program, factor));
        }
    }
}

#[test]
fn family_profiles_match_reference_on_scaled_workloads() {
    for w in impact_workloads::all() {
        let family = scaled_family(&w.program);
        for l in [
            limits(400_000, 512),
            limits(20_000, 512),
            limits(400_000, 1),
        ] {
            let profiles = assert_family_matches_reference(&family, 2, 3, l);
            if l.max_instructions == 20_000 {
                // Each member is cut at its own event: the denser the
                // code, the more blocks fit under the cap.
                let blocks: Vec<u64> = profiles.iter().map(|p| p.totals.blocks).collect();
                assert!(
                    blocks.windows(2).all(|w| w[0] >= w[1]) && blocks[0] > blocks[3],
                    "{}: blocks per member {blocks:?}",
                    w.name
                );
            }
        }
    }
}

/// A small synthetic spec with every structural knob drawn at random.
fn gen_spec(rng: &mut Rng) -> SyntheticSpec {
    let lo = rng.gen_range_inclusive(1, 4);
    SyntheticSpec {
        name: "random",
        structure_seed: rng.next_u64(),
        phases: rng.gen_range_inclusive(1, 4),
        segments_per_phase: rng.gen_range_inclusive(1, 6),
        run_len: rng.gen_range_inclusive(1, 4),
        block_instrs: (lo, lo + rng.gen_range_inclusive(0, 4)),
        cold_block_instrs: rng.gen_range_inclusive(1, 8),
        stay_bias: 0.3 + 0.69 * rng.gen_f64(),
        bias_spread: 0.2 * rng.gen_f64(),
        inner_iters: 1.0 + 30.0 * rng.gen_f64(),
        outer_iters: 1.0 + 30.0 * rng.gen_f64(),
        phase_decay: 0.5 + 0.5 * rng.gen_f64(),
        helpers: rng.gen_range_inclusive(0, 4),
        helper_blocks: rng.gen_range_inclusive(1, 4),
        call_cadence: rng.gen_range_inclusive(0, 3),
        side_cadence: rng.gen_range_inclusive(0, 3),
        dead_cadence: rng.gen_range_inclusive(0, 3),
        dispatch_fanout: rng.gen_range_inclusive(0, 1) * rng.gen_range_inclusive(1, 6),
        cold_funcs: rng.gen_range_inclusive(0, 4),
        cold_func_blocks: rng.gen_range_inclusive(1, 4),
        noinline_helper_fraction: rng.gen_f64(),
        inline_barrier_phases: rng.gen_below(2) == 0,
        eval_seed_offset: 0,
        profile_runs: 3,
        max_dynamic_instrs: 50_000,
    }
}

#[test]
fn dense_profiles_match_reference_on_random_specs() {
    forall(
        24,
        |rng| (gen_spec(rng), rng.gen_below(1000)),
        |(spec, seed)| {
            let program = spec.build().program;
            for l in [limits(50_000, 512), limits(3_000, 512), limits(50_000, 2)] {
                assert_matches_reference(&program, 3, *seed, l);
            }
        },
    );
}

#[test]
fn family_profiles_match_reference_on_random_specs() {
    forall(
        24,
        |rng| (gen_spec(rng), rng.gen_below(1000)),
        |(spec, seed)| {
            let family = scaled_family(&spec.build().program);
            for l in [
                limits(50_000, 512),
                limits(3_000, 512),
                limits(500, 512),
                limits(50_000, 2),
            ] {
                assert_family_matches_reference(&family, 3, *seed, l);
            }
        },
    );
}

/// `main` loops over a branch with `bias` and a switch with `weights`,
/// calling `leaf` on the way: every field the walker reads besides block
/// sizes is a parameter.
fn shaped(main_name: &str, bias: BranchBias, weights: [u32; 2], body: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let leaf = pb.reserve("leaf");
    let mut main = pb.function(main_name);
    let head = main.block(vec![Instr::IntAlu; body]);
    let left = main.block_n(1);
    let right = main.block_n(2);
    let latch = main.block_n(0);
    let exit = main.block_n(0);
    main.terminate(
        head,
        Terminator::Switch {
            targets: vec![(left, weights[0]), (right, weights[1])],
        },
    );
    main.terminate(left, Terminator::call(leaf, latch));
    main.terminate(right, Terminator::jump(latch));
    main.terminate(latch, Terminator::branch(head, exit, bias));
    main.terminate(exit, Terminator::Exit);
    let main_id = main.finish();
    let mut lf = pb.function_reserved(leaf);
    let l0 = lf.block_n(3);
    lf.terminate(l0, Terminator::Return);
    lf.finish();
    pb.set_entry(main_id);
    pb.finish().unwrap()
}

/// A member that differs in a name, a bias or a switch weight walks
/// another block sequence than the rest: a shared walk would give it their
/// counts, so the family must fall back to one walk per program.
#[test]
fn mixed_shape_families_fall_back_to_one_walk_each() {
    let bias = BranchBias::varying(0.9, 0.08);
    let base = shaped("main", bias, [1, 3], 2);
    for odd in [
        shaped("main2", bias, [1, 3], 2),
        shaped("main", BranchBias::varying(0.6, 0.08), [1, 3], 2),
        shaped("main", bias, [3, 1], 2),
    ] {
        let family = [
            scale_code(&base, 0.5),
            base.clone(),
            odd,
            scale_code(&base, 1.1),
        ];
        for l in [limits(1_000_000, 64), limits(40, 64), limits(1_000_000, 1)] {
            let profiles = assert_family_matches_reference(&family, 6, 11, l);
            // The odd member out really walks a sequence of its own.
            assert_ne!(profiles[2], profiles[1], "{l:?}");
        }
    }
    // A mixed family of whole workloads takes the same path.
    let wc = impact_workloads::by_name("wc").unwrap().program;
    let cmp = impact_workloads::by_name("cmp").unwrap().program;
    let mixed = [scale_code(&wc, 0.7), cmp, wc];
    assert_family_matches_reference(&mixed, 2, 0, limits(20_000, 512));
}

/// A random CFG over a handful of blocks, so that `Switch` arms and the
/// two `Branch` arms often name the same block. Branches draw
/// input-varying biases, calls may recurse, and some blocks exit.
fn gen_cfg(rng: &mut Rng) -> Program {
    let nfuncs = rng.gen_range_inclusive(1, 3);
    let mut pb = ProgramBuilder::new();
    let ids: Vec<FuncId> = (0..nfuncs).map(|i| pb.reserve(format!("f{i}"))).collect();
    for &id in &ids {
        let mut fb = pb.function_reserved(id);
        let nblocks = rng.gen_range_inclusive(1, 4);
        let blocks: Vec<BlockId> = (0..nblocks)
            .map(|_| fb.block(vec![Instr::IntAlu; rng.gen_range_inclusive(0, 3)]))
            .collect();
        let pick = |rng: &mut Rng| blocks[rng.gen_below(nblocks as u64) as usize];
        for &b in &blocks {
            let t = match rng.gen_below(6) {
                0 => Terminator::jump(pick(rng)),
                1 => Terminator::branch(
                    pick(rng),
                    pick(rng),
                    BranchBias::varying(rng.gen_f64(), 0.3 * rng.gen_f64()),
                ),
                2 => {
                    let arms = rng.gen_range_inclusive(1, 5);
                    let mut targets: Vec<(BlockId, u32)> = (0..arms)
                        .map(|_| (pick(rng), rng.gen_below(4) as u32))
                        .collect();
                    targets[0].1 += 1;
                    Terminator::Switch { targets }
                }
                3 => Terminator::call(ids[rng.gen_below(nfuncs as u64) as usize], pick(rng)),
                4 => Terminator::Return,
                _ => Terminator::Exit,
            };
            fb.terminate(b, t);
        }
        fb.finish();
    }
    pb.set_entry(ids[0]);
    pb.finish().expect("every block is terminated")
}

#[test]
fn dense_profiles_match_reference_on_repeated_targets() {
    forall(
        256,
        |rng| (gen_cfg(rng), rng.gen_below(1000)),
        |(program, seed)| {
            for l in [limits(2_000, 64), limits(150, 64), limits(2_000, 3)] {
                assert_matches_reference(program, 4, *seed, l);
            }
        },
    );
}

/// One `Switch` whose arms repeat a block and one `Branch` whose arms are
/// the same block: each must fold into a single arc.
#[test]
fn repeated_arms_fold_into_one_arc() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let head = f.block_n(1);
    let a = f.block_n(2);
    let b = f.block_n(1);
    let latch = f.block_n(0);
    let exit = f.block_n(0);
    f.terminate(
        head,
        Terminator::Switch {
            targets: vec![(a, 1), (b, 2), (a, 3)],
        },
    );
    f.terminate(a, Terminator::branch(latch, latch, BranchBias::fixed(0.5)));
    f.terminate(b, Terminator::jump(latch));
    f.terminate(
        latch,
        Terminator::branch(head, exit, BranchBias::fixed(0.9)),
    );
    f.terminate(exit, Terminator::Exit);
    let main = f.finish();
    pb.set_entry(main);
    let program = pb.finish().unwrap();

    let profile = assert_matches_reference(&program, 4, 0, ExecLimits::default());
    let arcs = &profile.function(main).arcs;
    let from = |blk: BlockId| arcs.keys().filter(|&&(f, _)| f == blk).count();
    assert_eq!(from(head), 2, "the repeated switch arm folds: {arcs:?}");
    assert_eq!(from(a), 1, "taken == not_taken folds: {arcs:?}");
    assert_eq!(arcs[&(a, latch)], profile.block_weight(main, a));
    assert!(arcs.values().all(|&w| w > 0), "no zero-count arcs");
}

/// Records every walker event.
#[derive(Default, PartialEq, Debug)]
struct Events {
    blocks: Vec<(FuncId, BlockId)>,
    transfers: Vec<Transfer>,
}

impl ExecVisitor for Events {
    fn block(&mut self, func: FuncId, block: BlockId) {
        self.blocks.push((func, block));
    }
    fn transfer(&mut self, transfer: Transfer) {
        self.transfers.push(transfer);
    }
}

/// Collects a trace's fetch runs.
#[derive(Default)]
struct Runs(Vec<(u64, u64)>);

impl AccessSink for Runs {
    fn access_run(&mut self, addr: u64, words: u64) {
        self.0.push((addr, words));
    }
}

/// The fetch runs of a block sequence under `placement`, by definition:
/// every instruction's address in order, cut wherever the next address
/// is not the word after the last.
fn runs_of(
    program: &Program,
    placement: &impact_layout::Placement,
    blocks: &[(FuncId, BlockId)],
) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &(f, b) in blocks {
        let base = placement.addr(f, b);
        for i in 0..program.function(f).block(b).instr_count() {
            let addr = base + i * BYTES_PER_INSTR;
            match runs.last_mut() {
                Some((start, words)) if *start + *words * BYTES_PER_INSTR == addr => *words += 1,
                _ => runs.push((addr, 1)),
            }
        }
    }
    runs
}

#[test]
fn image_walk_and_trace_match_reference_block_for_block() {
    forall(
        128,
        |rng| (gen_cfg(rng), rng.gen_below(1000)),
        |(program, seed)| {
            let l = limits(1_000, 8);
            let mut events = Events::default();
            let summary = reference::walk(program, l, *seed, &mut events);
            // The image numbers blocks function-major.
            let first: Vec<usize> = program
                .functions()
                .scan(0, |n, (_, f)| {
                    let first = *n;
                    *n += f.block_count();
                    Some(first)
                })
                .collect();
            let global: Vec<usize> = events
                .blocks
                .iter()
                .map(|&(f, b)| first[f.index()] + b.index())
                .collect();
            let mut walked = Vec::new();
            let image_summary = Image::new(program).walk(*seed, l, |g, _| walked.push(g));
            assert_eq!(image_summary, summary);
            assert_eq!(walked, global);

            let placement = baseline::random(program, *seed);
            let mut runs = Runs::default();
            let trace_summary = TraceGenerator::new(program, &placement)
                .with_limits(l)
                .stream(*seed, &mut runs);
            assert_eq!(trace_summary, summary);
            assert_eq!(runs.0, runs_of(program, &placement, &events.blocks));
        },
    );
}

/// Every benchmark at its spec's runs and cap: the Step 1 profile of its
/// original, and the family profile of its code-scaled originals as
/// table 9 walks them. Slow unoptimized; CI runs it in release.
#[test]
#[ignore = "full budget: run in release with --include-ignored"]
fn full_budget_profiles_match_reference() {
    for w in impact_workloads::all() {
        let (runs, cap) = (w.spec.profile_runs, w.spec.max_dynamic_instrs);
        let l = ExecLimits::capped(cap);
        assert_matches_reference(&w.program, runs, 0, l);
        let family: Vec<Program> = [0.5, 0.7, 1.1]
            .iter()
            .map(|&f| scale_code(&w.program, f))
            .collect();
        assert_family_matches_reference(&family, runs, 0, l);
    }
}
