//! Mutation tests for the lint framework, through the public API: each
//! analysis must fire on a deliberately corrupted artifact, and the full
//! pipeline over every bundled workload must lint error-free.

use impact::analyze::{self, pass, ConflictConfig, Context, Pass};
use impact::experiments::prepare::{pipeline_config, prepare, Budget};
use impact::ir::{BranchBias, FuncId, Instr, Program, ProgramBuilder, Terminator, ValidateError};
use impact::layout::baseline;
use impact::layout::pipeline::Pipeline;
use impact::layout::placement::Placement;
use impact::profile::{Profile, Profiler};

/// A test budget small enough for debug builds.
fn budget() -> Budget {
    Budget {
        profile_instrs: Some(60_000),
        eval_instrs: Some(150_000),
    }
}

/// The acceptance contract: every workload, through the checked pipeline
/// `impact lint` runs, zero errors. (Warnings — unreachable code,
/// recursion, conflict pressure — are fine.)
#[test]
fn all_ten_workloads_lint_error_free() {
    for w in impact::workloads::all() {
        let pipeline = Pipeline::new(pipeline_config(&w, &budget()));
        let (_, report) =
            analyze::run_checked(&pipeline, &w.program).expect("well-formed workload");
        assert_eq!(
            report.error_count(),
            0,
            "{} must lint error-free:\n{}",
            w.name,
            report.render()
        );
    }
}

/// Lints a bare program (plus optional profile) with the program-level
/// lints, before any layout exists.
fn lint_program(program: &Program, profile: Option<&Profile>) -> analyze::Report {
    let mut ctx = Context::program_only(program);
    if let Some(p) = profile {
        ctx = ctx.with_profile(p);
    }
    pass::run(analyze::PROGRAM_LINTS, &ctx)
}

/// A two-block loop: entry branches back on itself with p=0.7, then exits.
fn loop_program() -> (Program, Profile) {
    let mut pb = ProgramBuilder::new();
    let mut main = pb.function("main");
    let b0 = main.block(vec![Instr::IntAlu; 2]);
    let b1 = main.block(vec![Instr::IntAlu]);
    main.terminate(b0, Terminator::branch(b0, b1, BranchBias::fixed(0.7)));
    main.terminate(b1, Terminator::Exit);
    let mid = main.finish();
    pb.set_entry(mid);
    let p = pb.finish().unwrap();
    let prof = Profiler::new().runs(4).profile(&p);
    (p, prof)
}

#[test]
fn ipa001_fires_on_an_unreachable_block() {
    let mut pb = ProgramBuilder::new();
    let mut main = pb.function("main");
    let b0 = main.block(vec![Instr::IntAlu]);
    let b1 = main.block(vec![Instr::IntAlu]);
    main.terminate(b0, Terminator::Exit);
    main.terminate(b1, Terminator::jump(b0)); // nothing jumps to b1
    let mid = main.finish();
    pb.set_entry(mid);
    let p = pb.finish().unwrap();

    let report = lint_program(&p, None);
    assert_eq!(report.with_code("IPA001").count(), 1, "{}", report.render());
    assert_eq!(report.error_count(), 0, "unreachable code is a warning");
}

#[test]
fn ipa002_fires_on_a_corrupted_block_count() {
    let (p, mut prof) = loop_program();
    let entry = p.entry().index();
    prof.funcs[entry].block_counts[1] += 5; // counted more than flowed in
    let report = lint_program(&p, Some(&prof));
    assert!(
        report.with_code("IPA002").count() > 0,
        "{}",
        report.render()
    );
    assert!(report.error_count() > 0);
}

#[test]
fn ipa003_fires_on_a_corrupted_arc() {
    let (p, mut prof) = loop_program();
    let entry = p.entry().index();
    let (&arc, _) = prof.funcs[entry].arcs.iter().next().expect("loop has arcs");
    *prof.funcs[entry].arcs.get_mut(&arc).unwrap() += 7;
    let report = lint_program(&p, Some(&prof));
    assert!(
        report.with_code("IPA003").count() > 0,
        "{}",
        report.render()
    );
}

#[test]
fn ipa004_bridges_structural_validation() {
    let (p, _) = loop_program();
    let err = ValidateError::DanglingCallee {
        func: p.entry(),
        block: impact::ir::BlockId::new(0),
        callee: FuncId::new(99),
    };
    let d = analyze::program::StructuralValidation::diagnostic_of(&p, &err);
    assert_eq!(d.code, "IPA004");
    assert_eq!(d.severity, analyze::Severity::Error);
}

#[test]
fn ipa005_fires_on_recursion() {
    let mut pb = ProgramBuilder::new();
    let me = pb.reserve("recur");
    let mut f = pb.function_reserved(me);
    let b0 = f.block(vec![Instr::IntAlu]);
    let b1 = f.block(vec![]);
    f.terminate(b0, Terminator::call(me, b1));
    f.terminate(b1, Terminator::Exit);
    f.finish();
    pb.set_entry(me);
    let p = pb.finish().unwrap();

    let report = lint_program(&p, None);
    assert!(
        report.with_code("IPA005").count() > 0,
        "{}",
        report.render()
    );
    assert_eq!(report.error_count(), 0, "recursion is a warning");
}

/// Raw address table of a placement, editable for corruption.
fn raw_addrs(p: &Program, placement: &Placement) -> Vec<Vec<u64>> {
    p.functions()
        .map(|(fid, func)| {
            func.block_ids()
                .map(|bid| placement.try_addr(fid, bid).unwrap_or(u64::MAX))
                .collect()
        })
        .collect()
}

/// Rebuilds a placement from (possibly corrupted) raw addresses, keeping
/// the original's order and byte totals.
fn rebuild(placement: &Placement, addrs: Vec<Vec<u64>>) -> Placement {
    Placement::from_raw(
        addrs,
        placement.func_order().to_vec(),
        placement.effective_bytes(),
        placement.total_bytes(),
    )
}

/// Runs the placement verifiers on a pipeline result whose placement
/// was swapped for `placement`.
fn verify_with(
    p: &impact::experiments::prepare::Prepared,
    placement: &Placement,
) -> analyze::Report {
    let ctx = Context::of_result(&p.result).with_placement(placement);
    pass::run(analyze::PLACEMENT_VERIFIERS, &ctx)
}

#[test]
fn ipa101_fires_on_a_missing_address() {
    let w = impact::workloads::by_name("wc").unwrap();
    let p = prepare(&w, &budget());
    let entry = p.result.program.entry().index();
    let mut addrs = raw_addrs(&p.result.program, &p.result.placement);
    addrs[entry][0] = u64::MAX;
    let report = verify_with(&p, &rebuild(&p.result.placement, addrs));
    assert!(
        report.with_code("IPA101").count() > 0,
        "{}",
        report.render()
    );
    assert!(report.error_count() > 0);
}

#[test]
fn ipa102_fires_on_overlapping_blocks() {
    let w = impact::workloads::by_name("wc").unwrap();
    let p = prepare(&w, &budget());
    let entry = p.result.program.entry().index();
    let mut addrs = raw_addrs(&p.result.program, &p.result.placement);
    addrs[entry][1] = addrs[entry][0]; // two blocks at one address
    let report = verify_with(&p, &rebuild(&p.result.placement, addrs));
    assert!(
        report.with_code("IPA102").count() > 0,
        "{}",
        report.render()
    );
}

#[test]
fn ipa103_fires_on_hot_code_in_the_cold_region() {
    let w = impact::workloads::by_name("wc").unwrap();
    let p = prepare(&w, &budget());
    let entry = p.result.program.entry().index();
    let mut addrs = raw_addrs(&p.result.program, &p.result.placement);
    // The entry block certainly executed; banish it past the boundary.
    addrs[entry][0] = p.result.placement.total_bytes();
    let report = verify_with(&p, &rebuild(&p.result.placement, addrs));
    assert!(
        report.with_code("IPA103").count() > 0,
        "{}",
        report.render()
    );
}

#[test]
fn ipa104_fires_on_a_misaligned_block() {
    let w = impact::workloads::by_name("wc").unwrap();
    let p = prepare(&w, &budget());
    let entry = p.result.program.entry().index();
    let mut addrs = raw_addrs(&p.result.program, &p.result.placement);
    addrs[entry][0] += 2;
    let report = verify_with(&p, &rebuild(&p.result.placement, addrs));
    assert!(
        report.with_code("IPA104").count() > 0,
        "{}",
        report.render()
    );
}

#[test]
fn ipa105_fires_on_a_layout_that_breaks_traces() {
    let w = impact::workloads::by_name("wc").unwrap();
    let p = prepare(&w, &budget());
    // A random placement ignores the selected traces entirely.
    let scrambled = baseline::random(&p.result.program, 7);
    let broken = verify_with(&p, &scrambled);
    assert!(
        broken.with_code("IPA105").count() > 0,
        "{}",
        broken.render()
    );
    // The optimized placement keeps every trace contiguous.
    let optimized = verify_with(&p, &p.result.placement);
    assert_eq!(
        optimized.with_code("IPA105").count(),
        0,
        "{}",
        optimized.render()
    );
}

/// A caller whose loop invokes a looping leaf: the two bodies are
/// concurrently hot, so their cache coloring matters.
fn concurrent_loops() -> Program {
    let mut pb = ProgramBuilder::new();
    let leaf = pb.reserve("leaf");
    let mut main = pb.function("main");
    let head = main.block(vec![Instr::IntAlu; 15]); // 64 B
    let latch = main.block(vec![Instr::IntAlu; 15]); // 64 B
    let exit = main.block(vec![]);
    main.terminate(head, Terminator::call(leaf, latch));
    main.terminate(
        latch,
        Terminator::branch(head, exit, BranchBias::fixed(0.9)),
    );
    main.terminate(exit, Terminator::Exit);
    let mid = main.finish();
    let mut lf = pb.function_reserved(leaf);
    let l0 = lf.block(vec![Instr::Load; 15]); // 64 B
    let l1 = lf.block(vec![]);
    lf.terminate(l0, Terminator::branch(l0, l1, BranchBias::fixed(0.9)));
    lf.terminate(l1, Terminator::Return);
    lf.finish();
    pb.set_entry(mid);
    pb.finish().unwrap()
}

/// Natural addresses for `concurrent_loops`, with the leaf moved to
/// `leaf_at` — the corruption knob for the IPA302/IPA303 mutations.
fn concurrent_placement(p: &Program, leaf_at: u64) -> Placement {
    let main = p.entry();
    let leaf = p.function_by_name("leaf").unwrap();
    let mut addrs = vec![Vec::new(), Vec::new()];
    let mut cursor = 0;
    for (_, block) in p.function(main).blocks() {
        addrs[main.index()].push(cursor);
        cursor += block.size_bytes();
    }
    let mut cursor = leaf_at;
    for (_, block) in p.function(leaf).blocks() {
        addrs[leaf.index()].push(cursor);
        cursor += block.size_bytes();
    }
    let total = cursor;
    Placement::from_raw(addrs, vec![main, leaf], total, total)
}

#[test]
fn ipa301_fires_when_a_loop_outgrows_the_cache() {
    let w = impact::workloads::by_name("wc").unwrap();
    let p = prepare(&w, &budget());
    // Shrink the cache under wc's real loops instead of growing a fake one.
    let tiny = ConflictConfig {
        cache_bytes: 256,
        line_bytes: 64,
        ..ConflictConfig::default()
    };
    let ctx = Context::program_only(&p.result.program).with_conflict(tiny);
    let report = pass::run(analyze::STATIC_ANALYSES, &ctx);
    assert!(
        report.with_code("IPA301").count() > 0,
        "{}",
        report.render()
    );
    assert_eq!(report.error_count(), 0, "footprint pressure is a warning");

    // At a cache that swallows the whole program, every loop fits.
    let huge = ConflictConfig {
        cache_bytes: 1 << 20,
        line_bytes: 64,
        ..ConflictConfig::default()
    };
    let ctx = Context::program_only(&p.result.program).with_conflict(huge);
    let report = pass::run(analyze::STATIC_ANALYSES, &ctx);
    assert_eq!(report.with_code("IPA301").count(), 0, "{}", report.render());
}

#[test]
fn ipa302_fires_on_aliased_concurrent_loops() {
    let p = concurrent_loops();
    // Exactly one cache capacity apart: the loops contest the same sets.
    let aliased = concurrent_placement(&p, 2048);
    let ctx = Context::program_only(&p).with_placement(&aliased);
    let report = pass::run(analyze::STATIC_ANALYSES, &ctx);
    assert!(
        report.with_code("IPA302").count() > 0,
        "{}",
        report.render()
    );

    // Adjacent in one cache frame: disjoint sets, nothing to report.
    let disjoint = concurrent_placement(&p, 192);
    let ctx = Context::program_only(&p).with_placement(&disjoint);
    let report = pass::run(analyze::STATIC_ANALYSES, &ctx);
    assert_eq!(report.with_code("IPA302").count(), 0, "{}", report.render());
}

#[test]
fn ipa303_fires_when_the_miss_bound_blows_the_threshold() {
    let p = concurrent_loops();
    let prof = Profiler::new().runs(4).profile(&p);
    let aliased = concurrent_placement(&p, 2048);
    let ctx = Context::program_only(&p)
        .with_profile(&prof)
        .with_placement(&aliased);
    let report = pass::run(analyze::STATIC_ANALYSES, &ctx);
    assert!(
        report.with_code("IPA303").count() > 0,
        "{}",
        report.render()
    );

    // The same placement passes once the threshold is mutated past 100%.
    let lax = ConflictConfig {
        miss_bound_warn: 1.0,
        ..ConflictConfig::default()
    };
    let report = pass::run(analyze::STATIC_ANALYSES, &ctx.with_conflict(lax));
    assert_eq!(report.with_code("IPA303").count(), 0, "{}", report.render());
}

#[test]
fn ipa201_fires_when_the_cache_has_one_set() {
    let w = impact::workloads::by_name("wc").unwrap();
    let p = prepare(&w, &budget());
    // One 64-byte set: every hot line contests it.
    let tiny = ConflictConfig {
        cache_bytes: 64,
        line_bytes: 64,
        hot_fraction: 0.0,
        ..ConflictConfig::default()
    };
    let ctx = Context::of_result(&p.result).with_conflict(tiny);
    let diags = analyze::cache::ConflictPressure.run(&ctx);
    assert!(!diags.is_empty(), "a one-set cache must show conflicts");
    assert!(diags.iter().all(|d| d.code == "IPA201"));
}

/// Runs the layout advisors on a pipeline result whose placement was
/// swapped for `placement`.
fn advise_with(
    p: &impact::experiments::prepare::Prepared,
    placement: &Placement,
) -> analyze::Report {
    let ctx = Context::of_result(&p.result).with_placement(placement);
    pass::run(analyze::ADVISORS, &ctx)
}

/// The advisors' acceptance contract: the paper pipeline's own
/// placement draws no advice on any bundled workload — through the
/// measured-profile path and the profile-free static path alike.
#[test]
fn advisors_are_silent_on_every_paper_placement() {
    for w in impact::workloads::all() {
        let p = prepare(&w, &budget());
        let report = advise_with(&p, &p.result.placement);
        assert_eq!(
            report.diagnostics.len(),
            0,
            "{} paper placement must satisfy the advisors:\n{}",
            w.name,
            report.render()
        );
        let advice = analyze::advise_static(&w.program, &Default::default(), Default::default())
            .expect("static advice");
        assert_eq!(
            advice.advice.diagnostics.len(),
            0,
            "{} static-path placement must satisfy the advisors:\n{}",
            w.name,
            advice.advice.render()
        );
    }
}

#[test]
fn ipa401_fires_on_a_scrambled_global_order() {
    let w = impact::workloads::by_name("cccp").unwrap();
    let p = prepare(&w, &budget());
    // A random order turns cccp's hot fall-through chains into far jumps.
    let scrambled = baseline::random(&p.result.program, 7);
    let report = advise_with(&p, &scrambled);
    assert!(
        report.with_code("IPA401").count() > 0,
        "{}",
        report.render()
    );
    assert_eq!(report.error_count(), 0, "advice is always a warning");
}

#[test]
fn ipa402_fires_on_a_separated_hot_call_pair() {
    let w = impact::workloads::by_name("compress").unwrap();
    let p = prepare(&w, &budget());
    // compress's single hot callee sits 8 B from its caller in the paper
    // order; a random order strands it beyond a cache capacity.
    let scrambled = baseline::random(&p.result.program, 7);
    let report = advise_with(&p, &scrambled);
    assert!(
        report.with_code("IPA402").count() > 0,
        "{}",
        report.render()
    );
}

#[test]
fn ipa403_fires_on_a_scattered_loop_core() {
    let w = impact::workloads::by_name("make").unwrap();
    let p = prepare(&w, &budget());
    let scrambled = baseline::random(&p.result.program, 7);
    let report = advise_with(&p, &scrambled);
    assert!(
        report.with_code("IPA403").count() > 0,
        "{}",
        report.render()
    );
}

#[test]
fn ipa404_fires_on_interleaved_cold_code() {
    let w = impact::workloads::by_name("wc").unwrap();
    let p = prepare(&w, &budget());
    // The random baseline ignores the effective / never-executed split.
    let scrambled = baseline::random(&p.result.program, 7);
    let report = advise_with(&p, &scrambled);
    assert!(
        report.with_code("IPA404").count() > 0,
        "{}",
        report.render()
    );
}

#[test]
fn ipa405_fires_on_a_traffic_heavy_order() {
    let w = impact::workloads::by_name("yacc").unwrap();
    let p = prepare(&w, &budget());
    let scrambled = baseline::random(&p.result.program, 7);
    let report = advise_with(&p, &scrambled);
    assert!(
        report.with_code("IPA405").count() > 0,
        "{}",
        report.render()
    );
}
