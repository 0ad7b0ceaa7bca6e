//! End-to-end pipeline tests over the real benchmark models.

use impact::cache::CacheConfig;
use impact::experiments::prepare::{prepare, Budget};
use impact::experiments::sim;
use impact::layout::baseline;

/// A test budget small enough for debug builds.
fn budget() -> Budget {
    Budget {
        profile_instrs: Some(60_000),
        eval_instrs: Some(150_000),
    }
}

#[test]
fn every_benchmark_survives_the_full_pipeline() {
    for w in impact::workloads::all() {
        let p = prepare(&w, &budget());
        let verify = impact::analyze::verify_placement(&p.result.program, &p.result.placement);
        assert!(
            verify.is_clean(),
            "{}: invalid placement\n{}",
            w.name,
            verify.render()
        );
        assert!(
            p.result.global.is_permutation_of(&p.result.program),
            "{}: global order is not a permutation",
            w.name
        );
        for (fid, func) in p.result.program.functions() {
            assert!(
                p.result.traces[fid.index()].is_partition_of(func),
                "{}/{}: traces do not partition",
                w.name,
                func.name()
            );
            assert!(
                p.result.layouts[fid.index()].is_permutation_of(func),
                "{}/{}: layout is not a permutation",
                w.name,
                func.name()
            );
        }
        assert!(p.result.effective_static_bytes() <= p.result.total_static_bytes());
    }
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let w = impact::workloads::by_name("compress").unwrap();
    let a = prepare(&w, &budget());
    let b = prepare(&w, &budget());
    assert_eq!(a.result.placement, b.result.placement);
    assert_eq!(a.result.profile, b.result.profile);

    let configs = [CacheConfig::direct_mapped(2048, 64)];
    let limits = budget().eval_limits(&w);
    let s1 = sim::simulate(
        &a.result.program,
        &a.result.placement,
        a.eval_seed(),
        limits,
        &configs,
    );
    let s2 = sim::simulate(
        &b.result.program,
        &b.result.placement,
        b.eval_seed(),
        limits,
        &configs,
    );
    assert_eq!(s1, s2);
}

#[test]
fn inlining_never_changes_observable_work() {
    // The inlined program must execute (statistically) the same amount of
    // work: instruction counts per run within 25 % of the original.
    let w = impact::workloads::by_name("yacc").unwrap();
    let p = prepare(&w, &budget());
    let before = p.result.pre_inline_profile.totals.instructions as f64;
    let after = p.result.profile.totals.instructions as f64;
    let ratio = after / before;
    assert!(
        (0.75..1.33).contains(&ratio),
        "yacc instruction volume drifted by {ratio}"
    );
}

#[test]
fn optimized_placement_beats_random_on_a_small_cache() {
    for name in ["make", "yacc", "lex"] {
        let w = impact::workloads::by_name(name).unwrap();
        let p = prepare(&w, &budget());
        let configs = [CacheConfig::direct_mapped(1024, 64)];
        let limits = budget().eval_limits(&w);
        let opt = sim::simulate(
            &p.result.program,
            &p.result.placement,
            p.eval_seed(),
            limits,
            &configs,
        )[0];
        let rnd_placement = baseline::random(&p.baseline_program, 7);
        let rnd = sim::simulate(
            &p.baseline_program,
            &rnd_placement,
            p.eval_seed(),
            limits,
            &configs,
        )[0];
        assert!(
            opt.miss_ratio() <= rnd.miss_ratio() + 1e-9,
            "{name}: optimized {:.4}% vs random {:.4}%",
            opt.miss_ratio() * 100.0,
            rnd.miss_ratio() * 100.0
        );
    }
}

#[test]
fn eval_seed_is_held_out_from_profiling() {
    for w in impact::workloads::all() {
        assert!(
            w.eval_seed() >= u64::from(w.spec.profile_runs),
            "{}: evaluation seed leaks into profiling",
            w.name
        );
    }
}

#[test]
fn dead_code_lands_in_the_non_executed_region() {
    // Odd-indexed cold functions are never executed; their blocks must be
    // placed at or beyond the effective boundary.
    let w = impact::workloads::by_name("grep").unwrap();
    let p = prepare(&w, &budget());
    let program = &p.result.program;
    let cold = program
        .function_by_name("cold_1")
        .expect("grep has cold functions");
    for bid in program.function(cold).block_ids() {
        assert!(
            p.result.placement.addr(cold, bid) >= p.result.placement.effective_bytes(),
            "cold_1/{bid} placed inside the effective region"
        );
    }
}
