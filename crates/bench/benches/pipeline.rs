//! Cost of each pipeline stage in isolation: profiling, inline
//! expansion, trace selection, function layout, global layout, and the
//! end-to-end pipeline.

use impact_bench::bench_budget;
use impact_experiments::prepare::pipeline_config;
use impact_layout::function_layout::FunctionLayout;
use impact_layout::global_layout::GlobalOrder;
use impact_layout::inline::Inliner;
use impact_layout::pipeline::Pipeline;
use impact_layout::placement::Placement;
use impact_layout::trace_select::TraceSelector;
use impact_profile::Profiler;
use impact_support::bench::Harness;
use std::hint::black_box;

fn main() {
    let workload = impact_workloads::by_name("yacc").expect("yacc exists");
    let budget = bench_budget();
    let config = pipeline_config(&workload, &budget);
    let profiler = Profiler::new()
        .runs(config.profile_runs)
        .limits(config.limits);
    let profile = profiler.profile(&workload.program);

    let group = Harness::new("pipeline_stages", 500);

    group.bench("profile_8_runs", || {
        black_box(profiler.profile(black_box(&workload.program)))
    });

    let inliner = Inliner::new(config.inline.expect("default config inlines"));
    group.bench("inline_to_fixpoint", || {
        black_box(inliner.run_to_fixpoint(black_box(&workload.program), &profile, &profiler))
    });

    let selector = TraceSelector::new();
    group.bench("trace_selection", || {
        black_box(selector.select_program(black_box(&workload.program), &profile))
    });

    let traces = selector.select_program(&workload.program, &profile);
    group.bench("function_layout", || {
        let layouts: Vec<FunctionLayout> = workload
            .program
            .functions()
            .map(|(fid, func)| FunctionLayout::compute(func, fid, &traces[fid.index()], &profile))
            .collect();
        black_box(layouts)
    });

    group.bench("global_layout", || {
        black_box(GlobalOrder::compute(black_box(&workload.program), &profile))
    });

    let layouts: Vec<FunctionLayout> = workload
        .program
        .functions()
        .map(|(fid, func)| FunctionLayout::compute(func, fid, &traces[fid.index()], &profile))
        .collect();
    let global = GlobalOrder::compute(&workload.program, &profile);
    group.bench("address_assignment", || {
        black_box(Placement::assemble(
            black_box(&workload.program),
            &global,
            &layouts,
        ))
    });

    let pipeline = Pipeline::new(config.clone());
    group.bench("end_to_end", || {
        black_box(pipeline.run(black_box(&workload.program)))
    });
}
