//! The placement variants the tables derive from a prepared result must
//! equal the full pipeline runs they stand in for: the inline-off
//! placement (ablation, score), every `MIN_PROB` threshold (minprob) and
//! every factor of table 9: its 1.0× column is the prepared result, and
//! its scaled pipelines profile from walks shared across a code-scaled
//! family.

use impact_experiments::prepare::{pipeline_config, prepare, Budget, Prepared};
use impact_experiments::tables::min_prob::THRESHOLDS;
use impact_experiments::tables::t9;
use impact_layout::pipeline::{Pipeline, PipelineConfig};
use impact_layout::scale::scale_code;
use impact_layout::trace_select::MIN_PROB;

fn prepared() -> Vec<Prepared> {
    ["wc", "cmp"]
        .iter()
        .map(|n| prepare(&impact_workloads::by_name(n).unwrap(), &Budget::fast()))
        .collect()
}

fn config(p: &Prepared) -> PipelineConfig {
    pipeline_config(&p.workload, &p.budget)
}

#[test]
fn inline_off_matches_a_pipeline_run_without_inlining() {
    for p in prepared() {
        let name = p.workload.name;
        let full = Pipeline::new(PipelineConfig {
            inline: None,
            ..config(&p)
        })
        .run(&p.baseline_program);
        let derived = p.result.without_inlining(&p.baseline_program, MIN_PROB);
        assert_eq!(derived.program, full.program, "{name}");
        assert_eq!(derived.profile, full.profile, "{name}");
        assert_eq!(derived.placement, full.placement, "{name}");
        assert_eq!(derived.inline_report, full.inline_report, "{name}");
    }
}

#[test]
fn every_threshold_matches_a_pipeline_run_at_that_threshold() {
    for p in prepared() {
        for min_prob in THRESHOLDS {
            let name = p.workload.name;
            let full = Pipeline::new(PipelineConfig {
                min_prob,
                ..config(&p)
            })
            .run(&p.baseline_program);
            let derived = p.result.with_min_prob(min_prob);
            assert_eq!(derived.placement, full.placement, "{name} at {min_prob}");
            assert_eq!(derived.traces, full.traces, "{name} at {min_prob}");
            assert_eq!(
                derived.trace_quality, full.trace_quality,
                "{name} at {min_prob}"
            );
        }
    }
}

/// Every factor of table 9's pipelines, 1.0× included, against a full
/// `Pipeline::run` on the scaled original.
fn check_scaled_pipelines(p: &Prepared) {
    let name = p.workload.name;
    for (&factor, derived) in t9::FACTORS.iter().zip(t9::pipelines(p)) {
        let full = Pipeline::new(config(p)).run(&scale_code(&p.baseline_program, factor));
        assert_eq!(derived.program, full.program, "{name} at {factor}");
        assert_eq!(derived.placement, full.placement, "{name} at {factor}");
        assert_eq!(derived.profile, full.profile, "{name} at {factor}");
        assert_eq!(
            derived.pre_inline_profile, full.pre_inline_profile,
            "{name} at {factor}"
        );
    }
}

#[test]
fn scaled_pipelines_match_pipeline_runs_on_scaled_programs() {
    // wc and cmp profile everything from the shared walks; lex's scaled
    // inlining departs from the prepared one at this budget, so its
    // pipelines also walk programs outside both families.
    for name in ["wc", "cmp", "lex"] {
        let w = impact_workloads::by_name(name).unwrap();
        check_scaled_pipelines(&prepare(&w, &Budget::fast()));
    }
}

/// At full budget, intermediate inline passes (grep, lex, and yacc at
/// 1.1×) are profiled outside the families too. Slow unoptimized: CI runs
/// it in release with `--include-ignored`.
#[test]
#[ignore = "full budget over all ten benchmarks; run it in release"]
fn scaled_pipelines_match_pipeline_runs_at_full_budget() {
    for w in impact_workloads::all() {
        check_scaled_pipelines(&prepare(&w, &Budget::default()));
    }
}
