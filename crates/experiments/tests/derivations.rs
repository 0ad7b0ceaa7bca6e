//! The placement variants the tables derive from a prepared result must
//! equal the full pipeline runs they stand in for: the inline-off
//! placement (ablation, score), every `MIN_PROB` threshold (minprob) and
//! table 9's 1.0× factor.

use impact_experiments::prepare::{pipeline_config, prepare, Budget, Prepared};
use impact_experiments::tables::min_prob::THRESHOLDS;
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

#[test]
fn unit_scaling_matches_the_prepared_placement() {
    for p in prepared() {
        let full = Pipeline::new(config(&p)).run(&scale_code(&p.baseline_program, 1.0));
        assert_eq!(p.result.placement, full.placement, "{}", p.workload.name);
    }
}
