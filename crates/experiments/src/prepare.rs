//! Shared pipeline preparation: run the placement optimizer once per
//! benchmark and keep everything the table runners need.

use impact_ir::Program;
use impact_layout::pipeline::{Pipeline, PipelineConfig, PipelineResult};
use impact_layout::{baseline, Placement};
use impact_profile::ExecLimits;
use impact_workloads::Workload;

/// Execution budgets for preparation and evaluation.
///
/// The default budget runs each benchmark at its spec'd dynamic length.
/// [`Budget::fast`] caps walks for quick smoke runs (CI, debug builds) —
/// ratios converge long before the full trace lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Cap on dynamic instructions per profiling run (`None` = use the
    /// workload's own cap).
    pub profile_instrs: Option<u64>,
    /// Cap on dynamic instructions for the evaluation trace (`None` = use
    /// the workload's own cap).
    pub eval_instrs: Option<u64>,
}

impl Budget {
    /// A reduced budget for smoke tests and debug builds.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            profile_instrs: Some(150_000),
            eval_instrs: Some(300_000),
        }
    }

    /// Profiling limits for `workload` under this budget.
    #[must_use]
    pub fn profile_limits(&self, workload: &Workload) -> ExecLimits {
        ExecLimits::capped(
            self.profile_instrs
                .unwrap_or(workload.spec.max_dynamic_instrs),
        )
    }

    /// Evaluation-trace limits for `workload` under this budget.
    #[must_use]
    pub fn eval_limits(&self, workload: &Workload) -> ExecLimits {
        ExecLimits::capped(self.eval_instrs.unwrap_or(workload.spec.max_dynamic_instrs))
    }
}

/// One benchmark, fully prepared: optimized placement plus the
/// conventional-compiler baseline.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The benchmark model.
    pub workload: Workload,
    /// Full output of the optimized placement pipeline.
    pub result: PipelineResult,
    /// Natural (declaration-order) placement of the *original*,
    /// un-inlined program — the conventional baseline.
    pub baseline_program: Program,
    /// The baseline placement itself.
    pub baseline: Placement,
    /// The budget used, so table runners evaluate consistently.
    pub budget: Budget,
}

impl Prepared {
    /// The held-out evaluation seed for this benchmark.
    #[must_use]
    pub fn eval_seed(&self) -> u64 {
        self.workload.eval_seed()
    }
}

/// The pipeline configuration used for a workload under a budget.
#[must_use]
pub fn pipeline_config(workload: &Workload, budget: &Budget) -> PipelineConfig {
    PipelineConfig {
        profile_runs: workload.spec.profile_runs,
        profile_base_seed: 0,
        limits: budget.profile_limits(workload),
        ..PipelineConfig::default()
    }
}

/// Prepares one benchmark: runs the optimizer and builds the baseline.
#[must_use]
pub fn prepare(workload: &Workload, budget: &Budget) -> Prepared {
    let config = pipeline_config(workload, budget);
    let result = Pipeline::new(config).run(&workload.program);
    let baseline = baseline::natural(&workload.program);
    Prepared {
        workload: workload.clone(),
        result,
        baseline_program: workload.program.clone(),
        baseline,
        budget: *budget,
    }
}

/// Prepares a set of workloads on up to `jobs` worker threads (the
/// `repro --jobs N` path; results stay in input order).
#[must_use]
pub fn prepare_many_jobs(workloads: &[Workload], budget: &Budget, jobs: usize) -> Vec<Prepared> {
    impact_support::parallel_map(jobs, workloads.iter().collect(), |w| prepare(w, budget))
}

/// Prepares all ten benchmarks in parallel (one thread each — the
/// pipeline is single-threaded and benchmarks are independent).
#[must_use]
pub fn prepare_all(budget: &Budget) -> Vec<Prepared> {
    let workloads = impact_workloads::all();
    prepare_many_jobs(&workloads, budget, workloads.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_wc_produces_consistent_artifacts() {
        let w = impact_workloads::by_name("wc").unwrap();
        let p = prepare(&w, &Budget::fast());
        let opt = impact_analyze::verify_placement(&p.result.program, &p.result.placement);
        assert!(opt.is_clean(), "{}", opt.render());
        let base = impact_analyze::verify_placement(&p.baseline_program, &p.baseline);
        assert!(base.is_clean(), "{}", base.render());
        assert!(p.result.effective_static_bytes() <= p.result.total_static_bytes());
    }

    #[test]
    fn prepare_many_jobs_matches_serial() {
        let workloads: Vec<_> = ["wc", "cmp"]
            .iter()
            .map(|n| impact_workloads::by_name(n).unwrap())
            .collect();
        let serial = prepare_many_jobs(&workloads, &Budget::fast(), 1);
        let parallel = prepare_many_jobs(&workloads, &Budget::fast(), 4);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.workload.spec.name, p.workload.spec.name);
            assert_eq!(s.result.placement, p.result.placement);
            assert_eq!(s.result.program, p.result.program);
        }
    }

    #[test]
    fn fast_budget_caps_walks() {
        let w = impact_workloads::by_name("grep").unwrap();
        let b = Budget::fast();
        assert_eq!(b.profile_limits(&w).max_instructions, 150_000);
        assert_eq!(b.eval_limits(&w).max_instructions, 300_000);
        let d = Budget::default();
        assert_eq!(
            d.eval_limits(&w).max_instructions,
            w.spec.max_dynamic_instrs
        );
    }
}
