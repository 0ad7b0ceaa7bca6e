//! The five-step IMPACT-I placement pipeline, end to end.

use std::fmt;

use impact_ir::{Program, ValidateError};
use impact_profile::{ExecLimits, Profile, ProfileSource, Profiler};

use crate::function_layout::FunctionLayout;
use crate::global_layout::GlobalOrder;
use crate::inline::{InlineConfig, Inliner};
use crate::placement::Placement;
use crate::quality::{InlineReport, TraceQuality};
use crate::trace_select::{TraceAssignment, TraceSelector};

/// Configuration of the whole placement pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Inliner configuration; `None` disables Step 2 (used by the
    /// ablation benches).
    pub inline: Option<InlineConfig>,
    /// Trace selection threshold (the paper's `MIN_PROB`).
    pub min_prob: f64,
    /// Profiling runs (the paper's "runs" column; distinct input seeds).
    pub profile_runs: u32,
    /// First profiling input seed. The evaluation trace must use a seed
    /// outside `base_seed .. base_seed + profile_runs`.
    pub profile_base_seed: u64,
    /// Per-run execution limits for profiling.
    pub limits: ExecLimits,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            inline: Some(InlineConfig::default()),
            min_prob: crate::trace_select::MIN_PROB,
            profile_runs: Profiler::DEFAULT_RUNS,
            profile_base_seed: 0,
            limits: ExecLimits::default(),
        }
    }
}

/// Why a pipeline run could not even start.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PipelineError {
    /// The input program failed structural validation.
    InvalidProgram(ValidateError),
    /// The configuration is unusable (e.g. `min_prob` outside `(0, 1]`,
    /// zero profiling runs, or zero-instruction limits).
    BadConfig {
        /// Human-readable explanation of the rejected setting.
        reason: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidProgram(e) => write!(f, "invalid input program: {e}"),
            PipelineError::BadConfig { reason } => write!(f, "bad pipeline config: {reason}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ValidateError> for PipelineError {
    fn from(e: ValidateError) -> Self {
        PipelineError::InvalidProgram(e)
    }
}

/// A checkpoint the pipeline exposes to a [`PipelineObserver`] between
/// steps. Borrowed views — observers inspect, they do not mutate.
#[derive(Debug)]
#[non_exhaustive]
pub enum Checkpoint<'a> {
    /// After Step 1: the original program has been profiled.
    Profiled {
        /// The input program.
        program: &'a Program,
        /// Its execution profile.
        profile: &'a Profile,
    },
    /// After Step 2: inline expansion ran (or was skipped) and the
    /// transformed program's profile is in hand.
    Inlined {
        /// The (possibly) inlined program.
        program: &'a Program,
        /// Fresh profile of that program.
        profile: &'a Profile,
    },
    /// After Step 3: traces have been selected on the final program.
    TracesSelected {
        /// The laid-out program.
        program: &'a Program,
        /// Its profile.
        profile: &'a Profile,
        /// One trace assignment per function.
        traces: &'a [TraceAssignment],
    },
    /// After Step 5: the full result, just before `run` returns it.
    Placed {
        /// The complete pipeline output.
        result: &'a PipelineResult,
    },
}

/// Hook into the pipeline between steps.
///
/// The pipeline itself never inspects observer state; this exists so
/// external tooling (notably the `impact-analyze` checked mode) can lint
/// intermediate artifacts without the layout crate depending on the
/// analysis crate.
pub trait PipelineObserver {
    /// Called at each [`Checkpoint`], in pipeline order.
    fn checkpoint(&mut self, checkpoint: &Checkpoint<'_>);
}

/// Observer that ignores every checkpoint (what [`Pipeline::run`] passes).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl PipelineObserver for NoopObserver {
    fn checkpoint(&mut self, _checkpoint: &Checkpoint<'_>) {}
}

/// Everything the pipeline produced.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The (possibly inlined) program that was laid out.
    pub program: Program,
    /// Profile of the *original* program (pre-inlining).
    pub pre_inline_profile: Profile,
    /// Profile of [`PipelineResult::program`] — the weights the layout
    /// decisions used.
    pub profile: Profile,
    /// Per-function trace assignments (Step 3).
    pub traces: Vec<TraceAssignment>,
    /// Per-function block layouts (Step 4).
    pub layouts: Vec<FunctionLayout>,
    /// Global function order (Step 5).
    pub global: GlobalOrder,
    /// The final memory map.
    pub placement: Placement,
    /// Table 3 statistics (zeroed when inlining is disabled).
    pub inline_report: InlineReport,
    /// Table 4 statistics.
    pub trace_quality: TraceQuality,
}

impl PipelineResult {
    /// Static bytes with non-trivial execution count (the paper's
    /// "effective static bytes", Table 5).
    #[must_use]
    pub fn effective_static_bytes(&self) -> u64 {
        self.placement.effective_bytes()
    }

    /// Total static bytes (Table 5).
    #[must_use]
    pub fn total_static_bytes(&self) -> u64 {
        self.placement.total_bytes()
    }

    /// This result re-placed at trace-selection threshold `min_prob`, as
    /// the same pipeline computes it: Steps 1–2 never read the threshold.
    #[must_use]
    pub fn with_min_prob(&self, min_prob: f64) -> PipelineResult {
        place(
            self.program.clone(),
            self.pre_inline_profile.clone(),
            self.profile.clone(),
            self.inline_report,
            min_prob,
            &mut NoopObserver,
        )
    }

    /// What the same pipeline computes with `inline: None`: Steps 3–5 on
    /// `original`, the program this result was computed from, under its
    /// [`PipelineResult::pre_inline_profile`].
    #[must_use]
    pub fn without_inlining(&self, original: &Program, min_prob: f64) -> PipelineResult {
        let profile = &self.pre_inline_profile;
        place(
            original.clone(),
            profile.clone(),
            profile.clone(),
            InlineReport::measure(original, profile, original, profile),
            min_prob,
            &mut NoopObserver,
        )
    }
}

/// Orchestrates profiling, inlining, trace selection, function layout and
/// global layout.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// A pipeline with the given configuration.
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// Runs the full pipeline on `program` with the measured profiler
    /// of [`Pipeline::profiler`].
    #[must_use]
    pub fn run(&self, program: &Program) -> PipelineResult {
        self.run_observed_with_source(program, &self.profiler(), &mut NoopObserver)
    }

    /// [`Pipeline::check`], then [`Pipeline::run`].
    ///
    /// Use this on programs that arrive from outside the builder API
    /// (e.g. parsed from `.impact` assembly) or with user-supplied
    /// configurations.
    pub fn try_run(&self, program: &Program) -> Result<PipelineResult, PipelineError> {
        self.check(program)?;
        Ok(self.run(program))
    }

    /// Rejects a configuration the pipeline cannot meaningfully run with
    /// and a program that fails structural validation.
    pub fn check(&self, program: &Program) -> Result<(), PipelineError> {
        let bad = |reason: &str| PipelineError::BadConfig {
            reason: reason.to_string(),
        };
        if !(self.config.min_prob > 0.0 && self.config.min_prob <= 1.0) {
            return Err(bad(&format!(
                "min_prob must be in (0, 1], got {}",
                self.config.min_prob
            )));
        }
        Profiler::check_runs(self.config.profile_runs.into()).map_err(bad)?;
        self.config.limits.check().map_err(bad)?;
        Ok(program.validate()?)
    }

    /// The measured profiler the configuration describes: its runs, first
    /// seed and limits.
    #[must_use]
    pub fn profiler(&self) -> Profiler {
        Profiler::new()
            .runs(self.config.profile_runs)
            .base_seed(self.config.profile_base_seed)
            .limits(self.config.limits)
    }

    /// Runs the full pipeline on `program` with profiles drawn from
    /// `source`, reporting each [`Checkpoint`] to `observer` as it is
    /// reached. Checks nothing: call [`Pipeline::check`] first on
    /// unvetted input.
    ///
    /// A static frequency estimator as `source` (see `impact-analyze`)
    /// makes layout *profile-free*: the five steps run end to end
    /// without executing the program, and the config's `profile_runs`,
    /// `profile_base_seed` and `limits`, which parameterize only the
    /// measured profiler, go unused.
    #[must_use]
    pub fn run_observed_with_source(
        &self,
        program: &Program,
        source: &dyn ProfileSource,
        observer: &mut dyn PipelineObserver,
    ) -> PipelineResult {
        // Step 1: execution profiling (or static estimation).
        let pre_inline_profile = source.profile(program);
        observer.checkpoint(&Checkpoint::Profiled {
            program,
            profile: &pre_inline_profile,
        });

        // Step 2: function inline expansion. Pass 1 ranks sites by the
        // Step 1 profile; each later pass profiles its own input.
        let (inlined, known) = match &self.config.inline {
            Some(cfg) => {
                let (inlined, _, known) =
                    Inliner::new(*cfg).run_to_fixpoint(program, &pre_inline_profile, source);
                (inlined, known)
            }
            None => (program.clone(), Some(pre_inline_profile.clone())),
        };

        // Layout decisions must see weights for the cloned blocks. The
        // fixpoint's last pass already profiled the final program unless
        // `max_passes` ran out while it was still inlining.
        let profile = known.unwrap_or_else(|| source.profile(&inlined));
        observer.checkpoint(&Checkpoint::Inlined {
            program: &inlined,
            profile: &profile,
        });

        let inline_report = InlineReport::measure(program, &pre_inline_profile, &inlined, &profile);
        place(
            inlined,
            pre_inline_profile,
            profile,
            inline_report,
            self.config.min_prob,
            observer,
        )
    }
}

/// Steps 3–5 on `program` under `profile`: trace selection at
/// `min_prob`, function layout and global layout. Reports
/// [`Checkpoint::TracesSelected`] and then [`Checkpoint::Placed`].
fn place(
    program: Program,
    pre_inline_profile: Profile,
    profile: Profile,
    inline_report: InlineReport,
    min_prob: f64,
    observer: &mut dyn PipelineObserver,
) -> PipelineResult {
    // Step 3: trace selection.
    let selector = TraceSelector::new().min_prob(min_prob);
    let traces = selector.select_program(&program, &profile);
    observer.checkpoint(&Checkpoint::TracesSelected {
        program: &program,
        profile: &profile,
        traces: &traces,
    });

    // Step 4: function layout.
    let layouts: Vec<FunctionLayout> = program
        .functions()
        .map(|(fid, func)| FunctionLayout::compute(func, fid, &traces[fid.index()], &profile))
        .collect();

    // Step 5: global layout and address assignment.
    let global = GlobalOrder::compute(&program, &profile);
    let placement = Placement::assemble(&program, &global, &layouts);

    let trace_quality = TraceQuality::measure(&program, &profile, &traces);

    let result = PipelineResult {
        program,
        pre_inline_profile,
        profile,
        traces,
        layouts,
        global,
        placement,
        inline_report,
        trace_quality,
    };
    observer.checkpoint(&Checkpoint::Placed { result: &result });
    result
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, ProgramBuilder, Terminator};

    use super::*;

    /// main loops over a call to `work`; `work` has a hot path and a dead
    /// error handler.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let work = pb.reserve("work");
        let mut main = pb.function("main");
        let m0 = main.block_n(1);
        let m1 = main.block_n(1);
        let m2 = main.block_n(0);
        main.terminate(m0, Terminator::call(work, m1));
        main.terminate(m1, Terminator::branch(m0, m2, BranchBias::fixed(0.9)));
        main.terminate(m2, Terminator::Exit);
        let mid = main.finish();

        let mut w = pb.function_reserved(work);
        let w0 = w.block_n(2);
        let hot = w.block_n(3);
        let err = w.block_n(8);
        let out = w.block_n(1);
        w.terminate(w0, Terminator::branch(err, hot, BranchBias::fixed(0.0)));
        w.terminate(hot, Terminator::jump(out));
        w.terminate(err, Terminator::jump(out));
        w.terminate(out, Terminator::Return);
        w.finish();

        pb.set_entry(mid);
        pb.finish().unwrap()
    }

    #[test]
    fn full_pipeline_produces_valid_placement() {
        let p = program();
        let r = Pipeline::new(PipelineConfig::default()).run(&p);
        // Full validity is checked by the IPA verifier in
        // `tests/verify_placements.rs`.
        assert_eq!(r.placement.total_bytes(), r.program.total_bytes());
        assert!(r.global.is_permutation_of(&r.program));
        for (fid, func) in r.program.functions() {
            assert!(r.layouts[fid.index()].is_permutation_of(func));
            assert!(r.traces[fid.index()].is_partition_of(func));
        }
    }

    #[test]
    fn dead_code_is_outside_effective_region() {
        let p = program();
        let cfg = PipelineConfig {
            inline: None,
            ..PipelineConfig::default()
        };
        let r = Pipeline::new(cfg).run(&p);
        let work = r.program.function_by_name("work").unwrap();
        // The error handler (block 2 of work) never runs.
        let err_addr = r.placement.addr(work, impact_ir::BlockId::new(2));
        assert!(err_addr >= r.placement.effective_bytes());
        assert!(r.effective_static_bytes() < r.total_static_bytes());
    }

    #[test]
    fn inlining_affects_report() {
        let p = program();
        let cfg = PipelineConfig {
            inline: Some(crate::inline::InlineConfig {
                min_site_count: 1,
                min_site_fraction: 0.0,
                max_growth: 3.0,
                max_callee_bytes: 4096,
                max_passes: 3,
            }),
            ..PipelineConfig::default()
        };
        let r = Pipeline::new(cfg).run(&p);
        assert!(r.inline_report.call_decrease > 0.9);
        assert!(r.program.total_bytes() > p.total_bytes());
    }

    #[test]
    fn disabled_inlining_leaves_program_unchanged() {
        let p = program();
        let cfg = PipelineConfig {
            inline: None,
            ..PipelineConfig::default()
        };
        let r = Pipeline::new(cfg).run(&p);
        assert_eq!(r.program, p);
        assert_eq!(r.inline_report.call_decrease, 0.0);
    }

    #[test]
    fn zero_runs_break_the_one_runs_rule() {
        let cfg = PipelineConfig {
            profile_runs: 0,
            ..PipelineConfig::default()
        };
        let err = Pipeline::new(cfg).check(&program()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad pipeline config: runs must be a positive integer"
        );
    }

    #[test]
    fn pipeline_is_deterministic() {
        let p = program();
        let a = Pipeline::new(PipelineConfig::default()).run(&p);
        let b = Pipeline::new(PipelineConfig::default()).run(&p);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.profile, b.profile);
    }
}
