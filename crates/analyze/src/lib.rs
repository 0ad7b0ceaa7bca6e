//! Pass-based static analysis and lints for the IMPACT-I pipeline.
//!
//! The reproduction's artifacts — [`Program`]s,
//! [`Profile`](impact_profile::Profile)s, trace assignments, and
//! [`Placement`]s — obey invariants that the rest of the codebase
//! mostly asserts in tests or not at all.
//! This crate makes them first-class: each invariant is a [`Pass`] with a
//! stable diagnostic code, passes come in fixed families
//! ([`PROGRAM_LINTS`], [`PLACEMENT_VERIFIERS`], [`STATIC_ANALYSES`],
//! [`ADVISORS`]), and [`pass::run`] runs a family over a [`Context`] to
//! produce a [`Report`] renderable as text or JSON.
//!
//! # Codes
//!
//! | Code | Severity | Checks |
//! |--------|---------|--------|
//! | IPA001 | warning | blocks unreachable from their function entry |
//! | IPA002 | error | profile flow conservation (Kirchhoff's law on block counts) |
//! | IPA003 | error | outgoing branch mass equals block execution count |
//! | IPA004 | error | structural validation (dangling callees, bad targets) |
//! | IPA005 | warning | call-graph cycles (functions the inliner must skip) |
//! | IPA101 | error | every block has an address |
//! | IPA102 | error | blocks tile memory: no overlaps, no gaps |
//! | IPA103 | error | effective / non-executed split honored |
//! | IPA104 | error | 4-byte instruction alignment |
//! | IPA105 | warning | selected traces broken across the layout |
//! | IPA201 | warning | hot lines contesting one direct-mapped cache set |
//! | IPA301 | warning | loop body footprint exceeds the cache capacity |
//! | IPA302 | warning | concurrently-hot loop bodies on overlapping cache sets |
//! | IPA303 | warning | estimated miss-ratio bound exceeds the threshold |
//! | IPA401 | warning | hot uncontested arc realized as a far transfer |
//! | IPA402 | warning | hot call pair separated beyond the cache tier |
//! | IPA403 | warning | loop hot core straddling avoidable cache lines |
//! | IPA404 | warning | never-executed bytes inside an executed span |
//! | IPA405 | warning | static memory-traffic bound exceeds the threshold |
//!
//! The contract: a checked pipeline run ([`run_checked`], what `impact
//! lint` and `POST /v1/lint` run) over any of the bundled workloads
//! lints **error-free**; warnings are informational.
//!
//! # Static estimation
//!
//! Beyond linting measured artifacts, this crate can run the whole
//! placement pipeline *without a profile*: [`freq::StaticProfiler`]
//! predicts the weighted call/control graphs from program structure
//! (loop nesting from [`flow`], Ball/Larus-style branch heuristics from
//! [`freq`]), and [`analyze_static`] feeds that prediction through the
//! five-step pipeline, verifies the resulting placement, and bounds its
//! miss ratio with [`conflict::estimate_miss_bound`]. `impact analyze`
//! is a thin wrapper over it.
//!
//! # Example
//!
//! ```
//! use impact_layout::pipeline::{Pipeline, PipelineConfig};
//!
//! let w = impact_workloads::by_name("wc").unwrap();
//! let pipeline = Pipeline::new(PipelineConfig::default());
//! let (_result, report) = impact_analyze::run_checked(&pipeline, &w.program).unwrap();
//! assert!(report.is_clean(), "{}", report.render());
//! ```

pub mod advisor;
pub mod cache;
pub mod conflict;
pub mod diag;
pub mod flow;
pub mod freq;
pub mod pass;
pub mod placement;
pub mod program;
pub mod score;

pub use cache::ConflictConfig;
pub use conflict::{estimate_miss_bound, MissBound};
pub use diag::{Diagnostic, Location, Report, Severity};
pub use freq::StaticProfiler;
pub use pass::{Context, Pass, ADVISORS, PLACEMENT_VERIFIERS, PROGRAM_LINTS, STATIC_ANALYSES};
pub use score::{score_placement, ScoreCard};

/// Version stamp of every JSON document this crate renders for the CLI
/// and the HTTP service (`impact analyze`/`impact advise` `--json`,
/// `/v1/analyze`, `/v1/advise`). Bump when a field changes meaning or
/// shape; consumers pin on it.
pub const SCHEMA_VERSION: u64 = 1;

use impact_ir::Program;
use impact_layout::pipeline::{
    Checkpoint, NoopObserver, Pipeline, PipelineConfig, PipelineError, PipelineObserver,
    PipelineResult,
};
use impact_layout::placement::Placement;

/// Verifies a placement against a program, explaining every violation.
///
/// An empty report means the placement covers the program exactly
/// (every block placed, no overlaps or gaps, aligned).
#[must_use]
pub fn verify_placement(program: &Program, placement: &Placement) -> Report {
    let ctx = Context::program_only(program).with_placement(placement);
    pass::run(pass::VERIFY_PLACEMENT, &ctx)
}

/// The result of a profile-free, end-to-end static analysis.
#[derive(Debug)]
pub struct StaticAnalysis {
    /// The pipeline output driven by the [`StaticProfiler`]'s predicted
    /// profile (`result.profile` *is* the static profile of the placed
    /// program).
    pub result: PipelineResult,
    /// Placement verification (`IPA101`–`IPA104`) plus the static
    /// cache-conflict analyses (`IPA301`–`IPA303`).
    pub report: Report,
    /// Analytic miss-ratio bound of the placement under the static
    /// profile at the configured geometry.
    pub miss_bound: MissBound,
    /// Normalized placement scores (ExtTSP and distance-tier) of the
    /// pipeline's placement under the static profile.
    pub scores: ScoreCard,
}

impl StaticAnalysis {
    /// The JSON document both `impact analyze --json` (one array entry
    /// per target) and `POST /v1/analyze` (a single object) emit —
    /// shared so the two surfaces cannot drift apart.
    #[must_use]
    pub fn to_json_for_target(&self, target: &str) -> impact_support::json::Json {
        use impact_support::json::Json;
        use impact_support::ToJson;

        let mut hot: Vec<(u64, String)> = self
            .result
            .program
            .functions()
            .map(|(fid, f)| (self.result.profile.func_weight(fid), f.name().to_owned()))
            .collect();
        hot.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let bound = self.miss_bound;
        Json::Obj(vec![
            ("schema_version".to_string(), SCHEMA_VERSION.to_json()),
            ("target".to_string(), target.to_json()),
            (
                "total_bytes".to_string(),
                self.result.placement.total_bytes().to_json(),
            ),
            ("scores".to_string(), scores_json(self.scores)),
            (
                "miss_bound".to_string(),
                Json::Obj(vec![
                    ("ratio".to_string(), bound.ratio().to_json()),
                    ("cold_lines".to_string(), bound.cold_lines.to_json()),
                    (
                        "conflict_weight".to_string(),
                        bound.conflict_weight.to_json(),
                    ),
                    ("accesses".to_string(), bound.accesses.to_json()),
                ]),
            ),
            (
                "hot_functions".to_string(),
                Json::Arr(
                    hot.iter()
                        .take(8)
                        .map(|(w, n)| {
                            Json::Obj(vec![
                                ("name".to_string(), n.as_str().to_json()),
                                ("estimated_weight".to_string(), w.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("report".to_string(), self.report.to_json()),
        ])
    }
}

/// Runs the five-step placement pipeline **without executing the
/// program**: the profile is predicted by [`StaticProfiler`], the
/// resulting placement is verified, and its miss ratio is bounded
/// analytically.
///
/// This is the engine behind `impact analyze` and `POST /v1/analyze`.
///
/// # Errors
///
/// Propagates [`PipelineError`] for invalid configs or malformed
/// programs, from [`Pipeline::check`].
pub fn analyze_static(
    program: &Program,
    config: &PipelineConfig,
    conflict: ConflictConfig,
) -> Result<StaticAnalysis, PipelineError> {
    let pipeline = Pipeline::new(config.clone());
    pipeline.check(program)?;
    let result = pipeline.run_observed_with_source(program, &StaticProfiler, &mut NoopObserver);
    let mut report = verify_placement(&result.program, &result.placement);
    let ctx = Context::of_result(&result).with_conflict(conflict);
    report
        .diagnostics
        .extend(pass::run(STATIC_ANALYSES, &ctx).diagnostics);
    let miss_bound = estimate_miss_bound(
        &result.program,
        &result.profile,
        &result.placement,
        &conflict,
    );
    let scores = score_placement(
        &result.program,
        &result.profile,
        &result.placement,
        conflict.line_bytes,
    );
    Ok(StaticAnalysis {
        result,
        report,
        miss_bound,
        scores,
    })
}

fn scores_json(scores: ScoreCard) -> impact_support::json::Json {
    use impact_support::json::Json;
    use impact_support::ToJson;
    Json::Obj(vec![
        ("exttsp".to_string(), scores.exttsp.to_json()),
        ("tier".to_string(), scores.tier.to_json()),
    ])
}

/// The result of a profile-free advisory run: a full [`StaticAnalysis`]
/// plus the layout advisors' findings (`IPA401`–`IPA405`) over the
/// pipeline's placement.
#[derive(Debug)]
pub struct Advice {
    /// The underlying static analysis (pipeline result, verification
    /// report, miss bound, scores).
    pub analysis: StaticAnalysis,
    /// The advisors' findings, each with a concrete reorder hint.
    pub advice: Report,
}

impl Advice {
    /// The JSON document both `impact advise --json` (one array entry
    /// per target) and `POST /v1/advise` (a single object) emit —
    /// shared so the two surfaces cannot drift apart.
    #[must_use]
    pub fn to_json_for_target(&self, target: &str) -> impact_support::json::Json {
        use impact_support::json::Json;
        use impact_support::ToJson;
        Json::Obj(vec![
            ("schema_version".to_string(), SCHEMA_VERSION.to_json()),
            ("target".to_string(), target.to_json()),
            (
                "total_bytes".to_string(),
                self.analysis.result.placement.total_bytes().to_json(),
            ),
            ("scores".to_string(), scores_json(self.analysis.scores)),
            (
                "miss_bound_ratio".to_string(),
                self.analysis.miss_bound.ratio().to_json(),
            ),
            ("advice".to_string(), self.advice.to_json()),
        ])
    }

    /// Differential advisory: compares the pipeline's placement against
    /// `baseline` (an alternative placement of the **same** post-inline
    /// program), reporting both score cards, their deltas, a per-pass
    /// finding-count regression table, and a `better` verdict (the
    /// pipeline placement strictly beats the baseline on ExtTSP).
    #[must_use]
    pub fn diff_json_for_target(
        &self,
        target: &str,
        baseline_name: &str,
        baseline: &Placement,
        conflict: ConflictConfig,
    ) -> impact_support::json::Json {
        use impact_support::json::Json;
        use impact_support::ToJson;

        let result = &self.analysis.result;
        let base_scores = score_placement(
            &result.program,
            &result.profile,
            baseline,
            conflict.line_bytes,
        );
        let ctx = Context::program_only(&result.program)
            .with_profile(&result.profile)
            .with_placement(baseline)
            .with_conflict(conflict);
        let base_advice = pass::run(ADVISORS, &ctx);
        let scores = self.analysis.scores;

        let regressions = ADVISORS
            .iter()
            .map(|p| {
                let code = p.code();
                Json::Obj(vec![
                    ("code".to_string(), code.to_json()),
                    (
                        "findings".to_string(),
                        self.advice.with_code(code).count().to_json(),
                    ),
                    (
                        "baseline_findings".to_string(),
                        base_advice.with_code(code).count().to_json(),
                    ),
                ])
            })
            .collect();

        Json::Obj(vec![
            ("schema_version".to_string(), SCHEMA_VERSION.to_json()),
            ("target".to_string(), target.to_json()),
            ("baseline".to_string(), baseline_name.to_json()),
            ("scores".to_string(), scores_json(scores)),
            ("baseline_scores".to_string(), scores_json(base_scores)),
            (
                "delta".to_string(),
                Json::Obj(vec![
                    (
                        "exttsp".to_string(),
                        (scores.exttsp - base_scores.exttsp).to_json(),
                    ),
                    (
                        "tier".to_string(),
                        (scores.tier - base_scores.tier).to_json(),
                    ),
                ]),
            ),
            ("regressions".to_string(), Json::Arr(regressions)),
            (
                "better".to_string(),
                (scores.exttsp > base_scores.exttsp).to_json(),
            ),
        ])
    }
}

/// Runs [`analyze_static`] and then the layout advisors over the
/// resulting placement — the engine behind `impact advise` and
/// `POST /v1/advise`.
///
/// # Errors
///
/// Propagates [`PipelineError`] exactly like [`analyze_static`].
pub fn advise_static(
    program: &Program,
    config: &PipelineConfig,
    conflict: ConflictConfig,
) -> Result<Advice, PipelineError> {
    let analysis = analyze_static(program, config, conflict)?;
    let ctx = Context::of_result(&analysis.result).with_conflict(conflict);
    let advice = pass::run(ADVISORS, &ctx);
    Ok(Advice { analysis, advice })
}

/// Checks the input ([`Pipeline::check`]), then runs the pipeline
/// linting its own intermediate artifacts (the "checked mode" behind
/// `impact lint` and `POST /v1/lint`).
///
/// [`PROGRAM_LINTS`] run on the profiled and the inlined program; the
/// [`PLACEMENT_VERIFIERS`] and cache conflict pressure (`IPA201`) run on
/// the final result. All findings accumulate into one [`Report`]
/// returned next to the pipeline output.
///
/// # Errors
///
/// Propagates [`PipelineError`] for invalid configs or malformed
/// programs, from [`Pipeline::check`].
pub fn run_checked(
    pipeline: &Pipeline,
    program: &Program,
) -> Result<(PipelineResult, Report), PipelineError> {
    pipeline.check(program)?;
    let mut observer = LintObserver::default();
    let result = pipeline.run_observed_with_source(program, &pipeline.profiler(), &mut observer);
    Ok((result, observer.report))
}

/// Observer that lints each pipeline checkpoint into one report.
#[derive(Debug, Default)]
struct LintObserver {
    report: Report,
}

impl PipelineObserver for LintObserver {
    fn checkpoint(&mut self, checkpoint: &Checkpoint<'_>) {
        match checkpoint {
            Checkpoint::Profiled { program, profile }
            | Checkpoint::Inlined { program, profile } => {
                let ctx = Context::program_only(program).with_profile(profile);
                self.report
                    .diagnostics
                    .extend(pass::run(PROGRAM_LINTS, &ctx).diagnostics);
            }
            // Trace selection is linted as part of the final result
            // (IPA105 needs the placement too).
            Checkpoint::TracesSelected { .. } => {}
            Checkpoint::Placed { result } => {
                let ctx = Context::of_result(result);
                let diagnostics = &mut self.report.diagnostics;
                diagnostics.extend(pass::run(PLACEMENT_VERIFIERS, &ctx).diagnostics);
                diagnostics.extend(cache::ConflictPressure.run(&ctx));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use impact_layout::pipeline::{Pipeline, PipelineConfig};

    use super::*;

    #[test]
    fn checked_pipeline_is_clean_on_a_workload() {
        let w = impact_workloads::by_name("tee").expect("tee exists");
        let pipeline = Pipeline::new(PipelineConfig::default());
        let (result, report) = run_checked(&pipeline, &w.program).expect("tee is well formed");
        assert!(report.is_clean(), "{}", report.render());
        // The checked run produced the same placement as a plain run.
        let plain = Pipeline::new(PipelineConfig::default()).run(&w.program);
        assert_eq!(result.placement, plain.placement);
    }

    #[test]
    fn lint_program_runs_without_layout_artifacts() {
        let w = impact_workloads::by_name("cmp").expect("cmp exists");
        let report = pass::run(PROGRAM_LINTS, &Context::program_only(&w.program));
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn static_analysis_places_every_workload_error_free() {
        for w in impact_workloads::all() {
            let analysis = analyze_static(
                &w.program,
                &PipelineConfig::default(),
                ConflictConfig::default(),
            )
            .expect("well-formed workload");
            assert_eq!(
                analysis.report.error_count(),
                0,
                "{}: {}",
                w.name,
                analysis.report.render()
            );
            let b = analysis.miss_bound;
            assert!(b.accesses > 0, "{}: static profile is non-trivial", w.name);
            assert!(b.ratio() >= 0.0 && b.ratio() <= 1.0);
        }
    }

    #[test]
    fn static_analysis_rejects_bad_config() {
        let w = impact_workloads::by_name("wc").expect("wc exists");
        let bad = PipelineConfig {
            min_prob: 0.0,
            ..PipelineConfig::default()
        };
        assert!(analyze_static(&w.program, &bad, ConflictConfig::default()).is_err());
    }

    #[test]
    fn run_checked_rejects_bad_config() {
        let w = impact_workloads::by_name("wc").expect("wc exists");
        let pipeline = Pipeline::new(PipelineConfig {
            min_prob: 0.0,
            ..PipelineConfig::default()
        });
        assert!(run_checked(&pipeline, &w.program).is_err());
    }
}
