//! The pass framework: what a pass sees, and the fixed pass families.

use impact_ir::Program;
use impact_layout::function_layout::FunctionLayout;
use impact_layout::pipeline::PipelineResult;
use impact_layout::placement::Placement;
use impact_layout::trace_select::TraceAssignment;
use impact_profile::Profile;

use crate::advisor::{
    CallPairSeparation, HotColdInterleave, LoopLineStraddle, MisplacedFallThrough,
    StaticTrafficBound,
};
use crate::cache::ConflictConfig;
use crate::conflict::{LoopFootprint, LoopInterference, StaticMissBound};
use crate::diag::{Diagnostic, Report};
use crate::placement::{
    Alignment, BrokenTraces, EffectiveSplit, PlacementCoverage, PlacementOverlap,
};
use crate::program::{
    BranchMass, FlowConservation, RecursionCycles, StructuralValidation, UnreachableBlocks,
};

/// Everything a pass may look at. The program is always present; the
/// other artifacts are filled in as the pipeline produces them, and a
/// pass that needs a missing artifact simply reports nothing.
#[derive(Debug, Clone, Copy)]
pub struct Context<'a> {
    /// The program under analysis (post-inlining when taken from a
    /// pipeline result).
    pub program: &'a Program,
    /// Execution profile of `program`.
    pub profile: Option<&'a Profile>,
    /// Per-function trace assignments, indexed by function id.
    pub traces: Option<&'a [TraceAssignment]>,
    /// Per-function effective / non-executed splits.
    pub layouts: Option<&'a [FunctionLayout]>,
    /// The final memory map.
    pub placement: Option<&'a Placement>,
    /// Geometry and thresholds for the cache conflict-pressure lint.
    pub conflict: ConflictConfig,
}

impl<'a> Context<'a> {
    /// A context holding only a program (program lints run, the rest
    /// skip).
    #[must_use]
    pub fn program_only(program: &'a Program) -> Self {
        Self {
            program,
            profile: None,
            traces: None,
            layouts: None,
            placement: None,
            conflict: ConflictConfig::default(),
        }
    }

    /// The full context for a finished pipeline run.
    #[must_use]
    pub fn of_result(result: &'a PipelineResult) -> Self {
        Self {
            program: &result.program,
            profile: Some(&result.profile),
            traces: Some(&result.traces),
            layouts: Some(&result.layouts),
            placement: Some(&result.placement),
            conflict: ConflictConfig::default(),
        }
    }

    /// Adds a profile.
    #[must_use]
    pub fn with_profile(mut self, profile: &'a Profile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Adds a placement.
    #[must_use]
    pub fn with_placement(mut self, placement: &'a Placement) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Overrides the conflict-pressure lint configuration.
    #[must_use]
    pub fn with_conflict(mut self, conflict: ConflictConfig) -> Self {
        self.conflict = conflict;
        self
    }
}

/// One analysis. Passes are stateless; all input comes from the
/// [`Context`].
pub trait Pass {
    /// The stable diagnostic code this pass emits (e.g. `IPA001`).
    fn code(&self) -> &'static str;

    /// Runs the analysis. Passes whose required artifacts are absent
    /// from `ctx` return an empty vector.
    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic>;
}

/// The program-level lints (`IPA001`–`IPA005`), usable before any
/// layout exists.
pub const PROGRAM_LINTS: &[&dyn Pass] = &[
    &StructuralValidation,
    &UnreachableBlocks,
    &FlowConservation,
    &BranchMass,
    &RecursionCycles,
];

/// The placement verifiers (`IPA101`–`IPA105`).
pub const PLACEMENT_VERIFIERS: &[&dyn Pass] = &[
    &PlacementCoverage,
    &PlacementOverlap,
    &EffectiveSplit,
    &Alignment,
    &BrokenTraces,
];

/// The static cache-conflict analyses (`IPA301`–`IPA303`): loop
/// footprints vs. geometry, interference between concurrently-hot
/// loop bodies, and the estimated miss-ratio bound. This is what
/// `impact analyze` runs on top of placement verification.
pub const STATIC_ANALYSES: &[&dyn Pass] = &[&LoopFootprint, &LoopInterference, &StaticMissBound];

/// The layout advisors (`IPA401`–`IPA405`): placement defects a
/// reordering could fix, each reported with a concrete reorder hint.
/// This is what `impact advise` runs on top of the static analyses.
pub const ADVISORS: &[&dyn Pass] = &[
    &MisplacedFallThrough,
    &CallPairSeparation,
    &LoopLineStraddle,
    &HotColdInterleave,
    &StaticTrafficBound,
];

/// What [`verify_placement`](crate::verify_placement) checks: coverage,
/// overlap and alignment, the verifiers that need only a program and a
/// placement.
pub(crate) const VERIFY_PLACEMENT: &[&dyn Pass] =
    &[&PlacementCoverage, &PlacementOverlap, &Alignment];

/// Runs `passes` in order over `ctx` and collects their findings.
#[must_use]
pub fn run(passes: &[&dyn Pass], ctx: &Context<'_>) -> Report {
    Report {
        diagnostics: passes.iter().flat_map(|p| p.run(ctx)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ConflictPressure;

    #[test]
    fn families_have_all_codes_uniquely() {
        let all: Vec<&str> = [
            PROGRAM_LINTS,
            PLACEMENT_VERIFIERS,
            &[&ConflictPressure],
            STATIC_ANALYSES,
            ADVISORS,
        ]
        .into_iter()
        .flatten()
        .map(|p| p.code())
        .collect();
        assert_eq!(
            all,
            vec![
                "IPA004", "IPA001", "IPA002", "IPA003", "IPA005", "IPA101", "IPA102", "IPA103",
                "IPA104", "IPA105", "IPA201", "IPA301", "IPA302", "IPA303", "IPA401", "IPA402",
                "IPA403", "IPA404", "IPA405"
            ]
        );
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "codes must be unique");
    }
}
