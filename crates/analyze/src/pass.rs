//! The pass framework: what a pass sees, and the registry that runs them.

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
use crate::cache::{ConflictConfig, ConflictPressure};
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

    /// Short machine-friendly name (e.g. `unreachable-blocks`).
    fn name(&self) -> &'static str;

    /// One-line description of what the pass checks.
    fn description(&self) -> &'static str;

    /// Runs the analysis. Passes whose required artifacts are absent
    /// from `ctx` return an empty vector.
    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic>;
}

/// An ordered collection of passes.
pub struct Registry {
    passes: Vec<Box<dyn Pass>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn empty() -> Self {
        Self { passes: Vec::new() }
    }

    /// The standard registry: every built-in analysis, program lints
    /// first, then placement verifiers, then cache-facing analyses.
    #[must_use]
    pub fn standard() -> Self {
        let mut r = Self::empty();
        r.register(Box::new(StructuralValidation));
        r.register(Box::new(UnreachableBlocks));
        r.register(Box::new(FlowConservation));
        r.register(Box::new(BranchMass));
        r.register(Box::new(RecursionCycles));
        r.register(Box::new(PlacementCoverage));
        r.register(Box::new(PlacementOverlap));
        r.register(Box::new(EffectiveSplit));
        r.register(Box::new(Alignment));
        r.register(Box::new(BrokenTraces));
        r.register(Box::new(ConflictPressure));
        r.register(Box::new(LoopFootprint));
        r.register(Box::new(LoopInterference));
        r.register(Box::new(StaticMissBound));
        r.register(Box::new(MisplacedFallThrough));
        r.register(Box::new(CallPairSeparation));
        r.register(Box::new(LoopLineStraddle));
        r.register(Box::new(HotColdInterleave));
        r.register(Box::new(StaticTrafficBound));
        r
    }

    /// Just the program-level lints (usable before any layout exists).
    #[must_use]
    pub fn program_lints() -> Self {
        let mut r = Self::empty();
        r.register(Box::new(StructuralValidation));
        r.register(Box::new(UnreachableBlocks));
        r.register(Box::new(FlowConservation));
        r.register(Box::new(BranchMass));
        r.register(Box::new(RecursionCycles));
        r
    }

    /// Just the placement verifiers.
    #[must_use]
    pub fn placement_verifiers() -> Self {
        let mut r = Self::empty();
        r.register(Box::new(PlacementCoverage));
        r.register(Box::new(PlacementOverlap));
        r.register(Box::new(EffectiveSplit));
        r.register(Box::new(Alignment));
        r.register(Box::new(BrokenTraces));
        r
    }

    /// The static cache-conflict analyses (`IPA301`–`IPA303`): loop
    /// footprints vs. geometry, interference between concurrently-hot
    /// loop bodies, and the estimated miss-ratio bound. This is what
    /// `impact analyze` runs on top of placement verification.
    #[must_use]
    pub fn static_analyses() -> Self {
        let mut r = Self::empty();
        r.register(Box::new(LoopFootprint));
        r.register(Box::new(LoopInterference));
        r.register(Box::new(StaticMissBound));
        r
    }

    /// The layout advisors (`IPA401`–`IPA405`): placement defects a
    /// reordering could fix, each reported with a concrete reorder
    /// hint. This is what `impact advise` runs on top of the static
    /// analyses.
    #[must_use]
    pub fn advisors() -> Self {
        let mut r = Self::empty();
        r.register(Box::new(MisplacedFallThrough));
        r.register(Box::new(CallPairSeparation));
        r.register(Box::new(LoopLineStraddle));
        r.register(Box::new(HotColdInterleave));
        r.register(Box::new(StaticTrafficBound));
        r
    }

    /// Appends a pass; it runs after all previously registered passes.
    pub fn register(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// The registered passes, in run order.
    pub fn passes(&self) -> impl Iterator<Item = &dyn Pass> {
        self.passes.iter().map(AsRef::as_ref)
    }

    /// Runs every pass over `ctx` and collects the findings.
    #[must_use]
    pub fn run(&self, ctx: &Context<'_>) -> Report {
        let mut report = Report::default();
        for pass in &self.passes {
            report.diagnostics.extend(pass.run(ctx));
        }
        report
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.passes.iter().map(|p| p.name()))
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_all_codes_uniquely() {
        let r = Registry::standard();
        let codes: Vec<&str> = r.passes().map(Pass::code).collect();
        assert_eq!(
            codes,
            vec![
                "IPA004", "IPA001", "IPA002", "IPA003", "IPA005", "IPA101", "IPA102", "IPA103",
                "IPA104", "IPA105", "IPA201", "IPA301", "IPA302", "IPA303", "IPA401", "IPA402",
                "IPA403", "IPA404", "IPA405"
            ]
        );
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "codes must be unique");
    }

    #[test]
    fn passes_have_descriptions() {
        for p in Registry::standard().passes() {
            assert!(!p.name().is_empty());
            assert!(!p.description().is_empty());
        }
    }
}
