//! The pipeline profiles each distinct program once, and every profile it
//! hands on is the profile of the program beside it.
//!
//! Step 1 profiles the input; pass 1 of the inline fixpoint reuses that
//! profile; each later pass profiles its own input; and the final
//! program is profiled again only when `max_passes` ran out while the
//! last pass was still inlining. A counting [`ProfileSource`] pins those
//! call counts, and an observer re-profiles the program at every
//! [`Checkpoint`] to catch a stale profile reaching layout.

use std::cell::RefCell;

use impact_ir::Program;
use impact_layout::pipeline::{Checkpoint, PipelineObserver};
use impact_layout::{InlineConfig, Inliner, Pipeline, PipelineConfig};
use impact_profile::{ExecLimits, Profile, ProfileSource, Profiler};

/// A [`Profiler`] that remembers every program it was asked to profile.
struct Counting {
    inner: Profiler,
    seen: RefCell<Vec<Program>>,
}

impl ProfileSource for Counting {
    fn profile(&self, program: &Program) -> Profile {
        self.seen.borrow_mut().push(program.clone());
        self.inner.profile(program)
    }
}

/// Requires the profile at every checkpoint to equal a fresh profile of
/// that checkpoint's program.
struct Fresh<'a> {
    profiler: &'a Profiler,
    checkpoints: usize,
}

impl Fresh<'_> {
    fn check(&mut self, what: &str, program: &Program, profile: &Profile) {
        assert_eq!(
            *profile,
            self.profiler.profile(program),
            "stale profile at {what}"
        );
        self.checkpoints += 1;
    }
}

impl PipelineObserver for Fresh<'_> {
    fn checkpoint(&mut self, checkpoint: &Checkpoint<'_>) {
        match checkpoint {
            Checkpoint::Profiled { program, profile } => self.check("Profiled", program, profile),
            Checkpoint::Inlined { program, profile } => self.check("Inlined", program, profile),
            Checkpoint::TracesSelected {
                program, profile, ..
            } => self.check("TracesSelected", program, profile),
            Checkpoint::Placed { result } => {
                self.check("Placed", &result.program, &result.profile);
            }
            _ => unreachable!("the pipeline has four checkpoints"),
        }
    }
}

/// Runs `config` on `program` through a counting source and the
/// freshness observer; returns the programs profiled, in order.
fn profiled_programs(config: &PipelineConfig, program: &Program) -> Vec<Program> {
    let profiler = Profiler::new()
        .runs(config.profile_runs)
        .base_seed(config.profile_base_seed)
        .limits(config.limits);
    let source = Counting {
        inner: profiler.clone(),
        seen: RefCell::new(Vec::new()),
    };
    let mut fresh = Fresh {
        profiler: &profiler,
        checkpoints: 0,
    };
    let result =
        Pipeline::new(config.clone()).run_observed_with_source(program, &source, &mut fresh);
    assert_eq!(fresh.checkpoints, 4);
    assert_eq!(result.pre_inline_profile, profiler.profile(program));
    source.seen.into_inner()
}

/// The repro pipeline configuration at a reduced profiling budget.
fn config(inline: Option<InlineConfig>) -> PipelineConfig {
    PipelineConfig {
        inline,
        profile_runs: 4,
        limits: ExecLimits::capped(150_000),
        ..PipelineConfig::default()
    }
}

/// Sites inlined by the first two passes of the default fixpoint.
fn first_two_passes(program: &Program) -> (usize, usize) {
    let cfg = config(None);
    let profiler = Profiler::new().runs(cfg.profile_runs).limits(cfg.limits);
    let inliner = Inliner::new(InlineConfig::default());
    let bytes = program.total_bytes();
    let first = inliner.expand(program, &profiler.profile(program), bytes);
    let second = inliner.expand(&first.program, &profiler.profile(&first.program), bytes);
    (first.sites_inlined, second.sites_inlined)
}

#[test]
fn a_fixpoint_ending_on_a_zero_site_pass_profiles_twice() {
    let mut two_pass = 0;
    for w in impact_workloads::all() {
        let seen = profiled_programs(&config(Some(InlineConfig::default())), &w.program);
        assert_eq!(seen[0], w.program, "{}", w.name);
        match first_two_passes(&w.program) {
            // Nothing inlinable is hot (wc, tee): pass 1 inlines nothing,
            // so Step 1's profile is the final program's.
            (0, _) => assert_eq!(seen.len(), 1, "{}", w.name),
            // Step 1 (reused by pass 1), then pass 2, which inlines
            // nothing and so profiles the final program.
            (_, 0) => {
                assert_eq!(seen.len(), 2, "{}", w.name);
                two_pass += 1;
            }
            (_, _) => panic!("{}: the fixpoint needs a third pass", w.name),
        }
    }
    assert!(two_pass >= 8, "only {two_pass} workloads inline in pass 1");
}

#[test]
fn disabled_inlining_profiles_once() {
    for w in impact_workloads::all() {
        let seen = profiled_programs(&config(None), &w.program);
        assert_eq!(seen, [w.program], "{}", w.name);
    }
}

#[test]
fn exhausted_passes_profile_the_final_program() {
    let one_pass = Some(InlineConfig {
        max_passes: 1,
        ..InlineConfig::default()
    });
    for w in impact_workloads::all() {
        let seen = profiled_programs(&config(one_pass), &w.program);
        assert_eq!(seen[0], w.program, "{}", w.name);
        if first_two_passes(&w.program).0 == 0 {
            assert_eq!(seen.len(), 1, "{}", w.name);
            continue;
        }
        // Pass 1 reuses Step 1's profile and still inlines, so the
        // pipeline must profile its output rather than reuse pass 1's.
        let final_program = Pipeline::new(config(one_pass)).run(&w.program).program;
        assert_eq!(seen, [w.program, final_program], "{}", w.name);
    }
}
