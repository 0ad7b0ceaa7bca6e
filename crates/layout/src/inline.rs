//! Step 2 — function inline expansion.
//!
//! "The function calls (arcs in the weighted call graph) with high
//! execution count are replaced with the function body if possible. The
//! goal is to transform all the important inter-function control
//! transfers into intra-function control transfers."
//!
//! The inliner works in passes: each pass consumes a fresh profile, ranks
//! call sites by dynamic count, and splices the callee body into the
//! caller for every eligible site. The first pass reuses the caller's
//! profile of the input program; re-profiling before each later pass
//! (cheap here, where "running the program" is interpreting a model)
//! gives exact weights for call sites exposed by earlier inlining.
//! Recursive callees — any callee that can reach its caller in the static
//! call graph — are never inlined, and growth is bounded by a
//! configurable multiple of the original program size (the paper reports
//! 0–34 % static growth).

use std::borrow::Cow;

use impact_ir::{BlockId, FuncId, Function, Program, Terminator};
use impact_profile::{Profile, ProfileSource};

/// Tuning knobs for the inliner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InlineConfig {
    /// A site must execute at least this many times to be considered.
    pub min_site_count: u64,
    /// A site must carry at least this fraction of all dynamic calls.
    pub min_site_fraction: f64,
    /// Static code size may grow to at most `max_growth` times the
    /// original program size.
    pub max_growth: f64,
    /// Callees larger than this many bytes are never inlined.
    pub max_callee_bytes: u64,
    /// Maximum number of profile-and-inline passes.
    pub max_passes: u32,
}

impl Default for InlineConfig {
    /// Defaults tuned to reproduce the paper's Table 3 behavior: most
    /// dynamic calls eliminated at modest (tens of percent) static
    /// growth.
    fn default() -> Self {
        Self {
            min_site_count: 64,
            min_site_fraction: 0.005,
            max_growth: 1.35,
            max_callee_bytes: 2048,
            max_passes: 4,
        }
    }
}

/// Outcome of one inlining pass.
#[derive(Debug, Clone, PartialEq)]
pub struct InlinePass {
    /// The transformed program.
    pub program: Program,
    /// Number of call sites inlined in this pass.
    pub sites_inlined: usize,
}

/// The function inline expander.
#[derive(Debug, Clone, Default)]
pub struct Inliner {
    config: InlineConfig,
}

impl Inliner {
    /// An inliner with [`InlineConfig::default`].
    #[must_use]
    pub fn new(config: InlineConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &InlineConfig {
        &self.config
    }

    /// Runs profile–inline passes to a fixpoint (or `max_passes`).
    ///
    /// Pass 1 ranks sites by `profile`, which must be `source`'s profile
    /// of `program`. Every later pass needs fresh weights for the call
    /// sites exposed by earlier inlining, so it queries `source` on the
    /// transformed program. The source may be a measured
    /// [`Profiler`](impact_profile::Profiler) or any other
    /// [`ProfileSource`] (e.g. a static estimator).
    ///
    /// Returns the transformed program, the total number of sites
    /// inlined, and the profile of the returned program when the fixpoint
    /// knows it: after a pass that inlined nothing, whose input is the
    /// output. It is `None` when `max_passes` ran out before such a pass.
    /// The growth bound is measured against the size of the program
    /// passed in.
    #[must_use]
    pub fn run_to_fixpoint(
        &self,
        program: &Program,
        profile: &Profile,
        source: &dyn ProfileSource,
    ) -> (Program, usize, Option<Profile>) {
        let original_bytes = program.total_bytes();
        let mut current = program.clone();
        let mut profile = Cow::Borrowed(profile);
        let mut total_sites = 0;
        for pass_no in 0..self.config.max_passes {
            if pass_no > 0 {
                profile = Cow::Owned(source.profile(&current));
            }
            let pass = self.expand(&current, &profile, original_bytes);
            total_sites += pass.sites_inlined;
            current = pass.program;
            if pass.sites_inlined == 0 {
                return (current, total_sites, Some(profile.into_owned()));
            }
        }
        (current, total_sites, None)
    }

    /// One inlining pass over `program` using `profile` for site weights.
    ///
    /// `original_bytes` anchors the growth bound (pass the size of the
    /// pre-inlining program so multi-pass growth is bounded globally).
    #[must_use]
    pub fn expand(&self, program: &Program, profile: &Profile, original_bytes: u64) -> InlinePass {
        let total_calls: u64 = profile.totals.calls;
        if total_calls == 0 {
            return InlinePass {
                program: program.clone(),
                sites_inlined: 0,
            };
        }

        let cg = program.call_graph();
        // Eligible sites, heaviest first (ties by caller/block id).
        let mut sites: Vec<(FuncId, BlockId, FuncId, u64)> = cg
            .sites()
            .iter()
            .filter_map(|s| {
                let w = profile.call_site_weight(s.caller, s.block);
                (w > 0).then_some((s.caller, s.block, s.callee, w))
            })
            .collect();
        sites.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));

        let mut funcs: Vec<Function> = program.functions().map(|(_, f)| f.clone()).collect();
        let mut current_bytes = program.total_bytes();
        let budget = (original_bytes as f64 * self.config.max_growth) as u64;
        let mut inlined = 0;

        for (caller, block, callee, w) in sites {
            if w < self.config.min_site_count {
                continue;
            }
            if (w as f64) < self.config.min_site_fraction * total_calls as f64 {
                continue;
            }
            if callee == caller {
                continue;
            }
            // Never inline a recursive callee ("if possible" in the
            // paper): a self- or mutually-recursive body cannot be fully
            // absorbed — the spliced copy still calls the original, so the
            // dynamic calls would survive and code could blow up across
            // passes. This also covers cycles that pass through the
            // caller.
            if cg.is_recursive(callee) {
                continue;
            }
            let callee_bytes = funcs[callee.index()].size_bytes();
            if callee_bytes > self.config.max_callee_bytes {
                continue;
            }
            if current_bytes + callee_bytes > budget {
                continue;
            }

            let callee_fn = funcs[callee.index()].clone();
            inline_site(&mut funcs[caller.index()], block, &callee_fn);
            current_bytes += callee_bytes;
            inlined += 1;
        }

        let program = Program::from_parts(funcs, program.entry())
            .expect("inlining preserves program validity");
        InlinePass {
            program,
            sites_inlined: inlined,
        }
    }
}

/// Splices `callee` into `caller` at the call in `site`.
///
/// The callee's blocks are appended to the caller with intra-function
/// targets remapped; `Return`s become jumps to the original call's return
/// continuation; the call terminator becomes a jump to the cloned entry.
fn inline_site(caller: &mut Function, site: BlockId, callee: &Function) {
    let Terminator::Call { ret_to, .. } = *caller.block(site).terminator() else {
        panic!("inline_site requires a call terminator at {site}");
    };
    let base = caller.block_count();
    let remap = |b: BlockId| BlockId::new(base + b.index());

    for (_, cb) in callee.blocks() {
        let mut clone = cb.clone();
        let new_term = match clone.terminator().clone() {
            Terminator::Jump { target } => Terminator::Jump {
                target: remap(target),
            },
            Terminator::Branch {
                taken,
                not_taken,
                bias,
            } => Terminator::Branch {
                taken: remap(taken),
                not_taken: remap(not_taken),
                bias,
            },
            Terminator::Switch { targets } => Terminator::Switch {
                targets: targets.into_iter().map(|(t, w)| (remap(t), w)).collect(),
            },
            Terminator::Call {
                callee: inner,
                ret_to: inner_ret,
            } => Terminator::Call {
                callee: inner,
                ret_to: remap(inner_ret),
            },
            Terminator::Return => Terminator::Jump { target: ret_to },
            Terminator::Exit => Terminator::Exit,
        };
        clone.set_terminator(new_term);
        caller.push_block(clone);
    }

    caller.block_mut(site).set_terminator(Terminator::Jump {
        target: remap(callee.entry()),
    });
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, ProgramBuilder};
    use impact_profile::Profiler;

    use super::*;

    /// main loops calling `hot`; `hot` calls `leaf`; `cold` called once;
    /// `rec` is self-recursive and called often.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let hot = pb.reserve("hot");
        let cold = pb.reserve("cold");
        let leaf = pb.reserve("leaf");
        let rec = pb.reserve("rec");

        let mut main = pb.function("main");
        let m0 = main.block_n(1);
        let m1 = main.block_n(1);
        let m2 = main.block_n(1);
        let m3 = main.block_n(1);
        let m4 = main.block_n(0);
        main.terminate(m0, Terminator::call(hot, m1));
        main.terminate(m1, Terminator::call(rec, m2));
        main.terminate(m2, Terminator::branch(m0, m3, BranchBias::fixed(0.95)));
        main.terminate(m3, Terminator::call(cold, m4));
        main.terminate(m4, Terminator::Exit);
        let main_id = main.finish();

        let mut h = pb.function_reserved(hot);
        let h0 = h.block_n(2);
        let h1 = h.block_n(1);
        h.terminate(h0, Terminator::call(leaf, h1));
        h.terminate(h1, Terminator::Return);
        h.finish();

        let mut c = pb.function_reserved(cold);
        let c0 = c.block_n(3);
        c.terminate(c0, Terminator::Return);
        c.finish();

        let mut l = pb.function_reserved(leaf);
        let l0 = l.block_n(1);
        l.terminate(l0, Terminator::Return);
        l.finish();

        let mut r = pb.function_reserved(rec);
        let r0 = r.block_n(1);
        let r1 = r.block_n(0);
        let r2 = r.block_n(0);
        r.terminate(r0, Terminator::branch(r1, r2, BranchBias::fixed(0.3)));
        r.terminate(r1, Terminator::call(rec, r2));
        r.terminate(r2, Terminator::Return);
        r.finish();

        pb.set_entry(main_id);
        pb.finish().unwrap()
    }

    fn profiler() -> Profiler {
        Profiler::new().runs(8)
    }

    /// Inlines `p` to a fixpoint with [`profiler`] as the profile source.
    fn inline(config: InlineConfig, p: &Program) -> (Program, usize) {
        let (out, sites, _) =
            Inliner::new(config).run_to_fixpoint(p, &profiler().profile(p), &profiler());
        (out, sites)
    }

    fn loose_config() -> InlineConfig {
        InlineConfig {
            min_site_count: 8,
            min_site_fraction: 0.0,
            max_growth: 3.0,
            max_callee_bytes: 4096,
            max_passes: 4,
        }
    }

    #[test]
    fn hot_sites_are_inlined() {
        let p = program();
        let (out, sites) = inline(loose_config(), &p);
        assert!(
            sites >= 2,
            "expected hot and leaf sites inlined, got {sites}"
        );
        // main grew by at least hot's body.
        assert!(out.function(out.entry()).block_count() > p.function(p.entry()).block_count());
        out.validate().unwrap();
    }

    #[test]
    fn inlining_eliminates_most_dynamic_calls() {
        let p = program();
        let before = profiler().profile(&p);
        let (out, _) = inline(loose_config(), &p);
        let after = profiler().profile(&out);
        // The recursive `rec` calls legitimately survive; the hot and
        // leaf sites (over half the dynamic calls) must disappear.
        assert!(
            after.totals.calls * 2 < before.totals.calls,
            "calls before {} vs after {}: expected >50% eliminated",
            before.totals.calls,
            after.totals.calls
        );
        // Same work still happens: the instruction count does not collapse.
        let ratio = after.totals.instructions as f64 / before.totals.instructions as f64;
        assert!((0.5..1.5).contains(&ratio), "instruction ratio {ratio}");
    }

    #[test]
    fn recursive_callee_is_never_inlined() {
        let p = program();
        let (out, _) = inline(loose_config(), &p);
        let rec = out.function_by_name("rec").unwrap();
        // rec still calls itself, and some call site to rec remains.
        let cg = out.call_graph();
        assert!(cg.is_recursive(rec));
        let prof = profiler().profile(&out);
        assert!(prof.func_weight(rec) > 0, "rec must still be invoked");
    }

    #[test]
    fn cold_site_is_left_alone() {
        let p = program();
        let cfg = InlineConfig {
            min_site_count: 64,
            ..loose_config()
        };
        let (out, _) = inline(cfg, &p);
        let cold = out.function_by_name("cold").unwrap();
        let cg = out.call_graph();
        // Someone still calls cold (once-per-run site below threshold).
        assert!(cg.sites().iter().any(|s| s.callee == cold));
    }

    #[test]
    fn growth_budget_is_respected() {
        let p = program();
        let cfg = InlineConfig {
            max_growth: 1.1,
            ..loose_config()
        };
        let (out, _) = inline(cfg, &p);
        assert!(
            out.total_bytes() as f64 <= p.total_bytes() as f64 * 1.1 + 1.0,
            "grew from {} to {}",
            p.total_bytes(),
            out.total_bytes()
        );
    }

    #[test]
    fn zero_passes_is_identity() {
        let p = program();
        let cfg = InlineConfig {
            max_passes: 0,
            ..loose_config()
        };
        let (out, sites) = inline(cfg, &p);
        assert_eq!(sites, 0);
        assert_eq!(out, p);
    }

    #[test]
    fn inlined_program_behaves_identically_in_expectation() {
        // Block weights of surviving structure should be statistically
        // similar: main's loop header executes the same count.
        let p = program();
        let before = profiler().profile(&p);
        let (out, _) = inline(loose_config(), &p);
        let after = profiler().profile(&out);
        let b = before.block_weight(p.entry(), BlockId::new(0)) as f64;
        let a = after.block_weight(out.entry(), BlockId::new(0)) as f64;
        assert!(
            (a / b - 1.0).abs() < 0.5,
            "loop header weight drifted: {b} -> {a}"
        );
    }

    #[test]
    fn multi_pass_inlining_reaches_nested_call_chains() {
        // main -> a -> b -> c: pass 1 inlines a into main (exposing the
        // b-site inside main), pass 2 inlines b, pass 3 inlines c.
        let mut pb = ProgramBuilder::new();
        let a = pb.reserve("a");
        let b = pb.reserve("b");
        let c = pb.reserve("c");
        let mut main = pb.function("main");
        let m0 = main.block_n(1);
        let m1 = main.block_n(1);
        let m2 = main.block_n(0);
        main.terminate(m0, Terminator::call(a, m1));
        main.terminate(m1, Terminator::branch(m0, m2, BranchBias::fixed(0.9)));
        main.terminate(m2, Terminator::Exit);
        let mid = main.finish();
        for (id, callee) in [(a, Some(b)), (b, Some(c)), (c, None)] {
            let mut f = pb.function_reserved(id);
            let f0 = f.block_n(1);
            let f1 = f.block_n(0);
            match callee {
                Some(inner) => f.terminate(f0, Terminator::call(inner, f1)),
                None => f.terminate(f0, Terminator::jump(f1)),
            }
            f.terminate(f1, Terminator::Return);
            f.finish();
        }
        pb.set_entry(mid);
        let p = pb.finish().unwrap();

        let (out, sites, known) =
            Inliner::new(loose_config()).run_to_fixpoint(&p, &profiler().profile(&p), &profiler());
        assert!(sites >= 3, "expected the whole chain inlined, got {sites}");
        let after = profiler().profile(&out);
        assert_eq!(
            known.as_ref(),
            Some(&after),
            "a zero-site pass ends the fixpoint"
        );
        assert_eq!(
            after.totals.calls, 0,
            "the entire a->b->c chain should collapse into main"
        );
    }

    #[test]
    fn exhausted_passes_leave_the_output_profile_unknown() {
        let p = program();
        let cfg = InlineConfig {
            max_passes: 1,
            ..loose_config()
        };
        let (_, sites, known) =
            Inliner::new(cfg).run_to_fixpoint(&p, &profiler().profile(&p), &profiler());
        assert!(sites > 0);
        assert_eq!(known, None);
    }

    #[test]
    fn inline_site_rewrites_returns_to_continuation() {
        let p = program();
        let prof = profiler().profile(&p);
        let pass = Inliner::new(loose_config()).expand(&p, &prof, p.total_bytes());
        let main = pass.program.function(pass.program.entry());
        // No cloned block in main may end in Return (main had none before).
        for (_, b) in main.blocks() {
            assert!(
                !matches!(b.terminator(), Terminator::Return),
                "a cloned Return survived in main"
            );
        }
    }
}
