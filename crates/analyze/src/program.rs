//! Program-level lints: structure, reachability, and profile
//! consistency (`IPA001`–`IPA005`).

use std::collections::BTreeMap;

use impact_ir::{FuncId, Program, Terminator, ValidateError};

use crate::diag::{Diagnostic, Location};
use crate::pass::{Context, Pass};

/// `IPA001` — blocks no path from the function entry can reach.
///
/// Unreachable code is never placed on a trace and inflates the
/// non-executed region; in a generated program it usually means the
/// builder wired a terminator to the wrong block.
pub struct UnreachableBlocks;

impl Pass for UnreachableBlocks {
    fn code(&self) -> &'static str {
        "IPA001"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, func) in ctx.program.functions() {
            let mut seen = vec![false; func.block_count()];
            let mut stack = vec![func.entry()];
            seen[func.entry().index()] = true;
            while let Some(b) = stack.pop() {
                for succ in func.block(b).terminator().successors() {
                    if !seen[succ.index()] {
                        seen[succ.index()] = true;
                        stack.push(succ);
                    }
                }
            }
            for (bid, _) in func.blocks() {
                if !seen[bid.index()] {
                    out.push(Diagnostic::warning(
                        self.code(),
                        Location::block(func.name(), bid.index()),
                        format!(
                            "block {bid} of {:?} is unreachable from the function entry",
                            func.name()
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// `IPA002` — Kirchhoff-style flow conservation of the profile.
///
/// For every block, the weighted incoming arcs (plus invocations, for the
/// function entry) must account for the block's execution count. A
/// truncated profiling run may strand up to one unit of flow, so when the
/// profile is marked truncated the check allows `runs` units of slack on
/// the incoming side; counts exceeding incoming flow are always an error.
pub struct FlowConservation;

impl Pass for FlowConservation {
    fn code(&self) -> &'static str {
        "IPA002"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let Some(profile) = ctx.profile else {
            return Vec::new();
        };
        let mut out = Vec::new();
        // Each truncated run can leave one transfer recorded whose
        // destination block was never entered.
        let slack = if profile.totals.truncated {
            u64::from(profile.runs)
        } else {
            0
        };
        for (fid, func) in ctx.program.functions() {
            if fid.index() >= profile.funcs.len() {
                out.push(Diagnostic::error(
                    self.code(),
                    Location::function(func.name()),
                    format!("profile has no data for function {:?}", func.name()),
                ));
                continue;
            }
            let fp = profile.function(fid);
            let mut incoming: BTreeMap<usize, u64> = BTreeMap::new();
            for (&(_, to), &w) in &fp.arcs {
                *incoming.entry(to.index()).or_insert(0) += w;
            }
            *incoming.entry(func.entry().index()).or_insert(0) += fp.invocations;
            for (bid, _) in func.blocks() {
                let count = fp.block_counts[bid.index()];
                let inflow = incoming.get(&bid.index()).copied().unwrap_or(0);
                if count > inflow || inflow - count > slack {
                    out.push(Diagnostic::error(
                        self.code(),
                        Location::block(func.name(), bid.index()),
                        format!(
                            "flow imbalance at {}/{bid}: executed {count} times but \
                             incoming flow is {inflow} (slack {slack})",
                            func.name()
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// `IPA003` — outgoing branch mass must match the block count.
///
/// Every execution of a jump/branch/switch block records exactly one
/// outgoing arc, so the arc mass leaving such a block must equal its
/// execution count (dynamic branch probabilities summing to 1). Call
/// blocks only bound the mass from above: a call whose callee exits the
/// program records no continuation arc.
pub struct BranchMass;

impl Pass for BranchMass {
    fn code(&self) -> &'static str {
        "IPA003"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let Some(profile) = ctx.profile else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (fid, func) in ctx.program.functions() {
            if fid.index() >= profile.funcs.len() {
                continue; // IPA002 reports the shape mismatch.
            }
            let fp = profile.function(fid);
            let mut outgoing: BTreeMap<usize, u64> = BTreeMap::new();
            for (&(from, _), &w) in &fp.arcs {
                *outgoing.entry(from.index()).or_insert(0) += w;
            }
            for (bid, block) in func.blocks() {
                let count = fp.block_counts[bid.index()];
                let mass = outgoing.get(&bid.index()).copied().unwrap_or(0);
                let diag = |msg: String| {
                    Diagnostic::error(self.code(), Location::block(func.name(), bid.index()), msg)
                };
                match block.terminator() {
                    Terminator::Jump { .. }
                    | Terminator::Branch { .. }
                    | Terminator::Switch { .. } => {
                        if mass != count {
                            out.push(diag(format!(
                                "branch mass of {}/{bid} is {mass} but the block \
                                 executed {count} times",
                                func.name()
                            )));
                        }
                    }
                    Terminator::Call { .. } => {
                        if mass > count {
                            out.push(diag(format!(
                                "call continuation mass of {}/{bid} is {mass}, more than \
                                 its {count} executions",
                                func.name()
                            )));
                        }
                    }
                    Terminator::Return | Terminator::Exit => {
                        if mass != 0 {
                            out.push(diag(format!(
                                "exit block {}/{bid} has outgoing intra-function mass {mass}",
                                func.name()
                            )));
                        }
                    }
                }
            }
        }
        out
    }
}

/// `IPA004` — bridge from [`Program::validate`] to diagnostics.
///
/// Programs built through `ProgramBuilder` are validated on construction,
/// so this pass fires only on artifacts that bypassed the builder (hand
/// -assembled or transformed programs); it exists so a lint run surfaces
/// structural breakage — dangling callees, out-of-range targets — with
/// the same reporting machinery as everything else.
pub struct StructuralValidation;

impl StructuralValidation {
    /// Converts one validation error into its `IPA004` diagnostic.
    #[must_use]
    pub fn diagnostic_of(program: &Program, err: &ValidateError) -> Diagnostic {
        let location = match err {
            ValidateError::UndefinedFunction { func, .. }
            | ValidateError::EmptyFunctionName { func }
            | ValidateError::EmptyFunction { func }
            | ValidateError::BadEntryBlock { func, .. } => func_location(program, *func),
            ValidateError::DanglingBlockTarget { func, block, .. }
            | ValidateError::DanglingCallee { func, block, .. }
            | ValidateError::UnselectableSwitch { func, block } => {
                match func_name(program, *func) {
                    Some(name) => Location::block(name, block.index()),
                    None => Location::program(),
                }
            }
            ValidateError::DuplicateFunctionName { .. }
            | ValidateError::EmptyProgram
            | ValidateError::NoEntryFunction
            | ValidateError::BadEntryFunction { .. } => Location::program(),
            _ => Location::program(),
        };
        Diagnostic::error("IPA004", location, err.to_string())
    }
}

impl Pass for StructuralValidation {
    fn code(&self) -> &'static str {
        "IPA004"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        match ctx.program.validate() {
            Ok(()) => Vec::new(),
            Err(e) => vec![Self::diagnostic_of(ctx.program, &e)],
        }
    }
}

/// `IPA005` — functions on call-graph cycles.
///
/// The inliner skips recursive functions (§3.2's inline expansion only
/// handles non-recursive call sites), so recursion caps how much call
/// overhead Step 2 can remove. Reported as a warning: recursion is legal,
/// just worth knowing about when inlining numbers look poor.
pub struct RecursionCycles;

impl Pass for RecursionCycles {
    fn code(&self) -> &'static str {
        "IPA005"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let cg = ctx.program.call_graph();
        let mut out = Vec::new();
        for (fid, func) in ctx.program.functions() {
            if cg.is_recursive(fid) {
                let weight = ctx.profile.map(|p| p.func_weight(fid));
                let hint = match weight {
                    Some(w) => format!(" (invoked {w} times in the profile)"),
                    None => String::new(),
                };
                out.push(Diagnostic::warning(
                    self.code(),
                    Location::function(func.name()),
                    format!(
                        "function {:?} is on a call-graph cycle and cannot be inlined{hint}",
                        func.name()
                    ),
                ));
            }
        }
        out
    }
}

/// Function-scoped location, falling back to program scope when the id
/// is out of range (possible precisely because the program is invalid).
fn func_location(program: &Program, fid: FuncId) -> Location {
    match func_name(program, fid) {
        Some(name) => Location::function(name),
        None => Location::program(),
    }
}

fn func_name(program: &Program, fid: FuncId) -> Option<String> {
    (fid.index() < program.function_count()).then(|| program.function(fid).name().to_string())
}

#[cfg(test)]
mod tests {
    use impact_ir::{BlockId, BranchBias, ProgramBuilder, Terminator};
    use impact_profile::Profiler;

    use super::*;

    /// main loops, calling a helper; one block is unreachable.
    fn program_with_unreachable() -> Program {
        let mut pb = ProgramBuilder::new();
        let helper = pb.reserve("helper");
        let mut main = pb.function("main");
        let m0 = main.block_n(1);
        let m1 = main.block_n(2);
        let m2 = main.block_n(0);
        let orphan = main.block_n(3);
        main.terminate(m0, Terminator::call(helper, m1));
        main.terminate(m1, Terminator::branch(m0, m2, BranchBias::fixed(0.7)));
        main.terminate(m2, Terminator::Exit);
        main.terminate(orphan, Terminator::jump(m2));
        let mid = main.finish();
        let mut h = pb.function_reserved(helper);
        let h0 = h.block_n(2);
        h.terminate(h0, Terminator::Return);
        h.finish();
        pb.set_entry(mid);
        pb.finish().unwrap()
    }

    #[test]
    fn unreachable_block_is_reported() {
        let p = program_with_unreachable();
        let ctx = Context::program_only(&p);
        let diags = UnreachableBlocks.run(&ctx);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "IPA001");
        assert_eq!(diags[0].location.block, Some(3));
    }

    #[test]
    fn clean_profile_conserves_flow() {
        let p = program_with_unreachable();
        let prof = Profiler::new().runs(4).profile(&p);
        let ctx = Context::program_only(&p).with_profile(&prof);
        assert!(FlowConservation.run(&ctx).is_empty());
        assert!(BranchMass.run(&ctx).is_empty());
    }

    #[test]
    fn corrupted_block_count_breaks_conservation() {
        let p = program_with_unreachable();
        let mut prof = Profiler::new().runs(4).profile(&p);
        prof.funcs[p.entry().index()].block_counts[1] += 5;
        let ctx = Context::program_only(&p).with_profile(&prof);
        let diags = FlowConservation.run(&ctx);
        assert!(diags
            .iter()
            .any(|d| d.code == "IPA002" && d.location.block == Some(1)));
    }

    #[test]
    fn corrupted_arc_breaks_branch_mass() {
        let p = program_with_unreachable();
        let mut prof = Profiler::new().runs(4).profile(&p);
        // Inflate the loop back-edge (m1 -> m0): mass now exceeds count.
        *prof.funcs[p.entry().index()]
            .arcs
            .get_mut(&(BlockId::new(1), BlockId::new(0)))
            .expect("back-edge was profiled") += 7;
        let ctx = Context::program_only(&p).with_profile(&prof);
        let diags = BranchMass.run(&ctx);
        assert!(diags
            .iter()
            .any(|d| d.code == "IPA003" && d.location.block == Some(1)));
    }

    #[test]
    fn validate_error_bridges_to_ipa004() {
        let p = program_with_unreachable();
        let err = ValidateError::DanglingCallee {
            func: p.entry(),
            block: BlockId::new(0),
            callee: FuncId::new(99),
        };
        let d = StructuralValidation::diagnostic_of(&p, &err);
        assert_eq!(d.code, "IPA004");
        assert_eq!(d.location.function.as_deref(), Some("main"));
        assert_eq!(d.location.block, Some(0));
        assert!(d.message.contains("99"));
        // And a valid program yields nothing at all.
        assert!(StructuralValidation
            .run(&Context::program_only(&p))
            .is_empty());
    }

    #[test]
    fn recursive_function_is_flagged() {
        let mut pb = ProgramBuilder::new();
        let rec = pb.reserve("rec");
        let mut main = pb.function("main");
        let m0 = main.block_n(1);
        let m1 = main.block_n(0);
        main.terminate(m0, Terminator::call(rec, m1));
        main.terminate(m1, Terminator::Exit);
        let mid = main.finish();
        let mut r = pb.function_reserved(rec);
        let r0 = r.block_n(1);
        let r1 = r.block_n(1);
        let r2 = r.block_n(0);
        r.terminate(r0, Terminator::branch(r1, r2, BranchBias::fixed(0.3)));
        r.terminate(r1, Terminator::call(rec, r2));
        r.terminate(r2, Terminator::Return);
        r.finish();
        pb.set_entry(mid);
        let p = pb.finish().unwrap();

        let diags = RecursionCycles.run(&Context::program_only(&p));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "IPA005");
        assert_eq!(diags[0].location.function.as_deref(), Some("rec"));
    }
}
