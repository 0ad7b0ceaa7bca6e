//! The sparse reference walker and profiler: the definition the flat
//! image walk and its counting in `src/` are checked against.
//!
//! It walks a program the plain way — looking each block up by function
//! and block id, and recomputing each branch's input-shifted probability
//! with [`BranchBias::effective`] and comparing it with a float draw on
//! every dynamic branch — and reports every block and transfer as an
//! event. Its profiler counts those events into the [`Profile`]'s own
//! `BTreeMap`s with one `entry` per transfer. It shares no walking or
//! counting code with the crate, only the public profile and summary
//! types, so a bug in the fast path cannot hide behind the same bug in
//! its oracle. It is also the bisect aid: its events say where a walk
//! went wrong.
//!
//! Test crates include it with `mod reference;`.
//!
//! [`BranchBias::effective`]: impact_ir::BranchBias::effective

#![allow(dead_code)]

use impact_ir::{BlockId, FuncId, Program, Terminator};
use impact_profile::{ExecLimits, ExecSummary, Profile};
use impact_support::Rng;

/// Kind of a dynamic control transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Unconditional jump.
    Jump,
    /// Conditional branch, taken arm.
    BranchTaken,
    /// Conditional branch, fall-through arm.
    BranchNotTaken,
    /// Multi-way switch dispatch.
    Switch,
    /// Function call.
    Call,
    /// Function return.
    Return,
    /// Program exit.
    Exit,
}

impl TransferKind {
    /// `true` for intra-function transfers (everything except
    /// call/return/exit) — the paper's "control transfers other than
    /// function call/return".
    pub fn is_intra_function(self) -> bool {
        matches!(
            self,
            TransferKind::Jump
                | TransferKind::BranchTaken
                | TransferKind::BranchNotTaken
                | TransferKind::Switch
        )
    }
}

/// One dynamic control transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Kind of transfer.
    pub kind: TransferKind,
    /// Function executing the transfer.
    pub from_func: FuncId,
    /// Block whose terminator transferred.
    pub from_block: BlockId,
    /// Destination, if execution continues: `(function, block)`. `None`
    /// only for [`TransferKind::Exit`] and a `Return` that empties the
    /// call stack.
    pub to: Option<(FuncId, BlockId)>,
}

/// Observer of walk events, in execution order: `block` for every basic
/// block entered, then `transfer` for its terminator.
pub trait ExecVisitor {
    /// Basic block `block` of `func` begins executing.
    fn block(&mut self, func: FuncId, block: BlockId);
    /// A control transfer fired.
    fn transfer(&mut self, transfer: Transfer);
}

/// Runs `program` under `input_seed`, reporting events to `visitor`, with
/// the same semantics as `Image::walk`.
pub fn walk<V: ExecVisitor>(
    program: &Program,
    limits: ExecLimits,
    input_seed: u64,
    visitor: &mut V,
) -> ExecSummary {
    let mut rng = Rng::seed_from_u64(input_seed ^ 0xD1B5_4A32_D192_ED03);
    let mut summary = ExecSummary::default();
    let mut stack: Vec<(FuncId, BlockId)> = Vec::new();
    let mut func = program.entry();
    let mut block = program.function(func).entry();

    loop {
        let f = program.function(func);
        let bb = f.block(block);
        visitor.block(func, block);
        summary.blocks += 1;
        summary.instructions += bb.instr_count();

        let (kind, to) = match bb.terminator() {
            Terminator::Jump { target } => (TransferKind::Jump, Some((func, *target))),
            Terminator::Branch {
                taken,
                not_taken,
                bias,
            } => {
                // Branch behavior is keyed by (function name, block),
                // so it survives structural renumbering.
                let p = bias.effective(input_seed, impact_ir::site_key(f.name(), block));
                if rng.gen_f64() < p {
                    (TransferKind::BranchTaken, Some((func, *taken)))
                } else {
                    (TransferKind::BranchNotTaken, Some((func, *not_taken)))
                }
            }
            Terminator::Switch { targets } => {
                let total: u64 = targets.iter().map(|(_, w)| u64::from(*w)).sum();
                debug_assert!(total > 0, "validated switches have positive total weight");
                let mut pick = rng.gen_below(total);
                let mut chosen = targets[0].0;
                for (t, w) in targets {
                    let w = u64::from(*w);
                    if pick < w {
                        chosen = *t;
                        break;
                    }
                    pick -= w;
                }
                (TransferKind::Switch, Some((func, chosen)))
            }
            Terminator::Call { callee, ret_to } => {
                if stack.len() >= limits.max_call_depth {
                    // Runaway recursion: end the walk as a truncation
                    // rather than unwinding — the trace up to here is
                    // still a valid (partial) execution.
                    summary.truncated = true;
                    break;
                }
                stack.push((func, *ret_to));
                let entry = program.function(*callee).entry();
                (TransferKind::Call, Some((*callee, entry)))
            }
            Terminator::Return => {
                let to = stack.pop();
                (TransferKind::Return, to)
            }
            Terminator::Exit => (TransferKind::Exit, None),
        };

        match kind {
            TransferKind::Call => summary.calls += 1,
            TransferKind::Return => summary.returns += 1,
            k if k.is_intra_function() => summary.intra_transfers += 1,
            _ => {}
        }

        visitor.transfer(Transfer {
            kind,
            from_func: func,
            from_block: block,
            to,
        });

        match to {
            Some((nf, nb)) => {
                func = nf;
                block = nb;
            }
            None => break,
        }

        if summary.instructions >= limits.max_instructions {
            summary.truncated = true;
            break;
        }
    }
    summary
}

/// Visitor that accumulates a [`Profile`] during a walk.
struct ProfileVisitor<'a> {
    profile: &'a mut Profile,
    /// Shadow call stack of `(caller, calling block)` so that the
    /// call-continuation arc is recorded only when the callee returns.
    stack: Vec<(FuncId, BlockId)>,
}

impl ExecVisitor for ProfileVisitor<'_> {
    fn block(&mut self, func: FuncId, block: BlockId) {
        self.profile.funcs[func.index()].block_counts[block.index()] += 1;
    }

    fn transfer(&mut self, t: Transfer) {
        match t.kind {
            TransferKind::Call => {
                let (callee, _) = t.to.expect("call always has a destination");
                // The continuation block is recovered from the matching
                // Return transfer; remember who called from where.
                self.stack.push((t.from_func, t.from_block));
                *self
                    .profile
                    .call_sites
                    .entry((t.from_func, t.from_block))
                    .or_insert(0) += 1;
                *self
                    .profile
                    .call_arcs
                    .entry((t.from_func, callee))
                    .or_insert(0) += 1;
                self.profile.funcs[callee.index()].invocations += 1;
            }
            TransferKind::Return => {
                if let Some((caller, call_block)) = self.stack.pop() {
                    if let Some((to_func, to_block)) = t.to {
                        debug_assert_eq!(caller, to_func);
                        *self.profile.funcs[caller.index()]
                            .arcs
                            .entry((call_block, to_block))
                            .or_insert(0) += 1;
                    }
                }
            }
            k if k.is_intra_function() => {
                if let Some((_, to_block)) = t.to {
                    *self.profile.funcs[t.from_func.index()]
                        .arcs
                        .entry((t.from_block, to_block))
                        .or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }
}

/// Profiles `program` over seeds `base_seed .. base_seed + runs`, with the
/// same semantics as `Profiler::profile`.
pub fn profile(program: &Program, runs: u32, base_seed: u64, limits: ExecLimits) -> Profile {
    let mut profile = Profile::empty_for(program);
    for run in 0..runs {
        let seed = base_seed + u64::from(run);
        let mut visitor = ProfileVisitor {
            profile: &mut profile,
            stack: Vec::new(),
        };
        let summary = walk(program, limits, seed, &mut visitor);
        profile.funcs[program.entry().index()].invocations += 1;
        profile.runs += 1;
        profile.totals.instructions += summary.instructions;
        profile.totals.blocks += summary.blocks;
        profile.totals.intra_transfers += summary.intra_transfers;
        profile.totals.calls += summary.calls;
        profile.totals.returns += summary.returns;
        profile.totals.truncated |= summary.truncated;
    }
    profile
}
