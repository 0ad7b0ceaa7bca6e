//! The execution walker: a seeded interpreter over a program's CFGs.
//!
//! The walker is the single source of dynamic behavior in the whole
//! reproduction. Both the profiler (this crate) and the dynamic trace
//! generator (`impact-trace`) drive it with different [`ExecVisitor`]s, so
//! the instruction stream the cache simulator sees is — by construction —
//! the same behavior the profile was trained on (under a different input
//! seed).

use std::ops::AddAssign;

use impact_ir::{site_key, BlockId, FuncId, Program, Terminator};
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
    #[must_use]
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

/// One dynamic control transfer observed by the walker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Kind of transfer.
    pub kind: TransferKind,
    /// Function executing the transfer.
    pub from_func: FuncId,
    /// Block whose terminator transferred.
    pub from_block: BlockId,
    /// Destination, if execution continues: `(function, block)`.
    /// `None` only for [`TransferKind::Exit`] and a `Return` that empties
    /// the call stack.
    pub to: Option<(FuncId, BlockId)>,
}

/// Observer of walker events.
///
/// Events arrive in execution order: `block` for every basic block entered
/// (before its instructions are "executed"), then `transfer` for its
/// terminator.
pub trait ExecVisitor {
    /// Basic block `block` of `func` begins executing.
    fn block(&mut self, func: FuncId, block: BlockId);
    /// A control transfer fired.
    fn transfer(&mut self, transfer: Transfer);
    /// Asked after every transfer that continues the walk, where the
    /// instruction cap is checked, with the walk's summary so far: `true`
    /// ends the walk there as a truncation. The default never does.
    fn done(&mut self, _so_far: &ExecSummary) -> bool {
        false
    }
}

/// A visitor that ignores everything (useful to measure walk length only).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullVisitor;

impl ExecVisitor for NullVisitor {
    fn block(&mut self, _func: FuncId, _block: BlockId) {}
    fn transfer(&mut self, _transfer: Transfer) {}
}

/// Resource limits for one walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecLimits {
    /// Stop after this many dynamic instructions (terminators included).
    pub max_instructions: u64,
    /// Abort the run if the call stack exceeds this depth.
    pub max_call_depth: usize,
}

impl ExecLimits {
    /// The call-depth cap of a walk that sets only an instruction cap.
    const DEFAULT_CALL_DEPTH: usize = 512;

    /// A cap of `max_instructions` at the default call depth, 512 frames.
    #[must_use]
    pub const fn capped(max_instructions: u64) -> Self {
        Self {
            max_instructions,
            max_call_depth: Self::DEFAULT_CALL_DEPTH,
        }
    }

    /// Rejects limits no walk can spend: a zero instruction cap or a
    /// zero call depth.
    ///
    /// # Errors
    ///
    /// Names the zero limit.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.max_instructions == 0 {
            return Err("limits.max_instructions must be nonzero");
        }
        if self.max_call_depth == 0 {
            return Err("limits.max_call_depth must be nonzero");
        }
        Ok(())
    }
}

impl Default for ExecLimits {
    /// Generous defaults: 50 M instructions, the default depth.
    fn default() -> Self {
        Self::capped(50_000_000)
    }
}

/// Outcome of one walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecSummary {
    /// Dynamic instructions executed (bodies + terminator slots).
    pub instructions: u64,
    /// Dynamic basic blocks entered.
    pub blocks: u64,
    /// Intra-function control transfers executed (jump/branch/switch).
    pub intra_transfers: u64,
    /// Function calls executed.
    pub calls: u64,
    /// Function returns executed.
    pub returns: u64,
    /// `true` if the walk hit [`ExecLimits::max_instructions`] before the
    /// program exited.
    pub truncated: bool,
}

impl AddAssign for ExecSummary {
    /// Sums two walks' counts; the sum is truncated if either walk was.
    fn add_assign(&mut self, other: Self) {
        self.instructions += other.instructions;
        self.blocks += other.blocks;
        self.intra_transfers += other.intra_transfers;
        self.calls += other.calls;
        self.returns += other.returns;
        self.truncated |= other.truncated;
    }
}

/// The seeded interpreter.
///
/// Two seeds are in play:
/// * the **input seed** identifies the simulated input file; it shifts
///   per-branch probabilities via
///   [`BranchBias::effective`](impact_ir::BranchBias::effective), and
/// * the same seed also initializes the walker's RNG, which resolves each
///   dynamic branch outcome.
///
/// A walk is fully determined by `(program, input_seed, limits)`.
#[derive(Debug)]
pub struct Walker<'p> {
    program: &'p Program,
    limits: ExecLimits,
}

impl<'p> Walker<'p> {
    /// Creates a walker over `program` with default limits.
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        Self {
            program,
            limits: ExecLimits::default(),
        }
    }

    /// Replaces the execution limits.
    #[must_use]
    pub fn with_limits(mut self, limits: ExecLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Runs the program under `input_seed`, reporting events to `visitor`.
    ///
    /// The walk ends when the program exits, when
    /// [`ExecLimits::max_instructions`] is reached, when the visitor is
    /// [`done`](ExecVisitor::done), or when a call would exceed
    /// [`ExecLimits::max_call_depth`] (runaway recursion); all but the
    /// first mark the summary as truncated.
    pub fn run<V: ExecVisitor>(&self, input_seed: u64, visitor: &mut V) -> ExecSummary {
        let taken_p = self.taken_probabilities(input_seed);
        let mut rng = Rng::seed_from_u64(input_seed ^ 0xD1B5_4A32_D192_ED03);
        let mut summary = ExecSummary::default();
        let mut stack: Vec<(FuncId, BlockId)> = Vec::new();
        let mut func = self.program.entry();
        let mut block = self.program.function(func).entry();

        loop {
            let f = self.program.function(func);
            let bb = f.block(block);
            visitor.block(func, block);
            summary.blocks += 1;
            summary.instructions += bb.instr_count();

            let (kind, to) = match bb.terminator() {
                Terminator::Jump { target } => (TransferKind::Jump, Some((func, *target))),
                Terminator::Branch {
                    taken, not_taken, ..
                } => {
                    if rng.gen_f64() < taken_p[func.index()][block.index()] {
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
                    if stack.len() >= self.limits.max_call_depth {
                        // Runaway recursion: end the walk as a truncation
                        // rather than unwinding — the trace up to here is
                        // still a valid (partial) execution.
                        summary.truncated = true;
                        break;
                    }
                    stack.push((func, *ret_to));
                    let entry = self.program.function(*callee).entry();
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

            if summary.instructions >= self.limits.max_instructions || visitor.done(&summary) {
                summary.truncated = true;
                break;
            }
        }
        summary
    }

    /// The taken probability of every `Branch` block under `input_seed`,
    /// indexed `[function][block]` (0 for other blocks): computed once per
    /// walk rather than on every dynamic branch.
    ///
    /// Branch behavior is keyed by (function name, block), so it survives
    /// structural renumbering.
    fn taken_probabilities(&self, input_seed: u64) -> Vec<Vec<f64>> {
        self.program
            .functions()
            .map(|(_, f)| {
                f.blocks()
                    .map(|(id, bb)| match bb.terminator() {
                        Terminator::Branch { bias, .. } => {
                            bias.effective(input_seed, site_key(f.name(), id))
                        }
                        _ => 0.0,
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, Instr, ProgramBuilder, Terminator};

    use super::*;

    fn loop_program(p_loop: f64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let body = f.block(vec![Instr::IntAlu; 3]);
        let exit = f.block(vec![]);
        f.terminate(
            body,
            Terminator::branch(body, exit, BranchBias::fixed(p_loop)),
        );
        f.terminate(exit, Terminator::Exit);
        let id = f.finish();
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    /// Collects the visited block sequence.
    #[derive(Default)]
    struct Recorder {
        blocks: Vec<(FuncId, BlockId)>,
        transfers: Vec<TransferKind>,
    }

    impl ExecVisitor for Recorder {
        fn block(&mut self, func: FuncId, block: BlockId) {
            self.blocks.push((func, block));
        }
        fn transfer(&mut self, t: Transfer) {
            self.transfers.push(t.kind);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p = loop_program(0.9);
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        let sa = Walker::new(&p).run(7, &mut a);
        let sb = Walker::new(&p).run(7, &mut b);
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let p = loop_program(0.5);
        let lens: Vec<u64> = (0..16)
            .map(|s| Walker::new(&p).run(s, &mut NullVisitor).blocks)
            .collect();
        assert!(
            lens.iter().any(|&l| l != lens[0]),
            "16 seeds all produced identical walks: {lens:?}"
        );
    }

    #[test]
    fn never_looping_branch_exits_immediately() {
        let p = loop_program(0.0);
        let mut r = Recorder::default();
        let s = Walker::new(&p).run(0, &mut r);
        assert_eq!(s.blocks, 2);
        assert_eq!(
            r.transfers,
            vec![TransferKind::BranchNotTaken, TransferKind::Exit]
        );
        assert!(!s.truncated);
    }

    #[test]
    fn always_looping_branch_truncates_at_limit() {
        let p = loop_program(1.0);
        let limits = ExecLimits {
            max_instructions: 100,
            max_call_depth: 8,
        };
        let s = Walker::new(&p).with_limits(limits).run(0, &mut NullVisitor);
        assert!(s.truncated);
        assert!(s.instructions >= 100);
        // One block beyond the limit at most (limit checked per block).
        assert!(s.instructions < 100 + 5);
    }

    /// Records events until the walk has executed `stop_at` instructions.
    struct StopAt {
        stop_at: u64,
        events: Recorder,
    }

    impl ExecVisitor for StopAt {
        fn block(&mut self, func: FuncId, block: BlockId) {
            self.events.block(func, block);
        }
        fn transfer(&mut self, t: Transfer) {
            self.events.transfer(t);
        }
        fn done(&mut self, so_far: &ExecSummary) -> bool {
            so_far.instructions >= self.stop_at
        }
    }

    #[test]
    fn done_ends_the_walk_where_the_instruction_cap_would() {
        let p = loop_program(0.97);
        for seed in 0..16 {
            for cap in [1, 4, 10, 37, 100] {
                let mut capped = Recorder::default();
                let by_cap = Walker::new(&p)
                    .with_limits(ExecLimits::capped(cap))
                    .run(seed, &mut capped);
                let mut visitor = StopAt {
                    stop_at: cap,
                    events: Recorder::default(),
                };
                let by_done = Walker::new(&p).run(seed, &mut visitor);
                assert_eq!(by_done, by_cap, "seed {seed}, cap {cap}");
                assert_eq!(visitor.events.blocks, capped.blocks);
                assert_eq!(visitor.events.transfers, capped.transfers);
            }
        }
    }

    #[test]
    fn loop_length_tracks_probability() {
        // Expected iterations of a geometric loop with p = 0.9 is 10.
        let p = loop_program(0.9);
        let total: u64 = (0..200)
            .map(|s| Walker::new(&p).run(s, &mut NullVisitor).blocks - 1)
            .sum();
        let mean = total as f64 / 200.0;
        assert!(
            (6.0..=14.0).contains(&mean),
            "mean loop iterations {mean} far from expected 10"
        );
    }

    #[test]
    fn calls_and_returns_balance() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.reserve("leaf");
        let mut main = pb.function("main");
        let b0 = main.block_n(1);
        let b1 = main.block_n(1);
        let b2 = main.block_n(0);
        main.terminate(b0, Terminator::call(leaf, b1));
        main.terminate(b1, Terminator::branch(b0, b2, BranchBias::fixed(0.7)));
        main.terminate(b2, Terminator::Exit);
        let mid = main.finish();
        let mut lf = pb.function_reserved(leaf);
        let l0 = lf.block_n(2);
        lf.terminate(l0, Terminator::Return);
        lf.finish();
        pb.set_entry(mid);
        let p = pb.finish().unwrap();

        let s = Walker::new(&p).run(3, &mut NullVisitor);
        assert_eq!(s.calls, s.returns);
        assert!(s.calls >= 1);
    }

    #[test]
    fn return_from_entry_ends_program() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let b = f.block_n(1);
        f.terminate(b, Terminator::Return);
        let id = f.finish();
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let mut r = Recorder::default();
        let s = Walker::new(&p).run(0, &mut r);
        assert_eq!(s.blocks, 1);
        assert_eq!(r.transfers, vec![TransferKind::Return]);
    }

    #[test]
    fn switch_respects_zero_weights() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let s0 = f.block_n(0);
        let never = f.block_n(0);
        let always = f.block_n(0);
        f.terminate(
            s0,
            Terminator::Switch {
                targets: vec![(never, 0), (always, 5)],
            },
        );
        f.terminate(never, Terminator::Exit);
        f.terminate(always, Terminator::Exit);
        let id = f.finish();
        pb.set_entry(id);
        let p = pb.finish().unwrap();

        for seed in 0..32 {
            let mut r = Recorder::default();
            Walker::new(&p).run(seed, &mut r);
            assert_eq!(r.blocks[1].1, always, "zero-weight arm was selected");
        }
    }

    #[test]
    fn runaway_recursion_truncates() {
        let mut pb = ProgramBuilder::new();
        let me = pb.reserve("main");
        let mut f = pb.function_reserved(me);
        let b0 = f.block_n(0);
        let b1 = f.block_n(0);
        f.terminate(b0, Terminator::call(me, b1));
        f.terminate(b1, Terminator::Return);
        f.finish();
        pb.set_entry(me);
        let p = pb.finish().unwrap();
        let limits = ExecLimits {
            max_instructions: u64::MAX,
            max_call_depth: 16,
        };
        let s = Walker::new(&p).with_limits(limits).run(0, &mut NullVisitor);
        assert!(s.truncated);
        assert_eq!(s.calls, 16, "the walk stops at the depth limit");
    }
}
