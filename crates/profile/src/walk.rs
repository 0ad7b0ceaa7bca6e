//! The execution walker: a seeded interpreter over a program compiled
//! into one flat [`Image`].
//!
//! The walker is the single source of dynamic behavior in the whole
//! reproduction. The profiler (this crate) counts its walks and the
//! dynamic trace generator (`impact-trace`) turns them into fetch
//! addresses, so the instruction stream the cache simulator sees is, by
//! construction, the same behavior the profile was trained on (under a
//! different input seed).
//!
//! An [`Image`] holds every block of a program in one array, indexed by
//! *global block*: the blocks of function 0 in id order, then those of
//! function 1, and so on. Each entry carries the block's size, its
//! terminator's kind and its targets as global indices, so a dynamic
//! block costs one array read and one match.

use std::ops::AddAssign;

use impact_ir::{site_key, BranchBias, Program, Terminator};
use impact_support::Rng;

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

/// What a block's terminator does; its operands live in the [`Node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Jump,
    Branch,
    Switch,
    Call,
    Return,
    Exit,
}

/// One block of an [`Image`].
#[derive(Debug, Clone, Copy)]
struct Node {
    /// `Branch`: the taken threshold under the current seed
    /// ([`taken_threshold`]); `Switch`: the arms' total weight.
    bound: u64,
    /// `Jump` target, `Branch` taken target, `Call` callee entry, or the
    /// `Switch`'s first arm in [`Image::arms`].
    a: u32,
    /// `Branch` not-taken target, `Call` return block, or the end of the
    /// `Switch`'s arms.
    b: u32,
    /// Instructions, terminator slot included.
    size: u32,
    op: Op,
}

/// A program compiled for walking: one entry per global block.
///
/// A walk is fully determined by `(program, input_seed, limits)`. Two
/// seeds are in play, and both are the input seed:
/// * it identifies the simulated input file, shifting per-branch
///   probabilities via [`BranchBias::effective`], and
/// * it initializes the walk's RNG, which resolves each dynamic branch
///   outcome.
#[derive(Debug)]
pub struct Image {
    nodes: Vec<Node>,
    /// Every switch's arms, `(target, weight)`, contiguous per switch.
    arms: Vec<(u32, u32)>,
    /// Every branch block with its bias and site key, from which each
    /// walk sets the block's threshold for its seed.
    branches: Vec<(u32, BranchBias, u64)>,
    entry: u32,
}

/// The integer form of a taken probability: a draw `u` takes the branch
/// iff `(u >> 11) < taken_threshold(p)`, exactly when
/// [`Rng::gen_f64`]`() < p` for the same draw.
///
/// `gen_f64` is `(u >> 11) / 2^53`, and scaling both sides of the
/// comparison by 2^53 is exact; an integer is below a real `x` iff it is
/// below `ceil(x)`. A negative or NaN `p` saturates to 0, never taken,
/// as the float comparison is never true for it.
fn taken_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// What one walk of an [`Image`] records beyond its [`ExecSummary`].
/// Every hook but `block` records nothing by default.
pub(crate) trait Recorder {
    /// Global block `g`, of `size` instructions, begins executing.
    fn block(&mut self, g: usize, size: u32);
    /// Branch block `g` took its branch.
    fn taken(&mut self, _g: usize) {}
    /// A switch chose arm `arm`, an index into the image's arm table.
    fn arm(&mut self, _arm: usize) {}
    /// Call block `g` called its callee.
    fn call(&mut self, _g: usize) {}
    /// A return resumed the caller after call block `g`.
    fn resume(&mut self, _g: usize) {}
    /// Asked when the walk's instructions reach the cap, then wherever
    /// the last answer said: `Some(n)` walks on until `n`, `None` ends the
    /// walk there as a truncation.
    fn at_cap(&mut self, _so_far: &ExecSummary) -> Option<u64> {
        None
    }
}

/// A [`Recorder`] that hands each block to a closure.
struct OnBlock<F>(F);

impl<F: FnMut(usize, u32)> Recorder for OnBlock<F> {
    #[inline]
    fn block(&mut self, g: usize, size: u32) {
        (self.0)(g, size);
    }
}

impl Image {
    /// Compiles `program`.
    ///
    /// # Panics
    ///
    /// Panics if the program has 2^32 blocks or more, or a block of 2^32
    /// instructions or more.
    #[must_use]
    pub fn new(program: &Program) -> Self {
        let mut first = Vec::with_capacity(program.function_count());
        let mut blocks = 0;
        for (_, f) in program.functions() {
            first.push(blocks);
            blocks += f.block_count();
        }
        let global = |f: impact_ir::FuncId, b: impact_ir::BlockId| {
            u32::try_from(first[f.index()] + b.index()).expect("fewer than 2^32 blocks")
        };
        let mut image = Self {
            nodes: Vec::with_capacity(blocks),
            arms: Vec::new(),
            branches: Vec::new(),
            entry: global(program.entry(), program.function(program.entry()).entry()),
        };
        for (fid, f) in program.functions() {
            for (bid, bb) in f.blocks() {
                let (op, a, b, bound) = match bb.terminator() {
                    Terminator::Jump { target } => (Op::Jump, global(fid, *target), 0, 0),
                    Terminator::Branch {
                        taken,
                        not_taken,
                        bias,
                    } => {
                        // Branch behavior is keyed by (function name,
                        // block), so it survives structural renumbering.
                        let key = site_key(f.name(), bid);
                        image.branches.push((global(fid, bid), *bias, key));
                        (Op::Branch, global(fid, *taken), global(fid, *not_taken), 0)
                    }
                    Terminator::Switch { targets } => {
                        let first_arm = image.arms.len() as u32;
                        image
                            .arms
                            .extend(targets.iter().map(|&(t, w)| (global(fid, t), w)));
                        let total = targets.iter().map(|&(_, w)| u64::from(w)).sum();
                        (Op::Switch, first_arm, image.arms.len() as u32, total)
                    }
                    Terminator::Call { callee, ret_to } => {
                        let entry = global(*callee, program.function(*callee).entry());
                        (Op::Call, entry, global(fid, *ret_to), 0)
                    }
                    Terminator::Return => (Op::Return, 0, 0, 0),
                    Terminator::Exit => (Op::Exit, 0, 0, 0),
                };
                image.nodes.push(Node {
                    bound,
                    a,
                    b,
                    size: 0,
                    op,
                });
                image.set_size(image.nodes.len() - 1, bb.instr_count());
            }
        }
        image
    }

    /// Number of global blocks.
    pub(crate) fn blocks(&self) -> usize {
        self.nodes.len()
    }

    /// Number of switch arms, over all switches.
    pub(crate) fn arms(&self) -> usize {
        self.arms.len()
    }

    /// Sets the instructions of global block `g`, terminator included.
    pub(crate) fn set_size(&mut self, g: usize, size: u64) {
        self.nodes[g].size = u32::try_from(size).expect("a block of fewer than 2^32 instructions");
    }

    /// Runs the program under `input_seed`, handing each block entered to
    /// `on_block` as its global index and size.
    ///
    /// The walk ends when the program exits or returns from its entry
    /// function, when [`ExecLimits::max_instructions`] is reached, or when
    /// a call would exceed [`ExecLimits::max_call_depth`] (runaway
    /// recursion); all but the first mark the summary as truncated.
    pub fn walk<F: FnMut(usize, u32)>(
        &mut self,
        input_seed: u64,
        limits: ExecLimits,
        on_block: F,
    ) -> ExecSummary {
        self.run(input_seed, limits, &mut OnBlock(on_block))
    }

    /// The one interpretation loop: [`Image::walk`] reporting to
    /// `recorder`, whose [`at_cap`](Recorder::at_cap) may carry the walk
    /// past the instruction cap.
    pub(crate) fn run<R: Recorder>(
        &mut self,
        input_seed: u64,
        limits: ExecLimits,
        recorder: &mut R,
    ) -> ExecSummary {
        for &(g, bias, key) in &self.branches {
            self.nodes[g as usize].bound = taken_threshold(bias.effective(input_seed, key));
        }
        let mut rng = Rng::seed_from_u64(input_seed ^ 0xD1B5_4A32_D192_ED03);
        let mut summary = ExecSummary::default();
        // The calling block of every open call.
        let mut stack: Vec<u32> = Vec::new();
        let mut stop_at = limits.max_instructions;
        let mut g = self.entry as usize;
        loop {
            let node = self.nodes[g];
            recorder.block(g, node.size);
            summary.blocks += 1;
            summary.instructions += u64::from(node.size);
            let next = match node.op {
                Op::Jump => {
                    summary.intra_transfers += 1;
                    node.a
                }
                Op::Branch => {
                    summary.intra_transfers += 1;
                    if (rng.next_u64() >> 11) < node.bound {
                        recorder.taken(g);
                        node.a
                    } else {
                        node.b
                    }
                }
                Op::Switch => {
                    summary.intra_transfers += 1;
                    let mut pick = rng.gen_below(node.bound);
                    let (first, end) = (node.a as usize, node.b as usize);
                    let mut arm = first;
                    // Validated switches have positive total weight, so
                    // the pick lands on an arm before the end.
                    while pick >= u64::from(self.arms[arm].1) {
                        pick -= u64::from(self.arms[arm].1);
                        arm += 1;
                    }
                    debug_assert!(arm < end);
                    recorder.arm(arm);
                    self.arms[arm].0
                }
                Op::Call => {
                    if stack.len() >= limits.max_call_depth {
                        // Runaway recursion: end the walk as a truncation
                        // rather than unwinding; the walk up to here is
                        // still a valid (partial) execution.
                        summary.truncated = true;
                        break;
                    }
                    stack.push(g as u32);
                    recorder.call(g);
                    summary.calls += 1;
                    node.a
                }
                Op::Return => {
                    summary.returns += 1;
                    let Some(caller) = stack.pop() else { break };
                    recorder.resume(caller as usize);
                    self.nodes[caller as usize].b
                }
                Op::Exit => break,
            };
            g = next as usize;
            if summary.instructions >= stop_at {
                match recorder.at_cap(&summary) {
                    Some(next_stop) => stop_at = next_stop,
                    None => {
                        summary.truncated = true;
                        break;
                    }
                }
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BlockId, BranchBias, FuncId, Instr, ProgramBuilder, Terminator};

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

    /// The global blocks a walk enters, in order, with its summary.
    fn blocks(p: &Program, seed: u64, limits: ExecLimits) -> (Vec<usize>, ExecSummary) {
        let mut seen = Vec::new();
        let summary = Image::new(p).walk(seed, limits, |g, _| seen.push(g));
        (seen, summary)
    }

    /// Draws whose top 53 bits sit at `t - 1`, `t` and `t + 1`, with
    /// every low 11 bits from none to all.
    fn draws_around(t: u64) -> impl Iterator<Item = u64> {
        [t.wrapping_sub(1), t, t + 1]
            .into_iter()
            .filter(|&hi| hi < 1 << 53)
            .flat_map(|hi| [0, 1, 0x400, 0x7ff].map(|lo| hi << 11 | lo))
    }

    #[test]
    fn thresholds_decide_as_the_float_draw_does() {
        let half = 0.5f64;
        let mut ps = vec![
            0.0,
            f64::EPSILON / 2.0, // 2^-53
            half,
            f64::from_bits(half.to_bits() - 1),
            f64::from_bits(half.to_bits() + 1),
            1.0 - f64::EPSILON / 2.0, // 1 - 2^-53
            1.0,
        ];
        let mut rng = Rng::seed_from_u64(5);
        ps.extend((0..200).map(|_| rng.gen_f64()));
        let bias = BranchBias::varying(0.5, 0.5);
        ps.extend((0..200).map(|seed| bias.effective(seed, rng.next_u64())));
        for p in ps {
            let t = taken_threshold(p);
            for u in draws_around(t) {
                let by_float = ((u >> 11) as f64 / (1u64 << 53) as f64) < p;
                assert_eq!((u >> 11) < t, by_float, "p {p:e}, draw {u:#x}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p = loop_program(0.9);
        assert_eq!(
            blocks(&p, 7, ExecLimits::default()),
            blocks(&p, 7, ExecLimits::default())
        );
    }

    #[test]
    fn different_seeds_usually_differ() {
        let p = loop_program(0.5);
        let lens: Vec<u64> = (0..16)
            .map(|s| blocks(&p, s, ExecLimits::default()).1.blocks)
            .collect();
        assert!(
            lens.iter().any(|&l| l != lens[0]),
            "16 seeds all produced identical walks: {lens:?}"
        );
    }

    #[test]
    fn never_looping_branch_exits_immediately() {
        let p = loop_program(0.0);
        let (seen, s) = blocks(&p, 0, ExecLimits::default());
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(s.intra_transfers, 1);
        assert!(!s.truncated);
    }

    #[test]
    fn always_looping_branch_truncates_at_limit() {
        let p = loop_program(1.0);
        let limits = ExecLimits {
            max_instructions: 100,
            max_call_depth: 8,
        };
        let (_, s) = blocks(&p, 0, limits);
        assert!(s.truncated);
        assert!(s.instructions >= 100);
        // One block beyond the limit at most (limit checked per block).
        assert!(s.instructions < 100 + 5);
    }

    /// Records blocks and carries the walk past the cap until `stop_at`.
    struct StopAt {
        stop_at: u64,
        seen: Vec<usize>,
    }

    impl Recorder for StopAt {
        fn block(&mut self, g: usize, _size: u32) {
            self.seen.push(g);
        }
        fn at_cap(&mut self, so_far: &ExecSummary) -> Option<u64> {
            (so_far.instructions < self.stop_at).then_some(self.stop_at)
        }
    }

    #[test]
    fn at_cap_ends_the_walk_where_a_larger_cap_would() {
        let p = loop_program(0.97);
        for seed in 0..16 {
            for (first, cap) in [(1, 1), (1, 4), (4, 10), (10, 37), (3, 100)] {
                let (seen, by_cap) = blocks(&p, seed, ExecLimits::capped(cap));
                let mut recorder = StopAt {
                    stop_at: cap,
                    seen: Vec::new(),
                };
                let resumed = Image::new(&p).run(seed, ExecLimits::capped(first), &mut recorder);
                assert_eq!(resumed, by_cap, "seed {seed}, cap {cap}");
                assert_eq!(recorder.seen, seen);
            }
        }
    }

    #[test]
    fn loop_length_tracks_probability() {
        // Expected iterations of a geometric loop with p = 0.9 is 10.
        let p = loop_program(0.9);
        let total: u64 = (0..200)
            .map(|s| blocks(&p, s, ExecLimits::default()).1.blocks - 1)
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

        let (_, s) = blocks(&p, 3, ExecLimits::default());
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
        let (_, s) = blocks(&p, 0, ExecLimits::default());
        assert_eq!((s.blocks, s.returns), (1, 1));
        assert!(!s.truncated);
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
            let (seen, _) = blocks(&p, seed, ExecLimits::default());
            assert_eq!(seen[1], always.index(), "zero-weight arm was selected");
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
        let (_, s) = blocks(&p, 0, limits);
        assert!(s.truncated);
        assert_eq!(s.calls, 16, "the walk stops at the depth limit");
    }

    #[test]
    fn global_blocks_run_function_major() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.reserve("leaf");
        let mut lf = pb.function_reserved(leaf);
        let l0 = lf.block_n(1);
        let l1 = lf.block_n(1);
        lf.terminate(l0, Terminator::jump(l1));
        lf.terminate(l1, Terminator::Return);
        lf.finish();
        let mut main = pb.function("main");
        let m0 = main.block_n(1);
        let m1 = main.block_n(0);
        main.terminate(m0, Terminator::call(leaf, m1));
        main.terminate(m1, Terminator::Exit);
        let mid = main.finish();
        pb.set_entry(mid);
        let p = pb.finish().unwrap();
        assert_eq!(p.entry(), FuncId::new(1));
        assert_eq!(m1, BlockId::new(1));
        let (seen, _) = blocks(&p, 0, ExecLimits::default());
        assert_eq!(seen, vec![2, 0, 1, 3]);
    }
}
