//! Basic blocks, terminators, and the stochastic branch-behavior model.

use crate::{BlockId, FuncId, Instr, BYTES_PER_INSTR};

/// Probability model for a two-way branch.
///
/// The profiling interpreter resolves each dynamic branch by sampling
/// `taken` with some probability. The paper profiles a program over several
/// *inputs* and evaluates on a held-out input; to mirror that, the
/// effective probability may depend on the input seed:
///
/// * `base` — the nominal taken-probability.
/// * `input_spread` — maximum +/- deviation applied per (input, branch).
///   A deterministic hash of the input seed and the branch's identity maps
///   into `[-input_spread, +input_spread]` and shifts `base`, then the
///   result is clamped into `[0, 1]`.
///
/// `input_spread = 0` gives input-independent behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchBias {
    /// Nominal probability that the branch is taken.
    pub base: f64,
    /// Maximum per-input deviation from `base`.
    pub input_spread: f64,
}

impl BranchBias {
    /// An input-independent bias: the branch is taken with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[must_use]
    pub fn fixed(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0,1]");
        Self {
            base: p,
            input_spread: 0.0,
        }
    }

    /// A bias whose effective probability varies by up to `spread` per
    /// input around `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is outside `[0, 1]` or `spread` is negative.
    #[must_use]
    pub fn varying(base: f64, spread: f64) -> Self {
        assert!((0.0..=1.0).contains(&base), "base {base} out of [0,1]");
        assert!(spread >= 0.0, "spread {spread} must be non-negative");
        Self {
            base,
            input_spread: spread,
        }
    }

    /// The effective taken-probability under input `input_seed` for the
    /// branch at the site identified by `site_key` (see [`site_key`]).
    ///
    /// Deterministic: the same arguments always yield the same
    /// probability, which is what makes profiles reproducible run to run.
    /// Keying on the *site* rather than raw indices keeps a program
    /// model's behavior stable across structural edits that renumber
    /// functions.
    #[must_use]
    pub fn effective(&self, input_seed: u64, site_key: u64) -> f64 {
        if self.input_spread == 0.0 {
            return self.base;
        }
        let h = splitmix64(input_seed ^ site_key);
        // Map to [-1, 1], scale by the spread, clamp the shifted base.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let delta = (unit * 2.0 - 1.0) * self.input_spread;
        (self.base + delta).clamp(0.0, 1.0)
    }
}

/// The base of every held-out evaluation input seed, far outside the
/// profiling seeds (`0..runs`), mirroring the paper's held-out input: a
/// workload's evaluation seed offsets it, and a walk that names no seed
/// uses it as is.
pub const HELD_OUT_SEED: u64 = 1_000_003;

/// Stable identity of a branch site: a hash of the containing function's
/// *name* and the block's index.
///
/// Function names survive renumbering (a function reserved earlier or
/// later keeps its name), so per-input branch behavior does not shift
/// when unrelated functions are added or reordered.
#[must_use]
pub fn site_key(func_name: &str, block: BlockId) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the name bytes
    for &b in func_name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    splitmix64(h ^ (block.index() as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
}

/// SplitMix64 finalizer; a tiny, well-distributed integer hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The single control transfer ending a basic block.
///
/// Every terminator occupies exactly one instruction slot
/// ([`BYTES_PER_INSTR`] bytes): the reproduction models each block as
/// ending in an explicit control instruction, so block sizes are invariant
/// under re-layout. [`Terminator::Exit`] is the exception — it models the
/// process exit system call and also occupies one slot.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional transfer to another block of the same function.
    Jump {
        /// Destination block.
        target: BlockId,
    },
    /// Two-way conditional branch.
    Branch {
        /// Destination when the branch is taken.
        taken: BlockId,
        /// Destination when the branch falls through.
        not_taken: BlockId,
        /// Stochastic model deciding taken vs. not-taken.
        bias: BranchBias,
    },
    /// Multi-way transfer (switch statement / jump table).
    Switch {
        /// Destinations with relative selection weights. Weights need not
        /// be normalized; a zero-weight arm is never selected.
        targets: Vec<(BlockId, u32)>,
    },
    /// Call another function; on return, control resumes at `ret_to` in
    /// the calling function.
    Call {
        /// The called function.
        callee: FuncId,
        /// Block executed after the callee returns.
        ret_to: BlockId,
    },
    /// Return to the caller (or end the program when the call stack is
    /// empty and the function is the program entry).
    Return,
    /// End the program.
    Exit,
}

impl Terminator {
    /// Convenience constructor for [`Terminator::Jump`].
    #[must_use]
    pub fn jump(target: BlockId) -> Self {
        Terminator::Jump { target }
    }

    /// Convenience constructor for [`Terminator::Branch`].
    #[must_use]
    pub fn branch(taken: BlockId, not_taken: BlockId, bias: BranchBias) -> Self {
        Terminator::Branch {
            taken,
            not_taken,
            bias,
        }
    }

    /// Convenience constructor for [`Terminator::Call`].
    #[must_use]
    pub fn call(callee: FuncId, ret_to: BlockId) -> Self {
        Terminator::Call { callee, ret_to }
    }

    /// Intra-function successor blocks, in a deterministic order.
    ///
    /// `Call` reports its return-continuation block, since that is where
    /// control next appears *within this function*. `Return` and `Exit`
    /// have no intra-function successors.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump { target } => vec![*target],
            Terminator::Branch {
                taken, not_taken, ..
            } => {
                if taken == not_taken {
                    vec![*taken]
                } else {
                    vec![*taken, *not_taken]
                }
            }
            Terminator::Switch { targets } => {
                let mut seen = Vec::with_capacity(targets.len());
                for (t, _) in targets {
                    if !seen.contains(t) {
                        seen.push(*t);
                    }
                }
                seen
            }
            Terminator::Call { ret_to, .. } => vec![*ret_to],
            Terminator::Return | Terminator::Exit => Vec::new(),
        }
    }

    /// Returns `true` if this terminator leaves the function (or program).
    #[must_use]
    pub fn is_function_exit(&self) -> bool {
        matches!(self, Terminator::Return | Terminator::Exit)
    }
}

/// A basic block: straight-line instructions plus one [`Terminator`].
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    body: Vec<Instr>,
    term: Terminator,
}

impl BasicBlock {
    /// Creates a block from its straight-line body and terminator.
    #[must_use]
    pub fn new(body: Vec<Instr>, term: Terminator) -> Self {
        Self { body, term }
    }

    /// The non-control instructions of the block.
    #[must_use]
    pub fn body(&self) -> &[Instr] {
        &self.body
    }

    /// The block's control transfer.
    #[must_use]
    pub fn terminator(&self) -> &Terminator {
        &self.term
    }

    /// Replaces the block's terminator.
    pub fn set_terminator(&mut self, term: Terminator) {
        self.term = term;
    }

    /// Total instruction count, including the terminator's slot.
    #[must_use]
    pub fn instr_count(&self) -> u64 {
        self.body.len() as u64 + 1
    }

    /// Size of the block in bytes when placed in memory.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.instr_count() * BYTES_PER_INSTR
    }

    /// Resizes the straight-line body to `n` instructions, truncating or
    /// padding with [`Instr::Nop`]. Used by the code scaling experiment.
    pub fn resize_body(&mut self, n: usize) {
        self.body.resize(n, Instr::Nop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb(n: usize, term: Terminator) -> BasicBlock {
        BasicBlock::new(vec![Instr::IntAlu; n], term)
    }

    #[test]
    fn size_includes_terminator_slot() {
        let b = bb(3, Terminator::Return);
        assert_eq!(b.instr_count(), 4);
        assert_eq!(b.size_bytes(), 16);
    }

    #[test]
    fn empty_body_still_occupies_one_slot() {
        let b = bb(0, Terminator::Exit);
        assert_eq!(b.size_bytes(), BYTES_PER_INSTR);
    }

    #[test]
    fn branch_successors_deduplicate() {
        let t = Terminator::branch(BlockId::new(1), BlockId::new(1), BranchBias::fixed(0.5));
        assert_eq!(t.successors(), vec![BlockId::new(1)]);
    }

    #[test]
    fn switch_successors_deduplicate_preserving_order() {
        let t = Terminator::Switch {
            targets: vec![
                (BlockId::new(2), 1),
                (BlockId::new(1), 3),
                (BlockId::new(2), 9),
            ],
        };
        assert_eq!(t.successors(), vec![BlockId::new(2), BlockId::new(1)]);
    }

    #[test]
    fn call_successor_is_return_continuation() {
        let t = Terminator::call(FuncId::new(4), BlockId::new(7));
        assert_eq!(t.successors(), vec![BlockId::new(7)]);
        assert!(!t.is_function_exit());
    }

    #[test]
    fn exit_terminators_have_no_successors() {
        assert!(Terminator::Return.successors().is_empty());
        assert!(Terminator::Exit.successors().is_empty());
        assert!(Terminator::Return.is_function_exit());
        assert!(Terminator::Exit.is_function_exit());
    }

    #[test]
    fn fixed_bias_ignores_input() {
        let b = BranchBias::fixed(0.3);
        let p0 = b.effective(1, site_key("main", BlockId::new(0)));
        let p1 = b.effective(99, site_key("other", BlockId::new(9)));
        assert_eq!(p0, 0.3);
        assert_eq!(p1, 0.3);
    }

    #[test]
    fn varying_bias_is_deterministic_and_bounded() {
        let b = BranchBias::varying(0.5, 0.2);
        let p = b.effective(42, site_key("f", BlockId::new(2)));
        let q = b.effective(42, site_key("f", BlockId::new(2)));
        assert_eq!(p, q, "same input must give same probability");
        assert!((0.3..=0.7).contains(&p), "p = {p} outside base +/- spread");
    }

    #[test]
    fn varying_bias_differs_across_inputs() {
        let b = BranchBias::varying(0.5, 0.3);
        let probs: Vec<f64> = (0..8)
            .map(|seed| b.effective(seed, site_key("main", BlockId::new(0))))
            .collect();
        let first = probs[0];
        assert!(
            probs.iter().any(|p| (p - first).abs() > 1e-9),
            "expected at least two distinct per-input probabilities: {probs:?}"
        );
    }

    #[test]
    fn varying_bias_clamps_to_unit_interval() {
        let b = BranchBias::varying(0.99, 0.5);
        for seed in 0..64 {
            let p = b.effective(seed, site_key("main", BlockId::new(0)));
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn fixed_bias_rejects_bad_probability() {
        let _ = BranchBias::fixed(1.5);
    }

    #[test]
    fn resize_body_pads_with_nops() {
        let mut b = bb(2, Terminator::Return);
        b.resize_body(4);
        assert_eq!(b.body().len(), 4);
        assert_eq!(b.body()[3], Instr::Nop);
        b.resize_body(1);
        assert_eq!(b.body().len(), 1);
        assert_eq!(b.body()[0], Instr::IntAlu);
    }
}
