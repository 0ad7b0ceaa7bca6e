//! Static profile estimation: branch heuristics plus frequency
//! propagation, producing a [`Profile`] without executing the program.
//!
//! The paper's pipeline is profile-driven — Step 1 *measures* a weighted
//! call graph and weighted control graphs by running the program on
//! representative inputs. This module answers the follow-up question:
//! how far does the same five-step pipeline get when the weights are
//! *predicted* from program structure alone?
//!
//! The estimator has three layers:
//!
//! 1. **Branch heuristics** (Ball/Larus style): each CFG edge gets a
//!    static probability from first-match rules — back edges are taken
//!    (0.88), edges staying in a loop beat exits (0.80), arms leading to
//!    a return are avoided (0.28), arms leading to a call are slightly
//!    avoided (0.40), anything else is 50/50. Switch tables are uniform
//!    per entry. The heuristics read only *structure* — never
//!    [`impact_ir::BranchBias`] parameters or switch selection weights,
//!    which are this repo's stand-in for actual program behavior and
//!    would make the "static" estimate a measurement in disguise.
//! 2. **Local propagation** (Wu/Larus style): per-invocation block and
//!    edge frequencies from iterated flow equations
//!    (`freq(b) = Σ freq(pred) · prob(pred → b)`, entry seeded at 1.0),
//!    solved Gauss–Seidel in reverse postorder.
//! 3. **Call-graph propagation**: function invocation counts pushed
//!    through the call-graph SCC condensation in caller-first order,
//!    with bounded iteration inside recursive components.
//!
//! [`StaticProfiler`] packages the result as an ordinary [`Profile`]
//! (scaled to integer counts), so trace selection, function layout and
//! global layout consume it unchanged via
//! [`impact_profile::ProfileSource`].

use std::collections::BTreeMap;

use impact_ir::{BlockId, FuncId, Function, Program, Terminator};
use impact_profile::{Profile, ProfileSource};

use crate::flow::{CallSccs, Dominators, LoopForest};

/// Probability that a back edge (loop-closing branch arm) is taken.
pub const PROB_BACK_EDGE: f64 = 0.88;
/// Probability of the arm that stays inside the innermost loop when the
/// other arm exits it.
pub const PROB_LOOP_STAY: f64 = 0.80;
/// Probability of an arm whose target immediately returns/exits.
pub const PROB_RETURN_ARM: f64 = 0.28;
/// Probability of an arm whose target performs a call (mild avoidance).
pub const PROB_CALL_ARM: f64 = 0.40;

/// Convergence tolerance for the call-graph SCC iteration.
const LOCAL_TOLERANCE: f64 = 1e-9;
/// Rounds of bounded iteration inside a recursive call-graph component.
const SCC_ROUNDS: usize = 32;
/// Frequency ceiling — keeps recursive components finite.
const FREQ_CLAMP: f64 = 1e15;

/// Counts scale: estimated frequencies are multiplied by this before
/// rounding into the integer [`Profile`], so one program run maps to
/// 10 000 profile "counts" and sub-unit frequencies survive rounding.
pub const SCALE: f64 = 10_000.0;

/// Static per-invocation estimate for one function: edge probabilities
/// and the block frequencies they imply.
#[derive(Debug, Clone)]
pub struct FunctionEstimate {
    /// Heuristic probability of every CFG edge, keyed `(from, to)`.
    /// Probabilities out of a block sum to 1.0 (or 0.0 for exits).
    pub edge_prob: BTreeMap<(BlockId, BlockId), f64>,
    /// Expected executions of each block per function invocation
    /// (entry ≥ 1.0; unreachable blocks are 0.0).
    pub local_freq: Vec<f64>,
}

/// Whole-program static estimate: per-function local frequencies plus
/// propagated invocation counts (entry function = 1.0 per run).
#[derive(Debug, Clone)]
pub struct ProgramEstimate {
    /// Per-function estimates, indexed by function id.
    pub funcs: Vec<FunctionEstimate>,
    /// Estimated invocations of each function per program run.
    pub invocations: Vec<f64>,
}

/// Assigns a heuristic probability to every outgoing CFG edge of every
/// block in `func`. First matching rule wins; when both branch arms are
/// the same block the edge gets probability 1.0.
#[must_use]
pub fn edge_probabilities(
    func: &Function,
    forest: &LoopForest,
) -> BTreeMap<(BlockId, BlockId), f64> {
    let mut probs = BTreeMap::new();
    for (b, block) in func.blocks() {
        match block.terminator() {
            Terminator::Jump { target } => {
                probs.insert((b, *target), 1.0);
            }
            Terminator::Call { ret_to, .. } => {
                // Statically, calls are assumed to return.
                probs.insert((b, *ret_to), 1.0);
            }
            Terminator::Branch {
                taken, not_taken, ..
            } => {
                if taken == not_taken {
                    probs.insert((b, *taken), 1.0);
                } else {
                    let p_taken = branch_arm_probability(func, forest, b, *taken, *not_taken);
                    probs.insert((b, *taken), p_taken);
                    probs.insert((b, *not_taken), 1.0 - p_taken);
                }
            }
            Terminator::Switch { targets } => {
                // Uniform per table entry: the entry *multiplicity* is
                // structural (a bigger jump-table share), but the u32
                // selection weights are behavioral and stay unread.
                if !targets.is_empty() {
                    let share = 1.0 / targets.len() as f64;
                    for (t, _) in targets {
                        *probs.entry((b, *t)).or_insert(0.0) += share;
                    }
                }
            }
            Terminator::Return | Terminator::Exit => {}
        }
    }
    probs
}

/// Heuristic probability of the `taken` arm of a two-way branch.
/// Rules are tried in priority order; the first that discriminates the
/// arms decides.
fn branch_arm_probability(
    func: &Function,
    forest: &LoopForest,
    from: BlockId,
    taken: BlockId,
    not_taken: BlockId,
) -> f64 {
    // Loop-branch heuristic: the loop-closing arm is taken.
    let back_t = forest.is_back_edge(from, taken);
    let back_n = forest.is_back_edge(from, not_taken);
    match (back_t, back_n) {
        (true, false) => return PROB_BACK_EDGE,
        (false, true) => return 1.0 - PROB_BACK_EDGE,
        _ => {}
    }

    // Loop-exit heuristic: prefer the arm that stays in the loop.
    let exit_t = forest.is_loop_exit(from, taken);
    let exit_n = forest.is_loop_exit(from, not_taken);
    match (exit_t, exit_n) {
        (true, false) => return 1.0 - PROB_LOOP_STAY,
        (false, true) => return PROB_LOOP_STAY,
        _ => {}
    }

    // Return heuristic: an arm that immediately leaves the function is
    // the unlikely error/early-out path.
    let ret_t = func.block(taken).terminator().is_function_exit();
    let ret_n = func.block(not_taken).terminator().is_function_exit();
    match (ret_t, ret_n) {
        (true, false) => return PROB_RETURN_ARM,
        (false, true) => return 1.0 - PROB_RETURN_ARM,
        _ => {}
    }

    // Call heuristic: mildly avoid the arm that performs a call.
    let call_t = matches!(func.block(taken).terminator(), Terminator::Call { .. });
    let call_n = matches!(func.block(not_taken).terminator(), Terminator::Call { .. });
    match (call_t, call_n) {
        (true, false) => return PROB_CALL_ARM,
        (false, true) => return 1.0 - PROB_CALL_ARM,
        _ => {}
    }

    0.5
}

/// Solves the flow equations for one function: per-invocation block
/// frequencies with the entry seeded at 1.0.
///
/// The equations `freq(b) = source(b) + Σ freq(p) · prob(p → b)` form a
/// linear system over the reachable blocks; it is solved directly by
/// Gaussian elimination with partial pivoting. A direct solve sidesteps
/// the convergence problems of fixpoint iteration — a loop nest with
/// several 0.88-probability latches retains > 0.99 of its flow per trip
/// and would need tens of thousands of Jacobi sweeps. Structurally
/// infinite loops (no exit edge) make the system singular; the
/// near-zero pivot is floored so their frequency comes out huge but
/// finite, then clamped to `FREQ_CLAMP`.
#[must_use]
pub fn local_frequencies(
    func: &Function,
    doms: &Dominators,
    probs: &BTreeMap<(BlockId, BlockId), f64>,
) -> Vec<f64> {
    let order = doms.reverse_postorder();
    let n = order.len();
    // Dense row per reachable block: A = I − Wᵀ, rhs = entry indicator.
    let pos: BTreeMap<BlockId, usize> = order.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    let mut a = vec![vec![0.0f64; n]; n];
    let mut rhs = vec![0.0f64; n];
    for (i, &b) in order.iter().enumerate() {
        a[i][i] = 1.0;
        if b == func.entry() {
            rhs[i] = 1.0;
        }
    }
    for (&(from, to), &p) in probs {
        if let (Some(&fi), Some(&ti)) = (pos.get(&from), pos.get(&to)) {
            a[ti][fi] -= p;
        }
    }

    // Gaussian elimination with partial pivoting.
    for col in 0..n {
        let pivot_row = (col..n)
            .max_by(|&x, &y| a[x][col].abs().total_cmp(&a[y][col].abs()))
            .unwrap_or(col);
        a.swap(col, pivot_row);
        rhs.swap(col, pivot_row);
        if a[col][col].abs() < 1e-12 {
            // Singular direction (loop with no exit): floor the pivot.
            a[col][col] = if a[col][col] < 0.0 { -1e-12 } else { 1e-12 };
        }
        let (upper, lower) = a.split_at_mut(col + 1);
        let pivot = &upper[col];
        for (off, row) in lower.iter_mut().enumerate() {
            let factor = row[col] / pivot[col];
            if factor == 0.0 {
                continue;
            }
            for (cell, &p) in row[col..].iter_mut().zip(&pivot[col..]) {
                *cell -= factor * p;
            }
            rhs[col + 1 + off] -= factor * rhs[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut v = rhs[row];
        for k in row + 1..n {
            v -= a[row][k] * x[k];
        }
        x[row] = (v / a[row][row]).clamp(0.0, FREQ_CLAMP);
    }

    let mut freq = vec![0.0f64; func.block_count()];
    for (i, &b) in order.iter().enumerate() {
        freq[b.index()] = x[i];
    }
    freq
}

/// Estimates block frequencies and function invocation counts for the
/// whole program (one program run ≙ entry-function invocation 1.0).
#[must_use]
pub fn estimate(program: &Program) -> ProgramEstimate {
    let funcs: Vec<FunctionEstimate> = program
        .functions()
        .map(|(_, func)| {
            let doms = Dominators::compute(func);
            let forest = LoopForest::compute(func, &doms);
            let edge_prob = edge_probabilities(func, &forest);
            let local_freq = local_frequencies(func, &doms, &edge_prob);
            FunctionEstimate {
                edge_prob,
                local_freq,
            }
        })
        .collect();

    // Per-invocation call-site frequencies: (site block, callee, freq).
    let site_freqs: Vec<Vec<(FuncId, f64)>> = program
        .functions()
        .map(|(f, func)| {
            func.blocks()
                .filter_map(|(b, block)| match block.terminator() {
                    Terminator::Call { callee, .. } => {
                        Some((*callee, funcs[f.index()].local_freq[b.index()]))
                    }
                    _ => None,
                })
                .collect()
        })
        .collect();

    let sccs = CallSccs::compute(program);
    let mut invocations = vec![0.0f64; program.function_count()];
    invocations[program.entry().index()] = 1.0;

    for (ci, comp) in sccs.components().iter().enumerate() {
        if sccs.is_cyclic(ci) {
            // External inflow is already accumulated in `invocations`;
            // iterate the internal arcs to a bounded fixpoint.
            let external: Vec<f64> = comp.iter().map(|&f| invocations[f.index()]).collect();
            for _ in 0..SCC_ROUNDS {
                let mut changed = false;
                for (k, &f) in comp.iter().enumerate() {
                    let mut inv = external[k];
                    for &g in comp.iter() {
                        for &(callee, freq) in &site_freqs[g.index()] {
                            if callee == f {
                                inv += invocations[g.index()] * freq;
                            }
                        }
                    }
                    let inv = inv.min(FREQ_CLAMP);
                    if (inv - invocations[f.index()]).abs() > LOCAL_TOLERANCE {
                        changed = true;
                    }
                    invocations[f.index()] = inv;
                }
                if !changed {
                    break;
                }
            }
        }
        // Push this component's settled invocations out to later
        // components (calls inside the component were handled above and
        // re-adding them here would double count, so skip them).
        for &f in comp {
            let inv = invocations[f.index()];
            if inv == 0.0 {
                continue;
            }
            for &(callee, freq) in &site_freqs[f.index()] {
                if sccs.component_of(callee) != ci {
                    invocations[callee.index()] =
                        (invocations[callee.index()] + inv * freq).min(FREQ_CLAMP);
                }
            }
        }
    }

    ProgramEstimate { funcs, invocations }
}

/// A [`ProfileSource`] that *predicts* the weighted call/control graphs
/// instead of measuring them.
///
/// The emitted [`Profile`] reports one run with every frequency scaled
/// by [`SCALE`] and rounded; `totals.truncated` is always `false`.
/// Estimated profiles are not integer-flow-exact (rounding breaks exact
/// Kirchhoff sums, which only matters to lint passes that audit
/// *measured* profiles) but are fully deterministic.
#[derive(Debug, Clone, Default)]
pub struct StaticProfiler;

impl StaticProfiler {
    /// A static profiler with default heuristics.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// The f64-level estimate backing [`ProfileSource::profile`].
    #[must_use]
    pub fn estimate(&self, program: &Program) -> ProgramEstimate {
        estimate(program)
    }
}

impl ProfileSource for StaticProfiler {
    fn profile(&self, program: &Program) -> Profile {
        let est = estimate(program);
        let mut profile = Profile::empty_for(program);
        let count = |x: f64| (x * SCALE).round() as u64;

        for (f, func) in program.functions() {
            let fe = &est.funcs[f.index()];
            let inv = est.invocations[f.index()];
            let fp = &mut profile.funcs[f.index()];
            fp.invocations = count(inv);
            for b in func.block_ids() {
                fp.block_counts[b.index()] = count(inv * fe.local_freq[b.index()]);
            }
            for (&(from, to), &p) in &fe.edge_prob {
                let w = count(inv * fe.local_freq[from.index()] * p);
                if w > 0 {
                    fp.arcs.insert((from, to), w);
                }
            }
            for (b, block) in func.blocks() {
                match block.terminator() {
                    Terminator::Call { callee, .. } => {
                        let w = count(inv * fe.local_freq[b.index()]);
                        if w > 0 {
                            profile.call_sites.insert((f, b), w);
                            *profile.call_arcs.entry((f, *callee)).or_insert(0) += w;
                        }
                        profile.totals.calls += w;
                    }
                    Terminator::Return | Terminator::Exit => {}
                    _ => {
                        profile.totals.intra_transfers += count(inv * fe.local_freq[b.index()]);
                    }
                }
                let blocks = count(inv * fe.local_freq[b.index()]);
                profile.totals.blocks += blocks;
                profile.totals.instructions += blocks * block.instr_count();
            }
        }
        // Statically every call is assumed to return.
        profile.totals.returns = profile.totals.calls;
        profile.totals.truncated = false;
        profile.runs = 1;
        profile
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, Instr, ProgramBuilder};
    use impact_support::check;

    use super::*;

    /// entry -> loop { body } -> exit with a 0.88-heuristic back edge.
    fn simple_loop() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let b0 = f.block(vec![Instr::IntAlu]);
        let b1 = f.block(vec![Instr::Load]);
        let b2 = f.block(vec![]);
        f.terminate(b0, Terminator::jump(b1));
        // The behavioral bias says 0.1 — the heuristic must ignore it.
        f.terminate(b1, Terminator::branch(b1, b2, BranchBias::fixed(0.1)));
        f.terminate(b2, Terminator::Exit);
        let mid = f.finish();
        pb.set_entry(mid);
        pb.finish().unwrap()
    }

    #[test]
    fn back_edge_gets_the_loop_probability() {
        let p = simple_loop();
        let func = p.function(p.entry());
        let doms = Dominators::compute(func);
        let forest = LoopForest::compute(func, &doms);
        let probs = edge_probabilities(func, &forest);
        let b = BlockId::new;
        assert_eq!(probs[&(b(1), b(1))], PROB_BACK_EDGE);
        assert!((probs[&(b(1), b(2))] - (1.0 - PROB_BACK_EDGE)).abs() < 1e-12);
    }

    #[test]
    fn loop_frequency_matches_geometric_series() {
        let p = simple_loop();
        let func = p.function(p.entry());
        let doms = Dominators::compute(func);
        let forest = LoopForest::compute(func, &doms);
        let probs = edge_probabilities(func, &forest);
        let freq = local_frequencies(func, &doms, &probs);
        // Expected trips: 1 / (1 - 0.88) ≈ 8.333…
        assert!((freq[1] - 1.0 / (1.0 - PROB_BACK_EDGE)).abs() < 1e-6);
        assert!((freq[0] - 1.0).abs() < 1e-9);
        assert!((freq[2] - 1.0).abs() < 1e-6, "exactly one exit per run");
    }

    #[test]
    fn return_arm_is_predicted_cold() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let b0 = f.block(vec![]);
        let early = f.block(vec![]); // immediate exit
        let work = f.block(vec![Instr::IntAlu]);
        f.terminate(b0, Terminator::branch(early, work, BranchBias::fixed(0.9)));
        f.terminate(early, Terminator::Exit);
        f.terminate(work, Terminator::Exit);
        let mid = f.finish();
        pb.set_entry(mid);
        let p = pb.finish().unwrap();
        let func = p.function(p.entry());
        let doms = Dominators::compute(func);
        let forest = LoopForest::compute(func, &doms);
        let probs = edge_probabilities(func, &forest);
        // Both arms exit immediately -> rule doesn't discriminate -> 0.5.
        let b = BlockId::new;
        assert_eq!(probs[&(b(0), b(1))], 0.5);
    }

    #[test]
    fn switch_probability_is_uniform_per_entry() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let b0 = f.block(vec![]);
        let a = f.block(vec![]);
        let bb = f.block(vec![]);
        f.terminate(
            b0,
            // Lopsided behavioral weights; heuristic sees entries only.
            Terminator::Switch {
                targets: vec![(a, 1000), (a, 1), (bb, 1)],
            },
        );
        f.terminate(a, Terminator::Exit);
        f.terminate(bb, Terminator::Exit);
        let mid = f.finish();
        pb.set_entry(mid);
        let p = pb.finish().unwrap();
        let func = p.function(p.entry());
        let doms = Dominators::compute(func);
        let forest = LoopForest::compute(func, &doms);
        let probs = edge_probabilities(func, &forest);
        // `a` holds 2 of 3 entries regardless of the u32 weights.
        assert!((probs[&(BlockId::new(0), BlockId::new(1))] - 2.0 / 3.0).abs() < 1e-12);
        assert!((probs[&(BlockId::new(0), BlockId::new(2))] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn invocations_propagate_through_the_call_graph() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.reserve("leaf");
        let mut main = pb.function("main");
        let b0 = main.block(vec![]);
        let call = main.block(vec![]);
        let latch = main.block(vec![]);
        let exit = main.block(vec![]);
        main.terminate(b0, Terminator::jump(call));
        main.terminate(call, Terminator::call(leaf, latch));
        main.terminate(
            latch,
            Terminator::branch(call, exit, BranchBias::fixed(0.5)),
        );
        main.terminate(exit, Terminator::Exit);
        let mid = main.finish();
        let mut lf = pb.function_reserved(leaf);
        let l0 = lf.block(vec![Instr::Store]);
        lf.terminate(l0, Terminator::Return);
        lf.finish();
        pb.set_entry(mid);
        let p = pb.finish().unwrap();

        let est = estimate(&p);
        let leaf_id = p.function_by_name("leaf").unwrap();
        assert!((est.invocations[p.entry().index()] - 1.0).abs() < 1e-9);
        // The call sits in a loop: leaf must be invoked > 1 time per run.
        assert!(est.invocations[leaf_id.index()] > 1.0);

        let prof = StaticProfiler::new().profile(&p);
        assert_eq!(prof.func_weight(p.entry()), SCALE as u64);
        assert_eq!(
            prof.call_site_weight(p.entry(), BlockId::new(1)),
            prof.func_weight(leaf_id)
        );
        assert_eq!(prof.totals.calls, prof.totals.returns);
        assert!(!prof.totals.truncated);
        assert_eq!(prof.runs, 1);
    }

    #[test]
    fn recursion_stays_finite() {
        let mut pb = ProgramBuilder::new();
        let me = pb.reserve("recur");
        let mut f = pb.function_reserved(me);
        let b0 = f.block(vec![]);
        let rec = f.block(vec![]);
        let back = f.block(vec![]);
        let out = f.block(vec![]);
        f.terminate(b0, Terminator::branch(rec, out, BranchBias::fixed(0.5)));
        f.terminate(rec, Terminator::call(me, back));
        f.terminate(back, Terminator::jump(out));
        f.terminate(out, Terminator::Exit);
        f.finish();
        pb.set_entry(me);
        let p = pb.finish().unwrap();
        let est = estimate(&p);
        let inv = est.invocations[p.entry().index()];
        assert!(inv.is_finite() && (1.0..=FREQ_CLAMP).contains(&inv));
    }

    #[test]
    fn static_profiles_are_deterministic() {
        let w = impact_workloads::by_name("wc").unwrap();
        let a = StaticProfiler::new().profile(&w.program);
        let b = StaticProfiler::new().profile(&w.program);
        assert_eq!(a, b);
    }

    /// Random reducible CFG: forward edges plus Branch back edges whose
    /// other arm always continues forward, so every loop has an exit.
    fn random_program(rng: &mut impact_support::Rng) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let n = rng.gen_range_inclusive(4, 12);
        let blocks: Vec<BlockId> = (0..n)
            .map(|_| f.block(vec![Instr::IntAlu; rng.gen_range_inclusive(0, 3)]))
            .collect();
        for i in 0..n {
            let b = blocks[i];
            if i + 1 == n {
                f.terminate(b, Terminator::Exit);
                continue;
            }
            let next = blocks[i + 1];
            match rng.gen_below(4) {
                0 => f.terminate(b, Terminator::jump(next)),
                1 if i > 0 => {
                    // Back edge to an earlier block, forward exit arm.
                    let head = blocks[rng.gen_range_inclusive(0, i - 1).min(i - 1)];
                    f.terminate(b, Terminator::branch(head, next, BranchBias::fixed(0.5)));
                }
                2 => {
                    // Forward branch over a random later block.
                    let far = blocks[rng.gen_range_inclusive(i + 1, n - 1)];
                    f.terminate(b, Terminator::branch(far, next, BranchBias::fixed(0.5)));
                }
                _ => {
                    let far = blocks[rng.gen_range_inclusive(i + 1, n - 1)];
                    f.terminate(
                        b,
                        Terminator::Switch {
                            targets: vec![(next, 1), (far, 3), (next, 2)],
                        },
                    );
                }
            }
        }
        let mid = f.finish();
        pb.set_entry(mid);
        pb.finish().unwrap()
    }

    #[test]
    fn frequency_propagation_conserves_flow() {
        check::forall(64, random_program, |p| {
            let func = p.function(p.entry());
            let doms = Dominators::compute(func);
            let forest = LoopForest::compute(func, &doms);
            let probs = edge_probabilities(func, &forest);
            let freq = local_frequencies(func, &doms, &probs);
            let preds = func.predecessors();
            for b in func.block_ids() {
                if !doms.is_reachable(b) {
                    continue;
                }
                let inflow: f64 = preds[b.index()]
                    .iter()
                    .map(|&p_| freq[p_.index()] * probs.get(&(p_, b)).copied().unwrap_or(0.0))
                    .sum();
                let expected = inflow + if b == func.entry() { 1.0 } else { 0.0 };
                assert!(
                    (freq[b.index()] - expected).abs() < 1e-6,
                    "Kirchhoff violated at {b:?}: freq={} inflow+source={expected}",
                    freq[b.index()],
                );
            }
            // Flow out of the function equals flow in: one unit per run.
            let outflow: f64 = func
                .blocks()
                .filter(|(_, blk)| blk.terminator().is_function_exit())
                .map(|(b, _)| freq[b.index()])
                .sum();
            assert!(
                (outflow - 1.0).abs() < 1e-6,
                "function consumes one unit of flow, got {outflow}"
            );
        });
    }
}
