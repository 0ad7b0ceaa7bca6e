//! Weighted call/control graphs accumulated over profiling runs.

use std::collections::BTreeMap;

use impact_ir::{BlockId, FuncId, Program, Terminator};

use crate::walk::{ExecLimits, ExecSummary, Image, Recorder};

/// The weighted control graph of one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FunctionProfile {
    /// Times the function was invoked.
    pub invocations: u64,
    /// Execution count per basic block (indexed by block id).
    pub block_counts: Vec<u64>,
    /// Intra-function arc execution counts, keyed `(from, to)`.
    ///
    /// A `Call` terminator contributes an arc from the calling block to its
    /// return continuation, recorded when the callee actually returns (so
    /// a program that exits inside the callee does not inflate the arc).
    pub arcs: BTreeMap<(BlockId, BlockId), u64>,
}

impl FunctionProfile {
    /// Outgoing weighted arcs of `block`, heaviest first (ties broken by
    /// destination id for determinism).
    #[must_use]
    pub fn successors_by_weight(&self, block: BlockId) -> Vec<(BlockId, u64)> {
        let mut out: Vec<(BlockId, u64)> = self
            .arcs
            .range((block, BlockId::new(0))..=(block, BlockId::new(u32::MAX as usize)))
            .map(|(&(_, to), &w)| (to, w))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Incoming weighted arcs of `block`, heaviest first (ties broken by
    /// source id).
    #[must_use]
    pub fn predecessors_by_weight(&self, block: BlockId) -> Vec<(BlockId, u64)> {
        let mut out: Vec<(BlockId, u64)> = self
            .arcs
            .iter()
            .filter(|(&(_, to), _)| to == block)
            .map(|(&(from, _), &w)| (from, w))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// A complete program profile: weighted call graph plus one weighted
/// control graph per function, with whole-run totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Per-function weighted control graphs (indexed by function id).
    pub funcs: Vec<FunctionProfile>,
    /// Execution count of every call site `(caller, calling block)`.
    pub call_sites: BTreeMap<(FuncId, BlockId), u64>,
    /// Weighted call-graph arcs `(caller, callee)`; self-arcs are kept
    /// (the global layout pass zeroes them per the paper's pseudocode).
    pub call_arcs: BTreeMap<(FuncId, FuncId), u64>,
    /// Number of profiling runs accumulated.
    pub runs: u32,
    /// Aggregate walk statistics summed over runs.
    pub totals: ExecSummary,
}

impl Profile {
    /// Creates an empty profile shaped for `program`.
    #[must_use]
    pub fn empty_for(program: &Program) -> Self {
        Self {
            funcs: program
                .functions()
                .map(|(_, f)| FunctionProfile {
                    invocations: 0,
                    block_counts: vec![0; f.block_count()],
                    arcs: BTreeMap::new(),
                })
                .collect(),
            ..Self::default()
        }
    }

    /// Execution count of a basic block.
    #[must_use]
    pub fn block_weight(&self, func: FuncId, block: BlockId) -> u64 {
        self.funcs[func.index()].block_counts[block.index()]
    }

    /// Invocation count of a function (the node weight of the weighted
    /// call graph).
    #[must_use]
    pub fn func_weight(&self, func: FuncId) -> u64 {
        self.funcs[func.index()].invocations
    }

    /// Execution count of one call site.
    #[must_use]
    pub fn call_site_weight(&self, caller: FuncId, block: BlockId) -> u64 {
        *self.call_sites.get(&(caller, block)).unwrap_or(&0)
    }

    /// Weight of a call-graph arc `(caller, callee)`, with self-arcs
    /// reported as zero (matching `weight(X, X) = 0` in the paper's
    /// `GlobalLayout` pseudocode).
    #[must_use]
    pub fn call_arc_weight(&self, caller: FuncId, callee: FuncId) -> u64 {
        if caller == callee {
            return 0;
        }
        *self.call_arcs.get(&(caller, callee)).unwrap_or(&0)
    }

    /// The function profile for `func`.
    #[must_use]
    pub fn function(&self, func: FuncId) -> &FunctionProfile {
        &self.funcs[func.index()]
    }

    /// Dynamic instructions per dynamic call (Table 3, "DI's per call").
    /// Returns `None` if no calls were executed.
    #[must_use]
    pub fn instrs_per_call(&self) -> Option<f64> {
        (self.totals.calls > 0).then(|| self.totals.instructions as f64 / self.totals.calls as f64)
    }

    /// Intra-function control transfers per dynamic call (Table 3, "CT's
    /// per call"). Returns `None` if no calls were executed.
    #[must_use]
    pub fn transfers_per_call(&self) -> Option<f64> {
        (self.totals.calls > 0)
            .then(|| self.totals.intra_transfers as f64 / self.totals.calls as f64)
    }

    /// Merges another profile of the *same program shape* into this one.
    ///
    /// # Panics
    ///
    /// Panics if the profiles have different function/block shapes.
    pub fn merge(&mut self, other: &Profile) {
        assert_eq!(self.funcs.len(), other.funcs.len(), "shape mismatch");
        for (a, b) in self.funcs.iter_mut().zip(&other.funcs) {
            assert_eq!(a.block_counts.len(), b.block_counts.len(), "shape mismatch");
            a.invocations += b.invocations;
            for (x, y) in a.block_counts.iter_mut().zip(&b.block_counts) {
                *x += *y;
            }
            for (&k, &w) in &b.arcs {
                *a.arcs.entry(k).or_insert(0) += w;
            }
        }
        for (&k, &w) in &other.call_sites {
            *self.call_sites.entry(k).or_insert(0) += w;
        }
        for (&k, &w) in &other.call_arcs {
            *self.call_arcs.entry(k).or_insert(0) += w;
        }
        self.runs += other.runs;
        self.totals += other.totals;
    }
}

/// Flat execution counts of walks over an [`Image`].
///
/// Only what the walk decides is counted: a `Jump` transfers every time
/// its block runs and a `Branch` falls through whenever it is not taken,
/// since the walk checks its caps only after a transfer.
struct Counts {
    /// Executions per global block.
    blocks: Vec<u64>,
    /// Per branch block, times its branch was taken.
    taken: Vec<u64>,
    /// Per call block, times it called.
    calls: Vec<u64>,
    /// Per call block, times a return resumed after it.
    resumed: Vec<u64>,
    /// Per switch arm, times it was chosen.
    arms: Vec<u64>,
}

impl Counts {
    /// Zeroed counts for the blocks and arms of `image`.
    fn new(image: &Image) -> Self {
        let blocks = vec![0; image.blocks()];
        Self {
            taken: blocks.clone(),
            calls: blocks.clone(),
            resumed: blocks.clone(),
            blocks,
            arms: vec![0; image.arms()],
        }
    }

    /// Adds `other`, counts over the same image, into these.
    fn add(&mut self, other: &Self) {
        for (a, b) in [
            (&mut self.blocks, &other.blocks),
            (&mut self.taken, &other.taken),
            (&mut self.calls, &other.calls),
            (&mut self.resumed, &other.resumed),
            (&mut self.arms, &other.arms),
        ] {
            a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
        }
    }

    /// Zeroes every count.
    fn clear(&mut self) {
        for v in [
            &mut self.blocks,
            &mut self.taken,
            &mut self.calls,
            &mut self.resumed,
            &mut self.arms,
        ] {
            v.fill(0);
        }
    }
}

impl Recorder for Counts {
    #[inline]
    fn block(&mut self, g: usize, _size: u32) {
        self.blocks[g] += 1;
    }
    #[inline]
    fn taken(&mut self, g: usize) {
        self.taken[g] += 1;
    }
    #[inline]
    fn arm(&mut self, arm: usize) {
        self.arms[arm] += 1;
    }
    #[inline]
    fn call(&mut self, g: usize) {
        self.calls[g] += 1;
    }
    #[inline]
    fn resume(&mut self, g: usize) {
        self.resumed[g] += 1;
    }
}

/// Builds the [`Profile`] of `program` from its flat counts. Nonzero
/// counts only become map entries, and arcs that share a key (a repeated
/// `Switch` target, or `taken == not_taken`) fold into one.
fn build_profile(program: &Program, counts: &Counts) -> Profile {
    fn add<K: Ord>(map: &mut BTreeMap<K, u64>, key: K, w: u64) {
        if w > 0 {
            *map.entry(key).or_insert(0) += w;
        }
    }
    let mut profile = Profile::empty_for(program);
    let (mut g, mut arm) = (0, 0);
    for (fid, func) in program.functions() {
        let first = g;
        let mut arcs = BTreeMap::new();
        for (bid, bb) in func.blocks() {
            let runs = counts.blocks[g];
            match bb.terminator() {
                Terminator::Jump { target } => add(&mut arcs, (bid, *target), runs),
                Terminator::Branch {
                    taken, not_taken, ..
                } => {
                    add(&mut arcs, (bid, *taken), counts.taken[g]);
                    add(&mut arcs, (bid, *not_taken), runs - counts.taken[g]);
                }
                Terminator::Switch { targets } => {
                    for &(to, _) in targets {
                        add(&mut arcs, (bid, to), counts.arms[arm]);
                        arm += 1;
                    }
                }
                Terminator::Call { callee, ret_to } => {
                    add(&mut arcs, (bid, *ret_to), counts.resumed[g]);
                    let calls = counts.calls[g];
                    add(&mut profile.call_sites, (fid, bid), calls);
                    add(&mut profile.call_arcs, (fid, *callee), calls);
                    profile.funcs[callee.index()].invocations += calls;
                }
                Terminator::Return | Terminator::Exit => {}
            }
            g += 1;
        }
        let f = &mut profile.funcs[fid.index()];
        f.block_counts = counts.blocks[first..g].to_vec();
        f.arcs = arcs;
    }
    profile
}

/// A strategy for producing a [`Profile`] of a program.
///
/// The placement pipeline only consumes weighted call/control graphs; it
/// does not care whether the weights were *measured* (the [`Profiler`]
/// interprets the program over input seeds) or *estimated* (a static
/// analyzer predicts frequencies without executing anything, as in
/// `impact-analyze`). Abstracting the producer lets the same five-step
/// pipeline run profile-free — the question the paper's profile-driven
/// approach cannot answer.
///
/// Implementations must be deterministic: the same program must always
/// yield the same profile, or pipeline reproducibility breaks.
pub trait ProfileSource {
    /// Produces a profile of `program`.
    fn profile(&self, program: &Program) -> Profile;
}

impl ProfileSource for Profiler {
    fn profile(&self, program: &Program) -> Profile {
        Profiler::profile(self, program)
    }
}

/// Runs a program over several input seeds and accumulates a [`Profile`].
///
/// Mirrors the paper's profiling methodology: "It is critical that the
/// inputs used ... be representative" — the profiler runs seeds
/// `base_seed .. base_seed + runs`, and evaluation (in `impact-trace`)
/// uses a held-out seed.
///
/// ```
/// use impact_profile::Profiler;
/// let workload = impact_workloads::by_name("wc").unwrap();
/// let profile = Profiler::new().runs(2).profile(&workload.program);
/// assert_eq!(profile.func_weight(workload.program.entry()), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Profiler {
    runs: u32,
    base_seed: u64,
    limits: ExecLimits,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// Profiling runs when none are given: the paper profiles each
    /// benchmark over several inputs.
    pub const DEFAULT_RUNS: u32 = 8;

    /// The evaluation input seed when none is given, the
    /// [`HELD_OUT_SEED`](impact_ir::HELD_OUT_SEED).
    pub const DEFAULT_EVAL_SEED: u64 = impact_ir::HELD_OUT_SEED;

    /// A profiler with [`Profiler::DEFAULT_RUNS`] runs starting at seed
    /// 0 and default limits.
    #[must_use]
    pub fn new() -> Self {
        Self {
            runs: Self::DEFAULT_RUNS,
            base_seed: 0,
            limits: ExecLimits::default(),
        }
    }

    /// Sets the number of profiling runs (the paper's "runs" column).
    ///
    /// # Panics
    ///
    /// Panics if `runs` fails [`Profiler::check_runs`].
    #[must_use]
    pub fn runs(mut self, runs: u32) -> Self {
        self.runs = Self::check_runs(runs.into()).unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// The one rule for a number of profiling runs, wherever it comes
    /// from: a positive count that fits a `u32`.
    ///
    /// # Errors
    ///
    /// States the rule when `runs` breaks it.
    pub fn check_runs(runs: u64) -> Result<u32, &'static str> {
        u32::try_from(runs)
            .ok()
            .filter(|&r| r > 0)
            .ok_or("runs must be a positive integer")
    }

    /// Sets the first input seed.
    #[must_use]
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets per-run execution limits.
    #[must_use]
    pub fn limits(mut self, limits: ExecLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Profiles `program` over the configured seeds.
    #[must_use]
    pub fn profile(&self, program: &Program) -> Profile {
        let mut image = Image::new(program);
        let mut counts = Counts::new(&image);
        let mut totals = ExecSummary::default();
        for seed in self.seeds() {
            totals += image.run(seed, self.limits, &mut counts);
        }
        self.finish(program, &counts, totals)
    }

    /// Profiles programs that differ only in block sizes, such as a
    /// program and its code-scaled copies, with one walk of their common
    /// shape per seed; the result is [`Profiler::profile`] of each
    /// program, in order.
    ///
    /// Branch outcomes depend only on function names, blocks, terminators
    /// and the seed, so every member walks the same block sequence, and a
    /// member's run is a prefix of the shared walk that ends at the block
    /// where its own instruction count reaches the cap. The walk freezes a
    /// member's counts and summary there, and ends when every member is
    /// frozen, or where the program exits or the call depth cuts every
    /// member alike. Programs that differ in anything the walk reads
    /// (entry, names, block counts, terminators with their biases and
    /// switch weights) are profiled one walk each.
    #[must_use]
    pub fn profile_family(&self, programs: &[&Program]) -> Vec<Profile> {
        let Some((&shape, rest)) = programs.split_first() else {
            return Vec::new();
        };
        if rest.is_empty() || !rest.iter().all(|p| same_walk(shape, p)) {
            return programs.iter().map(|p| self.profile(p)).collect();
        }
        let mut image = Image::new(shape);
        let mut family = Family {
            run: Counts::new(&image),
            members: programs
                .iter()
                .map(|p| Member {
                    sizes: p
                        .functions()
                        .flat_map(|(_, f)| f.blocks().map(|(_, bb)| bb.instr_count()))
                        .collect(),
                    counts: Counts::new(&image),
                    totals: ExecSummary::default(),
                    frozen: false,
                })
                .collect(),
            cap: self.limits.max_instructions,
        };
        // The shape walked is the family's widest program: each block has
        // its largest size over the members, so the walk's instruction
        // count bounds how far any member's count can have moved.
        for g in 0..image.blocks() {
            let widest = family.members.iter().map(|m| m.sizes[g]).max();
            image.set_size(g, widest.expect("a family has members"));
        }
        for seed in self.seeds() {
            let summary = image.run(seed, self.limits, &mut family);
            family.end_run(summary);
        }
        programs
            .iter()
            .zip(family.members)
            .map(|(p, m)| self.finish(p, &m.counts, m.totals))
            .collect()
    }

    /// The configured input seeds.
    fn seeds(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.runs).map(|run| self.base_seed + u64::from(run))
    }

    /// The [`Profile`] of `program` from its counts and summed summaries
    /// over the configured runs.
    fn finish(&self, program: &Program, counts: &Counts, totals: ExecSummary) -> Profile {
        let mut profile = build_profile(program, counts);
        profile.funcs[program.entry().index()].invocations += u64::from(self.runs);
        profile.runs = self.runs;
        profile.totals = totals;
        profile
    }
}

/// `true` if walks of `a` and `b` visit the same blocks under every seed
/// and limit but the instruction cap: they agree on everything the
/// walker reads except block sizes.
fn same_walk(a: &Program, b: &Program) -> bool {
    a.entry() == b.entry()
        && a.function_count() == b.function_count()
        && a.functions().zip(b.functions()).all(|((_, f), (_, g))| {
            f.name() == g.name()
                && f.entry() == g.entry()
                && f.block_count() == g.block_count()
                && f.blocks()
                    .zip(g.blocks())
                    .all(|((_, x), (_, y))| x.terminator() == y.terminator())
        })
}

/// One member of a [`Profiler::profile_family`] walk.
struct Member {
    /// Instructions per global block.
    sizes: Vec<u64>,
    /// Counts summed over the runs so far.
    counts: Counts,
    /// Walk summaries summed over the runs so far.
    totals: ExecSummary,
    /// `true` once the current run has reached this member's cut.
    frozen: bool,
}

impl Member {
    /// This member's instructions over the blocks counted in `run`.
    fn instructions(&self, run: &Counts) -> u64 {
        self.sizes.iter().zip(&run.blocks).map(|(s, n)| s * n).sum()
    }

    /// Ends this member's current run with `summary`: adds it and the
    /// run's counts so far.
    fn freeze(&mut self, run: &Counts, summary: ExecSummary) {
        self.counts.add(run);
        self.totals += summary;
        self.frozen = true;
    }
}

/// Counts walks of a family's widest program and freezes each member at
/// the first check where its instructions reach the cap.
///
/// Summing every member's instructions per block would cost the walk one
/// add per member. Instead, the walk's own count, of the widest sizes,
/// grows at least as fast as any member's, so the walk's cap is the first
/// check. At a check, each live member's count is recomputed from the
/// run's block counts, and the next check waits until the walk's count
/// has grown by the smallest headroom left: before then no member can
/// reach the cap.
struct Family {
    /// Counts of the current run.
    run: Counts,
    members: Vec<Member>,
    cap: u64,
}

impl Family {
    /// Ends a run whose walk gave `summary`: whoever the cap did not cut
    /// ran the whole walk.
    fn end_run(&mut self, summary: ExecSummary) {
        for m in &mut self.members {
            if !m.frozen {
                let instructions = m.instructions(&self.run);
                m.freeze(
                    &self.run,
                    ExecSummary {
                        instructions,
                        ..summary
                    },
                );
            }
            m.frozen = false;
        }
        self.run.clear();
    }
}

impl Recorder for Family {
    #[inline]
    fn block(&mut self, g: usize, size: u32) {
        self.run.block(g, size);
    }
    #[inline]
    fn taken(&mut self, g: usize) {
        self.run.taken(g);
    }
    #[inline]
    fn arm(&mut self, arm: usize) {
        self.run.arm(arm);
    }
    #[inline]
    fn call(&mut self, g: usize) {
        self.run.call(g);
    }
    #[inline]
    fn resume(&mut self, g: usize) {
        self.run.resume(g);
    }

    /// Freezes every live member whose instructions have reached the cap
    /// and schedules the next check, unless every member is frozen.
    #[cold]
    fn at_cap(&mut self, so_far: &ExecSummary) -> Option<u64> {
        let (mut live, mut headroom) = (false, u64::MAX);
        for m in &mut self.members {
            if m.frozen {
                continue;
            }
            let instructions = m.instructions(&self.run);
            if instructions >= self.cap {
                m.freeze(
                    &self.run,
                    ExecSummary {
                        instructions,
                        truncated: true,
                        ..*so_far
                    },
                );
            } else {
                live = true;
                headroom = headroom.min(self.cap - instructions);
            }
        }
        live.then(|| so_far.instructions.saturating_add(headroom))
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, Instr, ProgramBuilder, Terminator};

    use super::*;

    /// main: entry -> loop { call leaf } -> exit, leaf: one block.
    fn call_loop() -> Program {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.reserve("leaf");
        let mut main = pb.function("main");
        let entry = main.block(vec![Instr::IntAlu; 2]);
        let call = main.block(vec![Instr::Load]);
        let latch = main.block(vec![Instr::IntAlu]);
        let exit = main.block(vec![]);
        main.terminate(entry, Terminator::jump(call));
        main.terminate(call, Terminator::call(leaf, latch));
        main.terminate(
            latch,
            Terminator::branch(call, exit, BranchBias::fixed(0.8)),
        );
        main.terminate(exit, Terminator::Exit);
        let main_id = main.finish();
        let mut lf = pb.function_reserved(leaf);
        let l0 = lf.block(vec![Instr::Store; 2]);
        lf.terminate(l0, Terminator::Return);
        lf.finish();
        pb.set_entry(main_id);
        pb.finish().unwrap()
    }

    #[test]
    fn block_weights_reflect_execution() {
        let p = call_loop();
        let prof = Profiler::new().runs(4).profile(&p);
        let main = p.entry();
        // Entry and exit run exactly once per run.
        assert_eq!(prof.block_weight(main, BlockId::new(0)), 4);
        assert_eq!(prof.block_weight(main, BlockId::new(3)), 4);
        // The loop body runs at least once per run.
        assert!(prof.block_weight(main, BlockId::new(1)) >= 4);
    }

    #[test]
    fn call_site_and_arc_weights_match_leaf_invocations() {
        let p = call_loop();
        let prof = Profiler::new().runs(4).profile(&p);
        let main = p.entry();
        let leaf = p.function_by_name("leaf").unwrap();
        let site = prof.call_site_weight(main, BlockId::new(1));
        assert_eq!(site, prof.func_weight(leaf));
        assert_eq!(site, prof.call_arc_weight(main, leaf));
        assert_eq!(site, prof.totals.calls);
    }

    #[test]
    fn call_continuation_arc_recorded_on_return() {
        let p = call_loop();
        let prof = Profiler::new().runs(4).profile(&p);
        let main = p.entry();
        // Arc call-block -> latch must equal the number of completed calls.
        assert_eq!(
            prof.function(main).arcs[&(BlockId::new(1), BlockId::new(2))],
            prof.totals.returns
        );
    }

    #[test]
    fn flow_conservation_at_loop_latch() {
        let p = call_loop();
        let prof = Profiler::new().runs(8).profile(&p);
        let main = p.entry();
        let latch = BlockId::new(2);
        let incoming: u64 = prof
            .function(main)
            .predecessors_by_weight(latch)
            .iter()
            .map(|&(_, w)| w)
            .sum();
        assert_eq!(incoming, prof.block_weight(main, latch));
    }

    #[test]
    fn successors_sorted_by_weight() {
        let p = call_loop();
        let prof = Profiler::new().runs(8).profile(&p);
        let main = p.entry();
        let succ = prof.function(main).successors_by_weight(BlockId::new(2));
        assert_eq!(succ.len(), 2);
        assert!(succ[0].1 >= succ[1].1);
        // The heavier arm of a 0.8-biased loop latch is the back-edge.
        assert_eq!(succ[0].0, BlockId::new(1));
    }

    #[test]
    fn entry_function_counts_one_invocation_per_run() {
        let p = call_loop();
        let prof = Profiler::new().runs(5).profile(&p);
        assert_eq!(prof.func_weight(p.entry()), 5);
        assert_eq!(prof.runs, 5);
    }

    #[test]
    fn self_call_arc_weight_reads_zero() {
        let mut prof = Profile::default();
        prof.call_arcs.insert((FuncId::new(1), FuncId::new(1)), 99);
        assert_eq!(prof.call_arc_weight(FuncId::new(1), FuncId::new(1)), 0);
    }

    #[test]
    fn merge_accumulates() {
        let p = call_loop();
        let a = Profiler::new().runs(2).profile(&p);
        let b = Profiler::new().runs(3).base_seed(100).profile(&p);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.runs, 5);
        assert_eq!(
            merged.totals.instructions,
            a.totals.instructions + b.totals.instructions
        );
        assert_eq!(
            merged.block_weight(p.entry(), BlockId::new(0)),
            a.block_weight(p.entry(), BlockId::new(0)) + b.block_weight(p.entry(), BlockId::new(0))
        );
    }

    #[test]
    fn per_call_ratios() {
        let p = call_loop();
        let prof = Profiler::new().runs(4).profile(&p);
        let di = prof.instrs_per_call().unwrap();
        let ct = prof.transfers_per_call().unwrap();
        assert!(di > 0.0);
        assert!(ct > 0.0);
        assert!(
            di > ct,
            "instructions per call should exceed transfers per call"
        );
    }

    #[test]
    #[should_panic(expected = "runs must be a positive integer")]
    fn zero_runs_are_refused() {
        let _ = Profiler::new().runs(0);
    }

    #[test]
    fn runs_rule_bounds_both_ends() {
        assert_eq!(Profiler::check_runs(1), Ok(1));
        assert_eq!(Profiler::check_runs(u64::from(u32::MAX)), Ok(u32::MAX));
        for bad in [0, u64::from(u32::MAX) + 1] {
            assert_eq!(
                Profiler::check_runs(bad),
                Err("runs must be a positive integer")
            );
        }
    }

    #[test]
    fn deterministic_profiles() {
        let p = call_loop();
        let a = Profiler::new().runs(4).profile(&p);
        let b = Profiler::new().runs(4).profile(&p);
        assert_eq!(a, b);
    }
}
