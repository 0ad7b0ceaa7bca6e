//! Static cache-conflict prediction (`IPA301`–`IPA303`): loop footprints
//! vs. cache geometry, interference between concurrently-hot loop
//! bodies, and an estimated miss-ratio bound — all without simulation.
//!
//! These passes complement `IPA201` ([`crate::cache::ConflictPressure`]):
//! where IPA201 asks "which *lines* are hot and colliding" from measured
//! weights, the IPA3xx family reasons about *loops* as the unit of
//! locality, the way the paper reasons about why layout works at all
//! ("the dynamic behavior of a program tends to stay in small regions").
//!
//! * `IPA301` — a single loop body bigger than the cache capacity misses
//!   no matter how it is placed.
//! * `IPA302` — two loop bodies that run *concurrently* (one loop's body
//!   calls into a function whose loops therefore iterate inside it) and
//!   would fit in the cache together, yet are placed on overlapping
//!   sets: the placement manufactures conflict misses that a different
//!   coloring would avoid.
//! * `IPA303` — an analytic upper bound on the miss ratio of a placement
//!   under a profile (cold misses + per-set contention), warned about
//!   when it crosses [`ConflictConfig::miss_bound_warn`].

use std::collections::{BTreeMap, BTreeSet};

use impact_ir::{FuncId, Program, Terminator};
use impact_layout::placement::Placement;
use impact_profile::Profile;

use crate::cache::{ConflictConfig, MAX_REPORTS};
use crate::diag::{Diagnostic, Location};
use crate::flow::{Dominators, LoopForest, NaturalLoop};
use crate::pass::{Context, Pass};

/// `IPA301` — a loop body whose static footprint exceeds the cache.
///
/// Such a loop self-evicts every iteration regardless of placement; the
/// only remedies are restructuring or a bigger cache, so this is a
/// program-level finding (it needs no placement or profile).
pub struct LoopFootprint;

impl Pass for LoopFootprint {
    fn code(&self) -> &'static str {
        "IPA301"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let cfg = ctx.conflict;
        if cfg.line_bytes == 0 || cfg.cache_bytes < cfg.line_bytes {
            return Vec::new(); // IPA201 already reports the bad geometry.
        }
        let mut out = Vec::new();
        for (_, func) in ctx.program.functions() {
            let doms = Dominators::compute(func);
            let forest = LoopForest::compute(func, &doms);
            for l in forest.loops() {
                let bytes = l.body_bytes(func);
                if bytes > cfg.cache_bytes {
                    out.push(Diagnostic::warning(
                        self.code(),
                        Location::block(func.name(), l.header.index()),
                        format!(
                            "loop at {}/b{} has a {bytes} B body ({} blocks), larger than \
                             the {} B cache: it self-evicts every iteration under any placement",
                            func.name(),
                            l.header.index(),
                            l.body.len(),
                            cfg.cache_bytes
                        ),
                    ));
                }
            }
        }
        out.truncate(MAX_REPORTS);
        out
    }
}

/// The cache sets touched by a loop body under a placement, or `None`
/// when any of its blocks is unplaced (IPA101's problem, not ours).
fn loop_sets(
    func_id: FuncId,
    func: &impact_ir::Function,
    l: &NaturalLoop,
    placement: &Placement,
    cfg: &ConflictConfig,
) -> Option<BTreeSet<u64>> {
    let sets = cfg.sets();
    let mut colors = BTreeSet::new();
    for &b in &l.body {
        let addr = placement.try_addr(func_id, b)?;
        let block = func.block(b);
        let first = addr / cfg.line_bytes;
        let last = (addr + block.size_bytes() - 1) / cfg.line_bytes;
        for line in first..=last {
            colors.insert(line % sets);
        }
    }
    Some(colors)
}

/// `IPA302` — concurrently-hot loop bodies colored onto the same sets.
///
/// A call site inside loop `A` of function `f` makes every loop of the
/// callee `g` execute *within* `A`'s iterations: both bodies alternate
/// in the cache while `A` runs. When the two bodies together fit in the
/// cache, a placement could give them disjoint sets — if it does not,
/// every iteration of the inner loop may evict the outer loop's code.
pub struct LoopInterference;

impl Pass for LoopInterference {
    fn code(&self) -> &'static str {
        "IPA302"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let Some(placement) = ctx.placement else {
            return Vec::new();
        };
        let cfg = ctx.conflict;
        if cfg.line_bytes == 0 || cfg.cache_bytes < cfg.line_bytes {
            return Vec::new();
        }

        // Loop structure per function, computed once.
        let forests: Vec<LoopForest> = ctx
            .program
            .functions()
            .map(|(_, func)| {
                let doms = Dominators::compute(func);
                LoopForest::compute(func, &doms)
            })
            .collect();

        let mut out = Vec::new();
        'scan: for (f, func) in ctx.program.functions() {
            let caller_forest = &forests[f.index()];
            for (b, block) in func.blocks() {
                let Terminator::Call { callee, .. } = block.terminator() else {
                    continue;
                };
                let Some(ai) = caller_forest.innermost(b) else {
                    continue; // call site not inside a loop
                };
                let outer = &caller_forest.loops()[ai];
                let callee_func = ctx.program.function(*callee);
                for inner in forests[callee.index()].loops() {
                    let outer_bytes = outer.body_bytes(func);
                    let inner_bytes = inner.body_bytes(callee_func);
                    if outer_bytes + inner_bytes > cfg.cache_bytes {
                        continue; // cannot be disjointly colored anyway
                    }
                    let (Some(a_sets), Some(b_sets)) = (
                        loop_sets(f, func, outer, placement, &cfg),
                        loop_sets(*callee, callee_func, inner, placement, &cfg),
                    ) else {
                        continue;
                    };
                    let shared: Vec<u64> = a_sets.intersection(&b_sets).copied().collect();
                    if shared.is_empty() {
                        continue;
                    }
                    out.push(Diagnostic::warning(
                        self.code(),
                        Location::block(func.name(), outer.header.index()),
                        format!(
                            "loop {}/b{} ({outer_bytes} B) calls {} from b{}, whose loop \
                             b{} ({inner_bytes} B) shares {} cache set(s) with it \
                             (first: set {}); both fit the {} B cache and could be \
                             placed conflict-free",
                            func.name(),
                            outer.header.index(),
                            callee_func.name(),
                            b.index(),
                            inner.header.index(),
                            shared.len(),
                            shared[0],
                            cfg.cache_bytes
                        ),
                    ));
                    if out.len() >= MAX_REPORTS {
                        break 'scan;
                    }
                }
            }
        }
        out
    }
}

/// An analytic upper bound on the miss ratio of a placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissBound {
    /// Distinct cache lines touched by weighted code (cold misses).
    pub cold_lines: u64,
    /// Weighted line accesses that contend with a heavier line in the
    /// same set (potential conflict misses).
    pub conflict_weight: u64,
    /// Total weighted line accesses.
    pub accesses: u64,
}

impl MissBound {
    /// The bound itself: (cold + conflict) / accesses, in `[0, 1]`.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        ((self.cold_lines + self.conflict_weight) as f64 / self.accesses as f64).min(1.0)
    }
}

/// Weight of each memory line of `line_bytes`: executions of every
/// block that touches it (a block spanning n lines contributes to all n).
/// Blocks of functions the profile does not cover, unexecuted blocks and
/// blocks without an address (IPA101's problem) contribute nothing.
pub(crate) fn line_weights(
    program: &Program,
    profile: &Profile,
    placement: &Placement,
    line_bytes: u64,
) -> BTreeMap<u64, u64> {
    let mut line_weight: BTreeMap<u64, u64> = BTreeMap::new();
    for (f, func) in program.functions() {
        if f.index() >= profile.funcs.len() {
            continue;
        }
        for (b, block) in func.blocks() {
            let w = profile.block_weight(f, b);
            if w == 0 {
                continue;
            }
            let Some(addr) = placement.try_addr(f, b) else {
                continue;
            };
            let first = addr / line_bytes;
            let last = (addr + block.size_bytes() - 1) / line_bytes;
            for line in first..=last {
                *line_weight.entry(line).or_insert(0) += w;
            }
        }
    }
    line_weight
}

/// Bounds the miss ratio of `placement` under `profile` analytically.
///
/// Every line touched at least once costs one cold miss. Within each
/// direct-mapped set, the heaviest resident line is assumed to win the
/// set; all accesses to *other* lines of that set are counted as
/// potential conflict misses. This over-approximates an LRU-free
/// direct-mapped cache (real alternation patterns can be kinder, never
/// worse in the aggregate), which is what makes it a bound rather than
/// an estimate.
#[must_use]
pub fn estimate_miss_bound(
    program: &Program,
    profile: &Profile,
    placement: &Placement,
    cfg: &ConflictConfig,
) -> MissBound {
    if cfg.line_bytes == 0 || cfg.cache_bytes < cfg.line_bytes {
        return MissBound {
            cold_lines: 0,
            conflict_weight: 0,
            accesses: 0,
        };
    }
    let line_weight = line_weights(program, profile, placement, cfg.line_bytes);

    let sets = cfg.sets();
    let mut per_set: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut accesses = 0u64;
    for (&line, &w) in &line_weight {
        per_set.entry(line % sets).or_default().push(w);
        accesses += w;
    }
    let conflict_weight = per_set
        .values()
        .map(|ws| ws.iter().sum::<u64>() - ws.iter().max().copied().unwrap_or(0))
        .sum();

    MissBound {
        cold_lines: line_weight.len() as u64,
        conflict_weight,
        accesses,
    }
}

/// `IPA303` — placement's estimated miss-ratio bound is high.
///
/// Runs [`estimate_miss_bound`] and warns when the bound crosses
/// [`ConflictConfig::miss_bound_warn`]. The bound is also what
/// `impact analyze` and the validation experiments report, so the pass
/// and the numbers in EXPERIMENTS.md cannot drift apart.
pub struct StaticMissBound;

impl Pass for StaticMissBound {
    fn code(&self) -> &'static str {
        "IPA303"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let (Some(placement), Some(profile)) = (ctx.placement, ctx.profile) else {
            return Vec::new();
        };
        let cfg = ctx.conflict;
        if cfg.line_bytes == 0 || cfg.cache_bytes < cfg.line_bytes {
            return Vec::new();
        }
        let bound = estimate_miss_bound(ctx.program, profile, placement, &cfg);
        if bound.ratio() <= cfg.miss_bound_warn || bound.accesses == 0 {
            return Vec::new();
        }
        vec![Diagnostic::warning(
            self.code(),
            Location::program(),
            format!(
                "estimated miss-ratio bound {:.1}% exceeds {:.1}% \
                 ({} cold lines + {} contended accesses over {} line accesses, \
                 {} B cache / {} B lines)",
                bound.ratio() * 100.0,
                cfg.miss_bound_warn * 100.0,
                bound.cold_lines,
                bound.conflict_weight,
                bound.accesses,
                cfg.cache_bytes,
                cfg.line_bytes
            ),
        )]
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BlockId, BranchBias, Instr, ProgramBuilder};
    use impact_layout::placement::Placement;
    use impact_profile::Profiler;

    use super::*;

    /// One function whose single loop body is `blocks` blocks of 15
    /// instructions (64 B each including the terminator slot).
    fn big_loop(blocks: usize) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let ids: Vec<BlockId> = (0..blocks)
            .map(|_| f.block(vec![Instr::IntAlu; 15]))
            .collect();
        let exit = f.block(vec![]);
        for w in ids.windows(2) {
            f.terminate(w[0], Terminator::jump(w[1]));
        }
        f.terminate(
            ids[blocks - 1],
            Terminator::branch(ids[0], exit, BranchBias::fixed(0.9)),
        );
        f.terminate(exit, Terminator::Exit);
        let mid = f.finish();
        pb.set_entry(mid);
        pb.finish().unwrap()
    }

    #[test]
    fn oversized_loop_body_is_flagged() {
        // 40 blocks × 64 B = 2560 B > 2048 B cache.
        let p = big_loop(40);
        let ctx = Context::program_only(&p);
        let diags = LoopFootprint.run(&ctx);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "IPA301");
        assert!(diags[0].message.contains("2560 B body"));
    }

    #[test]
    fn fitting_loop_body_is_quiet() {
        // 8 blocks × 64 B = 512 B < 2048 B cache.
        let p = big_loop(8);
        let ctx = Context::program_only(&p);
        assert!(LoopFootprint.run(&ctx).is_empty());
    }

    /// main loops calling `leaf`, which loops internally: the two loop
    /// bodies are concurrently hot.
    fn call_in_loop() -> Program {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.reserve("leaf");
        let mut main = pb.function("main");
        let head = main.block(vec![Instr::IntAlu; 15]); // 64 B
        let latch = main.block(vec![Instr::IntAlu; 15]); // 64 B
        let exit = main.block(vec![]);
        main.terminate(head, Terminator::call(leaf, latch));
        main.terminate(
            latch,
            Terminator::branch(head, exit, BranchBias::fixed(0.9)),
        );
        main.terminate(exit, Terminator::Exit);
        let mid = main.finish();
        let mut lf = pb.function_reserved(leaf);
        let l0 = lf.block(vec![Instr::Load; 15]); // 64 B
        let l1 = lf.block(vec![]);
        lf.terminate(l0, Terminator::branch(l0, l1, BranchBias::fixed(0.9)));
        lf.terminate(l1, Terminator::Return);
        lf.finish();
        pb.set_entry(mid);
        pb.finish().unwrap()
    }

    /// Lays out main at 0 and leaf starting at `leaf_at`.
    fn placed(p: &Program, leaf_at: u64) -> Placement {
        let main = p.entry();
        let leaf = p.function_by_name("leaf").unwrap();
        let mut addrs = vec![Vec::new(), Vec::new()];
        let mut cursor = 0;
        for (_, block) in p.function(main).blocks() {
            addrs[main.index()].push(cursor);
            cursor += block.size_bytes();
        }
        let mut cursor = leaf_at;
        for (_, block) in p.function(leaf).blocks() {
            addrs[leaf.index()].push(cursor);
            cursor += block.size_bytes();
        }
        let total = cursor;
        Placement::from_raw(addrs, vec![main, leaf], total, total)
    }

    #[test]
    fn aliased_concurrent_loops_are_flagged() {
        let p = call_in_loop();
        // leaf's loop exactly one cache capacity after main's: same sets.
        let placement = placed(&p, 2048);
        let ctx = Context::program_only(&p).with_placement(&placement);
        let diags = LoopInterference.run(&ctx);
        assert!(!diags.is_empty());
        assert_eq!(diags[0].code, "IPA302");
        assert!(diags[0].message.contains("leaf"));
    }

    #[test]
    fn disjointly_colored_concurrent_loops_are_quiet() {
        let p = call_in_loop();
        // leaf right after main: different sets within one 2 KB frame.
        let placement = placed(&p, 192);
        let ctx = Context::program_only(&p).with_placement(&placement);
        assert!(LoopInterference.run(&ctx).is_empty());
    }

    #[test]
    fn miss_bound_is_zero_for_a_disjoint_placement_and_positive_for_aliasing() {
        let p = call_in_loop();
        let prof = Profiler::new().runs(4).profile(&p);
        let cfg = ConflictConfig::default();

        let good = placed(&p, 192);
        let b_good = estimate_miss_bound(&p, &prof, &good, &cfg);
        assert_eq!(b_good.conflict_weight, 0, "disjoint sets cannot conflict");
        assert!(b_good.cold_lines > 0 && b_good.accesses > 0);

        let bad = placed(&p, 2048);
        let b_bad = estimate_miss_bound(&p, &prof, &bad, &cfg);
        assert!(b_bad.conflict_weight > 0, "aliased loops must contend");
        assert!(b_bad.ratio() > b_good.ratio());
    }

    #[test]
    fn ipa303_warns_only_past_the_threshold() {
        let p = call_in_loop();
        let prof = Profiler::new().runs(4).profile(&p);
        let bad = placed(&p, 2048);
        let ctx = Context::program_only(&p)
            .with_profile(&prof)
            .with_placement(&bad);
        let diags = StaticMissBound.run(&ctx);
        assert_eq!(diags.len(), 1, "aliased hot loops blow the 10% bound");
        assert_eq!(diags[0].code, "IPA303");

        let lax = ConflictConfig {
            miss_bound_warn: 1.0,
            ..ConflictConfig::default()
        };
        let ctx = ctx.with_conflict(lax);
        assert!(StaticMissBound.run(&ctx).is_empty());
    }

    #[test]
    fn bad_geometry_is_quiet_here() {
        // IPA201 owns the geometry error; IPA3xx must not duplicate it.
        let p = call_in_loop();
        let prof = Profiler::new().runs(2).profile(&p);
        let placement = placed(&p, 192);
        let cfg = ConflictConfig {
            cache_bytes: 32,
            line_bytes: 64,
            ..ConflictConfig::default()
        };
        let ctx = Context::program_only(&p)
            .with_profile(&prof)
            .with_placement(&placement)
            .with_conflict(cfg);
        assert!(LoopFootprint.run(&ctx).is_empty());
        assert!(LoopInterference.run(&ctx).is_empty());
        assert!(StaticMissBound.run(&ctx).is_empty());
        assert_eq!(
            estimate_miss_bound(&p, &prof, &placement, &cfg),
            MissBound {
                cold_lines: 0,
                conflict_weight: 0,
                accesses: 0
            }
        );
    }
}
