//! Layout advisor passes (`IPA401`–`IPA405`): placement defects a
//! reordering could fix, each reported with a concrete reorder hint.
//!
//! Where the IPA2xx/IPA3xx families *measure* conflict, the advisors
//! judge the placement against what the scorers (see [`crate::score`])
//! consider ideal and say what to move:
//!
//! * `IPA401` — a hot, uncontested arc realized as a far transfer when
//!   placing its endpoints adjacent would have made it a fall-through.
//! * `IPA402` — a hot call site separated from its callee's entry by
//!   more than one cache capacity: caller and callee can alias, and the
//!   transfer has no spatial locality.
//! * `IPA403` — a loop's hot core straddling more cache lines than a
//!   contiguous placement of the same bytes would touch.
//! * `IPA404` — never-executed bytes interleaved inside a function's
//!   executed span instead of being split off behind it.
//! * `IPA405` — the placement's static memory-traffic bound (the
//!   paper's traffic metric: words fetched per word executed) crossing
//!   the configured threshold.
//!
//! All five are warnings — a placement can be legitimately constrained —
//! and all stay quiet on degenerate geometry (IPA201 owns that error)
//! or missing artifacts. Thresholds are tuned so the paper pipeline's
//! placements are silent on every bundled workload (asserted by the
//! mutation tests).

use std::collections::{BTreeMap, BTreeSet};

use impact_ir::{Terminator, BYTES_PER_INSTR};

use crate::cache::{ConflictConfig, MAX_REPORTS};
use crate::conflict::estimate_miss_bound;
use crate::diag::{Diagnostic, Location};
use crate::flow::{Dominators, LoopForest};
use crate::pass::{Context, Pass};

/// An arc only counts as "owning" a fall-through slot when it carries
/// at least this share of its source's outgoing mass (the pipeline's
/// own trace-growing threshold).
const DOMINANT_PROB: f64 = 0.7;

/// IPA403 tolerates this many cache lines beyond twice the contiguous
/// minimum: any contiguous run of `n` bytes can straddle one extra
/// line through misalignment alone.
const ALIGN_SLACK_LINES: u64 = 1;

/// IPA403's loop core: blocks executing at least this fraction of the
/// header's count — the spine that runs (nearly) every iteration.
/// Conditional arms below it are legitimately laid out as side traces.
const CORE_FRACTION: f64 = 0.9;

/// IPA405 warns when the static memory-traffic bound (words fetched per
/// word executed, from the miss bound) exceeds this.
const TRAFFIC_BOUND_WARN: f64 = 0.50;

/// IPA405 tolerates a traffic bound up to this factor over the
/// natural-order baseline before blaming the placement: programs much
/// bigger than the cache pay high traffic under *any* layout, and the
/// bound's contention term is conservative enough that a good layout
/// can sit modestly above natural while simulating far below it.
const TRAFFIC_OVER_NATURAL: f64 = 1.25;

/// IPA404 fires when never-executed bytes inside the executed span
/// exceed this fraction of the span.
const COLD_SPAN_FRACTION: f64 = 0.25;

fn bad_geometry(cfg: &ConflictConfig) -> bool {
    cfg.line_bytes == 0 || cfg.cache_bytes < cfg.line_bytes
}

/// `IPA401` — a hot edge placed as a far transfer when a fall-through
/// was available.
///
/// The arc must be *uncontested*: it carries ≥ `DOMINANT_PROB` of its
/// source's outgoing mass and its source is the strictly heaviest
/// predecessor of its destination, so placing the two blocks adjacent
/// steals the slot from nothing hotter. Back edges are exempt (their
/// destination must sit before the loop body; adjacency is not
/// achievable), as are call continuations (the callee runs in between).
pub struct MisplacedFallThrough;

impl Pass for MisplacedFallThrough {
    fn code(&self) -> &'static str {
        "IPA401"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let (Some(placement), Some(profile)) = (ctx.placement, ctx.profile) else {
            return Vec::new();
        };
        let cfg = ctx.conflict;
        if bad_geometry(&cfg) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (fid, func) in ctx.program.functions() {
            if fid.index() >= profile.funcs.len() {
                continue;
            }
            let fp = profile.function(fid);
            if fp.invocations == 0 {
                continue;
            }
            let Some(&max_arc) = fp.arcs.values().max() else {
                continue;
            };
            if max_arc == 0 {
                continue;
            }
            let doms = Dominators::compute(func);
            let forest = LoopForest::compute(func, &doms);
            for (&(from, to), &w) in &fp.arcs {
                if (w as f64) < (max_arc as f64 * cfg.hot_fraction).max(1.0) {
                    continue;
                }
                if matches!(func.block(from).terminator(), Terminator::Call { .. }) {
                    continue;
                }
                if forest.is_back_edge(from, to) {
                    continue;
                }
                let out_mass: u64 = fp.successors_by_weight(from).iter().map(|&(_, x)| x).sum();
                if (w as f64) < DOMINANT_PROB * out_mass as f64 {
                    continue;
                }
                // Mutual best: nothing hotter competes for `to`'s slot.
                let preds = fp.predecessors_by_weight(to);
                if preds.first().map(|&(b, _)| b) != Some(from) {
                    continue;
                }
                if preds.len() > 1 && preds[1].1 == preds[0].1 {
                    continue;
                }
                let (Some(fa), Some(ta)) =
                    (placement.try_addr(fid, from), placement.try_addr(fid, to))
                else {
                    continue; // IPA101's problem.
                };
                let src_end = fa + func.block(from).size_bytes();
                if ta == src_end {
                    continue; // Fall-through achieved.
                }
                let dist = ta.abs_diff(src_end);
                if dist <= cfg.cache_bytes {
                    continue; // Near transfer: locality mostly survives.
                }
                out.push(Diagnostic::warning(
                    self.code(),
                    Location::block(func.name(), to.index()),
                    format!(
                        "hot arc b{}->b{} of {} (weight {w}, {:.0}% of b{}'s exits) is a \
                         {dist} B transfer; nothing hotter enters b{} — place b{} \
                         immediately after b{} to make it a fall-through",
                        from.index(),
                        to.index(),
                        func.name(),
                        100.0 * w as f64 / out_mass.max(1) as f64,
                        from.index(),
                        to.index(),
                        to.index(),
                        from.index(),
                    ),
                ));
                if out.len() >= MAX_REPORTS {
                    return out;
                }
            }
        }
        out
    }
}

/// `IPA402` — a hot call pair separated beyond the cache-capacity tier
/// when collocation was achievable.
///
/// Beyond one cache capacity, caller and callee lines can alias in a
/// direct-mapped cache and the transfer leaves the distance-tier
/// scorer's last credited bucket. A far pair is only a *defect* when
/// the caller together with **all** of its hot callees fits inside one
/// cache capacity — a caller whose hot callee set outweighs the cache
/// cannot keep every pair close, no matter the order — and the callee
/// has no *other* hot caller competing for adjacency (a shared helper
/// can sit next to at most one of its callers). The global layout
/// exists precisely to collocate the feasible pairs; this pass reports
/// where it did not.
pub struct CallPairSeparation;

impl Pass for CallPairSeparation {
    fn code(&self) -> &'static str {
        "IPA402"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let (Some(placement), Some(profile)) = (ctx.placement, ctx.profile) else {
            return Vec::new();
        };
        let cfg = ctx.conflict;
        if bad_geometry(&cfg) {
            return Vec::new();
        }
        let Some(&max_site) = profile.call_sites.values().max() else {
            return Vec::new();
        };
        if max_site == 0 {
            return Vec::new();
        }
        let hot_cutoff = (max_site as f64 * cfg.hot_fraction).max(1.0);

        // Combined hot footprint per caller: the caller's own bytes plus
        // every distinct hot callee's bytes. Only callers whose hot call
        // neighborhood fits the cache can be asked to collocate it.
        let mut hot_callees: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        let mut hot_callers: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for (&(caller, block), &w) in &profile.call_sites {
            if caller.index() >= ctx.program.function_count() || (w as f64) < hot_cutoff {
                continue;
            }
            let func = ctx.program.function(caller);
            if let Terminator::Call { callee, .. } = *func.block(block).terminator() {
                hot_callees
                    .entry(caller.index())
                    .or_default()
                    .insert(callee.index());
                hot_callers
                    .entry(callee.index())
                    .or_default()
                    .insert(caller.index());
            }
        }

        let mut out = Vec::new();
        for (&(caller, block), &w) in &profile.call_sites {
            if caller.index() >= ctx.program.function_count() {
                continue;
            }
            if (w as f64) < hot_cutoff {
                continue;
            }
            let func = ctx.program.function(caller);
            let Terminator::Call { callee, .. } = *func.block(block).terminator() else {
                continue;
            };
            let footprint: u64 = func.size_bytes()
                + hot_callees
                    .get(&caller.index())
                    .map(|set| {
                        set.iter()
                            .map(|&c| ctx.program.function(impact_ir::FuncId::new(c)).size_bytes())
                            .sum()
                    })
                    .unwrap_or(0);
            if footprint > cfg.cache_bytes {
                continue; // Collocating every hot pair was never possible.
            }
            if hot_callers
                .get(&callee.index())
                .is_some_and(|s| s.len() > 1)
            {
                continue; // Shared helper: adjacency to one caller starves the rest.
            }
            let entry = ctx.program.function(callee).entry();
            let (Some(fa), Some(ea)) = (
                placement.try_addr(caller, block),
                placement.try_addr(callee, entry),
            ) else {
                continue;
            };
            let src_end = fa + func.block(block).size_bytes();
            let dist = ea.abs_diff(src_end);
            if dist <= cfg.cache_bytes {
                continue;
            }
            out.push(Diagnostic::warning(
                self.code(),
                Location::block(func.name(), block.index()),
                format!(
                    "hot call {}/b{} -> {} (weight {w}) spans {dist} B, beyond the {} B \
                     cache tier: move {} next to {} in the global order",
                    func.name(),
                    block.index(),
                    ctx.program.function(callee).name(),
                    cfg.cache_bytes,
                    ctx.program.function(callee).name(),
                    func.name(),
                ),
            ));
            if out.len() >= MAX_REPORTS {
                return out;
            }
        }
        out
    }
}

/// `IPA403` — a loop's hot core straddling more cache lines than its
/// minimal contiguous footprint.
///
/// The hot core is the loop's spine: body blocks executing at least
/// `CORE_FRACTION` of the header's count, i.e. (nearly) every
/// iteration — conditional arms are legitimately placed as side
/// traces. Contiguous bytes of size `n` touch at most
/// `ceil(n / line)` lines, and a trace-based layout legitimately
/// interleaves side-trace blocks into the core's span (costing up to
/// about 2x on the bundled workloads); the pass only warns past
/// **twice** the minimum plus `ALIGN_SLACK_LINES`, where the spine
/// is genuinely scattered rather than merely diluted. Cores larger
/// than the cache are IPA301's finding, not ours.
pub struct LoopLineStraddle;

impl Pass for LoopLineStraddle {
    fn code(&self) -> &'static str {
        "IPA403"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let (Some(placement), Some(profile)) = (ctx.placement, ctx.profile) else {
            return Vec::new();
        };
        let cfg = ctx.conflict;
        if bad_geometry(&cfg) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (fid, func) in ctx.program.functions() {
            if fid.index() >= profile.funcs.len() {
                continue;
            }
            let fp = profile.function(fid);
            if fp.invocations == 0 {
                continue;
            }
            let doms = Dominators::compute(func);
            let forest = LoopForest::compute(func, &doms);
            for l in forest.loops() {
                let header_w = fp.block_counts[l.header.index()];
                if header_w == 0 {
                    continue; // Cold loop: straddling is free.
                }
                let core: Vec<_> = l
                    .body
                    .iter()
                    .copied()
                    .filter(|b| {
                        fp.block_counts[b.index()] as f64 >= CORE_FRACTION * header_w as f64
                    })
                    .collect();
                let core_bytes: u64 = core.iter().map(|&b| func.block(b).size_bytes()).sum();
                if core_bytes == 0 || core_bytes > cfg.cache_bytes {
                    continue;
                }
                let mut lines: BTreeSet<u64> = BTreeSet::new();
                let mut all_placed = true;
                for &b in &core {
                    let Some(addr) = placement.try_addr(fid, b) else {
                        all_placed = false;
                        break;
                    };
                    let last = addr + func.block(b).size_bytes() - 1;
                    for line in addr / cfg.line_bytes..=last / cfg.line_bytes {
                        lines.insert(line);
                    }
                }
                if !all_placed {
                    continue;
                }
                let minimal = core_bytes.div_ceil(cfg.line_bytes);
                if lines.len() as u64 <= minimal * 2 + ALIGN_SLACK_LINES {
                    continue;
                }
                out.push(Diagnostic::warning(
                    self.code(),
                    Location::block(func.name(), l.header.index()),
                    format!(
                        "hot core of loop {}/b{} ({} blocks, {core_bytes} B) straddles {} \
                         cache lines where {minimal} suffice — reorder the core blocks \
                         contiguously to shrink the loop's working set",
                        func.name(),
                        l.header.index(),
                        core.len(),
                        lines.len(),
                    ),
                ));
                if out.len() >= MAX_REPORTS {
                    return out;
                }
            }
        }
        out
    }
}

/// `IPA404` — never-executed bytes interleaved inside the executed span
/// of a function.
///
/// The paper's function layout splits each function into an effective
/// region and a never-executed tail exactly so cold bytes do not dilute
/// the fetch stream. This pass measures, per executed function, how
/// many zero-weight bytes sit strictly inside the span covered by its
/// executed blocks, and warns when they exceed a full cache line and
/// `COLD_SPAN_FRACTION` of the span.
pub struct HotColdInterleave;

impl Pass for HotColdInterleave {
    fn code(&self) -> &'static str {
        "IPA404"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let (Some(placement), Some(profile)) = (ctx.placement, ctx.profile) else {
            return Vec::new();
        };
        let cfg = ctx.conflict;
        if bad_geometry(&cfg) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (fid, func) in ctx.program.functions() {
            if fid.index() >= profile.funcs.len() {
                continue;
            }
            let fp = profile.function(fid);
            if fp.invocations == 0 {
                continue;
            }
            let (mut lo, mut hi) = (u64::MAX, 0u64);
            let mut cold: Vec<(u64, u64)> = Vec::new();
            for (bid, block) in func.blocks() {
                let Some(addr) = placement.try_addr(fid, bid) else {
                    continue;
                };
                if fp.block_counts[bid.index()] > 0 {
                    lo = lo.min(addr);
                    hi = hi.max(addr + block.size_bytes());
                } else {
                    cold.push((addr, block.size_bytes()));
                }
            }
            if lo >= hi {
                continue;
            }
            let inside: u64 = cold
                .iter()
                .filter(|&&(addr, _)| addr >= lo && addr < hi)
                .map(|&(_, bytes)| bytes)
                .sum();
            let span = hi - lo;
            if inside < cfg.line_bytes || (inside as f64) <= COLD_SPAN_FRACTION * span as f64 {
                continue;
            }
            out.push(Diagnostic::warning(
                self.code(),
                Location::function(func.name()),
                format!(
                    "{} interleaves {inside} B of never-executed code inside its {span} B \
                     executed span — split the cold blocks out behind the effective region",
                    func.name(),
                ),
            ));
            if out.len() >= MAX_REPORTS {
                return out;
            }
        }
        out
    }
}

/// `IPA405` — the placement's static memory-traffic bound.
///
/// The paper's second metric is memory traffic: words fetched from
/// memory per word executed. Statically, misses are bounded by
/// [`estimate_miss_bound`]; each miss fetches one line, so the traffic
/// bound is `misses * (line_bytes / word) / instructions`. Programs
/// much larger than the cache pay high traffic under *any* layout, so
/// the placement is only blamed when its bound both crosses
/// `TRAFFIC_BOUND_WARN` **and** exceeds the
/// natural-order baseline of the same program by
/// `TRAFFIC_OVER_NATURAL` — an optimizing layout should never fetch
/// meaningfully more than unoptimized code.
pub struct StaticTrafficBound;

impl Pass for StaticTrafficBound {
    fn code(&self) -> &'static str {
        "IPA405"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let (Some(placement), Some(profile)) = (ctx.placement, ctx.profile) else {
            return Vec::new();
        };
        let cfg = ctx.conflict;
        if bad_geometry(&cfg) {
            return Vec::new();
        }
        let instrs = profile.totals.instructions;
        if instrs == 0 {
            return Vec::new();
        }
        let b = estimate_miss_bound(ctx.program, profile, placement, &cfg);
        if b.accesses == 0 {
            return Vec::new();
        }
        let words_per_line = (cfg.line_bytes / BYTES_PER_INSTR) as f64;
        let traffic_of = |bound: &crate::conflict::MissBound| {
            (bound.cold_lines + bound.conflict_weight) as f64 * words_per_line / instrs as f64
        };
        let traffic = traffic_of(&b);
        if traffic <= TRAFFIC_BOUND_WARN {
            return Vec::new();
        }
        let natural = impact_layout::baseline::natural(ctx.program);
        let base = traffic_of(&estimate_miss_bound(ctx.program, profile, &natural, &cfg));
        if traffic <= TRAFFIC_OVER_NATURAL * base {
            return Vec::new();
        }
        vec![Diagnostic::warning(
            self.code(),
            Location::program(),
            format!(
                "static traffic bound {traffic:.3} words fetched per word executed exceeds \
                 {:.3} and the natural-order baseline {base:.3} ({} cold lines + {} \
                 contended accesses at {} B lines): reduce set contention (IPA201/IPA402 \
                 list the pairs to separate)",
                TRAFFIC_BOUND_WARN, b.cold_lines, b.conflict_weight, cfg.line_bytes,
            ),
        )]
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, Instr, Program, ProgramBuilder};
    use impact_layout::baseline;
    use impact_layout::placement::Placement;
    use impact_profile::{Profile, Profiler};

    use super::*;

    /// Hot a -> b chain with a rare cold side block between them in
    /// natural order, plus a hot callee.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.reserve("leaf");
        let mut f = pb.function("main");
        let a = f.block(vec![Instr::IntAlu; 3]);
        let cold = f.block(vec![Instr::IntAlu; 100]);
        let b = f.block(vec![Instr::IntAlu; 3]);
        let c = f.block(vec![]);
        let exit = f.block(vec![]);
        f.terminate(a, Terminator::branch(b, cold, BranchBias::fixed(1.0)));
        f.terminate(cold, Terminator::jump(b));
        f.terminate(b, Terminator::call(leaf, c));
        f.terminate(c, Terminator::branch(a, exit, BranchBias::fixed(0.95)));
        f.terminate(exit, Terminator::Exit);
        let id = f.finish();
        let mut l = pb.function_reserved(leaf);
        let l0 = l.block(vec![Instr::IntAlu; 2]);
        l.terminate(l0, Terminator::Return);
        l.finish();
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    fn ctx_with<'a>(p: &'a Program, prof: &'a Profile, placement: &'a Placement) -> Context<'a> {
        Context::program_only(p)
            .with_profile(prof)
            .with_placement(placement)
    }

    #[test]
    fn far_fall_through_fires_and_adjacent_is_quiet() {
        let p = program();
        let prof = Profiler::new().runs(4).profile(&p);
        // Natural order: a..cold(400 B)..b — a->b is separated but only
        // by ~400 B, under the cache tier, so still quiet.
        let natural = baseline::natural(&p);
        assert!(MisplacedFallThrough
            .run(&ctx_with(&p, &prof, &natural))
            .is_empty());

        // Stretch the separation beyond one cache capacity.
        let main = p.entry();
        let leaf = p.function_by_name("leaf").unwrap();
        let mut addrs = vec![Vec::new(), Vec::new()];
        let mut cursor = 0u64;
        for (bid, block) in p.function(main).blocks() {
            // Push b (block index 2) a full cache past everything else.
            if bid.index() == 2 {
                cursor += 4096;
            }
            addrs[main.index()].push(cursor);
            cursor += block.size_bytes();
        }
        for (_, block) in p.function(leaf).blocks() {
            addrs[leaf.index()].push(cursor);
            cursor += block.size_bytes();
        }
        let far = Placement::from_raw(addrs, vec![main, leaf], cursor, cursor);
        let diags = MisplacedFallThrough.run(&ctx_with(&p, &prof, &far));
        assert!(!diags.is_empty(), "4 KB separation must fire");
        assert!(diags.iter().all(|d| d.code == "IPA401"));
        assert!(
            diags[0].message.contains("fall-through"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn far_call_pair_fires_and_near_is_quiet() {
        let p = program();
        let prof = Profiler::new().runs(4).profile(&p);
        let natural = baseline::natural(&p);
        assert!(CallPairSeparation
            .run(&ctx_with(&p, &prof, &natural))
            .is_empty());

        // Move the callee a page away from everything.
        let main = p.entry();
        let leaf = p.function_by_name("leaf").unwrap();
        let mut addrs = vec![Vec::new(), Vec::new()];
        let mut cursor = 0u64;
        for (_, block) in p.function(main).blocks() {
            addrs[main.index()].push(cursor);
            cursor += block.size_bytes();
        }
        cursor += 4096;
        for (_, block) in p.function(leaf).blocks() {
            addrs[leaf.index()].push(cursor);
            cursor += block.size_bytes();
        }
        let far = Placement::from_raw(addrs, vec![main, leaf], cursor, cursor);
        let diags = CallPairSeparation.run(&ctx_with(&p, &prof, &far));
        assert!(!diags.is_empty());
        assert!(diags[0].code == "IPA402");
        assert!(diags[0].message.contains("leaf"), "{}", diags[0].message);
    }

    #[test]
    fn straddled_loop_core_fires_and_contiguous_is_quiet() {
        // One hot loop of four small blocks.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let h = f.block(vec![Instr::IntAlu; 3]);
        let m = f.block(vec![Instr::IntAlu; 3]);
        let n = f.block(vec![Instr::IntAlu; 3]);
        let t = f.block(vec![Instr::IntAlu; 3]);
        let exit = f.block(vec![]);
        f.terminate(h, Terminator::jump(m));
        f.terminate(m, Terminator::jump(n));
        f.terminate(n, Terminator::jump(t));
        f.terminate(t, Terminator::branch(h, exit, BranchBias::fixed(0.98)));
        f.terminate(exit, Terminator::Exit);
        let id = f.finish();
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let prof = Profiler::new().runs(4).profile(&p);

        let natural = baseline::natural(&p);
        assert!(LoopLineStraddle
            .run(&ctx_with(&p, &prof, &natural))
            .is_empty());

        // Scatter the four core blocks onto distant lines (64 B of code
        // over four lines, where a contiguous run needs one plus slack).
        let main = p.entry();
        let addrs = vec![vec![0, 200, 400, 600, 800]];
        let scattered = Placement::from_raw(addrs, vec![main], 816, 816);
        let diags = LoopLineStraddle.run(&ctx_with(&p, &prof, &scattered));
        assert!(!diags.is_empty());
        assert_eq!(diags[0].code, "IPA403");
    }

    #[test]
    fn interleaved_cold_code_fires_and_split_is_quiet() {
        let p = program();
        let prof = Profiler::new().runs(4).profile(&p);
        // Natural order interleaves the 400 B never-executed block
        // between hot a and b: well over a line and 25% of the span.
        let natural = baseline::natural(&p);
        let diags = HotColdInterleave.run(&ctx_with(&p, &prof, &natural));
        assert!(!diags.is_empty(), "interleaved cold block must fire");
        assert_eq!(diags[0].code, "IPA404");

        // Re-place with the cold block after everything (effective split).
        let main = p.entry();
        let leaf = p.function_by_name("leaf").unwrap();
        let mut addrs = vec![Vec::new(), Vec::new()];
        let mut cursor = 0u64;
        let cold_bytes = p
            .function(main)
            .block(impact_ir::BlockId::new(1))
            .size_bytes();
        for (bid, block) in p.function(main).blocks() {
            if bid.index() == 1 {
                addrs[main.index()].push(u64::MAX); // placeholder, fixed below
                continue;
            }
            addrs[main.index()].push(cursor);
            cursor += block.size_bytes();
        }
        for (_, block) in p.function(leaf).blocks() {
            addrs[leaf.index()].push(cursor);
            cursor += block.size_bytes();
        }
        addrs[main.index()][1] = cursor; // cold block at the very end
        let total = cursor + cold_bytes;
        let split = Placement::from_raw(addrs, vec![main, leaf], cursor, total);
        assert!(HotColdInterleave
            .run(&ctx_with(&p, &prof, &split))
            .is_empty());
    }

    #[test]
    fn traffic_bound_fires_on_thrashing_placement() {
        // Two alternating hot blocks placed one cache capacity apart:
        // every transfer is a miss, so traffic approaches line/word
        // ratios far above any sane bound.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let a = f.block(vec![Instr::IntAlu; 3]);
        let b = f.block(vec![Instr::IntAlu; 3]);
        let exit = f.block(vec![]);
        f.terminate(a, Terminator::jump(b));
        f.terminate(b, Terminator::branch(a, exit, BranchBias::fixed(0.99)));
        f.terminate(exit, Terminator::Exit);
        let id = f.finish();
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let prof = Profiler::new().runs(4).profile(&p);

        let natural = baseline::natural(&p);
        assert!(StaticTrafficBound
            .run(&ctx_with(&p, &prof, &natural))
            .is_empty());

        let main = p.entry();
        let addrs = vec![vec![0, 2048, 2048 + 16]];
        let aliased = Placement::from_raw(addrs, vec![main], 2080, 2080);
        let diags = StaticTrafficBound.run(&ctx_with(&p, &prof, &aliased));
        assert!(
            !diags.is_empty(),
            "aliased alternation must cross the bound"
        );
        assert_eq!(diags[0].code, "IPA405");
    }

    #[test]
    fn bad_geometry_is_quiet_here() {
        let p = program();
        let prof = Profiler::new().runs(2).profile(&p);
        let natural = baseline::natural(&p);
        let bad = ConflictConfig {
            cache_bytes: 32,
            line_bytes: 64,
            ..ConflictConfig::default()
        };
        let ctx = ctx_with(&p, &prof, &natural).with_conflict(bad);
        for pass in [
            &MisplacedFallThrough as &dyn Pass,
            &CallPairSeparation,
            &LoopLineStraddle,
            &HotColdInterleave,
            &StaticTrafficBound,
        ] {
            assert!(
                pass.run(&ctx).is_empty(),
                "{} must defer to IPA201",
                pass.code()
            );
        }
    }

    #[test]
    fn missing_artifacts_are_quiet() {
        let p = program();
        let ctx = Context::program_only(&p);
        for pass in [
            &MisplacedFallThrough as &dyn Pass,
            &CallPairSeparation,
            &LoopLineStraddle,
            &HotColdInterleave,
            &StaticTrafficBound,
        ] {
            assert!(pass.run(&ctx).is_empty(), "{}", pass.code());
        }
    }
}
