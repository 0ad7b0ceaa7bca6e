//! Static placement scoring: closed-form layout quality without a
//! simulator.
//!
//! Two cost models judge a materialized [`Placement`] from weighted
//! transfers alone (measured `Profile` or `StaticProfiler` estimate):
//!
//! * **ExtTSP** — the extended-TSP objective of Newell & Pupyrev
//!   ("Improved Basic Block Reordering"): a fall-through earns full
//!   credit, a short forward or backward jump earns a small credit that
//!   decays linearly with distance, everything else earns nothing.
//!   This is the objective modern basic-block reorderers maximize.
//! * **Distance tier** — a Codestitcher-style collocation model: every
//!   weighted transfer (branches *and* calls) is bucketed by the
//!   separation of its endpoints — same cache line, same page, or far —
//!   and earns the tier's credit. This rewards inter-procedural
//!   locality that ExtTSP's window deliberately ignores.
//!
//! Windows, page size and credits are fixed; only the cache line size
//! varies (with the analyzed cache). Both scorers report achieved
//! credit against the maximum the same transfers could earn under a
//! perfect layout, so a [`ScoreCard`] is comparable across placements
//! of the *same* program and profile. Scores of different programs
//! (e.g. inlined vs not) are comparable only as ranks, which is exactly
//! how validation table 17 uses them.
//!
//! The shared transfer enumeration lives in `impact_layout::quality`
//! ([`for_each_weighted_arc`]) so the pipeline's trace-quality metrics
//! and these scorers cannot disagree about which transfers exist.

use impact_ir::{Program, Terminator, BYTES_PER_INSTR};
use impact_layout::quality::for_each_weighted_arc;
use impact_layout::Placement;
use impact_profile::Profile;

/// ExtTSP: forward-jump credit window in bytes.
const FORWARD_WINDOW: u64 = 1024;
/// ExtTSP: backward-jump credit window in bytes.
const BACKWARD_WINDOW: u64 = 640;
/// ExtTSP: peak credit of a non-fall-through transfer.
const JUMP_CREDIT: f64 = 0.1;
/// Distance tiers: page size in bytes.
const PAGE_BYTES: u64 = 4096;
/// Distance tiers: credit when both endpoints share a cache line.
const SAME_LINE_CREDIT: f64 = 1.0;
/// Distance tiers: credit when both endpoints share a page but not a
/// line.
const SAME_PAGE_CREDIT: f64 = 0.2;

/// A placement's achieved credit against the best the same weighted
/// transfers could earn.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Score {
    /// Credit earned by this placement.
    credit: f64,
    /// Credit a perfect placement of the same transfers would earn
    /// (every fall-through-eligible arc adjacent, every other transfer
    /// at its best tier). Unachievable when hot blocks have several hot
    /// successors, so [`Score::normalized`] is an upper-bound fraction.
    max_credit: f64,
}

impl Score {
    /// Achieved fraction of the maximum credit, in `[0, 1]`; zero when
    /// no weighted transfer exists.
    fn normalized(&self) -> f64 {
        if self.max_credit > 0.0 {
            self.credit / self.max_credit
        } else {
            0.0
        }
    }
}

/// One weighted inter- or intra-function transfer with placed
/// endpoints, as fed to the cost models: the address one past the
/// source block's last byte, the destination's first byte, and whether
/// adjacency would be a true fall-through.
struct PlacedTransfer {
    src_end: u64,
    dst: u64,
    weight: f64,
    fall_through_eligible: bool,
}

/// Enumerates every weighted transfer with both endpoints placed:
/// intra-function arcs (via the shared layout enumeration) plus one
/// call transfer per executed call site into its callee's entry block.
/// Return transfers are folded into the call-continuation arc the
/// profiler already records, so they are not double-counted here.
fn for_each_placed_transfer<F: FnMut(PlacedTransfer)>(
    program: &Program,
    profile: &Profile,
    placement: &Placement,
    mut f: F,
) {
    for_each_weighted_arc(program, profile, |arc| {
        let func = program.function(arc.func);
        let (Some(from_addr), Some(to_addr)) = (
            placement.try_addr(arc.func, arc.from),
            placement.try_addr(arc.func, arc.to),
        ) else {
            return;
        };
        f(PlacedTransfer {
            src_end: from_addr + func.block(arc.from).size_bytes(),
            dst: to_addr,
            weight: arc.weight as f64,
            fall_through_eligible: !arc.through_call,
        });
    });

    for (&(caller, block), &w) in &profile.call_sites {
        if w == 0 {
            continue;
        }
        let func = program.function(caller);
        let bb = func.block(block);
        let Terminator::Call { callee, .. } = *bb.terminator() else {
            continue;
        };
        let entry = program.function(callee).entry();
        let (Some(from_addr), Some(to_addr)) = (
            placement.try_addr(caller, block),
            placement.try_addr(callee, entry),
        ) else {
            continue;
        };
        f(PlacedTransfer {
            src_end: from_addr + bb.size_bytes(),
            dst: to_addr,
            weight: w as f64,
            fall_through_eligible: false,
        });
    }
}

/// ExtTSP credit multiplier (in `[0, 1]`) for one transfer.
fn ext_tsp_credit(t: &PlacedTransfer) -> f64 {
    if t.fall_through_eligible && t.dst == t.src_end {
        return 1.0;
    }
    if t.dst >= t.src_end {
        let d = t.dst - t.src_end;
        if d < FORWARD_WINDOW {
            return JUMP_CREDIT * (1.0 - d as f64 / FORWARD_WINDOW as f64);
        }
    } else {
        let d = t.src_end - t.dst;
        if d < BACKWARD_WINDOW {
            return JUMP_CREDIT * (1.0 - d as f64 / BACKWARD_WINDOW as f64);
        }
    }
    0.0
}

/// The extended-TSP objective: fall-throughs earn `weight`, short
/// jumps earn `JUMP_CREDIT * weight` decayed linearly over the
/// forward/backward window, far transfers earn nothing.
fn ext_tsp(program: &Program, profile: &Profile, placement: &Placement) -> Score {
    let mut s = Score::default();
    for_each_placed_transfer(program, profile, placement, |t| {
        s.credit += ext_tsp_credit(&t) * t.weight;
        s.max_credit += if t.fall_through_eligible {
            t.weight
        } else {
            JUMP_CREDIT * t.weight
        };
    });
    s
}

/// Codestitcher-style distance tiers: every weighted transfer earns the
/// credit of the tier its endpoint separation falls into (same line of
/// `line_bytes`, same page, far). A degenerate line (zero, or larger
/// than a page) scores zero instead of dividing by zero; IPA201 owns
/// reporting the configuration error.
fn distance_tier(
    program: &Program,
    profile: &Profile,
    placement: &Placement,
    line_bytes: u64,
) -> Score {
    if line_bytes == 0 || PAGE_BYTES < line_bytes {
        return Score::default();
    }
    let mut s = Score::default();
    for_each_placed_transfer(program, profile, placement, |t| {
        // The transfer leaves from the source's last instruction.
        let src = t.src_end - BYTES_PER_INSTR;
        let credit = if src / line_bytes == t.dst / line_bytes {
            SAME_LINE_CREDIT
        } else if src / PAGE_BYTES == t.dst / PAGE_BYTES {
            SAME_PAGE_CREDIT
        } else {
            0.0
        };
        s.credit += credit * t.weight;
        s.max_credit += SAME_LINE_CREDIT * t.weight;
    });
    s
}

/// Both scorers' normalized results for one placement, as surfaced in
/// analyze/advise documents and table 17.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScoreCard {
    /// Normalized ExtTSP score in `[0, 1]` (higher is better).
    pub exttsp: f64,
    /// Normalized distance-tier score in `[0, 1]` (higher is better).
    pub tier: f64,
}

/// Runs both scorers over one placement, with distance tiers at
/// `line_bytes` cache lines.
#[must_use]
pub fn score_placement(
    program: &Program,
    profile: &Profile,
    placement: &Placement,
    line_bytes: u64,
) -> ScoreCard {
    ScoreCard {
        exttsp: ext_tsp(program, profile, placement).normalized(),
        tier: distance_tier(program, profile, placement, line_bytes).normalized(),
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, Instr, ProgramBuilder};
    use impact_layout::baseline;
    use impact_profile::Profiler;

    use super::*;

    /// main: a -> b (hot branch) with a rare side exit; plus a callee.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.reserve("leaf");
        let mut f = pb.function("main");
        let a = f.block(vec![Instr::IntAlu; 3]);
        let b = f.block(vec![Instr::IntAlu; 3]);
        let side = f.block(vec![Instr::IntAlu; 40]);
        let c = f.block(vec![]);
        let exit = f.block(vec![]);
        f.terminate(a, Terminator::branch(b, side, BranchBias::fixed(0.95)));
        f.terminate(b, Terminator::call(leaf, c));
        f.terminate(side, Terminator::jump(c));
        f.terminate(c, Terminator::branch(a, exit, BranchBias::fixed(0.9)));
        f.terminate(exit, Terminator::Exit);
        let id = f.finish();
        let mut l = pb.function_reserved(leaf);
        let l0 = l.block(vec![Instr::IntAlu; 2]);
        l.terminate(l0, Terminator::Return);
        l.finish();
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    #[test]
    fn natural_order_scores_between_zero_and_one() {
        let p = program();
        let prof = Profiler::new().runs(4).profile(&p);
        let placement = baseline::natural(&p);
        for (name, s) in [
            ("exttsp", ext_tsp(&p, &prof, &placement)),
            ("tier", distance_tier(&p, &prof, &placement, 64)),
        ] {
            assert!(s.max_credit > 0.0, "{name}: {s:?}");
            assert!(s.credit <= s.max_credit + 1e-9, "{name}: {s:?}");
            let n = s.normalized();
            assert!((0.0..=1.0).contains(&n), "{name}: {n}");
        }
    }

    #[test]
    fn adjacency_beats_separation() {
        // The same program scored under natural order (hot path a,b
        // adjacent) must beat a random shuffle on average.
        let p = program();
        let prof = Profiler::new().runs(4).profile(&p);
        let natural = score_placement(&p, &prof, &baseline::natural(&p), 64);
        let mut worse = 0;
        for seed in 0..8u64 {
            let shuffled = baseline::random(&p, seed);
            let s = score_placement(&p, &prof, &shuffled, 64);
            if s.exttsp <= natural.exttsp + 1e-12 {
                worse += 1;
            }
        }
        assert!(
            worse >= 6,
            "random shuffles should rarely beat natural order ({worse}/8 worse)"
        );
    }

    #[test]
    fn fall_through_earns_full_credit() {
        // Straight-line a -> b placed adjacently: the arc earns 1.0.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let a = f.block(vec![Instr::IntAlu; 2]);
        let b = f.block(vec![]);
        f.terminate(a, Terminator::jump(b));
        f.terminate(b, Terminator::Exit);
        let id = f.finish();
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let prof = Profiler::new().runs(1).profile(&p);
        let s = score_placement(&p, &prof, &baseline::natural(&p), 64);
        assert!((s.exttsp - 1.0).abs() < 1e-12, "{s:?}");
        assert!((s.tier - 1.0).abs() < 1e-12, "{s:?}");
    }

    #[test]
    fn bad_geometry_scores_zero() {
        let p = program();
        let prof = Profiler::new().runs(1).profile(&p);
        let natural = baseline::natural(&p);
        for line_bytes in [0, 2 * PAGE_BYTES] {
            let s = distance_tier(&p, &prof, &natural, line_bytes);
            assert_eq!(s, Score::default(), "{line_bytes} B lines");
        }
    }
}
