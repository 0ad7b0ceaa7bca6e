//! Cache-facing analysis (`IPA201`): conflict pressure in a
//! direct-mapped cache at the paper's reference geometry.

use std::collections::BTreeMap;

use crate::conflict::line_weights;
use crate::diag::{Diagnostic, Location};
use crate::pass::{Context, Pass};

/// Geometry and thresholds for [`ConflictPressure`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConflictConfig {
    /// Cache capacity in bytes. Default: the paper's 2 KB reference point.
    pub cache_bytes: u64,
    /// Cache line (block) size in bytes. Default: 64, the paper's
    /// best-miss-ratio block size at 2 KB.
    pub line_bytes: u64,
    /// A code line is *hot* when its weight is at least this fraction of
    /// the hottest line's weight.
    pub hot_fraction: f64,
    /// `IPA303` warns when the estimated miss-ratio bound of a placement
    /// (see [`crate::conflict::estimate_miss_bound`]) exceeds this.
    pub miss_bound_warn: f64,
}

/// At most this many findings are reported per pass (for `IPA201`, the
/// heaviest sets; the rest are summarized in one trailing diagnostic).
pub(crate) const MAX_REPORTS: usize = 8;

impl Default for ConflictConfig {
    fn default() -> Self {
        Self {
            cache_bytes: 2048,
            line_bytes: 64,
            hot_fraction: 0.05,
            miss_bound_warn: 0.10,
        }
    }
}

impl ConflictConfig {
    /// Number of sets in the modeled direct-mapped cache.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.cache_bytes / self.line_bytes
    }
}

/// `IPA201` — hot code lines competing for the same direct-mapped set.
///
/// Two blocks whose addresses map to the same set of a direct-mapped
/// cache evict each other on every alternation; when both are hot, the
/// layout is leaving miss ratio on the table (the exact effect Table 1's
/// worst benchmarks exhibit). This pass weights each cache *line* of the
/// placement by the executions of the blocks on it, then reports sets
/// where two or more hot lines collide. Always a warning: with code
/// larger than the cache, some conflict is unavoidable.
pub struct ConflictPressure;

impl Pass for ConflictPressure {
    fn code(&self) -> &'static str {
        "IPA201"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let (Some(placement), Some(profile)) = (ctx.placement, ctx.profile) else {
            return Vec::new();
        };
        let cfg = ctx.conflict;
        if cfg.line_bytes == 0 || cfg.cache_bytes < cfg.line_bytes {
            return vec![Diagnostic::error(
                self.code(),
                Location::program(),
                format!(
                    "unusable conflict geometry: {} B cache with {} B lines",
                    cfg.cache_bytes, cfg.line_bytes
                ),
            )];
        }

        let line_weight = line_weights(ctx.program, profile, placement, cfg.line_bytes);
        let Some(&max_weight) = line_weight.values().max() else {
            return Vec::new();
        };
        let hot_cutoff = (max_weight as f64 * cfg.hot_fraction).max(1.0);

        // Hot lines per set.
        let sets = cfg.sets();
        let mut per_set: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for (&line, &w) in &line_weight {
            if (w as f64) >= hot_cutoff {
                per_set.entry(line % sets).or_default().push((line, w));
            }
        }

        // Conflicted sets, heaviest total weight first.
        let mut conflicted: Vec<(u64, Vec<(u64, u64)>)> = per_set
            .into_iter()
            .filter(|(_, lines)| lines.len() > 1)
            .collect();
        conflicted.sort_by_key(|(set, lines)| {
            (
                std::cmp::Reverse(lines.iter().map(|&(_, w)| w).sum::<u64>()),
                *set,
            )
        });

        let mut out = Vec::new();
        let shown = conflicted.len().min(MAX_REPORTS);
        for (set, mut lines) in conflicted.drain(..shown) {
            lines.sort_by_key(|&(line, w)| (std::cmp::Reverse(w), line));
            let detail: Vec<String> = lines
                .iter()
                .take(4)
                .map(|&(line, w)| format!("line {:#x} (weight {w})", line * cfg.line_bytes))
                .collect();
            out.push(Diagnostic::warning(
                self.code(),
                Location::program(),
                format!(
                    "cache set {set} ({} B direct-mapped, {} B lines) is contested by \
                     {} hot lines: {}",
                    cfg.cache_bytes,
                    cfg.line_bytes,
                    lines.len(),
                    detail.join(", ")
                ),
            ));
        }
        if !conflicted.is_empty() {
            out.push(Diagnostic::warning(
                self.code(),
                Location::program(),
                format!(
                    "{} more conflicted set(s) not shown (only the {shown} heaviest sets \
                     are listed)",
                    conflicted.len()
                ),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, Instr, Program, ProgramBuilder, Terminator};
    use impact_layout::placement::Placement;
    use impact_profile::Profiler;

    use super::*;
    use crate::pass::Context;

    /// Two hot single-block loops in distinct functions, and enough total
    /// size that we can spread them a full cache apart.
    fn two_loops() -> Program {
        let mut pb = ProgramBuilder::new();
        let second = pb.reserve("second");
        let mut main = pb.function("main");
        let m0 = main.block(vec![Instr::IntAlu; 3]);
        let m1 = main.block(vec![]);
        let m2 = main.block(vec![]);
        main.terminate(m0, Terminator::branch(m0, m1, BranchBias::fixed(0.95)));
        main.terminate(m1, Terminator::call(second, m2));
        main.terminate(m2, Terminator::Exit);
        let mid = main.finish();
        let mut s = pb.function_reserved(second);
        let s0 = s.block(vec![Instr::Load; 3]);
        let s1 = s.block(vec![]);
        s.terminate(s0, Terminator::branch(s0, s1, BranchBias::fixed(0.95)));
        s.terminate(s1, Terminator::Return);
        s.finish();
        pb.set_entry(mid);
        pb.finish().unwrap()
    }

    /// Places the two functions either adjacent (no aliasing) or exactly
    /// one cache capacity apart (full aliasing). `spread` is the byte
    /// distance between the two hot loop heads.
    fn placed_apart(p: &Program, spread: u64) -> Placement {
        let main = p.entry();
        let second = p.function_by_name("second").unwrap();
        let mut addrs = vec![Vec::new(), Vec::new()];
        // main: b0 at 0, b1/b2 after it.
        let mut cursor = 0;
        for (_, block) in p.function(main).blocks() {
            addrs[main.index()].push(cursor);
            cursor += block.size_bytes();
        }
        let mut cursor = spread;
        for (_, block) in p.function(second).blocks() {
            addrs[second.index()].push(cursor);
            cursor += block.size_bytes();
        }
        let total = cursor;
        Placement::from_raw(addrs, vec![main, second], total, total)
    }

    #[test]
    fn aliased_hot_loops_are_reported() {
        let p = two_loops();
        let prof = Profiler::new().runs(4).profile(&p);
        let placement = placed_apart(&p, 2048);
        let ctx = Context::program_only(&p)
            .with_profile(&prof)
            .with_placement(&placement);
        let diags = ConflictPressure.run(&ctx);
        assert!(!diags.is_empty(), "aliased loops must be flagged");
        assert!(diags.iter().all(|d| d.code == "IPA201"));
        assert!(diags[0].message.contains("set 0"));
    }

    #[test]
    fn adjacent_hot_loops_are_quiet() {
        let p = two_loops();
        let prof = Profiler::new().runs(4).profile(&p);
        // 64 bytes apart: different sets, no conflict.
        let placement = placed_apart(&p, 64);
        let ctx = Context::program_only(&p)
            .with_profile(&prof)
            .with_placement(&placement);
        assert!(ConflictPressure.run(&ctx).is_empty());
    }

    #[test]
    fn threshold_controls_sensitivity() {
        let p = two_loops();
        let prof = Profiler::new().runs(4).profile(&p);
        let placement = placed_apart(&p, 2048);
        // Demand both lines be within 1% of the hottest — still true here
        // (both loops iterate ~equally), so the conflict still reports.
        let strict = ConflictConfig {
            hot_fraction: 1.01,
            ..ConflictConfig::default()
        };
        let ctx = Context::program_only(&p)
            .with_profile(&prof)
            .with_placement(&placement)
            .with_conflict(strict);
        // With an impossible threshold (above the hottest line itself),
        // no line qualifies as hot, so no conflict can be reported.
        assert!(ConflictPressure.run(&ctx).is_empty());

        let permissive = ConflictConfig {
            hot_fraction: 0.0,
            ..ConflictConfig::default()
        };
        let ctx = Context::program_only(&p)
            .with_profile(&prof)
            .with_placement(&placement)
            .with_conflict(permissive);
        assert!(!ConflictPressure.run(&ctx).is_empty());
    }

    #[test]
    fn overflow_names_how_many_sets_are_listed() {
        // A chain of 20 one-line self-loops; loop `i` sits at set
        // `i % 10` of the 2 KB cache, so ten sets hold two hot lines.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let loops: Vec<_> = (0..20).map(|_| f.block(vec![Instr::IntAlu; 15])).collect();
        let exit = f.block(vec![]);
        for (i, &b) in loops.iter().enumerate() {
            let next = loops.get(i + 1).copied().unwrap_or(exit);
            f.terminate(b, Terminator::branch(b, next, BranchBias::fixed(0.9)));
        }
        f.terminate(exit, Terminator::Exit);
        let main = f.finish();
        pb.set_entry(main);
        let p = pb.finish().unwrap();
        let mut addrs: Vec<u64> = (0..20).map(|i| (i / 10) * 2048 + (i % 10) * 64).collect();
        addrs.push(4096);
        let placement = Placement::from_raw(vec![addrs], vec![main], 4100, 4100);

        let prof = Profiler::new().runs(2).profile(&p);
        let ctx = Context::program_only(&p)
            .with_profile(&prof)
            .with_placement(&placement)
            .with_conflict(ConflictConfig {
                hot_fraction: 0.0,
                ..ConflictConfig::default()
            });
        let diags = ConflictPressure.run(&ctx);
        assert_eq!(diags.len(), MAX_REPORTS + 1);
        assert_eq!(
            diags[MAX_REPORTS].message,
            "2 more conflicted set(s) not shown (only the 8 heaviest sets are listed)"
        );
    }

    #[test]
    fn bad_geometry_is_an_error() {
        let p = two_loops();
        let prof = Profiler::new().runs(2).profile(&p);
        let placement = placed_apart(&p, 64);
        let ctx = Context::program_only(&p)
            .with_profile(&prof)
            .with_placement(&placement)
            .with_conflict(ConflictConfig {
                cache_bytes: 32,
                line_bytes: 64,
                ..ConflictConfig::default()
            });
        let diags = ConflictPressure.run(&ctx);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, crate::diag::Severity::Error);
    }
}
