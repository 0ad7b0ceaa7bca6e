//! Layout quality metrics — the statistics behind the paper's Tables 3
//! and 4.

use impact_ir::{BlockId, FuncId, Program, Terminator};
use impact_profile::Profile;

use crate::trace_select::TraceAssignment;

/// One weighted intra-function control transfer, as enumerated by
/// [`for_each_weighted_arc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArcEvent {
    /// Function the arc belongs to.
    pub func: FuncId,
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
    /// Dynamic traversals recorded by the profile.
    pub weight: u64,
    /// `true` when the arc is a call continuation: `from` ends in a
    /// call, so the callee runs between `from` and `to` and placing
    /// them adjacent does not make the transfer a fall-through.
    pub through_call: bool,
}

/// Enumerates every weighted intra-function arc of every *executed*
/// function, in deterministic (function id, then arc key) order.
///
/// This is the single weighted-transfer enumeration shared by the
/// pipeline quality metrics ([`TraceQuality::measure`]) and the static
/// placement scorers in `impact-analyze`: both must agree on which
/// dynamic transfers exist, or their fractions and scores drift apart.
/// Functions absent from `profile` (shorter `funcs` vector) are treated
/// as never executed.
pub fn for_each_weighted_arc<F: FnMut(ArcEvent)>(program: &Program, profile: &Profile, mut f: F) {
    for (fid, func) in program.functions() {
        if fid.index() >= profile.funcs.len() {
            continue;
        }
        let fp = profile.function(fid);
        if fp.invocations == 0 {
            continue;
        }
        for (&(from, to), &weight) in &fp.arcs {
            let through_call = matches!(func.block(from).terminator(), Terminator::Call { .. });
            f(ArcEvent {
                func: fid,
                from,
                to,
                weight,
                through_call,
            });
        }
    }
}

/// Table 4 statistics: how dynamic control transfers relate to trace
/// boundaries.
///
/// * **desirable** — transfers from a block to its immediate successor in
///   the same trace (control stays inside the trace),
/// * **neutral** — transfers from the *end* (tail) of a trace to the
///   *start* (header) of a trace,
/// * **undesirable** — transfers that enter and/or exit a trace at a
///   non-terminal block.
///
/// Fractions are weighted by dynamic execution counts and sum to 1 (when
/// any transfer executed).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceQuality {
    /// Weighted fraction of tail-to-header transfers.
    pub neutral: f64,
    /// Weighted fraction of mid-trace entries/exits.
    pub undesirable: f64,
    /// Weighted fraction of intra-trace sequential transfers.
    pub desirable: f64,
    /// Mean basic blocks per executed (non-zero weight) trace — the
    /// paper's "trace length".
    pub mean_trace_length: f64,
}

impl TraceQuality {
    /// Computes trace quality for `program` under `profile` and the given
    /// per-function trace assignments.
    ///
    /// Only functions that executed contribute transfers; the mean trace
    /// length likewise averages over executed functions only (never-run
    /// functions are all singleton traces by construction and carry no
    /// information).
    ///
    /// # Panics
    ///
    /// Panics if `traces` is not indexed by function id.
    #[must_use]
    pub fn measure(program: &Program, profile: &Profile, traces: &[TraceAssignment]) -> Self {
        assert_eq!(traces.len(), program.function_count());
        let mut neutral = 0u64;
        let mut undesirable = 0u64;
        let mut desirable = 0u64;
        let mut trace_count = 0usize;
        let mut block_count = 0usize;

        for (fid, _) in program.functions() {
            let fp = profile.function(fid);
            if fp.invocations == 0 {
                continue;
            }
            let ta = &traces[fid.index()];
            // Average trace length over *executed* traces: dead blocks in
            // a live function are singleton traces by construction and
            // would otherwise swamp the statistic.
            for trace in ta.traces() {
                let weight: u64 = trace.iter().map(|b| fp.block_counts[b.index()]).sum();
                if weight > 0 {
                    trace_count += 1;
                    block_count += trace.len();
                }
            }
        }

        for_each_weighted_arc(program, profile, |arc| {
            let ta = &traces[arc.func.index()];
            let (from, to) = (arc.from, arc.to);
            let t_from = ta.trace_of(from);
            let t_to = ta.trace_of(to);
            let from_is_tail = ta.tail(t_from) == from;
            let to_is_header = ta.header(t_to) == to;
            if t_from == t_to && ta.position_in_trace(to) == ta.position_in_trace(from) + 1 {
                desirable += arc.weight;
            } else if from_is_tail && to_is_header {
                neutral += arc.weight;
            } else {
                undesirable += arc.weight;
            }
        });

        let total = (neutral + undesirable + desirable) as f64;
        let frac = |x: u64| if total > 0.0 { x as f64 / total } else { 0.0 };
        Self {
            neutral: frac(neutral),
            undesirable: frac(undesirable),
            desirable: frac(desirable),
            mean_trace_length: if trace_count > 0 {
                block_count as f64 / trace_count as f64
            } else {
                0.0
            },
        }
    }
}

impact_support::json_object!(TraceQuality {
    desirable,
    neutral,
    undesirable,
    mean_trace_length
});

/// Table 3 statistics: the effect of inline expansion.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InlineReport {
    /// Static code size increase, e.g. `0.17` for +17 %.
    pub code_increase: f64,
    /// Fraction of dynamic calls eliminated, e.g. `0.25` for −25 %.
    pub call_decrease: f64,
    /// Dynamic instructions per remaining dynamic call ("DI's per call").
    pub instrs_per_call: f64,
    /// Intra-function control transfers per remaining dynamic call
    /// ("CT's per call").
    pub transfers_per_call: f64,
}

impl InlineReport {
    /// Compares pre- and post-inlining programs and profiles.
    #[must_use]
    pub fn measure(
        before_program: &Program,
        before_profile: &Profile,
        after_program: &Program,
        after_profile: &Profile,
    ) -> Self {
        let b_bytes = before_program.total_bytes() as f64;
        let a_bytes = after_program.total_bytes() as f64;
        // Compare call *rates* (calls per dynamic instruction), not raw
        // counts: profiling runs are stochastic (and possibly truncated
        // at the instruction cap), so the two profiles do not cover the
        // same amount of work. Inlining replaces a call/return pair with
        // two jumps, leaving the instruction count invariant, so the rate
        // ratio equals the paper's eliminated-calls percentage.
        let rate = |calls: u64, instrs: u64| {
            if instrs == 0 {
                0.0
            } else {
                calls as f64 / instrs as f64
            }
        };
        let b_rate = rate(
            before_profile.totals.calls,
            before_profile.totals.instructions,
        );
        let a_rate = rate(
            after_profile.totals.calls,
            after_profile.totals.instructions,
        );
        Self {
            code_increase: if b_bytes > 0.0 {
                (a_bytes - b_bytes) / b_bytes
            } else {
                0.0
            },
            call_decrease: if b_rate > 0.0 {
                ((b_rate - a_rate) / b_rate).max(0.0)
            } else {
                0.0
            },
            instrs_per_call: after_profile.instrs_per_call().unwrap_or(f64::INFINITY),
            transfers_per_call: after_profile.transfers_per_call().unwrap_or(f64::INFINITY),
        }
    }
}

impact_support::json_object!(InlineReport {
    code_increase,
    call_decrease,
    instrs_per_call,
    transfers_per_call
});

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, ProgramBuilder, Terminator};
    use impact_profile::Profiler;

    use crate::inline::{InlineConfig, Inliner};
    use crate::trace_select::TraceSelector;

    use super::*;

    /// Straight hot path with a rare side exit and a loop.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let a = f.block_n(2);
        let b = f.block_n(2);
        let c = f.block_n(2);
        let side = f.block_n(1);
        let exit = f.block_n(0);
        f.terminate(a, Terminator::branch(b, side, BranchBias::fixed(0.95)));
        f.terminate(b, Terminator::jump(c));
        f.terminate(c, Terminator::branch(a, exit, BranchBias::fixed(0.8)));
        f.terminate(side, Terminator::jump(c));
        f.terminate(exit, Terminator::Exit);
        let id = f.finish();
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    #[test]
    fn fractions_sum_to_one() {
        let p = program();
        let prof = Profiler::new().runs(8).profile(&p);
        let traces = TraceSelector::new().select_program(&p, &prof);
        let q = TraceQuality::measure(&p, &prof, &traces);
        let sum = q.neutral + q.undesirable + q.desirable;
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
    }

    #[test]
    fn hot_straight_line_is_mostly_desirable() {
        let p = program();
        let prof = Profiler::new().runs(8).profile(&p);
        let traces = TraceSelector::new().select_program(&p, &prof);
        let q = TraceQuality::measure(&p, &prof, &traces);
        assert!(
            q.desirable > 0.5,
            "expected dominant desirable fraction, got {q:?}"
        );
        assert!(q.undesirable < 0.2, "undesirable too high: {q:?}");
    }

    #[test]
    fn singleton_traces_make_everything_neutral_or_undesirable() {
        let p = program();
        let prof = Profiler::new().runs(8).profile(&p);
        // min_prob = 1.0 forces singleton traces on this CFG (no arc is
        // fully captive on both ends).
        let traces = TraceSelector::new().min_prob(1.0).select_program(&p, &prof);
        let q = TraceQuality::measure(&p, &prof, &traces);
        assert_eq!(q.desirable, 0.0);
        assert!((q.neutral - 1.0).abs() < 1e-9, "{q:?}");
    }

    #[test]
    fn mean_trace_length_counts_executed_traces_only() {
        let p = program();
        let prof = Profiler::new().runs(8).profile(&p);
        let traces = TraceSelector::new().select_program(&p, &prof);
        let q = TraceQuality::measure(&p, &prof, &traces);
        let fid = p.entry();
        let (mut blocks, mut count) = (0usize, 0usize);
        for t in traces[0].traces() {
            let w: u64 = t
                .iter()
                .map(|b| prof.function(fid).block_counts[b.index()])
                .sum();
            if w > 0 {
                blocks += t.len();
                count += 1;
            }
        }
        assert!((q.mean_trace_length - blocks as f64 / count as f64).abs() < 1e-9);
        // Every block of this program executes under 8 runs with
        // overwhelming probability, so the executed-only mean matches the
        // raw mean here.
        assert!((q.mean_trace_length - traces[0].mean_trace_length()).abs() < 1e-9);
    }

    #[test]
    fn inline_report_on_call_heavy_program() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.reserve("leaf");
        let mut main = pb.function("main");
        let m0 = main.block_n(1);
        let m1 = main.block_n(1);
        let m2 = main.block_n(0);
        main.terminate(m0, Terminator::call(leaf, m1));
        main.terminate(m1, Terminator::branch(m0, m2, BranchBias::fixed(0.9)));
        main.terminate(m2, Terminator::Exit);
        let mid = main.finish();
        let mut l = pb.function_reserved(leaf);
        let l0 = l.block_n(2);
        l.terminate(l0, Terminator::Return);
        l.finish();
        pb.set_entry(mid);
        let p = pb.finish().unwrap();

        let profiler = Profiler::new().runs(8);
        let before = profiler.profile(&p);
        let (after_p, _, _) = Inliner::new(InlineConfig {
            min_site_count: 1,
            min_site_fraction: 0.0,
            max_growth: 3.0,
            max_callee_bytes: 4096,
            max_passes: 3,
        })
        .run_to_fixpoint(&p, &before, &profiler);
        let after = profiler.profile(&after_p);
        let r = InlineReport::measure(&p, &before, &after_p, &after);
        assert!(r.code_increase > 0.0, "{r:?}");
        assert!(r.call_decrease > 0.9, "{r:?}");
        assert!(r.instrs_per_call.is_infinite() || r.instrs_per_call > 10.0);
    }

    use impact_ir::Program;
}
