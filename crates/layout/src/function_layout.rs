//! Step 4 — function body layout (Appendix `FunctionBodyLayout`).
//!
//! Places the traces of one function in a sequential order that preserves
//! spatial locality: start from the trace containing the function entry,
//! repeatedly append the trace whose header receives the heaviest arc from
//! the current trace's tail (terminal-to-terminal connections only), and
//! when no connection exists continue from the most important unvisited
//! trace. Traces with zero execution count are moved to the bottom of the
//! function — splitting it into an *effective* region and a *non-executed*
//! region, so "more effective parts of functions \[can\] be packed into each
//! page".

use impact_ir::{BlockId, FuncId, Function};
use impact_profile::Profile;

use crate::trace_select::TraceAssignment;

/// The layout decision for one function: block order of the effective
/// region and of the non-executed region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionLayout {
    /// Blocks of the effective (executed) region, in placement order.
    pub effective: Vec<BlockId>,
    /// Blocks of the non-executed region, in placement order.
    pub non_executed: Vec<BlockId>,
}

impl FunctionLayout {
    /// Computes the layout of `func` from its trace assignment and
    /// profile.
    ///
    /// Follows the Appendix pseudocode: trace *importance* is its total
    /// block weight; the tail-to-header connection weight is the profiled
    /// arc count from the current trace's tail block to a candidate
    /// trace's header block. Only non-zero-weight traces join the
    /// effective region; zero-weight traces are appended afterward in
    /// trace-id order.
    #[must_use]
    pub fn compute(
        func: &Function,
        fid: FuncId,
        traces: &TraceAssignment,
        profile: &Profile,
    ) -> Self {
        let fp = profile.function(fid);
        let n_traces = traces.trace_count();

        let trace_weight = |t: usize| -> u64 {
            traces
                .trace(t)
                .iter()
                .map(|b| fp.block_counts[b.index()])
                .sum()
        };

        let mut visited = vec![false; n_traces];
        let mut effective: Vec<BlockId> = Vec::new();

        // Start with the function entrance trace (if it is executed; an
        // executed function always has a non-zero entry trace).
        let entry_trace = traces.trace_of(func.entry());
        let mut current = if trace_weight(entry_trace) > 0 {
            Some(entry_trace)
        } else {
            // Unexecuted function: the effective region is empty.
            None
        };

        while let Some(t) = current {
            visited[t] = true;
            effective.extend_from_slice(traces.trace(t));

            // Best tail-to-header connection to an unvisited, non-zero
            // weight trace.
            let tail = traces.tail(t);
            let mut best: Option<(usize, u64)> = None;
            for (to, w) in fp.successors_by_weight(tail) {
                let cand = traces.trace_of(to);
                if visited[cand] || to != traces.header(cand) || trace_weight(cand) == 0 {
                    continue;
                }
                if best.is_none_or(|(_, bw)| w > bw) {
                    best = Some((cand, w));
                }
            }
            if let Some((cand, w)) = best {
                if w > 0 {
                    current = Some(cand);
                    continue;
                }
            }

            // No sequential locality: continue from the most important
            // unvisited non-zero trace (ties broken by trace id).
            current = (0..n_traces)
                .filter(|&c| !visited[c] && trace_weight(c) > 0)
                .max_by(|&a, &b| trace_weight(a).cmp(&trace_weight(b)).then(b.cmp(&a)));
        }

        // Zero-weight traces go to the bottom, in trace-id order.
        let mut non_executed = Vec::new();
        for (t, seen) in visited.iter().enumerate() {
            if !seen {
                non_executed.extend_from_slice(traces.trace(t));
            }
        }

        Self {
            effective,
            non_executed,
        }
    }

    /// All blocks in placement order (effective region first).
    pub fn placed_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.effective
            .iter()
            .chain(self.non_executed.iter())
            .copied()
    }

    /// Size of the effective region in bytes.
    #[must_use]
    pub fn effective_bytes(&self, func: &Function) -> u64 {
        self.effective
            .iter()
            .map(|&b| func.block(b).size_bytes())
            .sum()
    }

    /// Checks that the layout places every block of `func` exactly once.
    #[must_use]
    pub fn is_permutation_of(&self, func: &Function) -> bool {
        let mut seen = vec![false; func.block_count()];
        for b in self.placed_blocks() {
            if b.index() >= seen.len() || seen[b.index()] {
                return false;
            }
            seen[b.index()] = true;
        }
        seen.iter().all(|&s| s)
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, Program, ProgramBuilder, Terminator};
    use impact_profile::Profiler;

    use crate::trace_select::TraceSelector;

    use super::*;

    /// entry -> (hot 90% | cold 10%), hot -> latch, cold -> latch,
    /// latch -> entry 85% | exit. An extra never-executed block hangs off
    /// a 0%-biased branch in cold.
    fn program() -> (Program, Profile) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let entry = f.block_n(2);
        let hot = f.block_n(4);
        let cold = f.block_n(4);
        let latch = f.block_n(1);
        let exit = f.block_n(0);
        let dead = f.block_n(6);
        f.terminate(entry, Terminator::branch(hot, cold, BranchBias::fixed(0.9)));
        f.terminate(hot, Terminator::jump(latch));
        f.terminate(
            cold,
            Terminator::branch(dead, latch, BranchBias::fixed(0.0)),
        );
        f.terminate(
            latch,
            Terminator::branch(entry, exit, BranchBias::fixed(0.85)),
        );
        f.terminate(exit, Terminator::Exit);
        f.terminate(dead, Terminator::jump(latch));
        let id = f.finish();
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let prof = Profiler::new().runs(8).profile(&p);
        (p, prof)
    }

    use impact_profile::Profile;

    fn layout_of(p: &Program, prof: &Profile) -> (FunctionLayout, TraceAssignment) {
        let fid = p.entry();
        let ta = TraceSelector::new().select(p.function(fid), fid, prof);
        let fl = FunctionLayout::compute(p.function(fid), fid, &ta, prof);
        (fl, ta)
    }

    #[test]
    fn layout_is_a_permutation() {
        let (p, prof) = program();
        let (fl, _) = layout_of(&p, &prof);
        assert!(fl.is_permutation_of(p.function(p.entry())));
    }

    #[test]
    fn entry_block_is_placed_first() {
        let (p, prof) = program();
        let (fl, _) = layout_of(&p, &prof);
        assert_eq!(fl.effective[0], p.function(p.entry()).entry());
    }

    #[test]
    fn dead_block_moves_to_non_executed_region() {
        let (p, prof) = program();
        let (fl, _) = layout_of(&p, &prof);
        let dead = BlockId::new(5);
        assert!(fl.non_executed.contains(&dead));
        assert!(!fl.effective.contains(&dead));
    }

    #[test]
    fn hot_trace_precedes_cold_blocks() {
        let (p, prof) = program();
        let (fl, _) = layout_of(&p, &prof);
        let pos = |b: usize| {
            fl.placed_blocks()
                .position(|x| x == BlockId::new(b))
                .unwrap()
        };
        // hot (1) before cold (2); both before dead (5).
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(5));
    }

    #[test]
    fn region_bytes_partition_function_bytes() {
        let (p, prof) = program();
        let (fl, _) = layout_of(&p, &prof);
        let f = p.function(p.entry());
        let non_executed: u64 = fl
            .non_executed
            .iter()
            .map(|&b| f.block(b).size_bytes())
            .sum();
        assert_eq!(fl.effective_bytes(f) + non_executed, f.size_bytes());
        // dead block: 6 body + 1 terminator = 28 bytes.
        assert_eq!(non_executed, 28);
    }

    #[test]
    fn unexecuted_function_has_empty_effective_region() {
        let mut pb = ProgramBuilder::new();
        let dead_fn = pb.reserve("dead");
        let mut main = pb.function("main");
        let b = main.block_n(1);
        main.terminate(b, Terminator::Exit);
        let mid = main.finish();
        let mut d = pb.function_reserved(dead_fn);
        let d0 = d.block_n(2);
        let d1 = d.block_n(3);
        d.terminate(d0, Terminator::jump(d1));
        d.terminate(d1, Terminator::Return);
        d.finish();
        pb.set_entry(mid);
        let p = pb.finish().unwrap();
        let prof = Profiler::new().runs(2).profile(&p);

        let ta = TraceSelector::new().select(p.function(dead_fn), dead_fn, &prof);
        let fl = FunctionLayout::compute(p.function(dead_fn), dead_fn, &ta, &prof);
        assert!(fl.effective.is_empty());
        assert_eq!(fl.non_executed.len(), 2);
        assert!(fl.is_permutation_of(p.function(dead_fn)));
    }

    #[test]
    fn tail_to_header_connection_orders_traces() {
        let (p, prof) = program();
        let (fl, ta) = layout_of(&p, &prof);
        // The entry trace's tail flows most heavily to exit or back to
        // entry; the exit trace should directly follow the entry trace if
        // the tail->exit arc qualifies as a tail-to-header connection.
        let first_trace_len = ta.trace(ta.trace_of(fl.effective[0])).len();
        // Whatever follows the first trace must start at a trace header.
        if fl.effective.len() > first_trace_len {
            let next = fl.effective[first_trace_len];
            assert_eq!(ta.header(ta.trace_of(next)), next);
        }
    }
}
