//! Step 5 — global layout (Appendix `GlobalLayout`).
//!
//! Orders functions by a weighted depth-first search over the call graph:
//! starting from the functions "on top of the call graph hierarchy (e.g.
//! `main`)", visit callees from the most to the least important call arc.
//! The placement then lays out the *effective* regions of all functions in
//! DFS order, followed by the *non-active* regions in the same order —
//! so functions executed close in time land close in memory and the cold
//! code of all functions is banished together.

use impact_ir::{CallGraph, FuncId, Program};
use impact_profile::Profile;

/// The global function ordering produced by the weighted DFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalOrder {
    order: Vec<FuncId>,
}

impl GlobalOrder {
    /// Computes the DFS order for `program` under `profile`.
    ///
    /// Roots, visited in this order (skipping already-visited functions):
    /// 1. the program entry (`main`),
    /// 2. functions with no static callers (tops of the hierarchy), by id,
    /// 3. any function still unvisited (unreachable code), by id,
    ///
    /// which guarantees that every function — dead or alive — receives a
    /// place. Within a function, callees are visited from the heaviest
    /// call arc to the lightest (`weight(Fi, Fj)` summed over call sites,
    /// self-arcs zeroed); zero-weight call arcs still get visited (after
    /// all weighted ones) so statically-reachable-but-never-called code
    /// stays near its caller.
    #[must_use]
    pub fn compute(program: &Program, profile: &Profile) -> Self {
        let cg = program.call_graph();
        let n = program.function_count();
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);

        let mut roots: Vec<FuncId> = vec![program.entry()];
        let has_caller: Vec<bool> = {
            let mut v = vec![false; n];
            for site in cg.sites() {
                if site.caller != site.callee {
                    v[site.callee.index()] = true;
                }
            }
            v
        };
        roots.extend(
            program
                .function_ids()
                .filter(|f| !has_caller[f.index()] && *f != program.entry()),
        );
        roots.extend(program.function_ids());

        for root in roots {
            if !visited[root.index()] {
                Self::visit(root, &cg, profile, &mut visited, &mut order);
            }
        }

        Self { order }
    }

    /// Iterative weighted DFS (the paper's recursive `Visit`).
    fn visit(
        root: FuncId,
        cg: &CallGraph,
        profile: &Profile,
        visited: &mut [bool],
        order: &mut Vec<FuncId>,
    ) {
        // Stack of functions to enter; pushed in reverse priority order so
        // the most important callee pops first.
        let mut stack = vec![root];
        while let Some(f) = stack.pop() {
            if visited[f.index()] {
                continue;
            }
            visited[f.index()] = true;
            order.push(f);

            let mut callees: Vec<(FuncId, u64)> = cg
                .callees_of(f)
                .into_iter()
                .filter(|&c| !visited[c.index()])
                .map(|c| (c, profile.call_arc_weight(f, c)))
                .collect();
            // Most important first; ties by callee id for determinism.
            callees.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (c, _) in callees.into_iter().rev() {
                stack.push(c);
            }
        }
    }

    /// Wraps an externally computed function order (used by comparator
    /// layout algorithms such as [`crate::ph`]).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `program`'s functions.
    #[must_use]
    pub fn from_order(program: &Program, order: Vec<FuncId>) -> Self {
        const WHY: &str = "order must place every function exactly once";
        let n = program.function_count();
        let mut seen = vec![false; n];
        for &f in &order {
            assert!(
                f.index() < n,
                "{WHY}: order names function {f:?} but the program has only {n} functions"
            );
            assert!(!seen[f.index()], "{WHY}: order places function {f:?} twice");
            seen[f.index()] = true;
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            panic!(
                "{WHY}: order never places function {:?}",
                FuncId::new(missing)
            );
        }
        Self { order }
    }

    /// The function placement order.
    #[must_use]
    pub fn order(&self) -> &[FuncId] {
        &self.order
    }

    /// Position of `func` in the order.
    #[must_use]
    pub fn position(&self, func: FuncId) -> usize {
        self.order
            .iter()
            .position(|&f| f == func)
            .expect("every function is ordered")
    }

    /// Checks the order is a permutation of the program's functions.
    #[must_use]
    pub fn is_permutation_of(&self, program: &Program) -> bool {
        let mut seen = vec![false; program.function_count()];
        for &f in &self.order {
            if f.index() >= seen.len() || seen[f.index()] {
                return false;
            }
            seen[f.index()] = true;
        }
        seen.iter().all(|&s| s)
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, ProgramBuilder, Terminator};
    use impact_profile::Profiler;

    use super::*;

    /// main calls `hot` often (90% loop) and `cold` once per run; `hot`
    /// calls `leaf`; `orphan` is never called.
    fn program() -> (Program, Profile) {
        let mut pb = ProgramBuilder::new();
        let hot = pb.reserve("hot");
        let cold = pb.reserve("cold");
        let leaf = pb.reserve("leaf");

        let mut main = pb.function("main");
        let m0 = main.block_n(1);
        let m1 = main.block_n(1);
        let m2 = main.block_n(1);
        let m3 = main.block_n(0);
        main.terminate(m0, Terminator::call(hot, m1));
        main.terminate(m1, Terminator::branch(m0, m2, BranchBias::fixed(0.9)));
        main.terminate(m2, Terminator::call(cold, m3));
        main.terminate(m3, Terminator::Exit);
        let main_id = main.finish();

        let mut h = pb.function_reserved(hot);
        let h0 = h.block_n(2);
        let h1 = h.block_n(0);
        h.terminate(h0, Terminator::call(leaf, h1));
        h.terminate(h1, Terminator::Return);
        h.finish();

        let mut c = pb.function_reserved(cold);
        let c0 = c.block_n(3);
        c.terminate(c0, Terminator::Return);
        c.finish();

        let mut l = pb.function_reserved(leaf);
        let l0 = l.block_n(1);
        l.terminate(l0, Terminator::Return);
        l.finish();

        let mut o = pb.function("orphan");
        let o0 = o.block_n(4);
        o.terminate(o0, Terminator::Return);
        o.finish();

        pb.set_entry(main_id);
        let p = pb.finish().unwrap();
        let prof = Profiler::new().runs(8).profile(&p);
        (p, prof)
    }

    use impact_ir::Program;
    use impact_profile::Profile;

    #[test]
    fn entry_is_first() {
        let (p, prof) = program();
        let g = GlobalOrder::compute(&p, &prof);
        assert_eq!(g.order()[0], p.entry());
    }

    #[test]
    fn order_is_a_permutation() {
        let (p, prof) = program();
        let g = GlobalOrder::compute(&p, &prof);
        assert!(g.is_permutation_of(&p));
    }

    #[test]
    fn heavier_callee_visited_before_lighter() {
        let (p, prof) = program();
        let g = GlobalOrder::compute(&p, &prof);
        let hot = p.function_by_name("hot").unwrap();
        let cold = p.function_by_name("cold").unwrap();
        assert!(g.position(hot) < g.position(cold));
    }

    #[test]
    fn dfs_descends_before_siblings() {
        let (p, prof) = program();
        let g = GlobalOrder::compute(&p, &prof);
        let hot = p.function_by_name("hot").unwrap();
        let leaf = p.function_by_name("leaf").unwrap();
        let cold = p.function_by_name("cold").unwrap();
        // DFS: main, hot, leaf, cold — leaf (hot's callee) precedes cold.
        assert!(g.position(leaf) > g.position(hot));
        assert!(g.position(leaf) < g.position(cold));
    }

    #[test]
    fn orphan_is_placed_last() {
        let (p, prof) = program();
        let g = GlobalOrder::compute(&p, &prof);
        let orphan = p.function_by_name("orphan").unwrap();
        assert_eq!(g.position(orphan), p.function_count() - 1);
    }

    #[test]
    fn handles_recursion_without_looping() {
        let mut pb = ProgramBuilder::new();
        let a = pb.reserve("a");
        let b = pb.reserve("b");
        let mut main = pb.function("main");
        let m0 = main.block_n(0);
        let m1 = main.block_n(0);
        main.terminate(m0, Terminator::call(a, m1));
        main.terminate(m1, Terminator::Exit);
        let mid = main.finish();
        let mut fa = pb.function_reserved(a);
        let a0 = fa.block_n(0);
        let a1 = fa.block_n(0);
        fa.terminate(a0, Terminator::branch(a1, a1, BranchBias::fixed(0.5)));
        fa.terminate(a1, Terminator::call(b, a0));
        fa.finish();
        let mut fb = pb.function_reserved(b);
        let b0 = fb.block_n(0);
        fb.terminate(b0, Terminator::Return);
        fb.finish();
        pb.set_entry(mid);
        let p = pb.finish().unwrap();
        // a calls b; b returns; a's layout loops a0 <-> a1 until the walk
        // truncates — use tight limits.
        let prof = Profiler::new()
            .runs(1)
            .limits(impact_profile::ExecLimits {
                max_instructions: 10_000,
                max_call_depth: 64,
            })
            .profile(&p);
        let g = GlobalOrder::compute(&p, &prof);
        assert!(g.is_permutation_of(&p));
    }

    #[test]
    #[should_panic(
        expected = "order must place every function exactly once: order places function FuncId(0) twice"
    )]
    fn from_order_rejects_a_duplicate() {
        let (p, _) = program();
        let mut dup: Vec<FuncId> = p.function_ids().collect();
        dup[1] = dup[0];
        let _ = GlobalOrder::from_order(&p, dup);
    }

    #[test]
    #[should_panic(
        expected = "order must place every function exactly once: order never places function"
    )]
    fn from_order_rejects_a_missing_function() {
        let (p, _) = program();
        let mut short: Vec<FuncId> = p.function_ids().collect();
        short.pop();
        let _ = GlobalOrder::from_order(&p, short);
    }

    #[test]
    #[should_panic(expected = "order must place every function exactly once: order names function")]
    fn from_order_rejects_an_out_of_range_id() {
        let (p, _) = program();
        let mut oob: Vec<FuncId> = p.function_ids().collect();
        oob[0] = FuncId::new(oob.len());
        let _ = GlobalOrder::from_order(&p, oob);
    }
}
