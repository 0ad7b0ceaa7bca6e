//! Static call graph extraction.

use crate::{BlockId, FuncId, Program, Terminator};

/// One static call site: block `block` of function `caller` calls `callee`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallSite {
    /// The calling function.
    pub caller: FuncId,
    /// The block whose terminator is the call.
    pub block: BlockId,
    /// The called function.
    pub callee: FuncId,
}

/// The static call graph of a [`Program`]: every [`CallSite`], plus
/// adjacency queries.
///
/// The *weighted* call graph of the paper is this structure joined with
/// per-site execution counts from `impact-profile`.
#[derive(Debug, Clone, PartialEq)]
pub struct CallGraph {
    sites: Vec<CallSite>,
    /// Per-caller index ranges into `sites` (sites are sorted by caller).
    by_caller: Vec<(usize, usize)>,
}

impl CallGraph {
    /// Extracts the call graph of `program`.
    #[must_use]
    pub fn of(program: &Program) -> Self {
        let mut sites = Vec::new();
        for (fid, func) in program.functions() {
            for (bid, block) in func.blocks() {
                if let Terminator::Call { callee, .. } = block.terminator() {
                    sites.push(CallSite {
                        caller: fid,
                        block: bid,
                        callee: *callee,
                    });
                }
            }
        }
        // Builder iteration order already sorts by (caller, block).
        let mut by_caller = vec![(0, 0); program.function_count()];
        let mut i = 0;
        for (fid, range) in by_caller.iter_mut().enumerate() {
            let start = i;
            while i < sites.len() && sites[i].caller.index() == fid {
                i += 1;
            }
            *range = (start, i);
        }
        Self { sites, by_caller }
    }

    /// All call sites, sorted by `(caller, block)`.
    #[must_use]
    pub fn sites(&self) -> &[CallSite] {
        &self.sites
    }

    /// Call sites whose caller is `func`.
    #[must_use]
    pub fn sites_of(&self, func: FuncId) -> &[CallSite] {
        let (lo, hi) = self.by_caller[func.index()];
        &self.sites[lo..hi]
    }

    /// Distinct callees of `func`, in first-call-site order.
    #[must_use]
    pub fn callees_of(&self, func: FuncId) -> Vec<FuncId> {
        let mut out = Vec::new();
        for site in self.sites_of(func) {
            if !out.contains(&site.callee) {
                out.push(site.callee);
            }
        }
        out
    }

    /// Returns `true` if `func` participates in a call cycle (including
    /// direct self-recursion).
    ///
    /// Uses an iterative DFS from `func` over callee edges, checking
    /// whether `func` is reachable from itself.
    #[must_use]
    pub fn is_recursive(&self, func: FuncId) -> bool {
        let mut stack: Vec<FuncId> = self.callees_of(func);
        let mut seen = std::collections::HashSet::new();
        while let Some(f) = stack.pop() {
            if f == func {
                return true;
            }
            if seen.insert(f) {
                stack.extend(self.callees_of(f));
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use crate::{Instr, ProgramBuilder, Terminator};

    use super::*;

    /// main -> a (twice), a -> b, b -> a (cycle), c unreachable.
    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let a = pb.reserve("a");
        let b = pb.reserve("b");

        let mut main = pb.function("main");
        let m0 = main.block(vec![Instr::IntAlu]);
        let m1 = main.block(vec![]);
        let m2 = main.block(vec![]);
        main.terminate(m0, Terminator::call(a, m1));
        main.terminate(m1, Terminator::call(a, m2));
        main.terminate(m2, Terminator::Exit);
        let main_id = main.finish();

        let mut fa = pb.function_reserved(a);
        let a0 = fa.block(vec![]);
        let a1 = fa.block(vec![]);
        fa.terminate(a0, Terminator::call(b, a1));
        fa.terminate(a1, Terminator::Return);
        fa.finish();

        let mut fb = pb.function_reserved(b);
        let b0 = fb.block(vec![]);
        let b1 = fb.block(vec![]);
        fb.terminate(b0, Terminator::call(a, b1));
        fb.terminate(b1, Terminator::Return);
        fb.finish();

        let mut fc = pb.function("c");
        let c0 = fc.block(vec![]);
        fc.terminate(c0, Terminator::Return);
        fc.finish();

        pb.set_entry(main_id);
        pb.finish().unwrap()
    }

    #[test]
    fn finds_all_sites() {
        let p = sample();
        let cg = p.call_graph();
        assert_eq!(cg.sites().len(), 4);
        assert_eq!(cg.sites_of(p.entry()).len(), 2);
    }

    #[test]
    fn callees_deduplicate() {
        let p = sample();
        let cg = p.call_graph();
        let a = p.function_by_name("a").unwrap();
        assert_eq!(cg.callees_of(p.entry()), vec![a]);
    }

    #[test]
    fn detects_mutual_recursion() {
        let p = sample();
        let cg = p.call_graph();
        let a = p.function_by_name("a").unwrap();
        let b = p.function_by_name("b").unwrap();
        assert!(cg.is_recursive(a));
        assert!(cg.is_recursive(b));
        assert!(!cg.is_recursive(p.entry()));
    }

    #[test]
    fn leaf_function_has_no_sites() {
        let p = sample();
        let cg = p.call_graph();
        let c = p.function_by_name("c").unwrap();
        assert!(cg.sites_of(c).is_empty());
        assert!(cg.callees_of(c).is_empty());
    }
}
