//! Control-flow and call-graph structure: dominators, natural loops, the
//! loop-nesting forest, and call-graph SCC condensation.
//!
//! These are the structural facts every *static* (profile-free) analysis
//! is built on: branch-prediction heuristics need to know which edges
//! close loops ([`LoopForest`]), frequency propagation over the call
//! graph needs recursion collapsed into components processed in
//! topological order ([`CallSccs`]), and the cache-conflict passes need
//! per-loop code footprints. Everything here is derived from the
//! [`Program`] alone — no profile, no execution.

use std::collections::BTreeMap;

use impact_ir::{BlockId, FuncId, Function, Program};

/// The dominator tree of one function, computed with the iterative
/// Cooper–Harvey–Kennedy algorithm over a reverse-postorder numbering.
///
/// Blocks unreachable from the function entry have no dominator
/// information ([`Dominators::is_reachable`] returns `false`); queries
/// about them answer conservatively (`dominates` is `false`).
#[derive(Debug, Clone)]
pub struct Dominators {
    /// Immediate dominator per block (`idom[entry] == entry`); `None`
    /// for unreachable blocks.
    idom: Vec<Option<BlockId>>,
    /// Reverse postorder over reachable blocks, starting at the entry.
    rpo: Vec<BlockId>,
    entry: BlockId,
}

impl Dominators {
    /// Computes the dominator tree of `func`.
    #[must_use]
    pub fn compute(func: &Function) -> Self {
        let n = func.block_count();
        let entry = func.entry();

        // Postorder DFS from the entry (iterative, explicit state).
        let mut postorder: Vec<BlockId> = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        visited[entry.index()] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = func.block(b).terminator().successors();
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                postorder.push(b);
                stack.pop();
            }
        }
        let mut rpo = postorder.clone();
        rpo.reverse();
        // Postorder number per block (reachable only).
        let mut po_num = vec![usize::MAX; n];
        for (i, &b) in postorder.iter().enumerate() {
            po_num[b.index()] = i;
        }

        let preds = func.predecessors();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[entry.index()] = Some(entry);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while po_num[a.index()] < po_num[b.index()] {
                    a = idom[a.index()].expect("processed block has an idom");
                }
                while po_num[b.index()] < po_num[a.index()] {
                    b = idom[b.index()].expect("processed block has an idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                if b == entry {
                    continue;
                }
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }

        Self { idom, rpo, entry }
    }

    /// The function entry block.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Immediate dominator of `b` (`entry` for the entry itself); `None`
    /// when `b` is unreachable.
    #[must_use]
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// `true` when `b` is reachable from the function entry.
    #[must_use]
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom[b.index()].is_some()
    }

    /// `true` when `a` dominates `b` (reflexive: every block dominates
    /// itself). Unreachable blocks dominate nothing and are dominated by
    /// nothing.
    #[must_use]
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry {
                return false;
            }
            cur = self.idom[cur.index()].expect("reachable block has an idom");
        }
    }

    /// Reverse postorder over the reachable blocks (entry first). The
    /// natural order for forward dataflow — frequency propagation visits
    /// blocks in this order so predecessors are (mostly) settled first.
    #[must_use]
    pub fn reverse_postorder(&self) -> &[BlockId] {
        &self.rpo
    }
}

/// One natural loop: a header plus every block that can reach one of the
/// loop's back-edge sources without leaving through the header.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// The loop header (target of the back edges, dominates the body).
    pub header: BlockId,
    /// Back-edge sources (`latch -> header` with header dominating
    /// latch), in block order.
    pub latches: Vec<BlockId>,
    /// Every block of the loop, sorted, header included.
    pub body: Vec<BlockId>,
}

impl NaturalLoop {
    /// `true` when `b` belongs to this loop.
    #[must_use]
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.binary_search(&b).is_ok()
    }

    /// Static code footprint of the loop body in bytes.
    #[must_use]
    pub fn body_bytes(&self, func: &Function) -> u64 {
        self.body.iter().map(|&b| func.block(b).size_bytes()).sum()
    }
}

/// The loop-nesting forest of one function: all natural loops (merged by
/// header) plus parent/depth queries.
#[derive(Debug, Clone)]
pub struct LoopForest {
    /// All loops, outermost-first within a nest (sorted by body size,
    /// largest first, so parents precede children).
    loops: Vec<NaturalLoop>,
    /// Parent loop index per loop (`None` = top-level).
    parent: Vec<Option<usize>>,
    /// Nesting depth per block: 0 outside any loop, 1 in a top-level
    /// loop body, and so on.
    depth: Vec<u32>,
    /// Innermost containing loop per block.
    innermost: Vec<Option<usize>>,
}

impl LoopForest {
    /// Detects the natural loops of `func` and builds the nesting forest.
    ///
    /// Back edges are edges `t -> h` where `h` dominates `t`; loops
    /// sharing a header are merged (the usual convention). Irreducible
    /// cycles (no dominating header) are not recognized as loops — the
    /// heuristics then simply see no back edge, which is the safe
    /// fallback.
    #[must_use]
    pub fn compute(func: &Function, doms: &Dominators) -> Self {
        let n = func.block_count();
        let preds = func.predecessors();

        // Back edges grouped by header.
        let mut latches_of: BTreeMap<BlockId, Vec<BlockId>> = BTreeMap::new();
        for (b, block) in func.blocks() {
            if !doms.is_reachable(b) {
                continue;
            }
            for succ in block.terminator().successors() {
                if doms.dominates(succ, b) {
                    latches_of.entry(succ).or_default().push(b);
                }
            }
        }

        // Body of each loop: backward reachability from the latches,
        // stopping at the header.
        let mut loops: Vec<NaturalLoop> = latches_of
            .into_iter()
            .map(|(header, latches)| {
                let mut in_body = vec![false; n];
                in_body[header.index()] = true;
                let mut stack: Vec<BlockId> = latches.clone();
                while let Some(b) = stack.pop() {
                    if in_body[b.index()] {
                        continue;
                    }
                    in_body[b.index()] = true;
                    for &p in &preds[b.index()] {
                        if !in_body[p.index()] && doms.is_reachable(p) {
                            stack.push(p);
                        }
                    }
                }
                let body: Vec<BlockId> = (0..n)
                    .map(BlockId::new)
                    .filter(|b| in_body[b.index()])
                    .collect();
                NaturalLoop {
                    header,
                    latches,
                    body,
                }
            })
            .collect();

        // Parents precede children once sorted by body size (a nested
        // loop's body is a strict subset of its ancestors').
        loops.sort_by_key(|l| (std::cmp::Reverse(l.body.len()), l.header));

        let mut parent: Vec<Option<usize>> = vec![None; loops.len()];
        for i in 0..loops.len() {
            // The smallest loop strictly containing this loop's header
            // (other than itself) is the parent.
            let mut best: Option<usize> = None;
            for (j, outer) in loops.iter().enumerate() {
                if j == i || outer.header == loops[i].header {
                    continue;
                }
                if outer.contains(loops[i].header) {
                    best = match best {
                        None => Some(j),
                        Some(cur) if loops[j].body.len() < loops[cur].body.len() => Some(j),
                        keep => keep,
                    };
                }
            }
            parent[i] = best;
        }

        let mut depth = vec![0u32; n];
        let mut innermost: Vec<Option<usize>> = vec![None; n];
        for b in 0..n {
            let id = BlockId::new(b);
            let containing: Vec<usize> = loops
                .iter()
                .enumerate()
                .filter(|(_, l)| l.contains(id))
                .map(|(i, _)| i)
                .collect();
            depth[b] = containing.len() as u32;
            innermost[b] = containing.into_iter().min_by_key(|&i| loops[i].body.len());
        }

        Self {
            loops,
            parent,
            depth,
            innermost,
        }
    }

    /// All loops, parents before children.
    #[must_use]
    pub fn loops(&self) -> &[NaturalLoop] {
        &self.loops
    }

    /// Parent loop of loop `i` (`None` for top-level loops).
    #[must_use]
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parent[i]
    }

    /// Loop-nesting depth of a block (0 = outside every loop).
    #[must_use]
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }

    /// Index of the innermost loop containing `b`, if any.
    #[must_use]
    pub fn innermost(&self, b: BlockId) -> Option<usize> {
        self.innermost[b.index()]
    }

    /// `true` when the edge `from -> to` is a back edge (closes a loop
    /// whose header is `to` and whose body contains `from`).
    #[must_use]
    pub fn is_back_edge(&self, from: BlockId, to: BlockId) -> bool {
        self.loops
            .iter()
            .any(|l| l.header == to && l.contains(from))
    }

    /// `true` when the edge `from -> to` leaves the innermost loop
    /// containing `from` (a loop-exit edge).
    #[must_use]
    pub fn is_loop_exit(&self, from: BlockId, to: BlockId) -> bool {
        match self.innermost(from) {
            Some(i) => !self.loops[i].contains(to),
            None => false,
        }
    }
}

/// Strongly connected components of the static call graph, in
/// caller-before-callee topological order of the condensation.
///
/// Frequency propagation over the call graph processes components in
/// this order: by the time a component is reached, every call into it
/// from earlier components has a settled frequency. A component of more
/// than one function — or one function calling itself — is recursion,
/// which the estimator handles with bounded iteration instead of exact
/// solving.
#[derive(Debug, Clone)]
pub struct CallSccs {
    /// Components in topological order (callers first); functions within
    /// a component are in id order.
    components: Vec<Vec<FuncId>>,
    /// Component index per function.
    comp_of: Vec<usize>,
    /// Whether each component contains a cycle (size > 1 or a self-call).
    cyclic: Vec<bool>,
}

impl CallSccs {
    /// Computes the SCC condensation of `program`'s call graph
    /// (iterative Tarjan, covering unreachable functions too).
    #[must_use]
    pub fn compute(program: &Program) -> Self {
        let n = program.function_count();
        let cg = program.call_graph();
        let callees: Vec<Vec<FuncId>> = (0..n).map(|f| cg.callees_of(FuncId::new(f))).collect();

        // Iterative Tarjan.
        let mut index = vec![usize::MAX; n];
        let mut lowlink = vec![usize::MAX; n];
        let mut on_stack = vec![false; n];
        let mut scc_stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut components: Vec<Vec<FuncId>> = Vec::new();
        let mut comp_of = vec![usize::MAX; n];

        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            // Explicit DFS frame: (node, next-callee cursor).
            let mut call_stack: Vec<(usize, usize)> = vec![(root, 0)];
            index[root] = next_index;
            lowlink[root] = next_index;
            next_index += 1;
            scc_stack.push(root);
            on_stack[root] = true;

            while let Some(&mut (v, ref mut cursor)) = call_stack.last_mut() {
                if *cursor < callees[v].len() {
                    let w = callees[v][*cursor].index();
                    *cursor += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        scc_stack.push(w);
                        on_stack[w] = true;
                        call_stack.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    call_stack.pop();
                    if let Some(&(parent, _)) = call_stack.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        let mut comp: Vec<FuncId> = Vec::new();
                        loop {
                            let w = scc_stack.pop().expect("scc stack underflow");
                            on_stack[w] = false;
                            comp_of[w] = components.len();
                            comp.push(FuncId::new(w));
                            if w == v {
                                break;
                            }
                        }
                        comp.sort();
                        components.push(comp);
                    }
                }
            }
        }

        // Tarjan emits components callee-first; reverse for caller-first.
        components.reverse();
        for c in comp_of.iter_mut() {
            *c = components.len() - 1 - *c;
        }

        let cyclic: Vec<bool> = components
            .iter()
            .map(|comp| comp.len() > 1 || comp.iter().any(|&f| callees[f.index()].contains(&f)))
            .collect();

        Self {
            components,
            comp_of,
            cyclic,
        }
    }

    /// Components in caller-before-callee topological order.
    #[must_use]
    pub fn components(&self) -> &[Vec<FuncId>] {
        &self.components
    }

    /// Index of the component containing `f`.
    #[must_use]
    pub fn component_of(&self, f: FuncId) -> usize {
        self.comp_of[f.index()]
    }

    /// `true` when component `i` contains recursion.
    #[must_use]
    pub fn is_cyclic(&self, i: usize) -> bool {
        self.cyclic[i]
    }

    /// Number of components that contain recursion.
    #[must_use]
    pub fn cyclic_count(&self) -> usize {
        self.cyclic.iter().filter(|&&c| c).count()
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, Instr, ProgramBuilder, Terminator};

    use super::*;

    /// A diamond followed by a self-loop and an exit:
    /// b0 -> {b1, b2} -> b3 -> b3 (latch) -> b4.
    fn diamond_loop() -> impact_ir::Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let b0 = f.block(vec![Instr::IntAlu]);
        let b1 = f.block(vec![Instr::IntAlu]);
        let b2 = f.block(vec![Instr::IntAlu]);
        let b3 = f.block(vec![Instr::Load]);
        let b4 = f.block(vec![]);
        f.terminate(b0, Terminator::branch(b1, b2, BranchBias::fixed(0.5)));
        f.terminate(b1, Terminator::jump(b3));
        f.terminate(b2, Terminator::jump(b3));
        f.terminate(b3, Terminator::branch(b3, b4, BranchBias::fixed(0.9)));
        f.terminate(b4, Terminator::Exit);
        let mid = f.finish();
        pb.set_entry(mid);
        pb.finish().unwrap()
    }

    /// Two nested loops: outer header b1 (latch b4), inner header b2
    /// (latch b3).
    fn nested_loops() -> impact_ir::Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let b0 = f.block(vec![]);
        let b1 = f.block(vec![Instr::IntAlu]); // outer header
        let b2 = f.block(vec![Instr::IntAlu]); // inner header
        let b3 = f.block(vec![Instr::Load]); // inner latch
        let b4 = f.block(vec![]); // outer latch
        let b5 = f.block(vec![]);
        f.terminate(b0, Terminator::jump(b1));
        f.terminate(b1, Terminator::jump(b2));
        f.terminate(b2, Terminator::jump(b3));
        f.terminate(b3, Terminator::branch(b2, b4, BranchBias::fixed(0.8)));
        f.terminate(b4, Terminator::branch(b1, b5, BranchBias::fixed(0.7)));
        f.terminate(b5, Terminator::Exit);
        let mid = f.finish();
        pb.set_entry(mid);
        pb.finish().unwrap()
    }

    #[test]
    fn dominators_of_a_diamond() {
        let p = diamond_loop();
        let f = p.function(p.entry());
        let d = Dominators::compute(f);
        let b = BlockId::new;
        assert_eq!(d.idom(b(0)), Some(b(0)));
        assert_eq!(d.idom(b(1)), Some(b(0)));
        assert_eq!(d.idom(b(2)), Some(b(0)));
        // Join point: dominated by the fork, not either arm.
        assert_eq!(d.idom(b(3)), Some(b(0)));
        assert_eq!(d.idom(b(4)), Some(b(3)));
        assert!(d.dominates(b(0), b(4)));
        assert!(d.dominates(b(3), b(4)));
        assert!(!d.dominates(b(1), b(3)));
        assert!(d.dominates(b(3), b(3)), "dominance is reflexive");
    }

    #[test]
    fn unreachable_blocks_have_no_dominators() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let b0 = f.block(vec![]);
        let dead = f.block(vec![]);
        f.terminate(b0, Terminator::Exit);
        f.terminate(dead, Terminator::jump(b0));
        let mid = f.finish();
        pb.set_entry(mid);
        let p = pb.finish().unwrap();
        let d = Dominators::compute(p.function(p.entry()));
        assert!(!d.is_reachable(BlockId::new(1)));
        assert!(!d.dominates(BlockId::new(0), BlockId::new(1)));
    }

    #[test]
    fn self_loop_is_detected() {
        let p = diamond_loop();
        let f = p.function(p.entry());
        let d = Dominators::compute(f);
        let forest = LoopForest::compute(f, &d);
        assert_eq!(forest.loops().len(), 1);
        let l = &forest.loops()[0];
        assert_eq!(l.header, BlockId::new(3));
        assert_eq!(l.body, vec![BlockId::new(3)]);
        assert!(forest.is_back_edge(BlockId::new(3), BlockId::new(3)));
        assert!(forest.is_loop_exit(BlockId::new(3), BlockId::new(4)));
        assert_eq!(forest.depth(BlockId::new(3)), 1);
        assert_eq!(forest.depth(BlockId::new(0)), 0);
    }

    #[test]
    fn nesting_forest_orders_parents_first() {
        let p = nested_loops();
        let f = p.function(p.entry());
        let d = Dominators::compute(f);
        let forest = LoopForest::compute(f, &d);
        assert_eq!(forest.loops().len(), 2);
        // Outer loop (header b1) first, inner (header b2) second.
        assert_eq!(forest.loops()[0].header, BlockId::new(1));
        assert_eq!(forest.loops()[1].header, BlockId::new(2));
        assert_eq!(forest.parent(0), None);
        assert_eq!(forest.parent(1), Some(0));
        assert_eq!(forest.depth(BlockId::new(3)), 2);
        assert_eq!(forest.depth(BlockId::new(4)), 1);
        assert_eq!(forest.innermost(BlockId::new(3)), Some(1));
        // Inner latch exits the inner loop to the outer latch.
        assert!(forest.is_loop_exit(BlockId::new(3), BlockId::new(4)));
        assert!(!forest.is_loop_exit(BlockId::new(3), BlockId::new(2)));
    }

    #[test]
    fn loop_body_bytes_sums_blocks() {
        let p = nested_loops();
        let f = p.function(p.entry());
        let d = Dominators::compute(f);
        let forest = LoopForest::compute(f, &d);
        let inner = &forest.loops()[1];
        // Inner body: b2 (2 instrs incl term = 8B) + b3 (2 instrs = 8B).
        assert_eq!(inner.body_bytes(f), 16);
    }

    /// main -> a -> b -> a (cycle), main -> c, d unreachable.
    fn scc_program() -> impact_ir::Program {
        let mut pb = ProgramBuilder::new();
        let a = pb.reserve("a");
        let b = pb.reserve("b");
        let c = pb.reserve("c");
        let mut main = pb.function("main");
        let m0 = main.block(vec![]);
        let m1 = main.block(vec![]);
        let m2 = main.block(vec![]);
        main.terminate(m0, Terminator::call(a, m1));
        main.terminate(m1, Terminator::call(c, m2));
        main.terminate(m2, Terminator::Exit);
        let mid = main.finish();
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
        let mut fc = pb.function_reserved(c);
        let c0 = fc.block(vec![]);
        fc.terminate(c0, Terminator::Return);
        fc.finish();
        let mut fd = pb.function("d");
        let d0 = fd.block(vec![]);
        fd.terminate(d0, Terminator::Return);
        fd.finish();
        pb.set_entry(mid);
        pb.finish().unwrap()
    }

    #[test]
    fn sccs_condense_recursion_and_order_callers_first() {
        let p = scc_program();
        let sccs = CallSccs::compute(&p);
        let a = p.function_by_name("a").unwrap();
        let b = p.function_by_name("b").unwrap();
        let c = p.function_by_name("c").unwrap();
        let main = p.entry();

        // a and b collapse into one cyclic component.
        assert_eq!(sccs.component_of(a), sccs.component_of(b));
        assert!(sccs.is_cyclic(sccs.component_of(a)));
        assert!(!sccs.is_cyclic(sccs.component_of(main)));
        assert!(!sccs.is_cyclic(sccs.component_of(c)));
        assert_eq!(sccs.cyclic_count(), 1);

        // Topological: main's component precedes both callees'.
        assert!(sccs.component_of(main) < sccs.component_of(a));
        assert!(sccs.component_of(main) < sccs.component_of(c));

        // Every function appears exactly once.
        let total: usize = sccs.components().iter().map(Vec::len).sum();
        assert_eq!(total, p.function_count());
    }

    #[test]
    fn self_recursion_is_cyclic() {
        let mut pb = ProgramBuilder::new();
        let me = pb.reserve("recur");
        let mut f = pb.function_reserved(me);
        let b0 = f.block(vec![]);
        let b1 = f.block(vec![]);
        f.terminate(b0, Terminator::call(me, b1));
        f.terminate(b1, Terminator::Exit);
        f.finish();
        pb.set_entry(me);
        let p = pb.finish().unwrap();
        let sccs = CallSccs::compute(&p);
        assert!(sccs.is_cyclic(sccs.component_of(p.entry())));
    }
}
