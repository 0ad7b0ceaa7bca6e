//! Materialize layout decisions into a reordered program.
//!
//! The pipeline's output is a [`Placement`](crate::Placement) — an
//! address map over the *original* program. [`materialize`] instead
//! rewrites the program so that its plain declaration order realizes the
//! layout decisions: functions appear in global-layout order and each
//! function's blocks appear in function-layout order (effective region
//! first). The result can be printed with `impact-asm` — the form a
//! real compiler would hand to the assembler.
//!
//! One fidelity caveat, by construction: the paper's global layout packs
//! *all* effective regions before *all* non-executed regions, splitting
//! functions across two program sections. A single contiguous function
//! cannot express that split, so the materialized program approximates
//! it per function (cold blocks at the function's bottom). The returned
//! program's [`baseline::natural`](crate::baseline::natural) placement
//! therefore matches the optimized placement in intra-function order and
//! function order, but not in the global cold-section extraction.

use impact_ir::{BasicBlock, BlockId, FuncId, Function, Program, Terminator};

use crate::function_layout::FunctionLayout;
use crate::global_layout::GlobalOrder;

/// Rewrites `program` so declaration order realizes the layout.
///
/// # Panics
///
/// Panics if `layouts` is not indexed by function id over all
/// functions, `global` is not a permutation of the functions, or any
/// layout is not a permutation of its function.
#[must_use]
pub fn materialize(program: &Program, global: &GlobalOrder, layouts: &[FunctionLayout]) -> Program {
    assert!(
        layouts.len() == program.function_count(),
        "cannot materialize layout: got {} function layouts for {} functions",
        layouts.len(),
        program.function_count()
    );
    assert!(
        global.is_permutation_of(program),
        "cannot materialize layout: global order is not a permutation of the functions"
    );
    for (fid, func) in program.functions() {
        assert!(
            layouts[fid.index()].is_permutation_of(func),
            "cannot materialize layout: layout of function {fid:?} does not cover its blocks"
        );
    }

    // New function ids follow the global order.
    let mut new_fid = vec![usize::MAX; program.function_count()];
    for (pos, &fid) in global.order().iter().enumerate() {
        new_fid[fid.index()] = pos;
    }

    let mut funcs: Vec<Option<Function>> = vec![None; program.function_count()];
    for (fid, func) in program.functions() {
        let layout = &layouts[fid.index()];
        // New block ids follow the placed order.
        let placed: Vec<BlockId> = layout.placed_blocks().collect();
        let mut new_bid = vec![usize::MAX; func.block_count()];
        for (pos, &bid) in placed.iter().enumerate() {
            new_bid[bid.index()] = pos;
        }
        let remap_block = |b: BlockId| BlockId::new(new_bid[b.index()]);
        let remap_func = |f: FuncId| FuncId::new(new_fid[f.index()]);

        let blocks: Vec<BasicBlock> = placed
            .iter()
            .map(|&old| {
                let mut block = func.block(old).clone();
                let term = match block.terminator().clone() {
                    Terminator::Jump { target } => Terminator::Jump {
                        target: remap_block(target),
                    },
                    Terminator::Branch {
                        taken,
                        not_taken,
                        bias,
                    } => Terminator::Branch {
                        taken: remap_block(taken),
                        not_taken: remap_block(not_taken),
                        bias,
                    },
                    Terminator::Switch { targets } => Terminator::Switch {
                        targets: targets
                            .into_iter()
                            .map(|(t, w)| (remap_block(t), w))
                            .collect(),
                    },
                    Terminator::Call { callee, ret_to } => Terminator::Call {
                        callee: remap_func(callee),
                        ret_to: remap_block(ret_to),
                    },
                    t @ (Terminator::Return | Terminator::Exit) => t,
                };
                block.set_terminator(term);
                block
            })
            .collect();

        funcs[new_fid[fid.index()]] = Some(Function::from_parts(
            func.name().to_owned(),
            blocks,
            remap_block(func.entry()),
        ));
    }

    let funcs: Vec<Function> = funcs
        .into_iter()
        .map(|f| f.expect("global order covers every function"))
        .collect();
    Program::from_parts(funcs, FuncId::new(new_fid[program.entry().index()]))
        .expect("materialization preserves validity")
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, ProgramBuilder};
    use impact_profile::Profiler;

    use crate::baseline;
    use crate::pipeline::{Pipeline, PipelineConfig};

    use super::*;

    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let helper = pb.reserve("helper");
        let mut main = pb.function("main");
        let m0 = main.block_n(1);
        let m1 = main.block_n(1);
        let m_dead = main.block_n(4);
        let m2 = main.block_n(0);
        main.terminate(m0, Terminator::call(helper, m1));
        main.terminate(m1, Terminator::branch(m_dead, m2, BranchBias::fixed(0.0)));
        main.terminate(m_dead, Terminator::jump(m2));
        main.terminate(m2, Terminator::Exit);
        let mid = main.finish();
        let mut h = pb.function_reserved(helper);
        let h0 = h.block_n(2);
        h.terminate(h0, Terminator::Return);
        h.finish();
        pb.set_entry(mid);
        pb.finish().unwrap()
    }

    fn run_pipeline(p: &Program) -> crate::pipeline::PipelineResult {
        Pipeline::new(PipelineConfig {
            inline: None,
            profile_runs: 4,
            ..PipelineConfig::default()
        })
        .run(p)
    }

    #[test]
    fn materialized_program_validates_and_preserves_behavior() {
        let p = program();
        let r = run_pipeline(&p);
        let m = materialize(&r.program, &r.global, &r.layouts);
        m.validate().unwrap();
        assert_eq!(m.total_bytes(), p.total_bytes());
        // Same dynamic behavior: profile totals match (function names and
        // block positions moved, but fixed-bias branches dominate here).
        let a = Profiler::new().runs(4).profile(&p);
        let b = Profiler::new().runs(4).profile(&m);
        assert_eq!(a.totals.instructions, b.totals.instructions);
        assert_eq!(a.totals.calls, b.totals.calls);
    }

    #[test]
    fn declaration_order_realizes_function_order() {
        let p = program();
        let r = run_pipeline(&p);
        let m = materialize(&r.program, &r.global, &r.layouts);
        // First declared function is the first in the global order.
        let first = r.global.order()[0];
        assert_eq!(
            m.function(FuncId::new(0)).name(),
            r.program.function(first).name()
        );
        assert_eq!(m.entry().index(), r.global.position(r.program.entry()));
    }

    #[test]
    fn cold_blocks_sink_to_the_function_bottom() {
        let p = program();
        let r = run_pipeline(&p);
        let m = materialize(&r.program, &r.global, &r.layouts);
        let main = m.function(m.entry());
        // The dead 4-instruction block must be main's last block.
        let last = BlockId::new(main.block_count() - 1);
        assert_eq!(main.block(last).body().len(), 4);
    }

    #[test]
    fn natural_layout_of_materialized_matches_intra_function_order() {
        let p = program();
        let r = run_pipeline(&p);
        let m = materialize(&r.program, &r.global, &r.layouts);
        let nat = baseline::natural(&m);
        // Within each function, consecutive declared blocks are
        // consecutive in memory.
        for (fid, func) in m.functions() {
            let mut prev_end = None;
            for bid in func.block_ids() {
                let a = nat.addr(fid, bid);
                if let Some(end) = prev_end {
                    assert_eq!(a, end);
                }
                prev_end = Some(a + func.block(bid).size_bytes());
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot materialize layout: got 1 function layouts for 2 functions")]
    fn materialize_rejects_too_few_layouts() {
        let p = program();
        let r = run_pipeline(&p);
        let _ = materialize(&p, &r.global, &r.layouts[..1]);
    }

    #[test]
    #[should_panic(
        expected = "cannot materialize layout: global order is not a permutation of the functions"
    )]
    fn materialize_rejects_an_order_from_another_program() {
        let p = program();
        let r = run_pipeline(&p);
        let mut pb = ProgramBuilder::new();
        let mut lone = pb.function("lone");
        let b0 = lone.block_n(1);
        lone.terminate(b0, Terminator::Exit);
        let lone_id = lone.finish();
        pb.set_entry(lone_id);
        let small = pb.finish().unwrap();
        let small_order = GlobalOrder::from_order(&small, vec![small.entry()]);
        let _ = materialize(&p, &small_order, &r.layouts);
    }
}
