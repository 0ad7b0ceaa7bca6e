//! A generator of small random programs, shared by the round-trip and
//! parser-equivalence tests.
//!
//! Test crates include it with `mod programs;`.

use impact_ir::{BlockId, BranchBias, FuncId, Instr, Program, ProgramBuilder, Terminator};
use impact_support::Rng;

fn gen_instr(rng: &mut Rng) -> Instr {
    match rng.gen_below(5) {
        0 => Instr::IntAlu,
        1 => Instr::FpAlu,
        2 => Instr::Load,
        3 => Instr::Store,
        _ => Instr::Nop,
    }
}

/// A terminator plan with indices resolved modulo actual counts.
#[derive(Debug, Clone)]
enum Plan {
    Jump(usize),
    Branch(usize, usize, u16, u16),
    Switch(Vec<(usize, u32)>),
    Call(usize, usize),
    Return,
    Exit,
}

fn gen_plan(rng: &mut Rng) -> Plan {
    match rng.gen_below(6) {
        0 => Plan::Jump(rng.next_u64() as usize),
        1 => Plan::Branch(
            rng.next_u64() as usize,
            rng.next_u64() as usize,
            rng.gen_below(1001) as u16,
            rng.gen_below(501) as u16,
        ),
        2 => {
            let arms = rng.gen_range_inclusive(1, 3);
            Plan::Switch(
                (0..arms)
                    .map(|_| (rng.next_u64() as usize, rng.gen_below(9) as u32))
                    .collect(),
            )
        }
        3 => Plan::Call(rng.next_u64() as usize, rng.next_u64() as usize),
        4 => Plan::Return,
        _ => Plan::Exit,
    }
}

/// A random valid program: one to three functions of one to five
/// blocks each, with every terminator kind.
pub fn gen_program(rng: &mut Rng) -> Program {
    let nfuncs = rng.gen_range_inclusive(1, 3);
    let plans: Vec<Vec<(Vec<Instr>, Plan)>> = (0..nfuncs)
        .map(|_| {
            let nblocks = rng.gen_range_inclusive(1, 5);
            (0..nblocks)
                .map(|_| {
                    let body_len = rng.gen_below(8) as usize;
                    let body: Vec<Instr> = (0..body_len).map(|_| gen_instr(rng)).collect();
                    (body, gen_plan(rng))
                })
                .collect()
        })
        .collect();

    let mut pb = ProgramBuilder::new();
    let ids: Vec<FuncId> = (0..plans.len())
        .map(|i| pb.reserve(format!("f{i}")))
        .collect();
    for (fi, blocks) in plans.iter().enumerate() {
        let mut fb = pb.function_reserved(ids[fi]);
        let bids: Vec<BlockId> = blocks
            .iter()
            .map(|(body, _)| fb.block(body.clone()))
            .collect();
        let n = bids.len();
        for (bi, (_, plan)) in blocks.iter().enumerate() {
            let r = |x: usize| bids[x % n];
            let term = match plan {
                Plan::Jump(t) => Terminator::jump(r(*t)),
                Plan::Branch(a, b, p, s) => {
                    // Quantized probabilities survive the decimal
                    // round trip exactly.
                    let p = f64::from(*p) / 1000.0;
                    let s = (f64::from(*s) / 1000.0).min(1.0);
                    Terminator::branch(r(*a), r(*b), BranchBias::varying(p, s))
                }
                Plan::Switch(arms) => {
                    let mut targets: Vec<(BlockId, u32)> =
                        arms.iter().map(|(t, w)| (r(*t), *w)).collect();
                    if targets.iter().all(|(_, w)| *w == 0) {
                        targets[0].1 = 1;
                    }
                    Terminator::Switch { targets }
                }
                Plan::Call(f, ret) => Terminator::call(ids[*f % ids.len()], r(*ret)),
                Plan::Return => Terminator::Return,
                Plan::Exit => Terminator::Exit,
            };
            fb.terminate(bids[bi], term);
        }
        fb.finish();
    }
    pb.set_entry(ids[0]);
    pb.finish().expect("generated programs are valid")
}
