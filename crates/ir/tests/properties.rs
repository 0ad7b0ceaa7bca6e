//! Property tests for the IR primitives.

use impact_ir::{site_key, BlockId, BranchBias, Instr, ProgramBuilder, Terminator};
use impact_support::check::forall;

/// Effective probabilities always stay in the unit interval.
#[test]
fn effective_probability_is_bounded() {
    forall(
        256,
        |rng| {
            (
                rng.gen_f64(),
                rng.gen_f64() * 2.0,
                rng.next_u64(),
                rng.next_u64(),
            )
        },
        |&(base, spread, seed, key)| {
            let bias = BranchBias::varying(base, spread);
            let p = bias.effective(seed, key);
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        },
    );
}

/// Zero spread means the base probability, always.
#[test]
fn zero_spread_is_exact() {
    forall(
        256,
        |rng| (rng.gen_f64(), rng.next_u64(), rng.next_u64()),
        |&(base, seed, key)| {
            let bias = BranchBias::varying(base, 0.0);
            assert_eq!(bias.effective(seed, key), base);
        },
    );
}

/// The effective probability never strays further than the spread.
#[test]
fn deviation_is_within_spread() {
    forall(
        256,
        |rng| {
            (
                rng.gen_f64(),
                rng.gen_f64() * 0.5,
                rng.next_u64(),
                rng.next_u64(),
            )
        },
        |&(base, spread, seed, key)| {
            let bias = BranchBias::varying(base, spread);
            let p = bias.effective(seed, key);
            assert!((p - base).abs() <= spread + 1e-12);
        },
    );
}

/// Site keys are deterministic and rarely collide across blocks.
#[test]
fn site_keys_are_stable() {
    forall(
        256,
        |rng| {
            let len = rng.gen_range_inclusive(1, 13);
            let name: String = (0..len)
                .map(|_| char::from(b'a' + rng.gen_below(26) as u8))
                .collect();
            (name, rng.gen_below(10_000) as usize)
        },
        |(name, block)| {
            let a = site_key(name, BlockId::new(*block));
            let b = site_key(name, BlockId::new(*block));
            assert_eq!(a, b);
            // A different block of the same function gets a different key.
            let c = site_key(name, BlockId::new(*block + 1));
            assert_ne!(a, c);
        },
    );
}

/// Block sizes follow directly from body length.
#[test]
fn block_sizes_are_body_plus_terminator() {
    forall(
        64,
        |rng| rng.gen_below(200) as usize,
        |&body_len| {
            let mut pb = ProgramBuilder::new();
            let mut f = pb.function("main");
            let b = f.block(vec![Instr::Nop; body_len]);
            f.terminate(b, Terminator::Exit);
            let id = f.finish();
            pb.set_entry(id);
            let p = pb.finish().unwrap();
            assert_eq!(p.function(id).block(b).instr_count(), body_len as u64 + 1);
            assert_eq!(p.total_bytes(), (body_len as u64 + 1) * 4);
        },
    );
}

/// Programs with arbitrary jump-chain shapes validate and report
/// consistent predecessor/successor structure.
#[test]
fn chain_programs_validate() {
    forall(
        128,
        |rng| {
            let n = rng.gen_range_inclusive(1, 19);
            (0..n)
                .map(|_| rng.gen_below(8) as usize)
                .collect::<Vec<_>>()
        },
        |lens| {
            let mut pb = ProgramBuilder::new();
            let mut f = pb.function("main");
            let blocks: Vec<BlockId> = lens
                .iter()
                .map(|&n| f.block(vec![Instr::IntAlu; n]))
                .collect();
            for w in blocks.windows(2) {
                f.terminate(w[0], Terminator::jump(w[1]));
            }
            f.terminate(*blocks.last().unwrap(), Terminator::Exit);
            let id = f.finish();
            pb.set_entry(id);
            let p = pb.finish().unwrap();

            let func = p.function(id);
            let preds = func.predecessors();
            // Every block but the first has exactly one predecessor.
            assert!(preds[0].is_empty());
            for pr in preds.iter().skip(1) {
                assert_eq!(pr.len(), 1);
            }
            // Successor counts mirror the chain.
            for (i, b) in blocks.iter().enumerate() {
                let succ = func.block(*b).terminator().successors();
                assert_eq!(succ.len(), usize::from(i + 1 < blocks.len()));
            }
        },
    );
}
