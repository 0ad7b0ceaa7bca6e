//! The parametric synthetic-benchmark generator.
//!
//! Every benchmark model shares one program shape — the shape of the
//! paper's workloads (iterative UNIX tools):
//!
//! ```text
//! main:    prologue → outer loop { call phase_0 … call phase_{P-1} }
//!          → epilogue (occasional cold-utility calls) → exit
//! phase_i: inner loop over S segments; each segment is a straight run of
//!          R blocks ending in (cyclically) a helper call, a cold side
//!          path, a never-taken error branch, or a plain fall-through
//! helper_j: small leaf function (optionally a non-inlinable "system
//!          call" stub modeled as statically recursive)
//! cold_k:  utility functions executed rarely (even k) or never (odd k)
//! ```
//!
//! Cold side blocks and error handlers are **interleaved with the hot
//! blocks in declaration order**, as a real C compiler would emit them —
//! that is precisely the spatial-locality waste the paper's placement
//! optimization removes.
//!
//! The knobs of [`SyntheticSpec`] map to the paper's published
//! per-benchmark statistics:
//!
//! | knob | controls | paper statistic |
//! |------|----------|-----------------|
//! | `phases`, `segments_per_phase`, `run_len` | hot-region bytes | Table 6/7 miss & traffic |
//! | `run_len`, `stay_bias`, cadences | trace shape | Table 4 trace length & transfer classes |
//! | `call_cadence`, `helpers`, `syscall_helpers` | call frequency | Tables 2–3 calls, DI/call |
//! | `cold_funcs`, `dead_cadence`, `side_cadence` | effective vs. total size | Table 5 |
//! | `inner_iters`, `outer_iters`, `phase_decay` | dynamic length & reuse | Table 2 instructions |

use impact_ir::{BlockId, BranchBias, FuncId, Instr, Program, ProgramBuilder, Terminator};
use impact_support::Rng;

/// Parameters of one synthetic benchmark model. See the module docs for
/// the mapping from knobs to paper statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Benchmark name (one of the paper's ten).
    pub name: &'static str,
    /// Seed for the structural RNG (block sizes, call-target choices).
    pub structure_seed: u64,
    /// Number of hot phase functions `main` cycles through.
    pub phases: usize,
    /// Segments per phase (hot-region size knob).
    pub segments_per_phase: usize,
    /// Straight-run blocks per segment (trace-length knob).
    pub run_len: usize,
    /// Inclusive range of body instructions per hot block.
    pub block_instrs: (usize, usize),
    /// Body instructions of dead/side blocks (cold code tends to be
    /// bulkier: error formatting, cleanup).
    pub cold_block_instrs: usize,
    /// Probability of continuing on the hot path at a segment boundary.
    pub stay_bias: f64,
    /// Per-input spread applied to hot branches.
    pub bias_spread: f64,
    /// Expected inner-loop iterations per phase invocation.
    pub inner_iters: f64,
    /// Expected outer-loop iterations per run.
    pub outer_iters: f64,
    /// Geometric decay of inner iterations across phases (1.0 = uniform;
    /// smaller = earlier phases dominate).
    pub phase_decay: f64,
    /// Number of leaf helper functions.
    pub helpers: usize,
    /// Blocks per helper.
    pub helper_blocks: usize,
    /// A helper call terminates every `call_cadence`-th segment
    /// (0 = never).
    pub call_cadence: usize,
    /// A cold side path follows every `side_cadence`-th segment (0 =
    /// never).
    pub side_cadence: usize,
    /// A never-taken error branch follows every `dead_cadence`-th segment
    /// (0 = never).
    pub dead_cadence: usize,
    /// Interpreter-style dispatch: when positive, the inner-loop head
    /// `Switch`es to one of the first `dispatch_fanout` segments per
    /// iteration (Zipf-weighted) and every segment returns to the latch —
    /// the shape of awk/yacc-style table-driven tools. `0` keeps the
    /// default sequential-sweep body.
    pub dispatch_fanout: usize,
    /// Number of cold utility functions (even-indexed run rarely,
    /// odd-indexed never).
    pub cold_funcs: usize,
    /// Blocks per cold utility function.
    pub cold_func_blocks: usize,
    /// Fraction of helpers modeled as system-call stubs (statically
    /// recursive, hence never inlined). `1.0` for `tee`, whose calls are
    /// all system calls; intermediate values reproduce each benchmark's
    /// published call-elimination percentage (Table 3).
    pub noinline_helper_fraction: f64,
    /// Guard phase functions against inlining too. Used by the tools
    /// whose hot loop conceptually *is* `main` (`wc`, `cmp`): the paper
    /// reports ~0 % call elimination for them, so the model's internal
    /// main→phase plumbing must not be absorbed either.
    pub inline_barrier_phases: bool,
    /// Extra offset added to the evaluation seed — used to pick a
    /// "typical size" input (the paper's own words) when the default
    /// seed draws a degenerately short run from the geometric loop
    /// distributions.
    pub eval_seed_offset: u64,
    /// Profiling runs (the paper's Table 2 "runs" column, capped for
    /// simulation cost).
    pub profile_runs: u32,
    /// Dynamic-instruction cap for any single walk of this model.
    pub max_dynamic_instrs: u64,
}

/// A generated benchmark: the paper-named program model plus the
/// evaluation conventions derived from its spec.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name.
    pub name: &'static str,
    /// The generated program model.
    pub program: Program,
    /// The spec it was generated from.
    pub spec: SyntheticSpec,
}

impl Workload {
    /// The held-out evaluation input seed ("we randomly select one input
    /// for each benchmark to take the traces").
    #[must_use]
    pub fn eval_seed(&self) -> u64 {
        impact_ir::HELD_OUT_SEED + self.spec.structure_seed + self.spec.eval_seed_offset
    }
}

impl SyntheticSpec {
    /// Generates the program model for this spec.
    ///
    /// Deterministic: the same spec always yields the same program.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero phases/segments/run length,
    /// or iteration expectations below 1).
    #[must_use]
    pub fn build(&self) -> Workload {
        assert!(self.phases > 0, "{}: phases must be positive", self.name);
        assert!(
            self.segments_per_phase > 0,
            "{}: segments must be positive",
            self.name
        );
        assert!(self.run_len > 0, "{}: run_len must be positive", self.name);
        assert!(
            self.inner_iters >= 1.0 && self.outer_iters >= 1.0,
            "{}: iteration expectations must be >= 1",
            self.name
        );

        let mut rng = Rng::seed_from_u64(self.structure_seed ^ 0x00ca_11ab_1e00_0000);
        let mut pb = ProgramBuilder::new();

        // Reserve (= declare) functions the way a multi-file C program
        // links: hot phase functions interleaved with cold utilities, so
        // the *declaration-order* baseline layout scatters hot code —
        // exactly the situation the paper's global layout repairs.
        let helper_ids: Vec<FuncId> = (0..self.helpers)
            .map(|i| pb.reserve(format!("helper_{i}")))
            .collect();
        let mut phase_ids = vec![None; self.phases];
        let mut cold_ids = vec![None; self.cold_funcs];
        let total = self.phases + self.cold_funcs;
        let (mut np, mut nc) = (0usize, 0usize);
        for k in 0..total {
            // Proportional merge: phase j appears at position ~j*total/phases.
            let want_phase = np * self.cold_funcs <= nc * self.phases && np < self.phases;
            if want_phase || nc >= self.cold_funcs {
                phase_ids[np] = Some(pb.reserve(format!("phase_{np}")));
                np += 1;
            } else {
                cold_ids[nc] = Some(pb.reserve(format!("cold_{nc}")));
                nc += 1;
            }
            let _ = k;
        }
        let phase_ids: Vec<FuncId> = phase_ids.into_iter().map(Option::unwrap).collect();
        let cold_ids: Vec<FuncId> = cold_ids.into_iter().map(Option::unwrap).collect();

        let main_id = self.build_main(&mut pb, &phase_ids, &cold_ids, &mut rng);
        for (i, &fid) in phase_ids.iter().enumerate() {
            self.build_phase(&mut pb, fid, i, &helper_ids, &mut rng);
        }
        for (i, &fid) in helper_ids.iter().enumerate() {
            self.build_helper(&mut pb, fid, i, &mut rng);
        }
        for &fid in &cold_ids {
            self.build_cold(&mut pb, fid, &mut rng);
        }

        pb.set_entry(main_id);
        let program = pb.finish().expect("generated programs are valid");
        Workload {
            name: self.name,
            program,
            spec: self.clone(),
        }
    }

    /// A hot-path block body.
    fn hot_body(&self, rng: &mut Rng) -> Vec<Instr> {
        let (lo, hi) = self.block_instrs;
        let n = rng.gen_range_inclusive(lo, hi);
        let mut body = Vec::with_capacity(n);
        for i in 0..n {
            body.push(match i % 4 {
                0 => Instr::Load,
                3 => Instr::Store,
                _ => Instr::IntAlu,
            });
        }
        body
    }

    /// A cold block body (error handling, cleanup: bulkier).
    fn cold_body(&self) -> Vec<Instr> {
        vec![Instr::IntAlu; self.cold_block_instrs]
    }

    fn build_main(
        &self,
        pb: &mut ProgramBuilder,
        phase_ids: &[FuncId],
        cold_ids: &[FuncId],
        rng: &mut Rng,
    ) -> FuncId {
        let mut f = pb.function("main");

        // Prologue: three straight blocks.
        let prologue: Vec<BlockId> = (0..3).map(|_| f.block(self.hot_body(rng))).collect();

        // Outer loop: one call block per phase, then the latch.
        let outer_head = f.block(self.hot_body(rng));
        let phase_calls: Vec<BlockId> = phase_ids
            .iter()
            .map(|_| f.block(vec![Instr::IntAlu]))
            .collect();
        let latch = f.block(vec![Instr::IntAlu]);

        // Epilogue: guarded calls to cold utilities, then exit.
        let mut epilogue: Vec<(BlockId, Option<(BlockId, FuncId)>)> = Vec::new();
        for (k, &cold) in cold_ids.iter().enumerate() {
            let guard = f.block(vec![Instr::IntAlu]);
            let call = f.block(vec![]);
            epilogue.push((guard, Some((call, cold))));
            let _ = k;
        }
        let exit = f.block(vec![Instr::IntAlu]);

        // Wire the prologue.
        for w in prologue.windows(2) {
            f.terminate(w[0], Terminator::jump(w[1]));
        }
        f.terminate(prologue[2], Terminator::jump(outer_head));

        // Wire the outer loop.
        f.terminate(outer_head, Terminator::jump(phase_calls[0]));
        for (i, &cb) in phase_calls.iter().enumerate() {
            let next = phase_calls.get(i + 1).copied().unwrap_or(latch);
            f.terminate(cb, Terminator::call(phase_ids[i], next));
        }
        let p_outer = 1.0 - 1.0 / self.outer_iters;
        let first_epilogue = epilogue.first().map_or(exit, |(g, _)| *g);
        f.terminate(
            latch,
            Terminator::branch(
                outer_head,
                first_epilogue,
                BranchBias::varying(p_outer, (self.bias_spread * 0.1).min(1.0 - p_outer)),
            ),
        );

        // Wire the epilogue: even cold functions run ~30 % of runs, odd
        // ones never.
        for (k, &(guard, call)) in epilogue.iter().enumerate() {
            let next = epilogue.get(k + 1).map_or(exit, |(g, _)| *g);
            let (call_block, callee) = call.expect("epilogue entries carry calls");
            let p = if k % 2 == 0 { 0.3 } else { 0.0 };
            f.terminate(
                guard,
                Terminator::branch(call_block, next, BranchBias::fixed(p)),
            );
            f.terminate(call_block, Terminator::call(callee, next));
        }
        f.terminate(exit, Terminator::Exit);

        f.set_entry(prologue[0]);
        f.finish()
    }

    fn build_phase(
        &self,
        pb: &mut ProgramBuilder,
        fid: FuncId,
        phase_index: usize,
        helper_ids: &[FuncId],
        rng: &mut Rng,
    ) {
        let mut f = pb.function_reserved(fid);
        let entry = f.block(self.hot_body(rng));
        let inner_head = f.block(self.hot_body(rng));

        // Generate the segments. Each yields its first block id and the
        // block that must receive the outgoing wire.
        struct Segment {
            first: BlockId,
            /// `(block, kind)` — how this segment's tail connects onward.
            tail: BlockId,
            kind: SegmentKind,
            side: Option<BlockId>,
            dead: Option<BlockId>,
            callee: Option<FuncId>,
        }
        enum SegmentKind {
            Plain,
            Side,
            Dead,
            Call,
        }

        let cadence_hits =
            |cadence: usize, s: usize| cadence > 0 && (s + 1).is_multiple_of(cadence);
        let mut segments: Vec<Segment> = Vec::with_capacity(self.segments_per_phase);
        let mut call_sites = 0usize;

        for s in 0..self.segments_per_phase {
            let run: Vec<BlockId> = (0..self.run_len)
                .map(|_| f.block(self.hot_body(rng)))
                .collect();
            for w in run.windows(2) {
                f.terminate(w[0], Terminator::jump(w[1]));
            }
            let kind = if cadence_hits(self.call_cadence, s) && !helper_ids.is_empty() {
                SegmentKind::Call
            } else if cadence_hits(self.dead_cadence, s) {
                SegmentKind::Dead
            } else if cadence_hits(self.side_cadence, s) {
                SegmentKind::Side
            } else {
                SegmentKind::Plain
            };
            // Cold code is declared inline, right after the hot run.
            let (side, dead, callee) = match kind {
                SegmentKind::Side => (Some(f.block(self.cold_body())), None, None),
                SegmentKind::Dead => (None, Some(f.block(self.cold_body())), None),
                SegmentKind::Call => {
                    // Cycle deterministically through the helper pool so
                    // the share of calls reaching non-inlinable stubs
                    // tracks `noinline_helper_fraction`.
                    let h = helper_ids[(phase_index + call_sites) % helper_ids.len()];
                    call_sites += 1;
                    (None, None, Some(h))
                }
                SegmentKind::Plain => (None, None, None),
            };
            segments.push(Segment {
                first: run[0],
                tail: *run.last().expect("run_len > 0"),
                kind,
                side,
                dead,
                callee,
            });
        }

        let latch = f.block(vec![Instr::IntAlu]);
        let ret = f.block(vec![Instr::IntAlu]);

        // Wire entry and head. Dispatch mode turns the loop body into an
        // interpreter: the head switches to one handler (segment) per
        // iteration, each handler returns to the latch.
        let dispatch = self.dispatch_fanout > 0;
        f.terminate(entry, Terminator::jump(inner_head));
        if dispatch {
            let fanout = self.dispatch_fanout.min(segments.len());
            // Zipf-flavored weights: earlier handlers dominate, as opcode
            // frequencies do in real interpreters.
            let targets: Vec<(BlockId, u32)> = segments[..fanout]
                .iter()
                .enumerate()
                .map(|(i, seg)| (seg.first, (1000 / (i as u32 + 1)).max(1)))
                .collect();
            f.terminate(inner_head, Terminator::Switch { targets });
        } else {
            f.terminate(inner_head, Terminator::jump(segments[0].first));
        }

        // Wire segment tails. In dispatch mode every handler flows to the
        // latch; otherwise segments chain sequentially with skips.
        for s in 0..segments.len() {
            let next = if dispatch {
                latch
            } else {
                segments.get(s + 1).map_or(latch, |seg| seg.first)
            };
            // Plain segments skip ahead occasionally — real basic blocks
            // end in conditional branches, and this is what keeps traces
            // from chaining across every segment boundary.
            let skip = if dispatch {
                latch
            } else {
                segments.get(s + 2).map_or(latch, |seg| seg.first)
            };
            let seg = &segments[s];
            match seg.kind {
                SegmentKind::Plain => f.terminate(
                    seg.tail,
                    Terminator::branch(
                        next,
                        skip,
                        BranchBias::varying(self.stay_bias, self.bias_spread),
                    ),
                ),
                SegmentKind::Side => {
                    let side = seg.side.expect("side segments carry a side block");
                    // Hot path continues with stay_bias; the cold side
                    // path rejoins at the next segment.
                    f.terminate(
                        seg.tail,
                        Terminator::branch(
                            next,
                            side,
                            BranchBias::varying(self.stay_bias, self.bias_spread),
                        ),
                    );
                    f.terminate(side, Terminator::jump(next));
                }
                SegmentKind::Dead => {
                    let dead = seg.dead.expect("dead segments carry a dead block");
                    f.terminate(
                        seg.tail,
                        Terminator::branch(dead, next, BranchBias::fixed(0.0)),
                    );
                    f.terminate(dead, Terminator::jump(next));
                }
                SegmentKind::Call => {
                    let callee = seg.callee.expect("call segments carry a callee");
                    f.terminate(seg.tail, Terminator::call(callee, next));
                }
            }
        }

        // Inner loop latch: expected iterations decay across phases.
        let iters = (self.inner_iters * self.phase_decay.powi(phase_index as i32)).max(1.0);
        let p_inner = 1.0 - 1.0 / iters;
        f.terminate(
            latch,
            Terminator::branch(
                inner_head,
                ret,
                BranchBias::varying(p_inner, (self.bias_spread * 0.2).min(1.0 - p_inner)),
            ),
        );
        if self.inline_barrier_phases {
            Self::add_inline_barrier(&mut f, fid, ret);
        } else {
            f.terminate(ret, Terminator::Return);
        }

        f.set_entry(entry);
        f.finish();
    }

    /// Whether helper `index` is a non-inlinable stub. Stubs are spread
    /// evenly across the pool (Bresenham-style) so cycling call sites hit
    /// them in proportion to `noinline_helper_fraction`.
    fn helper_is_stub(&self, index: usize) -> bool {
        let f = self.noinline_helper_fraction;
        (((index + 1) as f64) * f).floor() > ((index as f64) * f).floor()
    }

    fn build_helper(&self, pb: &mut ProgramBuilder, fid: FuncId, index: usize, rng: &mut Rng) {
        let mut f = pb.function_reserved(fid);
        let blocks: Vec<BlockId> = (0..self.helper_blocks.max(1))
            .map(|_| f.block(self.hot_body(rng)))
            .collect();
        for w in blocks.windows(2) {
            f.terminate(w[0], Terminator::jump(w[1]));
        }
        let last = *blocks.last().expect("helpers have blocks");
        if self.helper_is_stub(index) {
            // A system-call stub: statically (but never dynamically)
            // recursive, which makes it ineligible for inlining — the
            // paper: "system calls can not be inline expanded".
            Self::add_inline_barrier(&mut f, fid, last);
        } else {
            f.terminate(last, Terminator::Return);
        }
        f.set_entry(blocks[0]);
        f.finish();
    }

    /// Terminates `last` through a never-taken static-recursion guard,
    /// making the function ineligible for inlining while leaving its
    /// dynamic behavior untouched.
    fn add_inline_barrier(f: &mut impact_ir::FunctionBuilder<'_>, fid: FuncId, last: BlockId) {
        let self_call = f.block(vec![]);
        let ret = f.block(vec![]);
        f.terminate(
            last,
            Terminator::branch(self_call, ret, BranchBias::fixed(0.0)),
        );
        f.terminate(self_call, Terminator::call(fid, ret));
        f.terminate(ret, Terminator::Return);
    }

    fn build_cold(&self, pb: &mut ProgramBuilder, fid: FuncId, rng: &mut Rng) {
        let mut f = pb.function_reserved(fid);
        let blocks: Vec<BlockId> = (0..self.cold_func_blocks.max(1))
            .map(|_| f.block(self.cold_body()))
            .collect();
        for w in blocks.windows(2) {
            f.terminate(w[0], Terminator::jump(w[1]));
        }
        f.terminate(
            *blocks.last().expect("cold funcs have blocks"),
            Terminator::Return,
        );
        f.set_entry(blocks[0]);
        let _ = rng;
        f.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SyntheticSpec {
        SyntheticSpec {
            name: "test",
            structure_seed: 7,
            phases: 2,
            segments_per_phase: 4,
            run_len: 3,
            block_instrs: (2, 5),
            cold_block_instrs: 8,
            stay_bias: 0.85,
            bias_spread: 0.05,
            inner_iters: 10.0,
            outer_iters: 20.0,
            phase_decay: 1.0,
            helpers: 2,
            helper_blocks: 2,
            call_cadence: 2,
            side_cadence: 3,
            dispatch_fanout: 0,
            dead_cadence: 4,
            cold_funcs: 2,
            cold_func_blocks: 3,
            noinline_helper_fraction: 0.0,
            inline_barrier_phases: false,
            eval_seed_offset: 0,
            profile_runs: 4,
            max_dynamic_instrs: 1_000_000,
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = small_spec().build();
        let b = small_spec().build();
        assert_eq!(a.program, b.program);
    }

    #[test]
    fn program_validates_and_has_expected_functions() {
        let w = small_spec().build();
        w.program.validate().unwrap();
        // helpers(2) + phases(2) + cold(2) + main = 7.
        assert_eq!(w.program.function_count(), 7);
        assert!(w.program.function_by_name("main").is_some());
        assert!(w.program.function_by_name("phase_1").is_some());
        assert!(w.program.function_by_name("cold_1").is_some());
    }

    #[test]
    fn entry_is_main() {
        let w = small_spec().build();
        assert_eq!(
            w.program.entry(),
            w.program.function_by_name("main").unwrap()
        );
    }

    #[test]
    fn eval_seed_is_outside_profile_seeds() {
        let w = small_spec().build();
        assert!(w.eval_seed() >= u64::from(w.spec.profile_runs));
    }

    #[test]
    fn syscall_helpers_are_statically_recursive() {
        let mut spec = small_spec();
        spec.noinline_helper_fraction = 1.0;
        let w = spec.build();
        let cg = w.program.call_graph();
        let h = w.program.function_by_name("helper_0").unwrap();
        assert!(cg.is_recursive(h));
    }

    #[test]
    fn plain_helpers_are_not_recursive() {
        let w = small_spec().build();
        let cg = w.program.call_graph();
        let h = w.program.function_by_name("helper_0").unwrap();
        assert!(!cg.is_recursive(h));
    }

    #[test]
    fn different_seeds_differ_structurally() {
        let a = small_spec().build();
        let mut spec = small_spec();
        spec.structure_seed = 8;
        let b = spec.build();
        assert_ne!(a.program, b.program);
    }

    #[test]
    #[should_panic(expected = "phases must be positive")]
    fn degenerate_spec_panics() {
        let mut spec = small_spec();
        spec.phases = 0;
        let _ = spec.build();
    }
}
