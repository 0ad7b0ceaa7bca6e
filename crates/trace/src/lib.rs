//! Dynamic instruction-address trace generation.
//!
//! The paper evaluates its placement by trace-driven simulation: "we
//! randomly select one input for each benchmark to take the traces of
//! dynamic instruction accesses", and "the entire execution traces are
//! applied to the cache simulator".
//!
//! [`TraceGenerator`] re-runs the same seeded interpreter used for
//! profiling (`impact_profile::Walker`) over a *placed* program, emitting
//! the byte address of every instruction fetch. Traces are streamed to a
//! callback — they are never materialized, so multi-million-access
//! simulations run in constant memory.
//!
//! Use an **evaluation seed outside the profiling seed range** to mirror
//! the paper's train/test split;
//! [`Profiler::DEFAULT_EVAL_SEED`](impact_profile::Profiler::DEFAULT_EVAL_SEED)
//! provides the convention used across this repository.
//!
//! # Example
//!
//! ```
//! use impact_ir::{ProgramBuilder, Terminator, BranchBias};
//! use impact_layout::pipeline::{Pipeline, PipelineConfig};
//! use impact_trace::TraceGenerator;
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main");
//! let a = f.block_n(3);
//! let b = f.block_n(1);
//! f.terminate(a, Terminator::branch(a, b, BranchBias::fixed(0.9)));
//! f.terminate(b, Terminator::Exit);
//! let main = f.finish();
//! pb.set_entry(main);
//! let program = pb.finish()?;
//!
//! let result = Pipeline::new(PipelineConfig::default()).run(&program);
//! let gen = TraceGenerator::new(&result.program, &result.placement);
//! let mut accesses = 0u64;
//! let summary = gen.run(impact_profile::Profiler::DEFAULT_EVAL_SEED, |_addr| accesses += 1);
//! assert_eq!(accesses, summary.instructions);
//! # Ok::<(), impact_ir::ValidateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod din;

pub use artifact::RunBuffer;

use impact_cache::{AccessSink, FnSink};
use impact_ir::{BlockId, FuncId, Program, BYTES_PER_INSTR};
use impact_layout::Placement;
use impact_profile::{ExecLimits, ExecSummary, ExecVisitor, Transfer, Walker};

/// Streams the instruction fetch addresses of one program execution.
#[derive(Debug)]
pub struct TraceGenerator<'a> {
    program: &'a Program,
    placement: &'a Placement,
    limits: ExecLimits,
}

/// Visitor coalescing executed blocks into sequential fetch *runs*.
///
/// Consecutive blocks whose placements fall through (the next block's
/// base is exactly the end of the pending run) extend one run; a taken
/// transfer to anywhere else flushes it. The sink therefore receives one
/// `access_run` per straight-line stretch of the dynamic execution —
/// orders of magnitude fewer calls than per-word emission, with an
/// identical address stream.
struct RunEmitter<'a, S> {
    placement: &'a Placement,
    program: &'a Program,
    sink: &'a mut S,
    /// Base address of the pending run (meaningful when `run_words > 0`).
    run_start: u64,
    /// Pending run length in instructions.
    run_words: u64,
}

impl<S: AccessSink> RunEmitter<'_, S> {
    fn flush(&mut self) {
        if self.run_words > 0 {
            self.sink.access_run(self.run_start, self.run_words);
            self.run_words = 0;
        }
    }
}

impl<S: AccessSink> ExecVisitor for RunEmitter<'_, S> {
    // Called once per dynamic block: keep it inside the walk's loop,
    // where the compiler's size heuristics alone do not always put it.
    #[inline]
    fn block(&mut self, func: FuncId, block: BlockId) {
        let base = self.placement.addr(func, block);
        let instrs = self.program.function(func).block(block).instr_count();
        if instrs == 0 {
            return; // empty blocks fetch nothing and break no runs
        }
        if self.run_words > 0 && base == self.run_start + self.run_words * BYTES_PER_INSTR {
            self.run_words += instrs; // fall-through: extend the run
        } else {
            self.flush();
            self.run_start = base;
            self.run_words = instrs;
        }
    }

    fn transfer(&mut self, _t: Transfer) {}
}

impl<'a> TraceGenerator<'a> {
    /// Creates a generator over `program` laid out by `placement`, with
    /// default execution limits.
    #[must_use]
    pub fn new(program: &'a Program, placement: &'a Placement) -> Self {
        Self {
            program,
            placement,
            limits: ExecLimits::default(),
        }
    }

    /// Replaces the execution limits.
    #[must_use]
    pub fn with_limits(mut self, limits: ExecLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Runs one execution under `input_seed`, streaming every fetch
    /// address to `emit`. Returns the walk summary; the number of
    /// addresses emitted equals `summary.instructions`.
    ///
    /// Convenience wrapper over [`TraceGenerator::stream`] for callers
    /// that want per-word callbacks; simulation sinks should implement
    /// [`AccessSink`] and use `stream` to receive batched runs.
    pub fn run<F: FnMut(u64)>(&self, input_seed: u64, emit: F) -> ExecSummary {
        self.stream(input_seed, &mut FnSink(emit))
    }

    /// Runs one execution under `input_seed`, streaming the fetch stream
    /// to `sink` as sequential *runs*: one [`AccessSink::access_run`] per
    /// straight-line stretch (split only at taken transfers), covering
    /// exactly `summary.instructions` words in execution order.
    pub fn stream<S: AccessSink>(&self, input_seed: u64, sink: &mut S) -> ExecSummary {
        let mut visitor = RunEmitter {
            placement: self.placement,
            program: self.program,
            sink,
            run_start: 0,
            run_words: 0,
        };
        let summary = Walker::new(self.program)
            .with_limits(self.limits)
            .run(input_seed, &mut visitor);
        visitor.flush();
        summary
    }

    /// Convenience: materializes the whole trace (tests and small runs
    /// only — prefer [`TraceGenerator::run`] for real simulations).
    #[must_use]
    pub fn collect(&self, input_seed: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.run(input_seed, |a| out.push(a));
        out
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, ProgramBuilder, Terminator};
    use impact_layout::baseline;
    use impact_layout::pipeline::{Pipeline, PipelineConfig};
    use impact_profile::Profiler;

    use super::*;

    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let helper = pb.reserve("helper");
        let mut main = pb.function("main");
        let m0 = main.block_n(2);
        let m1 = main.block_n(1);
        let m2 = main.block_n(0);
        main.terminate(m0, Terminator::call(helper, m1));
        main.terminate(m1, Terminator::branch(m0, m2, BranchBias::fixed(0.7)));
        main.terminate(m2, Terminator::Exit);
        let mid = main.finish();
        let mut h = pb.function_reserved(helper);
        let h0 = h.block_n(3);
        h.terminate(h0, Terminator::Return);
        h.finish();
        pb.set_entry(mid);
        pb.finish().unwrap()
    }

    #[test]
    fn emits_one_address_per_instruction() {
        let p = program();
        let placement = baseline::natural(&p);
        let gen = TraceGenerator::new(&p, &placement);
        let trace = gen.collect(7);
        let mut count = 0u64;
        let summary = gen.run(7, |_| count += 1);
        assert_eq!(trace.len() as u64, summary.instructions);
        assert_eq!(count, summary.instructions);
    }

    #[test]
    fn addresses_are_word_aligned_and_in_bounds() {
        let p = program();
        let placement = baseline::natural(&p);
        let gen = TraceGenerator::new(&p, &placement);
        for addr in gen.collect(3) {
            assert_eq!(addr % BYTES_PER_INSTR, 0);
            assert!(addr < placement.total_bytes());
        }
    }

    #[test]
    fn block_bodies_fetch_sequentially() {
        let p = program();
        let placement = baseline::natural(&p);
        let gen = TraceGenerator::new(&p, &placement);
        let trace = gen.collect(3);
        // main (fn id 1 — helper reserved first) entry block: 3 instrs.
        let main = p.entry();
        let entry_addr = placement.addr(main, BlockId::new(0));
        let pos = trace.iter().position(|&a| a == entry_addr).unwrap();
        assert_eq!(trace[pos + 1], entry_addr + 4);
        assert_eq!(trace[pos + 2], entry_addr + 8);
    }

    #[test]
    fn same_seed_same_trace_different_layouts_same_length() {
        let p = program();
        let natural = baseline::natural(&p);
        let random = baseline::random(&p, 5);
        let t1 = TraceGenerator::new(&p, &natural).collect(11);
        let t2 = TraceGenerator::new(&p, &random).collect(11);
        // The execution path is layout-independent; only addresses change.
        assert_eq!(t1.len(), t2.len());
        assert_ne!(t1, t2, "different placements must move addresses");
    }

    #[test]
    fn deterministic_per_seed() {
        let p = program();
        let placement = baseline::natural(&p);
        let gen = TraceGenerator::new(&p, &placement);
        assert_eq!(gen.collect(9), gen.collect(9));
        assert_ne!(gen.collect(9), gen.collect(10));
    }

    #[test]
    fn pipeline_placement_traces_cover_effective_region_first() {
        let p = program();
        let r = Pipeline::new(PipelineConfig {
            inline: None,
            ..PipelineConfig::default()
        })
        .run(&p);
        let gen = TraceGenerator::new(&r.program, &r.placement);
        let trace = gen.collect(Profiler::DEFAULT_EVAL_SEED);
        // Every fetched address lies in the effective region: this
        // program has no dead blocks only if all blocks executed; filter
        // instead on the guarantee that fetched addresses < total.
        assert!(trace.iter().all(|&a| a < r.placement.total_bytes()));
    }

    #[test]
    fn stream_runs_reconstruct_the_word_trace() {
        // One run per straight-line stretch: expanding the runs word by
        // word must yield exactly the per-word trace, and every run must
        // be non-trivial (non-zero length, aligned start).
        let p = program();
        for placement in [baseline::natural(&p), baseline::random(&p, 5)] {
            let gen = TraceGenerator::new(&p, &placement);
            for seed in [1, 7, Profiler::DEFAULT_EVAL_SEED] {
                struct Runs(Vec<(u64, u64)>);
                impl impact_cache::AccessSink for Runs {
                    fn access_run(&mut self, addr: u64, words: u64) {
                        self.0.push((addr, words));
                    }
                }
                let mut runs = Runs(Vec::new());
                let summary = gen.stream(seed, &mut runs);
                let expanded: Vec<u64> = runs
                    .0
                    .iter()
                    .flat_map(|&(a, n)| (0..n).map(move |i| a + i * BYTES_PER_INSTR))
                    .collect();
                assert_eq!(expanded, gen.collect(seed));
                assert_eq!(expanded.len() as u64, summary.instructions);
                assert!(runs
                    .0
                    .iter()
                    .all(|&(a, n)| n > 0 && a % BYTES_PER_INSTR == 0));
                // Runs are maximal: consecutive runs never abut.
                for w in runs.0.windows(2) {
                    assert_ne!(w[1].0, w[0].0 + w[0].1 * BYTES_PER_INSTR);
                }
            }
        }
    }

    #[test]
    fn taken_transfer_to_the_fall_through_address_extends_the_run() {
        // A *taken* branch whose target happens to be placed at the
        // exact fall-through address must not split the run: coalescing
        // is address-based, not transfer-kind-based. (Artifact
        // compactness depends on this — a split here would double the
        // run count of loop-free code laid out in trace order.)
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let a = f.block_n(2);
        let b = f.block_n(1);
        let c = f.block_n(3);
        // `a` always *takes* its branch to `b`; natural placement puts
        // `b` directly after `a`, so the taken target is the
        // fall-through address.
        f.terminate(a, Terminator::branch(b, c, BranchBias::fixed(1.0)));
        f.terminate(b, Terminator::Jump { target: c });
        f.terminate(c, Terminator::Exit);
        let id = f.finish();
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let placement = baseline::natural(&p);
        let main = p.entry();
        let a_words = p.function(main).block(BlockId::new(0)).instr_count();
        assert_eq!(
            placement.addr(main, BlockId::new(1)),
            placement.addr(main, BlockId::new(0)) + a_words * BYTES_PER_INSTR,
            "test needs b placed at a's fall-through"
        );
        struct Runs(Vec<(u64, u64)>);
        impl impact_cache::AccessSink for Runs {
            fn access_run(&mut self, addr: u64, words: u64) {
                self.0.push((addr, words));
            }
        }
        let mut runs = Runs(Vec::new());
        let summary = TraceGenerator::new(&p, &placement).stream(1, &mut runs);
        // a, b, c are contiguous in both placement and execution order:
        // exactly one maximal run covering the whole execution.
        assert_eq!(
            runs.0,
            vec![(placement.addr(main, BlockId::new(0)), summary.instructions)]
        );
    }

    #[test]
    fn limits_truncate_traces() {
        let p = program();
        let placement = baseline::natural(&p);
        let gen = TraceGenerator::new(&p, &placement).with_limits(ExecLimits {
            max_instructions: 10,
            max_call_depth: 8,
        });
        let trace = gen.collect(1);
        assert!(trace.len() >= 10 && trace.len() < 20);
    }
}
