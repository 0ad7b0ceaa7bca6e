//! Run-buffer trace artifacts: capture a dynamic fetch trace once,
//! replay it at memcpy speed forever.
//!
//! The CFG interpreter ([`crate::TraceGenerator`]) produces an identical
//! address stream every time it walks the same `(program, placement,
//! seed, limits)` key — re-walking it for every additional cache
//! configuration is pure waste once the run-batched representation
//! exists. A [`RunBuffer`] is that representation made storable: the
//! exact sequence of [`AccessSink::access_run`] calls a stream produced,
//! as a flat `Vec<(start, words)>` (16 bytes per straight-line stretch,
//! typically 10–15 dynamic instructions each).
//!
//! **Replay is equivalence-by-construction**: [`RunBuffer::replay`]
//! delivers the recorded runs in recorded order, so any sink observes
//! the *same call sequence* it would have observed riding the original
//! stream — not merely the same address stream. No coalescing, splitting
//! or normalization happens on either side of the buffer.
//!
//! The evaluation session does not store buffers: replaying one from
//! disk measured slower than walking the trace again, so a session walks
//! every trace it cannot disk-serve. Buffers remain for benchmarking the
//! replay path and for perfbench's traced passes.

use impact_cache::AccessSink;
use impact_profile::ExecSummary;

use crate::TraceGenerator;

/// A captured evaluation trace in run-batched form.
///
/// Feed it with any run producer (it implements [`AccessSink`] and
/// records exactly the calls it receives), then [`RunBuffer::replay`]
/// into simulation sinks as many times as needed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunBuffer {
    /// `(start address, words)` per recorded run, in stream order.
    runs: Vec<(u64, u64)>,
    /// Total words (= instructions) across all runs.
    instructions: u64,
}

impl RunBuffer {
    /// Walks `gen` once under `input_seed`, recording the full run
    /// stream. Returns the buffer and the walk summary; the buffer
    /// covers exactly `summary.instructions` words.
    #[must_use]
    pub fn capture(gen: &TraceGenerator<'_>, input_seed: u64) -> (Self, ExecSummary) {
        let mut buf = Self::default();
        let summary = gen.stream(input_seed, &mut buf);
        (buf, summary)
    }

    /// Delivers the recorded run sequence to `sink`, exactly as
    /// recorded: same runs, same order, same boundaries.
    pub fn replay<S: AccessSink + ?Sized>(&self, sink: &mut S) {
        for &(addr, words) in &self.runs {
            sink.access_run(addr, words);
        }
    }

    /// The recorded runs, in stream order.
    #[must_use]
    pub fn runs(&self) -> &[(u64, u64)] {
        &self.runs
    }

    /// Total instructions (words) the buffer covers.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Heap bytes held by the recorded runs.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<(u64, u64)>()
    }
}

impl AccessSink for RunBuffer {
    fn access_run(&mut self, addr: u64, words: u64) {
        debug_assert!(words > 0, "zero-length runs must never be emitted");
        self.runs.push((addr, words));
        self.instructions += words;
    }
}

#[cfg(test)]
mod tests {
    use impact_layout::baseline;

    use super::*;

    fn program() -> impact_ir::Program {
        use impact_ir::{BranchBias, ProgramBuilder, Terminator};
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let a = f.block_n(3);
        let b = f.block_n(2);
        let c = f.block_n(1);
        f.terminate(a, Terminator::branch(a, b, BranchBias::fixed(0.7)));
        f.terminate(b, Terminator::branch(a, c, BranchBias::fixed(0.4)));
        f.terminate(c, Terminator::Exit);
        let id = f.finish();
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    #[test]
    fn capture_covers_the_exact_word_trace() {
        let p = program();
        let placement = baseline::natural(&p);
        let gen = TraceGenerator::new(&p, &placement);
        let (buf, summary) = RunBuffer::capture(&gen, 11);
        assert_eq!(buf.instructions(), summary.instructions);
        let expanded: Vec<u64> = buf
            .runs()
            .iter()
            .flat_map(|&(a, n)| (0..n).map(move |i| a + i * impact_cache::WORD_BYTES))
            .collect();
        assert_eq!(expanded, gen.collect(11));
    }

    #[test]
    fn replay_reproduces_the_recorded_call_sequence() {
        struct Runs(Vec<(u64, u64)>);
        impl AccessSink for Runs {
            fn access_run(&mut self, addr: u64, words: u64) {
                self.0.push((addr, words));
            }
        }
        let p = program();
        let placement = baseline::natural(&p);
        let gen = TraceGenerator::new(&p, &placement);
        let (buf, _) = RunBuffer::capture(&gen, 3);
        let mut sink = Runs(Vec::new());
        buf.replay(&mut sink);
        assert_eq!(sink.0, buf.runs());
        assert!(!buf.runs().is_empty());
    }

    #[test]
    fn single_word_accesses_become_one_word_runs() {
        let mut buf = RunBuffer::default();
        buf.access(8);
        buf.access_run(16, 4);
        assert_eq!(buf.runs(), &[(8, 1), (16, 4)]);
        assert_eq!(buf.instructions(), 5);
        assert!(buf.bytes() >= 2 * std::mem::size_of::<(u64, u64)>());
    }
}
