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
//! Capture either standalone ([`RunBuffer::capture`]) or as a tee on a
//! live stream ([`CaptureSink`]) so the first simulation pass and the
//! recording share one interpreter walk.

use impact_cache::{AccessSink, WORD_BYTES};
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
    /// An empty buffer, ready to record.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Walks `gen` once under `input_seed`, recording the full run
    /// stream. Returns the buffer and the walk summary; the buffer
    /// covers exactly `summary.instructions` words.
    #[must_use]
    pub fn capture(gen: &TraceGenerator<'_>, input_seed: u64) -> (Self, ExecSummary) {
        let mut buf = Self::new();
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

    /// Number of recorded runs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
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

/// Tee: forwards a live stream to `inner` while recording it into a
/// [`RunBuffer`], so capture costs no second interpreter walk.
///
/// ```
/// use impact_cache::{AccessSink, Cache, CacheConfig};
/// use impact_trace::{CaptureSink, RunBuffer};
///
/// let mut cache = Cache::new(CacheConfig::direct_mapped(2048, 64));
/// let mut buf = RunBuffer::new();
/// let mut tee = CaptureSink::new(&mut buf, &mut cache);
/// tee.access_run(0, 16); // ... the live stream drives the tee ...
/// assert_eq!(buf.runs(), &[(0, 16)]);
/// ```
#[derive(Debug)]
pub struct CaptureSink<'a, S> {
    buf: &'a mut RunBuffer,
    inner: &'a mut S,
}

impl<'a, S: AccessSink> CaptureSink<'a, S> {
    /// Wraps `inner`, recording everything it observes into `buf`.
    pub fn new(buf: &'a mut RunBuffer, inner: &'a mut S) -> Self {
        Self { buf, inner }
    }
}

impl<S: AccessSink> AccessSink for CaptureSink<'_, S> {
    fn access_run(&mut self, addr: u64, words: u64) {
        self.buf.access_run(addr, words);
        self.inner.access_run(addr, words);
    }
}

/// Expands the buffer back to a per-word address iterator (tests and
/// word-granular consumers; simulation should [`RunBuffer::replay`]).
pub fn words(buf: &RunBuffer) -> impl Iterator<Item = u64> + '_ {
    buf.runs()
        .iter()
        .flat_map(|&(a, n)| (0..n).map(move |i| a + i * WORD_BYTES))
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
        let expanded: Vec<u64> = words(&buf).collect();
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
        assert!(!buf.is_empty());
        assert_eq!(buf.len(), buf.runs().len());
    }

    #[test]
    fn tee_records_while_forwarding() {
        let p = program();
        let placement = baseline::natural(&p);
        let gen = TraceGenerator::new(&p, &placement);

        // Drive a cache through the tee; the buffer must equal a
        // standalone capture and the cache must equal a direct stream.
        let cfg = impact_cache::CacheConfig::direct_mapped(512, 32);
        let mut teed = impact_cache::Cache::new(cfg);
        let mut buf = RunBuffer::new();
        gen.stream(9, &mut CaptureSink::new(&mut buf, &mut teed));

        let (standalone, _) = RunBuffer::capture(&gen, 9);
        assert_eq!(buf, standalone);

        let mut direct = impact_cache::Cache::new(cfg);
        gen.stream(9, &mut direct);
        assert_eq!(teed.take_stats(), direct.take_stats());
        assert_eq!(teed.state_fingerprint(), direct.state_fingerprint());
    }

    #[test]
    fn single_word_accesses_become_one_word_runs() {
        let mut buf = RunBuffer::new();
        buf.access(8);
        buf.access_run(16, 4);
        assert_eq!(buf.runs(), &[(8, 1), (16, 4)]);
        assert_eq!(buf.instructions(), 5);
        assert!(buf.bytes() >= 2 * std::mem::size_of::<(u64, u64)>());
    }
}
