//! Dinero ("din") trace-format interoperability.
//!
//! The din format is the lingua franca of the trace-driven-simulation
//! era (Dinero III/IV, the simulators behind Smith's studies): one access
//! per line, `<label> <hex address>`, where label `0` is a data read,
//! `1` a data write, and `2` an instruction fetch.
//!
//! [`write_din`] exports this crate's instruction traces so external
//! simulators can consume them; [`read_din_runs`] streams instruction
//! fetches from a din trace into any access sink, so externally captured
//! traces can drive `impact-cache`.

use std::io::{self, BufRead, Write};

/// Access labels of the din format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DinLabel {
    /// Data read (`0`).
    Read,
    /// Data write (`1`).
    Write,
    /// Instruction fetch (`2`).
    Fetch,
}

/// Writes one access in din format.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_record<W: Write>(out: &mut W, label: DinLabel, addr: u64) -> io::Result<()> {
    let l = match label {
        DinLabel::Read => 0,
        DinLabel::Write => 1,
        DinLabel::Fetch => 2,
    };
    writeln!(out, "{l} {addr:x}")
}

/// Streams the instruction-fetch trace of one execution into `out` in din
/// format. Returns the number of records written.
///
/// # Errors
///
/// Propagates I/O errors. (The walk itself cannot fail.)
pub fn write_din<W: Write>(
    gen: &crate::TraceGenerator<'_>,
    input_seed: u64,
    out: &mut W,
) -> io::Result<u64> {
    let mut err: Option<io::Error> = None;
    let mut written = 0u64;
    gen.run(input_seed, |addr| {
        if err.is_none() {
            match write_record(out, DinLabel::Fetch, addr) {
                Ok(()) => written += 1,
                Err(e) => err = Some(e),
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(written),
    }
}

/// A malformed din line.
#[derive(Debug)]
pub struct DinParseError {
    /// 1-based line number.
    pub line: usize,
    /// The offending text.
    pub text: String,
}

impl std::fmt::Display for DinParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "din line {}: malformed record {:?}",
            self.line, self.text
        )
    }
}

impl std::error::Error for DinParseError {}

/// Errors from [`read_din_runs`].
#[derive(Debug)]
pub enum DinReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A line did not parse.
    Parse(DinParseError),
}

impl std::fmt::Display for DinReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DinReadError::Io(e) => write!(f, "din read: {e}"),
            DinReadError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DinReadError {}

/// Streams every *instruction fetch* (label 2) of a din trace into
/// `sink`, coalescing word-sequential fetches into maximal runs — one
/// [`AccessSink::access_run`](impact_cache::AccessSink::access_run) per
/// sequential stretch. Data references are skipped and do **not** split
/// runs: the instruction-fetch sinks this crate feeds never observe
/// data records, so coalescing depends only on the fetch-address
/// sequence, and a load between two back-to-back fetches (ubiquitous in
/// real din traces) costs nothing in run compactness. Returns the
/// number of fetches delivered.
///
/// Lines are read into one reused buffer, so arbitrarily long traces
/// stream without per-line allocation.
///
/// # Errors
///
/// Returns [`DinReadError`] on I/O failure or a malformed record; any
/// run pending at the error point is flushed to `sink` first, so
/// delivered fetches are exactly the well-formed prefix.
pub fn read_din_runs<R: BufRead, S: impact_cache::AccessSink>(
    mut reader: R,
    sink: &mut S,
) -> Result<u64, DinReadError> {
    let mut fetches = 0u64;
    let mut run_start = 0u64;
    let mut run_words = 0u64;
    let mut line = String::new();
    let mut idx = 0usize;
    loop {
        line.clear();
        let eof = match reader.read_line(&mut line) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) => {
                flush_run(sink, run_start, run_words);
                return Err(DinReadError::Io(e));
            }
        };
        if eof {
            flush_run(sink, run_start, run_words);
            return Ok(fetches);
        }
        idx += 1;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let Some((label, addr)) = parse_record(text) else {
            flush_run(sink, run_start, run_words);
            return Err(DinReadError::Parse(DinParseError {
                line: idx,
                text: text.to_owned(),
            }));
        };
        if label == 2 {
            fetches += 1;
            if run_words > 0 && addr == run_start + run_words * impact_cache::WORD_BYTES {
                run_words += 1;
                continue;
            }
            flush_run(sink, run_start, run_words);
            run_start = addr;
            run_words = 1;
        }
        // Non-fetch records are skipped entirely — they must not break a
        // fetch run (the sink never sees them, so an intervening load
        // between sequential fetches leaves the fetch stream sequential).
    }
}

/// Parses one non-blank din record; `None` if malformed.
fn parse_record(text: &str) -> Option<(u8, u64)> {
    let mut parts = text.split_whitespace();
    let label: u8 = parts.next()?.parse().ok()?;
    let addr = u64::from_str_radix(parts.next()?.trim_start_matches("0x"), 16).ok()?;
    if label > 2 || parts.next().is_some() {
        return None;
    }
    Some((label, addr))
}

fn flush_run<S: impact_cache::AccessSink>(sink: &mut S, start: u64, words: u64) {
    if words > 0 {
        sink.access_run(start, words);
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{Instr, ProgramBuilder, Terminator};
    use impact_layout::baseline;

    use crate::TraceGenerator;

    use super::*;

    fn tiny_program() -> impact_ir::Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let b = f.block(vec![Instr::IntAlu; 3]);
        f.terminate(b, Terminator::Exit);
        let id = f.finish();
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    /// [`read_din_runs`] into a per-address callback.
    fn read_addrs(reader: &[u8], sink: impl FnMut(u64)) -> Result<u64, DinReadError> {
        read_din_runs(reader, &mut impact_cache::FnSink(sink))
    }

    #[test]
    fn written_traces_read_back_identically() {
        let p = tiny_program();
        let placement = baseline::natural(&p);
        let gen = TraceGenerator::new(&p, &placement);
        let direct = gen.collect(7);

        let mut buf = Vec::new();
        let written = write_din(&gen, 7, &mut buf).unwrap();
        assert_eq!(written, direct.len() as u64);

        let mut read_back = Vec::new();
        let fetches = read_addrs(buf.as_slice(), |a| read_back.push(a)).unwrap();
        assert_eq!(fetches, written);
        assert_eq!(read_back, direct);
    }

    #[test]
    fn data_references_are_skipped() {
        let din = "0 1000\n1 1004\n2 0\n2 4\n";
        let mut addrs = Vec::new();
        let n = read_addrs(din.as_bytes(), |a| addrs.push(a)).unwrap();
        assert_eq!(n, 2);
        assert_eq!(addrs, vec![0, 4]);
    }

    #[test]
    fn comments_blanks_and_0x_prefixes_are_tolerated() {
        let din = "# header\n\n2 0x10\n";
        let mut addrs = Vec::new();
        read_addrs(din.as_bytes(), |a| addrs.push(a)).unwrap();
        assert_eq!(addrs, vec![0x10]);
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let din = "2 10\nbogus line\n";
        let err = read_addrs(din.as_bytes(), |_| {}).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");

        let din = "3 10\n"; // label out of range
        assert!(read_addrs(din.as_bytes(), |_| {}).is_err());
        let din = "2 10 extra\n"; // trailing junk
        assert!(read_addrs(din.as_bytes(), |_| {}).is_err());
    }

    #[test]
    fn read_din_runs_coalesces_sequential_fetches() {
        struct Runs(Vec<(u64, u64)>);
        impl impact_cache::AccessSink for Runs {
            fn access_run(&mut self, addr: u64, words: u64) {
                self.0.push((addr, words));
            }
        }
        // Three sequential fetches, a jump, then a sequential pair with
        // an intervening data reference: the data record is invisible to
        // instruction sinks, so it must not break the run.
        let din = "2 0\n2 4\n2 8\n2 100\n2 104\n0 beef\n2 108\n";
        let mut runs = Runs(Vec::new());
        let n = read_din_runs(din.as_bytes(), &mut runs).unwrap();
        assert_eq!(n, 6);
        assert_eq!(runs.0, vec![(0, 3), (0x100, 3)]);
    }

    #[test]
    fn read_din_runs_never_emits_zero_length_runs() {
        struct Runs(Vec<(u64, u64)>);
        impl impact_cache::AccessSink for Runs {
            fn access_run(&mut self, addr: u64, words: u64) {
                assert!(words > 0, "zero-length run at {addr:#x}");
                self.0.push((addr, words));
            }
        }
        // Empty stretches everywhere a flush could fire: leading data
        // records, data-only bodies, trailing data records, and EOF with
        // nothing pending.
        for din in ["", "0 10\n1 14\n", "0 10\n2 0\n0 14\n1 18\n", "# only\n\n"] {
            let mut runs = Runs(Vec::new());
            read_din_runs(din.as_bytes(), &mut runs).unwrap();
            let fetches: u64 = runs.0.iter().map(|&(_, n)| n).sum();
            assert_eq!(
                fetches,
                din.lines().filter(|l| l.starts_with('2')).count() as u64
            );
        }
        // ... and ahead of a parse error with an empty pending run.
        let mut runs = Runs(Vec::new());
        assert!(read_din_runs("0 10\nbogus\n".as_bytes(), &mut runs).is_err());
        assert!(runs.0.is_empty());
    }

    #[test]
    fn read_din_runs_split_invariance_under_data_interleaving() {
        // The same fetch sequence, bare vs. interleaved with data
        // records after every fetch, must produce identical runs.
        let fetches = [0u64, 4, 8, 0x40, 0x44, 0x48, 0x4c, 8, 0xc];
        let bare: String = fetches.iter().map(|a| format!("2 {a:x}\n")).collect();
        let interleaved: String = fetches
            .iter()
            .map(|a| format!("2 {a:x}\n0 {:x}\n1 {:x}\n", a + 0x1000, a + 0x2000))
            .collect();
        struct Runs(Vec<(u64, u64)>);
        impl impact_cache::AccessSink for Runs {
            fn access_run(&mut self, addr: u64, words: u64) {
                self.0.push((addr, words));
            }
        }
        let mut a = Runs(Vec::new());
        let mut b = Runs(Vec::new());
        read_din_runs(bare.as_bytes(), &mut a).unwrap();
        read_din_runs(interleaved.as_bytes(), &mut b).unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.0, vec![(0, 3), (0x40, 4), (8, 2)]);
    }

    #[test]
    fn read_din_runs_flushes_prefix_before_error() {
        struct Count(u64);
        impl impact_cache::AccessSink for Count {
            fn access_run(&mut self, _addr: u64, words: u64) {
                self.0 += words;
            }
        }
        let din = "2 0\n2 4\nbogus\n2 8\n";
        let mut sink = Count(0);
        let err = read_din_runs(din.as_bytes(), &mut sink).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        assert_eq!(sink.0, 2, "well-formed prefix must be delivered");
    }

    #[test]
    fn record_format_matches_dinero() {
        let mut buf = Vec::new();
        write_record(&mut buf, DinLabel::Fetch, 0x1a4).unwrap();
        write_record(&mut buf, DinLabel::Read, 16).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "2 1a4\n0 10\n");
    }
}
