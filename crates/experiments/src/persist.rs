//! Trace keys and payload codecs for the evaluation session and its
//! on-disk store.
//!
//! Every key is a SHA-256 [`Cid`] over [`impact_store::KeyWriter`]'s
//! canonical encoding, so it is stable across processes and machines:
//!
//! * [`trace_key`] — the one identity of an evaluation trace, covering
//!   everything the trace depends on (program shape with terminators and
//!   branch biases, placement addresses, seed, limits). The session
//!   interns keys by it in memory, and the store names files by it on
//!   disk.
//! * [`artifact_cid`] / [`result_cid`] — derive the store keys for a
//!   trace's captured [`RunBuffer`] and for one cache configuration's
//!   finished statistics over it.
//!
//! Payloads are little-endian `u64` sequences behind a one-byte kind tag
//! ([`impact_store::kind`]); decoders validate the tag, the length, and
//! the artifact's instruction sum, so a frame that passes the store's
//! checksum but was written by a different (future) layout still decodes
//! to `None` instead of garbage.

use impact_cache::{AccessSink, Associativity, CacheConfig, CacheStats, FillPolicy};
use impact_ir::{Program, Terminator};
use impact_layout::Placement;
use impact_profile::ExecLimits;
use impact_store::{kind, Cid, KeyWriter};
use impact_trace::RunBuffer;

/// Stable 256-bit identity of one evaluation trace: equal keys name the
/// same trace.
#[must_use]
pub fn trace_key(program: &Program, placement: &Placement, seed: u64, limits: ExecLimits) -> Cid {
    let mut w = KeyWriter::new("impact.trace.v1");
    w.u64(program.function_count() as u64);
    w.u64(program.entry().index() as u64);
    for (fid, func) in program.functions() {
        w.str(func.name());
        w.u64(func.entry().index() as u64);
        w.u64(func.block_count() as u64);
        for (bid, block) in func.blocks() {
            w.u64(block.instr_count());
            write_terminator(&mut w, block.terminator());
            w.opt_u64(placement.try_addr(fid, bid));
        }
    }
    w.u64(placement.effective_bytes());
    w.u64(placement.total_bytes());
    w.u64(seed);
    w.u64(limits.max_instructions);
    w.u64(limits.max_call_depth as u64);
    w.finish()
}

fn write_terminator(w: &mut KeyWriter, t: &Terminator) {
    match t {
        Terminator::Jump { target } => {
            w.u8(0);
            w.u64(target.index() as u64);
        }
        Terminator::Branch {
            taken,
            not_taken,
            bias,
        } => {
            w.u8(1);
            w.u64(taken.index() as u64);
            w.u64(not_taken.index() as u64);
            w.u64(bias.base.to_bits());
            w.u64(bias.input_spread.to_bits());
        }
        Terminator::Switch { targets } => {
            w.u8(2);
            w.u64(targets.len() as u64);
            for (b, weight) in targets {
                w.u64(b.index() as u64);
                w.u64(u64::from(*weight));
            }
        }
        Terminator::Call { callee, ret_to } => {
            w.u8(3);
            w.u64(callee.index() as u64);
            w.u64(ret_to.index() as u64);
        }
        Terminator::Return => w.u8(4),
        Terminator::Exit => w.u8(5),
    }
}

/// Store key of a trace's captured [`RunBuffer`] artifact.
#[must_use]
pub fn artifact_cid(trace: &Cid) -> Cid {
    let mut w = KeyWriter::new("impact.artifact.v1");
    w.bytes(&trace.0);
    w.finish()
}

/// Store key of one cache configuration's finished statistics over a
/// trace.
#[must_use]
pub fn result_cid(trace: &Cid, config: &CacheConfig) -> Cid {
    let mut w = KeyWriter::new("impact.result.v1");
    w.bytes(&trace.0);
    w.u64(config.size_bytes);
    w.u64(config.block_bytes);
    match config.associativity {
        Associativity::Direct => w.u8(0),
        Associativity::Ways(n) => {
            w.u8(1);
            w.u32(n);
        }
        Associativity::Full => w.u8(2),
    }
    match config.fill {
        FillPolicy::FullBlock => w.u8(0),
        FillPolicy::Sectored { sector_bytes } => {
            w.u8(1);
            w.u64(sector_bytes);
        }
        FillPolicy::Partial => w.u8(2),
    }
    // The replacement tag: every cache is LRU, tag 0. Writing it keeps
    // every key already in a store valid.
    w.u8(0);
    w.finish()
}

/// Serializes a captured run buffer: kind tag, instruction total, run
/// count, then the `(start, words)` pairs.
#[must_use]
pub fn encode_artifact(buf: &RunBuffer) -> Vec<u8> {
    let runs = buf.runs();
    let mut out = Vec::with_capacity(1 + 16 + runs.len() * 16);
    out.push(kind::ARTIFACT);
    out.extend_from_slice(&buf.instructions().to_le_bytes());
    out.extend_from_slice(&(runs.len() as u64).to_le_bytes());
    for (start, words) in runs {
        out.extend_from_slice(&start.to_le_bytes());
        out.extend_from_slice(&words.to_le_bytes());
    }
    out
}

/// Reconstructs a run buffer, or `None` on any layout mismatch
/// (wrong kind, short payload, trailing bytes, zero-length run, or an
/// instruction total that disagrees with the runs).
#[must_use]
pub fn decode_artifact(payload: &[u8]) -> Option<RunBuffer> {
    let mut r = Reader::new(payload, kind::ARTIFACT)?;
    let instructions = r.u64()?;
    let count = r.u64()?;
    let mut buf = RunBuffer::new();
    for _ in 0..count {
        let start = r.u64()?;
        let words = r.u64()?;
        if words == 0 {
            return None;
        }
        buf.access_run(start, words);
    }
    if !r.done() || buf.instructions() != instructions {
        return None;
    }
    Some(buf)
}

/// Serializes one finished per-config result: kind tag, the five
/// [`CacheStats`] counters, then the trace length.
#[must_use]
pub fn encode_result(stats: &CacheStats, instructions: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 48);
    out.push(kind::RESULT);
    for v in [
        stats.accesses,
        stats.misses,
        stats.words_fetched,
        stats.exec_runs,
        stats.exec_run_instrs,
        instructions,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes one finished per-config result, or `None` on any layout
/// mismatch.
#[must_use]
pub fn decode_result(payload: &[u8]) -> Option<(CacheStats, u64)> {
    let mut r = Reader::new(payload, kind::RESULT)?;
    let stats = CacheStats {
        accesses: r.u64()?,
        misses: r.u64()?,
        words_fetched: r.u64()?,
        exec_runs: r.u64()?,
        exec_run_instrs: r.u64()?,
    };
    let instructions = r.u64()?;
    if !r.done() {
        return None;
    }
    Some((stats, instructions))
}

/// Cursor over a kind-tagged little-endian payload.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(payload: &'a [u8], kind: u8) -> Option<Self> {
        let (&tag, rest) = payload.split_first()?;
        (tag == kind).then_some(Reader { rest })
    }

    fn u64(&mut self) -> Option<u64> {
        if self.rest.len() < 8 {
            return None;
        }
        let (head, rest) = self.rest.split_at(8);
        self.rest = rest;
        Some(u64::from_le_bytes(head.try_into().expect("8-byte split")))
    }

    fn done(&self) -> bool {
        self.rest.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_layout::baseline;

    const LIMITS: ExecLimits = ExecLimits::capped(40_000);

    #[test]
    fn trace_keys_separate_distinct_traces() {
        let w = impact_workloads::by_name("wc").unwrap();
        let natural = baseline::natural(&w.program);
        let shuffled = baseline::random(&w.program, 0xfeed);
        let base = trace_key(&w.program, &natural, 1, LIMITS);
        assert_eq!(base, trace_key(&w.program, &natural, 1, LIMITS));
        assert_ne!(base, trace_key(&w.program, &shuffled, 1, LIMITS));
        assert_ne!(base, trace_key(&w.program, &natural, 2, LIMITS));
        let tighter = ExecLimits {
            max_instructions: 39_999,
            ..LIMITS
        };
        assert_ne!(base, trace_key(&w.program, &natural, 1, tighter));
        let scaled = impact_layout::scale::scale_code(&w.program, 0.5);
        let scaled_natural = baseline::natural(&scaled);
        assert_ne!(base, trace_key(&scaled, &scaled_natural, 1, LIMITS));
    }

    #[test]
    fn derived_cids_are_domain_separated() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let trace = trace_key(&w.program, &placement, 1, LIMITS);
        let cfg = CacheConfig::direct_mapped(2048, 64);
        let art = artifact_cid(&trace);
        let res = result_cid(&trace, &cfg);
        assert_ne!(art, res);
        assert_ne!(art, trace);
        assert_ne!(
            res,
            result_cid(&trace, &CacheConfig::direct_mapped(1024, 64))
        );
    }

    /// Store keys must not move under a refactor, or every existing
    /// store is orphaned: these are the keys the format has always
    /// written.
    #[test]
    fn store_keys_are_pinned() {
        let w = impact_workloads::by_name("wc").unwrap();
        let trace = trace_key(&w.program, &baseline::natural(&w.program), 1, LIMITS);
        assert_eq!(
            trace.to_hex(),
            "64f789c7d9f439debbfb70509e087cef8f1ca6aae571cbf72a41afccbd542774"
        );
        let dm = CacheConfig::direct_mapped(2048, 64);
        for (config, hex) in [
            (
                dm,
                "5101e9866a918c8af6351dd629b114ee312a31b5cf50c9a7b3e21718cc42fb58",
            ),
            (
                dm.with_associativity(Associativity::Ways(2)),
                "f6741c738d7ef0dae185097dcf31e014bdd3628b4579b0c04712db7b0c7c2c08",
            ),
            (
                CacheConfig::fully_associative(2048, 64),
                "64dcad453f87813f94eec1ebb769912c4d6bcbc7dfbd433f9459b8088b4284ba",
            ),
            (
                dm.with_fill(FillPolicy::Sectored { sector_bytes: 16 }),
                "a5afedf9ef29335cbe0984d3ea34d7282ef27c3c1653960cc4619ea079f1acce",
            ),
            (
                dm.with_fill(FillPolicy::Partial),
                "a413414a28e19cff8740a737a63aa10b6d993e27fdc9385ce77db18b5c4c6812",
            ),
        ] {
            assert_eq!(result_cid(&trace, &config).to_hex(), hex, "{config:?}");
        }
    }

    #[test]
    fn artifact_codec_round_trips() {
        let mut buf = RunBuffer::new();
        buf.access_run(0x40, 16);
        buf.access_run(0x1000, 3);
        buf.access(0x2000);
        let payload = encode_artifact(&buf);
        assert_eq!(payload[0], kind::ARTIFACT);
        let back = decode_artifact(&payload).expect("decode");
        assert_eq!(back, buf);
        assert_eq!(encode_artifact(&back), payload, "re-encode is identical");

        // Damage: short payload, trailing bytes, run-count lie, bad kind.
        assert!(decode_artifact(&payload[..payload.len() - 1]).is_none());
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_artifact(&long).is_none());
        let mut lied = payload.clone();
        lied[1] ^= 1; // instruction total no longer matches the runs
        assert!(decode_artifact(&lied).is_none());
        let mut wrong_kind = payload;
        wrong_kind[0] = kind::RESULT;
        assert!(decode_artifact(&wrong_kind).is_none());
    }

    #[test]
    fn result_codec_round_trips() {
        let stats = CacheStats {
            accesses: 10,
            misses: 2,
            words_fetched: 32,
            exec_runs: 4,
            exec_run_instrs: 40,
        };
        let payload = encode_result(&stats, 123);
        assert_eq!(payload[0], kind::RESULT);
        assert_eq!(decode_result(&payload), Some((stats, 123)));
        assert!(decode_result(&payload[..payload.len() - 1]).is_none());
        let mut wrong_kind = payload;
        wrong_kind[0] = kind::ARTIFACT;
        assert!(decode_result(&wrong_kind).is_none());
    }
}
