//! Property tests pinning the one-pass parser to the two-pass
//! [`reference`] parser it replaced.
//!
//! For any text the two must return the same [`Program`] or the same
//! [`ParseError`], line and kind with every text payload, so the `impact`
//! CLI's messages and `impact serve`'s 400 bodies do not change. They are
//! compared on:
//! - the ten workloads and `check::forall`-generated programs, printed;
//! - mutations of those texts: flipped bits, deleted bytes and lines,
//!   inserted separators and Unicode whitespace, one word copied over
//!   another, duplicated and swapped lines, and digits grown inside `xN`,
//!   `p=` and `*W`;
//! - hand-written texts where the order in which the reference checks
//!   decides which of two errors is reported.
//!
//! The reference panics on a function with no blocks and on a NaN
//! `spread=`. There it gives no answer, and the parser must return an
//! error.

mod programs;
mod reference;

use std::panic::{catch_unwind, AssertUnwindSafe};

use impact_asm::{parse_program, print_program, ParseError, ParseErrorKind, MAX_INSTRUCTIONS};
use impact_ir::Program;
use impact_support::check::forall;
use impact_support::Rng;

use programs::gen_program;

/// Parses `text` with both parsers, requires the same answer and
/// returns it.
fn both(text: &str) -> Result<Program, ParseError> {
    let parsed = parse_program(text);
    assert_eq!(
        parsed,
        reference::parse_program(text),
        "the parsers disagree on {text:?}"
    );
    parsed
}

fn assert_error(text: &str, line: usize, kind: ParseErrorKind) {
    assert_eq!(both(text), Err(ParseError { line, kind }), "{text:?}");
}

#[test]
fn parsers_agree_on_the_ten_workloads() {
    for w in impact_workloads::all() {
        let parsed = both(&print_program(&w.program));
        assert_eq!(parsed.as_ref(), Ok(&w.program), "{}", w.name);
    }
}

#[test]
fn parsers_agree_on_generated_programs() {
    forall(128, gen_program, |program| {
        assert_eq!(both(&print_program(program)).as_ref(), Ok(program));
    });
}

/// Separators the grammar reads, whitespace that `str::split_whitespace`
/// splits at but an ASCII-only scanner would not (vertical tab, next
/// line, no-break and ideographic space), a multi-byte letter, and
/// number spellings `f64::from_str` accepts.
const INSERTS: &[&str] = &[
    " ", "\t", "\n", "\r", ";", ":", "*", "=", "{", "}", "->", "x", "p=", "entry=", "\u{0B}",
    "\u{85}", "\u{A0}", "\u{3000}", "é", "0", "9", "-", ".", "e", "nan", "inf",
];

/// Applies one to three random mutations to `text`.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range_inclusive(1, 3) {
        let at = rng.gen_below(bytes.len() as u64 + 1) as usize;
        match rng.gen_below(7) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_below(8),
            1 => {
                let end = (at + rng.gen_range_inclusive(1, 8)).min(bytes.len());
                bytes.drain(at..end);
            }
            2 => {
                let insert = INSERTS[rng.gen_below(INSERTS.len() as u64) as usize];
                bytes.splice(at..at, insert.bytes());
            }
            3 => grow_digits(&mut bytes, rng),
            4 => copy_word(&mut bytes, rng),
            _ => {
                let mut lines: Vec<Vec<u8>> =
                    bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
                let n = lines.len();
                let (i, j) = (
                    rng.gen_below(n as u64) as usize,
                    rng.gen_below(n as u64) as usize,
                );
                match rng.gen_below(3) {
                    0 => lines.swap(i, j),
                    // Duplicates one to eight lines, up to a whole function.
                    1 => {
                        let run = lines[i..n.min(i + rng.gen_range_inclusive(1, 8))].to_vec();
                        lines.splice(j..j, run);
                    }
                    _ => drop(lines.remove(i)),
                }
                bytes = lines.join(&b'\n');
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Overwrites one random word with another: a label with another
/// label, a function name with another name, a mnemonic with a label.
fn copy_word(bytes: &mut Vec<u8>, rng: &mut Rng) {
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let words: Vec<(usize, usize)> = (0..bytes.len())
        .filter(|&i| word(bytes[i]) && (i == 0 || !word(bytes[i - 1])))
        .map(|start| {
            let len = bytes[start..].iter().take_while(|&&b| word(b)).count();
            (start, start + len)
        })
        .collect();
    if words.is_empty() {
        return;
    }
    let pick = |rng: &mut Rng| words[rng.gen_below(words.len() as u64) as usize];
    let ((from, from_end), (to, to_end)) = (pick(rng), pick(rng));
    let source = bytes[from..from_end].to_vec();
    bytes.splice(to..to_end, source);
}

/// Inserts one to ten digits into a random number after `x`, `p=` or
/// `*`, driving repeat counts past [`MAX_INSTRUCTIONS`], probabilities
/// out of range and weights past `u32`.
fn grow_digits(bytes: &mut Vec<u8>, rng: &mut Rng) {
    let sites: Vec<usize> = (1..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit() && matches!(bytes[i - 1], b'x' | b'=' | b'*'))
        .collect();
    if sites.is_empty() {
        return;
    }
    let at = sites[rng.gen_below(sites.len() as u64) as usize];
    let digits: Vec<u8> = (0..rng.gen_range_inclusive(1, 10))
        .map(|_| b'0' + rng.gen_below(10) as u8)
        .collect();
    bytes.splice(at..at, digits);
}

/// The parser never panics on mutated text, and agrees with the
/// reference wherever the reference answers.
#[test]
fn parsers_agree_on_mutated_text() {
    let workloads: Vec<String> = impact_workloads::all()
        .iter()
        .map(|w| print_program(&w.program))
        .collect();
    let generate = |rng: &mut Rng| {
        let seed = match rng.gen_below(2) {
            0 => workloads[rng.gen_below(workloads.len() as u64) as usize].clone(),
            _ => print_program(&gen_program(rng)),
        };
        mutate(&seed, rng)
    };
    forall(2048, generate, |text| {
        let parsed = catch_unwind(|| parse_program(text))
            .unwrap_or_else(|_| panic!("the parser panicked on {text:?}"));
        match catch_unwind(AssertUnwindSafe(|| reference::parse_program(text))) {
            Ok(expected) => assert_eq!(parsed, expected, "the parsers disagree on {text:?}"),
            Err(_) => assert!(parsed.is_err(), "the reference panicked on {text:?}"),
        }
    });
}

const HEADER: &str = "program entry=main\n";

#[test]
fn a_later_syntax_error_beats_an_earlier_unknown_label() {
    let text = format!("{HEADER}fn main {{\n a:\n  jmp nowhere\n}}\nfn f {{\n b:\n  bogus\n}}\n");
    assert_error(
        &text,
        8,
        ParseErrorKind::UnexpectedLine {
            text: "bogus".into(),
        },
    );
}

#[test]
fn a_duplicate_function_beats_an_unknown_label() {
    let text = format!("{HEADER}fn main {{\n a:\n  jmp nowhere\n}}\nfn main {{\n a:\n  exit\n}}\n");
    assert_error(
        &text,
        6,
        ParseErrorKind::DuplicateFunction {
            name: "main".into(),
        },
    );
}

#[test]
fn an_out_of_range_p_beats_an_unknown_target_on_its_line() {
    let text = format!("{HEADER}fn main {{\n a:\n  br nowhere a p=1.5\n}}\n");
    assert_error(
        &text,
        4,
        ParseErrorKind::BadNumber {
            token: "p=1.5 spread=0".into(),
        },
    );
}

#[test]
fn an_unknown_entry_label_follows_its_blocks_errors() {
    // The block's unknown target wins over the function's own entry=...
    let text = format!("{HEADER}fn main entry=ghost {{\n a:\n  jmp nowhere\n}}\n");
    assert_error(
        &text,
        4,
        ParseErrorKind::UnknownLabel {
            label: "nowhere".into(),
        },
    );
    // ...and the entry= loses nothing to a later function's blocks.
    let text = format!(
        "{HEADER}fn main entry=ghost {{\n a:\n  exit\n}}\nfn f {{\n b:\n  jmp nowhere\n}}\n"
    );
    assert_error(
        &text,
        2,
        ParseErrorKind::UnknownLabel {
            label: "ghost".into(),
        },
    );
}

#[test]
fn a_callee_is_checked_between_earlier_blocks_and_its_return_label() {
    let text = format!("{HEADER}fn main {{\n a:\n  call ghost -> nowhere\n}}\n");
    assert_error(
        &text,
        4,
        ParseErrorKind::UnknownFunction {
            name: "ghost".into(),
        },
    );
    let text = format!("{HEADER}fn main {{\n a:\n  jmp nowhere\n b:\n  call ghost -> a\n}}\n");
    assert_error(
        &text,
        4,
        ParseErrorKind::UnknownLabel {
            label: "nowhere".into(),
        },
    );
}

#[test]
fn an_unclosed_function_reports_line_zero() {
    let text = format!("{HEADER}fn main {{\n a:\n  jmp nowhere\n}}\nfn f {{\n b:\n  exit\n");
    assert_error(
        &text,
        0,
        ParseErrorKind::UnclosedFunction { name: "f".into() },
    );
}

#[test]
fn the_instruction_cap_counts_the_whole_program() {
    let block = |label: &str, count: usize| format!(" {label}:\n  ialu x{count}\n  ret\n");
    let half = MAX_INSTRUCTIONS / 2;
    // Exactly at the cap, over two functions, parses.
    let text = format!(
        "{HEADER}fn main {{\n{}}}\nfn f {{\n{}}}\n",
        block("a", half),
        block("b", MAX_INSTRUCTIONS - half)
    );
    let program = both(&text).expect("a program at the cap parses");
    assert_eq!(program.total_bytes(), 4 * (MAX_INSTRUCTIONS as u64 + 2));
    // One more instruction anywhere fails at its line.
    let text = format!(
        "{HEADER}fn main {{\n{} c:\n  nop\n  ret\n}}\nfn f {{\n{}}}\n",
        block("a", half),
        block("b", MAX_INSTRUCTIONS - half)
    );
    assert_error(&text, 12, ParseErrorKind::TooManyInstructions);
    // A count past `usize` is a malformed number, not a cap failure.
    let text =
        format!("{HEADER}fn main {{\n{}}}\n", block("a", 0)).replace("x0", "x18446744073709551616");
    assert_error(
        &text,
        4,
        ParseErrorKind::BadNumber {
            token: "x18446744073709551616".into(),
        },
    );
}
