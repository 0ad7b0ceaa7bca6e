//! Text → program, in one borrowing pass.
//!
//! The parser walks the text once, line by line, and splits each line
//! into tokens in place. Labels and function names stay borrowed from
//! the source until a [`Function`] is built. Each function's labels go
//! into one table, which catches a duplicate label as it is defined and
//! resolves the function's terminators at its closing `}`. A call's
//! callee may be defined later in the text, so callees resolve at the
//! end.
//!
//! Errors come out in the order of the two-pass parser this one
//! replaced, which is kept as the test-only reference in
//! `tests/reference`. A syntax error is returned at its line. A function
//! named twice, an unknown label or callee, and an out-of-range branch
//! probability are resolution errors. They are held until the text
//! ends, so a syntax error later in the text still wins. Held errors are
//! then reported in the reference's order: the duplicate function first,
//! then each function's blocks in turn (a call's callee before its
//! return label), then that function's `entry=` label.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::str::FromStr;

use impact_ir::{BasicBlock, BlockId, BranchBias, FuncId, Function, Instr, Program, Terminator};

/// The most body instructions a parsed program may hold, summed over
/// all its blocks; the ten benchmarks hold 12,059 between them.
///
/// A repeat count (`ialu xN`) multiplies a few bytes of text into `N`
/// instructions, so the parser checks the running total against this cap
/// before it allocates for a line.
pub const MAX_INSTRUCTIONS: usize = 1 << 20;

/// What went wrong while parsing.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// The first significant line must be `program entry=<name>`.
    MissingProgramHeader,
    /// A line could not be interpreted in its context.
    UnexpectedLine {
        /// The offending line's text.
        text: String,
    },
    /// Two functions share a name.
    DuplicateFunction {
        /// The duplicated name.
        name: String,
    },
    /// Two blocks in one function share a label.
    DuplicateLabel {
        /// The duplicated label.
        label: String,
    },
    /// A terminator references an unknown block label.
    UnknownLabel {
        /// The unresolved label.
        label: String,
    },
    /// A call references an unknown function.
    UnknownFunction {
        /// The unresolved function name.
        name: String,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// The offending token.
        token: String,
    },
    /// A block has instructions after its terminator, or two terminators.
    CodeAfterTerminator,
    /// A block (or function) ended without a terminator.
    MissingTerminator {
        /// The label of the unterminated block.
        label: String,
    },
    /// A `fn` body was never closed with `}`.
    UnclosedFunction {
        /// The unclosed function's name.
        name: String,
    },
    /// The blocks would hold more than [`MAX_INSTRUCTIONS`] instructions.
    TooManyInstructions,
    /// The program parsed but failed structural validation.
    Invalid {
        /// The validation failure, rendered.
        detail: String,
    },
}

/// A parse failure with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number (0 for end-of-input errors).
    pub line: usize,
    /// The failure.
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ParseErrorKind::MissingProgramHeader => {
                write!(f, "expected `program entry=<name>` header")
            }
            ParseErrorKind::UnexpectedLine { text } => write!(f, "unexpected line {text:?}"),
            ParseErrorKind::DuplicateFunction { name } => {
                write!(f, "duplicate function {name:?}")
            }
            ParseErrorKind::DuplicateLabel { label } => write!(f, "duplicate label {label:?}"),
            ParseErrorKind::UnknownLabel { label } => write!(f, "unknown block label {label:?}"),
            ParseErrorKind::UnknownFunction { name } => {
                write!(f, "unknown function {name:?}")
            }
            ParseErrorKind::BadNumber { token } => write!(f, "malformed number {token:?}"),
            ParseErrorKind::CodeAfterTerminator => {
                write!(f, "code after the block's terminator")
            }
            ParseErrorKind::MissingTerminator { label } => {
                write!(f, "block {label:?} has no terminator")
            }
            ParseErrorKind::UnclosedFunction { name } => {
                write!(f, "function {name:?} is never closed with `}}`")
            }
            ParseErrorKind::TooManyInstructions => write!(
                f,
                "program exceeds the limit of {MAX_INSTRUCTIONS} instructions"
            ),
            ParseErrorKind::Invalid { detail } => write!(f, "invalid program: {detail}"),
        }
    }
}

impl Error for ParseError {}

fn err(line: usize, kind: ParseErrorKind) -> ParseError {
    ParseError { line, kind }
}

/// Parses a program from its textual form; see the crate docs for the
/// grammar.
///
/// # Errors
///
/// Returns a [`ParseError`] carrying the offending line and a
/// [`ParseErrorKind`] describing the problem, including structural
/// validation failures after a syntactically successful parse, and
/// [`ParseErrorKind::TooManyInstructions`] past [`MAX_INSTRUCTIONS`].
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut parser = Parser::default();
    let (mut start, mut line) = (0, 0);
    while start < src.len() {
        line += 1;
        let mut tokens = Tokens::new(src, start);
        parser.line(line, &mut tokens)?;
        // A line read to its end stops at its newline.
        start = match src.as_bytes().get(tokens.pos) {
            Some(b'\n') => tokens.pos + 1,
            _ => src[tokens.pos..]
                .find('\n')
                .map_or(src.len(), |end| tokens.pos + end + 1),
        };
    }
    parser.finish()
}

/// The tokens of one line of `src`, split at whitespace exactly as
/// `str::split_whitespace` splits them; they end at the line's `;`
/// comment or its newline.
#[derive(Clone)]
struct Tokens<'a> {
    src: &'a str,
    /// Where the line starts.
    start: usize,
    pos: usize,
}

impl<'a> Tokens<'a> {
    fn new(src: &'a str, start: usize) -> Self {
        Self {
            src,
            start,
            pos: start,
        }
    }

    /// The line before its comment, trimmed.
    fn text(&self) -> &'a str {
        let line = self.src[self.start..].split('\n').next().unwrap_or("");
        line.split(';').next().unwrap_or("").trim()
    }

    /// The line's tokens after the first `skip`, joined by single spaces.
    fn joined(&self, skip: usize) -> String {
        let tokens: Vec<&str> = Tokens::new(self.src, self.start).skip(skip).collect();
        tokens.join(" ")
    }

    /// Whether the non-ASCII character at `i` is whitespace, and its width.
    fn wide(&self, i: usize) -> (bool, usize) {
        let c = self.src[i..]
            .chars()
            .next()
            .expect("the position is a character boundary");
        (c.is_whitespace(), c.len_utf8())
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        // On ASCII, `char::is_whitespace` holds for space and `\t` to `\r`.
        let bytes = self.src.as_bytes();
        let mut i = self.pos;
        loop {
            match bytes.get(i) {
                Some(b' ' | b'\t' | 0x0b..=b'\r') => i += 1,
                Some(0x80..) => match self.wide(i) {
                    (true, width) => i += width,
                    (false, _) => break,
                },
                _ => break,
            }
        }
        let start = i;
        loop {
            match bytes.get(i) {
                None | Some(b' ' | b'\t'..=b'\r' | b';') => break,
                Some(0x80..) => match self.wide(i) {
                    (false, width) => i += width,
                    (true, _) => break,
                },
                Some(_) => i += 1,
            }
        }
        self.pos = i;
        (i > start).then(|| &self.src[start..i])
    }
}

/// One function's label table: label → block index.
///
/// [`print_program`](crate::print_program) labels block `i` as `bbi`.
/// While every block so far carries that label, the table holds them as
/// one count, without hashing; from the first other label on, labels go
/// into the map.
#[derive(Default)]
struct Labels<'a> {
    /// Blocks `0..printed` are labeled `bb0`, `bb1`, ...
    printed: usize,
    other: HashMap<&'a str, usize>,
}

impl<'a> Labels<'a> {
    fn get(&self, label: &str) -> Option<usize> {
        match printed_index(label) {
            Some(index) if index < self.printed => Some(index),
            _ => self.other.get(label).copied(),
        }
    }

    /// Labels block `index`, the next block; `false` if the label is
    /// taken.
    fn insert(&mut self, label: &'a str, index: usize) -> bool {
        match printed_index(label) {
            // Every block so far is printed, so the map is empty.
            Some(printed) if printed == index && index == self.printed => {
                self.printed += 1;
                true
            }
            Some(printed) if printed < self.printed => false,
            _ => self.other.insert(label, index).is_none(),
        }
    }

    fn clear(&mut self) {
        self.printed = 0;
        self.other.clear();
    }
}

/// `text` read by std's `from_str`; a failure names `token`, the text
/// as written.
fn number<T: FromStr>(text: &str, token: &str, line: usize) -> Result<T, ParseError> {
    text.parse().map_err(|_| {
        err(
            line,
            ParseErrorKind::BadNumber {
                token: token.to_owned(),
            },
        )
    })
}

/// `i` for a label spelled `bb` then `i` in decimal, without a sign or a
/// leading zero.
fn printed_index(label: &str) -> Option<usize> {
    let digits = label.strip_prefix("bb")?.as_bytes();
    if digits.is_empty() || digits.len() > 1 && digits[0] == b'0' {
        return None;
    }
    digits.iter().try_fold(0usize, |index, &digit| {
        let digit = usize::from(digit.wrapping_sub(b'0'));
        (digit < 10).then_some(())?;
        index.checked_mul(10)?.checked_add(digit)
    })
}

/// A terminator whose labels resolve at its function's `}`.
enum RawTerm<'a> {
    Jmp(&'a str),
    Br {
        taken: &'a str,
        not_taken: &'a str,
        p: f64,
        spread: f64,
    },
    /// The arms at this range of [`Parser::arms`].
    Switch(Range<usize>),
    Call {
        callee: &'a str,
        ret_to: &'a str,
    },
    Ret,
    Exit,
}

/// A block of the function being parsed.
struct RawBlock<'a> {
    label: &'a str,
    /// Filled from [`Parser::body`] when the terminator arrives.
    body: Vec<Instr>,
    /// The terminator and its line, once seen.
    term: Option<(RawTerm<'a>, usize)>,
}

/// The function between its `fn` line and its `}`.
struct OpenFunc<'a> {
    name: &'a str,
    entry: Option<&'a str>,
    line: usize,
}

/// A call terminator whose callee resolves once every function is
/// named.
struct Call<'a> {
    func: usize,
    block: usize,
    callee: &'a str,
    line: usize,
}

/// What the text has defined so far, and the function being read.
#[derive(Default)]
struct Parser<'a> {
    /// The `program entry=` name and its line.
    entry: Option<(&'a str, usize)>,
    /// Every function name seen, with its id in definition order.
    func_ids: HashMap<&'a str, FuncId>,
    /// Resolved functions, in definition order, until an error is held.
    funcs: Vec<Function>,
    /// Body instructions so far, at most [`MAX_INSTRUCTIONS`].
    total: usize,
    /// The first function defined under a name already taken.
    duplicate: Option<ParseError>,
    /// The first resolution error, keyed by (function, block); a
    /// function's `entry=` label keys after all its blocks.
    unresolved: Option<((usize, usize), ParseError)>,
    /// Calls in (function, block) order, their callees unchecked.
    calls: Vec<Call<'a>>,
    open: Option<OpenFunc<'a>>,
    /// The open function's label table.
    labels: Labels<'a>,
    blocks: Vec<RawBlock<'a>>,
    /// The body of the open function's last block, until its terminator.
    body: Vec<Instr>,
    /// The open function's switch arms, as (label, weight).
    arms: Vec<(&'a str, u32)>,
}

impl<'a> Parser<'a> {
    /// One line, read through `tokens`.
    fn line(&mut self, line: usize, tokens: &mut Tokens<'a>) -> Result<(), ParseError> {
        let Some(first) = tokens.next() else {
            return Ok(());
        };
        let unexpected = |tokens: &Tokens| {
            err(
                line,
                ParseErrorKind::UnexpectedLine {
                    text: tokens.text().to_owned(),
                },
            )
        };
        if self.entry.is_none() {
            if let ("program", Some(arg), None) = (first, tokens.next(), tokens.next()) {
                if let Some(name) = arg.strip_prefix("entry=") {
                    self.entry = Some((name, line));
                    return Ok(());
                }
            }
            return Err(err(line, ParseErrorKind::MissingProgramHeader));
        }
        if self.open.is_none() {
            return match self.open_function(first, tokens, line) {
                Some(()) => Ok(()),
                None => Err(unexpected(tokens)),
            };
        }
        if (first == "}" || first.ends_with(':')) && tokens.clone().next().is_none() {
            return match first {
                "}" => self.close(line),
                _ => self.label(first.trim_end_matches(':'), line),
            };
        }
        match self.blocks.last() {
            None => Err(unexpected(tokens)),
            Some(block) if block.term.is_some() => {
                Err(err(line, ParseErrorKind::CodeAfterTerminator))
            }
            Some(_) => self.statement(first, tokens, line),
        }
    }

    /// Opens the function of a `fn NAME [entry=LABEL] {` line; `None` for
    /// any other line.
    fn open_function(&mut self, first: &str, tokens: &mut Tokens<'a>, line: usize) -> Option<()> {
        if first != "fn" {
            return None;
        }
        let name = tokens.next()?;
        let entry = match (tokens.next()?, tokens.next(), tokens.next()) {
            ("{", None, _) => None,
            (arg, Some("{"), None) => Some(arg.strip_prefix("entry=")?),
            _ => return None,
        };
        let id = FuncId::new(self.func_ids.len());
        if self.func_ids.insert(name, id).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(err(
                line,
                ParseErrorKind::DuplicateFunction {
                    name: name.to_owned(),
                },
            ));
        }
        self.open = Some(OpenFunc { name, entry, line });
        Some(())
    }

    fn label(&mut self, label: &'a str, line: usize) -> Result<(), ParseError> {
        if !self.labels.insert(label, self.blocks.len()) {
            return Err(err(
                line,
                ParseErrorKind::DuplicateLabel {
                    label: label.to_owned(),
                },
            ));
        }
        self.check_terminated(line)?;
        self.blocks.push(RawBlock {
            label,
            body: Vec::new(),
            term: None,
        });
        Ok(())
    }

    /// Fails if the open function's last block has no terminator.
    fn check_terminated(&self, line: usize) -> Result<(), ParseError> {
        match self.blocks.last() {
            Some(block) if block.term.is_none() => Err(err(
                line,
                ParseErrorKind::MissingTerminator {
                    label: block.label.to_owned(),
                },
            )),
            _ => Ok(()),
        }
    }

    /// One instruction or terminator line inside a block.
    fn statement(
        &mut self,
        first: &str,
        rest: &mut Tokens<'a>,
        line: usize,
    ) -> Result<(), ParseError> {
        let unexpected = |text: String| err(line, ParseErrorKind::UnexpectedLine { text });
        let instr = match first {
            "ialu" => Some(Instr::IntAlu),
            "fpalu" => Some(Instr::FpAlu),
            "load" => Some(Instr::Load),
            "store" => Some(Instr::Store),
            "nop" => Some(Instr::Nop),
            _ => None,
        };
        if let Some(instr) = instr {
            let count = match rest.next() {
                None => 1,
                Some(token) => match (token.strip_prefix('x'), rest.next()) {
                    (Some(digits), None) => number(digits, token, line)?,
                    _ => return Err(unexpected(rest.joined(1))),
                },
            };
            if count > MAX_INSTRUCTIONS - self.total {
                return Err(err(line, ParseErrorKind::TooManyInstructions));
            }
            self.total += count;
            self.body.resize(self.body.len() + count, instr);
            return Ok(());
        }

        let term = match first {
            "jmp" => match (rest.next(), rest.next()) {
                (Some(target), None) => RawTerm::Jmp(target),
                _ => return Err(unexpected(rest.joined(0))),
            },
            "br" => {
                let (Some(taken), Some(not_taken)) = (rest.next(), rest.next()) else {
                    return Err(unexpected(rest.joined(0)));
                };
                let mut p = None;
                let mut spread = 0.0;
                for field in rest.by_ref() {
                    if let Some(v) = field.strip_prefix("p=") {
                        p = Some(number(v, v, line)?);
                    } else if let Some(v) = field.strip_prefix("spread=") {
                        spread = number(v, v, line)?;
                    } else {
                        return Err(unexpected(field.to_owned()));
                    }
                }
                let p = p.ok_or_else(|| unexpected("br without p=".to_owned()))?;
                RawTerm::Br {
                    taken,
                    not_taken,
                    p,
                    spread,
                }
            }
            "switch" => {
                let start = self.arms.len();
                for arm in rest.by_ref() {
                    let (label, weight) = arm
                        .split_once('*')
                        .ok_or_else(|| unexpected(arm.to_owned()))?;
                    self.arms.push((label, number(weight, weight, line)?));
                }
                if self.arms.len() == start {
                    return Err(unexpected(rest.joined(0)));
                }
                RawTerm::Switch(start..self.arms.len())
            }
            "call" => match (rest.next(), rest.next(), rest.next(), rest.next()) {
                (Some(callee), Some("->"), Some(ret_to), None) => RawTerm::Call { callee, ret_to },
                _ => return Err(unexpected(rest.joined(0))),
            },
            "ret" | "exit" if rest.next().is_none() => {
                if first == "ret" {
                    RawTerm::Ret
                } else {
                    RawTerm::Exit
                }
            }
            _ => return Err(unexpected(rest.joined(0))),
        };
        let block = self
            .blocks
            .last_mut()
            .expect("statements only reach a function with a block");
        block.body = self.body.clone();
        block.term = Some((term, line));
        self.body.clear();
        Ok(())
    }

    /// Closes the open function at its `}` and, unless an error is
    /// already held, resolves it.
    fn close(&mut self, line: usize) -> Result<(), ParseError> {
        self.check_terminated(line)?;
        let open = self
            .open
            .take()
            .expect("a `}` only closes an open function");
        let func = self.func_ids.len() - 1;
        if self.duplicate.is_none() && self.unresolved.is_none() {
            match self.resolve(func, &open) {
                Ok(function) => self.funcs.push(function),
                Err(held) => self.unresolved = Some(held),
            }
        }
        self.labels.clear();
        self.blocks.clear();
        self.arms.clear();
        Ok(())
    }

    /// Builds the closed function `func`, resolving its labels through
    /// its table: each block's terminator in turn, then the `entry=`
    /// label. A failure comes back with its (function, block) key.
    fn resolve(
        &mut self,
        func: usize,
        open: &OpenFunc<'a>,
    ) -> Result<Function, ((usize, usize), ParseError)> {
        let labels = &self.labels;
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (index, block) in self.blocks.drain(..).enumerate() {
            let (term, line) = block
                .term
                .expect("a closed function's blocks are terminated");
            let fail = |kind| ((func, index), err(line, kind));
            let at = |label: &str| {
                labels.get(label).map(BlockId::new).ok_or_else(|| {
                    fail(ParseErrorKind::UnknownLabel {
                        label: label.to_owned(),
                    })
                })
            };
            let term = match term {
                RawTerm::Jmp(target) => Terminator::jump(at(target)?),
                RawTerm::Br {
                    taken,
                    not_taken,
                    p,
                    spread,
                } => {
                    // A NaN spread fails here too: `BranchBias::varying`
                    // would panic on it.
                    if !(0.0..=1.0).contains(&p) || spread.is_nan() || spread < 0.0 {
                        return Err(fail(ParseErrorKind::BadNumber {
                            token: format!("p={p} spread={spread}"),
                        }));
                    }
                    Terminator::branch(at(taken)?, at(not_taken)?, BranchBias::varying(p, spread))
                }
                RawTerm::Switch(arms) => Terminator::Switch {
                    targets: self.arms[arms]
                        .iter()
                        .map(|&(label, weight)| Ok((at(label)?, weight)))
                        .collect::<Result<_, _>>()?,
                },
                RawTerm::Call { callee, ret_to } => {
                    // `finish` sets the callee, checking it before this
                    // block's return label as the reference does.
                    self.calls.push(Call {
                        func,
                        block: index,
                        callee,
                        line,
                    });
                    Terminator::call(FuncId::new(0), at(ret_to)?)
                }
                RawTerm::Ret => Terminator::Return,
                RawTerm::Exit => Terminator::Exit,
            };
            blocks.push(BasicBlock::new(block.body, term));
        }
        let entry = match open.entry {
            None => BlockId::new(0),
            Some(label) => labels.get(label).map(BlockId::new).ok_or_else(|| {
                (
                    (func, usize::MAX),
                    err(
                        open.line,
                        ParseErrorKind::UnknownLabel {
                            label: label.to_owned(),
                        },
                    ),
                )
            })?,
        };
        Ok(Function::from_parts(open.name.to_owned(), blocks, entry))
    }

    /// Reports the end of the text: what is unclosed, then the held
    /// errors in order, then the callees, the entry function and
    /// validation.
    fn finish(mut self) -> Result<Program, ParseError> {
        if let Some(open) = self.open {
            return Err(err(
                0,
                ParseErrorKind::UnclosedFunction {
                    name: open.name.to_owned(),
                },
            ));
        }
        let Some((entry, entry_line)) = self.entry else {
            return Err(err(0, ParseErrorKind::MissingProgramHeader));
        };
        if let Some(duplicate) = self.duplicate {
            return Err(duplicate);
        }
        let held = self.unresolved.as_ref().map(|(key, _)| *key);
        for call in &self.calls {
            if held.is_some_and(|key| (call.func, call.block) > key) {
                break;
            }
            let Some(&callee) = self.func_ids.get(call.callee) else {
                return Err(err(
                    call.line,
                    ParseErrorKind::UnknownFunction {
                        name: call.callee.to_owned(),
                    },
                ));
            };
            if held.is_none() {
                let block = self.funcs[call.func].block_mut(BlockId::new(call.block));
                if let &Terminator::Call { ret_to, .. } = block.terminator() {
                    block.set_terminator(Terminator::call(callee, ret_to));
                }
            }
        }
        if let Some((_, error)) = self.unresolved {
            return Err(error);
        }
        let Some(&entry_id) = self.func_ids.get(entry) else {
            return Err(err(
                entry_line,
                ParseErrorKind::UnknownFunction {
                    name: entry.to_owned(),
                },
            ));
        };
        Program::from_parts(self.funcs, entry_id).map_err(|e| {
            err(
                0,
                ParseErrorKind::Invalid {
                    detail: e.to_string(),
                },
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        parse_program(src).expect("parse")
    }

    #[test]
    fn parses_minimal_program() {
        let p = parse_ok("program entry=main\nfn main {\n b:\n  exit\n}\n");
        assert_eq!(p.function_count(), 1);
        assert_eq!(p.total_bytes(), 4, "one exit slot");
    }

    #[test]
    fn repeat_counts_expand() {
        let p = parse_ok("program entry=main\nfn main {\n b:\n  load x3\n  ialu\n  exit\n}\n");
        let f = p.function(p.entry());
        assert_eq!(f.block(BlockId::new(0)).body().len(), 4);
        assert_eq!(f.block(BlockId::new(0)).body()[2], Instr::Load);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let p = parse_ok(
            "; header comment\nprogram entry=main\n\nfn main { ; open\n b: ; label\n  exit ; done\n}\n",
        );
        assert_eq!(p.function_count(), 1);
    }

    #[test]
    fn forward_and_cross_function_references_resolve() {
        let p = parse_ok(
            "program entry=main\n\
             fn main {\n a:\n  call helper -> b\n b:\n  jmp c\n c:\n  exit\n}\n\
             fn helper {\n h:\n  ret\n}\n",
        );
        assert_eq!(p.function_count(), 2);
        let helper = p.function_by_name("helper").unwrap();
        assert!(p.call_graph().sites().iter().any(|s| s.callee == helper));
    }

    #[test]
    fn custom_entry_labels() {
        let p = parse_ok(
            "program entry=main\nfn main entry=second {\n first:\n  ret\n second:\n  exit\n}\n",
        );
        assert_eq!(p.function(p.entry()).entry(), BlockId::new(1));
    }

    #[test]
    fn branch_probability_fields() {
        let p = parse_ok(
            "program entry=main\nfn main {\n a:\n  br a b p=0.25 spread=0.1\n b:\n  exit\n}\n",
        );
        let Terminator::Branch { bias, .. } =
            p.function(p.entry()).block(BlockId::new(0)).terminator()
        else {
            panic!("expected branch");
        };
        assert_eq!(bias.base, 0.25);
        assert_eq!(bias.input_spread, 0.1);
    }

    #[test]
    fn error_missing_header() {
        let e = parse_program("fn main {\n a:\n  exit\n}\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(matches!(e.kind, ParseErrorKind::MissingProgramHeader));
    }

    #[test]
    fn error_unknown_label() {
        let e =
            parse_program("program entry=main\nfn main {\n a:\n  jmp nowhere\n}\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnknownLabel { .. }));
    }

    #[test]
    fn error_unknown_callee() {
        let e = parse_program("program entry=main\nfn main {\n a:\n  call ghost -> a\n}\n")
            .unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnknownFunction { .. }));
    }

    #[test]
    fn error_duplicate_label_and_function() {
        let e = parse_program("program entry=main\nfn main {\n a:\n  exit\n a:\n  exit\n}\n")
            .unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::DuplicateLabel { .. }));
        let e = parse_program(
            "program entry=main\nfn main {\n a:\n  exit\n}\nfn main {\n a:\n  exit\n}\n",
        )
        .unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::DuplicateFunction { .. }));
    }

    #[test]
    fn error_code_after_terminator() {
        let e =
            parse_program("program entry=main\nfn main {\n a:\n  exit\n  ialu\n}\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::CodeAfterTerminator));
        assert_eq!(e.line, 5);
    }

    #[test]
    fn error_missing_terminator() {
        let e = parse_program("program entry=main\nfn main {\n a:\n  ialu\n}\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MissingTerminator { .. }));
    }

    #[test]
    fn error_unclosed_function() {
        let e = parse_program("program entry=main\nfn main {\n a:\n  exit\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnclosedFunction { .. }));
    }

    #[test]
    fn error_bad_numbers() {
        let e = parse_program("program entry=main\nfn main {\n a:\n  ialu xq\n  exit\n}\n")
            .unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::BadNumber { .. }));
        let e =
            parse_program("program entry=main\nfn main {\n a:\n  br a a p=1.5\n}\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::BadNumber { .. }));
    }

    #[test]
    fn error_unknown_entry_function() {
        let e = parse_program("program entry=ghost\nfn main {\n a:\n  exit\n}\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnknownFunction { .. }));
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let e =
            parse_program("program entry=main\nfn main {\n a:\n  jmp nowhere\n}\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("line 4"));
    }

    #[test]
    fn an_empty_function_is_invalid_not_a_panic() {
        let e = parse_program("program entry=main\nfn main {\n}\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert_eq!(
            e.kind,
            ParseErrorKind::Invalid {
                detail: "function fn0 has no basic blocks".into()
            }
        );
    }

    #[test]
    fn a_nan_spread_is_a_bad_number_not_a_panic() {
        let e = parse_program("program entry=main\nfn main {\n a:\n  br a a p=0.5 spread=NaN\n}\n")
            .unwrap_err();
        assert_eq!(e.line, 4);
        assert_eq!(
            e.kind,
            ParseErrorKind::BadNumber {
                token: "p=0.5 spread=NaN".into()
            }
        );
    }

    #[test]
    fn printed_and_other_labels_share_one_table() {
        // `bb0` and `bb1` are held as a count, the rest in the map.
        let p = parse_ok(
            "program entry=main\nfn main {\n bb0:\n  jmp x\n bb1:\n  jmp bb3\n x:\n  jmp bb01\n \
             bb3:\n  jmp bb1\n bb01:\n  exit\n}\n",
        );
        let f = p.function(p.entry());
        let targets: Vec<usize> = f
            .blocks()
            .filter_map(|(_, b)| b.terminator().successors().first().map(|t| t.index()))
            .collect();
        assert_eq!(targets, [2, 3, 4, 1]);
        // A label repeated in the count or in the map is a duplicate.
        for labels in [
            &["bb0", "bb1", "bb0"][..],
            &["bb0", "x", "x"],
            &["x", "bb1", "bb1"],
        ] {
            let blocks: String = labels.iter().map(|l| format!(" {l}:\n  ret\n")).collect();
            let e = parse_program(&format!("program entry=main\nfn main {{\n{blocks}}}\n"))
                .unwrap_err();
            assert_eq!(
                (e.line, e.kind),
                (
                    7,
                    ParseErrorKind::DuplicateLabel {
                        label: labels[2].into()
                    }
                ),
                "{labels:?}"
            );
        }
    }

    #[test]
    fn tokens_split_at_unicode_whitespace() {
        // Vertical tab, no-break space and ideographic space separate
        // tokens, as `str::split_whitespace` splits them.
        let p = parse_ok(
            "program\u{0B}entry=main\nfn main {\n b:\u{A0}\n  ialu\u{3000}x2\n  exit\n}\n",
        );
        assert_eq!(p.total_bytes(), 12);
        let e = parse_program("program entry=main\nfn main {\n b:\n  ialu\u{1C}x2\n  exit\n}\n")
            .unwrap_err();
        assert_eq!(
            e.kind,
            ParseErrorKind::UnexpectedLine {
                text: "ialu\u{1C}x2".into()
            }
        );
    }

    #[test]
    fn the_instruction_cap_is_checked_before_allocating() {
        let e = parse_program(
            "program entry=main\nfn main {\n b:\n  ialu x18446744073709551615\n  exit\n}\n",
        )
        .unwrap_err();
        assert_eq!((e.line, &e.kind), (4, &ParseErrorKind::TooManyInstructions));
        assert!(e.to_string().contains(&MAX_INSTRUCTIONS.to_string()), "{e}");
    }
}
