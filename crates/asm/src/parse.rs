//! Text → program.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use impact_ir::{BlockId, BranchBias, Instr, Program, ProgramBuilder, Terminator};

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
            ParseErrorKind::Invalid { detail } => write!(f, "invalid program: {detail}"),
        }
    }
}

impl Error for ParseError {}

fn err(line: usize, kind: ParseErrorKind) -> ParseError {
    ParseError { line, kind }
}

/// Parsed terminator with unresolved references.
#[derive(Debug)]
enum RawTerm {
    Jmp(String),
    Br {
        taken: String,
        not_taken: String,
        p: f64,
        spread: f64,
    },
    Switch(Vec<(String, u32)>),
    Call {
        callee: String,
        ret_to: String,
    },
    Ret,
    Exit,
}

#[derive(Debug)]
struct RawBlock {
    label: String,
    body: Vec<Instr>,
    term: Option<RawTerm>,
    /// Line of the block label.
    line: usize,
    /// Line of the terminator (0 until seen).
    term_line: usize,
}

#[derive(Debug)]
struct RawFunc {
    name: String,
    entry: Option<String>,
    blocks: Vec<RawBlock>,
    line: usize,
}

/// Parses a program from its textual form; see the crate docs for the
/// grammar.
///
/// # Errors
///
/// Returns a [`ParseError`] carrying the offending line and a
/// [`ParseErrorKind`] describing the problem, including structural
/// validation failures after a syntactically successful parse.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let (entry_name, funcs) = parse_raw(src)?;
    build(&entry_name.0, entry_name.1, &funcs)
}

/// Pass 1: text → raw AST.
#[allow(clippy::type_complexity)]
fn parse_raw(src: &str) -> Result<((String, usize), Vec<RawFunc>), ParseError> {
    let mut entry: Option<(String, usize)> = None;
    let mut funcs: Vec<RawFunc> = Vec::new();
    let mut current: Option<RawFunc> = None;

    for (idx, raw_line) in src.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();

        if entry.is_none() {
            // Must be the program header.
            if tokens.len() == 2 && tokens[0] == "program" {
                if let Some(name) = tokens[1].strip_prefix("entry=") {
                    entry = Some((name.to_owned(), line_no));
                    continue;
                }
            }
            return Err(err(line_no, ParseErrorKind::MissingProgramHeader));
        }

        match (&mut current, tokens.as_slice()) {
            (None, ["fn", name, rest @ .., "{"]) => {
                let entry_label = match rest {
                    [] => None,
                    [one] => Some(
                        one.strip_prefix("entry=")
                            .ok_or_else(|| {
                                err(
                                    line_no,
                                    ParseErrorKind::UnexpectedLine { text: line.into() },
                                )
                            })?
                            .to_owned(),
                    ),
                    _ => {
                        return Err(err(
                            line_no,
                            ParseErrorKind::UnexpectedLine { text: line.into() },
                        ))
                    }
                };
                current = Some(RawFunc {
                    name: (*name).to_owned(),
                    entry: entry_label,
                    blocks: Vec::new(),
                    line: line_no,
                });
            }
            (Some(_), ["}"]) => {
                let func = current.take().expect("matched Some");
                if let Some(last) = func.blocks.last() {
                    if last.term.is_none() {
                        return Err(err(
                            line_no,
                            ParseErrorKind::MissingTerminator {
                                label: last.label.clone(),
                            },
                        ));
                    }
                }
                funcs.push(func);
            }
            (Some(func), [label_colon]) if label_colon.ends_with(':') => {
                let label = label_colon.trim_end_matches(':').to_owned();
                if func.blocks.iter().any(|b| b.label == label) {
                    return Err(err(line_no, ParseErrorKind::DuplicateLabel { label }));
                }
                if let Some(prev) = func.blocks.last() {
                    if prev.term.is_none() {
                        return Err(err(
                            line_no,
                            ParseErrorKind::MissingTerminator {
                                label: prev.label.clone(),
                            },
                        ));
                    }
                }
                func.blocks.push(RawBlock {
                    label,
                    body: Vec::new(),
                    term: None,
                    line: line_no,
                    term_line: 0,
                });
            }
            (Some(func), tokens) => {
                let block = func.blocks.last_mut().ok_or_else(|| {
                    err(
                        line_no,
                        ParseErrorKind::UnexpectedLine { text: line.into() },
                    )
                })?;
                if block.term.is_some() {
                    return Err(err(line_no, ParseErrorKind::CodeAfterTerminator));
                }
                parse_statement(block, tokens, line_no)?;
                if block.term.is_some() {
                    block.term_line = line_no;
                }
            }
            (None, _) => {
                return Err(err(
                    line_no,
                    ParseErrorKind::UnexpectedLine { text: line.into() },
                ))
            }
        }
    }

    if let Some(func) = current {
        return Err(err(0, ParseErrorKind::UnclosedFunction { name: func.name }));
    }
    let entry = entry.ok_or_else(|| err(0, ParseErrorKind::MissingProgramHeader))?;
    Ok((entry, funcs))
}

/// One instruction or terminator line inside a block.
fn parse_statement(block: &mut RawBlock, tokens: &[&str], line: usize) -> Result<(), ParseError> {
    let instr = |i: Instr, block: &mut RawBlock, rest: &[&str]| -> Result<(), ParseError> {
        let count = match rest {
            [] => 1,
            [x] if x.starts_with('x') => x[1..]
                .parse::<usize>()
                .map_err(|_| err(line, ParseErrorKind::BadNumber { token: (*x).into() }))?,
            _ => {
                return Err(err(
                    line,
                    ParseErrorKind::UnexpectedLine {
                        text: rest.join(" "),
                    },
                ))
            }
        };
        block.body.extend(std::iter::repeat_n(i, count));
        Ok(())
    };
    let number = |token: &str| -> Result<f64, ParseError> {
        token.parse::<f64>().map_err(|_| {
            err(
                line,
                ParseErrorKind::BadNumber {
                    token: token.into(),
                },
            )
        })
    };

    match tokens {
        ["ialu", rest @ ..] => instr(Instr::IntAlu, block, rest),
        ["fpalu", rest @ ..] => instr(Instr::FpAlu, block, rest),
        ["load", rest @ ..] => instr(Instr::Load, block, rest),
        ["store", rest @ ..] => instr(Instr::Store, block, rest),
        ["nop", rest @ ..] => instr(Instr::Nop, block, rest),
        ["jmp", target] => {
            block.term = Some(RawTerm::Jmp((*target).to_owned()));
            Ok(())
        }
        ["br", taken, not_taken, rest @ ..] => {
            let mut p = None;
            let mut spread = 0.0;
            for field in rest {
                if let Some(v) = field.strip_prefix("p=") {
                    p = Some(number(v)?);
                } else if let Some(v) = field.strip_prefix("spread=") {
                    spread = number(v)?;
                } else {
                    return Err(err(
                        line,
                        ParseErrorKind::UnexpectedLine {
                            text: (*field).to_owned(),
                        },
                    ));
                }
            }
            let p = p.ok_or_else(|| {
                err(
                    line,
                    ParseErrorKind::UnexpectedLine {
                        text: "br without p=".into(),
                    },
                )
            })?;
            block.term = Some(RawTerm::Br {
                taken: (*taken).to_owned(),
                not_taken: (*not_taken).to_owned(),
                p,
                spread,
            });
            Ok(())
        }
        ["switch", arms @ ..] if !arms.is_empty() => {
            let mut targets = Vec::with_capacity(arms.len());
            for arm in arms {
                let (label, weight) = arm.split_once('*').ok_or_else(|| {
                    err(
                        line,
                        ParseErrorKind::UnexpectedLine {
                            text: (*arm).to_owned(),
                        },
                    )
                })?;
                let w: u32 = weight.parse().map_err(|_| {
                    err(
                        line,
                        ParseErrorKind::BadNumber {
                            token: weight.into(),
                        },
                    )
                })?;
                targets.push((label.to_owned(), w));
            }
            block.term = Some(RawTerm::Switch(targets));
            Ok(())
        }
        ["call", callee, "->", ret_to] => {
            block.term = Some(RawTerm::Call {
                callee: (*callee).to_owned(),
                ret_to: (*ret_to).to_owned(),
            });
            Ok(())
        }
        ["ret"] => {
            block.term = Some(RawTerm::Ret);
            Ok(())
        }
        ["exit"] => {
            block.term = Some(RawTerm::Exit);
            Ok(())
        }
        _ => Err(err(
            line,
            ParseErrorKind::UnexpectedLine {
                text: tokens.join(" "),
            },
        )),
    }
}

/// Pass 2: raw AST → validated program.
fn build(entry_name: &str, entry_line: usize, funcs: &[RawFunc]) -> Result<Program, ParseError> {
    let mut pb = ProgramBuilder::new();
    let mut func_ids = HashMap::new();
    for f in funcs {
        if func_ids.contains_key(f.name.as_str()) {
            return Err(err(
                f.line,
                ParseErrorKind::DuplicateFunction {
                    name: f.name.clone(),
                },
            ));
        }
        func_ids.insert(f.name.as_str(), pb.reserve(f.name.clone()));
    }

    for f in funcs {
        let mut fb = pb.function_reserved(func_ids[f.name.as_str()]);
        let mut labels: HashMap<&str, BlockId> = HashMap::new();
        for b in &f.blocks {
            labels.insert(b.label.as_str(), fb.block(b.body.clone()));
        }
        let resolve = |label: &str, line: usize| -> Result<BlockId, ParseError> {
            labels.get(label).copied().ok_or_else(|| {
                err(
                    line,
                    ParseErrorKind::UnknownLabel {
                        label: label.to_owned(),
                    },
                )
            })
        };

        for b in &f.blocks {
            let term = b.term.as_ref().ok_or_else(|| {
                err(
                    b.line,
                    ParseErrorKind::MissingTerminator {
                        label: b.label.clone(),
                    },
                )
            })?;
            let tl = b.term_line;
            let t = match term {
                RawTerm::Jmp(target) => Terminator::jump(resolve(target, tl)?),
                RawTerm::Br {
                    taken,
                    not_taken,
                    p,
                    spread,
                } => {
                    if !(0.0..=1.0).contains(p) || *spread < 0.0 {
                        return Err(err(
                            tl,
                            ParseErrorKind::BadNumber {
                                token: format!("p={p} spread={spread}"),
                            },
                        ));
                    }
                    Terminator::branch(
                        resolve(taken, tl)?,
                        resolve(not_taken, tl)?,
                        BranchBias::varying(*p, *spread),
                    )
                }
                RawTerm::Switch(arms) => {
                    let mut targets = Vec::with_capacity(arms.len());
                    for (label, w) in arms {
                        targets.push((resolve(label, tl)?, *w));
                    }
                    Terminator::Switch { targets }
                }
                RawTerm::Call { callee, ret_to } => {
                    let callee_id = func_ids.get(callee.as_str()).ok_or_else(|| {
                        err(
                            tl,
                            ParseErrorKind::UnknownFunction {
                                name: callee.clone(),
                            },
                        )
                    })?;
                    Terminator::call(*callee_id, resolve(ret_to, tl)?)
                }
                RawTerm::Ret => Terminator::Return,
                RawTerm::Exit => Terminator::Exit,
            };
            fb.terminate(labels[b.label.as_str()], t);
        }

        if let Some(entry_label) = &f.entry {
            let id = labels.get(entry_label.as_str()).ok_or_else(|| {
                err(
                    f.line,
                    ParseErrorKind::UnknownLabel {
                        label: entry_label.clone(),
                    },
                )
            })?;
            fb.set_entry(*id);
        }
        fb.finish();
    }

    let entry_id = func_ids.get(entry_name).ok_or_else(|| {
        err(
            entry_line,
            ParseErrorKind::UnknownFunction {
                name: entry_name.to_owned(),
            },
        )
    })?;
    pb.set_entry(*entry_id);
    pb.finish().map_err(|e| {
        err(
            0,
            ParseErrorKind::Invalid {
                detail: e.to_string(),
            },
        )
    })
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
}
