//! The two-pass reference parser: the definition the one-pass parser in
//! `src/parse.rs` is checked against.
//!
//! This is the parser as it stood before the one-pass rewrite, changed
//! only by the program size cap ([`MAX_INSTRUCTIONS`]). Pass 1 splits
//! each line into an owned token list and builds a raw syntax tree with
//! owned labels, scanning a function's earlier blocks for a duplicate
//! label; pass 2 checks function names, resolves every label and callee
//! through `HashMap`s and builds the program with [`ProgramBuilder`]. It
//! shares no parsing code with the crate, only the public error types,
//! so a bug in the fast path cannot hide behind the same bug here.
//!
//! It panics on two inputs the crate's parser rejects: a function with
//! no blocks (`FunctionBuilder::finish` asserts) and a `spread=NaN`
//! (`BranchBias::varying` asserts). Tests treat a panic here as "no
//! answer" and require an error from the crate.
//!
//! Test crates include it with `mod reference;`.

#![allow(dead_code)]

use std::collections::HashMap;

use impact_asm::{ParseError, ParseErrorKind, MAX_INSTRUCTIONS};
use impact_ir::{BlockId, BranchBias, Instr, Program, ProgramBuilder, Terminator};

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
    let mut total = 0;

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
                parse_statement(block, tokens, line_no, &mut total)?;
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
fn parse_statement(
    block: &mut RawBlock,
    tokens: &[&str],
    line: usize,
    total: &mut usize,
) -> Result<(), ParseError> {
    let mut instr = |i: Instr, block: &mut RawBlock, rest: &[&str]| -> Result<(), ParseError> {
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
        if count > MAX_INSTRUCTIONS - *total {
            return Err(err(line, ParseErrorKind::TooManyInstructions));
        }
        *total += count;
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
