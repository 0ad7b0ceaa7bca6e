//! A human-readable text format for IMPACT-I reproduction programs.
//!
//! Program models can be printed to and parsed from a small assembly-like
//! language, so workloads can be inspected, diffed, stored alongside
//! experiments, or written by hand:
//!
//! ```text
//! ; a tiny looping program
//! program entry=main
//!
//! fn main entry=bb0 {
//!   bb0:
//!     ialu x2
//!     load
//!     br bb0 bb1 p=0.9 spread=0.05   ; taken not-taken
//!   bb1:
//!     exit
//! }
//! ```
//!
//! * One instruction mnemonic per line (`ialu`, `fpalu`, `load`, `store`,
//!   `nop`), with an optional repeat count `xN`.
//! * Exactly one terminator per block: `jmp L`, `br T F p=P [spread=S]`,
//!   `switch L*W L*W ...`, `call F -> L`, `ret`, `exit`.
//! * `;` starts a comment; blank lines are ignored.
//! * A program holds at most [`MAX_INSTRUCTIONS`] (2^20) body
//!   instructions, summed over all its blocks with repeat counts
//!   expanded. Past that, [`parse_program`] fails with
//!   [`ParseErrorKind::TooManyInstructions`] before it allocates, so a
//!   short text such as `ialu x4000000000` cannot exhaust memory.
//!
//! [`print_program`] and [`parse_program`] round-trip: parsing a printed
//! program reproduces it exactly. The parser reads the text in one pass
//! and reports the same [`ParseError`] for any text as the two-pass
//! parser it replaced, which `tests/reference` keeps as its oracle.
//!
//! # Example
//!
//! ```
//! use impact_asm::{parse_program, print_program};
//!
//! let src = r#"
//! program entry=main
//! fn main {
//!   b0:
//!     ialu x3
//!     exit
//! }
//! "#;
//! let program = parse_program(src)?;
//! assert_eq!(program.function_count(), 1);
//! let printed = print_program(&program);
//! assert_eq!(parse_program(&printed)?, program);
//! # Ok::<(), impact_asm::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parse;
mod print;

pub use parse::{parse_program, ParseError, ParseErrorKind, MAX_INSTRUCTIONS};
pub use print::print_program;
