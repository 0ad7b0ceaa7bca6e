//! Program intermediate representation for the IMPACT-I instruction
//! placement reproduction (Hwu & Chang, ISCA 1989).
//!
//! The paper's compiler represents a program as a *weighted call graph*
//! whose nodes are functions, each carrying a *weighted control graph* of
//! basic blocks. This crate provides the unweighted structural half of that
//! picture:
//!
//! * [`Instr`] — a single fixed-width (4-byte) RISC-style instruction.
//! * [`BasicBlock`] — straight-line instructions plus one [`Terminator`].
//! * [`Function`] — a control-flow graph of basic blocks with a single
//!   entry block.
//! * [`Program`] — a set of functions with a single entry function, plus a
//!   derived static [`CallGraph`].
//!
//! Execution *weights* (profiles) live in the `impact-profile` crate; this
//! crate only describes structure and the stochastic *behavior model*
//! ([`BranchBias`]) that drives the profiling interpreter.
//!
//! # Example
//!
//! Build a function with a counted loop and validate the program:
//!
//! ```
//! use impact_ir::{ProgramBuilder, Instr, Terminator, BranchBias};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main");
//! let entry = f.block(vec![Instr::IntAlu; 3]);
//! let body = f.block(vec![Instr::Load, Instr::IntAlu, Instr::Store]);
//! let exit = f.block(vec![Instr::IntAlu]);
//! f.set_entry(entry);
//! f.terminate(entry, Terminator::jump(body));
//! // Loop back to `body` with probability 0.9, fall out with 0.1.
//! f.terminate(body, Terminator::branch(body, exit, BranchBias::fixed(0.9)));
//! f.terminate(exit, Terminator::Exit);
//! let main = f.finish();
//! pb.set_entry(main);
//! let program = pb.finish()?;
//! assert_eq!(program.function(main).block_count(), 3);
//! # Ok::<(), impact_ir::ValidateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod builder;
mod callgraph;
mod ids;
mod inst;
mod program;
mod validate;

pub use block::{site_key, BasicBlock, BranchBias, Terminator, HELD_OUT_SEED};
pub use builder::{FunctionBuilder, ProgramBuilder};
pub use callgraph::{CallGraph, CallSite};
pub use ids::{BlockId, FuncId};
pub use inst::{Instr, BYTES_PER_INSTR};
pub use program::{Function, Program};
pub use validate::ValidateError;
