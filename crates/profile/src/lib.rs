//! Execution profiling for the IMPACT-I reproduction.
//!
//! The paper's Step 1 instruments a C program with probe calls and runs it
//! on representative inputs, producing a *weighted call graph* (function
//! and call-arc execution counts) and per-function *weighted control
//! graphs* (basic-block and branch-arc execution counts).
//!
//! Here the program is an [`impact_ir::Program`] whose branches carry a
//! stochastic behavior model, and an "input" is a seed. An [`Image`]
//! compiles the program into one flat array of blocks and interprets it
//! under a seed; the [`Profiler`] walks it over several seeds, counting
//! into flat per-block arrays, and builds one [`Profile`] from the counts
//! after the last run.
//!
//! # Example
//!
//! ```
//! use impact_ir::{ProgramBuilder, Instr, Terminator, BranchBias};
//! use impact_profile::Profiler;
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main");
//! let hot = f.block(vec![Instr::Load, Instr::IntAlu]);
//! let exit = f.block(vec![]);
//! f.terminate(hot, Terminator::branch(hot, exit, BranchBias::fixed(0.95)));
//! f.terminate(exit, Terminator::Exit);
//! let main = f.finish();
//! pb.set_entry(main);
//! let program = pb.finish()?;
//!
//! let profile = Profiler::new().runs(4).profile(&program);
//! let hot_weight = profile.block_weight(main, impact_ir::BlockId::new(0));
//! let exit_weight = profile.block_weight(main, impact_ir::BlockId::new(1));
//! assert!(hot_weight > exit_weight);
//! # Ok::<(), impact_ir::ValidateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod profiler;
pub mod walk;

pub use profiler::{FunctionProfile, Profile, ProfileSource, Profiler};
pub use walk::{ExecLimits, ExecSummary, Image};
