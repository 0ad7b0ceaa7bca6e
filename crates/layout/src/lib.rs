//! IMPACT-I instruction placement (the contribution of Hwu & Chang,
//! ISCA 1989).
//!
//! The pipeline has five steps; each maps to a module here:
//!
//! 1. **Execution profiling** — provided by `impact-profile`.
//! 2. **Function inline expansion** — [`inline`].
//! 3. **Trace selection** — [`trace_select`] (Appendix `TraceSelection`,
//!    `MIN_PROB = 0.7`).
//! 4. **Function layout** — [`function_layout`] (Appendix
//!    `FunctionBodyLayout`): order traces for sequential locality, move
//!    never-executed traces to the bottom of the function.
//! 5. **Global layout** — [`global_layout`] (Appendix `GlobalLayout`):
//!    weighted depth-first ordering of functions; all *effective* regions
//!    first, then all *non-executed* regions.
//!
//! [`placement`] turns the combined decisions into a byte-addressed memory
//! map, [`pipeline`] orchestrates the whole flow, [`baseline`] provides
//! unoptimized layouts for comparison, [`scale`] implements the code
//! scaling experiment (§4.2.3), and [`quality`] computes the paper's
//! Table 3/4 statistics.
//!
//! # Example: lay out a program end to end
//!
//! ```
//! use impact_ir::{ProgramBuilder, Terminator, BranchBias, Instr};
//! use impact_layout::pipeline::{Pipeline, PipelineConfig};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main");
//! let a = f.block_n(2);
//! let b = f.block_n(3);
//! let c = f.block_n(1);
//! f.terminate(a, Terminator::branch(b, c, BranchBias::fixed(0.9)));
//! f.terminate(b, Terminator::jump(a));
//! f.terminate(c, Terminator::Exit);
//! let main = f.finish();
//! pb.set_entry(main);
//! let program = pb.finish()?;
//!
//! let result = Pipeline::new(PipelineConfig::default()).run(&program);
//! assert!(result.placement.total_bytes() >= program.total_bytes());
//! # Ok::<(), impact_ir::ValidateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod function_layout;
pub mod global_layout;
pub mod inline;
pub mod materialize;
pub mod ph;
pub mod pipeline;
pub mod placement;
pub mod quality;
pub mod scale;
pub mod trace_select;

pub use function_layout::FunctionLayout;
pub use global_layout::GlobalOrder;
pub use inline::{InlineConfig, Inliner};
pub use pipeline::{Pipeline, PipelineConfig, PipelineError, PipelineResult};
pub use placement::Placement;
pub use quality::{InlineReport, TraceQuality};
pub use trace_select::{TraceAssignment, TraceSelector, MIN_PROB};
