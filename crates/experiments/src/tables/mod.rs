//! One module per table. Each exposes `plan` (register simulations on a
//! shared session), `finish` (read the executed session into typed rows),
//! `run` (a one-shot session around both) and `render` (text in the
//! paper's shape). Tables read the prepared benchmarks; only table 9 runs
//! the pipeline again, on its scaled programs.

pub mod ablation;
pub mod assoc;
pub mod estimate_validation;
pub mod min_prob;
pub mod paging;
pub mod score_validation;
pub mod static_validation;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t4;
pub mod t5;
pub mod t6;
pub mod t7;
pub mod t8;
pub mod t9;
pub mod variability;
