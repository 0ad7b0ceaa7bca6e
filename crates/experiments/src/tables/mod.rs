//! One module per table. Each exposes `plan` (register simulations on a
//! shared session), `finish` (read the executed session into typed rows)
//! and `render` (text in the paper's shape); [`crate::runner::TABLES`]
//! lists every table once and drives all three. Tables read the prepared
//! benchmarks; only table 9 runs the pipeline again, on its scaled
//! programs.

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

/// Plans one table on a fresh session, executes it and finishes it: the
/// standalone run the tables' own tests check.
#[cfg(test)]
pub(crate) fn run_alone<P, R>(
    prepared: &[crate::prepare::Prepared],
    plan: impl FnOnce(&mut crate::session::SimSession, &[crate::prepare::Prepared]) -> P,
    finish: impl FnOnce(&mut crate::session::SimSession, P) -> R,
) -> R {
    let mut session = crate::session::SimSession::new();
    let plan = plan(&mut session, prepared);
    session.execute();
    finish(&mut session, plan)
}
