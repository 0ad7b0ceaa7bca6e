//! Two-phase table driver: plan every selected table on one shared
//! [`SimSession`], execute once, then finish and render.
//!
//! This is what makes the session's plan-time deduplication pay across
//! tables: all requests are registered *before* the session's one
//! [`SimSession::execute`] call, so overlapping demands (the optimized
//! trace alone is wanted by seven tables) collapse into one stream per
//! unique `(program, placement, seed, limits)` key. The `repro` binary
//! is a thin CLI shell around [`run_tables`].

use std::time::Instant;

use crate::prepare::Prepared;
use crate::session::SimSession;
use crate::tables;

/// Table selector used by the `repro` CLI: `1..=9` are the paper's
/// tables, `10..=17` the reproduction's extra experiments.
pub const TABLE_IDS: std::ops::RangeInclusive<u8> = 1..=17;

/// The stable label of table `n` (file names, metrics, CLI).
///
/// # Panics
///
/// Panics if `n` is outside [`TABLE_IDS`].
#[must_use]
pub fn label(n: u8) -> &'static str {
    match n {
        1 => "table1",
        2 => "table2",
        3 => "table3",
        4 => "table4",
        5 => "table5",
        6 => "table6",
        7 => "table7",
        8 => "table8",
        9 => "table9",
        10 => "ablation",
        11 => "paging",
        12 => "estimate",
        13 => "variability",
        14 => "assoc",
        15 => "minprob",
        16 => "static",
        17 => "score",
        _ => panic!("unknown table id {n}"),
    }
}

/// One rendered table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableOutput {
    /// Stable label (`table1` ... `minprob`).
    pub label: &'static str,
    /// Rendered text in the paper's shape.
    pub text: String,
    /// The typed rows as pretty-printed JSON.
    pub json: String,
}

/// A planned table waiting for the session to execute.
enum TablePlan {
    T1(tables::t1::Plan),
    T2(tables::t2::Plan),
    T3(tables::t3::Plan),
    T4(tables::t4::Plan),
    T5(tables::t5::Plan),
    T6(tables::t6::Plan),
    T7(tables::t7::Plan),
    T8(tables::t8::Plan),
    T9(tables::t9::Plan),
    Ablation(tables::ablation::Plan),
    Paging(tables::paging::Plan),
    Estimate(tables::estimate_validation::Plan),
    Variability(tables::variability::Plan),
    Assoc(tables::assoc::Plan),
    MinProb(tables::min_prob::Plan),
    Static(tables::static_validation::Plan),
    Score(tables::score_validation::Plan),
}

fn plan_one(n: u8, session: &mut SimSession, prepared: &[Prepared]) -> TablePlan {
    match n {
        1 => TablePlan::T1(tables::t1::plan(session, prepared)),
        2 => TablePlan::T2(tables::t2::plan(session, prepared)),
        3 => TablePlan::T3(tables::t3::plan(session, prepared)),
        4 => TablePlan::T4(tables::t4::plan(session, prepared)),
        5 => TablePlan::T5(tables::t5::plan(session, prepared)),
        6 => TablePlan::T6(tables::t6::plan(session, prepared)),
        7 => TablePlan::T7(tables::t7::plan(session, prepared)),
        8 => TablePlan::T8(tables::t8::plan(session, prepared)),
        9 => TablePlan::T9(tables::t9::plan(session, prepared)),
        10 => TablePlan::Ablation(tables::ablation::plan(session, prepared)),
        11 => TablePlan::Paging(tables::paging::plan(session, prepared)),
        12 => TablePlan::Estimate(tables::estimate_validation::plan(session, prepared)),
        13 => TablePlan::Variability(tables::variability::plan(session, prepared)),
        14 => TablePlan::Assoc(tables::assoc::plan(session, prepared)),
        15 => TablePlan::MinProb(tables::min_prob::plan(session, prepared)),
        16 => TablePlan::Static(tables::static_validation::plan(session, prepared)),
        17 => TablePlan::Score(tables::score_validation::plan(session, prepared)),
        _ => panic!("unknown table id {n}"),
    }
}

fn finish_one(
    plan: TablePlan,
    session: &mut SimSession,
    prepared: &[Prepared],
) -> (String, String) {
    fn pack<R: impact_support::ToJson>(text: String, rows: &[R]) -> (String, String) {
        (text, impact_support::json::rows_to_json_pretty(rows))
    }
    match plan {
        TablePlan::T1(p) => {
            let rows = tables::t1::finish(session, &p);
            pack(tables::t1::render(&rows), &rows)
        }
        TablePlan::T2(p) => {
            let rows = tables::t2::finish(session, p);
            pack(tables::t2::render(&rows), &rows)
        }
        TablePlan::T3(p) => {
            let rows = tables::t3::finish(session, p);
            pack(tables::t3::render(&rows), &rows)
        }
        TablePlan::T4(p) => {
            let rows = tables::t4::finish(session, p);
            pack(tables::t4::render(&rows), &rows)
        }
        TablePlan::T5(p) => {
            let rows = tables::t5::finish(session, &p);
            pack(tables::t5::render(&rows), &rows)
        }
        TablePlan::T6(p) => {
            let rows = tables::t6::finish(session, &p);
            pack(tables::t6::render(&rows), &rows)
        }
        TablePlan::T7(p) => {
            let rows = tables::t7::finish(session, &p);
            pack(tables::t7::render(&rows), &rows)
        }
        TablePlan::T8(p) => {
            let rows = tables::t8::finish(session, &p);
            pack(tables::t8::render(&rows), &rows)
        }
        TablePlan::T9(p) => {
            let rows = tables::t9::finish(session, &p);
            pack(tables::t9::render(&rows), &rows)
        }
        TablePlan::Ablation(p) => {
            let rows = tables::ablation::finish(session, p);
            pack(tables::ablation::render(&rows), &rows)
        }
        TablePlan::Paging(p) => {
            let rows = tables::paging::finish(session, p);
            pack(tables::paging::render(&rows), &rows)
        }
        TablePlan::Estimate(p) => {
            let rows = tables::estimate_validation::finish(session, &p, prepared);
            pack(tables::estimate_validation::render(&rows), &rows)
        }
        TablePlan::Variability(p) => {
            let rows = tables::variability::finish(session, &p);
            pack(tables::variability::render(&rows), &rows)
        }
        TablePlan::Assoc(p) => {
            let rows = tables::assoc::finish(session, &p);
            pack(tables::assoc::render(&rows), &rows)
        }
        TablePlan::MinProb(p) => {
            let rows = tables::min_prob::finish(session, &p);
            pack(tables::min_prob::render(&rows), &rows)
        }
        TablePlan::Static(p) => {
            let rows = tables::static_validation::finish(session, &p, prepared);
            pack(tables::static_validation::render(&rows), &rows)
        }
        TablePlan::Score(p) => {
            let rows = tables::score_validation::finish(session, &p, prepared);
            pack(tables::score_validation::render(&rows), &rows)
        }
    }
}

/// Plans every selected table on `session` (which must not have
/// executed yet), executes it once, then finishes and renders each table
/// in selection order.
///
/// Per-table plan and finish/render wall-clock is recorded on the
/// session's metrics ([`SimSession::record_table`]).
#[must_use]
pub fn run_tables(
    session: &mut SimSession,
    prepared: &[Prepared],
    selected: &[u8],
) -> Vec<TableOutput> {
    let plans: Vec<(u8, TablePlan, u64)> = selected
        .iter()
        .map(|&n| {
            let t0 = Instant::now();
            let plan = plan_one(n, session, prepared);
            (n, plan, t0.elapsed().as_nanos() as u64)
        })
        .collect();

    session.execute();

    plans
        .into_iter()
        .map(|(n, plan, plan_nanos)| {
            let t0 = Instant::now();
            let (text, json) = finish_one(plan, session, prepared);
            session.record_table(label(n), plan_nanos, t0.elapsed().as_nanos() as u64);
            TableOutput {
                label: label(n),
                text,
                json,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};

    use super::*;

    #[test]
    fn shared_session_streams_each_key_once() {
        let budget = Budget::fast();
        let prepared: Vec<Prepared> = ["wc", "cmp"]
            .iter()
            .map(|n| prepare(&impact_workloads::by_name(n).unwrap(), &budget))
            .collect();
        let mut session = SimSession::new();
        let selected: Vec<u8> = TABLE_IDS.collect();
        let outputs = run_tables(&mut session, &prepared, &selected);
        assert_eq!(outputs.len(), 17);

        let m = session.metrics();
        assert_eq!(m.unique_traces, m.traces_streamed);
        assert!(
            m.memo_key_hits > 0,
            "tables overlap heavily; keys must be shared"
        );
        assert!(m.memo_served > 0, "identical configs must be memo-served");
        assert_eq!(m.tables.len(), 17);
    }

    #[test]
    fn outputs_match_standalone_run_and_any_job_count() {
        let budget = Budget::fast();
        let prepared = vec![prepare(&impact_workloads::by_name("wc").unwrap(), &budget)];
        // 12 (estimate) guards the order-independent float accumulation:
        // its sums must not depend on the session's job count.
        let selected = [1u8, 5, 6, 8, 12];

        let mut serial = SimSession::new();
        let a = run_tables(&mut serial, &prepared, &selected);
        let mut parallel = SimSession::with_jobs(4);
        let b = run_tables(&mut parallel, &prepared, &selected);
        assert_eq!(a, b, "jobs must not change any table byte");

        // The shared session reproduces each table's standalone output.
        let t6 = tables::t6::run(&prepared);
        let shared_t6 = a.iter().find(|o| o.label == "table6").unwrap();
        assert_eq!(shared_t6.text, tables::t6::render(&t6));
    }
}
