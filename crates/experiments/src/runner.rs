//! Two-phase table driver: plan every selected table on one shared
//! [`SimSession`], execute once, then finish and render.
//!
//! This is what makes the session's plan-time deduplication pay across
//! tables: all requests are registered *before* the session's one
//! [`SimSession::execute`] call, so overlapping demands (the optimized
//! trace alone is wanted by seven tables) collapse into one stream per
//! unique `(program, placement, seed, limits)` key. The `repro` binary
//! is a thin CLI shell around [`run_tables`].
//!
//! [`TABLES`] is the one list of tables. Each entry pairs a stable label
//! with a [`PlanFn`] that calls its module's `plan` and hands back a
//! [`Finisher`] around the module's `finish` and `render`; table ids,
//! `repro`'s selectors and its usage line all derive from that list.

use std::time::Instant;

use impact_support::ToJson;

use crate::prepare::Prepared;
use crate::session::SimSession;
use crate::tables::{
    ablation, assoc, estimate_validation, min_prob, paging, score_validation, static_validation,
    t1, t2, t3, t4, t5, t6, t7, t8, t9, variability,
};

/// Reads the executed session into one table's rendered text and its
/// typed rows as pretty-printed JSON.
pub type Finisher = Box<dyn FnOnce(&mut SimSession, &[Prepared]) -> (String, String)>;

/// Registers one table's demands on a session that has not executed yet.
pub type PlanFn = fn(&mut SimSession, &[Prepared]) -> Finisher;

/// Every table, in id order: table id `n` is entry `n - 1`. The paper's
/// tables come first, labelled `table1` .. `table9`; the reproduction's
/// extra experiments follow. The label names the table in file names,
/// metrics and the CLI.
pub const TABLES: &[(&str, PlanFn)] = &[
    ("table1", |s, p| {
        let plan = t1::plan(s, p);
        finisher(t1::render, move |s, _| t1::finish(s, &plan))
    }),
    ("table2", |s, p| {
        let plan = t2::plan(s, p);
        finisher(t2::render, move |s, _| t2::finish(s, plan))
    }),
    ("table3", |s, p| {
        let plan = t3::plan(s, p);
        finisher(t3::render, move |s, _| t3::finish(s, plan))
    }),
    ("table4", |s, p| {
        let plan = t4::plan(s, p);
        finisher(t4::render, move |s, _| t4::finish(s, plan))
    }),
    ("table5", |s, p| {
        let plan = t5::plan(s, p);
        finisher(t5::render, move |s, _| t5::finish(s, &plan))
    }),
    ("table6", |s, p| {
        let plan = t6::plan(s, p);
        finisher(t6::render, move |s, _| t6::finish(s, &plan))
    }),
    ("table7", |s, p| {
        let plan = t7::plan(s, p);
        finisher(t7::render, move |s, _| t7::finish(s, &plan))
    }),
    ("table8", |s, p| {
        let plan = t8::plan(s, p);
        finisher(t8::render, move |s, _| t8::finish(s, &plan))
    }),
    ("table9", |s, p| {
        let plan = t9::plan(s, p);
        finisher(t9::render, move |s, _| t9::finish(s, &plan))
    }),
    ("ablation", |s, p| {
        let plan = ablation::plan(s, p);
        finisher(ablation::render, move |s, _| ablation::finish(s, plan))
    }),
    ("paging", |s, p| {
        let plan = paging::plan(s, p);
        finisher(paging::render, move |s, _| paging::finish(s, plan))
    }),
    ("estimate", |s, p| {
        let plan = estimate_validation::plan(s, p);
        finisher(estimate_validation::render, move |s, p| {
            estimate_validation::finish(s, &plan, p)
        })
    }),
    ("variability", |s, p| {
        let plan = variability::plan(s, p);
        finisher(variability::render, move |s, _| {
            variability::finish(s, &plan)
        })
    }),
    ("assoc", |s, p| {
        let plan = assoc::plan(s, p);
        finisher(assoc::render, move |s, _| assoc::finish(s, &plan))
    }),
    ("minprob", |s, p| {
        let plan = min_prob::plan(s, p);
        finisher(min_prob::render, move |s, _| min_prob::finish(s, &plan))
    }),
    ("static", |s, p| {
        let plan = static_validation::plan(s, p);
        finisher(static_validation::render, move |s, p| {
            static_validation::finish(s, &plan, p)
        })
    }),
    ("score", |s, p| {
        let plan = score_validation::plan(s, p);
        finisher(score_validation::render, move |s, p| {
            score_validation::finish(s, &plan, p)
        })
    }),
];

/// Wraps a table's `finish` and `render` into its [`Finisher`].
fn finisher<R: ToJson + 'static>(
    render: fn(&[R]) -> String,
    finish: impl FnOnce(&mut SimSession, &[Prepared]) -> Vec<R> + 'static,
) -> Finisher {
    Box::new(move |session, prepared| {
        let rows = finish(session, prepared);
        (
            render(&rows),
            impact_support::json::rows_to_json_pretty(&rows),
        )
    })
}

/// The id of the table labelled `name` (its position in [`TABLES`],
/// counted from 1).
#[must_use]
pub fn table_id(name: &str) -> Option<u8> {
    (1..)
        .zip(TABLES)
        .find(|(_, (label, _))| *label == name)
        .map(|(n, _)| n)
}

/// One rendered table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableOutput {
    /// Stable label (`table1` ... `score`).
    pub label: &'static str,
    /// Rendered text in the paper's shape.
    pub text: String,
    /// The typed rows as pretty-printed JSON.
    pub json: String,
}

/// Plans every selected table on `session` (which must not have
/// executed yet), executes it once, then finishes and renders each table
/// in selection order.
///
/// Per-table plan and finish/render wall-clock is recorded on the
/// session's metrics ([`SimSession::record_table`]).
///
/// # Panics
///
/// Panics if a selected id is 0 or above `TABLES.len()`.
#[must_use]
pub fn run_tables(
    session: &mut SimSession,
    prepared: &[Prepared],
    selected: &[u8],
) -> Vec<TableOutput> {
    let planned: Vec<(&'static str, Finisher, u64)> = selected
        .iter()
        .map(|&n| {
            let (label, plan) = TABLES[usize::from(n) - 1];
            let t0 = Instant::now();
            let finish = plan(session, prepared);
            (label, finish, t0.elapsed().as_nanos() as u64)
        })
        .collect();

    session.execute();

    planned
        .into_iter()
        .map(|(label, finish, plan_nanos)| {
            let t0 = Instant::now();
            let (text, json) = finish(session, prepared);
            session.record_table(label, plan_nanos, t0.elapsed().as_nanos() as u64);
            TableOutput { label, text, json }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};

    use super::*;

    fn all_ids() -> Vec<u8> {
        (1..=TABLES.len() as u8).collect()
    }

    #[test]
    fn table_names_resolve_to_their_ids() {
        for n in all_ids() {
            assert_eq!(table_id(TABLES[usize::from(n) - 1].0), Some(n));
        }
        for bad in ["table0", "table10", "foo"] {
            assert_eq!(table_id(bad), None, "{bad}");
        }
    }

    #[test]
    fn shared_session_streams_each_key_once() {
        let budget = Budget::fast();
        let prepared: Vec<Prepared> = ["wc", "cmp"]
            .iter()
            .map(|n| prepare(&impact_workloads::by_name(n).unwrap(), &budget))
            .collect();
        let mut session = SimSession::new();
        let outputs = run_tables(&mut session, &prepared, &all_ids());
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
        // `estimate` guards the order-independent float accumulation:
        // its sums must not depend on the session's job count.
        let selected = all_ids();

        let mut serial = SimSession::new();
        let a = run_tables(&mut serial, &prepared, &selected);
        let mut parallel = SimSession::with_jobs(4);
        let b = run_tables(&mut parallel, &prepared, &selected);
        assert_eq!(a, b, "jobs must not change any table byte");

        // The shared session reproduces each table's standalone output.
        for (&n, shared) in selected.iter().zip(&a) {
            let alone = run_tables(&mut SimSession::new(), &prepared, &[n]);
            assert_eq!(alone, std::slice::from_ref(shared), "{}", shared.label);
        }
    }
}
