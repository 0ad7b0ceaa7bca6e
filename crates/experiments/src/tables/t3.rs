//! Table 3 — inline expansion results.

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::SimSession;

/// One benchmark's inlining outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Static code size increase ("code inc").
    pub code_increase: f64,
    /// Fraction of dynamic calls eliminated ("call dec").
    pub call_decrease: f64,
    /// Dynamic instructions per remaining call ("DI's per call";
    /// `f64::INFINITY` when no calls remain).
    pub instrs_per_call: f64,
    /// Control transfers per remaining call ("CT's per call").
    pub transfers_per_call: f64,
}

impact_support::json_object!(Row {
    name,
    code_increase,
    call_decrease,
    instrs_per_call,
    transfers_per_call
});

/// Session-uniform plan/finish shape: this table is profile-only (no
/// simulation), so its rows are fully computed at plan time.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<Row>,
}

/// Extracts one row per prepared benchmark from its inline report
/// (nothing to simulate).
pub fn plan(_session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let rows = prepared
        .iter()
        .map(|p| {
            let r = &p.result.inline_report;
            Row {
                name: p.workload.name.to_owned(),
                code_increase: r.code_increase,
                call_decrease: r.call_decrease,
                instrs_per_call: r.instrs_per_call,
                transfers_per_call: r.transfers_per_call,
            }
        })
        .collect();
    Plan { rows }
}

/// Returns the rows computed in [`plan`].
#[must_use]
pub fn finish(_session: &SimSession, plan: Plan) -> Vec<Row> {
    plan.rows
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = [
        "name",
        "code inc",
        "call dec",
        "DI's per call",
        "CT's per call",
    ]
    .map(str::to_owned)
    .to_vec();
    let per_call = |x: f64| {
        if x.is_finite() {
            format!("{x:.0}")
        } else {
            "inf".to_owned()
        }
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                fmt::pct(r.code_increase),
                fmt::pct(r.call_decrease),
                per_call(r.instrs_per_call),
                per_call(r.transfers_per_call),
            ]
        })
        .collect();
    format!(
        "Table 3. Inline Expansion Results\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn grep_inlines_most_calls_tee_inlines_none() {
        let budget = Budget::fast();
        let grep = prepare(&impact_workloads::by_name("grep").unwrap(), &budget);
        let tee = prepare(&impact_workloads::by_name("tee").unwrap(), &budget);
        let rows = run_alone(&[grep, tee], plan, |s, plan| finish(s, plan));
        assert!(
            rows[0].call_decrease > 0.5,
            "grep should inline most calls: {rows:?}"
        );
        // tee: the syscall stubs (the overwhelming call majority) must
        // survive; only the negligible main→phase plumbing may inline.
        assert!(
            rows[1].call_decrease < 0.05,
            "tee's syscall stubs must not inline: {rows:?}"
        );
        assert!(render(&rows).contains("tee"));
    }
}
