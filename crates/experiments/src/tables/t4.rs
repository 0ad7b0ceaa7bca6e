//! Table 4 — trace selection results.

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::SimSession;

/// One benchmark's trace-quality statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Tail-to-header transfer fraction.
    pub neutral: f64,
    /// Mid-trace entry/exit fraction.
    pub undesirable: f64,
    /// Intra-trace sequential fraction.
    pub desirable: f64,
    /// Mean basic blocks per trace.
    pub trace_length: f64,
}

impact_support::json_object!(Row {
    name,
    neutral,
    undesirable,
    desirable,
    trace_length
});

/// Session-uniform plan/finish shape: this table is profile-only (no
/// simulation), so its rows are fully computed at plan time.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<Row>,
}

/// Extracts one row per prepared benchmark from its trace-quality report
/// (nothing to simulate).
pub fn plan(_session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let rows = prepared
        .iter()
        .map(|p| {
            let q = &p.result.trace_quality;
            Row {
                name: p.workload.name.to_owned(),
                neutral: q.neutral,
                undesirable: q.undesirable,
                desirable: q.desirable,
                trace_length: q.mean_trace_length,
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
        "neutral",
        "undesirable",
        "desirable",
        "trace length",
    ]
    .map(str::to_owned)
    .to_vec();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                fmt::pct(r.neutral),
                fmt::pct(r.undesirable),
                fmt::pct(r.desirable),
                format!("{:.1}", r.trace_length),
            ]
        })
        .collect();
    format!(
        "Table 4. Trace Selection Results\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn fractions_sum_to_one_and_tar_is_branchier_than_cmp() {
        let budget = Budget::fast();
        let cmp = prepare(&impact_workloads::by_name("cmp").unwrap(), &budget);
        let tar = prepare(&impact_workloads::by_name("tar").unwrap(), &budget);
        let rows = run_alone(&[cmp, tar], plan, |s, plan| finish(s, plan));
        for r in &rows {
            let sum = r.neutral + r.undesirable + r.desirable;
            assert!((sum - 1.0).abs() < 1e-6, "{r:?}");
        }
        assert!(
            rows[0].trace_length > rows[1].trace_length,
            "cmp traces must be longer than tar's: {rows:?}"
        );
        assert!(render(&rows).contains("trace length"));
    }
}
