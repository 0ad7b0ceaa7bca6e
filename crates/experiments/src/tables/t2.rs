//! Table 2 — profile characteristics of the benchmarks.
//!
//! The paper reports C source lines, profiling-run counts, dynamic
//! instructions and dynamic control transfers (excluding call/return)
//! accumulated over all profiling runs. Our models have no C source, so
//! the static measure is basic-block count; everything else matches the
//! paper's definitions.

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::SimSession;

/// One benchmark's profile characteristics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Static basic blocks (stands in for the paper's "C lines").
    pub blocks: u64,
    /// Profiling runs (distinct input seeds).
    pub runs: u32,
    /// Dynamic instructions accumulated over all profiling runs.
    pub instructions: u64,
    /// Dynamic control transfers other than call/return, over all runs.
    pub control: u64,
}

impact_support::json_object!(Row {
    name,
    blocks,
    runs,
    instructions,
    control
});

/// Session-uniform plan/finish shape: this table is profile-only (no
/// simulation), so its rows are fully computed at plan time.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<Row>,
}

/// Computes one row per prepared benchmark from its pre-inlining profile
/// (Table 2 describes the original programs); nothing to simulate.
pub fn plan(_session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let rows = prepared
        .iter()
        .map(|p| {
            let profile = &p.result.pre_inline_profile;
            Row {
                name: p.workload.name.to_owned(),
                blocks: p
                    .baseline_program
                    .functions()
                    .map(|(_, f)| f.block_count() as u64)
                    .sum(),
                runs: profile.runs,
                instructions: profile.totals.instructions,
                control: profile.totals.intra_transfers,
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
    let header = ["name", "blocks", "runs", "instructions", "control"]
        .map(str::to_owned)
        .to_vec();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.blocks.to_string(),
                r.runs.to_string(),
                fmt::mcount(r.instructions),
                fmt::mcount(r.control),
            ]
        })
        .collect();
    format!(
        "Table 2. Profile Results\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn rows_reflect_profiles() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let p = prepare(&w, &Budget::fast());
        let rows = run_alone(std::slice::from_ref(&p), plan, |s, plan| finish(s, plan));
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.name, "cmp");
        assert_eq!(r.runs, w.spec.profile_runs);
        assert!(r.instructions > 0);
        assert!(r.control > 0);
        assert!(r.control < r.instructions);
        assert!(render(&rows).contains("cmp"));
    }
}
