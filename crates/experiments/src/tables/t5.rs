//! Table 5 — static and dynamic code sizes.

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::{SimHandle, SimSession};

/// One benchmark's size characteristics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Total static bytes of the laid-out (post-inlining) program.
    pub total_static_bytes: u64,
    /// Bytes with non-trivial execution count (the effective region).
    pub effective_static_bytes: u64,
    /// Dynamic instruction accesses in the evaluation trace.
    pub dynamic_accesses: u64,
}

impact_support::json_object!(Row {
    name,
    total_static_bytes,
    effective_static_bytes,
    dynamic_accesses
});

/// Pending session requests for this table.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<(String, u64, u64, SimHandle)>,
}

/// Registers one empty-config (trace-length only) request per benchmark;
/// the optimized trace is shared with every other table that streams it.
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let rows = prepared
        .iter()
        .map(|p| {
            let handle = session.request(
                &p.result.program,
                &p.result.placement,
                p.eval_seed(),
                p.budget.eval_limits(&p.workload),
                &[],
            );
            (
                p.workload.name.to_owned(),
                p.result.total_static_bytes(),
                p.result.effective_static_bytes(),
                handle,
            )
        })
        .collect();
    Plan { rows }
}

/// Reads the executed trace lengths into rows.
#[must_use]
pub fn finish(session: &SimSession, plan: &Plan) -> Vec<Row> {
    plan.rows
        .iter()
        .map(|(name, total, effective, handle)| Row {
            name: name.clone(),
            total_static_bytes: *total,
            effective_static_bytes: *effective,
            dynamic_accesses: session.instructions(handle),
        })
        .collect()
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = [
        "name",
        "total static bytes",
        "effective static bytes",
        "dynamic accesses",
    ]
    .map(str::to_owned)
    .to_vec();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                fmt::kbytes(r.total_static_bytes),
                fmt::kbytes(r.effective_static_bytes),
                fmt::mcount(r.dynamic_accesses),
            ]
        })
        .collect();
    format!(
        "Table 5. Static and Dynamic Code Sizes of Benchmarks\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn effective_is_at_most_total() {
        let w = impact_workloads::by_name("compress").unwrap();
        let p = prepare(&w, &Budget::fast());
        let rows = run_alone(std::slice::from_ref(&p), plan, |s, plan| finish(s, &plan));
        let r = &rows[0];
        assert!(r.effective_static_bytes <= r.total_static_bytes);
        assert!(
            r.effective_static_bytes < r.total_static_bytes,
            "compress has dead utilities; effective must be strictly smaller"
        );
        assert!(r.dynamic_accesses > 0);
        assert!(render(&rows).contains("compress"));
    }
}
