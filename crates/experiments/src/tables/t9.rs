//! Table 9 — the effect of code scaling (2 KB cache, 64-byte blocks,
//! partial loading).
//!
//! Code scaling emulates different instruction-encoding densities: every
//! basic block is scaled to 0.5× / 0.7× / 1.0× / 1.1× of its size and the
//! whole pipeline re-runs (profile, inline, trace-select, lay out) on the
//! scaled program, exactly as a compiler for a denser ISA would.

use impact_cache::{CacheConfig, FillPolicy};
use impact_layout::pipeline::Pipeline;
use impact_layout::scale::scale_code;

use crate::fmt;
use crate::prepare::{pipeline_config, Prepared};
use crate::session::{SimHandle, SimSession};

/// The paper's scaling factors.
pub const FACTORS: [f64; 4] = [0.5, 0.7, 1.0, 1.1];

/// One benchmark's miss/traffic across scaling factors.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// `(miss ratio, traffic ratio)` per entry of [`FACTORS`].
    pub cells: Vec<(f64, f64)>,
}

impact_support::json_object!(Row { name, cells });

/// Pending session requests for this table.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<(String, Vec<SimHandle>)>,
}

/// Re-runs the pipeline per `(benchmark, factor)` — fanned across the
/// session's worker threads — and registers one request per scaled
/// placement. Each scaled program yields a distinct trace key (the
/// key covers block sizes and placement addresses), so the
/// session cannot conflate densities; the 1.0× run reproduces the
/// standard optimized placement and is served from the shared memo.
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let config = [CacheConfig::direct_mapped(2048, 64).with_fill(FillPolicy::Partial)];
    let work: Vec<(&Prepared, f64)> = prepared
        .iter()
        .flat_map(|p| FACTORS.iter().map(move |&f| (p, f)))
        .collect();
    let results = impact_support::parallel_map(session.jobs(), work, |(p, factor)| {
        let scaled = scale_code(&p.baseline_program, factor);
        let pc = pipeline_config(&p.workload, &p.budget);
        Pipeline::new(pc).run(&scaled)
    });
    let rows = prepared
        .iter()
        .zip(results.chunks(FACTORS.len()))
        .map(|(p, scaled)| {
            let handles = scaled
                .iter()
                .map(|result| {
                    session.request(
                        &result.program,
                        &result.placement,
                        p.eval_seed(),
                        p.budget.eval_limits(&p.workload),
                        &config,
                    )
                })
                .collect();
            (p.workload.name.to_owned(), handles)
        })
        .collect();
    Plan { rows }
}

/// Reads the executed statistics into rows.
#[must_use]
pub fn finish(session: &SimSession, plan: &Plan) -> Vec<Row> {
    plan.rows
        .iter()
        .map(|(name, handles)| Row {
            name: name.clone(),
            cells: handles
                .iter()
                .map(|h| {
                    let s = session.stats(h)[0];
                    (s.miss_ratio(), s.traffic_ratio())
                })
                .collect(),
        })
        .collect()
}

/// Re-runs the pipeline per scaling factor and simulates the partial-
/// loading configuration (one-shot session wrapper around
/// [`plan`] / [`finish`]).
#[must_use]
pub fn run(prepared: &[Prepared]) -> Vec<Row> {
    let mut session = SimSession::new();
    let plan = plan(&mut session, prepared);
    session.execute();
    finish(&session, &plan)
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut header = vec!["name".to_owned()];
    for f in FACTORS {
        header.push(format!("{f} miss"));
        header.push(format!("{f} traffic"));
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.name.clone()];
            for &(m, t) in &r.cells {
                row.push(fmt::pct(m));
                row.push(fmt::pct(t));
            }
            row
        })
        .collect();
    format!(
        "Table 9. Effect of Code Scaling (2KB, 64B blocks, partial loading)\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};

    use super::*;

    #[test]
    fn scaling_keeps_ratios_stable_for_cache_friendly_benchmarks() {
        let w = impact_workloads::by_name("wc").unwrap();
        let p = prepare(&w, &Budget::fast());
        let rows = run(std::slice::from_ref(&p));
        assert_eq!(rows[0].cells.len(), 4);
        // wc fits every cache at every density: all cells stay tiny.
        for &(m, _) in &rows[0].cells {
            assert!(m < 0.02, "wc miss under scaling: {m}");
        }
        assert!(render(&rows).contains("Table 9"));
    }
}
