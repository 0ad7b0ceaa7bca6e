//! Estimator validation: predicted vs. trace-simulated miss ratios.
//!
//! The analytical estimator ([`crate::estimate`]) is only useful if it
//! tracks the trace-driven simulator; this table measures the gap per
//! benchmark across the direct-mapped design space the paper explores.
//! Predictions come from the *profiling* runs; simulations use the
//! *held-out* evaluation trace — so the gap includes both model error
//! and train/test input variation, exactly the setting in which the
//! paper hoped to use such an estimator.

use impact_cache::CacheConfig;

use crate::estimate::estimate_direct_mapped;
use crate::fmt;
use crate::prepare::Prepared;
use crate::session::{SimHandle, SimSession};

/// Cache sizes compared (64-byte blocks throughout).
pub const CACHE_SIZES: [u64; 3] = [512, 2048, 8192];

/// One benchmark's predicted/simulated pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// `(predicted, simulated)` miss ratios per entry of [`CACHE_SIZES`].
    pub cells: Vec<(f64, f64)>,
}

impact_support::json_object!(Row { name, cells });

/// Pending session requests for this table.
#[derive(Debug)]
pub struct Plan {
    configs: Vec<CacheConfig>,
    rows: Vec<(usize, SimHandle)>,
}

/// Registers the simulated half of every comparison (the predictions are
/// computed analytically in [`finish`]).
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let configs: Vec<CacheConfig> = CACHE_SIZES
        .iter()
        .map(|&s| CacheConfig::direct_mapped(s, 64))
        .collect();
    let rows = prepared
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let handle = session.request(
                &p.result.program,
                &p.result.placement,
                p.eval_seed(),
                p.budget.eval_limits(&p.workload),
                &configs,
            );
            (i, handle)
        })
        .collect();
    Plan { configs, rows }
}

/// Pairs the analytic predictions with the executed simulations.
#[must_use]
pub fn finish(session: &SimSession, plan: &Plan, prepared: &[Prepared]) -> Vec<Row> {
    plan.rows
        .iter()
        .map(|(i, handle)| {
            let p = &prepared[*i];
            let simulated = session.stats(handle);
            let cells = plan
                .configs
                .iter()
                .zip(&simulated)
                .map(|(&config, s)| {
                    let est = estimate_direct_mapped(
                        &p.result.program,
                        &p.result.profile,
                        &p.result.placement,
                        config,
                    );
                    (est.miss_ratio, s.miss_ratio())
                })
                .collect();
            Row {
                name: p.workload.name.to_owned(),
                cells,
            }
        })
        .collect()
}

/// Mean absolute error (in percentage points of miss ratio) per cache
/// size.
#[must_use]
pub fn mean_absolute_error(rows: &[Row]) -> Vec<f64> {
    let n = rows.len().max(1) as f64;
    (0..CACHE_SIZES.len())
        .map(|i| {
            rows.iter()
                .map(|r| (r.cells[i].0 - r.cells[i].1).abs())
                .sum::<f64>()
                / n
        })
        .collect()
}

/// Renders the table with a mean-absolute-error row.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut header = vec!["name".to_owned()];
    for &s in &CACHE_SIZES {
        header.push(format!("{s}B predicted"));
        header.push(format!("{s}B simulated"));
    }
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.name.clone()];
            for &(p, s) in &r.cells {
                row.push(fmt::pct(p));
                row.push(fmt::pct(s));
            }
            row
        })
        .collect();
    let mut mae_row = vec!["mean |err|".to_owned()];
    for e in mean_absolute_error(rows) {
        mae_row.push(fmt::pct(e));
        mae_row.push(String::new());
    }
    table.push(mae_row);
    format!(
        "Estimator. Weighted-graph miss prediction vs trace simulation (direct-mapped, 64B blocks)\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn estimator_tracks_simulation_within_a_point_for_cache_friendly_code() {
        let w = impact_workloads::by_name("wc").unwrap();
        let p = prepare(&w, &Budget::fast());
        let prepared = std::slice::from_ref(&p);
        let rows = run_alone(prepared, plan, |s, plan| finish(s, &plan, prepared));
        for &(pred, sim) in &rows[0].cells {
            assert!(
                (pred - sim).abs() < 0.01,
                "wc: predicted {pred:.4} vs simulated {sim:.4}"
            );
        }
        assert!(render(&rows).contains("Estimator"));
    }
}
