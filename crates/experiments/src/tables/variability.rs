//! Input-sensitivity analysis: the headline miss ratio across several
//! held-out evaluation inputs.
//!
//! The paper evaluates each benchmark on a single "randomly selected"
//! input. This table re-runs the headline configuration (2 KB
//! direct-mapped, 64 B blocks, optimized placement) over `SEEDS`
//! distinct held-out inputs per benchmark and reports the spread — the
//! reproduction's answer to "how much did the single-trace methodology
//! matter?".

use impact_cache::CacheConfig;

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::{SimHandle, SimSession};

/// Number of held-out inputs evaluated per benchmark.
pub const SEEDS: u64 = 5;

/// Headline geometry.
pub const CACHE_BYTES: u64 = 2048;
/// Headline block size.
pub const BLOCK_BYTES: u64 = 64;

/// Miss-ratio spread for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Per-seed miss ratios, in seed order.
    pub miss_ratios: Vec<f64>,
    /// Mean miss ratio.
    pub mean: f64,
    /// Sample standard deviation (0 when `SEEDS < 2`).
    pub std_dev: f64,
    /// Smallest observed.
    pub min: f64,
    /// Largest observed.
    pub max: f64,
}

impact_support::json_object!(Row {
    name,
    miss_ratios,
    mean,
    std_dev,
    min,
    max
});

/// Pending session requests for this table.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<(String, Vec<SimHandle>)>,
}

/// Registers one request per held-out seed per benchmark. Each seed is a
/// distinct trace key; the `k = 0` seed *is* the standard evaluation
/// input, so that stream is shared with the headline tables.
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let configs = [CacheConfig::direct_mapped(CACHE_BYTES, BLOCK_BYTES)];
    let rows = prepared
        .iter()
        .map(|p| {
            let limits = p.budget.eval_limits(&p.workload);
            let handles = (0..SEEDS)
                .map(|k| {
                    // Spacing by a large stride keeps the extra seeds far
                    // from both the profiling range and each other.
                    let seed = p.eval_seed() + k * 7919;
                    session.request(
                        &p.result.program,
                        &p.result.placement,
                        seed,
                        limits,
                        &configs,
                    )
                })
                .collect();
            (p.workload.name.to_owned(), handles)
        })
        .collect();
    Plan { rows }
}

/// Reads the executed statistics into spread rows.
#[must_use]
pub fn finish(session: &SimSession, plan: &Plan) -> Vec<Row> {
    plan.rows
        .iter()
        .map(|(name, handles)| {
            let miss_ratios: Vec<f64> = handles
                .iter()
                .map(|h| session.stats(h)[0].miss_ratio())
                .collect();
            let n = miss_ratios.len() as f64;
            let mean = miss_ratios.iter().sum::<f64>() / n;
            let var = if miss_ratios.len() > 1 {
                miss_ratios.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (n - 1.0)
            } else {
                0.0
            };
            let min = miss_ratios.iter().copied().fold(f64::INFINITY, f64::min);
            let max = miss_ratios.iter().copied().fold(0.0f64, f64::max);
            Row {
                name: name.clone(),
                miss_ratios,
                mean,
                std_dev: var.sqrt(),
                min,
                max,
            }
        })
        .collect()
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = ["name", "mean miss", "std dev", "min", "max"]
        .map(str::to_owned)
        .to_vec();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                fmt::pct(r.mean),
                fmt::pct(r.std_dev),
                fmt::pct(r.min),
                fmt::pct(r.max),
            ]
        })
        .collect();
    format!(
        "Variability. Optimized 2KB/64B miss ratio over {SEEDS} held-out inputs\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn spread_statistics_are_consistent() {
        let w = impact_workloads::by_name("compress").unwrap();
        let p = prepare(&w, &Budget::fast());
        let rows = run_alone(std::slice::from_ref(&p), plan, |s, plan| finish(s, &plan));
        let r = &rows[0];
        assert_eq!(r.miss_ratios.len() as u64, SEEDS);
        assert!(r.min <= r.mean && r.mean <= r.max);
        assert!(r.std_dev >= 0.0);
        assert!(render(&rows).contains("Variability"));
    }
}
