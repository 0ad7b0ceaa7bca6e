//! Table 1 — design-target miss ratios (fully associative).
//!
//! The paper's Table 1 is a quotation of Smith's published
//! fully-associative design targets. We print those targets next to a
//! measured counterpart: the average miss ratio of a fully associative
//! LRU cache over our ten benchmarks **without** placement optimization
//! (natural declaration-order layout) — the configuration Smith's numbers
//! model. The paper's claim (§4.2.4) is that its optimized *direct-mapped*
//! numbers (Tables 6–7) beat this column.

use impact_cache::{smith, CacheConfig, CacheStats};

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::{SimHandle, SimSession};

/// One `(cache size, block size)` cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Cache size in bytes.
    pub cache_size: u64,
    /// Block size in bytes.
    pub block_size: u64,
    /// Smith's published design-target miss ratio.
    pub smith_target: f64,
    /// Our measured fully-associative miss ratio on unoptimized layouts,
    /// averaged over the benchmarks.
    pub measured_unoptimized: f64,
}

impact_support::json_object!(Row {
    cache_size,
    block_size,
    smith_target,
    measured_unoptimized
});

/// Pending session requests for this table.
#[derive(Debug)]
pub struct Plan {
    configs: Vec<CacheConfig>,
    handles: Vec<SimHandle>,
    benchmarks: usize,
}

/// Registers one 16-configuration request per benchmark (unoptimized
/// layout) on the session.
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let configs: Vec<CacheConfig> = smith::CACHE_SIZES
        .iter()
        .flat_map(|&s| {
            smith::BLOCK_SIZES
                .iter()
                .map(move |&b| CacheConfig::fully_associative(s, b))
        })
        .collect();
    let handles = prepared
        .iter()
        .map(|p| {
            session.request(
                &p.baseline_program,
                &p.baseline,
                p.eval_seed(),
                p.budget.eval_limits(&p.workload),
                &configs,
            )
        })
        .collect();
    Plan {
        configs,
        handles,
        benchmarks: prepared.len(),
    }
}

/// Averages the executed session results into the 16 grid cells.
#[must_use]
pub fn finish(session: &SimSession, plan: &Plan) -> Vec<Row> {
    let mut sums = vec![0.0f64; plan.configs.len()];
    for h in &plan.handles {
        let stats: Vec<CacheStats> = session.stats(h);
        for (sum, s) in sums.iter_mut().zip(&stats) {
            *sum += s.miss_ratio();
        }
    }
    let n = plan.benchmarks.max(1) as f64;

    plan.configs
        .iter()
        .zip(&sums)
        .map(|(c, &sum)| Row {
            cache_size: c.size_bytes,
            block_size: c.block_bytes,
            smith_target: smith::target_miss_ratio(c.size_bytes, c.block_bytes)
                .expect("grid comes from smith tables"),
            measured_unoptimized: sum / n,
        })
        .collect()
}

/// Renders the grid with target and measured values side by side.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header: Vec<String> = std::iter::once("cache size".to_owned())
        .chain(
            smith::BLOCK_SIZES
                .iter()
                .map(|b| format!("{b}B target/measured")),
        )
        .collect();
    let table: Vec<Vec<String>> = smith::CACHE_SIZES
        .iter()
        .map(|&s| {
            std::iter::once(format!("{s}"))
                .chain(smith::BLOCK_SIZES.iter().map(|&b| {
                    let r = rows
                        .iter()
                        .find(|r| r.cache_size == s && r.block_size == b)
                        .expect("full grid");
                    format!(
                        "{} / {}",
                        fmt::pct(r.smith_target),
                        fmt::pct(r.measured_unoptimized)
                    )
                }))
                .collect()
        })
        .collect();
    format!(
        "Table 1. Design Target Miss Ratio (fully associative; measured = unoptimized layout)\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn grid_is_complete_and_monotone_in_cache_size() {
        let w = impact_workloads::by_name("wc").unwrap();
        let p = prepare(&w, &Budget::fast());
        let rows = run_alone(&[p], plan, |s, plan| finish(s, &plan));
        assert_eq!(rows.len(), 16);
        // LRU stack property: fully-associative misses shrink as the
        // cache grows, per block size.
        for &b in &smith::BLOCK_SIZES {
            let col: Vec<f64> = smith::CACHE_SIZES
                .iter()
                .map(|&s| {
                    rows.iter()
                        .find(|r| r.cache_size == s && r.block_size == b)
                        .unwrap()
                        .measured_unoptimized
                })
                .collect();
            for w in col.windows(2) {
                assert!(w[1] <= w[0] + 1e-12, "not monotone: {col:?}");
            }
        }
        let text = render(&rows);
        assert!(text.contains("Table 1"));
    }
}
