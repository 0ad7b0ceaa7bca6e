//! Table 7 — the effect of varying block size (2 KB direct-mapped,
//! optimized placement).

use impact_cache::{CacheConfig, CacheStats};

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::{SimHandle, SimSession};

/// The block sizes of the paper's columns, in bytes.
pub const BLOCK_SIZES: [u64; 4] = [16, 32, 64, 128];

/// The fixed cache size.
pub const CACHE_BYTES: u64 = 2048;

/// One benchmark's miss/traffic across block sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// `(miss ratio, traffic ratio)` per entry of [`BLOCK_SIZES`].
    pub cells: Vec<(f64, f64)>,
}

impact_support::json_object!(Row { name, cells });

/// Pending session requests for this table.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<(String, SimHandle)>,
}

/// Registers the block-size sweep per benchmark (optimized layout).
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let configs: Vec<CacheConfig> = BLOCK_SIZES
        .iter()
        .map(|&b| CacheConfig::direct_mapped(CACHE_BYTES, b))
        .collect();
    let rows = prepared
        .iter()
        .map(|p| {
            let handle = session.request(
                &p.result.program,
                &p.result.placement,
                p.eval_seed(),
                p.budget.eval_limits(&p.workload),
                &configs,
            );
            (p.workload.name.to_owned(), handle)
        })
        .collect();
    Plan { rows }
}

/// Reads the executed statistics into rows.
#[must_use]
pub fn finish(session: &SimSession, plan: &Plan) -> Vec<Row> {
    plan.rows
        .iter()
        .map(|(name, handle)| {
            let stats: Vec<CacheStats> = session.stats(handle);
            Row {
                name: name.clone(),
                cells: stats
                    .iter()
                    .map(|s| (s.miss_ratio(), s.traffic_ratio()))
                    .collect(),
            }
        })
        .collect()
}

/// Per-block-size `(mean miss, mean traffic)` across benchmarks.
#[must_use]
pub fn averages(rows: &[Row]) -> Vec<(f64, f64)> {
    let n = rows.len().max(1) as f64;
    (0..BLOCK_SIZES.len())
        .map(|i| {
            let (m, t) = rows
                .iter()
                .fold((0.0, 0.0), |(m, t), r| (m + r.cells[i].0, t + r.cells[i].1));
            (m / n, t / n)
        })
        .collect()
}

/// Renders the table with an `average` summary row.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut header = vec!["name".to_owned()];
    for &b in &BLOCK_SIZES {
        header.push(format!("{b}B miss"));
        header.push(format!("{b}B traffic"));
    }
    let mut table: Vec<Vec<String>> = rows
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
    let mut avg_row = vec!["average".to_owned()];
    for (m, t) in averages(rows) {
        avg_row.push(fmt::pct(m));
        avg_row.push(fmt::pct(t));
    }
    table.push(avg_row);
    format!(
        "Table 7. The Effect of Varying the Block Size (2KB direct-mapped)\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn miss_falls_and_traffic_rises_with_block_size_where_misses_exist() {
        let w = impact_workloads::by_name("cccp").unwrap();
        let p = prepare(&w, &Budget::fast());
        let rows = run_alone(std::slice::from_ref(&p), plan, |s, plan| finish(s, &plan));
        let cells = &rows[0].cells;
        assert_eq!(cells.len(), 4);
        // The paper's trend: larger blocks lower the miss ratio...
        assert!(
            cells[0].0 > cells[2].0,
            "16B miss {} should exceed 64B miss {}",
            cells[0].0,
            cells[2].0
        );
        // ...and raise the traffic ratio.
        assert!(
            cells[3].1 > cells[0].1,
            "128B traffic {} should exceed 16B traffic {}",
            cells[3].1,
            cells[0].1
        );
        assert!(render(&rows).contains("Table 7"));
    }
}
