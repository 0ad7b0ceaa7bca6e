//! Table 6 — the effect of varying cache size (direct-mapped, 64-byte
//! blocks, optimized placement).

use impact_cache::{CacheConfig, CacheStats};

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::{SimHandle, SimSession};

/// The cache sizes of the paper's columns, in bytes (8 K down to 0.5 K).
pub const CACHE_SIZES: [u64; 5] = [8192, 4096, 2048, 1024, 512];

/// The fixed block size.
pub const BLOCK_BYTES: u64 = 64;

/// One benchmark's miss/traffic across cache sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// `(miss ratio, traffic ratio)` per entry of [`CACHE_SIZES`].
    pub cells: Vec<(f64, f64)>,
}

impact_support::json_object!(Row { name, cells });

/// Pending session requests for this table.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<(String, SimHandle)>,
}

/// Registers the cache-size sweep per benchmark (optimized layout).
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let configs: Vec<CacheConfig> = CACHE_SIZES
        .iter()
        .map(|&s| CacheConfig::direct_mapped(s, BLOCK_BYTES))
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

/// Per-size `(mean miss, mean traffic)` across benchmarks — the numbers
/// behind the paper's "average 0.5 % miss, 8 % traffic at 2 K" claim.
#[must_use]
pub fn averages(rows: &[Row]) -> Vec<(f64, f64)> {
    let n = rows.len().max(1) as f64;
    (0..CACHE_SIZES.len())
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
    for &s in &CACHE_SIZES {
        let label = if s >= 1024 {
            format!("{}K", s / 1024)
        } else {
            "0.5K".to_owned()
        };
        header.push(format!("{label} miss"));
        header.push(format!("{label} traffic"));
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
        "Table 6. The Effect of Varying Cache Size (direct-mapped, 64B blocks)\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn wc_misses_nothing_everywhere() {
        let w = impact_workloads::by_name("wc").unwrap();
        let p = prepare(&w, &Budget::fast());
        let rows = run_alone(std::slice::from_ref(&p), plan, |s, plan| finish(s, &plan));
        assert_eq!(rows[0].cells.len(), 5);
        // wc's hot loop fits even the 512-byte cache after placement.
        let (miss_512, _) = rows[0].cells[4];
        assert!(miss_512 < 0.01, "wc at 512B: {miss_512}");
        assert!(render(&rows).contains("average"));
    }
}
