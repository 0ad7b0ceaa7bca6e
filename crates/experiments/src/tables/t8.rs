//! Table 8 — schemes to reduce the memory traffic ratio (2 KB cache,
//! 64-byte blocks): 8-byte sectoring vs. partial loading.

use impact_cache::{CacheConfig, FillPolicy};

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::{SimHandle, SimSession};

/// Cache geometry shared by both schemes.
pub const CACHE_BYTES: u64 = 2048;
/// Block size.
pub const BLOCK_BYTES: u64 = 64;
/// Sector size of the sectoring scheme.
pub const SECTOR_BYTES: u64 = 8;

/// One benchmark under both traffic-reduction schemes.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Sectored fill: miss ratio.
    pub sector_miss: f64,
    /// Sectored fill: traffic ratio.
    pub sector_traffic: f64,
    /// Partial loading: miss ratio.
    pub partial_miss: f64,
    /// Partial loading: traffic ratio.
    pub partial_traffic: f64,
    /// Partial loading: mean words transferred per miss ("avg.fetch").
    pub avg_fetch: f64,
    /// Partial loading: mean consecutive instructions used from a miss
    /// point to a taken branch or the next miss ("avg.exec").
    pub avg_exec: f64,
}

impact_support::json_object!(Row {
    name,
    sector_miss,
    sector_traffic,
    partial_miss,
    partial_traffic,
    avg_fetch,
    avg_exec
});

/// Pending session requests for this table.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<(String, SimHandle)>,
}

/// Registers both traffic-reduction schemes per benchmark.
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let configs = [
        CacheConfig::direct_mapped(CACHE_BYTES, BLOCK_BYTES).with_fill(FillPolicy::Sectored {
            sector_bytes: SECTOR_BYTES,
        }),
        CacheConfig::direct_mapped(CACHE_BYTES, BLOCK_BYTES).with_fill(FillPolicy::Partial),
    ];
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
            let stats = session.stats(handle);
            Row {
                name: name.clone(),
                sector_miss: stats[0].miss_ratio(),
                sector_traffic: stats[0].traffic_ratio(),
                partial_miss: stats[1].miss_ratio(),
                partial_traffic: stats[1].traffic_ratio(),
                avg_fetch: stats[1].avg_fetch(),
                avg_exec: stats[1].avg_exec(),
            }
        })
        .collect()
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = [
        "name",
        "sector miss",
        "sector traffic",
        "partial miss",
        "partial traffic",
        "avg.fetch",
        "avg.exec",
    ]
    .map(str::to_owned)
    .to_vec();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                fmt::pct(r.sector_miss),
                fmt::pct(r.sector_traffic),
                fmt::pct(r.partial_miss),
                fmt::pct(r.partial_traffic),
                format!("{:.1}", r.avg_fetch),
                format!("{:.1}", r.avg_exec),
            ]
        })
        .collect();
    format!(
        "Table 8. Schemes to Reduce the Memory Traffic Ratio (2KB, 64B blocks)\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::{run_alone, t6};

    use super::*;

    #[test]
    fn schemes_trade_misses_for_traffic() {
        let w = impact_workloads::by_name("make").unwrap();
        let p = prepare(&w, &Budget::fast());
        let full = run_alone(std::slice::from_ref(&p), t6::plan, |s, plan| {
            t6::finish(s, &plan)
        });
        let (full_miss, full_traffic) = full[0].cells[2]; // 2K column
        let rows = run_alone(std::slice::from_ref(&p), plan, |s, plan| finish(s, &plan));
        let r = &rows[0];
        // Sectoring: higher miss ratio, lower traffic than full-block.
        assert!(r.sector_miss > full_miss, "{r:?} vs full {full_miss}");
        assert!(r.sector_traffic < full_traffic, "{r:?} vs {full_traffic}");
        // Partial: traffic at most full-block traffic; misses at least as
        // many.
        assert!(r.partial_traffic <= full_traffic + 1e-9);
        assert!(r.partial_miss >= full_miss - 1e-9);
        // avg.fetch is between 1 and a whole block.
        assert!(r.avg_fetch >= 1.0 && r.avg_fetch <= 16.0, "{r:?}");
        assert!(r.avg_exec >= 1.0, "{r:?}");
        assert!(render(&rows).contains("avg.fetch"));
    }
}
