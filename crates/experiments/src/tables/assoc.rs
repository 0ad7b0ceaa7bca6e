//! Associativity ablation: how much hardware would buy what placement
//! buys.
//!
//! The paper's introduction cites the MIPS-X design — a 2 KB,
//! *8-way set-associative* on-chip instruction cache — as the
//! conventional, hardware-heavy answer. This table sweeps associativity
//! at the headline geometry for both the unoptimized and the optimized
//! layout, so the trade is explicit: a direct-mapped cache with placement
//! vs. increasing degrees of associativity without it.

use impact_cache::{Associativity, CacheConfig, CacheStats};

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::{SimHandle, SimSession};

/// Headline geometry.
pub const CACHE_BYTES: u64 = 2048;
/// Block size.
pub const BLOCK_BYTES: u64 = 64;

/// The associativities swept.
pub const WAYS: [Associativity; 5] = [
    Associativity::Direct,
    Associativity::Ways(2),
    Associativity::Ways(4),
    Associativity::Ways(8),
    Associativity::Full,
];

/// One benchmark's miss ratios across associativities, for both layouts.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Natural-layout miss ratio per entry of [`WAYS`].
    pub natural: Vec<f64>,
    /// Optimized-layout miss ratio per entry of [`WAYS`].
    pub optimized: Vec<f64>,
}

impact_support::json_object!(Row {
    name,
    natural,
    optimized
});

/// Pending session requests for this table.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<(String, SimHandle, SimHandle)>,
}

/// Registers the associativity ladder on both layouts of every
/// benchmark.
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let configs: Vec<CacheConfig> = WAYS
        .iter()
        .map(|&w| CacheConfig::direct_mapped(CACHE_BYTES, BLOCK_BYTES).with_associativity(w))
        .collect();
    let rows = prepared
        .iter()
        .map(|p| {
            let limits = p.budget.eval_limits(&p.workload);
            let natural = session.request(
                &p.baseline_program,
                &p.baseline,
                p.eval_seed(),
                limits,
                &configs,
            );
            let optimized = session.request(
                &p.result.program,
                &p.result.placement,
                p.eval_seed(),
                limits,
                &configs,
            );
            (p.workload.name.to_owned(), natural, optimized)
        })
        .collect();
    Plan { rows }
}

/// Reads the executed statistics into rows.
#[must_use]
pub fn finish(session: &SimSession, plan: &Plan) -> Vec<Row> {
    plan.rows
        .iter()
        .map(|(name, natural, optimized)| {
            let natural: Vec<CacheStats> = session.stats(natural);
            let optimized: Vec<CacheStats> = session.stats(optimized);
            Row {
                name: name.clone(),
                natural: natural.iter().map(CacheStats::miss_ratio).collect(),
                optimized: optimized.iter().map(CacheStats::miss_ratio).collect(),
            }
        })
        .collect()
}

/// Renders the table with a mean row.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let label = |w: Associativity| match w {
        Associativity::Direct => "direct".to_owned(),
        Associativity::Ways(n) => format!("{n}-way"),
        Associativity::Full => "full".to_owned(),
    };
    let mut header = vec!["name".to_owned()];
    for &w in &WAYS {
        header.push(format!("nat {}", label(w)));
    }
    for &w in &WAYS {
        header.push(format!("opt {}", label(w)));
    }
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.name.clone()];
            row.extend(r.natural.iter().map(|&m| fmt::pct(m)));
            row.extend(r.optimized.iter().map(|&m| fmt::pct(m)));
            row
        })
        .collect();
    let n = rows.len().max(1) as f64;
    let mut avg = vec!["average".to_owned()];
    for i in 0..WAYS.len() {
        avg.push(fmt::pct(rows.iter().map(|r| r.natural[i]).sum::<f64>() / n));
    }
    for i in 0..WAYS.len() {
        avg.push(fmt::pct(
            rows.iter().map(|r| r.optimized[i]).sum::<f64>() / n,
        ));
    }
    table.push(avg);
    format!(
        "Associativity. Miss ratio at 2KB/64B: hardware (ways) vs software (placement)\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn associativity_helps_natural_layouts_most() {
        let w = impact_workloads::by_name("yacc").unwrap();
        let p = prepare(&w, &Budget::fast());
        let rows = run_alone(std::slice::from_ref(&p), plan, |s, plan| finish(s, &plan));
        let r = &rows[0];
        assert_eq!(r.natural.len(), 5);
        // Fully associative natural never misses more than direct natural.
        assert!(r.natural[4] <= r.natural[0] + 1e-9, "{r:?}");
        assert!(render(&rows).contains("direct"));
    }
}
