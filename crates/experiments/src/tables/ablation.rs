//! Ablations beyond the paper's tables: which pipeline step buys what.
//!
//! For every benchmark, the headline cache (2 KB direct-mapped, 64 B
//! blocks) is simulated under a ladder of placements:
//!
//! 1. **random** — functions and blocks shuffled (pessimistic bound),
//! 2. **natural** — declaration order (a conventional compiler/linker),
//! 3. **no-inline** — Steps 3–5 on the original program under its
//!    pre-inline profile (the pipeline with Step 2 disabled),
//! 4. **full** — the complete IMPACT-I pipeline,
//!
//! plus a fully-associative LRU cache over the natural layout (the
//! hardware-heavy alternative the paper argues against).

use impact_cache::{Associativity, Cache, CacheConfig, NextLinePrefetcher, VictimCache};
use impact_layout::baseline;
use impact_layout::trace_select::MIN_PROB;

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::{SimHandle, SimSession, SinkHandle};

/// Headline geometry.
pub const CACHE_BYTES: u64 = 2048;
/// Headline block size.
pub const BLOCK_BYTES: u64 = 64;

/// One benchmark's miss ratios across the placement ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Random layout, direct-mapped.
    pub random: f64,
    /// Natural (declaration-order) layout, direct-mapped.
    pub natural: f64,
    /// Natural layout on a fully-associative LRU cache.
    pub natural_fully_assoc: f64,
    /// Optimized placement without inline expansion.
    pub no_inline: f64,
    /// Full IMPACT-I placement.
    pub full: f64,
    /// Pettis-Hansen-style placement of the same (inlined) program.
    pub pettis_hansen: f64,
    /// Natural layout with a tagged next-line prefetcher (demand misses).
    pub natural_prefetch: f64,
    /// Natural layout with a 4-entry victim buffer (memory misses).
    pub natural_victim: f64,
}

impact_support::json_object!(Row {
    name,
    random,
    natural,
    natural_fully_assoc,
    no_inline,
    full,
    pettis_hansen,
    natural_prefetch,
    natural_victim
});

/// One benchmark's pending handles across the ladder.
#[derive(Debug)]
struct RowPlan {
    name: String,
    random: SimHandle,
    natural: SimHandle,
    natural_fa: SimHandle,
    no_inline: SimHandle,
    full: SimHandle,
    ph: SimHandle,
    prefetch: SinkHandle,
    victim: SinkHandle,
}

/// Pending session requests for this table.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<RowPlan>,
}

/// Registers the whole placement ladder per benchmark. Every ladder
/// rung becomes its own trace key, while the natural direct-mapped and
/// fully-associative demands share one key (and one stream) through the
/// config union. The prefetcher and victim cache ride the natural-layout
/// stream as sinks.
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let dm = [CacheConfig::direct_mapped(CACHE_BYTES, BLOCK_BYTES)];
    let fa = [CacheConfig::direct_mapped(CACHE_BYTES, BLOCK_BYTES)
        .with_associativity(Associativity::Full)];
    let rows = prepared
        .iter()
        .map(|p| {
            let limits = p.budget.eval_limits(&p.workload);
            let seed = p.eval_seed();
            let program = &p.baseline_program;
            let ni = p.result.without_inlining(program, MIN_PROB);
            let ph_placement = impact_layout::ph::place(&p.result.program, &p.result.profile);
            let random_placement = baseline::random(program, 0xab1a7e);
            RowPlan {
                name: p.workload.name.to_owned(),
                random: session.request(program, &random_placement, seed, limits, &dm),
                natural: session.request(program, &p.baseline, seed, limits, &dm),
                natural_fa: session.request(program, &p.baseline, seed, limits, &fa),
                no_inline: session.request(&ni.program, &ni.placement, seed, limits, &dm),
                full: session.request(&p.result.program, &p.result.placement, seed, limits, &dm),
                ph: session.request(&p.result.program, &ph_placement, seed, limits, &dm),
                // The hardware alternatives, applied to the unoptimized
                // layout: does placement beat a prefetcher or a victim
                // cache?
                prefetch: session.request_sink(
                    program,
                    &p.baseline,
                    seed,
                    limits,
                    NextLinePrefetcher::new(Cache::new(dm[0])),
                ),
                victim: session.request_sink(
                    program,
                    &p.baseline,
                    seed,
                    limits,
                    VictimCache::new(dm[0], 4),
                ),
            }
        })
        .collect();
    Plan { rows }
}

/// Reads the executed statistics (and takes the sinks back) into rows.
#[must_use]
pub fn finish(session: &mut SimSession, plan: Plan) -> Vec<Row> {
    plan.rows
        .into_iter()
        .map(|r| {
            let pf: NextLinePrefetcher = session.take_sink(&r.prefetch);
            let vc: VictimCache = session.take_sink(&r.victim);
            Row {
                name: r.name,
                random: session.stats(&r.random)[0].miss_ratio(),
                natural: session.stats(&r.natural)[0].miss_ratio(),
                natural_fully_assoc: session.stats(&r.natural_fa)[0].miss_ratio(),
                no_inline: session.stats(&r.no_inline)[0].miss_ratio(),
                full: session.stats(&r.full)[0].miss_ratio(),
                pettis_hansen: session.stats(&r.ph)[0].miss_ratio(),
                natural_prefetch: pf.stats().miss_ratio(),
                natural_victim: vc.memory_miss_ratio(),
            }
        })
        .collect()
}

/// Renders the ladder with a mean row.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = [
        "name",
        "random DM",
        "natural DM",
        "natural FA",
        "layout w/o inline",
        "full pipeline",
        "Pettis-Hansen",
        "nat+prefetch",
        "nat+victim4",
    ]
    .map(str::to_owned)
    .to_vec();
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                fmt::pct(r.random),
                fmt::pct(r.natural),
                fmt::pct(r.natural_fully_assoc),
                fmt::pct(r.no_inline),
                fmt::pct(r.full),
                fmt::pct(r.pettis_hansen),
                fmt::pct(r.natural_prefetch),
                fmt::pct(r.natural_victim),
            ]
        })
        .collect();
    let n = rows.len().max(1) as f64;
    let mean = |f: fn(&Row) -> f64| rows.iter().map(f).sum::<f64>() / n;
    table.push(vec![
        "average".to_owned(),
        fmt::pct(mean(|r| r.random)),
        fmt::pct(mean(|r| r.natural)),
        fmt::pct(mean(|r| r.natural_fully_assoc)),
        fmt::pct(mean(|r| r.no_inline)),
        fmt::pct(mean(|r| r.full)),
        fmt::pct(mean(|r| r.pettis_hansen)),
        fmt::pct(mean(|r| r.natural_prefetch)),
        fmt::pct(mean(|r| r.natural_victim)),
    ]);
    format!(
        "Ablation. Miss ratio at 2KB/64B across the placement ladder\n{}\
         (nat+prefetch hides misses by spending bus bandwidth — its memory\n\
         traffic roughly doubles, which the paper's 4-byte bus cannot\n\
         afford; placement lowers misses AND traffic simultaneously.)\n",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn full_pipeline_beats_random_layout() {
        let w = impact_workloads::by_name("make").unwrap();
        let p = prepare(&w, &Budget::fast());
        let rows = run_alone(std::slice::from_ref(&p), plan, finish);
        let r = &rows[0];
        assert!(
            r.full < r.random,
            "full pipeline {} must beat random {}",
            r.full,
            r.random
        );
        assert!(render(&rows).contains("average"));
    }
}
