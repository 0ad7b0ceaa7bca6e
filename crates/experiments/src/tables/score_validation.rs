//! Placement-score validation: do the static scorers rank layouts the
//! way the simulator does?
//!
//! The layout advisor's whole premise is that a placement can be judged
//! without running it. This table puts that premise on trial: for every
//! benchmark it builds several layout *variants* of the same workload —
//! the paper pipeline's placement, the natural (declaration-order)
//! baseline, two seeded random shuffles, and the placement with
//! inlining disabled — scores each one statically with the ExtTSP cost
//! model (see [`impact_analyze::score_placement`]), and simulates each
//! one on the held-out evaluation input at the paper's 2 KB / 64 B
//! reference cache. The per-benchmark tie-averaged Spearman rank
//! correlation between static cost (`1 - exttsp`) and the simulated
//! miss ratio — and, second column, the simulated memory-traffic ratio
//! — says whether the scorer orders real layouts correctly. The static
//! score knows nothing about set indexing, so perfect correlation is
//! not expected; the committed baseline in `experiments_out/score.json`
//! gates regressions on the mean.

use impact_analyze::score_placement;
use impact_cache::CacheConfig;
use impact_ir::Program;
use impact_layout::baseline;
use impact_layout::trace_select::MIN_PROB;
use impact_layout::Placement;
use impact_profile::Profile;

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::{SimHandle, SimSession};
use crate::tables::static_validation::spearman;

/// Reference cache geometry (bytes, line bytes): the paper's 2 KB point.
pub const CACHE_BYTES: u64 = 2048;
/// Reference line size in bytes.
pub const LINE_BYTES: u64 = 64;
/// Seeds for the random layout variants.
pub const RANDOM_SEEDS: [u64; 2] = [7, 11];

/// One benchmark's score-vs-simulation comparison over all variants.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Number of layout variants compared.
    pub variants: usize,
    /// Static ExtTSP cost (`1 - normalized score`) of the paper placement.
    pub paper_cost: f64,
    /// Static ExtTSP cost of the natural-order baseline.
    pub natural_cost: f64,
    /// Spearman rank correlation of static cost vs. simulated miss ratio.
    pub miss_rho: f64,
    /// Spearman rank correlation of static cost vs. simulated traffic ratio.
    pub traffic_rho: f64,
}

impact_support::json_object!(Row {
    name,
    variants,
    paper_cost,
    natural_cost,
    miss_rho,
    traffic_rho
});

/// One layout variant awaiting its simulation: everything the static
/// scorer needs plus the session handle.
struct Variant {
    name: &'static str,
    program: Program,
    profile: Profile,
    placement: Placement,
    handle: SimHandle,
}

/// Pending session requests for this table.
pub struct Plan {
    rows: Vec<(usize, Vec<Variant>)>,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("rows", &self.rows.len())
            .finish()
    }
}

/// The layout variants of one prepared benchmark. The first four share
/// the post-inline program (only the placement changes); the last lays
/// out the original program under its pre-inline profile, as the
/// pipeline does with inlining disabled, so both the program and the
/// placement differ.
fn variants(p: &Prepared) -> Vec<(&'static str, Program, Profile, Placement)> {
    let program = &p.result.program;
    let profile = &p.result.profile;
    let no_inline = p.result.without_inlining(&p.workload.program, MIN_PROB);
    vec![
        (
            "paper",
            program.clone(),
            profile.clone(),
            p.result.placement.clone(),
        ),
        (
            "natural",
            program.clone(),
            profile.clone(),
            baseline::natural(program),
        ),
        (
            "random:7",
            program.clone(),
            profile.clone(),
            baseline::random(program, RANDOM_SEEDS[0]),
        ),
        (
            "random:11",
            program.clone(),
            profile.clone(),
            baseline::random(program, RANDOM_SEEDS[1]),
        ),
        (
            "inline-off",
            no_inline.program,
            no_inline.profile,
            no_inline.placement,
        ),
    ]
}

/// Builds every variant and registers its simulation.
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let configs = [CacheConfig::direct_mapped(CACHE_BYTES, LINE_BYTES)];
    let rows = prepared
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let vs = variants(p)
                .into_iter()
                .map(|(name, program, profile, placement)| {
                    let handle = session.request(
                        &program,
                        &placement,
                        p.eval_seed(),
                        p.budget.eval_limits(&p.workload),
                        &configs,
                    );
                    Variant {
                        name,
                        program,
                        profile,
                        placement,
                        handle,
                    }
                })
                .collect();
            (i, vs)
        })
        .collect();
    Plan { rows }
}

/// Scores every variant statically and correlates against the executed
/// simulations.
#[must_use]
pub fn finish(session: &SimSession, plan: &Plan, prepared: &[Prepared]) -> Vec<Row> {
    plan.rows
        .iter()
        .map(|(i, vs)| {
            let p = &prepared[*i];
            let mut costs = Vec::new();
            let mut misses = Vec::new();
            let mut traffics = Vec::new();
            let mut paper_cost = 0.0;
            let mut natural_cost = 0.0;
            for v in vs {
                let card = score_placement(&v.program, &v.profile, &v.placement, LINE_BYTES);
                let cost = 1.0 - card.exttsp;
                match v.name {
                    "paper" => paper_cost = cost,
                    "natural" => natural_cost = cost,
                    _ => {}
                }
                let stats = &session.stats(&v.handle)[0];
                costs.push(cost);
                misses.push(stats.miss_ratio());
                traffics.push(stats.traffic_ratio());
            }
            Row {
                name: p.workload.name.to_owned(),
                variants: vs.len(),
                paper_cost,
                natural_cost,
                miss_rho: spearman(&costs, &misses),
                traffic_rho: spearman(&costs, &traffics),
            }
        })
        .collect()
}

/// Mean per-benchmark cost-vs-miss rank correlation — the number the
/// `repro score` regression gate compares against the committed
/// baseline.
#[must_use]
pub fn mean_miss_rho(rows: &[Row]) -> f64 {
    rows.iter().map(|r| r.miss_rho).sum::<f64>() / rows.len().max(1) as f64
}

/// Mean per-benchmark cost-vs-traffic rank correlation.
#[must_use]
pub fn mean_traffic_rho(rows: &[Row]) -> f64 {
    rows.iter().map(|r| r.traffic_rho).sum::<f64>() / rows.len().max(1) as f64
}

/// Renders the table with the summary correlations at the foot.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = vec![
        "name".to_owned(),
        "variants".to_owned(),
        "paper cost".to_owned(),
        "natural cost".to_owned(),
        "miss rank corr".to_owned(),
        "traffic rank corr".to_owned(),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.variants.to_string(),
                format!("{:.3}", r.paper_cost),
                format!("{:.3}", r.natural_cost),
                format!("{:+.3}", r.miss_rho),
                format!("{:+.3}", r.traffic_rho),
            ]
        })
        .collect();
    format!(
        "Placement-score validation. Static ExtTSP cost vs simulated miss and traffic \
         ratios over layout variants ({CACHE_BYTES}B direct-mapped, {LINE_BYTES}B lines)\n{}\
         mean miss-rank corr {:+.3}; mean traffic-rank corr {:+.3}\n",
        fmt::render_table(&header, &table),
        mean_miss_rho(rows),
        mean_traffic_rho(rows),
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn scores_rank_wc_layouts_like_the_simulator() {
        let w = impact_workloads::by_name("wc").unwrap();
        let p = prepare(&w, &Budget::fast());
        let prepared = std::slice::from_ref(&p);
        let rows = run_alone(prepared, plan, |s, plan| finish(s, &plan, prepared));
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.variants, 5);
        assert!(
            r.paper_cost < r.natural_cost,
            "the pipeline must out-score the natural order: paper {} vs natural {}",
            r.paper_cost,
            r.natural_cost
        );
        assert!(r.miss_rho >= -1.0 && r.miss_rho <= 1.0);
        assert!(render(&rows).contains("Placement-score validation"));
    }

    #[test]
    fn variants_are_deterministic() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let p = prepare(&w, &Budget::fast());
        let prepared = std::slice::from_ref(&p);
        let a = run_alone(prepared, plan, |s, plan| finish(s, &plan, prepared));
        let b = run_alone(prepared, plan, |s, plan| finish(s, &plan, prepared));
        assert_eq!(a, b, "same inputs must produce identical rows");
    }
}
