//! Static-estimation validation: profile-free predictions vs. ground
//! truth.
//!
//! `impact analyze` runs the whole placement pipeline from Ball/Larus-
//! style branch heuristics instead of measured profiles. This table
//! quantifies how much that costs, per benchmark, on two axes:
//!
//! 1. **Function frequencies** — Spearman rank correlation between the
//!    statically estimated invocation counts and the measured profile's,
//!    over the functions of the (profile-guided) optimized program. Rank
//!    correlation is the right yardstick because the layout steps consume
//!    *orderings* (hottest-first), not absolute counts.
//! 2. **Miss ratio** — the static miss-ratio bound
//!    ([`impact_analyze::estimate_miss_bound`] fed by the static profile)
//!    against the trace-simulated miss ratio of the same placement on the
//!    held-out evaluation input, at the paper's 2 KB / 64 B reference
//!    cache. The bound is not meant to be tight; what matters is whether
//!    it *ranks* the benchmarks the way the simulator does, which the
//!    cross-benchmark correlation at the foot of the table reports.

use impact_analyze::{estimate_miss_bound, ConflictConfig, StaticProfiler};
use impact_cache::CacheConfig;
use impact_profile::ProfileSource;

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::{SimHandle, SimSession};

/// Reference cache geometry (bytes, line bytes): the paper's 2 KB point.
pub const CACHE_BYTES: u64 = 2048;
/// Reference line size in bytes.
pub const LINE_BYTES: u64 = 64;

/// One benchmark's static-vs-measured comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Spearman rank correlation of static vs. measured function
    /// invocation counts.
    pub freq_rho: f64,
    /// Static miss-ratio bound of the placement under the static profile.
    pub static_bound: f64,
    /// Trace-simulated miss ratio of the same placement (held-out input).
    pub simulated: f64,
}

impact_support::json_object!(Row {
    name,
    freq_rho,
    static_bound,
    simulated
});

/// Pending session requests for this table.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<(usize, SimHandle)>,
}

/// Spearman rank correlation with tie-averaged ranks. Returns 0 when
/// either side is constant (no ordering to correlate).
#[must_use]
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "paired samples only");
    let rx = tie_averaged_ranks(xs);
    let ry = tie_averaged_ranks(ys);
    pearson(&rx, &ry)
}

/// Ranks (1-based); equal values share the mean of their rank range.
fn tie_averaged_ranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut ranks = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        // Positions i..=j hold equal values; each gets the mean rank.
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = rank;
        }
        i = j + 1;
    }
    ranks
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

/// Registers the simulated half of every comparison (the static halves
/// are computed analytically in [`finish`]).
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let configs = [CacheConfig::direct_mapped(CACHE_BYTES, LINE_BYTES)];
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
    Plan { rows }
}

/// Pairs the static estimates with the executed simulations.
#[must_use]
pub fn finish(session: &SimSession, plan: &Plan, prepared: &[Prepared]) -> Vec<Row> {
    let conflict = ConflictConfig {
        cache_bytes: CACHE_BYTES,
        line_bytes: LINE_BYTES,
        ..ConflictConfig::default()
    };
    plan.rows
        .iter()
        .map(|(i, handle)| {
            let p = &prepared[*i];
            let program = &p.result.program;
            let static_profile = StaticProfiler.profile(program);

            let (mut est, mut meas) = (Vec::new(), Vec::new());
            for (fid, _) in program.functions() {
                est.push(static_profile.function(fid).invocations as f64);
                meas.push(p.result.profile.function(fid).invocations as f64);
            }
            let bound =
                estimate_miss_bound(program, &static_profile, &p.result.placement, &conflict);
            Row {
                name: p.workload.name.to_owned(),
                freq_rho: spearman(&est, &meas),
                static_bound: bound.ratio(),
                simulated: session.stats(handle)[0].miss_ratio(),
            }
        })
        .collect()
}

/// Cross-benchmark Spearman correlation of the static miss-ratio bound
/// against the simulated miss ratio: does the static analysis rank the
/// benchmarks the way the simulator does?
#[must_use]
pub fn cross_benchmark_rho(rows: &[Row]) -> f64 {
    let bounds: Vec<f64> = rows.iter().map(|r| r.static_bound).collect();
    let sims: Vec<f64> = rows.iter().map(|r| r.simulated).collect();
    spearman(&bounds, &sims)
}

/// Mean per-benchmark function-frequency rank correlation.
#[must_use]
pub fn mean_freq_rho(rows: &[Row]) -> f64 {
    rows.iter().map(|r| r.freq_rho).sum::<f64>() / rows.len().max(1) as f64
}

/// Renders the table with the summary correlations at the foot.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = vec![
        "name".to_owned(),
        "freq rank corr".to_owned(),
        "static bound".to_owned(),
        "simulated".to_owned(),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:+.3}", r.freq_rho),
                fmt::pct(r.static_bound),
                fmt::pct(r.simulated),
            ]
        })
        .collect();
    format!(
        "Static estimation. Profile-free analysis vs measured profile and trace simulation \
         ({CACHE_BYTES}B direct-mapped, {LINE_BYTES}B lines)\n{}\
         mean freq rank corr {:+.3}; cross-benchmark miss-rank corr {:+.3}\n",
        fmt::render_table(&header, &table),
        mean_freq_rho(rows),
        cross_benchmark_rho(rows),
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn spearman_handles_ties_and_monotone_data() {
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        // Ties share rank mass; a constant side has no ordering at all.
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        let rho = spearman(&[1.0, 1.0, 2.0, 3.0], &[1.0, 2.0, 2.0, 3.0]);
        assert!(rho > 0.7 && rho < 1.0, "{rho}");
        assert_eq!(tie_averaged_ranks(&[5.0, 5.0, 1.0]), vec![2.5, 2.5, 1.0]);
    }

    #[test]
    fn static_estimates_rank_wc_functions_like_the_profile() {
        let w = impact_workloads::by_name("wc").unwrap();
        let p = prepare(&w, &Budget::fast());
        let prepared = std::slice::from_ref(&p);
        let rows = run_alone(prepared, plan, |s, plan| finish(s, &plan, prepared));
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(
            r.freq_rho > 0.0,
            "static ranking should beat chance on wc: {}",
            r.freq_rho
        );
        assert!(r.static_bound >= 0.0 && r.static_bound <= 1.0);
        assert!(r.simulated >= 0.0 && r.simulated <= 1.0);
        assert!(render(&rows).contains("Static estimation"));
    }
}
