//! `MIN_PROB` sweep: is the paper's 0.7 threshold the right one?
//!
//! The Appendix hard-codes `MIN_PROB = 0.7` — a trace only grows along an
//! arc carrying ≥70 % of both endpoint weights. This ablation redoes trace
//! selection and layout of each prepared program across a threshold sweep
//! and reports the ten-benchmark averages: trace quality (Table 4's
//! metrics) and the headline cache performance. Thresholds too low chain
//! cold paths into hot traces; too high degenerate into single-block traces.

use impact_cache::CacheConfig;

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::{SimHandle, SimSession};

/// Thresholds swept (the paper's value is 0.7).
pub const THRESHOLDS: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];

/// Ten-benchmark averages at one threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The `MIN_PROB` value.
    pub min_prob: f64,
    /// Mean desirable-transfer fraction.
    pub desirable: f64,
    /// Mean trace length (blocks).
    pub trace_length: f64,
    /// Mean miss ratio at 2 KB / 64 B, optimized placement.
    pub miss_2k: f64,
    /// Mean traffic ratio at 2 KB / 64 B.
    pub traffic_2k: f64,
}

impact_support::json_object!(Row {
    min_prob,
    desirable,
    trace_length,
    miss_2k,
    traffic_2k
});

/// One threshold's pending handles plus the profile-side quality sums.
#[derive(Debug)]
struct RowPlan {
    min_prob: f64,
    desirable: f64,
    trace_length: f64,
    handles: Vec<SimHandle>,
}

/// Pending session requests for this table.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<RowPlan>,
    benchmarks: usize,
}

/// Re-places every prepared result per `(threshold, benchmark)` (only
/// trace selection reads the threshold) and registers the headline-cache
/// request per placement. Every threshold yields its own placements and
/// therefore its own trace keys (0.7 reproduces the prepared placement
/// and coalesces with the headline tables in the memo).
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let cache = [CacheConfig::direct_mapped(2048, 64)];
    let rows = THRESHOLDS
        .iter()
        .map(|&min_prob| {
            let mut desirable = 0.0;
            let mut trace_length = 0.0;
            let handles = prepared
                .iter()
                .map(|p| {
                    let result = p.result.with_min_prob(min_prob);
                    desirable += result.trace_quality.desirable;
                    trace_length += result.trace_quality.mean_trace_length;
                    session.request(
                        &result.program,
                        &result.placement,
                        p.eval_seed(),
                        p.budget.eval_limits(&p.workload),
                        &cache,
                    )
                })
                .collect();
            RowPlan {
                min_prob,
                desirable,
                trace_length,
                handles,
            }
        })
        .collect();
    Plan {
        rows,
        benchmarks: prepared.len(),
    }
}

/// Averages the executed statistics into one row per threshold.
#[must_use]
pub fn finish(session: &SimSession, plan: &Plan) -> Vec<Row> {
    let n = plan.benchmarks.max(1) as f64;
    plan.rows
        .iter()
        .map(|r| {
            let (miss, traffic) = r.handles.iter().fold((0.0, 0.0), |(m, t), h| {
                let s = session.stats(h)[0];
                (m + s.miss_ratio(), t + s.traffic_ratio())
            });
            Row {
                min_prob: r.min_prob,
                desirable: r.desirable / n,
                trace_length: r.trace_length / n,
                miss_2k: miss / n,
                traffic_2k: traffic / n,
            }
        })
        .collect()
}

/// Renders the sweep.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = [
        "MIN_PROB",
        "desirable",
        "trace length",
        "2K miss",
        "2K traffic",
    ]
    .map(str::to_owned)
    .to_vec();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!(
                    "{}{}",
                    r.min_prob,
                    if (r.min_prob - 0.7).abs() < 1e-9 {
                        " (paper)"
                    } else {
                        ""
                    }
                ),
                fmt::pct(r.desirable),
                format!("{:.2}", r.trace_length),
                fmt::pct(r.miss_2k),
                fmt::pct(r.traffic_2k),
            ]
        })
        .collect();
    format!(
        "MIN_PROB sweep. Ten-benchmark averages per trace-selection threshold\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn higher_thresholds_shorten_traces() {
        let w = impact_workloads::by_name("grep").unwrap();
        let p = prepare(&w, &Budget::fast());
        let rows = run_alone(std::slice::from_ref(&p), plan, |s, plan| finish(s, &plan));
        assert_eq!(rows.len(), 5);
        // Trace length is non-increasing in the threshold.
        for pair in rows.windows(2) {
            assert!(
                pair[1].trace_length <= pair[0].trace_length + 0.2,
                "{rows:?}"
            );
        }
        assert!(render(&rows).contains("(paper)"));
    }
}
