//! Instruction paging experiment (the paper's §5 second research
//! direction, realized): page faults and working-set size with and
//! without placement optimization.
//!
//! §4.1.3 argues that separating effective from never-executed code means
//! "when a page is transferred from the secondary memory to the main
//! memory, all the bytes of that page are likely to be used". This
//! experiment measures exactly that: an LRU-paged instruction memory with
//! a small resident set, natural layout vs. optimized placement, plus the
//! Denning working-set size and the traffic saved by page sectoring.

use impact_cache::paging::{PageConfig, PagingSim, WorkingSetTracker};
use impact_ir::Program;
use impact_layout::Placement;

use crate::fmt;
use crate::prepare::Prepared;
use crate::session::{SimSession, SinkHandle};

/// Page size used throughout.
pub const PAGE_BYTES: u64 = 1024;
/// Resident-set capacity in pages.
pub const RESIDENT_PAGES: usize = 4;
/// Sector size for the sectored variant.
pub const SECTOR_BYTES: u64 = 128;
/// Working-set window in accesses.
pub const WS_WINDOW: u64 = 100_000;

/// One benchmark's paging behavior under both layouts.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Page-fault ratio, natural layout.
    pub natural_fault_ratio: f64,
    /// Page-fault ratio, optimized placement.
    pub optimized_fault_ratio: f64,
    /// Mean working-set pages, natural layout.
    pub natural_ws_pages: f64,
    /// Mean working-set pages, optimized placement.
    pub optimized_ws_pages: f64,
    /// Paging traffic ratio with whole-page transfers (optimized).
    pub full_traffic: f64,
    /// Paging traffic ratio with 128-byte page sectoring (optimized).
    pub sectored_traffic: f64,
}

impact_support::json_object!(Row {
    name,
    natural_fault_ratio,
    optimized_fault_ratio,
    natural_ws_pages,
    optimized_ws_pages,
    full_traffic,
    sectored_traffic
});

/// The whole-page and working-set sinks attached to one layout's trace
/// stream.
#[derive(Debug)]
struct LayoutSinks {
    full: SinkHandle,
    ws: SinkHandle,
}

/// One benchmark's pending sinks across both layouts; only the
/// optimized placement's traffic is also measured sectored.
#[derive(Debug)]
struct RowPlan {
    name: String,
    natural: LayoutSinks,
    optimized: LayoutSinks,
    sectored: SinkHandle,
}

/// Pending session requests for this table.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<RowPlan>,
}

/// A paging simulation of the resident set, with page sectoring when
/// `sector_bytes` is set.
fn paging_sim(sector_bytes: Option<u64>) -> PagingSim {
    PagingSim::new(PageConfig {
        page_bytes: PAGE_BYTES,
        resident_pages: RESIDENT_PAGES,
        sector_bytes,
    })
}

/// Attaches the whole-page and working-set measurements to a layout's
/// trace stream.
fn attach(
    session: &mut SimSession,
    program: &Program,
    placement: &Placement,
    seed: u64,
    limits: impact_profile::ExecLimits,
) -> LayoutSinks {
    let ws = WorkingSetTracker::new(PAGE_BYTES, WS_WINDOW);
    LayoutSinks {
        full: session.request_sink(program, placement, seed, limits, paging_sim(None)),
        ws: session.request_sink(program, placement, seed, limits, ws),
    }
}

/// Registers the paging sinks for both layouts of every benchmark; the
/// streams are shared with every cache table that evaluates the same
/// keys.
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let rows = prepared
        .iter()
        .map(|p| {
            let limits = p.budget.eval_limits(&p.workload);
            let seed = p.eval_seed();
            let (program, placement) = (&p.result.program, &p.result.placement);
            RowPlan {
                name: p.workload.name.to_owned(),
                natural: attach(session, &p.baseline_program, &p.baseline, seed, limits),
                optimized: attach(session, program, placement, seed, limits),
                sectored: session.request_sink(
                    program,
                    placement,
                    seed,
                    limits,
                    paging_sim(Some(SECTOR_BYTES)),
                ),
            }
        })
        .collect();
    Plan { rows }
}

/// Takes the streamed sinks back and reads them into rows.
#[must_use]
pub fn finish(session: &mut SimSession, plan: Plan) -> Vec<Row> {
    plan.rows
        .into_iter()
        .map(|r| {
            let nat_full: PagingSim = session.take_sink(&r.natural.full);
            let nat_ws: WorkingSetTracker = session.take_sink(&r.natural.ws);
            let opt_full: PagingSim = session.take_sink(&r.optimized.full);
            let opt_sectored: PagingSim = session.take_sink(&r.sectored);
            let opt_ws: WorkingSetTracker = session.take_sink(&r.optimized.ws);
            Row {
                name: r.name,
                natural_fault_ratio: nat_full.stats().fault_ratio(),
                optimized_fault_ratio: opt_full.stats().fault_ratio(),
                natural_ws_pages: nat_ws.mean_pages(),
                optimized_ws_pages: opt_ws.mean_pages(),
                full_traffic: opt_full.stats().traffic_ratio(),
                sectored_traffic: opt_sectored.stats().traffic_ratio(),
            }
        })
        .collect()
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = [
        "name",
        "natural faults",
        "optimized faults",
        "natural WS pages",
        "optimized WS pages",
        "page traffic",
        "sectored traffic",
    ]
    .map(str::to_owned)
    .to_vec();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.4}%", r.natural_fault_ratio * 100.0),
                format!("{:.4}%", r.optimized_fault_ratio * 100.0),
                format!("{:.1}", r.natural_ws_pages),
                format!("{:.1}", r.optimized_ws_pages),
                fmt::pct(r.full_traffic),
                fmt::pct(r.sectored_traffic),
            ]
        })
        .collect();
    format!(
        "Paging. Instruction paging behavior ({PAGE_BYTES}B pages, {RESIDENT_PAGES}-page resident set, LRU)\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn optimization_shrinks_working_set_and_sectoring_cuts_traffic() {
        let w = impact_workloads::by_name("lex").unwrap();
        let p = prepare(&w, &Budget::fast());
        let rows = run_alone(std::slice::from_ref(&p), plan, finish);
        let r = &rows[0];
        // lex's hot set packs into fewer pages after placement.
        assert!(r.optimized_ws_pages <= r.natural_ws_pages + 0.5, "{r:?}");
        assert!(r.sectored_traffic <= r.full_traffic + 1e-9, "{r:?}");
        assert!(render(&rows).contains("Paging"));
    }
}
