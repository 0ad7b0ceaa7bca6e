//! Table 9 — the effect of code scaling (2 KB cache, 64-byte blocks,
//! partial loading).
//!
//! Code scaling emulates different instruction-encoding densities: every
//! basic block is scaled to 0.5× / 0.7× / 1.1× of its size and the whole
//! pipeline re-runs (profile, inline, trace-select, lay out) on the scaled
//! program, exactly as a compiler for a denser ISA would; 1.0× is the
//! prepared placement itself.
//!
//! Scaling keeps every terminator, so the scaled programs walk the same
//! block sequence as the original and differ only in where the
//! instruction cap cuts each run. Their profiles therefore come from one
//! shared walk per seed ([`Profiler::profile_family`]): one family of the
//! scaled originals for Step 1, one of the scaled prepared (inlined)
//! program for Step 2's re-profile. A program outside both families, such
//! as an intermediate inline pass or an inlining that differs from the
//! prepared one, is walked on its own.
//!
//! [`Profiler::profile_family`]: impact_profile::Profiler::profile_family

use std::cell::Cell;

use impact_cache::{CacheConfig, FillPolicy};
use impact_ir::Program;
use impact_layout::pipeline::{NoopObserver, Pipeline, PipelineResult};
use impact_layout::scale::scale_code;
use impact_profile::{Profile, ProfileSource};

use crate::fmt;
use crate::prepare::{pipeline_config, Prepared};
use crate::session::{SimHandle, SimSession};

/// The paper's scaling factors.
pub const FACTORS: [f64; 4] = [0.5, 0.7, 1.0, 1.1];

/// One benchmark's miss/traffic across scaling factors.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// `(miss ratio, traffic ratio)` per entry of [`FACTORS`].
    pub cells: Vec<(f64, f64)>,
}

impact_support::json_object!(Row { name, cells });

/// Pending session requests for this table.
#[derive(Debug)]
pub struct Plan {
    rows: Vec<(String, Vec<SimHandle>)>,
}

/// Re-runs the pipeline per benchmark at every factor but 1.0, whose
/// column is the prepared result ([`pipelines`], fanned across the
/// session's worker threads), and registers one request per placement.
/// Each scaled program yields a distinct trace key (the key covers block
/// sizes and placement addresses), so the session cannot conflate
/// densities; the 1.0× request shares the headline tables' optimized
/// trace.
pub fn plan(session: &mut SimSession, prepared: &[Prepared]) -> Plan {
    let config = [CacheConfig::direct_mapped(2048, 64).with_fill(FillPolicy::Partial)];
    let results =
        impact_support::parallel_map(session.jobs(), prepared.iter().collect(), pipelines);
    let rows = prepared
        .iter()
        .zip(&results)
        .map(|(p, scaled)| {
            let handles = scaled
                .iter()
                .map(|result| {
                    session.request(
                        &result.program,
                        &result.placement,
                        p.eval_seed(),
                        p.budget.eval_limits(&p.workload),
                        &config,
                    )
                })
                .collect();
            (p.workload.name.to_owned(), handles)
        })
        .collect();
    Plan { rows }
}

/// The pipeline result of `p` at each of [`FACTORS`]: the prepared result
/// at 1.0, and otherwise what `Pipeline::run` gives on the scaled
/// original, with profiles from the shared family walks the module
/// describes.
#[must_use]
pub fn pipelines(p: &Prepared) -> Vec<PipelineResult> {
    ScaledProfiles::new(p).run(p)
}

/// The factors that re-run the pipeline.
fn scaled_factors() -> impl Iterator<Item = f64> {
    FACTORS.into_iter().filter(|&f| f != 1.0)
}

/// Profiles for one benchmark's scaled pipelines. The scaled originals
/// and the scaled prepared program are two families, each profiled in one
/// walk per seed; any other program is profiled directly.
struct ScaledProfiles {
    pipeline: Pipeline,
    /// The scaled originals in [`scaled_factors`] order, then the scaled
    /// prepared programs unless they are the same.
    programs: Vec<Program>,
    /// The profile of each of `programs`.
    profiles: Vec<Profile>,
    /// Programs profiled directly, outside both families.
    fallbacks: Cell<usize>,
}

impl ScaledProfiles {
    fn new(p: &Prepared) -> Self {
        let pipeline = Pipeline::new(pipeline_config(&p.workload, &p.budget));
        let profiler = pipeline.profiler();
        let (mut programs, mut profiles) = (Vec::new(), Vec::new());
        // Where nothing was inlined, the scaled originals answer both steps.
        let inlined = (p.result.program != p.baseline_program).then_some(&p.result.program);
        for original in std::iter::once(&p.baseline_program).chain(inlined) {
            let family: Vec<Program> = scaled_factors().map(|f| scale_code(original, f)).collect();
            profiles.extend(profiler.profile_family(&family.iter().collect::<Vec<_>>()));
            programs.extend(family);
        }
        Self {
            pipeline,
            programs,
            profiles,
            fallbacks: Cell::new(0),
        }
    }

    /// The pipeline at each of [`FACTORS`], as [`pipelines`] documents.
    fn run(&self, p: &Prepared) -> Vec<PipelineResult> {
        let mut scaled = self.programs.iter();
        FACTORS
            .iter()
            .map(|&f| {
                if f == 1.0 {
                    return p.result.clone();
                }
                let program = scaled.next().expect("one scaled original per factor");
                self.pipeline
                    .run_observed_with_source(program, self, &mut NoopObserver)
            })
            .collect()
    }
}

impl ProfileSource for ScaledProfiles {
    fn profile(&self, program: &Program) -> Profile {
        match self.programs.iter().position(|p| p == program) {
            Some(i) => self.profiles[i].clone(),
            None => {
                self.fallbacks.set(self.fallbacks.get() + 1);
                self.pipeline.profiler().profile(program)
            }
        }
    }
}

/// Reads the executed statistics into rows.
#[must_use]
pub fn finish(session: &SimSession, plan: &Plan) -> Vec<Row> {
    plan.rows
        .iter()
        .map(|(name, handles)| Row {
            name: name.clone(),
            cells: handles
                .iter()
                .map(|h| {
                    let s = session.stats(h)[0];
                    (s.miss_ratio(), s.traffic_ratio())
                })
                .collect(),
        })
        .collect()
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut header = vec!["name".to_owned()];
    for f in FACTORS {
        header.push(format!("{f} miss"));
        header.push(format!("{f} traffic"));
    }
    let table: Vec<Vec<String>> = rows
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
    format!(
        "Table 9. Effect of Code Scaling (2KB, 64B blocks, partial loading)\n{}",
        fmt::render_table(&header, &table)
    )
}

#[cfg(test)]
mod tests {
    use crate::prepare::{prepare, Budget};
    use crate::tables::run_alone;

    use super::*;

    #[test]
    fn scaling_keeps_ratios_stable_for_cache_friendly_benchmarks() {
        let w = impact_workloads::by_name("wc").unwrap();
        let p = prepare(&w, &Budget::fast());
        let rows = run_alone(std::slice::from_ref(&p), plan, |s, plan| finish(s, &plan));
        assert_eq!(rows[0].cells.len(), 4);
        // wc fits every cache at every density: all cells stay tiny.
        for &(m, _) in &rows[0].cells {
            assert!(m < 0.02, "wc miss under scaling: {m}");
        }
        assert!(render(&rows).contains("Table 9"));
    }

    /// Programs each benchmark's scaled pipelines profile outside both
    /// families, at fast budget.
    fn fallbacks(name: &str) -> usize {
        let p = prepare(&impact_workloads::by_name(name).unwrap(), &Budget::fast());
        let source = ScaledProfiles::new(&p);
        source.run(&p);
        source.fallbacks.get()
    }

    #[test]
    fn scaled_pipelines_profile_from_their_families() {
        // wc and cmp inline the scaled programs exactly as the prepared
        // one, so every profile comes from a shared walk.
        assert_eq!(fallbacks("wc"), 0);
        assert_eq!(fallbacks("cmp"), 0);
        // lex's scaled inlining differs from the prepared one at this
        // budget, so its pipelines walk the odd programs themselves.
        assert!(fallbacks("lex") > 0);
    }
}
