//! `repro` — regenerate any table of the ISCA 1989 IMPACT-I paper.
//!
//! ```text
//! repro [TABLE ... | all] [--fast] [--extended] [--json DIR] [--jobs N]
//!       [--metrics FILE] [--store DIR]
//! ```
//!
//! * `TABLE` is any label in [`runner::TABLES`] (`usage` lists them);
//!   without one, `repro` renders the paper's tables `table1` .. `table9`.
//! * `--fast` caps walk lengths (quick smoke run; ratios are noisier).
//! * `--json DIR` additionally writes each table's rows as `tableN.json`.
//! * `--jobs N` bounds the worker threads for preparation and simulation
//!   (default: the machine's available parallelism). Table output is
//!   byte-identical for every `N`.
//! * `--metrics FILE` writes the evaluation-engine metrics (traces
//!   streamed vs. memo-served, instructions/sec, per-table timing) as
//!   JSON; a summary always goes to stderr.
//! * `--store DIR` attaches a persistent content-addressed store:
//!   results are written through, and a repeated invocation is answered
//!   mostly from disk (`disk_served` in the metrics) with byte-identical
//!   tables. New configs over a stored trace walk it again.
//!
//! All selected tables share one [`SimSession`], so every unique
//! evaluation trace is streamed exactly once per run no matter how many
//! tables demand it.
//!
//! When the `score` table runs at the full budget over the standard
//! workload set, its mean cost-vs-miss rank correlation is checked
//! against the committed baseline in `experiments_out/score.json`; a
//! drop exits 1 so scorer regressions cannot land silently.
//!
//! [`SimSession`]: impact_experiments::session::SimSession
//! [`runner::TABLES`]: impact_experiments::runner::TABLES

use std::process::ExitCode;

use impact_experiments::prepare::{prepare_many_jobs, Budget};
use impact_experiments::runner;
use impact_experiments::session::SimSession;
use impact_support::ToJson;

fn usage() -> ExitCode {
    let labels: Vec<&str> = runner::TABLES.iter().map(|(label, _)| *label).collect();
    eprintln!(
        "usage: repro [{} | all] [--fast] [--extended] [--json DIR] [--jobs N] [--metrics FILE] [--store DIR]",
        labels.join(" | ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut selected: Vec<u8> = Vec::new();
    let mut fast = false;
    let mut extended = false;
    let mut json_dir: Option<String> = None;
    let mut metrics_file: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut store_dir: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--extended" => extended = true,
            "--json" => match args.next() {
                Some(dir) => json_dir = Some(dir),
                None => return usage(),
            },
            "--metrics" => match args.next() {
                Some(file) => metrics_file = Some(file),
                None => return usage(),
            },
            "--store" => match args.next() {
                Some(dir) => store_dir = Some(dir),
                None => return usage(),
            },
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                Some(0) => {
                    eprintln!(
                        "repro: --jobs must be at least 1 (0 worker threads cannot \
                         make progress); omit --jobs to size from the CPU count"
                    );
                    return ExitCode::FAILURE;
                }
                _ => return usage(),
            },
            "all" => selected.extend((1..).zip(runner::TABLES).map(|(n, _)| n)),
            name => match runner::table_id(name) {
                Some(n) => selected.push(n),
                None => return usage(),
            },
        }
    }
    if selected.is_empty() {
        let paper = (1..).zip(runner::TABLES);
        selected.extend(
            paper
                .filter(|(_, (label, _))| label.starts_with("table"))
                .map(|(n, _)| n),
        );
    }
    selected.sort_unstable();
    selected.dedup();

    let jobs = jobs.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let budget = if fast {
        Budget::fast()
    } else {
        Budget::default()
    };
    let mut workloads = impact_workloads::all();
    if extended {
        workloads.extend(impact_workloads::extended());
    }
    eprintln!(
        "preparing {} benchmarks ({} budget, {jobs} jobs)...",
        workloads.len(),
        if fast { "fast" } else { "full" }
    );
    let t0 = std::time::Instant::now();
    let prepared = prepare_many_jobs(&workloads, &budget, jobs);
    eprintln!("prepared in {:.1?}", t0.elapsed());

    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut session = SimSession::with_jobs(jobs);
    if let Some(dir) = &store_dir {
        match impact_store::Store::open(dir) {
            Ok(store) => session = session.with_store(std::sync::Arc::new(store)),
            Err(e) => {
                eprintln!("cannot open store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let outputs = runner::run_tables(&mut session, &prepared, &selected);
    for out in &outputs {
        println!("{}", out.text);
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/{}.json", out.label);
            if let Err(e) = std::fs::write(&path, &out.json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let metrics = session.metrics();
    eprintln!("{}", metrics.render_summary());
    if let Some(file) = &metrics_file {
        if let Err(e) = std::fs::write(file, metrics.to_json().to_string_pretty()) {
            eprintln!("cannot write {file}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Scorer regression gate. Only the full budget over the standard
    // workload set is comparable to the committed baseline.
    if !fast && !extended {
        if let Some(out) = outputs.iter().find(|o| o.label == "score") {
            match score_gate(&out.json) {
                Ok(msg) => eprintln!("{msg}"),
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// Compares this run's mean cost-vs-miss rank correlation against the
/// committed `experiments_out/score.json`. A missing baseline skips the
/// gate (first run on a fresh checkout); a drop is an error.
fn score_gate(current_json: &str) -> Result<String, String> {
    const BASELINE: &str = "experiments_out/score.json";
    let Ok(committed) = std::fs::read_to_string(BASELINE) else {
        return Ok(format!(
            "score gate: no committed baseline at {BASELINE}; skipping"
        ));
    };
    let baseline = mean_miss_rho_of(&committed)
        .map_err(|e| format!("score gate: bad baseline {BASELINE}: {e}"))?;
    let current =
        mean_miss_rho_of(current_json).map_err(|e| format!("score gate: bad table output: {e}"))?;
    if current + 1e-9 < baseline {
        Err(format!(
            "score gate: mean miss-rank correlation regressed to {current:+.3} \
             (committed baseline {baseline:+.3})"
        ))
    } else {
        Ok(format!(
            "score gate: mean miss-rank correlation {current:+.3} >= committed {baseline:+.3}"
        ))
    }
}

/// Mean of the `miss_rho` field over a JSON array of score rows.
fn mean_miss_rho_of(src: &str) -> Result<f64, String> {
    let json = impact_support::json::parse(src).map_err(|e| e.to_string())?;
    let rows = json.as_arr().ok_or("expected a JSON array of rows")?;
    if rows.is_empty() {
        return Err("no rows".to_owned());
    }
    let mut sum = 0.0;
    for row in rows {
        sum += row
            .get("miss_rho")
            .and_then(impact_support::json::Json::as_f64)
            .ok_or("row missing numeric miss_rho")?;
    }
    Ok(sum / rows.len() as f64)
}
