//! `perfbench` — the measuring half of the repository's benchmark.
//!
//! ```text
//! perfbench serve --workload W --seed N --seconds S --impact BIN --work DIR [--trace 0|1]
//! perfbench trace --workload W --seed N --seconds S [--impact BIN --work DIR]
//! ```
//!
//! `serve` runs one `impact serve` workload end to end and prints the
//! result document as its last stdout line. `trace` runs a workload's
//! inputs in-process through each module's public functions with spans
//! around every call, and prints the per-layer metrics the same way.

use std::path::PathBuf;
use std::process::ExitCode;

mod bodies;
mod client;
mod reference;
mod serve;
mod server;
mod stats;
mod traced;
mod tracer;

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("miss_pct_2k", "%"),
    ("traffic_pct_2k", "%"),
];

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: u64,
    impact: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: reference::DEFAULT_SEED,
        seconds: 10,
        impact: PathBuf::new(),
        work: PathBuf::from("."),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--impact" => args.impact = PathBuf::from(&value),
            "--work" => args.work = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: {}: {e}", args.work.display());
        return ExitCode::FAILURE;
    }
    let env = serve::Env {
        impact: &args.impact,
        work: &args.work,
        seed: args.seed,
        seconds: args.seconds,
    };
    let result = match args.command.as_str() {
        "serve" => run_serve(&args.workload, &env),
        "trace" => traced::run(&args.workload, &env).map(|r| r.to_json().to_string()),
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_serve(workload: &str, env: &serve::Env<'_>) -> Result<String, String> {
    let outcome = match workload {
        "serve_cold" => serve::serve_cold(env),
        "serve_warm" => serve::serve_warm(env),
        "serve_restart" => serve::serve_restart(env),
        w => return Err(format!("unknown serve workload {w}")),
    }
    .map_err(|e| e.to_string())?;
    let names: Vec<(&str, &str)> = outcome.report.metrics().collect();
    if names != END_TO_END {
        return Err(format!("reported {names:?}, expected {END_TO_END:?}"));
    }
    Ok(outcome.report.to_json().to_string())
}

#[cfg(test)]
mod tests {
    use impact_support::json::{parse, Json};

    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn reported_metrics_match_the_benchmark_definition() {
        let doc = benchmark_json();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&traced::LAYERS));
        for (name, _) in END_TO_END.iter().chain(&traced::LAYERS) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn every_required_layer_metric_is_reported() {
        for w in ["repro_cold", "serve_cold", "serve_warm", "serve_restart"] {
            assert!(!traced::required(w).is_empty(), "{w}");
            for m in traced::required(w) {
                assert!(traced::LAYERS.iter().any(|(n, _)| n == m), "{w}: {m}");
            }
        }
    }
}
