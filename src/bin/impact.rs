//! `impact` — the command-line front end over `.impact` program files.
//!
//! ```text
//! impact report   <file>                          profile and describe a program
//! impact optimize <file> [-o out.impact] [--json] run the placement pipeline,
//!                                                 emit the reordered program
//! impact sim      <file> [options]                trace-driven cache simulation
//! impact viz      <file> [options]                placement map and cache-set pressure
//! impact trace    <file> -o out.din               export a din-format fetch trace
//! impact simtrace <trace.din> [options]           simulate an external din trace
//! impact lint     <file | workload | all>         run the static-analysis passes
//!                                                 over the full pipeline
//! impact analyze  <file | workload | all>         profile-free pipeline: estimate
//!                                                 frequencies statically, place,
//!                                                 and bound the miss ratio
//! impact advise   <file | workload | all>         analyze, score the placement
//!                                                 (ExtTSP + distance tiers), and
//!                                                 run the layout advisors
//! impact serve    [serve options]                 placement-and-simulation HTTP
//!                                                 service (see crates/serve)
//! impact store    <ls|stat|verify|gc> DIR         inspect and maintain a
//!                                                 persistent result store
//!
//! common options (`--runs` and `--max-instrs` must be positive on every
//! subcommand; zero is an error, exit 1):
//!   --runs N        profiling runs                      (default 8)
//!   --seed S        evaluation input seed               (default 1000003)
//!   --max-instrs N  dynamic instruction cap per walk    (default 5000000)
//!
//! optimize options:
//!   -o FILE         write the reordered program
//!   --json          print the `/v1/layout` response document
//!
//! sim options:
//!   --cache BYTES   cache size                          (default 2048)
//!   --block BYTES   block size                          (default 64)
//!   --assoc A       direct | full | <N>                 (default direct)
//!   --fill F        full | partial | sector:<BYTES>     (default full)
//!   --no-optimize   simulate the program's natural layout
//!   --json          print the `/v1/simulate` response document
//!
//! lint options:
//!   --json            emit diagnostics as JSON instead of text
//!   --deny-warnings   exit nonzero on warnings, not just errors
//!
//! analyze options:
//!   --json            emit the analysis as JSON instead of text
//!   --score           also print the placement scores (always in JSON)
//!   --cache BYTES     conflict-analysis cache size        (default 2048)
//!   --block BYTES     conflict-analysis line size         (default 64)
//!   --deny-warnings   exit nonzero on warnings, not just errors
//!
//! advise options (in addition to the analyze options):
//!   --diff BASELINE   differential mode: score the pipeline placement
//!                     against `natural` or `random[:seed]` and report
//!                     deltas plus per-pass finding regressions
//!
//! serve options:
//!   --addr A              bind address                      (default 127.0.0.1:0)
//!   --workers N           worker threads                    (default 4)
//!   --queue N             dispatched-request queue bound    (default 1024)
//!   --read-timeout MS     idle/slow-client read deadline    (default 10000)
//!   --write-timeout MS    unread-response write deadline    (default 10000)
//!   --sim-jobs N          accepted, no effect (one trace per simulate)
//!   --cache-bytes N       response-memo byte budget; 0 off  (default 64 MiB)
//!   --store DIR           persistent content-addressed result store:
//!                         finished results and trace artifacts are
//!                         written through; a restarted server answers
//!                         previously-seen /v1/simulate bodies from disk,
//!                         and new configs over a stored trace replay
//!                         its artifact instead of walking it again
//!
//! store options:
//!   --max-bytes N     gc: evict oldest entries beyond this footprint
//!   --json            machine-readable output
//!
//! `impact serve` prints the bound address on stdout, then serves until
//! SIGTERM/SIGINT or stdin EOF.
//!
//! `impact store` inspects or maintains a store directory produced by
//! `impact serve --store` / `repro --store`: `ls` lists entries, `stat`
//! prints aggregates, `verify` re-checks every frame (quarantining and
//! exiting nonzero on corruption), and `gc --max-bytes N` evicts
//! oldest-first down to the byte budget.
//!
//! `impact lint` accepts a `.impact` file, the name of a bundled workload
//! (`wc`, `grep`, ...), or `all`. It runs the checked pipeline and prints
//! every diagnostic; the exit code is nonzero iff any *error*-severity
//! diagnostic fired (or any warning under `--deny-warnings`). See
//! `impact_analyze` for the code table.
//!
//! `impact analyze` accepts the same targets but never executes the
//! program: branch probabilities come from static heuristics, the
//! pipeline is driven by the estimated profile, and the placement is
//! verified and checked for predicted cache conflicts (IPA301-IPA303).
//!
//! `impact advise` builds on `analyze`: it scores the placement with
//! the ExtTSP and distance-tier cost models and runs the layout
//! advisors (IPA401-IPA405), each finding carrying a concrete reorder
//! hint. With `--diff` it scores an alternative placement of the same
//! program and reports the score deltas and a `better` verdict.
//! ```
//!
//! Example session:
//!
//! ```text
//! cargo run --release --example dump_program -- yacc yacc.impact
//! cargo run --release --bin impact -- sim yacc.impact --cache 2048
//! cargo run --release --bin impact -- optimize yacc.impact -o yacc.opt.impact
//! ```

use std::process::ExitCode;

use impact::analyze::{
    advise_static, analyze_static, run_checked, score_placement, ConflictConfig, Report,
};
use impact::asm::{parse_program, print_program};
use impact::cache::{Associativity, Cache, CacheConfig, FillPolicy};
use impact::ir::Program;
use impact::layout::materialize::materialize;
use impact::layout::pipeline::{Pipeline, PipelineConfig, PipelineResult};
use impact::profile::Profiler;
use impact::serve::api::{self, AppState, Layout, LayoutRequest, RunParams, SimulateRequest};
use impact::support::json::Json;
use impact::trace::TraceGenerator;

/// Options shared by all subcommands.
struct Options {
    file: String,
    out: Option<String>,
    params: RunParams,
    seed: u64,
    cache: u64,
    block: u64,
    assoc: Associativity,
    fill: FillPolicy,
    layout: Layout,
    json: bool,
    deny_warnings: bool,
    score: bool,
    diff: Option<String>,
}

impl Options {
    /// The `--cache/--block/--assoc/--fill` cache, or `None` after
    /// printing why it is invalid.
    fn cache_config(&self) -> Option<CacheConfig> {
        let config = CacheConfig {
            size_bytes: self.cache,
            block_bytes: self.block,
            associativity: self.assoc,
            fill: self.fill,
        };
        match config.validate() {
            Ok(()) => Some(config),
            Err(e) => {
                eprintln!("bad cache configuration: {e}");
                None
            }
        }
    }

    /// Whether a checked target fails the run: `report` has an error, or
    /// there are `warnings` under `--deny-warnings`.
    fn fails(&self, report: &Report, warnings: usize) -> bool {
        !report.is_clean() || (self.deny_warnings && warnings > 0)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: impact <report|optimize|sim|viz|trace|simtrace|lint|analyze|advise> <file.impact> [options]\n\
         \u{20}      impact optimize <file.impact> [-o out.impact] [--json]\n\
         \u{20}      impact sim <file.impact> [--json] [sim options]\n\
         \u{20}      impact serve [--addr A] [--workers N] [--queue N] [--read-timeout MS]\n\
         \u{20}                   [--write-timeout MS] [--sim-jobs N] [--cache-bytes N] [--store DIR]\n\
         \u{20}      impact store <ls|stat|verify|gc> DIR [--max-bytes N] [--json]\n\
         see `src/bin/impact.rs` header for the option list"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        return usage();
    };
    if command == "serve" {
        // `serve` takes no program file; it has its own flag set.
        return serve(args.collect());
    }
    if command == "store" {
        // `store` operates on a store directory, not a program file.
        return store_cmd(args.collect());
    }

    let mut opts = Options {
        file: String::new(),
        out: None,
        params: RunParams::default(),
        seed: Profiler::DEFAULT_EVAL_SEED,
        cache: 2048,
        block: 64,
        assoc: Associativity::Direct,
        fill: FillPolicy::FullBlock,
        layout: Layout::Optimized,
        json: false,
        deny_warnings: false,
        score: false,
        diff: None,
    };

    let (mut runs, mut max_instrs) = (None, None);
    let mut rest: Vec<String> = args.collect();
    let mut i = 0;
    let mut positional: Vec<String> = Vec::new();
    while i < rest.len() {
        let take_value = |rest: &mut Vec<String>, i: usize| -> Option<String> {
            (i + 1 < rest.len()).then(|| rest.remove(i + 1))
        };
        match rest[i].as_str() {
            "-o" | "--out" => match take_value(&mut rest, i) {
                Some(v) => opts.out = Some(v),
                None => return usage(),
            },
            "--runs" => match take_value(&mut rest, i).and_then(|v| v.parse().ok()) {
                Some(v) => runs = Some(v),
                None => return usage(),
            },
            "--seed" => match take_value(&mut rest, i).and_then(|v| v.parse().ok()) {
                Some(v) => opts.seed = v,
                None => return usage(),
            },
            "--max-instrs" => match take_value(&mut rest, i).and_then(|v| v.parse().ok()) {
                Some(v) => max_instrs = Some(v),
                None => return usage(),
            },
            "--cache" => match take_value(&mut rest, i).and_then(|v| v.parse().ok()) {
                Some(v) => opts.cache = v,
                None => return usage(),
            },
            "--block" => match take_value(&mut rest, i).and_then(|v| v.parse().ok()) {
                Some(v) => opts.block = v,
                None => return usage(),
            },
            "--assoc" => match take_value(&mut rest, i)
                .and_then(|v| api::parse_assoc(Some(&v), v.parse().ok()).ok())
            {
                Some(v) => opts.assoc = v,
                None => return usage(),
            },
            "--fill" => match take_value(&mut rest, i).and_then(|v| api::parse_fill(&v)) {
                Some(v) => opts.fill = v,
                None => return usage(),
            },
            "--no-optimize" => opts.layout = Layout::Natural,
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--score" => opts.score = true,
            "--diff" => match take_value(&mut rest, i) {
                Some(v) => opts.diff = Some(v),
                None => return usage(),
            },
            flag if flag.starts_with('-') => {
                eprintln!("unknown option {flag}");
                return usage();
            }
            _ => {
                positional.push(rest[i].clone());
                i += 1;
                continue;
            }
        }
        rest.remove(i);
    }
    let [file] = positional.as_slice() else {
        return usage();
    };
    opts.file = file.clone();
    opts.params = match RunParams::new(runs, max_instrs) {
        Ok(params) => params,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if command == "simtrace" {
        return simtrace(&opts);
    }
    if command == "lint" {
        return lint(&opts);
    }
    if command == "analyze" {
        return analyze(&opts);
    }
    if command == "advise" {
        return advise(&opts);
    }

    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };
    let program = match parse_program(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };

    match command.as_str() {
        "report" => report(&program, &opts),
        "optimize" => optimize(program, &opts),
        "sim" => sim(program, &opts),
        "viz" => viz(program, &opts),
        "trace" => trace(&program, &opts),
        _ => usage(),
    }
}

/// Resolves the targets of `lint`, `analyze` and `advise`: a workload
/// name, `all`, or a `.impact` file.
fn targets(opts: &Options) -> Result<Vec<(String, Program)>, String> {
    if opts.file == "all" {
        return Ok(impact::workloads::all()
            .into_iter()
            .map(|w| (w.name.to_string(), w.program))
            .collect());
    }
    if let Some(w) = impact::workloads::by_name(&opts.file) {
        return Ok(vec![(w.name.to_string(), w.program)]);
    }
    let source = std::fs::read_to_string(&opts.file).map_err(|e| {
        format!(
            "cannot read {}: {e} (and no workload has that name)",
            opts.file
        )
    })?;
    let program = parse_program(&source).map_err(|e| format!("{}: {e}", opts.file))?;
    Ok(vec![(opts.file.clone(), program)])
}

/// Drives `lint`, `analyze` and `advise` over their targets. `check`
/// runs one target and says whether it fails the run ([`Options::fails`]);
/// its result then prints as `== name ==` and `text`, or under `--json`
/// joins the printed array as its `row`. The exit code is nonzero iff a
/// target failed or could not run.
fn run_targets<T>(
    opts: &Options,
    check: impl Fn(&Program) -> Result<(T, bool), String>,
    row: impl Fn(&str, &T) -> Json,
    text: impl Fn(&T),
) -> ExitCode {
    let targets = match targets(opts) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    let mut rows = Vec::new();
    for (name, program) in &targets {
        let (done, fails) = match check(program) {
            Ok(checked) => checked,
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        failed |= fails;
        if opts.json {
            rows.push(row(name, &done));
        } else {
            println!("== {name} ==");
            text(&done);
        }
    }
    if opts.json {
        println!("{}", Json::Arr(rows).to_string_pretty());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `impact lint` — the checked pipeline, linting each of its checkpoints.
fn lint(opts: &Options) -> ExitCode {
    let pipeline = Pipeline::new(opts.params.pipeline_config());
    run_targets(
        opts,
        |program| {
            let (_, report) = run_checked(&pipeline, program).map_err(|e| e.to_string())?;
            let fails = opts.fails(&report, report.warning_count());
            Ok((report, fails))
        },
        |name, report| report.to_json_for_target(name),
        |report| print!("{}", report.render()),
    )
}

/// The `--cache/--block` geometry of `analyze` and `advise`.
fn conflict_config(opts: &Options) -> ConflictConfig {
    ConflictConfig {
        cache_bytes: opts.cache,
        line_bytes: opts.block,
        ..ConflictConfig::default()
    }
}

/// `impact analyze` — the profile-free pipeline over one or more targets.
///
/// For each target: estimate a static profile, drive the placement
/// pipeline with it, verify the placement, run the IPA3xx conflict
/// predictions at the `--cache/--block` geometry, and report the
/// estimated miss-ratio bound plus the hottest estimated functions.
fn analyze(opts: &Options) -> ExitCode {
    let conflict = conflict_config(opts);
    run_targets(
        opts,
        |program| {
            let analysis = analyze_static(program, &PipelineConfig::default(), conflict)
                .map_err(|e| e.to_string())?;
            let report = &analysis.report;
            let fails = opts.fails(report, report.warning_count());
            Ok((analysis, fails))
        },
        |name, analysis| analysis.to_json_for_target(name),
        |analysis| {
            let result = &analysis.result;
            let mut hot: Vec<(u64, String)> = result
                .program
                .functions()
                .map(|(fid, f)| (result.profile.func_weight(fid), f.name().to_owned()))
                .collect();
            hot.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let bound = analysis.miss_bound;
            println!(
                "static placement: {} bytes; estimated miss-ratio bound {:.2}% \
                 ({} cold lines, {} contended of {} line accesses, {}B cache / {}B lines)",
                result.placement.total_bytes(),
                bound.ratio() * 100.0,
                bound.cold_lines,
                bound.conflict_weight,
                bound.accesses,
                opts.cache,
                opts.block
            );
            let top: Vec<String> = hot
                .iter()
                .take(5)
                .map(|(w, n)| format!("{n} ({w})"))
                .collect();
            println!("hottest (estimated): {}", top.join(", "));
            if opts.score {
                println!(
                    "placement scores: exttsp {:.3}, distance-tier {:.3} \
                     (1.0 = every transfer at its best tier)",
                    analysis.scores.exttsp, analysis.scores.tier
                );
            }
            print!("{}", analysis.report.render());
        },
    )
}

/// `impact advise` — the profile-free pipeline plus placement scoring
/// and the layout advisors (IPA401-IPA405) over one or more targets.
///
/// Without `--diff`, each target reports its ExtTSP and distance-tier
/// scores, the miss-ratio bound, and every advisor finding. With
/// `--diff BASELINE`, the pipeline placement is scored against an
/// alternative order of the same post-inline program and the document
/// becomes the score deltas, a per-pass finding regression table, and
/// a `better` verdict.
fn advise(opts: &Options) -> ExitCode {
    let conflict = conflict_config(opts);
    run_targets(
        opts,
        |program| {
            let advice = advise_static(program, &PipelineConfig::default(), conflict)
                .map_err(|e| e.to_string())?;
            let diff = match &opts.diff {
                Some(spec) => Some(
                    api::diff_baseline(spec, &advice.analysis.result.program).ok_or_else(|| {
                        format!("unknown --diff baseline '{spec}' (use natural | random[:seed])")
                    })?,
                ),
                None => None,
            };
            // Errors come from the analysis, warnings from the advisors.
            let fails = opts.fails(&advice.analysis.report, advice.advice.warning_count());
            Ok(((advice, diff), fails))
        },
        |name, (advice, diff)| match diff {
            Some((bname, bp)) => advice.diff_json_for_target(name, bname, bp, conflict),
            None => advice.to_json_for_target(name),
        },
        |(advice, diff)| {
            let scores = advice.analysis.scores;
            println!(
                "placement scores: exttsp {:.3}, distance-tier {:.3} \
                 (1.0 = every transfer at its best tier)",
                scores.exttsp, scores.tier
            );
            println!(
                "estimated miss-ratio bound {:.2}% ({}B cache / {}B lines)",
                advice.analysis.miss_bound.ratio() * 100.0,
                opts.cache,
                opts.block
            );
            if let Some((bname, bp)) = diff {
                let result = &advice.analysis.result;
                let base =
                    score_placement(&result.program, &result.profile, bp, conflict.line_bytes);
                println!(
                    "vs {bname}: exttsp {:+.3}, distance-tier {:+.3} — {}",
                    scores.exttsp - base.exttsp,
                    scores.tier - base.tier,
                    if scores.exttsp > base.exttsp {
                        "pipeline placement is better"
                    } else {
                        "baseline is at least as good"
                    }
                );
            }
            print!("{}", advice.advice.render());
        },
    )
}

fn report(program: &Program, opts: &Options) -> ExitCode {
    println!(
        "{}: {} functions, {} blocks, {} bytes",
        opts.file,
        program.function_count(),
        program
            .functions()
            .map(|(_, f)| f.block_count())
            .sum::<usize>(),
        program.total_bytes()
    );

    let profiler = Profiler::new()
        .runs(opts.params.runs())
        .limits(opts.params.limits());
    let profile = profiler.profile(program);
    println!(
        "profile over {} runs: {} instructions, {} control transfers, {} calls{}",
        profile.runs,
        profile.totals.instructions,
        profile.totals.intra_transfers,
        profile.totals.calls,
        if profile.totals.truncated {
            " (some runs truncated)"
        } else {
            ""
        }
    );

    let mut funcs: Vec<_> = program
        .functions()
        .map(|(fid, f)| {
            (
                profile.func_weight(fid),
                f.name().to_owned(),
                f.size_bytes(),
            )
        })
        .collect();
    funcs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    println!("\n{:<20} {:>12} {:>8}", "function", "invocations", "bytes");
    for (w, name, bytes) in funcs.iter().take(15) {
        println!("{name:<20} {w:>12} {bytes:>8}");
    }
    if funcs.len() > 15 {
        println!("... and {} more", funcs.len() - 15);
    }
    ExitCode::SUCCESS
}

/// The `/v1/layout` request built from argv, run through the same
/// validated pipeline as the endpoint; `None` after printing why the
/// pipeline rejected it.
fn layout(program: Program, opts: &Options) -> Option<PipelineResult> {
    let req = LayoutRequest {
        program,
        params: opts.params,
        min_prob: None,
    };
    api::layout(&req)
        .map_err(|e| eprintln!("{}: {e}", opts.file))
        .ok()
}

/// `impact optimize` — the `/v1/layout` request: `--json` prints the
/// endpoint's document, `-o` writes the reordered program.
fn optimize(program: Program, opts: &Options) -> ExitCode {
    let Some(result) = layout(program, opts) else {
        return ExitCode::FAILURE;
    };
    if let Some(path) = &opts.out {
        let materialized = materialize(&result.program, &result.global, &result.layouts);
        if let Err(e) = std::fs::write(path, print_program(&materialized)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if opts.json {
        let doc = api::layout_response_json(&opts.file, &result);
        println!("{}", doc.to_string_pretty());
        return ExitCode::SUCCESS;
    }
    println!(
        "placement: {} bytes ({} effective), inlining removed {:.1}% of calls,\n\
         trace quality {:.0}% desirable / {:.0}% neutral, mean trace {:.1} blocks",
        result.total_static_bytes(),
        result.effective_static_bytes(),
        result.inline_report.call_decrease * 100.0,
        result.trace_quality.desirable * 100.0,
        result.trace_quality.neutral * 100.0,
        result.trace_quality.mean_trace_length,
    );
    match &opts.out {
        Some(path) => println!("wrote reordered program to {path}"),
        None => println!(
            "(pass `-o out.impact` to write the reordered program; \
             function order: {})",
            result
                .global
                .order()
                .iter()
                .take(8)
                .map(|&f| result.program.function(f).name().to_owned())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
    ExitCode::SUCCESS
}

fn trace(program: &Program, opts: &Options) -> ExitCode {
    let Some(out_path) = &opts.out else {
        eprintln!("trace requires -o <out.din>");
        return ExitCode::FAILURE;
    };
    let (sim_program, placement) = match opts.layout.place(program, opts.params) {
        Ok(placed) => placed,
        Err(e) => {
            eprintln!("{}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };
    let gen = TraceGenerator::new(&sim_program, &placement).with_limits(opts.params.limits());
    let file = match std::fs::File::create(out_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut writer = std::io::BufWriter::new(file);
    match impact::trace::din::write_din(&gen, opts.seed, &mut writer) {
        Ok(n) => {
            println!("wrote {n} fetch records to {out_path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn simtrace(opts: &Options) -> ExitCode {
    let Some(config) = opts.cache_config() else {
        return ExitCode::FAILURE;
    };
    let file = match std::fs::File::open(&opts.file) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot read {}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };
    let mut cache = Cache::new(config);
    let reader = std::io::BufReader::new(file);
    match impact::trace::din::read_din_runs(reader, &mut cache) {
        Ok(_) => {
            let stats = cache.take_stats();
            println!(
                "{}: {} fetches | miss {:.4}% | traffic {:.2}%",
                opts.file,
                stats.accesses,
                stats.miss_ratio() * 100.0,
                stats.traffic_ratio() * 100.0
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn viz(program: Program, opts: &Options) -> ExitCode {
    let Some(result) = layout(program, opts) else {
        return ExitCode::FAILURE;
    };
    println!(
        "{}",
        impact::experiments::viz::placement_map(
            &result.program,
            &result.profile,
            &result.placement
        )
    );
    let config = CacheConfig::direct_mapped(opts.cache, opts.block);
    if let Err(e) = config.validate() {
        eprintln!("bad cache configuration: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        impact::experiments::viz::set_pressure(
            &result.program,
            &result.profile,
            &result.placement,
            config,
            10
        )
    );
    ExitCode::SUCCESS
}

/// `impact sim` — the `/v1/simulate` request built from argv, run on a
/// storeless service state. `--json` prints the endpoint's document.
fn sim(program: Program, opts: &Options) -> ExitCode {
    let Some(config) = opts.cache_config() else {
        return ExitCode::FAILURE;
    };
    let req = SimulateRequest {
        program,
        layout: opts.layout,
        seed: opts.seed,
        params: opts.params,
        configs: vec![config],
    };
    let done = match api::simulate(&AppState::new(1), &req) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("{}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };
    if opts.json {
        println!("{}", req.response_json(&done).to_string_pretty());
        return ExitCode::SUCCESS;
    }
    let stats = done.stats[0];
    println!(
        "{} layout, {}B cache, {}B blocks, seed {}:",
        req.layout.label(),
        opts.cache,
        opts.block,
        opts.seed
    );
    println!(
        "  {} fetches{} | miss {:.4}% | traffic {:.2}% | avg.fetch {:.1} | avg.exec {:.1}",
        stats.accesses,
        // The walk's own outcome: the instruction cap or the call-depth
        // cap (a storeless simulate always walks, so it is known).
        if done.truncated == Some(true) {
            " (truncated)"
        } else {
            ""
        },
        stats.miss_ratio() * 100.0,
        stats.traffic_ratio() * 100.0,
        stats.avg_fetch(),
        stats.avg_exec()
    );
    ExitCode::SUCCESS
}

/// `impact serve` — start the placement-and-simulation HTTP service.
///
/// Prints the bound address (`serving on http://ADDR`) to stdout, then
/// serves until SIGTERM/SIGINT arrives or stdin reaches EOF.
fn serve(rest: Vec<String>) -> ExitCode {
    use impact::serve::{signal, ServeConfig, Server};

    let mut config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().ok_or_else(|| {
                eprintln!("impact serve: {flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => match value("--addr") {
                Ok(v) => config.addr = v,
                Err(code) => return code,
            },
            "--workers" => match value("--workers").map(|v| v.parse()) {
                Ok(Ok(n)) if n >= 1 => config.workers = n,
                _ => {
                    eprintln!("impact serve: --workers must be a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--queue" => match value("--queue").map(|v| v.parse()) {
                Ok(Ok(n)) => config.queue_cap = n,
                _ => {
                    eprintln!("impact serve: --queue must be a non-negative integer");
                    return ExitCode::FAILURE;
                }
            },
            "--read-timeout" => match value("--read-timeout").map(|v| v.parse::<u64>()) {
                Ok(Ok(ms)) if ms >= 1 => {
                    config.read_timeout = std::time::Duration::from_millis(ms);
                }
                _ => {
                    eprintln!("impact serve: --read-timeout must be a positive integer (ms)");
                    return ExitCode::FAILURE;
                }
            },
            "--write-timeout" => match value("--write-timeout").map(|v| v.parse::<u64>()) {
                Ok(Ok(ms)) if ms >= 1 => {
                    config.write_timeout = std::time::Duration::from_millis(ms);
                }
                _ => {
                    eprintln!("impact serve: --write-timeout must be a positive integer (ms)");
                    return ExitCode::FAILURE;
                }
            },
            "--cache-bytes" => match value("--cache-bytes").map(|v| v.parse()) {
                Ok(Ok(n)) => config.response_cache_bytes = n,
                _ => {
                    eprintln!("impact serve: --cache-bytes must be a non-negative integer");
                    return ExitCode::FAILURE;
                }
            },
            "--sim-jobs" => match value("--sim-jobs").map(|v| v.parse()) {
                Ok(Ok(n)) if n >= 1 => config.sim_jobs = n,
                _ => {
                    eprintln!("impact serve: --sim-jobs must be a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--store" => match value("--store") {
                Ok(dir) => config.store_dir = Some(dir),
                Err(code) => return code,
            },
            flag => {
                eprintln!("impact serve: unknown option {flag}");
                return usage();
            }
        }
    }

    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("impact serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("serving on http://{}", server.addr());
    // Make the address visible immediately even under a pipe.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    signal::watch_shutdown(server.shutdown_flag());
    server.wait();
    println!("impact serve: shut down cleanly");
    ExitCode::SUCCESS
}

/// `impact store` — inspect and maintain a persistent result store:
/// `ls` (entries), `stat` (aggregates), `verify` (re-check every frame,
/// nonzero exit on corruption), `gc --max-bytes N` (evict oldest-first).
fn store_cmd(rest: Vec<String>) -> ExitCode {
    use impact::store::{kind, Store};
    use impact::support::json::{Json, ToJson};

    let store_usage = || {
        eprintln!("usage: impact store <ls|stat|verify|gc> DIR [--max-bytes N] [--json]");
        ExitCode::FAILURE
    };
    let mut action: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut max_bytes: Option<u64> = None;
    let mut json = false;
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--max-bytes" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => max_bytes = Some(n),
                None => {
                    eprintln!("impact store: --max-bytes must be a byte count");
                    return ExitCode::FAILURE;
                }
            },
            _ if action.is_none() => action = Some(arg),
            _ if dir.is_none() => dir = Some(arg),
            _ => return store_usage(),
        }
    }
    let (Some(action), Some(dir)) = (action, dir) else {
        return store_usage();
    };
    if !matches!(action.as_str(), "ls" | "stat" | "verify" | "gc") {
        eprintln!("impact store: unknown action {action}");
        return store_usage();
    }
    let store = match Store::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("impact store: cannot open {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };

    match action.as_str() {
        "ls" => {
            let entries = store.entries();
            if json {
                let doc = Json::Arr(
                    entries
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("cid".to_string(), e.cid.to_hex().to_json()),
                                (
                                    "kind".to_string(),
                                    kind::label(store.peek_kind(&e.cid).unwrap_or(0)).to_json(),
                                ),
                                ("bytes".to_string(), e.file_bytes.to_json()),
                            ])
                        })
                        .collect(),
                );
                println!("{}", doc.to_string_pretty());
            } else {
                for e in &entries {
                    println!(
                        "{}  {:<8}  {:>10}",
                        e.cid,
                        kind::label(store.peek_kind(&e.cid).unwrap_or(0)),
                        e.file_bytes
                    );
                }
                println!("{} entries", entries.len());
            }
        }
        "stat" => {
            let stat = store.stat();
            let hist = store.kind_histogram();
            let of = |k: u8| hist.get(&k).copied().unwrap_or(0);
            if json {
                let doc = Json::Obj(vec![
                    ("entries".to_string(), stat.entries.to_json()),
                    ("bytes".to_string(), stat.bytes.to_json()),
                    ("quarantined".to_string(), stat.quarantined.to_json()),
                    ("artifacts".to_string(), of(kind::ARTIFACT).to_json()),
                    ("results".to_string(), of(kind::RESULT).to_json()),
                ]);
                println!("{}", doc.to_string_pretty());
            } else {
                println!(
                    "{} entries ({} artifacts, {} results), {} bytes, {} quarantined",
                    stat.entries,
                    of(kind::ARTIFACT),
                    of(kind::RESULT),
                    stat.bytes,
                    stat.quarantined
                );
            }
        }
        "verify" => {
            let report = store.verify();
            if json {
                let doc = Json::Obj(vec![
                    ("checked".to_string(), report.checked.to_json()),
                    ("ok".to_string(), report.ok.to_json()),
                    (
                        "quarantined".to_string(),
                        Json::Arr(
                            report
                                .quarantined
                                .iter()
                                .map(|cid| cid.to_hex().to_json())
                                .collect(),
                        ),
                    ),
                ]);
                println!("{}", doc.to_string_pretty());
            } else {
                println!(
                    "verified {} entries: {} ok, {} quarantined",
                    report.checked,
                    report.ok,
                    report.quarantined.len()
                );
                for cid in &report.quarantined {
                    println!("quarantined {cid}");
                }
            }
            if !report.quarantined.is_empty() {
                return ExitCode::FAILURE;
            }
        }
        _gc => {
            let Some(max) = max_bytes else {
                eprintln!("impact store: gc needs --max-bytes N");
                return ExitCode::FAILURE;
            };
            let report = store.gc(max);
            if json {
                let doc = Json::Obj(vec![
                    ("scanned".to_string(), report.scanned.to_json()),
                    ("removed".to_string(), report.removed.to_json()),
                    ("removed_bytes".to_string(), report.removed_bytes.to_json()),
                    ("kept_bytes".to_string(), report.kept_bytes.to_json()),
                ]);
                println!("{}", doc.to_string_pretty());
            } else {
                println!(
                    "gc: scanned {}, removed {} ({} bytes), kept {} bytes",
                    report.scanned, report.removed, report.removed_bytes, report.kept_bytes
                );
            }
        }
    }
    ExitCode::SUCCESS
}
