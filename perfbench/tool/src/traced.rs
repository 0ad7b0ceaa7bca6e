//! The traced run: a workload's inputs sent in-process through each
//! module's public functions, with a span around every call.
//!
//! The pass runs twice on the same inputs, once with spans off and once
//! with spans on; the difference is the tracing overhead. Serve
//! workloads first run end to end against a live server, whose
//! `/metrics` counters are reported next to the spans.

use std::cell::RefCell;
use std::io;
use std::path::Path;
use std::time::Instant;

use impact_cache::{CacheConfig, CacheStats, FillPolicy, MultiLane};
use impact_experiments::persist;
use impact_experiments::prepare::{pipeline_config, Budget, Prepared};
use impact_experiments::session::{SimHandle, SimSession};
use impact_experiments::tables::{t1, t2, t3, t4, t5, t6, t7, t8, t9};
use impact_ir::Program;
use impact_layout::pipeline::{
    Checkpoint, Pipeline, PipelineConfig, PipelineObserver, PipelineResult,
};
use impact_layout::{baseline, scale::scale_code};
use impact_profile::{ExecLimits, Profile, ProfileSource, Profiler};
use impact_serve::http::parse_request_bytes;
use impact_serve::{
    api, simulate_response_json, AppState, Endpoint, Request, Response, ResponseCache,
};
use impact_store::Store;
use impact_support::json::{parse, Json};
use impact_trace::{RunBuffer, TraceGenerator};

use crate::bodies::{self, Body};
use crate::serve::{self, Env};
use crate::stats::Report;
use crate::tracer::{self_times, span, SelfTimes, SpanId, Tracer, ROOT};

/// Every per-layer metric with its unit. `*_ms` is a layer's total self
/// time over the run, `*_us` its mean self time per call; the rest are
/// counts.
pub const LAYERS: [(&str, &str); 36] = [
    ("profile.calls", "count"),
    ("profile.instrs", "count"),
    ("profile.ms", "ms"),
    ("layout.pipelines", "count"),
    ("layout.inline_ms", "ms"),
    ("layout.trace_select_ms", "ms"),
    ("layout.place_ms", "ms"),
    ("layout.scale_ms", "ms"),
    ("trace.walk_ms", "ms"),
    ("trace.instrs", "count"),
    ("cache.sim_ms", "ms"),
    ("cache.lanes", "count"),
    ("experiments.plan_ms", "ms"),
    ("experiments.execute_ms", "ms"),
    ("experiments.render_ms", "ms"),
    ("experiments.traces_streamed", "count"),
    ("experiments.memo_served", "count"),
    ("experiments.disk_served", "count"),
    ("store.key_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.bytes_written", "bytes"),
    ("store.get_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("asm.parse_ms", "ms"),
    ("support.json_parse_ms", "ms"),
    ("support.json_render_ms", "ms"),
    ("serve.http_parse_us", "us"),
    ("serve.route_us", "us"),
    ("serve.rcache_get_us", "us"),
    ("serve.write_us", "us"),
    ("serve.rcache_hits", "count"),
    ("run.traced_ms", "ms"),
    ("run.untraced_ms", "ms"),
    ("run.overhead_ms", "ms"),
    ("run.spans", "count"),
];

/// The per-layer metrics each workload must produce (nonzero); the run
/// fails when one is missing.
#[must_use]
pub fn required(workload: &str) -> &'static [&'static str] {
    match workload {
        "repro_cold" => &[
            "profile.calls",
            "profile.instrs",
            "profile.ms",
            "layout.pipelines",
            "layout.inline_ms",
            "layout.trace_select_ms",
            "layout.place_ms",
            "layout.scale_ms",
            "trace.instrs",
            "cache.lanes",
            "experiments.plan_ms",
            "experiments.execute_ms",
            "experiments.render_ms",
            "experiments.traces_streamed",
            "experiments.memo_served",
        ],
        "serve_cold" => &[
            "trace.walk_ms",
            "trace.instrs",
            "cache.sim_ms",
            "cache.lanes",
            "experiments.traces_streamed",
            "asm.parse_ms",
            "support.json_parse_ms",
            "support.json_render_ms",
            "serve.http_parse_us",
            "serve.route_us",
            "serve.rcache_get_us",
            "serve.write_us",
        ],
        "serve_warm" => &[
            "serve.http_parse_us",
            "serve.route_us",
            "serve.rcache_get_us",
            "serve.write_us",
            "serve.rcache_hits",
        ],
        "serve_restart" => &[
            "experiments.disk_served",
            "store.key_ms",
            "store.put_ms",
            "store.bytes_written",
            "store.get_ms",
            "store.hits",
            "asm.parse_ms",
            "support.json_parse_ms",
            "support.json_render_ms",
            "serve.http_parse_us",
            "serve.route_us",
            "serve.rcache_get_us",
            "serve.write_us",
        ],
        _ => &[],
    }
}

type Shared = RefCell<Tracer>;

fn count(tr: &Shared, name: &'static str, n: u64) {
    tr.borrow_mut().count(name, n);
}

/// Runs `workload`'s traced run and returns its per-layer report.
///
/// # Errors
///
/// Server failures, broken span nesting, or a required metric missing.
pub fn run(workload: &str, env: &Env<'_>) -> Result<Report, String> {
    let err = |e: io::Error| e.to_string();
    let mut report = Report::default();
    // Live counters: the serve workloads' end-to-end pass.
    let live = match workload {
        "repro_cold" => None,
        "serve_cold" => Some(serve::serve_cold(env).map_err(err)?),
        "serve_warm" => Some(serve::serve_warm(env).map_err(err)?),
        "serve_restart" => Some(serve::serve_restart(env).map_err(err)?),
        w => return Err(format!("unknown workload {w}")),
    };
    let mut live_counters = Vec::new();
    if let Some(outcome) = live {
        report.attempted += outcome.report.attempted;
        report.failed += outcome.report.failed;
        let m = &outcome.metrics;
        let sim = |k: &str| m.get("sim").and_then(|s| s.get(k)).and_then(Json::as_u64);
        live_counters = vec![
            ("experiments.traces_streamed", sim("traces_streamed")),
            ("experiments.memo_served", sim("memo_served")),
            ("experiments.disk_served", sim("disk_served")),
            (
                "serve.rcache_hits",
                m.get("response_cache")
                    .and_then(|r| r.get("hits"))
                    .and_then(Json::as_u64),
            ),
        ];
    }

    let inputs = Inputs::new(workload, env);
    let untraced = Shared::new(Tracer::new(false));
    let t0 = Instant::now();
    let checks = inputs.pass(&untraced, env.work, "untraced").map_err(err)?;
    let untraced_ns = t0.elapsed().as_nanos() as u64;
    report.attempted += checks.attempted;
    report.failed += checks.failed;

    let traced = Shared::new(Tracer::new(true));
    let root = traced.borrow_mut().open(ROOT);
    let checks = inputs.pass(&traced, env.work, "traced").map_err(err)?;
    traced.borrow_mut().close(root);
    report.attempted += checks.attempted;
    report.failed += checks.failed;
    let tracer = traced.into_inner();
    let times = self_times(tracer.spans())?;
    tracer
        .write_spans(&env.work.join(format!("spans-{workload}.tsv")))
        .map_err(err)?;

    let counters = tracer.counters();
    for (name, unit) in LAYERS {
        let value = match name {
            "run.traced_ms" => times.wall as f64 / 1e6,
            "run.untraced_ms" => times.by_name[ROOT].0 as f64 / 1e6,
            "run.overhead_ms" => (times.wall as f64 - untraced_ns as f64) / 1e6,
            "run.spans" => tracer.spans().len() as f64,
            _ => layer_value(name, &times, counters, &live_counters),
        };
        report.metric(name, value, unit);
    }
    let missing: Vec<&str> = required(workload)
        .iter()
        .copied()
        .filter(|m| report.get(m).is_none_or(|v| v <= 0.0))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "{workload}: per-layer metrics missing: {}",
            missing.join(", ")
        ));
    }
    Ok(report)
}

/// A layer metric from span self times, in-process counters, or the
/// live server's counters (which win when present).
fn layer_value(
    name: &'static str,
    times: &SelfTimes,
    counters: &std::collections::BTreeMap<&'static str, u64>,
    live: &[(&str, Option<u64>)],
) -> f64 {
    let self_ns = |layer: &str| times.by_name.get(layer).copied().unwrap_or((0, 0));
    if let Some(layer) = name
        .strip_suffix("_ms")
        .or_else(|| name.strip_suffix(".ms"))
    {
        return self_ns(layer).0 as f64 / 1e6;
    }
    if let Some(layer) = name.strip_suffix("_us") {
        let (ns, calls) = self_ns(layer);
        return if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64 / 1e3
        };
    }
    if let Some((_, Some(v))) = live.iter().find(|(n, _)| *n == name) {
        return *v as f64;
    }
    counters.get(name).copied().unwrap_or(0) as f64
}

/// A workload's in-process inputs, built before either pass.
enum Inputs {
    Repro,
    Cold(Vec<Body>),
    Warm(Vec<Body>, Vec<usize>),
    Restart(Vec<Body>, usize),
}

impl Inputs {
    fn new(workload: &str, env: &Env<'_>) -> Inputs {
        match workload {
            "serve_cold" => Inputs::Cold(serve::cold_inputs(env)),
            "serve_warm" => {
                let (warm, order) = serve::warm_inputs(env);
                Inputs::Warm(warm, order)
            }
            "serve_restart" => {
                let (stored, rounds) = serve::restart_inputs(env);
                Inputs::Restart(stored, rounds)
            }
            _ => Inputs::Repro,
        }
    }

    fn pass(&self, tr: &Shared, work: &Path, label: &str) -> io::Result<Report> {
        match self {
            Inputs::Repro => Ok(repro_pass(tr)),
            Inputs::Cold(bodies) => Ok(cold_pass(tr, bodies)),
            Inputs::Warm(warm, order) => Ok(warm_pass(tr, warm, order)),
            Inputs::Restart(stored, rounds) => restart_pass(
                tr,
                stored,
                *rounds,
                &work.join(format!("trace-store-{label}")),
            ),
        }
    }
}

/// A [`ProfileSource`] that times and counts every profiling walk.
struct TracedProfiler<'a> {
    inner: Profiler,
    tracer: &'a Shared,
}

impl ProfileSource for TracedProfiler<'_> {
    fn profile(&self, program: &Program) -> Profile {
        let p = span(self.tracer, "profile", || self.inner.profile(program));
        count(self.tracer, "profile.calls", 1);
        count(self.tracer, "profile.instrs", p.totals.instructions);
        p
    }
}

/// Opens one span per pipeline stage between checkpoints.
struct Stages<'a> {
    tracer: &'a Shared,
    open: Option<SpanId>,
}

impl PipelineObserver for Stages<'_> {
    fn checkpoint(&mut self, checkpoint: &Checkpoint<'_>) {
        let mut tr = self.tracer.borrow_mut();
        if let Some(id) = self.open.take() {
            tr.close(id);
        }
        let next = match checkpoint {
            Checkpoint::Profiled { .. } => Some("layout.inline"),
            Checkpoint::Inlined { .. } => Some("layout.trace_select"),
            Checkpoint::TracesSelected { .. } => Some("layout.place"),
            _ => None,
        };
        self.open = next.map(|name| tr.open(name));
    }
}

/// The placement pipeline with a timed profiler and stage spans.
fn traced_pipeline(tr: &Shared, config: &PipelineConfig, program: &Program) -> PipelineResult {
    let profiler = TracedProfiler {
        inner: Profiler::new()
            .runs(config.profile_runs)
            .base_seed(config.profile_base_seed)
            .limits(config.limits),
        tracer: tr,
    };
    let mut stages = Stages {
        tracer: tr,
        open: None,
    };
    let result =
        Pipeline::new(config.clone()).run_observed_with_source(program, &profiler, &mut stages);
    assert!(
        stages.open.is_none(),
        "the pipeline skipped its last checkpoint"
    );
    count(tr, "layout.pipelines", 1);
    result
}

/// `repro table1 .. table9` at the full budget with one job: prepare,
/// plan, table 9's scaled pipelines, one execute, finish and render.
/// The rendered tables are checked against the kept reference.
fn repro_pass(tr: &Shared) -> Report {
    let budget = Budget::default();
    let prepared: Vec<Prepared> = impact_workloads::all()
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            tr.borrow_mut().group(i as u64);
            let result = traced_pipeline(tr, &pipeline_config(&w, &budget), &w.program);
            Prepared {
                baseline: baseline::natural(&w.program),
                baseline_program: w.program.clone(),
                workload: w,
                result,
                budget,
            }
        })
        .collect();

    let mut session = SimSession::with_jobs(1);
    let s = &mut session;
    let p = &prepared[..];
    let plans = span(tr, "experiments.plan", || {
        (
            t1::plan(s, p),
            t2::plan(s, p),
            t3::plan(s, p),
            t4::plan(s, p),
            t5::plan(s, p),
            t6::plan(s, p),
            t7::plan(s, p),
            t8::plan(s, p),
        )
    });
    // Table 9 re-runs the pipeline on every scaled program.
    let t9_config = [CacheConfig::direct_mapped(2048, 64).with_fill(FillPolicy::Partial)];
    let mut t9_rows: Vec<(String, Vec<SimHandle>)> = Vec::new();
    for (i, p) in prepared.iter().enumerate() {
        tr.borrow_mut().group(i as u64);
        let mut handles = Vec::new();
        for factor in t9::FACTORS {
            let scaled = span(tr, "layout.scale", || {
                scale_code(&p.baseline_program, factor)
            });
            let result = traced_pipeline(tr, &pipeline_config(&p.workload, &p.budget), &scaled);
            handles.push(span(tr, "experiments.plan", || {
                session.request(
                    &result.program,
                    &result.placement,
                    p.eval_seed(),
                    p.budget.eval_limits(&p.workload),
                    &t9_config,
                )
            }));
        }
        t9_rows.push((p.workload.name.to_string(), handles));
    }
    tr.borrow_mut().group(u64::MAX);
    span(tr, "experiments.execute", || session.execute());

    let session = &session;
    let texts: Vec<String> = span(tr, "experiments.render", || {
        let (p1, p2, p3, p4, p5, p6, p7, p8) = plans;
        let rows9: Vec<t9::Row> = t9_rows
            .iter()
            .map(|(name, handles)| t9::Row {
                name: name.clone(),
                cells: handles
                    .iter()
                    .map(|h| {
                        let s: CacheStats = session.stats(h)[0];
                        (s.miss_ratio(), s.traffic_ratio())
                    })
                    .collect(),
            })
            .collect();
        vec![
            t1::render(&t1::finish(session, &p1)),
            t2::render(&t2::finish(session, p2)),
            t3::render(&t3::finish(session, p3)),
            t4::render(&t4::finish(session, p4)),
            t5::render(&t5::finish(session, &p5)),
            t6::render(&t6::finish(session, &p6)),
            t7::render(&t7::finish(session, &p7)),
            t8::render(&t8::finish(session, &p8)),
            t9::render(&rows9),
        ]
    });
    let m = session.metrics();
    count(tr, "experiments.traces_streamed", m.traces_streamed);
    count(tr, "experiments.memo_served", m.memo_served);
    count(tr, "experiments.disk_served", m.disk_served);
    count(tr, "trace.instrs", m.instructions_interpreted);
    count(tr, "cache.lanes", m.configs_simulated);

    // `repro` prints each table followed by a newline.
    let stdout: String = texts.iter().map(|t| format!("{t}\n")).collect();
    let mut checks = Report::default();
    let got = crate::reference::split_tables(&stdout);
    let want = crate::reference::split_tables(crate::reference::REPRO_TABLES);
    for i in 0..want.len().max(got.len()) {
        checks.op(got.get(i).is_some() && got.get(i) == want.get(i));
    }
    checks
}

/// One request as `impact serve` handles it: HTTP framing, the response
/// memo, routing through `handle`, and the response write.
fn request(
    tr: &Shared,
    frame: &[u8],
    rcache: &ResponseCache,
    handle: impl FnOnce(&Request) -> (Endpoint, Response),
) -> Response {
    let req = span(tr, "serve.http_parse", || parse_request_bytes(frame))
        .ok()
        .flatten()
        .map(|(req, _)| req)
        .expect("the benchmark's own request frames parse");
    let memo = span(tr, "serve.rcache_get", || {
        rcache.get(&req.target, &req.body)
    });
    let resp = match memo {
        Some((_, resp)) => resp,
        None => {
            let (endpoint, resp) = span(tr, "serve.route", || handle(&req));
            rcache.put(&req.target, &req.body, endpoint, &resp);
            resp
        }
    };
    let mut wire = Vec::with_capacity(resp.body.len() + 256);
    span(tr, "serve.write", || resp.write(&mut wire, true)).expect("writes to memory succeed");
    resp
}

/// The `/v1/simulate` handler for a natural-layout body, one layer per
/// span. With a store, results are read from it when all are present,
/// and written through otherwise.
fn simulate(tr: &Shared, req: &Request, store: Option<&Store>) -> (Endpoint, Response) {
    let text = std::str::from_utf8(&req.body).expect("bodies are UTF-8");
    let doc = span(tr, "support.json_parse", || parse(text)).expect("bodies are JSON");
    let field = |k: &str| doc.get(k).and_then(Json::as_u64).expect("numeric field");
    let src = doc
        .get("program")
        .and_then(Json::as_str)
        .expect("program field");
    let program = span(tr, "asm.parse", || impact_asm::parse_program(src)).expect("programs parse");
    let seed = field("seed");
    let limits = ExecLimits {
        max_instructions: field("max_instrs"),
        max_call_depth: 512,
    };
    let configs = bodies::cache_configs();
    let placement = baseline::natural(&program);
    let key = store.map(|s| {
        let cid = span(tr, "store.key", || {
            persist::trace_key(&program, &placement, seed, limits)
        });
        (s, cid)
    });
    let stored = key.as_ref().and_then(|(s, cid)| {
        span(tr, "store.get", || {
            configs
                .iter()
                .map(|c| {
                    s.get(&persist::result_cid(cid, c))
                        .and_then(|p| persist::decode_result(&p))
                })
                .collect::<Option<Vec<_>>>()
        })
    });
    let (stats, instrs) = if let Some(found) = stored {
        let instrs = found[0].1;
        assert!(
            found.iter().all(|f| f.1 == instrs),
            "stored results disagree"
        );
        (found.into_iter().map(|f| f.0).collect::<Vec<_>>(), instrs)
    } else {
        let gen = TraceGenerator::new(&program, &placement).with_limits(limits);
        let (buf, summary) = span(tr, "trace.walk", || RunBuffer::capture(&gen, seed));
        count(tr, "trace.instrs", summary.instructions);
        let stats = span(tr, "cache.sim", || {
            let mut lanes = MultiLane::new(configs.iter().copied());
            buf.replay(&mut lanes);
            lanes.take_stats()
        });
        count(tr, "cache.lanes", configs.len() as u64);
        if let Some((s, cid)) = &key {
            span(tr, "store.put", || {
                for (c, st) in configs.iter().zip(&stats) {
                    let _ = s.put(
                        &persist::result_cid(cid, c),
                        &persist::encode_result(st, summary.instructions),
                    );
                }
                let _ = s.put(&persist::artifact_cid(cid), &persist::encode_artifact(&buf));
            });
        }
        (stats, summary.instructions)
    };
    let resp = span(tr, "support.json_render", || {
        Response::json(
            200,
            &simulate_response_json("natural", seed, &configs, &stats, instrs),
        )
    });
    (Endpoint::Simulate, resp)
}

/// Checks the in-process handler against the real router on a few
/// bodies, so the per-layer split measures what the server does.
fn matches_router(bodies: &[Body], checks: &mut Report) {
    let state = AppState::new(1);
    let off = Shared::new(Tracer::new(false));
    for body in bodies.iter().take(3) {
        let frame = body.frame();
        let (req, _) = parse_request_bytes(&frame)
            .ok()
            .flatten()
            .expect("frames parse");
        let ours = simulate(&off, &req, None).1;
        let theirs = api::route(&state, &req).1;
        checks.op(ours.status == theirs.status && ours.body == theirs.body);
    }
}

fn cold_pass(tr: &Shared, bodies: &[Body]) -> Report {
    let mut checks = Report::default();
    matches_router(bodies, &mut checks);
    let rcache = ResponseCache::new(impact_serve::rcache::DEFAULT_CACHE_BYTES);
    let frames: Vec<Vec<u8>> = bodies.iter().map(Body::frame).collect();
    for (k, frame) in frames.iter().enumerate() {
        tr.borrow_mut().group(k as u64);
        let resp = request(tr, frame, &rcache, |req| simulate(tr, req, None));
        checks.op(resp.status == 200);
    }
    checks
}

fn warm_pass(tr: &Shared, warm: &[Body], order: &[usize]) -> Report {
    let mut checks = Report::default();
    let state = AppState::new(1);
    let frames: Vec<Vec<u8>> = warm.iter().map(Body::frame).collect();
    let cold: Vec<Vec<u8>> = frames
        .iter()
        .enumerate()
        .map(|(id, frame)| {
            tr.borrow_mut().group(id as u64);
            let resp = request(tr, frame, &state.rcache, |req| api::route(&state, req));
            checks.op(resp.status == 200);
            resp.body
        })
        .collect();
    for (k, &id) in order.iter().enumerate() {
        tr.borrow_mut().group((warm.len() + k) as u64);
        let resp = request(tr, &frames[id], &state.rcache, |_| {
            unreachable!("every warm body is memoized")
        });
        checks.op(resp.body == cold[id]);
    }
    count(tr, "serve.rcache_hits", state.rcache.hit_count());
    checks
}

fn restart_pass(tr: &Shared, stored: &[Body], rounds: usize, dir: &Path) -> io::Result<Report> {
    let mut checks = Report::default();
    let _ = std::fs::remove_dir_all(dir);
    let frames: Vec<Vec<u8>> = stored.iter().map(Body::frame).collect();
    let tally = |store: &Store| {
        let c = store.counters();
        count(tr, "store.hits", c.hits);
        count(tr, "store.misses", c.misses);
        count(tr, "store.bytes_written", c.bytes_written);
    };
    let store = Store::open(dir)?;
    let rcache = ResponseCache::new(impact_serve::rcache::DEFAULT_CACHE_BYTES);
    let cold: Vec<Vec<u8>> = frames
        .iter()
        .enumerate()
        .map(|(k, frame)| {
            tr.borrow_mut().group(k as u64);
            request(tr, frame, &rcache, |req| simulate(tr, req, Some(&store))).body
        })
        .collect();
    tally(&store);
    for round in 0..rounds {
        // A restart: a fresh store handle and an empty response memo.
        let store = Store::open(dir)?;
        let rcache = ResponseCache::new(impact_serve::rcache::DEFAULT_CACHE_BYTES);
        for (k, frame) in frames.iter().enumerate() {
            tr.borrow_mut()
                .group(((round + 1) * frames.len() + k) as u64);
            let resp = request(tr, frame, &rcache, |req| simulate(tr, req, Some(&store)));
            checks.op(resp.body == cold[k]);
        }
        tally(&store);
    }
    std::fs::remove_dir_all(dir)?;
    Ok(checks)
}
