//! Request decoding, routing, and the endpoint handlers.
//!
//! Handlers are plain functions from [`Request`] to [`Response`] over a
//! shared [`AppState`], so they unit-test without sockets. All bodies are
//! JSON (decoded with [`impact_support::json::parse`]); programs travel
//! inside them as `impact-asm` text.
//!
//! Each program endpoint has a CLI twin that prints its document byte
//! for byte, with the file path as the body's `name`:
//!
//! | Route | Body | Result | CLI twin |
//! |---|---|---|---|
//! | `POST /v1/lint` | `{"program", "name"?, "runs"?, "max_instrs"?, "deny_warnings"?}` | diagnostics | `impact lint FILE --json` |
//! | `POST /v1/layout` | `{"program", "name"?, "runs"?, "max_instrs"?, "min_prob"?}` | placement + quality metrics | `impact optimize FILE --json` |
//! | `POST /v1/simulate` | `{"program", "configs", "seed"?, "max_instrs"?, "layout"?, "runs"?}` | per-config cache statistics | `impact sim FILE --json` (one config) |
//! | `POST /v1/analyze` | `{"program", "name"?, "cache"?, "block"?}` | profile-free static analysis | the entry of `impact analyze FILE --json` |
//! | `POST /v1/advise` | `{"program", "name"?, "cache"?, "block"?, "diff"?}` | placement scores + layout advisors | the entry of `impact advise FILE --json` |
//! | `GET /metrics` | — | counters, latency histogram, memo hit rate | — |
//! | `GET /healthz` | — | `{"ok": true}` | — |

use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use impact_analyze::{advise_static, analyze_static, run_checked, ConflictConfig};
use impact_asm::parse_program;
use impact_cache::{Associativity, CacheConfig, CacheStats, FillPolicy};
use impact_experiments::session::{SimMetrics, SimSession};
use impact_ir::{BlockId, Program};
use impact_layout::pipeline::{Pipeline, PipelineConfig, PipelineError, PipelineResult};
use impact_layout::{baseline, Placement};
use impact_profile::{ExecLimits, Profiler};
use impact_store::Store;
use impact_support::json::{parse as parse_json, Json, ToJson};

use crate::http::{Request, Response};
use crate::metrics::{Endpoint, Metrics};
use crate::rcache::ResponseCache;
use crate::server::ServeConfig;

/// Everything a request handler can reach: what each `/v1/simulate`
/// builds its own [`SimSession`] from, and the service counters. No
/// per-trace data lives here; repeats are answered by the response memo
/// ([`AppState::rcache`]) or, with `--store`, from disk. A trace walks
/// under no lock, so each worker (`--workers`) walks its own trace at
/// once with the others; the counter total and the memo are locked only
/// to fold in, read, get or put.
pub struct AppState {
    /// Worker-thread cap of each request's session (`--sim-jobs`); no
    /// effect, since a session delivers one trace on one thread.
    sim_jobs: usize,
    /// The persistent store every request's session attaches.
    store: Option<Arc<Store>>,
    /// Running total of every request session's counters. Locked only to
    /// fold a finished session in or to read, never while a trace walks.
    sim_total: Mutex<SimMetrics>,
    /// Service counters rendered by `GET /metrics`.
    pub metrics: Metrics,
    /// Serving-layer response memo consulted by the reactor before
    /// dispatch (exact `(target, body)` bytes → first response).
    pub rcache: ResponseCache,
}

impl std::fmt::Debug for AppState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppState")
            .field("sim_jobs", &self.sim_jobs)
            .field("store", &self.store.is_some())
            .finish_non_exhaustive()
    }
}

impl AppState {
    /// Fresh storeless state whose sessions execute with `sim_jobs`
    /// worker threads; default response-memo budget.
    #[must_use]
    pub fn new(sim_jobs: usize) -> Self {
        Self {
            sim_jobs,
            store: None,
            sim_total: Mutex::new(SimMetrics {
                jobs: sim_jobs as u64,
                ..SimMetrics::default()
            }),
            metrics: Metrics::new(),
            rcache: ResponseCache::new(crate::rcache::DEFAULT_CACHE_BYTES),
        }
    }

    /// Full state from a [`ServeConfig`]: opens the persistent store
    /// (when `store_dir` is set) so every session disk-serves repeats and
    /// writes new results through.
    ///
    /// # Errors
    ///
    /// Store directories that cannot be created/opened surface as the
    /// underlying I/O error.
    pub fn from_config(config: &ServeConfig) -> std::io::Result<Self> {
        let store = config.store_dir.as_ref().map(Store::open).transpose()?;
        Ok(Self {
            store: store.map(Arc::new),
            rcache: ResponseCache::new(config.response_cache_bytes),
            ..Self::new(config.sim_jobs)
        })
    }

    /// Every simulate's session counters summed ([`SimMetrics::add`]),
    /// with `store` read from the shared store: the `/metrics` `sim`
    /// object.
    #[must_use]
    pub fn sim_counters(&self) -> SimMetrics {
        let mut total = self.total().clone();
        total.store = self.store.as_ref().map(|s| s.counters());
        total
    }

    fn total(&self) -> MutexGuard<'_, SimMetrics> {
        // Holders only clone or `add`, which leave the total coherent.
        self.sim_total
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// A route's handler: the response, or the `4xx` it rejected the
/// request with.
type Handler = fn(&AppState, &Request) -> Result<Response, Reject>;

/// Every route, registered once: method, path, the endpoint its
/// requests count under, and the handler. The path alone picks the row,
/// so another method on a known path is a `405` naming the row's.
const ROUTES: &[(&str, &str, Endpoint, Handler)] = &[
    ("POST", "/v1/lint", Endpoint::Lint, lint),
    ("POST", "/v1/layout", Endpoint::Layout, |_, req| {
        let doc = decode_body(req)?;
        let (name, program, params) = decode_program(&doc)?;
        let min_prob = field_f64(&doc, "min_prob")?;
        let request = LayoutRequest {
            program,
            params,
            min_prob,
        };
        let result = layout(&request).map_err(bad_input)?;
        Ok(Response::json(200, &layout_response_json(&name, &result)))
    }),
    ("POST", "/v1/simulate", Endpoint::Simulate, |state, req| {
        let request = decode_simulate(&decode_body(req)?)?;
        let done = simulate(state, &request).map_err(bad_input)?;
        Ok(Response::json(200, &request.response_json(&done)))
    }),
    ("POST", "/v1/analyze", Endpoint::Analyze, analyze),
    ("POST", "/v1/advise", Endpoint::Advise, advise),
    ("GET", "/metrics", Endpoint::Metrics, |state, _| {
        let mut doc = state.metrics.to_json(&state.sim_counters());
        if let Json::Obj(fields) = &mut doc {
            fields.push(("response_cache".to_string(), state.rcache.to_json()));
        }
        Ok(Response::json(200, &doc))
    }),
    ("GET", "/healthz", Endpoint::Other, |_, _| {
        Ok(Response::json(
            200,
            &Json::Obj(vec![("ok".to_string(), Json::Bool(true))]),
        ))
    }),
];

/// Dispatches one request to its handler; returns the endpoint label
/// (for metrics) alongside the response.
#[must_use]
pub fn route(state: &AppState, req: &Request) -> (Endpoint, Response) {
    let path = req.path();
    let Some(&(method, _, endpoint, handler)) = ROUTES.iter().find(|r| r.1 == path) else {
        return (
            Endpoint::Other,
            Response::error(404, format!("no route for {path}")),
        );
    };
    if req.method != method {
        let resp = Response::error(
            405,
            format!("{} is not supported on {path}; use {method}", req.method),
        )
        .with_header("Allow", method);
        return (Endpoint::Other, resp);
    }
    let resp = handler(state, req).unwrap_or_else(|resp| *resp);
    (endpoint, resp)
}

/// `POST /v1/lint` — run the checked pipeline
/// ([`impact_analyze::run_checked`]) over the submitted program. The
/// body is byte-for-byte the document `impact lint --json` prints for
/// one target: a one-element array of
/// [`Report::to_json_for_target`](impact_analyze::Report::to_json_for_target),
/// the row both surfaces render. With `"deny_warnings": true` (the
/// CLI's `--deny-warnings`) a warning-bearing report comes back as 422
/// — the body bytes are unchanged, only the status flips.
fn lint(_: &AppState, req: &Request) -> Result<Response, Reject> {
    let doc = decode_body(req)?;
    let (name, program, params) = decode_program(&doc)?;
    let deny_warnings = field_bool(&doc, "deny_warnings")?.unwrap_or(false);
    let pipeline = Pipeline::new(params.pipeline_config());
    let (_, report) = run_checked(&pipeline, &program).map_err(bad_input)?;
    let status = if deny_warnings && report.warning_count() > 0 {
        422
    } else {
        200
    };
    let rows = Json::Arr(vec![report.to_json_for_target(&name)]);
    Ok(Response::json(status, &rows))
}

/// `POST /v1/analyze` — profile-free static analysis: Ball/Larus-style
/// branch heuristics drive the placement pipeline, then the static
/// cache-conflict passes (`IPA301`–`IPA303`) and the miss-ratio bound
/// run over the result. The body is the per-target document `impact
/// analyze --json` emits: both surfaces call
/// [`StaticAnalysis::to_json_for_target`](impact_analyze::StaticAnalysis::to_json_for_target).
fn analyze(_: &AppState, req: &Request) -> Result<Response, Reject> {
    let doc = decode_body(req)?;
    let (name, program, _) = decode_program(&doc)?;
    let conflict = decode_conflict(&doc)?;
    let analysis =
        analyze_static(&program, &PipelineConfig::default(), conflict).map_err(bad_input)?;
    Ok(Response::json(200, &analysis.to_json_for_target(&name)))
}

/// `POST /v1/advise` — [`analyze`] plus placement scoring (ExtTSP and
/// distance tiers) and the layout advisors (`IPA401`–`IPA405`). The
/// body is the per-target document `impact advise --json` emits: both
/// surfaces call
/// [`Advice::to_json_for_target`](impact_analyze::Advice::to_json_for_target).
/// An optional `"diff"` field (`natural` or `random[:seed]`, the CLI's
/// `--diff`) switches to the differential document.
fn advise(_: &AppState, req: &Request) -> Result<Response, Reject> {
    let doc = decode_body(req)?;
    let (name, program, _) = decode_program(&doc)?;
    let conflict = decode_conflict(&doc)?;
    let diff = match doc.get("diff") {
        None => None,
        Some(Json::Str(spec)) => Some(spec),
        Some(_) => return Err(reject(400, "field 'diff' must be a string")),
    };
    let advice =
        advise_static(&program, &PipelineConfig::default(), conflict).map_err(bad_input)?;
    let Some(spec) = diff else {
        return Ok(Response::json(200, &advice.to_json_for_target(&name)));
    };
    let (bname, bp) = diff_baseline(spec, &advice.analysis.result.program).ok_or_else(|| {
        reject(
            400,
            format!("unknown diff baseline '{spec}' (use natural | random[:seed])"),
        )
    })?;
    Ok(Response::json(
        200,
        &advice.diff_json_for_target(&name, &bname, &bp, conflict),
    ))
}

/// Resolves an `impact advise --diff` / `/v1/advise` `"diff"` baseline
/// spec against the post-inline program: `natural` or `random[:seed]`
/// (seed defaults to 7). Returns the baseline's label and placement, or
/// `None` for an unknown spec.
#[must_use]
pub fn diff_baseline(spec: &str, program: &Program) -> Option<(String, Placement)> {
    match spec {
        "natural" => Some(("natural".to_string(), baseline::natural(program))),
        "random" => Some(("random:7".to_string(), baseline::random(program, 7))),
        _ => {
            let seed = spec.strip_prefix("random:")?.parse().ok()?;
            Some((format!("random:{seed}"), baseline::random(program, seed)))
        }
    }
}

/// A typed `/v1/layout` request: what [`route`] decodes from JSON and
/// `impact optimize` and `impact viz` build from argv.
#[derive(Debug)]
pub struct LayoutRequest {
    /// The program to place.
    pub program: Program,
    /// Pipeline runs and the walk cap of each profiling run.
    pub params: RunParams,
    /// Trace-selection branch threshold; `None` keeps the pipeline's.
    pub min_prob: Option<f64>,
}

/// Runs the five-step placement pipeline on a layout request.
///
/// # Errors
///
/// The pipeline's error when it rejects the program or the budget.
pub fn layout(req: &LayoutRequest) -> Result<PipelineResult, PipelineError> {
    let mut config = req.params.pipeline_config();
    if let Some(p) = req.min_prob {
        config.min_prob = p;
    }
    Pipeline::new(config).try_run(&req.program)
}

/// The `POST /v1/layout` response document: sizes, the inlining and
/// trace-quality metrics, the function order and every block's address.
#[must_use]
pub fn layout_response_json(name: &str, result: &PipelineResult) -> Json {
    let placement = result
        .program
        .functions()
        .map(|(fid, func)| {
            let blocks = (0..func.block_count())
                .map(|b| result.placement.addr(fid, BlockId::new(b)).to_json())
                .collect();
            Json::Obj(vec![
                ("function".to_string(), func.name().to_json()),
                ("blocks".to_string(), Json::Arr(blocks)),
            ])
        })
        .collect();
    let order = result
        .global
        .order()
        .iter()
        .map(|&f| result.program.function(f).name().to_json())
        .collect();
    Json::Obj(vec![
        ("name".to_string(), name.to_json()),
        (
            "total_bytes".to_string(),
            result.total_static_bytes().to_json(),
        ),
        (
            "effective_bytes".to_string(),
            result.effective_static_bytes().to_json(),
        ),
        ("inline".to_string(), result.inline_report.to_json()),
        ("trace_quality".to_string(), result.trace_quality.to_json()),
        ("function_order".to_string(), Json::Arr(order)),
        ("placement".to_string(), Json::Arr(placement)),
    ])
}

/// Which placement a simulate runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// The program as written: blocks in source order.
    Natural,
    /// The IMPACT-I pipeline's placement of the inlined program.
    Optimized,
}

impl Layout {
    /// The `"layout"` label of the simulate request and response.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Layout::Natural => "natural",
            Layout::Optimized => "optimized",
        }
    }

    /// The program to simulate and its placement: `program` as written,
    /// or the pipeline's result under `params`.
    ///
    /// # Errors
    ///
    /// The pipeline's error when it rejects the program.
    pub fn place(
        self,
        program: &Program,
        params: RunParams,
    ) -> Result<(Cow<'_, Program>, Placement), PipelineError> {
        Ok(match self {
            Layout::Natural => (Cow::Borrowed(program), baseline::natural(program)),
            Layout::Optimized => {
                let result = Pipeline::new(params.pipeline_config()).try_run(program)?;
                (Cow::Owned(result.program), result.placement)
            }
        })
    }
}

/// The profiling and walk budget of a program-accepting request: only
/// [`RunParams::new`] builds one, so no surface can hold a zero budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunParams {
    runs: u32,
    max_instrs: u64,
}

impl Default for RunParams {
    /// [`Profiler::DEFAULT_RUNS`] runs and a 5 M-instruction cap: the
    /// defaults of the CLI's `--runs` and `--max-instrs` and of a
    /// request body's `runs` and `max_instrs`.
    fn default() -> Self {
        Self {
            runs: Profiler::DEFAULT_RUNS,
            max_instrs: 5_000_000,
        }
    }
}

impl RunParams {
    /// `runs` profiling runs of the pipeline and a cap of `max_instrs`
    /// dynamic instructions on each walk, each defaulted when `None`.
    ///
    /// # Errors
    ///
    /// A [`PipelineError::BadConfig`] when `runs` fails
    /// [`Profiler::check_runs`] or the cap fails [`ExecLimits::check`].
    pub fn new(runs: Option<u64>, max_instrs: Option<u64>) -> Result<Self, PipelineError> {
        let bad = |reason: &str| PipelineError::BadConfig {
            reason: reason.to_string(),
        };
        let default = Self::default();
        let runs = Profiler::check_runs(runs.unwrap_or(default.runs.into())).map_err(bad)?;
        let max_instrs = max_instrs.unwrap_or(default.max_instrs);
        ExecLimits::capped(max_instrs).check().map_err(bad)?;
        Ok(Self { runs, max_instrs })
    }

    /// Profiling runs of the pipeline.
    #[must_use]
    pub fn runs(&self) -> u32 {
        self.runs
    }

    /// The walk limits: `max_instrs` at the default call depth.
    #[must_use]
    pub fn limits(&self) -> ExecLimits {
        ExecLimits::capped(self.max_instrs)
    }

    /// The default pipeline with these runs and limits.
    #[must_use]
    pub fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            profile_runs: self.runs,
            limits: self.limits(),
            ..PipelineConfig::default()
        }
    }
}

/// A typed `/v1/simulate` request: what [`route`] decodes from JSON and
/// `impact sim` builds from argv.
#[derive(Debug)]
pub struct SimulateRequest {
    /// The program to place and walk.
    pub program: Program,
    /// Which placement to simulate.
    pub layout: Layout,
    /// Evaluation input seed.
    pub seed: u64,
    /// Pipeline runs (optimized layout only) and the walk cap.
    pub params: RunParams,
    /// Cache configurations, each already validated, evaluated over one
    /// trace.
    pub configs: Vec<CacheConfig>,
}

impl SimulateRequest {
    /// The `/v1/simulate` document of this request's [`simulate`] result
    /// (which does not include [`Simulated::truncated`]).
    #[must_use]
    pub fn response_json(&self, done: &Simulated) -> Json {
        simulate_response_json(
            self.layout.label(),
            self.seed,
            &self.configs,
            &done.stats,
            done.instructions,
        )
    }
}

/// The result of [`simulate`].
#[derive(Debug)]
pub struct Simulated {
    /// Each config's statistics, in request order.
    pub stats: Vec<CacheStats>,
    /// The trace length.
    pub instructions: u64,
    /// Whether the walk stopped at the instruction or call-depth cap;
    /// `None` when the results were served from the store, which does
    /// not record it.
    pub truncated: Option<bool>,
}

/// Evaluates a simulate request in a session of its own: place, plan,
/// execute once, read, then fold the session's counters into the
/// service total. The walk takes no lock, so concurrent requests walk
/// on their own workers at once; only the fold locks the total.
///
/// # Errors
///
/// The pipeline's error when an optimized layout rejects the program.
pub fn simulate(state: &AppState, req: &SimulateRequest) -> Result<Simulated, PipelineError> {
    let (program, placement) = req.layout.place(&req.program, req.params)?;
    let mut session = SimSession::with_jobs(state.sim_jobs);
    if let Some(store) = &state.store {
        session = session.with_store(Arc::clone(store));
    }
    let handle = session.request(
        &program,
        &placement,
        req.seed,
        req.params.limits(),
        &req.configs,
    );
    session.execute();
    state.total().add(&session.counters());
    let (stats, instructions) = session.counted(&handle);
    Ok(Simulated {
        stats,
        instructions,
        truncated: session.truncated(&handle),
    })
}

/// The `POST /v1/simulate` response document. Public so the integration
/// tests (and any client) can rebuild the expected bytes from a direct
/// [`SimSession`] evaluation and assert bit-identical service output.
#[must_use]
pub fn simulate_response_json(
    layout: &str,
    seed: u64,
    configs: &[CacheConfig],
    stats: &[CacheStats],
    instructions: u64,
) -> Json {
    let results = configs
        .iter()
        .zip(stats)
        .map(|(config, s)| {
            Json::Obj(vec![
                ("config".to_string(), config_to_json(config)),
                ("accesses".to_string(), s.accesses.to_json()),
                ("misses".to_string(), s.misses.to_json()),
                ("words_fetched".to_string(), s.words_fetched.to_json()),
                ("miss_ratio".to_string(), s.miss_ratio().to_json()),
                ("traffic_ratio".to_string(), s.traffic_ratio().to_json()),
                ("avg_fetch".to_string(), s.avg_fetch().to_json()),
                ("avg_exec".to_string(), s.avg_exec().to_json()),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("layout".to_string(), layout.to_json()),
        ("seed".to_string(), seed.to_json()),
        ("instructions".to_string(), instructions.to_json()),
        ("results".to_string(), Json::Arr(results)),
    ])
}

/// Echo of one cache configuration in the simulate response.
fn config_to_json(c: &CacheConfig) -> Json {
    let assoc = match c.associativity {
        Associativity::Direct => Json::Str("direct".to_string()),
        Associativity::Full => Json::Str("full".to_string()),
        Associativity::Ways(n) => n.to_json(),
    };
    let fill = match c.fill {
        FillPolicy::FullBlock => "full".to_string(),
        FillPolicy::Partial => "partial".to_string(),
        FillPolicy::Sectored { sector_bytes } => format!("sector:{sector_bytes}"),
    };
    Json::Obj(vec![
        ("size".to_string(), c.size_bytes.to_json()),
        ("block".to_string(), c.block_bytes.to_json()),
        ("assoc".to_string(), assoc),
        ("fill".to_string(), fill.to_json()),
        ("replacement".to_string(), "lru".to_json()),
    ])
}

/// Boxed so the `Result` stays one machine word on the happy path.
type Reject = Box<Response>;

fn reject(status: u16, message: impl Into<String>) -> Reject {
    Box::new(Response::error(status, message))
}

/// A program or budget the pipeline refused, as a `400`.
fn bad_input(e: impl std::fmt::Display) -> Reject {
    reject(400, e.to_string())
}

fn decode_body(req: &Request) -> Result<Json, Reject> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| reject(400, "request body is not valid UTF-8"))?;
    if text.trim().is_empty() {
        return Err(reject(400, "request body must be a JSON object"));
    }
    parse_json(text).map_err(|e| reject(400, format!("request body is not valid JSON: {e}")))
}

/// Decodes the `program` (impact-asm text), optional `name`, and the
/// run parameters through [`RunParams::new`].
fn decode_program(doc: &Json) -> Result<(String, Program, RunParams), Reject> {
    let Some(text) = doc.get("program").and_then(Json::as_str) else {
        return Err(reject(
            400,
            "missing \"program\" field (a string of impact-asm text)",
        ));
    };
    let program =
        parse_program(text).map_err(|e| reject(400, format!("cannot parse \"program\": {e}")))?;
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("<request>")
        .to_string();
    let params = RunParams::new(field_u64(doc, "runs")?, field_u64(doc, "max_instrs")?)
        .map_err(bad_input)?;
    Ok((name, program, params))
}

/// Decodes a `/v1/simulate` body; the layout defaults to natural.
fn decode_simulate(doc: &Json) -> Result<SimulateRequest, Reject> {
    let (_, program, params) = decode_program(doc)?;
    let seed = field_u64(doc, "seed")?.unwrap_or(Profiler::DEFAULT_EVAL_SEED);
    let configs = decode_configs(doc)?;
    let layout = match doc.get("layout").map(Json::as_str) {
        None | Some(Some("natural")) => Layout::Natural,
        Some(Some("optimized")) => Layout::Optimized,
        Some(_) => {
            return Err(reject(
                400,
                "field \"layout\" must be \"natural\" or \"optimized\"",
            ))
        }
    };
    Ok(SimulateRequest {
        program,
        layout,
        seed,
        params,
        configs,
    })
}

/// The optional `cache`/`block` geometry of `/v1/analyze` and `/v1/advise`.
fn decode_conflict(doc: &Json) -> Result<ConflictConfig, Reject> {
    let mut conflict = ConflictConfig::default();
    if let Some(v) = field_u64(doc, "cache")? {
        conflict.cache_bytes = v;
    }
    if let Some(v) = field_u64(doc, "block")? {
        conflict.line_bytes = v;
    }
    Ok(conflict)
}

fn field_u64(doc: &Json, key: &str) -> Result<Option<u64>, Reject> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| reject(400, format!("field {key:?} must be a non-negative integer"))),
    }
}

fn field_bool(doc: &Json, key: &str) -> Result<Option<bool>, Reject> {
    match doc.get(key) {
        None => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(reject(400, format!("field {key:?} must be a boolean"))),
    }
}

fn field_f64(doc: &Json, key: &str) -> Result<Option<f64>, Reject> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| reject(400, format!("field {key:?} must be a number"))),
    }
}

/// Decodes the `configs` array of cache descriptions.
fn decode_configs(doc: &Json) -> Result<Vec<CacheConfig>, Reject> {
    let Some(items) = doc.get("configs").and_then(Json::as_arr) else {
        return Err(reject(
            400,
            "missing \"configs\" field (an array of cache configurations)",
        ));
    };
    if items.is_empty() {
        return Err(reject(400, "\"configs\" must name at least one cache"));
    }
    items.iter().map(decode_config).collect()
}

/// Parses an associativity from its word (`direct`, `full`) or its way
/// count (at least 1). The `--assoc` flag passes both readings of its
/// value; a JSON `"assoc"` passes its string or its integer, so the
/// string `"2"` is no way count there.
///
/// # Errors
///
/// A message completing "field `assoc` …" when neither reading is valid.
pub fn parse_assoc(word: Option<&str>, ways: Option<u64>) -> Result<Associativity, &'static str> {
    match (word, ways) {
        (Some("direct"), _) => Ok(Associativity::Direct),
        (Some("full"), _) => Ok(Associativity::Full),
        (_, Some(n)) if n >= 1 => u32::try_from(n)
            .map(Associativity::Ways)
            .map_err(|_| "way count is out of range"),
        _ => Err("must be \"direct\", \"full\", or a way count"),
    }
}

/// Parses a fill policy: `full`, `partial` or `sector:<bytes>` (the
/// `--fill` flag and a JSON `"fill"` string alike).
#[must_use]
pub fn parse_fill(spec: &str) -> Option<FillPolicy> {
    match spec {
        "full" => Some(FillPolicy::FullBlock),
        "partial" => Some(FillPolicy::Partial),
        _ => spec
            .strip_prefix("sector:")?
            .parse()
            .ok()
            .map(|sector_bytes| FillPolicy::Sectored { sector_bytes }),
    }
}

fn decode_config(item: &Json) -> Result<CacheConfig, Reject> {
    let Some(size) = item.get("size").and_then(Json::as_u64) else {
        return Err(reject(
            400,
            "each config needs a \"size\" field (cache bytes)",
        ));
    };
    let block = field_u64(item, "block")?.unwrap_or(64);
    let associativity = match item.get("assoc") {
        None => Associativity::Direct,
        Some(v) => parse_assoc(v.as_str(), v.as_u64())
            .map_err(|e| reject(400, format!("field \"assoc\" {e}")))?,
    };
    let fill = match item.get("fill") {
        None => FillPolicy::FullBlock,
        Some(v) => v.as_str().and_then(parse_fill).ok_or_else(|| {
            reject(
                400,
                "field \"fill\" must be \"full\", \"partial\", or \"sector:<bytes>\"",
            )
        })?,
    };
    if item
        .get("replacement")
        .is_some_and(|v| v.as_str() != Some("lru"))
    {
        return Err(reject(
            400,
            "field \"replacement\" must be \"lru\" (every cache is LRU)",
        ));
    }
    let config = CacheConfig {
        size_bytes: size,
        block_bytes: block,
        associativity,
        fill,
    };
    config
        .validate()
        .map_err(|e| reject(400, format!("bad cache configuration: {e}")))?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            target: path.to_string(),
            http11: true,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            target: path.to_string(),
            http11: true,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn program_text() -> String {
        impact_asm::print_program(&impact_workloads::by_name("cmp").unwrap().program)
    }

    fn body_json(resp: &Response) -> Json {
        parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    #[test]
    fn unknown_routes_and_methods() {
        let state = AppState::new(1);
        let (ep, resp) = route(&state, &get("/nope"));
        assert_eq!(ep, Endpoint::Other);
        assert_eq!(resp.status, 404);
        let (_, resp) = route(&state, &get("/v1/simulate"));
        assert_eq!(resp.status, 405);
        assert!(resp
            .headers
            .iter()
            .any(|(n, v)| n == "Allow" && v == "POST"));
        let (_, resp) = route(&state, &get("/healthz"));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn bad_bodies_are_rejected_with_positions() {
        let state = AppState::new(1);
        let (_, resp) = route(&state, &post("/v1/lint", "{\n  broken"));
        assert_eq!(resp.status, 400);
        let msg = body_json(&resp);
        let text = msg.get("error").and_then(Json::as_str).unwrap().to_string();
        assert!(text.contains("line 2"), "{text}");

        let (_, resp) = route(&state, &post("/v1/simulate", "{}"));
        assert_eq!(resp.status, 400);
        let (_, resp) = route(
            &state,
            &post(
                "/v1/simulate",
                r#"{"program": "not asm", "configs": [{"size": 512}]}"#,
            ),
        );
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(&resp.body).contains("cannot parse"));
    }

    #[test]
    fn zero_budgets_are_a_400_on_every_program_route() {
        let state = AppState::new(1);
        let program = Json::Str(program_text());
        for (field, names) in [("max_instrs", "max_instructions"), ("runs", "runs")] {
            // Every field each route needs, so only the budget is wrong;
            // the simulate body keeps its default natural layout.
            let body =
                format!(r#"{{"program": {program}, "{field}": 0, "configs": [{{"size": 2048}}]}}"#);
            for &(method, path, ..) in ROUTES.iter().filter(|r| r.0 == "POST") {
                let (_, resp) = route(&state, &post(path, &body));
                let text = String::from_utf8_lossy(&resp.body);
                assert_eq!(resp.status, 400, "{method} {path} {field}: 0: {text}");
                assert!(text.contains(names), "{path} {field}: 0: {text}");
            }
        }
    }

    #[test]
    fn hostile_nesting_is_a_400_not_a_stack_overflow() {
        let state = AppState::new(1);
        let body = "[".repeat(100_000) + &"]".repeat(100_000);
        let (_, resp) = route(&state, &post("/v1/simulate", &body));
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(&resp.body).contains("nesting deeper than 128 levels"));
    }

    #[test]
    fn repeat_counts_past_the_program_size_cap_are_a_400() {
        let state = AppState::new(1);
        let program = |count: &str| {
            format!("program entry=main\nfn main {{\n b:\n  ialu x{count}\n  exit\n}}\n")
        };
        // Either body would allocate 4 GB or more for its one block
        // without the cap.
        for count in ["4000000000", "18446744073709551615"] {
            let body = format!(
                r#"{{"program": {}, "configs": [{{"size": 2048}}]}}"#,
                Json::Str(program(count)),
            );
            let (_, resp) = route(&state, &post("/v1/simulate", &body));
            let text = String::from_utf8_lossy(&resp.body);
            assert_eq!(resp.status, 400, "x{count}: {text}");
            let limit = format!("limit of {} instructions", impact_asm::MAX_INSTRUCTIONS);
            assert!(text.contains(&limit), "x{count}: {text}");
        }
        let under = (impact_asm::MAX_INSTRUCTIONS - 1).to_string();
        let doc = parse_json(&format!(r#"{{"program": {}}}"#, Json::Str(program(&under)))).unwrap();
        let (_, parsed, _) = decode_program(&doc).map_err(|r| r.status).unwrap();
        assert_eq!(
            parsed.total_bytes(),
            4 * impact_asm::MAX_INSTRUCTIONS as u64
        );
    }

    #[test]
    fn invalid_cache_configs_are_rejected() {
        let state = AppState::new(1);
        let body = format!(
            r#"{{"program": {}, "configs": [{{"size": 3}}]}}"#,
            Json::Str(program_text()),
        );
        let (_, resp) = route(&state, &post("/v1/simulate", &body));
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(&resp.body).contains("power of two"));
    }

    #[test]
    fn simulate_matches_direct_evaluation_and_repeats_by_walking() {
        let state = AppState::new(1);
        let text = program_text();
        let body = format!(
            r#"{{"program": {}, "seed": 7, "max_instrs": 40000,
                "configs": [{{"size": 2048}}, {{"size": 512, "assoc": 2}}]}}"#,
            Json::Str(text.clone()),
        );
        let req = post("/v1/simulate", &body);
        let (ep, resp) = route(&state, &req);
        assert_eq!(ep, Endpoint::Simulate);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

        // Rebuild the expected bytes from a direct evaluation.
        let program = parse_program(&text).unwrap();
        let placement = baseline::natural(&program);
        let configs = [
            CacheConfig::direct_mapped(2048, 64),
            CacheConfig {
                size_bytes: 512,
                block_bytes: 64,
                associativity: Associativity::Ways(2),
                fill: FillPolicy::FullBlock,
            },
        ];
        let limits = ExecLimits::capped(40_000);
        let mut session = impact_experiments::session::SimSession::new();
        let handle = session.request(&program, &placement, 7, limits, &configs);
        session.execute();
        let (stats, instructions) = session.counted(&handle);
        let expected = Response::json(
            200,
            &simulate_response_json("natural", 7, &configs, &stats, instructions),
        );
        assert_eq!(resp.body, expected.body, "service must be bit-identical");

        // `route` sits below the response memo, and a storeless state
        // keeps no trace results: a repeat walks again, to the same bytes.
        let streamed = state.sim_counters().traces_streamed;
        let (_, resp2) = route(&state, &req);
        assert_eq!(resp2.body, resp.body);
        assert_eq!(state.sim_counters().traces_streamed, streamed + 1);
    }

    #[test]
    fn replacement_must_be_lru_or_absent() {
        let state = AppState::new(1);
        let text = Json::Str(program_text());
        let body = |config: &str| {
            let body =
                format!(r#"{{"program": {text}, "max_instrs": 20000, "configs": [{config}]}}"#);
            route(&state, &post("/v1/simulate", &body)).1
        };
        for policy in ["fifo", "random"] {
            let resp = body(&format!(r#"{{"size": 1024, "replacement": "{policy}"}}"#));
            assert_eq!(resp.status, 400, "{policy}");
            let text = String::from_utf8_lossy(&resp.body);
            assert!(
                text.contains(r#"field \"replacement\" must be \"lru\""#),
                "{text}"
            );
        }
        let absent = body(r#"{"size": 1024}"#);
        let lru = body(r#"{"size": 1024, "replacement": "lru"}"#);
        assert_eq!(absent.status, 200);
        assert_eq!(
            lru.body, absent.body,
            "naming the one policy changes nothing"
        );
        let text = String::from_utf8_lossy(&absent.body);
        assert!(text.contains(r#""replacement": "lru""#), "{text}");
    }

    #[test]
    fn lint_matches_the_cli_document() {
        let state = AppState::new(1);
        let text = program_text();
        let body = format!(
            r#"{{"program": {}, "name": "cmp", "runs": 2, "max_instrs": 60000}}"#,
            Json::Str(text.clone()),
        );
        let (_, resp) = route(&state, &post("/v1/lint", &body));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

        // Same rows as `impact lint --json`: one `to_json_for_target`.
        let program = parse_program(&text).unwrap();
        let config = PipelineConfig {
            profile_runs: 2,
            limits: ExecLimits::capped(60_000),
            ..PipelineConfig::default()
        };
        let (_, report) = run_checked(&Pipeline::new(config), &program).unwrap();
        let expected = Response::json(200, &Json::Arr(vec![report.to_json_for_target("cmp")]));
        assert_eq!(resp.body, expected.body);
    }

    #[test]
    fn lint_deny_warnings_flips_status_not_body() {
        let state = AppState::new(1);
        // wc carries known IPA005 warnings, so deny_warnings must bite.
        let text = impact_asm::print_program(&impact_workloads::by_name("wc").unwrap().program);
        let plain = format!(
            r#"{{"program": {}, "name": "wc", "runs": 2, "max_instrs": 60000}}"#,
            Json::Str(text.clone()),
        );
        let deny = format!(
            r#"{{"program": {}, "name": "wc", "runs": 2, "max_instrs": 60000,
                "deny_warnings": true}}"#,
            Json::Str(text),
        );
        let (_, ok) = route(&state, &post("/v1/lint", &plain));
        assert_eq!(ok.status, 200);
        let (_, denied) = route(&state, &post("/v1/lint", &deny));
        assert_eq!(denied.status, 422);
        assert_eq!(denied.body, ok.body, "only the status may change");

        let (_, resp) = route(
            &state,
            &post("/v1/lint", r#"{"program": "", "deny_warnings": 1}"#),
        );
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn analyze_matches_the_cli_document() {
        let state = AppState::new(1);
        let text = program_text();
        let body = format!(
            r#"{{"program": {}, "name": "cmp", "cache": 1024, "block": 32}}"#,
            Json::Str(text.clone()),
        );
        let (ep, resp) = route(&state, &post("/v1/analyze", &body));
        assert_eq!(ep, Endpoint::Analyze);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

        // Same implementation as one `impact analyze --json` array entry.
        let program = parse_program(&text).unwrap();
        let conflict = ConflictConfig {
            cache_bytes: 1024,
            line_bytes: 32,
            ..ConflictConfig::default()
        };
        let analysis = analyze_static(&program, &PipelineConfig::default(), conflict).unwrap();
        let expected = Response::json(200, &analysis.to_json_for_target("cmp"));
        assert_eq!(resp.body, expected.body, "service must be bit-identical");

        let doc = body_json(&resp);
        assert_eq!(doc.get("target").and_then(Json::as_str), Some("cmp"));
        assert!(doc.get("miss_bound").unwrap().get("ratio").is_some());
        assert!(!doc
            .get("hot_functions")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());

        // Wrong method gets a 405 with the Allow header.
        let (_, resp) = route(&state, &get("/v1/analyze"));
        assert_eq!(resp.status, 405);
        assert!(resp
            .headers
            .iter()
            .any(|(n, v)| n == "Allow" && v == "POST"));
    }

    #[test]
    fn advise_matches_the_cli_document() {
        let state = AppState::new(1);
        let text = program_text();
        let body = format!(
            r#"{{"program": {}, "name": "cmp", "cache": 1024, "block": 32}}"#,
            Json::Str(text.clone()),
        );
        let (ep, resp) = route(&state, &post("/v1/advise", &body));
        assert_eq!(ep, Endpoint::Advise);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

        // Same implementation as one `impact advise --json` array entry.
        let program = parse_program(&text).unwrap();
        let conflict = ConflictConfig {
            cache_bytes: 1024,
            line_bytes: 32,
            ..ConflictConfig::default()
        };
        let advice = advise_static(&program, &PipelineConfig::default(), conflict).unwrap();
        let expected = Response::json(200, &advice.to_json_for_target("cmp"));
        assert_eq!(resp.body, expected.body, "service must be bit-identical");

        let doc = body_json(&resp);
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(impact_analyze::SCHEMA_VERSION),
            "advise must echo the schema version"
        );
        assert_eq!(doc.get("target").and_then(Json::as_str), Some("cmp"));
        assert!(doc.get("scores").unwrap().get("exttsp").is_some());
        assert!(doc.get("advice").is_some());

        // Differential mode: same engine as `--diff natural`.
        let diff_body = format!(
            r#"{{"program": {}, "name": "cmp", "cache": 1024, "block": 32, "diff": "natural"}}"#,
            Json::Str(text.clone()),
        );
        let (_, resp) = route(&state, &post("/v1/advise", &diff_body));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let natural = baseline::natural(&advice.analysis.result.program);
        let expected = Response::json(
            200,
            &advice.diff_json_for_target("cmp", "natural", &natural, conflict),
        );
        assert_eq!(resp.body, expected.body);
        let doc = body_json(&resp);
        assert_eq!(doc.get("baseline").and_then(Json::as_str), Some("natural"));
        assert!(doc.get("better").is_some());

        // A bad baseline spec is a client error.
        let bad = format!(
            r#"{{"program": {}, "diff": "sorted"}}"#,
            Json::Str(text.clone()),
        );
        let (_, resp) = route(&state, &post("/v1/advise", &bad));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn analyze_echoes_the_schema_version() {
        let state = AppState::new(1);
        let body = format!(
            r#"{{"program": {}, "name": "cmp"}}"#,
            Json::Str(program_text()),
        );
        let (_, resp) = route(&state, &post("/v1/analyze", &body));
        assert_eq!(resp.status, 200);
        let doc = body_json(&resp);
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(impact_analyze::SCHEMA_VERSION),
        );
    }

    #[test]
    fn layout_reports_placement_and_quality() {
        let state = AppState::new(1);
        let body = format!(
            r#"{{"program": {}, "runs": 2, "max_instrs": 60000}}"#,
            Json::Str(program_text()),
        );
        let (_, resp) = route(&state, &post("/v1/layout", &body));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = body_json(&resp);
        assert!(doc.get("total_bytes").and_then(Json::as_u64).unwrap() > 0);
        let placement = doc.get("placement").and_then(Json::as_arr).unwrap();
        assert!(!placement.is_empty());
        assert!(placement[0].get("blocks").and_then(Json::as_arr).is_some());
        assert!(doc.get("trace_quality").unwrap().get("desirable").is_some());
        // Deterministic: same request, same bytes.
        let (_, resp2) = route(&state, &post("/v1/layout", &body));
        assert_eq!(resp.body, resp2.body);
    }

    #[test]
    fn optimized_simulate_layout_is_accepted() {
        let state = AppState::new(1);
        let body = format!(
            r#"{{"program": {}, "layout": "optimized", "runs": 2, "seed": 3,
                "max_instrs": 40000, "configs": [{{"size": 1024}}]}}"#,
            Json::Str(program_text()),
        );
        let (_, resp) = route(&state, &post("/v1/simulate", &body));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = body_json(&resp);
        assert_eq!(doc.get("layout").and_then(Json::as_str), Some("optimized"));
    }

    #[test]
    fn metrics_endpoint_reflects_traffic() {
        let state = AppState::new(1);
        let traffic = [
            (Endpoint::Simulate, 200, 10),
            (Endpoint::Simulate, 200, 30_000),
            (Endpoint::Lint, 422, 700),
            (Endpoint::Layout, 200, 2_000_000),
            (Endpoint::Other, 404, 10),
        ];
        for (endpoint, status, micros) in traffic {
            state.metrics.record(endpoint, status, micros);
        }
        let (_, resp) = route(&state, &get("/metrics"));
        assert_eq!(resp.status, 200);
        let doc = body_json(&resp);
        let u64_at = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64).unwrap();
        assert_eq!(u64_at(&doc, "requests_total"), traffic.len() as u64);
        assert!(doc.get("sim").unwrap().get("memo_hit_rate").is_some());
        let rc = doc.get("response_cache").unwrap();
        assert!(rc.get("hits").and_then(Json::as_u64).is_some());
        assert!(rc.get("budget_bytes").and_then(Json::as_u64).is_some());

        // The global histogram is the per-endpoint histograms summed.
        let Json::Obj(by_endpoint) = doc.get("latency_by_endpoint").unwrap() else {
            panic!("latency_by_endpoint is an object")
        };
        let counts = |buckets: &Json| -> Vec<u64> {
            let buckets = buckets.as_arr().unwrap();
            buckets.iter().map(|b| u64_at(b, "count")).collect()
        };
        let mut summed = vec![0; crate::metrics::LATENCY_BUCKETS_US.len() + 1];
        let mut sum_us = 0;
        for (_, endpoint) in by_endpoint {
            for (total, n) in summed
                .iter_mut()
                .zip(counts(endpoint.get("buckets").unwrap()))
            {
                *total += n;
            }
            sum_us += u64_at(endpoint, "sum_us");
        }
        assert_eq!(counts(doc.get("latency_us_buckets").unwrap()), summed);
        assert_eq!(u64_at(&doc, "latency_us_sum"), sum_us);
        assert_eq!(
            u64_at(&doc, "latency_count"),
            u64_at(&doc, "requests_total")
        );
    }
}
