//! Request decoding, routing, and the endpoint handlers.
//!
//! Handlers are plain functions from [`Request`] to [`Response`] over a
//! shared [`AppState`], so they unit-test without sockets. All bodies are
//! JSON (decoded with [`impact_support::json::parse`]); programs travel
//! inside them as `impact-asm` text.
//!
//! | Route | Body | Result |
//! |---|---|---|
//! | `POST /v1/lint` | `{"program", "name"?, "runs"?, "max_instrs"?, "deny_warnings"?}` | the `impact lint --json` document |
//! | `POST /v1/layout` | `{"program", "name"?, "runs"?, "max_instrs"?, "min_prob"?}` | placement + quality metrics |
//! | `POST /v1/simulate` | `{"program", "configs", "seed"?, "max_instrs"?, "layout"?, "runs"?}` | per-config cache statistics |
//! | `POST /v1/analyze` | `{"program", "name"?, "cache"?, "block"?}` | profile-free static analysis (the `impact analyze --json` document) |
//! | `POST /v1/advise` | `{"program", "name"?, "cache"?, "block"?, "diff"?}` | placement scores + layout advisors (the `impact advise --json` document) |
//! | `GET /metrics` | — | counters, latency histogram, memo hit rate |

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use impact_analyze::{
    advise_static, analyze_static, reports_to_json, CheckedPipeline, ConflictConfig,
};
use impact_asm::parse_program;
use impact_cache::{Associativity, CacheConfig, CacheStats, FillPolicy, Replacement};
use impact_experiments::session::{SimMetrics, SimSession};
use impact_ir::Program;
use impact_layout::pipeline::{Pipeline, PipelineConfig};
use impact_layout::{baseline, Placement};
use impact_profile::ExecLimits;
use impact_store::Store;
use impact_support::json::{parse as parse_json, Json, ToJson};

use crate::http::{Request, Response};
use crate::metrics::{Endpoint, Metrics};
use crate::rcache::ResponseCache;
use crate::server::ServeConfig;
use crate::shard::{ShardRouter, FORWARDED_HEADER};

/// Default evaluation input seed (the CLI's `--seed` default).
pub const DEFAULT_SEED: u64 = 1_000_003;
/// Default dynamic instruction cap (the CLI's `--max-instrs` default).
pub const DEFAULT_MAX_INSTRS: u64 = 5_000_000;
/// Default profiling runs (the CLI's `--runs` default).
pub const DEFAULT_RUNS: u32 = 8;

/// Everything a request handler can reach: what each `/v1/simulate`
/// builds its own [`SimSession`] from, and the service counters. No
/// per-trace data lives here; repeats are answered by the response memo
/// ([`AppState::rcache`]) or, with `--store`, from disk. The one lock a
/// trace walk holds is `walk`, which guards no data.
pub struct AppState {
    /// Worker-thread cap of each request's session (`--sim-jobs`); no
    /// effect, since a session delivers one trace on one thread.
    sim_jobs: usize,
    /// The persistent store every request's session attaches.
    store: Option<Arc<Store>>,
    /// Held by a session's `execute`, so one trace walks at a time: on
    /// a 2-vCPU host, two concurrent walks ran faster but their
    /// throughput swung with the host's load from run to run.
    walk: Mutex<()>,
    /// Running total of every request session's counters. Locked only to
    /// fold a finished session in or to read, never while a trace walks.
    sim_total: Mutex<SimMetrics>,
    /// Service counters rendered by `GET /metrics`.
    pub metrics: Metrics,
    /// Serving-layer response memo consulted by the reactor before
    /// dispatch (exact `(target, body)` bytes → first response).
    pub rcache: ResponseCache,
    /// Rendezvous router when the node runs in shard mode (`--peers`).
    pub shard: Option<ShardRouter>,
}

impl std::fmt::Debug for AppState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppState")
            .field("sim_jobs", &self.sim_jobs)
            .field("store", &self.store.is_some())
            .field("shard", &self.shard)
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
            walk: Mutex::new(()),
            sim_total: Mutex::new(SimMetrics {
                jobs: sim_jobs as u64,
                ..SimMetrics::default()
            }),
            metrics: Metrics::new(),
            rcache: ResponseCache::new(crate::rcache::DEFAULT_CACHE_BYTES),
            shard: None,
        }
    }

    /// Full state from a [`ServeConfig`]: opens the persistent store
    /// (when `store_dir` is set) so every session disk-serves repeats and
    /// writes new results through, and validates the shard membership.
    ///
    /// # Errors
    ///
    /// Store directories that cannot be created/opened surface as the
    /// underlying I/O error; `peers` without a matching `advertise`
    /// entry (or vice versa) is `InvalidInput`.
    pub fn from_config(config: &ServeConfig) -> std::io::Result<Self> {
        let store = config.store_dir.as_ref().map(Store::open).transpose()?;
        let invalid = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        let shard = match (config.peers.is_empty(), &config.advertise) {
            (true, None) => None,
            (true, Some(_)) => return Err(invalid("advertise set without a peer list")),
            (false, None) => return Err(invalid("a peer list needs an advertised self address")),
            (false, Some(advertise)) => Some(ShardRouter::new(config.peers.clone(), advertise)?),
        };
        Ok(Self {
            store: store.map(Arc::new),
            rcache: ResponseCache::new(config.response_cache_bytes),
            shard,
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

/// Dispatches one request to its handler; returns the endpoint label
/// (for metrics) alongside the response.
#[must_use]
pub fn route(state: &AppState, req: &Request) -> (Endpoint, Response) {
    const ROUTES: [(&str, &str); 7] = [
        ("POST", "/v1/lint"),
        ("POST", "/v1/layout"),
        ("POST", "/v1/simulate"),
        ("POST", "/v1/analyze"),
        ("POST", "/v1/advise"),
        ("GET", "/metrics"),
        ("GET", "/healthz"),
    ];
    match (req.method.as_str(), req.path()) {
        ("POST", "/v1/lint") => (Endpoint::Lint, lint(req)),
        ("POST", "/v1/layout") => (Endpoint::Layout, layout(req)),
        ("POST", "/v1/simulate") => {
            // Shard mode: hand the request to its rendezvous owner.
            // Marked requests are already on their owner (one hop max).
            if let Some(shard) = &state.shard {
                if req.header(FORWARDED_HEADER).is_none() {
                    if let Some(peer) = shard.owner_of(&req.body) {
                        return (Endpoint::Simulate, shard.forward(peer, req));
                    }
                }
                shard.note_local();
            }
            (Endpoint::Simulate, simulate(state, req))
        }
        ("POST", "/v1/analyze") => (Endpoint::Analyze, analyze(req)),
        ("POST", "/v1/advise") => (Endpoint::Advise, advise(req)),
        ("GET", "/metrics") => {
            let mut doc = state.metrics.to_json(&state.sim_counters());
            if let Json::Obj(fields) = &mut doc {
                fields.push(("response_cache".to_string(), state.rcache.to_json()));
                if let Some(shard) = &state.shard {
                    fields.push(("shard".to_string(), shard.to_json()));
                }
            }
            (Endpoint::Metrics, Response::json(200, &doc))
        }
        ("GET", "/healthz") => (
            Endpoint::Other,
            Response::json(200, &Json::Obj(vec![("ok".to_string(), Json::Bool(true))])),
        ),
        (method, path) => {
            if let Some((allowed, _)) = ROUTES.iter().find(|(_, p)| *p == path) {
                let resp = Response::error(
                    405,
                    format!("{method} is not supported on {path}; use {allowed}"),
                )
                .with_header("Allow", *allowed);
                (Endpoint::Other, resp)
            } else {
                (
                    Endpoint::Other,
                    Response::error(404, format!("no route for {path}")),
                )
            }
        }
    }
}

/// `POST /v1/lint` — run the full `impact-analyze` registry over the
/// submitted program's pipeline run. The body is byte-for-byte the
/// document `impact lint --json` prints for one target: both surfaces
/// call [`impact_analyze::reports_to_json`]. With `"deny_warnings":
/// true` (the CLI's `--deny-warnings`) a warning-bearing report comes
/// back as 422 — the body bytes are unchanged, only the status flips.
fn lint(req: &Request) -> Response {
    let doc = match decode_body(req) {
        Ok(d) => d,
        Err(resp) => return *resp,
    };
    let (name, program, common) = match decode_program(&doc) {
        Ok(p) => p,
        Err(resp) => return *resp,
    };
    let deny_warnings = match field_bool(&doc, "deny_warnings") {
        Ok(v) => v.unwrap_or(false),
        Err(resp) => return *resp,
    };
    let checked = CheckedPipeline::new(Pipeline::new(common.pipeline_config()));
    match checked.try_run(&program) {
        Ok((_, report)) => {
            let status = if deny_warnings && report.warning_count() > 0 {
                422
            } else {
                200
            };
            Response::json(status, &reports_to_json([(name.as_str(), &report)]))
        }
        Err(e) => Response::error(400, e.to_string()),
    }
}

/// `POST /v1/analyze` — profile-free static analysis: Ball/Larus-style
/// branch heuristics drive the placement pipeline, then the static
/// cache-conflict passes (`IPA301`–`IPA303`) and the miss-ratio bound
/// run over the result. The body is the per-target document `impact
/// analyze --json` emits: both surfaces call
/// [`StaticAnalysis::to_json_for_target`](impact_analyze::StaticAnalysis::to_json_for_target).
fn analyze(req: &Request) -> Response {
    let doc = match decode_body(req) {
        Ok(d) => d,
        Err(resp) => return *resp,
    };
    let (name, program, _) = match decode_program(&doc) {
        Ok(p) => p,
        Err(resp) => return *resp,
    };
    let mut conflict = ConflictConfig::default();
    match field_u64(&doc, "cache") {
        Ok(Some(v)) => conflict.cache_bytes = v,
        Ok(None) => {}
        Err(resp) => return *resp,
    }
    match field_u64(&doc, "block") {
        Ok(Some(v)) => conflict.line_bytes = v,
        Ok(None) => {}
        Err(resp) => return *resp,
    }
    match analyze_static(&program, &PipelineConfig::default(), conflict) {
        Ok(analysis) => Response::json(200, &analysis.to_json_for_target(&name)),
        Err(e) => Response::error(400, e.to_string()),
    }
}

/// `POST /v1/advise` — [`analyze`] plus placement scoring (ExtTSP and
/// distance tiers) and the layout advisors (`IPA401`–`IPA405`). The
/// body is the per-target document `impact advise --json` emits: both
/// surfaces call
/// [`Advice::to_json_for_target`](impact_analyze::Advice::to_json_for_target).
/// An optional `"diff"` field (`natural` or `random[:seed]`, the CLI's
/// `--diff`) switches to the differential document.
fn advise(req: &Request) -> Response {
    let doc = match decode_body(req) {
        Ok(d) => d,
        Err(resp) => return *resp,
    };
    let (name, program, _) = match decode_program(&doc) {
        Ok(p) => p,
        Err(resp) => return *resp,
    };
    let mut conflict = ConflictConfig::default();
    match field_u64(&doc, "cache") {
        Ok(Some(v)) => conflict.cache_bytes = v,
        Ok(None) => {}
        Err(resp) => return *resp,
    }
    match field_u64(&doc, "block") {
        Ok(Some(v)) => conflict.line_bytes = v,
        Ok(None) => {}
        Err(resp) => return *resp,
    }
    let diff = match doc.get("diff") {
        None => None,
        Some(Json::Str(spec)) => Some(spec.clone()),
        Some(_) => return Response::error(400, "field 'diff' must be a string".to_string()),
    };
    let advice = match advise_static(&program, &PipelineConfig::default(), conflict) {
        Ok(a) => a,
        Err(e) => return Response::error(400, e.to_string()),
    };
    let Some(spec) = diff else {
        return Response::json(200, &advice.to_json_for_target(&name));
    };
    let result = &advice.analysis.result;
    let (bname, bp) = if spec == "natural" {
        ("natural".to_string(), baseline::natural(&result.program))
    } else if spec == "random" {
        ("random:7".to_string(), baseline::random(&result.program, 7))
    } else if let Some(seed) = spec.strip_prefix("random:").and_then(|s| s.parse().ok()) {
        (
            format!("random:{seed}"),
            baseline::random(&result.program, seed),
        )
    } else {
        return Response::error(
            400,
            format!("unknown diff baseline '{spec}' (use natural | random[:seed])"),
        );
    };
    Response::json(
        200,
        &advice.diff_json_for_target(&name, &bname, &bp, conflict),
    )
}

/// `POST /v1/layout` — run the five-step placement pipeline and return
/// the placement plus its quality metrics.
fn layout(req: &Request) -> Response {
    let doc = match decode_body(req) {
        Ok(d) => d,
        Err(resp) => return *resp,
    };
    let (name, program, common) = match decode_program(&doc) {
        Ok(p) => p,
        Err(resp) => return *resp,
    };
    let mut config = common.pipeline_config();
    match field_f64(&doc, "min_prob") {
        Ok(Some(p)) => config.min_prob = p,
        Ok(None) => {}
        Err(resp) => return *resp,
    }
    let result = match Pipeline::new(config).try_run(&program) {
        Ok(r) => r,
        Err(e) => return Response::error(400, e.to_string()),
    };

    let placement_doc = Json::Arr(
        result
            .program
            .functions()
            .map(|(fid, func)| {
                let blocks: Vec<Json> = (0..func.block_count())
                    .map(|b| {
                        result
                            .placement
                            .addr(fid, impact_ir::BlockId::new(b))
                            .to_json()
                    })
                    .collect();
                Json::Obj(vec![
                    ("function".to_string(), func.name().to_json()),
                    ("blocks".to_string(), Json::Arr(blocks)),
                ])
            })
            .collect(),
    );
    let order = Json::Arr(
        result
            .global
            .order()
            .iter()
            .map(|&f| result.program.function(f).name().to_json())
            .collect(),
    );
    Response::json(
        200,
        &Json::Obj(vec![
            ("name".to_string(), name.to_json()),
            (
                "total_bytes".to_string(),
                result.total_static_bytes().to_json(),
            ),
            (
                "effective_bytes".to_string(),
                result.effective_static_bytes().to_json(),
            ),
            (
                "inline".to_string(),
                Json::Obj(vec![
                    (
                        "code_increase".to_string(),
                        result.inline_report.code_increase.to_json(),
                    ),
                    (
                        "call_decrease".to_string(),
                        result.inline_report.call_decrease.to_json(),
                    ),
                    (
                        "instrs_per_call".to_string(),
                        result.inline_report.instrs_per_call.to_json(),
                    ),
                    (
                        "transfers_per_call".to_string(),
                        result.inline_report.transfers_per_call.to_json(),
                    ),
                ]),
            ),
            (
                "trace_quality".to_string(),
                Json::Obj(vec![
                    (
                        "desirable".to_string(),
                        result.trace_quality.desirable.to_json(),
                    ),
                    (
                        "neutral".to_string(),
                        result.trace_quality.neutral.to_json(),
                    ),
                    (
                        "undesirable".to_string(),
                        result.trace_quality.undesirable.to_json(),
                    ),
                    (
                        "mean_trace_length".to_string(),
                        result.trace_quality.mean_trace_length.to_json(),
                    ),
                ]),
            ),
            ("function_order".to_string(), order),
            ("placement".to_string(), placement_doc),
        ]),
    )
}

/// `POST /v1/simulate` — evaluate cache configurations over the
/// program's trace in a session of its own: plan, execute once under
/// the walk lock, read, then fold the session's counters into the
/// service total.
fn simulate(state: &AppState, req: &Request) -> Response {
    let doc = match decode_body(req) {
        Ok(d) => d,
        Err(resp) => return *resp,
    };
    let (_, program, common) = match decode_program(&doc) {
        Ok(p) => p,
        Err(resp) => return *resp,
    };
    let seed = match field_u64(&doc, "seed") {
        Ok(v) => v.unwrap_or(DEFAULT_SEED),
        Err(resp) => return *resp,
    };
    let configs = match decode_configs(&doc) {
        Ok(c) => c,
        Err(resp) => return *resp,
    };
    let layout_kind = match doc.get("layout") {
        None => "natural",
        Some(v) => match v.as_str() {
            Some(k @ ("natural" | "optimized")) => k,
            _ => {
                return Response::error(
                    400,
                    "field \"layout\" must be \"natural\" or \"optimized\"",
                )
            }
        },
    };

    let (sim_program, placement): (Program, Placement) = if layout_kind == "optimized" {
        match Pipeline::new(common.pipeline_config()).try_run(&program) {
            Ok(r) => (r.program, r.placement),
            Err(e) => return Response::error(400, e.to_string()),
        }
    } else {
        let placement = baseline::natural(&program);
        (program, placement)
    };

    let mut session = SimSession::with_jobs(state.sim_jobs);
    if let Some(store) = &state.store {
        session = session.with_store(Arc::clone(store));
    }
    let handle = session.request(&sim_program, &placement, seed, common.limits(), &configs);
    {
        // A panicked walk leaves nothing behind the lock to repair.
        let _walk = state.walk.lock().unwrap_or_else(PoisonError::into_inner);
        session.execute();
    }
    let (stats, instructions) = session.counted(&handle);
    state.total().add(&session.counters());
    Response::json(
        200,
        &simulate_response_json(layout_kind, seed, &configs, &stats, instructions),
    )
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
    let replacement = match c.replacement {
        Replacement::Lru => "lru",
        Replacement::Fifo => "fifo",
        Replacement::Random => "random",
    };
    Json::Obj(vec![
        ("size".to_string(), c.size_bytes.to_json()),
        ("block".to_string(), c.block_bytes.to_json()),
        ("assoc".to_string(), assoc),
        ("fill".to_string(), fill.to_json()),
        ("replacement".to_string(), replacement.to_json()),
    ])
}

/// Request parameters shared by every program-accepting endpoint.
struct CommonParams {
    runs: u32,
    max_instrs: u64,
}

impl CommonParams {
    fn limits(&self) -> ExecLimits {
        ExecLimits {
            max_instructions: self.max_instrs,
            max_call_depth: 512,
        }
    }

    fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            profile_runs: self.runs,
            limits: self.limits(),
            ..PipelineConfig::default()
        }
    }
}

/// Boxed so the `Result` stays one machine word on the happy path.
type Reject = Box<Response>;

fn reject(status: u16, message: impl Into<String>) -> Reject {
    Box::new(Response::error(status, message))
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
/// common numeric parameters.
fn decode_program(doc: &Json) -> Result<(String, Program, CommonParams), Reject> {
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
    let runs = match field_u64(doc, "runs")? {
        None => DEFAULT_RUNS,
        Some(r) => u32::try_from(r)
            .ok()
            .filter(|&r| r >= 1)
            .ok_or_else(|| reject(400, "field \"runs\" must be a positive integer"))?,
    };
    let max_instrs = field_u64(doc, "max_instrs")?.unwrap_or(DEFAULT_MAX_INSTRS);
    Ok((name, program, CommonParams { runs, max_instrs }))
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
        Some(v) => match (v.as_str(), v.as_u64()) {
            (Some("direct"), _) => Associativity::Direct,
            (Some("full"), _) => Associativity::Full,
            (_, Some(n)) if n >= 1 => Associativity::Ways(
                u32::try_from(n)
                    .map_err(|_| reject(400, "field \"assoc\" way count is out of range"))?,
            ),
            _ => {
                return Err(reject(
                    400,
                    "field \"assoc\" must be \"direct\", \"full\", or a way count",
                ))
            }
        },
    };
    let fill = match item.get("fill") {
        None => FillPolicy::FullBlock,
        Some(v) => match v.as_str() {
            Some("full") => FillPolicy::FullBlock,
            Some("partial") => FillPolicy::Partial,
            Some(s) => match s.strip_prefix("sector:").and_then(|n| n.parse().ok()) {
                Some(sector_bytes) => FillPolicy::Sectored { sector_bytes },
                None => {
                    return Err(reject(
                        400,
                        "field \"fill\" must be \"full\", \"partial\", or \"sector:<bytes>\"",
                    ))
                }
            },
            None => {
                return Err(reject(
                    400,
                    "field \"fill\" must be \"full\", \"partial\", or \"sector:<bytes>\"",
                ))
            }
        },
    };
    let replacement = match item.get("replacement") {
        None => Replacement::Lru,
        Some(v) => match v.as_str() {
            Some("lru") => Replacement::Lru,
            Some("fifo") => Replacement::Fifo,
            Some("random") => Replacement::Random,
            _ => {
                return Err(reject(
                    400,
                    "field \"replacement\" must be \"lru\", \"fifo\", or \"random\"",
                ))
            }
        },
    };
    let config = CacheConfig {
        size_bytes: size,
        block_bytes: block,
        associativity,
        fill,
        replacement,
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
                replacement: Replacement::Lru,
            },
        ];
        let limits = ExecLimits {
            max_instructions: 40_000,
            max_call_depth: 512,
        };
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
    fn lint_matches_the_cli_document() {
        let state = AppState::new(1);
        let text = program_text();
        let body = format!(
            r#"{{"program": {}, "name": "cmp", "runs": 2, "max_instrs": 60000}}"#,
            Json::Str(text.clone()),
        );
        let (_, resp) = route(&state, &post("/v1/lint", &body));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

        // Same implementation as `impact lint --json`: reports_to_json.
        let program = parse_program(&text).unwrap();
        let config = PipelineConfig {
            profile_runs: 2,
            limits: ExecLimits {
                max_instructions: 60_000,
                max_call_depth: 512,
            },
            ..PipelineConfig::default()
        };
        let (_, report) = CheckedPipeline::new(Pipeline::new(config))
            .try_run(&program)
            .unwrap();
        let expected = Response::json(200, &reports_to_json([("cmp", &report)]));
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
        state.metrics.record(Endpoint::Simulate, 200, 10);
        let (_, resp) = route(&state, &get("/metrics"));
        assert_eq!(resp.status, 200);
        let doc = body_json(&resp);
        assert_eq!(doc.get("requests_total").and_then(Json::as_u64), Some(1));
        assert!(doc.get("sim").unwrap().get("memo_hit_rate").is_some());
        let rc = doc.get("response_cache").unwrap();
        assert!(rc.get("hits").and_then(Json::as_u64).is_some());
        assert!(rc.get("budget_bytes").and_then(Json::as_u64).is_some());
    }
}
