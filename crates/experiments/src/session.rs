//! `SimSession` — the shared, parallel, memoizing evaluation engine
//! behind every table runner.
//!
//! The paper applies "the entire execution traces ... to the cache
//! simulator"; fifteen table runners each need cache statistics over the
//! *same* handful of evaluation traces, differing only in which
//! [`CacheConfig`]s they care about. Re-streaming a multi-million-access
//! trace per table is pure waste, so the session works in three phases:
//!
//! 1. **Plan** — table runners [`request`](SimSession::request) cache
//!    statistics (or [`request_sink`](SimSession::request_sink) a custom
//!    [`AccessSink`]) for a `(program, placement, seed, limits)` key and
//!    receive a handle. Identical keys are interned by their SHA-256
//!    trace key ([`persist::trace_key`], the same id the on-disk store
//!    uses) and the requested configurations accumulate into one
//!    deduplicated union per key.
//! 2. **Execute** — [`execute`](SimSession::execute) streams every
//!    pending trace **through the interpreter at most once**, fanning
//!    keys across up to [`jobs`](SimSession::jobs) scoped threads
//!    ([`impact_support::parallel_map`]); each stream drives a single
//!    [`MultiLane`] bank holding the key's config union plus any
//!    attached sinks, while a [`CaptureSink`] tee records the run
//!    stream into a [`RunBuffer`] artifact. Keys that gain demands
//!    *after* their first execution replay the artifact at memcpy
//!    speed instead of re-walking the interpreter (a session-level
//!    byte budget caps artifact memory; over budget, late demands fall
//!    back to re-streaming). Results are stored per key, in
//!    deterministic order — with one job the execution is exactly
//!    today's serial loop.
//! 3. **Serve** — [`stats`](SimSession::stats),
//!    [`instructions`](SimSession::instructions) and
//!    [`take_sink`](SimSession::take_sink) hand results back through the
//!    handles; every duplicate demand is served from the memo.
//!
//! [`SimMetrics`] exposes the observability layer: traces streamed vs.
//! memo-served, instructions simulated, and per-table / per-simulation
//! wall-clock with instructions-per-second rates.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use impact_cache::{AccessSink, CacheConfig, CacheStats, MultiLane};
use impact_ir::Program;
use impact_layout::Placement;
use impact_profile::ExecLimits;
use impact_store::{Cid, Store, StoreCounters};
use impact_support::json::{Json, ToJson};
use impact_trace::{CaptureSink, RunBuffer, TraceGenerator};

use crate::persist;

/// Default cap on run-buffer artifact memory per session (bytes). Run
/// buffers cost ~16 bytes per straight-line stretch (~10–15 dynamic
/// instructions), so the default holds roughly two billion instructions
/// of unique trace — far beyond a full 16-table `repro` run — while
/// bounding a long-lived service. Tune with
/// [`SimSession::with_artifact_budget`]; a budget of `0` disables
/// capture entirely (every late demand re-streams the interpreter, the
/// pre-artifact behavior).
pub const DEFAULT_ARTIFACT_BUDGET: usize = 256 << 20;

/// Ticket for one [`SimSession::request`]: redeem with
/// [`SimSession::stats`] / [`SimSession::instructions`] after
/// [`SimSession::execute`].
#[derive(Debug, Clone)]
pub struct SimHandle {
    key: usize,
    slots: Vec<usize>,
}

/// Ticket for one [`SimSession::request_sink`]: redeem with
/// [`SimSession::take_sink`] after [`SimSession::execute`].
#[derive(Debug, Clone)]
pub struct SinkHandle {
    key: usize,
    slot: usize,
}

/// Object-safe adapter so heterogeneous sinks (prefetchers, victim
/// caches, paging simulators, ...) can ride one trace stream and be
/// recovered by concrete type afterwards.
trait SessionSink: AccessSink + Send {
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<S: AccessSink + Send + 'static> SessionSink for S {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Fans one run-batched trace stream across the key's lane bank and its
/// attached sinks, preserving run granularity for both.
struct Fanout<'a> {
    bank: &'a mut MultiLane,
    sinks: &'a mut Vec<Box<dyn SessionSink>>,
}

impl AccessSink for Fanout<'_> {
    fn access_run(&mut self, addr: u64, words: u64) {
        self.bank.access_run(addr, words);
        for s in self.sinks.iter_mut() {
            s.access_run(addr, words);
        }
    }
}

/// One interned evaluation trace: the key identity, the union of
/// requested cache configurations, attached sinks, and (after execution)
/// the per-config statistics.
struct KeyEntry {
    program: Program,
    placement: Placement,
    seed: u64,
    limits: ExecLimits,
    /// The key's identity: [`persist::trace_key`] of the four fields
    /// above, in memory and on disk alike.
    cid: Cid,
    /// Union of requested configurations, deduplicated, request order.
    configs: Vec<CacheConfig>,
    /// Statistics for `configs[..simulated]`.
    stats: Vec<CacheStats>,
    /// Number of leading configs already simulated.
    simulated: usize,
    /// Attached sinks (`None` once taken back by the requester).
    sinks: Vec<Option<Box<dyn SessionSink>>>,
    /// Number of leading sinks already streamed.
    streamed_sinks: usize,
    /// Trace length, once streamed at least once.
    instructions: Option<u64>,
    /// Captured run-buffer artifact of this key's trace: recorded on
    /// the first (interpreter) execution, replayed for every later
    /// demand. `None` before the first execution, or when storing it
    /// would exceed the session artifact budget.
    artifact: Option<RunBuffer>,
}

impl KeyEntry {
    fn pending(&self) -> bool {
        self.simulated < self.configs.len()
            || self.streamed_sinks < self.sinks.len()
            || self.instructions.is_none()
    }
}

/// How one [`SimRecord`]'s instructions were delivered to the sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// First execution of the key: the CFG interpreter walked the
    /// program (capturing the run-buffer artifact along the way).
    Interpreted,
    /// Later execution of the key: its stored [`RunBuffer`] artifact
    /// was replayed, no interpreter involved.
    Replayed,
    /// Every pending config result was loaded from the attached on-disk
    /// store: no interpreter, no replay, no trace stream at all.
    DiskServed,
}

impl SimMode {
    /// Stable label used in metrics documents.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SimMode::Interpreted => "interpreted",
            SimMode::Replayed => "replayed",
            SimMode::DiskServed => "disk_served",
        }
    }
}

/// One trace delivery performed by [`SimSession::execute`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimRecord {
    /// The streamed trace's key ([`persist::trace_key`]), stable across
    /// processes.
    pub trace: Cid,
    /// Evaluation input seed of the streamed trace.
    pub seed: u64,
    /// Cache configurations simulated during this stream.
    pub configs: u64,
    /// Extra sinks driven during this stream.
    pub sinks: u64,
    /// Instructions streamed.
    pub instructions: u64,
    /// Wall-clock nanoseconds spent streaming.
    pub nanos: u64,
    /// Interpreter walk or artifact replay.
    pub mode: SimMode,
}

impl SimRecord {
    /// Simulated instructions per second of this stream.
    #[must_use]
    pub fn instrs_per_sec(&self) -> f64 {
        per_sec(self.instructions, self.nanos)
    }
}

/// Per-table plan/render timing recorded by the table driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRecord {
    /// Table label (`table1` ... `minprob`).
    pub label: String,
    /// Nanoseconds spent planning (includes per-table pipeline re-runs).
    pub plan_nanos: u64,
    /// Nanoseconds spent assembling rows and rendering text/JSON.
    pub render_nanos: u64,
}

/// Observability snapshot of a [`SimSession`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimMetrics {
    /// Worker-thread cap the session executes with.
    pub jobs: u64,
    /// `request`/`request_sink` calls served.
    pub requests: u64,
    /// Distinct `(program, placement, seed, limits)` keys interned.
    pub unique_traces: u64,
    /// Interpreter trace walks actually performed.
    pub traces_streamed: u64,
    /// Interpreter re-walks of a key that had already been streamed —
    /// the artifact-budget fallback path (0 whenever artifacts are on
    /// and within budget).
    pub restreams: u64,
    /// Artifact replays: late demands served by replaying the key's
    /// stored run buffer instead of re-walking the interpreter.
    pub replays: u64,
    /// Key deliveries answered entirely from the on-disk store: every
    /// pending config result was loaded and verified, no trace stream.
    pub disk_served: u64,
    /// Run-buffer artifacts reloaded from the on-disk store (the key
    /// then replays instead of re-interpreting, even in a new process).
    pub artifacts_loaded: u64,
    /// Requests that hit an already-interned key.
    pub memo_key_hits: u64,
    /// Config results requested across all `request` calls.
    pub configs_requested: u64,
    /// Distinct configs actually simulated (union sizes summed).
    pub configs_simulated: u64,
    /// Config results served from the memo instead of a new simulation.
    pub memo_served: u64,
    /// Total instructions of unique traces (each counted once).
    pub instructions: u64,
    /// Instructions delivered by interpreter walks (first streams and
    /// budget-fallback re-streams).
    pub instructions_interpreted: u64,
    /// Instructions delivered by artifact replays.
    pub instructions_replayed: u64,
    /// Instructions whose re-simulation was avoided entirely because an
    /// already-executed config result was memo-served (trace length ×
    /// memo-served results of executed keys).
    pub instructions_memo_served: u64,
    /// Instructions whose simulation was avoided because the key was
    /// disk-served (trace length recorded with the stored results).
    pub instructions_disk_served: u64,
    /// Nanoseconds spent in interpreter walks (summed over threads).
    pub interp_nanos: u64,
    /// Nanoseconds spent in artifact replays (summed over threads).
    pub replay_nanos: u64,
    /// Nanoseconds spent loading and verifying disk-served results.
    pub disk_nanos: u64,
    /// Run-buffer artifacts currently stored.
    pub artifacts_stored: u64,
    /// Bytes held by stored artifacts (counted against the budget).
    pub artifact_bytes: u64,
    /// Total nanoseconds across streams (summed over threads).
    pub sim_nanos: u64,
    /// Wall-clock nanoseconds inside `execute`.
    pub wall_nanos: u64,
    /// One record per trace stream.
    pub simulations: Vec<SimRecord>,
    /// One record per table run through the session (filled by the
    /// `runner` driver).
    pub tables: Vec<TableRecord>,
    /// Counters of the attached on-disk store (`None` without one).
    pub store: Option<StoreCounters>,
}

impl SimMetrics {
    /// Aggregate delivered instructions per second (interpreted plus
    /// replayed, over total sim time summed across threads).
    #[must_use]
    pub fn instrs_per_sec(&self) -> f64 {
        per_sec(
            self.instructions_interpreted + self.instructions_replayed,
            self.sim_nanos,
        )
    }

    /// Interpreter-walk instructions per second (0.0 when nothing was
    /// interpreted — the division is guarded, never `NaN`/`inf`).
    #[must_use]
    pub fn interpreted_instrs_per_sec(&self) -> f64 {
        per_sec(self.instructions_interpreted, self.interp_nanos)
    }

    /// Artifact-replay instructions per second (0.0 when nothing was
    /// replayed — the division is guarded, never `NaN`/`inf`).
    #[must_use]
    pub fn replayed_instrs_per_sec(&self) -> f64 {
        per_sec(self.instructions_replayed, self.replay_nanos)
    }

    /// Share of requested config results served from the memo (0.0
    /// before any request).
    #[must_use]
    pub fn memo_hit_rate(&self) -> f64 {
        if self.configs_requested == 0 {
            0.0
        } else {
            self.memo_served as f64 / self.configs_requested as f64
        }
    }

    /// Every counter and rate as JSON fields, with the attached store's
    /// counters spliced flat (`store_*`) so dashboards can grep them. The
    /// one rendering of the session counters: the `repro --metrics`
    /// document appends the per-delivery and per-table lists to it, and
    /// `impact serve` renders its `/metrics` `sim` object from it as is.
    #[must_use]
    pub fn counter_fields(&self) -> Vec<(String, Json)> {
        let fields = [
            ("jobs", self.jobs.to_json()),
            ("requests", self.requests.to_json()),
            ("unique_traces", self.unique_traces.to_json()),
            ("traces_streamed", self.traces_streamed.to_json()),
            ("restreams", self.restreams.to_json()),
            ("replays", self.replays.to_json()),
            ("disk_served", self.disk_served.to_json()),
            ("artifacts_loaded", self.artifacts_loaded.to_json()),
            ("memo_key_hits", self.memo_key_hits.to_json()),
            ("configs_requested", self.configs_requested.to_json()),
            ("configs_simulated", self.configs_simulated.to_json()),
            ("memo_served", self.memo_served.to_json()),
            ("memo_hit_rate", self.memo_hit_rate().to_json()),
            ("instructions", self.instructions.to_json()),
            (
                "instructions_interpreted",
                self.instructions_interpreted.to_json(),
            ),
            (
                "instructions_replayed",
                self.instructions_replayed.to_json(),
            ),
            (
                "instructions_memo_served",
                self.instructions_memo_served.to_json(),
            ),
            (
                "instructions_disk_served",
                self.instructions_disk_served.to_json(),
            ),
            ("interp_nanos", self.interp_nanos.to_json()),
            ("replay_nanos", self.replay_nanos.to_json()),
            ("disk_nanos", self.disk_nanos.to_json()),
            (
                "interpreted_instrs_per_sec",
                self.interpreted_instrs_per_sec().to_json(),
            ),
            (
                "replayed_instrs_per_sec",
                self.replayed_instrs_per_sec().to_json(),
            ),
            ("artifacts_stored", self.artifacts_stored.to_json()),
            ("artifact_bytes", self.artifact_bytes.to_json()),
            ("sim_nanos", self.sim_nanos.to_json()),
            ("wall_nanos", self.wall_nanos.to_json()),
            ("instrs_per_sec", self.instrs_per_sec().to_json()),
        ];
        let mut fields: Vec<(String, Json)> = fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        if let Some(Json::Obj(store)) = self.store.as_ref().map(StoreCounters::to_json) {
            fields.extend(store);
        }
        fields
    }

    /// Multi-line human summary (the `repro` stderr report).
    #[must_use]
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sim: {} unique traces, {} streamed ({} re-streams), {} replays, {} disk-served, {} memo key hits",
            self.unique_traces,
            self.traces_streamed,
            self.restreams,
            self.replays,
            self.disk_served,
            self.memo_key_hits
        );
        let _ = writeln!(
            out,
            "sim: {} config results requested, {} simulated, {} memo-served",
            self.configs_requested, self.configs_simulated, self.memo_served
        );
        // Per-mode accounting with guarded rates: a session where
        // everything replays (or is memo-served) must report honest
        // numbers, not a division by a near-zero interpreter time.
        let _ = writeln!(
            out,
            "sim: interpreted {} instrs ({}), replayed {} ({}), memo-served {} (no sim time)",
            self.instructions_interpreted,
            rate_label(self.interpreted_instrs_per_sec()),
            self.instructions_replayed,
            rate_label(self.replayed_instrs_per_sec()),
            self.instructions_memo_served,
        );
        if let Some(store) = &self.store {
            let _ = writeln!(
                out,
                "sim: disk-served {} keys / {} instrs; store {} hits, {} misses, {} puts, {} corrupt, {} KiB read, {} KiB written",
                self.disk_served,
                self.instructions_disk_served,
                store.hits,
                store.misses,
                store.puts,
                store.corrupt,
                store.bytes_read >> 10,
                store.bytes_written >> 10,
            );
        }
        let _ = write!(
            out,
            "sim: {} instructions delivered in {:.2?} sim time ({:.2}M instr/s, {} jobs, {:.2?} wall, {} artifacts / {} KiB)",
            self.instructions_interpreted + self.instructions_replayed,
            std::time::Duration::from_nanos(self.sim_nanos),
            self.instrs_per_sec() / 1e6,
            self.jobs,
            std::time::Duration::from_nanos(self.wall_nanos),
            self.artifacts_stored,
            self.artifact_bytes >> 10,
        );
        out
    }
}

/// `"230.36M instr/s"` — or `"-"` when nothing ran in that mode, so a
/// zero-work mode never renders as a bogus rate.
fn rate_label(rate: f64) -> String {
    if rate == 0.0 {
        "-".to_string()
    } else {
        format!("{:.2}M instr/s", rate / 1e6)
    }
}

fn per_sec(count: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        count as f64 * 1e9 / nanos as f64
    }
}

impl ToJson for SimRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("trace".into(), self.trace.to_hex().to_json()),
            ("seed".into(), self.seed.to_json()),
            ("configs".into(), self.configs.to_json()),
            ("sinks".into(), self.sinks.to_json()),
            ("instructions".into(), self.instructions.to_json()),
            ("nanos".into(), self.nanos.to_json()),
            ("instrs_per_sec".into(), self.instrs_per_sec().to_json()),
            ("mode".into(), self.mode.label().to_json()),
        ])
    }
}

impl ToJson for TableRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".into(), self.label.to_json()),
            ("plan_nanos".into(), self.plan_nanos.to_json()),
            ("render_nanos".into(), self.render_nanos.to_json()),
        ])
    }
}

impl ToJson for SimMetrics {
    fn to_json(&self) -> Json {
        let mut fields = self.counter_fields();
        fields.push(("simulations".into(), self.simulations.to_json()));
        fields.push(("tables".into(), self.tables.to_json()));
        Json::Obj(fields)
    }
}

/// The shared, parallel, memoizing evaluation engine. See the module
/// docs for the plan / execute / serve lifecycle.
pub struct SimSession {
    jobs: usize,
    keys: Vec<KeyEntry>,
    /// Trace key → index into `keys`.
    by_cid: HashMap<Cid, usize>,
    /// Bytes currently held by stored artifacts.
    artifact_bytes: usize,
    /// Cap on artifact memory; 0 disables capture.
    artifact_budget: usize,
    /// Attached persistent store: finished results and captured
    /// artifacts are written through, pending demands are answered from
    /// it before any trace streams.
    store: Option<Arc<Store>>,
    /// The counters and records, updated in place. Fields that follow
    /// from the session's state (`jobs`, `unique_traces`,
    /// `memo_key_hits`, `configs_simulated`, `sim_nanos`, the artifact
    /// gauges and `store`) stay zero here; [`SimSession::counters`] fills
    /// them.
    metrics: SimMetrics,
}

impl std::fmt::Debug for SimSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("jobs", &self.jobs)
            .field("keys", &self.keys.len())
            .field("requests", &self.metrics.requests)
            .field("traces_streamed", &self.metrics.traces_streamed)
            .finish_non_exhaustive()
    }
}

impl Default for SimSession {
    fn default() -> Self {
        Self::new()
    }
}

impl SimSession {
    /// A serial session (one worker thread).
    #[must_use]
    pub fn new() -> Self {
        Self::with_jobs(1)
    }

    /// A session that executes with up to `jobs` worker threads
    /// (clamped to at least 1).
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            keys: Vec::new(),
            by_cid: HashMap::new(),
            artifact_bytes: 0,
            artifact_budget: DEFAULT_ARTIFACT_BUDGET,
            store: None,
            metrics: SimMetrics::default(),
        }
    }

    /// Replaces the run-buffer artifact budget (bytes). `0` disables
    /// artifact capture: every late demand re-streams the interpreter,
    /// which is the pre-artifact behavior (and the baseline arm of the
    /// replay benchmarks).
    #[must_use]
    pub fn with_artifact_budget(mut self, bytes: usize) -> Self {
        self.artifact_budget = bytes;
        self
    }

    /// Attaches a persistent content-addressed store. Pending demands
    /// are answered from it before any trace streams (counted as
    /// [`SimMetrics::disk_served`]), stored artifacts replay in place of
    /// re-interpretation even in a fresh process, and every finished
    /// result and captured artifact is written through — so a session in
    /// a new process starts warm wherever this one (or any other sharing
    /// the directory) left off.
    #[must_use]
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// The worker-thread cap used by [`SimSession::execute`] (and
    /// available to plan phases that parallelize their own preparation).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Registers a demand for the statistics of `configs` over the
    /// evaluation trace of `(program, placement)` under `seed` and
    /// `limits`.
    ///
    /// Identical keys share one trace stream; identical configs within a
    /// key share one simulated cache. The returned handle redeems the
    /// statistics in the requested config order after
    /// [`SimSession::execute`].
    pub fn request(
        &mut self,
        program: &Program,
        placement: &Placement,
        seed: u64,
        limits: ExecLimits,
        configs: &[CacheConfig],
    ) -> SimHandle {
        let key = self.intern(program, placement, seed, limits);
        self.metrics.requests += 1;
        self.metrics.configs_requested += configs.len() as u64;
        let entry = &mut self.keys[key];
        let mut memo = 0u64;
        let mut memo_instrs = 0u64;
        let slots = configs
            .iter()
            .map(|c| {
                if let Some(i) = entry.configs.iter().position(|e| e == c) {
                    memo += 1;
                    if i < entry.simulated {
                        // The result already exists: an entire
                        // simulation pass over the trace was avoided.
                        // (Duplicates that are merely *planned* dedups —
                        // the key not yet executed — have no known trace
                        // length yet and count only in `memo_served`.)
                        memo_instrs += entry.instructions.unwrap_or(0);
                    }
                    i
                } else {
                    entry.configs.push(*c);
                    entry.configs.len() - 1
                }
            })
            .collect();
        self.metrics.memo_served += memo;
        self.metrics.instructions_memo_served += memo_instrs;
        SimHandle { key, slots }
    }

    /// Attaches a custom [`AccessSink`] to the key's trace stream; the
    /// sink observes every fetch address exactly once and is recovered
    /// with [`SimSession::take_sink`] after execution.
    pub fn request_sink<S: AccessSink + Send + 'static>(
        &mut self,
        program: &Program,
        placement: &Placement,
        seed: u64,
        limits: ExecLimits,
        sink: S,
    ) -> SinkHandle {
        let key = self.intern(program, placement, seed, limits);
        self.metrics.requests += 1;
        let entry = &mut self.keys[key];
        entry.sinks.push(Some(Box::new(sink)));
        SinkHandle {
            key,
            slot: entry.sinks.len() - 1,
        }
    }

    /// Interns the key, returning its index.
    fn intern(
        &mut self,
        program: &Program,
        placement: &Placement,
        seed: u64,
        limits: ExecLimits,
    ) -> usize {
        let cid = persist::trace_key(program, placement, seed, limits);
        if let Some(&i) = self.by_cid.get(&cid) {
            return i;
        }
        let i = self.keys.len();
        self.keys.push(KeyEntry {
            program: program.clone(),
            placement: placement.clone(),
            seed,
            limits,
            cid,
            configs: Vec::new(),
            stats: Vec::new(),
            simulated: 0,
            sinks: Vec::new(),
            streamed_sinks: 0,
            instructions: None,
            artifact: None,
        });
        self.by_cid.insert(cid, i);
        i
    }

    /// Delivers every pending trace exactly once, fanning keys across
    /// up to [`SimSession::jobs`] scoped threads. Results land in
    /// deterministic (insertion) order regardless of thread scheduling;
    /// with one job this is a plain serial loop.
    ///
    /// A key's **first** execution walks the CFG interpreter, capturing
    /// the run stream into a [`RunBuffer`] artifact while it drives the
    /// lane bank. Keys that gained configs or sinks *after* already
    /// being executed **replay** their artifact (counted as
    /// [`SimMetrics::replays`]) — bit-identical to a re-walk, at memcpy
    /// speed. Only when the artifact budget kept a buffer from being
    /// stored does a late demand re-walk the interpreter (counted as
    /// [`SimMetrics::restreams`]).
    pub fn execute(&mut self) {
        // One pending key's mutable pieces: index, a fresh lane bank
        // over its not-yet-simulated configs, its not-yet-streamed
        // sinks, and whether a capture should be recorded.
        type PendingWork = (usize, MultiLane, Vec<Box<dyn SessionSink>>, bool);

        let wall = Instant::now();
        // Phase 1: pull the mutable pieces (fresh banks, pending sinks)
        // out of each pending key. With a store attached, each pending
        // key first tries the disk: a key whose every pending config
        // result is already stored is answered without any trace stream,
        // and a key that must stream anyway reloads its persisted
        // artifact so the stream is a replay instead of an interpreter
        // walk — even in a process that never executed the key.
        let mut taken: Vec<PendingWork> = Vec::new();
        for (i, k) in self.keys.iter_mut().enumerate() {
            if !k.pending() {
                continue;
            }
            if let Some(store) = &self.store {
                let t0 = Instant::now();
                if let Some(served) = disk_serve(store, k) {
                    let nanos = t0.elapsed().as_nanos() as u64;
                    self.metrics.disk_served += 1;
                    self.metrics.instructions_disk_served += served.instructions;
                    self.metrics.disk_nanos += nanos;
                    if served.first_delivery {
                        self.metrics.instructions += served.instructions;
                    }
                    self.metrics.simulations.push(SimRecord {
                        trace: k.cid,
                        seed: k.seed,
                        configs: served.configs,
                        sinks: 0,
                        instructions: served.instructions,
                        nanos,
                        mode: SimMode::DiskServed,
                    });
                    continue;
                }
                if k.artifact.is_none() && self.artifact_bytes < self.artifact_budget {
                    let loaded = store
                        .get(&persist::artifact_cid(&k.cid))
                        .and_then(|payload| persist::decode_artifact(&payload));
                    if let Some(buf) = loaded {
                        let bytes = buf.bytes();
                        if self.artifact_bytes + bytes <= self.artifact_budget {
                            self.artifact_bytes += bytes;
                            self.metrics.artifacts_loaded += 1;
                            k.artifact = Some(buf);
                        }
                    }
                }
            }
            let bank = MultiLane::new(k.configs[k.simulated..].iter().copied());
            let sinks: Vec<Box<dyn SessionSink>> = k.sinks[k.streamed_sinks..]
                .iter_mut()
                .map(|s| s.take().expect("pending sinks cannot have been taken"))
                .collect();
            // Capture unless this key already holds an artifact or the
            // budget is exhausted (the precise size check happens at
            // filing time; this avoids recording buffers that could
            // never be stored).
            let capture = k.artifact.is_none() && self.artifact_bytes < self.artifact_budget;
            taken.push((i, bank, sinks, capture));
        }
        if taken.is_empty() {
            return;
        }

        // Phase 2: deliver each pending key's trace once, in parallel —
        // replaying its stored artifact when one exists, walking the
        // interpreter (under a capture tee) otherwise. Work items carry
        // shared references to their key's program/placement/artifact so
        // the closure never touches the (non-`Sync`) sink storage.
        let work: Vec<_> = taken
            .into_iter()
            .map(|(i, bank, sinks, capture)| {
                let k = &self.keys[i];
                let gen_inputs = (&k.program, &k.placement, k.seed, k.limits);
                (i, gen_inputs, k.artifact.as_ref(), bank, sinks, capture)
            })
            .collect();
        let results = impact_support::parallel_map(
            self.jobs,
            work,
            |(i, (program, placement, seed, limits), artifact, mut bank, mut sinks, capture)| {
                let t0 = Instant::now();
                let mut fan = Fanout {
                    bank: &mut bank,
                    sinks: &mut sinks,
                };
                let (instructions, captured, mode) = match artifact {
                    Some(buf) => {
                        buf.replay(&mut fan);
                        (buf.instructions(), None, SimMode::Replayed)
                    }
                    None if capture => {
                        let gen = TraceGenerator::new(program, placement).with_limits(limits);
                        let mut buf = RunBuffer::new();
                        let summary = gen.stream(seed, &mut CaptureSink::new(&mut buf, &mut fan));
                        buf.shrink_to_fit();
                        (summary.instructions, Some(buf), SimMode::Interpreted)
                    }
                    None => {
                        let gen = TraceGenerator::new(program, placement).with_limits(limits);
                        let summary = gen.stream(seed, &mut fan);
                        (summary.instructions, None, SimMode::Interpreted)
                    }
                };
                let nanos = t0.elapsed().as_nanos() as u64;
                (i, bank, sinks, instructions, nanos, captured, mode)
            },
        );

        // Phase 3: file results back, serially, in key order.
        let store = self.store.clone();
        for (i, mut bank, sinks, instructions, nanos, captured, mode) in results {
            let k = &mut self.keys[i];
            match mode {
                SimMode::Interpreted => {
                    self.metrics.traces_streamed += 1;
                    self.metrics.instructions_interpreted += instructions;
                    self.metrics.interp_nanos += nanos;
                    if k.instructions.is_some() {
                        self.metrics.restreams += 1;
                    } else {
                        self.metrics.instructions += instructions;
                    }
                }
                SimMode::Replayed => {
                    self.metrics.replays += 1;
                    self.metrics.instructions_replayed += instructions;
                    self.metrics.replay_nanos += nanos;
                    // With a persistent store, a key's *first* delivery
                    // can be a replay (artifact reloaded from disk).
                    if k.instructions.is_none() {
                        self.metrics.instructions += instructions;
                    }
                }
                SimMode::DiskServed => unreachable!("disk-served keys never stream"),
            }
            self.metrics.simulations.push(SimRecord {
                trace: k.cid,
                seed: k.seed,
                configs: (k.configs.len() - k.simulated) as u64,
                sinks: sinks.len() as u64,
                instructions,
                nanos,
                mode,
            });
            if let Some(buf) = captured {
                let bytes = buf.bytes();
                if self.artifact_bytes + bytes <= self.artifact_budget {
                    self.artifact_bytes += bytes;
                    k.artifact = Some(buf);
                }
            }
            let first_new = k.simulated;
            k.stats.extend(bank.take_stats());
            k.simulated = k.configs.len();
            for (slot, sink) in k.sinks[k.streamed_sinks..].iter_mut().zip(sinks) {
                *slot = Some(sink);
            }
            k.streamed_sinks = k.sinks.len();
            k.instructions = Some(instructions);
            // Write-through: persist this round's finished results and
            // the key's artifact. Best-effort — a full or read-only
            // store disk degrades to cold behavior, never to an error.
            if let Some(store) = &store {
                for (config, stats) in k.configs[first_new..].iter().zip(&k.stats[first_new..]) {
                    let _ = store.put(
                        &persist::result_cid(&k.cid, config),
                        &persist::encode_result(stats, instructions),
                    );
                }
                if let Some(buf) = &k.artifact {
                    let acid = persist::artifact_cid(&k.cid);
                    if !store.contains(&acid) {
                        let _ = store.put(&acid, &persist::encode_artifact(buf));
                    }
                }
            }
        }
        self.metrics.wall_nanos += wall.elapsed().as_nanos() as u64;
    }

    /// Statistics for a request, in its requested config order.
    ///
    /// # Panics
    ///
    /// Panics if the handle's key has not been executed yet.
    #[must_use]
    pub fn stats(&self, handle: &SimHandle) -> Vec<CacheStats> {
        let k = &self.keys[handle.key];
        handle
            .slots
            .iter()
            .map(|&s| {
                assert!(s < k.simulated, "call execute() before reading stats");
                k.stats[s]
            })
            .collect()
    }

    /// Trace length (instructions streamed) of a request's key.
    ///
    /// # Panics
    ///
    /// Panics if the handle's key has not been executed yet.
    #[must_use]
    pub fn instructions(&self, handle: &SimHandle) -> u64 {
        self.keys[handle.key]
            .instructions
            .expect("call execute() before reading the trace length")
    }

    /// [`SimSession::stats`] and [`SimSession::instructions`] in one
    /// call — the session counterpart of `sim::simulate_counted`.
    #[must_use]
    pub fn counted(&self, handle: &SimHandle) -> (Vec<CacheStats>, u64) {
        (self.stats(handle), self.instructions(handle))
    }

    /// Recovers a sink attached with [`SimSession::request_sink`], after
    /// its trace has been streamed.
    ///
    /// # Panics
    ///
    /// Panics if the sink has not been streamed yet, was already taken,
    /// or `S` is not its concrete type.
    #[must_use]
    pub fn take_sink<S: AccessSink + Send + 'static>(&mut self, handle: &SinkHandle) -> S {
        let k = &mut self.keys[handle.key];
        assert!(
            handle.slot < k.streamed_sinks,
            "call execute() before taking a sink"
        );
        let sink = k.sinks[handle.slot].take().expect("sink was already taken");
        *sink
            .into_any()
            .downcast::<S>()
            .expect("take_sink called with the wrong concrete type")
    }

    /// Records one table's plan/render timing (the `runner` driver calls
    /// this; it feeds the per-table metrics).
    pub fn record_table(&mut self, label: &str, plan_nanos: u64, render_nanos: u64) {
        self.metrics.tables.push(TableRecord {
            label: label.to_owned(),
            plan_nanos,
            render_nanos,
        });
    }

    /// Snapshot of the session's observability counters and records.
    #[must_use]
    pub fn metrics(&self) -> SimMetrics {
        SimMetrics {
            simulations: self.metrics.simulations.clone(),
            tables: self.metrics.tables.clone(),
            ..self.counters()
        }
    }

    /// [`SimSession::metrics`] without the per-delivery and per-table
    /// records, which grow without bound in a long-lived service.
    #[must_use]
    pub fn counters(&self) -> SimMetrics {
        SimMetrics {
            jobs: self.jobs as u64,
            unique_traces: self.keys.len() as u64,
            // Every request interns exactly once, and each intern either
            // adds a key or hits one.
            memo_key_hits: self.metrics.requests - self.keys.len() as u64,
            configs_simulated: self.keys.iter().map(|k| k.simulated as u64).sum(),
            sim_nanos: self.metrics.interp_nanos + self.metrics.replay_nanos,
            artifacts_stored: self.keys.iter().filter(|k| k.artifact.is_some()).count() as u64,
            artifact_bytes: self.artifact_bytes as u64,
            store: self.store.as_ref().map(|s| s.counters()),
            simulations: Vec::new(),
            tables: Vec::new(),
            ..self.metrics
        }
    }
}

/// What a successful disk serve delivered.
struct DiskServe {
    /// Config results filled from the store this round.
    configs: u64,
    /// The key's trace length, as recorded with the stored results.
    instructions: u64,
    /// Whether this was the key's first delivery (its trace length was
    /// unknown before — the "unique instructions" accounting trigger).
    first_delivery: bool,
}

/// Attempts to answer every pending demand of `k` from the store,
/// filling its stats in place. Succeeds only when *all* pending configs
/// decode from verified entries and no sink is pending (sinks observe
/// the raw stream, which the result entries do not carry). On any miss
/// the key is left untouched and streams normally.
fn disk_serve(store: &Store, k: &mut KeyEntry) -> Option<DiskServe> {
    if k.streamed_sinks < k.sinks.len() {
        return None;
    }
    let cid = &k.cid;
    let pending = &k.configs[k.simulated..];
    if pending.is_empty() {
        // Pending only for its trace length (an empty-config request in
        // a fresh process): the artifact-reload path handles it.
        return None;
    }
    let first_delivery = k.instructions.is_none();
    let mut instructions = k.instructions;
    let mut loaded = Vec::with_capacity(pending.len());
    for config in pending {
        let payload = store.get(&persist::result_cid(cid, config))?;
        let (stats, instrs) = persist::decode_result(&payload)?;
        // Every result of one trace must agree on the trace length; a
        // disagreement means a foreign or stale entry — don't serve it.
        if *instructions.get_or_insert(instrs) != instrs {
            return None;
        }
        loaded.push(stats);
    }
    let configs = loaded.len() as u64;
    k.stats.extend(loaded);
    k.simulated = k.configs.len();
    k.instructions = instructions;
    Some(DiskServe {
        configs,
        instructions: instructions.expect("at least one result decoded"),
        first_delivery,
    })
}

/// A [`SimSession`] behind interior locking, shareable across threads.
///
/// The table runners own their session and drive the plan / execute /
/// serve phases explicitly; a long-lived service (`impact serve`) instead
/// wants one engine that many request-handler threads hit concurrently.
/// `SharedSimSession` wraps the session in a [`Mutex`](std::sync::Mutex)
/// and exposes the one-shot [`evaluate`](SharedSimSession::evaluate)
/// cycle: request → execute → serve under a single lock hold.
///
/// Memoization carries across calls — and across threads — because every
/// evaluation is interned in the same underlying session: a repeated
/// `(program, placement, seed, limits, config)` demand is served from the
/// memo without re-streaming its trace ([`SimSession::execute`] returns
/// immediately when nothing is pending). Holding the lock for the whole
/// cycle serializes trace streaming, which is deliberate: the engine's
/// own worker fan-out ([`SimSession::with_jobs`]) parallelizes *inside*
/// an evaluation, and callers above it (HTTP workers) parallelize
/// parsing, placement, and rendering outside the lock.
pub struct SharedSimSession {
    inner: std::sync::Mutex<SimSession>,
}

impl std::fmt::Debug for SharedSimSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSimSession").finish_non_exhaustive()
    }
}

impl SharedSimSession {
    /// Wraps a fresh session that executes with up to `jobs` workers.
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        Self::from_session(SimSession::with_jobs(jobs))
    }

    /// Wraps an already-configured session (artifact budget, persistent
    /// store, ...) — the constructor `impact serve` uses.
    #[must_use]
    pub fn from_session(session: SimSession) -> Self {
        Self {
            inner: std::sync::Mutex::new(session),
        }
    }

    /// Statistics for `configs` over the evaluation trace of
    /// `(program, placement)` under `seed` and `limits`, plus the trace
    /// length — the locked counterpart of `sim::simulate_counted`,
    /// memo-served whenever this session has already streamed the key.
    #[must_use]
    pub fn evaluate(
        &self,
        program: &Program,
        placement: &Placement,
        seed: u64,
        limits: ExecLimits,
        configs: &[CacheConfig],
    ) -> (Vec<CacheStats>, u64) {
        let mut s = self.lock();
        let handle = s.request(program, placement, seed, limits, configs);
        s.execute();
        s.counted(&handle)
    }

    /// The underlying session's [`SimSession::counters`].
    #[must_use]
    pub fn counters(&self) -> SimMetrics {
        self.lock().counters()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SimSession> {
        // A panic while streaming poisons the lock; the session's own
        // state stays coherent (results are filed serially after the
        // parallel phase), so recover rather than wedging the service.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use impact_cache::Cache;
    use impact_layout::baseline;

    use crate::sim;

    use super::*;

    const LIMITS: ExecLimits = ExecLimits {
        max_instructions: 40_000,
        max_call_depth: 512,
    };

    #[test]
    fn session_matches_direct_simulation() {
        let w = impact_workloads::by_name("wc").unwrap();
        let placement = baseline::natural(&w.program);
        let configs = [
            CacheConfig::direct_mapped(512, 64),
            CacheConfig::direct_mapped(2048, 64),
        ];
        let direct = sim::simulate(&w.program, &placement, 17, LIMITS, &configs);

        let mut s = SimSession::new();
        let h = s.request(&w.program, &placement, 17, LIMITS, &configs);
        s.execute();
        assert_eq!(s.stats(&h), direct);
    }

    #[test]
    fn identical_keys_stream_once_and_union_configs() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let a = [
            CacheConfig::direct_mapped(2048, 64),
            CacheConfig::direct_mapped(512, 64),
        ];
        let b = [
            CacheConfig::direct_mapped(512, 64), // shared with `a`
            CacheConfig::direct_mapped(1024, 64),
        ];
        let mut s = SimSession::new();
        let ha = s.request(&w.program, &placement, 3, LIMITS, &a);
        let hb = s.request(&w.program, &placement, 3, LIMITS, &b);
        s.execute();
        let m = s.metrics();
        assert_eq!(m.unique_traces, 1);
        assert_eq!(m.traces_streamed, 1);
        assert_eq!(m.restreams, 0);
        assert_eq!(m.memo_key_hits, 1);
        assert_eq!(m.configs_requested, 4);
        assert_eq!(m.configs_simulated, 3, "512B config is shared");
        assert_eq!(m.memo_served, 1);
        // Both handles see their own config order.
        assert_eq!(s.stats(&ha)[1], s.stats(&hb)[0]);
        assert_eq!(
            s.stats(&hb),
            sim::simulate(&w.program, &placement, 3, LIMITS, &b)
        );
    }

    #[test]
    fn distinct_placements_and_seeds_get_distinct_keys() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let natural = baseline::natural(&w.program);
        let shuffled = baseline::random(&w.program, 0xfeed);
        let cfg = [CacheConfig::direct_mapped(2048, 64)];
        let mut s = SimSession::new();
        let h1 = s.request(&w.program, &natural, 3, LIMITS, &cfg);
        let h2 = s.request(&w.program, &shuffled, 3, LIMITS, &cfg);
        let h3 = s.request(&w.program, &natural, 4, LIMITS, &cfg);
        s.execute();
        assert_eq!(s.metrics().unique_traces, 3);
        assert_eq!(s.metrics().traces_streamed, 3);
        // Same program + seed ⇒ same trace length even across layouts.
        assert_eq!(s.instructions(&h1), s.instructions(&h2));
        let _ = s.stats(&h3);
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let w = impact_workloads::by_name("wc").unwrap();
        let cfg = [CacheConfig::direct_mapped(1024, 64)];
        let run = |jobs: usize| {
            let mut s = SimSession::with_jobs(jobs);
            let handles: Vec<SimHandle> = (0..6)
                .map(|k| {
                    let placement = baseline::random(&w.program, k);
                    s.request(&w.program, &placement, 11, LIMITS, &cfg)
                })
                .collect();
            s.execute();
            handles.iter().map(|h| s.counted(h)).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn sinks_ride_the_same_stream_and_come_back() {
        let w = impact_workloads::by_name("wc").unwrap();
        let placement = baseline::natural(&w.program);
        let cfg = CacheConfig::direct_mapped(2048, 64);
        let mut s = SimSession::new();
        let h = s.request(&w.program, &placement, 5, LIMITS, &[cfg]);
        let sink = s.request_sink(&w.program, &placement, 5, LIMITS, Cache::new(cfg));
        s.execute();
        assert_eq!(s.metrics().traces_streamed, 1, "sink shares the stream");
        let cache: Cache = s.take_sink(&sink);
        assert_eq!(cache.stats(), s.stats(&h)[0]);
    }

    #[test]
    fn empty_config_request_still_counts_instructions() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let mut s = SimSession::new();
        let h = s.request(&w.program, &placement, 9, LIMITS, &[]);
        s.execute();
        let (_, direct_len) = sim::simulate_counted(&w.program, &placement, 9, LIMITS, &[]);
        assert_eq!(s.instructions(&h), direct_len);
        assert!(s.stats(&h).is_empty());
    }

    #[test]
    fn late_demands_replay_the_stored_artifact() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let c1 = [CacheConfig::direct_mapped(2048, 64)];
        let c2 = [CacheConfig::direct_mapped(512, 64)];
        let mut s = SimSession::new();
        let h1 = s.request(&w.program, &placement, 2, LIMITS, &c1);
        s.execute();
        let h2 = s.request(&w.program, &placement, 2, LIMITS, &c2);
        s.execute();
        let m = s.metrics();
        // The first execute interprets (and captures); the late demand
        // replays the artifact instead of re-walking the interpreter.
        assert_eq!(m.traces_streamed, 1);
        assert_eq!(m.replays, 1);
        assert_eq!(m.restreams, 0);
        assert_eq!(m.artifacts_stored, 1);
        assert!(m.artifact_bytes > 0);
        assert_eq!(m.instructions_interpreted, m.instructions);
        assert_eq!(m.instructions_replayed, m.instructions);
        // Replayed results are bit-identical to direct simulation.
        assert_eq!(
            s.stats(&h1),
            sim::simulate(&w.program, &placement, 2, LIMITS, &c1)
        );
        assert_eq!(
            s.stats(&h2),
            sim::simulate(&w.program, &placement, 2, LIMITS, &c2)
        );
    }

    #[test]
    fn zero_artifact_budget_falls_back_to_restreaming() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let c1 = [CacheConfig::direct_mapped(2048, 64)];
        let c2 = [CacheConfig::direct_mapped(512, 64)];
        let mut s = SimSession::new().with_artifact_budget(0);
        let h1 = s.request(&w.program, &placement, 2, LIMITS, &c1);
        s.execute();
        let h2 = s.request(&w.program, &placement, 2, LIMITS, &c2);
        s.execute();
        let m = s.metrics();
        // No capture possible, so the late demand re-walks: the pre-
        // artifact behavior, kept as the budget-exhausted fallback.
        assert_eq!(m.traces_streamed, 2);
        assert_eq!(m.restreams, 1);
        assert_eq!(m.replays, 0);
        assert_eq!(m.artifacts_stored, 0);
        assert_eq!(m.artifact_bytes, 0);
        assert_eq!(
            s.stats(&h1),
            sim::simulate(&w.program, &placement, 2, LIMITS, &c1)
        );
        assert_eq!(
            s.stats(&h2),
            sim::simulate(&w.program, &placement, 2, LIMITS, &c2)
        );
    }

    #[test]
    fn memo_served_instructions_are_accounted() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let cfg = [CacheConfig::direct_mapped(2048, 64)];
        let mut s = SimSession::new();
        let _ = s.request(&w.program, &placement, 2, LIMITS, &cfg);
        s.execute();
        // Same key, same config: served from the memo, no simulation.
        let _ = s.request(&w.program, &placement, 2, LIMITS, &cfg);
        s.execute();
        let m = s.metrics();
        assert_eq!(m.traces_streamed, 1);
        assert_eq!(m.replays, 0, "fully memo-served demands do not replay");
        assert_eq!(m.instructions_memo_served, m.instructions);
        assert_eq!(m.instructions_replayed, 0);
    }

    #[test]
    fn shared_session_memoizes_across_threads() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let cfg = [CacheConfig::direct_mapped(2048, 64)];
        let direct = sim::simulate_counted(&w.program, &placement, 7, LIMITS, &cfg);

        let shared = SharedSimSession::with_jobs(1);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..3 {
                        let got = shared.evaluate(&w.program, &placement, 7, LIMITS, &cfg);
                        assert_eq!(got, direct);
                    }
                });
            }
        });
        let m = shared.counters();
        assert_eq!(m.traces_streamed, 1, "11 of 12 evaluations memo-served");
        assert_eq!(m.unique_traces, 1);
        assert_eq!(m.requests, 12);
        assert_eq!(m.memo_served, 11);
    }

    /// A unique store directory removed on drop.
    struct TempStore(std::path::PathBuf);

    impl TempStore {
        fn new(tag: &str) -> TempStore {
            let dir =
                std::env::temp_dir().join(format!("impact-session-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempStore(dir)
        }

        fn open(&self) -> Arc<Store> {
            Arc::new(Store::open(&self.0).expect("open store"))
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A second session over the same store directory — a fresh process,
    /// as far as the session can tell — answers repeated demands from
    /// disk without streaming, bit-identically.
    #[test]
    fn second_session_is_disk_served() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let configs = [
            CacheConfig::direct_mapped(2048, 64),
            CacheConfig::direct_mapped(512, 64),
        ];
        let tmp = TempStore::new("warm");
        let (cold, cold_len) = {
            let mut s = SimSession::new().with_store(tmp.open());
            let h = s.request(&w.program, &placement, 21, LIMITS, &configs);
            s.execute();
            let m = s.metrics();
            assert_eq!(m.traces_streamed, 1, "cold run interprets");
            assert_eq!(m.disk_served, 0);
            let store = m.store.expect("store counters present");
            assert!(store.puts >= 3, "2 results + 1 artifact persisted");
            s.counted(&h)
        };
        let mut s = SimSession::new().with_store(tmp.open());
        let h = s.request(&w.program, &placement, 21, LIMITS, &configs);
        s.execute();
        assert_eq!(s.counted(&h), (cold.clone(), cold_len), "bit-identical");
        let m = s.metrics();
        assert_eq!(m.traces_streamed, 0, "warm run never streams");
        assert_eq!(m.disk_served, 1);
        assert_eq!(m.instructions_disk_served, cold_len);
        assert_eq!(m.instructions, cold_len, "unique instructions counted");
        assert_eq!(m.simulations[0].mode, SimMode::DiskServed);
        assert!(m.store.expect("counters").hits >= 2);
    }

    /// The in-memory memo and the disk tier name a trace by the same id.
    #[test]
    fn sessions_with_and_without_a_store_report_the_same_trace_key() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let cfg = [CacheConfig::direct_mapped(2048, 64)];
        let tmp = TempStore::new("key");
        let trace = |mut s: SimSession| {
            let _ = s.request(&w.program, &placement, 25, LIMITS, &cfg);
            s.execute();
            s.metrics().simulations[0].trace
        };
        let bare = trace(SimSession::new());
        assert_eq!(bare, trace(SimSession::new().with_store(tmp.open())));
        assert_eq!(bare, persist::trace_key(&w.program, &placement, 25, LIMITS));
    }

    /// A new config over a known trace in a fresh session replays the
    /// *persisted* artifact instead of re-interpreting.
    #[test]
    fn fresh_session_replays_persisted_artifact() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let tmp = TempStore::new("artifact");
        {
            let mut s = SimSession::new().with_store(tmp.open());
            let _ = s.request(
                &w.program,
                &placement,
                22,
                LIMITS,
                &[CacheConfig::direct_mapped(2048, 64)],
            );
            s.execute();
        }
        // Different config: its result is not on disk, but the trace
        // artifact is.
        let c2 = [CacheConfig::direct_mapped(1024, 64)];
        let mut s = SimSession::new().with_store(tmp.open());
        let h = s.request(&w.program, &placement, 22, LIMITS, &c2);
        s.execute();
        let m = s.metrics();
        assert_eq!(m.traces_streamed, 0, "no interpreter walk");
        assert_eq!(m.replays, 1);
        assert_eq!(m.artifacts_loaded, 1);
        assert_eq!(m.instructions, m.instructions_replayed);
        assert_eq!(
            s.stats(&h),
            sim::simulate(&w.program, &placement, 22, LIMITS, &c2)
        );
    }

    /// A corrupt stored entry is quarantined on read, the session falls
    /// back to simulation, and the next execute re-persists the entry.
    #[test]
    fn corrupt_store_entry_falls_back_and_heals() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let cfg = [CacheConfig::direct_mapped(2048, 64)];
        let tmp = TempStore::new("heal");
        {
            let mut s = SimSession::new().with_store(tmp.open());
            let _ = s.request(&w.program, &placement, 23, LIMITS, &cfg);
            s.execute();
        }
        // Bit-flip every committed entry.
        let store = tmp.open();
        for e in store.entries() {
            let hex = e.cid.to_hex();
            let path = tmp.0.join("objects").join(&hex[..2]).join(&hex);
            let mut raw = std::fs::read(&path).expect("read entry");
            let last = raw.len() - 1;
            raw[last] ^= 0x10;
            std::fs::write(&path, raw).expect("damage entry");
        }
        drop(store);

        let store = tmp.open();
        let mut s = SimSession::new().with_store(Arc::clone(&store));
        let h = s.request(&w.program, &placement, 23, LIMITS, &cfg);
        s.execute();
        let m = s.metrics();
        assert_eq!(m.disk_served, 0, "corrupt entries are never served");
        assert_eq!(m.traces_streamed, 1, "fell back to the interpreter");
        let c = m.store.expect("counters");
        assert!(c.corrupt >= 1, "corruption detected: {c:?}");
        assert_eq!(
            s.stats(&h),
            sim::simulate(&w.program, &placement, 23, LIMITS, &cfg)
        );
        // The fallback execution re-persisted the entries: a third
        // session is disk-served again.
        let mut s2 = SimSession::new().with_store(tmp.open());
        let h2 = s2.request(&w.program, &placement, 23, LIMITS, &cfg);
        s2.execute();
        assert_eq!(s2.metrics().disk_served, 1, "store healed");
        assert_eq!(s2.stats(&h2), s.stats(&h));
    }

    /// Sinks observe the raw stream, so a key with a pending sink is
    /// never disk-served — but its persisted artifact still replaces the
    /// interpreter walk.
    #[test]
    fn pending_sinks_disable_disk_serving() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let cfg = CacheConfig::direct_mapped(2048, 64);
        let tmp = TempStore::new("sinks");
        {
            let mut s = SimSession::new().with_store(tmp.open());
            let _ = s.request(&w.program, &placement, 24, LIMITS, &[cfg]);
            s.execute();
        }
        let mut s = SimSession::new().with_store(tmp.open());
        let h = s.request(&w.program, &placement, 24, LIMITS, &[cfg]);
        let sink = s.request_sink(&w.program, &placement, 24, LIMITS, Cache::new(cfg));
        s.execute();
        let m = s.metrics();
        assert_eq!(m.disk_served, 0, "sink demands need the stream");
        assert_eq!(m.replays, 1, "stream is the persisted artifact replay");
        assert_eq!(m.traces_streamed, 0);
        let cache: Cache = s.take_sink(&sink);
        assert_eq!(cache.stats(), s.stats(&h)[0]);
    }

    #[test]
    fn metrics_render_and_serialize() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let mut s = SimSession::with_jobs(2);
        let _ = s.request(
            &w.program,
            &placement,
            1,
            LIMITS,
            &[CacheConfig::direct_mapped(1024, 64)],
        );
        s.execute();
        s.record_table("table6", 10, 20);
        let m = s.metrics();
        let summary = m.render_summary();
        assert!(summary.contains("1 unique traces"), "{summary}");
        let json = m.to_json().to_string_pretty();
        assert!(json.contains("\"traces_streamed\": 1"), "{json}");
        assert!(json.contains("\"label\": \"table6\""), "{json}");
    }
}
