//! `SimSession` — the parallel, plan-time-deduplicating evaluation
//! engine behind every table runner and every `/v1/simulate`.
//!
//! The paper applies "the entire execution traces ... to the cache
//! simulator"; fifteen table runners each need cache statistics over the
//! *same* handful of evaluation traces, differing only in which
//! [`CacheConfig`]s they care about. Re-streaming a multi-million-access
//! trace per table is pure waste, so a session runs three phases, each
//! once:
//!
//! 1. **Plan** — table runners [`request`](SimSession::request) cache
//!    statistics (or [`request_sink`](SimSession::request_sink) a custom
//!    [`AccessSink`]) for a `(program, placement, seed, limits)` key and
//!    receive a handle. Identical keys are interned by their SHA-256
//!    trace key ([`persist::trace_key`], the same id the on-disk store
//!    uses) and the requested configurations accumulate into one
//!    deduplicated union per key.
//! 2. **Execute** — [`execute`](SimSession::execute), called once,
//!    delivers every key's trace **once**, fanning keys across up to
//!    [`jobs`](SimSession::jobs) scoped threads
//!    ([`impact_support::parallel_map`]); each stream drives a single
//!    [`MultiLane`] bank holding the key's config union plus any
//!    attached sinks. With an on-disk store attached, a key whose
//!    results are all stored is disk-served; every other key is walked
//!    and its results are written through. The store holds results only:
//!    replaying a stored [`RunBuffer`](impact_trace::RunBuffer) measured
//!    slower than the walk it replaced, so no trace is stored.
//!    Results are stored per key, in deterministic order — with one job
//!    the execution is a plain serial loop.
//! 3. **Read** — [`stats`](SimSession::stats),
//!    [`instructions`](SimSession::instructions) and
//!    [`take_sink`](SimSession::take_sink) hand results back through the
//!    handles. Nothing can be planned or executed after `execute`: a new
//!    demand needs a new session (with a store, it starts warm).
//!
//! [`SimMetrics`] exposes the observability layer: traces streamed vs.
//! memo- and disk-served, instructions simulated, and per-table /
//! per-simulation wall-clock with instructions-per-second rates.

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
use impact_trace::TraceGenerator;

use crate::persist;

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
    /// Statistics for `configs`, filled by execution.
    stats: Vec<CacheStats>,
    /// Attached sinks (`None` while streaming and once taken back by the
    /// requester).
    sinks: Vec<Option<Box<dyn SessionSink>>>,
    /// Trace length, filled by execution.
    instructions: u64,
    /// Whether the walk stopped at a limit, for keys this session
    /// walked; disk-served results do not record it.
    truncated: Option<bool>,
}

/// How one [`SimRecord`]'s instructions were delivered to the sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// The CFG interpreter walked the program.
    Interpreted,
    /// Every config result was loaded from the attached on-disk
    /// store: no interpreter, no trace stream at all.
    DiskServed,
}

impl SimMode {
    /// Stable label used in metrics documents.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SimMode::Interpreted => "interpreted",
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
    /// Interpreter walk or disk-served results.
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
    /// Nanoseconds spent planning (includes table 9's scaled pipelines).
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
    /// Key deliveries answered entirely from the on-disk store: every
    /// config result was loaded and verified, no trace stream.
    pub disk_served: u64,
    /// Requests that hit an already-interned key.
    pub memo_key_hits: u64,
    /// Config results requested across all `request` calls.
    pub configs_requested: u64,
    /// Distinct configs actually simulated (union sizes summed).
    pub configs_simulated: u64,
    /// Config results deduplicated at plan time: a requested config
    /// already in its key's union, so it rides an existing simulation.
    pub memo_served: u64,
    /// Total instructions of unique traces (each counted once).
    pub instructions: u64,
    /// Instructions delivered by interpreter walks.
    pub instructions_interpreted: u64,
    /// Instructions whose simulation was avoided because the key was
    /// disk-served (trace length recorded with the stored results).
    pub instructions_disk_served: u64,
    /// Nanoseconds spent in interpreter walks (summed over threads).
    pub interp_nanos: u64,
    /// Nanoseconds spent loading and verifying disk-served results.
    pub disk_nanos: u64,
    /// Wall-clock nanoseconds inside `execute`, disk-served rounds
    /// included.
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
    /// Adds another session's counters into this running total (the one
    /// `impact serve` keeps over its per-request sessions). Every counter
    /// is summed; `jobs`, a setting rather than a count, keeps the larger
    /// cap. The per-delivery and per-table records and the store
    /// counters are not aggregated: a long-lived total would grow without
    /// bound, and a store shared by every session reports its own totals.
    pub fn add(&mut self, other: &SimMetrics) {
        self.jobs = self.jobs.max(other.jobs);
        self.requests += other.requests;
        self.unique_traces += other.unique_traces;
        self.traces_streamed += other.traces_streamed;
        self.disk_served += other.disk_served;
        self.memo_key_hits += other.memo_key_hits;
        self.configs_requested += other.configs_requested;
        self.configs_simulated += other.configs_simulated;
        self.memo_served += other.memo_served;
        self.instructions += other.instructions;
        self.instructions_interpreted += other.instructions_interpreted;
        self.instructions_disk_served += other.instructions_disk_served;
        self.interp_nanos += other.interp_nanos;
        self.disk_nanos += other.disk_nanos;
        self.wall_nanos += other.wall_nanos;
    }

    /// Interpreter-walk instructions per second (0.0 when nothing was
    /// interpreted — the division is guarded, never `NaN`/`inf`).
    #[must_use]
    pub fn interpreted_instrs_per_sec(&self) -> f64 {
        per_sec(self.instructions_interpreted, self.interp_nanos)
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
            ("disk_served", self.disk_served.to_json()),
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
                "instructions_disk_served",
                self.instructions_disk_served.to_json(),
            ),
            ("interp_nanos", self.interp_nanos.to_json()),
            ("disk_nanos", self.disk_nanos.to_json()),
            (
                "interpreted_instrs_per_sec",
                self.interpreted_instrs_per_sec().to_json(),
            ),
            ("wall_nanos", self.wall_nanos.to_json()),
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
            "sim: {} unique traces, {} streamed, {} disk-served, {} memo key hits",
            self.unique_traces, self.traces_streamed, self.disk_served, self.memo_key_hits
        );
        let _ = writeln!(
            out,
            "sim: {} config results requested, {} simulated, {} memo-served",
            self.configs_requested, self.configs_simulated, self.memo_served
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
        // The rate is guarded: a fully disk-served session reports "-",
        // not a division by a zero walk time.
        let _ = write!(
            out,
            "sim: interpreted {} instrs in {:.2?} walk time ({}, {} jobs, {:.2?} wall)",
            self.instructions_interpreted,
            std::time::Duration::from_nanos(self.interp_nanos),
            rate_label(self.interpreted_instrs_per_sec()),
            self.jobs,
            std::time::Duration::from_nanos(self.wall_nanos),
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

/// The parallel, plan-time-deduplicating evaluation engine. See the
/// module docs for the plan / execute / read lifecycle.
pub struct SimSession {
    jobs: usize,
    keys: Vec<KeyEntry>,
    /// Trace key → index into `keys`.
    by_cid: HashMap<Cid, usize>,
    /// Attached persistent store: finished results are written through,
    /// and demands are answered from it before any trace streams.
    store: Option<Arc<Store>>,
    /// Whether [`SimSession::execute`] has run.
    executed: bool,
    /// The counters and records, updated in place. Fields that follow
    /// from the session's state (`jobs`, `unique_traces`,
    /// `memo_key_hits` and `store`) stay zero here;
    /// [`SimSession::counters`] fills them.
    metrics: SimMetrics,
}

/// The panic message for a demand or execution after `execute`.
const ONE_SHOT: &str = "a SimSession plans, executes once, then reads: \
                        start a new session for demands after execute()";

impl std::fmt::Debug for SimSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("jobs", &self.jobs)
            .field("keys", &self.keys.len())
            .field("executed", &self.executed)
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
            store: None,
            executed: false,
            metrics: SimMetrics::default(),
        }
    }

    /// Attaches a persistent content-addressed store. Demands are
    /// answered from it before any trace streams (counted as
    /// [`SimMetrics::disk_served`]), and every finished result is written
    /// through — so a later session, in this process or a new one, starts
    /// warm wherever this one (or any other sharing the directory) left
    /// off.
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
    ///
    /// # Panics
    ///
    /// Panics if the session has already executed.
    pub fn request(
        &mut self,
        program: &Program,
        placement: &Placement,
        seed: u64,
        limits: ExecLimits,
        configs: &[CacheConfig],
    ) -> SimHandle {
        let key = self.intern(program, placement, seed, limits);
        self.metrics.configs_requested += configs.len() as u64;
        let entry = &mut self.keys[key];
        let mut memo = 0u64;
        let slots = configs
            .iter()
            .map(|c| {
                if let Some(i) = entry.configs.iter().position(|e| e == c) {
                    memo += 1;
                    i
                } else {
                    entry.configs.push(*c);
                    entry.configs.len() - 1
                }
            })
            .collect();
        self.metrics.memo_served += memo;
        SimHandle { key, slots }
    }

    /// Attaches a custom [`AccessSink`] to the key's trace stream; the
    /// sink observes every fetch address exactly once and is recovered
    /// with [`SimSession::take_sink`] after execution.
    ///
    /// # Panics
    ///
    /// Panics if the session has already executed.
    pub fn request_sink<S: AccessSink + Send + 'static>(
        &mut self,
        program: &Program,
        placement: &Placement,
        seed: u64,
        limits: ExecLimits,
        sink: S,
    ) -> SinkHandle {
        let key = self.intern(program, placement, seed, limits);
        let entry = &mut self.keys[key];
        entry.sinks.push(Some(Box::new(sink)));
        SinkHandle {
            key,
            slot: entry.sinks.len() - 1,
        }
    }

    /// Counts one demand and interns its key, returning the key's index.
    fn intern(
        &mut self,
        program: &Program,
        placement: &Placement,
        seed: u64,
        limits: ExecLimits,
    ) -> usize {
        assert!(!self.executed, "{ONE_SHOT}");
        self.metrics.requests += 1;
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
            sinks: Vec::new(),
            instructions: 0,
            truncated: None,
        });
        self.by_cid.insert(cid, i);
        i
    }

    /// Delivers every key's trace exactly once, fanning keys across up
    /// to [`SimSession::jobs`] scoped threads. Results land in
    /// deterministic (insertion) order regardless of thread scheduling;
    /// with one job this is a plain serial loop.
    ///
    /// With a store attached, a key whose every config result is stored
    /// is disk-served without a stream; every other key walks the CFG
    /// interpreter and writes its results through.
    ///
    /// # Panics
    ///
    /// Panics if called a second time: a session executes once.
    pub fn execute(&mut self) {
        // One key's mutable pieces: index, a fresh lane bank over its
        // configs, and its sinks.
        type Work = (usize, MultiLane, Vec<Box<dyn SessionSink>>);

        assert!(!self.executed, "{ONE_SHOT}");
        self.executed = true;
        let wall = Instant::now();
        // Phase 1: pull the mutable pieces out of each key that the store
        // cannot answer outright.
        let mut taken: Vec<Work> = Vec::new();
        for (i, k) in self.keys.iter_mut().enumerate() {
            self.metrics.configs_simulated += k.configs.len() as u64;
            if let Some(store) = &self.store {
                let t0 = Instant::now();
                if disk_serve(store, k) {
                    let nanos = t0.elapsed().as_nanos() as u64;
                    self.metrics.disk_served += 1;
                    self.metrics.instructions += k.instructions;
                    self.metrics.instructions_disk_served += k.instructions;
                    self.metrics.disk_nanos += nanos;
                    self.metrics.simulations.push(SimRecord {
                        trace: k.cid,
                        seed: k.seed,
                        configs: k.configs.len() as u64,
                        sinks: 0,
                        instructions: k.instructions,
                        nanos,
                        mode: SimMode::DiskServed,
                    });
                    continue;
                }
            }
            let bank = MultiLane::new(k.configs.iter().copied());
            let sinks: Vec<Box<dyn SessionSink>> = k
                .sinks
                .iter_mut()
                .map(|s| s.take().expect("sinks are only taken after execute"))
                .collect();
            taken.push((i, bank, sinks));
        }

        // Phase 2: walk each key's trace once, in parallel. Work items
        // carry shared references to their key's inputs so the closure
        // never touches the (non-`Sync`) sink storage.
        let work: Vec<_> = taken
            .into_iter()
            .map(|(i, bank, sinks)| {
                let k = &self.keys[i];
                (i, (&k.program, &k.placement, k.seed, k.limits), bank, sinks)
            })
            .collect();
        let results = impact_support::parallel_map(
            self.jobs,
            work,
            |(i, (program, placement, seed, limits), mut bank, mut sinks)| {
                let gen = TraceGenerator::new(program, placement).with_limits(limits);
                let t0 = Instant::now();
                let summary = gen.stream(
                    seed,
                    &mut Fanout {
                        bank: &mut bank,
                        sinks: &mut sinks,
                    },
                );
                let nanos = t0.elapsed().as_nanos() as u64;
                (i, bank, sinks, summary, nanos)
            },
        );

        // Phase 3: file results back, serially, in key order.
        for (i, mut bank, sinks, summary, nanos) in results {
            let k = &mut self.keys[i];
            let instructions = summary.instructions;
            k.truncated = Some(summary.truncated);
            self.metrics.traces_streamed += 1;
            self.metrics.instructions_interpreted += instructions;
            self.metrics.interp_nanos += nanos;
            self.metrics.instructions += instructions;
            self.metrics.simulations.push(SimRecord {
                trace: k.cid,
                seed: k.seed,
                configs: k.configs.len() as u64,
                sinks: sinks.len() as u64,
                instructions,
                nanos,
                mode: SimMode::Interpreted,
            });
            k.stats = bank.take_stats();
            for (slot, sink) in k.sinks.iter_mut().zip(sinks) {
                *slot = Some(sink);
            }
            k.instructions = instructions;
            // Write-through: persist the finished results. Best-effort —
            // a full or read-only store disk degrades to cold behavior,
            // never to an error.
            if let Some(store) = &self.store {
                for (config, stats) in k.configs.iter().zip(&k.stats) {
                    let _ = store.put(
                        &persist::result_cid(&k.cid, config),
                        &persist::encode_result(stats, instructions),
                    );
                }
            }
        }
        self.metrics.wall_nanos = wall.elapsed().as_nanos() as u64;
    }

    /// Statistics for a request, in its requested config order.
    ///
    /// # Panics
    ///
    /// Panics if the session has not executed yet.
    #[must_use]
    pub fn stats(&self, handle: &SimHandle) -> Vec<CacheStats> {
        assert!(self.executed, "call execute() before reading stats");
        let k = &self.keys[handle.key];
        handle.slots.iter().map(|&s| k.stats[s]).collect()
    }

    /// Trace length (instructions streamed) of a request's key.
    ///
    /// # Panics
    ///
    /// Panics if the session has not executed yet.
    #[must_use]
    pub fn instructions(&self, handle: &SimHandle) -> u64 {
        assert!(
            self.executed,
            "call execute() before reading the trace length"
        );
        self.keys[handle.key].instructions
    }

    /// [`SimSession::stats`] and [`SimSession::instructions`] in one
    /// call — the session counterpart of `sim::simulate_counted`.
    #[must_use]
    pub fn counted(&self, handle: &SimHandle) -> (Vec<CacheStats>, u64) {
        (self.stats(handle), self.instructions(handle))
    }

    /// Whether the walk of a request's key stopped at a limit (the
    /// instruction cap or the call-depth cap): `Some` when this session
    /// walked the key, `None` when it served stored results, which do not
    /// record it.
    ///
    /// # Panics
    ///
    /// Panics if the session has not executed yet.
    #[must_use]
    pub fn truncated(&self, handle: &SimHandle) -> Option<bool> {
        assert!(
            self.executed,
            "call execute() before reading the walk's outcome"
        );
        self.keys[handle.key].truncated
    }

    /// Recovers a sink attached with [`SimSession::request_sink`], after
    /// its trace has been streamed.
    ///
    /// # Panics
    ///
    /// Panics if the session has not executed yet, the sink was already
    /// taken, or `S` is not its concrete type.
    #[must_use]
    pub fn take_sink<S: AccessSink + Send + 'static>(&mut self, handle: &SinkHandle) -> S {
        assert!(self.executed, "call execute() before taking a sink");
        let sink = self.keys[handle.key].sinks[handle.slot]
            .take()
            .expect("sink was already taken");
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
    /// records: what [`SimMetrics::add`] folds into a running total.
    #[must_use]
    pub fn counters(&self) -> SimMetrics {
        SimMetrics {
            jobs: self.jobs as u64,
            unique_traces: self.keys.len() as u64,
            // Every request interns exactly once, and each intern either
            // adds a key or hits one.
            memo_key_hits: self.metrics.requests - self.keys.len() as u64,
            store: self.store.as_ref().map(|s| s.counters()),
            simulations: Vec::new(),
            tables: Vec::new(),
            ..self.metrics
        }
    }
}

/// Attempts to answer every demand of `k` from the store, filling its
/// stats and trace length in place. Succeeds only when *all* configs
/// decode from verified entries and no sink is attached (sinks observe
/// the raw stream, which the result entries do not carry). On any miss
/// the key is left untouched and streams normally.
fn disk_serve(store: &Store, k: &mut KeyEntry) -> bool {
    if !k.sinks.is_empty() || k.configs.is_empty() {
        // Sinks need the stream; a key with no configs has no stored
        // result to read its trace length from, so it walks.
        return false;
    }
    let mut instructions = None;
    let mut loaded = Vec::with_capacity(k.configs.len());
    for config in &k.configs {
        let Some((stats, instrs)) = store
            .get(&persist::result_cid(&k.cid, config))
            .and_then(|payload| persist::decode_result(&payload))
        else {
            return false;
        };
        // Every result of one trace must agree on the trace length; a
        // disagreement means a foreign or stale entry — don't serve it.
        if *instructions.get_or_insert(instrs) != instrs {
            return false;
        }
        loaded.push(stats);
    }
    k.stats = loaded;
    k.instructions = instructions.expect("at least one result decoded");
    true
}

#[cfg(test)]
mod tests {
    use impact_cache::Cache;
    use impact_layout::baseline;

    use crate::sim;

    use super::*;

    const LIMITS: ExecLimits = ExecLimits::capped(40_000);

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

    /// Parallel work items of a second session over the same store each
    /// walk their own key again: new configs are not on disk, and the
    /// store holds no trace to replay.
    #[test]
    fn parallel_late_demands_all_walk_again() {
        let w = impact_workloads::by_name("wc").unwrap();
        let c1 = [CacheConfig::direct_mapped(2048, 64)];
        let c2 = [
            CacheConfig::direct_mapped(512, 64),
            CacheConfig::direct_mapped(1024, 32),
        ];
        let placements: Vec<Placement> = (0..8).map(|k| baseline::random(&w.program, k)).collect();
        let tmp = TempStore::new("parallel");
        let mut first = SimSession::with_jobs(4).with_store(tmp.open());
        for p in &placements {
            let _ = first.request(&w.program, p, 13, LIMITS, &c1);
        }
        first.execute();
        assert_eq!(first.metrics().traces_streamed, 8, "8 distinct keys walk");

        let mut s = SimSession::with_jobs(4).with_store(tmp.open());
        let late: Vec<SimHandle> = placements
            .iter()
            .map(|p| s.request(&w.program, p, 13, LIMITS, &c2))
            .collect();
        s.execute();
        let m = s.metrics();
        assert_eq!(m.traces_streamed, 8, "every late demand walks");
        assert_eq!(m.disk_served, 0);
        for (p, h) in placements.iter().zip(&late) {
            assert_eq!(s.stats(h), sim::simulate(&w.program, p, 13, LIMITS, &c2));
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
            assert_eq!(store.puts, 2, "2 results persisted, no artifact");
            assert!(s.truncated(&h).is_some(), "a walk records its outcome");
            s.counted(&h)
        };
        let mut s = SimSession::new().with_store(tmp.open());
        let h = s.request(&w.program, &placement, 21, LIMITS, &configs);
        s.execute();
        assert_eq!(s.counted(&h), (cold.clone(), cold_len), "bit-identical");
        assert_eq!(s.truncated(&h), None, "stored results do not record it");
        let m = s.metrics();
        assert_eq!(m.traces_streamed, 0, "warm run never streams");
        assert_eq!(m.disk_served, 1);
        assert_eq!(m.instructions_disk_served, cold_len);
        assert_eq!(m.instructions, cold_len, "unique instructions counted");
        assert_eq!(m.simulations[0].mode, SimMode::DiskServed);
        assert!(m.wall_nanos > 0, "a disk-served round is timed");
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

    /// A new config over a trace a first session stored walks again, and
    /// the store holds results only: no run-buffer artifact is written.
    #[test]
    fn new_configs_over_a_stored_trace_walk() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let tmp = TempStore::new("walk");
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
        // Different config: its result is not on disk, so the trace walks.
        let c2 = [CacheConfig::direct_mapped(1024, 64)];
        let store = tmp.open();
        let mut s = SimSession::new().with_store(Arc::clone(&store));
        let h = s.request(&w.program, &placement, 22, LIMITS, &c2);
        s.execute();
        let m = s.metrics();
        assert_eq!(m.traces_streamed, 1, "the new config walks");
        assert_eq!(m.disk_served, 0);
        assert!(s.truncated(&h).is_some(), "a walk records its outcome");
        assert_eq!(m.instructions, m.instructions_interpreted);
        assert_eq!(
            s.stats(&h),
            sim::simulate(&w.program, &placement, 22, LIMITS, &c2)
        );
        let kinds = store.kind_histogram();
        assert_eq!(kinds.get(&impact_store::kind::ARTIFACT), None);
        assert_eq!(
            kinds.get(&impact_store::kind::RESULT),
            Some(&2),
            "one result per config"
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
    /// never disk-served: it walks, even with every result stored.
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
        assert_eq!(m.traces_streamed, 1, "the sink rides a walk");
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

    #[test]
    #[should_panic(expected = "executes once")]
    fn request_after_execute_panics() {
        let w = impact_workloads::by_name("cmp").unwrap();
        let placement = baseline::natural(&w.program);
        let cfg = [CacheConfig::direct_mapped(2048, 64)];
        let mut s = SimSession::new();
        let _ = s.request(&w.program, &placement, 2, LIMITS, &cfg);
        s.execute();
        let _ = s.request(&w.program, &placement, 2, LIMITS, &cfg);
    }

    /// Both inputs are full struct literals, so a new `SimMetrics` field
    /// does not compile here until this test (and `add`) account for it.
    #[test]
    fn add_sums_every_counter_field() {
        let a = SimMetrics {
            jobs: 1,
            requests: 2,
            unique_traces: 3,
            traces_streamed: 4,
            disk_served: 6,
            memo_key_hits: 7,
            configs_requested: 8,
            configs_simulated: 9,
            memo_served: 10,
            instructions: 11,
            instructions_interpreted: 12,
            instructions_disk_served: 14,
            interp_nanos: 15,
            disk_nanos: 17,
            wall_nanos: 19,
            simulations: Vec::new(),
            tables: Vec::new(),
            store: None,
        };
        let b = SimMetrics {
            jobs: 4,
            requests: 200,
            unique_traces: 300,
            traces_streamed: 400,
            disk_served: 600,
            memo_key_hits: 700,
            configs_requested: 800,
            configs_simulated: 900,
            memo_served: 1000,
            instructions: 1100,
            instructions_interpreted: 1200,
            instructions_disk_served: 1400,
            interp_nanos: 1500,
            disk_nanos: 1700,
            wall_nanos: 1900,
            simulations: Vec::new(),
            tables: Vec::new(),
            store: None,
        };
        let mut total = a.clone();
        total.add(&b);
        let (fa, fb) = (a.counter_fields(), b.counter_fields());
        let mut checked = 0;
        for ((name, got), ((_, x), (_, y))) in total.counter_fields().iter().zip(fa.iter().zip(&fb))
        {
            // Rates are derived from the summed counters, not summed.
            if name.ends_with("_rate") || name.ends_with("_per_sec") {
                continue;
            }
            let (x, y) = (x.as_u64().unwrap(), y.as_u64().unwrap());
            // `jobs` is a setting: the total keeps the larger cap.
            let want = if name == "jobs" { x.max(y) } else { x + y };
            assert_eq!(got.as_u64(), Some(want), "{name}");
            checked += 1;
        }
        assert_eq!(checked, 15, "every integer counter field is checked");
    }
}
