//! The three `impact serve` workloads, run end to end against the
//! release binary with closed-loop load from this process.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use impact_experiments::session::SimSession;
use impact_layout::baseline;
use impact_profile::ExecLimits;
use impact_serve::{simulate_response_json, Response};
use impact_support::json::{parse, Json};

use crate::bodies::{self, stream, Body};
use crate::client::{closed_loop, Check, Conn, Pass, Reply};
use crate::server::{Flags, Server};
use crate::stats::{
    median_f64, nearest_rank, samples_beyond, windowed_percentile, windowed_rate, Report,
};

/// Independent set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Set-ups of `serve_restart`, whose store fills are the slowest.
pub const RESTART_SETUPS: usize = 3;
/// Measured cold requests per second of `--seconds`.
pub const COLD_PER_SECOND: usize = 80;
/// Fewest measured requests of any serve workload: 1,000 leave ten
/// samples beyond the p99 printed with each run.
pub const MIN_REQUESTS: usize = 1000;
/// Untimed cold requests after each set-up.
pub const COLD_WARMUP: usize = 20;
/// Every this-many-th cold response is recomputed in-process.
pub const COLD_VERIFY_EVERY: usize = 25;
/// Warm laps (50 requests each) per second of `--seconds`.
pub const WARM_LAPS_PER_SECOND: usize = 1200;
/// Distinct simulate bodies stored before the restarts.
pub const RESTART_BODIES: usize = 100;
/// Dynamic-instruction cap of stored bodies.
pub const RESTART_MAX_INSTRS: u64 = 100_000;
/// Server restarts per second of `--seconds`.
pub const RESTARTS_PER_SECOND: usize = 16;

/// Where a serve workload runs.
pub struct Env<'a> {
    /// The release `impact` binary.
    pub impact: &'a Path,
    /// Scratch directory for stores.
    pub work: &'a Path,
    /// Benchmark seed.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
}

/// `serve_cold`'s measured bodies.
#[must_use]
pub fn cold_inputs(env: &Env<'_>) -> Vec<Body> {
    let n = (COLD_PER_SECOND * env.seconds as usize).max(MIN_REQUESTS);
    let programs = bodies::programs();
    bodies::simulate_set(
        &programs,
        env.seed,
        stream::COLD,
        n,
        bodies::COLD_MAX_INSTRS,
    )
}

/// `serve_warm`'s 50 bodies and the measured replay order over them.
#[must_use]
pub fn warm_inputs(env: &Env<'_>) -> (Vec<Body>, Vec<usize>) {
    let warm = bodies::warm_set(&bodies::programs());
    let laps = (WARM_LAPS_PER_SECOND * env.seconds as usize).max(MIN_REQUESTS / warm.len());
    let order = bodies::warm_order(env.seed, warm.len(), laps);
    (warm, order)
}

/// `serve_restart`'s stored bodies and the number of restarts.
#[must_use]
pub fn restart_inputs(env: &Env<'_>) -> (Vec<Body>, usize) {
    let programs = bodies::programs();
    let stored = bodies::simulate_set(
        &programs,
        env.seed,
        stream::RESTART,
        RESTART_BODIES,
        RESTART_MAX_INSTRS,
    );
    let rounds = (RESTARTS_PER_SECOND * env.seconds as usize).max(MIN_REQUESTS / RESTART_BODIES);
    (stored, rounds)
}

/// What the end-to-end pass of a serve workload produced, beyond the
/// report: counters scraped from the last live server's `/metrics`.
pub struct Outcome {
    /// The run's result.
    pub report: Report,
    /// The `/metrics` document of the measured server.
    pub metrics: Json,
}

fn fail(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

fn frames(bodies: &[Body]) -> Vec<Vec<u8>> {
    bodies.iter().map(Body::frame).collect()
}

fn scrape(server: &Server) -> io::Result<Json> {
    let reply = Conn::open(&server.addr)?.get("/metrics")?;
    let text = String::from_utf8(reply.body).map_err(|_| fail("/metrics is not UTF-8"))?;
    parse(&text).map_err(|e| fail(format!("/metrics: {e}")))
}

fn mib(kib: Option<u64>) -> io::Result<f64> {
    kib.map(|k| k as f64 / 1024.0)
        .ok_or_else(|| fail("cannot read the server's VmHWM"))
}

/// Requests per throughput window.
pub const RATE_WINDOW: usize = 100;
/// Requests per tail-latency window: 1,000 leave ten beyond p99.
pub const TAIL_WINDOW: usize = 1000;

/// Wall, throughput and median-latency metrics of a measured phase
/// from per-request latencies in request order. Throughput is a median
/// over windows and `wall_s` the request count at that median pace, so
/// a host stall confined to a few windows moves neither. The tail is
/// printed to stderr, not reported: on a shared host the p99 of a
/// sub-millisecond request measures the scheduler, not the program.
fn timing_metrics(report: &mut Report, latencies: &[u64], conns: usize, elapsed_ns: u64) {
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let elapsed_s = elapsed_ns as f64 / 1e9;
    eprintln!(
        "elapsed {elapsed_s:.3} s for {n} requests ({:.1} req/s); p99 {:.6} ms over all, \
         {:.6} ms as the median of {TAIL_WINDOW}-request windows; {} samples beyond p99",
        n as f64 / elapsed_s,
        nearest_rank(&sorted, 99.0) as f64 / 1e6,
        windowed_percentile(latencies, 99.0, TAIL_WINDOW) / 1e6,
        samples_beyond(n, 99.0),
    );
    let rate = windowed_rate(latencies, conns, RATE_WINDOW);
    report.metric("wall_s", n as f64 / rate, "s");
    report.metric("throughput_rps", rate, "req/s");
    report.metric(
        "latency_p50_ms",
        nearest_rank(&sorted, 50.0) as f64 / 1e6,
        "ms",
    );
}

/// The 2 KB direct-mapped `(miss, traffic)` ratios and summed misses
/// of a simulate response, if it is one.
fn sim_figures(body: &[u8], configs: usize) -> Option<(f64, f64, u64)> {
    let doc = parse(std::str::from_utf8(body).ok()?).ok()?;
    let results = doc.get("results")?.as_arr()?;
    if results.len() != configs {
        return None;
    }
    let dm = &results[bodies::DM_2K];
    let misses = results
        .iter()
        .map(|r| r.get("misses").and_then(Json::as_u64))
        .sum::<Option<u64>>()?;
    Some((
        dm.get("miss_ratio")?.as_f64()?,
        dm.get("traffic_ratio")?.as_f64()?,
        misses,
    ))
}

/// Mean 2 KB direct-mapped miss and traffic percentages over simulate
/// responses, plus their summed misses over every config.
fn miss_metrics(report: &mut Report, figures: &[(f64, f64, u64)]) -> u64 {
    let n = figures.len() as f64;
    let miss = figures.iter().map(|f| f.0).sum::<f64>() / n * 100.0;
    let traffic = figures.iter().map(|f| f.1).sum::<f64>() / n * 100.0;
    report.metric("miss_pct_2k", miss, "%");
    report.metric("traffic_pct_2k", traffic, "%");
    figures.iter().map(|f| f.2).sum()
}

/// The exact response `impact serve` must give a natural-layout
/// simulate body, computed in this process through the library.
fn expected_simulate(body: &Body) -> Option<Vec<u8>> {
    let doc = parse(&body.json).ok()?;
    let program = impact_asm::parse_program(doc.get("program")?.as_str()?).ok()?;
    let seed = doc.get("seed")?.as_u64()?;
    let limits = ExecLimits {
        max_instructions: doc.get("max_instrs")?.as_u64()?,
        max_call_depth: 512,
    };
    let configs = bodies::cache_configs();
    let placement = baseline::natural(&program);
    let mut session = SimSession::with_jobs(1);
    let h = session.request(&program, &placement, seed, limits, &configs);
    session.execute();
    let (stats, instrs) = session.counted(&h);
    let doc = simulate_response_json("natural", seed, &configs, &stats, instrs);
    Some(Response::json(200, &doc).body)
}

/// Runs `setup` `times` times, keeping the last result; returns it
/// with the median set-up seconds.
fn repeated<T>(
    count: usize,
    mut setup: impl FnMut(usize) -> io::Result<T>,
) -> io::Result<(T, f64)> {
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for i in 0..count {
        let t0 = Instant::now();
        let value = setup(i)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), median_f64(&times)))
}

/// Cold `/v1/simulate`: distinct seeded bodies on 2 connections to a
/// 2-worker server with no store.
///
/// # Errors
///
/// Server or transport failures (not wrong answers: those are counted).
pub fn serve_cold(env: &Env<'_>) -> io::Result<Outcome> {
    let programs = bodies::programs();
    let measured = cold_inputs(env);
    let n = measured.len();
    let warmup = frames(&bodies::simulate_set(
        &programs,
        env.seed,
        stream::WARMUP,
        COLD_WARMUP,
        bodies::COLD_MAX_INSTRS,
    ));
    let flags = Flags {
        workers: 2,
        store: None,
    };
    let mut report = Report::default();
    let (server, setup_s) = repeated(SETUPS, |i| {
        let server = Server::start(env.impact, &flags)?;
        let order: Vec<usize> = (0..warmup.len()).collect();
        let pass = closed_loop(&server.addr, &warmup, &order, 2, Check::Keep)?;
        if pass.ok.iter().any(|ok| !ok) {
            return Err(fail("a warm-up request failed"));
        }
        if i + 1 < SETUPS {
            server.stop()?;
            return Ok(None);
        }
        Ok(Some(server))
    })?;
    let server = server.expect("the last set-up keeps its server");
    report.metric("setup_s", setup_s, "s");

    let order: Vec<usize> = (0..n).collect();
    let pass = closed_loop(&server.addr, &frames(&measured), &order, 2, Check::Keep)?;
    let rss = mib(server.peak_rss_kib())?;
    let metrics = scrape(&server)?;
    server.stop()?;

    timing_metrics(&mut report, &pass.latency_ns, 2, pass.wall_ns);
    report.metric("peak_rss_mb", rss, "MiB");
    let configs = bodies::cache_configs().len();
    let mut figures = Vec::with_capacity(n);
    for (k, (ok, reply)) in pass.ok.iter().zip(&pass.replies).enumerate() {
        let fig = reply.as_ref().and_then(|r| sim_figures(&r.body, configs));
        let verified = k % COLD_VERIFY_EVERY != 0
            || reply.as_ref().map(|r| &r.body) == expected_simulate(&measured[k]).as_ref();
        report.op(*ok && fig.is_some() && verified);
        figures.extend(fig);
    }
    let checksum = miss_metrics(&mut report, &figures);
    eprintln!("serve_cold: seed {} summed misses {checksum}", env.seed);
    crate::reference::check_cold_checksum(&mut report, env.seed, n, checksum);
    Ok(Outcome { report, metrics })
}

/// Warm replays: the 50 warm bodies, primed at set-up, replayed on one
/// connection in seeded order; every reply must equal its cold answer.
///
/// # Errors
///
/// Server or transport failures.
pub fn serve_warm(env: &Env<'_>) -> io::Result<Outcome> {
    let (warm, order) = warm_inputs(env);
    let warm_frames = frames(&warm);
    let flags = Flags {
        workers: 1,
        store: None,
    };
    let mut report = Report::default();
    let mut cold: Option<Vec<Vec<u8>>> = None;
    let (server, setup_s) = repeated(SETUPS, |i| {
        let server = Server::start(env.impact, &flags)?;
        let order: Vec<usize> = (0..warm.len()).collect();
        let pass = closed_loop(&server.addr, &warm_frames, &order, 1, Check::Keep)?;
        let answers = answers(&pass)?;
        // Every set-up must produce the same cold answers.
        if let Some(first) = &cold {
            report.op(*first == answers);
        }
        cold.get_or_insert(answers);
        if i + 1 < SETUPS {
            server.stop()?;
            return Ok(None);
        }
        Ok(Some(server))
    })?;
    let server = server.expect("the last set-up keeps its server");
    let cold = cold.expect("primed");
    report.metric("setup_s", setup_s, "s");

    // One untimed lap, then the measured laps.
    let lap: Vec<usize> = (0..warm.len()).collect();
    let pre = closed_loop(&server.addr, &warm_frames, &lap, 1, Check::Match(&cold))?;
    pre.ok.iter().for_each(|ok| report.op(*ok));
    let pass = closed_loop(&server.addr, &warm_frames, &order, 1, Check::Match(&cold))?;
    let rss = mib(server.peak_rss_kib())?;
    let metrics = scrape(&server)?;
    server.stop()?;

    pass.ok.iter().for_each(|ok| report.op(*ok));
    timing_metrics(&mut report, &pass.latency_ns, 1, pass.wall_ns);
    report.metric("peak_rss_mb", rss, "MiB");
    let configs = bodies::cache_configs().len();
    let figures: Vec<_> = warm
        .iter()
        .zip(&cold)
        .filter(|(b, _)| b.target == "/v1/simulate")
        .map(|(_, answer)| sim_figures(answer, configs))
        .collect::<Option<_>>()
        .ok_or_else(|| fail("a warm simulate answer is malformed"))?;
    miss_metrics(&mut report, &figures);
    Ok(Outcome { report, metrics })
}

/// The bodies of a priming pass, which must all have succeeded.
fn answers(pass: &Pass) -> io::Result<Vec<Vec<u8>>> {
    pass.replies
        .iter()
        .map(|r| match r {
            Some(Reply { status: 200, body }) => Ok(body.clone()),
            other => Err(fail(format!(
                "a priming request failed: {:?}",
                other.as_ref().map(|r| r.status)
            ))),
        })
        .collect()
}

/// Store reads after restarts: set-up fills a fresh `--store` with
/// distinct simulate bodies through one server; fresh servers on that
/// store then answer every body once, disk-served.
///
/// # Errors
///
/// Server, store-directory or transport failures.
pub fn serve_restart(env: &Env<'_>) -> io::Result<Outcome> {
    let (stored, rounds) = restart_inputs(env);
    let stored_frames = frames(&stored);
    let order: Vec<usize> = (0..stored.len()).collect();
    let mut report = Report::default();
    let mut cold: Option<Vec<Vec<u8>>> = None;
    let store_dir = |i: usize| -> PathBuf { env.work.join(format!("store-{i}")) };
    let (dir, setup_s) = repeated(RESTART_SETUPS, |i| {
        let dir = store_dir(i);
        remove_dir(&dir)?;
        let flags = Flags {
            workers: 1,
            store: Some(&dir),
        };
        let server = Server::start(env.impact, &flags)?;
        let pass = closed_loop(&server.addr, &stored_frames, &order, 1, Check::Keep)?;
        server.stop()?;
        let answers = answers(&pass)?;
        if let Some(first) = &cold {
            report.op(*first == answers);
        }
        cold.get_or_insert(answers);
        Ok(dir)
    })?;
    let cold = cold.expect("filled");
    report.metric("setup_s", setup_s, "s");
    // The fills' metadata write-back would otherwise land in the rounds.
    sync()?;

    let flags = Flags {
        workers: 1,
        store: Some(&dir),
    };
    let mut latencies = Vec::with_capacity(rounds * stored.len());
    let mut wall_ns = 0;
    let mut rss = Vec::with_capacity(rounds);
    let mut metrics = Json::Null;
    for round in 0..rounds {
        let server = Server::start(env.impact, &flags)?;
        let pass = closed_loop(&server.addr, &stored_frames, &order, 1, Check::Match(&cold))?;
        rss.push(mib(server.peak_rss_kib())?);
        if round + 1 == rounds {
            metrics = scrape(&server)?;
        }
        server.stop()?;
        pass.ok.iter().for_each(|ok| report.op(*ok));
        latencies.extend(pass.latency_ns);
        wall_ns += pass.wall_ns;
    }
    // Stores are deleted only now: deleting one is disk work of its own
    // that would land inside a timed set-up or round.
    for i in 0..RESTART_SETUPS {
        remove_dir(&store_dir(i))?;
    }

    timing_metrics(&mut report, &latencies, 1, wall_ns);
    // The median server: a rare server whose peak jumps (seen once in
    // thousands, with correct answers) must not decide the run.
    report.metric("peak_rss_mb", median_f64(&rss), "MiB");
    let configs = bodies::cache_configs().len();
    let figures: Vec<_> = cold
        .iter()
        .map(|answer| sim_figures(answer, configs))
        .collect::<Option<_>>()
        .ok_or_else(|| fail("a stored simulate answer is malformed"))?;
    miss_metrics(&mut report, &figures);
    Ok(Outcome { report, metrics })
}

/// Writes back every dirty file-system buffer (`sync(1)`).
fn sync() -> io::Result<()> {
    let status = std::process::Command::new("sync").status()?;
    if status.success() {
        Ok(())
    } else {
        Err(fail(format!("sync exited with {status}")))
    }
}

fn remove_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}
