//! The event-driven HTTP server: a readiness-polling reactor thread, a
//! bounded *request* dispatch queue, and a fixed worker pool for the
//! CPU-bound routing work.
//!
//! Threading model (see DESIGN.md §"Event-driven serve core"):
//!
//! - One reactor thread owns the listener and every connection socket,
//!   multiplexed over `poll(2)` ([`crate::poll`]). Connections are
//!   nonblocking state machines (`conn`): the reactor reads
//!   available bytes, frames as many complete requests as arrived
//!   (pipelining), and flushes buffered responses. An idle keep-alive
//!   connection costs one pollfd entry — not a thread, not a worker.
//! - Parsed requests go into a bounded dispatch queue; when it is full
//!   the reactor answers `503` + `Retry-After` itself — workers never
//!   see shed load. Requests whose exact `(target, body)` bytes were
//!   answered before are served from the response memo
//!   ([`crate::rcache`]) without touching the queue at all.
//! - `workers` threads block on a condvar over the queue. Each pops a
//!   *request* (not a connection), routes it under `catch_unwind`,
//!   serializes the response, and hands the frame back to the reactor
//!   through a completion list plus a wake byte on a loopback TCP pair.
//!   A connection therefore occupies a worker only while one of its
//!   requests is actually being routed or simulated.
//! - Shutdown sets an atomic flag: the reactor closes the listener and
//!   stops reading, workers drain the queue and exit, in-flight
//!   responses still flush, and [`Server::stop`] joins everyone.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::api::{route, AppState};
use crate::conn::DoneResponse;
use crate::http::{Request, Response};
use crate::rcache::{ResponseCache, DEFAULT_CACHE_BYTES};
use crate::reactor::Reactor;

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads routing requests.
    pub workers: usize,
    /// Parsed requests allowed to wait for a worker; beyond this the
    /// reactor sheds with `503`. Zero sheds every dispatched request
    /// (useful for deterministic overload tests).
    pub queue_cap: usize,
    /// Read deadline: how long a connection may sit idle mid-request
    /// (or between keep-alive requests) before the reactor evicts it.
    pub read_timeout: Duration,
    /// Write deadline: how long a client may refuse to drain a pending
    /// response before the reactor evicts the connection.
    pub write_timeout: Duration,
    /// Worker-thread cap of each simulate's session. One simulate is one
    /// trace key, which a session delivers on one thread, so this has no
    /// effect; `--sim-jobs` is still accepted.
    pub sim_jobs: usize,
    /// Byte budget for the serving-layer response memo; `0` disables it.
    pub response_cache_bytes: usize,
    /// Root directory of the persistent content-addressed store; when
    /// set, finished results and trace artifacts are written through and
    /// a restarted server answers previously-seen simulate requests from
    /// disk without re-streaming.
    pub store_dir: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            // The queue now holds requests, not connections, and a
            // pipelining client can legitimately burst dozens at once.
            queue_cap: 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            sim_jobs: 1,
            response_cache_bytes: DEFAULT_CACHE_BYTES,
            store_dir: None,
        }
    }
}

/// One parsed request travelling reactor → worker. `slot`/`gen` name
/// the connection; `seq` orders the response within it.
#[derive(Debug)]
pub(crate) struct Job {
    pub slot: usize,
    pub gen: u64,
    pub seq: u64,
    pub req: Request,
}

/// One serialized response travelling worker → reactor.
#[derive(Debug)]
pub(crate) struct Completion {
    pub slot: usize,
    pub gen: u64,
    pub seq: u64,
    pub frame: Vec<u8>,
    pub close: bool,
}

/// The bounded request queue between reactor and workers.
#[derive(Debug)]
pub(crate) struct Dispatch {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
    cap: usize,
}

impl Dispatch {
    pub fn new(cap: usize) -> Self {
        Self {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cap,
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues unless full. Returns the depth after the push, or
    /// `None` when the request must be shed.
    pub fn try_push(&self, job: Job) -> Option<usize> {
        let mut q = self.lock();
        if q.len() >= self.cap {
            return None;
        }
        q.push_back(job);
        let depth = q.len();
        drop(q);
        self.ready.notify_one();
        Some(depth)
    }

    /// Blocks for the next job. Returns `None` once shutdown is
    /// requested *and* the queue is dry — queued requests are always
    /// answered.
    pub fn pop(&self, shutdown: &AtomicBool) -> Option<(Job, usize)> {
        let mut q = self.lock();
        loop {
            if let Some(job) = q.pop_front() {
                let depth = q.len();
                return Some((job, depth));
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
    }
}

/// Completed responses waiting for the reactor to collect them.
#[derive(Debug, Default)]
pub(crate) struct Completions {
    list: Mutex<Vec<Completion>>,
}

impl Completions {
    pub fn push(&self, done: Completion) {
        self.list
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(done);
    }

    pub fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.list.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A loopback TCP pair used as the worker → reactor wake pipe, so the
/// reactor's `poll(2)` returns the moment a completion lands. (A real
/// pipe would need another syscall wrapper; a loopback socket pair is
/// dependency-free and identical for this purpose.)
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    rx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    Ok((tx, rx))
}

/// A running service; dropping it without [`Server::stop`] detaches the
/// threads (they keep serving until the process exits).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the reactor thread and worker pool, and returns
    /// immediately. The service is ready as soon as this returns.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = wake_pair()?;
        let state = Arc::new(AppState::from_config(&config)?);
        let shutdown = Arc::new(AtomicBool::new(false));
        let dispatch = Arc::new(Dispatch::new(config.queue_cap));
        let completions = Arc::new(Completions::default());
        let mut threads = Vec::with_capacity(config.workers + 1);

        for i in 0..config.workers.max(1) {
            let dispatch = Arc::clone(&dispatch);
            let completions = Arc::clone(&completions);
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            let mut wake = wake_tx.try_clone()?;
            threads.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(&dispatch, &completions, &mut wake, &state, &shutdown)
                    })
                    .expect("spawn worker"),
            );
        }
        {
            let dispatch = Arc::clone(&dispatch);
            let completions = Arc::clone(&completions);
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            let config = config.clone();
            threads.push(
                thread::Builder::new()
                    .name("serve-reactor".to_string())
                    .spawn(move || {
                        // Keep one wake-pipe sender alive on this side so
                        // worker exit never turns the pipe into EOF spam.
                        let _wake_keep = wake_tx;
                        Reactor::new(config).run(
                            listener,
                            wake_rx,
                            &dispatch,
                            &completions,
                            &state,
                            &shutdown,
                        );
                    })
                    .expect("spawn reactor"),
            );
        }
        Ok(Server {
            addr,
            state,
            shutdown,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared application state (session counter total + metrics +
    /// memo).
    #[must_use]
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// A clonable flag that stops the server when set (e.g. from a
    /// signal handler or stdin watcher).
    #[must_use]
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Requests shutdown and joins every thread. In-flight requests are
    /// answered and their responses flushed; idle connections close.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks until `self.shutdown` becomes true (set externally via
    /// [`Server::shutdown_flag`]), then stops cleanly.
    pub fn wait(self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(25));
        }
        self.stop();
    }
}

/// Routes requests until shutdown is requested and the queue is dry.
fn worker_loop(
    dispatch: &Dispatch,
    completions: &Completions,
    wake: &mut TcpStream,
    state: &AppState,
    shutdown: &AtomicBool,
) {
    while let Some((job, depth)) = dispatch.pop(shutdown) {
        state.metrics.set_queue_depth(depth);
        let started = Instant::now();
        let (endpoint, response) = match catch_unwind(AssertUnwindSafe(|| route(state, &job.req))) {
            Ok(routed) => routed,
            Err(_) => (
                crate::metrics::Endpoint::Other,
                Response::error(500, "internal error while handling the request"),
            ),
        };
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        state.metrics.record(endpoint, response.status, micros);
        if ResponseCache::cacheable(&job.req.method, job.req.body.len()) {
            state
                .rcache
                .put(&job.req.target, &job.req.body, endpoint, &response);
        }
        // Stop offering keep-alive once shutdown begins, but always
        // finish answering the request we took.
        let keep = job.req.keep_alive() && !shutdown.load(Ordering::SeqCst);
        let done = DoneResponse::serialize(&response, keep);
        completions.push(Completion {
            slot: job.slot,
            gen: job.gen,
            seq: job.seq,
            frame: done.frame,
            close: done.close,
        });
        let _ = wake.write(&[1]);
    }
}

#[cfg(test)]
#[path = "../tests/client/mod.rs"]
mod client;

#[cfg(test)]
mod tests {
    use super::client::Client;
    use super::*;

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_cap: 16,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_health_and_404_over_tcp() {
        let server = Server::start(tiny_config()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let (status, body) = client.get("/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("\"ok\""));
        // Keep-alive: a second request on the same connection.
        let (status, _) = client.get("/missing").unwrap();
        assert_eq!(status, 404);
        server.stop();
    }

    #[test]
    fn zero_capacity_queue_sheds_with_retry_after() {
        let server = Server::start(ServeConfig {
            queue_cap: 0,
            ..tiny_config()
        })
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let resp = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(resp.status, 503);
        assert!(resp
            .headers
            .iter()
            .any(|(n, v)| n == "retry-after" && v == "1"));
        let metrics = server.state().metrics.to_json(&Default::default());
        let shed = metrics
            .get("shed_503")
            .and_then(impact_support::json::Json::as_u64);
        assert!(shed >= Some(1));
        server.stop();
    }

    #[test]
    fn stop_refuses_new_connections() {
        let server = Server::start(tiny_config()).unwrap();
        let addr = server.addr();
        assert!(!server.shutdown_flag().load(Ordering::SeqCst));
        server.stop();
        // The listener is gone; a fresh connect must fail (or be reset
        // on first use).
        let refused = match Client::connect(addr) {
            Err(_) => true,
            Ok(mut c) => c.get("/healthz").is_err(),
        };
        assert!(refused);
    }

    /// A unique scratch directory removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "impact-serve-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }

        fn path(&self) -> String {
            self.0.to_string_lossy().into_owned()
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn simulate_body() -> String {
        let program = impact_asm::print_program(&impact_workloads::by_name("cmp").unwrap().program);
        format!(
            r#"{{"program": {}, "seed": 11, "max_instrs": 40000,
               "configs": [{{"size": 2048}}, {{"size": 512, "assoc": 2}}]}}"#,
            impact_support::json::Json::Str(program),
        )
    }

    #[test]
    fn restarted_server_disk_serves_previous_simulations() {
        let tmp = TempDir::new("restart");
        let config = ServeConfig {
            store_dir: Some(tmp.path()),
            ..tiny_config()
        };
        let body = simulate_body();

        // Cold process: the first simulate streams a trace and writes
        // results through to the store.
        let server = Server::start(config.clone()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let first = client.post_json("/v1/simulate", &body).unwrap();
        assert_eq!(
            first.status,
            200,
            "{}",
            String::from_utf8_lossy(&first.body)
        );
        let cold = server.state().sim_counters();
        assert_eq!(cold.traces_streamed, 1);
        assert_eq!(cold.disk_served, 0);
        server.stop();

        // Restarted process, same store: the repeat must be answered
        // from disk — byte-identically and without streaming a trace.
        let server = Server::start(config).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let again = client.post_json("/v1/simulate", &body).unwrap();
        assert_eq!(again.status, 200);
        assert_eq!(again.body, first.body, "restart must not change bytes");
        let warm = server.state().sim_counters();
        assert_eq!(warm.traces_streamed, 0, "no re-streaming after restart");
        assert_eq!(warm.disk_served, 1);
        let store = warm.store.expect("store counters present");
        assert!(store.hits >= 2, "both config results read from disk");
        server.stop();
    }

    #[test]
    fn many_idle_connections_cost_no_workers() {
        // With 1 worker and 64 open connections, requests on any of
        // them must still be answered: idle connections no longer pin
        // a worker each.
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut clients: Vec<Client> = (0..64)
            .map(|_| Client::connect(server.addr()).unwrap())
            .collect();
        for client in clients.iter_mut().rev() {
            let (status, _) = client.get("/healthz").unwrap();
            assert_eq!(status, 200);
        }
        assert!(server.state().metrics.connections_peak() >= 64);
        server.stop();
    }
}
