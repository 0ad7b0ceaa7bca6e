//! The event loop: one thread multiplexing every connection over
//! `poll(2)`.
//!
//! The reactor owns the listener and all connection sockets
//! (nonblocking, wrapped in [`Conn`] state machines) and loops over:
//!
//! 1. `poll(2)` on the listener, the worker wake pipe, and every
//!    connection that wants readability or writability;
//! 2. applying worker completions (responses come back over a shared
//!    vector; the wake pipe makes the poll return immediately);
//! 3. accepting new connections — each costs one slab slot and one
//!    pollfd entry, not a thread;
//! 4. per-connection reads → incremental framing → dispatch, and
//!    buffered writes;
//! 5. deadline enforcement and connection reaping.
//!
//! A connection only touches the worker pool while a request is being
//! routed: parsed requests are pushed onto the bounded dispatch queue
//! (full queue ⇒ `503` + `Retry-After`, written by the reactor), and
//! responses the serving layer already knows — the response memo — are
//! completed inline without waking anyone. Stale completions (their
//! connection died while the worker was busy) are dropped by generation
//! check.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::api::AppState;
use crate::conn::{Conn, DoneResponse, ReadOutcome};
use crate::http::{parse_request_bytes, HttpError, Request, Response};
use crate::poll::{poll, PollFd, POLLIN, POLLOUT};
use crate::rcache::ResponseCache;
use crate::server::{Completions, Dispatch, Job, ServeConfig};

/// Poll timeout: the upper bound on shutdown-flag observation latency.
const TICK_MS: i32 = 25;

/// How long a shutting-down reactor waits for in-flight requests to
/// finish and flush before force-closing the remaining connections.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(30);

/// One slab entry. The generation distinguishes a recycled slot from
/// the connection a stale in-flight job belonged to.
struct Slot {
    gen: u64,
    conn: Option<Conn>,
}

/// What a pollfd entry refers back to.
#[derive(Clone, Copy)]
enum Owner {
    Listener,
    Wake,
    Slot(usize),
}

pub(crate) struct Reactor {
    config: ServeConfig,
    slab: Vec<Slot>,
    free: Vec<usize>,
}

impl Reactor {
    pub fn new(config: ServeConfig) -> Self {
        Self {
            config,
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    fn alloc(&mut self, conn: Conn) -> usize {
        if let Some(slot) = self.free.pop() {
            self.slab[slot].conn = Some(conn);
            slot
        } else {
            self.slab.push(Slot {
                gen: 0,
                conn: Some(conn),
            });
            self.slab.len() - 1
        }
    }

    fn close(&mut self, slot: usize, state: &AppState) {
        if self.slab[slot].conn.take().is_some() {
            self.slab[slot].gen += 1;
            self.free.push(slot);
            state.metrics.connection_closed();
        }
    }

    /// The reactor thread body. Returns when shutdown is requested and
    /// every connection has drained (or the grace period expired).
    pub fn run(
        mut self,
        listener: TcpListener,
        wake_rx: TcpStream,
        dispatch: &Dispatch,
        completions: &Completions,
        state: &AppState,
        shutdown: &AtomicBool,
    ) {
        let mut listener = Some(listener);
        let mut shutdown_started: Option<Instant> = None;
        let mut pollfds: Vec<PollFd> = Vec::new();
        let mut owners: Vec<Owner> = Vec::new();
        let mut scratch: Vec<usize> = Vec::new();

        loop {
            let now = Instant::now();
            if shutdown.load(Ordering::SeqCst) && shutdown_started.is_none() {
                shutdown_started = Some(now);
                // Refuse new connections immediately and stop reading
                // new requests; in-flight ones still get answered.
                listener = None;
                for slot in &mut self.slab {
                    if let Some(conn) = slot.conn.as_mut() {
                        conn.no_more_input = true;
                    }
                }
            }
            if let Some(started) = shutdown_started {
                let live = self.slab.iter().filter(|s| s.conn.is_some()).count();
                if live == 0 || now.duration_since(started) > SHUTDOWN_GRACE {
                    break;
                }
            }

            pollfds.clear();
            owners.clear();
            if let Some(l) = &listener {
                pollfds.push(PollFd::new(l.as_raw_fd(), POLLIN));
                owners.push(Owner::Listener);
            }
            pollfds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
            owners.push(Owner::Wake);
            for (i, slot) in self.slab.iter().enumerate() {
                let Some(conn) = &slot.conn else { continue };
                let wants = conn.wants();
                let mut events = 0i16;
                if wants.read {
                    events |= POLLIN;
                }
                if wants.write {
                    events |= POLLOUT;
                }
                if events != 0 {
                    pollfds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                    owners.push(Owner::Slot(i));
                }
            }

            if poll(&mut pollfds, TICK_MS).is_err() {
                // EINVAL/ENOMEM: nothing sensible to do but retry after
                // a beat rather than spin.
                std::thread::sleep(Duration::from_millis(5));
            }
            let now = Instant::now();

            // 1. Worker completions (drained every turn whether or not
            // the wake pipe fired — the byte is only a poll interrupt).
            for pf in pollfds.iter().zip(&owners) {
                if let (fd, Owner::Wake) = pf {
                    if fd.readable() {
                        drain_wake(&wake_rx);
                    }
                }
            }
            for done in completions.drain() {
                let slot = &mut self.slab[done.slot];
                if slot.gen != done.gen {
                    continue; // the connection died while the worker ran
                }
                if let Some(conn) = slot.conn.as_mut() {
                    conn.inflight -= 1;
                    conn.complete(
                        done.seq,
                        DoneResponse {
                            frame: done.frame,
                            close: done.close,
                        },
                    );
                    if !conn.flush(now) {
                        let i = done.slot;
                        self.close(i, state);
                    }
                }
            }

            // 2. Socket events.
            scratch.clear();
            for (pf, owner) in pollfds.iter().zip(&owners) {
                match owner {
                    Owner::Listener if pf.readable() => {
                        self.accept_burst(listener.as_ref(), state, now);
                    }
                    Owner::Slot(i) if pf.readable() || pf.writable() => scratch.push(*i),
                    _ => {}
                }
            }
            for &i in &scratch {
                let gen = self.slab[i].gen;
                let Some(conn) = self.slab[i].conn.as_mut() else {
                    continue;
                };
                let healthy = Self::service(conn, i, gen, dispatch, state, shutdown, now);
                if !healthy {
                    self.close(i, state);
                }
            }

            // 3. Reap finished connections and blown deadlines.
            for i in 0..self.slab.len() {
                let Some(conn) = self.slab[i].conn.as_ref() else {
                    continue;
                };
                if conn.finished() {
                    self.close(i, state);
                } else if conn.deadline_expired(
                    now,
                    self.config.read_timeout,
                    self.config.write_timeout,
                ) {
                    // Slowloris eviction / unread responses: the old
                    // blocking server surfaced both as read/write
                    // timeouts on the worker thread.
                    state.metrics.record_read_error();
                    self.close(i, state);
                }
            }
        }
    }

    /// Accepts until the listener would block.
    fn accept_burst(&mut self, listener: Option<&TcpListener>, state: &AppState, now: Instant) {
        let Some(listener) = listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses are written as few large frames; don't
                    // let Nagle hold them back waiting for an ACK.
                    let _ = stream.set_nodelay(true);
                    let conn = Conn::new(stream, now);
                    self.alloc(conn);
                    state.metrics.record_connection();
                    state.metrics.connection_opened();
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return, // transient (EMFILE, aborted handshake)
            }
        }
    }

    /// Reads, frames, dispatches, and flushes one connection. Returns
    /// `false` when the connection must be closed immediately.
    #[allow(clippy::too_many_arguments)]
    fn service(
        conn: &mut Conn,
        slot: usize,
        gen: u64,
        dispatch: &Dispatch,
        state: &AppState,
        shutdown: &AtomicBool,
        now: Instant,
    ) -> bool {
        let outcome = if conn.wants().read {
            conn.fill_from_socket(now)
        } else {
            ReadOutcome::Open
        };
        if outcome == ReadOutcome::Broken {
            state.metrics.record_read_error();
            return false;
        }

        // Frame as many complete requests as the buffer holds: this is
        // where HTTP/1.1 pipelining falls out of the state machine.
        while !conn.no_more_input {
            match parse_request_bytes(&conn.buf) {
                Ok(Some((req, consumed))) => {
                    conn.buf.drain(..consumed);
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    Self::handle_request(conn, slot, gen, seq, req, dispatch, state, shutdown);
                }
                Ok(None) => break,
                Err(err) => {
                    state.metrics.record_read_error();
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    let response = match err {
                        HttpError::Malformed(msg) => Response::error(400, msg),
                        HttpError::TooLarge("request head") => {
                            Response::error(431, "request head too large")
                        }
                        HttpError::TooLarge(what) => {
                            Response::error(413, format!("{what} too large"))
                        }
                    };
                    conn.complete(seq, DoneResponse::serialize(&response, false));
                    conn.no_more_input = true;
                    conn.buf.clear();
                    break;
                }
            }
        }

        if outcome == ReadOutcome::Eof {
            if !conn.no_more_input && !conn.buf.is_empty() {
                // Peer closed mid-request: same diagnosis the blocking
                // reader gave ("connection closed inside the header
                // block"), answered on the half-open socket.
                state.metrics.record_read_error();
                let seq = conn.next_seq;
                conn.next_seq += 1;
                let response =
                    Response::error(400, "connection closed inside the request".to_string());
                conn.complete(seq, DoneResponse::serialize(&response, false));
            }
            conn.no_more_input = true;
            conn.buf.clear();
        }

        conn.flush(now)
    }

    /// Completes one parsed request: response-memo hit inline, dispatch
    /// to the worker pool, or shed with `503` when the queue is full.
    #[allow(clippy::too_many_arguments)]
    fn handle_request(
        conn: &mut Conn,
        slot: usize,
        gen: u64,
        seq: u64,
        req: Request,
        dispatch: &Dispatch,
        state: &AppState,
        shutdown: &AtomicBool,
    ) {
        let keep = req.keep_alive() && !shutdown.load(Ordering::SeqCst);
        if !req.keep_alive() {
            // The client promised no more requests on this connection;
            // anything further in the buffer is undefined — drop it.
            conn.no_more_input = true;
        }

        if ResponseCache::cacheable(&req.method, req.body.len()) {
            let started = Instant::now();
            if let Some((endpoint, response)) = state.rcache.get(&req.target, &req.body) {
                let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                state.metrics.record(endpoint, response.status, micros);
                conn.complete(seq, DoneResponse::serialize(&response, keep));
                return;
            }
        }

        let depth = dispatch.try_push(Job {
            slot,
            gen,
            seq,
            req,
        });
        match depth {
            Some(depth) => {
                state.metrics.set_queue_depth(depth);
                conn.inflight += 1;
            }
            None => {
                // Same shed semantics the accept loop used to apply:
                // 503 + Retry-After, then close, so the client backs
                // off and reconnects.
                state.metrics.record_shed();
                let resp = Response::error(503, "server overloaded; retry shortly")
                    .with_header("Retry-After", "1");
                conn.complete(seq, DoneResponse::serialize(&resp, false));
            }
        }
    }
}

/// Empties the wake pipe (each worker writes one byte per completion;
/// the content is meaningless).
fn drain_wake(mut wake_rx: &TcpStream) {
    use std::io::Read;
    let mut sink = [0u8; 256];
    loop {
        match wake_rx.read(&mut sink) {
            Ok(0) => return, // workers are gone; poll keeps ticking
            Ok(_) => {}
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}
