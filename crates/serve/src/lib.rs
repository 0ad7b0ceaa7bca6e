//! `impact-serve` — an event-driven placement-and-simulation HTTP
//! service over the IMPACT-I evaluation engine.
//!
//! The service turns the repo's batch tooling into a long-lived daemon:
//! a dependency-free HTTP/1.1 server (plain `std::net` plus one
//! `poll(2)` wrapper) built as a readiness-polling reactor. One thread
//! multiplexes every connection over [`poll`]: nonblocking sockets feed
//! per-connection state machines (`conn`) that frame requests
//! incrementally — so HTTP/1.1 pipelining works — and buffer response
//! writes. Parsed requests go to a fixed worker pool through a bounded
//! dispatch queue that sheds overload with `503` + `Retry-After`; a
//! connection occupies a worker only while a request is actually being
//! routed or simulated, so 10k idle keep-alive connections cost 10k
//! pollfd entries, not 10k threads. The reactor enforces read/write
//! deadlines (slowloris eviction) and graceful shutdown on SIGTERM or
//! stdin EOF. Repeated POST bodies are answered from a byte-exact
//! response memo ([`rcache`]) without touching the worker pool at all.
//!
//! Its endpoints mirror the CLI surfaces. Each program endpoint has a
//! CLI twin that makes the same calls, so the twin's `--json` prints the
//! endpoint's document:
//!
//! - `POST /v1/lint` — the checked pipeline
//!   ([`impact_analyze::run_checked`]) over a submitted program; twin
//!   `impact lint --json` (both render
//!   [`Report::to_json_for_target`](impact_analyze::Report::to_json_for_target)
//!   rows).
//! - `POST /v1/layout` — the five-step IMPACT-I pipeline
//!   ([`api::layout`]), returning the placement and its quality
//!   metrics; twin `impact optimize --json`.
//! - `POST /v1/simulate` — cache evaluation in a
//!   [`SimSession`](impact_experiments::session::SimSession) of the
//!   request's own ([`api::simulate`]), which delivers the trace once.
//!   The server keeps no per-trace state: a repeated body is answered by
//!   the response memo, and with `--store` a request whose every config
//!   result is stored is disk-served; any other request walks its trace.
//!   Twin `impact sim --json`.
//! - `POST /v1/analyze` — profile-free static analysis; twin: the entry
//!   of `impact analyze --json`.
//! - `POST /v1/advise` — placement scores and the layout advisors; twin:
//!   the entry of `impact advise --json`.
//! - `GET /metrics` — request counters, global and per-endpoint latency
//!   histograms, queue depth, connection gauges, the response-memo hit
//!   rate and the summed session counters.
//!
//! The service's benchmark is perfbench (`perfbench/run.py`), which
//! drives its own client.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub(crate) mod conn;
pub mod http;
pub mod metrics;
pub mod poll;
pub mod rcache;
pub(crate) mod reactor;
pub mod server;
pub mod signal;

pub use api::{simulate_response_json, AppState};
pub use http::{Request, Response};
pub use metrics::{Endpoint, Metrics, LATENCY_BUCKETS_US};
pub use rcache::ResponseCache;
pub use server::{ServeConfig, Server};
