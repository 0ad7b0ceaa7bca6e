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
//! Its endpoints mirror the CLI surfaces:
//!
//! - `POST /v1/lint` — the `impact-analyze` registry over a submitted
//!   program (same JSON document as `impact lint --json`, rendered by
//!   the same [`impact_analyze::reports_to_json`] call).
//! - `POST /v1/layout` — the five-step IMPACT-I pipeline, returning the
//!   placement and its quality metrics.
//! - `POST /v1/simulate` — cache evaluation in a
//!   [`SimSession`](impact_experiments::session::SimSession) of the
//!   request's own, which delivers the trace once. The server keeps no
//!   per-trace state: a repeated body is answered by the response memo,
//!   and with `--store` a known trace is disk-served or replayed.
//! - `GET /metrics` — request counters, global and per-endpoint latency
//!   histograms, queue depth, connection gauges, the response-memo hit
//!   rate and the summed session counters.
//!
//! The [`client`] module is a matching minimal HTTP client used by the
//! integration tests and the shard proxy. The service's benchmark is
//! perfbench (`perfbench/run.py`), which drives its own client.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub(crate) mod conn;
pub mod http;
pub mod metrics;
pub mod poll;
pub mod rcache;
pub(crate) mod reactor;
pub mod server;
pub mod shard;
pub mod signal;

pub use api::{simulate_response_json, AppState};
pub use client::{Client, ClientResponse};
pub use http::{Request, Response};
pub use metrics::{Endpoint, Metrics, LATENCY_BUCKETS_US};
pub use rcache::ResponseCache;
pub use server::{ServeConfig, Server};
pub use shard::{ShardRouter, FORWARDED_HEADER};
