//! Service observability: request counters, latency histogram, queue
//! depth, and the evaluation engine's memo counters, rendered as the
//! `GET /metrics` JSON document.
//!
//! Everything is lock-free atomics so the hot path (one `record` per
//! request) never contends with scrapes.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use impact_experiments::session::SimMetrics;
use impact_support::json::{Json, ToJson};

/// Upper bounds (inclusive, microseconds) of the latency histogram
/// buckets; an implicit overflow bucket catches the rest.
pub const LATENCY_BUCKETS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// The endpoints the router distinguishes (for per-endpoint counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/lint`
    Lint,
    /// `POST /v1/layout`
    Layout,
    /// `POST /v1/simulate`
    Simulate,
    /// `POST /v1/analyze`
    Analyze,
    /// `POST /v1/advise`
    Advise,
    /// `GET /metrics`
    Metrics,
    /// Anything else (404/405/400 paths).
    Other,
}

impl Endpoint {
    /// Every endpoint, in discriminant order: a counter array's index.
    const ALL: [Endpoint; 7] = [
        Endpoint::Lint,
        Endpoint::Layout,
        Endpoint::Simulate,
        Endpoint::Analyze,
        Endpoint::Advise,
        Endpoint::Metrics,
        Endpoint::Other,
    ];

    /// Stable label used in the metrics document.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Lint => "lint",
            Endpoint::Layout => "layout",
            Endpoint::Simulate => "simulate",
            Endpoint::Analyze => "analyze",
            Endpoint::Advise => "advise",
            Endpoint::Metrics => "metrics",
            Endpoint::Other => "other",
        }
    }
}

/// Atomic counter block for the whole service.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: [AtomicU64; Endpoint::ALL.len()],
    status_2xx: AtomicU64,
    status_4xx: AtomicU64,
    status_5xx: AtomicU64,
    /// 503s written by the accept loop without dispatching a worker.
    shed: AtomicU64,
    /// Connections accepted into the worker pool.
    connections: AtomicU64,
    /// Requests dropped because the bytes never parsed as HTTP.
    read_errors: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    latency_sum_us: AtomicU64,
    latency_count: AtomicU64,
    /// Per-endpoint latency histograms (same bucket bounds).
    endpoint_latency: [[AtomicU64; LATENCY_BUCKETS_US.len() + 1]; Endpoint::ALL.len()],
    endpoint_latency_sum_us: [AtomicU64; Endpoint::ALL.len()],
    queue_depth: AtomicU64,
    queue_peak: AtomicU64,
    /// Connections currently open in the reactor (gauge).
    connections_open: AtomicU64,
    /// High-water mark of `connections_open`.
    connections_peak: AtomicU64,
}

impl Metrics {
    /// A zeroed counter block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one routed request: endpoint, response status, and
    /// handler latency in microseconds.
    pub fn record(&self, endpoint: Endpoint, status: u16, micros: u64) {
        self.requests[endpoint as usize].fetch_add(1, Relaxed);
        match status {
            200..=299 => &self.status_2xx,
            400..=499 => &self.status_4xx,
            _ => &self.status_5xx,
        }
        .fetch_add(1, Relaxed);
        let bucket = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| micros <= b)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.latency[bucket].fetch_add(1, Relaxed);
        self.latency_sum_us.fetch_add(micros, Relaxed);
        self.latency_count.fetch_add(1, Relaxed);
        self.endpoint_latency[endpoint as usize][bucket].fetch_add(1, Relaxed);
        self.endpoint_latency_sum_us[endpoint as usize].fetch_add(micros, Relaxed);
    }

    /// Records a load-shedding 503 written from the reactor.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Relaxed);
    }

    /// Records an accepted connection (cumulative).
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Relaxed);
    }

    /// Raises the open-connections gauge (and its high-water mark).
    pub fn connection_opened(&self) {
        let now = self.connections_open.fetch_add(1, Relaxed) + 1;
        self.connections_peak.fetch_max(now, Relaxed);
    }

    /// Lowers the open-connections gauge.
    pub fn connection_closed(&self) {
        self.connections_open.fetch_sub(1, Relaxed);
    }

    /// High-water mark of concurrently open connections.
    #[must_use]
    pub fn connections_peak(&self) -> u64 {
        self.connections_peak.load(Relaxed)
    }

    /// Records a connection whose bytes never parsed as a request.
    pub fn record_read_error(&self) {
        self.read_errors.fetch_add(1, Relaxed);
    }

    /// Updates the queue-depth gauge (and its high-water mark).
    pub fn set_queue_depth(&self, depth: usize) {
        let depth = depth as u64;
        self.queue_depth.store(depth, Relaxed);
        self.queue_peak.fetch_max(depth, Relaxed);
    }

    /// Requests routed so far (all endpoints).
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        Endpoint::ALL
            .iter()
            .map(|&e| self.requests[e as usize].load(Relaxed))
            .sum()
    }

    /// The `GET /metrics` document. `session` supplies the evaluation
    /// counters for the `sim` object: every request session's
    /// [`SimSession::counters`](impact_experiments::session::SimSession::counters)
    /// summed by [`SimMetrics::add`], which leaves out the per-stream
    /// records that would grow without bound in a long-lived service.
    #[must_use]
    pub fn to_json(&self, session: &SimMetrics) -> Json {
        let by_endpoint = Json::Obj(
            Endpoint::ALL
                .iter()
                .map(|&e| {
                    (
                        e.label().to_string(),
                        self.requests[e as usize].load(Relaxed).to_json(),
                    )
                })
                .collect(),
        );
        let buckets = render_buckets(&self.latency);
        let by_endpoint_latency = Json::Obj(
            Endpoint::ALL
                .iter()
                .map(|&e| {
                    let count = self.requests[e as usize].load(Relaxed);
                    let sum = self.endpoint_latency_sum_us[e as usize].load(Relaxed);
                    (
                        e.label().to_string(),
                        Json::Obj(vec![
                            (
                                "buckets".to_string(),
                                render_buckets(&self.endpoint_latency[e as usize]),
                            ),
                            ("sum_us".to_string(), sum.to_json()),
                            ("count".to_string(), count.to_json()),
                            (
                                "mean_us".to_string(),
                                if count == 0 {
                                    0.0
                                } else {
                                    sum as f64 / count as f64
                                }
                                .to_json(),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        let count = self.latency_count.load(Relaxed);
        let sum = self.latency_sum_us.load(Relaxed);
        Json::Obj(vec![
            (
                "requests_total".to_string(),
                self.total_requests().to_json(),
            ),
            ("requests_by_endpoint".to_string(), by_endpoint),
            (
                "responses_2xx".to_string(),
                self.status_2xx.load(Relaxed).to_json(),
            ),
            (
                "responses_4xx".to_string(),
                self.status_4xx.load(Relaxed).to_json(),
            ),
            (
                "responses_5xx".to_string(),
                self.status_5xx.load(Relaxed).to_json(),
            ),
            ("shed_503".to_string(), self.shed.load(Relaxed).to_json()),
            (
                "connections".to_string(),
                self.connections.load(Relaxed).to_json(),
            ),
            (
                "connections_open".to_string(),
                self.connections_open.load(Relaxed).to_json(),
            ),
            (
                "connections_peak".to_string(),
                self.connections_peak.load(Relaxed).to_json(),
            ),
            (
                "read_errors".to_string(),
                self.read_errors.load(Relaxed).to_json(),
            ),
            (
                "queue_depth".to_string(),
                self.queue_depth.load(Relaxed).to_json(),
            ),
            (
                "queue_peak".to_string(),
                self.queue_peak.load(Relaxed).to_json(),
            ),
            ("latency_us_buckets".to_string(), buckets),
            ("latency_by_endpoint".to_string(), by_endpoint_latency),
            ("latency_us_sum".to_string(), sum.to_json()),
            ("latency_count".to_string(), count.to_json()),
            (
                "latency_us_mean".to_string(),
                if count == 0 {
                    0.0
                } else {
                    sum as f64 / count as f64
                }
                .to_json(),
            ),
            ("sim".to_string(), Json::Obj(session.counter_fields())),
        ])
    }
}

/// Renders one histogram (shared bounds + overflow) as a JSON array.
fn render_buckets(counts: &[AtomicU64; LATENCY_BUCKETS_US.len() + 1]) -> Json {
    let mut buckets: Vec<Json> = Vec::with_capacity(counts.len());
    for (i, &bound) in LATENCY_BUCKETS_US.iter().enumerate() {
        buckets.push(Json::Obj(vec![
            ("le_us".to_string(), bound.to_json()),
            ("count".to_string(), counts[i].load(Relaxed).to_json()),
        ]));
    }
    buckets.push(Json::Obj(vec![
        ("le_us".to_string(), Json::Null),
        (
            "count".to_string(),
            counts[LATENCY_BUCKETS_US.len()].load(Relaxed).to_json(),
        ),
    ]));
    Json::Arr(buckets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new();
        m.record(Endpoint::Simulate, 200, 80);
        m.record(Endpoint::Simulate, 200, 3_000);
        m.record(Endpoint::Lint, 400, 20_000_000);
        m.record_shed();
        m.record_connection();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        m.set_queue_depth(5);
        m.set_queue_depth(2);
        assert_eq!(m.total_requests(), 3);
        for (i, &e) in Endpoint::ALL.iter().enumerate() {
            assert_eq!(e as usize, i, "{e:?} indexes its own counters");
        }
        assert_eq!(m.shed.load(Relaxed), 1);
        assert_eq!(m.connections_peak(), 2);

        let doc = m.to_json(&SimMetrics::default());
        assert_eq!(doc.get("requests_total").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("responses_2xx").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("responses_4xx").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("shed_503").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("queue_depth").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("queue_peak").and_then(Json::as_u64), Some(5));
        let by = doc.get("requests_by_endpoint").unwrap();
        assert_eq!(by.get("simulate").and_then(Json::as_u64), Some(2));
        let buckets = doc
            .get("latency_us_buckets")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(buckets.len(), LATENCY_BUCKETS_US.len() + 1);
        // 80µs → first bucket; 20s → overflow bucket.
        assert_eq!(buckets[0].get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(
            buckets.last().unwrap().get("count").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(doc.get("connections_open").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("connections_peak").and_then(Json::as_u64), Some(2));
        let sim_lat = doc
            .get("latency_by_endpoint")
            .unwrap()
            .get("simulate")
            .unwrap();
        assert_eq!(sim_lat.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(sim_lat.get("sum_us").and_then(Json::as_u64), Some(3_080));
        let sim_buckets = sim_lat.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(sim_buckets[0].get("count").and_then(Json::as_u64), Some(1));
        // The document itself must round-trip through the parser.
        assert_eq!(
            impact_support::json::parse(&doc.to_string_pretty()).as_ref(),
            Ok(&doc)
        );
    }

    #[test]
    fn sim_section_carries_disk_and_store_counters() {
        let m = Metrics::new();
        let sim = SimMetrics {
            disk_served: 3,
            instructions_disk_served: 42,
            store: Some(impact_store::StoreCounters {
                hits: 5,
                ..Default::default()
            }),
            ..SimMetrics::default()
        };
        let doc = m.to_json(&sim);
        let s = doc.get("sim").unwrap();
        assert_eq!(s.get("disk_served").and_then(Json::as_u64), Some(3));
        assert_eq!(
            s.get("instructions_disk_served").and_then(Json::as_u64),
            Some(42)
        );
        assert_eq!(s.get("store_hits").and_then(Json::as_u64), Some(5));
        assert_eq!(s.get("store_corrupt").and_then(Json::as_u64), Some(0));
        // Without an attached store the prefixed counters stay absent.
        let bare = m.to_json(&SimMetrics::default());
        assert!(bare.get("sim").unwrap().get("store_hits").is_none());
        assert_eq!(
            bare.get("sim")
                .unwrap()
                .get("disk_served")
                .and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn sim_object_carries_every_session_counter() {
        let sim = SimMetrics {
            store: Some(impact_store::StoreCounters::default()),
            ..SimMetrics::default()
        };
        let keys = |doc: &Json| -> Vec<String> {
            let Json::Obj(fields) = doc else {
                panic!("not an object: {doc:?}")
            };
            fields.iter().map(|(k, _)| k.clone()).collect()
        };
        let mut expected = keys(&sim.to_json());
        expected.retain(|k| k != "simulations" && k != "tables");
        let served = Metrics::new().to_json(&sim);
        assert_eq!(keys(served.get("sim").unwrap()), expected);
    }
}
