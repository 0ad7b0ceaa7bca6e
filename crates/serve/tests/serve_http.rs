//! End-to-end tests: a real `Server` on an ephemeral port, driven by
//! parallel TCP clients through the full mixed workload.

mod client;

use std::sync::{mpsc, Barrier};
use std::thread;
use std::time::Duration;

use client::Client;
use impact_asm::{parse_program, print_program};
use impact_cache::CacheConfig;
use impact_experiments::session::SimSession;
use impact_layout::baseline;
use impact_profile::ExecLimits;
use impact_serve::http::Response;
use impact_serve::{simulate_response_json, ServeConfig, Server};
use impact_store::Store;
use impact_support::json::{parse as parse_json, Json};

fn start() -> Server {
    Server::start(ServeConfig {
        workers: 4,
        queue_cap: 64,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

fn program_text() -> String {
    print_program(&impact_workloads::by_name("cmp").unwrap().program)
}

fn simulate_body(program: &Json, seed: u64) -> String {
    format!(
        r#"{{"program": {program}, "seed": {seed}, "max_instrs": 40000,
           "configs": [{{"size": 2048}}, {{"size": 512}}]}}"#
    )
}

/// The configs of [`simulate_body`].
fn body_configs() -> [CacheConfig; 2] {
    [
        CacheConfig::direct_mapped(2048, 64),
        CacheConfig::direct_mapped(512, 64),
    ]
}

/// The `/v1/simulate` reply to a natural-layout body, rebuilt from a
/// direct `SimSession` evaluation of the same request.
fn direct_reply(text: &str, seed: u64, max_instrs: u64, configs: &[CacheConfig]) -> Vec<u8> {
    let parsed = parse_program(text).unwrap();
    let placement = baseline::natural(&parsed);
    let limits = ExecLimits::capped(max_instrs);
    let mut session = SimSession::new();
    let handle = session.request(&parsed, &placement, seed, limits, configs);
    session.execute();
    let (stats, instructions) = session.counted(&handle);
    let doc = simulate_response_json("natural", seed, configs, &stats, instructions);
    Response::json(200, &doc).body
}

/// The `/metrics` `sim` object, scraped over HTTP.
fn sim_metrics(client: &mut Client) -> Json {
    let (status, body) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    let doc = parse_json(std::str::from_utf8(&body).unwrap()).unwrap();
    doc.get("sim").unwrap().clone()
}

/// A scratch store directory, unique to this process and `tag`.
fn store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("impact-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn parallel_mixed_workload_end_to_end() {
    let server = start();
    let addr = server.addr();
    let program = Json::Str(program_text());

    // Four clients, each driving every endpoint over one keep-alive
    // connection, all at once.
    thread::scope(|scope| {
        for seed in 1..=4u64 {
            let program = &program;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let lint = format!(r#"{{"program": {program}, "runs": 2, "max_instrs": 40000}}"#);
                let resp = client.post_json("/v1/lint", &lint).unwrap();
                assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                let resp = client.post_json("/v1/layout", &lint).unwrap();
                assert_eq!(resp.status, 200);
                let resp = client
                    .post_json("/v1/simulate", &simulate_body(program, seed))
                    .unwrap();
                assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                let (status, body) = client.get("/metrics").unwrap();
                assert_eq!(status, 200);
                assert!(!body.is_empty());
            });
        }
    });

    // Every request must be accounted for in the metrics document.
    let mut client = Client::connect(addr).unwrap();
    let (_, body) = client.get("/metrics").unwrap();
    let doc = parse_json(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(doc.get("requests_total").and_then(Json::as_u64).unwrap() >= 16);
    let by = doc.get("requests_by_endpoint").unwrap();
    assert_eq!(by.get("simulate").and_then(Json::as_u64), Some(4));
    assert_eq!(by.get("lint").and_then(Json::as_u64), Some(4));
    // Connection gauges: this scrape's own connection is open now, and
    // the four parallel clients pushed the peak to at least 4.
    assert!(doc.get("connections_open").and_then(Json::as_u64).unwrap() >= 1);
    assert!(doc.get("connections_peak").and_then(Json::as_u64).unwrap() >= 4);
    // Per-endpoint latency histograms: the simulate histogram must hold
    // exactly the simulate requests.
    let sim_latency = doc
        .get("latency_by_endpoint")
        .unwrap()
        .get("simulate")
        .unwrap();
    assert_eq!(sim_latency.get("count").and_then(Json::as_u64), Some(4));
    let buckets = sim_latency.get("buckets").and_then(Json::as_arr).unwrap();
    let total: u64 = buckets
        .iter()
        .map(|b| b.get("count").and_then(Json::as_u64).unwrap())
        .sum();
    assert_eq!(total, 4);
    // The response memo appears in the document with its hit counters.
    let rc = doc.get("response_cache").unwrap();
    assert!(rc.get("insertions").and_then(Json::as_u64).unwrap() >= 1);
    server.stop();
}

#[test]
fn simulate_is_bit_identical_to_direct_session_and_memoized() {
    let server = start();
    let text = program_text();
    let program = Json::Str(text.clone());
    let body = simulate_body(&program, 7);

    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client.post_json("/v1/simulate", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

    assert_eq!(
        resp.body,
        direct_reply(&text, 7, 40_000, &body_configs()),
        "service must be bit-identical"
    );

    // Re-evaluating the same exact body from several parallel clients
    // must not touch the evaluation engine again: the reactor answers
    // repeats from the byte-exact response memo (and every repeat body
    // must match the first response bit for bit).
    let streamed_before = server.state().sim_counters().traces_streamed;
    assert_eq!(streamed_before, 1);
    let first_body = resp.body.clone();
    thread::scope(|scope| {
        for _ in 0..4 {
            let body = &body;
            let first_body = &first_body;
            let addr = server.addr();
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..3 {
                    let resp = client.post_json("/v1/simulate", body).unwrap();
                    assert_eq!(resp.status, 200);
                    assert_eq!(&resp.body, first_body, "memo hits must be byte-identical");
                }
            });
        }
    });
    let metrics = server.state().sim_counters();
    assert_eq!(
        metrics.traces_streamed, streamed_before,
        "repeat placements must not re-stream"
    );
    assert!(
        server.state().rcache.hit_count() >= 12,
        "repeats are served by the response memo, not the workers"
    );
    server.stop();
}

/// Posts two simulate bodies over one trace key (seed 5), each with a
/// config the other lacks, to a server with or without a store. Both
/// responses must be byte-identical to a direct `SimSession`
/// evaluation; returns the `/metrics` `sim` object.
fn late_config_demand(store_dir: Option<String>) -> Json {
    let server = Server::start(ServeConfig {
        workers: 4,
        queue_cap: 64,
        store_dir,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let text = program_text();
    let program = Json::Str(text.clone());
    let mut client = Client::connect(server.addr()).unwrap();
    // The first demand walks the interpreter; the second is the same
    // trace key with another config, so the response memo misses and its
    // own session must deliver the trace again.
    for size in [2048u64, 1024] {
        let body = format!(
            r#"{{"program": {program}, "seed": 5, "max_instrs": 40000,
               "configs": [{{"size": {size}}}]}}"#
        );
        let resp = client.post_json("/v1/simulate", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let configs = [CacheConfig::direct_mapped(size, 64)];
        let expected = direct_reply(&text, 5, 40_000, &configs);
        assert_eq!(resp.body, expected, "size {size}: bit-identical");
    }
    let sim = sim_metrics(&mut client);
    server.stop();
    sim
}

#[test]
fn store_backed_repeat_config_demand_rewalks_the_trace() {
    let dir = store_dir("late");
    let sim = late_config_demand(Some(dir.to_str().unwrap().to_string()));
    let _ = std::fs::remove_dir_all(&dir);
    // The store holds results only: the late config is not on disk, so
    // its session walks the trace again.
    assert_eq!(sim.get("traces_streamed").and_then(Json::as_u64), Some(2));
    assert_eq!(sim.get("disk_served").and_then(Json::as_u64), Some(0));
    assert!(sim.get("replays").is_none());
}

#[test]
fn storeless_repeat_config_demand_rewalks_the_trace() {
    let sim = late_config_demand(None);
    assert_eq!(sim.get("traces_streamed").and_then(Json::as_u64), Some(2));
}

/// One block that branches to itself with probability 1: its walk runs
/// until the body's instruction cap stops it.
const SPIN: &str =
    "program entry=main\nfn main {\n  bb0:\n    br bb0 bb1 p=1\n  bb1:\n    ret\n}\n";

/// About a second of walking [`SPIN`] in either build profile.
const SPIN_INSTRS: u64 = if cfg!(debug_assertions) {
    1 << 23
} else {
    1 << 26
};

#[test]
fn a_long_walk_does_not_stall_a_short_simulate() {
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    let spin_configs = [CacheConfig::direct_mapped(2048, 64)];
    let long = format!(
        r#"{{"program": {}, "seed": 3, "max_instrs": {SPIN_INSTRS}, "configs": [{{"size": 2048}}]}}"#,
        Json::Str(SPIN.to_string())
    );
    let text = program_text();
    let short = simulate_body(&Json::Str(text.clone()), 9);

    let (done, arrivals) = mpsc::channel();
    thread::scope(|scope| {
        let post = |label: &'static str, body: &str| {
            let done = done.clone();
            let body = body.to_string();
            move || {
                let mut client = Client::connect(addr).unwrap();
                let resp = client.post_json("/v1/simulate", &body).unwrap();
                assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                done.send((label, resp.body)).unwrap();
            }
        };
        scope.spawn(post("long", &long));
        // Once the reactor has queued the long body, an idle worker takes
        // it and starts walking; only then does the short body go out.
        let queued = || {
            let doc = server.state().metrics.to_json(&Default::default());
            doc.get("queue_peak").and_then(Json::as_u64) >= Some(1)
        };
        while !queued() {
            thread::sleep(Duration::from_millis(1));
        }
        thread::sleep(Duration::from_millis(50));
        scope.spawn(post("short", &short));
    });
    drop(done);
    let arrivals: Vec<_> = arrivals.iter().collect();
    server.stop();

    let order: Vec<_> = arrivals.iter().map(|(label, _)| *label).collect();
    assert_eq!(
        order,
        ["short", "long"],
        "the short simulate waited for the long walk"
    );
    let expected_short = direct_reply(&text, 9, 40_000, &body_configs());
    let expected_long = direct_reply(SPIN, 3, SPIN_INSTRS, &spin_configs);
    assert_eq!(arrivals[0].1, expected_short);
    assert_eq!(arrivals[1].1, expected_long);
}

#[test]
fn concurrent_simulates_equal_the_direct_session() {
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_cap: 64,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    let texts: Vec<String> = ["cmp", "wc", "tee"]
        .iter()
        .map(|w| print_program(&impact_workloads::by_name(w).unwrap().program))
        .collect();
    let programs: Vec<Json> = texts.iter().map(|t| Json::Str(t.clone())).collect();
    // 32 distinct seeds, eight per client; the seed picks the workload.
    let replies: Vec<(u64, Vec<u8>)> = thread::scope(|scope| {
        let clients: Vec<_> = (0..4u64)
            .map(|c| {
                let programs = &programs;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    (c * 8..c * 8 + 8)
                        .map(|seed| {
                            let body = simulate_body(&programs[seed as usize % 3], seed);
                            let resp = client.post_json("/v1/simulate", &body).unwrap();
                            assert_eq!(resp.status, 200);
                            (seed, resp.body)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    assert_eq!(replies.len(), 32);
    let mut instructions = 0;
    for (seed, body) in &replies {
        let text = &texts[*seed as usize % 3];
        let expected = direct_reply(text, *seed, 40_000, &body_configs());
        assert_eq!(body, &expected, "seed {seed}: bit-identical");
        let doc = parse_json(std::str::from_utf8(body).unwrap()).unwrap();
        instructions += doc.get("instructions").and_then(Json::as_u64).unwrap();
    }
    let sim = sim_metrics(&mut Client::connect(addr).unwrap());
    server.stop();
    assert_eq!(sim.get("traces_streamed").and_then(Json::as_u64), Some(32));
    assert_eq!(
        sim.get("instructions_interpreted").and_then(Json::as_u64),
        Some(instructions)
    );
}

#[test]
fn concurrent_identical_simulates_share_one_store() {
    let dir = store_dir("concurrent");
    let config = ServeConfig {
        workers: 2,
        queue_cap: 64,
        store_dir: Some(dir.to_str().unwrap().to_string()),
        ..ServeConfig::default()
    };
    let text = program_text();
    let body = simulate_body(&Json::Str(text.clone()), 21);

    // Four clients post one body at once: whichever walk, every reply is
    // the same bytes, and concurrent puts of one key leave one entry.
    let server = Server::start(config.clone()).expect("bind ephemeral port");
    let addr = server.addr();
    let start = Barrier::new(4);
    let replies: Vec<Vec<u8>> = thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let (start, body) = (&start, &body);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    start.wait();
                    let resp = client.post_json("/v1/simulate", body).unwrap();
                    assert_eq!(resp.status, 200);
                    resp.body
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    server.stop();
    let expected = direct_reply(&text, 21, 40_000, &body_configs());
    for reply in &replies {
        assert_eq!(reply, &expected, "every concurrent reply is bit-identical");
    }
    let report = Store::open(&dir).unwrap().verify();
    assert!(report.checked >= 1);
    assert_eq!(
        report.ok, report.checked,
        "quarantined {:?}",
        report.quarantined
    );

    // A restarted server answers the body from disk, to the same bytes.
    let server = Server::start(config).expect("bind ephemeral port");
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client.post_json("/v1/simulate", &body).unwrap();
    assert_eq!(resp.body, expected);
    let sim = sim_metrics(&mut client);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(sim.get("traces_streamed").and_then(Json::as_u64), Some(0));
    assert!(sim.get("disk_served").and_then(Json::as_u64) >= Some(1));
}

#[test]
fn bad_json_reports_the_position_over_http() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client
        .post_json("/v1/simulate", "{\n  \"program\": oops}")
        .unwrap();
    assert_eq!(resp.status, 400);
    let doc = parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let msg = doc.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("line 2"), "{msg}");
    server.stop();
}

#[test]
fn overload_sheds_and_recovery_serves_again() {
    // queue_cap = 0: the reactor sheds every dispatched request.
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    let metrics = server.state().metrics.to_json(&Default::default());
    assert!(metrics.get("shed_503").and_then(Json::as_u64) >= Some(1));
    server.stop();

    // A normally-provisioned server accepts the same traffic.
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.get("/healthz").unwrap().0, 200);
    server.stop();
}

#[test]
fn graceful_shutdown_finishes_inflight_then_refuses() {
    let server = start();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.get("/healthz").unwrap().0, 200);

    let flag = server.shutdown_flag();
    let waiter = thread::spawn(move || server.wait());
    flag.store(true, std::sync::atomic::Ordering::SeqCst);
    waiter.join().unwrap();

    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.get("/healthz").is_err(),
    };
    assert!(refused, "listener must be closed after shutdown");
}
