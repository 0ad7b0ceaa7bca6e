//! Wire-level framing tests: raw sockets against a real server, probing
//! exactly the cases the reactor's incremental parser must get right —
//! pipelining, byte-by-byte arrival, oversized heads, slowloris
//! eviction — plus byte-identical equivalence between the socket
//! surface and direct `route()` calls.

mod client;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use client::Client;
use impact_asm::print_program;
use impact_serve::api::{route, AppState};
use impact_serve::http::Request;
use impact_serve::{ServeConfig, Server};
use impact_support::json::Json;

fn start(config: ServeConfig) -> Server {
    Server::start(config).expect("bind ephemeral port")
}

fn default_server() -> Server {
    start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
}

/// Reads one `Content-Length`-framed response off a raw stream.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<(u16, Vec<u8>)> {
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 {
        return None;
    }
    let status: u16 = line.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).ok()?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some((status, body))
}

#[test]
fn pipelined_requests_in_one_segment_answer_in_order() {
    const CONNECTIONS: u64 = 4;
    const DEPTH: u64 = 16;
    let program = Json::Str(print_program(
        &impact_workloads::by_name("cmp").unwrap().program,
    ));
    let reference = AppState::new(1);
    let server = default_server();
    std::thread::scope(|scope| {
        for conn in 0..CONNECTIONS {
            let (program, reference, addr) = (&program, &reference, server.addr());
            scope.spawn(move || {
                // A mix of memo-able, routed and simulated requests; each
                // simulate has its own seed, so none repeats another.
                let requests: Vec<(&str, &str, String)> = (0..DEPTH)
                    .map(|i| match i % 3 {
                        0 => ("GET", "/healthz", String::new()),
                        1 => (
                            "POST",
                            "/v1/lint",
                            format!(r#"{{"program": {program}, "runs": 2, "max_instrs": 40000}}"#),
                        ),
                        _ => (
                            "POST",
                            "/v1/simulate",
                            format!(
                                r#"{{"program": {program}, "seed": {}, "max_instrs": 40000,
                                   "configs": [{{"size": 1024}}]}}"#,
                                conn * DEPTH + i
                            ),
                        ),
                    })
                    .collect();
                // Every request in a single write: the reactor frames them
                // all off one buffer, and the responses must come back in
                // request order.
                let frame: String = requests
                    .iter()
                    .map(|(method, path, body)| {
                        format!(
                            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                            body.len()
                        )
                    })
                    .collect();
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                stream.write_all(frame.as_bytes()).unwrap();
                let mut reader = BufReader::new(stream);
                for (i, (method, path, body)) in requests.iter().enumerate() {
                    let expected = route(
                        reference,
                        &Request {
                            method: (*method).to_string(),
                            target: (*path).to_string(),
                            http11: true,
                            headers: Vec::new(),
                            body: body.as_bytes().to_vec(),
                        },
                    )
                    .1;
                    let (status, got) = read_response(&mut reader)
                        .unwrap_or_else(|| panic!("connection {conn}: response {i} missing"));
                    assert_eq!(status, expected.status, "connection {conn}, {i}: {path}");
                    assert_eq!(
                        got, expected.body,
                        "connection {conn}, {i}: {path} must be byte-identical and in order"
                    );
                }
            });
        }
    });
    server.stop();
}

#[test]
fn request_split_byte_by_byte_parses_when_the_last_byte_lands() {
    let server = default_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let frame = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    for &byte in frame {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
        // A beat between bytes so each arrives as its own segment.
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let (status, body) = read_response(&mut reader).unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"ok\""));
    server.stop();
}

#[test]
fn oversized_request_head_is_rejected_with_431() {
    let server = default_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // A header block that never ends: 32 KiB of header bytes blows the
    // 16 KiB head limit long before any terminator.
    stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let filler = format!("X-Padding: {}\r\n", "y".repeat(4096));
    for _ in 0..8 {
        stream.write_all(filler.as_bytes()).unwrap();
    }
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let (status, _) = read_response(&mut reader).unwrap();
    assert_eq!(status, 431);
    // The server closes after the rejection.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    server.stop();
}

#[test]
fn slowloris_connection_is_evicted_at_the_read_deadline() {
    let server = start(ServeConfig {
        workers: 1,
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Send a partial request head, then stall forever.
    stream.write_all(b"GET /healthz HT").unwrap();
    stream.flush().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let mut sink = Vec::new();
    // The reactor must close the socket (EOF) without ever answering.
    let n = stream.read_to_end(&mut sink).unwrap();
    assert_eq!(n, 0, "no response bytes for an unfinished request");
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(250),
        "evicted too early: {waited:?}"
    );
    assert!(
        waited < Duration::from_secs(5),
        "eviction must come from the deadline, not the test timeout"
    );
    server.stop();
}

#[test]
fn socket_responses_are_byte_identical_to_direct_route_calls() {
    let program = Json::Str(print_program(
        &impact_workloads::by_name("cmp").unwrap().program,
    ));
    let requests = [
        (
            "/v1/lint",
            format!(r#"{{"program": {program}, "runs": 2, "max_instrs": 40000}}"#),
        ),
        (
            "/v1/layout",
            format!(r#"{{"program": {program}, "runs": 2, "max_instrs": 40000}}"#),
        ),
        (
            "/v1/simulate",
            format!(
                r#"{{"program": {program}, "seed": 9, "max_instrs": 40000,
                   "configs": [{{"size": 1024}}]}}"#
            ),
        ),
        (
            "/v1/analyze",
            format!(r#"{{"program": {program}, "cache": 2048, "block": 64}}"#),
        ),
    ];

    // Expected bytes come from route() against a fresh state — the
    // handlers are deterministic, so a separate engine instance must
    // produce the same documents the served instance does.
    let reference = AppState::new(1);
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    for (path, body) in &requests {
        let expected = route(
            &reference,
            &Request {
                method: "POST".to_string(),
                target: (*path).to_string(),
                http11: true,
                headers: Vec::new(),
                body: body.as_bytes().to_vec(),
            },
        )
        .1;
        let over_socket = client.post_json(path, body).unwrap();
        assert_eq!(over_socket.status, expected.status, "{path}");
        assert_eq!(
            over_socket.body, expected.body,
            "{path} must be byte-identical"
        );
        // Second round trip: the response-memo path must return the
        // same bytes as the routed path.
        let repeat = client.post_json(path, body).unwrap();
        assert_eq!(repeat.status, expected.status, "{path} (memo)");
        assert_eq!(
            repeat.body, expected.body,
            "{path} (memo) must be byte-identical"
        );
    }
    assert!(
        server.state().rcache.hit_count() >= requests.len() as u64,
        "repeats must be served by the response memo"
    );
    server.stop();
}
