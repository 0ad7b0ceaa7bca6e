//! End-to-end tests of the `impact` command-line binary.

use std::path::PathBuf;
use std::process::Command;

#[path = "../crates/serve/tests/client/mod.rs"]
mod client;

fn impact_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_impact"))
}

/// Writes a small test program to a temp file, returns its path.
fn sample_file(name: &str) -> PathBuf {
    let src = r#"
program entry=main
fn main {
  init:
    ialu x4
    jmp loop
  loop:
    load
    ialu x2
    call work -> latch
  latch:
    br loop done p=0.999 spread=0.0005
  done:
    exit
}
fn work {
  body:
    ialu x5
    store
    ret
}
"#;
    let path = std::env::temp_dir().join(format!("impact_cli_test_{name}.impact"));
    std::fs::write(&path, src).expect("temp file is writable");
    path
}

#[test]
fn report_describes_the_program() {
    let file = sample_file("report");
    let out = impact_bin()
        .args(["report", file.to_str().unwrap(), "--max-instrs", "200000"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 functions"), "{text}");
    assert!(text.contains("work"), "{text}");
    assert!(text.contains("invocations"), "{text}");
}

#[test]
fn sim_reports_cache_statistics() {
    let file = sample_file("sim");
    let out = impact_bin()
        .args([
            "sim",
            file.to_str().unwrap(),
            "--cache",
            "512",
            "--block",
            "64",
            "--max-instrs",
            "200000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("miss"), "{text}");
    assert!(text.contains("optimized layout"), "{text}");
}

#[test]
fn sim_marks_a_walk_cut_by_the_call_depth_cap() {
    // Unbounded self-recursion stops at the 512-frame cap after a few
    // thousand instructions, far below the instruction cap.
    let recursive = std::env::temp_dir().join("impact_cli_test_recursive.impact");
    std::fs::write(
        &recursive,
        r#"
program entry=main
fn main {
  start:
    ialu x2
    call f -> done
  done:
    exit
}
fn f {
  body:
    ialu x3
    call f -> back
  back:
    ret
}
"#,
    )
    .expect("temp file is writable");
    let sim = |file: &PathBuf| {
        let out = impact_bin()
            .args(["sim", file.to_str().unwrap(), "--no-optimize"])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let text = sim(&recursive);
    assert!(text.contains("(truncated)"), "{text}");
    let text = sim(&sample_file("sim_untruncated"));
    assert!(!text.contains("(truncated)"), "{text}");
}

#[test]
fn optimize_round_trips_through_the_text_format() {
    let file = sample_file("optimize");
    let out_path = std::env::temp_dir().join("impact_cli_test_optimized.impact");
    let out = impact_bin()
        .args([
            "optimize",
            file.to_str().unwrap(),
            "-o",
            out_path.to_str().unwrap(),
            "--max-instrs",
            "200000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The emitted file must itself be a valid program the CLI can re-simulate.
    let out2 = impact_bin()
        .args([
            "sim",
            out_path.to_str().unwrap(),
            "--no-optimize",
            "--max-instrs",
            "200000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out2.status.success(),
        "{}",
        String::from_utf8_lossy(&out2.stderr)
    );
}

#[test]
fn trace_then_simtrace_round_trips() {
    let file = sample_file("trace");
    let din = std::env::temp_dir().join("impact_cli_test.din");
    let out = impact_bin()
        .args([
            "trace",
            file.to_str().unwrap(),
            "-o",
            din.to_str().unwrap(),
            "--max-instrs",
            "50000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = impact_bin()
        .args(["simtrace", din.to_str().unwrap(), "--cache", "2048"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fetches"), "{text}");
}

#[test]
fn bad_input_fails_with_a_line_numbered_error() {
    let path = std::env::temp_dir().join("impact_cli_test_bad.impact");
    std::fs::write(
        &path,
        "program entry=main\nfn main {\n a:\n  jmp nowhere\n}\n",
    )
    .unwrap();
    let out = impact_bin()
        .args(["report", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 4"), "{err}");
}

#[test]
fn bad_budgets_are_usage_errors_not_panics() {
    let file = sample_file("budgets");
    let din = std::env::temp_dir().join(format!("impact_cli_budgets_{}.din", std::process::id()));
    let run_with = |command: &str, flag: &str, extra: &[&str]| {
        let out = impact_bin()
            .args([command, file.to_str().unwrap(), flag, "0"])
            .args(extra)
            .output()
            .expect("binary runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let run = |command: &str, flag: &str| run_with(command, flag, &[]);
    for command in ["report", "optimize", "viz"] {
        let (code, err) = run(command, "--runs");
        assert_eq!(code, Some(1), "{command} --runs 0: {err}");
        assert!(err.contains("runs must be a positive integer"), "{err}");
    }
    // The pipeline's own check, the one `/v1/layout` answers 400 with.
    for command in ["optimize", "viz"] {
        let (code, err) = run(command, "--max-instrs");
        assert_eq!(code, Some(1), "{command} --max-instrs 0: {err}");
        assert!(
            err.contains("bad pipeline config: limits.max_instructions must be nonzero"),
            "{err}"
        );
    }
    // A zero cap is refused where no pipeline runs, too: the natural
    // layout and the profile-only report check the same budget.
    let din_path = din.to_str().unwrap();
    for (command, extra) in [
        ("sim", &["--no-optimize"][..]),
        ("trace", &["--no-optimize", "-o", din_path][..]),
        ("report", &[][..]),
    ] {
        let (code, err) = run_with(command, "--max-instrs", extra);
        assert_eq!(code, Some(1), "{command} {extra:?} --max-instrs 0: {err}");
        assert!(
            err.contains("limits.max_instructions must be nonzero"),
            "{err}"
        );
    }
    assert!(!din.exists(), "a refused trace writes no file");
}

#[test]
fn unknown_subcommand_prints_usage() {
    let out = impact_bin().args(["frobnicate"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn serve_binds_answers_and_shuts_down_on_stdin_eof() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::process::Stdio;

    let mut child = impact_bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");

    // First stdout line announces the bound address.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .expect("serve prints its address");
    let addr = line
        .trim()
        .strip_prefix("serving on http://")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();

    // One round trip over plain TCP.
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect to serve");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read response");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.contains("\"ok\""), "{reply}");

    // Closing stdin must shut the server down cleanly.
    drop(child.stdin.take());
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("shut down cleanly"), "{rest}");
}

#[test]
fn serve_rejects_bad_flags() {
    let out = impact_bin()
        .args(["serve", "--workers", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workers must be"));

    // Shard mode is gone: its flag is an unknown option.
    let out = impact_bin()
        .args(["serve", "--peers", "127.0.0.1:7001"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --peers"));

    // One flag per setting: the deadlines are set only one at a time.
    let out = impact_bin()
        .args(["serve", "--timeout-ms", "5"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --timeout-ms"));
}

/// Spawns `impact serve` with the given extra flags, returning the child
/// and its announced address. Dropping the child's stdin shuts it down.
fn spawn_serve(extra: &[&str]) -> (std::process::Child, String) {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = impact_bin()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let stdout = child.stdout.take().unwrap();
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("serve prints its address");
    let addr = line
        .trim()
        .strip_prefix("serving on http://")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    // Hand stdout back so the pipe outlives this function — closing it
    // would SIGPIPE the server when it logs its shutdown line.
    child.stdout = Some(reader.into_inner());
    (child, addr)
}

/// End-to-end acceptance of the persistent store: a restarted server
/// answers a previously-seen /v1/simulate body byte-identically from
/// disk, without streaming a trace, over real sockets.
#[test]
fn serve_with_store_restarts_warm() {
    use client::Client;
    use impact::support::json::{parse, Json};

    let store_dir =
        std::env::temp_dir().join(format!("impact_cli_serve_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store_flag = store_dir.to_str().unwrap().to_string();

    let program = std::fs::read_to_string(sample_file("serve_store")).unwrap();
    let body = format!(
        r#"{{"program": {}, "seed": 5, "max_instrs": 30000,
           "configs": [{{"size": 1024}}, {{"size": 256, "assoc": 2}}]}}"#,
        Json::Str(program).to_string_pretty(),
    );

    // Cold process: streams the trace, persists results.
    let (mut child, addr) = spawn_serve(&["--store", &store_flag]);
    let mut client = Client::connect(addr.parse().unwrap()).expect("connect");
    let first = client.post_json("/v1/simulate", &body).expect("simulate");
    assert_eq!(
        first.status,
        200,
        "{}",
        String::from_utf8_lossy(&first.body)
    );
    drop(child.stdin.take());
    assert!(child.wait().expect("serve exits").success());

    // Restarted process, same store: the repeat is disk-served,
    // byte-identically.
    let (mut child, addr) = spawn_serve(&["--store", &store_flag]);
    let mut client = Client::connect(addr.parse().unwrap()).expect("connect");
    let again = client.post_json("/v1/simulate", &body).expect("simulate");
    assert_eq!(again.status, 200);
    assert_eq!(again.body, first.body, "restart must not change bytes");

    let (status, metrics) = client.get("/metrics").expect("metrics");
    assert_eq!(status, 200);
    let doc = parse(std::str::from_utf8(&metrics).unwrap()).unwrap();
    let sim = doc.get("sim").expect("sim section");
    assert_eq!(sim.get("traces_streamed").and_then(Json::as_u64), Some(0));
    assert_eq!(sim.get("disk_served").and_then(Json::as_u64), Some(1));
    assert_eq!(sim.get("replays").and_then(Json::as_u64), Some(0));
    assert!(sim.get("store_hits").and_then(Json::as_u64).unwrap() >= 2);

    drop(child.stdin.take());
    assert!(child.wait().expect("serve exits").success());
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn store_subcommand_inspects_verifies_and_gcs() {
    use impact::store::{kind, Cid, Store};

    let dir = std::env::temp_dir().join(format!("impact_cli_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("open store");
    let payloads: [&[u8]; 3] = [
        &[kind::ARTIFACT, 1, 2, 3],
        &[kind::RESULT, 4, 5],
        &[kind::RESULT, 6],
    ];
    let cids: Vec<Cid> = payloads
        .iter()
        .map(|p| {
            let cid = Cid::of(p);
            store.put(&cid, p).expect("put");
            cid
        })
        .collect();
    let dir_flag = dir.to_str().unwrap();

    // ls: every cid listed with its kind label.
    let out = impact_bin()
        .args(["store", "ls", dir_flag])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3 entries"), "{text}");
    assert!(text.contains(&cids[0].to_hex()), "{text}");
    assert!(text.contains("artifact"), "{text}");
    assert!(text.contains("result"), "{text}");

    // stat --json: aggregate counts.
    let out = impact_bin()
        .args(["store", "stat", dir_flag, "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"entries\": 3"), "{text}");
    assert!(text.contains("\"artifacts\": 1"), "{text}");
    assert!(text.contains("\"results\": 2"), "{text}");

    // verify: clean store passes.
    let out = impact_bin()
        .args(["store", "verify", dir_flag])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("3 ok"));

    // Corrupt one payload byte on disk: verify must quarantine it and
    // exit nonzero.
    let hex = cids[0].to_hex();
    let victim = dir.join("objects").join(&hex[..2]).join(&hex);
    let mut raw = std::fs::read(&victim).expect("read entry");
    let last = raw.len() - 1;
    raw[last] ^= 0x40;
    std::fs::write(&victim, &raw).expect("rewrite entry");
    let out = impact_bin()
        .args(["store", "verify", dir_flag])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "corruption must fail verify");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 quarantined"), "{text}");
    assert!(text.contains(&hex), "{text}");

    // gc --max-bytes 0 clears the remaining entries.
    let out = impact_bin()
        .args(["store", "gc", dir_flag, "--max-bytes", "0", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"removed\": 2"), "{text}");
    assert!(text.contains("\"kept_bytes\": 0"), "{text}");

    // gc without a budget is an error, as is a missing directory action.
    let out = impact_bin()
        .args(["store", "gc", dir_flag])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--max-bytes"));
    let out = impact_bin()
        .args(["store", "frobnicate", dir_flag])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
