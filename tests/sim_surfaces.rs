//! Each program endpoint and its CLI twin are one request layer. `impact
//! sim --json` and `impact optimize --json` print the `/v1/simulate` and
//! `/v1/layout` bodies byte for byte, `lint`, `analyze` and `advise` emit
//! their route's document as a `--json` array entry, `sim` and
//! `/v1/simulate` accept the same `assoc` and `fill` forms, and refuse a
//! zero budget with the same message.

use std::path::PathBuf;
use std::process::{Command, Output};

use impact::serve::api::{route, AppState};
use impact::serve::Request;
use impact::support::json::{parse, Json};

/// Writes the bundled `cmp` workload as an `.impact` file; returns its
/// path and text.
fn cmp_program(tag: &str) -> (PathBuf, String) {
    let text = impact::asm::print_program(&impact::workloads::by_name("cmp").unwrap().program);
    let path = std::env::temp_dir().join(format!(
        "impact_sim_surfaces_{tag}_{}.impact",
        std::process::id()
    ));
    std::fs::write(&path, &text).expect("temp file is writable");
    (path, text)
}

fn cli(command: &str, file: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_impact"))
        .arg(command)
        .arg(file)
        .args(args)
        .output()
        .expect("binary runs")
}

/// `route`'s reply to a `POST` of `body` to `/v1/{endpoint}`: status and
/// body bytes.
fn serve_at(endpoint: &str, body: &str) -> (u16, Vec<u8>) {
    let req = Request {
        method: "POST".to_string(),
        target: format!("/v1/{endpoint}"),
        http11: true,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    let (_, resp) = route(&AppState::new(1), &req);
    (resp.status, resp.body)
}

fn serve(body: &str) -> (u16, Vec<u8>) {
    serve_at("simulate", body)
}

#[test]
fn sim_json_equals_the_simulate_route_in_both_layouts() {
    let (file, text) = cmp_program("layouts");
    let program = Json::Str(text).to_string();
    for (flag, layout) in [(None, "optimized"), (Some("--no-optimize"), "natural")] {
        let mut args = vec![
            "--json",
            "--runs",
            "2",
            "--seed",
            "3",
            "--max-instrs",
            "40000",
            "--cache",
            "1024",
            "--assoc",
            "2",
        ];
        args.extend(flag);
        let out = cli("sim", &file, &args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let body = format!(
            r#"{{"program": {program}, "layout": "{layout}", "runs": 2, "seed": 3,
                "max_instrs": 40000, "configs": [{{"size": 1024, "assoc": 2}}]}}"#
        );
        let (status, served) = serve(&body);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&served));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&served),
            "{layout}: CLI and route must print the same document"
        );
    }
    let _ = std::fs::remove_file(file);
}

#[test]
fn zero_budgets_read_the_same_on_both_surfaces() {
    let (file, text) = cmp_program("budgets");
    let program = Json::Str(text).to_string();
    for (flag, field) in [("--max-instrs", "max_instrs"), ("--runs", "runs")] {
        let out = cli("sim", &file, &["--no-optimize", flag, "0"]);
        assert_eq!(out.status.code(), Some(1), "sim {flag} 0");
        // The simulate body's default layout is natural, too.
        let body =
            format!(r#"{{"program": {program}, "{field}": 0, "configs": [{{"size": 2048}}]}}"#);
        let (status, served) = serve(&body);
        assert_eq!(status, 400, "{field}: 0");
        let doc = parse(std::str::from_utf8(&served).unwrap()).unwrap();
        let message = doc.get("error").and_then(Json::as_str).unwrap();
        assert_eq!(String::from_utf8_lossy(&out.stderr).trim_end(), message);
    }
    let _ = std::fs::remove_file(file);
}

#[test]
fn assoc_and_fill_forms_match_across_cli_and_serve() {
    let (file, text) = cmp_program("forms");
    let program = Json::Str(text).to_string();
    let cli = |flag: &str, value: &str| {
        let args = [
            "--json",
            "--no-optimize",
            "--max-instrs",
            "5000",
            "--cache",
            "1024",
            flag,
            value,
        ];
        cli("sim", &file, &args)
    };
    let served = |flag: &str, json: &str| {
        let field = flag.trim_start_matches("--");
        serve(&format!(
            r#"{{"program": {program}, "max_instrs": 5000,
                "configs": [{{"size": 1024, "{field}": {json}}}]}}"#
        ))
    };

    // Each accepted form: both surfaces answer, with the same document.
    for (flag, value, json) in [
        ("--assoc", "direct", r#""direct""#),
        ("--assoc", "full", r#""full""#),
        ("--assoc", "2", "2"),
        ("--fill", "full", r#""full""#),
        ("--fill", "partial", r#""partial""#),
        ("--fill", "sector:16", r#""sector:16""#),
    ] {
        let out = cli(flag, value);
        assert!(out.status.success(), "{flag} {value} must be accepted");
        let (status, body) = served(flag, json);
        assert_eq!(status, 200, "{flag} {json} must be accepted");
        assert_eq!(out.stdout, body, "{flag} {value}");
    }

    // Each rejected form: the CLI exits nonzero, the route answers 400.
    for (flag, value, json) in [
        ("--assoc", "0", "0"),
        ("--assoc", "two", r#""two""#),
        ("--assoc", "4294967296", "4294967296"),
        ("--fill", "sector", r#""sector""#),
        ("--fill", "sector:x", r#""sector:x""#),
        ("--fill", "half", r#""half""#),
    ] {
        assert!(!cli(flag, value).status.success(), "{flag} {value}");
        assert_eq!(served(flag, json).0, 400, "{flag} {json}");
    }

    // JSON takes a way count only as an integer and a fill only as a
    // string.
    assert_eq!(served("--assoc", r#""2""#).0, 400);
    assert_eq!(served("--fill", "16").0, 400);
    let _ = std::fs::remove_file(file);
}

#[test]
fn optimize_json_equals_the_layout_route() {
    let (file, text) = cmp_program("layout");
    let out = cli(
        "optimize",
        &file,
        &["--json", "--runs", "2", "--max-instrs", "60000"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = format!(
        r#"{{"program": {}, "name": {}, "runs": 2, "max_instrs": 60000}}"#,
        Json::Str(text),
        Json::Str(file.display().to_string()),
    );
    let (status, served) = serve_at("layout", &body);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&served));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&served),
        "CLI and route must print the same document"
    );
    let _ = std::fs::remove_file(file);
}

#[test]
fn lint_analyze_and_advise_entries_equal_their_routes() {
    let (file, text) = cmp_program("checks");
    let fields = format!(
        r#""program": {}, "name": {}"#,
        Json::Str(text),
        Json::Str(file.display().to_string()),
    );
    let budget = ["--runs", "2", "--max-instrs", "60000"];
    let geometry = ["--cache", "1024", "--block", "32"];
    for (command, args, extra) in [
        ("lint", &budget[..], r#""runs": 2, "max_instrs": 60000"#),
        ("analyze", &geometry[..], r#""cache": 1024, "block": 32"#),
        ("advise", &geometry[..], r#""cache": 1024, "block": 32"#),
        (
            "advise",
            &[&geometry[..], &["--diff", "natural"]].concat()[..],
            r#""cache": 1024, "block": 32, "diff": "natural""#,
        ),
    ] {
        let out = cli(command, &file, &[&["--json"], args].concat());
        assert!(
            out.status.success(),
            "{command}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let rows = parse(&String::from_utf8_lossy(&out.stdout)).expect("--json is JSON");
        let [entry] = rows.as_arr().expect("--json is an array") else {
            panic!("{command}: one target, one entry");
        };
        let (status, served) = serve_at(command, &format!("{{{fields}, {extra}}}"));
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&served));
        // The lint route answers with the whole one-entry array.
        let expected = if command == "lint" { &rows } else { entry };
        assert_eq!(
            expected.to_string_pretty() + "\n",
            String::from_utf8_lossy(&served),
            "{command} {args:?}: the entry must be the route's document"
        );
    }
    let _ = std::fs::remove_file(file);
}
