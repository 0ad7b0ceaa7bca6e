//! `impact sim` and `POST /v1/simulate` are one request layer: the CLI's
//! `--json` document is the route's response body, byte for byte, and
//! both surfaces accept the same `assoc` and `fill` forms.

use std::path::PathBuf;
use std::process::{Command, Output};

use impact::serve::api::{route, AppState};
use impact::serve::Request;
use impact::support::json::Json;

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

fn sim(file: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_impact"))
        .arg("sim")
        .arg(file)
        .args(args)
        .output()
        .expect("binary runs")
}

/// `route`'s `/v1/simulate` reply to `body`: status and body bytes.
fn serve(body: &str) -> (u16, Vec<u8>) {
    let req = Request {
        method: "POST".to_string(),
        target: "/v1/simulate".to_string(),
        http11: true,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    let (_, resp) = route(&AppState::new(1), &req);
    (resp.status, resp.body)
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
        let out = sim(&file, &args);
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
        sim(&file, &args)
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
