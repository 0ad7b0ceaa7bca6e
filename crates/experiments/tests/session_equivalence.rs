//! SimSession must be observationally identical to the raw
//! [`impact_experiments::sim`] path for every table-relevant
//! `(placement, config)` pair, and the `repro` binary must emit
//! byte-identical tables at any `--jobs` count.

use impact_cache::{Associativity, CacheConfig, FillPolicy};
use impact_experiments::prepare::{prepare, Budget, Prepared};
use impact_experiments::session::SimSession;
use impact_experiments::sim;
use impact_ir::Program;
use impact_layout::{baseline, Placement};

/// Every cache-config family the tables sweep: Smith's fully-associative
/// design points (t1), cache sizes (t6), block sizes (t7), fill policies
/// (t8), and associativity (assoc).
fn table_configs() -> Vec<CacheConfig> {
    let mut configs = vec![
        CacheConfig::fully_associative(512, 64),
        CacheConfig::fully_associative(2048, 32),
    ];
    for size in [8192, 4096, 2048, 1024, 512] {
        configs.push(CacheConfig::direct_mapped(size, 64));
    }
    for block in [128, 64, 32, 16] {
        configs.push(CacheConfig::direct_mapped(2048, block));
    }
    configs.push(
        CacheConfig::direct_mapped(2048, 64).with_fill(FillPolicy::Sectored { sector_bytes: 8 }),
    );
    configs.push(CacheConfig::direct_mapped(2048, 64).with_fill(FillPolicy::Partial));
    for ways in [2, 4] {
        configs.push(
            CacheConfig::direct_mapped(2048, 64).with_associativity(Associativity::Ways(ways)),
        );
    }
    configs
}

/// The placements the tables evaluate for one prepared benchmark:
/// optimized (t5–t9 and friends), the conventional baseline (t1), and
/// the ablation ladder's natural and random layouts.
fn table_placements(p: &Prepared) -> Vec<(&'static str, &Program, Placement)> {
    vec![
        ("optimized", &p.result.program, p.result.placement.clone()),
        ("baseline", &p.baseline_program, p.baseline.clone()),
        (
            "natural",
            &p.result.program,
            baseline::natural(&p.result.program),
        ),
        (
            "random",
            &p.result.program,
            baseline::random(&p.result.program, 1),
        ),
    ]
}

#[test]
fn session_matches_sim_for_every_table_pair_on_two_workloads() {
    let budget = Budget::fast();
    let prepared: Vec<Prepared> = ["wc", "grep"]
        .iter()
        .map(|n| prepare(&impact_workloads::by_name(n).unwrap(), &budget))
        .collect();
    let configs = table_configs();

    // One shared session across everything, as the runner uses it: the
    // memoization layer must not leak between keys or configs.
    let mut session = SimSession::with_jobs(2);
    let mut requests = Vec::new();
    for p in &prepared {
        for (what, program, placement) in table_placements(p) {
            let limits = p.budget.eval_limits(&p.workload);
            // Register per-config (maximal key sharing) AND as one batch.
            let singles: Vec<_> = configs
                .iter()
                .map(|&c| session.request(program, &placement, p.eval_seed(), limits, &[c]))
                .collect();
            let batch = session.request(program, &placement, p.eval_seed(), limits, &configs);
            requests.push((p, what, program, placement, limits, singles, batch));
        }
    }
    session.execute();

    for (p, what, program, placement, limits, singles, batch) in &requests {
        let (expect, expect_len) =
            sim::simulate_counted(program, placement, p.eval_seed(), *limits, &configs);
        let name = &p.workload.name;
        assert_eq!(
            session.counted(batch),
            (expect.clone(), expect_len),
            "{name}/{what}: batched request diverged from sim::simulate"
        );
        for (handle, want) in singles.iter().zip(&expect) {
            assert_eq!(
                session.stats(handle),
                vec![*want],
                "{name}/{what}: single-config request diverged from sim::simulate"
            );
        }
    }

    // Up to 8 placement keys (structurally identical placements may
    // legitimately coalesce), each streamed exactly once despite 14
    // single requests + 1 batch request per key.
    let m = session.metrics();
    assert!(m.unique_traces >= 6 && m.unique_traces <= 8, "{m:?}");
    assert_eq!(m.traces_streamed, m.unique_traces);
    assert!(m.memo_served > 0, "batch configs must be memo-served");
}

#[test]
fn repro_binary_output_is_identical_for_any_job_count() {
    let run = |jobs: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["table1", "--fast", "--jobs", jobs])
            .output()
            .expect("repro runs");
        assert!(out.status.success(), "repro --jobs {jobs} failed");
        out.stdout
    };
    assert_eq!(run("1"), run("4"), "table bytes must not depend on --jobs");
}

#[test]
fn repro_rejects_zero_jobs_with_a_specific_message() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "--fast", "--jobs", "0"])
        .output()
        .expect("repro runs");
    assert!(!out.status.success(), "--jobs 0 must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--jobs must be at least 1"),
        "error must name the flag and the constraint, got: {stderr}"
    );
    assert!(
        !stderr.contains("usage:"),
        "a specific error, not the generic usage text: {stderr}"
    );
}
