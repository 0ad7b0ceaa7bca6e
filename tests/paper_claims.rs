//! The paper's headline claims, asserted as tests (shape, not absolute
//! numbers — see EXPERIMENTS.md for the measured tables).

use impact::cache::{smith, CacheConfig, FillPolicy};
use impact::experiments::prepare::{prepare_all, Budget};
use impact::experiments::session::SimSession;
use impact::experiments::sim;
use impact::experiments::tables::{t6, t7, t9};

fn budget() -> Budget {
    Budget {
        profile_instrs: Some(60_000),
        eval_instrs: Some(200_000),
    }
}

/// §4.2.4 / abstract: the optimized direct-mapped 2 KB / 64 B cache beats
/// Smith's fully-associative design target, on average and per benchmark.
#[test]
fn optimized_direct_mapped_beats_smith_targets() {
    let prepared = prepare_all(&budget());
    let mut session = SimSession::new();
    let plan = t6::plan(&mut session, &prepared);
    session.execute();
    let rows = t6::finish(&session, &plan);
    let target = smith::target_miss_ratio(2048, 64).unwrap();
    let avg = t6::averages(&rows)[2].0; // 2K column
    assert!(
        avg < target / 2.0,
        "average optimized miss {avg:.4} not well below Smith target {target}"
    );
    for r in &rows {
        let (miss, _) = r.cells[2];
        assert!(
            miss < target,
            "{}: optimized miss {miss:.4} exceeds the 6.8% design target",
            r.name
        );
    }
}

/// Table 6 shape: per benchmark, the miss ratio never *increases* as the
/// cache grows (direct-mapped caches admit tiny anomalies; allow slack).
#[test]
fn miss_ratio_shrinks_with_cache_size() {
    let prepared = prepare_all(&budget());
    let mut session = SimSession::new();
    let plan = t6::plan(&mut session, &prepared);
    session.execute();
    for r in t6::finish(&session, &plan) {
        // cells are ordered 8K, 4K, 2K, 1K, 0.5K.
        for w in r.cells.windows(2) {
            assert!(
                w[0].0 <= w[1].0 + 0.01,
                "{}: miss grew with cache size: {:?}",
                r.name,
                r.cells
            );
        }
    }
}

/// Table 7 shape: on average, larger blocks lower the miss ratio and
/// raise the memory traffic ratio.
#[test]
fn block_size_trades_misses_for_traffic() {
    let prepared = prepare_all(&budget());
    let mut session = SimSession::new();
    let plan = t7::plan(&mut session, &prepared);
    session.execute();
    let rows = t7::finish(&session, &plan);
    let avgs = t7::averages(&rows);
    for w in avgs.windows(2) {
        assert!(
            w[1].0 <= w[0].0 + 1e-6,
            "average miss did not fall with block size: {avgs:?}"
        );
        assert!(
            w[1].1 >= w[0].1 - 1e-6,
            "average traffic did not rise with block size: {avgs:?}"
        );
    }
}

/// §4.2.2: both traffic-reduction schemes cut memory traffic versus
/// whole-block fill on the traffic-heavy benchmarks, at the cost of
/// (sectoring) a much higher miss ratio.
#[test]
fn traffic_reduction_schemes_behave_as_described() {
    let prepared = prepare_all(&budget());
    let full_cfg = [CacheConfig::direct_mapped(2048, 64)];
    let schemes = [
        CacheConfig::direct_mapped(2048, 64).with_fill(FillPolicy::Sectored { sector_bytes: 8 }),
        CacheConfig::direct_mapped(2048, 64).with_fill(FillPolicy::Partial),
    ];
    for p in &prepared {
        let limits = p.budget.eval_limits(&p.workload);
        let full = sim::simulate(
            &p.result.program,
            &p.result.placement,
            p.eval_seed(),
            limits,
            &full_cfg,
        )[0];
        let s = sim::simulate(
            &p.result.program,
            &p.result.placement,
            p.eval_seed(),
            limits,
            &schemes,
        );
        // Partial loading never fetches more than full-block fill and
        // never misses less.
        assert!(
            s[1].traffic_ratio() <= full.traffic_ratio() + 1e-9,
            "{}: partial traffic above full-block",
            p.workload.name
        );
        assert!(
            s[1].misses >= full.misses,
            "{}: partial missed less than full-block",
            p.workload.name
        );
        // Sectoring fetches at most what full-block fill fetches.
        assert!(
            s[0].traffic_ratio() <= full.traffic_ratio() + 1e-9,
            "{}: sector traffic above full-block",
            p.workload.name
        );
        assert!(
            s[0].misses >= full.misses,
            "{}: sectoring missed less",
            p.workload.name
        );
    }
}

/// §4.2.3: cache performance is stable across instruction-encoding
/// densities — scaled programs stay below the Smith target too.
#[test]
fn code_scaling_preserves_cache_performance() {
    // One representative benchmark to keep the test affordable: yacc
    // (mid-range miss ratio).
    let w = impact::workloads::by_name("yacc").unwrap();
    let p = impact::experiments::prepare::prepare(&w, &budget());
    let mut session = SimSession::new();
    let plan = t9::plan(&mut session, std::slice::from_ref(&p));
    session.execute();
    let rows = t9::finish(&session, &plan);
    let target = smith::target_miss_ratio(2048, 64).unwrap();
    for &(miss, _) in &rows[0].cells {
        assert!(
            miss < target,
            "yacc under scaling: miss {miss:.4} above design target"
        );
    }
}

/// Table 3's qualitative claim: inlining makes function calls rare —
/// hundreds of dynamic instructions per call (except tee, which is all
/// system calls, and wc/cmp which barely call at all).
#[test]
fn calls_become_rare_after_inlining() {
    let prepared = prepare_all(&budget());
    for p in &prepared {
        let r = &p.result.inline_report;
        match p.workload.name {
            "tee" => {
                assert!(
                    r.call_decrease < 0.1,
                    "tee's system calls must survive inlining: {r:?}"
                );
            }
            "wc" | "cmp" => {} // essentially call-free already
            _ => {
                assert!(
                    r.instrs_per_call > 50.0,
                    "{}: only {:.0} instructions per call after inlining",
                    p.workload.name,
                    r.instrs_per_call
                );
            }
        }
    }
}
