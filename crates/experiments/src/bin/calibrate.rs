//! `calibrate` — workload calibration probe.
//!
//! Prints, for every benchmark model, the static geometry and the
//! evaluation-trace lengths obtained from a range of evaluation-seed
//! offsets — for the original program (natural layout) and for the
//! post-inlining program the cache tables actually evaluate. Used when
//! tuning `impact-workloads` specs against the paper's published
//! statistics (see the `eval_seed_offset` knob: the paper evaluates on a
//! "typical size" input, so a degenerately short draw from the geometric
//! loop distributions warrants picking a different seed).
//!
//! ```text
//! calibrate [offsets]     # default 6
//! ```

use impact_experiments::prepare::{prepare, Budget};
use impact_layout::baseline;
use impact_profile::ExecLimits;
use impact_trace::TraceGenerator;

fn main() {
    let offsets: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);

    println!(
        "{:<10} {:>9} {:>7}  orig/optimized eval trace length by seed offset",
        "name", "bytes", "funcs"
    );
    for w in impact_workloads::all() {
        let natural = baseline::natural(&w.program);
        let prepared = prepare(&w, &Budget::default());
        let limits = ExecLimits::capped(w.spec.max_dynamic_instrs);
        let fmt_len = |n: u64, truncated: bool| {
            format!("{:.2}M{}", n as f64 / 1e6, if truncated { "*" } else { "" })
        };
        let lengths: Vec<String> = (0..offsets)
            .map(|off| {
                let mut n_orig = 0u64;
                let s_orig = TraceGenerator::new(&w.program, &natural)
                    .with_limits(limits)
                    .run(w.eval_seed() + off, |_| n_orig += 1);
                let mut n_opt = 0u64;
                let s_opt =
                    TraceGenerator::new(&prepared.result.program, &prepared.result.placement)
                        .with_limits(limits)
                        .run(w.eval_seed() + off, |_| n_opt += 1);
                format!(
                    "{}/{}",
                    fmt_len(n_orig, s_orig.truncated),
                    fmt_len(n_opt, s_opt.truncated)
                )
            })
            .collect();
        println!(
            "{:<10} {:>9} {:>7}  {}",
            w.name,
            w.program.total_bytes(),
            w.program.function_count(),
            lengths.join("  ")
        );
    }
    println!("(* = truncated at the workload's dynamic-instruction cap)");
}
