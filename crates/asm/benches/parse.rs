//! Parse throughput: the one-pass parser against the two-pass reference
//! parser it replaced, on each of the ten workloads' printed text.
//!
//! Each figure is the best of `reps` timings of `rounds` back-to-back
//! parses, divided by `rounds`; the two parsers take turns. One row per workload gives both parsers'
//! microseconds per program and MB/s; the last row gives the means over
//! the ten programs.
//!
//! Run with `--fast` (CI smoke) for fewer rounds. Either way the process
//! exits non-zero if the parser is not at least twice as fast as the
//! reference on the ten-program mean, a ratio that holds on a slow or
//! busy host where an absolute floor would not.

#[path = "../tests/reference/mod.rs"]
mod reference;

use std::hint::black_box;
use std::time::Instant;

use impact_asm::{parse_program, print_program};

/// Microseconds per parse of `text` by each of `parsers`: the best of
/// `reps` timings of `rounds` parses, the parsers taking turns so that a
/// burst of load on the host slows both.
fn best_micros<const N: usize>(
    reps: u32,
    rounds: u32,
    text: &str,
    parsers: [&dyn Fn(&str) -> bool; N],
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..reps {
        for (parse, best) in parsers.iter().zip(&mut best) {
            let t0 = Instant::now();
            for _ in 0..rounds {
                assert!(parse(black_box(text)), "the workload parses");
            }
            *best = best.min(t0.elapsed().as_secs_f64() * 1e6 / f64::from(rounds));
        }
    }
    best
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let (reps, rounds) = if fast { (5, 10) } else { (15, 50) };
    println!(
        "{:<10} {:>7} {:>6}  {:>9} {:>7}  {:>9} {:>7}  {:>7}",
        "workload", "bytes", "blocks", "parse µs", "MB/s", "ref µs", "MB/s", "speedup"
    );
    let (mut fast_sum, mut ref_sum) = (0.0, 0.0);
    let workloads = impact_workloads::all();
    for w in &workloads {
        let text = print_program(&w.program);
        let blocks: usize = w.program.functions().map(|(_, f)| f.block_count()).sum();
        let [parse, reference] = best_micros(
            reps,
            rounds,
            &text,
            [&|t| parse_program(t).is_ok(), &|t| {
                reference::parse_program(t).is_ok()
            }],
        );
        let mbps = |micros: f64| text.len() as f64 / micros;
        println!(
            "{:<10} {:>7} {:>6}  {parse:>9.1} {:>7.0}  {reference:>9.1} {:>7.0}  {:>6.2}x",
            w.name,
            text.len(),
            blocks,
            mbps(parse),
            mbps(reference),
            reference / parse
        );
        fast_sum += parse;
        ref_sum += reference;
    }
    let n = workloads.len() as f64;
    let speedup = ref_sum / fast_sum;
    println!(
        "{:<10} {:>7} {:>6}  {:>9.1} {:>7}  {:>9.1} {:>7}  {speedup:>6.2}x",
        "mean",
        "",
        "",
        fast_sum / n,
        "",
        ref_sum / n,
        ""
    );
    if speedup < 2.0 {
        eprintln!("parse bench: the parser is only {speedup:.2}x the reference (gate: 2x)");
        std::process::exit(1);
    }
}
