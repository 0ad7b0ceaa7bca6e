//! Dump a benchmark model to the textual assembly format, read it back,
//! and prove the round trip preserves behavior bit-for-bit.
//!
//! ```text
//! cargo run --release --example dump_program [benchmark] [out.impact]
//! ```

use impact::asm::{parse_program, print_program};
use impact::layout::baseline;
use impact::profile::ExecLimits;
use impact::trace::TraceGenerator;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "wc".to_owned());
    let out_path = args.next();

    let Some(workload) = impact::workloads::by_name(&name) else {
        eprintln!(
            "unknown benchmark {name:?}; pick one of {:?}",
            impact::workloads::NAMES
        );
        std::process::exit(1);
    };

    let text = print_program(&workload.program);
    println!(
        "{name}: {} functions, {} bytes of code, {} lines of assembly",
        workload.program.function_count(),
        workload.program.total_bytes(),
        text.lines().count()
    );

    // Round trip.
    let parsed = parse_program(&text).expect("printed programs always parse");
    assert_eq!(parsed, workload.program, "round trip must be exact");

    // Same behavior: identical trace from the re-parsed program.
    let placement = baseline::natural(&workload.program);
    let limits = ExecLimits::capped(100_000);
    let a = TraceGenerator::new(&workload.program, &placement)
        .with_limits(limits)
        .collect(workload.eval_seed());
    let b = TraceGenerator::new(&parsed, &placement)
        .with_limits(limits)
        .collect(workload.eval_seed());
    assert_eq!(a, b, "round-tripped program must trace identically");
    println!("round trip OK: {} fetches identical", a.len());

    match out_path {
        Some(path) => {
            std::fs::write(&path, &text).expect("writable output path");
            println!("wrote {path}");
        }
        None => {
            // Show the first function as a taste.
            for line in text.lines().take(25) {
                println!("{line}");
            }
            println!("... (pass an output path to save the whole program)");
        }
    }
}
