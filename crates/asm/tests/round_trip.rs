//! Property tests: the text format round-trips arbitrary programs.

mod programs;

use impact_asm::{parse_program, print_program};
use impact_support::check::forall;

use programs::gen_program;

/// print → parse is the identity on programs.
#[test]
fn print_parse_round_trip() {
    forall(128, gen_program, |program| {
        let text = print_program(program);
        let parsed = parse_program(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert_eq!(&parsed, program);
    });
}

/// Printed programs never contain lines the parser would reject, even
/// after whitespace-only perturbation.
#[test]
fn printed_text_is_whitespace_insensitive() {
    forall(128, gen_program, |program| {
        let text = print_program(program);
        let perturbed: String = text
            .lines()
            .map(|l| format!("   {}   \n", l.trim()))
            .collect();
        let parsed = parse_program(&perturbed).expect("perturbed text parses");
        assert_eq!(&parsed, program);
    });
}
