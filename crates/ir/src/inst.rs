//! Fixed-width instructions.

/// Size of every instruction in bytes.
///
/// The paper evaluates code "very closely match\[ing\] the physical code of a
/// fixed instruction format (32 bits/instruction) RISC type processor"
/// (§4.2.3), so the whole reproduction assumes 4-byte instructions.
pub const BYTES_PER_INSTR: u64 = 4;

/// A single non-control instruction.
///
/// The instruction cache only observes *fetch addresses*, so the opcode
/// class carries no semantics for the simulator; it exists to make program
/// models legible and to let workload generators mimic realistic opcode
/// mixes. Control transfers are never `Instr`s — they are the block's
/// [`Terminator`](crate::Terminator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Instr {
    /// Integer ALU operation (add, shift, compare, ...).
    #[default]
    IntAlu,
    /// Floating-point operation.
    FpAlu,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// No-op / filler (used by the code scaling experiment).
    Nop,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_int_alu() {
        assert_eq!(Instr::default(), Instr::IntAlu);
    }
}
