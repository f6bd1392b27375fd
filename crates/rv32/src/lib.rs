//! RISC-V RV32 backend for the CCRP reproduction.
//!
//! The paper (§5) proposes evaluating CCRP "on instruction sets other
//! than MIPS"; RV32 is the embedded ISA that actually won, and — via
//! the C extension — the one that answers the obvious competing
//! question: how does byte-Huffman line compression compare with an
//! ISA-level 16-bit re-encoding, and do the two compose? This crate
//! supplies everything the cross-ISA experiments need:
//!
//! * [`Rv32Instr`] + [`decode32`] — the user-mode RV32IM subset, and
//!   [`disassemble`] for code bytes of either width;
//! * [`rvc`] — RVC (compressed) expansion and canonical compression,
//!   with a differential proptest suite proving every 16-bit form
//!   architecturally equivalent to its 32-bit expansion;
//! * [`Rv32Asm`] — a typed builder assembling one program into both
//!   [`Encoding::Rv32I`] and [`Encoding::Rv32C`] text;
//! * [`Rv32Machine`] — a small emulator core (plain or CCRP
//!   compressed-ROM fetch path) recording the same `(pc, data)` traces
//!   `ccrp-sim` replays;
//! * [`workloads`] — RV32 ports of the paper's eight benchmarks,
//!   padded to the paper's static text sizes;
//! * [`progen`] — a seeded terminating-program generator for the RV32
//!   lockstep difftest campaign.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod codegen;
mod decode;
mod error;
mod instr;
mod machine;
pub mod progen;
mod reg;
pub mod rvc;
pub mod workloads;

pub use asm::{Encoding, Label, Rv32Asm, Rv32Image};
pub use codegen::generate_filler;
pub use decode::decode32;
pub use error::{Rv32Error, Rv32Fault};
pub use instr::{AluImmOp, AluOp, BranchOp, LoadOp, MulOp, Rv32Instr, ShiftImmOp, StoreOp};
pub use machine::{Rv32Config, Rv32Machine};
pub use reg::{XReg, ABI_NAMES};

/// Disassembles the instruction starting at `bytes[0]`, RVC included:
/// a 16-bit form prints as `c.[expansion]`, and a halfword that starts
/// no valid instruction as `.half 0x....` (`<truncated>` when fewer than
/// two bytes remain), so it never fails.
pub fn disassemble(bytes: &[u8]) -> String {
    let [a, b, ..] = *bytes else {
        return "<truncated>".to_string();
    };
    let low = u16::from_le_bytes([a, b]);
    let text = if rvc::instr_bytes(low) == 2 {
        let instr = rvc::expand(low).and_then(decode32).ok();
        instr.map(|instr| format!("c.[{instr}]"))
    } else {
        let word = bytes.get(..4).and_then(|word| word.try_into().ok());
        let instr = word.and_then(|word| decode32(u32::from_le_bytes(word)).ok());
        instr.map(|instr| instr.to_string())
    };
    text.unwrap_or_else(|| format!(".half {low:#06x}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disassembly_spells_both_widths() {
        // addi sp, sp, -16 as a 32-bit word, then as c.addi sp, -16.
        let word = disassemble(&0xff010113u32.to_le_bytes());
        assert_eq!(disassemble(&0x1141u16.to_le_bytes()), format!("c.[{word}]"));
        assert_eq!(disassemble(&[0x13, 0x01]), ".half 0x0113", "a cut-off word");
        assert_eq!(disassemble(&[0, 0]), ".half 0x0000", "the illegal halfword");
        assert_eq!(disassemble(&[0x41]), "<truncated>");
    }
}
