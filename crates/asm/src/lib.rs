//! A two-pass MIPS R2000 assembler.
//!
//! The CCRP reproduction needs realistic R2000 object code: the paper
//! compresses DECstation 3100 binaries and replays their traces. This
//! crate assembles hand-written workload kernels (and the output of the
//! synthetic code generator) into [`ProgramImage`]s that the emulator
//! executes and the compression stack compresses.
//!
//! Supported surface:
//!
//! * the full [`ccrp-isa`](ccrp_isa) instruction set, in standard syntax;
//! * the classic pseudo instructions: `nop`, `move`, `li`, `la`, `b`,
//!   `bal`, `beqz`/`bnez`, `blt`/`bgt`/`ble`/`bge` (+`u` forms), `not`,
//!   `neg`/`negu`, `mul`, 3-operand `div`/`divu`, `rem`/`remu`,
//!   `l.s`/`s.s`/`l.d`/`s.d`, and absolute-address loads (`lw $t0, sym`);
//! * directives: `.text`, `.data`, `.word`, `.half`, `.byte`, `.float`,
//!   `.double`, `.ascii`, `.asciiz`, `.space`, `.align`, `.equ`,
//!   `.globl` (ignored), `.set reorder|noreorder`;
//! * `%hi(...)`/`%lo(...)` relocation operators;
//! * branch delay slots: in the default `reorder` mode a `nop` is placed
//!   after every control transfer; `.set noreorder` regions emit exactly
//!   what is written so kernels can fill their own delay slots.
//!
//! # Examples
//!
//! ```
//! use ccrp_asm::assemble;
//!
//! let image = assemble(r"
//!     .data
//! value:  .word 41
//!     .text
//! main:   la   $t0, value
//!         lw   $t1, 0($t0)
//!         addiu $t1, $t1, 1      # 42
//!         jr   $ra
//! ")?;
//! assert_eq!(image.symbol("value"), Some(image.data_base()));
//! # Ok::<(), ccrp_asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assembler;
mod error;
mod expr;
mod image;
mod instrs;
mod parser;
mod token;

pub use assembler::{assemble, assemble_with, AssembleOptions, DelaySlotMode};
pub use error::{AsmError, AsmErrorKind};
pub use image::ProgramImage;

#[cfg(test)]
mod tests {
    use super::*;
    use ccrp_isa::{decode, Instruction, Reg};

    fn words(src: &str) -> Vec<u32> {
        assemble(src).expect("assembles").text_words().collect()
    }

    #[test]
    fn assembles_minimal_program() {
        let w = words("main: jr $ra");
        // reorder mode inserts the delay-slot nop
        assert_eq!(w, vec![0x03E0_0008, 0x0000_0000]);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let image = assemble(
            "
            .text
            start:  b end
            mid:    nop
            end:    b mid
            ",
        )
        .unwrap();
        let w: Vec<u32> = image.text_words().collect();
        // start: beq $0,$0,end  -> end at word 3, branch at word 0: offset = 3-1 = 2
        let b0 = decode(w[0]).unwrap();
        assert!(matches!(b0, Instruction::Branch { offset: 2, .. }), "{b0}");
        // end: b mid -> mid at word 2, branch at word 3: offset = 2-4 = -2
        let b3 = decode(w[3]).unwrap();
        assert!(matches!(b3, Instruction::Branch { offset: -2, .. }), "{b3}");
    }

    #[test]
    fn li_forms() {
        assert_eq!(words("li $t0, 5").len(), 1);
        assert_eq!(words("li $t0, -5").len(), 1);
        assert_eq!(words("li $t0, 0xFFFF").len(), 1);
        assert_eq!(words("li $t0, 0x10000").len(), 2);
        assert_eq!(words("li $t0, -40000").len(), 2);
        // wide value reconstructs
        let w = words("li $t0, 0x12345678");
        assert_eq!(decode(w[0]).unwrap().to_string(), "lui $t0, 0x1234");
        assert_eq!(decode(w[1]).unwrap().to_string(), "ori $t0, $t0, 0x5678");
    }

    #[test]
    fn la_reconstructs_address() {
        let image = assemble(
            "
            .data
            buf: .space 0x9000
            var: .word 7
            .text
            main: la $t0, var
            ",
        )
        .unwrap();
        let var = image.symbol("var").unwrap();
        let w: Vec<u32> = image.text_words().collect();
        let (lui, addiu) = (decode(w[0]).unwrap(), decode(w[1]).unwrap());
        let hi = match lui {
            Instruction::Lui { imm, .. } => u32::from(imm),
            other => panic!("{other}"),
        };
        let lo = match addiu {
            Instruction::IAlu { imm, .. } => i64::from(imm as i16),
            other => panic!("{other}"),
        };
        assert_eq!(((hi << 16) as i64 + lo) as u32, var);
    }

    #[test]
    fn noreorder_suppresses_nops() {
        let w = words(
            "
            .set noreorder
            main: jr $ra
                  addiu $sp, $sp, 8   # delay slot
            ",
        );
        assert_eq!(w.len(), 2);
        assert_ne!(w[1], 0);
    }

    #[test]
    fn pseudo_branches_expand() {
        let image = assemble(
            "
            main:   blt $t0, $t1, target
                    nop
            target: nop
            ",
        )
        .unwrap();
        let w: Vec<u32> = image.text_words().collect();
        // slt $at,$t0,$t1 ; bne $at,$zero,+off ; nop(auto) ; nop ; nop
        assert_eq!(w.len(), 5);
        match decode(w[0]).unwrap() {
            Instruction::RAlu { rd, .. } => assert_eq!(rd, Reg::AT),
            other => panic!("{other}"),
        }
        match decode(w[1]).unwrap() {
            // target is word 4, branch at word 1: offset = 4 - 2 = 2
            Instruction::Branch { offset, .. } => assert_eq!(offset, 2),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn data_directives_layout() {
        let image = assemble(
            r#"
            .data
            a: .byte 1, 2
               .align 2
            b: .word 0xCAFE
            c: .asciiz "ok"
               .align 3
            d: .double 2.0
            "#,
        )
        .unwrap();
        let base = image.data_base();
        assert_eq!(image.symbol("a"), Some(base));
        assert_eq!(image.symbol("b"), Some(base + 4));
        assert_eq!(image.symbol("c"), Some(base + 8));
        assert_eq!(image.symbol("d"), Some(base + 16));
        let data = image.data_bytes();
        assert_eq!(&data[0..2], &[1, 2]);
        assert_eq!(&data[4..8], &0xCAFEu32.to_le_bytes());
        assert_eq!(&data[8..11], b"ok\0");
        assert_eq!(&data[16..24], &2.0f64.to_le_bytes());
    }

    #[test]
    fn jump_table_in_text() {
        let image = assemble(
            "
            main:   jr $ra
            table:  .word main, table
            ",
        )
        .unwrap();
        let main = image.symbol("main").unwrap();
        let table = image.symbol("table").unwrap();
        assert_eq!(image.word_at(table), Some(main));
        assert_eq!(image.word_at(table + 4), Some(table));
    }

    #[test]
    fn errors_are_reported_with_lines() {
        let err = assemble("\n\n bogus $t0").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(matches!(err.kind, AsmErrorKind::UnknownMnemonic(_)));

        let err = assemble("x: nop\nx: nop").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::DuplicateLabel(_)));

        let err = assemble("lw $t0, 99999($sp)").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::ValueOutOfRange { .. }));

        let err = assemble("b nowhere").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::UndefinedSymbol(_)));
    }

    #[test]
    fn equ_constants() {
        // A symbolic `li` takes the two-instruction `la` form; the loaded
        // value must still be exactly SIZE/4.
        let image = assemble(
            "
            .equ SIZE, 64
            main: li $t0, SIZE/4
            ",
        )
        .unwrap();
        let w: Vec<u32> = image.text_words().collect();
        assert_eq!(w.len(), 2);
        let hi = match decode(w[0]).unwrap() {
            Instruction::Lui { imm, .. } => u32::from(imm),
            other => panic!("{other}"),
        };
        let lo = match decode(w[1]).unwrap() {
            Instruction::IAlu { imm, .. } => i64::from(imm as i16),
            other => panic!("{other}"),
        };
        assert_eq!(((hi << 16) as i64 + lo) as u32, 16);

        // A literal `li` still picks the single-instruction form.
        let w = words("main: li $t0, 64/4");
        assert_eq!(w.len(), 1);
        assert_eq!(decode(w[0]).unwrap().to_string(), "ori $t0, $zero, 0x10");
    }

    #[test]
    fn operand_count_errors_surface_at_assembly() {
        assert!(assemble("nop nop").is_err());
        assert!(assemble("add $t0, $t1").is_err());
    }

    #[test]
    fn double_load_pseudo() {
        let w = words(".set noreorder\n l.d $f4, 8($sp)");
        assert_eq!(w.len(), 2);
        assert_eq!(decode(w[0]).unwrap().to_string(), "lwc1 $f4, 8($sp)");
        assert_eq!(decode(w[1]).unwrap().to_string(), "lwc1 $f5, 12($sp)");
    }

    #[test]
    fn entry_defaults() {
        let with_main = assemble("nop\nmain: nop").unwrap();
        assert_eq!(with_main.entry(), with_main.text_base() + 4);
        let without = assemble("nop").unwrap();
        assert_eq!(without.entry(), without.text_base());
    }

    #[test]
    fn disassembly_reassembles() {
        // Display output of decoded instructions must assemble back to the
        // identical words (the branch-offset-as-constant convention).
        let image = assemble(
            "
            .set noreorder
            main:
                addiu $sp, $sp, -32
                sw    $ra, 28($sp)
                li    $t0, 100
            loop:
                addiu $t0, $t0, -1
                bne   $t0, $zero, loop
                nop
                lw    $ra, 28($sp)
                jr    $ra
                addiu $sp, $sp, 32
            ",
        )
        .unwrap();
        let mut src = String::from(".set noreorder\n");
        for w in image.text_words() {
            src.push_str(&decode(w).unwrap().to_string());
            src.push('\n');
        }
        let again = assemble(&src).unwrap();
        let a: Vec<u32> = image.text_words().collect();
        let b: Vec<u32> = again.text_words().collect();
        assert_eq!(a, b);
    }
}
