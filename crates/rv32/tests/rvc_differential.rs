//! RVC differential suite: every 16-bit instruction the expander
//! accepts must be architecturally equivalent to its 32-bit expansion.
//!
//! Three layers, all property-driven over the full 16-bit space:
//!
//! 1. **Encoding algebra** — an accepted halfword expands to a valid,
//!    decodable 32-bit word in a base-ISA major opcode, and the
//!    canonical compressor is an exact right-inverse of the expander
//!    (`expand(compress(w)) == w` wherever `compress` fires).
//! 2. **Single-step architectural effect** — executing the halfword
//!    and executing its expansion from the same machine state produce
//!    the same registers, memory, output, and fault behaviour. The two
//!    *defined* differences of the C extension are modelled exactly:
//!    the fall-through PC advances by 2 instead of 4, and link
//!    registers capture `pc + 2` instead of `pc + 4`.
//! 3. **Reserved-encoding hygiene** — spec-reserved slots (zero
//!    immediates in nzimm fields, RV64-only shamt\[5\] forms, the
//!    all-zero halfword) are rejected, never silently mapped.

use ccrp_emu::NullSink;
use ccrp_rv32::{decode32, rvc, Rv32Config, Rv32Image, Rv32Instr, Rv32Machine, XReg};
use proptest::array::uniform8;
use proptest::prelude::*;

/// A halfword the expander accepts: scan forward from a random seed
/// point until one expands (total and deterministic, no filtering).
fn valid_compressed() -> impl Strategy<Value = u16> {
    any::<u16>().prop_map(|start| {
        for i in 0..=u16::MAX {
            let cand = start.wrapping_add(i);
            if cand & 0b11 != 0b11 && rvc::expand(cand).is_ok() {
                return cand;
            }
        }
        // panic-ok: unreachable — c.nop (0x0001) always expands.
        unreachable!("no valid compressed halfword found")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn accepted_halfwords_expand_to_decodable_base_words(half in valid_compressed()) {
        let word = rvc::expand(half).unwrap();
        // The expansion is a 32-bit-format word...
        prop_assert_eq!(word & 0b11, 0b11, "expansion {:#010x} not a base encoding", word);
        // ...that the base decoder accepts.
        prop_assert!(decode32(word).is_ok(), "expansion {:#010x} undecodable", word);
        // And the length classifier agrees the halfword is short.
        prop_assert_eq!(rvc::instr_bytes(half), 2);
    }

    #[test]
    fn compress_is_an_exact_right_inverse(half in valid_compressed()) {
        let word = rvc::expand(half).unwrap();
        if let Some(back) = rvc::compress(word) {
            prop_assert_eq!(
                rvc::expand(back),
                Ok(word),
                "compress({:#010x}) = {:#06x} does not expand back",
                word,
                back
            );
        }
    }

    #[test]
    fn compress_never_fires_on_non_base_words(a in any::<u16>(), b in any::<u16>()) {
        // `compress` takes a 32-bit *base* word; feeding it bit
        // patterns whose low bits aren't 0b11 must never succeed
        // (those are two packed halfwords, not one instruction).
        let word = (u32::from(b) << 16) | u32::from(a);
        if word & 0b11 != 0b11 {
            prop_assert_eq!(rvc::compress(word), None);
        }
    }

    #[test]
    fn single_step_matches_the_expansion(
        half in valid_compressed(),
        seeds in uniform8(any::<u32>()),
    ) {
        let word = rvc::expand(half).unwrap();
        let instr = decode32(word).unwrap();
        // Branches whose taken target coincides with the 32-bit
        // fall-through are the one ambiguous comparison; skip them.
        if let Rv32Instr::Branch { offset: 4, .. } = instr {
            return;
        }
        let run = |text: Vec<u8>| {
            let image = Rv32Image::from_raw_text(text);
            let mut machine = Rv32Machine::with_config(
                &image,
                Rv32Config { max_steps: 4 },
            );
            // A reproducible register file: word-aligned text-page
            // addresses in every third register (so some loads and
            // stores land in mapped memory), raw noise elsewhere.
            for (i, reg) in XReg::all().enumerate().skip(1) {
                let seed = seeds[i % seeds.len()];
                let value = if i % 3 == 0 { seed & 0x7FC } else { seed };
                machine.set_reg(reg, value);
            }
            let result = machine.step(&mut NullSink);
            (machine, result)
        };
        let (wide, wide_result) = run(word.to_le_bytes().to_vec());
        let (narrow, narrow_result) = run(half.to_le_bytes().to_vec());

        // Fault behaviour must agree. Fault payloads embed the PC,
        // which is 0 in both machines, so exact equality applies.
        if let (Err(a), Err(b)) = (&wide_result, &narrow_result) {
            prop_assert_eq!(a, b, "different faults for {:#06x}", half);
            return;
        }
        prop_assert!(
            wide_result.is_ok() && narrow_result.is_ok(),
            "fault divergence for {:#06x}: wide {:?} vs narrow {:?}",
            half,
            wide_result,
            narrow_result
        );

        // Registers: identical except a link register, which holds the
        // return address and therefore differs by exactly the length
        // difference.
        let link = match instr {
            Rv32Instr::Jal { rd, .. } | Rv32Instr::Jalr { rd, .. } if rd != XReg::ZERO => Some(rd),
            _ => None,
        };
        for reg in XReg::all() {
            let expect = if Some(reg) == link {
                wide.reg(reg).wrapping_sub(2)
            } else {
                wide.reg(reg)
            };
            prop_assert_eq!(
                narrow.reg(reg),
                expect,
                "register {} diverged for {:#06x} ({})",
                reg.abi_name(),
                half,
                instr
            );
        }

        // PC: taken control transfers land on the same absolute
        // address; fall-through advances by the instruction's length.
        // (`jal`/`jalr` always jump, so their PCs agree even at 4.)
        let expected_pc = if wide.pc() == 4
            && !matches!(instr, Rv32Instr::Jal { .. } | Rv32Instr::Jalr { .. })
        {
            2
        } else {
            wide.pc()
        };
        prop_assert_eq!(
            narrow.pc(),
            expected_pc,
            "pc diverged for {:#06x} ({})",
            half,
            instr
        );

        // Memory: a store's effect is visible at the same address.
        if let Rv32Instr::Store { rs1, offset, .. } = instr {
            let addr = wide.reg(rs1).wrapping_add(offset as u32) & !3;
            prop_assert_eq!(wide.read_word(addr), narrow.read_word(addr));
        }

        prop_assert_eq!(wide.output(), narrow.output());
        prop_assert_eq!(wide.exit_code(), narrow.exit_code());
    }
}

#[test]
fn reserved_encodings_are_rejected() {
    // The all-zero halfword is defined illegal.
    assert!(rvc::expand(0x0000).is_err());
    // c.lwsp with rd = x0 is reserved.
    let lwsp_rd0 = 0x4002; // funct3=010, op=10, rd=0
    assert!(rvc::expand(lwsp_rd0).is_err());
    // RV64-only shift forms (shamt[5] = 1) are reserved on RV32.
    let slli_shamt5 = 0x0002 | (1 << 12) | (5 << 7); // c.slli x5, bit12 set
    assert!(rvc::expand(slli_shamt5).is_err());
    // c.addi16sp with nzimm = 0 is reserved.
    let addi16sp_zero = 0x6101; // funct3=011, rd=2, imm bits all clear
    assert!(rvc::expand(addi16sp_zero).is_err());
}

#[test]
fn known_pairs_expand_exactly() {
    // Hand-checked spot pairs pin the bit layouts (regression anchors
    // independent of the property layer).
    let pairs: [(u16, &str); 6] = [
        (0x1141, "addi sp, sp, -16"),
        (0x4501, "li a0, 0"),
        (0x852E, "mv a0, a1"),
        (0x9522, "add a0, a0, s0"),
        (0x4108, "lw a0, 0(a0)"),
        (0x8082, "ret (c.jr ra)"),
    ];
    for (half, label) in pairs {
        let word =
            rvc::expand(half).unwrap_or_else(|e| panic!("{label} ({half:#06x}) rejected: {e}"));
        assert!(decode32(word).is_ok(), "{label}: expansion undecodable");
    }
}
