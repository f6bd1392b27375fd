//! The ISA-generic machine surface the lockstep difftest drives.
//!
//! A co-simulation campaign runs one reference machine and several
//! compressed-ROM variants of the *same* program in lockstep, comparing
//! architectural state after every instruction. That driver needs to
//! step a machine and observe it — PC, general registers, exit status,
//! console output, touched memory — but nothing MIPS-specific.
//! [`IsaCore`] is that surface: [`Machine`](crate::Machine) implements
//! it for MIPS, `ccrp-rv32`'s machine implements it for RV32I/RV32C,
//! and `ccrp-difftest`'s generic driver works against either.
//!
//! State the surface cannot see (MIPS HI/LO and the FPA register file,
//! for instance) each core compares itself, in
//! [`IsaCore::private_mismatch`], so adding an architecture never
//! weakens the comparison for another.

use ccrp_isa::FpReg;
use std::fmt;

use crate::TraceSink;

/// A steppable, observable machine for one instruction set.
///
/// Implementations promise that two machines constructed from the same
/// program image and stepped identically expose identical observations
/// — the whole premise of lockstep co-simulation.
pub trait IsaCore {
    /// The conventional name of each general-purpose register,
    /// including any sigil, so divergence reports read naturally.
    const GPR_NAMES: [&'static str; 32];

    /// A fault raised by one step: bad fetch, illegal instruction,
    /// unmapped access, step-budget exhaustion. Faults are compared
    /// across lockstep variants, so they must be `PartialEq`.
    type Fault: fmt::Debug + fmt::Display + Clone + PartialEq;

    /// Current program counter.
    fn pc(&self) -> u32;

    /// The general-purpose register file, indexed by register number,
    /// so a comparison can check all 32 with one `==`.
    fn gprs(&self) -> &[u32; 32];

    /// `Some(code)` once the program has exited.
    fn exit_code(&self) -> Option<i32>;

    /// Instructions retired so far.
    fn steps(&self) -> u64;

    /// Console output accumulated so far.
    fn output(&self) -> &str;

    /// The aligned word at `addr`, when mapped.
    fn read_word(&self, addr: u32) -> Option<u32>;

    /// Executes one instruction, reporting fetches and data accesses to
    /// `sink`.
    fn step_traced(&mut self, sink: &mut dyn TraceSink) -> Result<(), Self::Fault>;

    /// The first difference in the state the rest of this surface
    /// cannot see, as `(field, self-vs-other detail)`. Cores with no
    /// such state keep the default, `None`.
    fn private_mismatch(&self, _other: &Self) -> Option<(String, String)> {
        None
    }
}

impl IsaCore for crate::Machine {
    /// The ABI names with the `$` sigil, matching `Reg`'s `Display`
    /// output byte for byte.
    const GPR_NAMES: [&'static str; 32] = [
        "$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3", "$t0", "$t1", "$t2", "$t3",
        "$t4", "$t5", "$t6", "$t7", "$s0", "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7", "$t8",
        "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra",
    ];

    type Fault = crate::EmuError;

    // The lockstep comparator reads these after every step of every
    // variant, from another crate: `#[inline]` keeps them as cheap as
    // the inherent accessors.
    #[inline]
    fn pc(&self) -> u32 {
        crate::Machine::pc(self)
    }

    #[inline]
    fn gprs(&self) -> &[u32; 32] {
        &self.state.regs
    }

    #[inline]
    fn exit_code(&self) -> Option<i32> {
        crate::Machine::exit_code(self)
    }

    #[inline]
    fn steps(&self) -> u64 {
        crate::Machine::steps(self)
    }

    #[inline]
    fn output(&self) -> &str {
        crate::Machine::output(self)
    }

    #[inline]
    fn read_word(&self, addr: u32) -> Option<u32> {
        crate::Machine::read_word(self, addr)
    }

    fn step_traced(&mut self, mut sink: &mut dyn TraceSink) -> Result<(), Self::Fault> {
        self.step(&mut sink)
    }

    /// HI/LO, then the FPA register file (compared whole, walked only
    /// to name the first difference), then its condition flag.
    fn private_mismatch(&self, other: &Self) -> Option<(String, String)> {
        if self.hi() != other.hi() || self.lo() != other.lo() {
            return Some((
                "hi/lo".to_string(),
                format!(
                    "{:#010x}:{:#010x} vs {:#010x}:{:#010x}",
                    self.hi(),
                    self.lo(),
                    other.hi(),
                    other.lo()
                ),
            ));
        }
        if self.state.fpr != other.state.fpr {
            for (reg, (a, b)) in FpReg::all().zip(self.state.fpr.iter().zip(&other.state.fpr)) {
                if a != b {
                    return Some((reg.to_string(), format!("{a:#010x} vs {b:#010x}")));
                }
            }
        }
        if self.fp_cond() != other.fp_cond() {
            return Some((
                "fp_cond".to_string(),
                format!("{} vs {}", self.fp_cond(), other.fp_cond()),
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, NullSink};
    use ccrp_asm::assemble;
    use ccrp_isa::{Reg, ABI_NAMES};

    #[test]
    fn machine_observes_identically_through_the_trait() {
        let image = assemble(
            "
            main:
                li   $t0, 7
                li   $v0, 10
                syscall
            ",
        )
        .expect("assembles");
        let mut direct = Machine::new(&image);
        let mut via_trait = Machine::new(&image);
        loop {
            let a = direct.step(&mut NullSink);
            let b = IsaCore::step_traced(&mut via_trait, &mut NullSink);
            assert_eq!(a, b);
            assert_eq!(Machine::pc(&direct), IsaCore::pc(&via_trait));
            for reg in Reg::all() {
                assert_eq!(direct.reg(reg), via_trait.gprs()[reg.number() as usize]);
            }
            if direct.exit_code().is_some() || a.is_err() {
                break;
            }
        }
        assert_eq!(IsaCore::exit_code(&via_trait), Some(0));
    }

    #[test]
    fn gpr_names_match_reg_display() {
        for (i, reg) in Reg::all().enumerate() {
            assert_eq!(Machine::GPR_NAMES[i], reg.to_string());
            assert_eq!(Machine::GPR_NAMES[i], format!("${}", ABI_NAMES[i]));
        }
    }
}
