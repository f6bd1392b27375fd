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
//! State the trait cannot see (MIPS HI/LO and the FPA register file,
//! for instance) is compared through a per-ISA hook the generic
//! comparator accepts, so adding an architecture never weakens the
//! comparison for another.

use crate::TraceSink;
use ccrp_isa::Isa;
use std::fmt;

/// A steppable, observable machine for one [`Isa`].
///
/// Implementations promise that two machines constructed from the same
/// program image and stepped identically expose identical observations
/// — the whole premise of lockstep co-simulation.
pub trait IsaCore {
    /// The architecture this core executes.
    type Isa: Isa;

    /// A fault raised by one step: bad fetch, illegal instruction,
    /// unmapped access, step-budget exhaustion. Faults are compared
    /// across lockstep variants, so they must be `PartialEq`.
    type Fault: fmt::Debug + fmt::Display + Clone + PartialEq;

    /// Current program counter.
    fn pc(&self) -> u32;

    /// General-purpose register `index` (`0..Isa::GPR_COUNT`).
    fn gpr(&self, index: usize) -> u32;

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
}

impl IsaCore for crate::Machine {
    type Isa = ccrp_isa::Mips;
    type Fault = crate::EmuError;

    // The lockstep comparator reads these after every step of every
    // variant, from another crate: `#[inline]` keeps them as cheap as
    // the inherent accessors.
    #[inline]
    fn pc(&self) -> u32 {
        crate::Machine::pc(self)
    }

    /// Indexes the register file directly (caller contract: `index <
    /// GPR_COUNT`, = 32).
    #[inline]
    fn gpr(&self, index: usize) -> u32 {
        self.state.regs[index]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, NullSink};
    use ccrp_asm::assemble;
    use ccrp_isa::{Isa, Mips};

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
            for i in 0..Mips::GPR_COUNT {
                assert_eq!(direct.gpr(i), via_trait.gpr(i));
            }
            if direct.exit_code().is_some() || a.is_err() {
                break;
            }
        }
        assert_eq!(IsaCore::exit_code(&via_trait), Some(0));
    }
}
