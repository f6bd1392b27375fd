//! Versioned, serializable machine checkpoints.
//!
//! A [`Checkpoint`] captures a machine's [`ArchState`] (plus which
//! compressed-ROM lines were already expanded, so a resumed demand-policy
//! machine expands exactly the lines an unbroken run would) at an
//! instruction boundary.
//! [`Machine::restore`] resumes deterministically: the restored machine
//! retires the same instruction stream, produces the same output, and
//! faults at the same step as the original.
//!
//! Derived state is deliberately *not* serialized — the decoded text
//! and the ROM's expanded line bytes are rebuilt from the program image
//! on restore, which keeps checkpoints small and means a checkpoint can
//! move between a plain machine and any compressed-text variant of the
//! same program.
//!
//! On-disk form is a [`write_frame`] snapshot: CRC-checked header
//! carrying [`CHECKPOINT_VERSION`] and the program fingerprint, so a
//! stomped file is rejected with a typed [`CheckpointError`], never a
//! panic or a silently diverging resume.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use ccrp::{read_frame, write_frame, ByteReader, ByteWriter, SnapshotError};

use crate::machine::{expand_rom_line, Machine};
use crate::memory::{Memory, PAGE_BYTES};
use crate::op::Op;
use crate::state::ArchState;

/// Current checkpoint payload format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Why a checkpoint could not be deserialized or restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The snapshot frame or a payload field was rejected.
    Snapshot(SnapshotError),
    /// The checkpoint belongs to a different program than the machine it
    /// was restored into.
    ProgramMismatch {
        /// The machine's program fingerprint.
        expected: u32,
        /// The checkpoint's program fingerprint.
        found: u32,
    },
    /// Re-expanding a compressed-ROM line recorded as expanded failed —
    /// the ROM corrupted between checkpoint and restore.
    CorruptRom {
        /// First address of the line that failed to expand.
        address: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Snapshot(err) => write!(f, "bad snapshot frame: {err}"),
            CheckpointError::ProgramMismatch { expected, found } => write!(
                f,
                "checkpoint is for a different program: machine fingerprint \
                 {expected:#010x}, checkpoint fingerprint {found:#010x}"
            ),
            CheckpointError::CorruptRom { address } => {
                write!(f, "compressed ROM line at {address:#x} failed to re-expand")
            }
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Snapshot(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SnapshotError> for CheckpointError {
    fn from(err: SnapshotError) -> Self {
        CheckpointError::Snapshot(err)
    }
}

/// A machine checkpoint: full architectural state at an instruction
/// boundary, tagged with the program it belongs to.
///
/// # Examples
///
/// ```
/// use ccrp_asm::assemble;
/// use ccrp_emu::{Checkpoint, Machine, NullSink};
///
/// let image = assemble("
///     main:
///         li   $t0, 3
///     loop:
///         addiu $t0, $t0, -1
///         bnez $t0, loop
///         li   $v0, 10
///         syscall
/// ")?;
/// let mut m = Machine::new(&image);
/// m.step(&mut NullSink)?;
/// let bytes = m.checkpoint().to_bytes();
///
/// let mut resumed = Machine::new(&image);
/// resumed.restore(&Checkpoint::from_bytes(&bytes)?)?;
/// assert_eq!(resumed.steps(), 1);
/// assert_eq!(resumed.arch_state(), m.arch_state());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub(crate) fingerprint: u32,
    pub(crate) state: ArchState,
    /// Which ROM lines were expanded, for machines running under a
    /// demand degradation policy; `None` for plain machines.
    pub(crate) rom_expanded: Option<Vec<bool>>,
}

impl Checkpoint {
    /// Fingerprint of the program this checkpoint belongs to.
    pub fn fingerprint(&self) -> u32 {
        self.fingerprint
    }

    /// Instructions retired when the checkpoint was taken.
    pub fn steps(&self) -> u64 {
        self.state.steps
    }

    /// Program counter at the checkpoint.
    pub fn pc(&self) -> u32 {
        self.state.pc
    }

    /// The captured architectural state.
    pub fn arch_state(&self) -> &ArchState {
        &self.state
    }

    /// Serializes into a CRC-framed snapshot (see [`ccrp::write_frame`]
    /// for the header layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for reg in &self.state.regs {
            w.put_u32(*reg);
        }
        w.put_u32(self.state.hi);
        w.put_u32(self.state.lo);
        for reg in &self.state.fpr {
            w.put_u32(*reg);
        }
        w.put_u8(u8::from(self.state.fp_cond));
        w.put_u32(self.state.pc);
        w.put_u32(self.state.next_pc);
        w.put_u32(self.state.brk);
        match self.state.exit {
            None => w.put_u8(0),
            Some(code) => {
                w.put_u8(1);
                w.put_i32(code);
            }
        }
        w.put_u64(self.state.steps);
        w.put_u64(self.state.output.len() as u64);
        w.put_bytes(self.state.output.as_bytes());
        w.put_u64(self.state.input.len() as u64);
        for value in &self.state.input {
            w.put_i32(*value);
        }
        w.put_u64(self.state.mem.mapped_pages() as u64);
        for (index, page) in self.state.mem.pages() {
            w.put_u32(index);
            w.put_bytes(page);
        }
        match &self.rom_expanded {
            None => w.put_u8(0),
            Some(flags) => {
                w.put_u8(1);
                w.put_u64(flags.len() as u64);
                for flag in flags {
                    w.put_u8(u8::from(*flag));
                }
            }
        }
        write_frame(CHECKPOINT_VERSION, self.fingerprint, &w.into_bytes())
    }

    /// Deserializes checkpoint bytes, validating the frame CRCs, the
    /// format version, and every payload field.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Snapshot`] on any corruption: bad magic or
    /// CRCs, truncation, an unsupported version, or a structurally
    /// invalid payload. Never panics on hostile input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let (header, payload) = read_frame(bytes)?;
        if header.version != CHECKPOINT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: header.version,
            }
            .into());
        }
        let mut r = ByteReader::new(payload);
        let mut regs = [0u32; 32];
        for reg in &mut regs {
            *reg = r.read_u32()?;
        }
        let hi = r.read_u32()?;
        let lo = r.read_u32()?;
        let mut fpr = [0u32; 32];
        for reg in &mut fpr {
            *reg = r.read_u32()?;
        }
        let fp_cond = read_bool(&mut r, "fp_cond flag")?;
        let pc = r.read_u32()?;
        let next_pc = r.read_u32()?;
        let brk = r.read_u32()?;
        let exit = match r.read_u8()? {
            0 => None,
            1 => Some(r.read_i32()?),
            _ => return Err(SnapshotError::Malformed { what: "exit tag" }.into()),
        };
        let steps = r.read_u64()?;
        let output_len = r.read_len("output length")?;
        let output = String::from_utf8(r.take(output_len)?.to_vec()).map_err(|_| {
            SnapshotError::Malformed {
                what: "output utf-8",
            }
        })?;
        let input_count = r.read_u64()?;
        if input_count > (r.remaining() / 4) as u64 {
            return Err(SnapshotError::Malformed {
                what: "input count",
            }
            .into());
        }
        let mut input = VecDeque::with_capacity(input_count as usize);
        for _ in 0..input_count {
            input.push_back(r.read_i32()?);
        }
        let page_count = r.read_u64()?;
        if page_count > (r.remaining() / (4 + PAGE_BYTES)) as u64 {
            return Err(SnapshotError::Malformed {
                what: "memory page count",
            }
            .into());
        }
        let mut mem = Memory::new();
        for _ in 0..page_count {
            let index = r.read_u32()?;
            let bytes = r.take(PAGE_BYTES)?;
            let mut page = [0u8; PAGE_BYTES];
            page.copy_from_slice(bytes);
            mem.install_page(index, &page);
        }
        let rom_expanded = match r.read_u8()? {
            0 => None,
            1 => {
                let count = r.read_len("rom line count")?;
                let mut flags = Vec::with_capacity(count);
                for _ in 0..count {
                    flags.push(read_bool(&mut r, "rom line flag")?);
                }
                Some(flags)
            }
            _ => {
                return Err(SnapshotError::Malformed {
                    what: "rom flags tag",
                }
                .into())
            }
        };
        if !r.is_exhausted() {
            return Err(SnapshotError::Malformed {
                what: "trailing payload bytes",
            }
            .into());
        }
        Ok(Checkpoint {
            fingerprint: header.fingerprint,
            state: ArchState {
                regs,
                hi,
                lo,
                fpr,
                fp_cond,
                pc,
                next_pc,
                brk,
                exit,
                steps,
                output,
                input,
                mem,
            },
            rom_expanded,
        })
    }
}

fn read_bool(r: &mut ByteReader<'_>, what: &'static str) -> Result<bool, CheckpointError> {
    match r.read_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(SnapshotError::Malformed { what }.into()),
    }
}

impl Machine {
    /// The machine's complete architectural state.
    pub fn arch_state(&self) -> &ArchState {
        &self.state
    }

    /// Fingerprint of the loaded program (see [`Checkpoint::fingerprint`]).
    pub fn fingerprint(&self) -> u32 {
        self.fingerprint
    }

    /// Captures a checkpoint of the current architectural state. Cheap:
    /// one clone of the live state, no serialization.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            fingerprint: self.fingerprint,
            state: self.state.clone(),
            rom_expanded: self.rom.as_ref().map(|rom| rom.expanded.clone()),
        }
    }

    /// Replaces the architectural state with `checkpoint`'s, so stepping
    /// resumes exactly where the checkpoint was taken.
    ///
    /// Derived state is rebuilt rather than trusted: with a compressed
    /// ROM attached, the lines the checkpoint recorded as expanded are
    /// re-expanded from the ROM. A checkpoint from a plain machine
    /// restores into a ROM-backed one (lines re-expand on demand) and
    /// vice versa.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ProgramMismatch`] when the checkpoint's
    /// fingerprint is not this machine's program;
    /// [`CheckpointError::CorruptRom`] when a recorded line no longer
    /// expands. The machine state is unchanged on mismatch.
    pub fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        if checkpoint.fingerprint != self.fingerprint {
            return Err(CheckpointError::ProgramMismatch {
                expected: self.fingerprint,
                found: checkpoint.fingerprint,
            });
        }
        self.state = checkpoint.state.clone();
        if let Some(rom) = &mut self.rom {
            let lines = rom.expanded.len();
            self.decoded.fill(Op::Undecoded);
            rom.expanded.fill(false);
            let flags = match &checkpoint.rom_expanded {
                Some(flags) if flags.len() == lines => flags,
                // Plain-machine checkpoint (or a different ROM geometry):
                // nothing is pre-expanded; fetches re-expand on demand.
                _ => return Ok(()),
            };
            for (line, _) in flags.iter().enumerate().filter(|&(_, &flag)| flag) {
                expand_rom_line(&rom.image, line, &mut self.decoded)
                    .map_err(|address| CheckpointError::CorruptRom { address })?;
                rom.expanded[line] = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NullSink;
    use crate::MachineConfig;
    use ccrp::DegradePolicy;
    use ccrp_asm::assemble;
    use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};

    const SUM_SRC: &str = "
        main:
            li   $t0, 10
            li   $t1, 0
        loop:
            addu $t1, $t1, $t0
            addiu $t0, $t0, -1
            bnez $t0, loop
            li   $v0, 1
            move $a0, $t1
            syscall
            li   $v0, 10
            syscall
        ";

    #[test]
    fn checkpoint_round_trips_through_bytes() {
        let image = assemble(SUM_SRC).unwrap();
        let mut m = Machine::new(&image);
        for _ in 0..7 {
            m.step(&mut NullSink).unwrap();
        }
        let ck = m.checkpoint();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.steps(), 7);
    }

    #[test]
    fn restored_machine_finishes_identically() {
        let image = assemble(SUM_SRC).unwrap();
        let mut original = Machine::new(&image);
        for _ in 0..5 {
            original.step(&mut NullSink).unwrap();
        }
        let ck = original.checkpoint();
        let mut resumed = Machine::new(&image);
        resumed.restore(&ck).unwrap();
        assert_eq!(resumed.arch_state(), original.arch_state());
        let a = original.run(&mut NullSink).unwrap();
        let b = resumed.run(&mut NullSink).unwrap();
        assert_eq!(a, b);
        assert_eq!(original.arch_state(), resumed.arch_state());
        assert_eq!(original.output(), "55");
    }

    #[test]
    fn wrong_program_is_rejected_and_state_untouched() {
        let image = assemble(SUM_SRC).unwrap();
        let other = assemble("main: li $v0, 10\n syscall").unwrap();
        let mut m = Machine::new(&image);
        m.step(&mut NullSink).unwrap();
        let before = m.arch_state().clone();
        let foreign = Machine::new(&other).checkpoint();
        let err = m.restore(&foreign).unwrap_err();
        assert!(matches!(err, CheckpointError::ProgramMismatch { .. }));
        assert_eq!(m.arch_state(), &before);
    }

    #[test]
    fn rom_machine_checkpoint_resumes_under_demand_policy() {
        let image = assemble(SUM_SRC).unwrap();
        let code = ByteCode::preselected(&ByteHistogram::of(image.text_bytes())).unwrap();
        let rom = ccrp::CompressedImage::build(
            image.text_base(),
            image.text_bytes(),
            code,
            BlockAlignment::Word,
        )
        .unwrap();
        let mut original = Machine::with_compressed_text(
            &image,
            &rom,
            DegradePolicy::Trap,
            MachineConfig::default(),
        )
        .unwrap();
        for _ in 0..9 {
            original.step(&mut NullSink).unwrap();
        }
        let ck = original.checkpoint();
        assert!(ck.rom_expanded.is_some());
        let mut resumed = Machine::with_compressed_text(
            &image,
            &rom,
            DegradePolicy::Trap,
            MachineConfig::default(),
        )
        .unwrap();
        resumed
            .restore(&Checkpoint::from_bytes(&ck.to_bytes()).unwrap())
            .unwrap();
        original.run(&mut NullSink).unwrap();
        resumed.run(&mut NullSink).unwrap();
        assert_eq!(original.arch_state(), resumed.arch_state());
    }

    #[test]
    fn plain_checkpoint_restores_into_rom_machine() {
        let image = assemble(SUM_SRC).unwrap();
        let code = ByteCode::preselected(&ByteHistogram::of(image.text_bytes())).unwrap();
        let rom = ccrp::CompressedImage::build(
            image.text_base(),
            image.text_bytes(),
            code,
            BlockAlignment::Word,
        )
        .unwrap();
        let mut plain = Machine::new(&image);
        for _ in 0..4 {
            plain.step(&mut NullSink).unwrap();
        }
        let ck = plain.checkpoint();
        let mut rom_machine = Machine::with_compressed_text(
            &image,
            &rom,
            DegradePolicy::Retry { attempts: 2 },
            MachineConfig::default(),
        )
        .unwrap();
        rom_machine.restore(&ck).unwrap();
        plain.run(&mut NullSink).unwrap();
        rom_machine.run(&mut NullSink).unwrap();
        assert_eq!(plain.arch_state(), rom_machine.arch_state());
    }
}
