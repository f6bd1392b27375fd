//! The RV32 lockstep campaign: the second ISA behind the generalized
//! difftest.
//!
//! Each trial generates one seeded random RV32 program
//! ([`Rv32ProgGen`]), assembles it into **both** encodings (base RV32I
//! and RVC), and for each encoding runs the plain-ROM reference against
//! three compressed variants — the directly built CCRP ROM, a
//! v1-container round-trip, and a v2-container round-trip — through the
//! same ISA-generic [`run_lockstep`] driver the MIPS campaign uses,
//! then sweeps the refill timing invariants over both ROMs. Finally the
//! two encodings' *architectural end states* (output, exit code, the 31
//! writable GPRs) are compared against each other: the generator emits
//! no `auipc` and no link-writing jumps, so the RV32I and RV32C builds
//! of one program must agree exactly, making the campaign a
//! cross-*encoding* differential test as well as a plain-vs-compressed
//! one.

use ccrp::CompressedImage;
use ccrp_emu::IsaCore;
use ccrp_rv32::progen::Rv32ProgGen;
use ccrp_rv32::{disassemble, rvc, Encoding, Rv32Config, Rv32Image, Rv32Machine};

use crate::cosim::{container_round_trips, self_trained_rom, CosimVerdict, DivergenceReport};
use crate::lockstep::{run_lockstep, LockstepVariant};
use crate::timing::check_refill_invariants;
use crate::{TrialOutcome, TrialReport, TRIAL_MAX_STEPS};

/// Builds the compressed ROM for an RV32 image with a self-trained
/// byte-Huffman code, mirroring [`build_rom`](crate::build_rom) for
/// MIPS images.
///
/// # Errors
///
/// Describes the compression failure (empty text, misaligned base).
pub fn build_rv32_rom(image: &Rv32Image) -> Result<CompressedImage, String> {
    self_trained_rom(image.text_base(), image.text())
}

/// Runs `image` on the plain-ROM reference and on the standard RV32
/// compressed-variant matrix (direct ROM, v1 container round-trip, v2
/// container round-trip) in lockstep.
///
/// # Errors
///
/// Infrastructure failures: compression or a container round-trip
/// broke, or the reference machine itself faulted / exceeded
/// `max_steps` (an invalid generated program). Variant misbehaviour is
/// a [`CosimVerdict::Divergence`], never an `Err`.
pub fn run_rv32_cosim(image: &Rv32Image, max_steps: u64) -> Result<CosimVerdict, String> {
    rv32_lockstep(image, max_steps).map(|(verdict, ..)| verdict)
}

/// [`run_rv32_cosim`], also returning the reference machine, whose end
/// state a matching run leaves readable, and the directly built ROM.
fn rv32_lockstep(
    image: &Rv32Image,
    max_steps: u64,
) -> Result<(CosimVerdict, Rv32Machine, CompressedImage), String> {
    let rom = build_rv32_rom(image)?;
    let config = Rv32Config { max_steps };
    // The round-trip images live only until their machines are built.
    let variants = {
        let (v1, v2) = container_round_trips(&rom)?;
        [
            ("direct", &rom),
            ("v1-container", &v1),
            ("v2-container", &v2),
        ]
        .into_iter()
        .map(|(label, rom)| LockstepVariant {
            label,
            machine: Rv32Machine::with_compressed_text(image, rom, config.clone()),
        })
        .collect()
    };
    let mut reference = Rv32Machine::with_config(image, config);
    let verdict = run_lockstep(&mut reference, variants, image.entry(), max_steps, |pc| {
        rv32_disasm_window(image, pc)
    })?;
    Ok((verdict, reference, rom))
}

/// Disassembles ±4 instructions around `pc`, marking the faulting line.
/// RVC makes instruction boundaries data-dependent, so the window walks
/// the length-classified halfword stream from the image base instead of
/// assuming a fixed 4-byte stride.
pub fn rv32_disasm_window(image: &Rv32Image, pc: u32) -> Vec<String> {
    let text = image.text();
    let mut boundaries = Vec::new();
    let mut off = 0usize;
    while off + 2 <= text.len() {
        boundaries.push(off as u32);
        let low = u16::from_le_bytes([text[off], text[off + 1]]);
        off += rvc::instr_bytes(low) as usize;
    }
    let at = boundaries.partition_point(|&addr| addr < pc);
    let lo = at.saturating_sub(4);
    let hi = (at + 5).min(boundaries.len());
    boundaries[lo..hi]
        .iter()
        .map(|&addr| {
            let marker = if addr == pc { '>' } else { ' ' };
            format!(
                "{marker} {addr:#010x}  {}",
                disassemble(&text[addr as usize..])
            )
        })
        .collect()
}

/// The architectural end state the cross-encoding comparison inspects.
struct FinalState {
    output: String,
    exit: Option<i32>,
    gprs: [u32; 32],
}

/// Runs the full RV32 differential trial for `seed`: generate, assemble
/// *both* encodings, lockstep each against its compressed variants,
/// sweep the refill timing invariants over both ROMs, then check the
/// two encodings reached the same architectural end state — each read
/// from its lockstep reference.
/// Deterministic: the report is a pure function of `seed`.
/// [`TrialReport::instructions`], `text_bytes`, `lat_entries`, and
/// `refills` each sum both encodings' legs.
pub fn run_trial_rv32(seed: u64) -> TrialReport {
    let generated = Rv32ProgGen::generate(seed);
    let mut report = TrialReport::default();
    let mut finals: Vec<FinalState> = Vec::new();
    for (tag, encoding) in [("rv32i", Encoding::Rv32I), ("rv32c", Encoding::Rv32C)] {
        let image = match generated.assemble(encoding) {
            Ok(image) => image,
            Err(err) => {
                report.outcome = TrialOutcome::GenFailure(format!("{tag} assembly failed: {err}"));
                return report;
            }
        };
        report.text_bytes += u64::from(image.text_size());
        report.lat_entries += u64::from(image.text_lines().div_ceil(8));
        let (reference, rom) = match rv32_lockstep(&image, TRIAL_MAX_STEPS) {
            Err(err) => {
                report.outcome = TrialOutcome::GenFailure(format!("{tag}: {err}"));
                return report;
            }
            Ok((CosimVerdict::Divergence(divergence), ..)) => {
                // The generator has no line-level shrinker (programs are
                // typed item streams, not text), so the report ships the
                // disassembled window unminimized.
                report.outcome = TrialOutcome::Divergence(divergence);
                return report;
            }
            Ok((CosimVerdict::Match { instructions }, reference, rom)) => {
                report.instructions += instructions;
                (reference, rom)
            }
        };
        let timing = check_refill_invariants(&rom);
        report.refills += timing.refills;
        if !timing.clean() {
            report.outcome =
                TrialOutcome::TimingViolation(format!("{tag}: {}", timing.violations.join("; ")));
            return report;
        }
        finals.push(FinalState {
            output: reference.output().to_string(),
            exit: reference.exit_code(),
            gprs: *IsaCore::gprs(&reference),
        });
    }
    if let Some(divergence) = cross_encoding_divergence(&finals[0], &finals[1]) {
        report.outcome = TrialOutcome::Divergence(Box::new(DivergenceReport {
            step: report.instructions,
            pc: 0,
            variant: "rv32c-vs-rv32i",
            field: divergence.0,
            detail: divergence.1,
            window: Vec::new(),
            minimized: None,
        }));
    }
    report
}

/// First difference between the two encodings' end states, if any.
fn cross_encoding_divergence(i: &FinalState, c: &FinalState) -> Option<(String, String)> {
    if i.output != c.output {
        return Some((
            "output".to_string(),
            format!("rv32i {:?} vs rv32c {:?}", i.output, c.output),
        ));
    }
    if i.exit != c.exit {
        return Some((
            "exit_code".to_string(),
            format!("rv32i {:?} vs rv32c {:?}", i.exit, c.exit),
        ));
    }
    for ((a, b), name) in i.gprs.iter().zip(&c.gprs).zip(Rv32Machine::GPR_NAMES) {
        if a != b {
            return Some((
                name.to_string(),
                format!("rv32i {a:#010x} vs rv32c {b:#010x}"),
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rv32_trials_match_and_are_deterministic() {
        for seed in [1u64, 2, 42] {
            let a = run_trial_rv32(seed);
            let b = run_trial_rv32(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert_eq!(
                a.outcome,
                TrialOutcome::Match,
                "seed {seed}: {:?}",
                a.outcome
            );
            assert!(a.instructions > 0);
            assert!(
                a.lat_entries >= 2,
                "seed {seed} too small to stress the LAT"
            );
            assert!(a.refills > 0);
        }
    }

    #[test]
    fn both_encodings_cosim_cleanly() {
        let generated = Rv32ProgGen::generate(7);
        for encoding in [Encoding::Rv32I, Encoding::Rv32C] {
            let image = generated.assemble(encoding).expect("assembles");
            match run_rv32_cosim(&image, TRIAL_MAX_STEPS).expect("cosim runs") {
                CosimVerdict::Match { instructions } => assert!(instructions > 0),
                CosimVerdict::Divergence(report) => {
                    panic!("{encoding:?} diverged:\n{report}")
                }
            }
        }
    }

    #[test]
    fn corrupt_rv32_rom_is_caught() {
        let image = Rv32ProgGen::generate(3)
            .assemble(Encoding::Rv32C)
            .expect("assembles");
        let mut rom = build_rv32_rom(&image).expect("builds");
        rom.corrupt_block_byte(0, 0, 0xFF).expect("corrupts");
        let config = Rv32Config::default();
        let mut reference = Rv32Machine::with_config(&image, config.clone());
        let verdict = run_lockstep(
            &mut reference,
            vec![LockstepVariant {
                label: "corrupt",
                machine: Rv32Machine::with_compressed_text(&image, &rom, config),
            }],
            image.entry(),
            100_000,
            |pc| rv32_disasm_window(&image, pc),
        )
        .expect("runs");
        // A flipped stream byte either faults the corrupted line's
        // expansion (RomFault vs clean reference = fault divergence) or
        // decodes to wrong instructions the comparison flags.
        match verdict {
            CosimVerdict::Divergence(report) => {
                assert_eq!(report.variant, "corrupt");
            }
            CosimVerdict::Match { .. } => panic!("corruption went unnoticed"),
        }
    }

    #[test]
    fn compare_names_the_first_differing_gpr() {
        // `t0` and `t1` after two `li`s, as the lockstep compare sees
        // them: when both differ, the lower-numbered one is named.
        let run = |t0: i32, t1: i32| {
            let mut asm = ccrp_rv32::Rv32Asm::new();
            asm.li(ccrp_rv32::XReg::T0, t0);
            asm.li(ccrp_rv32::XReg::T1, t1);
            let image = asm.assemble(Encoding::Rv32I).expect("assembles");
            let mut machine = Rv32Machine::new(&image);
            for _ in 0..2 {
                machine.step(&mut ccrp_emu::NullSink).expect("steps");
            }
            machine
        };
        let compare =
            |variant: &Rv32Machine| crate::lockstep::compare_cores(&run(3, 5), variant, &[], &[]);
        let mismatch = |field: &str, detail: &str| Some((field.to_string(), detail.to_string()));
        assert_eq!(
            compare(&run(4, 6)),
            mismatch("t0", "0x00000003 vs 0x00000004")
        );
        assert_eq!(
            compare(&run(3, 6)),
            mismatch("t1", "0x00000005 vs 0x00000006")
        );
        assert_eq!(compare(&run(3, 5)), None);
    }

    #[test]
    fn disasm_window_walks_rvc_boundaries() {
        let image = Rv32ProgGen::generate(1)
            .assemble(Encoding::Rv32C)
            .expect("assembles");
        // Find a PC a few instructions in by walking the stream.
        let text = image.text();
        let mut pc = 0usize;
        for _ in 0..6 {
            let low = u16::from_le_bytes([text[pc], text[pc + 1]]);
            pc += rvc::instr_bytes(low) as usize;
        }
        let window = rv32_disasm_window(&image, pc as u32);
        assert_eq!(window.len(), 9, "4 before + marked + 4 after");
        assert_eq!(
            window.iter().filter(|l| l.starts_with('>')).count(),
            1,
            "exactly one marked line:\n{}",
            window.join("\n")
        );
        assert!(window.iter().all(|l| !l.contains(".half")));
    }
}
