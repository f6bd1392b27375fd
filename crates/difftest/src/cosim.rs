//! Lockstep differential co-simulation.
//!
//! Runs the same [`ProgramImage`] on a plain-ROM reference machine and
//! on four compressed-ROM variants (the direct image under Abort, a v1
//! container round-trip under Trap, a v2 container round-trip under
//! Retry — one per [`DegradePolicy`] — and a self-trained
//! positional-codec image in a v2 container under Abort), comparing the
//! full architectural state after every retired instruction: PC, the 32
//! GPRs, hi/lo, the CP1 register file and condition flag, program
//! output, the ordered data-access log, and the memory words each
//! instruction touched. The first mismatch produces a
//! [`DivergenceReport`] with a disassembled window around the faulting
//! PC; the caller may attach a shrunk repro via [`minimize_lines`].

use std::fmt;

use ccrp::{CompressedImage, DegradePolicy};
use ccrp_asm::ProgramImage;
use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram, PositionalCode, PositionalHistogram};
use ccrp_emu::{Machine, MachineConfig, TraceSink};
use ccrp_isa::disassemble_word;

use crate::lockstep::{run_lockstep, LockstepVariant};

/// Records the data accesses one instruction performed, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordingSink {
    /// `(address, is_store)` pairs in execution order.
    pub accesses: Vec<(u32, bool)>,
}

impl TraceSink for RecordingSink {
    fn instruction(&mut self, _pc: u32) {}

    fn data_access(&mut self, addr: u32, store: bool) {
        self.accesses.push((addr, store));
    }
}

/// First observed difference between the reference and a variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// Retired-instruction count at the divergence (1-based; 0 means
    /// the variant failed to construct).
    pub step: u64,
    /// Address of the instruction that diverged.
    pub pc: u32,
    /// Which compressed variant diverged.
    pub variant: &'static str,
    /// The state component that differed (e.g. `"$t3"`, `"pc"`).
    pub field: String,
    /// Reference vs variant values.
    pub detail: String,
    /// Disassembled window around [`pc`](Self::pc), faulting line
    /// marked with `>`.
    pub window: Vec<String>,
    /// Minimized source repro, when the shrinker found one.
    pub minimized: Option<String>,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "divergence on `{}` at step {} pc {:#010x}: {} ({})",
            self.variant, self.step, self.pc, self.field, self.detail
        )?;
        for line in &self.window {
            writeln!(f, "  {line}")?;
        }
        if let Some(minimized) = &self.minimized {
            writeln!(f, "minimized repro:")?;
            for line in minimized.lines() {
                writeln!(f, "  {line}")?;
            }
        }
        Ok(())
    }
}

/// Outcome of one lockstep run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CosimVerdict {
    /// Every variant matched the reference to completion.
    Match {
        /// Retired instructions (identical across machines).
        instructions: u64,
    },
    /// A variant disagreed with the reference.
    Divergence(Box<DivergenceReport>),
}

/// Builds the compressed ROM for `image` with the workspace's standard
/// byte-Huffman code.
///
/// # Errors
///
/// Describes the compression failure (empty text, misaligned base).
pub fn build_rom(image: &ProgramImage) -> Result<CompressedImage, String> {
    self_trained_rom(image.text_base(), image.text_bytes())
}

/// The compressed ROM of `text` at `text_base`, under the preselected
/// byte-Huffman code of its own bytes, for both ISAs' ROM builders.
pub(crate) fn self_trained_rom(text_base: u32, text: &[u8]) -> Result<CompressedImage, String> {
    let code = ByteCode::preselected(&ByteHistogram::of(text))
        .map_err(|e| format!("code selection failed: {e}"))?;
    CompressedImage::build(text_base, text, code, BlockAlignment::Word)
        .map_err(|e| format!("compressed image build failed: {e}"))
}

/// One compressed execution variant for [`run_cosim_with`].
pub struct CosimVariant {
    /// Display label, e.g. `"v1-trap"`.
    pub label: &'static str,
    /// The ROM this variant fetches from.
    pub rom: CompressedImage,
    /// Its degradation policy.
    pub policy: DegradePolicy,
}

/// Runs the standard variant matrix for `image`: the directly-built ROM
/// under [`DegradePolicy::Abort`] (eager expansion), a v1-container
/// round-trip under [`DegradePolicy::Trap`], a v2-container round-trip
/// (header + per-block CRCs) under [`DegradePolicy::Retry`], and a
/// positional-codec v2 round-trip under [`DegradePolicy::Abort`] so the
/// non-default codec path is lockstep-checked too.
///
/// # Errors
///
/// Infrastructure failures — compression or container round-trip broke,
/// or the *reference* machine faulted / exceeded `max_steps`, which
/// means the generated program itself is invalid.
pub fn run_cosim(image: &ProgramImage, max_steps: u64) -> Result<CosimVerdict, String> {
    let rom = build_rom(image)?;
    run_cosim_with(image, standard_variants(image, &rom)?, max_steps)
}

/// The standard variant matrix over `rom`, `image`'s [`build_rom`]
/// image, shared by [`run_cosim`] and the trials.
pub(crate) fn standard_variants(
    image: &ProgramImage,
    rom: &CompressedImage,
) -> Result<Vec<CosimVariant>, String> {
    let (v1, v2) = container_round_trips(rom)?;
    // A self-trained positional ROM, round-tripped through a v2
    // container: exercises the codec-id byte, the codec-params section,
    // and the positional decode path under lockstep comparison.
    let positional = {
        let text = image.text_bytes();
        let code = PositionalCode::preselected(&PositionalHistogram::of(text))
            .map_err(|e| format!("positional code selection failed: {e}"))?;
        let rom = CompressedImage::build_with_codec(
            image.text_base(),
            text,
            std::sync::Arc::new(code),
            BlockAlignment::Word,
        )
        .map_err(|e| format!("positional image build failed: {e}"))?;
        CompressedImage::from_bytes(&rom.to_bytes_v2())
            .map_err(|e| format!("positional v2 container round-trip failed: {e}"))?
    };
    Ok(vec![
        CosimVariant {
            label: "direct-abort",
            rom: rom.clone(),
            policy: DegradePolicy::Abort,
        },
        CosimVariant {
            label: "v1-trap",
            rom: v1,
            policy: DegradePolicy::Trap,
        },
        CosimVariant {
            label: "v2-retry",
            rom: v2,
            policy: DegradePolicy::Retry { attempts: 2 },
        },
        CosimVariant {
            label: "positional-v2",
            rom: positional,
            policy: DegradePolicy::Abort,
        },
    ])
}

/// `rom` read back from its serialized v1 and v2 containers, in that
/// order.
pub(crate) fn container_round_trips(
    rom: &CompressedImage,
) -> Result<(CompressedImage, CompressedImage), String> {
    let v1 = CompressedImage::from_bytes(&rom.to_bytes())
        .map_err(|e| format!("v1 container round-trip failed: {e}"))?;
    let v2 = CompressedImage::from_bytes(&rom.to_bytes_v2())
        .map_err(|e| format!("v2 container round-trip failed: {e}"))?;
    Ok((v1, v2))
}

/// Runs `image` on the reference machine and on each variant in
/// lockstep, through the ISA-generic [`run_lockstep`] driver. A variant
/// that fails to construct (eager expansion of a corrupt ROM under
/// Abort) is reported as a step-0 divergence — the integrity machinery
/// caught the corruption before execution.
///
/// # Errors
///
/// See [`run_cosim`]; variant misbehaviour is a
/// [`CosimVerdict::Divergence`], never an `Err`.
pub fn run_cosim_with(
    image: &ProgramImage,
    variants: Vec<CosimVariant>,
    max_steps: u64,
) -> Result<CosimVerdict, String> {
    let (mut reference, variants) = machines(image, variants, max_steps);
    run_lockstep(&mut reference, variants, image.entry(), max_steps, |pc| {
        disasm_window(image, pc)
    })
}

/// The reference machine for `image` and one lockstep variant per
/// compressed ROM, all under a `max_steps` budget. Each ROM is dropped
/// once its machine is built.
pub(crate) fn machines(
    image: &ProgramImage,
    variants: Vec<CosimVariant>,
    max_steps: u64,
) -> (Machine, Vec<LockstepVariant<Machine>>) {
    let config = MachineConfig { max_steps };
    let variants = variants
        .into_iter()
        .map(|variant| LockstepVariant {
            label: variant.label,
            machine: Machine::with_compressed_text(
                image,
                &variant.rom,
                variant.policy,
                config.clone(),
            )
            .map_err(|err| format!("{err:?}")),
        })
        .collect();
    (Machine::with_config(image, config), variants)
}

/// Disassembles ±4 instructions around `pc`, marking the faulting line.
pub(crate) fn disasm_window(image: &ProgramImage, pc: u32) -> Vec<String> {
    let mut out = Vec::new();
    for slot in -4i64..=4 {
        let addr = i64::from(pc) + slot * 4;
        let Ok(addr) = u32::try_from(addr) else {
            continue;
        };
        if let Some(word) = image.word_at(addr) {
            let marker = if addr == pc { '>' } else { ' ' };
            out.push(format!("{marker} {addr:#010x}  {}", disassemble_word(word)));
        }
    }
    out
}

/// Greedy line-removal shrinker. Repeatedly deletes single `removable`
/// lines (highest index first, so earlier indices stay valid), keeping
/// a deletion only when `still_fails` accepts the shrunk source, until
/// a pass removes nothing or `budget` checks are spent. `still_fails`
/// must re-validate the candidate end to end (re-assemble, re-run), so
/// a deletion that breaks assembly or termination is simply rejected.
pub fn minimize_lines(
    lines: &[String],
    removable: &[usize],
    budget: usize,
    mut still_fails: impl FnMut(&str) -> bool,
) -> Vec<String> {
    let mut kept: Vec<Option<&String>> = lines.iter().map(Some).collect();
    let mut checks = 0usize;
    loop {
        let mut shrunk = false;
        for &index in removable.iter().rev() {
            if checks >= budget {
                return render(&kept);
            }
            let Some(slot) = kept.get_mut(index) else {
                continue;
            };
            let Some(line) = slot.take() else {
                continue;
            };
            checks += 1;
            if still_fails(&render_source(&kept)) {
                shrunk = true;
            } else if let Some(slot) = kept.get_mut(index) {
                *slot = Some(line);
            }
        }
        if !shrunk {
            return render(&kept);
        }
    }
}

fn render(kept: &[Option<&String>]) -> Vec<String> {
    kept.iter().flatten().map(|s| (*s).clone()).collect()
}

fn render_source(kept: &[Option<&String>]) -> String {
    let mut out = String::new();
    for line in kept.iter().flatten() {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// True when `verdict` is a divergence — the shrinker's usual predicate.
pub fn diverges(verdict: &Result<CosimVerdict, String>) -> bool {
    matches!(verdict, Ok(CosimVerdict::Divergence(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::compare_cores;
    use crate::progen::ProgGen;
    use ccrp_asm::assemble;

    #[test]
    fn pristine_programs_match_across_all_variants() {
        for seed in 0..12 {
            let image = assemble(&ProgGen::generate(seed).source()).expect("assembles");
            match run_cosim(&image, 2_000_000).expect("cosim runs") {
                CosimVerdict::Match { instructions } => assert!(instructions > 0),
                CosimVerdict::Divergence(report) => {
                    panic!("seed {seed} diverged:\n{report}")
                }
            }
        }
    }

    #[test]
    fn corrupt_rom_is_reported_as_divergence_under_abort() {
        let image = assemble(&ProgGen::generate(3).source()).expect("assembles");
        let mut rom = build_rom(&image).expect("builds");
        rom.corrupt_block_byte(0, 0, 0xFF).expect("corrupts");
        let verdict = run_cosim_with(
            &image,
            vec![CosimVariant {
                label: "corrupt-abort",
                rom,
                policy: DegradePolicy::Abort,
            }],
            100_000,
        )
        .expect("runs");
        // A flipped stream byte either fails eager expansion (step-0
        // construction divergence) or decodes to wrong instructions the
        // lockstep comparison flags on the corrupted line's first use.
        match verdict {
            CosimVerdict::Divergence(report) => {
                if report.step == 0 {
                    assert_eq!(report.field, "construction");
                }
            }
            CosimVerdict::Match { .. } => panic!("corruption went unnoticed"),
        }
    }

    #[test]
    fn mips_state_past_the_gprs_is_compared_in_order() {
        // Program pairs of equal length, with the field and detail the
        // comparison reports, or `None` for twins that must match. Where
        // two fields differ, the one compared first is named.
        let cases = [
            // Two GPRs differ: the lower-numbered one.
            (
                "li $t0, 3\nli $t1, 5\nli $v0, 10\nsyscall",
                "li $t0, 4\nli $t1, 6\nli $v0, 10\nsyscall",
                Some(("$t0", "0x00000003 vs 0x00000004")),
            ),
            // A GPR and an FPA register differ: the GPR file comes first.
            (
                "li $t0, 7\nmtc1 $t0, $f2\nli $v0, 10\nsyscall",
                "li $t0, 9\nmtc1 $t0, $f2\nli $v0, 10\nsyscall",
                Some(("$t0", "0x00000007 vs 0x00000009")),
            ),
            // Two FPA registers differ: the lower-numbered one.
            (
                "li $t0, 7\nmtc1 $t0, $f2\nli $t0, 5\nmtc1 $t0, $f4\nli $t0, 0\nli $v0, 10\nsyscall",
                "li $t0, 8\nmtc1 $t0, $f2\nli $t0, 6\nmtc1 $t0, $f4\nli $t0, 0\nli $v0, 10\nsyscall",
                Some(("$f2", "0x00000007 vs 0x00000008")),
            ),
            // An FPA register and `fp_cond` differ: the register file
            // comes first ($f2 against the zero in $f0 sets the flag
            // only in the variant).
            (
                "li $t0, 7\nmtc1 $t0, $f2\nc.eq.s $f2, $f0\nli $t0, 0\nli $v0, 10\nsyscall",
                "li $t0, 0\nmtc1 $t0, $f2\nc.eq.s $f2, $f0\nli $t0, 0\nli $v0, 10\nsyscall",
                Some(("$f2", "0x00000007 vs 0x00000000")),
            ),
            // Only `fp_cond` differs.
            (
                "li $t0, 7\nmtc1 $t0, $f2\nc.eq.s $f2, $f0\nmtc1 $zero, $f2\nli $t0, 0\nli $v0, 10\nsyscall",
                "li $t0, 0\nmtc1 $t0, $f2\nc.eq.s $f2, $f0\nmtc1 $zero, $f2\nli $t0, 0\nli $v0, 10\nsyscall",
                Some(("fp_cond", "false vs true")),
            ),
            // Only HI/LO differ.
            (
                "li $t0, 3\nli $t1, 5\nmult $t0, $t1\nli $t1, 0\nli $v0, 10\nsyscall",
                "li $t0, 3\nli $t1, 6\nmult $t0, $t1\nli $t1, 0\nli $v0, 10\nsyscall",
                Some(("hi/lo", "0x00000000:0x0000000f vs 0x00000000:0x00000012")),
            ),
            // An FPA register and the exit status differ: the FPA file
            // comes first.
            (
                "li $t0, 7\nmtc1 $t0, $f2\nli $t0, 0\nli $v0, 10\nsyscall",
                "li $t0, 9\nmtc1 $t0, $f2\nli $t0, 0\nli $v0, 10\nnop",
                Some(("$f2", "0x00000007 vs 0x00000009")),
            ),
            // One prints `7`, its twin nothing.
            (
                "li $a0, 7\nli $v0, 1\nsyscall\nli $v0, 10\nsyscall",
                "li $a0, 7\nli $v0, 1\nnop\nli $v0, 10\nsyscall",
                Some(("output", "\"7\" vs \"\"")),
            ),
            // Equal lengths, different bytes.
            (
                "li $a0, 7\nli $v0, 1\nsyscall\nli $a0, 0\nli $v0, 10\nsyscall",
                "li $a0, 9\nli $v0, 1\nsyscall\nli $a0, 0\nli $v0, 10\nsyscall",
                Some(("output", "\"7\" vs \"9\"")),
            ),
            // Twins that print nothing, and twins that print the same.
            (
                "li $t0, 3\nli $v0, 10\nsyscall",
                "li $t0, 3\nli $v0, 10\nsyscall",
                None,
            ),
            (
                "li $a0, 7\nli $v0, 1\nsyscall\nli $v0, 10\nsyscall",
                "li $a0, 7\nli $v0, 1\nsyscall\nli $v0, 10\nsyscall",
                None,
            ),
        ];
        let run = |body: &str| {
            let image = assemble(&format!("main:\n{body}\n")).expect("assembles");
            let mut machine = Machine::new(&image);
            for _ in 0..body.lines().count() {
                machine.step(&mut ccrp_emu::NullSink).expect("steps");
            }
            machine
        };
        for (reference, variant, expected) in cases {
            let (a, b) = (run(reference), run(variant));
            let mismatch = compare_cores(&a, &b, &[], &[]);
            assert_eq!(
                mismatch,
                expected.map(|(field, detail)| (field.to_string(), detail.to_string())),
                "{variant}"
            );
        }
    }

    #[test]
    fn minimize_lines_shrinks_to_the_failing_line() {
        let lines: Vec<String> = ["keep:", "a", "b", "poison", "c"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let removable = vec![1, 2, 3, 4];
        let minimal = minimize_lines(&lines, &removable, 64, |src| src.contains("poison"));
        assert_eq!(minimal, vec!["keep:".to_string(), "poison".to_string()]);
    }

    #[test]
    fn minimize_lines_respects_budget() {
        let lines: Vec<String> = (0..10).map(|i| format!("l{i}")).collect();
        let removable: Vec<usize> = (0..10).collect();
        let mut calls = 0;
        let out = minimize_lines(&lines, &removable, 3, |_| {
            calls += 1;
            false
        });
        assert_eq!(calls, 3);
        assert_eq!(out.len(), 10);
    }
}
