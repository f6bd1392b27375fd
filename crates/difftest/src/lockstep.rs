//! The ISA-generic lockstep driver.
//!
//! [`run_lockstep`] is the co-simulation loop itself, factored out of
//! the MIPS-specific [`cosim`](crate::cosim) module and made generic
//! over [`IsaCore`]: one reference machine and any number of variant
//! machines execute the same program an instruction at a time, and
//! after every retired instruction [`compare_cores`] checks the full
//! architectural state. The MIPS path
//! ([`run_cosim_with`](crate::cosim::run_cosim_with)) and the RV32 path
//! ([`run_rv32_cosim`](crate::rv32::run_rv32_cosim)) are both thin
//! wrappers: they construct the machines and supply the per-ISA
//! disassembly-window hook, while the stepping, comparison,
//! fault-matching, budget, and reporting logic lives here once. The
//! checkpoint-segmented runner
//! ([`run_cosim_segmented_with`](crate::segmented::run_cosim_segmented_with))
//! resumes the same driver once per segment.
//!
//! The driver's observable behaviour is pinned by the MIPS campaign's
//! committed `BENCH_difftest.json`: construction failures surface as
//! step-0 divergences, matching faults on both sides end the run as an
//! infrastructure error (the *generated program* is broken, not the
//! compression), and the first state mismatch wins.

use ccrp_emu::IsaCore;

use crate::cosim::{CosimVerdict, DivergenceReport, RecordingSink};

/// One variant machine for [`run_lockstep`]: a label plus either the
/// constructed machine or the construction failure's rendered detail
/// (reported as a step-0 divergence — for compressed ROMs, eager
/// expansion of a corrupt image fails here).
pub struct LockstepVariant<M> {
    /// Display label, e.g. `"v1-trap"`.
    pub label: &'static str,
    /// The machine, or why it could not be built.
    pub machine: Result<M, String>,
}

/// Runs `reference` and every variant in lockstep until the reference
/// exits, comparing with [`compare_cores`] after each retired
/// instruction and rendering divergence windows with `window`. `entry`
/// is the program entry point (the PC reported for construction
/// failures). The reference is borrowed, so the caller can read its end
/// state.
///
/// # Errors
///
/// Infrastructure failures: the reference exceeded `max_steps`, or it
/// faulted and every variant reproduced the identical fault — either
/// way the generated program is invalid, which is a harness bug rather
/// than a compression divergence.
pub fn run_lockstep<M, W>(
    reference: &mut M,
    variants: Vec<LockstepVariant<M>>,
    entry: u32,
    max_steps: u64,
    window: W,
) -> Result<CosimVerdict, String>
where
    M: IsaCore,
    W: Fn(u32) -> Vec<String>,
{
    let mut lockstep = match Lockstep::new(variants, entry, window) {
        Ok(lockstep) => lockstep,
        Err(divergence) => return Ok(CosimVerdict::Divergence(divergence)),
    };
    // The fuel guard backing the generator's termination-by-construction
    // invariant: if a generated program ever loops, the campaign reports
    // a budget error instead of hanging a worker.
    lockstep
        .run(reference, 0, max_steps)?
        .ok_or_else(|| format!("reference exceeded step budget {max_steps}"))
}

/// The resumable driver behind [`run_lockstep`]: the variant machines,
/// their data-access logs, and the hook that renders divergence windows.
pub(crate) struct Lockstep<M, W> {
    variants: Vec<(&'static str, M, RecordingSink)>,
    ref_sink: RecordingSink,
    window: W,
}

impl<M, W> Lockstep<M, W>
where
    M: IsaCore,
    W: Fn(u32) -> Vec<String>,
{
    /// Takes the variant machines. The first variant that failed to
    /// construct comes back as a step-0 divergence at `entry`.
    pub(crate) fn new(
        variants: Vec<LockstepVariant<M>>,
        entry: u32,
        window: W,
    ) -> Result<Self, Box<DivergenceReport>> {
        let mut running = Vec::new();
        for variant in variants {
            match variant.machine {
                Ok(machine) => running.push((variant.label, machine, RecordingSink::default())),
                Err(err) => {
                    return Err(Box::new(DivergenceReport {
                        step: 0,
                        pc: entry,
                        variant: variant.label,
                        field: "construction".to_string(),
                        detail: format!("reference constructed, variant failed: {err}"),
                        window: window(entry),
                        minimized: None,
                    }));
                }
            }
        }
        Ok(Self {
            variants: running,
            ref_sink: RecordingSink::default(),
            window,
        })
    }

    /// The variant machines with their labels, for a caller that
    /// restores them between runs.
    pub(crate) fn variants_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut M)> {
        self.variants
            .iter_mut()
            .map(|(label, machine, _)| (*label, machine))
    }

    /// Steps `reference` and every variant from retired-instruction
    /// count `step` until the count reaches `until`. Returns the verdict
    /// once a variant diverges or the reference exits, and `None` when
    /// `until` came first.
    ///
    /// # Errors
    ///
    /// The reference faulted and every variant reproduced the fault.
    pub(crate) fn run(
        &mut self,
        reference: &mut M,
        mut step: u64,
        until: u64,
    ) -> Result<Option<CosimVerdict>, String> {
        while step < until {
            let pc = reference.pc();
            self.ref_sink.accesses.clear();
            let ref_result = reference.step_traced(&mut self.ref_sink);
            step += 1;
            for (label, machine, sink) in &mut self.variants {
                sink.accesses.clear();
                let var_result = machine.step_traced(sink);
                let mismatch = match (&ref_result, &var_result) {
                    (Ok(()), Ok(())) => {
                        compare_cores(reference, machine, &self.ref_sink.accesses, &sink.accesses)
                    }
                    (Err(a), Err(b)) if a == b => None,
                    (a, b) => Some(("fault".to_string(), format!("reference {a:?} vs {b:?}"))),
                };
                if let Some((field, detail)) = mismatch {
                    return Ok(Some(CosimVerdict::Divergence(Box::new(DivergenceReport {
                        step,
                        pc,
                        variant: label,
                        field,
                        detail,
                        window: (self.window)(pc),
                        minimized: None,
                    }))));
                }
            }
            if let Err(err) = ref_result {
                // All variants reproduced the same fault (else we returned
                // above), so this is a generator bug, not a divergence.
                return Err(format!("generated program faulted identically: {err:?}"));
            }
            if reference.exit_code().is_some() {
                return Ok(Some(CosimVerdict::Match { instructions: step }));
            }
        }
        Ok(None)
    }
}

/// Compares the full post-step state, returning the first differing
/// `(field, reference-vs-variant detail)`: PC, the GPR file (compared
/// whole, and walked only to name its first differing register from
/// [`IsaCore::GPR_NAMES`]), then the state only the core itself can see
/// ([`IsaCore::private_mismatch`]: MIPS HI/LO and the FPA file; RV32
/// has none), then exit status, the ordered data-access log, the memory
/// words this instruction touched, and console output.
pub fn compare_cores<M: IsaCore>(
    reference: &M,
    variant: &M,
    ref_accesses: &[(u32, bool)],
    var_accesses: &[(u32, bool)],
) -> Option<(String, String)> {
    if reference.pc() != variant.pc() {
        return Some((
            "pc".to_string(),
            format!("{:#010x} vs {:#010x}", reference.pc(), variant.pc()),
        ));
    }
    let (ref_gprs, var_gprs) = (reference.gprs(), variant.gprs());
    if ref_gprs != var_gprs {
        for (name, (a, b)) in M::GPR_NAMES.iter().zip(ref_gprs.iter().zip(var_gprs)) {
            if a != b {
                return Some((name.to_string(), format!("{a:#010x} vs {b:#010x}")));
            }
        }
    }
    if let Some(mismatch) = reference.private_mismatch(variant) {
        return Some(mismatch);
    }
    if reference.exit_code() != variant.exit_code() {
        return Some((
            "exit_code".to_string(),
            format!("{:?} vs {:?}", reference.exit_code(), variant.exit_code()),
        ));
    }
    if ref_accesses != var_accesses {
        return Some((
            "data-access log".to_string(),
            format!("{ref_accesses:x?} vs {var_accesses:x?}"),
        ));
    }
    for &(addr, _store) in ref_accesses {
        let word = addr & !3;
        let (a, b) = (reference.read_word(word), variant.read_word(word));
        if a != b {
            return Some((format!("mem[{word:#010x}]"), format!("{a:x?} vs {b:x?}")));
        }
    }
    // Lengths first: both outputs stay empty until a program's first
    // print, which covers about two-thirds of these calls in a
    // `difftest` run, and `==` on two empty strings still calls `memcmp`
    // at their dangling pointers: about 150 ns, against 1–4 ns for a
    // length or heap-pointer compare (glibc 2.36, AVX-512 Xeon;
    // EXPERIMENTS.md).
    let (a, b) = (reference.output(), variant.output());
    if a.len() != b.len() || (!a.is_empty() && a != b) {
        return Some(("output".to_string(), format!("{a:?} vs {b:?}")));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccrp_emu::{Machine, MachineConfig};

    fn machine(source: &str) -> Machine {
        let image = ccrp_asm::assemble(source).expect("assembles");
        Machine::with_config(&image, MachineConfig::default())
    }

    const EXITING: &str = "
        main:
            li   $t0, 3
            li   $v0, 10
            syscall
        ";

    #[test]
    fn identical_machines_match_through_the_generic_driver() {
        let verdict = run_lockstep(
            &mut machine(EXITING),
            vec![LockstepVariant {
                label: "twin",
                machine: Ok(machine(EXITING)),
            }],
            0,
            1000,
            |_| Vec::new(),
        )
        .expect("runs");
        assert!(matches!(verdict, CosimVerdict::Match { instructions: 3 }));
    }

    #[test]
    fn construction_failure_is_a_step_zero_divergence() {
        let verdict = run_lockstep(
            &mut machine(EXITING),
            vec![LockstepVariant {
                label: "broken",
                machine: Err("deliberately unbuildable".to_string()),
            }],
            0x40_0000,
            1000,
            |pc| vec![format!("window at {pc:#x}")],
        )
        .expect("runs");
        let CosimVerdict::Divergence(report) = verdict else {
            panic!("expected a divergence");
        };
        assert_eq!(report.step, 0);
        assert_eq!(report.pc, 0x40_0000);
        assert_eq!(report.field, "construction");
        assert!(report.detail.contains("deliberately unbuildable"));
    }

    #[test]
    fn diverging_machines_are_caught_with_the_gpr_named() {
        // Same length, same exit path, one differing register value.
        let other = "
        main:
            li   $t0, 4
            li   $v0, 10
            syscall
        ";
        let verdict = run_lockstep(
            &mut machine(EXITING),
            vec![LockstepVariant {
                label: "other",
                machine: Ok(machine(other)),
            }],
            0,
            1000,
            |_| Vec::new(),
        )
        .expect("runs");
        let CosimVerdict::Divergence(report) = verdict else {
            panic!("expected a divergence");
        };
        assert_eq!(report.step, 1);
        assert_eq!(report.field, "$t0");
    }

    #[test]
    fn budget_exhaustion_is_an_infrastructure_error() {
        let looping = "
        main:
            j    main
        ";
        let err = run_lockstep(
            &mut machine(looping),
            vec![LockstepVariant {
                label: "twin",
                machine: Ok(machine(looping)),
            }],
            0,
            16,
            |_| Vec::new(),
        )
        .expect_err("must trip the budget");
        assert!(err.contains("step budget"), "{err}");
    }
}
