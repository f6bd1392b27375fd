//! `run` against `step`: the emulators' run loops keep the PC and the
//! step count in locals and check the step limit and the budget in
//! their own loop, while `step` works on the machine's state directly.
//! Both must leave exactly the same trace, output, step count, exit and
//! state — after a whole run, at a step-limit trip and at a budget trip.

use ccrp_asm::{assemble, ProgramImage};
use ccrp_difftest::ProgGen;
use ccrp_emu::{EmuError, Machine, MachineConfig, StepBudget, TraceSink};
use ccrp_rv32::progen::Rv32ProgGen;
use ccrp_rv32::workloads::Rv32Workload;
use ccrp_rv32::{Encoding, Rv32Config, Rv32Fault, Rv32Image, Rv32Machine};
use ccrp_workloads::TracedWorkload;

/// Every event a machine reports, in order: a fetch is its PC, a data
/// access its address with bit 32 set and the store flag in bit 33.
#[derive(Debug, Default, PartialEq, Eq)]
struct Events(Vec<u64>);

impl TraceSink for Events {
    fn instruction(&mut self, pc: u32) {
        self.0.push(u64::from(pc));
    }
    fn data_access(&mut self, addr: u32, store: bool) {
        self.0
            .push(u64::from(addr) | 1 << 32 | u64::from(store) << 33);
    }
}

impl Events {
    /// The fetched PCs, in order.
    fn pcs(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().filter(|&&e| e >> 32 == 0).map(|&e| e as u32)
    }

    /// The first step of a stretch of at least `len` fetches in which
    /// each PC follows the last by `stride` bytes or fewer (an
    /// instruction's length), with the stretch's length.
    fn sequential_stretch(&self, len: usize, stride: u32) -> (u64, u64) {
        let pcs: Vec<u32> = self.pcs().collect();
        let mut start = 0;
        for i in 1..pcs.len() {
            let step = pcs[i].wrapping_sub(pcs[i - 1]);
            if step == 0 || step > stride {
                if i - start >= len {
                    return (start as u64, (i - start) as u64);
                }
                start = i;
            }
        }
        panic!("no sequential stretch of {len} fetches");
    }
}

/// The reference: `step` driven as `run_budgeted` drove it before it
/// kept its state in locals — exit check, step limit, budget, step.
fn step_mips(
    machine: &mut Machine,
    sink: &mut Events,
    budget: &mut StepBudget,
    limit: u64,
) -> Result<i32, EmuError> {
    loop {
        if let Some(code) = machine.exit_code() {
            return Ok(code);
        }
        if machine.steps() >= limit {
            return Err(EmuError::StepLimitExceeded { limit });
        }
        if let Err(exhausted) = budget.charge(1) {
            return Err(EmuError::BudgetExhausted {
                steps: machine.steps(),
                cancelled: exhausted.cancelled,
            });
        }
        machine.step(sink)?;
    }
}

/// Runs `image` once with `run_budgeted` and once with the `step` loop,
/// under `max_steps` and `budget`, and checks they agree on everything.
/// Returns the run's events.
fn mips_agrees(image: &ProgramImage, max_steps: u64, budget: &StepBudget, what: &str) -> Events {
    let config = MachineConfig { max_steps };
    let (mut ran, mut stepped) = (
        Machine::with_config(image, config.clone()),
        Machine::with_config(image, config),
    );
    let (mut ran_events, mut stepped_events) = (Events::default(), Events::default());
    let (mut ran_budget, mut stepped_budget) = (budget.clone(), budget.clone());
    let ran_result = ran.run_budgeted(&mut ran_events, &mut ran_budget);
    let stepped_result = step_mips(
        &mut stepped,
        &mut stepped_events,
        &mut stepped_budget,
        max_steps,
    );
    match (&ran_result, &stepped_result) {
        (Ok(summary), Ok(code)) => {
            assert_eq!(summary.exit_code, *code, "{what}: exit code");
            assert_eq!(
                summary.instructions,
                stepped.steps(),
                "{what}: instructions"
            );
        }
        (ran_err, stepped_err) => {
            assert_eq!(ran_err.clone().err(), stepped_err.err(), "{what}: fault")
        }
    }
    assert!(ran_events == stepped_events, "{what}: events differ");
    assert_eq!(ran.output(), stepped.output(), "{what}: output");
    assert_eq!(ran.steps(), stepped.steps(), "{what}: steps");
    assert_eq!(ran.exit_code(), stepped.exit_code(), "{what}: exit");
    assert!(
        ran.checkpoint().to_bytes() == stepped.checkpoint().to_bytes(),
        "{what}: final state differs"
    );
    assert_eq!(
        ran_budget.spent(),
        stepped_budget.spent(),
        "{what}: budget spent"
    );
    assert_eq!(
        ran_budget.remaining(),
        stepped_budget.remaining(),
        "{what}: budget left"
    );
    ran_events
}

/// The reference for RV32: `step` until exit, as `run` drove it before
/// it kept its state in locals (`step` checks the step limit itself).
fn step_rv32(machine: &mut Rv32Machine, sink: &mut Events) -> Result<(), Rv32Fault> {
    while machine.exit_code().is_none() {
        machine.step(sink)?;
    }
    Ok(())
}

/// Runs `image` once with `run` and once with the `step` loop under
/// `max_steps` and checks they agree: result, events, output, step
/// count, exit, PC, registers, and every word a data access touched.
/// Returns the run's events.
fn rv32_agrees(image: &Rv32Image, max_steps: u64, what: &str) -> Events {
    let config = Rv32Config { max_steps };
    let mut ran = Rv32Machine::with_config(image, config.clone());
    let mut stepped = Rv32Machine::with_config(image, config);
    let (mut ran_events, mut stepped_events) = (Events::default(), Events::default());
    let ran_result = ran.run(&mut ran_events);
    let stepped_result = step_rv32(&mut stepped, &mut stepped_events);
    assert_eq!(ran_result, stepped_result, "{what}: result");
    assert!(ran_events == stepped_events, "{what}: events differ");
    assert_eq!(ran.output(), stepped.output(), "{what}: output");
    assert_eq!(ran.steps(), stepped.steps(), "{what}: steps");
    assert_eq!(ran.exit_code(), stepped.exit_code(), "{what}: exit");
    assert_eq!(ran.pc(), stepped.pc(), "{what}: pc");
    assert_eq!(
        ccrp_emu::IsaCore::gprs(&ran),
        ccrp_emu::IsaCore::gprs(&stepped),
        "{what}: registers"
    );
    for &event in ran_events.0.iter().filter(|&&e| e >> 32 != 0) {
        let word = event as u32 & !3;
        assert_eq!(
            ran.read_word(word),
            stepped.read_word(word),
            "{what}: word {word:#x}"
        );
    }
    ran_events
}

fn kernel(workload: TracedWorkload) -> ProgramImage {
    assemble(&workload.source()).expect("kernel assembles")
}

#[test]
fn mips_kernels_run_as_they_step() {
    for workload in TracedWorkload::ALL {
        let events = mips_agrees(
            &kernel(workload),
            MachineConfig::default().max_steps,
            &StepBudget::unlimited(),
            workload.name(),
        );
        assert!(events.pcs().count() > 1000, "{} ran", workload.name());
    }
}

#[test]
fn mips_generated_programs_run_as_they_step() {
    for seed in 1..=300 {
        let image =
            assemble(&ProgGen::generate(seed).source()).expect("generated program assembles");
        mips_agrees(
            &image,
            MachineConfig::default().max_steps,
            &StepBudget::unlimited(),
            &format!("progen seed {seed}"),
        );
        // A budget that covers the run is invisible, and is charged
        // exactly the steps taken.
        mips_agrees(
            &image,
            MachineConfig::default().max_steps,
            &StepBudget::limited(1_000_000),
            &format!("progen seed {seed}, budgeted"),
        );
    }
}

#[test]
fn rv32_workloads_run_as_they_step() {
    for workload in Rv32Workload::ALL {
        let built = workload.build().expect("rv32 workload builds");
        for (image, encoding) in [(&built.image_i, "rv32i"), (&built.image_c, "rv32c")] {
            let what = format!("{} ({encoding})", workload.name());
            let events = rv32_agrees(image, Rv32Config::default().max_steps, &what);
            assert!(events.pcs().count() > 1000, "{what} ran");
        }
    }
}

#[test]
fn rv32_generated_programs_run_as_they_step() {
    for seed in 1..=300 {
        let program = Rv32ProgGen::generate(seed);
        for encoding in [Encoding::Rv32I, Encoding::Rv32C] {
            let image = program
                .assemble(encoding)
                .expect("generated program assembles");
            rv32_agrees(
                &image,
                Rv32Config::default().max_steps,
                &format!("rv32 progen seed {seed} ({encoding:?})"),
            );
        }
    }
}

#[test]
fn mips_limits_and_budgets_trip_where_single_stepping_does() {
    let image = kernel(TracedWorkload::Eightq);
    let events = mips_agrees(&image, u64::MAX, &StepBudget::unlimited(), "eightq");
    let (start, len) = events.sequential_stretch(20, 4);
    for n in start..=start + len {
        let what = format!("eightq, max_steps {n}");
        mips_agrees(&image, n, &StepBudget::unlimited(), &what);
        let mut machine = Machine::with_config(&image, MachineConfig { max_steps: n });
        let err = machine.run(&mut Events::default()).unwrap_err();
        assert_eq!(err, EmuError::StepLimitExceeded { limit: n }, "{what}");
        assert_eq!(machine.steps(), n, "{what}");

        let what = format!("eightq, budget {n}");
        mips_agrees(&image, u64::MAX, &StepBudget::limited(n), &what);
        let mut machine = Machine::new(&image);
        let mut budget = StepBudget::limited(n);
        let err = machine
            .run_budgeted(&mut Events::default(), &mut budget)
            .unwrap_err();
        assert_eq!(
            err,
            EmuError::BudgetExhausted {
                steps: n,
                cancelled: false
            },
            "{what}"
        );
        assert_eq!((machine.steps(), budget.spent()), (n, n), "{what}");
    }
}

#[test]
fn rv32_limits_trip_where_single_stepping_does() {
    let built = Rv32Workload::ALL[0].build().expect("rv32 workload builds");
    for image in [&built.image_i, &built.image_c] {
        let events = rv32_agrees(image, u64::MAX, "rv32 workload");
        let (start, len) = events.sequential_stretch(20, 4);
        for n in start..=start + len {
            let what = format!("rv32 workload, max_steps {n}");
            rv32_agrees(image, n, &what);
            let mut machine = Rv32Machine::with_config(image, Rv32Config { max_steps: n });
            assert_eq!(
                machine.run(&mut Events::default()),
                Err(Rv32Fault::StepLimit),
                "{what}"
            );
            assert_eq!(machine.steps(), n, "{what}");
        }
    }
}
