//! SPIM-ABI syscall coverage: every service the workloads rely on,
//! including the FP print paths and the heap.

use ccrp_asm::assemble;
use ccrp_emu::{EmuError, Machine, NullSink};
use ccrp_isa::Reg;

fn run_output(source: &str) -> String {
    let image = assemble(source).expect("assembles");
    let mut machine = Machine::new(&image);
    machine.run(&mut NullSink).expect("runs");
    machine.output().to_string()
}

#[test]
fn print_int_negative() {
    let out = run_output("main: li $a0, -42\n li $v0, 1\n syscall\n li $v0, 10\n syscall");
    assert_eq!(out, "-42");
}

#[test]
fn print_float_and_double() {
    let out = run_output(
        "
        .data
        .align 3
d:      .double 2.5
f:      .float -0.75
        .text
main:
        la   $t0, d
        l.d  $f12, 0($t0)
        li   $v0, 3              # print_double from $f12
        syscall
        li   $a0, ' '
        li   $v0, 11
        syscall
        la   $t0, f
        l.s  $f12, 0($t0)
        li   $v0, 2              # print_float from $f12
        syscall
        li   $v0, 10
        syscall
        ",
    );
    assert_eq!(out, "2.5 -0.75");
}

#[test]
fn print_string_walks_to_nul() {
    let out = run_output(
        r#"
        .data
msg:    .asciiz "ab"
more:   .asciiz "zz"
        .text
main:
        la   $a0, msg
        li   $v0, 4
        syscall
        li   $v0, 10
        syscall
        "#,
    );
    assert_eq!(
        out, "ab",
        "must stop at the terminator, not run into `more`"
    );
}

#[test]
fn read_int_defaults_to_zero_when_queue_empty() {
    let out = run_output(
        "main: li $v0, 5\n syscall\n move $a0, $v0\n li $v0, 1\n syscall\n li $v0, 10\n syscall",
    );
    assert_eq!(out, "0");
}

#[test]
fn sbrk_returns_distinct_growing_regions() {
    let out = run_output(
        "
main:
        li   $a0, 64
        li   $v0, 9
        syscall
        move $s0, $v0
        li   $a0, 64
        li   $v0, 9
        syscall
        subu $a0, $v0, $s0       # second break - first = 64
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
        ",
    );
    assert_eq!(out, "64");
}

#[test]
fn print_string_wraps_at_the_top_of_the_address_space() {
    // The string starts in the last mapped byte; reading on wraps to
    // address 0 (the text) in every build, as effective addresses do,
    // instead of overflowing the address in a debug build.
    let image = assemble(
        "
main:
        li   $t0, 0xFFFFFFFC
        li   $t1, 0x41414141
        sw   $t1, 0($t0)
        li   $a0, 0xFFFFFFFF
        li   $v0, 4
        syscall
        li   $v0, 10
        syscall
        ",
    )
    .unwrap();
    let mut machine = Machine::new(&image);
    machine.run(&mut NullSink).expect("runs");
    let wrapped: String = image
        .text_bytes()
        .iter()
        .take_while(|&&b| b != 0)
        .map(|&b| b as char)
        .collect();
    assert_eq!(machine.output(), format!("A{wrapped}"));
}

#[test]
fn sbrk_refuses_a_break_past_the_stack() {
    let image = assemble(
        "
main:
        li   $a0, 0x10000000     # far past the stack page
        li   $v0, 9
        syscall
refused:
        move $s0, $v0
        li   $a0, -4096          # wraps past 2^32
        li   $v0, 9
        syscall
wrapped:
        move $s1, $v0
        li   $a0, 4096
        li   $v0, 9
        syscall
        move $s2, $v0
        sw   $s2, 4092($s2)      # the granted region is mapped
        li   $v0, 10
        syscall
        ",
    )
    .unwrap();
    let mut machine = Machine::new(&image);
    let brk = machine.arch_state().brk;
    let pages = machine.arch_state().mem.mapped_pages();
    for label in ["refused", "wrapped"] {
        let stop = image.symbol(label).unwrap();
        while machine.pc() != stop {
            machine.step(&mut NullSink).expect("steps");
        }
        assert_eq!(machine.arch_state().brk, brk, "{label}: break moved");
        assert_eq!(
            machine.arch_state().mem.mapped_pages(),
            pages,
            "{label}: pages mapped"
        );
    }
    machine.run(&mut NullSink).expect("runs");
    assert_eq!(machine.reg(Reg::S0), u32::MAX, "refusal returns -1");
    assert_eq!(machine.reg(Reg::S1), u32::MAX, "refusal returns -1");
    assert_eq!(machine.reg(Reg::S2), brk, "a later request still works");
    assert_eq!(machine.arch_state().brk, brk + 4096);
}

#[test]
fn unknown_syscall_faults() {
    let image = assemble("main: li $v0, 99\n syscall").unwrap();
    let err = Machine::new(&image).run(&mut NullSink).unwrap_err();
    assert!(matches!(err, EmuError::UnknownSyscall { number: 99, .. }));
}

#[test]
fn exit_codes_surface() {
    let image = assemble("main: li $a0, -5\n li $v0, 17\n syscall").unwrap();
    let mut machine = Machine::new(&image);
    let summary = machine.run(&mut NullSink).unwrap();
    assert_eq!(summary.exit_code, -5);
    assert_eq!(machine.exit_code(), Some(-5));
}

#[test]
fn output_interleaves_in_program_order() {
    let out = run_output(
        "
main:
        li   $a0, 1
        li   $v0, 1
        syscall
        li   $a0, 'x'
        li   $v0, 11
        syscall
        li   $a0, 2
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
        ",
    );
    assert_eq!(out, "1x2");
}
