//! The assembler's output, pinned. Each group of sources folds into one
//! CRC-32 digest: a source that assembles contributes the CRC-32 of its
//! whole image (text, data, bases, entry, symbols), one that fails
//! contributes its first error's line and message. The pinned values
//! were recorded with the assembler that predates the single-pass front
//! end (a token scanner over bytes, one mnemonic enum for both passes),
//! so any change in what it accepts, emits or reports shows up here.
//!
//! The groups:
//!
//! * the eight traced kernels;
//! * `ProgGen` programs for seeds `1..=PROGRAMS`, whose source text
//!   and removable lines are also pinned before assembly;
//! * one seeded mutant of each of those programs: one character
//!   deleted, inserted or replaced, drawn from punctuation, digits,
//!   letters and two multi-byte characters;
//! * every mnemonic against every operand shape, every directive
//!   against every argument shape, and a list of tokenizer edge cases,
//!   each in a small program with labels to refer to.

use ccrp::crc32;
use ccrp_asm::{assemble, ProgramImage};
use ccrp_difftest::{ProgGen, SplitMix64};
use ccrp_workloads::TracedWorkload;

/// `ProgGen` seeds `1..=PROGRAMS`, and one mutant of each.
const PROGRAMS: u64 = 1000;

/// One group's fingerprint: the digest and how many sources assembled
/// and failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    crc: u32,
    assembled: usize,
    failed: usize,
}

fn image_crc(image: &ProgramImage) -> u32 {
    let mut bytes = Vec::new();
    for segment in [image.text_bytes(), image.data_bytes()] {
        bytes.extend_from_slice(&(segment.len() as u32).to_le_bytes());
        bytes.extend_from_slice(segment);
    }
    for word in [image.text_base(), image.data_base(), image.entry()] {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    for (name, address) in image.symbols() {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&address.to_le_bytes());
    }
    crc32(&bytes)
}

fn digest<S: AsRef<str>>(sources: impl IntoIterator<Item = S>) -> Digest {
    let mut records = Vec::new();
    let (mut assembled, mut failed) = (0, 0);
    for source in sources {
        match assemble(source.as_ref()) {
            Ok(image) => {
                assembled += 1;
                records.push(b'O');
                records.extend_from_slice(&image_crc(&image).to_le_bytes());
            }
            Err(e) => {
                failed += 1;
                records.push(b'E');
                records.extend_from_slice(&(e.line as u64).to_le_bytes());
                records.extend_from_slice(e.to_string().as_bytes());
                records.push(0);
            }
        }
    }
    Digest {
        crc: crc32(&records),
        assembled,
        failed,
    }
}

/// The characters a mutant inserts or writes over an existing one.
fn mutation_chars() -> Vec<char> {
    "$(),%\"'.-+:#0123456789abcdefghijklmnopqrstuvwxyzAFSTXé€"
        .chars()
        .collect()
}

/// `source` with one character deleted, inserted or replaced, chosen by
/// `seed`. Edits land on character boundaries, so the result is valid
/// UTF-8.
fn mutate(source: &str, seed: u64, alphabet: &[char]) -> String {
    let mut rng = SplitMix64::new(seed);
    let starts: Vec<(usize, char)> = source.char_indices().collect();
    let (at, old) = starts[rng.below(starts.len() as u64) as usize];
    let new = alphabet[rng.below(alphabet.len() as u64) as usize];
    let (head, tail) = source.split_at(at);
    let rest = &tail[old.len_utf8()..];
    match rng.below(3) {
        0 => format!("{head}{rest}"),
        1 => format!("{head}{new}{tail}"),
        _ => format!("{head}{new}{rest}"),
    }
}

const MNEMONICS: &[&str] = &[
    "add",
    "addu",
    "sub",
    "subu",
    "and",
    "or",
    "xor",
    "nor",
    "slt",
    "sltu",
    "sll",
    "srl",
    "sra",
    "sllv",
    "srlv",
    "srav",
    "mult",
    "multu",
    "div",
    "divu",
    "mfhi",
    "mflo",
    "mthi",
    "mtlo",
    "jr",
    "jalr",
    "syscall",
    "break",
    "addi",
    "addiu",
    "slti",
    "sltiu",
    "andi",
    "ori",
    "xori",
    "lui",
    "lb",
    "lbu",
    "lh",
    "lhu",
    "lw",
    "lwl",
    "lwr",
    "sb",
    "sh",
    "sw",
    "swl",
    "swr",
    "lwc1",
    "swc1",
    "mfc1",
    "mtc1",
    "cfc1",
    "ctc1",
    "beq",
    "bne",
    "blez",
    "bgtz",
    "bltz",
    "bgez",
    "bltzal",
    "bgezal",
    "bc1t",
    "bc1f",
    "j",
    "jal",
    "add.s",
    "add.d",
    "add.w",
    "sub.s",
    "sub.d",
    "mul.s",
    "mul.d",
    "div.s",
    "div.d",
    "abs.s",
    "abs.d",
    "abs.w",
    "mov.s",
    "mov.d",
    "neg.s",
    "neg.d",
    "sqrt.d",
    "c.eq.s",
    "c.eq.d",
    "c.lt.s",
    "c.lt.d",
    "c.le.s",
    "c.le.d",
    "c.le.w",
    "c.un.d",
    "cvt.s.d",
    "cvt.s.w",
    "cvt.d.s",
    "cvt.d.w",
    "cvt.w.s",
    "cvt.w.d",
    "cvt.d.d",
    "cvt.x.s",
    "cvt.s",
    "cvt.w",
    "foo.d",
    "add.",
    ".d",
    "nop",
    "move",
    "not",
    "neg",
    "negu",
    "li",
    "la",
    "b",
    "bal",
    "beqz",
    "bnez",
    "blt",
    "bgt",
    "ble",
    "bge",
    "bltu",
    "bgtu",
    "bleu",
    "bgeu",
    "mul",
    "rem",
    "remu",
    "l.s",
    "s.s",
    "l.d",
    "s.d",
    "ADDU",
    "Li",
    "NOP",
    "Add.D",
    "C.EQ.D",
    "Lw",
    "BGEU",
    "bogus",
    "addx",
    "l.w",
    "s.w",
    "jalx",
    "mul.w",
    "b.d",
    "x.s",
    "cvt.s.d.s",
    "c.eq",
    "c..s",
    "cvt..s",
    "bu",
    "u",
    "mfc",
    "l.",
    "_x",
    "a.b.c",
];

const OPERANDS: &[&str] = &[
    "",
    "$t0",
    "$t0, $t1",
    "$t0, $t1, $t2",
    "$t0, $t1, $t2, $t3",
    "$t0, $t1, 5",
    "$t0, $t1, -5",
    "$t0, $t1, 0xFFFF",
    "$t0, $t1, 70000",
    "$t0, $t1, 31",
    "$t0, $t1, 32",
    "$t0, $t1, sym",
    "$t0, $t1, far",
    "$t0, $t1, odd",
    "$t0, $t1, nowhere",
    "$t0, $t1, $f2",
    "$t0, 5",
    "$t0, -5",
    "$t0, 0x12345678",
    "$t0, -40000",
    "$t0, K/4",
    "$t0, sym",
    "$t0, sym+4",
    "$t0, dsym",
    "$t0, far",
    "$t0, 1/0",
    "$t0, 4($sp)",
    "$t0, ($sp)",
    "$t0, 40000($sp)",
    "$t0, 32763($sp)",
    "$t0, 32764($sp)",
    "$t0, %lo(dsym)($t1)",
    "$t0, %hi(dsym)",
    "$t0, nowhere",
    "$f2, 8($sp)",
    "$f3, 8($sp)",
    "$f2, 32764($sp)",
    "$f2, dsym",
    "$f2, ($a0)",
    "$f0, $f2",
    "$f0, $f2, $f4",
    "$f0, $f2, $f4, $f6",
    "$t0, $f2",
    "$f2, $t0",
    "$f2",
    "sym",
    "far",
    "odd",
    "nowhere",
    "5",
    "-8",
    "0x4000000",
    "4($sp)",
    "(1)",
    "$zero",
    "$t0, $t1, (sym)",
];

const DIRECTIVES: &[&str] = &[
    "word", "half", "byte", "float", "double", "ascii", "asciiz", "space", "align", "equ", "globl",
    "global", "set", "text", "data", "ent", "end", "extern", "frame", "mask", "fmask", "file",
    "bogus", "WORD", "Asciiz", "SET", "",
];

const DIRECTIVE_ARGS: &[&str] = &[
    "",
    "1",
    "1, 2",
    "-1",
    "300",
    "70000",
    "-40000",
    "-0x80000001",
    "sym",
    "sym+4",
    "sym, 4",
    "nowhere",
    "1.5",
    "-2.25",
    "1e3",
    "1, 2.5",
    "\"hi\\n\"",
    "\"a\", \"b\"",
    "'A'",
    "reorder",
    "noreorder",
    "noat",
    "bogus",
    "X, 5",
    "X, sym",
    "X, nowhere",
    "X",
    "3",
    "20",
    "-4",
    "K*2",
    "1/0",
    "$t0",
    "(3)",
];

const LINES: &[&str] = &[
    "li $t0, $f32",
    "move $t0, $32",
    "move $t0, $300",
    "move $t0, $08",
    "move $t0, $s8",
    "move $t0, $",
    "move $t0, $é",
    "mové $t0, $t1",
    "move $t0, €",
    "mfc1 $t0, $f31",
    "mfc1 $t0, $f007",
    "mfc1 $t0, $f",
    "mfc1 $t0, $fp",
    "move $T0, $t1",
    "li $t0, %hi",
    "li $t0, %xx(1)",
    "li $t0, %HI(sym)",
    "li $t0, %é",
    "li $t0, 'a",
    "li $t0, '\\n'",
    "li $t0, 'é'",
    "li $t0, ''",
    "li $t0, '",
    "li $t0, '\\",
    ".ascii \"open",
    ".ascii \"a\\\"b\"",
    ".ascii \"tab\\t\\q\\0\\r\"",
    ".asciiz \"é€\"",
    ".ascii \"trailing\\",
    "li $t0, 0xZZ",
    "li $t0, 0x",
    "li $t0, 0X1f",
    "li $t0, 0b102",
    "li $t0, 0B11",
    "li $t0, 12abc",
    "li $t0, 09",
    "li $t0, 1..2",
    "li $t0, 1.5",
    ".float 1.5e",
    ".float 1.5e+",
    ".float 1.5e+3",
    ".double 2E-2",
    ".float 1e",
    ".float 1e-",
    ".double 1.5.5",
    ".float -sym",
    "li $t0, 1e3",
    "a: b: nop",
    "x:",
    "1: nop",
    ":",
    "nop # c",
    "nop ; c",
    "\tnop\t",
    "nop\r",
    "\u{a0}nop",
    "li $t0, ((1))",
    "li $t0, (",
    "li $t0, ()",
    "li $t0, 1 << 2",
    "li $t0, 1 < 2",
    "li $t0, 1 >> 2",
    "li $t0, 1 > 2",
    "li $t0, ~0",
    "li $t0, --1",
    "li $t0, +-+1",
    "li $t0, 3 & 5 | 6 ^ 1 * 2 - 7 / 3",
    "li $t0, -(1 << 31)",
    "lw $t0, ($t1",
    "lw $t0, 4($f1)",
    "lw $t0, (1)($t1)",
    "lw $t0, 4(sym)",
    "lw $t0, 4($t1) $t2",
    "lw $t0 4($t1)",
    "lw $t0, ($t1)($t2)",
    "li $t0, -",
    "li $t0, 5 5",
    "@",
    "nop nop",
    ".word 1 2",
    ".set",
    ".set reorder noreorder",
    "li $t0 , , 5",
    "$t0: nop",
    "li $t0, sym-sym",
    "li $t0, -9223372036854775808",
    "li $t0, 9223372036854775808",
    "li $t0, 0xFFFFFFFFFFFFFFFF",
    "li $t0, 0x10000000000000000",
    "li $t0, 1 << 70",
    "j 0x10000000",
    "j 3",
    "b 40000",
    "b -32769",
    "beq $t0, $t1, 32767",
    "beq $t0, $t1, 32768",
    "sll $t0, $t1, sym",
    ".align 17",
    ".align -1",
    ".space -4",
    ".space sym",
    ".space nowhere",
    "jalr $t0, $t1, $t2",
    "syscall 1048576",
    "break 1048575",
    "l.d $f4, 32764($sp)",
    "li $t0, $t1",
    "la $t0, 5",
    "move $f0, $f1",
    "c.eq.d $f0",
    "mfc1 $f0, $t0",
    ".equ sym, 5",
    ".equ Y",
    ".equ 5, 5",
    ".equ Y, nowhere",
    ".equ Y, far",
    ".word ,",
    ".byte -129",
    ".byte 256",
    ".half -32769",
    ".word 0xFFFFFFFF",
    ".word 4294967296",
    ".word -2147483649",
    ".space 0x7FFF",
    ".half 65536",
    ".float sym",
    ".double \"x\"",
    ".ascii 5",
    "li $t0, %lo(sym)",
    "li $t0, %hi(sym)+1",
    "addiu $t0, $t0, %lo(0x12348000)",
    "lui $t0, %hi(0x12348000)",
    "add $t0, $t1\nbogus",
    "nop\n@\nbogus",
    "b nowhere\nx: nop\nx: nop",
    "li $t0, 1/0\n.space 1/0",
    ".data\nnop",
    ".data\nv: .word v\n.text\nla $t0, v",
    "main: nop\nmain2: jr $ra",
    ".set noreorder\nb sym\n.set reorder\nb sym",
];

/// `line` in a small program with a data word, two constants and labels
/// before and after it. The `.align 2` after the line keeps text whole
/// words when the line emits data into it.
fn in_program(line: &str, noreorder: bool) -> String {
    let mode = if noreorder { ".set noreorder\n" } else { "" };
    format!(
        "{mode}        .data\ndsym:   .word 1\n        .text\n        .equ K, 64\n        \
         .equ odd, 6\nsym:    nop\n        {line}\n        .align 2\nfar:    nop\n"
    )
}

fn assert_pinned(group: &str, got: Digest, want: Digest) {
    assert_eq!(
        got, want,
        "{group}: the assembler's output moved; every source must assemble to the same \
         image or fail with the same first error"
    );
}

#[test]
fn kernels_are_pinned() {
    let got = digest(TracedWorkload::ALL.iter().map(|w| w.source()));
    assert_pinned(
        "kernels",
        got,
        Digest {
            crc: 3292109936,
            assembled: 8,
            failed: 0,
        },
    );
}

#[test]
fn generated_programs_are_pinned() {
    let got = digest((1..=PROGRAMS).map(|seed| ProgGen::generate(seed).source()));
    assert_pinned(
        "generated programs",
        got,
        Digest {
            crc: 3672964282,
            assembled: 1000,
            failed: 0,
        },
    );
}

/// The generator's own output, before the assembler sees it: each
/// program's source text and the line indices the shrinker may delete.
/// The pinned value was recorded with the generator that formatted each
/// line twice (once into a `String`, once more into the line list).
#[test]
fn generated_sources_are_pinned() {
    let mut records = Vec::new();
    for seed in 1..=PROGRAMS {
        let program = ProgGen::generate(seed);
        records.extend_from_slice(program.source().as_bytes());
        records.push(0);
        for &index in &program.removable {
            records.extend_from_slice(&(index as u32).to_le_bytes());
        }
    }
    assert_eq!(
        (crc32(&records), records.len()),
        (3159099410, 8113647),
        "generated sources: the generator's output moved"
    );
}

#[test]
fn mutants_are_pinned() {
    let alphabet = mutation_chars();
    let got = digest(
        (1..=PROGRAMS).map(|seed| mutate(&ProgGen::generate(seed).source(), seed, &alphabet)),
    );
    assert_pinned(
        "mutants",
        got,
        Digest {
            crc: 3159303716,
            assembled: 176,
            failed: 824,
        },
    );
}

#[test]
fn operand_shapes_are_pinned() {
    let mut sources = Vec::new();
    for noreorder in [false, true] {
        for mnemonic in MNEMONICS {
            for operands in OPERANDS {
                sources.push(in_program(&format!("{mnemonic} {operands}"), noreorder));
            }
        }
        for section in [".text", ".data"] {
            for name in DIRECTIVES {
                for args in DIRECTIVE_ARGS {
                    sources.push(in_program(&format!("{section}\n.{name} {args}"), noreorder));
                }
            }
        }
        for line in LINES {
            sources.push(in_program(line, noreorder));
        }
    }
    assert_pinned(
        "operand shapes",
        digest(&sources),
        Digest {
            crc: 794074,
            assembled: 2216,
            failed: 19096,
        },
    );
}
