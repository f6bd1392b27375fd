//! Hostile sources: the daemon assembles whatever a client sends, on a
//! worker thread with the default 2 MiB stack, so every source must come
//! back as an image or a typed error — never a panic, a stack overflow,
//! a segment past the 24-bit physical space, or text and data sharing
//! addresses.

use ccrp_asm::{assemble, assemble_with, AsmErrorKind, AssembleOptions};
use proptest::prelude::*;

/// The daemon's `max_source_bytes`.
const SOURCE_LIMIT: usize = 64 << 10;

/// Assembles `source` on a thread with a default-sized (2 MiB) stack and
/// returns the error kind, if any.
fn on_small_stack(source: String) -> Result<(), AsmErrorKind> {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || assemble(&source).map(drop).map_err(|e| e.kind))
        .expect("thread spawns")
        .join()
        .expect("assemble returns instead of overflowing its stack")
}

fn nested(depth: usize) -> String {
    format!("li $t0, {}1{}", "(".repeat(depth), ")".repeat(depth))
}

#[test]
fn sixty_four_kib_of_nesting_is_an_error() {
    let too_deep = Err(AsmErrorKind::ExprTooDeep { limit: 256 });
    assert_eq!(on_small_stack(nested(SOURCE_LIMIT)), too_deep);
    let minus = format!("li $t0, {}1", "-".repeat(SOURCE_LIMIT));
    assert_eq!(on_small_stack(minus), too_deep);
    // A flat chain nests too: `1+1+...` is a left-deep tree.
    let chain = format!("li $t0, 1{}", "+1".repeat(SOURCE_LIMIT / 2));
    assert_eq!(on_small_stack(chain), too_deep);
    assert_eq!(on_small_stack(nested(257)), too_deep);
}

#[test]
fn nesting_at_the_limit_assembles() {
    assert_eq!(on_small_stack(nested(256)), Ok(()));
    assert_eq!(
        on_small_stack(format!("li $t0, {}7", "-".repeat(256))),
        Ok(())
    );
    assert_eq!(
        on_small_stack(format!("li $t0, 1{}", "+1".repeat(256))),
        Ok(())
    );
}

#[test]
fn a_partial_text_word_is_an_error() {
    let err = assemble(".half 1").unwrap_err();
    assert_eq!(
        err.to_string(),
        "text segment of 2 bytes is not a whole number of words"
    );
    assert_eq!(
        (err.line, err.kind),
        (0, AsmErrorKind::UnalignedText { size: 2 })
    );
    assert!(assemble("nop\n.byte 1, 2, 3, 4\nnop").is_ok());
}

#[test]
fn space_past_the_address_space_is_an_error() {
    // Both fail in pass 1, before any segment is allocated.
    let err = assemble(".space 0x100000000").unwrap_err();
    assert!(matches!(
        err.kind,
        AsmErrorKind::ValueOutOfRange {
            what: ".space size",
            ..
        }
    ));
    let err = assemble(".data\n.space 0xFFF00000\n.space 0x200000").unwrap_err();
    assert_eq!(err.line, 2);
    assert!(matches!(
        err.kind,
        AsmErrorKind::ValueOutOfRange {
            what: "32-bit location counter",
            ..
        }
    ));
    // So do 23 bytes asking for 64 MiB: a segment stops at the paper's
    // 24-bit physical space.
    let err = assemble(".data\n.space 0x4000000").unwrap_err();
    assert_eq!(
        (err.line, err.kind),
        (
            2,
            AsmErrorKind::ValueOutOfRange {
                what: "24-bit segment size",
                value: 0x400_0000,
            }
        )
    );
    // A segment may fill that space exactly, but not one byte more, and
    // instructions count too.
    let full = assemble(".data\n.space 0x1000000").expect("16 MiB fits");
    assert_eq!(full.data_bytes().len(), 1 << 24);
    let err = assemble(".data\n.space 0xFFFFFF\n.byte 1, 2").unwrap_err();
    assert_eq!(err.line, 3);
    let err = assemble(".space 0xFFFFFC\nnop\nnop").unwrap_err();
    assert_eq!(
        (err.line, err.kind),
        (
            3,
            AsmErrorKind::ValueOutOfRange {
                what: "24-bit segment size",
                value: (1 << 24) + 4,
            }
        )
    );
}

#[test]
fn text_running_into_data_is_an_error() {
    // Text is based at 0 and data at 0x400000 by default, so 4 MiB of
    // text puts `main` on `d`'s address.
    let err = assemble(".space 0x400000\nmain: nop\n.data\nd: .word 5").unwrap_err();
    assert_eq!(
        err.to_string(),
        "text segment 0x0..0x400004 overlaps data segment 0x400000..0x400004"
    );
    assert_eq!(
        (err.line, err.kind),
        (
            0,
            AsmErrorKind::SegmentOverlap {
                text: 0..0x40_0004,
                data: 0x40_0000..0x40_0004,
            }
        )
    );
}

#[test]
fn data_placed_below_text_may_not_reach_it() {
    let options = AssembleOptions {
        text_base: 0x1000,
        data_base: 0x0F00,
        ..AssembleOptions::default()
    };
    let err = assemble_with("main: nop\n.data\n.space 0x101", options).unwrap_err();
    assert_eq!(
        err.kind,
        AsmErrorKind::SegmentOverlap {
            text: 0x1000..0x1004,
            data: 0x0F00..0x1001,
        }
    );
    let image =
        assemble_with("main: nop\n.data\n.space 0x100", options).expect("data ends at text");
    assert_eq!(image.data_bytes().len(), 0x100);
}

#[test]
fn adjacent_and_empty_segments_still_assemble() {
    // Text ends exactly where data begins.
    let image = assemble(".space 0x3FFFFC\nmain: nop\n.data\nd: .word 5").expect("adjacent");
    assert_eq!(image.text_bytes().len(), 0x40_0000);
    assert_eq!(image.symbol("d"), Some(0x40_0000));
    // An empty data segment overlaps nothing, even under a label.
    assert!(assemble(".space 0x400000\nmain: nop\n.data\nd:").is_ok());
}

/// Source fragments, from single characters (multi-byte ones included)
/// to whole mnemonics, directives and operands. The numbers are short,
/// so that no run of them asks `.space` for gigabytes.
const FRAGMENTS: &[&str] = &[
    "li",
    "lw",
    "sw",
    "addu",
    "addiu",
    "b",
    "beq",
    "blt",
    "jal",
    "jr",
    "la",
    "l.d",
    "cvt.s.d",
    "c.eq.s",
    "syscall",
    ".word",
    ".half",
    ".byte",
    ".space",
    ".align",
    ".ascii",
    ".text",
    ".data",
    ".set",
    "noreorder",
    ".equ",
    ".float",
    "$t0",
    "$ra",
    "$f2",
    "$f3",
    "$32",
    "$",
    "x",
    "main",
    ":",
    ",",
    " ",
    "\n",
    "(",
    ")",
    "-",
    "+",
    "*",
    "/",
    "~",
    "<<",
    ">>",
    "%hi",
    "%lo",
    "%",
    "0",
    "7",
    "12",
    "0x7F",
    "1.5",
    "1e",
    "\"s\"",
    "\"",
    "'",
    "'a'",
    "\\",
    "#",
    ";",
    "é",
    "€",
    "\u{a0}",
    "\u{1F600}",
    "\t",
    "\r",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn assemble_returns_on_any_fragment_soup(
        fragments in proptest::collection::vec(proptest::sample::select(FRAGMENTS), 0..64),
    ) {
        let source: String = fragments.concat();
        let _ = assemble(&source);
    }
}
