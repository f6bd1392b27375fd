use std::collections::BTreeMap;
use std::ops::Range;

use ccrp_isa::Instruction;

use crate::error::{AsmError, AsmErrorKind};
use crate::expr::Expr;
use crate::image::ProgramImage;
use crate::instrs::{fold_case, Instr};
use crate::parser::{DirArg, Item, Program};

/// How the assembler handles branch delay slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelaySlotMode {
    /// Insert a `nop` after every control transfer (the classic
    /// `.set reorder` behaviour). Default.
    #[default]
    Reorder,
    /// Emit instructions exactly as written; the programmer fills delay
    /// slots (`.set noreorder`).
    NoReorder,
}

/// Configuration for [`assemble_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssembleOptions {
    /// Base address of the text segment. The CCRP Line Address Table
    /// indexes shifted text addresses, so text should start at a
    /// 256-byte-aligned address; 0 matches the paper's contiguous
    /// 24-bit instruction space.
    pub text_base: u32,
    /// Base address of the data segment.
    pub data_base: u32,
    /// Initial delay-slot mode (changeable per-region with `.set`).
    pub delay_slots: DelaySlotMode,
}

impl Default for AssembleOptions {
    fn default() -> Self {
        Self {
            text_base: 0x0000_0000,
            data_base: 0x0040_0000,
            delay_slots: DelaySlotMode::Reorder,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// Assembles MIPS R2000 source with default options.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered, tagged with its source line.
///
/// # Examples
///
/// ```
/// use ccrp_asm::assemble;
///
/// let image = assemble("
///     .text
///     main:
///         li   $t0, 5
///         move $a0, $t0
///         jr   $ra
/// ")?;
/// assert!(image.text_size() > 0);
/// # Ok::<(), ccrp_asm::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<ProgramImage, AsmError> {
    assemble_with(source, AssembleOptions::default())
}

/// Assembles MIPS R2000 source with explicit options.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered, tagged with its source line.
pub fn assemble_with(source: &str, options: AssembleOptions) -> Result<ProgramImage, AsmError> {
    let program = Program::parse(source)?;

    // ---- Pass 1: addresses and symbols ----------------------------------
    let mut symbols: BTreeMap<String, u32> = BTreeMap::new();
    let mut section = Section::Text;
    let mut text_lc = options.text_base;
    let mut data_lc = options.data_base;
    let mut mode = options.delay_slots;

    for &(line_no, ref item) in &program.items {
        match *item {
            Item::Label(name) => {
                let addr = match section {
                    Section::Text => text_lc,
                    Section::Data => data_lc,
                };
                if symbols.contains_key(name) {
                    return Err(AsmError::new(
                        line_no,
                        AsmErrorKind::DuplicateLabel(name.to_string()),
                    ));
                }
                symbols.insert(name.to_string(), addr);
            }
            Item::Instr {
                name,
                mnemonic,
                ref operands,
            } => {
                if section != Section::Text {
                    return Err(AsmError::new(
                        line_no,
                        AsmErrorKind::Syntax("instruction outside .text".into()),
                    ));
                }
                let instr = Instr {
                    mnemonic,
                    name,
                    ops: &program.operands[operands.clone()],
                    line: line_no,
                };
                let delay_nop = mode == DelaySlotMode::Reorder && instr.is_control_transfer();
                let words = instr.plan_words()? + usize::from(delay_nop);
                advance(&mut text_lc, options.text_base, words as u64 * 4, line_no)?;
            }
            Item::Directive {
                name,
                directive,
                ref args,
            } => {
                directive_pass1(
                    directive,
                    name,
                    &program.args[args.clone()],
                    line_no,
                    &mut section,
                    &mut text_lc,
                    &mut data_lc,
                    &options,
                    &mut mode,
                    &mut symbols,
                )?;
            }
        }
    }
    let text_range = options.text_base..text_lc;
    let data_range = options.data_base..data_lc;
    if overlap(&text_range, &data_range) {
        return Err(AsmError::new(
            0,
            AsmErrorKind::SegmentOverlap {
                text: text_range,
                data: data_range,
            },
        ));
    }

    // ---- Pass 2: encoding ------------------------------------------------
    let mut text: Vec<u8> = Vec::with_capacity((text_lc - options.text_base) as usize);
    let mut data: Vec<u8> = Vec::with_capacity((data_lc - options.data_base) as usize);
    section = Section::Text;
    mode = options.delay_slots;

    for &(line_no, ref item) in &program.items {
        match *item {
            Item::Label(_) => {}
            Item::Instr {
                name,
                mnemonic,
                ref operands,
            } => {
                let instr = Instr {
                    mnemonic,
                    name,
                    ops: &program.operands[operands.clone()],
                    line: line_no,
                };
                let addr = options.text_base + text.len() as u32;
                let delay_nop = mode == DelaySlotMode::Reorder && instr.is_control_transfer();
                let planned = instr.plan_words()? + usize::from(delay_nop);
                let (first, second) = instr.encode(addr, &symbols)?;
                let words = [Some(first), second, delay_nop.then_some(Instruction::NOP)];
                let emitted = words.iter().flatten().count();
                if emitted != planned {
                    return Err(AsmError::new(
                        line_no,
                        AsmErrorKind::SizeMismatch {
                            mnemonic: instr.folded_name(),
                            planned,
                            emitted,
                        },
                    ));
                }
                for word in words.iter().flatten() {
                    text.extend_from_slice(&word.encode().to_le_bytes());
                }
            }
            Item::Directive {
                name,
                directive,
                ref args,
            } => {
                directive_pass2(
                    directive,
                    name,
                    &program.args[args.clone()],
                    line_no,
                    &mut section,
                    &mut text,
                    &mut data,
                    &options,
                    &mut mode,
                    &symbols,
                )?;
            }
        }
    }

    if !text.len().is_multiple_of(4) {
        return Err(AsmError::new(
            0,
            AsmErrorKind::UnalignedText { size: text.len() },
        ));
    }
    let entry = symbols.get("main").copied().unwrap_or(options.text_base);
    Ok(ProgramImage::new(
        options.text_base,
        text,
        options.data_base,
        data,
        entry,
        symbols,
    ))
}

/// An assembler directive, resolved once when its line is parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Directive {
    Text,
    Data,
    /// Accepted for source compatibility and ignored: `.globl`, `.ent`, ...
    Ignored,
    Set,
    Equ,
    Align,
    Space,
    Byte,
    Half,
    Word,
    Float,
    Double,
    Ascii,
    Asciiz,
    Unknown,
}

impl Directive {
    /// Resolves a directive name (without its `.`), in any letter case,
    /// without allocating.
    pub(crate) fn resolve(name: &str) -> Directive {
        let mut buf = [0; 8];
        match fold_case(name, &mut buf).unwrap_or_default() {
            b"text" => Directive::Text,
            b"data" => Directive::Data,
            b"globl" | b"global" | b"ent" | b"end" | b"extern" | b"frame" | b"mask" | b"fmask"
            | b"file" => Directive::Ignored,
            b"set" => Directive::Set,
            b"equ" => Directive::Equ,
            b"align" => Directive::Align,
            b"space" => Directive::Space,
            b"byte" => Directive::Byte,
            b"half" => Directive::Half,
            b"word" => Directive::Word,
            b"float" => Directive::Float,
            b"double" => Directive::Double,
            b"ascii" => Directive::Ascii,
            b"asciiz" => Directive::Asciiz,
            _ => Directive::Unknown,
        }
    }
}

/// The most bytes one segment may span: the paper's 24-bit physical
/// address space. Pass 1 holds both segments to it, so pass 2 never
/// sizes a buffer past 16 MiB, whatever a `.space` asks for.
const MAX_SEGMENT_BYTES: u64 = 1 << 24;

/// Moves a location counter on by `bytes`, which must keep it inside the
/// 32-bit address space and keep its segment, which starts at `base`,
/// within [`MAX_SEGMENT_BYTES`].
fn advance(lc: &mut u32, base: u32, bytes: u64, line_no: usize) -> Result<(), AsmError> {
    let next = u64::from(*lc) + bytes;
    let out_of_range = |what, value: u64| {
        AsmError::new(
            line_no,
            AsmErrorKind::ValueOutOfRange {
                what,
                value: value as i64,
            },
        )
    };
    let counter = u32::try_from(next).map_err(|_| out_of_range("32-bit location counter", next))?;
    let size = next - u64::from(base);
    if size > MAX_SEGMENT_BYTES {
        return Err(out_of_range("24-bit segment size", size));
    }
    *lc = counter;
    Ok(())
}

/// Whether two address ranges share an address; an empty range shares
/// none.
fn overlap(a: &Range<u32>, b: &Range<u32>) -> bool {
    !a.is_empty() && !b.is_empty() && a.start < b.end && b.start < a.end
}

fn syntax(line_no: usize, msg: String) -> AsmError {
    AsmError::new(line_no, AsmErrorKind::Syntax(msg))
}

/// Evaluates a directive's single expression argument. Symbols must have
/// been defined on earlier lines (labels or `.equ` constants), so both
/// passes compute identical values.
fn constant_arg(
    args: &[DirArg<'_>],
    line_no: usize,
    what: &str,
    symbols: &BTreeMap<String, u32>,
) -> Result<i64, AsmError> {
    match args {
        [DirArg::Expr(e)] => e.eval(symbols, line_no),
        [DirArg::Ident(sym)] => Expr::Sym(sym).eval(symbols, line_no),
        _ => Err(syntax(
            line_no,
            format!("{what} expects one constant expression"),
        )),
    }
}

/// The `.space` size: non-negative and within the address space.
fn space_size(
    args: &[DirArg<'_>],
    line_no: usize,
    symbols: &BTreeMap<String, u32>,
) -> Result<u32, AsmError> {
    let n = constant_arg(args, line_no, ".space", symbols)?;
    u32::try_from(n).map_err(|_| {
        AsmError::new(
            line_no,
            AsmErrorKind::ValueOutOfRange {
                what: ".space size",
                value: n,
            },
        )
    })
}

/// The `.align` boundary in bytes, from its exponent.
fn alignment(
    args: &[DirArg<'_>],
    line_no: usize,
    symbols: &BTreeMap<String, u32>,
) -> Result<u32, AsmError> {
    let n = constant_arg(args, line_no, ".align", symbols)?;
    if !(0..=16).contains(&n) {
        return Err(AsmError::new(
            line_no,
            AsmErrorKind::ValueOutOfRange {
                what: ".align exponent",
                value: n,
            },
        ));
    }
    Ok(1 << n)
}

#[allow(clippy::too_many_arguments)]
fn directive_pass1(
    directive: Directive,
    name: &str,
    args: &[DirArg<'_>],
    line_no: usize,
    section: &mut Section,
    text_lc: &mut u32,
    data_lc: &mut u32,
    options: &AssembleOptions,
    mode: &mut DelaySlotMode,
    symbols: &mut BTreeMap<String, u32>,
) -> Result<(), AsmError> {
    let (lc, base) = match *section {
        Section::Text => (text_lc, options.text_base),
        Section::Data => (data_lc, options.data_base),
    };
    let count = args.len() as u64;
    let bytes = match directive {
        Directive::Text => {
            *section = Section::Text;
            return Ok(());
        }
        Directive::Data => {
            *section = Section::Data;
            return Ok(());
        }
        Directive::Ignored => return Ok(()),
        Directive::Set => return apply_set(args, line_no, mode),
        Directive::Equ => {
            let (name, value) = equ_args(args, symbols, line_no)?;
            if symbols.contains_key(name) {
                return Err(AsmError::new(
                    line_no,
                    AsmErrorKind::DuplicateLabel(name.to_string()),
                ));
            }
            symbols.insert(name.to_string(), value);
            return Ok(());
        }
        Directive::Align => {
            let align = u64::from(alignment(args, line_no, symbols)?);
            u64::from(*lc).next_multiple_of(align) - u64::from(*lc)
        }
        Directive::Space => u64::from(space_size(args, line_no, symbols)?),
        Directive::Ascii | Directive::Asciiz => {
            let mut total = 0;
            for arg in args {
                let DirArg::Str(s) = arg else {
                    return Err(syntax(
                        line_no,
                        format!(".{} expects string literals", name.to_ascii_lowercase()),
                    ));
                };
                total += s.len() as u64 + u64::from(directive == Directive::Asciiz);
            }
            total
        }
        Directive::Byte => count,
        Directive::Half => 2 * count,
        Directive::Word | Directive::Float => 4 * count,
        Directive::Double => 8 * count,
        Directive::Unknown => {
            return Err(AsmError::new(
                line_no,
                AsmErrorKind::UnknownMnemonic(format!(".{}", name.to_ascii_lowercase())),
            ))
        }
    };
    advance(lc, base, bytes, line_no)
}

fn apply_set(
    args: &[DirArg<'_>],
    line_no: usize,
    mode: &mut DelaySlotMode,
) -> Result<(), AsmError> {
    match args {
        [DirArg::Ident(word)] => {
            match *word {
                "reorder" => *mode = DelaySlotMode::Reorder,
                "noreorder" => *mode = DelaySlotMode::NoReorder,
                // accepted and ignored for source compatibility
                "noat" | "at" | "nomacro" | "macro" | "volatile" | "novolatile" => {}
                other => return Err(syntax(line_no, format!("unknown .set option `{other}`"))),
            }
            Ok(())
        }
        _ => Err(syntax(line_no, ".set expects one option name".into())),
    }
}

fn equ_args<'a>(
    args: &[DirArg<'a>],
    symbols: &BTreeMap<String, u32>,
    line_no: usize,
) -> Result<(&'a str, u32), AsmError> {
    match args {
        [DirArg::Ident(name), DirArg::Expr(e)] => {
            // .equ may reference previously defined symbols only, so both
            // passes compute identical values.
            let v = e.eval(symbols, line_no)?;
            Ok((name, v as u32))
        }
        _ => Err(syntax(line_no, ".equ expects `name, expression`".into())),
    }
}

#[allow(clippy::too_many_arguments)]
fn directive_pass2(
    directive: Directive,
    name: &str,
    args: &[DirArg<'_>],
    line_no: usize,
    section: &mut Section,
    text: &mut Vec<u8>,
    data: &mut Vec<u8>,
    options: &AssembleOptions,
    mode: &mut DelaySlotMode,
    symbols: &BTreeMap<String, u32>,
) -> Result<(), AsmError> {
    let (buf, base) = match directive {
        Directive::Text => {
            *section = Section::Text;
            return Ok(());
        }
        Directive::Data => {
            *section = Section::Data;
            return Ok(());
        }
        Directive::Ignored | Directive::Equ | Directive::Unknown => return Ok(()),
        Directive::Set => return apply_set(args, line_no, mode),
        _ => match *section {
            Section::Text => (text, options.text_base),
            Section::Data => (data, options.data_base),
        },
    };

    // Data directives emit at the current location counter; alignment is
    // the programmer's responsibility via `.align`, as in classic `as`.
    // Pass 1 has checked every size and kept the counters in range.
    let integer = |arg: &DirArg<'_>| -> Result<i64, AsmError> {
        match arg {
            DirArg::Expr(e) => e.eval(symbols, line_no),
            DirArg::Ident(sym) => Expr::Sym(sym).eval(symbols, line_no),
            DirArg::Float(_) | DirArg::Str(_) => Err(syntax(
                line_no,
                format!(".{} expects integer expressions", name.to_ascii_lowercase()),
            )),
        }
    };
    let float = |arg: &DirArg<'_>| -> Result<f64, AsmError> {
        match arg {
            DirArg::Float(v) => Ok(*v),
            DirArg::Expr(e) if e.is_constant() => Ok(e.eval(symbols, line_no)? as f64),
            _ => Err(syntax(
                line_no,
                format!(".{} expects numeric literals", name.to_ascii_lowercase()),
            )),
        }
    };
    let in_range = |v: i64, lo: i64, hi: i64, what: &'static str| {
        if (lo..=hi).contains(&v) {
            Ok(v)
        } else {
            Err(AsmError::new(
                line_no,
                AsmErrorKind::ValueOutOfRange { what, value: v },
            ))
        }
    };

    match directive {
        Directive::Align => {
            let align = alignment(args, line_no, symbols)?;
            let target = (base + buf.len() as u32).next_multiple_of(align);
            buf.resize((target - base) as usize, 0);
        }
        Directive::Space => {
            let n = space_size(args, line_no, symbols)?;
            buf.resize(buf.len() + n as usize, 0);
        }
        Directive::Byte => {
            for arg in args {
                let v = in_range(integer(arg)?, -128, 255, ".byte value")?;
                buf.push(v as u8);
            }
        }
        Directive::Half => {
            for arg in args {
                let v = in_range(integer(arg)?, -32768, 65535, ".half value")?;
                buf.extend_from_slice(&(v as u16).to_le_bytes());
            }
        }
        Directive::Word => {
            for arg in args {
                let (lo, hi) = (i64::from(i32::MIN), i64::from(u32::MAX));
                let v = in_range(integer(arg)?, lo, hi, ".word value")?;
                buf.extend_from_slice(&(v as u32).to_le_bytes());
            }
        }
        Directive::Float => {
            for arg in args {
                buf.extend_from_slice(&(float(arg)? as f32).to_le_bytes());
            }
        }
        Directive::Double => {
            for arg in args {
                buf.extend_from_slice(&float(arg)?.to_le_bytes());
            }
        }
        _ => {
            for arg in args {
                if let DirArg::Str(s) = arg {
                    buf.extend_from_slice(s.as_bytes());
                    if directive == Directive::Asciiz {
                        buf.push(0);
                    }
                }
            }
        }
    }
    Ok(())
}
