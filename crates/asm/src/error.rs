use std::error::Error;
use std::fmt;
use std::ops::Range;

use ccrp_isa::IsaError;

/// An assembly error with the 1-based source line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text (0 for whole-program errors).
    pub line: usize,
    /// What went wrong.
    pub kind: AsmErrorKind,
}

impl AsmError {
    pub(crate) fn new(line: usize, kind: AsmErrorKind) -> Self {
        Self { line, kind }
    }
}

/// The reason an assembly failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AsmErrorKind {
    /// A character that starts no token.
    UnexpectedChar(char),
    /// A string literal with no closing quote.
    UnterminatedString,
    /// A malformed numeric literal.
    BadNumber(String),
    /// Generic parse failure with a human-readable explanation.
    Syntax(String),
    /// An unknown instruction mnemonic or directive.
    UnknownMnemonic(String),
    /// An instruction was given the wrong operands.
    BadOperands {
        /// The mnemonic being assembled.
        mnemonic: String,
        /// What the mnemonic expects.
        expected: &'static str,
    },
    /// A symbol was used but never defined.
    UndefinedSymbol(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// A value did not fit in its instruction field.
    ValueOutOfRange {
        /// Description of the field.
        what: &'static str,
        /// The offending value.
        value: i64,
    },
    /// A branch target too far away for a 16-bit word offset.
    BranchOutOfRange {
        /// Branch instruction address.
        from: u32,
        /// Target address.
        to: u32,
    },
    /// A branch or jump target that is not word aligned.
    MisalignedTarget(u32),
    /// Division by zero inside a constant expression.
    DivideByZero,
    /// An underlying ISA-level error (bad register, field overflow, ...).
    Isa(IsaError),
    /// An operand's expression holds more operators and parentheses than
    /// the assembler will nest.
    ExprTooDeep {
        /// The most operators and parentheses one expression may hold.
        limit: usize,
    },
    /// Data directives left the text segment ending in a partial word.
    UnalignedText {
        /// The text segment's size in bytes.
        size: usize,
    },
    /// The text and data segments share addresses, so loading the data
    /// would overwrite instructions.
    SegmentOverlap {
        /// The text segment's addresses.
        text: Range<u32>,
        /// The data segment's addresses.
        data: Range<u32>,
    },
    /// The two assembler passes disagreed about an instruction's size;
    /// this indicates an assembler bug, surfaced as an error for safety.
    SizeMismatch {
        /// The mnemonic whose expansion changed size.
        mnemonic: String,
        /// Words planned in pass 1.
        planned: usize,
        /// Words emitted in pass 2.
        emitted: usize,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: ", self.line)?;
        }
        match &self.kind {
            AsmErrorKind::UnexpectedChar(c) => write!(f, "unexpected character `{c}`"),
            AsmErrorKind::UnterminatedString => write!(f, "unterminated string literal"),
            AsmErrorKind::BadNumber(s) => write!(f, "malformed number `{s}`"),
            AsmErrorKind::Syntax(msg) => write!(f, "syntax error: {msg}"),
            AsmErrorKind::UnknownMnemonic(m) => write!(f, "unknown mnemonic or directive `{m}`"),
            AsmErrorKind::BadOperands { mnemonic, expected } => {
                write!(f, "bad operands for `{mnemonic}`: expected {expected}")
            }
            AsmErrorKind::UndefinedSymbol(s) => write!(f, "undefined symbol `{s}`"),
            AsmErrorKind::DuplicateLabel(s) => write!(f, "label `{s}` defined more than once"),
            AsmErrorKind::ValueOutOfRange { what, value } => {
                write!(f, "value {value} out of range for {what}")
            }
            AsmErrorKind::BranchOutOfRange { from, to } => {
                write!(f, "branch from {from:#x} to {to:#x} out of 16-bit range")
            }
            AsmErrorKind::MisalignedTarget(addr) => {
                write!(f, "control-transfer target {addr:#x} is not word aligned")
            }
            AsmErrorKind::DivideByZero => write!(f, "division by zero in constant expression"),
            AsmErrorKind::Isa(e) => write!(f, "{e}"),
            AsmErrorKind::ExprTooDeep { limit } => write!(
                f,
                "expression holds more than {limit} operators and parentheses"
            ),
            AsmErrorKind::UnalignedText { size } => write!(
                f,
                "text segment of {size} bytes is not a whole number of words"
            ),
            AsmErrorKind::SegmentOverlap { text, data } => write!(
                f,
                "text segment {:#x}..{:#x} overlaps data segment {:#x}..{:#x}",
                text.start, text.end, data.start, data.end
            ),
            AsmErrorKind::SizeMismatch {
                mnemonic,
                planned,
                emitted,
            } => write!(
                f,
                "internal: `{mnemonic}` planned {planned} words but emitted {emitted}"
            ),
        }
    }
}

impl Error for AsmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.kind {
            AsmErrorKind::Isa(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line() {
        let err = AsmError::new(7, AsmErrorKind::UndefinedSymbol("loop".into()));
        assert_eq!(err.to_string(), "line 7: undefined symbol `loop`");
    }

    #[test]
    fn whole_program_errors_omit_line() {
        let err = AsmError::new(0, AsmErrorKind::DivideByZero);
        assert!(!err.to_string().contains("line"));
    }

    #[test]
    fn isa_error_is_source() {
        use std::error::Error as _;
        let err = AsmError::new(
            1,
            AsmErrorKind::Isa(IsaError::RegisterOutOfRange { number: 99 }),
        );
        assert!(err.source().is_some());
    }
}
