use std::error::Error;
use std::fmt;

use ccrp_bitstream::ReadBitsError;

/// Errors from code construction and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompressError {
    /// A length table that violates the Kraft inequality (over-full code)
    /// or leaves the code incomplete in a way the decoder cannot handle.
    InvalidCodeLengths {
        /// Kraft sum numerator scaled by 2^max_len (== 2^max_len for a
        /// complete code).
        kraft: u64,
        /// The maximum code length in the table.
        max_len: u8,
    },
    /// An empty histogram — no symbols to code.
    EmptyHistogram,
    /// A code length exceeding the supported maximum of 32 bits.
    LengthTooLong {
        /// The offending length.
        length: u8,
    },
    /// The decoder hit a bit pattern with no assigned symbol.
    BadSymbol {
        /// Bit offset at which decoding failed.
        at_bit: u64,
    },
    /// The compressed stream ended mid-symbol.
    Truncated(ReadBitsError),
    /// An LZW code outside the dictionary.
    BadLzwCode {
        /// The offending code.
        code: u32,
    },
    /// A codec-parameter section whose size does not match what the
    /// codec id requires.
    BadCodecParams {
        /// The offending parameter-section size in bytes.
        length: usize,
    },
    /// A raw (bypassed) block that is not exactly one 32-byte line, so
    /// the decoder bypass cannot copy it out.
    BadStoredLength {
        /// The offending stored size in bytes.
        length: usize,
    },
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::InvalidCodeLengths { kraft, max_len } => write!(
                f,
                "code lengths violate Kraft inequality (sum {kraft} for max length {max_len})"
            ),
            CompressError::EmptyHistogram => {
                write!(f, "cannot build a code from an empty histogram")
            }
            CompressError::LengthTooLong { length } => {
                write!(f, "code length {length} exceeds supported maximum")
            }
            CompressError::BadSymbol { at_bit } => {
                write!(f, "no symbol matches the bits at offset {at_bit}")
            }
            CompressError::Truncated(e) => write!(f, "compressed stream truncated: {e}"),
            CompressError::BadLzwCode { code } => write!(f, "LZW code {code} not in dictionary"),
            CompressError::BadCodecParams { length } => {
                write!(
                    f,
                    "codec parameter section of {length} bytes has the wrong size"
                )
            }
            CompressError::BadStoredLength { length } => {
                write!(f, "stored raw block of {length} bytes is unrepresentable")
            }
        }
    }
}

impl Error for CompressError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompressError::Truncated(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ReadBitsError> for CompressError {
    fn from(e: ReadBitsError) -> Self {
        CompressError::Truncated(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = CompressError::BadLzwCode { code: 70000 };
        assert!(e.to_string().contains("70000"));
    }
}
