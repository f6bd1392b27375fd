use ccrp_isa::{FpReg, Reg};

use crate::error::{AsmError, AsmErrorKind};

/// A lexical token of MIPS assembly source, borrowing names from the
/// line it was scanned from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token<'a> {
    /// Mnemonic, directive, or symbol name (may contain `.` and `_`).
    Ident(&'a str),
    /// A general-purpose register (`$t0`, `$29`, ...).
    Reg(Reg),
    /// A floating-point register (`$f12`).
    Fp(FpReg),
    /// An integer literal (decimal, `0x` hex, `0b` binary, or `'c'` char).
    Num(i64),
    /// A floating-point literal (only valid after `.float`/`.double`).
    Float(f64),
    /// A quoted string literal with escapes processed.
    Str(String),
    /// Single punctuation character: `, ( ) : + - * / & | ^ ~ < >`.
    Punct(char),
    /// The `%hi` relocation operator.
    HiOp,
    /// The `%lo` relocation operator.
    LoOp,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b'.'
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
}

/// The end of the run of bytes from `start` that satisfy `accept`.
fn scan(bytes: &[u8], start: usize, accept: impl Fn(u8) -> bool) -> usize {
    bytes[start..]
        .iter()
        .position(|&b| !accept(b))
        .map_or(bytes.len(), |n| start + n)
}

/// Splits one source line into `tokens` (cleared first), scanning its
/// bytes once. Names and numbers are slices of `line`; a run of ASCII
/// bytes never ends inside a multi-byte character, and every other
/// character is decoded whole. Comments (`#` or `;` to end of line) are
/// stripped.
///
/// # Errors
///
/// Returns an [`AsmError`] (tagged with `line_no`) on malformed numbers,
/// unknown registers, unterminated strings, or stray characters.
pub(crate) fn tokenize_line<'a>(
    line: &'a str,
    line_no: usize,
    tokens: &mut Vec<Token<'a>>,
) -> Result<(), AsmError> {
    tokens.clear();
    let bytes = line.as_bytes();
    let err = |kind| AsmError::new(line_no, kind);
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let start = i;
        let token = match b {
            b'#' | b';' => break,
            b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' => {
                i += 1;
                continue;
            }
            b'"' => {
                let mut s = String::new();
                let mut chars = line[i + 1..].char_indices();
                loop {
                    match chars.next() {
                        None => return Err(err(AsmErrorKind::UnterminatedString)),
                        Some((at, '"')) => {
                            i += 1 + at + 1;
                            break;
                        }
                        Some((_, '\\')) => match chars.next() {
                            Some((_, esc)) => s.push(unescape(esc)),
                            None => return Err(err(AsmErrorKind::UnterminatedString)),
                        },
                        Some((_, c)) => s.push(c),
                    }
                }
                Token::Str(s)
            }
            b'\'' => {
                let mut chars = line[i + 1..].char_indices();
                let mut next = || {
                    chars
                        .next()
                        .ok_or_else(|| err(AsmErrorKind::UnterminatedString))
                };
                let value = match next()?.1 {
                    '\\' => unescape(next()?.1),
                    c => c,
                };
                match next()? {
                    (at, '\'') => i += 1 + at + 1,
                    _ => return Err(err(AsmErrorKind::UnterminatedString)),
                }
                Token::Num(value as i64)
            }
            b'$' => {
                i = scan(bytes, i + 1, |b| b.is_ascii_alphanumeric());
                let name = &line[start..i];
                match FpReg::from_name(name) {
                    Some(fp) => Token::Fp(fp),
                    None => Token::Reg(name.parse().map_err(|e| err(AsmErrorKind::Isa(e)))?),
                }
            }
            b'%' => {
                i = scan(bytes, i + 1, |b| b.is_ascii_alphabetic());
                match &line[start + 1..i] {
                    "hi" => Token::HiOp,
                    "lo" => Token::LoOp,
                    name => {
                        return Err(err(AsmErrorKind::Syntax(format!(
                            "unknown relocation operator %{name}"
                        ))))
                    }
                }
            }
            b'0'..=b'9' => {
                i = scan(bytes, i, |b| b.is_ascii_alphanumeric() || b == b'.');
                // Scientific notation: 1.5e-3 / 2e+6 need the sign pulled in.
                if matches!(bytes[i - 1], b'e' | b'E') && matches!(bytes.get(i), Some(b'+' | b'-'))
                {
                    i = scan(bytes, i + 1, |b| b.is_ascii_digit());
                }
                parse_number(&line[start..i], line_no)?
            }
            b if is_ident_start(b) => {
                i = scan(bytes, i, is_ident_char);
                Token::Ident(&line[start..i])
            }
            b',' | b'(' | b')' | b':' | b'+' | b'-' | b'*' | b'/' | b'&' | b'|' | b'^' | b'~'
            | b'<' | b'>' => {
                i += 1;
                Token::Punct(char::from(b))
            }
            _ => {
                // Any other character, decoded whole: Unicode whitespace
                // separates tokens, anything else starts none.
                let Some(c) = line[i..].chars().next() else {
                    break;
                };
                if !c.is_whitespace() {
                    return Err(err(AsmErrorKind::UnexpectedChar(c)));
                }
                i += c.len_utf8();
                continue;
            }
        };
        tokens.push(token);
    }
    Ok(())
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        '0' => '\0',
        other => other,
    }
}

fn parse_number<'a>(text: &str, line_no: usize) -> Result<Token<'a>, AsmError> {
    let bad = || AsmError::new(line_no, AsmErrorKind::BadNumber(text.to_string()));
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        return u64::from_str_radix(hex, 16)
            .map(|v| Token::Num(v as i64))
            .map_err(|_| bad());
    }
    if let Some(bin) = text.strip_prefix("0b").or_else(|| text.strip_prefix("0B")) {
        return u64::from_str_radix(bin, 2)
            .map(|v| Token::Num(v as i64))
            .map_err(|_| bad());
    }
    if text.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        return text.parse::<f64>().map(Token::Float).map_err(|_| bad());
    }
    text.parse::<i64>().map(Token::Num).map_err(|_| bad())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenize_line(line: &str, line_no: usize) -> Result<Vec<Token<'_>>, AsmError> {
        let mut tokens = Vec::new();
        super::tokenize_line(line, line_no, &mut tokens).map(|()| tokens)
    }

    #[test]
    fn tokenizes_instruction_line() {
        let toks = tokenize_line("loop: addiu $t0, $t0, -1  # decrement", 1).unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("loop"),
                Token::Punct(':'),
                Token::Ident("addiu"),
                Token::Reg(Reg::T0),
                Token::Punct(','),
                Token::Reg(Reg::T0),
                Token::Punct(','),
                Token::Punct('-'),
                Token::Num(1),
            ]
        );
    }

    #[test]
    fn tokenizes_numbers() {
        assert_eq!(tokenize_line("0x1F", 1).unwrap(), vec![Token::Num(31)]);
        assert_eq!(tokenize_line("0b101", 1).unwrap(), vec![Token::Num(5)]);
        assert_eq!(tokenize_line("'A'", 1).unwrap(), vec![Token::Num(65)]);
        assert_eq!(tokenize_line("'\\n'", 1).unwrap(), vec![Token::Num(10)]);
        assert_eq!(tokenize_line("'é'", 1).unwrap(), vec![Token::Num(0xE9)]);
        assert_eq!(tokenize_line("3.5", 1).unwrap(), vec![Token::Float(3.5)]);
        assert_eq!(tokenize_line("1e3", 1).unwrap(), vec![Token::Float(1000.0)]);
        assert_eq!(
            tokenize_line("2.5e-2", 1).unwrap(),
            vec![Token::Float(0.025)]
        );
    }

    #[test]
    fn tokenizes_registers_and_fp() {
        let toks = tokenize_line("mtc1 $a0, $f12", 1).unwrap();
        assert!(matches!(toks[1], Token::Reg(r) if r == Reg::A0));
        assert!(matches!(toks[3], Token::Fp(f) if f.number() == 12));
    }

    #[test]
    fn tokenizes_strings_with_escapes() {
        let toks = tokenize_line(r#".asciiz "hi\n""#, 1).unwrap();
        assert_eq!(toks[1], Token::Str("hi\n".into()));
        let toks = tokenize_line(r#".ascii "é€\"", 7"#, 1).unwrap();
        assert_eq!(toks[1], Token::Str("é€\"".into()));
        assert_eq!(toks[3], Token::Num(7));
    }

    #[test]
    fn tokenizes_mem_operand() {
        let toks = tokenize_line("lw $t0, 4($sp)", 1).unwrap();
        assert_eq!(toks[3], Token::Num(4));
        assert_eq!(toks[4], Token::Punct('('));
        assert_eq!(toks[6], Token::Punct(')'));
    }

    #[test]
    fn tokenizes_hi_lo() {
        let toks = tokenize_line("lui $at, %hi(table)", 1).unwrap();
        assert_eq!(toks[3], Token::HiOp);
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize_line("@@@", 1).is_err());
        assert!(tokenize_line("\"open", 1).is_err());
        assert!(tokenize_line("$t99", 1).is_err());
        assert!(tokenize_line("0xZZ", 1).is_err());
    }

    #[test]
    fn multi_byte_characters_are_decoded_whole() {
        let kind = |line| tokenize_line(line, 1).unwrap_err().kind;
        assert_eq!(kind("nop é"), AsmErrorKind::UnexpectedChar('é'));
        assert_eq!(kind("li $t0, 1€"), AsmErrorKind::UnexpectedChar('€'));
        // `$` then a non-ASCII character names no register at all.
        assert!(matches!(kind("move $t0, $é"), AsmErrorKind::Isa(_)));
        // Unicode whitespace separates tokens as ASCII whitespace does.
        assert_eq!(
            tokenize_line("\u{A0}nop\u{2003}", 1).unwrap(),
            vec![Token::Ident("nop")]
        );
    }

    #[test]
    fn comments_are_stripped() {
        assert!(tokenize_line("# whole line", 1).unwrap().is_empty());
        assert_eq!(tokenize_line("nop ; done", 1).unwrap().len(), 1);
    }
}
