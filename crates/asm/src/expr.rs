use std::collections::BTreeMap;

use crate::error::{AsmError, AsmErrorKind};
use crate::token::Token;

/// The most operators and parenthesis pairs one operand's expression may
/// hold. Parsing recurses once per parenthesis and unary operator, and
/// evaluation once per operator, so this bounds both: a hostile source
/// gets [`AsmErrorKind::ExprTooDeep`] instead of overflowing the stack.
pub(crate) const MAX_EXPR_DEPTH: usize = 256;

/// A constant expression appearing as an instruction or directive operand.
///
/// Symbols are resolved against the final symbol table during pass 2, so
/// forward references assemble correctly.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr<'a> {
    /// Integer literal.
    Num(i64),
    /// Symbol reference (label or `.equ` constant).
    Sym(&'a str),
    /// Binary operation.
    Bin(BinOp, Box<Expr<'a>>, Box<Expr<'a>>),
    /// Unary negation.
    Neg(Box<Expr<'a>>),
    /// Bitwise complement.
    Not(Box<Expr<'a>>),
    /// `%hi(expr)` — the high 16 bits, adjusted for the signed `lo` part
    /// exactly as MIPS linkers compute it.
    Hi(Box<Expr<'a>>),
    /// `%lo(expr)` — the low 16 bits.
    Lo(Box<Expr<'a>>),
}

/// Binary operators, in C-like precedence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
    /// Truncating division.
    Div,
    Shl,
    /// Logical right shift (`>>`).
    Shr,
    And,
    Or,
    Xor,
}

/// A cursor over one line's tokens, shared by the operand and expression
/// parsers.
#[derive(Debug)]
pub(crate) struct Cursor<'t, 'a> {
    tokens: &'t [Token<'a>],
    pos: usize,
    line: usize,
    /// Operators and parentheses spent by the expression being parsed.
    depth: usize,
}

impl<'t, 'a> Cursor<'t, 'a> {
    /// Creates a cursor at the start of `tokens`, reporting errors at `line`.
    pub(crate) fn new(tokens: &'t [Token<'a>], line: usize) -> Self {
        Self {
            tokens,
            pos: 0,
            line,
            depth: 0,
        }
    }

    /// Peeks `ahead` tokens past the cursor (0 = the next token).
    pub(crate) fn peek_at(&self, ahead: usize) -> Option<&'t Token<'a>> {
        self.tokens.get(self.pos + ahead)
    }

    /// Peeks the next token without consuming it.
    pub(crate) fn peek(&self) -> Option<&'t Token<'a>> {
        self.peek_at(0)
    }

    /// Consumes and returns the next token.
    pub(crate) fn next(&mut self) -> Option<&'t Token<'a>> {
        let tok = self.peek();
        self.pos += usize::from(tok.is_some());
        tok
    }

    /// True when all tokens are consumed.
    pub(crate) fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Consumes the next token if it equals `punct`.
    pub(crate) fn eat_punct(&mut self, punct: char) -> bool {
        let hit = self.peek() == Some(&Token::Punct(punct));
        self.pos += usize::from(hit);
        hit
    }

    /// Requires `punct` as the next token.
    pub(crate) fn expect_punct(&mut self, punct: char) -> Result<(), AsmError> {
        if self.eat_punct(punct) {
            Ok(())
        } else {
            Err(self.syntax(format!("expected `{punct}`")))
        }
    }

    /// Builds a syntax error at this cursor's line.
    pub(crate) fn syntax(&self, msg: impl Into<String>) -> AsmError {
        AsmError::new(self.line, AsmErrorKind::Syntax(msg.into()))
    }

    /// Spends one operator or parenthesis of the expression's budget.
    fn deepen(&mut self) -> Result<(), AsmError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return Err(AsmError::new(
                self.line,
                AsmErrorKind::ExprTooDeep {
                    limit: MAX_EXPR_DEPTH,
                },
            ));
        }
        Ok(())
    }

    /// The binary operator at the cursor, its precedence (higher binds
    /// tighter) and its width in tokens.
    fn peek_binop(&self) -> Option<(BinOp, u8, usize)> {
        let Some(Token::Punct(c)) = self.peek() else {
            return None;
        };
        let doubled = self.peek_at(1) == Some(&Token::Punct(*c));
        Some(match c {
            '|' => (BinOp::Or, 0, 1),
            '^' => (BinOp::Xor, 1, 1),
            '&' => (BinOp::And, 2, 1),
            '<' if doubled => (BinOp::Shl, 3, 2),
            '>' if doubled => (BinOp::Shr, 3, 2),
            '+' => (BinOp::Add, 4, 1),
            '-' => (BinOp::Sub, 4, 1),
            '*' => (BinOp::Mul, 5, 1),
            '/' => (BinOp::Div, 5, 1),
            _ => return None,
        })
    }
}

/// Parses one operand's expression at C-like precedence from `cur`.
///
/// Grammar (loosest to tightest): `|` `^` `&`, shifts, `+ -`, `* /`,
/// unary `- ~ + %hi %lo`, atoms (number, symbol, parenthesized). A
/// negated or complemented literal folds into the literal it evaluates
/// to.
///
/// # Errors
///
/// Returns a syntax error if no valid expression starts at the cursor,
/// and [`AsmErrorKind::ExprTooDeep`] past [`MAX_EXPR_DEPTH`] operators
/// and parentheses.
pub(crate) fn parse_expr<'a>(cur: &mut Cursor<'_, 'a>) -> Result<Expr<'a>, AsmError> {
    cur.depth = 0;
    parse_binary(cur, 0)
}

/// Precedence climbing: operators binding at least `min_prec`, each
/// left-associative.
fn parse_binary<'a>(cur: &mut Cursor<'_, 'a>, min_prec: u8) -> Result<Expr<'a>, AsmError> {
    let mut lhs = parse_unary(cur)?;
    while let Some((op, prec, width)) = cur.peek_binop() {
        if prec < min_prec {
            break;
        }
        cur.deepen()?;
        cur.pos += width;
        let rhs = parse_binary(cur, prec + 1)?;
        lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
    }
    Ok(lhs)
}

fn parse_unary<'a>(cur: &mut Cursor<'_, 'a>) -> Result<Expr<'a>, AsmError> {
    let token = cur.next();
    if matches!(
        token,
        Some(Token::Punct('-' | '~' | '+' | '(') | Token::HiOp | Token::LoOp)
    ) {
        cur.deepen()?;
    }
    match token {
        Some(Token::Punct('-')) => Ok(match parse_unary(cur)? {
            Expr::Num(n) => Expr::Num(n.wrapping_neg()),
            e => Expr::Neg(Box::new(e)),
        }),
        Some(Token::Punct('~')) => Ok(match parse_unary(cur)? {
            Expr::Num(n) => Expr::Num(!n),
            e => Expr::Not(Box::new(e)),
        }),
        Some(Token::Punct('+')) => parse_unary(cur),
        Some(Token::Num(n)) => Ok(Expr::Num(*n)),
        Some(&Token::Ident(name)) => Ok(Expr::Sym(name)),
        Some(Token::HiOp) => Ok(Expr::Hi(Box::new(parse_group(cur, true)?))),
        Some(Token::LoOp) => Ok(Expr::Lo(Box::new(parse_group(cur, true)?))),
        Some(Token::Punct('(')) => parse_group(cur, false),
        other => Err(cur.syntax(format!("expected expression, found {other:?}"))),
    }
}

/// A parenthesized expression whose `(` is consumed already, or is the
/// next token when `open` (after `%hi`/`%lo`).
fn parse_group<'a>(cur: &mut Cursor<'_, 'a>, open: bool) -> Result<Expr<'a>, AsmError> {
    if open {
        cur.expect_punct('(')?;
    }
    let inner = parse_binary(cur, 0)?;
    cur.expect_punct(')')?;
    Ok(inner)
}

impl Expr<'_> {
    /// Evaluates the expression against a symbol table.
    ///
    /// # Errors
    ///
    /// [`AsmErrorKind::UndefinedSymbol`] for an unknown name or
    /// [`AsmErrorKind::DivideByZero`] for a zero divisor; errors carry
    /// `line` for reporting.
    pub(crate) fn eval(
        &self,
        symbols: &BTreeMap<String, u32>,
        line: usize,
    ) -> Result<i64, AsmError> {
        match self {
            Expr::Num(n) => Ok(*n),
            Expr::Sym(name) => symbols.get(*name).map(|&v| i64::from(v)).ok_or_else(|| {
                AsmError::new(line, AsmErrorKind::UndefinedSymbol(name.to_string()))
            }),
            Expr::Neg(e) => Ok(e.eval(symbols, line)?.wrapping_neg()),
            Expr::Not(e) => Ok(!e.eval(symbols, line)?),
            Expr::Hi(e) => {
                let v = e.eval(symbols, line)? as u32;
                // Adjust for the sign-extension of the paired %lo addend.
                Ok(i64::from((v.wrapping_add(0x8000)) >> 16))
            }
            Expr::Lo(e) => {
                let v = e.eval(symbols, line)? as u32;
                Ok(i64::from(v as u16 as i16))
            }
            Expr::Bin(op, lhs, rhs) => {
                let l = lhs.eval(symbols, line)?;
                let r = rhs.eval(symbols, line)?;
                match op {
                    BinOp::Add => Ok(l.wrapping_add(r)),
                    BinOp::Sub => Ok(l.wrapping_sub(r)),
                    BinOp::Mul => Ok(l.wrapping_mul(r)),
                    BinOp::Div => {
                        if r == 0 {
                            Err(AsmError::new(line, AsmErrorKind::DivideByZero))
                        } else {
                            Ok(l.wrapping_div(r))
                        }
                    }
                    BinOp::Shl => Ok(l.wrapping_shl(r as u32)),
                    BinOp::Shr => Ok(((l as u64).wrapping_shr(r as u32)) as i64),
                    BinOp::And => Ok(l & r),
                    BinOp::Or => Ok(l | r),
                    BinOp::Xor => Ok(l ^ r),
                }
            }
        }
    }

    /// True when the expression references no symbols (pure literal).
    pub(crate) fn is_constant(&self) -> bool {
        match self {
            Expr::Num(_) => true,
            Expr::Sym(_) => false,
            Expr::Neg(e) | Expr::Not(e) | Expr::Hi(e) | Expr::Lo(e) => e.is_constant(),
            Expr::Bin(_, l, r) => l.is_constant() && r.is_constant(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize_line;

    fn parse(src: &str) -> Result<Expr<'_>, AsmError> {
        let mut toks = Vec::new();
        tokenize_line(src, 1, &mut toks).unwrap();
        let mut cur = Cursor::new(&toks, 1);
        let expr = parse_expr(&mut cur)?;
        assert!(cur.at_end(), "trailing tokens in {src}");
        Ok(expr)
    }

    fn eval_str(src: &str, symbols: &[(&str, u32)]) -> Result<i64, AsmError> {
        let table: BTreeMap<String, u32> =
            symbols.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        parse(src)?.eval(&table, 1)
    }

    #[test]
    fn precedence() {
        assert_eq!(eval_str("2+3*4", &[]).unwrap(), 14);
        assert_eq!(eval_str("(2+3)*4", &[]).unwrap(), 20);
        assert_eq!(eval_str("1<<4|1", &[]).unwrap(), 17);
        assert_eq!(eval_str("255 & 0x0F", &[]).unwrap(), 15);
        assert_eq!(eval_str("6/2-1", &[]).unwrap(), 2);
        assert_eq!(eval_str("0x10 >> 2", &[]).unwrap(), 4);
        assert_eq!(eval_str("10-4-3", &[]).unwrap(), 3);
        assert_eq!(eval_str("1|6^3&5", &[]).unwrap(), 1 | (6 ^ (3 & 5)));
    }

    #[test]
    fn unary() {
        assert_eq!(eval_str("-5", &[]).unwrap(), -5);
        assert_eq!(eval_str("~0", &[]).unwrap(), -1);
        assert_eq!(eval_str("--3", &[]).unwrap(), 3);
        // A negated literal is the literal; a negated symbol stays a node.
        assert_eq!(parse("-5").unwrap(), Expr::Num(-5));
        assert_eq!(parse("-a").unwrap(), Expr::Neg(Box::new(Expr::Sym("a"))));
    }

    #[test]
    fn symbols_resolve() {
        assert_eq!(eval_str("base+8", &[("base", 0x100)]).unwrap(), 0x108);
        assert!(matches!(
            eval_str("missing", &[]).unwrap_err().kind,
            AsmErrorKind::UndefinedSymbol(_)
        ));
    }

    #[test]
    fn hi_lo_pair_reconstructs_address() {
        // The defining property: (hi << 16) + sign_extend(lo) == addr.
        for addr in [0u32, 0x1234_5678, 0x0001_8000, 0x00FF_FFFC, 0x7FFF_F000] {
            let hi = eval_str("%hi(a)", &[("a", addr)]).unwrap();
            let lo = eval_str("%lo(a)", &[("a", addr)]).unwrap();
            let rebuilt = ((hi as u32) << 16).wrapping_add(lo as u32);
            assert_eq!(rebuilt, addr, "addr {addr:#x}");
        }
    }

    #[test]
    fn divide_by_zero_is_caught() {
        assert!(matches!(
            eval_str("1/0", &[]).unwrap_err().kind,
            AsmErrorKind::DivideByZero
        ));
    }

    #[test]
    fn constant_detection() {
        assert!(parse("3*(4+1)").unwrap().is_constant());
        assert!(!parse("label+4").unwrap().is_constant());
    }

    #[test]
    fn depth_is_bounded() {
        let nested = |n| format!("{}1{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(eval_str(&nested(MAX_EXPR_DEPTH), &[]).unwrap(), 1);
        let too_deep = AsmErrorKind::ExprTooDeep {
            limit: MAX_EXPR_DEPTH,
        };
        for src in [
            nested(MAX_EXPR_DEPTH + 1),
            format!("{}1", "-".repeat(MAX_EXPR_DEPTH + 1)),
            format!("1{}", "+1".repeat(MAX_EXPR_DEPTH + 1)),
        ] {
            assert_eq!(parse(&src).unwrap_err().kind, too_deep);
        }
    }
}
