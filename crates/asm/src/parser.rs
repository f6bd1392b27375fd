use std::ops::Range;

use ccrp_isa::{FpReg, Reg};

use crate::assembler::Directive;
use crate::error::AsmError;
use crate::expr::{parse_expr, Cursor, Expr};
use crate::instrs::Mnemonic;
use crate::token::{tokenize_line, Token};

/// One operand of an instruction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Operand<'a> {
    /// A general-purpose register.
    Reg(Reg),
    /// A floating-point register.
    Fp(FpReg),
    /// A constant expression (immediate, branch target, symbol).
    Expr(Expr<'a>),
    /// A memory operand `offset(base)`.
    Mem { offset: Expr<'a>, base: Reg },
}

/// One argument of a directive.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DirArg<'a> {
    /// A constant expression.
    Expr(Expr<'a>),
    /// A string literal.
    Str(String),
    /// A floating-point literal.
    Float(f64),
    /// A bare identifier (e.g. the mode name in `.set noreorder`).
    Ident(&'a str),
}

/// A parsed source item. One source line can produce several items
/// (labels followed by an instruction, for example). Names borrow from
/// the source; operands and arguments live in the [`Program`]'s arenas.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Item<'a> {
    /// A label definition (`name:`).
    Label(&'a str),
    /// An instruction or pseudo-instruction.
    Instr {
        /// The name as written.
        name: &'a str,
        mnemonic: Mnemonic,
        /// Indices into [`Program::operands`], in source order.
        operands: Range<usize>,
    },
    /// An assembler directive.
    Directive {
        /// The name as written, without its leading `.`.
        name: &'a str,
        directive: Directive,
        /// Indices into [`Program::args`], in source order.
        args: Range<usize>,
    },
}

/// A whole source, parsed: its items with their 1-based lines, and the
/// two arenas the items' operand and argument ranges index.
#[derive(Debug, Default)]
pub(crate) struct Program<'a> {
    pub(crate) items: Vec<(usize, Item<'a>)>,
    pub(crate) operands: Vec<Operand<'a>>,
    pub(crate) args: Vec<DirArg<'a>>,
}

impl<'a> Program<'a> {
    /// Parses every line of `source`, reusing one token buffer.
    ///
    /// # Errors
    ///
    /// The first tokenizer or syntax error, tagged with its line.
    pub(crate) fn parse(source: &'a str) -> Result<Self, AsmError> {
        let mut program = Program::default();
        let mut tokens = Vec::new();
        for (idx, line) in source.lines().enumerate() {
            tokenize_line(line, idx + 1, &mut tokens)?;
            program.parse_line(&tokens, idx + 1)?;
        }
        Ok(program)
    }

    /// Parses one tokenized line into items (none for blank/comment
    /// lines).
    fn parse_line(&mut self, tokens: &[Token<'a>], line_no: usize) -> Result<(), AsmError> {
        let mut cur = Cursor::new(tokens, line_no);
        // Leading labels: `name:` possibly several on one line.
        while let (Some(&Token::Ident(name)), Some(Token::Punct(':'))) =
            (cur.peek(), cur.peek_at(1))
        {
            self.items.push((line_no, Item::Label(name)));
            cur.next();
            cur.next();
        }
        let item = match cur.next() {
            None => return Ok(()),
            Some(&Token::Ident(name)) => match name.strip_prefix('.') {
                Some(name) => {
                    let start = self.args.len();
                    self.parse_dir_args(&mut cur)?;
                    Item::Directive {
                        name,
                        directive: Directive::resolve(name),
                        args: start..self.args.len(),
                    }
                }
                None => {
                    let start = self.operands.len();
                    self.parse_operands(&mut cur)?;
                    Item::Instr {
                        name,
                        mnemonic: Mnemonic::resolve(name),
                        operands: start..self.operands.len(),
                    }
                }
            },
            Some(other) => {
                return Err(cur.syntax(format!(
                    "expected instruction or directive, found {other:?}"
                )))
            }
        };
        if !cur.at_end() {
            return Err(cur.syntax("trailing tokens after statement"));
        }
        self.items.push((line_no, item));
        Ok(())
    }

    fn parse_operands(&mut self, cur: &mut Cursor<'_, 'a>) -> Result<(), AsmError> {
        if cur.at_end() {
            return Ok(());
        }
        loop {
            let operand = parse_operand(cur)?;
            self.operands.push(operand);
            if !cur.eat_punct(',') {
                return Ok(());
            }
        }
    }

    fn parse_dir_args(&mut self, cur: &mut Cursor<'_, 'a>) -> Result<(), AsmError> {
        if cur.at_end() {
            return Ok(());
        }
        loop {
            let arg = match (cur.peek(), cur.peek_at(1)) {
                (Some(Token::Str(s)), _) => {
                    cur.next();
                    DirArg::Str(s.clone())
                }
                (Some(Token::Float(v)), _) => {
                    cur.next();
                    DirArg::Float(*v)
                }
                (Some(Token::Punct('-')), Some(Token::Float(v))) => {
                    cur.next();
                    cur.next();
                    DirArg::Float(-v)
                }
                (Some(&Token::Ident(name)), next) if !is_operator(next) => {
                    cur.next();
                    DirArg::Ident(name)
                }
                _ => DirArg::Expr(parse_expr(cur)?),
            };
            self.args.push(arg);
            if !cur.eat_punct(',') {
                return Ok(());
            }
        }
    }
}

fn parse_operand<'a>(cur: &mut Cursor<'_, 'a>) -> Result<Operand<'a>, AsmError> {
    match (cur.peek(), cur.peek_at(1)) {
        (Some(Token::Reg(r)), _) => {
            cur.next();
            Ok(Operand::Reg(*r))
        }
        (Some(Token::Fp(f)), _) => {
            cur.next();
            Ok(Operand::Fp(*f))
        }
        // `(reg)` is a memory operand with zero offset; `(expr...` is a
        // parenthesized expression.
        (Some(Token::Punct('(')), Some(Token::Reg(base))) => {
            cur.next();
            cur.next();
            cur.expect_punct(')')?;
            Ok(Operand::Mem {
                offset: Expr::Num(0),
                base: *base,
            })
        }
        _ => {
            let offset = parse_expr(cur)?;
            if !cur.eat_punct('(') {
                return Ok(Operand::Expr(offset));
            }
            let base = match cur.next() {
                Some(Token::Reg(r)) => *r,
                other => return Err(cur.syntax(format!("expected base register, found {other:?}"))),
            };
            cur.expect_punct(')')?;
            Ok(Operand::Mem { offset, base })
        }
    }
}

/// An identifier followed by an arithmetic operator is an expression
/// (`.word table + 4`); a bare identifier or one followed by `,` is a name
/// argument (`.set noreorder`, `.globl main`). Symbol references in data
/// directives still work because `Ident` args are converted to symbol
/// expressions by the assembler when the directive expects values.
fn is_operator(token: Option<&Token<'_>>) -> bool {
    matches!(
        token,
        Some(Token::Punct(
            '+' | '-' | '*' | '/' | '<' | '>' | '&' | '|' | '^'
        ))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program<'_> {
        Program::parse(src).unwrap()
    }

    #[test]
    fn parses_label_and_instruction() {
        let program = parse("loop: addiu $t0, $t0, -1");
        assert_eq!(program.items.len(), 2);
        assert_eq!(program.items[0], (1, Item::Label("loop")));
        match &program.items[1].1 {
            Item::Instr {
                name,
                mnemonic,
                operands,
            } => {
                assert_eq!(*name, "addiu");
                assert_eq!(*mnemonic, Mnemonic::resolve("ADDIU"));
                assert_eq!(operands.len(), 3);
                assert_eq!(program.operands[0], Operand::Reg(Reg::T0));
                assert_eq!(program.operands[2], Operand::Expr(Expr::Num(-1)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_memory_operands() {
        let program = parse("lw $ra, 20($sp)\nlw $t0, ($a0)");
        assert!(matches!(
            &program.operands[1],
            Operand::Mem { base, .. } if *base == Reg::SP
        ));
        // Zero-offset shorthand.
        assert_eq!(
            program.operands[3],
            Operand::Mem {
                offset: Expr::Num(0),
                base: Reg::A0
            }
        );
    }

    #[test]
    fn parses_directives() {
        let program = parse(".word 1, 2, table+8\n.SET noreorder\n.double 1.5, -2.25");
        let directives: Vec<_> = program
            .items
            .iter()
            .map(|(_, item)| match item {
                Item::Directive {
                    directive, args, ..
                } => (*directive, args.clone()),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(
            directives,
            vec![
                (Directive::Word, 0..3),
                (Directive::Set, 3..4),
                (Directive::Double, 4..6)
            ]
        );
        assert!(matches!(&program.args[2], DirArg::Expr(_)));
        assert_eq!(program.args[3], DirArg::Ident("noreorder"));
        assert_eq!(program.args[4], DirArg::Float(1.5));
        assert_eq!(program.args[5], DirArg::Float(-2.25));
    }

    #[test]
    fn empty_and_comment_lines() {
        assert!(parse("").items.is_empty());
        assert!(parse("   # nothing").items.is_empty());
    }

    #[test]
    fn bare_label_line() {
        assert_eq!(parse("end:").items, vec![(1, Item::Label("end"))]);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Program::parse("lw $t0, 4($sp) $t1").is_err());
        assert!(Program::parse("add $t0, $t1 extra").is_err());
        assert!(Program::parse("1 + 2").is_err());
    }

    #[test]
    fn unknown_names_wait_for_pass_one() {
        let program = parse("bogus $t0\nadd.d $f4, $f2, $f0");
        assert!(matches!(
            program.items[0].1,
            Item::Instr {
                mnemonic: Mnemonic::Unknown,
                ..
            }
        ));
        assert!(matches!(program.operands[1], Operand::Fp(_)));
    }
}
