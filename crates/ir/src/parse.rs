//! A small text frontend for affine program blocks.
//!
//! The syntax mirrors how the paper writes kernels:
//!
//! ```text
//! # MPEG-4 motion estimation (paper Fig. 2)
//! program me(Ni, Nj, W)
//! array Cur[Ni + W][Nj + W]
//! array Ref[Ni + W][Nj + W]
//! array Sad[Ni][Nj]
//!
//! S1: for i = 0 .. Ni - 1, j = 0 .. Nj - 1, k = 0 .. W - 1, l = 0 .. W - 1 {
//!   Sad[i][j] = Sad[i][j] + abs(Cur[i + k][j + l] - Ref[i + k][j + l])
//! }
//! ```
//!
//! * loop bounds and subscripts are affine expressions over iterators
//!   and parameters (`2*i + N - 1`);
//! * statement bodies are arithmetic over array accesses, iterators,
//!   parameters and integers, with `+ - * /`, `min(a, b)`, `max(a, b)`,
//!   `abs(a)` and parentheses;
//! * `#` starts a line comment.
//!
//! [`parse_program`] lowers straight onto the
//! [`ProgramBuilder`], so parsed
//! programs are first-class: analyzable, tileable, executable.

use crate::builder::{ProgramBuilder, StatementBuilder};
use crate::expr::{Expr, LinExpr};
use crate::program::Program;
use crate::{IrError, Result};

/// Parse a program block from source text.
pub fn parse_program(src: &str) -> Result<Program> {
    let toks = tokenize(src)?;
    Parser { toks, pos: 0 }.program()
}

fn err(line: usize, msg: impl Into<String>) -> IrError {
    IrError::Parse {
        line,
        msg: msg.into(),
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Sym(char),
    DotDot,
}

/// Tokenize one logical chunk of source (the whole file; newlines are
/// preserved as `Sym('\n')` so the line-oriented grammar can use them).
fn tokenize(src: &str) -> Result<Vec<(usize, Tok)>> {
    let mut out = Vec::new();
    for (ln, line) in src.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("");
        let mut chars = line.chars().peekable();
        while let Some(&c) = chars.peek() {
            match c {
                ' ' | '\t' | '\r' => {
                    chars.next();
                }
                'a'..='z' | 'A'..='Z' | '_' => {
                    let mut s = String::new();
                    while let Some(&c) = chars.peek() {
                        if c.is_ascii_alphanumeric() || c == '_' {
                            s.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    out.push((ln + 1, Tok::Ident(s)));
                }
                '0'..='9' => {
                    let mut v: i64 = 0;
                    while let Some(&c) = chars.peek() {
                        if let Some(d) = c.to_digit(10) {
                            v = v
                                .checked_mul(10)
                                .and_then(|x| x.checked_add(d as i64))
                                .ok_or_else(|| err(ln + 1, "integer literal overflow"))?;
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    out.push((ln + 1, Tok::Int(v)));
                }
                '.' => {
                    chars.next();
                    if chars.peek() == Some(&'.') {
                        chars.next();
                        out.push((ln + 1, Tok::DotDot));
                    } else {
                        return Err(err(ln + 1, "stray '.'"));
                    }
                }
                '(' | ')' | '[' | ']' | '{' | '}' | ',' | '=' | '+' | '-' | '*' | '/' | ':' => {
                    chars.next();
                    out.push((ln + 1, Tok::Sym(c)));
                }
                other => return Err(err(ln + 1, format!("unexpected character `{other}`"))),
            }
        }
        out.push((ln + 1, Tok::Sym('\n')));
    }
    Ok(out)
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
}

impl Parser {
    fn line(&self) -> usize {
        self.toks.get(self.pos).map_or(0, |(l, _)| *l)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn skip_newlines(&mut self) {
        while self.peek() == Some(&Tok::Sym('\n')) {
            self.pos += 1;
        }
    }

    fn expect_sym(&mut self, c: char) -> Result<()> {
        match self.next() {
            Some(Tok::Sym(x)) if x == c => Ok(()),
            other => Err(err(self.line(), format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(err(
                self.line(),
                format!("expected identifier, found {other:?}"),
            )),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        let line = self.line();
        let id = self.expect_ident()?;
        if id == kw {
            Ok(())
        } else {
            Err(err(line, format!("expected `{kw}`, found `{id}`")))
        }
    }

    fn program(&mut self) -> Result<Program> {
        self.skip_newlines();
        self.expect_keyword("program")?;
        let name = self.expect_ident()?;
        self.expect_sym('(')?;
        let mut params = Vec::new();
        if self.peek() != Some(&Tok::Sym(')')) {
            loop {
                params.push(self.expect_ident()?);
                match self.next() {
                    Some(Tok::Sym(',')) => continue,
                    Some(Tok::Sym(')')) => break,
                    other => {
                        return Err(err(
                            self.line(),
                            format!("expected `,` or `)`, found {other:?}"),
                        ))
                    }
                }
            }
        } else {
            self.expect_sym(')')?;
        }
        let mut b = ProgramBuilder::new(name, params);

        loop {
            self.skip_newlines();
            match self.peek() {
                None => break,
                Some(Tok::Ident(kw)) if kw == "array" => {
                    self.next();
                    let aname = self.expect_ident()?;
                    let mut extents = Vec::new();
                    while self.peek() == Some(&Tok::Sym('[')) {
                        self.next();
                        extents.push(self.affine()?);
                        self.expect_sym(']')?;
                    }
                    if extents.is_empty() {
                        return Err(err(self.line(), "array needs at least one extent"));
                    }
                    b.array(aname, &extents);
                }
                Some(Tok::Ident(_)) => {
                    self.statement(&mut b)?;
                }
                other => return Err(err(self.line(), format!("unexpected {other:?}"))),
            }
        }
        b.build()
    }

    /// `Name: for v = lo .. hi (, ...)* { lhs = rhs }`
    fn statement(&mut self, b: &mut ProgramBuilder) -> Result<()> {
        let sname = self.expect_ident()?;
        self.expect_sym(':')?;
        self.expect_keyword("for")?;
        let mut loops: Vec<(String, LinExpr, LinExpr)> = Vec::new();
        loop {
            let var = self.expect_ident()?;
            self.expect_sym('=')?;
            let lo = self.affine()?;
            match self.next() {
                Some(Tok::DotDot) => {}
                other => return Err(err(self.line(), format!("expected `..`, found {other:?}"))),
            }
            let hi = self.affine()?;
            loops.push((var, lo, hi));
            match self.peek() {
                Some(Tok::Sym(',')) => {
                    self.next();
                }
                _ => break,
            }
        }
        self.skip_newlines();
        self.expect_sym('{')?;
        self.skip_newlines();

        // LHS access.
        let (warr, wsubs) = self.access()?;
        self.expect_sym('=')?;

        // RHS expression; collects reads in order of appearance.
        let iters: Vec<String> = loops.iter().map(|(n, _, _)| n.clone()).collect();
        let mut reads: Vec<(String, Vec<LinExpr>)> = Vec::new();
        let body = self.expr(&iters, &mut reads, b)?;
        self.skip_newlines();
        self.expect_sym('}')?;

        let loop_refs: Vec<(&str, LinExpr, LinExpr)> = loops
            .iter()
            .map(|(n, lo, hi)| (n.as_str(), lo.clone(), hi.clone()))
            .collect();
        let mut sb: StatementBuilder<'_> = b.stmt(sname);
        sb = sb.loops(&loop_refs).write(&warr, &wsubs);
        for (arr, subs) in &reads {
            sb = sb.read(arr, subs);
        }
        sb.body(body).done();
        Ok(())
    }

    /// `Name[affine][affine]...`
    fn access(&mut self) -> Result<(String, Vec<LinExpr>)> {
        let name = self.expect_ident()?;
        let mut subs = Vec::new();
        while self.peek() == Some(&Tok::Sym('[')) {
            self.next();
            subs.push(self.affine()?);
            self.expect_sym(']')?;
        }
        if subs.is_empty() {
            return Err(err(
                self.line(),
                format!("access to `{name}` needs subscripts"),
            ));
        }
        Ok((name, subs))
    }

    /// Affine expression: sum of terms `int`, `var`, `int*var`, `var*int`.
    fn affine(&mut self) -> Result<LinExpr> {
        let mut acc = LinExpr::c(0);
        let mut sign = 1i64;
        let mut first = true;
        loop {
            match self.peek() {
                Some(Tok::Sym('-')) => {
                    self.next();
                    sign = -sign;
                    continue;
                }
                Some(Tok::Sym('+')) if !first => {
                    self.next();
                    continue;
                }
                _ => {}
            }
            let term = match self.next() {
                Some(Tok::Int(v)) => {
                    if self.peek() == Some(&Tok::Sym('*')) {
                        self.next();
                        let var = self.expect_ident()?;
                        LinExpr::var(&var) * v
                    } else {
                        LinExpr::c(v)
                    }
                }
                Some(Tok::Ident(name)) => {
                    if self.peek() == Some(&Tok::Sym('*')) {
                        self.next();
                        match self.next() {
                            Some(Tok::Int(v)) => LinExpr::var(&name) * v,
                            other => {
                                return Err(err(
                                    self.line(),
                                    format!("expected integer after `*`, found {other:?}"),
                                ))
                            }
                        }
                    } else {
                        LinExpr::var(&name)
                    }
                }
                other => {
                    return Err(err(
                        self.line(),
                        format!("expected affine term, found {other:?}"),
                    ))
                }
            };
            acc = acc + term * sign;
            sign = 1;
            first = false;
            // Continue only on +/- lookahead.
            match self.peek() {
                Some(Tok::Sym('+')) | Some(Tok::Sym('-')) => continue,
                _ => break,
            }
        }
        Ok(acc)
    }

    /// Full arithmetic expression with precedence (`* /` over `+ -`).
    fn expr(
        &mut self,
        iters: &[String],
        reads: &mut Vec<(String, Vec<LinExpr>)>,
        b: &ProgramBuilder,
    ) -> Result<Expr> {
        let mut lhs = self.term(iters, reads, b)?;
        loop {
            match self.peek() {
                Some(Tok::Sym('+')) => {
                    self.next();
                    let rhs = self.term(iters, reads, b)?;
                    lhs = Expr::add(lhs, rhs);
                }
                Some(Tok::Sym('-')) => {
                    self.next();
                    let rhs = self.term(iters, reads, b)?;
                    lhs = Expr::sub(lhs, rhs);
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn term(
        &mut self,
        iters: &[String],
        reads: &mut Vec<(String, Vec<LinExpr>)>,
        b: &ProgramBuilder,
    ) -> Result<Expr> {
        let mut lhs = self.factor(iters, reads, b)?;
        loop {
            match self.peek() {
                Some(Tok::Sym('*')) => {
                    self.next();
                    let rhs = self.factor(iters, reads, b)?;
                    lhs = Expr::mul(lhs, rhs);
                }
                Some(Tok::Sym('/')) => {
                    self.next();
                    let rhs = self.factor(iters, reads, b)?;
                    lhs = Expr::div(lhs, rhs);
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn factor(
        &mut self,
        iters: &[String],
        reads: &mut Vec<(String, Vec<LinExpr>)>,
        b: &ProgramBuilder,
    ) -> Result<Expr> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(Expr::Const(v)),
            Some(Tok::Sym('-')) => {
                let inner = self.factor(iters, reads, b)?;
                Ok(Expr::sub(Expr::Const(0), inner))
            }
            Some(Tok::Sym('(')) => {
                let inner = self.expr(iters, reads, b)?;
                self.expect_sym(')')?;
                Ok(inner)
            }
            Some(Tok::Ident(name)) => match name.as_str() {
                "abs" => {
                    self.expect_sym('(')?;
                    let inner = self.expr(iters, reads, b)?;
                    self.expect_sym(')')?;
                    Ok(Expr::abs(inner))
                }
                "min" | "max" => {
                    self.expect_sym('(')?;
                    let a = self.expr(iters, reads, b)?;
                    self.expect_sym(',')?;
                    let c = self.expr(iters, reads, b)?;
                    self.expect_sym(')')?;
                    Ok(if name == "min" {
                        Expr::min(a, c)
                    } else {
                        Expr::max(a, c)
                    })
                }
                _ => {
                    if self.peek() == Some(&Tok::Sym('[')) {
                        // Array read.
                        let mut subs = Vec::new();
                        while self.peek() == Some(&Tok::Sym('[')) {
                            self.next();
                            subs.push(self.affine()?);
                            self.expect_sym(']')?;
                        }
                        let k = reads.len();
                        reads.push((name, subs));
                        Ok(Expr::Read(k))
                    } else if let Some(k) = iters.iter().position(|x| *x == name) {
                        Ok(Expr::Iter(k))
                    } else if let Some(k) = b.param_index(&name) {
                        Ok(Expr::Param(k))
                    } else {
                        Err(err(
                            self.line(),
                            format!("unknown name `{name}` in expression"),
                        ))
                    }
                }
            },
            other => Err(err(
                self.line(),
                format!("expected expression, found {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{exec_program, ArrayStore};

    const ME_SRC: &str = r#"
# MPEG-4 motion estimation (paper Fig. 2)
program me(Ni, Nj, W)
array Cur[Ni + W][Nj + W]
array Ref[Ni + W][Nj + W]
array Sad[Ni][Nj]

S1: for i = 0 .. Ni - 1, j = 0 .. Nj - 1, k = 0 .. W - 1, l = 0 .. W - 1 {
  Sad[i][j] = Sad[i][j] + abs(Cur[i + k][j + l] - Ref[i + k][j + l])
}
"#;

    #[test]
    fn parses_the_me_kernel() {
        let p = parse_program(ME_SRC).unwrap();
        assert_eq!(p.name, "me");
        assert_eq!(p.params, vec!["Ni", "Nj", "W"]);
        assert_eq!(p.arrays.len(), 3);
        assert_eq!(p.stmts.len(), 1);
        let s = &p.stmts[0];
        assert_eq!(s.depth(), 4);
        assert_eq!(s.reads.len(), 3);
        // (i, j) = (1, 2), (k, l) = (0, 1): Cur read at (1, 3).
        assert_eq!(
            s.reads[1].map.apply(&[1, 2, 0, 1], &[4, 4, 2]).unwrap(),
            vec![1, 3]
        );
    }

    #[test]
    fn parsed_program_matches_builder_twin() {
        // The parsed ME must execute identically to the hand-built one.
        let parsed = parse_program(ME_SRC).unwrap();
        let params = [5i64, 4, 3];
        let mut st1 = ArrayStore::for_program(&parsed, &params).unwrap();
        st1.fill_with("Cur", |ix| ix[0] * 3 + ix[1]).unwrap();
        st1.fill_with("Ref", |ix| ix[0] + ix[1] * 2).unwrap();
        exec_program(&parsed, &params, &mut st1).unwrap();
        // Hand-computed check of one element.
        let mut expect = 0i64;
        for k in 0..3i64 {
            for l in 0..3i64 {
                let cur = (1 + k) * 3 + (2 + l);
                let rf = (1 + k) + (2 + l) * 2;
                expect += (cur - rf).abs();
            }
        }
        assert_eq!(st1.get("Sad", &[1, 2]).unwrap(), expect);
    }

    #[test]
    fn affine_expressions_support_coefficients() {
        let src = r#"
program p(N)
array A[3*N + 2]
array B[N]
S: for i = 0 .. N - 1 {
  B[i] = A[2*i + 1]
}
"#;
        let p = parse_program(src).unwrap();
        let s = &p.stmts[0];
        assert_eq!(s.reads[0].map.apply(&[4], &[10]).unwrap(), vec![9]);
        assert_eq!(p.arrays[0].eval_extents(&p.params, &[5]).unwrap(), vec![17]);
    }

    #[test]
    fn expression_precedence_and_builtins() {
        let src = r#"
program p(N)
array A[N]
array B[N]
S: for i = 0 .. N - 1 {
  B[i] = min(A[i] * 2 + 1, max(A[i], 3)) - (A[i] / 2)
}
"#;
        let p = parse_program(src).unwrap();
        let mut st = ArrayStore::for_program(&p, &[3]).unwrap();
        st.fill_with("A", |ix| ix[0] + 4).unwrap(); // A = [4,5,6]
        exec_program(&p, &[3], &mut st).unwrap();
        // i=0: min(9, 4)=4 - 2 = 2; i=1: min(11,5)=5-2=3; i=2: min(13,6)=6-3=3.
        assert_eq!(st.data("B").unwrap(), &[2, 3, 3]);
    }

    #[test]
    fn iterators_and_params_in_bodies() {
        let src = r#"
program p(N)
array A[N][4]
S: for i = 0 .. N - 1 {
  A[i][0] = i * N + 7
}
"#;
        let p = parse_program(src).unwrap();
        let mut st = ArrayStore::for_program(&p, &[3]).unwrap();
        exec_program(&p, &[3], &mut st).unwrap();
        assert_eq!(st.get("A", &[2, 0]).unwrap(), 13);
    }

    #[test]
    fn multiple_statements_share_loops_by_name() {
        let src = r#"
program two(N)
array A[N]
array B[N][N]
S1: for i = 0 .. N - 1 {
  A[i] = i + 100
}
S2: for i = 0 .. N - 1, k = 0 .. N - 1 {
  B[i][k] = A[i]
}
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.stmts.len(), 2);
        assert_eq!(p.common_depth(0, 1), 1);
        let mut st = ArrayStore::for_program(&p, &[3]).unwrap();
        exec_program(&p, &[3], &mut st).unwrap();
        assert_eq!(st.get("B", &[2, 1]).unwrap(), 102);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let src = "program p(N)\narray A[N]\nS: for i = 0 .. N - 1 {\n  A[i] = $\n}\n";
        let e = parse_program(src).unwrap_err();
        assert!(e.to_string().contains("line 4"), "{e}");
        let e = parse_program("nonsense").unwrap_err();
        assert!(e.to_string().contains("parse error"), "{e}");
        let e = parse_program("program p(N)\narray A\n").unwrap_err();
        assert!(e.to_string().contains("extent"), "{e}");
    }

    #[test]
    fn malformed_and_duplicate_declarations_are_typed_errors() {
        let stmt = |name: &str, loops: &str| format!("{name}: for {loops} {{\n  A[i] = 1\n}}\n");
        let one = "i = 0 .. N - 1";
        let cases = [
            (
                format!(
                    "program p(N)\narray A[N]\n{}",
                    stmt("S", "i = 0 .. 99999999999999999999")
                ),
                IrError::Parse {
                    line: 3,
                    msg: "integer literal overflow".into(),
                },
            ),
            (
                format!("program p(N, N)\narray A[N]\n{}", stmt("S", one)),
                IrError::Duplicate {
                    kind: "parameter",
                    name: "N".into(),
                },
            ),
            (
                format!("program p(N)\narray A[N]\narray A[N]\n{}", stmt("S", one)),
                IrError::Duplicate {
                    kind: "array",
                    name: "A".into(),
                },
            ),
            (
                format!(
                    "program p(N)\narray A[N]\n{}{}",
                    stmt("S1", one),
                    stmt("S1", one)
                ),
                IrError::Duplicate {
                    kind: "statement",
                    name: "S1".into(),
                },
            ),
            (
                format!(
                    "program p(N)\narray A[N]\n{}",
                    stmt("S", "i = 0 .. N - 1, i = 0 .. N - 1")
                ),
                IrError::Duplicate {
                    kind: "iterator",
                    name: "i".into(),
                },
            ),
        ];
        for (src, want) in cases {
            assert_eq!(parse_program(&src).unwrap_err(), want, "{src}");
        }
    }
}
