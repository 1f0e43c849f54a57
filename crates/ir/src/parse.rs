//! Textual kernel DSL: parse `.iolb` sources into [`Program`]s and print
//! [`Program`]s back out.
//!
//! The surface is exactly what [`ProgramBuilder`] exposes — parameters,
//! array/scalar declarations, possibly strided or reversed affine loop
//! nests with `max`/`min`-combined bounds, and named statements with
//! affine read/write accesses:
//!
//! ```text
//! kernel mgs(M, N) {
//!   array A[M][N];
//!   array R[N][N];
//!   scalar nrm;
//!   analyze SU;
//!   default M = 64, N = 32;
//!
//!   for k in 0..N {
//!     nrm0: nrm = op();
//!     for i in 0..M {
//!       nrm1: nrm = op(A[i][k], nrm);
//!     }
//!   }
//! }
//! ```
//!
//! Statement semantics are uninterpreted (`op(...)` names no particular
//! function): a statement *is* its declared reads and writes, which is all
//! the CDAG / dependence analyses consume.
//! [`crate::interp::check_accesses`] certifies that every subscript stays
//! inside its array.
//!
//! Every parse error carries a line/column [`Span`]; [`print_program`] and
//! [`parse_program`] round-trip (structural equality checked by
//! [`structural_diff`]).

use crate::affine::{Aff, DimId};
use crate::program::{Access, ArrayId, LoopStep, Program, ProgramBuilder, Step};
use iolb_numeric::Rational;
use std::fmt;

/// A source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// A parse failure with its source position.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// Where the failure was detected.
    pub span: Span,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at line {}, col {}: {}",
            self.span.line, self.span.col, self.msg
        )
    }
}

impl std::error::Error for ParseError {}

/// A rational-affine expression in the program parameters, used by the
/// `split` directive (`split Ms = N/2 - 1;`). Evaluation floors to an
/// integer, matching the paper's `Ms = ⌊N/2⌋ − 1` convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamExpr {
    /// `(parameter name, coefficient)` terms.
    pub terms: Vec<(String, Rational)>,
    /// Constant term.
    pub cst: Rational,
}

impl ParamExpr {
    /// Evaluates at named parameter values, flooring the exact rational.
    ///
    /// # Panics
    /// Panics when a referenced parameter is missing from `env`.
    pub fn eval_floor(&self, env: &[(String, i64)]) -> i128 {
        let mut acc = self.cst;
        for (name, c) in &self.terms {
            let v = env
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("split expression references unbound parameter {name}"))
                .1;
            acc += *c * Rational::int(v as i128);
        }
        acc.floor()
    }
}

impl fmt::Display for ParamExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, c) in &self.terms {
            render_rat_term(f, *c, Some(name), &mut first)?;
        }
        if !self.cst.is_zero() || first {
            render_rat_term(f, self.cst, None, &mut first)?;
        }
        Ok(())
    }
}

fn render_rat_term(
    f: &mut fmt::Formatter<'_>,
    c: Rational,
    name: Option<&str>,
    first: &mut bool,
) -> fmt::Result {
    let neg = c.is_negative();
    let mag = c.abs();
    if *first {
        if neg {
            write!(f, "-")?;
        }
    } else if neg {
        write!(f, " - ")?;
    } else {
        write!(f, " + ")?;
    }
    *first = false;
    match name {
        None => write!(f, "{mag}"),
        Some(n) => {
            if mag.is_one() {
                write!(f, "{n}")
            } else if mag.is_integer() {
                write!(f, "{}*{n}", mag.num())
            } else if mag.num() == 1 {
                write!(f, "{n}/{}", mag.den())
            } else {
                write!(f, "{}*{n}/{}", mag.num(), mag.den())
            }
        }
    }
}

/// One `tile <loop> [<size>];` entry of a `schedule { … }` block. A
/// directive without an explicit size asks the tightness auto-tuner to
/// sweep tile sizes for that loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileDirective {
    /// Loop-variable name (every loop with this name is tiled).
    pub loop_name: String,
    /// Explicit tile size; `None` leaves the size to the auto-tuner.
    pub size: Option<i64>,
}

/// A parsed `.iolb` file: the program plus its analysis directives.
#[derive(Debug)]
pub struct KernelFile {
    /// The parsed program.
    pub program: Program,
    /// `analyze <stmt>;` — the statement whose bounds the pipeline derives.
    pub analyze: Option<String>,
    /// `default <param> = <int>, …;` — concrete parameter values for
    /// end-to-end validation.
    pub defaults: Vec<(String, i64)>,
    /// `split <var> = <expr>;` — §5.3 loop-split variable binding.
    pub split: Option<(String, ParamExpr)>,
    /// `schedule { tile <loop> [<size>]; … }` — blocked-execution tiling
    /// directives for the upper-bound/tightness harness.
    pub schedule: Vec<TileDirective>,
}

impl KernelFile {
    /// Default concrete parameters in program-parameter order.
    ///
    /// # Errors
    /// Reports parameters with no `default` directive.
    pub fn default_params(&self) -> Result<Vec<i64>, String> {
        self.program
            .params
            .iter()
            .map(|p| {
                self.defaults
                    .iter()
                    .find(|(n, _)| n == p)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("parameter {p} has no `default` directive"))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Colon,
    Eq,
    DotDot,
    Plus,
    Minus,
    Star,
    Slash,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(n) => write!(f, "`{n}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::DotDot => write!(f, "`..`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Slash => write!(f, "`/`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(Tok, Span)>, ParseError> {
    let mut out = Vec::new();
    let mut line = 1u32;
    let mut col = 1u32;
    let mut it = src.chars().peekable();
    while let Some(&c) = it.peek() {
        let span = Span { line, col };
        let mut bump = |it: &mut std::iter::Peekable<std::str::Chars<'_>>| {
            // Only called after a successful peek; '\0' is unreachable and
            // would lex as an error token rather than panicking.
            let c = it.next().unwrap_or('\0');
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            c
        };
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                bump(&mut it);
            }
            '#' => {
                while let Some(&c) = it.peek() {
                    if c == '\n' {
                        break;
                    }
                    bump(&mut it);
                }
            }
            '0'..='9' => {
                let mut n: i64 = 0;
                while let Some(&d) = it.peek() {
                    if let Some(v) = d.to_digit(10) {
                        n = n
                            .checked_mul(10)
                            .and_then(|n| n.checked_add(v as i64))
                            .ok_or_else(|| ParseError {
                                span,
                                msg: "integer literal overflows i64".to_string(),
                            })?;
                        bump(&mut it);
                    } else {
                        break;
                    }
                }
                out.push((Tok::Int(n), span));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = it.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        s.push(bump(&mut it));
                    } else {
                        break;
                    }
                }
                out.push((Tok::Ident(s), span));
            }
            '.' => {
                bump(&mut it);
                if it.peek() == Some(&'.') {
                    bump(&mut it);
                    out.push((Tok::DotDot, span));
                } else {
                    return Err(ParseError {
                        span,
                        msg: "expected `..`".to_string(),
                    });
                }
            }
            _ => {
                let t = match c {
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    '{' => Tok::LBrace,
                    '}' => Tok::RBrace,
                    '[' => Tok::LBracket,
                    ']' => Tok::RBracket,
                    ',' => Tok::Comma,
                    ';' => Tok::Semi,
                    ':' => Tok::Colon,
                    '=' => Tok::Eq,
                    '+' => Tok::Plus,
                    '-' => Tok::Minus,
                    '*' => Tok::Star,
                    '/' => Tok::Slash,
                    other => {
                        return Err(ParseError {
                            span,
                            msg: format!("unexpected character `{other}`"),
                        })
                    }
                };
                bump(&mut it);
                out.push((t, span));
            }
        }
    }
    out.push((Tok::Eof, Span { line, col }));
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser {
    toks: Vec<(Tok, Span)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn span(&self) -> Span {
        self.toks[self.pos].1
    }

    fn next(&mut self) -> (Tok, Span) {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            span: self.span(),
            msg: msg.into(),
        })
    }

    fn expect(&mut self, want: &Tok) -> Result<Span, ParseError> {
        if self.peek() == want {
            Ok(self.next().1)
        } else {
            self.err(format!("expected {want}, found {}", self.peek()))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                let sp = self.next().1;
                Ok((s, sp))
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    /// Consumes `word` when the next token is that keyword-identifier.
    fn eat_kw(&mut self, word: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == word) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, word: &str) -> Result<(), ParseError> {
        if self.eat_kw(word) {
            Ok(())
        } else {
            self.err(format!("expected keyword `{word}`, found {}", self.peek()))
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        let neg = self.peek() == &Tok::Minus;
        if neg {
            self.next();
        }
        match *self.peek() {
            Tok::Int(n) => {
                self.next();
                Ok(if neg { -n } else { n })
            }
            _ => self.err(format!("expected integer, found {}", self.peek())),
        }
    }
}

/// The builder-side state threaded through parsing.
struct Ctx {
    b: ProgramBuilder,
    arrays: Vec<(String, ArrayId, usize)>,
    /// Open-loop scope stack: `(name, dim)`, innermost last.
    scope: Vec<(String, DimId)>,
    stmt_names: Vec<String>,
    /// Every loop seen: `(name, tileable)` — tileable means unit-step
    /// forward (what `schedule { tile … }` may name).
    loop_meta: Vec<(String, bool)>,
}

impl Ctx {
    fn lookup_array(&self, name: &str) -> Option<(ArrayId, usize)> {
        self.arrays
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, id, rank)| (*id, *rank))
    }

    /// Resolves an identifier inside an affine expression: innermost loop
    /// var first, then parameter.
    fn resolve_var(&self, name: &str) -> Option<Aff> {
        if let Some((_, d)) = self.scope.iter().rev().find(|(n, _)| n == name) {
            return Some(Aff::dim(*d));
        }
        self.b.try_pid(name).map(Aff::param)
    }
}

/// Parses one `kernel … { … }` definition with its directives.
///
/// # Errors
/// Returns the first [`ParseError`] with line/column position.
pub fn parse_kernel(src: &str) -> Result<KernelFile, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    p.expect_kw("kernel")?;
    let (name, _) = p.expect_ident()?;
    p.expect(&Tok::LParen)?;
    let mut params: Vec<String> = Vec::new();
    if p.peek() != &Tok::RParen {
        loop {
            let (pn, sp) = p.expect_ident()?;
            if params.contains(&pn) {
                return Err(ParseError {
                    span: sp,
                    msg: format!("duplicate parameter {pn}"),
                });
            }
            params.push(pn);
            if p.peek() == &Tok::Comma {
                p.next();
            } else {
                break;
            }
        }
    }
    p.expect(&Tok::RParen)?;
    p.expect(&Tok::LBrace)?;

    let param_refs: Vec<&str> = params.iter().map(|s| s.as_str()).collect();
    let mut ctx = Ctx {
        b: ProgramBuilder::new(&name, &param_refs),
        arrays: Vec::new(),
        scope: Vec::new(),
        stmt_names: Vec::new(),
        loop_meta: Vec::new(),
    };
    let mut analyze: Option<(String, Span)> = None;
    let mut defaults: Vec<(String, i64)> = Vec::new();
    let mut split: Option<(String, ParamExpr)> = None;
    let mut schedule: Vec<(TileDirective, Span)> = Vec::new();
    let mut saw_schedule = false;

    loop {
        match p.peek().clone() {
            Tok::RBrace => {
                p.next();
                break;
            }
            Tok::Ident(w) if w == "array" || w == "scalar" => {
                p.next();
                parse_array_decl(&mut p, &mut ctx, w == "scalar")?;
            }
            Tok::Ident(w) if w == "analyze" => {
                p.next();
                let (s, sp) = p.expect_ident()?;
                if analyze.replace((s, sp)).is_some() {
                    return Err(ParseError {
                        span: sp,
                        msg: "duplicate `analyze` directive".to_string(),
                    });
                }
                p.expect(&Tok::Semi)?;
            }
            Tok::Ident(w) if w == "default" => {
                p.next();
                loop {
                    let (pn, sp) = p.expect_ident()?;
                    if !params.contains(&pn) {
                        return Err(ParseError {
                            span: sp,
                            msg: format!("`default` names unknown parameter {pn}"),
                        });
                    }
                    if defaults.iter().any(|(n, _)| *n == pn) {
                        return Err(ParseError {
                            span: sp,
                            msg: format!("duplicate `default` for parameter {pn}"),
                        });
                    }
                    p.expect(&Tok::Eq)?;
                    let v = p.expect_int()?;
                    defaults.push((pn, v));
                    if p.peek() == &Tok::Comma {
                        p.next();
                    } else {
                        break;
                    }
                }
                p.expect(&Tok::Semi)?;
            }
            Tok::Ident(w) if w == "schedule" => {
                let sp = p.span();
                p.next();
                if saw_schedule {
                    return Err(ParseError {
                        span: sp,
                        msg: "duplicate `schedule` block".to_string(),
                    });
                }
                saw_schedule = true;
                p.expect(&Tok::LBrace)?;
                while p.peek() != &Tok::RBrace {
                    p.expect_kw("tile")?;
                    let (ln, lsp) = p.expect_ident()?;
                    if schedule.iter().any(|(d, _)| d.loop_name == ln) {
                        return Err(ParseError {
                            span: lsp,
                            msg: format!("duplicate `tile` directive for loop {ln}"),
                        });
                    }
                    let size = match *p.peek() {
                        Tok::Int(n) => {
                            p.next();
                            if n < 1 {
                                return Err(ParseError {
                                    span: lsp,
                                    msg: format!("tile size for {ln} must be ≥ 1"),
                                });
                            }
                            Some(n)
                        }
                        _ => None,
                    };
                    p.expect(&Tok::Semi)?;
                    schedule.push((
                        TileDirective {
                            loop_name: ln,
                            size,
                        },
                        lsp,
                    ));
                }
                p.expect(&Tok::RBrace)?;
            }
            Tok::Ident(w) if w == "split" => {
                p.next();
                let (vn, sp) = p.expect_ident()?;
                p.expect(&Tok::Eq)?;
                let e = parse_param_expr(&mut p, &params)?;
                if split.replace((vn, e)).is_some() {
                    return Err(ParseError {
                        span: sp,
                        msg: "duplicate `split` directive".to_string(),
                    });
                }
                p.expect(&Tok::Semi)?;
            }
            _ => parse_step(&mut p, &mut ctx)?,
        }
    }
    p.expect(&Tok::Eof)?;

    if let Some((a, sp)) = &analyze {
        if !ctx.stmt_names.iter().any(|s| s == a) {
            return Err(ParseError {
                span: *sp,
                msg: format!("`analyze {a}` names no statement of the kernel"),
            });
        }
    }
    for (d, sp) in &schedule {
        let named: Vec<&(String, bool)> = ctx
            .loop_meta
            .iter()
            .filter(|(n, _)| *n == d.loop_name)
            .collect();
        if named.is_empty() {
            return Err(ParseError {
                span: *sp,
                msg: format!("`tile {}` names no loop of the kernel", d.loop_name),
            });
        }
        if named.iter().any(|(_, tileable)| !tileable) {
            return Err(ParseError {
                span: *sp,
                msg: format!(
                    "`tile {}` targets a strided or reversed loop (only unit-step forward loops tile)",
                    d.loop_name
                ),
            });
        }
    }
    Ok(KernelFile {
        program: ctx.b.finish(),
        analyze: analyze.map(|(a, _)| a),
        defaults,
        split,
        schedule: schedule.into_iter().map(|(d, _)| d).collect(),
    })
}

/// Parses the kernel and returns just the [`Program`].
///
/// # Errors
/// See [`parse_kernel`].
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    parse_kernel(src).map(|k| k.program)
}

fn parse_array_decl(p: &mut Parser, ctx: &mut Ctx, scalar: bool) -> Result<(), ParseError> {
    let (name, sp) = p.expect_ident()?;
    if ctx.lookup_array(&name).is_some() {
        return Err(ParseError {
            span: sp,
            msg: format!("duplicate array {name}"),
        });
    }
    let mut extents: Vec<Aff> = Vec::new();
    if !scalar {
        while p.peek() == &Tok::LBracket {
            p.next();
            let e = parse_aff(p, ctx)?;
            if !e.is_dim_free() {
                return p.err("array extents may use parameters only");
            }
            extents.push(e);
            p.expect(&Tok::RBracket)?;
        }
        if extents.is_empty() {
            return p.err("array declaration needs at least one `[extent]` (or use `scalar`)");
        }
    }
    p.expect(&Tok::Semi)?;
    let id = ctx.b.array(&name, &extents);
    ctx.arrays.push((name, id, extents.len()));
    Ok(())
}

/// One schedule step: a loop or a statement.
fn parse_step(p: &mut Parser, ctx: &mut Ctx) -> Result<(), ParseError> {
    if matches!(p.peek(), Tok::Ident(w) if w == "for") {
        p.next();
        parse_loop(p, ctx)
    } else if matches!(p.peek(), Tok::Ident(_)) {
        parse_stmt(p, ctx)
    } else {
        p.err(format!(
            "expected `for`, a statement, or `}}`, found {}",
            p.peek()
        ))
    }
}

fn parse_loop(p: &mut Parser, ctx: &mut Ctx) -> Result<(), ParseError> {
    let (var, _) = p.expect_ident()?;
    p.expect_kw("in")?;
    let reverse = p.eat_kw("reverse");
    let lo = parse_bound(p, ctx, "max")?;
    p.expect(&Tok::DotDot)?;
    let hi = parse_bound(p, ctx, "min")?;
    let step = if p.eat_kw("step") {
        match p.peek().clone() {
            Tok::Int(n) => {
                p.next();
                if n <= 0 {
                    return p.err("loop step must be positive");
                }
                if n == 1 {
                    LoopStep::One
                } else {
                    LoopStep::Const(n)
                }
            }
            Tok::Ident(s) => {
                let sp = p.span();
                p.next();
                match ctx.b.try_pid(&s) {
                    Some(pid) => LoopStep::Param(pid),
                    None => {
                        return Err(ParseError {
                            span: sp,
                            msg: format!("step {s} is not a program parameter"),
                        })
                    }
                }
            }
            _ => return p.err("expected step amount (integer or parameter)"),
        }
    } else {
        LoopStep::One
    };
    p.expect(&Tok::LBrace)?;
    ctx.loop_meta
        .push((var.clone(), step == LoopStep::One && !reverse));
    let dim = ctx.b.open_general(&var, lo, hi, step, reverse);
    ctx.scope.push((var, dim));
    while p.peek() != &Tok::RBrace {
        parse_step(p, ctx)?;
    }
    p.expect(&Tok::RBrace)?;
    ctx.scope.pop();
    ctx.b.close();
    Ok(())
}

/// A loop bound: a single affine expression, or `max(e, …)` / `min(e, …)`.
fn parse_bound(p: &mut Parser, ctx: &Ctx, combiner: &str) -> Result<Vec<Aff>, ParseError> {
    if matches!(p.peek(), Tok::Ident(w) if w == combiner) {
        p.next();
        p.expect(&Tok::LParen)?;
        let mut out = vec![parse_aff(p, ctx)?];
        while p.peek() == &Tok::Comma {
            p.next();
            out.push(parse_aff(p, ctx)?);
        }
        p.expect(&Tok::RParen)?;
        Ok(out)
    } else {
        Ok(vec![parse_aff(p, ctx)?])
    }
}

fn parse_stmt(p: &mut Parser, ctx: &mut Ctx) -> Result<(), ParseError> {
    let (name, sp) = p.expect_ident()?;
    if ctx.stmt_names.iter().any(|s| s == &name) {
        return Err(ParseError {
            span: sp,
            msg: format!("duplicate statement name {name}"),
        });
    }
    p.expect(&Tok::Colon)?;
    let mut writes = vec![parse_access(p, ctx)?];
    while p.peek() == &Tok::Comma {
        p.next();
        writes.push(parse_access(p, ctx)?);
    }
    p.expect(&Tok::Eq)?;
    p.expect_kw("op")?;
    p.expect(&Tok::LParen)?;
    let mut reads: Vec<Access> = Vec::new();
    if p.peek() != &Tok::RParen {
        reads.push(parse_access(p, ctx)?);
        while p.peek() == &Tok::Comma {
            p.next();
            reads.push(parse_access(p, ctx)?);
        }
    }
    p.expect(&Tok::RParen)?;
    p.expect(&Tok::Semi)?;

    ctx.b.stmt(&name, reads, writes);
    ctx.stmt_names.push(name);
    Ok(())
}

fn parse_access(p: &mut Parser, ctx: &Ctx) -> Result<Access, ParseError> {
    let (name, sp) = p.expect_ident()?;
    let Some((id, rank)) = ctx.lookup_array(&name) else {
        return Err(ParseError {
            span: sp,
            msg: format!("unknown array {name}"),
        });
    };
    let mut idx: Vec<Aff> = Vec::new();
    while p.peek() == &Tok::LBracket {
        p.next();
        idx.push(parse_aff(p, ctx)?);
        p.expect(&Tok::RBracket)?;
    }
    if idx.len() != rank {
        return Err(ParseError {
            span: sp,
            msg: format!(
                "array {name} has rank {rank} but the access has {} subscript(s)",
                idx.len()
            ),
        });
    }
    Ok(Access::new(id, idx))
}

/// `expr := ['-'] term (('+'|'-') term)*` over in-scope loop vars and
/// parameters, with integer coefficients (`2*k`, `k*2`, `N - 1`, …).
fn parse_aff(p: &mut Parser, ctx: &Ctx) -> Result<Aff, ParseError> {
    let mut acc = Aff::zero();
    let mut negate = false;
    if p.peek() == &Tok::Minus {
        p.next();
        negate = true;
    }
    loop {
        let term = parse_aff_term(p, ctx)?;
        acc = if negate { acc - term } else { acc + term };
        match p.peek() {
            Tok::Plus => {
                p.next();
                negate = false;
            }
            Tok::Minus => {
                p.next();
                negate = true;
            }
            _ => return Ok(acc),
        }
    }
}

fn parse_aff_term(p: &mut Parser, ctx: &Ctx) -> Result<Aff, ParseError> {
    match p.peek().clone() {
        Tok::Int(n) => {
            p.next();
            if p.peek() == &Tok::Star {
                p.next();
                let v = parse_aff_var(p, ctx)?;
                Ok(v * n)
            } else {
                Ok(Aff::constant(n))
            }
        }
        Tok::Ident(_) => {
            let v = parse_aff_var(p, ctx)?;
            if p.peek() == &Tok::Star {
                p.next();
                match *p.peek() {
                    Tok::Int(n) => {
                        p.next();
                        Ok(v * n)
                    }
                    _ => p.err("expected integer coefficient after `*`"),
                }
            } else {
                Ok(v)
            }
        }
        _ => p.err(format!(
            "expected affine term (integer or variable), found {}",
            p.peek()
        )),
    }
}

fn parse_aff_var(p: &mut Parser, ctx: &Ctx) -> Result<Aff, ParseError> {
    let (name, sp) = p.expect_ident()?;
    ctx.resolve_var(&name).ok_or_else(|| ParseError {
        span: sp,
        msg: format!("unknown variable {name} (not a loop variable in scope or a parameter)"),
    })
}

/// `split`-directive expression: rational-affine in the parameters
/// (`N/2 - 1`, `3*N/4 + 2`).
fn parse_param_expr(p: &mut Parser, params: &[String]) -> Result<ParamExpr, ParseError> {
    let mut out = ParamExpr {
        terms: Vec::new(),
        cst: Rational::ZERO,
    };
    let mut negate = false;
    if p.peek() == &Tok::Minus {
        p.next();
        negate = true;
    }
    loop {
        let (name, coeff) = parse_param_term(p, params)?;
        let coeff = if negate { -coeff } else { coeff };
        match name {
            None => out.cst += coeff,
            Some(n) => match out.terms.iter_mut().find(|(t, _)| *t == n) {
                Some((_, c)) => *c += coeff,
                None => out.terms.push((n, coeff)),
            },
        }
        match p.peek() {
            Tok::Plus => {
                p.next();
                negate = false;
            }
            Tok::Minus => {
                p.next();
                negate = true;
            }
            _ => break,
        }
    }
    out.terms.retain(|(_, c)| !c.is_zero());
    Ok(out)
}

fn parse_param_term(
    p: &mut Parser,
    params: &[String],
) -> Result<(Option<String>, Rational), ParseError> {
    let mut coeff = Rational::ONE;
    let mut name: Option<String> = None;
    match p.peek().clone() {
        Tok::Int(n) => {
            p.next();
            coeff = Rational::int(n as i128);
            if p.peek() == &Tok::Star {
                p.next();
                let (pn, sp) = p.expect_ident()?;
                if !params.contains(&pn) {
                    return Err(ParseError {
                        span: sp,
                        msg: format!("unknown parameter {pn} in split expression"),
                    });
                }
                name = Some(pn);
            }
        }
        Tok::Ident(_) => {
            let (pn, sp) = p.expect_ident()?;
            if !params.contains(&pn) {
                return Err(ParseError {
                    span: sp,
                    msg: format!("unknown parameter {pn} in split expression"),
                });
            }
            name = Some(pn);
        }
        _ => return p.err("expected split-expression term"),
    }
    if p.peek() == &Tok::Slash {
        p.next();
        match *p.peek() {
            Tok::Int(n) if n != 0 => {
                p.next();
                coeff /= Rational::int(n as i128);
            }
            _ => return p.err("expected non-zero integer divisor"),
        }
    }
    Ok((name, coeff))
}

// ---------------------------------------------------------------------------
// Pretty-printer
// ---------------------------------------------------------------------------

/// Renders a [`Program`] as parseable DSL text (no directives).
pub fn print_program(program: &Program) -> String {
    print_kernel_with(program, None, &[], None, &[])
}

/// Renders a full [`KernelFile`] (program + directives) as DSL text.
pub fn print_kernel(kernel: &KernelFile) -> String {
    print_kernel_with(
        &kernel.program,
        kernel.analyze.as_deref(),
        &kernel.defaults,
        kernel.split.as_ref(),
        &kernel.schedule,
    )
}

fn print_kernel_with(
    program: &Program,
    analyze: Option<&str>,
    defaults: &[(String, i64)],
    split: Option<&(String, ParamExpr)>,
    schedule: &[TileDirective],
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "kernel {}({}) {{\n",
        program.name,
        program.params.join(", ")
    ));
    for a in &program.arrays {
        if a.extents.is_empty() {
            out.push_str(&format!("  scalar {};\n", a.name));
        } else {
            let ext: Vec<String> = a
                .extents
                .iter()
                .map(|e| format!("[{}]", render_aff(program, e)))
                .collect();
            out.push_str(&format!("  array {}{};\n", a.name, ext.concat()));
        }
    }
    if let Some(s) = analyze {
        out.push_str(&format!("  analyze {s};\n"));
    }
    if !defaults.is_empty() {
        let ds: Vec<String> = defaults.iter().map(|(n, v)| format!("{n} = {v}")).collect();
        out.push_str(&format!("  default {};\n", ds.join(", ")));
    }
    if let Some((v, e)) = split {
        out.push_str(&format!("  split {v} = {e};\n"));
    }
    if !schedule.is_empty() {
        out.push_str("  schedule {\n");
        for d in schedule {
            match d.size {
                Some(s) => out.push_str(&format!("    tile {} {s};\n", d.loop_name)),
                None => out.push_str(&format!("    tile {};\n", d.loop_name)),
            }
        }
        out.push_str("  }\n");
    }
    out.push('\n');
    for step in &program.body {
        print_step(program, step, 1, &mut out);
    }
    out.push_str("}\n");
    out
}

fn print_step(program: &Program, step: &Step, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match step {
        Step::Stmt(id) => {
            let s = program.stmt(*id);
            let ws: Vec<String> = s.writes.iter().map(|a| render_access(program, a)).collect();
            let rs: Vec<String> = s.reads.iter().map(|a| render_access(program, a)).collect();
            out.push_str(&format!(
                "{pad}{}: {} = op({});\n",
                s.name,
                ws.join(", "),
                rs.join(", ")
            ));
        }
        Step::Loop(l) => {
            let lo = render_bound(program, &l.lo, "max");
            let hi = render_bound(program, &l.hi, "min");
            let rev = if l.reverse { "reverse " } else { "" };
            let step_s = match l.step {
                LoopStep::One => String::new(),
                LoopStep::Const(c) => format!(" step {c}"),
                LoopStep::Param(p) => format!(" step {}", program.params[p.0 as usize]),
            };
            out.push_str(&format!(
                "{pad}for {} in {rev}{lo}..{hi}{step_s} {{\n",
                l.name
            ));
            for s in &l.body {
                print_step(program, s, depth + 1, out);
            }
            out.push_str(&format!("{pad}}}\n"));
        }
    }
}

fn render_bound(program: &Program, bounds: &[Aff], combiner: &str) -> String {
    if bounds.len() == 1 {
        render_aff(program, &bounds[0])
    } else {
        let parts: Vec<String> = bounds.iter().map(|b| render_aff(program, b)).collect();
        format!("{combiner}({})", parts.join(", "))
    }
}

fn render_aff(program: &Program, a: &Aff) -> String {
    a.display_with(&|d| program.loop_info(d).name.clone(), &|p| {
        program.params[p.0 as usize].clone()
    })
}

pub(crate) fn render_access(program: &Program, a: &Access) -> String {
    let name = &program.arrays[a.array.0 as usize].name;
    let idx: Vec<String> = a
        .idx
        .iter()
        .map(|e| format!("[{}]", render_aff(program, e)))
        .collect();
    format!("{name}{}", idx.concat())
}

// ---------------------------------------------------------------------------
// Structural equality
// ---------------------------------------------------------------------------

/// Compares two programs structurally. `None` means equal; `Some(diff)` names the first
/// difference — the form round-trip tests want for failure messages.
pub fn structural_diff(a: &Program, b: &Program) -> Option<String> {
    if a.name != b.name {
        return Some(format!("name: {} vs {}", a.name, b.name));
    }
    if a.params != b.params {
        return Some(format!("params: {:?} vs {:?}", a.params, b.params));
    }
    if a.num_dims != b.num_dims {
        return Some(format!("num_dims: {} vs {}", a.num_dims, b.num_dims));
    }
    if a.arrays.len() != b.arrays.len() {
        return Some(format!(
            "array count: {} vs {}",
            a.arrays.len(),
            b.arrays.len()
        ));
    }
    for (x, y) in a.arrays.iter().zip(&b.arrays) {
        if x.name != y.name || x.extents != y.extents {
            return Some(format!("array {} vs {}", x.name, y.name));
        }
    }
    if a.loops.len() != b.loops.len() {
        return Some(format!(
            "loop count: {} vs {}",
            a.loops.len(),
            b.loops.len()
        ));
    }
    for (i, (x, y)) in a.loops.iter().zip(&b.loops).enumerate() {
        if x.name != y.name
            || x.lo != y.lo
            || x.hi != y.hi
            || x.step != y.step
            || x.reverse != y.reverse
            || x.outer != y.outer
        {
            return Some(format!("loop #{i} ({} vs {})", x.name, y.name));
        }
    }
    if a.stmts.len() != b.stmts.len() {
        return Some(format!(
            "statement count: {} vs {}",
            a.stmts.len(),
            b.stmts.len()
        ));
    }
    for (i, (x, y)) in a.stmts.iter().zip(&b.stmts).enumerate() {
        if x.name != y.name
            || x.dims != y.dims
            || x.reads != y.reads
            || x.writes != y.writes
            || x.position != y.position
        {
            return Some(format!("statement #{i} ({} vs {})", x.name, y.name));
        }
    }
    steps_diff(&a.body, &b.body)
}

/// `parse(print(p))` is structurally identical to `p` (round-trip check).
///
/// # Panics
/// Panics with the first structural difference when the round-trip fails.
pub fn assert_roundtrip(program: &Program) {
    let text = print_program(program);
    let reparsed = parse_program(&text)
        .unwrap_or_else(|e| panic!("printed program failed to parse: {e}\n---\n{text}"));
    if let Some(diff) = structural_diff(program, &reparsed) {
        panic!("round-trip mismatch: {diff}\n---\n{text}");
    }
}

/// Compares two full [`KernelFile`]s: the program structurally plus every
/// directive (`analyze`, `default`, `split`, `schedule`). `None` means
/// equal; `Some(diff)` names the first difference.
pub fn kernel_diff(a: &KernelFile, b: &KernelFile) -> Option<String> {
    if let Some(d) = structural_diff(&a.program, &b.program) {
        return Some(d);
    }
    if a.analyze != b.analyze {
        return Some(format!("analyze: {:?} vs {:?}", a.analyze, b.analyze));
    }
    if a.defaults != b.defaults {
        return Some(format!("defaults: {:?} vs {:?}", a.defaults, b.defaults));
    }
    if a.split != b.split {
        return Some(format!("split: {:?} vs {:?}", a.split, b.split));
    }
    if a.schedule != b.schedule {
        return Some(format!("schedule: {:?} vs {:?}", a.schedule, b.schedule));
    }
    None
}

/// `parse(print(k))` preserves the program *and* all directives.
///
/// # Panics
/// Panics with the first difference when the round-trip fails.
pub fn assert_kernel_roundtrip(kernel: &KernelFile) {
    let text = print_kernel(kernel);
    let reparsed = parse_kernel(&text)
        .unwrap_or_else(|e| panic!("printed kernel failed to parse: {e}\n---\n{text}"));
    if let Some(diff) = kernel_diff(kernel, &reparsed) {
        panic!("kernel round-trip mismatch: {diff}\n---\n{text}");
    }
}

fn steps_diff(a: &[Step], b: &[Step]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("body length: {} vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        match (x, y) {
            (Step::Stmt(i), Step::Stmt(j)) => {
                if i != j {
                    return Some(format!("schedule stmt {i:?} vs {j:?}"));
                }
            }
            (Step::Loop(l), Step::Loop(m)) => {
                if l.dim != m.dim {
                    return Some(format!("schedule loop {:?} vs {:?}", l.dim, m.dim));
                }
                if let Some(d) = steps_diff(&l.body, &m.body) {
                    return Some(d);
                }
            }
            _ => return Some("schedule shape (loop vs stmt)".to_string()),
        }
    }
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::interp::check_accesses;

    const MINI: &str = r#"
# miniature MGS core
kernel mini(M, N) {
  array A[M][N];
  array R[N][N];
  scalar acc;
  analyze SU;
  default M = 7, N = 5;

  for k in 0..N {
    S0: R[k][k] = op(acc);
    for j in k + 1..N {
      for i in 0..M {
        SU: A[i][j] = op(A[i][k], A[i][j], R[k][j]);
      }
    }
  }
}
"#;

    #[test]
    fn parses_mini_kernel() {
        let k = parse_kernel(MINI).expect("parses");
        let p = &k.program;
        assert_eq!(p.name, "mini");
        assert_eq!(p.params, vec!["M", "N"]);
        assert_eq!(p.arrays.len(), 3);
        assert_eq!(p.stmts.len(), 2);
        assert_eq!(p.num_dims, 3);
        assert_eq!(k.analyze.as_deref(), Some("SU"));
        assert_eq!(k.default_params().unwrap(), vec![7, 5]);
        assert_eq!(p.stmt(p.stmt_id("SU").unwrap()).dims.len(), 3);
    }

    #[test]
    fn parsed_programs_certify() {
        let k = parse_kernel(MINI).unwrap();
        let n = check_accesses(&k.program, &[7, 5]).expect("in range");
        assert_eq!(n, 5 + 7 * 10);
    }

    #[test]
    fn mini_round_trips() {
        let k = parse_kernel(MINI).unwrap();
        assert_roundtrip(&k.program);
    }

    #[test]
    fn strided_reverse_and_multi_bounds_round_trip() {
        let mut b = ProgramBuilder::new("shapes", &["M", "N", "B"]);
        let a = b.array("A", &[b.p("M"), b.p("N")]);
        let j0 = b.open_strided("j0", b.c(0), b.p("N"), LoopStep::Param(b.pid("B")));
        let j = b.open_general(
            "j",
            vec![b.d(j0), b.c(1)],
            vec![b.d(j0) + b.p("B"), b.p("N")],
            LoopStep::Const(2),
            false,
        );
        let k = b.open_rev("k", b.c(0), b.d(j) + 1);
        let acc = Access::new(a, vec![b.d(k), b.d(j)]);
        b.stmt("S", vec![acc.clone()], vec![acc]);
        b.close();
        b.close();
        b.close();
        let p = b.finish();
        let text = print_program(&p);
        assert!(text.contains("step B") && text.contains("step 2"), "{text}");
        assert!(text.contains("reverse") && text.contains("min("), "{text}");
        assert_roundtrip(&p);
    }

    #[test]
    fn split_directive_parses_and_prints() {
        let src = "kernel s(N) { scalar x; split Ms = N/2 - 1; S: x = op(); }";
        let k = parse_kernel(src).unwrap();
        let (var, e) = k.split.as_ref().expect("split parsed");
        assert_eq!(var, "Ms");
        assert_eq!(e.eval_floor(&[("N".to_string(), 11)]), 4);
        assert_eq!(e.eval_floor(&[("N".to_string(), 12)]), 5);
        let printed = print_kernel(&k);
        assert!(printed.contains("split Ms = N/2 - 1;"), "{printed}");
        let again = parse_kernel(&printed).unwrap();
        assert_eq!(again.split, k.split);
    }

    #[test]
    fn schedule_block_parses_and_prints() {
        let src = "kernel t(M, N) {\n  array A[M][N];\n  schedule { tile i 8; tile j; }\n  for i in 0..M {\n    for j in 0..N {\n      S: A[i][j] = op();\n    }\n  }\n}";
        let k = parse_kernel(src).unwrap();
        assert_eq!(
            k.schedule,
            vec![
                TileDirective {
                    loop_name: "i".to_string(),
                    size: Some(8)
                },
                TileDirective {
                    loop_name: "j".to_string(),
                    size: None
                },
            ]
        );
        let printed = print_kernel(&k);
        assert!(
            printed.contains("tile i 8;") && printed.contains("tile j;"),
            "{printed}"
        );
        let again = parse_kernel(&printed).unwrap();
        assert_eq!(again.schedule, k.schedule);
    }

    #[test]
    fn schedule_block_is_validated() {
        let err = parse_kernel(
            "kernel t(N) {\n  array A[N];\n  schedule { tile z 4; }\n  for i in 0..N { S: A[i] = op(); }\n}",
        )
        .unwrap_err();
        assert!(err.msg.contains("`tile z` names no loop"), "{err}");
        assert_eq!(err.span.line, 3);

        let err = parse_kernel(
            "kernel t(N) { array A[N]; schedule { tile i 2; } for i in reverse 0..N { S: A[i] = op(); } }",
        )
        .unwrap_err();
        assert!(err.msg.contains("strided or reversed"), "{err}");

        let err = parse_kernel(
            "kernel t(N) { array A[N]; schedule { tile i 2; tile i 4; } for i in 0..N { S: A[i] = op(); } }",
        )
        .unwrap_err();
        assert!(err.msg.contains("duplicate `tile`"), "{err}");

        let err = parse_kernel(
            "kernel t(N) { array A[N]; schedule { tile i 0; } for i in 0..N { S: A[i] = op(); } }",
        )
        .unwrap_err();
        assert!(err.msg.contains("must be ≥ 1"), "{err}");
    }

    #[test]
    fn errors_carry_spans() {
        // Unknown array on line 3.
        let src = "kernel e(N) {\n  scalar x;\n  S: y = op();\n}";
        let err = parse_kernel(src).unwrap_err();
        assert_eq!(err.span.line, 3);
        assert!(err.msg.contains("unknown array y"), "{err}");

        let err = parse_kernel("kernel e(N) { array A[N]; S: A[i] = op(); }").unwrap_err();
        assert!(err.msg.contains("unknown variable i"), "{err}");

        let err = parse_kernel("kernel e(N) { array A[N]; S: A = op(); }").unwrap_err();
        assert!(err.msg.contains("rank"), "{err}");

        let err = parse_kernel("kernel e(N) {").unwrap_err();
        assert_eq!(err.span.line, 1);
    }

    #[test]
    fn duplicate_declarations_rejected() {
        assert!(parse_kernel("kernel d(N, N) { scalar x; S: x = op(); }")
            .unwrap_err()
            .msg
            .contains("duplicate parameter"));
        assert!(
            parse_kernel("kernel d(N) { scalar x; scalar x; S: x = op(); }")
                .unwrap_err()
                .msg
                .contains("duplicate array")
        );
        assert!(
            parse_kernel("kernel d(N) { scalar x; S: x = op(); S: x = op(); }")
                .unwrap_err()
                .msg
                .contains("duplicate statement")
        );
        assert!(parse_kernel(
            "kernel d(N) { scalar x; default N = 4; default N = 5; S: x = op(); }"
        )
        .unwrap_err()
        .msg
        .contains("duplicate `default` for parameter N"));
    }

    #[test]
    fn analyze_must_name_a_statement() {
        let err = parse_kernel("kernel a(N) {\n  scalar x;\n  analyze Q;\n  S: x = op();\n}")
            .unwrap_err();
        assert!(err.msg.contains("`analyze Q` names no statement"), "{err}");
        // The span points at the directive, not the kernel header.
        assert_eq!(err.span.line, 3);
    }

    #[test]
    fn shadowed_loop_names_resolve_innermost() {
        let src =
            "kernel sh(M) { array A[M]; for i in 0..M { for i in 0..M { S: A[i] = op(); } } }";
        let p = parse_program(src).unwrap();
        let s = p.stmt(p.stmt_id("S").unwrap());
        // The subscript references the inner dim.
        assert_eq!(s.writes[0].idx[0], Aff::dim(s.dims[1]));
    }
}
