//! A score-expression language for user-defined policies.
//!
//! The paper's pipeline outputs fitted functions as text (appendix A.5.2);
//! operators wanting to deploy a policy need to get that text back into a
//! scheduler. This module provides the bridge: a small arithmetic language
//! over the task variables `r` (processing time), `n` (cores), `s` (arrival
//! time) and `w` (waiting time), with the guarded functions of the learned
//! family plus a few conveniences.
//!
//! ```
//! use dynsched_policies::expr::ExprPolicy;
//! use dynsched_policies::{Policy, TaskView};
//!
//! let f1 = ExprPolicy::parse("my-f1", "log10(r)*n + 870*log10(s)").unwrap();
//! let t = TaskView { processing_time: 100.0, cores: 8, submit: 1000.0, now: 1000.0 };
//! assert!((f1.score(&t) - 2626.0).abs() < 1e-9);
//! ```
//!
//! Grammar (standard precedence, `^` right-associative and strongest):
//!
//! ```text
//! expr   := term (('+'|'-') term)*
//! term   := factor (('*'|'/') factor)*
//! factor := unary ('^' factor)?
//! unary  := '-' unary | primary
//! primary:= NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')'
//! ```

use crate::policy::Policy;
use crate::task_view::TaskView;
use std::fmt;

/// Task variables available to expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Var {
    /// Processing time (`r` or `e` depending on the scheduler's mode).
    R,
    /// Requested cores.
    N,
    /// Arrival time.
    S,
    /// Waiting time (`now - s`).
    W,
}

impl Var {
    fn name(self) -> &'static str {
        match self {
            Var::R => "r",
            Var::N => "n",
            Var::S => "s",
            Var::W => "w",
        }
    }
}

/// Unary functions. The log/sqrt/inv guards match
/// [`BaseFunc`](crate::learned::BaseFunc) so an exported learned policy
/// evaluates identically through either path.
///
/// # Name aliases
///
/// The parser accepts `log` as an alias for [`Func::Log10`] (the paper and
/// its artifact write base-10 logarithms as plain `log`), but the printer
/// always emits the canonical `log10`. Round-trips are therefore stable:
/// `log(...)` parses to `Log10`, prints as `log10(...)`, and parses back
/// to the same AST — printing is a fixed point even when the source used
/// the alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// `log10(max(x, 1))`
    Log10,
    /// `log2(max(x, 1))`
    Log2,
    /// `ln(max(x, 1))`
    Ln,
    /// `sqrt(max(x, 0))`
    Sqrt,
    /// `1 / max(x, 1e-9)`
    Inv,
    /// `|x|`
    Abs,
    /// `e^x`
    Exp,
}

impl Func {
    /// All unary functions, in declaration order. Used by the round-trip
    /// tests and the random-expression generators.
    pub const ALL: [Func; 7] = [
        Func::Log10,
        Func::Log2,
        Func::Ln,
        Func::Sqrt,
        Func::Inv,
        Func::Abs,
        Func::Exp,
    ];

    /// Apply with the guard documented per variant. Public because the
    /// bytecode VM ([`crate::compile`]) executes guarded unary calls
    /// through *this exact function* — that is how compiled and
    /// interpreted scores stay bit-identical.
    #[inline]
    pub fn eval(self, x: f64) -> f64 {
        match self {
            Func::Log10 => x.max(1.0).log10(),
            Func::Log2 => x.max(1.0).log2(),
            Func::Ln => x.max(1.0).ln(),
            Func::Sqrt => x.max(0.0).sqrt(),
            Func::Inv => 1.0 / x.max(1e-9),
            Func::Abs => x.abs(),
            Func::Exp => x.exp(),
        }
    }

    /// Canonical name, as printed by [`Expr`]'s `Display` (see the type
    /// docs for the `log` parsing alias).
    pub fn name(self) -> &'static str {
        match self {
            Func::Log10 => "log10",
            Func::Log2 => "log2",
            Func::Ln => "ln",
            Func::Sqrt => "sqrt",
            Func::Inv => "inv",
            Func::Abs => "abs",
            Func::Exp => "exp",
        }
    }

    fn from_name(name: &str) -> Option<Func> {
        Some(match name {
            // `log` is the artifact's spelling of the base-10 logarithm;
            // the canonical name (and the only one `name()` prints) is
            // `log10`.
            "log10" | "log" => Func::Log10,
            "log2" => Func::Log2,
            "ln" => Func::Ln,
            "sqrt" => Func::Sqrt,
            "inv" => Func::Inv,
            "abs" => Func::Abs,
            "exp" => Func::Exp,
            _ => return None,
        })
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Guarded division (denominator clamped away from 0).
    Div,
    /// Power (`powf`), NaN-sanitized.
    Pow,
}

impl BinOp {
    /// Apply the operator with its guard. Public for the same reason as
    /// [`Func::eval`]: the bytecode VM's guarded division and sanitized
    /// power run through this exact code.
    #[inline]
    pub fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => {
                let d = if b.abs() < 1e-12 {
                    1e-12f64.copysign(if b == 0.0 { 1.0 } else { b })
                } else {
                    b
                };
                a / d
            }
            BinOp::Pow => {
                let v = a.powf(b);
                if v.is_nan() {
                    0.0
                } else {
                    v
                }
            }
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "^",
        }
    }

    fn precedence(self) -> u8 {
        match self {
            BinOp::Add | BinOp::Sub => 1,
            BinOp::Mul | BinOp::Div => 2,
            BinOp::Pow => 3,
        }
    }
}

/// Expression AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Const(f64),
    /// Task variable.
    Var(Var),
    /// Negation.
    Neg(Box<Expr>),
    /// Unary function application.
    Call(Func, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Evaluate against a task view. Guaranteed non-NaN (guards documented
    /// on [`Func`] and [`BinOp`]; the final sanitizer maps any residual NaN
    /// — e.g. `inf - inf` from overflowing subexpressions — to `f64::MAX`).
    pub fn eval(&self, task: &TaskView) -> f64 {
        let v = self.eval_inner(task);
        if v.is_nan() {
            f64::MAX
        } else {
            v
        }
    }

    fn eval_inner(&self, task: &TaskView) -> f64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Var(Var::R) => task.processing_time,
            Expr::Var(Var::N) => task.cores as f64,
            Expr::Var(Var::S) => task.submit,
            Expr::Var(Var::W) => task.wait(),
            Expr::Neg(e) => -e.eval_inner(task),
            Expr::Call(f, e) => f.eval(e.eval_inner(task)),
            Expr::Bin(op, a, b) => op.eval(a.eval_inner(task), b.eval_inner(task)),
        }
    }

    /// Whether the expression references the waiting time `w` anywhere.
    pub fn uses_wait(&self) -> bool {
        match self {
            Expr::Const(_) => false,
            Expr::Var(v) => *v == Var::W,
            Expr::Neg(e) => e.uses_wait(),
            Expr::Call(_, e) => e.uses_wait(),
            Expr::Bin(_, a, b) => a.uses_wait() || b.uses_wait(),
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(v) => write!(f, "{}", v.name()),
            Expr::Neg(e) => {
                write!(f, "-")?;
                e.fmt_prec(f, 4)
            }
            Expr::Call(func, e) => {
                write!(f, "{}(", func.name())?;
                e.fmt_prec(f, 0)?;
                write!(f, ")")
            }
            Expr::Bin(op, a, b) => {
                let p = op.precedence();
                let need_parens = p < parent_prec;
                if need_parens {
                    write!(f, "(")?;
                }
                // `^` parses right-associatively, so a left operand that
                // is itself a power needs its parentheses; every other
                // left operand is printed as before.
                let left_prec = match (op, &**a) {
                    (BinOp::Pow, Expr::Bin(BinOp::Pow, ..)) => p + 1,
                    _ => p,
                };
                a.fmt_prec(f, left_prec)?;
                write!(f, " {} ", op.symbol())?;
                // Right operand needs one level more to keep left-assoc
                // round-trips exact (a - b - c ≠ a - (b - c)).
                b.fmt_prec(f, p + 1)?;
                if need_parens {
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// Parse error with byte offset into the source.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_term()?;
        loop {
            match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    let rhs = self.parse_term()?;
                    lhs = Expr::Bin(BinOp::Add, Box::new(lhs), Box::new(rhs));
                }
                Some(b'-') => {
                    self.pos += 1;
                    let rhs = self.parse_term()?;
                    lhs = Expr::Bin(BinOp::Sub, Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_factor()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    // Accept the artifact's "x" style implicitly via '*' only.
                    let rhs = self.parse_factor()?;
                    lhs = Expr::Bin(BinOp::Mul, Box::new(lhs), Box::new(rhs));
                }
                Some(b'/') => {
                    self.pos += 1;
                    let rhs = self.parse_factor()?;
                    lhs = Expr::Bin(BinOp::Div, Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_factor(&mut self) -> Result<Expr, ParseError> {
        let base = self.parse_unary()?;
        if self.eat(b'^') {
            let exp = self.parse_factor()?; // right-associative
            return Ok(Expr::Bin(BinOp::Pow, Box::new(base), Box::new(exp)));
        }
        Ok(base)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat(b'-') {
            return Ok(Expr::Neg(Box::new(self.parse_unary()?)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let inner = self.parse_expr()?;
                if !self.eat(b')') {
                    return Err(self.error("expected ')'"));
                }
                Ok(inner)
            }
            Some(c) if c.is_ascii_digit() || c == b'.' => self.parse_number(),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.parse_ident(),
            Some(c) => Err(self.error(format!("unexpected character {:?}", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_number(&mut self) -> Result<Expr, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_digit() || self.src[self.pos] == b'.')
        {
            self.pos += 1;
        }
        // Scientific notation: e/E followed by optional sign and digits.
        if self.pos < self.src.len() && (self.src[self.pos] | 0x20) == b'e' {
            let mark = self.pos;
            self.pos += 1;
            if self.pos < self.src.len()
                && (self.src[self.pos] == b'+' || self.src[self.pos] == b'-')
            {
                self.pos += 1;
            }
            if self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
            } else {
                self.pos = mark; // bare 'e' belongs to an identifier after a number — reject below
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Expr::Const)
            .map_err(|e| self.error(format!("bad number {text:?}: {e}")))
    }

    fn parse_ident(&mut self) -> Result<Expr, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
        {
            self.pos += 1;
        }
        let name = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii slice");
        if self.eat(b'(') {
            let func = Func::from_name(name)
                .ok_or_else(|| self.error(format!("unknown function {name:?}")))?;
            let arg = self.parse_expr()?;
            if !self.eat(b')') {
                return Err(self.error("expected ')' after function argument"));
            }
            return Ok(Expr::Call(func, Box::new(arg)));
        }
        match name {
            "r" | "runtime" => Ok(Expr::Var(Var::R)),
            "n" | "cores" => Ok(Expr::Var(Var::N)),
            "s" | "submit" => Ok(Expr::Var(Var::S)),
            "w" | "wait" => Ok(Expr::Var(Var::W)),
            _ => Err(self.error(format!("unknown identifier {name:?}"))),
        }
    }
}

/// Parse an expression from text.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src);
    let expr = p.parse_expr()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.error("trailing input"));
    }
    Ok(expr)
}

/// A policy defined by a parsed expression.
#[derive(Debug, Clone)]
pub struct ExprPolicy {
    name: String,
    expr: Expr,
}

impl ExprPolicy {
    /// Parse `source` into a named policy.
    pub fn parse(name: impl Into<String>, source: &str) -> Result<Self, ParseError> {
        Ok(Self {
            name: name.into(),
            expr: parse_expr(source)?,
        })
    }

    /// Wrap an existing AST.
    pub fn from_expr(name: impl Into<String>, expr: Expr) -> Self {
        Self {
            name: name.into(),
            expr,
        }
    }

    /// The underlying expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }
}

impl Policy for ExprPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&self, task: &TaskView) -> f64 {
        self.expr.eval(task)
    }

    fn time_dependent(&self) -> bool {
        self.expr.uses_wait()
    }

    fn compile(&self) -> Option<crate::compile::CompiledPolicy> {
        Some(crate::compile::compile_expr(self.name.clone(), &self.expr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(r: f64, n: u32, s: f64, now: f64) -> TaskView {
        TaskView {
            processing_time: r,
            cores: n,
            submit: s,
            now,
        }
    }

    fn eval(src: &str, t: &TaskView) -> f64 {
        parse_expr(src).unwrap().eval(t)
    }

    #[test]
    fn arithmetic_precedence() {
        let t = view(0.0, 1, 0.0, 0.0);
        assert_eq!(eval("2 + 3 * 4", &t), 14.0);
        assert_eq!(eval("(2 + 3) * 4", &t), 20.0);
        assert_eq!(eval("2 ^ 3 ^ 2", &t), 512.0); // right-assoc
        assert_eq!(eval("8 - 3 - 2", &t), 3.0); // left-assoc
        assert_eq!(eval("16 / 4 / 2", &t), 2.0);
        assert_eq!(eval("-2 ^ 2", &t), 4.0); // (-2)^2 via unary binding
    }

    #[test]
    fn variables_resolve() {
        let t = view(100.0, 8, 50.0, 80.0);
        assert_eq!(eval("r", &t), 100.0);
        assert_eq!(eval("n", &t), 8.0);
        assert_eq!(eval("s", &t), 50.0);
        assert_eq!(eval("w", &t), 30.0);
        assert_eq!(eval("runtime + cores + submit + wait", &t), 188.0);
    }

    #[test]
    fn functions_evaluate_with_guards() {
        let t = view(0.0, 1, 0.0, 0.0);
        assert_eq!(eval("log10(1000)", &t), 3.0);
        assert_eq!(eval("log10(s)", &t), 0.0); // s = 0 guarded
        assert_eq!(eval("log2(n)", &t), 0.0);
        assert_eq!(eval("sqrt(49)", &t), 7.0);
        assert_eq!(eval("inv(4)", &t), 0.25);
        assert_eq!(eval("abs(0 - 5)", &t), 5.0);
    }

    #[test]
    fn scientific_notation() {
        let t = view(0.0, 1, 0.0, 0.0);
        assert_eq!(eval("8.70e2", &t), 870.0);
        assert_eq!(eval("1e-3", &t), 0.001);
        assert_eq!(eval("2.5E+1", &t), 25.0);
    }

    #[test]
    fn paper_f1_as_expression() {
        let p = ExprPolicy::parse("F1", "log10(r)*n + 8.70e2*log10(s)").unwrap();
        let t = view(100.0, 8, 1000.0, 1000.0);
        assert!((p.score(&t) - 2626.0).abs() < 1e-9);
    }

    #[test]
    fn wfp3_as_expression_matches_builtin() {
        let p = ExprPolicy::parse("wfp", "-((w/r)^3) * n").unwrap();
        let t = view(10.0, 4, 0.0, 20.0);
        assert!((p.score(&t) + 32.0).abs() < 1e-9);
    }

    #[test]
    fn division_by_zero_is_guarded() {
        let t = view(0.0, 1, 0.0, 0.0);
        let v = eval("1 / s", &t);
        assert!(v.is_finite());
    }

    #[test]
    fn parse_errors_have_positions() {
        let err = parse_expr("1 + bogus(2)").unwrap_err();
        assert!(err.message.contains("bogus"));
        let err = parse_expr("1 + ").unwrap_err();
        assert!(err.message.contains("end of input"));
        let err = parse_expr("(1 + 2").unwrap_err();
        assert!(err.message.contains("')'"));
        let err = parse_expr("1 2").unwrap_err();
        assert!(err.message.contains("trailing"));
        let err = parse_expr("q + 1").unwrap_err();
        assert!(err.message.contains("unknown identifier"));
    }

    #[test]
    fn display_roundtrip() {
        for src in [
            "log10(r) * n + 870 * log10(s)",
            "-(w / r) ^ 3 * n",
            "r * n / (s + 1)",
            "8 - 3 - 2",
            "2 ^ 3 ^ 2",
            "(2 ^ 3) ^ 2",
            "inv(r) + sqrt(n) - ln(s)",
        ] {
            let e1 = parse_expr(src).unwrap();
            let printed = e1.to_string();
            let e2 = parse_expr(&printed).unwrap();
            let t = view(123.0, 7, 456.0, 789.0);
            assert!(
                (e1.eval(&t) - e2.eval(&t)).abs() < 1e-9,
                "{src} -> {printed} changed value"
            );
            // And printing again is a fixed point.
            assert_eq!(printed, e2.to_string());
        }
        // Both nestings of `^` print their parentheses.
        assert_eq!(
            parse_expr("(2 ^ 3) ^ 2").unwrap().to_string(),
            "(2 ^ 3) ^ 2"
        );
        assert_eq!(parse_expr("2 ^ 3 ^ 2").unwrap().to_string(), "2 ^ (3 ^ 2)");
    }

    #[test]
    fn func_names_roundtrip_through_parse_and_print() {
        // Every variant: print its canonical call, parse it back, print
        // again — the AST and the text must both be fixed points. The
        // `log` alias parses to Log10 but is never printed.
        for f in Func::ALL {
            let src = format!("{}(r)", f.name());
            let parsed = parse_expr(&src).unwrap();
            assert_eq!(parsed, Expr::Call(f, Box::new(Expr::Var(Var::R))));
            let printed = parsed.to_string();
            assert_eq!(printed, src, "printing {f:?} is not a fixed point");
            assert_eq!(parse_expr(&printed).unwrap(), parsed);
        }
        // The alias: accepted on input, normalized on output.
        let aliased = parse_expr("log(s)").unwrap();
        assert_eq!(
            aliased,
            Expr::Call(Func::Log10, Box::new(Expr::Var(Var::S)))
        );
        assert_eq!(aliased.to_string(), "log10(s)");
        assert_eq!(parse_expr(&aliased.to_string()).unwrap(), aliased);
    }

    #[test]
    fn never_nan_property_spot_checks() {
        let exprs = [
            "r/s",
            "log10(r - 100)",
            "sqrt(r - 1e9)",
            "inv(w)",
            "r^0.5 - s^0.5",
        ];
        for src in exprs {
            let e = parse_expr(src).unwrap();
            for &(r, n, s, now) in &[
                (0.0, 1, 0.0, 0.0),
                (1e-9, 1, 1e12, 1e12),
                (1e12, 1_000_000, 0.0, 1e12),
            ] {
                let v = e.eval(&view(r, n, s, now));
                assert!(!v.is_nan(), "{src} gave NaN");
            }
        }
    }
}
