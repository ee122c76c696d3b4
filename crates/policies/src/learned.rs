//! The paper's nonlinear function family and its learned instances F1–F4.
//!
//! §3.3 defines the hypothesis space: functions of the form
//!
//! ```text
//! f = (c1·α(r)) op1 (c2·β(n)) op2 (c3·γ(s))
//! ```
//!
//! with base functions α, β, γ ∈ {id, log, sqrt, inv} (Table 1) and
//! operators op ∈ {+, ·, ÷}. Standard precedence applies (· and ÷ bind
//! tighter than +, left-associative), which is consistent with the
//! simplified forms of Table 3 (`log10(r)·n + 8.70e2·log10(s)` means
//! `(log10(r)·n) + (870·log10(s))`).
//!
//! This module is shared between the regression stage (`dynsched-mlreg`
//! fits the coefficients of every member of the family) and the policy
//! stage (a fitted member becomes a queue-ordering policy).

use crate::policy::Policy;
use crate::task_view::TaskView;

/// Base functions of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseFunc {
    /// `id(x) = x`
    Id,
    /// `log(x) = log10(x)`, guarded as `log10(max(x, 1))`.
    Log10,
    /// `sqrt(x) = √x`, guarded as `√max(x, 0)`.
    Sqrt,
    /// `inv(x) = 1/x`, guarded as `1/max(x, 1e-9)`.
    Inv,
}

impl BaseFunc {
    /// All base functions, in the paper's table order.
    pub const ALL: [BaseFunc; 4] = [BaseFunc::Id, BaseFunc::Log10, BaseFunc::Sqrt, BaseFunc::Inv];

    /// Position of this base function in [`ALL`](Self::ALL) — the shared
    /// index used by the family-enumeration order and by feature tables.
    pub fn index(self) -> usize {
        match self {
            BaseFunc::Id => 0,
            BaseFunc::Log10 => 1,
            BaseFunc::Sqrt => 2,
            BaseFunc::Inv => 3,
        }
    }

    /// Evaluate with the domain guards documented per variant. Guards keep
    /// every score finite on real trace data (`s = 0` for the first job of
    /// a window, sub-second runtimes, etc.).
    #[inline]
    pub fn eval(self, x: f64) -> f64 {
        match self {
            BaseFunc::Id => x,
            BaseFunc::Log10 => x.max(1.0).log10(),
            BaseFunc::Sqrt => x.max(0.0).sqrt(),
            BaseFunc::Inv => 1.0 / x.max(1e-9),
        }
    }

    /// Name used in the artifact's output format (`id`, `log10`, `sqrt`,
    /// `inv`).
    pub fn fn_name(self) -> &'static str {
        match self {
            BaseFunc::Id => "id",
            BaseFunc::Log10 => "log10",
            BaseFunc::Sqrt => "sqrt",
            BaseFunc::Inv => "inv",
        }
    }

    /// Render `f(var)` in human form: `id` prints as the bare variable,
    /// the rest as `name(var)`.
    pub fn render(self, var: &str) -> String {
        match self {
            BaseFunc::Id => var.to_string(),
            _ => format!("{}({var})", self.fn_name()),
        }
    }
}

/// The two binary operator slots of the family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Sum.
    Add,
    /// Product.
    Mul,
    /// Quotient (guarded against zero denominators).
    Div,
}

impl OpKind {
    /// All operators, in the paper's order (+, ·, ÷).
    pub const ALL: [OpKind; 3] = [OpKind::Add, OpKind::Mul, OpKind::Div];

    /// Apply the operator. Division guards the denominator away from zero
    /// (preserving its sign) so no score is ever NaN/∞.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            OpKind::Add => a + b,
            OpKind::Mul => a * b,
            OpKind::Div => {
                let denom = if b.abs() < 1e-12 {
                    1e-12f64.copysign(if b == 0.0 { 1.0 } else { b })
                } else {
                    b
                };
                a / denom
            }
        }
    }

    /// Display symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            OpKind::Add => "+",
            OpKind::Mul => "*",
            OpKind::Div => "/",
        }
    }

    /// Whether this operator binds tighter than `+`.
    pub fn is_multiplicative(self) -> bool {
        !matches!(self, OpKind::Add)
    }
}

/// One member of the hypothesis space: base functions, operators, and the
/// three fitted coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonlinearFunction {
    /// Base function applied to the processing time `r`.
    pub alpha: BaseFunc,
    /// Base function applied to the core count `n`.
    pub beta: BaseFunc,
    /// Base function applied to the arrival time `s`.
    pub gamma: BaseFunc,
    /// Operator between the `r` and `n` terms.
    pub op1: OpKind,
    /// Operator between the combined term and the `s` term.
    pub op2: OpKind,
    /// Coefficients `[c1, c2, c3]`.
    pub coefficients: [f64; 3],
}

impl NonlinearFunction {
    /// Construct with unit coefficients.
    pub fn with_shape(
        alpha: BaseFunc,
        op1: OpKind,
        beta: BaseFunc,
        op2: OpKind,
        gamma: BaseFunc,
    ) -> Self {
        Self {
            alpha,
            beta,
            gamma,
            op1,
            op2,
            coefficients: [1.0, 1.0, 1.0],
        }
    }

    /// Replace the coefficients.
    pub fn with_coefficients(mut self, c: [f64; 3]) -> Self {
        self.coefficients = c;
        self
    }

    /// Evaluate `f(r, n, s)` with standard operator precedence.
    ///
    /// Writing `A = c1·α(r)`, `B = c2·β(n)`, `C = c3·γ(s)`:
    /// * `op1 = +` and `op2 ∈ {·, ÷}` evaluates as `A + (B op2 C)`;
    /// * everything else evaluates left-to-right as `(A op1 B) op2 C`.
    pub fn eval(&self, r: f64, n: f64, s: f64) -> f64 {
        self.eval_transformed(self.alpha.eval(r), self.beta.eval(n), self.gamma.eval(s))
    }

    /// Evaluate on *pre-transformed* base-function values `α(r)`, `β(n)`,
    /// `γ(s)`. This is [`eval`](Self::eval) with the transcendental stage
    /// hoisted out: the regression stage caches the base-function values of
    /// every observation once and replays only the coefficient arithmetic
    /// per optimizer step, and because `eval` routes through this method the
    /// two paths are bit-identical by construction.
    #[inline]
    pub fn eval_transformed(&self, alpha_r: f64, beta_n: f64, gamma_s: f64) -> f64 {
        let [c1, c2, c3] = self.coefficients;
        let a = c1 * alpha_r;
        let b = c2 * beta_n;
        let c = c3 * gamma_s;
        let out = if self.op1 == OpKind::Add && self.op2.is_multiplicative() {
            self.op1.apply(a, self.op2.apply(b, c))
        } else {
            self.op2.apply(self.op1.apply(a, b), c)
        };
        // The guards above make NaN unreachable for finite inputs; the
        // sanitizer below is a belt-and-braces fallback so a queue sort can
        // never be corrupted in release builds.
        debug_assert!(
            !out.is_nan(),
            "NaN from {self:?} at α(r)={alpha_r} β(n)={beta_n} γ(s)={gamma_s}"
        );
        if out.is_nan() {
            f64::MAX
        } else {
            out
        }
    }

    /// Position of this function's *shape* in the [`enumerate_family`]
    /// order — a total, coefficient-independent identity key. The
    /// enumeration layer uses it to break fitness ties deterministically,
    /// so a parallel fit sweep can never reorder equal-rank candidates.
    ///
    /// [`enumerate_family`]: Self::enumerate_family
    pub fn family_position(&self) -> usize {
        let op = |o: OpKind| OpKind::ALL.iter().position(|&x| x == o).unwrap();
        (((self.alpha.index() * 4 + self.beta.index()) * 4 + self.gamma.index()) * 3 + op(self.op1))
            * 3
            + op(self.op2)
    }

    /// The 64 shape combinations × 9 operator pairs = 576 members of the
    /// family, with unit coefficients, in deterministic order.
    pub fn enumerate_family() -> Vec<NonlinearFunction> {
        let mut out = Vec::with_capacity(576);
        for alpha in BaseFunc::ALL {
            for beta in BaseFunc::ALL {
                for gamma in BaseFunc::ALL {
                    for op1 in OpKind::ALL {
                        for op2 in OpKind::ALL {
                            out.push(NonlinearFunction::with_shape(alpha, op1, beta, op2, gamma));
                        }
                    }
                }
            }
        }
        out
    }

    /// Lower into the score-expression AST of [`crate::expr`], preserving
    /// evaluation semantics **bit for bit**: each guarded base function
    /// maps to the [`Func`](crate::expr::Func) with the identical guard,
    /// each operator to the [`BinOp`](crate::expr::BinOp) with the
    /// identical code, coefficients multiply on the left exactly as
    /// [`eval_transformed`](Self::eval_transformed) does, and both paths
    /// end with the same NaN→`f64::MAX` sanitizer. This is how a learned
    /// policy reaches the bytecode compiler (and how a fitted function can
    /// be exported as policy-language text).
    pub fn to_expr(&self) -> crate::expr::Expr {
        use crate::expr::{BinOp, Expr, Func, Var};
        let term = |c: f64, base: BaseFunc, v: Var| -> Expr {
            let var = Expr::Var(v);
            let transformed = match base {
                BaseFunc::Id => var,
                BaseFunc::Log10 => Expr::Call(Func::Log10, Box::new(var)),
                BaseFunc::Sqrt => Expr::Call(Func::Sqrt, Box::new(var)),
                BaseFunc::Inv => Expr::Call(Func::Inv, Box::new(var)),
            };
            Expr::Bin(BinOp::Mul, Box::new(Expr::Const(c)), Box::new(transformed))
        };
        let op = |o: OpKind| match o {
            OpKind::Add => BinOp::Add,
            OpKind::Mul => BinOp::Mul,
            OpKind::Div => BinOp::Div,
        };
        let [c1, c2, c3] = self.coefficients;
        let a = term(c1, self.alpha, Var::R);
        let b = term(c2, self.beta, Var::N);
        let c = term(c3, self.gamma, Var::S);
        if self.op1 == OpKind::Add && self.op2.is_multiplicative() {
            Expr::Bin(
                op(self.op1),
                Box::new(a),
                Box::new(Expr::Bin(op(self.op2), Box::new(b), Box::new(c))),
            )
        } else {
            Expr::Bin(
                op(self.op2),
                Box::new(Expr::Bin(op(self.op1), Box::new(a), Box::new(b))),
                Box::new(c),
            )
        }
    }

    /// Render in the artifact's verbose format, e.g.
    /// `(-0.0155 x log10(r)) * (-0.0005 x n) + (0.0070 x log10(s))`.
    pub fn render_verbose(&self) -> String {
        let [c1, c2, c3] = self.coefficients;
        format!(
            "({:.10} x {}) {} ({:.10} x {}) {} ({:.10} x {})",
            c1,
            self.alpha.render("r"),
            self.op1.symbol(),
            c2,
            self.beta.render("n"),
            self.op2.symbol(),
            c3,
            self.gamma.render("s"),
        )
    }

    /// Render in the compact Table 3 style where possible: for the
    /// `(A·B) + C` shape the paper merges `c1·c2` into the first term and
    /// prints `α(r)·β(n) + (c3/(c1·c2))·γ(s)`.
    pub fn render_simplified(&self) -> String {
        let [c1, c2, c3] = self.coefficients;
        if self.op1 == OpKind::Mul && self.op2 == OpKind::Add {
            let c12 = c1 * c2;
            if c12.abs() > 1e-30 {
                let merged = c3 / c12;
                return format!(
                    "{}*{} {} {:.3e}*{}",
                    self.alpha.render("r"),
                    self.beta.render("n"),
                    if merged >= 0.0 { "+" } else { "-" },
                    merged.abs(),
                    self.gamma.render("s"),
                );
            }
        }
        self.render_verbose()
    }
}

impl std::fmt::Display for NonlinearFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render_simplified())
    }
}

/// A learned nonlinear function used as a queue-ordering policy.
#[derive(Debug, Clone)]
pub struct LearnedPolicy {
    name: String,
    function: NonlinearFunction,
}

impl LearnedPolicy {
    /// Wrap a fitted function under a display name.
    pub fn new(name: impl Into<String>, function: NonlinearFunction) -> Self {
        Self {
            name: name.into(),
            function,
        }
    }

    /// The underlying function.
    pub fn function(&self) -> &NonlinearFunction {
        &self.function
    }

    /// A policy learned by *this* reproduction's pipeline, named `G{rank}`
    /// ("G" for generated, to distinguish our fits from the paper's
    /// published F1–F4). `rank` is 1-based: the best fit is `G1`.
    pub fn generated(rank: usize, function: NonlinearFunction) -> Self {
        Self::new(format!("G{rank}"), function)
    }

    /// **F1** of Table 3: `log10(r)·n + 8.70e2·log10(s)`.
    pub fn f1() -> Self {
        Self::new(
            "F1",
            NonlinearFunction::with_shape(
                BaseFunc::Log10,
                OpKind::Mul,
                BaseFunc::Id,
                OpKind::Add,
                BaseFunc::Log10,
            )
            .with_coefficients([1.0, 1.0, 8.70e2]),
        )
    }

    /// **F2** of Table 3: `sqrt(r)·n + 2.56e4·log10(s)`.
    pub fn f2() -> Self {
        Self::new(
            "F2",
            NonlinearFunction::with_shape(
                BaseFunc::Sqrt,
                OpKind::Mul,
                BaseFunc::Id,
                OpKind::Add,
                BaseFunc::Log10,
            )
            .with_coefficients([1.0, 1.0, 2.56e4]),
        )
    }

    /// **F3** of Table 3: `r·n + 6.86e6·log10(s)`.
    pub fn f3() -> Self {
        Self::new(
            "F3",
            NonlinearFunction::with_shape(
                BaseFunc::Id,
                OpKind::Mul,
                BaseFunc::Id,
                OpKind::Add,
                BaseFunc::Log10,
            )
            .with_coefficients([1.0, 1.0, 6.86e6]),
        )
    }

    /// **F4** of Table 3: `r·sqrt(n) + 5.30e5·log10(s)`.
    pub fn f4() -> Self {
        Self::new(
            "F4",
            NonlinearFunction::with_shape(
                BaseFunc::Id,
                OpKind::Mul,
                BaseFunc::Sqrt,
                OpKind::Add,
                BaseFunc::Log10,
            )
            .with_coefficients([1.0, 1.0, 5.30e5]),
        )
    }

    /// The paper's four learned policies, best-ranked first.
    pub fn table3() -> Vec<LearnedPolicy> {
        vec![Self::f1(), Self::f2(), Self::f3(), Self::f4()]
    }
}

impl Policy for LearnedPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&self, task: &TaskView) -> f64 {
        self.function
            .eval(task.processing_time, task.cores as f64, task.submit)
    }

    fn time_dependent(&self) -> bool {
        // f(r, n, s) never reads the waiting time.
        false
    }

    fn compile(&self) -> Option<crate::compile::CompiledPolicy> {
        // Route through the expression lowering: same guards, same
        // operand order, same final sanitizer — the whole function is
        // wait-invariant, so it compiles to one prefix slot per job.
        Some(crate::compile::compile_expr(
            self.name.clone(),
            &self.function.to_expr(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_func_values() {
        assert_eq!(BaseFunc::Id.eval(7.0), 7.0);
        assert_eq!(BaseFunc::Log10.eval(1000.0), 3.0);
        assert_eq!(BaseFunc::Sqrt.eval(49.0), 7.0);
        assert_eq!(BaseFunc::Inv.eval(4.0), 0.25);
    }

    #[test]
    fn base_func_guards() {
        assert_eq!(BaseFunc::Log10.eval(0.0), 0.0); // log10(max(0,1))
        assert_eq!(BaseFunc::Log10.eval(-5.0), 0.0);
        assert_eq!(BaseFunc::Sqrt.eval(-4.0), 0.0);
        assert!(BaseFunc::Inv.eval(0.0).is_finite());
    }

    #[test]
    fn op_guards_division() {
        assert!(OpKind::Div.apply(1.0, 0.0).is_finite());
        assert_eq!(OpKind::Div.apply(6.0, 3.0), 2.0);
        // Sign of a tiny denominator is preserved.
        assert!(OpKind::Div.apply(1.0, -1e-20) < 0.0);
    }

    #[test]
    fn f1_matches_table3_formula() {
        let f1 = LearnedPolicy::f1();
        // r=100, n=8, s=1000: log10(100)*8 + 870*log10(1000) = 16 + 2610.
        let t = TaskView {
            processing_time: 100.0,
            cores: 8,
            submit: 1000.0,
            now: 1000.0,
        };
        assert!((f1.score(&t) - 2626.0).abs() < 1e-9);
    }

    #[test]
    fn f2_f3_f4_match_table3_formulas() {
        let t = TaskView {
            processing_time: 400.0,
            cores: 16,
            submit: 100.0,
            now: 100.0,
        };
        // F2: sqrt(400)*16 + 2.56e4*log10(100) = 320 + 51200.
        assert!((LearnedPolicy::f2().score(&t) - 51_520.0).abs() < 1e-6);
        // F3: 400*16 + 6.86e6*2 = 6400 + 13,720,000.
        assert!((LearnedPolicy::f3().score(&t) - 13_726_400.0).abs() < 1e-3);
        // F4: 400*4 + 5.30e5*2 = 1600 + 1,060,000.
        assert!((LearnedPolicy::f4().score(&t) - 1_061_600.0).abs() < 1e-6);
    }

    #[test]
    fn earlier_arrivals_get_priority_under_f1() {
        let early = TaskView {
            processing_time: 1e4,
            cores: 256,
            submit: 100.0,
            now: 1e5,
        };
        let late = TaskView {
            processing_time: 1.0,
            cores: 1,
            submit: 9e4,
            now: 1e5,
        };
        // The 870·log10(s) term dominates: the early big job outranks the
        // late tiny one.
        let f1 = LearnedPolicy::f1();
        assert!(f1.score(&early) < f1.score(&late));
    }

    #[test]
    fn smaller_tasks_get_priority_at_equal_arrival() {
        let f1 = LearnedPolicy::f1();
        let small = TaskView {
            processing_time: 10.0,
            cores: 2,
            submit: 500.0,
            now: 500.0,
        };
        let big = TaskView {
            processing_time: 1e4,
            cores: 128,
            submit: 500.0,
            now: 500.0,
        };
        assert!(f1.score(&small) < f1.score(&big));
    }

    #[test]
    fn precedence_add_then_mul() {
        // A + B*C with A=r, B=n, C=s: f(2,3,4) = 2 + 12 = 14.
        let f = NonlinearFunction::with_shape(
            BaseFunc::Id,
            OpKind::Add,
            BaseFunc::Id,
            OpKind::Mul,
            BaseFunc::Id,
        );
        assert_eq!(f.eval(2.0, 3.0, 4.0), 14.0);
    }

    #[test]
    fn precedence_mul_then_add() {
        // A*B + C: f(2,3,4) = 6 + 4 = 10.
        let f = NonlinearFunction::with_shape(
            BaseFunc::Id,
            OpKind::Mul,
            BaseFunc::Id,
            OpKind::Add,
            BaseFunc::Id,
        );
        assert_eq!(f.eval(2.0, 3.0, 4.0), 10.0);
    }

    #[test]
    fn precedence_left_assoc_div() {
        // A/B/C: (8/4)/2 = 1.
        let f = NonlinearFunction::with_shape(
            BaseFunc::Id,
            OpKind::Div,
            BaseFunc::Id,
            OpKind::Div,
            BaseFunc::Id,
        );
        assert_eq!(f.eval(8.0, 4.0, 2.0), 1.0);
    }

    #[test]
    fn precedence_add_then_div() {
        // A + B/C: 2 + 3/4 = 2.75.
        let f = NonlinearFunction::with_shape(
            BaseFunc::Id,
            OpKind::Add,
            BaseFunc::Id,
            OpKind::Div,
            BaseFunc::Id,
        );
        assert_eq!(f.eval(2.0, 3.0, 4.0), 2.75);
    }

    #[test]
    fn family_has_576_members() {
        let family = NonlinearFunction::enumerate_family();
        assert_eq!(family.len(), 576);
        // All distinct shapes.
        let mut seen = std::collections::HashSet::new();
        for f in &family {
            assert!(seen.insert((f.alpha, f.beta, f.gamma, f.op1, f.op2)));
        }
    }

    #[test]
    fn family_position_matches_enumeration_order() {
        for (i, f) in NonlinearFunction::enumerate_family().iter().enumerate() {
            assert_eq!(f.family_position(), i);
            // Coefficients must not affect the identity key.
            assert_eq!(f.with_coefficients([3.0, -1.0, 0.5]).family_position(), i);
        }
    }

    #[test]
    fn generated_policies_are_named_g_rank() {
        let f = NonlinearFunction::with_shape(
            BaseFunc::Id,
            OpKind::Mul,
            BaseFunc::Id,
            OpKind::Add,
            BaseFunc::Log10,
        );
        let p = LearnedPolicy::generated(3, f);
        assert_eq!(p.name(), "G3");
        assert_eq!(p.function(), &f);
    }

    #[test]
    fn eval_transformed_matches_eval_across_family() {
        for f in NonlinearFunction::enumerate_family() {
            let f = f.with_coefficients([1e-4, -2.0, 7.5]);
            for &(r, n, s) in &[(5.0, 1.0, 100.0), (20_000.0, 256.0, 0.0), (0.5, 16.0, 9e4)] {
                let direct = f.eval(r, n, s);
                let staged = f.eval_transformed(f.alpha.eval(r), f.beta.eval(n), f.gamma.eval(s));
                assert_eq!(direct.to_bits(), staged.to_bits(), "{f:?} at ({r},{n},{s})");
            }
        }
    }

    #[test]
    fn render_simplified_matches_paper_style() {
        let f1 = LearnedPolicy::f1();
        let s = f1.function().render_simplified();
        assert_eq!(s, "log10(r)*n + 8.700e2*log10(s)");
    }

    #[test]
    fn render_verbose_mentions_all_terms() {
        let f = NonlinearFunction::with_shape(
            BaseFunc::Inv,
            OpKind::Div,
            BaseFunc::Sqrt,
            OpKind::Mul,
            BaseFunc::Id,
        )
        .with_coefficients([1.5, -2.0, 0.25]);
        let s = f.render_verbose();
        assert!(s.contains("inv(r)"));
        assert!(s.contains("sqrt(n)"));
        assert!(s.contains("x s"));
        assert!(s.contains('/') && s.contains('*'));
    }

    #[test]
    fn no_nan_across_family_on_degenerate_inputs() {
        for f in NonlinearFunction::enumerate_family() {
            for &(r, n, s) in &[(0.0, 1.0, 0.0), (1e-12, 1.0, 1e-12), (1e9, 1e6, 1e9)] {
                assert!(!f.eval(r, n, s).is_nan(), "{f:?} at ({r},{n},{s})");
            }
        }
    }
}
