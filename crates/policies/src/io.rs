//! Saving and loading policy sets as plain text.
//!
//! A training run ends with fitted functions; a production scheduler needs
//! to load them later (and operators want to diff/review them). The format
//! is deliberately trivial — one `name = expression` per line, `#`
//! comments — and round-trips through the expression language, so a file
//! is exactly what the artifact's enumeration output looks like after the
//! coefficients are folded in:
//!
//! ```text
//! # learned 2026-06-12 from curie windows
//! G1 = log10(r)*n + 8.70e2*log10(s)
//! G2 = sqrt(r)*n + 2.56e4*log10(s)
//! ```

use crate::expr::{ExprPolicy, ParseError};
use crate::learned::LearnedPolicy;
use crate::policy::Policy;
use std::fmt::Write as _;

/// Error from loading a policy file.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyFileError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for PolicyFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "policy file error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for PolicyFileError {}

impl From<(usize, ParseError)> for PolicyFileError {
    fn from((line, e): (usize, ParseError)) -> Self {
        Self {
            line,
            message: e.to_string(),
        }
    }
}

/// Parse a policy file into named expression policies, preserving order.
/// A name may be defined once.
pub fn load_policies(input: &str) -> Result<Vec<ExprPolicy>, PolicyFileError> {
    let mut out: Vec<ExprPolicy> = Vec::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, source)) = line.split_once('=') else {
            return Err(PolicyFileError {
                line: lineno + 1,
                message: "expected `name = expression`".to_string(),
            });
        };
        let name = name.trim();
        if name.is_empty() {
            return Err(PolicyFileError {
                line: lineno + 1,
                message: "empty policy name".to_string(),
            });
        }
        // Every consumer looks a policy up by name and would reach only the first.
        if out.iter().any(|p| p.name() == name) {
            return Err(PolicyFileError {
                line: lineno + 1,
                message: format!("policy name `{name}` is already defined"),
            });
        }
        let policy = ExprPolicy::parse(name, source.trim())
            .map_err(|e| PolicyFileError::from((lineno + 1, e)))?;
        out.push(policy);
    }
    Ok(out)
}

/// Serialize named expression policies to the file format.
pub fn save_policies<'a>(policies: impl IntoIterator<Item = &'a ExprPolicy>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# dynsched policy set (name = expression, lower score runs first)"
    );
    for p in policies {
        let _ = writeln!(out, "{} = {}", p.name(), p.expr());
    }
    out
}

/// Export learned policies as a policy file. Each function is printed as
/// its [`to_expr`](crate::learned::NonlinearFunction::to_expr) lowering,
/// whose shortest round-trip constants and parentheses load back to the
/// function's scores bit for bit.
pub fn save_learned<'a>(policies: impl IntoIterator<Item = &'a LearnedPolicy>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# dynsched learned policies (fitted nonlinear functions)"
    );
    for p in policies {
        let _ = writeln!(out, "{} = {}", p.name(), p.function().to_expr());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task_view::TaskView;

    fn view(r: f64, n: u32, s: f64) -> TaskView {
        TaskView {
            processing_time: r,
            cores: n,
            submit: s,
            now: s,
        }
    }

    #[test]
    fn load_parses_names_and_expressions() {
        let file = "\
# a comment

F1 = log10(r)*n + 8.70e2*log10(s)
mine = w / (r + 1)
";
        let policies = load_policies(file).unwrap();
        assert_eq!(policies.len(), 2);
        assert_eq!(policies[0].name(), "F1");
        assert_eq!(policies[1].name(), "mine");
        let t = view(100.0, 8, 1000.0);
        assert!((policies[0].score(&t) - 2626.0).abs() < 1e-9);
    }

    #[test]
    fn save_load_roundtrip() {
        let originals = load_policies("a = r*n + s\nb = -(w/r)^3 * n\n").unwrap();
        let text = save_policies(&originals);
        let reloaded = load_policies(&text).unwrap();
        assert_eq!(reloaded.len(), 2);
        let t = view(123.0, 7, 456.0);
        for (o, r) in originals.iter().zip(&reloaded) {
            assert_eq!(o.name(), r.name());
            assert!((o.score(&t) - r.score(&t)).abs() < 1e-9);
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = load_policies("ok = r\nbroken line\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = load_policies(" = r\n").unwrap_err();
        assert!(err.message.contains("empty policy name"));
        let err = load_policies("x = bogus(r)\n").unwrap_err();
        assert!(err.message.contains("bogus"));
        let err = load_policies("# two\nx = r\ny = n\nx = s\n").unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("`x` is already defined"));
    }

    #[test]
    fn learned_policies_export_and_evaluate_identically() {
        use crate::learned::NonlinearFunction;
        use dynsched_simkit::Rng;
        // Table 3, then all 576 shapes with coefficients of random sign and
        // magnitude.
        let mut rng = Rng::new(0x10E);
        let mut coefficient = || {
            let c = 10f64.powf(rng.range_f64(-9.0, 9.0)) * rng.range_f64(0.5, 1.0);
            if rng.chance(0.5) {
                -c
            } else {
                c
            }
        };
        let mut policies = LearnedPolicy::table3();
        for (i, shape) in NonlinearFunction::enumerate_family()
            .into_iter()
            .enumerate()
        {
            let c = [coefficient(), coefficient(), coefficient()];
            policies.push(LearnedPolicy::new(
                format!("S{i}"),
                shape.with_coefficients(c),
            ));
        }
        let reloaded = load_policies(&save_learned(&policies)).unwrap();
        assert_eq!(reloaded.len(), policies.len());
        for (learned, reloaded) in policies.iter().zip(&reloaded) {
            assert_eq!(learned.name(), reloaded.name());
            for &(r, n, s) in &[
                (0.0, 1u32, 0.0),
                (0.5, 1, 1e-13),
                (100.0, 8, 1_000.0),
                (5e4, 256, 1.2e6),
            ] {
                let t = view(r, n, s);
                let (a, b) = (learned.score(&t), reloaded.score(&t));
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}: {a} vs {b} at ({r},{n},{s})",
                    learned.name()
                );
            }
        }
    }

    #[test]
    fn exported_division_shapes_roundtrip() {
        // A ÷ shape exercises the guard-preserving parenthesisation.
        use crate::learned::{BaseFunc, NonlinearFunction, OpKind};
        let f = NonlinearFunction::with_shape(
            BaseFunc::Id,
            OpKind::Div,
            BaseFunc::Sqrt,
            OpKind::Add,
            BaseFunc::Log10,
        )
        .with_coefficients([2.0, 4.0, -3.0]);
        let learned = LearnedPolicy::new("div", f);
        let reloaded = &load_policies(&save_learned([&learned])).unwrap()[0];
        let t = view(144.0, 16, 10_000.0);
        assert!((learned.score(&t) - reloaded.score(&t)).abs() < 1e-9);
    }
}
