//! Training observations: the `score(r, n, s)` distribution.
//!
//! The simulation stage emits one observation per task of every `Q` set:
//! `(runtime, #processors, submit time, score)` — the artifact stores them
//! as CSV lines in exactly that order (`score-distribution.csv`). This
//! module is the in-memory form plus the CSV codec, and carries the Eq. 4
//! weighting (`w = r·n`) used by the regression.

use dynsched_policies::learned::BaseFunc;
use std::fmt::Write as _;

/// One scheduling-behaviour observation of one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Processing time `r` (seconds).
    pub runtime: f64,
    /// Requested cores `n`.
    pub cores: f64,
    /// Arrival time `s` (seconds).
    pub submit: f64,
    /// Score from Eq. 3 (≈ 1/|Q| on average; lower = better to run first).
    pub score: f64,
}

impl Observation {
    /// The observation with these fields, in the artifact's CSV order
    /// `[runtime, cores, submit, score]`, if each is admissible: finite,
    /// and runtime, core count and submit time non-negative. One `nan`
    /// makes every fit's cost non-finite and the ranking returns untouched
    /// initial coefficients, and a negative Eq. 4 weight `r·n` changes
    /// sign — silently wrong policies either way. Otherwise the position
    /// of the first field that is not admissible, and why.
    pub fn from_fields(fields: [f64; 4]) -> Result<Self, (usize, &'static str)> {
        for (i, &value) in fields.iter().enumerate() {
            if !value.is_finite() {
                return Err((i, "not a finite number"));
            }
            if value < 0.0 && i != 3 {
                return Err((i, "negative"));
            }
        }
        let [runtime, cores, submit, score] = fields;
        Ok(Self {
            runtime,
            cores,
            submit,
            score,
        })
    }

    /// The Eq. 4 regression weight `r·n`: big tasks must be fitted well
    /// because misranking them blocks many small tasks.
    pub fn weight(&self) -> f64 {
        self.runtime * self.cores
    }
}

/// A collection of observations (the pooled `score(r,n,s)` distribution).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingSet {
    observations: Vec<Observation>,
}

impl TrainingSet {
    /// Wrap a vector of observations.
    pub fn new(observations: Vec<Observation>) -> Self {
        Self { observations }
    }

    /// The observations.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Append the observations of another set (pooling multiple `(S,Q)`
    /// tuples, the artifact's `gather_data.py`).
    pub fn extend_from(&mut self, other: &TrainingSet) {
        self.observations.extend_from_slice(&other.observations);
    }

    /// Serialize in the artifact's CSV format:
    /// `runtime,#processors,submit time,score` per line, no header.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for o in &self.observations {
            let _ = writeln!(out, "{},{},{},{}", o.runtime, o.cores, o.submit, o.score);
        }
        out
    }

    /// Parse the artifact's CSV format. Blank lines are skipped; a line
    /// starting with `#` is treated as a comment. Every line must be an
    /// observation [`Observation::from_fields`] admits.
    pub fn from_csv(input: &str) -> Result<Self, CsvError> {
        let mut observations = Vec::new();
        for (lineno, line) in input.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if fields.len() != 4 {
                return Err(CsvError {
                    line: lineno + 1,
                    message: format!("expected 4 comma-separated fields, found {}", fields.len()),
                });
            }
            let reject = |i: usize, why: &dyn std::fmt::Display| CsvError {
                line: lineno + 1,
                message: format!(
                    "field {} ({}, {:?}): {why}",
                    i + 1,
                    ["runtime", "cores", "submit", "score"][i],
                    fields[i]
                ),
            };
            let mut values = [0.0; 4];
            for (i, value) in values.iter_mut().enumerate() {
                *value = fields[i].parse().map_err(|e| reject(i, &e))?;
            }
            let observation =
                Observation::from_fields(values).map_err(|(i, why)| reject(i, &why))?;
            observations.push(observation);
        }
        Ok(Self { observations })
    }
}

/// Pre-transformed view of a [`TrainingSet`] for the enumeration sweep.
///
/// Every family member evaluates `c1·α(r) op1 c2·β(n) op2 c3·γ(s)`; the
/// base-function values `α(r), β(n), γ(s)` do not depend on the
/// coefficients being fitted, so the optimizer recomputes transcendentals
/// (`log10`, `sqrt`) thousands of times for values that never change. A
/// `FeatureTable` evaluates all four base functions on all three variables
/// of every observation **once** (12 dense columns), after which a
/// residual pass is pure coefficient arithmetic over cached slices —
/// bit-identical to evaluating on the raw observations, because
/// [`eval`](dynsched_policies::learned::NonlinearFunction::eval) routes
/// through the same
/// [`eval_transformed`](dynsched_policies::learned::NonlinearFunction::eval_transformed)
/// combine step.
///
/// Build it once per training set and share it (immutably) across worker
/// threads; it is the read-only half of the enumeration's workspace-reuse
/// contract.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureTable {
    /// `runtime[b][i] = BaseFunc::ALL[b].eval(obs[i].runtime)`.
    runtime: [Vec<f64>; 4],
    /// Same for the core count `n`.
    cores: [Vec<f64>; 4],
    /// Same for the submit time `s`.
    submit: [Vec<f64>; 4],
    scores: Vec<f64>,
    weights: Vec<f64>,
}

impl FeatureTable {
    /// Evaluate every base function on every observation of `training`.
    pub fn build(training: &TrainingSet) -> Self {
        let obs = training.observations();
        let column = |pick: &dyn Fn(&Observation) -> f64| -> [Vec<f64>; 4] {
            BaseFunc::ALL.map(|base| obs.iter().map(|o| base.eval(pick(o))).collect())
        };
        Self {
            runtime: column(&|o| o.runtime),
            cores: column(&|o| o.cores),
            submit: column(&|o| o.submit),
            scores: obs.iter().map(|o| o.score).collect(),
            weights: obs.iter().map(Observation::weight).collect(),
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// `α(r)` for every observation.
    pub fn alpha(&self, base: BaseFunc) -> &[f64] {
        &self.runtime[base.index()]
    }

    /// `β(n)` for every observation.
    pub fn beta(&self, base: BaseFunc) -> &[f64] {
        &self.cores[base.index()]
    }

    /// `γ(s)` for every observation.
    pub fn gamma(&self, base: BaseFunc) -> &[f64] {
        &self.submit[base.index()]
    }

    /// The observed scores.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// The Eq. 4 weights `r·n`, one per observation.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// CSV parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "training CSV error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for CsvError {}

#[cfg(test)]
mod tests {
    use super::*;

    const ARTIFACT_SAMPLE: &str = "\
50.0,8.0,88224.0,0.0347251055192
3.0,4.0,88302.0,0.0292281817457
7298.0,58.0,88334.0,0.0350921606481
";

    #[test]
    fn parses_artifact_format() {
        let ts = TrainingSet::from_csv(ARTIFACT_SAMPLE).unwrap();
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.observations()[0].runtime, 50.0);
        assert_eq!(ts.observations()[2].cores, 58.0);
        assert!((ts.observations()[1].score - 0.0292281817457).abs() < 1e-15);
    }

    #[test]
    fn roundtrip() {
        let ts = TrainingSet::from_csv(ARTIFACT_SAMPLE).unwrap();
        let ts2 = TrainingSet::from_csv(&ts.to_csv()).unwrap();
        assert_eq!(ts, ts2);
    }

    #[test]
    fn skips_blanks_and_comments() {
        let src = "# header\n\n1,2,3,0.5\n";
        let ts = TrainingSet::from_csv(src).unwrap();
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn reports_bad_lines() {
        let err = TrainingSet::from_csv("1,2,3\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = TrainingSet::from_csv("1,2,3,x\n").unwrap_err();
        assert!(err.message.contains("field 4"));
    }

    #[test]
    fn rejects_values_that_would_poison_every_fit() {
        // Non-finite in any field, negative in the three that make the
        // Eq. 4 weight and the features; the error names line and field.
        let names = ["runtime", "cores", "submit", "score"];
        for (field, name) in names.iter().enumerate() {
            for bad in ["nan", "NaN", "inf", "-inf", "infinity", "1e999"] {
                let mut row = ["3", "4", "200", "0.02"];
                row[field] = bad;
                let src = format!("1,1,1,0.1\n{}\n", row.join(","));
                let err = TrainingSet::from_csv(&src).unwrap_err();
                assert_eq!(err.line, 2, "{src:?}");
                assert!(
                    err.message.contains(&format!("field {}", field + 1)),
                    "{err}"
                );
                assert!(err.message.contains(name), "{err}");
            }
            let mut row = ["3", "4", "200", "0.02"];
            row[field] = "-1";
            let parsed = TrainingSet::from_csv(&row.join(","));
            if *name == "score" {
                assert_eq!(parsed.unwrap().observations()[0].score, -1.0);
            } else {
                let err = parsed.unwrap_err();
                assert!(
                    err.message.contains(name) && err.message.contains("negative"),
                    "{err}"
                );
            }
        }
        // Zero is a value, not a sign: the first job of a window has s = 0.
        assert_eq!(
            TrainingSet::from_csv("0,0,0,0\n-0,1,-0.0,0\n")
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn weight_is_area() {
        let o = Observation {
            runtime: 100.0,
            cores: 8.0,
            submit: 0.0,
            score: 0.03,
        };
        assert_eq!(o.weight(), 800.0);
    }

    #[test]
    fn feature_table_caches_every_base_function() {
        let ts = TrainingSet::from_csv(ARTIFACT_SAMPLE).unwrap();
        let table = FeatureTable::build(&ts);
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
        for (i, o) in ts.observations().iter().enumerate() {
            for base in BaseFunc::ALL {
                assert_eq!(
                    table.alpha(base)[i].to_bits(),
                    base.eval(o.runtime).to_bits()
                );
                assert_eq!(table.beta(base)[i].to_bits(), base.eval(o.cores).to_bits());
                assert_eq!(
                    table.gamma(base)[i].to_bits(),
                    base.eval(o.submit).to_bits()
                );
            }
            assert_eq!(table.scores()[i], o.score);
            assert_eq!(table.weights()[i], o.weight());
        }
    }

    #[test]
    fn extend_pools_sets() {
        let mut a = TrainingSet::from_csv("1,1,1,0.1\n").unwrap();
        let b = TrainingSet::from_csv("2,2,2,0.2\n").unwrap();
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
    }
}
