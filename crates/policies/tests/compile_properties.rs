//! RNG-driven property loops for the bytecode compiler: for *any*
//! expression tree and *any* task view, the compiled program must produce
//! the **bit-identical** score of the interpreted tree walk — and the
//! same holds for every built-in policy's hand-emitted or lowered
//! program. Same deterministic-RNG style as `mlreg`'s
//! `regression_properties`: fixed seeds, no flaky inputs.

use dynsched_policies::expr::{parse_expr, BinOp, Expr, Func, Var};
use dynsched_policies::{
    paper_lineup, BaseFunc, BatchScratch, CompiledPolicy, ExprPolicy, LearnedPolicy, MultiFactor,
    MultiFactorWeights, NonlinearFunction, OpKind, Policy, ScoreLanes, TaskView, Unicef, Wfp3,
};
use dynsched_simkit::Rng;

/// A random expression tree of bounded depth over all vars, funcs, and
/// operators, with constants spanning tiny/huge/negative magnitudes so
/// guards and the NaN sanitizer actually fire.
fn random_expr(rng: &mut Rng, depth: u32) -> Expr {
    let leaf = depth == 0 || rng.range_u64(0, 10) < 3;
    if leaf {
        return match rng.range_u64(0, 6) {
            0 => Expr::Var(Var::R),
            1 => Expr::Var(Var::N),
            2 => Expr::Var(Var::S),
            3 => Expr::Var(Var::W),
            _ => {
                let mag = rng.range_f64(-9.0, 9.0);
                let sign = if rng.range_u64(0, 1) == 0 { 1.0 } else { -1.0 };
                Expr::Const(sign * 10f64.powf(mag))
            }
        };
    }
    match rng.range_u64(0, 8) {
        0 => Expr::Neg(Box::new(random_expr(rng, depth - 1))),
        1 | 2 => {
            // range_u64 is inclusive on both ends.
            let f = Func::ALL[rng.range_u64(0, Func::ALL.len() as u64 - 1) as usize];
            Expr::Call(f, Box::new(random_expr(rng, depth - 1)))
        }
        k => {
            let op =
                [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Pow][(k as usize - 3) % 5];
            Expr::Bin(
                op,
                Box::new(random_expr(rng, depth - 1)),
                Box::new(random_expr(rng, depth - 1)),
            )
        }
    }
}

fn random_view(rng: &mut Rng) -> TaskView {
    // Mix well-behaved and degenerate shapes: zero runtimes, zero submit,
    // huge waits, serial and massive jobs.
    let r = match rng.range_u64(0, 4) {
        0 => 0.0,
        1 => rng.range_f64(0.0, 1.0),
        _ => rng.range_f64(1.0, 1e6),
    };
    let n = rng.range_u64(1, 1_000_000) as u32;
    let s = if rng.range_u64(0, 4) == 0 {
        0.0
    } else {
        rng.range_f64(0.0, 1e7)
    };
    let now = s + if rng.range_u64(0, 3) == 0 {
        0.0
    } else {
        rng.range_f64(0.0, 1e6)
    };
    TaskView {
        processing_time: r,
        cores: n,
        submit: s,
        now,
    }
}

#[test]
fn random_trees_compile_bit_identically() {
    let mut rng = Rng::new(0xB17C0DE);
    for case in 0..300u64 {
        let expr = random_expr(&mut rng, 5);
        let policy = ExprPolicy::from_expr(format!("rand-{case}"), expr.clone());
        let compiled = policy.compile().expect("expressions always compile");
        assert_eq!(
            compiled.time_dependent(),
            expr.uses_wait(),
            "case {case}: wait-dependence must be derived from the program"
        );
        for _ in 0..20 {
            let v = random_view(&mut rng);
            let interpreted = policy.score(&v);
            let comp = compiled.score(&v);
            assert_eq!(
                interpreted.to_bits(),
                comp.to_bits(),
                "case {case}: {expr} diverged at {v:?} ({interpreted} vs {comp})"
            );
        }
    }
}

/// Batch-score `views` at `now` through `scratch` and require, job by
/// job, the exact bits of the scalar residual over the same slot row.
/// `out` starts as NaN, so an element the kernel skipped cannot pass.
fn assert_batch_matches_scalar(
    compiled: &CompiledPolicy,
    views: &[TaskView],
    now: f64,
    scratch: &mut BatchScratch,
    what: &str,
) {
    let k = compiled.slot_count();
    let (mut r, mut n, mut s, mut slots) = (vec![], vec![], vec![], vec![]);
    let mut stack = Vec::new();
    let mut row = vec![0.0; k];
    for v in views {
        r.push(v.processing_time);
        n.push(v.cores as f64);
        s.push(v.submit);
        compiled.prefix_into(
            v.processing_time,
            v.cores as f64,
            v.submit,
            &mut row,
            &mut stack,
        );
        slots.extend_from_slice(&row);
    }
    let mut out = vec![f64::NAN; views.len()];
    compiled.score_batch(
        &mut out,
        ScoreLanes {
            r: &r,
            n: &n,
            s: &s,
            slots: &slots,
        },
        now,
        scratch,
    );
    for (i, v) in views.iter().enumerate() {
        let w = (now - s[i]).max(0.0);
        let scalar = compiled.residual_score(r[i], n[i], s[i], w, &slots[i * k..][..k], &mut stack);
        assert_eq!(
            out[i].to_bits(),
            scalar.to_bits(),
            "{what}, {} jobs, job {i}",
            views.len()
        );
        // ... which is the policy's score of that job at `now`.
        let at_now = TaskView { now, ..*v };
        assert_eq!(scalar.to_bits(), compiled.score(&at_now).to_bits());
    }
}

/// Queue lengths on every side of the batch kernel's chunk length (128):
/// empty, short, one job either side of one chunk, and of two.
fn boundary_lengths() -> impl Iterator<Item = usize> {
    (0..=39).chain(120..=140).chain(250..=270)
}

#[test]
fn random_trees_batch_score_matches_scalar_path() {
    let mut rng = Rng::new(0x5C0AE5);
    let mut scratch = BatchScratch::new();
    for len in boundary_lengths() {
        let expr = random_expr(&mut rng, 4);
        let compiled = ExprPolicy::from_expr("t", expr).compile().unwrap();
        let views: Vec<TaskView> = (0..len).map(|_| random_view(&mut rng)).collect();
        let now = views.iter().map(|v| v.now).fold(0.0, f64::max);
        assert_batch_matches_scalar(&compiled, &views, now, &mut scratch, "random tree");
    }
}

#[test]
fn batch_score_is_exact_across_chunk_boundaries_and_scratch_reuse() {
    // The programs the engine batch-scores: WFP's `Dup Dup Mul Mul` cube,
    // UNICEF, and two-slot residuals (the strided slot gather) — the
    // multifactor sum and an aging expression with two hoisted subtrees.
    let aging = parse_expr("log10(r)*n - 1.5e-2*w + 8.70e2*log10(s)").unwrap();
    let programs: Vec<CompiledPolicy> = [
        Box::new(Wfp3) as Box<dyn Policy>,
        Box::new(Unicef),
        Box::new(MultiFactor::default()),
        Box::new(ExprPolicy::from_expr("aging", aging)),
    ]
    .iter()
    .map(|p| p.compile().unwrap())
    .collect();
    assert!(programs[2].slot_count() > 1 && programs[3].slot_count() > 1);
    let mut rng = Rng::new(0xC4A2C);
    // One scratch for everything, longest queue first: a shorter call
    // that read a stale row of a longer one would diverge here. Every
    // fifth job arrives at `now`, so `w = 0` (WFP's `-0.0`) is in every
    // chunk.
    let mut scratch = BatchScratch::new();
    let mut lengths: Vec<usize> = boundary_lengths().collect();
    lengths.reverse();
    let now = 1e7; // no `random_view` submit is later
    for compiled in &programs {
        for &len in &lengths {
            let views: Vec<TaskView> = (0..len)
                .map(|i| {
                    let v = random_view(&mut rng);
                    let submit = if i % 5 == 0 { now } else { v.submit };
                    TaskView { submit, ..v }
                })
                .collect();
            assert_batch_matches_scalar(compiled, &views, now, &mut scratch, compiled.name());
        }
    }
}

#[test]
fn every_builtin_policy_compiles_bit_identically() {
    let mut rng = Rng::new(0xFACADE);
    let mut policies: Vec<Box<dyn Policy>> = paper_lineup();
    policies.push(Box::new(MultiFactor::default()));
    policies.push(Box::new(MultiFactor::new(MultiFactorWeights {
        age: 0.3,
        size: 2.0,
        shortness: -0.7,
    })));
    for name in ["LCFS", "LPT", "SAF", "LAF"] {
        policies.push(dynsched_policies::by_name(name).unwrap());
    }
    for policy in &policies {
        let compiled = policy
            .compile()
            .unwrap_or_else(|| panic!("{} must compile", policy.name()));
        assert_eq!(compiled.name(), policy.name());
        assert_eq!(
            compiled.time_dependent(),
            policy.time_dependent(),
            "{}: declared vs derived wait-dependence",
            policy.name()
        );
        for _ in 0..200 {
            let v = random_view(&mut rng);
            assert_eq!(
                policy.score(&v).to_bits(),
                compiled.score(&v).to_bits(),
                "{} diverged at {v:?}",
                policy.name()
            );
        }
    }
}

#[test]
fn whole_learned_family_compiles_bit_identically() {
    let mut rng = Rng::new(0x1EA12);
    for (i, shape) in NonlinearFunction::enumerate_family()
        .into_iter()
        .enumerate()
    {
        let f = shape.with_coefficients([
            rng.range_f64(-1e3, 1e3),
            rng.range_f64(-2.0, 2.0),
            rng.range_f64(-1e5, 1e5),
        ]);
        let policy = LearnedPolicy::new(format!("fam-{i}"), f);
        let compiled = policy.compile().unwrap();
        assert!(!compiled.time_dependent());
        // The whole function is wait-invariant: exactly one prefix slot.
        assert_eq!(compiled.slot_count(), 1, "fam-{i}");
        for _ in 0..5 {
            let v = random_view(&mut rng);
            assert_eq!(
                policy.score(&v).to_bits(),
                compiled.score(&v).to_bits(),
                "family member {i} ({f:?}) diverged at {v:?}"
            );
        }
    }
}

#[test]
fn to_expr_matches_eval_transformed_semantics() {
    // The learned→expr lowering is also the export path: parsing the
    // printed text back must preserve scores bit for bit.
    let mut rng = Rng::new(0xE11A);
    for base in BaseFunc::ALL {
        for op in OpKind::ALL {
            let f = NonlinearFunction::with_shape(base, op, BaseFunc::Log10, OpKind::Add, base)
                .with_coefficients([rng.range_f64(-10.0, 10.0), 1.5, -0.25]);
            let expr = f.to_expr();
            let reparsed = parse_expr(&expr.to_string()).unwrap();
            for _ in 0..20 {
                let v = random_view(&mut rng);
                let direct = f.eval(v.processing_time, v.cores as f64, v.submit);
                assert_eq!(direct.to_bits(), expr.eval(&v).to_bits(), "{f:?} at {v:?}");
                assert_eq!(
                    direct.to_bits(),
                    reparsed.eval(&v).to_bits(),
                    "{f:?} reparse at {v:?}"
                );
            }
        }
    }
}
