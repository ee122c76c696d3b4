//! Compiled policy kernels: flat postfix bytecode with a wait-invariant
//! prefix split and batch queue re-scoring.
//!
//! Every in-tree policy is ultimately a small arithmetic function over the
//! task variables `r`/`n`/`s`/`w`. The interpreted paths — the boxed
//! [`Expr`] tree walk, the [`NonlinearFunction`] evaluator, the multifactor
//! sum — are re-run per queued job at every rescheduling event behind a
//! `dyn Policy` vtable call, which makes score evaluation the last
//! interpreted hot path in the engine. This module lowers each of them into
//! a [`CompiledPolicy`]: a flat postfix program executed by a non-recursive
//! stack machine, split into
//!
//! * a **wait-invariant prefix** — every maximal subexpression that depends
//!   only on `r`, `n`, `s`, constant for a job's whole queue lifetime. The
//!   scheduler evaluates it **once per enqueue** and stores the resulting
//!   slot values in the job's row of a queue-parallel slot lane; and
//! * a **time-dependent residual** — the remaining ops, which read the
//!   precomputed slots plus the waiting time `w`. Rescheduling events
//!   re-run only the residual, over the whole queue in one pass
//!   ([`CompiledPolicy::score_batch`]) with no vtable dispatch, no tree
//!   walk, and no per-job [`TaskView`] construction.
//!
//! # The bit-identity contract
//!
//! Compilation must never change a score by even one ULP: queue order
//! (and therefore every simulation result) is a function of exact score
//! bits. The compiler guarantees this by construction —
//!
//! * every opcode reuses the interpreted path's own guard code
//!   ([`Func::eval`] for the guarded unary functions, [`BinOp::eval`] for
//!   guarded division and sanitized `powf`), so a compiled program performs
//!   the identical float operations in the identical order;
//! * the prefix split only *memoizes* subtree values — a slot holds the
//!   exact (possibly still-NaN) intermediate value the tree walk would
//!   have produced at that node, and the final NaN sanitizer stays at the
//!   end of the residual, exactly where [`Expr::eval`] applies it;
//! * policies whose interpreted form performs unguarded arithmetic (the
//!   multifactor factors, WFP3/UNICEF ratios) compile to dedicated raw
//!   opcodes rather than the guarded ones.
//!
//! The `compile_properties` regression suite pins compiled-vs-interpreted
//! bit identity over RNG-driven random expression trees and every built-in
//! policy; the scheduler's `differential` harness pins whole simulations
//! (every engine path's `[compiled]` twin against the interpreted oracle).
//!
//! # Chunked columnar execution
//!
//! [`CompiledPolicy::score_batch`] does not interpret the residual once
//! per job. `CompiledPolicy::from_parts` lowers the residual's postfix
//! ops once into **register steps** `dst ← op(a, b)`, and the kernel runs
//! the steps once per **chunk** of up to `CHUNK` consecutive jobs, each
//! step one plain slice sweep:
//!
//! * a source is a chunk row of [`BatchScratch`], an input lane (`r`,
//!   `n`, `s`, or the slot lane when each job has one slot) or a
//!   constant, so `Load*` and `Dup` are renamings and emit no sweep.
//!   Loading `w` (the clamped `now - s`) and a slot of a multi-slot row
//!   are one sweep each;
//! * a result reuses an operand's row in place once nothing deeper on
//!   the postfix stack names it, so the rows stay few and in L1; and the
//!   last step writes the caller's `out` chunk itself. WFP runs 6
//!   sweeps, UNI 3.
//!
//! The ragged last chunk is the same loop with a shorter row, so there is
//! one execution path at every queue length. This is a pure execution
//! reordering: element `j` of a step's destination holds exactly the
//! value the scalar machine computes at that op for job `base + j`, and
//! every per-element operation is the *same scalar call* ([`Func::eval`],
//! [`BinOp::eval`], the raw opcodes) with the same operand order (WFP's
//! `x * (x * x)` included) — NaN propagation, the division clamp,
//! `max`/`clamp01` guards and the final NaN sanitizer all behave
//! identically per element, so chunked and scalar execution are
//! bit-identical job by job at any vector width (the `compile_properties`
//! batch property pins this across chunk boundaries, ragged tails and
//! scratch reuse).
//!
//! **The head.** While a chunk's scores are still in L1, the kernel folds
//! them into a search for the queue's head: the first position of the
//! least score under `(f64::total_cmp, position)`, compared as
//! [`order_key`]s. A chunk's least key is a plain `min` reduction, and
//! only the first chunk that holds the least key is scanned again, once,
//! for its position. `score_batch` returns that position, and
//! [`least_position`] is the same search over a score lane alone — the
//! engine's later heads of a pass.
//!
//! **Two copies.** Both loops — the chunk loop with its steps and head,
//! and the least-key search — are one `#[inline(always)]` body each,
//! compiled twice: as built, and under `#[target_feature(enable =
//! "avx2")]`, four `f64` or `i64` lanes a vector. One
//! `is_x86_feature_detected!("avx2")` check picks the copy; other
//! architectures keep the portable one. No `fma` is enabled (nor does Rust
//! ever contract `a*b + c`), and every element still goes through its own
//! scalar call, so the copies agree bit for bit (the lib test
//! `both_kernel_copies_score_and_pick_the_head_bit_for_bit`). On a 2-vCPU
//! Xeon with AVX2, `paperbench`'s `replay_timedep` went from 1 014 to
//! 697.8 ns an event against the stack machine (0.688×, medians of ten
//! alternating pairs; 0.760× in a second ten).
//!
//! Not taken (same host):
//!
//! * **AVX2 rows alone** — the stack machine's sweeps four lanes wide,
//!   heads still scanned apart: ≈ 0.95× of the engine's time in a
//!   throwaway prototype. The head scans were ≈ 30 % of it, and the
//!   division that WFP and UNI both sweep costs the same per element at
//!   any vector width.
//! * **Per-lane (key, position) minima** for the head: the coupled
//!   `min` and position do not vectorize, and the search read 1.38 ns a
//!   score (1.54 portable) against 0.23 for a `min` reduction plus a
//!   rescan (512 scores).
//! * **[`order_key`] as `total_cmp`'s shift-and-xor**: finding the sign
//!   takes a 64-bit compare, which SSE2 lacks, so the portable copy read
//!   1.03–1.25 ns a score against 0.78–0.97 for the scalar `min_by_key`
//!   scan it replaces. As a select on the sign it reads 0.62–0.82
//!   against 0.89–1.05, and the same under AVX2.
//!
//! [`Expr`]: crate::expr::Expr
//! [`NonlinearFunction`]: crate::learned::NonlinearFunction

use crate::expr::{BinOp, Expr, Func, Var};
use crate::policy::Policy;
use crate::task_view::TaskView;
use std::fmt;

/// Jobs swept per register step by the batch kernel: long enough to
/// amortize the step dispatch, short enough that a residual's rows stay
/// in L1 (1 KiB a row). Throughput only — scores and the head are
/// bit-identical at any chunk length.
const CHUNK: usize = 128;

/// Reusable scratch for [`CompiledPolicy::score_batch`]: the register
/// rows of one chunk, `CHUNK` values each. Construct once per worker and
/// hand to every batch call — after warm-up the kernel performs no
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    rows: Vec<f64>,
}

impl BatchScratch {
    /// Fresh, empty scratch. Buffers grow on first use and are retained.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One stack-machine instruction. Binary ops pop `b` then `a` and push
/// `op(a, b)`, so postfix emission preserves the tree walk's operand
/// order exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum OpCode {
    /// Push a constant.
    Const(f64),
    /// Push the decision-mode processing time `r`.
    LoadR,
    /// Push the requested core count `n` (as f64).
    LoadN,
    /// Push the arrival time `s`.
    LoadS,
    /// Push the waiting time `w` (never valid in a prefix program).
    LoadW,
    /// Push precomputed wait-invariant slot `k` (residual programs only).
    LoadSlot(u32),
    /// Negate the top of stack.
    Neg,
    /// Duplicate the top of stack.
    Dup,
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// Guarded division — [`BinOp::Div`]'s exact denominator clamp.
    Div,
    /// Raw IEEE division (multifactor factors, WFP3/UNICEF ratios).
    DivRaw,
    /// NaN-sanitized power — [`BinOp::Pow`]'s exact semantics.
    Pow,
    /// `a.max(b)` (the WFP3/UNICEF `max(x, c)` guards).
    Max,
    /// Guarded unary function — [`Func::eval`]'s exact code.
    Call(Func),
    /// `x.clamp(0.0, 1.0)` (the multifactor factor normalization).
    Clamp01,
    /// Map NaN to `f64::MAX` — the final sanitizer of [`Expr::eval`] and
    /// `NonlinearFunction::eval_transformed`.
    NanToMax,
}

impl OpCode {
    /// Stack effect: values consumed and produced.
    fn arity(self) -> (usize, usize) {
        match self {
            OpCode::Const(_)
            | OpCode::LoadR
            | OpCode::LoadN
            | OpCode::LoadS
            | OpCode::LoadW
            | OpCode::LoadSlot(_) => (0, 1),
            OpCode::Neg | OpCode::Call(_) | OpCode::Clamp01 | OpCode::NanToMax => (1, 1),
            OpCode::Dup => (1, 2),
            OpCode::Add
            | OpCode::Sub
            | OpCode::Mul
            | OpCode::Div
            | OpCode::DivRaw
            | OpCode::Pow
            | OpCode::Max => (2, 1),
        }
    }
}

/// A validated postfix program: executing `ops` on an empty stack leaves
/// exactly `outputs` values. `max_stack` bounds the stack depth so the
/// evaluation scratch can be reserved up front.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Program {
    ops: Vec<OpCode>,
    outputs: usize,
    max_stack: usize,
}

impl Program {
    /// Validate and wrap `ops`.
    ///
    /// # Panics
    /// Panics if the program would underflow the stack, references a slot
    /// `>= slot_count`, or does not leave exactly `outputs` values — all
    /// programmer errors in an emitter, not runtime conditions.
    fn new(ops: Vec<OpCode>, outputs: usize, slot_count: usize, allow_wait: bool) -> Self {
        let mut depth = 0usize;
        let mut max_stack = 0usize;
        for op in &ops {
            if let OpCode::LoadSlot(k) = op {
                assert!(
                    (*k as usize) < slot_count,
                    "program references slot {k} of {slot_count}"
                );
            }
            assert!(
                allow_wait || !matches!(op, OpCode::LoadW),
                "wait-invariant program loads w"
            );
            let (takes, gives) = op.arity();
            assert!(depth >= takes, "stack underflow at {op:?}");
            depth = depth - takes + gives;
            max_stack = max_stack.max(depth);
        }
        assert_eq!(
            depth, outputs,
            "program leaves {depth} values, not {outputs}"
        );
        Self {
            ops,
            outputs,
            max_stack,
        }
    }

    /// Execute on `stack` (cleared first), leaving `self.outputs` values.
    #[inline]
    fn exec(&self, r: f64, n: f64, s: f64, w: f64, slots: &[f64], stack: &mut Vec<f64>) {
        stack.clear();
        stack.reserve(self.max_stack);
        for op in &self.ops {
            match *op {
                OpCode::Const(c) => stack.push(c),
                OpCode::LoadR => stack.push(r),
                OpCode::LoadN => stack.push(n),
                OpCode::LoadS => stack.push(s),
                OpCode::LoadW => stack.push(w),
                OpCode::LoadSlot(k) => stack.push(slots[k as usize]),
                OpCode::Neg => {
                    let a = stack.last_mut().expect("validated");
                    *a = -*a;
                }
                OpCode::Dup => stack.push(*stack.last().expect("validated")),
                OpCode::Call(f) => {
                    let a = stack.last_mut().expect("validated");
                    *a = f.eval(*a);
                }
                OpCode::Clamp01 => {
                    let a = stack.last_mut().expect("validated");
                    *a = a.clamp(0.0, 1.0);
                }
                OpCode::NanToMax => {
                    let a = stack.last_mut().expect("validated");
                    if a.is_nan() {
                        *a = f64::MAX;
                    }
                }
                OpCode::Add => Self::bin(stack, |a, b| a + b),
                OpCode::Sub => Self::bin(stack, |a, b| a - b),
                OpCode::Mul => Self::bin(stack, |a, b| a * b),
                OpCode::Div => Self::bin(stack, |a, b| BinOp::Div.eval(a, b)),
                OpCode::DivRaw => Self::bin(stack, |a, b| a / b),
                OpCode::Pow => Self::bin(stack, |a, b| BinOp::Pow.eval(a, b)),
                OpCode::Max => Self::bin(stack, f64::max),
            }
        }
        debug_assert_eq!(stack.len(), self.outputs);
    }

    #[inline]
    fn bin(stack: &mut Vec<f64>, f: impl FnOnce(f64, f64) -> f64) {
        let b = stack.pop().expect("validated");
        let a = stack.last_mut().expect("validated");
        *a = f(*a, b);
    }
}

/// Where a register step reads one operand: a chunk row of
/// [`BatchScratch`], an input lane, or a constant. Loads of lanes and
/// constants (and `Dup`) are only renamings, so they emit no sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Src {
    Row(usize),
    R,
    N,
    S,
    /// The slot lane itself, when each job has exactly one slot.
    Slot,
    Const(f64),
}

/// Where a register step writes: a chunk row, or the caller's `out`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dst {
    Row(usize),
    Out,
}

/// The residual's element-wise unary opcodes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Unary {
    Neg,
    Call(Func),
    Clamp01,
    NanToMax,
    /// Only ever the last step, when the result is a lane or a constant.
    Copy,
}

/// The residual's element-wise binary opcodes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Binary {
    Add,
    Sub,
    Mul,
    Div,
    DivRaw,
    Pow,
    Max,
}

/// One sweep of the batch kernel over a chunk: `dst ← op(a, b)`
/// element by element, with the scalar machine's call for `op` and its
/// operand order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// `dst ← max(now - s, 0)`, the [`TaskView::wait`] clamp.
    Wait(Dst),
    /// `dst ← slot k` of a job's row of `stride` slots.
    Gather(u32, Dst),
    Unary(Unary, Src, Dst),
    Binary(Binary, Src, Src, Dst),
}

impl Step {
    /// The operands a step reads, `a` first.
    fn sources(self) -> [Option<Src>; 2] {
        match self {
            Step::Wait(_) | Step::Gather(..) => [None, None],
            Step::Unary(_, a, _) => [Some(a), None],
            Step::Binary(_, a, b, _) => [Some(a), Some(b)],
        }
    }

    fn dst(self) -> Dst {
        match self {
            Step::Wait(d) | Step::Gather(_, d) | Step::Unary(.., d) | Step::Binary(.., d) => d,
        }
    }

    fn with_dst(self, d: Dst) -> Step {
        match self {
            Step::Wait(_) => Step::Wait(d),
            Step::Gather(k, _) => Step::Gather(k, d),
            Step::Unary(op, a, _) => Step::Unary(op, a, d),
            Step::Binary(op, a, b, _) => Step::Binary(op, a, b, d),
        }
    }
}

/// A residual lowered to register steps, and the number of chunk rows
/// they use.
#[derive(Debug, Clone, PartialEq)]
struct Steps {
    steps: Vec<Step>,
    rows: usize,
}

impl Steps {
    /// Lower a validated one-output postfix program. The postfix stack is
    /// replayed symbolically, each entry naming where its value lives. An
    /// opcode's result reuses an operand's row (`a`'s before `b`'s) once
    /// no entry left on the stack names that row, and otherwise takes the
    /// lowest row no entry names. The last step writes `out`; a result
    /// that is a lane or a constant gets one copy step.
    fn lower(program: &Program, slot_count: usize) -> Self {
        let mut stack: Vec<Src> = Vec::with_capacity(program.max_stack);
        let mut steps: Vec<Step> = Vec::new();
        let mut rows = 0;
        for &op in &program.ops {
            let pop = |stack: &mut Vec<Src>| stack.pop().expect("validated");
            let binary = |op, stack: &mut Vec<Src>| {
                let b = pop(stack);
                Step::Binary(op, pop(stack), b, Dst::Out)
            };
            let step = match op {
                OpCode::Const(_) | OpCode::LoadR | OpCode::LoadN | OpCode::LoadS | OpCode::Dup => {
                    let src = match op {
                        OpCode::Const(c) => Src::Const(c),
                        OpCode::LoadR => Src::R,
                        OpCode::LoadN => Src::N,
                        OpCode::LoadS => Src::S,
                        _ => *stack.last().expect("validated"),
                    };
                    stack.push(src);
                    continue;
                }
                OpCode::LoadSlot(_) if slot_count == 1 => {
                    stack.push(Src::Slot);
                    continue;
                }
                OpCode::LoadSlot(k) => Step::Gather(k, Dst::Out),
                OpCode::LoadW => Step::Wait(Dst::Out),
                OpCode::Neg => Step::Unary(Unary::Neg, pop(&mut stack), Dst::Out),
                OpCode::Call(f) => Step::Unary(Unary::Call(f), pop(&mut stack), Dst::Out),
                OpCode::Clamp01 => Step::Unary(Unary::Clamp01, pop(&mut stack), Dst::Out),
                OpCode::NanToMax => Step::Unary(Unary::NanToMax, pop(&mut stack), Dst::Out),
                OpCode::Add => binary(Binary::Add, &mut stack),
                OpCode::Sub => binary(Binary::Sub, &mut stack),
                OpCode::Mul => binary(Binary::Mul, &mut stack),
                OpCode::Div => binary(Binary::Div, &mut stack),
                OpCode::DivRaw => binary(Binary::DivRaw, &mut stack),
                OpCode::Pow => binary(Binary::Pow, &mut stack),
                OpCode::Max => binary(Binary::Max, &mut stack),
            };
            let reusable = step.sources().into_iter().find_map(|src| match src {
                Some(Src::Row(r)) if !stack.contains(&Src::Row(r)) => Some(r),
                _ => None,
            });
            let row = reusable.unwrap_or_else(|| {
                let free = (0..).find(|&r| !stack.contains(&Src::Row(r)));
                free.expect("a stack names finitely many rows")
            });
            rows = rows.max(row + 1);
            steps.push(step.with_dst(Dst::Row(row)));
            stack.push(Src::Row(row));
        }
        let result = stack.pop().expect("validated: one output");
        match (steps.last_mut(), result) {
            (Some(last), Src::Row(r)) if last.dst() == Dst::Row(r) => {
                *last = last.with_dst(Dst::Out)
            }
            _ => steps.push(Step::Unary(Unary::Copy, result, Dst::Out)),
        }
        Self { steps, rows }
    }
}

/// One operand of a sweep, resolved for a chunk.
#[derive(Clone, Copy)]
enum Operand<'a> {
    Lane(&'a [f64]),
    Const(f64),
    /// The destination row itself: the step runs in place.
    Dst,
}

/// Run one step over a chunk of `out.len()` jobs: `lanes` is the chunk's
/// slice of every lane, `rows` the chunk rows, `out` the chunk's scores.
#[inline(always)]
fn run_step(
    step: Step,
    lanes: ScoreLanes<'_>,
    now: f64,
    stride: usize,
    rows: &mut [f64],
    out: &mut [f64],
) {
    let len = out.len();
    // Cut the destination out of the rows; the others stay readable.
    let (dst, below, above, at): (&mut [f64], &[f64], &[f64], Option<usize>) = match step.dst() {
        Dst::Out => (out, rows, &[], None),
        Dst::Row(d) => {
            let (below, rest) = rows.split_at_mut(d * CHUNK);
            let (dst, above) = rest.split_at_mut(CHUNK);
            (&mut dst[..len], below, above, Some(d))
        }
    };
    let operand = |src: Src| match src {
        Src::Row(r) if Some(r) == at => Operand::Dst,
        Src::Row(r) => match at {
            Some(d) if r > d => Operand::Lane(&above[(r - d - 1) * CHUNK..][..len]),
            _ => Operand::Lane(&below[r * CHUNK..][..len]),
        },
        Src::R => Operand::Lane(lanes.r),
        Src::N => Operand::Lane(lanes.n),
        Src::S => Operand::Lane(lanes.s),
        Src::Slot => Operand::Lane(lanes.slots),
        Src::Const(c) => Operand::Const(c),
    };
    match step {
        Step::Wait(_) => {
            for (w, s) in dst.iter_mut().zip(lanes.s) {
                *w = (now - s).max(0.0);
            }
        }
        Step::Gather(k, _) => {
            for (x, row) in dst.iter_mut().zip(lanes.slots.chunks_exact(stride)) {
                *x = row[k as usize];
            }
        }
        Step::Unary(op, a, _) => {
            let a = operand(a);
            match op {
                Unary::Neg => map(dst, a, |a| -a),
                Unary::Call(f) => map(dst, a, |a| f.eval(a)),
                Unary::Clamp01 => map(dst, a, |a| a.clamp(0.0, 1.0)),
                Unary::NanToMax => map(dst, a, |a| if a.is_nan() { f64::MAX } else { a }),
                Unary::Copy => map(dst, a, |a| a),
            }
        }
        Step::Binary(op, a, b, _) => {
            let (a, b) = (operand(a), operand(b));
            match op {
                Binary::Add => zip(dst, a, b, |a, b| a + b),
                Binary::Sub => zip(dst, a, b, |a, b| a - b),
                Binary::Mul => zip(dst, a, b, |a, b| a * b),
                Binary::Div => zip(dst, a, b, |a, b| BinOp::Div.eval(a, b)),
                Binary::DivRaw => zip(dst, a, b, |a, b| a / b),
                Binary::Pow => zip(dst, a, b, |a, b| BinOp::Pow.eval(a, b)),
                Binary::Max => zip(dst, a, b, f64::max),
            }
        }
    }
}

/// `dst[j] = f(a[j])`, one loop per operand shape.
#[inline(always)]
fn map(dst: &mut [f64], a: Operand<'_>, f: impl Fn(f64) -> f64) {
    match a {
        Operand::Lane(a) => {
            for (x, a) in dst.iter_mut().zip(a) {
                *x = f(*a);
            }
        }
        Operand::Const(c) => dst.fill(f(c)),
        Operand::Dst => {
            for x in dst {
                *x = f(*x);
            }
        }
    }
}

/// `dst[j] = f(a[j], b[j])`, one loop per pair of operand shapes.
#[inline(always)]
fn zip(dst: &mut [f64], a: Operand<'_>, b: Operand<'_>, f: impl Fn(f64, f64) -> f64) {
    use Operand::{Const, Dst, Lane};
    match (a, b) {
        (Lane(a), Lane(b)) => {
            for ((x, a), b) in dst.iter_mut().zip(a).zip(b) {
                *x = f(*a, *b);
            }
        }
        (Lane(a), Const(b)) => {
            for (x, a) in dst.iter_mut().zip(a) {
                *x = f(*a, b);
            }
        }
        (Const(a), Lane(b)) => {
            for (x, b) in dst.iter_mut().zip(b) {
                *x = f(a, *b);
            }
        }
        (Const(a), Const(b)) => dst.fill(f(a, b)),
        (Dst, Lane(b)) => {
            for (x, b) in dst.iter_mut().zip(b) {
                *x = f(*x, *b);
            }
        }
        (Dst, Const(b)) => {
            for x in dst {
                *x = f(*x, b);
            }
        }
        (Lane(a), Dst) => {
            for (x, a) in dst.iter_mut().zip(a) {
                *x = f(*a, *x);
            }
        }
        (Const(a), Dst) => {
            for x in dst {
                *x = f(a, *x);
            }
        }
        (Dst, Dst) => {
            for x in dst {
                *x = f(*x, *x);
            }
        }
    }
}

/// `f64::total_cmp`'s order as an integer: `order_key(a) < order_key(b)`
/// iff `a.total_cmp(&b).is_lt()` (so `-0.0 < +0.0`, and equal bits give
/// equal keys). It is `total_cmp`'s own bit transform — a negative
/// score's magnitude bits flip — applied once per element instead of
/// twice per comparison. Written as a select on the sign, it vectorizes
/// to a blend, with no 64-bit compare to find the sign.
#[inline]
pub fn order_key(score: f64) -> i64 {
    let bits = score.to_bits() as i64;
    if bits < 0 {
        bits ^ i64::MAX
    } else {
        bits
    }
}

/// A least-key search in progress over the positions folded so far, a
/// chunk at a time: the least [`order_key`] and where the first chunk
/// that holds it starts. A chunk's least key is a plain `min` reduction,
/// which vectorizes, and strictly lower keeps the first of equal keys;
/// the one chunk that holds the answer is scanned for its position at
/// the end. Until anything lowers the initial `i64::MAX`, every key
/// folded is `i64::MAX`, and the first chunk holds it.
struct LeastKey {
    key: i64,
    chunk: usize,
    /// The position of the next fold's first score.
    next: usize,
}

impl LeastKey {
    fn new() -> Self {
        Self {
            key: i64::MAX,
            chunk: 0,
            next: 0,
        }
    }

    /// Fold in the scores of the next `scores.len()` positions.
    #[inline(always)]
    fn fold(&mut self, scores: &[f64]) {
        let least = scores
            .iter()
            .map(|&s| order_key(s))
            .fold(i64::MAX, i64::min);
        if least < self.key {
            (self.key, self.chunk) = (least, self.next);
        }
        self.next += scores.len();
    }

    /// The first position of the least key in `scores`, every score
    /// folded so far; `None` if there were none.
    #[inline(always)]
    fn head(&self, scores: &[f64]) -> Option<usize> {
        if self.next == 0 {
            return None;
        }
        // `order_key` is its own inverse on the bits: the scan compares
        // raw bits, not keys.
        let bits = order_key(f64::from_bits(self.key as u64)) as u64;
        let first = scores[self.chunk..]
            .iter()
            .position(|s| s.to_bits() == bits);
        Some(self.chunk + first.expect("the least key is one of the scores"))
    }
}

/// The batch kernel's chunk loop: the steps over each chunk of up to
/// `CHUNK` jobs, then that chunk's scores folded into the least-key
/// search while they are still in L1. Returns the queue's head.
#[inline(always)]
fn sweep(
    steps: &[Step],
    lanes: ScoreLanes<'_>,
    now: f64,
    stride: usize,
    rows: &mut [f64],
    out: &mut [f64],
) -> Option<usize> {
    let mut least = LeastKey::new();
    for (c, out) in out.chunks_mut(CHUNK).enumerate() {
        let at = c * CHUNK..c * CHUNK + out.len();
        let chunk = ScoreLanes {
            r: &lanes.r[at.clone()],
            n: &lanes.n[at.clone()],
            s: &lanes.s[at.clone()],
            slots: &lanes.slots[at.start * stride..at.end * stride],
        };
        for &step in steps {
            run_step(step, chunk, now, stride, rows, out);
        }
        least.fold(out);
    }
    least.head(out)
}

/// The first position of the least score under `(f64::total_cmp,
/// position)`; `None` for no scores.
#[inline(always)]
fn least(scores: &[f64]) -> Option<usize> {
    let mut least = LeastKey::new();
    for chunk in scores.chunks(CHUNK) {
        least.fold(chunk);
    }
    least.head(scores)
}

/// [`sweep`] compiled for AVX2: the same loops, four lanes wide.
///
/// # Safety
///
/// The CPU must have AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2(
    steps: &[Step],
    lanes: ScoreLanes<'_>,
    now: f64,
    stride: usize,
    rows: &mut [f64],
    out: &mut [f64],
) -> Option<usize> {
    sweep(steps, lanes, now, stride, rows, out)
}

/// [`least`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must have AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn least_avx2(scores: &[f64]) -> Option<usize> {
    least(scores)
}

/// [`sweep`]'s signature: steps, lanes, `now`, slot stride, chunk rows,
/// `out`. `unsafe` because an AVX2 copy may run only on a CPU that has
/// AVX2; so is [`least`]'s in [`Kernel`].
type Sweep =
    unsafe fn(&[Step], ScoreLanes<'_>, f64, usize, &mut [f64], &mut [f64]) -> Option<usize>;

/// One copy of the kernel's two loops, compiled for one instruction set.
#[derive(Clone, Copy)]
struct Kernel {
    sweep: Sweep,
    least: unsafe fn(&[f64]) -> Option<usize>,
}

const PORTABLE: Kernel = Kernel { sweep, least };

#[cfg(target_arch = "x86_64")]
const AVX2: Kernel = Kernel {
    sweep: sweep_avx2,
    least: least_avx2,
};

/// The copy this CPU runs: the AVX2 one where it has AVX2.
fn kernel() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return AVX2;
    }
    PORTABLE
}

/// The first position of the least score in `scores` under
/// `(f64::total_cmp, position)` — the head of the order a full sort by
/// that comparator builds — or `None` for no scores. One pass over the
/// scores as [`order_key`]s, four keys a compare where the CPU has AVX2.
pub fn least_position(scores: &[f64]) -> Option<usize> {
    // SAFETY: `kernel` hands out the AVX2 copy only when
    // `is_x86_feature_detected!("avx2")` held on this CPU.
    unsafe { (kernel().least)(scores) }
}

/// Dense SoA inputs for one batch re-score: one lane per task variable
/// plus the precomputed wait-invariant slot rows (`slot_count` values per
/// job, row-major). The scheduler maintains these lanes alongside its
/// waiting queue and hands them to [`CompiledPolicy::score_batch`] at
/// every rescheduling event.
#[derive(Debug, Clone, Copy)]
pub struct ScoreLanes<'a> {
    /// Decision-mode processing time per queued job.
    pub r: &'a [f64],
    /// Requested cores per queued job (as f64).
    pub n: &'a [f64],
    /// Arrival time per queued job.
    pub s: &'a [f64],
    /// Wait-invariant slot rows: job `i` owns
    /// `slots[i * slot_count .. (i + 1) * slot_count]`.
    pub slots: &'a [f64],
}

/// A policy lowered to bytecode: a wait-invariant prefix program (run once
/// per job, filling `slot_count` slots) plus a time-dependent residual
/// program (run per score, reading the slots and `w`).
///
/// Scores are bit-identical to the interpreted policy the program was
/// compiled from — see the module docs for the contract. Obtain one via
/// [`Policy::compile`]; built-in policies all return `Some`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPolicy {
    name: String,
    time_dependent: bool,
    slot_count: usize,
    prefix: Program,
    residual: Program,
    /// The residual lowered for [`CompiledPolicy::score_batch`].
    steps: Steps,
}

impl CompiledPolicy {
    /// Assemble from raw parts, validating both programs. `prefix_ops`
    /// must leave exactly `slot_count` values and never read `w` or a
    /// slot; `residual_ops` must leave exactly one value and only read
    /// slots below `slot_count`. Time dependence is derived: the policy is
    /// time-dependent iff the residual reads `w`.
    pub(crate) fn from_parts(
        name: impl Into<String>,
        prefix_ops: Vec<OpCode>,
        slot_count: usize,
        residual_ops: Vec<OpCode>,
    ) -> Self {
        let time_dependent = residual_ops.iter().any(|op| matches!(op, OpCode::LoadW));
        let prefix = Program::new(prefix_ops, slot_count, 0, false);
        let residual = Program::new(residual_ops, 1, slot_count, true);
        let steps = Steps::lower(&residual, slot_count);
        Self {
            name: name.into(),
            time_dependent,
            slot_count,
            prefix,
            residual,
            steps,
        }
    }

    /// Display name (same as the source policy's).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the residual reads the waiting time `w`. Mirrors
    /// [`Policy::time_dependent`], but *derived from the program* rather
    /// than declared: a compiled policy can never claim staticness while
    /// actually aging.
    pub fn time_dependent(&self) -> bool {
        self.time_dependent
    }

    /// Number of wait-invariant slots the prefix computes per job.
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// Evaluate the wait-invariant prefix for one job, writing its
    /// `slot_count` slot values into `out`. `stack` is reusable scratch.
    ///
    /// # Panics
    /// Panics if `out.len() != slot_count`.
    pub fn prefix_into(&self, r: f64, n: f64, s: f64, out: &mut [f64], stack: &mut Vec<f64>) {
        assert_eq!(out.len(), self.slot_count, "slot row size mismatch");
        self.prefix.exec(r, n, s, 0.0, &[], stack);
        out.copy_from_slice(stack);
    }

    /// Evaluate the residual for one job given its precomputed `slots`.
    /// This is the full score: bit-identical to the interpreted policy at
    /// the same `(r, n, s, w)`.
    pub fn residual_score(
        &self,
        r: f64,
        n: f64,
        s: f64,
        w: f64,
        slots: &[f64],
        stack: &mut Vec<f64>,
    ) -> f64 {
        debug_assert_eq!(slots.len(), self.slot_count);
        self.residual.exec(r, n, s, w, slots, stack);
        stack[0]
    }

    /// Score one job from raw `(r, n, s, w)` operands through prefix +
    /// residual using caller-owned scratch — the scalar twin of the batch
    /// kernel. The scheduler uses this to score a static compiled policy
    /// once at enqueue, without keeping a slot lane the score would never
    /// re-read.
    pub fn score_scalar(
        &self,
        r: f64,
        n: f64,
        s: f64,
        w: f64,
        slot_row: &mut Vec<f64>,
        stack: &mut Vec<f64>,
    ) -> f64 {
        slot_row.clear();
        slot_row.resize(self.slot_count, 0.0);
        self.prefix_into(r, n, s, slot_row, stack);
        self.residual_score(r, n, s, w, slot_row, stack)
    }

    /// Re-score a whole queue in one pass over dense SoA lanes: for each
    /// job `i`, `out[i]` becomes the score at time `now` with
    /// `w = (now - s[i]).max(0.0)` — the exact [`TaskView::wait`] clamp.
    /// Returns the queue's head: the first position of the least score
    /// under `(f64::total_cmp, position)`, as [`least_position`] would
    /// find it in `out`; `None` for an empty queue.
    ///
    /// The queue is cut into chunks of up to `CHUNK` jobs; the residual's
    /// register steps sweep each chunk, and the chunk's scores join the
    /// head search before the next chunk starts. Every job gets the scalar
    /// path's exact bits (see the module docs). Every element of `out` is
    /// overwritten. `scratch` is reusable; no other memory is touched.
    ///
    /// # Panics
    /// Panics if the lane lengths disagree with `out` (or the slot lane
    /// with `out.len() * slot_count`).
    pub fn score_batch(
        &self,
        out: &mut [f64],
        lanes: ScoreLanes<'_>,
        now: f64,
        scratch: &mut BatchScratch,
    ) -> Option<usize> {
        let len = out.len();
        assert_eq!(lanes.r.len(), len, "r lane length");
        assert_eq!(lanes.n.len(), len, "n lane length");
        assert_eq!(lanes.s.len(), len, "s lane length");
        assert_eq!(lanes.slots.len(), len * self.slot_count, "slot lane length");
        let rows = self.steps.rows * CHUNK;
        if scratch.rows.len() < rows {
            scratch.rows.resize(rows, 0.0);
        }
        let (steps, stride) = (&self.steps.steps[..], self.slot_count);
        // SAFETY: `kernel` hands out the AVX2 copy only when
        // `is_x86_feature_detected!("avx2")` held on this CPU.
        unsafe { (kernel().sweep)(steps, lanes, now, stride, &mut scratch.rows, out) }
    }
}

impl fmt::Display for CompiledPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compiled {} ({} prefix ops -> {} slots, {} residual ops{})",
            self.name,
            self.prefix.ops.len(),
            self.slot_count,
            self.residual.ops.len(),
            if self.time_dependent {
                ", time-dependent"
            } else {
                ""
            }
        )
    }
}

/// The scalar-evaluation view of a compiled program, so a
/// [`CompiledPolicy`] can stand in anywhere a policy is expected (the
/// reference engine scores it per [`TaskView`] through this impl — still
/// one job at a time, which keeps the oracle free of the batch path).
/// Allocates per call; the scheduler's hot paths use the lane kernels
/// instead.
impl Policy for CompiledPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&self, task: &TaskView) -> f64 {
        self.score_scalar(
            task.processing_time,
            task.cores as f64,
            task.submit,
            task.wait(),
            &mut Vec::new(),
            &mut Vec::new(),
        )
    }

    fn time_dependent(&self) -> bool {
        self.time_dependent
    }

    fn compile(&self) -> Option<CompiledPolicy> {
        Some(self.clone())
    }
}

/// Lower a full (unsplit) postfix emission of `e` into `out`.
fn emit_full(e: &Expr, out: &mut Vec<OpCode>) {
    match e {
        Expr::Const(c) => out.push(OpCode::Const(*c)),
        Expr::Var(v) => out.push(load(*v)),
        Expr::Neg(inner) => {
            emit_full(inner, out);
            out.push(OpCode::Neg);
        }
        Expr::Call(f, inner) => {
            emit_full(inner, out);
            out.push(OpCode::Call(*f));
        }
        Expr::Bin(op, a, b) => {
            emit_full(a, out);
            emit_full(b, out);
            out.push(bin(*op));
        }
    }
}

fn load(v: Var) -> OpCode {
    match v {
        Var::R => OpCode::LoadR,
        Var::N => OpCode::LoadN,
        Var::S => OpCode::LoadS,
        Var::W => OpCode::LoadW,
    }
}

fn bin(op: BinOp) -> OpCode {
    match op {
        BinOp::Add => OpCode::Add,
        BinOp::Sub => OpCode::Sub,
        BinOp::Mul => OpCode::Mul,
        BinOp::Div => OpCode::Div,
        BinOp::Pow => OpCode::Pow,
    }
}

/// Split emission: hoist every *maximal* wait-free subtree into the prefix
/// (one slot each — except trivial leaves, which stay inline: a lane load
/// is as cheap as a slot load) and emit the wait-dependent structure into
/// the residual.
fn emit_split(e: &Expr, prefix: &mut Vec<OpCode>, residual: &mut Vec<OpCode>, slots: &mut u32) {
    if !e.uses_wait() {
        match e {
            Expr::Const(c) => residual.push(OpCode::Const(*c)),
            Expr::Var(v) => residual.push(load(*v)),
            _ => {
                emit_full(e, prefix);
                residual.push(OpCode::LoadSlot(*slots));
                *slots += 1;
            }
        }
        return;
    }
    match e {
        Expr::Var(Var::W) => residual.push(OpCode::LoadW),
        Expr::Neg(inner) => {
            emit_split(inner, prefix, residual, slots);
            residual.push(OpCode::Neg);
        }
        Expr::Call(f, inner) => {
            emit_split(inner, prefix, residual, slots);
            residual.push(OpCode::Call(*f));
        }
        Expr::Bin(op, a, b) => {
            emit_split(a, prefix, residual, slots);
            emit_split(b, prefix, residual, slots);
            residual.push(bin(*op));
        }
        Expr::Const(_) | Expr::Var(_) => unreachable!("wait-free leaves handled above"),
    }
}

/// Compile an expression tree into a split bytecode policy. The residual
/// ends with the same NaN→`f64::MAX` sanitizer [`Expr::eval`] applies, so
/// scores are bit-identical to the tree walk at every `(r, n, s, w)`.
pub fn compile_expr(name: impl Into<String>, expr: &Expr) -> CompiledPolicy {
    let mut prefix = Vec::new();
    let mut residual = Vec::new();
    let mut slots = 0u32;
    emit_split(expr, &mut prefix, &mut residual, &mut slots);
    residual.push(OpCode::NanToMax);
    CompiledPolicy::from_parts(name, prefix, slots as usize, residual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_expr;

    fn view(r: f64, n: u32, s: f64, now: f64) -> TaskView {
        TaskView {
            processing_time: r,
            cores: n,
            submit: s,
            now,
        }
    }

    fn bits(x: f64) -> u64 {
        x.to_bits()
    }

    #[test]
    fn compiled_expr_matches_tree_walk_bit_for_bit() {
        let sources = [
            "log10(r)*n + 8.70e2*log10(s)",
            "-(w / r) ^ 3 * n",
            "r * n / (s + 1) - w",
            "inv(r) + sqrt(n) - ln(s) + exp(0 - w / 1000)",
            "2 ^ 3 ^ 2",
            "abs(s - w) / (r + 1e-3)",
        ];
        let views = [
            view(0.0, 1, 0.0, 0.0),
            view(100.0, 8, 1000.0, 1000.0),
            view(1e-9, 1, 1e12, 1e12),
            view(1e12, 1_000_000, 0.0, 1e12),
            view(42.5, 3, 17.0, 400.0),
        ];
        for src in sources {
            let expr = parse_expr(src).unwrap();
            let compiled = compile_expr("t", &expr);
            for v in &views {
                assert_eq!(
                    bits(expr.eval(v)),
                    bits(compiled.score(v)),
                    "{src} diverged at {v:?}"
                );
            }
        }
    }

    #[test]
    fn wait_free_expression_collapses_to_one_slot() {
        let expr = parse_expr("log10(r)*n + 8.70e2*log10(s)").unwrap();
        let c = compile_expr("F1", &expr);
        assert_eq!(c.slot_count(), 1);
        assert!(!c.time_dependent());
        // Residual is just slot + sanitizer.
        assert_eq!(c.residual.ops.len(), 2);
    }

    #[test]
    fn aging_expression_hoists_the_static_part() {
        let expr = parse_expr("log10(r)*n + 8.70e2*log10(s) - 1.5e-2*w").unwrap();
        let c = compile_expr("G1-aging", &expr);
        assert_eq!(c.slot_count(), 1, "static part is one maximal subtree");
        assert!(c.time_dependent());
    }

    #[test]
    fn trivial_leaves_stay_inline() {
        let expr = parse_expr("s").unwrap();
        let c = compile_expr("FCFS-ish", &expr);
        assert_eq!(c.slot_count(), 0);
        assert_eq!(c.score(&view(1.0, 1, 33.0, 50.0)), 33.0);
    }

    #[test]
    fn score_batch_matches_scalar_scores() {
        let expr = parse_expr("sqrt(r)*n + 2.56e4*log10(s) - w/(r + 1)").unwrap();
        let c = compile_expr("t", &expr);
        let jobs: Vec<TaskView> = (0..40)
            .map(|i| view(1.0 + i as f64 * 7.3, 1 + i % 9, i as f64 * 11.0, 500.0))
            .collect();
        let (mut r, mut n, mut s, mut slots) = (vec![], vec![], vec![], vec![]);
        let mut stack = Vec::new();
        let mut row = vec![0.0; c.slot_count()];
        for v in &jobs {
            r.push(v.processing_time);
            n.push(v.cores as f64);
            s.push(v.submit);
            c.prefix_into(
                v.processing_time,
                v.cores as f64,
                v.submit,
                &mut row,
                &mut stack,
            );
            slots.extend_from_slice(&row);
        }
        let mut out = vec![0.0; jobs.len()];
        let lanes = ScoreLanes {
            r: &r,
            n: &n,
            s: &s,
            slots: &slots,
        };
        // One short chunk; the property suite covers chunk boundaries.
        c.score_batch(&mut out, lanes, 500.0, &mut BatchScratch::new());
        for (i, v) in jobs.iter().enumerate() {
            assert_eq!(bits(out[i]), bits(c.score(v)), "job {i}");
        }
    }

    #[test]
    fn wfp_and_uni_lower_to_six_and_three_sweeps() {
        // WFP: w, ÷ slot, x·x, x·(x·x), −, · n (the last into `out`);
        // UNI: w, −, ÷ slot.
        let count = |p: &dyn Policy| p.compile().unwrap().steps.steps.len();
        assert_eq!(count(&crate::Wfp3), 6);
        assert_eq!(count(&crate::Unicef), 3);
        let wfp = crate::Wfp3.compile().unwrap();
        assert_eq!(wfp.steps.rows, 2);
        assert_eq!(wfp.steps.steps.last().map(|s| s.dst()), Some(Dst::Out));
    }

    /// A random expression tree over every variable, function and
    /// operator, with constants from tiny to huge so the guards fire.
    fn random_expr(rng: &mut dynsched_simkit::Rng, depth: u32) -> Expr {
        if depth == 0 || rng.range_u64(0, 9) < 3 {
            return match rng.range_u64(0, 5) {
                0 => Expr::Var(Var::R),
                1 => Expr::Var(Var::N),
                2 => Expr::Var(Var::S),
                3 => Expr::Var(Var::W),
                _ => Expr::Const(rng.range_f64(-1.0, 1.0) * 10f64.powf(rng.range_f64(-9.0, 9.0))),
            };
        }
        let sub = |rng: &mut dynsched_simkit::Rng| Box::new(random_expr(rng, depth - 1));
        match rng.range_u64(0, 7) {
            0 => Expr::Neg(sub(rng)),
            1 | 2 => {
                let f = Func::ALL[rng.range_u64(0, Func::ALL.len() as u64 - 1) as usize];
                Expr::Call(f, sub(rng))
            }
            k => {
                let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Pow];
                Expr::Bin(ops[(k as usize - 3) % 5], sub(rng), sub(rng))
            }
        }
    }

    #[test]
    fn both_kernel_copies_score_and_pick_the_head_bit_for_bit() {
        use crate::registry::{by_name, paper_lineup};
        use dynsched_simkit::Rng;
        let mut kernels = vec![("portable", PORTABLE)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            kernels.push(("avx2", AVX2));
        }
        let names: Vec<&str> = kernels.iter().map(|(name, _)| *name).collect();
        println!("batch kernel copies compared: {names:?}");

        let mut rng = Rng::new(0xC0B1E5);
        let mut policies: Vec<CompiledPolicy> = paper_lineup()
            .iter()
            .chain(&["LCFS", "LPT", "SAF", "LAF", "MF"].map(|n| by_name(n).unwrap()))
            .map(|p| p.compile().unwrap())
            .collect();
        let family = crate::NonlinearFunction::enumerate_family();
        for shape in family.iter().step_by(37) {
            let c = [rng.range_f64(-1e3, 1e3), rng.range_f64(-2.0, 2.0), 1e5];
            policies.push(
                crate::LearnedPolicy::new("fam", shape.with_coefficients(c))
                    .compile()
                    .unwrap(),
            );
        }
        for _ in 0..24 {
            policies.push(compile_expr("tree", &random_expr(&mut rng, 4)));
        }
        // The scores are the `s` lane itself: every special value below
        // reaches the head search as it is.
        policies.push(CompiledPolicy::from_parts(
            "s",
            vec![],
            0,
            vec![OpCode::LoadS],
        ));

        // ±0.0 ties, equal scores, ±∞, `f64::MAX` and the NaN an
        // on-demand pass marks a started entry with (key `i64::MAX`).
        let sentinel = f64::from_bits(i64::MAX as u64);
        let specials = [
            0.0,
            -0.0,
            5.0,
            5.0,
            f64::INFINITY,
            -f64::INFINITY,
            f64::MAX,
            sentinel,
        ];
        let now = 1e6;
        let (mut stack, mut scratch) = (Vec::new(), Vec::new());
        for len in [1, 2, 3, 7, 127, 128, 129, 1000] {
            let r: Vec<f64> = (0..len).map(|_| rng.range_f64(0.0, 1e5)).collect();
            let n: Vec<f64> = (0..len).map(|_| rng.range_u64(1, 4096) as f64).collect();
            // A fifth of the jobs arrive at `now` (`w = 0`: WFP's `-0.0`),
            // and a fifth at a special value.
            let s: Vec<f64> = (0..len)
                .map(|_| match rng.range_u64(0, 4) {
                    0 => now,
                    1 => specials[rng.range_u64(0, specials.len() as u64 - 1) as usize],
                    _ => rng.range_f64(0.0, now),
                })
                .collect();
            for policy in &policies {
                let k = policy.slot_count();
                let mut slots = vec![0.0; len * k];
                for i in 0..len {
                    policy.prefix_into(r[i], n[i], s[i], &mut slots[i * k..][..k], &mut stack);
                }
                let lanes = ScoreLanes {
                    r: &r,
                    n: &n,
                    s: &s,
                    slots: &slots,
                };
                let want: Vec<f64> = (0..len)
                    .map(|i| {
                        let w = (now - s[i]).max(0.0);
                        policy
                            .residual
                            .exec(r[i], n[i], s[i], w, &slots[i * k..][..k], &mut stack);
                        stack[0]
                    })
                    .collect();
                let want_head = (0..len).min_by(|&a, &b| want[a].total_cmp(&want[b]));
                for (name, kernel) in &kernels {
                    let what = format!("{name} copy, {}, {len} jobs", policy.name());
                    let mut out = vec![f64::NAN; len];
                    let rows = policy.steps.rows * CHUNK;
                    scratch.resize(rows.max(scratch.len()), f64::NAN);
                    let steps = &policy.steps.steps[..];
                    // SAFETY: `kernels` holds the AVX2 copy only when
                    // `is_x86_feature_detected!("avx2")` held.
                    let head =
                        unsafe { (kernel.sweep)(steps, lanes, now, k, &mut scratch, &mut out) };
                    let moved = (0..len).find(|&i| out[i].to_bits() != want[i].to_bits());
                    assert_eq!(moved, None, "{what}");
                    assert_eq!(head, want_head, "{what}");
                    // SAFETY: as above.
                    assert_eq!(unsafe { (kernel.least)(&out) }, want_head, "{what}");
                }
            }
        }
        // The search alone, where every key is `i64::MAX` or ties.
        let crafted: [&[f64]; 5] = [
            &[],
            &[sentinel, sentinel],
            &[sentinel, 5.0, sentinel, 5.0],
            &[0.0, -0.0, 0.0, -0.0],
            &[f64::MAX, f64::INFINITY, f64::MAX, f64::NAN],
        ];
        for scores in crafted {
            let want = (0..scores.len()).min_by(|&a, &b| scores[a].total_cmp(&scores[b]));
            for (name, kernel) in &kernels {
                // SAFETY: as above.
                assert_eq!(
                    unsafe { (kernel.least)(scores) },
                    want,
                    "{name} copy, {scores:?}"
                );
            }
        }
    }

    #[test]
    fn score_scalar_matches_policy_score() {
        let expr = parse_expr("sqrt(r)*n + 2.56e4*log10(s) - w/(r + 1)").unwrap();
        let c = compile_expr("t", &expr);
        let v = view(42.5, 3, 17.0, 400.0);
        let (mut row, mut stack) = (Vec::new(), Vec::new());
        let scalar = c.score_scalar(
            v.processing_time,
            v.cores as f64,
            v.submit,
            v.wait(),
            &mut row,
            &mut stack,
        );
        assert_eq!(bits(scalar), bits(c.score(&v)));
    }

    #[test]
    #[should_panic(expected = "stack underflow")]
    fn unbalanced_program_is_rejected() {
        let _ = CompiledPolicy::from_parts("bad", vec![], 0, vec![OpCode::Add]);
    }

    #[test]
    #[should_panic(expected = "loads w")]
    fn prefix_reading_wait_is_rejected() {
        let _ = CompiledPolicy::from_parts("bad", vec![OpCode::LoadW], 1, vec![OpCode::Const(0.0)]);
    }

    #[test]
    #[should_panic(expected = "references slot")]
    fn out_of_range_slot_is_rejected() {
        let _ = CompiledPolicy::from_parts("bad", vec![], 0, vec![OpCode::LoadSlot(0)]);
    }

    #[test]
    fn compiled_policy_is_a_policy() {
        let expr = parse_expr("r + w").unwrap();
        let c = compile_expr("t", &expr);
        let p: &dyn Policy = &c;
        assert_eq!(p.name(), "t");
        assert!(p.time_dependent());
        let v = view(3.0, 1, 10.0, 14.0);
        assert_eq!(p.score(&v), 7.0);
        // Re-compiling a compiled policy is the identity.
        let again = p.compile().unwrap();
        assert_eq!(again.score(&v), 7.0);
    }
}
