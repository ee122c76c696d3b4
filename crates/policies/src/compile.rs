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
//!   scheduler evaluates it **once per job** and stores the resulting slot
//!   values in a dense per-trace lane; and
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
//! policy; the scheduler's `compiled_bit_identity` suite pins whole
//! simulations.
//!
//! # Chunked columnar execution
//!
//! [`CompiledPolicy::score_batch`] does not interpret the residual once
//! per job: it walks the opcode list once per **chunk** of up to `CHUNK`
//! consecutive jobs, and each opcode sweeps one contiguous `[f64]` row of
//! a flat value stack held in [`BatchScratch`] (`Program::exec_rows`) —
//! one dispatch per opcode per chunk, and an inner loop that is a plain
//! slice sweep. A chunk's rows fit in L1 (`w`, the clamped `now - s`, is
//! one more row, filled where the program loads it); the ragged last
//! chunk is the same loop with a shorter row, so there is one execution
//! path at every queue length. This is a pure execution reordering:
//! element `j` of stack row `d` holds exactly the value the scalar
//! machine would have at depth `d` for job `base + j`, and every
//! per-element operation is the *same scalar call* ([`Func::eval`],
//! [`BinOp::eval`], the raw opcodes) the scalar machine makes — NaN
//! propagation, the division clamp, `max`/`clamp01` guards and the final
//! NaN sanitizer all behave identically per element, so chunked and
//! scalar execution are bit-identical job by job at any vector width (the
//! `compile_properties` batch property pins this across chunk boundaries,
//! ragged tails and scratch reuse).
//!
//! [`Expr`]: crate::expr::Expr
//! [`NonlinearFunction`]: crate::learned::NonlinearFunction

use crate::expr::{BinOp, Expr, Func, Var};
use crate::policy::Policy;
use crate::task_view::TaskView;
use std::fmt;

/// Jobs swept per opcode step by the batch kernel: long enough to
/// amortize the opcode dispatch, short enough that a residual's whole
/// value stack stays in L1 (1 KiB a row). Throughput only — scores are
/// bit-identical at any chunk length.
const CHUNK: usize = 128;

/// Reusable scratch for [`CompiledPolicy::score_batch`]: the flat value
/// stack of one chunk, `CHUNK` values per stack depth. Construct once per
/// worker and hand to every batch call — after warm-up the kernel
/// performs no allocation.
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

    /// Execute on the chunk of jobs in `lanes` (`stride` slots a job) at
    /// time `now`, all at once: `stack` is a flat value stack whose row `d`
    /// is `stack[d * len..][..len]`, and every opcode sweeps whole rows.
    /// Element `j` sees exactly the scalar machine's value sequence for job
    /// `j` — each per-element operation is the identical scalar call, `w`
    /// the [`TaskView::wait`] clamp — so this is bit-identical to
    /// [`Program::exec`] per job. Leaves `self.outputs` rows at the bottom
    /// of `stack`.
    #[inline]
    fn exec_rows(&self, lanes: ScoreLanes<'_>, now: f64, stride: usize, stack: &mut [f64]) {
        let len = lanes.s.len();
        // Start of the first free row; validation bounds it by `max_stack`.
        let mut top = 0usize;
        for op in &self.ops {
            match *op {
                OpCode::Const(c) => stack[top..top + len].fill(c),
                OpCode::LoadR => stack[top..top + len].copy_from_slice(lanes.r),
                OpCode::LoadN => stack[top..top + len].copy_from_slice(lanes.n),
                OpCode::LoadS => stack[top..top + len].copy_from_slice(lanes.s),
                OpCode::LoadW => {
                    for (w, s) in stack[top..top + len].iter_mut().zip(lanes.s) {
                        *w = (now - s).max(0.0);
                    }
                }
                OpCode::LoadSlot(_) if stride == 1 => {
                    stack[top..top + len].copy_from_slice(lanes.slots)
                }
                OpCode::LoadSlot(k) => {
                    let rows = lanes.slots.chunks_exact(stride);
                    for (x, row) in stack[top..top + len].iter_mut().zip(rows) {
                        *x = row[k as usize];
                    }
                }
                OpCode::Dup => stack.copy_within(top - len..top, top),
                OpCode::Neg => Self::map_row(stack, top, len, |a| -a),
                OpCode::Call(f) => Self::map_row(stack, top, len, |a| f.eval(a)),
                OpCode::Clamp01 => Self::map_row(stack, top, len, |a| a.clamp(0.0, 1.0)),
                OpCode::NanToMax => {
                    Self::map_row(stack, top, len, |a| if a.is_nan() { f64::MAX } else { a })
                }
                OpCode::Add => Self::zip_rows(stack, top, len, |a, b| a + b),
                OpCode::Sub => Self::zip_rows(stack, top, len, |a, b| a - b),
                OpCode::Mul => Self::zip_rows(stack, top, len, |a, b| a * b),
                OpCode::Div => Self::zip_rows(stack, top, len, |a, b| BinOp::Div.eval(a, b)),
                OpCode::DivRaw => Self::zip_rows(stack, top, len, |a, b| a / b),
                OpCode::Pow => Self::zip_rows(stack, top, len, |a, b| BinOp::Pow.eval(a, b)),
                OpCode::Max => Self::zip_rows(stack, top, len, f64::max),
            }
            let (takes, gives) = op.arity();
            top = top + gives * len - takes * len;
        }
        debug_assert_eq!(top, self.outputs * len);
    }

    /// Rewrite the top row in place.
    #[inline(always)]
    fn map_row(stack: &mut [f64], top: usize, len: usize, f: impl Fn(f64) -> f64) {
        for x in &mut stack[top - len..top] {
            *x = f(*x);
        }
    }

    /// Fold the top row into the one below it: `a = f(a, b)`.
    #[inline(always)]
    fn zip_rows(stack: &mut [f64], top: usize, len: usize, f: impl Fn(f64, f64) -> f64) {
        let (a, b) = stack[top - 2 * len..top].split_at_mut(len);
        for (x, y) in a.iter_mut().zip(&*b) {
            *x = f(*x, *y);
        }
    }
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
        Self {
            name: name.into(),
            time_dependent,
            slot_count,
            prefix,
            residual,
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
    /// once at enqueue, without materializing per-trace slot lanes the
    /// scores would never re-read.
    pub fn score_scalar(
        &self,
        r: f64,
        n: f64,
        s: f64,
        w: f64,
        slot_row: &mut Vec<f64>,
        stack: &mut Vec<f64>,
    ) -> f64 {
        // A fully hoisted program (static policies: the whole expression
        // is one slot and the residual just reloads it) needs no slot
        // row: the prefix already leaves the score on top of the stack —
        // the same value `LoadSlot(0)` would reload, bit for bit.
        if let [OpCode::LoadSlot(0)] = self.residual.ops[..] {
            self.prefix.exec(r, n, s, 0.0, &[], stack);
            return stack[0];
        }
        slot_row.clear();
        slot_row.resize(self.slot_count, 0.0);
        self.prefix_into(r, n, s, slot_row, stack);
        self.residual_score(r, n, s, w, slot_row, stack)
    }

    /// Score one task through prefix + residual using caller-owned scratch
    /// (no allocation once the buffers are warm).
    pub fn score_with(&self, task: &TaskView, slots: &mut Vec<f64>, stack: &mut Vec<f64>) -> f64 {
        self.score_scalar(
            task.processing_time,
            task.cores as f64,
            task.submit,
            task.wait(),
            slots,
            stack,
        )
    }

    /// Re-score a whole queue in one pass over dense SoA lanes: for each
    /// job `i`, `out[i]` becomes the score at time `now` with
    /// `w = (now - s[i]).max(0.0)` — the exact [`TaskView::wait`] clamp.
    ///
    /// The queue is cut into chunks of up to `CHUNK` jobs and the
    /// residual runs once per chunk over whole rows (`Program::exec_rows`);
    /// every job gets the scalar path's exact bits (see the module docs).
    /// Every element of `out` is overwritten. `scratch` is reusable; no
    /// other memory is touched.
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
    ) {
        let len = out.len();
        assert_eq!(lanes.r.len(), len, "r lane length");
        assert_eq!(lanes.n.len(), len, "n lane length");
        assert_eq!(lanes.s.len(), len, "s lane length");
        assert_eq!(lanes.slots.len(), len * self.slot_count, "slot lane length");
        let k = self.slot_count;
        let rows = self.residual.max_stack * CHUNK;
        if scratch.rows.len() < rows {
            scratch.rows.resize(rows, 0.0);
        }
        for (c, out) in out.chunks_mut(CHUNK).enumerate() {
            let at = c * CHUNK..c * CHUNK + out.len();
            let chunk = ScoreLanes {
                r: &lanes.r[at.clone()],
                n: &lanes.n[at.clone()],
                s: &lanes.s[at.clone()],
                slots: &lanes.slots[at.start * k..at.end * k],
            };
            self.residual.exec_rows(chunk, now, k, &mut scratch.rows);
            out.copy_from_slice(&scratch.rows[..out.len()]);
        }
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
        self.score_with(task, &mut Vec::new(), &mut Vec::new())
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
    fn score_scalar_matches_score_with() {
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
