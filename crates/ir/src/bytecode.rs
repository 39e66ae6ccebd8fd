//! Flat stack-machine bytecode for statement bodies.
//!
//! The reference interpreter walks the [`Expr`] tree for every
//! statement instance: each node is a match, a pair of recursive
//! calls, and a bounds-checked slot lookup that can fail. The
//! compiled block execution engine instead lowers each body once per
//! launch into a postfix instruction sequence. Read/iterator/param
//! indices are validated at compile time ("preflight"), so the hot
//! loop performs no per-node index `Result` — only the checked
//! arithmetic that [`Expr::eval`] itself performs, with identical
//! error messages so the compiled engine stays bit-compatible with
//! the interpreter even on failure paths.
//!
//! Evaluation order matches the interpreter exactly, including the
//! quirk that `Div` evaluates its *divisor* first and reports
//! "division by zero" before the dividend is ever evaluated: `Div`
//! compiles to `[divisor code] CheckDiv [dividend code] Div` where
//! [`ByteOp::CheckDiv`] inspects the stack top without popping it.

use crate::expr::Expr;
use crate::{IrError, Result};

/// One postfix instruction. Operands are pushed; operators pop their
/// inputs (top of stack = rightmost/latest-evaluated operand) and
/// push one result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByteOp {
    /// Push `reads[i]`.
    Read(u32),
    /// Push `iter[i]` (a coordinate of the statement instance).
    Iter(u32),
    /// Push `params[i]`.
    Param(u32),
    /// Push an immediate constant.
    Const(i64),
    /// Pop b, a; push `a + b` (checked).
    Add,
    /// Pop b, a; push `a - b` (checked).
    Sub,
    /// Pop b, a; push `a * b` (checked).
    Mul,
    /// Error with "division by zero" if the stack top is 0. Does not
    /// pop: the divisor stays for the matching [`ByteOp::Div`].
    CheckDiv,
    /// Pop dividend a (top), then divisor b; push `a / b`
    /// (truncating, like the interpreter).
    Div,
    /// Pop b, a; push `min(a, b)`.
    Min,
    /// Pop b, a; push `max(a, b)`.
    Max,
    /// Pop a; push `|a|`.
    Abs,
}

/// A compiled statement body: postfix ops plus the stack high-water
/// mark, so callers can reserve the evaluation stack once per block
/// and keep the per-instance loop allocation-free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BodyCode {
    ops: Vec<ByteOp>,
    max_stack: usize,
}

impl BodyCode {
    /// Compile `expr` for a statement with `n_reads` read slots,
    /// `n_iters` domain dimensions, and `n_params` program
    /// parameters. Out-of-range slot references are rejected here,
    /// with the same messages [`Expr::eval`] would produce at run
    /// time.
    pub fn compile(expr: &Expr, n_reads: usize, n_iters: usize, n_params: usize) -> Result<Self> {
        let mut code = BodyCode {
            ops: Vec::new(),
            max_stack: 0,
        };
        let mut depth = 0usize;
        code.emit(expr, n_reads, n_iters, n_params, &mut depth)?;
        debug_assert_eq!(depth, 1);
        Ok(code)
    }

    fn push(&mut self, op: ByteOp, depth: &mut usize) {
        self.ops.push(op);
        match op {
            ByteOp::Read(_) | ByteOp::Iter(_) | ByteOp::Param(_) | ByteOp::Const(_) => {
                *depth += 1;
                self.max_stack = self.max_stack.max(*depth);
            }
            ByteOp::Add | ByteOp::Sub | ByteOp::Mul | ByteOp::Div | ByteOp::Min | ByteOp::Max => {
                *depth -= 1
            }
            ByteOp::CheckDiv | ByteOp::Abs => {}
        }
    }

    fn emit(
        &mut self,
        expr: &Expr,
        n_reads: usize,
        n_iters: usize,
        n_params: usize,
        depth: &mut usize,
    ) -> Result<()> {
        let bin = |a: &Expr, b: &Expr, op: ByteOp, s: &mut Self, d: &mut usize| -> Result<()> {
            s.emit(a, n_reads, n_iters, n_params, d)?;
            s.emit(b, n_reads, n_iters, n_params, d)?;
            s.push(op, d);
            Ok(())
        };
        match expr {
            Expr::Read(i) => {
                if *i >= n_reads {
                    return Err(IrError::Arithmetic("read index out of range"));
                }
                self.push(ByteOp::Read(*i as u32), depth);
            }
            Expr::Iter(i) => {
                if *i >= n_iters {
                    return Err(IrError::Arithmetic("iterator index out of range"));
                }
                self.push(ByteOp::Iter(*i as u32), depth);
            }
            Expr::Param(i) => {
                if *i >= n_params {
                    return Err(IrError::Arithmetic("param index out of range"));
                }
                self.push(ByteOp::Param(*i as u32), depth);
            }
            Expr::Const(c) => self.push(ByteOp::Const(*c), depth),
            Expr::Add(a, b) => bin(a, b, ByteOp::Add, self, depth)?,
            Expr::Sub(a, b) => bin(a, b, ByteOp::Sub, self, depth)?,
            Expr::Mul(a, b) => bin(a, b, ByteOp::Mul, self, depth)?,
            Expr::Min(a, b) => bin(a, b, ByteOp::Min, self, depth)?,
            Expr::Max(a, b) => bin(a, b, ByteOp::Max, self, depth)?,
            Expr::Div(a, b) => {
                // Interpreter order: divisor, zero check, dividend.
                self.emit(b, n_reads, n_iters, n_params, depth)?;
                self.push(ByteOp::CheckDiv, depth);
                self.emit(a, n_reads, n_iters, n_params, depth)?;
                self.push(ByteOp::Div, depth);
            }
            Expr::Abs(a) => {
                self.emit(a, n_reads, n_iters, n_params, depth)?;
                self.push(ByteOp::Abs, depth);
            }
        }
        Ok(())
    }

    /// Stack high-water mark; `stack` passed to [`BodyCode::eval`]
    /// should reserve this much once to avoid growth in the loop.
    pub fn max_stack(&self) -> usize {
        self.max_stack
    }

    /// Evaluate against filled slots. `stack` is caller-provided
    /// scratch, cleared on entry, so repeated evaluation allocates
    /// nothing once it has grown to [`BodyCode::max_stack`].
    ///
    /// Arithmetic semantics (checked ops, truncating division,
    /// divisor-first `Div`) and error messages match [`Expr::eval`].
    pub fn eval(
        &self,
        stack: &mut Vec<i64>,
        reads: &[i64],
        iter: &[i64],
        params: &[i64],
    ) -> Result<i64> {
        stack.clear();
        stack.reserve(self.max_stack);
        for op in &self.ops {
            match *op {
                ByteOp::Read(i) => stack.push(reads[i as usize]),
                ByteOp::Iter(i) => stack.push(iter[i as usize]),
                ByteOp::Param(i) => stack.push(params[i as usize]),
                ByteOp::Const(c) => stack.push(c),
                ByteOp::Add => {
                    let b = stack.pop().expect("bytecode stack");
                    let a = stack.last_mut().expect("bytecode stack");
                    *a = a
                        .checked_add(b)
                        .ok_or(IrError::Arithmetic("overflow in add"))?;
                }
                ByteOp::Sub => {
                    let b = stack.pop().expect("bytecode stack");
                    let a = stack.last_mut().expect("bytecode stack");
                    *a = a
                        .checked_sub(b)
                        .ok_or(IrError::Arithmetic("overflow in sub"))?;
                }
                ByteOp::Mul => {
                    let b = stack.pop().expect("bytecode stack");
                    let a = stack.last_mut().expect("bytecode stack");
                    *a = a
                        .checked_mul(b)
                        .ok_or(IrError::Arithmetic("overflow in mul"))?;
                }
                ByteOp::CheckDiv => {
                    if *stack.last().expect("bytecode stack") == 0 {
                        return Err(IrError::Arithmetic("division by zero"));
                    }
                }
                ByteOp::Div => {
                    let a = stack.pop().expect("bytecode stack");
                    let b = stack.last_mut().expect("bytecode stack");
                    *b = a / *b;
                }
                ByteOp::Min => {
                    let b = stack.pop().expect("bytecode stack");
                    let a = stack.last_mut().expect("bytecode stack");
                    *a = (*a).min(b);
                }
                ByteOp::Max => {
                    let b = stack.pop().expect("bytecode stack");
                    let a = stack.last_mut().expect("bytecode stack");
                    *a = (*a).max(b);
                }
                ByteOp::Abs => {
                    let a = stack.last_mut().expect("bytecode stack");
                    *a = a.abs();
                }
            }
        }
        debug_assert_eq!(stack.len(), 1);
        Ok(stack.pop().expect("bytecode stack"))
    }

    /// Evaluate `lanes` consecutive instances in one pass, structure-
    /// of-arrays over the stack: every stack slot holds `lanes`
    /// values, operators sweep each op across all lanes before the
    /// next op runs. Lane `l` sees `reads[r * lanes + l]` for read
    /// slot `r`, iterator `vary` at `iter[vary] + l`, and every other
    /// slot exactly as [`BodyCode::eval`] would. Results land in
    /// `out` (cleared first), one value per lane, identical to `lanes`
    /// scalar evaluations.
    ///
    /// On checked-arithmetic failure the batch aborts with *an* error,
    /// but op-major order means it may not be the error the first
    /// failing lane would report under scalar order — callers needing
    /// exact scalar error semantics re-run the lanes serially through
    /// [`BodyCode::eval`] on any `Err` (the compiled engine does; the
    /// batch has no side effects to undo).
    #[allow(clippy::too_many_arguments)]
    pub fn eval_lanes(
        &self,
        stack: &mut Vec<i64>,
        reads: &[i64],
        lanes: usize,
        iter: &[i64],
        vary: Option<usize>,
        params: &[i64],
        out: &mut Vec<i64>,
    ) -> Result<()> {
        debug_assert!(lanes >= 1);
        debug_assert_eq!(reads.len() % lanes.max(1), 0);
        stack.clear();
        stack.reserve(self.max_stack * lanes);
        /// Pop the top lane slot, apply `f` lane-wise onto the slot
        /// below it.
        macro_rules! binop {
            ($f:expr) => {{
                let n = stack.len();
                let (a, b) = stack[n - 2 * lanes..].split_at_mut(lanes);
                for (x, &y) in a.iter_mut().zip(b.iter()) {
                    *x = $f(*x, y)?;
                }
                stack.truncate(n - lanes);
            }};
        }
        for op in &self.ops {
            match *op {
                ByteOp::Read(i) => {
                    let i = i as usize;
                    stack.extend_from_slice(&reads[i * lanes..(i + 1) * lanes]);
                }
                ByteOp::Iter(i) => {
                    let i = i as usize;
                    let v = iter[i];
                    if vary == Some(i) {
                        stack.extend((0..lanes as i64).map(|l| v + l));
                    } else {
                        stack.extend(std::iter::repeat_n(v, lanes));
                    }
                }
                ByteOp::Param(i) => {
                    stack.extend(std::iter::repeat_n(params[i as usize], lanes));
                }
                ByteOp::Const(c) => stack.extend(std::iter::repeat_n(c, lanes)),
                ByteOp::Add => binop!(|a: i64, b: i64| a
                    .checked_add(b)
                    .ok_or(IrError::Arithmetic("overflow in add"))),
                ByteOp::Sub => binop!(|a: i64, b: i64| a
                    .checked_sub(b)
                    .ok_or(IrError::Arithmetic("overflow in sub"))),
                ByteOp::Mul => binop!(|a: i64, b: i64| a
                    .checked_mul(b)
                    .ok_or(IrError::Arithmetic("overflow in mul"))),
                ByteOp::CheckDiv => {
                    let n = stack.len();
                    if stack[n - lanes..].contains(&0) {
                        return Err(IrError::Arithmetic("division by zero"));
                    }
                }
                ByteOp::Div => {
                    // Dividend is the top slot, divisor below; the
                    // divisor slot receives `a / b` like scalar `Div`.
                    let n = stack.len();
                    let (b, a) = stack[n - 2 * lanes..].split_at_mut(lanes);
                    for (d, &x) in b.iter_mut().zip(a.iter()) {
                        *d = x / *d;
                    }
                    stack.truncate(n - lanes);
                }
                ByteOp::Min => binop!(|a: i64, b: i64| Ok::<i64, IrError>(a.min(b))),
                ByteOp::Max => binop!(|a: i64, b: i64| Ok::<i64, IrError>(a.max(b))),
                ByteOp::Abs => {
                    let n = stack.len();
                    for x in &mut stack[n - lanes..] {
                        *x = x.abs();
                    }
                }
            }
        }
        debug_assert_eq!(stack.len(), lanes);
        out.clear();
        out.extend_from_slice(stack);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(e: Expr) -> Box<Expr> {
        Box::new(e)
    }

    fn msg(e: IrError) -> &'static str {
        match e {
            IrError::Arithmetic(m) => m,
            other => panic!("expected arithmetic error, got {other:?}"),
        }
    }

    /// A moderately deep body exercising every operator.
    fn sample() -> Expr {
        // abs(min(r0 + i0 * p0, max(r1 - 3, i1))) + (r0 / (p0 - 1))
        Expr::Add(
            b(Expr::Abs(b(Expr::Min(
                b(Expr::Add(
                    b(Expr::Read(0)),
                    b(Expr::Mul(b(Expr::Iter(0)), b(Expr::Param(0)))),
                )),
                b(Expr::Max(
                    b(Expr::Sub(b(Expr::Read(1)), b(Expr::Const(3)))),
                    b(Expr::Iter(1)),
                )),
            )))),
            b(Expr::Div(
                b(Expr::Read(0)),
                b(Expr::Sub(b(Expr::Param(0)), b(Expr::Const(1)))),
            )),
        )
    }

    #[test]
    fn matches_interpreter_on_grid() {
        let e = sample();
        let code = BodyCode::compile(&e, 2, 2, 1).unwrap();
        let mut stack = Vec::new();
        for r0 in -4..4 {
            for r1 in -4..4 {
                for i0 in -2..2 {
                    for p0 in -2..3 {
                        let reads = [r0, r1];
                        let iter = [i0, 7];
                        let params = [p0];
                        let want = e.eval(&reads, &iter, &params);
                        let got = code.eval(&mut stack, &reads, &iter, &params);
                        match (want, got) {
                            (Ok(a), Ok(b)) => assert_eq!(a, b),
                            (Err(a), Err(b)) => assert_eq!(msg(a), msg(b)),
                            (w, g) => panic!("diverged: interp {w:?}, compiled {g:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn division_by_zero_matches_interpreter_order() {
        // Interpreter checks the divisor before evaluating the
        // dividend, so an overflowing dividend is never reached.
        let e = Expr::Div(
            b(Expr::Mul(
                b(Expr::Const(i64::MAX)),
                b(Expr::Const(i64::MAX)),
            )),
            b(Expr::Const(0)),
        );
        let code = BodyCode::compile(&e, 0, 0, 0).unwrap();
        let mut stack = Vec::new();
        let want = e.eval(&[], &[], &[]).unwrap_err();
        let got = code.eval(&mut stack, &[], &[], &[]).unwrap_err();
        assert_eq!(msg(want), "division by zero");
        assert_eq!(msg(got), "division by zero");
    }

    #[test]
    fn truncating_division() {
        let e = Expr::Div(b(Expr::Const(-7)), b(Expr::Const(2)));
        let code = BodyCode::compile(&e, 0, 0, 0).unwrap();
        assert_eq!(code.eval(&mut Vec::new(), &[], &[], &[]).unwrap(), -3);
    }

    #[test]
    fn out_of_range_slots_rejected_at_compile_time() {
        for (e, want) in [
            (Expr::Read(2), "read index out of range"),
            (Expr::Iter(1), "iterator index out of range"),
            (Expr::Param(0), "param index out of range"),
        ] {
            let err = BodyCode::compile(&e, 2, 1, 0).unwrap_err();
            assert_eq!(msg(err), want);
        }
    }

    #[test]
    fn eval_lanes_matches_scalar_eval() {
        let e = sample();
        let code = BodyCode::compile(&e, 2, 2, 1).unwrap();
        let (mut stack, mut out) = (Vec::new(), Vec::new());
        let lanes = 4usize;
        // reads laid out slot-major: r0 lanes then r1 lanes.
        let reads = [3, 4, 5, 6, -2, 0, 7, 1];
        let iter = [2i64, 9];
        let params = [5i64];
        code.eval_lanes(&mut stack, &reads, lanes, &iter, Some(1), &params, &mut out)
            .unwrap();
        assert_eq!(out.len(), lanes);
        for l in 0..lanes {
            let rl = [reads[l], reads[lanes + l]];
            let il = [iter[0], iter[1] + l as i64];
            let want = code.eval(&mut stack, &rl, &il, &params).unwrap();
            assert_eq!(out[l], want, "lane {l}");
        }
        // No varying iterator: every lane sees the base point.
        code.eval_lanes(&mut stack, &reads, lanes, &iter, None, &params, &mut out)
            .unwrap();
        let want = code.eval(&mut stack, &[reads[0], reads[lanes]], &iter, &params);
        assert_eq!(out[0], want.unwrap());
    }

    #[test]
    fn eval_lanes_aborts_batch_on_any_lane_error() {
        // r0 / r1 with a zero divisor in lane 2 only.
        let e = Expr::Div(b(Expr::Read(0)), b(Expr::Read(1)));
        let code = BodyCode::compile(&e, 2, 0, 0).unwrap();
        let (mut stack, mut out) = (Vec::new(), Vec::new());
        let reads = [8, 9, 10, 2, 0, 5];
        let err = code
            .eval_lanes(&mut stack, &reads, 3, &[], None, &[], &mut out)
            .unwrap_err();
        assert_eq!(msg(err), "division by zero");
        let ok = [8, 9, 10, 2, 1, 5];
        code.eval_lanes(&mut stack, &ok, 3, &[], None, &[], &mut out)
            .unwrap();
        assert_eq!(out, vec![4, 9, 2]);
    }

    #[test]
    fn max_stack_bounds_evaluation() {
        let e = sample();
        let code = BodyCode::compile(&e, 2, 2, 1).unwrap();
        assert!(code.max_stack() >= 2);
        let mut stack = Vec::with_capacity(code.max_stack());
        code.eval(&mut stack, &[1, 2], &[3, 4], &[5]).unwrap();
        assert!(stack.capacity() >= code.max_stack());
    }
}
