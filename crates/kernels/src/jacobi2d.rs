//! 2-D Jacobi (5-point stencil) — an extension workload exercising
//! 2-D data spaces with halos, used by examples and property tests.
//!
//! ```text
//! for t = 1, T
//!   for i = 1, N; for j = 1, N
//!     A[t][i][j] = (A[t-1][i][j] + A[t-1][i-1][j] + A[t-1][i+1][j]
//!                   + A[t-1][i][j-1] + A[t-1][i][j+1]) / 5
//! ```

use crate::synth_value;
use polymem_ir::expr::v;
use polymem_ir::{ArrayStore, Expr, LinExpr, Program, ProgramBuilder};

/// Build the program; `A[T+1][N+2][N+2]` keeps all time rows.
pub fn program() -> Program {
    let mut b = ProgramBuilder::new("jacobi2d", ["T", "N"]);
    b.array("A", &[v("T") + 1, v("N") + 2, v("N") + 2]);
    let at =
        |dt: i64, di: i64, dj: i64| -> Vec<LinExpr> { vec![v("t") + dt, v("i") + di, v("j") + dj] };
    b.stmt("S")
        .loops(&[
            ("t", LinExpr::c(1), v("T")),
            ("i", LinExpr::c(1), v("N")),
            ("j", LinExpr::c(1), v("N")),
        ])
        .write("A", &at(0, 0, 0))
        .read("A", &at(-1, 0, 0))
        .read("A", &at(-1, -1, 0))
        .read("A", &at(-1, 1, 0))
        .read("A", &at(-1, 0, -1))
        .read("A", &at(-1, 0, 1))
        .body(Expr::div(
            Expr::add(
                Expr::add(
                    Expr::add(Expr::Read(0), Expr::Read(1)),
                    Expr::add(Expr::Read(2), Expr::Read(3)),
                ),
                Expr::Read(4),
            ),
            Expr::Const(5),
        ))
        .done();
    b.build().expect("jacobi2d is well-formed")
}

/// Parameters for [`program`].
pub fn params(t: i64, n: i64) -> Vec<i64> {
    vec![t, n]
}

/// Deterministic initial condition on time row 0.
pub fn init_store(store: &mut ArrayStore, seed: u64) {
    store
        .fill_with("A", |ix| {
            if ix[0] == 0 {
                synth_value(seed, &ix[1..])
            } else {
                0
            }
        })
        .expect("A exists");
}

/// Native reference implementation.
pub fn reference(store: &mut ArrayStore, t_max: i64, n: i64) {
    let row = (n + 2) as usize;
    let plane = row * row;
    let a = store.data_mut("A").expect("A");
    for t in 1..=t_max as usize {
        for i in 1..=n as usize {
            for j in 1..=n as usize {
                let p = (t - 1) * plane;
                a[t * plane + i * row + j] = (a[p + i * row + j]
                    + a[p + (i - 1) * row + j]
                    + a[p + (i + 1) * row + j]
                    + a[p + i * row + j - 1]
                    + a[p + i * row + j + 1])
                    / 5;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_kernel;
    use polymem_ir::exec_program;
    use polymem_machine::{execute_blocked, MachineConfig};

    #[test]
    fn interpreter_matches_native() {
        let p = program();
        let prm = params(3, 6);
        let mut st = ArrayStore::for_program(&p, &prm).unwrap();
        init_store(&mut st, 21);
        let mut native = st.clone();
        exec_program(&p, &prm, &mut st).unwrap();
        reference(&mut native, 3, 6);
        assert_eq!(st.data("A").unwrap(), native.data("A").unwrap());
    }

    #[test]
    fn stepwise_blocked_with_scratchpad_matches_native() {
        let p = program();
        let prm = params(2, 8);
        let mut st = ArrayStore::for_program(&p, &prm).unwrap();
        init_store(&mut st, 33);
        let mut native = st.clone();
        let k = table_kernel("jacobi2d", &[4, 4], false, true);
        let cfg = MachineConfig::geforce_8800_gtx();
        let stats = execute_blocked(&k, &prm, &mut st, &cfg, true).unwrap();
        reference(&mut native, 2, 8);
        assert_eq!(st.data("A").unwrap(), native.data("A").unwrap());
        assert!(stats.moved_in > 0);
        assert_eq!(stats.rounds, 2);
    }

    #[test]
    fn seq_kernel_double_buffers_bit_exactly() {
        let p = program();
        let prm = params(2, 8);
        let mut native = {
            let mut st = ArrayStore::for_program(&p, &prm).unwrap();
            init_store(&mut st, 33);
            st
        };
        reference(&mut native, 2, 8);
        let k = table_kernel("jacobi2d", &[4, 4], true, true);
        let run = |double_buffer: bool| {
            let mut st = ArrayStore::for_program(&p, &prm).unwrap();
            init_store(&mut st, 33);
            let mut cfg = MachineConfig::cell_like();
            cfg.double_buffer = double_buffer;
            let stats = execute_blocked(&k, &prm, &mut st, &cfg, false).unwrap();
            (st, stats)
        };
        let (off_st, off) = run(false);
        let (on_st, on) = run(true);
        assert_eq!(on_st.data("A").unwrap(), native.data("A").unwrap());
        assert_eq!(off_st.data("A").unwrap(), native.data("A").unwrap());
        // The t recurrence lives in rounds, so jT sub-tiles overlap.
        assert!(on.overlap_groups > 0);
        assert_eq!(on.sync_groups, 0);
        assert!(on.modeled_cycles <= off.modeled_cycles);
    }
}
