//! Randomized bit-exactness: the compiled block execution engine must
//! agree with the per-point interpreter — same array contents, same
//! deterministic counters — across random affine accesses, random
//! statement bodies, random block shapes, scratchpad staging on/off
//! and double buffering on/off. Plus directed checks that an
//! out-of-bounds access on the compiled engine's guarded addressing
//! path surfaces as the same typed error the interpreter raises, that
//! staged movement checks every index per dimension, and that a launch
//! refuses a store built for other parameter values.

use polymem_core::tiling::transform::{tile_program, TileSpec};
use polymem_ir::expr::v;
use polymem_ir::{exec_program, ArrayStore, Expr, IrError, LinExpr, Program, ProgramBuilder};
use polymem_machine::{execute_blocked, BlockedKernel, MachineConfig, MachineError};
use proptest::prelude::*;

/// A 2-D program of one to two statements with randomized affine reads
/// and bodies. All access shapes keep indices inside A's padded extents
/// for i, j in [0, N-1]. Shape 3 makes the one statement a row
/// recurrence: it writes `B[i][j + 1]` and reads `B[i][j]`, the cell its
/// previous innermost instance wrote.
fn random_program(shape: u8, body_sel: u8, c: (i64, i64, i64, i64)) -> Program {
    let (c0, c1, swap, c3) = c;
    let mut b = ProgramBuilder::new("rnd", ["N"]);
    b.array("A", &[v("N") + 4, v("N") + 4]);
    b.array("C", &[v("N"), v("N")]);
    b.array("B", &[v("N"), v("N") + 1]);
    let r1 = if swap == 1 {
        [v("j") + c3, v("i")]
    } else {
        [v("i") + c3, v("j") + c1]
    };
    let mut body = match body_sel {
        0 => Expr::add(Expr::Read(0), Expr::Read(1)),
        1 => Expr::mul(Expr::Read(0), Expr::Read(1)),
        2 => Expr::add(Expr::mul(Expr::Read(0), Expr::Const(3)), Expr::Iter(0)),
        3 => Expr::sub(Expr::Read(0), Expr::add(Expr::Read(1), Expr::Iter(1))),
        4 => Expr::add(Expr::div(Expr::Read(0), Expr::Const(3)), Expr::Read(1)),
        _ => Expr::sub(Expr::mul(Expr::Read(1), Expr::Param(0)), Expr::Read(0)),
    };
    let (warr, w) = if shape == 3 {
        ("B", [v("i"), v("j") + 1])
    } else {
        ("C", [v("i"), v("j")])
    };
    let mut s1 = b
        .stmt("S1")
        .loops(&[
            ("i", LinExpr::c(0), v("N") - 1),
            ("j", LinExpr::c(0), v("N") - 1),
        ])
        .write(warr, &w)
        .read("A", &[v("i") + c0, v("j") + c1])
        .read("A", &[r1[0].clone(), r1[1].clone()]);
    if shape == 3 {
        s1 = s1.read("B", &[v("i"), v("j")]);
        body = Expr::add(body, Expr::Read(2));
    }
    s1.body(body).done();
    if shape == 1 || shape == 2 {
        // A second statement reading the first one's output array, so
        // interleaved source order across statements matters.
        b.stmt("S2")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("N") - 1),
            ])
            .write("C", &[v("i"), v("j")])
            .read("C", &[v("i"), v("j")])
            .read("A", &[v("j"), v("i")])
            .body(Expr::add(
                Expr::mul(Expr::Read(0), Expr::Const(2)),
                Expr::Read(1),
            ))
            .done();
    }
    b.build().unwrap()
}

fn kernel_for(p: &Program, ti: u32, tj: u32, mode: u8) -> BlockedKernel {
    let t = tile_program(
        p,
        &TileSpec::new(&[("i", ti as i64), ("j", tj as i64)], "T"),
    )
    .unwrap();
    match mode {
        // All-parallel blocks, DRAM-only or staged.
        0 | 1 => BlockedKernel {
            program: t,
            round_dims: vec![],
            block_dims: vec!["iT".into(), "jT".into()],
            seq_dims: vec![],
            thread_dims: vec![],
            use_scratchpad: mode == 1,
        },
        // Sequential sub-tiles inside each block (sync or pipelined).
        _ => BlockedKernel {
            program: t,
            round_dims: vec![],
            block_dims: vec!["iT".into()],
            seq_dims: vec!["jT".into()],
            thread_dims: vec![],
            use_scratchpad: true,
        },
    }
}

fn fresh_store(p: &Program, n: i64) -> ArrayStore {
    let mut st = ArrayStore::for_program(p, &[n]).unwrap();
    st.fill_with("A", |ix| ix[0] * 101 + ix[1] * 7 - 50)
        .unwrap();
    st
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Compiled and interpreted execution are indistinguishable:
    /// identical final arrays (every one equal to the reference
    /// interpreter's) and identical deterministic counters.
    #[test]
    fn compiled_execution_is_bit_exact(
        n in 6i64..=11,
        ti in 2u32..=4,
        tj in 2u32..=4,
        mode in 0u8..=3,
        shape in 0u8..=3,
        body_sel in 0u8..=5,
        c in (0i64..=2, 0i64..=2, 0i64..=1, 0i64..=2),
    ) {
        let p = random_program(shape, body_sel, c);
        // The row recurrence carries a dependence along `j`: only the
        // mappings that run `jT` sequentially inside a block keep it.
        let mode = if shape == 3 { 2 + mode % 2 } else { mode };
        let k = kernel_for(&p, ti, tj, mode);
        let mut cfg = if mode >= 2 {
            MachineConfig::cell_like()
        } else {
            MachineConfig::geforce_8800_gtx()
        };
        cfg.double_buffer = mode == 3;

        let mut reference = fresh_store(&p, n);
        exec_program(&p, &[n], &mut reference).unwrap();

        let mut interp = fresh_store(&p, n);
        cfg.compiled_exec = false;
        let s_interp = execute_blocked(&k, &[n], &mut interp, &cfg, false).unwrap();

        let mut compiled = fresh_store(&p, n);
        cfg.compiled_exec = true;
        let s_compiled = execute_blocked(&k, &[n], &mut compiled, &cfg, false).unwrap();

        for a in &p.arrays {
            let want = reference.data(&a.name).unwrap();
            prop_assert_eq!(compiled.data(&a.name).unwrap(), want, "array {}", &a.name);
            prop_assert_eq!(interp.data(&a.name).unwrap(), want, "array {}", &a.name);
        }
        // `ExecStats` equality covers every deterministic counter and
        // ignores wall-clock compute time.
        prop_assert_eq!(s_compiled, s_interp);
    }
}

#[test]
fn guarded_fallback_reports_typed_out_of_bounds() {
    // A[i + N] can never be proven in-bounds (it never is), so the
    // compiled engine lowers it to guarded addressing — which must
    // surface the same typed error as `ArrayStore::get`.
    let mut b = ProgramBuilder::new("oob", ["N"]);
    b.array("A", &[v("N")]);
    b.array("C", &[v("N")]);
    b.stmt("S")
        .loops(&[("i", LinExpr::c(0), v("N") - 1)])
        .write("C", &[v("i")])
        .read("A", &[v("i") + v("N")])
        .body(Expr::Read(0))
        .done();
    let p = b.build().unwrap();
    let t = tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap();
    let k = BlockedKernel {
        program: t,
        round_dims: vec![],
        block_dims: vec!["iT".into()],
        seq_dims: vec![],
        thread_dims: vec![],
        use_scratchpad: false,
    };
    let mut cfg = MachineConfig::geforce_8800_gtx();
    cfg.compiled_exec = true;
    let mut st = ArrayStore::for_program(&p, &[8]).unwrap();
    match execute_blocked(&k, &[8], &mut st, &cfg, false) {
        Err(MachineError::Ir(IrError::OutOfBounds { array, index })) => {
            assert_eq!(array, "A");
            assert_eq!(index, vec![8]);
        }
        other => panic!("expected a typed out-of-bounds error, got {other:?}"),
    }
}

/// `C[i][j] = A[i][j] / (j - 3)` divides by zero at `j = 3` in every
/// row, mid-way through a run of the innermost dim: both engines stop
/// with the same typed arithmetic error, staged or not.
#[test]
fn a_faulting_body_is_the_same_typed_error_on_both_engines() {
    let mut b = ProgramBuilder::new("div", ["N"]);
    b.array("A", &[v("N"), v("N")]);
    b.array("C", &[v("N"), v("N")]);
    b.stmt("S")
        .loops(&[
            ("i", LinExpr::c(0), v("N") - 1),
            ("j", LinExpr::c(0), v("N") - 1),
        ])
        .write("C", &[v("i"), v("j")])
        .read("A", &[v("i"), v("j")])
        .body(Expr::div(
            Expr::Read(0),
            Expr::sub(Expr::Iter(1), Expr::Const(3)),
        ))
        .done();
    let p = b.build().unwrap();
    for mode in 0..=3 {
        let k = kernel_for(&p, 4, 8, mode);
        let mut cfg = if mode >= 2 {
            MachineConfig::cell_like()
        } else {
            MachineConfig::geforce_8800_gtx()
        };
        for compiled_exec in [false, true] {
            cfg.compiled_exec = compiled_exec;
            let mut st = fresh_store(&p, 8);
            match execute_blocked(&k, &[8], &mut st, &cfg, false) {
                Err(MachineError::Ir(e)) => {
                    assert_eq!(e, IrError::Arithmetic("division by zero"), "mode {mode}")
                }
                other => panic!("mode {mode}, compiled {compiled_exec}: got {other:?}"),
            }
        }
    }
}

/// A store whose arrays have other extents than the program declares at
/// the launch's parameters is refused before anything runs, with the
/// typed error naming the array: `C[i][j] = A[i][j] + 1` in 2x2 tiles,
/// launched at `N = 4` on stores built for `N = 8` and `N = 2`, on both
/// engines, staged and unstaged, on gpu and cell. Before the launch
/// checked its store, all 8 configurations of the `N = 8` store returned
/// `Ok` with `C` at the wrong elements: offsets computed for 4x4 arrays
/// landed in 8x8 slices, so `C[0..16]` came out
/// `[1, 2, 3, 4, 101, 102, 103, 104, …]` where the reference has
/// `[1, 2, 3, 4, 0, 0, 0, 0, 101, …]` (and on staged cell the move-in
/// read the wrong `A` elements too).
#[test]
fn a_store_built_for_other_params_is_refused() {
    let mut b = ProgramBuilder::new("plus1", ["N"]);
    b.array("A", &[v("N"), v("N")]);
    b.array("C", &[v("N"), v("N")]);
    b.stmt("S")
        .loops(&[
            ("i", LinExpr::c(0), v("N") - 1),
            ("j", LinExpr::c(0), v("N") - 1),
        ])
        .write("C", &[v("i"), v("j")])
        .read("A", &[v("i"), v("j")])
        .body(Expr::add(Expr::Read(0), Expr::Const(1)))
        .done();
    let p = b.build().unwrap();
    let t = tile_program(&p, &TileSpec::new(&[("i", 2), ("j", 2)], "T")).unwrap();
    let mut cases = 0;
    for built_for in [8i64, 2] {
        for use_scratchpad in [false, true] {
            for compiled_exec in [false, true] {
                for mut cfg in [
                    MachineConfig::geforce_8800_gtx(),
                    MachineConfig::cell_like(),
                ] {
                    cfg.compiled_exec = compiled_exec;
                    let k = BlockedKernel {
                        program: t.clone(),
                        round_dims: vec![],
                        block_dims: vec!["iT".into(), "jT".into()],
                        seq_dims: vec![],
                        thread_dims: vec![],
                        use_scratchpad,
                    };
                    let mut st = ArrayStore::for_program(&p, &[built_for]).unwrap();
                    st.fill_with("A", |ix| ix[0] * 100 + ix[1]).unwrap();
                    let at = format!(
                        "N = {built_for} store, staged {use_scratchpad}, \
                         compiled {compiled_exec}, must-stage {}",
                        cfg.caps.must_stage
                    );
                    match execute_blocked(&k, &[4], &mut st, &cfg, false) {
                        Err(MachineError::StoreMismatch {
                            array,
                            expected,
                            found,
                        }) => assert_eq!(
                            (array.as_str(), expected, found),
                            ("A", vec![4, 4], vec![built_for; 2]),
                            "{at}"
                        ),
                        other => panic!("{at}: expected the store to be refused, got {other:?}"),
                    }
                    assert!(st.data("C").unwrap().iter().all(|&c| c == 0), "{at}");
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 16);
}

/// `C[i][j] = A[i][j + 1]` (read) or `C[i][j + 1] = A[i][j]` (write)
/// over `0 <= i, j <= N - 1` with `A, C: [N][N]`, tiled 4x4 on the
/// must-stage cell: the element `[i][N]` of the staged array has a flat
/// offset inside the array (it is `[i + 1][0]`'s), so only a
/// per-dimension check catches it. The read fails in move-in, the write
/// in move-out, both at `[0][8]`: the index the per-element copy
/// reported before level-1 copies executed DMA lists.
fn staged_edge_overrun(write: bool) -> Result<(), MachineError> {
    let mut b = ProgramBuilder::new("edge", ["N"]);
    b.array("A", &[v("N"), v("N")]);
    b.array("C", &[v("N"), v("N")]);
    let (w, r) = if write {
        ([v("i"), v("j") + 1], [v("i"), v("j")])
    } else {
        ([v("i"), v("j")], [v("i"), v("j") + 1])
    };
    b.stmt("S")
        .loops(&[
            ("i", LinExpr::c(0), v("N") - 1),
            ("j", LinExpr::c(0), v("N") - 1),
        ])
        .write("C", &w)
        .read("A", &r)
        .body(Expr::Read(0))
        .done();
    let p = b.build().unwrap();
    let t = tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 4)], "T")).unwrap();
    let k = BlockedKernel {
        program: t,
        round_dims: vec![],
        block_dims: vec!["iT".into(), "jT".into()],
        seq_dims: vec![],
        thread_dims: vec![],
        use_scratchpad: true,
    };
    let mut st = ArrayStore::for_program(&p, &[8]).unwrap();
    st.fill_with("A", |ix| ix[0] * 100 + ix[1]).unwrap();
    execute_blocked(&k, &[8], &mut st, &MachineConfig::cell_like(), false).map(|_| ())
}

#[test]
fn staged_movement_keeps_per_dimension_bounds_checks() {
    for (write, array) in [(false, "A"), (true, "C")] {
        match staged_edge_overrun(write) {
            Err(MachineError::Ir(IrError::OutOfBounds { array: a, index })) => {
                assert_eq!((a.as_str(), index), (array, vec![0, 8]), "write={write}");
            }
            other => panic!("write={write}: expected a typed out-of-bounds error, got {other:?}"),
        }
    }
}
