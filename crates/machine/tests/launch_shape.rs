//! A launch has exactly one block shape — the dims every sub-block
//! pins — analysed symbolically once, before any worker runs. A launch
//! whose shape cannot be analysed, or a sub-block that pins other dims
//! than the shape, is a typed error.

use polymem_core::tiling::transform::{tile_program, TileSpec};
use polymem_ir::expr::v;
use polymem_ir::{ArrayStore, Expr, LinExpr, ProgramBuilder};
use polymem_machine::{
    execute_blocked, plan_artifact_key, warm_plan, BlockedKernel, MachineConfig, MachineError,
};
use polymem_poly::PolyError;

/// `Out[i] = A[i] + A[i+1]` with `i` tiled by 4 — in a program that
/// also has a parameter named like the tile dim, `iT`. Pinning `iT`
/// cannot turn it into a parameter of the symbolic view.
fn colliding_kernel(use_scratchpad: bool) -> BlockedKernel {
    let mut b = ProgramBuilder::new("collide", ["N", "iT"]);
    b.array("A", &[v("N") + 1]);
    b.array("Out", &[v("N")]);
    b.stmt("S")
        .loops(&[("i", LinExpr::c(0), v("N") - 1)])
        .write("Out", &[v("i")])
        .read("A", &[v("i")])
        .read("A", &[v("i") + 1])
        .body(Expr::add(Expr::Read(0), Expr::Read(1)))
        .done();
    let p = b.build().unwrap();
    BlockedKernel {
        program: tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap(),
        round_dims: vec![],
        block_dims: vec!["iT".into()],
        seq_dims: vec![],
        thread_dims: vec![],
        use_scratchpad,
    }
}

#[test]
fn block_dim_named_like_a_parameter_is_a_typed_analysis_error() {
    let cfg = MachineConfig::geforce_8800_gtx();
    let params = [10, 0];
    for staged in [true, false] {
        let k = colliding_kernel(staged);
        let mut st = ArrayStore::for_program(&k.program, &params).unwrap();
        let run = execute_blocked(&k, &params, &mut st, &cfg, false);
        assert!(
            matches!(run, Err(MachineError::Smem(_))),
            "staged={staged}: {run:?}"
        );
    }
    let k = colliding_kernel(true);
    let warmed = warm_plan(&k, &params, &cfg, None, None).map(|w| w.map(|(_, src)| src));
    assert!(matches!(warmed, Err(MachineError::Smem(_))), "{warmed:?}");
    let key = plan_artifact_key(&k, &params, &cfg);
    assert!(matches!(key, Err(MachineError::Smem(_))), "{key:?}");
}

/// `Out[i] = A[i]` under block dim `b ∈ {0, 1}` and seq dim `s` with
/// `2s = b`: the projection onto `b` keeps `b = 1`, whose integer
/// fibre over `s` is empty. The first block pins `{b, s}` — the launch
/// shape — and the second can only pin `{b}`.
fn hollow_block_kernel() -> BlockedKernel {
    let mut b = ProgramBuilder::new("hollow", ["N"]);
    b.array("A", &[v("N")]);
    b.array("Out", &[v("N")]);
    b.stmt("S")
        .loops(&[
            ("b", LinExpr::c(0), LinExpr::c(1)),
            ("s", LinExpr::c(0), LinExpr::c(1)),
            ("i", LinExpr::c(0), v("N") - 1),
        ])
        .guard_le(v("b"), v("s") * 2)
        .guard_le(v("s") * 2, v("b"))
        .write("Out", &[v("i")])
        .read("A", &[v("i")])
        .body(Expr::Read(0))
        .done();
    BlockedKernel {
        program: b.build().unwrap(),
        round_dims: vec![],
        block_dims: vec!["b".into()],
        seq_dims: vec!["s".into()],
        thread_dims: vec![],
        use_scratchpad: true,
    }
}

#[test]
fn sub_block_pinning_fewer_dims_than_the_shape_is_a_typed_error() {
    let cfg = MachineConfig::geforce_8800_gtx();
    let k = hollow_block_kernel();
    let mut st = ArrayStore::for_program(&k.program, &[8]).unwrap();
    for parallel in [false, true] {
        let run = execute_blocked(&k, &[8], &mut st, &cfg, parallel);
        assert!(
            matches!(
                run,
                Err(MachineError::Poly(PolyError::SpaceMismatch { .. }))
            ),
            "parallel={parallel}: {run:?}"
        );
    }
}
