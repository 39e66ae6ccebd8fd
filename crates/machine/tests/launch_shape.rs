//! A launch has exactly one block shape — the dims every sub-block
//! pins — analysed symbolically once, before any worker runs. A launch
//! whose shape cannot be analysed, a sub-block that pins other dims
//! than the shape, or a level naming a dim the launch grid cannot place
//! is a typed error; the order a level lists its dims in is free.

use polymem_core::tiling::transform::{tile_program, TileSpec};
use polymem_ir::expr::v;
use polymem_ir::{exec_program, ArrayStore, Expr, LinExpr, Program, ProgramBuilder};
use polymem_machine::{
    execute_blocked, plan_artifact_key, structure_of, warm_plan, BlockedKernel, MachineConfig,
    MachineError,
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

/// `Out[i][j] = A[i][j] + A[i][j+1]` tiled 4×`tj`, mapped with the
/// given block and seq dims — as `tile_kernel` rebuilds a kernel from
/// the dim names a tune artifact's `MappingDesc` carries. Returns the
/// untiled program alongside.
fn window_kernel(tj: i64, block_dims: &[&str], seq_dims: &[&str]) -> (Program, BlockedKernel) {
    let mut b = ProgramBuilder::new("w", ["N"]);
    b.array("A", &[v("N"), v("N") + 1]);
    b.array("Out", &[v("N"), v("N")]);
    b.stmt("S")
        .loops(&[
            ("i", LinExpr::c(0), v("N") - 1),
            ("j", LinExpr::c(0), v("N") - 1),
        ])
        .write("Out", &[v("i"), v("j")])
        .read("A", &[v("i"), v("j")])
        .read("A", &[v("i"), v("j") + 1])
        .body(Expr::add(Expr::Read(0), Expr::Read(1)))
        .done();
    let p = b.build().unwrap();
    let names = |dims: &[&str]| dims.iter().map(|d| d.to_string()).collect();
    let k = BlockedKernel {
        program: tile_program(&p, &TileSpec::new(&[("i", 4), ("j", tj)], "T")).unwrap(),
        round_dims: vec![],
        block_dims: names(block_dims),
        seq_dims: names(seq_dims),
        thread_dims: vec![],
        use_scratchpad: true,
    };
    (p, k)
}

/// A level naming a dim the lead statement does not iterate used to
/// enumerate to nothing and run the launch as one untiled level; a dim
/// named twice pinned it once and enumerated it again. Both are typed
/// errors from every entry point that builds the launch grid.
#[test]
fn unknown_or_repeated_level_dims_are_typed_errors() {
    let cfg = MachineConfig::geforce_8800_gtx();
    let params = [8];
    let shape_error =
        |e: &MachineError| matches!(e, MachineError::Poly(PolyError::SpaceMismatch { .. }));
    for (what, (_, k)) in [
        ("misspelt block dim", window_kernel(4, &["iT", "jTT"], &[])),
        ("foreign seq dim", window_kernel(4, &["iT"], &["kT"])),
        (
            "dim named by two levels",
            window_kernel(4, &["iT", "jT"], &["jT"]),
        ),
        (
            "dim repeated within a level",
            window_kernel(4, &["iT", "iT"], &["jT"]),
        ),
    ] {
        let mut st = ArrayStore::for_program(&k.program, &params).unwrap();
        let run = execute_blocked(&k, &params, &mut st, &cfg, false);
        assert!(run.as_ref().is_err_and(shape_error), "{what}: {run:?}");
        let warmed = warm_plan(&k, &params, &cfg, None, None).map(|w| w.map(|(_, src)| src));
        assert!(
            warmed.as_ref().is_err_and(shape_error),
            "{what}: {warmed:?}"
        );
        let key = plan_artifact_key(&k, &params, &cfg);
        assert!(key.as_ref().is_err_and(shape_error), "{what}: {key:?}");
        let shape = structure_of(&k, &params, &cfg);
        assert!(shape.as_ref().is_err_and(shape_error), "{what}: {shape:?}");
    }
    // The well-formed mapping still launches.
    let (_, k) = window_kernel(4, &["iT"], &["jT"]);
    let mut st = ArrayStore::for_program(&k.program, &params).unwrap();
    execute_blocked(&k, &params, &mut st, &cfg, false).unwrap();
}

/// A level may list its dims in any order: the projection enumerates
/// in domain order, and every value must land on its own dim. (Zipped
/// against the listed order, 10×10 under 4×2 tiles pinned `jT` to
/// `iT`'s values and silently executed 60 of the 100 instances.)
#[test]
fn level_dims_listed_against_domain_order_still_pin_by_name() {
    let (p, k) = window_kernel(2, &["jT", "iT"], &[]);
    let cfg = MachineConfig::geforce_8800_gtx();
    let mut st = ArrayStore::for_program(&p, &[10]).unwrap();
    st.fill_with("A", |ix| ix[0] * 100 + ix[1]).unwrap();
    let mut want = st.clone();
    exec_program(&p, &[10], &mut want).unwrap();
    let stats = execute_blocked(&k, &[10], &mut st, &cfg, false).unwrap();
    assert_eq!((stats.blocks, stats.instances), (15, 100));
    assert_eq!(st.data("Out").unwrap(), want.data("Out").unwrap());
}
