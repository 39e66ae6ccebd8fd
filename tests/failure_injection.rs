//! Failure-injection tests: the pipeline must *report* pathological
//! inputs, never silently mis-compile them.
//!
//! * coefficient overflow in exact arithmetic,
//! * unbounded iteration domains (no finite buffer exists),
//! * scratchpad overflow at execution,
//! * out-of-bounds accesses in source programs,
//! * degenerate/empty domains flowing through every pass,
//! * enumeration budget exhaustion (in counting and in the executor),
//! * a panicking block worker surfacing as a typed error.

use polymem::core::smem::{analyze_program, SmemConfig, SmemError};
use polymem::ir::expr::v;
use polymem::ir::{exec_program, ArrayStore, Expr, IrError, LinExpr, ProgramBuilder};
use polymem::linalg::{IMat, LinalgError};
use polymem::poly::count::count_points;
use polymem::poly::{Constraint, PolyError, Polyhedron, Space};

/// ME's flat table mapping at `t × t` position tiles, staged iff
/// `use_scratchpad`.
fn me_kernel(t: i64, use_scratchpad: bool) -> polymem::machine::BlockedKernel {
    let desc = polymem::core::smem::tune::MappingDesc {
        use_scratchpad,
        ..polymem::kernels::builtins::Builtin::named("me")
            .unwrap()
            .tiled(&[t, t], false)
    };
    polymem::kernels::tunespace::build("me", &desc).unwrap()
}

#[test]
fn linalg_overflow_is_reported_not_wrapped() {
    let big = IMat::from_rows(&[&[i64::MAX, i64::MAX]]);
    assert!(matches!(
        big.mul(&big.transpose()),
        Err(LinalgError::Overflow)
    ));
    let v1 = polymem::linalg::IVec::from_slice(&[i64::MAX]);
    assert!(matches!(v1.checked_scale(3), Err(LinalgError::Overflow)));
}

#[test]
fn fm_overflow_propagates_through_poly() {
    // Huge coefficients make the FM combination overflow i64; the
    // operation must fail loudly.
    let p = Polyhedron::new(
        Space::new(["x", "y"], Vec::<String>::new()),
        vec![
            Constraint::ineq(vec![i64::MAX / 2, 1, 0]),
            Constraint::ineq(vec![-(i64::MAX / 2), i64::MAX / 4, 0]),
            Constraint::ineq(vec![0, -1, 100]),
        ],
    );
    match p.eliminate_dim(0) {
        Err(PolyError::Linalg(LinalgError::Overflow)) => {}
        Ok(_) => {} // simplification may discharge it; both acceptable
        Err(e) => panic!("unexpected error {e}"),
    }
}

#[test]
#[allow(clippy::erasing_op)] // `j * 0` below is a deliberately vacuous guard
fn unbounded_domain_yields_unbounded_buffer_error() {
    // for i >= 0 (no upper bound): A's accessed region is unbounded,
    // so no finite scratchpad buffer exists.
    let mut b = ProgramBuilder::new("unbounded", ["N"]);
    b.array("A", &[v("N")]);
    b.array("Out", &[v("N"), v("N")]);
    b.stmt("S")
        .loops(&[
            ("i", LinExpr::c(0), v("N") - 1),
            ("j", LinExpr::c(0), v("N") - 1),
        ])
        .guard_le(v("j") * 0, v("i")) // vacuous; keeps shape
        .write("Out", &[v("i"), v("j")])
        .read("A", &[v("j")])
        .body(Expr::Read(0))
        .done();
    let p = b.build().unwrap();
    // Remove the j upper bound by rebuilding with an open domain.
    let mut open = p.clone();
    let dom = &open.stmts[0].domain;
    let kept: Vec<polymem::poly::Constraint> = dom
        .constraints()
        .iter()
        .filter(|c| c.coeff(1) >= 0) // drop upper bounds on j
        .cloned()
        .collect();
    open.stmts[0].domain = Polyhedron::new(dom.space().clone(), kept);
    let err = analyze_program(
        &open,
        &SmemConfig {
            sample_params: vec![8],
            ..SmemConfig::default()
        },
    );
    assert!(
        matches!(err, Err(SmemError::UnboundedBuffer { .. })),
        "{err:?}"
    );
}

#[test]
fn empty_domains_flow_through_every_pass() {
    // A statement whose domain is empty (lb > ub): analysis yields no
    // buffers and execution does nothing.
    let mut b = ProgramBuilder::new("empty", ["N"]);
    b.array("A", &[v("N")]);
    b.stmt("S")
        .loops(&[("i", LinExpr::c(5), LinExpr::c(1))]) // empty
        .write("A", &[v("i")])
        .read("A", &[v("i")])
        .body(Expr::Read(0))
        .done();
    let p = b.build().unwrap();
    let plan = analyze_program(
        &p,
        &SmemConfig {
            sample_params: vec![8],
            ..SmemConfig::default()
        },
    )
    .unwrap();
    assert!(plan.buffers.is_empty());
    let mut st = ArrayStore::for_program(&p, &[8]).unwrap();
    st.fill_with("A", |ix| ix[0]).unwrap();
    let before = st.data("A").unwrap().to_vec();
    exec_program(&p, &[8], &mut st).unwrap();
    assert_eq!(st.data("A").unwrap(), &before[..]);
}

#[test]
fn out_of_bounds_program_fails_cleanly() {
    let mut b = ProgramBuilder::new("oob", ["N"]);
    b.array("A", &[v("N")]);
    b.stmt("S")
        .loops(&[("i", LinExpr::c(0), v("N"))]) // one past the end
        .write("A", &[v("i")])
        .body(Expr::Const(1))
        .done();
    let p = b.build().unwrap();
    let mut st = ArrayStore::for_program(&p, &[4]).unwrap();
    let err = exec_program(&p, &[4], &mut st);
    assert!(matches!(err, Err(IrError::OutOfBounds { .. })), "{err:?}");
}

#[test]
fn negative_extent_arrays_are_rejected() {
    let mut b = ProgramBuilder::new("neg", ["N"]);
    b.array("A", &[v("N") - 100]);
    b.stmt("S")
        .loops(&[("i", LinExpr::c(0), LinExpr::c(0))])
        .write("A", &[v("i")])
        .body(Expr::Const(0))
        .done();
    let p = b.build().unwrap();
    assert!(matches!(
        ArrayStore::for_program(&p, &[3]),
        Err(IrError::OutOfBounds { .. })
    ));
}

#[test]
fn count_budget_exhaustion_is_typed() {
    let p = Polyhedron::new(
        Space::new(["i", "j"], Vec::<String>::new()),
        vec![
            Constraint::ineq(vec![1, 0, 0]),
            Constraint::ineq(vec![-1, 0, 999]),
            Constraint::ineq(vec![0, 1, 0]),
            Constraint::ineq(vec![0, -1, 999]),
        ],
    );
    assert!(matches!(
        count_points(&p, 100),
        Err(PolyError::TooManyPoints { budget: 100 })
    ));
}

#[test]
fn division_by_zero_in_statement_bodies() {
    let mut b = ProgramBuilder::new("div0", ["N"]);
    b.array("A", &[v("N")]);
    b.stmt("S")
        .loops(&[("i", LinExpr::c(0), v("N") - 1)])
        .write("A", &[v("i")])
        .read("A", &[v("i")])
        .body(Expr::div(Expr::Read(0), Expr::Iter(0))) // /0 at i = 0
        .done();
    let p = b.build().unwrap();
    let mut st = ArrayStore::for_program(&p, &[4]).unwrap();
    st.fill_with("A", |_| 7).unwrap();
    assert!(matches!(
        exec_program(&p, &[4], &mut st),
        Err(IrError::Arithmetic(_))
    ));
}

#[test]
fn executor_enumeration_budget_is_configurable_and_typed() {
    use polymem::kernels::me;
    use polymem::machine::{execute_blocked, MachineConfig, MachineError};
    let size = me::MeSize {
        ni: 8,
        nj: 8,
        ws: 3,
    };
    let p = me::program();
    let mut st = ArrayStore::for_program(&p, &me::params(&size)).unwrap();
    me::init_store(&mut st, 0);
    // A tiny budget: enumerating the instances of even one block
    // exceeds it, and the executor reports which budget it was.
    let mut cfg = MachineConfig::geforce_8800_gtx();
    cfg.enum_budget = 3;
    match execute_blocked(
        &me_kernel(4, false),
        &me::params(&size),
        &mut st,
        &cfg,
        false,
    ) {
        Err(MachineError::EnumerationBudget { budget }) => assert_eq!(budget, 3),
        other => panic!("expected budget exhaustion, got {other:?}"),
    }
    // A budget the 2x2 block grid fits but no block's 144 instances
    // do: the block's own enumeration runs out, with the same typed
    // error whichever engine enumerates it.
    for compiled_exec in [true, false] {
        cfg.enum_budget = 16;
        cfg.compiled_exec = compiled_exec;
        match execute_blocked(
            &me_kernel(4, false),
            &me::params(&size),
            &mut st,
            &cfg,
            false,
        ) {
            Err(MachineError::EnumerationBudget { budget }) => assert_eq!(budget, 16),
            other => {
                panic!("compiled_exec={compiled_exec}: expected budget exhaustion, got {other:?}")
            }
        }
    }
    // The default budget is generous and the same run succeeds.
    cfg.enum_budget = polymem::machine::config::DEFAULT_ENUM_BUDGET;
    execute_blocked(
        &me_kernel(4, false),
        &me::params(&size),
        &mut st,
        &cfg,
        false,
    )
    .unwrap();
}

#[test]
fn panicking_block_worker_is_a_typed_error() {
    use polymem::kernels::me;
    use polymem::machine::{execute_blocked, MachineConfig, MachineError};
    let size = me::MeSize {
        ni: 8,
        nj: 8,
        ws: 3,
    };
    let p = me::program();
    let mut st = ArrayStore::for_program(&p, &me::params(&size)).unwrap();
    me::init_store(&mut st, 0);
    let cfg = MachineConfig::geforce_8800_gtx();
    // Inject a panic into block worker 1 (env hook used only by this
    // test binary; serial with respect to other env readers because
    // the executor reads it once per launch).
    std::env::set_var("POLYMEM_FAULT_PANIC_BLOCK", "1");
    let res = execute_blocked(
        &me_kernel(4, false),
        &me::params(&size),
        &mut st,
        &cfg,
        true,
    );
    std::env::remove_var("POLYMEM_FAULT_PANIC_BLOCK");
    match res {
        Err(MachineError::WorkerPanicked { block }) => assert_eq!(block, 1),
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // Without the fault the same parallel launch completes.
    execute_blocked(
        &me_kernel(4, false),
        &me::params(&size),
        &mut st,
        &cfg,
        true,
    )
    .unwrap();
}

#[test]
fn scratchpad_overflow_error_carries_sizes() {
    use polymem::kernels::me;
    use polymem::machine::{execute_blocked, MachineConfig, MachineError};
    let size = me::MeSize {
        ni: 100,
        nj: 100,
        ws: 4,
    };
    let p = me::program();
    let mut st = ArrayStore::for_program(&p, &me::params(&size)).unwrap();
    me::init_store(&mut st, 0);
    let cfg = MachineConfig::geforce_8800_gtx();
    match execute_blocked(
        &me_kernel(100, true),
        &me::params(&size),
        &mut st,
        &cfg,
        false,
    ) {
        Err(MachineError::ScratchpadOverflow {
            requested,
            available,
        }) => {
            assert!(requested > available);
            assert_eq!(available, 16 * 1024);
        }
        other => panic!("expected overflow, got {other:?}"),
    }
}
