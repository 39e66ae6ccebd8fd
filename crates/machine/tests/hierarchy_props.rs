//! Randomized functional equivalence for the register-tile level: with
//! `MachineConfig::hierarchy` on, execution must produce bit-identical
//! arrays to hierarchy-off runs (and to the reference interpreter)
//! across random affine accesses, random statement bodies, random
//! block shapes, both machine presets and every thread-dim choice.
//! Staging frames may only reshuffle scratchpad traffic — functional
//! global-memory traffic and flop counts must not change.
//!
//! The second proptest pins the unified engine: on the same hierarchy
//! plans, compiled execution must agree with
//! the interpreter counter for counter and must actually *run*
//! compiled — zero silent fallbacks. A directed test checks the typed
//! `RegisterOverflow` surfaces identically from both engines, and
//! another that the index map a launch assembles level-2 parameter
//! vectors through agrees with a by-name lookup at every thread key.
//!
//! The compiled engine serves a frame access from an address stream
//! lowered once per launch and re-anchored per thread key; the last
//! group pins that *the stream is the index*: on the built-ins on
//! every registered machine, on the randomised programs and on a
//! triangular domain, proven or guarded, it lands where the
//! interpreter's `LocalAccess::local_index` lands at every instance.

use polymem_core::smem::{parametrize_dims, prove_flat, ExtSource};
use polymem_core::tiling::transform::{tile_program, TileSpec};
use polymem_ir::expr::v;
use polymem_ir::{exec_program, ArrayStore, Expr, LinExpr, Program, ProgramBuilder};
use polymem_kernels::builtins::{launch, Builtin, BUILTINS};
use polymem_kernels::{me, tunespace};
use polymem_machine::{
    desc, execute_blocked, warm_plan, BlockedKernel, LaunchToggles, MachineConfig, MachineError,
};
use polymem_poly::bounds::all_param_bounds;
use polymem_poly::count::enumerate_points;
use proptest::prelude::*;
use std::collections::HashMap;

/// Same access-shape family as `compiled_props`: a 2-D program whose
/// randomized reads stay inside A's padded extents, with an optional
/// second statement that rereads the output array.
fn random_program(shape: u8, body_sel: u8, c: (i64, i64, i64, i64)) -> Program {
    let (c0, c1, swap, c3) = c;
    let mut b = ProgramBuilder::new("rnd", ["N"]);
    b.array("A", &[v("N") + 4, v("N") + 4]);
    b.array("C", &[v("N"), v("N")]);
    let r1 = if swap == 1 {
        [v("j") + c3, v("i")]
    } else {
        [v("i") + c3, v("j") + c1]
    };
    let body = match body_sel {
        0 => Expr::add(Expr::Read(0), Expr::Read(1)),
        1 => Expr::mul(Expr::Read(0), Expr::Read(1)),
        2 => Expr::add(Expr::mul(Expr::Read(0), Expr::Const(3)), Expr::Iter(0)),
        3 => Expr::sub(Expr::Read(0), Expr::add(Expr::Read(1), Expr::Iter(1))),
        4 => Expr::add(Expr::div(Expr::Read(0), Expr::Const(3)), Expr::Read(1)),
        _ => Expr::sub(Expr::mul(Expr::Read(1), Expr::Param(0)), Expr::Read(0)),
    };
    b.stmt("S1")
        .loops(&[
            ("i", LinExpr::c(0), v("N") - 1),
            ("j", LinExpr::c(0), v("N") - 1),
        ])
        .write("C", &[v("i"), v("j")])
        .read("A", &[v("i") + c0, v("j") + c1])
        .read("A", &[r1[0].clone(), r1[1].clone()])
        .body(body)
        .done();
    if shape >= 1 {
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

fn kernel_for(p: &Program, ti: u32, tj: u32, mode: u8, threads: u8) -> BlockedKernel {
    let t = tile_program(
        p,
        &TileSpec::new(&[("i", ti as i64), ("j", tj as i64)], "T"),
    )
    .unwrap();
    let thread_dims = match threads {
        0 => vec!["i".into()],
        1 => vec!["j".into()],
        _ => vec!["i".into(), "j".into()],
    };
    match mode {
        0 => BlockedKernel {
            program: t,
            round_dims: vec![],
            block_dims: vec!["iT".into(), "jT".into()],
            seq_dims: vec![],
            thread_dims,
            use_scratchpad: true,
        },
        _ => BlockedKernel {
            program: t,
            round_dims: vec![],
            block_dims: vec!["iT".into()],
            seq_dims: vec!["jT".into()],
            thread_dims,
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

    /// Register-frame staging is purely an optimization: final arrays
    /// match the reference interpreter bit for bit, and functional
    /// global-memory traffic and flop counts are unchanged.
    #[test]
    fn hierarchy_on_matches_hierarchy_off(
        n in 6i64..=11,
        ti in 2u32..=4,
        tj in 2u32..=4,
        mode in 0u8..=1,
        threads in 0u8..=2,
        shape in 0u8..=2,
        body_sel in 0u8..=5,
        machine in 0u8..=1,
        c in (0i64..=2, 0i64..=2, 0i64..=1, 0i64..=2),
    ) {
        let p = random_program(shape, body_sel, c);
        let k = kernel_for(&p, ti, tj, mode, threads);
        let mut cfg = if machine == 1 {
            MachineConfig::cell_like()
        } else {
            MachineConfig::geforce_8800_gtx()
        };
        // Merged access groups can outgrow the representative thread
        // value here (offset reads drift with i/j); a roomy register
        // file keeps every case on the staging path. The runtime
        // overflow check has its own directed test.
        cfg.regs_per_inner = 4096;

        let mut reference = fresh_store(&p, n);
        exec_program(&p, &[n], &mut reference).unwrap();

        let mut off = fresh_store(&p, n);
        cfg.hierarchy = false;
        let s_off = execute_blocked(&k, &[n], &mut off, &cfg, false).unwrap();

        let mut on = fresh_store(&p, n);
        cfg.hierarchy = true;
        let s_on = execute_blocked(&k, &[n], &mut on, &cfg, false).unwrap();

        prop_assert_eq!(on.data("C").unwrap(), reference.data("C").unwrap());
        prop_assert_eq!(off.data("C").unwrap(), reference.data("C").unwrap());
        // Frames reshuffle scratchpad traffic only: what the program
        // exchanges with global memory (and executes) is invariant.
        prop_assert_eq!(s_on.global_reads, s_off.global_reads);
        prop_assert_eq!(s_on.global_writes, s_off.global_writes);
        prop_assert_eq!(s_on.instances, s_off.instances);
        if s_on.hier_groups == 0 {
            // No group survived the level-2 gates: execution must be
            // indistinguishable from hierarchy-off, counter for counter.
            prop_assert_eq!(s_on, s_off);
        } else {
            // Frames were staged, so data moved through them.
            prop_assert_eq!(s_on.reg_bytes_moved > 0, true);
        }
    }

    /// The compiled engine owns hierarchy plans: same arrays, same
    /// counters (including `smem_loads_saved` / `reg_bytes_moved` /
    /// `hier_groups`) as the interpreter, with zero interpreter
    /// fallbacks — the silent-drop bug stays fixed.
    #[test]
    fn compiled_matches_interpreter_on_hierarchy_plans(
        n in 6i64..=11,
        ti in 2u32..=4,
        tj in 2u32..=4,
        mode in 0u8..=1,
        threads in 0u8..=2,
        shape in 0u8..=2,
        body_sel in 0u8..=5,
        machine in 0u8..=1,
        c in (0i64..=2, 0i64..=2, 0i64..=1, 0i64..=2),
    ) {
        let p = random_program(shape, body_sel, c);
        let k = kernel_for(&p, ti, tj, mode, threads);
        let mut cfg = if machine == 1 {
            MachineConfig::cell_like()
        } else {
            MachineConfig::geforce_8800_gtx()
        };
        cfg.hierarchy = true;
        cfg.regs_per_inner = 4096;

        let mut reference = fresh_store(&p, n);
        exec_program(&p, &[n], &mut reference).unwrap();

        let mut interp = fresh_store(&p, n);
        cfg.compiled_exec = false;
        let s_interp = execute_blocked(&k, &[n], &mut interp, &cfg, false).unwrap();

        let mut compiled = fresh_store(&p, n);
        cfg.compiled_exec = true;
        let s_compiled = execute_blocked(&k, &[n], &mut compiled, &cfg, false).unwrap();

        prop_assert_eq!(compiled.data("C").unwrap(), reference.data("C").unwrap());
        prop_assert_eq!(interp.data("C").unwrap(), reference.data("C").unwrap());
        // Counter-for-counter equality (engine bookkeeping fields are
        // excluded from `ExecStats` equality by design).
        prop_assert_eq!(&s_compiled, &s_interp);
        // The engines really were what they claim: no silent drops.
        prop_assert_eq!(s_compiled.interpreted_blocks, 0);
        prop_assert_eq!(s_compiled.fallback.total(), 0);
        prop_assert_eq!(s_compiled.compiled_blocks > 0, true);
        prop_assert_eq!(s_interp.compiled_blocks, 0);
        // And the frame streams it rode are the interpreter's indices.
        frame_streams_are_the_index(&k, &[n], &cfg);
    }
}

/// Row-major position of `idx` in a buffer of `extents`.
fn flatten(idx: &[i64], extents: &[i64]) -> i64 {
    assert_eq!(idx.len(), extents.len());
    idx.iter().zip(extents).fold(0, |flat, (&i, &e)| {
        assert!((0..e).contains(&i), "{idx:?} outside {extents:?}");
        flat * e + i
    })
}

/// At every statement instance of the launch, each frame access's
/// lowered rows — evaluated the guarded way, and through the proven
/// stream wherever `prove_flat` holds at that thread key — give the
/// flat position of `LocalAccess::local_index` in the frame staged for
/// the key. These are the functions (and the arguments) the compiled
/// engine re-anchors with. Returns how many `(instance, access)` pairs
/// rode a proven stream and how many a guarded one; `(0, 0)` when the
/// launch plans no register level.
fn frame_streams_are_the_index(
    kernel: &BlockedKernel,
    params: &[i64],
    cfg: &MachineConfig,
) -> (u64, u64) {
    let Some((sp, _)) = warm_plan(kernel, params, cfg, None, None).unwrap() else {
        return (0, 0);
    };
    let Some(h) = sp.hier.as_ref() else {
        return (0, 0);
    };
    let sym = parametrize_dims(&kernel.program, &sp.fixed).unwrap();
    let sources = h.ext_sources(params.len());
    let (mut proven, mut guarded) = (0u64, 0u64);
    for (si, stmt) in kernel.program.stmts.iter().enumerate() {
        let kept1 = &sp.kept_dims[si];
        let lowered: Vec<_> = h
            .plan
            .rewrites
            .iter()
            .filter(|(id, _)| id.stmt == si)
            .map(|(id, la)| (la, h.frame_rows(*id, kept1).expect("frame access lowers")))
            .collect();
        let boxes = all_param_bounds(&sym.stmts[si].domain).unwrap();
        let dims = stmt.domain.space().dims();
        let dom = stmt.domain.substitute_params(params).unwrap();
        enumerate_points(&dom, 1 << 20, &mut |p| {
            let Some(key) = h.thread_key(si, p) else {
                assert!(lowered.is_empty(), "an unkeyed statement reads frames");
                return;
            };
            let at = |name: &String| p[dims.iter().position(|d| d == name).unwrap()];
            let fixed: HashMap<String, i64> = sp.fixed.iter().map(|n| (n.clone(), at(n))).collect();
            let level1 = sp.ext_params(params, &fixed).unwrap();
            let pp2 = ExtSource::assemble(&sources, &level1, &key);
            let point1: Vec<i64> = kept1.iter().map(|&d| p[d]).collect();
            let boxes: Vec<(i64, i64)> = boxes
                .iter()
                .map(|b| b.eval_range(&[], &level1).expect("bounded box"))
                .collect();
            for (la, (buffer, rows)) in &lowered {
                assert_eq!(*buffer, la.buffer);
                let frame = &h.plan.buffers[la.buffer];
                let (extents, offsets) =
                    (frame.extents(&pp2).unwrap(), frame.offsets(&pp2).unwrap());
                let index = la
                    .local_index(frame, &h.project_point(si, p), &pp2)
                    .unwrap();
                let want = flatten(&index, &extents);
                let rel: Vec<i64> = rows
                    .iter()
                    .zip(&offsets)
                    .map(|(row, o)| row.eval(&point1, &pp2).unwrap() - o)
                    .collect();
                assert_eq!(rel, index, "guarded rows at {p:?}");
                match prove_flat(rows, &pp2, &extents, Some(&offsets), &boxes) {
                    Some(fa) => {
                        let strided = fa.strides.iter().zip(&point1).map(|(s, x)| s * x);
                        assert_eq!(
                            fa.base + strided.sum::<i64>(),
                            want,
                            "proven stream at {p:?}"
                        );
                        proven += 1;
                    }
                    None => guarded += 1,
                }
            }
        })
        .unwrap();
    }
    (proven, guarded)
}

/// The five built-ins on every registered machine: wherever the launch
/// plans a register level the streams are the index *and proven* (no
/// frame access pays a guarded evaluation), and every `ExecStats` counter — not only
/// `modeled_cycles` — is the interpreter's.
#[test]
fn builtin_frame_streams_are_proven_and_engine_blind() {
    let mut register_launches = 0;
    for machine in desc::NAMES {
        let base = desc::lookup(machine).expect("registered").config();
        for b in &BUILTINS {
            let run = |compiled_exec| {
                let mut l =
                    launch(b.name, 16, &base, &LaunchToggles::default(), false).expect("built-in");
                l.config.compiled_exec = compiled_exec;
                let mut st = l.seeded_store(7).unwrap();
                let stats = execute_blocked(&l.kernel, &l.params, &mut st, &l.config, false)
                    .unwrap_or_else(|e| panic!("{}/{machine}: {e}", b.name));
                (l, stats)
            };
            let (l, interpreted) = run(false);
            let (proven, guarded) = frame_streams_are_the_index(&l.kernel, &l.params, &l.config);
            assert_eq!(
                guarded, 0,
                "{}/{machine}: a rectangular tile's frames prove",
                b.name
            );
            assert_eq!(
                proven > 0,
                interpreted.hier_groups > 0,
                "{}/{machine}",
                b.name
            );
            register_launches += u32::from(proven > 0);
            let (_, compiled) = run(true);
            assert_eq!(compiled, interpreted, "{}/{machine}", b.name);
            assert_eq!(compiled.fallback.total(), 0, "{}/{machine}", b.name);
        }
    }
    assert!(
        register_launches >= 6,
        "only {register_launches} launches plan a register level"
    );
}

/// `Out[i][j] = T[i][j] + T[i][j]` over the rows of a triangle, one
/// row per inner process: `j` runs over `[0, i]` (`grow`: the T frame
/// gains a word per key) or `[i, N − 1]` (it loses one, and its origin
/// moves).
fn triangle(grow: bool) -> (Program, BlockedKernel) {
    let (lo, hi) = if grow {
        (LinExpr::c(0), v("i"))
    } else {
        (v("i"), v("N") - 1)
    };
    let mut b = ProgramBuilder::new("tri", ["N"]);
    b.array("T", &[v("N"), v("N")]);
    b.array("Out", &[v("N"), v("N")]);
    b.stmt("S")
        .loops(&[("i", LinExpr::c(0), v("N") - 1), ("j", lo, hi)])
        .write("Out", &[v("i"), v("j")])
        .read("T", &[v("i"), v("j")])
        .read("T", &[v("i"), v("j")])
        .body(Expr::add(Expr::Read(0), Expr::Read(1)))
        .done();
    let p = b.build().unwrap();
    let k = BlockedKernel {
        program: p.clone(),
        round_dims: vec![],
        block_dims: vec![],
        seq_dims: vec![],
        thread_dims: vec!["i".into()],
        use_scratchpad: true,
    };
    (p, k)
}

/// Frames that change extents between keys stay exact: where the
/// context-free box of `j` over-approximates the row the key owns the
/// stream falls back to guarded (every key but the full-length row),
/// and one frame set re-shaped in place — growing or shrinking —
/// serves every key with nothing of the previous key's values in it.
#[test]
fn triangular_frames_stay_exact_and_fall_back_to_guarded() {
    for grow in [true, false] {
        let (p, k) = triangle(grow);
        let mut cfg = MachineConfig::geforce_8800_gtx();
        cfg.hierarchy = true;
        cfg.regs_per_inner = 64;
        let (proven, guarded) = frame_streams_are_the_index(&k, &[8], &cfg);
        // Two reads per instance; only the 8-word row proves.
        assert_eq!((proven, guarded), (2 * 8, 2 * 28), "grow={grow}");

        let fresh = || {
            let mut st = ArrayStore::for_program(&p, &[8]).unwrap();
            st.fill_with("T", |ix| ix[0] * 10 + ix[1] + 1).unwrap();
            st
        };
        let mut reference = fresh();
        exec_program(&p, &[8], &mut reference).unwrap();
        let mut stats = Vec::new();
        for compiled in [false, true] {
            cfg.compiled_exec = compiled;
            let mut st = fresh();
            stats.push(execute_blocked(&k, &[8], &mut st, &cfg, false).unwrap());
            assert_eq!(st.data("Out").unwrap(), reference.data("Out").unwrap());
        }
        assert_eq!(stats[0].hier_groups, 8, "one frame set per row");
        assert_eq!(stats[0].smem_loads_saved, 2 * 36);
        assert_eq!(stats[1], stats[0], "grow={grow}");
    }
}

#[test]
fn register_overflow_is_typed_in_both_engines() {
    // Triangular domain: the T frame holds row i's first i+1 elements,
    // so a merged group's footprint outgrows the representative
    // (i = 0) thread. The plan-time gate passes; both engines must
    // trip the identical typed runtime check at the same thread value.
    let (p, k) = triangle(true);
    let run = |regs: u64, compiled: bool| {
        let mut st = ArrayStore::for_program(&p, &[8]).unwrap();
        st.fill_with("T", |ix| ix[0] * 10 + ix[1]).unwrap();
        let mut cfg = MachineConfig::geforce_8800_gtx();
        cfg.hierarchy = true;
        cfg.compiled_exec = compiled;
        cfg.regs_per_inner = regs;
        execute_blocked(&k, &[8], &mut st, &cfg, false)
    };
    for compiled in [false, true] {
        assert!(
            run(8, compiled).is_ok(),
            "the largest row (8 words) must fit (compiled={compiled})"
        );
        match run(4, compiled) {
            Err(MachineError::RegisterOverflow {
                requested,
                available,
            }) => {
                assert_eq!(requested, 5, "row i = 4 is the first to overflow");
                assert_eq!(available, 4);
            }
            other => panic!("expected RegisterOverflow (compiled={compiled}), got {other:?}"),
        }
    }
}

/// The executor assembles a thread key's level-2 vector
/// `params ++ ext values` by index (`HierPlan::ext_sources`, resolved
/// once per launch) from the sub-block's dense `params ++ fixed values`
/// and the key. At every statement instance of matmul and me on the
/// gpu, that vector — and the named `HierPlan::ext_params` boundary —
/// must equal looking every ext name up in the instance itself.
#[test]
fn dense_level2_vectors_equal_the_named_lookup_at_every_thread_key() {
    let me_size = me::MeSize {
        ni: 8,
        nj: 8,
        ws: 4,
    };
    let flat = |name: &str, tiles: &[i64]| {
        let desc = Builtin::named(name).unwrap().tiled(tiles, false);
        tunespace::build(name, &desc).unwrap()
    };
    let cases = [
        (flat("matmul", &[4, 4, 4]), vec![8]),
        (flat("me", &[4, 4]), me::params(&me_size)),
    ];
    for (kernel, params) in cases {
        let mut cfg = MachineConfig::geforce_8800_gtx();
        cfg.hierarchy = true;
        let (sp, _) = warm_plan(&kernel, &params, &cfg, None, None)
            .unwrap()
            .expect("staged launch");
        let h = sp.hier.as_ref().expect("register level");
        let sources = h.ext_sources(params.len());
        let mut keys = 0u64;
        for (si, stmt) in kernel.program.stmts.iter().enumerate() {
            let dims = stmt.domain.space().dims();
            let at = |name: &String, p: &[i64]| p[dims.iter().position(|d| d == name).unwrap()];
            let dom = stmt.domain.substitute_params(&params).unwrap();
            enumerate_points(&dom, 1 << 20, &mut |p| {
                let Some(key) = h.thread_key(si, p) else {
                    return;
                };
                let by_name: Vec<i64> = params
                    .iter()
                    .copied()
                    .chain(h.ext_names.iter().map(|n| at(n, p)))
                    .collect();
                let fixed: HashMap<String, i64> =
                    sp.fixed.iter().map(|n| (n.clone(), at(n, p))).collect();
                let level1 = sp.ext_params(&params, &fixed).unwrap();
                assert_eq!(ExtSource::assemble(&sources, &level1, &key), by_name);
                assert_eq!(h.ext_params(&params, &fixed, &key), Some(by_name));
                keys += 1;
            })
            .unwrap();
        }
        assert!(keys > 0, "{}: no keyed instance", kernel.program.name);
    }
}
