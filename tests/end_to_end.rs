//! End-to-end pipeline tests across crates: program → dependence
//! analysis → tiling → scratchpad planning → simulated execution, for
//! every kernel, compared bit-exactly against the reference
//! interpreter — plus the §3.1.4 liveness optimisation and the
//! occupancy rule exercised on real plans.

use polymem::core::deps::compute_deps;
use polymem::core::smem::liveness::optimize_movement;
use polymem::core::smem::tune::MappingDesc;
use polymem::core::smem::{analyze_program, SmemConfig};
use polymem::core::tiling::transform::fix_dims;
use polymem::ir::{exec_program, ArrayStore};
use polymem::kernels::builtins::Builtin;
use polymem::kernels::{jacobi, jacobi2d, matmul, me, tunespace};
use polymem::machine::{execute_blocked, BlockedKernel, MachineConfig};
use polymem::poly::dep::DepKind;
use std::collections::HashMap;

/// Built-in `name`'s table mapping re-tiled to `tiles` (its sequential
/// split iff `seq`), staged iff `use_scratchpad`.
fn table(name: &str, tiles: &[i64], seq: bool, use_scratchpad: bool) -> BlockedKernel {
    let desc = MappingDesc {
        use_scratchpad,
        ..Builtin::named(name).unwrap().tiled(tiles, seq)
    };
    tunespace::build(name, &desc).unwrap()
}

/// Jacobi's per-round mapping at space tile `si`, staged iff
/// `use_scratchpad`.
fn stepwise(si: i64, use_scratchpad: bool) -> BlockedKernel {
    let desc = MappingDesc {
        use_scratchpad,
        ..tunespace::jacobi_stepwise(si)
    };
    tunespace::build("jacobi", &desc).unwrap()
}

#[test]
fn all_kernels_run_identically_on_all_machine_kinds() {
    let gpu = MachineConfig::geforce_8800_gtx();
    let cell = MachineConfig::cell_like();

    // ME.
    let size = me::MeSize {
        ni: 6,
        nj: 7,
        ws: 3,
    };
    let p = me::program();
    let mut reference = ArrayStore::for_program(&p, &me::params(&size)).unwrap();
    me::init_store(&mut reference, 1);
    let base = reference.clone();
    exec_program(&p, &me::params(&size), &mut reference).unwrap();
    for (cfg, smem) in [(&gpu, false), (&gpu, true), (&cell, true)] {
        let mut st = base.clone();
        let k = table("me", &[3, 4], false, smem);
        execute_blocked(&k, &me::params(&size), &mut st, cfg, true).unwrap();
        assert_eq!(
            st.data("Sad").unwrap(),
            reference.data("Sad").unwrap(),
            "ME mismatch (smem={smem}, caps={:?})",
            cfg.caps
        );
    }

    // Jacobi (stepwise and overlapped).
    let s = jacobi::JacobiSize { n: 14, t: 5 };
    let p = jacobi::program();
    let mut reference = ArrayStore::for_program(&p, &jacobi::params(&s)).unwrap();
    jacobi::init_store(&mut reference, 2);
    let base = reference.clone();
    jacobi::reference(&mut reference, &s);
    for kernel in [
        stepwise(4, false),
        stepwise(4, true),
        jacobi::overlapped_kernel(2, 5, false),
    ] {
        let mut st = base.clone();
        execute_blocked(&kernel, &jacobi::params(&s), &mut st, &gpu, true).unwrap();
        assert_eq!(
            st.data("A").unwrap(),
            reference.data("A").unwrap(),
            "jacobi mismatch for {}",
            kernel.program.name
        );
    }

    // Matmul.
    let p = matmul::program();
    let mut reference = ArrayStore::for_program(&p, &[9]).unwrap();
    matmul::init_store(&mut reference, 3);
    let base = reference.clone();
    matmul::reference(&mut reference, 9);
    let mut st = base.clone();
    let k = table("matmul", &[3, 4, 5], false, true);
    execute_blocked(&k, &[9], &mut st, &gpu, true).unwrap();
    assert_eq!(st.data("C").unwrap(), reference.data("C").unwrap());

    // Jacobi 2-D.
    let p = jacobi2d::program();
    let prm = jacobi2d::params(2, 7);
    let mut reference = ArrayStore::for_program(&p, &prm).unwrap();
    jacobi2d::init_store(&mut reference, 4);
    let base = reference.clone();
    jacobi2d::reference(&mut reference, 2, 7);
    let mut st = base.clone();
    let k = table("jacobi2d", &[3, 3], false, true);
    execute_blocked(&k, &prm, &mut st, &gpu, true).unwrap();
    assert_eq!(st.data("A").unwrap(), reference.data("A").unwrap());
}

#[test]
fn plan_cache_is_bit_exact_for_every_kernel_and_machine_kind() {
    use polymem::ir::Program;
    use polymem::kernels::conv2d;
    // Every sub-block of a launch evaluates the one shared symbolic
    // plan, so the contract is against the reference interpreter:
    // same contents, on the compiled engine, with no fallback.
    let run =
        |p: &Program, kernel: &BlockedKernel, params: &[i64], base: &ArrayStore, out: &str| {
            let mut reference = base.clone();
            exec_program(p, params, &mut reference).unwrap();
            let mut results = Vec::new();
            for cfg in [
                MachineConfig::geforce_8800_gtx(),
                MachineConfig::cell_like(),
            ] {
                let mut st = base.clone();
                let stats = execute_blocked(kernel, params, &mut st, &cfg, true).unwrap();
                assert_eq!(
                    st.data(out).unwrap(),
                    reference.data(out).unwrap(),
                    "shared-plan launch differs from the reference for {} on {:?}",
                    kernel.program.name,
                    cfg.caps
                );
                assert_eq!(stats.fallback.total(), 0, "{}", kernel.program.name);
                assert_eq!(stats.interpreted_blocks, 0, "{}", kernel.program.name);
                assert_eq!(stats.plan_cache_misses, 1, "{}", kernel.program.name);
                results.push(stats);
            }
            results
        };

    // ME (6x7 frame, deliberately off-tile → boundary blocks).
    let size = me::MeSize {
        ni: 6,
        nj: 7,
        ws: 3,
    };
    let p = me::program();
    let mut base = ArrayStore::for_program(&p, &me::params(&size)).unwrap();
    me::init_store(&mut base, 11);
    let me_stats = run(
        &p,
        &table("me", &[4, 4], false, true),
        &me::params(&size),
        &base,
        "Sad",
    );
    // One hit per block: 2 x 2 tiles of the 6x7 frame.
    assert_eq!(me_stats[0].plan_cache_hits, me_stats[0].blocks);
    assert_eq!(me_stats[0].blocks, 4);

    // Jacobi stepwise (rounds over time steps).
    let s = jacobi::JacobiSize { n: 14, t: 4 };
    let p = jacobi::program();
    let mut base = ArrayStore::for_program(&p, &jacobi::params(&s)).unwrap();
    jacobi::init_store(&mut base, 12);
    let j_stats = run(&p, &stepwise(4, true), &jacobi::params(&s), &base, "A");
    assert_eq!(j_stats[0].plan_cache_hits, j_stats[0].blocks);
    assert!(j_stats[0].rounds > 1, "{j_stats:?}");

    // Matmul with sequential kT sub-tiles (§4.2 hoisting path): one
    // hit per sub-tile, more than one per block.
    let p = matmul::program();
    let mut base = ArrayStore::for_program(&p, &[9]).unwrap();
    matmul::init_store(&mut base, 13);
    let mm_stats = run(
        &p,
        &table("matmul", &[3, 3, 3], true, true),
        &[9],
        &base,
        "C",
    );
    assert_eq!(mm_stats[0].plan_cache_hits, 3 * mm_stats[0].blocks);

    // Jacobi 2-D.
    let p = jacobi2d::program();
    let prm = jacobi2d::params(2, 7);
    let mut base = ArrayStore::for_program(&p, &prm).unwrap();
    jacobi2d::init_store(&mut base, 14);
    let k = table("jacobi2d", &[3, 3], false, true);
    run(&p, &k, &prm, &base, "A");

    // Conv2d.
    let p = conv2d::program();
    let prm = conv2d::params(&conv2d::ConvSize { n: 8, k: 3 });
    let mut base = ArrayStore::for_program(&p, &prm).unwrap();
    conv2d::init_store(&mut base, 15);
    run(
        &p,
        &table("conv2d", &[4, 4], false, true),
        &prm,
        &base,
        "Out",
    );
}

#[test]
fn liveness_optimisation_shrinks_copy_sets_on_tiles() {
    // For a Jacobi time-block, the default framework copies the whole
    // accessed region; §3.1.4 liveness narrows copy-out to data still
    // needed outside the block.
    let p = jacobi::program();
    let deps = compute_deps(&p, &[DepKind::Flow]).unwrap();
    // Block = time steps 3..=4 of a T=8 run (all space).
    let block_dom = {
        let mut d = p.stmts[0].domain.clone();
        let ncols = d.space().n_cols();
        let mut lo = vec![0i64; ncols];
        lo[0] = 1;
        lo[ncols - 1] = -3;
        d.add_constraint(polymem::poly::Constraint::ineq(lo)); // t >= 3
        let mut hi = vec![0i64; ncols];
        hi[0] = -1;
        hi[ncols - 1] = 4;
        d.add_constraint(polymem::poly::Constraint::ineq(hi)); // t <= 4
        d
    };
    let mut block = HashMap::new();
    block.insert(0usize, block_dom.clone());
    let plan = optimize_movement(&p, &deps, &block).unwrap();
    let a = p.array_index("A").unwrap();
    let params = [8i64, 10];
    // Copy-in: only row t=2 feeds the block (N+2 elements at most, the
    // reads touch columns 0..=N+1).
    let cin = plan.copy_in_count(a, &params, 100_000).unwrap();
    assert!(cin <= 12, "copy-in {cin}");
    assert!(plan.copy_in[&a].contains(&[2, 5], &params));
    assert!(!plan.copy_in[&a].contains(&[3, 5], &params));
    // Copy-out: only row t=4 is read after the block.
    let cout = plan.copy_out_count(a, &params, 100_000).unwrap();
    assert!(cout <= 12, "copy-out {cout}");
    assert!(plan.copy_out[&a].contains(&[4, 5], &params));
    assert!(!plan.copy_out[&a].contains(&[3, 5], &params));

    // Contrast: the unoptimised move-out of the same block covers both
    // written rows (t = 3 and 4) — the liveness pass halves it.
    let mut view = p.clone();
    view.stmts[0].domain = block_dom;
    let default_plan = analyze_program(
        &view,
        &SmemConfig {
            sample_params: params.to_vec(),
            ..SmemConfig::default()
        },
    )
    .unwrap();
    let default_out: u64 = default_plan
        .movement
        .iter()
        .map(|m| m.move_out_count(&params))
        .sum();
    assert!(
        cout < default_out,
        "liveness {cout} should beat default {default_out}"
    );
}

#[test]
fn scratchpad_overflow_is_detected_at_execution() {
    // A block footprint exceeding 16 KB must be rejected, matching the
    // paper's constraint that tiles are sized to the scratchpad.
    let k = table("me", &[80, 80], false, true); // (80+2)^2 * 2 words >> 16 KB
    let size = me::MeSize {
        ni: 80,
        nj: 80,
        ws: 3,
    };
    let p = me::program();
    let mut st = ArrayStore::for_program(&p, &me::params(&size)).unwrap();
    me::init_store(&mut st, 5);
    let cfg = MachineConfig::geforce_8800_gtx();
    let err = execute_blocked(&k, &me::params(&size), &mut st, &cfg, false);
    assert!(matches!(
        err,
        Err(polymem::machine::MachineError::ScratchpadOverflow { .. })
    ));
}

#[test]
fn per_tile_plans_match_whole_program_footprints() {
    // Restricting the ME program to one tile and planning it yields
    // the same footprint the analytic cost model predicts.
    use polymem::core::smem::dataspace::collect_refs;
    use polymem::core::tiling::cost::FootprintModel;
    let size = me::MeSize {
        ni: 32,
        nj: 32,
        ws: 4,
    };
    let p = me::program();
    let tiled = polymem::core::tiling::transform::tile_program(
        &p,
        &polymem::core::tiling::TileSpec::new(&[("i", 8), ("j", 8)], "T"),
    )
    .unwrap();
    let mut fixed = HashMap::new();
    fixed.insert("iT".to_string(), 1);
    fixed.insert("jT".to_string(), 2);
    let mut view = tiled.clone();
    view.stmts[0].domain = fix_dims(&tiled.stmts[0].domain, &fixed);
    let plan = analyze_program(
        &view,
        &SmemConfig {
            sample_params: me::params(&size),
            ..SmemConfig::default()
        },
    )
    .unwrap();
    let total = plan.total_buffer_words(&me::params(&size)).unwrap();

    // Analytic: widths (8+3)(8+3) for Cur/Ref, 8*8 for Sad.
    let mut expect = 0f64;
    for name in ["Cur", "Ref", "Sad"] {
        let ai = p.array_index(name).unwrap();
        let refs = collect_refs(&p, ai).unwrap();
        let members: Vec<&_> = refs.iter().collect();
        let fm = FootprintModel::from_refs(&members, &[0, 1], &[0, 1, 2, 3]);
        expect += fm.volume(&[8.0, 8.0, 4.0, 4.0]);
    }
    assert_eq!(total as f64, expect);
}
