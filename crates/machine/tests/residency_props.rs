//! Randomized and directed legality checks for the inter-block
//! residency pass: with delta transfers enabled the machine must
//! produce bit-identical outputs to both the residency-off schedule
//! and the reference interpreter, across all five built-in kernels,
//! both machine models, both execution engines and both buffering
//! modes. Directed tests pin down the stale-flush interaction with
//! double-buffered prefetch, the counter semantics, and the
//! single-column sub-tile writeback path (a dropped buffer dimension
//! whose offset rides on the seq dim must not alias across sub-tiles).

use polymem_ir::ArrayStore;
use polymem_kernels::{conv2d, jacobi, jacobi2d, matmul, me};
use polymem_machine::{execute_blocked, BlockedKernel, ExecStats, MachineConfig};
use proptest::prelude::*;

struct CaseSpec {
    kernel: BlockedKernel,
    params: Vec<i64>,
    base: ArrayStore,
    reference: ArrayStore,
    check: &'static str,
    /// Run with the paper's Fig. 1 merged buffer layout
    /// (`partition = false`) so the sliding window shares one group.
    merged_layout: bool,
}

fn case(sel: u8) -> CaseSpec {
    match sel {
        0 => {
            let size = me::MeSize {
                ni: 8,
                nj: 8,
                ws: 4,
            };
            let p = me::program();
            let params = me::params(&size);
            let mut base = ArrayStore::for_program(&p, &params).unwrap();
            me::init_store(&mut base, 7);
            let mut reference = base.clone();
            me::reference(&mut reference, &size);
            CaseSpec {
                kernel: me::blocked_seq_kernel(8, 1, true),
                params,
                base,
                reference,
                check: "Sad",
                merged_layout: false,
            }
        }
        1 => {
            let size = jacobi::JacobiSize { n: 16, t: 2 };
            let p = jacobi::program();
            let params = jacobi::params(&size);
            let mut base = ArrayStore::for_program(&p, &params).unwrap();
            jacobi::init_store(&mut base, 8);
            let mut reference = base.clone();
            jacobi::reference(&mut reference, &size);
            CaseSpec {
                kernel: jacobi::stepwise_kernel(8, true),
                params,
                base,
                reference,
                check: "A",
                merged_layout: false,
            }
        }
        2 => {
            let (t, n) = (2, 16);
            let p = jacobi2d::program();
            let params = jacobi2d::params(t, n);
            let mut base = ArrayStore::for_program(&p, &params).unwrap();
            jacobi2d::init_store(&mut base, 9);
            let mut reference = base.clone();
            jacobi2d::reference(&mut reference, t, n);
            CaseSpec {
                kernel: jacobi2d::stepwise_seq_kernel(4, 1, true),
                params,
                base,
                reference,
                check: "A",
                merged_layout: true,
            }
        }
        3 => {
            let n = 8;
            let p = matmul::program();
            let params = vec![n];
            let mut base = ArrayStore::for_program(&p, &params).unwrap();
            matmul::init_store(&mut base, 10);
            let mut reference = base.clone();
            matmul::reference(&mut reference, n);
            CaseSpec {
                kernel: matmul::blocked_kernel_hoisted(4, 4, 4, true),
                params,
                base,
                reference,
                check: "C",
                merged_layout: false,
            }
        }
        _ => {
            let size = conv2d::ConvSize { n: 7, k: 3 };
            let p = conv2d::program();
            let params = conv2d::params(&size);
            let mut base = ArrayStore::for_program(&p, &params).unwrap();
            conv2d::init_store(&mut base, 11);
            let mut reference = base.clone();
            conv2d::reference(&mut reference, &size);
            CaseSpec {
                kernel: conv2d::blocked_seq_kernel(3, 3, true),
                params,
                base,
                reference,
                check: "Out",
                merged_layout: false,
            }
        }
    }
}

fn run(spec: &CaseSpec, cfg: &MachineConfig, residency: bool) -> (ArrayStore, ExecStats) {
    let mut config = cfg.clone();
    config.residency = residency;
    if spec.merged_layout {
        config.partition = false;
    }
    let mut store = spec.base.clone();
    let stats = execute_blocked(&spec.kernel, &spec.params, &mut store, &config, false)
        .expect("execution succeeds");
    (store, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Residency on, residency off and the reference interpreter all
    /// agree, and the pass leaves no counter trace when disabled —
    /// across kernels, machines, engines and buffering modes.
    #[test]
    fn residency_is_bit_exact_and_traceless(
        sel in 0u8..=4,
        machine in 0u8..=1,
        compiled in 0u8..=1,
        double_buffer in 0u8..=1,
    ) {
        // The compiled engine's interpreter oracle cross-checks every
        // block body while these tests run.
        std::env::set_var("POLYMEM_EXEC_CHECK", "1");
        let spec = case(sel);
        let mut cfg = if machine == 0 {
            MachineConfig::geforce_8800_gtx()
        } else {
            MachineConfig::cell_like()
        };
        cfg.compiled_exec = compiled == 1;
        cfg.double_buffer = double_buffer == 1;

        let (off_store, off_stats) = run(&spec, &cfg, false);
        let (on_store, on_stats) = run(&spec, &cfg, true);

        prop_assert_eq!(
            off_store.data(spec.check).unwrap(),
            spec.reference.data(spec.check).unwrap(),
            "residency-off output diverged from the reference"
        );
        prop_assert_eq!(
            on_store.data(spec.check).unwrap(),
            spec.reference.data(spec.check).unwrap(),
            "residency-on output diverged from the reference"
        );
        prop_assert_eq!(off_stats.residency_groups, 0);
        prop_assert_eq!(off_stats.retained_elems, 0);
        prop_assert_eq!(off_stats.delta_elems, 0);
        // Residency never costs modeled time.
        prop_assert!(
            on_stats.modeled_cycles <= off_stats.modeled_cycles,
            "modeled cycles regressed: {} -> {}",
            off_stats.modeled_cycles,
            on_stats.modeled_cycles
        );
    }
}

/// A flush of a dirty retained buffer must not be skipped when the
/// double-buffered prefetcher has already issued the next sub-tile's
/// delta: the ME accumulator is written every sub-tile while its
/// search window stays resident, so a stale flush shows up directly
/// as wrong `Sad` sums.
#[test]
fn stale_flush_is_legal_under_double_buffered_prefetch() {
    std::env::set_var("POLYMEM_EXEC_CHECK", "1");
    let spec = case(0);
    for machine in [
        MachineConfig::geforce_8800_gtx(),
        MachineConfig::cell_like(),
    ] {
        let mut cfg = machine;
        cfg.double_buffer = true;
        let (store, stats) = run(&spec, &cfg, true);
        assert_eq!(
            store.data("Sad").unwrap(),
            spec.reference.data("Sad").unwrap(),
            "stale flush corrupted the accumulator"
        );
        assert!(stats.residency_groups > 0, "residency never activated");
        assert_eq!(stats.interpreted_blocks, 0, "compiled engine fell back");
    }
}

/// Counter semantics on the merged-layout Jacobi-2D stencil: groups
/// and retained/delta element counts activate, and every retained
/// element is global traffic the off schedule actually paid for.
#[test]
fn residency_counters_track_saved_traffic() {
    let spec = case(2);
    let cfg = MachineConfig::geforce_8800_gtx();
    let (_, off) = run(&spec, &cfg, false);
    let (_, on) = run(&spec, &cfg, true);
    assert!(on.residency_groups > 0);
    assert!(on.retained_elems > 0);
    assert!(on.delta_elems > 0);
    assert!(
        on.moved_in + on.retained_elems <= off.moved_in,
        "retention did not reduce move-in traffic: {} + {} vs {}",
        on.moved_in,
        on.retained_elems,
        off.moved_in
    );
}

/// Overlapping in-place updates across consecutive sub-tiles: tile t
/// writes A columns [4t, 4t+5] and tile t+1 rewrites [4t+4, 4t+5], so
/// a legal flush delta skips those two columns at every interior
/// boundary. The `+=` updates commute, keeping the blocked order
/// bit-exact vs the reference — but a *wrongly* skipped element loses
/// an update and shows up directly in A.
fn flush_case() -> CaseSpec {
    use polymem_core::tiling::transform::{tile_program, TileSpec};
    use polymem_ir::expr::v;
    use polymem_ir::{exec_program, Expr, LinExpr, ProgramBuilder};

    let mut b = ProgramBuilder::new("p", ["M", "N"]);
    b.array("A", &[v("M"), v("N") + 2]);
    b.array("B", &[v("M"), v("N")]);
    b.array("C", &[v("M"), v("N")]);
    b.stmt("S1")
        .loops(&[
            ("j", LinExpr::c(0), v("M") - 1),
            ("i", LinExpr::c(0), v("N") - 1),
        ])
        .write("A", &[v("j"), v("i")])
        .read("A", &[v("j"), v("i")])
        .read("B", &[v("j"), v("i")])
        .body(Expr::add(Expr::Read(0), Expr::Read(1)))
        .done();
    b.stmt("S2")
        .loops(&[
            ("j", LinExpr::c(0), v("M") - 1),
            ("i", LinExpr::c(0), v("N") - 1),
        ])
        .write("A", &[v("j"), v("i") + 2])
        .read("A", &[v("j"), v("i") + 2])
        .read("C", &[v("j"), v("i")])
        .body(Expr::add(Expr::Read(0), Expr::Read(1)))
        .done();
    let p = b.build().unwrap();
    let t = tile_program(&p, &TileSpec::new(&[("j", 4), ("i", 4)], "T")).unwrap();
    let kernel = BlockedKernel {
        program: t,
        round_dims: vec![],
        block_dims: vec!["jT".into()],
        seq_dims: vec!["iT".into()],
        thread_dims: vec![],
        use_scratchpad: true,
    };
    let params = vec![8, 12];
    let mut base = ArrayStore::for_program(&p, &params).unwrap();
    base.fill_with("A", |ix| ix[0] * 100 + ix[1]).unwrap();
    base.fill_with("B", |ix| ix[0] * 7 + ix[1] * 3 + 1).unwrap();
    base.fill_with("C", |ix| ix[0] * 5 + ix[1] * 11 + 2)
        .unwrap();
    let mut reference = base.clone();
    exec_program(&p, &params, &mut reference).unwrap();
    CaseSpec {
        kernel,
        params,
        base,
        reference,
        check: "A",
        merged_layout: false,
    }
}

#[test]
fn flush_delta_skips_successor_overwrites() {
    std::env::set_var("POLYMEM_EXEC_CHECK", "1");
    let CaseSpec {
        kernel,
        params,
        base,
        reference,
        ..
    } = flush_case();
    for machine in [
        MachineConfig::geforce_8800_gtx(),
        MachineConfig::cell_like(),
    ] {
        for double_buffer in [false, true] {
            let mut on = machine.clone();
            on.double_buffer = double_buffer;
            on.residency = true;
            let mut off = on.clone();
            off.residency = false;
            let mut st_on = base.clone();
            let stats_on = execute_blocked(&kernel, &params, &mut st_on, &on, false).unwrap();
            let mut st_off = base.clone();
            let stats_off = execute_blocked(&kernel, &params, &mut st_off, &off, false).unwrap();
            assert_eq!(
                st_off.data("A").unwrap(),
                reference.data("A").unwrap(),
                "residency-off output diverged (dbuf={double_buffer})"
            );
            assert_eq!(
                st_on.data("A").unwrap(),
                reference.data("A").unwrap(),
                "delta flush lost an update (dbuf={double_buffer})"
            );
            assert_eq!(stats_off.flushed_delta_elems, 0);
            assert!(
                stats_on.flushed_delta_elems > 0,
                "delta flush never engaged (dbuf={double_buffer})"
            );
            assert!(
                stats_on.moved_out < stats_off.moved_out,
                "skipped flushes did not reduce move-out traffic: {} vs {}",
                stats_on.moved_out,
                stats_off.moved_out
            );
        }
    }
}

/// Single-column sub-tiles drop the seq-coupled dimension from the
/// staged buffer (its extent is 1), leaving the kept-dim shape
/// identical across sub-tiles. The §4.2 hoist must not treat such a
/// buffer as persistent: its footprint still slides with the seq dim
/// through the dropped dimension's offset, and parking it aliases
/// every column onto one writeback.
#[test]
fn seq_coupled_dropped_dim_is_not_hoisted() {
    let spec = case(0);
    for machine in [
        MachineConfig::geforce_8800_gtx(),
        MachineConfig::cell_like(),
    ] {
        let (store, stats) = run(&spec, &machine, false);
        assert_eq!(
            store.data("Sad").unwrap(),
            spec.reference.data("Sad").unwrap(),
            "sliding accumulator column aliased across sub-tiles"
        );
        // Every Sad element is written back exactly once: 8x8 sums.
        assert_eq!(stats.moved_out, 64, "writebacks collapsed or duplicated");
    }
}

/// `A[s][i] = A[s-1][i] + 1` beside an independent statement, `i`
/// tiled across blocks and the untiled `s` as the sequential dim:
/// exec_golden's `carry` mapping (sub-tiles start at `s = 1`).
fn carry_mapping() -> (BlockedKernel, Vec<i64>) {
    use polymem_core::tiling::transform::{tile_program, TileSpec};
    use polymem_ir::expr::v;
    use polymem_ir::{Expr, LinExpr, ProgramBuilder};

    let mut b = ProgramBuilder::new("d", ["N"]);
    b.array("A", &[LinExpr::c(4), v("N")]);
    b.array("B2", &[LinExpr::c(4), v("N")]);
    b.array("Out", &[LinExpr::c(4), v("N")]);
    let loops = [
        ("s", LinExpr::c(1), LinExpr::c(3)),
        ("i", LinExpr::c(0), v("N") - 1),
    ];
    b.stmt("S1")
        .loops(&loops)
        .write("A", &[v("s"), v("i")])
        .read("A", &[v("s") - 1, v("i")])
        .body(Expr::add(Expr::Read(0), Expr::Const(1)))
        .done();
    b.stmt("S2")
        .loops(&loops)
        .write("Out", &[v("s"), v("i")])
        .read("B2", &[v("s"), v("i")])
        .body(Expr::mul(Expr::Read(0), Expr::Const(2)))
        .done();
    let p = b.build().unwrap();
    let kernel = BlockedKernel {
        program: tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap(),
        round_dims: vec![],
        block_dims: vec!["iT".into()],
        seq_dims: vec!["s".into()],
        thread_dims: vec![],
        use_scratchpad: true,
    };
    (kernel, vec![8])
}

/// The values the launch's sub-blocks give the plan's fixed dims (in
/// `fixed` order), read off the statement domains.
fn sub_blocks(
    kernel: &BlockedKernel,
    params: &[i64],
    fixed: &[String],
) -> std::collections::BTreeSet<Vec<i64>> {
    let mut out = std::collections::BTreeSet::new();
    for s in &kernel.program.stmts {
        let dims = s.domain.space().dims();
        let at: Option<Vec<usize>> = fixed
            .iter()
            .map(|f| dims.iter().position(|d| d == f))
            .collect();
        let Some(at) = at else { continue };
        let concrete = s.domain.substitute_params(params).unwrap();
        polymem_poly::count::enumerate_points(&concrete, 1 << 20, &mut |p| {
            out.insert(at.iter().map(|&d| p[d]).collect());
        })
        .unwrap();
    }
    out
}

/// The paper's "exactly once" and Ferry et al.'s irredundancy, on the
/// sets the residency plan scans for the real kernels: at every
/// sub-tile with a predecessor (partial boundary tiles included) the
/// retained and delta nests partition the move-in window with no
/// element visited twice; the flush delta is part of the move-out
/// window, and whatever it skips the successor writes.
#[test]
fn retained_and_delta_partition_every_real_window() {
    use polymem_core::smem::movement::{for_each_move_in, for_each_move_out};
    use polymem_core::smem::residency::{
        for_each_delta_in, for_each_flush_delta, for_each_retained,
    };
    use polymem_machine::warm_plan;
    use std::collections::BTreeSet;

    type Visit<'a> = &'a mut dyn FnMut(&[i64], &[i64]);
    fn elements(what: &str, scan: impl FnOnce(Visit)) -> BTreeSet<Vec<i64>> {
        let mut set = BTreeSet::new();
        scan(&mut |g, _| assert!(set.insert(g.to_vec()), "{what}: {g:?} visited twice"));
        set
    }

    let (flush, carry) = (flush_case(), carry_mapping());
    let (me8, j2d, mm, conv) = (case(0), case(2), case(3), case(4));
    let cases: Vec<(&str, BlockedKernel, Vec<i64>, bool)> = vec![
        // The sequential mappings exec_golden pins...
        (
            "me 4x2",
            me::blocked_seq_kernel(4, 2, true),
            me8.params.clone(),
            false,
        ),
        (
            "jacobi2d 4x2",
            jacobi2d::stepwise_seq_kernel(4, 2, true),
            jacobi2d::params(2, 8),
            false,
        ),
        (
            "conv2d 4x2",
            conv2d::blocked_seq_kernel(4, 2, true),
            conv2d::params(&conv2d::ConvSize { n: 8, k: 3 }),
            false,
        ),
        (
            "matmul 4x4x2",
            matmul::blocked_kernel_hoisted(4, 4, 2, true),
            vec![8],
            false,
        ),
        ("flush", flush.kernel, flush.params, false),
        ("carry", carry.0, carry.1, false),
        // ...and this file's, which add single-column sub-tiles, the
        // merged Fig. 1 layout and conv2d's partial tiles (7 = 2·3 + 1).
        ("me 8x1", me8.kernel, me8.params, false),
        (
            "jacobi2d 4x1 merged",
            j2d.kernel,
            j2d.params,
            j2d.merged_layout,
        ),
        ("matmul 4x4x4", mm.kernel, mm.params, false),
        ("conv2d 3x3", conv.kernel, conv.params, false),
    ];
    for (label, kernel, params, merged) in &cases {
        let mut groups_checked = 0;
        for machine in [
            MachineConfig::geforce_8800_gtx(),
            MachineConfig::cell_like(),
        ] {
            let mut cfg = machine;
            cfg.residency = true;
            cfg.partition = !merged;
            let (sp, _) = warm_plan(kernel, params, &cfg, None, None)
                .unwrap()
                .expect("the mapping stages");
            let res = sp.residency.as_ref().expect("residency planned");
            let seq = sp.fixed.iter().position(|f| *f == res.seq_param).unwrap();
            let blocks = sub_blocks(kernel, params, &sp.fixed);
            assert!(!blocks.is_empty(), "{label}: no sub-block found");
            let ext = |b: &[i64]| [params.as_slice(), b].concat();
            let neighbour = |b: &[i64], step: i64| {
                let mut n = b.to_vec();
                n[seq] += step;
                blocks.contains(&n).then(|| ext(&n))
            };
            for (id, rp) in &res.plans {
                let buf = &sp.plan.buffers[*id];
                let mc = sp.plan.movement.iter().find(|m| m.buffer == *id).unwrap();
                for b in &blocks {
                    let at = ext(b);
                    let what = format!("{label} buffer {id} at {b:?}");
                    if let Some(prev) = neighbour(b, -1) {
                        let window =
                            elements(&what, |f| for_each_move_in(mc, buf, &at, f).unwrap());
                        let retained =
                            elements(&what, |f| for_each_retained(rp, buf, &at, f).unwrap());
                        let delta =
                            elements(&what, |f| for_each_delta_in(rp, buf, &at, f).unwrap());
                        assert!(retained.is_disjoint(&delta), "{what}: atom overlap");
                        assert_eq!(&retained | &delta, window, "{what}: not the window");
                        let before =
                            elements(&what, |f| for_each_move_in(mc, buf, &prev, f).unwrap());
                        assert!(
                            retained.is_subset(&before),
                            "{what}: retained, never loaded"
                        );
                        groups_checked += 1;
                    }
                    let out = elements(&what, |f| for_each_move_out(mc, buf, &at, f).unwrap());
                    let flushed =
                        elements(&what, |f| for_each_flush_delta(rp, buf, &at, f).unwrap());
                    assert!(flushed.is_subset(&out), "{what}: flushes outside move-out");
                    if let Some(next) = neighbour(b, 1) {
                        let rewritten =
                            elements(&what, |f| for_each_move_out(mc, buf, &next, f).unwrap());
                        assert!(
                            (&out - &flushed).is_subset(&rewritten),
                            "{what}: skips an element the successor does not write"
                        );
                    }
                }
            }
        }
        // `carry` reads row `s - 1` only: consecutive windows are
        // disjoint and nothing retains. Every other case must.
        assert_eq!(
            groups_checked == 0,
            *label == "carry",
            "{label}: {groups_checked} windows checked"
        );
    }
}
