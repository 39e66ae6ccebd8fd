//! Property-based tests on the core invariants of the pipeline.
//!
//! * Fourier–Motzkin projection soundness: every point of a random
//!   polytope projects into the projection; the projection has no
//!   extra points for unit-coefficient systems (the class the
//!   compiler generates).
//! * Single-visit scanning: the code generator visits every point of a
//!   random union of boxes exactly once, even with heavy overlap.
//! * Buffer containment: local buffers cover every accessed element of
//!   random strided window programs, and rewritten accesses land in
//!   bounds.
//! * Tiling semantics: random tile sizes never change program results.
//! * Tile-size search: never returns an infeasible configuration.

use polymem::codegen::scan_union;
use polymem::core::smem::{analyze_program, SmemConfig};
use polymem::core::tiling::transform::{tile_program, TileSpec};
use polymem::ir::expr::v;
use polymem::ir::{exec_program, ArrayStore, Expr, LinExpr, Program, ProgramBuilder};
use polymem::poly::count::enumerate_points;
use polymem::poly::{Constraint, PolyUnion, Polyhedron, Space};
use proptest::prelude::*;
use std::collections::HashSet;

fn interval_box(ranges: &[(i64, i64)]) -> Polyhedron {
    let n = ranges.len();
    let space = Space::anon(n, 0);
    let mut rows = Vec::new();
    for (d, &(lo, hi)) in ranges.iter().enumerate() {
        let mut r = vec![0i64; n + 1];
        r[d] = 1;
        r[n] = -lo;
        rows.push(Constraint::ineq(r.clone()));
        let mut r = vec![0i64; n + 1];
        r[d] = -1;
        r[n] = hi;
        rows.push(Constraint::ineq(r));
    }
    Polyhedron::new(space, rows)
}

/// RAII guard flipping the polyhedral core into naive mode, restoring
/// fast mode on drop even when an assertion unwinds. The flag is
/// process-global: a concurrent test observing the flipped mode merely
/// takes the other (semantically identical) code path.
struct NaiveModeGuard;

impl NaiveModeGuard {
    fn on() -> Self {
        polymem::poly::set_naive_mode(true);
        NaiveModeGuard
    }
}

impl Drop for NaiveModeGuard {
    fn drop(&mut self) {
        polymem::poly::set_naive_mode(false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fm_projection_is_sound_for_boxes_with_diagonal_cuts(
        lo0 in -5i64..5, w0 in 0i64..8,
        lo1 in -5i64..5, w1 in 0i64..8,
        cut in -10i64..20,
    ) {
        // Box plus a diagonal half-space x + y <= cut.
        let mut p = interval_box(&[(lo0, lo0 + w0), (lo1, lo1 + w1)]);
        p.add_constraint(Constraint::ineq(vec![-1, -1, cut]));
        let proj = p.eliminate_dim(1).unwrap();
        // Soundness: every (x, y) in p has x in proj.
        let mut pts = Vec::new();
        enumerate_points(&p, 10_000, &mut |q| pts.push(q.to_vec())).unwrap();
        for q in &pts {
            prop_assert!(proj.contains(&[q[0]], &[]), "{q:?} lost by projection");
        }
        // Exactness for this unit-coefficient class: every x in proj
        // lifts back to some y.
        let mut xs = Vec::new();
        enumerate_points(&proj, 10_000, &mut |q| xs.push(q[0])).unwrap();
        let lifted: HashSet<i64> = pts.iter().map(|q| q[0]).collect();
        for x in xs {
            prop_assert!(lifted.contains(&x), "x = {x} does not lift");
        }
    }

    #[test]
    fn union_scanning_visits_each_point_exactly_once(
        boxes in prop::collection::vec(
            (-8i64..8, 0i64..6, -8i64..8, 0i64..6), 1..5)
    ) {
        let members: Vec<Polyhedron> = boxes
            .iter()
            .map(|&(x, w, y, h)| interval_box(&[(x, x + w), (y, y + h)]))
            .collect();
        let u = PolyUnion::from_members(members.clone()).unwrap();
        let ast = scan_union(&u, &[0]).unwrap();
        let mut seen = HashSet::new();
        ast.for_each_point(&[], &mut |_, p| {
            assert!(seen.insert((p[0], p[1])), "revisited {p:?}");
        });
        // Coverage: brute-force over the bounding region.
        for x in -8..16 {
            for y in -8..16 {
                let inside = members.iter().any(|m| m.contains(&[x, y], &[]));
                prop_assert_eq!(
                    inside,
                    seen.contains(&(x, y)),
                    "mismatch at ({}, {})", x, y
                );
            }
        }
    }

    #[test]
    fn buffers_cover_all_accesses_and_rewrites_stay_in_bounds(
        off1 in 0i64..4, off2 in 0i64..4, n in 4i64..12,
    ) {
        // for i in [0, n-1]: Out[i] = A[i + off1] + A[i + off1 + off2]
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") + 8]);
        b.array("Out", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("Out", &[v("i")])
            .read("A", &[v("i") + off1])
            .read("A", &[v("i") + off1 + off2])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let plan = analyze_program(
            &p,
            &SmemConfig {
                sample_params: vec![n],
                delta: 0.0,
                must_copy_all: true,
                ..SmemConfig::default()
            },
        )
        .unwrap();
        // Every rewritten access lands inside its buffer's extents for
        // every iteration point.
        for (id, la) in &plan.rewrites {
            let buf = &plan.buffers[la.buffer];
            let extents = buf.extents(&[n]).unwrap();
            let stmt = &p.stmts[id.stmt];
            let dom = stmt.domain.substitute_params(&[n]).unwrap();
            enumerate_points(&dom, 100_000, &mut |pt| {
                let idx = la.local_index(buf, pt, &[n]).unwrap();
                for (x, e) in idx.iter().zip(&extents) {
                    assert!(*x >= 0 && x < e, "{id:?} at {pt:?} -> {idx:?} outside {extents:?}");
                }
            })
            .unwrap();
        }
    }

    #[test]
    fn symbolic_plan_instantiation_equals_fresh_analysis(
        off1 in 0i64..4, off2 in 1i64..4, tile in 2i64..6, n in 6i64..14,
    ) {
        // Random strided-window program, tiled, then: one symbolic
        // analysis (block dim as a parameter) instantiated per block
        // must equal a fresh per-block analysis — same buffer shapes,
        // same move-in element sets — including the boundary tile.
        use polymem::core::smem::analyze_symbolic;
        use polymem::core::smem::movement::for_each_scan;
        use polymem::core::tiling::transform::fix_dims;
        use std::collections::{BTreeSet, HashMap};
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") + 8]);
        b.array("Out", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("Out", &[v("i")])
            .read("A", &[v("i") + off1])
            .read("A", &[v("i") + off1 + off2])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", tile)], "T")).unwrap();
        let cfg = SmemConfig {
            sample_params: vec![n],
            must_copy_all: true,
            ..SmemConfig::default()
        };
        let sp = analyze_symbolic(&t, &[("iT".to_string(), 0)], &cfg).unwrap();
        let n_blocks = (n + tile - 1) / tile;
        for bt in 0..n_blocks {
            let mut fixed = HashMap::new();
            fixed.insert("iT".to_string(), bt);
            let mut view = t.clone();
            for s in &mut view.stmts {
                s.domain = fix_dims(&s.domain, &fixed);
            }
            let fresh = analyze_program(&view, &cfg).unwrap();
            let ext = sp.ext_params(&[n], &fixed).unwrap();
            prop_assert_eq!(sp.plan.buffers.len(), fresh.buffers.len());
            for (sb, fb) in sp.plan.buffers.iter().zip(&fresh.buffers) {
                prop_assert_eq!(sb.array, fb.array);
                prop_assert_eq!(
                    sb.extents(&ext).unwrap(),
                    fb.extents(&[n]).unwrap(),
                    "extents differ at block {}", bt
                );
                prop_assert_eq!(
                    sb.offsets(&ext).unwrap(),
                    fb.offsets(&[n]).unwrap(),
                    "offsets differ at block {}", bt
                );
            }
            let collect = |plan: &polymem::core::smem::SmemPlan, prm: &[i64]| {
                let mut set: BTreeSet<(usize, Vec<i64>)> = BTreeSet::new();
                for mc in &plan.movement {
                    let buf = &plan.buffers[mc.buffer];
                    for_each_scan(&mc.move_in, buf, prm, &mut |g, _| {
                        set.insert((buf.array, g.to_vec()));
                    })
                    .unwrap();
                }
                set
            };
            prop_assert_eq!(
                collect(&sp.plan, &ext),
                collect(&fresh, &[n]),
                "move-in sets differ at block {}", bt
            );
        }
    }

    #[test]
    fn descriptors_cover_movement_exactly(
        off1 in 0i64..4, off2 in 0i64..4, w in 1i64..4,
        tile in 1i64..5, n in 4i64..12,
    ) {
        // The coalesced DMA list for each buffer must enumerate exactly
        // the same (global, local) element pairs, in exactly the same
        // order, as the per-element move-in/move-out nests it replaces
        // — descriptors change the granularity of movement, never its
        // contents.
        use polymem::core::smem::descriptors::{flatten, transfer_list};
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") + 8, v("N") + 8]);
        b.array("Out", &[v("N"), v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("N") - 1),
                ("k", LinExpr::c(0), LinExpr::c(w)),
            ])
            .write("Out", &[v("i"), v("j")])
            .read("Out", &[v("i"), v("j")])
            .read("A", &[v("i") + off1, v("j") + off2 + v("k")])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", tile), ("j", tile)], "T")).unwrap();
        let plan = analyze_program(
            &t,
            &SmemConfig {
                sample_params: vec![n],
                delta: 0.0,
                must_copy_all: true,
                ..SmemConfig::default()
            },
        )
        .unwrap();
        use polymem::core::smem::movement::for_each_scan;
        prop_assert!(!plan.movement.is_empty(), "nothing staged — vacuous test");
        for mc in &plan.movement {
            let buf = &plan.buffers[mc.buffer];
            let arr_ext = t.arrays[buf.array].eval_extents(&t.params, &[n]).unwrap();
            let buf_ext = buf.extents(&[n]).unwrap();
            for (dir, scan) in [("in", &mc.move_in), ("out", &mc.move_out)] {
                let mut reference: Vec<(i64, i64)> = Vec::new();
                for_each_scan(scan, buf, &[n], &mut |g, l| {
                    let (g, l) = (flatten(g, &arr_ext).unwrap(), flatten(l, &buf_ext).unwrap());
                    reference.push((g as i64, l as i64));
                })
                .unwrap();
                let list = transfer_list(scan, buf, &arr_ext, &[n]).unwrap();
                let mut got: Vec<(i64, i64)> = Vec::new();
                list.for_each(&mut |g, l| got.push((g, l)));
                prop_assert_eq!(&got, &reference, "direction {}", dir);
                prop_assert_eq!(list.elements, reference.len() as u64);
                // Coalescing must never *increase* the operation count.
                prop_assert!(list.descriptors.len() as u64 <= list.elements.max(1));
            }
        }
    }

    #[test]
    fn random_tilings_preserve_semantics(
        t1 in 1i64..7, t2 in 1i64..7, n in 2i64..10,
    ) {
        // A separable 2-D kernel with an asymmetric access.
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") + 2, v("N") + 2]);
        b.array("C", &[v("N"), v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("N") - 1),
            ])
            .write("C", &[v("i"), v("j")])
            .read("A", &[v("i") + 1, v("j")])
            .read("A", &[v("i"), v("j") + 2])
            .body(Expr::sub(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", t1), ("j", t2)], "T")).unwrap();
        let mut st0 = ArrayStore::for_program(&p, &[n]).unwrap();
        st0.fill_with("A", |ix| ix[0] * 31 + ix[1] * 7).unwrap();
        let mut st1 = st0.clone();
        exec_program(&p, &[n], &mut st0).unwrap();
        exec_program(&t, &[n], &mut st1).unwrap();
        prop_assert_eq!(st0.data("C").unwrap(), st1.data("C").unwrap());
    }

    #[test]
    fn scratchpad_execution_matches_reference_on_random_windows(
        w in 1i64..4, n in 3i64..9, tile in 1i64..5,
    ) {
        // Windowed sum: Out[i] = sum-ish over A[i..i+w].
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") + 4]);
        b.array("Out", &[v("N"), LinExpr::c(4)]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("k", LinExpr::c(0), LinExpr::c(w)),
            ])
            .write("Out", &[v("i"), LinExpr::c(0)])
            .read("Out", &[v("i"), LinExpr::c(0)])
            .read("A", &[v("i") + v("k")])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let tiled = tile_program(&p, &TileSpec::new(&[("i", tile)], "T")).unwrap();
        let kernel = polymem::machine::BlockedKernel {
            program: tiled,
            round_dims: vec![],
            block_dims: vec!["iT".into()],
            seq_dims: vec![],
            thread_dims: vec![],
            use_scratchpad: true,
        };
        let mut st0 = ArrayStore::for_program(&p, &[n]).unwrap();
        st0.fill_with("A", |ix| ix[0] * 13 + 1).unwrap();
        let mut st1 = st0.clone();
        exec_program(&p, &[n], &mut st0).unwrap();
        let cfg = polymem::machine::MachineConfig::geforce_8800_gtx();
        polymem::machine::execute_blocked(&kernel, &[n], &mut st1, &cfg, false).unwrap();
        prop_assert_eq!(st0.data("Out").unwrap(), st1.data("Out").unwrap());
    }

    #[test]
    fn pruned_projection_matches_naive_pointwise(
        lo0 in -4i64..4, w0 in 0i64..6,
        lo1 in -4i64..4, w1 in 0i64..6,
        lo2 in -4i64..4, w2 in 0i64..6,
        c1 in -12i64..20, c2 in -12i64..20,
        keep in 0usize..3,
    ) {
        // The optimized projection pipeline (greedy elimination order,
        // syntactic + bounded exact pruning, memoization) must describe
        // exactly the same integer set as the naive fixed-order,
        // prune-free Fourier–Motzkin it replaced.
        let mut p = interval_box(&[(lo0, lo0 + w0), (lo1, lo1 + w1), (lo2, lo2 + w2)]);
        p.add_constraint(Constraint::ineq(vec![-1, -1, 0, c1]));
        p.add_constraint(Constraint::ineq(vec![0, 1, -1, c2]));
        let fast = p.project_onto(&[keep]).unwrap();
        let naive = {
            let _guard = NaiveModeGuard::on();
            p.project_onto(&[keep]).unwrap()
        };
        for x in -16..=16 {
            prop_assert_eq!(
                fast.contains(&[x], &[]),
                naive.contains(&[x], &[]),
                "projections disagree at x = {}", x
            );
        }
    }

    #[test]
    fn rational_emptiness_implies_tightened_fm_emptiness(
        rows in prop::collection::vec(
            (prop::collection::vec(-3i64..4, 3..4), -6i64..7, 0i64..2), 2..8)
    ) {
        // One-directional invariant across the emptiness oracles: the
        // fast path decides *rational* feasibility (capped rational FM,
        // escalating to phase-1 simplex), while the naive path runs
        // integer-tightening FM, which proves at least as much — so a
        // fast-path "empty" must always be confirmed by the naive
        // path, and so must a direct simplex "infeasible". The
        // converse may legitimately differ (tightening can prove
        // integer emptiness of rationally feasible systems).
        let cs: Vec<Constraint> = rows
            .iter()
            .map(|(coef, cst, kind)| {
                let mut r = coef.clone();
                r.push(*cst);
                if *kind == 1 { Constraint::eq(r) } else { Constraint::ineq(r) }
            })
            .collect();
        let p = Polyhedron::new(Space::anon(3, 0), cs);
        let fast_empty = p.is_empty().unwrap();
        let naive_empty = {
            let _guard = NaiveModeGuard::on();
            p.is_empty().unwrap()
        };
        if fast_empty {
            prop_assert!(naive_empty, "fast path claims empty, naive FM disagrees");
        }
        if let Ok(feasible) = polymem::poly::simplex::feasible(p.constraints(), 3) {
            if !feasible {
                prop_assert!(naive_empty, "simplex claims infeasible, naive FM disagrees");
                prop_assert!(fast_empty, "simplex claims infeasible, fast path disagrees");
            }
        }
    }

    #[test]
    fn tile_search_never_violates_constraints(
        mem in 64.0f64..4096.0, p_req in 1u64..128,
    ) {
        use polymem::core::tiling::{search_discrete, TileSizeProblem};
        use polymem::core::tiling::cost::{BufferCost, CostModel, CostParams};
        use polymem::core::smem::dataspace::collect_refs;
        let prog: Program = {
            let mut b = ProgramBuilder::new("jac", ["T", "N"]);
            b.array("A", &[v("N") + 2]);
            b.array("B", &[v("N") + 2]);
            b.stmt("S")
                .loops(&[
                    ("t", LinExpr::c(1), v("T")),
                    ("i", LinExpr::c(1), v("N")),
                ])
                .write("B", &[v("i")])
                .read("A", &[v("i") - 1])
                .read("A", &[v("i") + 1])
                .body(Expr::add(Expr::Read(0), Expr::Read(1)))
                .done();
            b.build().unwrap()
        };
        let a = prog.array_index("A").unwrap();
        let refs = collect_refs(&prog, a).unwrap();
        let members: Vec<&_> = refs.iter().collect();
        let problem = TileSizeProblem {
            cost: CostModel {
                buffers: vec![BufferCost::from_refs("A", &members, &[0], &[0, 1], 2)],
                loop_ranges: vec![1024.0, 8192.0],
            },
            params: CostParams { p: p_req as f64, s: 20.0, l: 1.0 },
            mem_limit: mem,
        };
        let out = search_discrete(&problem, None);
        if out.cost.is_finite() {
            prop_assert!(problem.feasible(&out.sizes), "{:?}", out);
        }
    }
}
