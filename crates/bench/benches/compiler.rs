//! Criterion benchmarks of the compiler passes themselves: the
//! polyhedral substrate (Fourier–Motzkin, images, scanning) and the
//! full §3 analysis on each kernel. These measure the *tool*, not the
//! simulated machine — the figure harness (`polymem figures`)
//! covers the paper's performance results.

use criterion::{criterion_group, criterion_main, Criterion};
use polymem_codegen::scan_union;
use polymem_core::deps::compute_deps;
use polymem_core::smem::{analyze_program, SmemConfig};
use polymem_core::tiling::transform::{tile_program, TileSpec};
use polymem_kernels::{jacobi, jacobi2d, matmul, me};
use polymem_poly::dep::DepKind;
use polymem_poly::{Constraint, PolyUnion, Polyhedron, Space};
use std::hint::black_box;

fn poly_box(n_dims: usize, extent: i64) -> Polyhedron {
    let space = Space::anon(n_dims, 0);
    let mut rows = Vec::new();
    for d in 0..n_dims {
        let mut lo = vec![0i64; n_dims + 1];
        lo[d] = 1;
        rows.push(Constraint::ineq(lo));
        let mut hi = vec![0i64; n_dims + 1];
        hi[d] = -1;
        hi[n_dims] = extent;
        rows.push(Constraint::ineq(hi));
    }
    Polyhedron::new(space, rows)
}

fn bench_substrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    // Fourier–Motzkin projection of a 6-D box with diagonal cuts.
    let mut p6 = poly_box(6, 100);
    p6.add_constraint(Constraint::ineq(vec![-1, -1, -1, 0, 0, 0, 180]));
    p6.add_constraint(Constraint::ineq(vec![0, 0, 1, -1, 1, -1, 40]));
    g.bench_function("fm_project_6d_to_2d", |b| {
        b.iter(|| black_box(&p6).project_onto(&[0, 1]).unwrap())
    });

    // Affine image of the ME read access over its domain.
    let p = me::program();
    let dom = &p.stmts[0].domain;
    let acc = &p.stmts[0].reads[1]; // Cur[i+k][j+l]
    g.bench_function("affine_image_me_read", |b| {
        b.iter(|| black_box(&acc.map).image(black_box(dom)).unwrap())
    });

    // Union scanning with overlapping members.
    let u = PolyUnion::from_members(vec![poly_box(2, 40), {
        let mut b2 = poly_box(2, 40);
        b2.add_constraint(Constraint::ineq(vec![1, 1, -30]));
        b2
    }])
    .unwrap();
    g.bench_function("scan_union_overlapping", |b| {
        b.iter(|| scan_union(black_box(&u), &[0]).unwrap())
    });

    // Dependence analysis of the Jacobi kernel.
    let jp = jacobi::program();
    g.bench_function("dependence_analysis_jacobi", |b| {
        b.iter(|| {
            compute_deps(
                black_box(&jp),
                &[DepKind::Flow, DepKind::Anti, DepKind::Output],
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("smem_analysis");
    let cfg = |params: Vec<i64>| SmemConfig {
        sample_params: params,
        ..SmemConfig::default()
    };
    let me_p = me::program();
    g.bench_function("analyze_me", |b| {
        b.iter(|| analyze_program(black_box(&me_p), &cfg(vec![64, 64, 16])).unwrap())
    });
    let mm_p = matmul::program();
    g.bench_function("analyze_matmul", |b| {
        b.iter(|| analyze_program(black_box(&mm_p), &cfg(vec![64])).unwrap())
    });
    let j2_p = jacobi2d::program();
    g.bench_function("analyze_jacobi2d", |b| {
        b.iter(|| analyze_program(black_box(&j2_p), &cfg(vec![8, 64])).unwrap())
    });
    g.finish();
}

fn bench_tiling(c: &mut Criterion) {
    let mut g = c.benchmark_group("tiling");
    let p = me::program();
    g.bench_function("tile_me_three_levels", |b| {
        b.iter(|| {
            let l1 =
                tile_program(black_box(&p), &TileSpec::new(&[("i", 64), ("j", 64)], "T")).unwrap();
            let l2 = tile_program(
                &l1,
                &TileSpec::new_before(&[("i", 32), ("j", 16), ("k", 16), ("l", 16)], "p", "i"),
            )
            .unwrap();
            tile_program(&l2, &TileSpec::new_before(&[("i", 8), ("j", 8)], "t", "i")).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_substrate, bench_analysis, bench_tiling);
criterion_main!(benches);
