//! Golden reproduction of the paper's Fig. 1 worked example.
//!
//! The paper allocates, for
//!
//! ```c
//! A[200][200]; B[200][200];
//! for (i=10;i<=14;i++)
//!   for (j=10;j<=14;j++) {
//!     A[i][j+1] = A[i+j][j+1]*3;             // S1
//!     for (k=11;k<=20;k++)
//!       B[i][j+k] = A[i][k] + B[i+j][k];     // S2
//!   }
//! ```
//!
//! the local buffers `LA[19][10]` (offsets 10, 11) and `LB[19][24]`
//! (offsets 10, 11), with move-in code scanning the two disjoint read
//! regions of `A`, and move-out code covering exactly the written
//! regions. This test asserts all of those numbers, the rewritten
//! access functions, the exact transfer sets, and end-to-end execution
//! equivalence through the machine executor.

use polymem::core::smem::movement::for_each_scan;
use polymem::core::smem::{analyze_program, AccessId, SmemConfig};
use polymem::ir::expr::v;
use polymem::ir::{exec_program, ArrayStore, Expr, LinExpr, Program, ProgramBuilder};
use polymem::machine::{execute_blocked, BlockedKernel, MachineConfig};
use std::collections::HashSet;

fn fig1_program() -> Program {
    let mut b = ProgramBuilder::new("fig1", Vec::<String>::new());
    b.array("A", &[LinExpr::c(200), LinExpr::c(200)]);
    b.array("B", &[LinExpr::c(200), LinExpr::c(200)]);
    b.stmt("S1")
        .loops(&[
            ("i", LinExpr::c(10), LinExpr::c(14)),
            ("j", LinExpr::c(10), LinExpr::c(14)),
        ])
        .write("A", &[v("i"), v("j") + 1])
        .read("A", &[v("i") + v("j"), v("j") + 1])
        .body(Expr::mul(Expr::Read(0), Expr::Const(3)))
        .done();
    b.stmt("S2")
        .loops(&[
            ("i", LinExpr::c(10), LinExpr::c(14)),
            ("j", LinExpr::c(10), LinExpr::c(14)),
            ("k", LinExpr::c(11), LinExpr::c(20)),
        ])
        .write("B", &[v("i"), v("j") + v("k")])
        .read("A", &[v("i"), v("k")])
        .read("B", &[v("i") + v("j"), v("k")])
        .body(Expr::add(Expr::Read(0), Expr::Read(1)))
        .done();
    b.build().expect("fig1 program is well-formed")
}

/// Fig. 1 mode: one buffer per array spanning all accessed regions
/// (the paper's example does not split disjoint regions into separate
/// buffers).
fn fig1_config() -> SmemConfig {
    SmemConfig {
        partition: false,
        sample_params: vec![],
        ..SmemConfig::default()
    }
}

#[test]
fn buffer_shapes_match_the_paper() {
    let p = fig1_program();
    let plan = analyze_program(&p, &fig1_config()).unwrap();
    assert_eq!(plan.buffers.len(), 2);

    let la = &plan.buffers[0];
    assert_eq!(la.array_name, "A");
    // Paper: lb(i) = 10, ub(i) = 28; lb(j) = 11, ub(j) = 20 → LA[19][10].
    assert_eq!(la.offsets(&[]).unwrap(), vec![10, 11]);
    assert_eq!(la.extents(&[]).unwrap(), vec![19, 10]);
    assert_eq!(la.render_decl(&p.params), "LA[19][10];");

    let lb = &plan.buffers[1];
    assert_eq!(lb.array_name, "B");
    // Paper: lb(i) = 10, ub(i) = 28; lb(j) = 11, ub(j) = 34 → LB[19][24].
    assert_eq!(lb.offsets(&[]).unwrap(), vec![10, 11]);
    assert_eq!(lb.extents(&[]).unwrap(), vec![19, 24]);
    assert_eq!(lb.render_decl(&p.params), "LB[19][24];");
}

#[test]
fn rewritten_accesses_match_the_modified_code() {
    let p = fig1_program();
    let plan = analyze_program(&p, &fig1_config()).unwrap();
    // Paper's modified code:
    //   LA[i-10][j+1-11] = LA[i+j-10][j+1-11]*3;
    //   LB[i-10][j+k-11] = LA[i-10][k-11] + LB[i+j-10][k-11];
    let la = &plan.buffers[0];
    let lb = &plan.buffers[1];

    // S1 write A[i][j+1] at (i, j) = (12, 13) → LA[2][3].
    let w = &plan.rewrites[&AccessId::write(0)];
    assert_eq!(w.local_index(la, &[12, 13], &[]).unwrap(), vec![2, 3]);
    // S1 read A[i+j][j+1] at (12, 13) → LA[15][3].
    let r = &plan.rewrites[&AccessId::read(0, 0)];
    assert_eq!(r.local_index(la, &[12, 13], &[]).unwrap(), vec![15, 3]);
    // S2 read A[i][k] at (i, j, k) = (11, 10, 17) → LA[1][6].
    let r = &plan.rewrites[&AccessId::read(1, 0)];
    assert_eq!(r.local_index(la, &[11, 10, 17], &[]).unwrap(), vec![1, 6]);
    // S2 write B[i][j+k] at (11, 10, 17) → LB[1][16].
    let w = &plan.rewrites[&AccessId::write(1)];
    assert_eq!(w.local_index(lb, &[11, 10, 17], &[]).unwrap(), vec![1, 16]);
    // S2 read B[i+j][k] at (11, 10, 17) → LB[11][6].
    let r = &plan.rewrites[&AccessId::read(1, 1)];
    assert_eq!(r.local_index(lb, &[11, 10, 17], &[]).unwrap(), vec![11, 6]);
}

#[test]
fn movement_sets_match_the_papers_copy_loops() {
    let p = fig1_program();
    let plan = analyze_program(&p, &fig1_config()).unwrap();
    let (la, lb) = (&plan.buffers[0], &plan.buffers[1]);
    let (mc_a, mc_b) = (&plan.movement[0], &plan.movement[1]);

    // Move-in A: the paper's two nests cover [10,14]×[11,20] (50
    // elements) plus {(i, j) : 20<=i<=28, max(i-13,11)<=j<=min(15,i-9)}
    // (25 elements), each element exactly once.
    let mut seen = HashSet::new();
    for_each_scan(&mc_a.move_in, la, &[], &mut |g, l| {
        assert!(seen.insert((g[0], g[1])), "duplicate transfer {g:?}");
        assert_eq!(l[0], g[0] - 10);
        assert_eq!(l[1], g[1] - 11);
    })
    .unwrap();
    let expected_a: HashSet<(i64, i64)> = {
        let mut s = HashSet::new();
        for i in 10..=14 {
            for j in 11..=20 {
                s.insert((i, j));
            }
        }
        for i in 20..=28i64 {
            for j in (i - 13).max(11)..=(i - 9).min(15) {
                s.insert((i, j));
            }
        }
        s
    };
    assert_eq!(seen, expected_a);
    assert_eq!(mc_a.move_in_count(&[]), 75);

    // Move-out A: the written region [10,14]×[11,15].
    let mut seen = HashSet::new();
    for_each_scan(&mc_a.move_out, la, &[], &mut |g, _| {
        seen.insert((g[0], g[1]));
    })
    .unwrap();
    let expected: HashSet<(i64, i64)> = (10..=14)
        .flat_map(|i| (11..=15).map(move |j| (i, j)))
        .collect();
    assert_eq!(seen, expected);
    assert_eq!(mc_a.move_out_count(&[]), 25);

    // Move-in B: [20,28]×[11,20]; move-out B: [10,14]×[21,34].
    let mut seen = HashSet::new();
    for_each_scan(&mc_b.move_in, lb, &[], &mut |g, _| {
        seen.insert((g[0], g[1]));
    })
    .unwrap();
    let expected: HashSet<(i64, i64)> = (20..=28)
        .flat_map(|i| (11..=20).map(move |j| (i, j)))
        .collect();
    assert_eq!(seen, expected);
    assert_eq!(mc_b.move_in_count(&[]), 90);

    let mut seen = HashSet::new();
    for_each_scan(&mc_b.move_out, lb, &[], &mut |g, _| {
        seen.insert((g[0], g[1]));
    })
    .unwrap();
    let expected: HashSet<(i64, i64)> = (10..=14)
        .flat_map(|i| (21..=34).map(move |j| (i, j)))
        .collect();
    assert_eq!(seen, expected);
    assert_eq!(mc_b.move_out_count(&[]), 70);
}

/// Algorithm 2's buffer size bounds the volume either nest moves: each
/// element transferred has its own word.
#[test]
fn volume_bounds_cover_transfers() {
    let p = fig1_program();
    let plan = analyze_program(&p, &fig1_config()).unwrap();
    for (buf, mc) in plan.buffers.iter().zip(&plan.movement) {
        let words = buf.size_words(&[]).unwrap();
        assert!(
            words >= mc.move_in_count(&[]),
            "{}: {words}",
            buf.array_name
        );
        assert!(
            words >= mc.move_out_count(&[]),
            "{}: {words}",
            buf.array_name
        );
    }
}

#[test]
fn executing_through_the_scratchpad_preserves_semantics() {
    let p = fig1_program();
    // Reference: plain interpreter.
    let mut reference = ArrayStore::for_program(&p, &[]).unwrap();
    reference
        .fill_with("A", |ix| ix[0] * 7 + ix[1] * 3 + 1)
        .unwrap();
    reference
        .fill_with("B", |ix| ix[0] * 2 - ix[1] + 5)
        .unwrap();
    let mut staged = reference.clone();
    exec_program(&p, &[], &mut reference).unwrap();

    // Staged: the machine executor with scratchpad staging, the whole
    // block on one simulated multiprocessor.
    let kernel = BlockedKernel {
        program: p.clone(),
        round_dims: vec![],
        block_dims: vec![],
        seq_dims: vec![],
        thread_dims: vec![],
        use_scratchpad: true,
    };
    let cfg = MachineConfig::geforce_8800_gtx();
    let stats = execute_blocked(&kernel, &[], &mut staged, &cfg, false).unwrap();
    assert_eq!(reference.data("A").unwrap(), staged.data("A").unwrap());
    assert_eq!(reference.data("B").unwrap(), staged.data("B").unwrap());
    assert!(stats.moved_in > 0);
    assert!(stats.moved_out > 0);
}

#[test]
fn partitioned_mode_is_tighter_than_the_figure() {
    // With partitioning on (the framework default, §3.1), the
    // disjoint regions of A get separate buffers whose total size is
    // smaller than the Fig. 1 hull buffer — the motivation for
    // partitioning in the first place.
    let p = fig1_program();
    let hull = analyze_program(&p, &fig1_config()).unwrap();
    let parts = analyze_program(
        &p,
        &SmemConfig {
            partition: true,
            sample_params: vec![],
            ..SmemConfig::default()
        },
    )
    .unwrap();
    assert!(parts.buffers.len() > hull.buffers.len());
    let hull_words = hull.total_buffer_words(&[]).unwrap();
    let part_words = parts.total_buffer_words(&[]).unwrap();
    assert!(
        part_words < hull_words,
        "partitioned {part_words} vs hull {hull_words}"
    );
}
