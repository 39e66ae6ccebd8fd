//! Dense matrix multiplication `C = A × B` — the classic scratchpad
//! showcase, used by examples, tests and the ablation benches.
//!
//! All three arrays have order-of-magnitude reuse (`rank(F) = 2` in a
//! 3-deep nest), so Algorithm 1 stages all of them; the `C` buffer
//! hoists past the `k` tile loop (§4.2 placement).

use crate::synth_value;
use polymem_ir::expr::v;
use polymem_ir::{ArrayStore, Expr, LinExpr, Program, ProgramBuilder};

/// Build the `N × N` matmul program (accumulating into `C`).
pub fn program() -> Program {
    let mut b = ProgramBuilder::new("matmul", ["N"]);
    b.array("A", &[v("N"), v("N")]);
    b.array("B", &[v("N"), v("N")]);
    b.array("C", &[v("N"), v("N")]);
    b.stmt("S")
        .loops(&[
            ("i", LinExpr::c(0), v("N") - 1),
            ("j", LinExpr::c(0), v("N") - 1),
            ("k", LinExpr::c(0), v("N") - 1),
        ])
        .write("C", &[v("i"), v("j")])
        .read("C", &[v("i"), v("j")])
        .read("A", &[v("i"), v("k")])
        .read("B", &[v("k"), v("j")])
        .body(Expr::add(
            Expr::Read(0),
            Expr::mul(Expr::Read(1), Expr::Read(2)),
        ))
        .done();
    b.build().expect("matmul program is well-formed")
}

/// Fill `A`/`B` deterministically.
pub fn init_store(store: &mut ArrayStore, seed: u64) {
    store
        .fill_with("A", |ix| synth_value(seed, ix))
        .expect("A exists");
    store
        .fill_with("B", |ix| synth_value(seed ^ 0xabcd, ix))
        .expect("B exists");
}

/// Native reference implementation.
pub fn reference(store: &mut ArrayStore, n: i64) {
    let a = store.data("A").expect("A").to_vec();
    let b = store.data("B").expect("B").to_vec();
    let c = store.data_mut("C").expect("C");
    let n = n as usize;
    for i in 0..n {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_kernel;
    use polymem_core::smem::{analyze_program, SmemConfig};
    use polymem_ir::exec_program;
    use polymem_machine::{execute_blocked, MachineConfig};

    #[test]
    fn interpreter_matches_native() {
        let p = program();
        let mut st = ArrayStore::for_program(&p, &[7]).unwrap();
        init_store(&mut st, 5);
        let mut native = st.clone();
        exec_program(&p, &[7], &mut st).unwrap();
        reference(&mut native, 7);
        assert_eq!(st.data("C").unwrap(), native.data("C").unwrap());
    }

    #[test]
    fn blocked_scratchpad_matches_native() {
        let p = program();
        let mut st = ArrayStore::for_program(&p, &[8]).unwrap();
        init_store(&mut st, 9);
        let mut native = st.clone();
        let k = table_kernel("matmul", &[4, 4, 4], false, true);
        let cfg = MachineConfig::geforce_8800_gtx();
        let stats = execute_blocked(&k, &[8], &mut st, &cfg, true).unwrap();
        reference(&mut native, 8);
        assert_eq!(st.data("C").unwrap(), native.data("C").unwrap());
        assert!(stats.smem_reads > 0);
    }

    #[test]
    fn all_arrays_are_staged_by_algorithm_1() {
        let p = program();
        let plan = analyze_program(
            &p,
            &SmemConfig {
                sample_params: vec![16],
                ..SmemConfig::default()
            },
        )
        .unwrap();
        // A, B and C all have rank-deficient accesses: three buffers.
        assert_eq!(plan.buffers.len(), 3);
        for (_, d) in &plan.decisions {
            assert!(d.beneficial);
            assert!(d.order_of_magnitude);
        }
    }

    #[test]
    fn hoisted_mapping_matches_native_and_saves_traffic() {
        let p = program();
        let n = 12i64;
        let mut base = ArrayStore::for_program(&p, &[n]).unwrap();
        init_store(&mut base, 31);
        let mut expected = base.clone();
        reference(&mut expected, n);
        let cfg = MachineConfig::geforce_8800_gtx();

        // The §4.2 mapping: kT sub-tiles run inside the block, A and B
        // re-stage per sub-tile, C (independent of k) is staged once.
        let mut st_h = base.clone();
        let hoisted = table_kernel("matmul", &[4, 4, 3], true, true);
        let sh = execute_blocked(&hoisted, &[n], &mut st_h, &cfg, true).unwrap();
        assert_eq!(st_h.data("C").unwrap(), expected.data("C").unwrap());

        // Exact traffic accounting for n = 12, (ti, tj, tk) = (4, 4, 3):
        // 9 blocks x 4 kT sub-tiles; per sub-tile A and B move 4*3 = 12
        // words each; C moves 16 in + 16 out ONCE per block thanks to
        // hoisting. Total in = 9*(4*24 + 16) = 1008; out = 9*16 = 144.
        assert_eq!(sh.moved_in, 1008, "C must not be re-staged per kT");
        assert_eq!(sh.moved_out, 144);

        // Whole-block staging moves the same elements but needs the
        // full A row / B column resident: footprint 4*12 + 12*4 + 16 =
        // 112 words vs the sub-tiled 12 + 12 + 16 = 40.
        let mut st_w = base.clone();
        let whole = table_kernel("matmul", &[4, 4, 12], false, true);
        let sw = execute_blocked(&whole, &[n], &mut st_w, &cfg, true).unwrap();
        assert_eq!(st_w.data("C").unwrap(), expected.data("C").unwrap());
        assert_eq!(sw.max_smem_words, 112);
        assert_eq!(sh.max_smem_words, 40);
    }

    #[test]
    fn c_buffer_hoists_past_k_tiles() {
        use polymem_core::smem::dataspace::collect_refs;
        use polymem_core::tiling::placement_level;
        let p = program();
        let c = p.array_index("C").unwrap();
        let refs = collect_refs(&p, c).unwrap();
        let members: Vec<&_> = refs.iter().collect();
        // Tiling loop order (iT, jT, kT) == access dims (i, j, k):
        // movement for C sits inside (iT, jT) only.
        assert_eq!(placement_level(&members, &[0, 1, 2]), 2);
    }
}
