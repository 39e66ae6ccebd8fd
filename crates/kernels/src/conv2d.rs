//! 2-D convolution with a small coefficient kernel — an extension
//! workload with the same memory character as ME (windowed reads with
//! heavy overlap) plus a second, tiny staged array (the coefficient
//! kernel, which Algorithm 1 stages because of its order-of-magnitude
//! reuse).
//!
//! ```text
//! for i = 0, N-1; for j = 0, N-1
//!   for k = 0, K-1; for l = 0, K-1
//!     Out[i][j] += In[i+k][j+l] * W[k][l]
//! ```

use crate::synth_value;
use polymem_ir::expr::v;
use polymem_ir::{ArrayStore, Expr, LinExpr, Program, ProgramBuilder};
use polymem_machine::{KernelProfile, MachineConfig};

/// Problem instance: `n × n` outputs, `k × k` kernel.
#[derive(Clone, Copy, Debug)]
pub struct ConvSize {
    /// Output extent per dimension.
    pub n: i64,
    /// Kernel extent per dimension.
    pub k: i64,
}

/// Build the program.
pub fn program() -> Program {
    let mut b = ProgramBuilder::new("conv2d", ["N", "K"]);
    b.array("In", &[v("N") + v("K"), v("N") + v("K")]);
    b.array("W", &[v("K"), v("K")]);
    b.array("Out", &[v("N"), v("N")]);
    b.stmt("S")
        .loops(&[
            ("i", LinExpr::c(0), v("N") - 1),
            ("j", LinExpr::c(0), v("N") - 1),
            ("k", LinExpr::c(0), v("K") - 1),
            ("l", LinExpr::c(0), v("K") - 1),
        ])
        .write("Out", &[v("i"), v("j")])
        .read("Out", &[v("i"), v("j")])
        .read("In", &[v("i") + v("k"), v("j") + v("l")])
        .read("W", &[v("k"), v("l")])
        .body(Expr::add(
            Expr::Read(0),
            Expr::mul(Expr::Read(1), Expr::Read(2)),
        ))
        .done();
    b.build().expect("conv2d is well-formed")
}

/// Parameter vector for [`program`].
pub fn params(size: &ConvSize) -> Vec<i64> {
    vec![size.n, size.k]
}

/// Deterministic inputs.
pub fn init_store(store: &mut ArrayStore, seed: u64) {
    store
        .fill_with("In", |ix| synth_value(seed, ix))
        .expect("In exists");
    store
        .fill_with("W", |ix| synth_value(seed ^ 0x55, ix) % 8)
        .expect("W exists");
}

/// Native reference implementation.
pub fn reference(store: &mut ArrayStore, size: &ConvSize) {
    let (n, k) = (size.n as usize, size.k as usize);
    let row = n + k;
    let input = store.data("In").expect("In").to_vec();
    let w = store.data("W").expect("W").to_vec();
    let out = store.data_mut("Out").expect("Out");
    for i in 0..n {
        for j in 0..n {
            let mut acc = out[i * n + j];
            for kk in 0..k {
                for ll in 0..k {
                    acc += input[(i + kk) * row + j + ll] * w[kk * k + ll];
                }
            }
            out[i * n + j] = acc;
        }
    }
}

/// Analytic profile (used by the extension experiment in
/// EXPERIMENTS.md): same structure as ME's, with the extra `W` stage.
pub fn profile(
    size: &ConvSize,
    tiles: (i64, i64),
    n_blocks: u64,
    threads: u64,
    use_scratchpad: bool,
    machine: &MachineConfig,
) -> KernelProfile {
    let (ti, tj) = tiles;
    let instances = (size.n * size.n * size.k * size.k) as u64;
    if !use_scratchpad {
        return KernelProfile {
            n_blocks,
            threads_per_block: threads,
            instances,
            ops_per_instance: 2,
            global_accesses_per_instance: 2, // In + W (Out in register)
            ..KernelProfile::default()
        };
    }
    let halo = size.k - 1;
    let in_tile = ((ti + halo) * (tj + halo)) as u64;
    let w_tile = (size.k * size.k) as u64;
    let out_tile = (ti * tj) as u64;
    let words = in_tile + w_tile + out_tile;
    let tiles_total = (size.n as u64).div_ceil(ti as u64) * (size.n as u64).div_ceil(tj as u64);
    KernelProfile {
        n_blocks,
        threads_per_block: threads,
        instances,
        ops_per_instance: 2,
        global_accesses_per_instance: 0,
        smem_accesses_per_instance: 3,
        movement_occurrences_per_block: tiles_total.div_ceil(n_blocks),
        movement_volume_per_occurrence: in_tile + w_tile + 2 * out_tile,
        smem_bytes_per_block: words * machine.word_bytes,
        device_syncs: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_kernel;
    use polymem_core::smem::{analyze_program, SmemConfig};
    use polymem_ir::exec_program;
    use polymem_machine::execute_blocked;

    fn small() -> ConvSize {
        ConvSize { n: 7, k: 3 }
    }

    #[test]
    fn interpreter_matches_native() {
        let s = small();
        let p = program();
        let mut st = ArrayStore::for_program(&p, &params(&s)).unwrap();
        init_store(&mut st, 8);
        let mut native = st.clone();
        exec_program(&p, &params(&s), &mut st).unwrap();
        reference(&mut native, &s);
        assert_eq!(st.data("Out").unwrap(), native.data("Out").unwrap());
    }

    #[test]
    fn staged_execution_matches_native() {
        let s = small();
        let p = program();
        let mut st = ArrayStore::for_program(&p, &params(&s)).unwrap();
        init_store(&mut st, 9);
        let mut native = st.clone();
        let cfg = MachineConfig::geforce_8800_gtx();
        let stats = execute_blocked(
            &table_kernel("conv2d", &[3, 3], false, true),
            &params(&s),
            &mut st,
            &cfg,
            true,
        )
        .unwrap();
        reference(&mut native, &s);
        assert_eq!(st.data("Out").unwrap(), native.data("Out").unwrap());
        assert!(stats.moved_in > 0);
    }

    #[test]
    fn coefficient_kernel_is_staged_by_rank_test() {
        // W[k][l] in a 4-deep nest: rank 2 < 4 — Algorithm 1 stages it.
        let p = program();
        let plan = analyze_program(
            &p,
            &SmemConfig {
                sample_params: vec![16, 3],
                ..SmemConfig::default()
            },
        )
        .unwrap();
        let w = p.array_index("W").unwrap();
        assert!(
            plan.buffers.iter().any(|b| b.array == w),
            "W must be staged"
        );
        // All three arrays have rank-deficient accesses here.
        assert!(plan.decisions.iter().all(|(_, d)| d.order_of_magnitude));
    }

    #[test]
    fn staged_profile_beats_dram() {
        let cfg = MachineConfig::geforce_8800_gtx();
        let s = ConvSize { n: 2048, k: 5 };
        let smem = profile(&s, (32, 32), 64, 256, true, &cfg)
            .estimate(&cfg)
            .unwrap()
            .total_ms;
        let dram = profile(&s, (32, 32), 64, 256, false, &cfg)
            .estimate(&cfg)
            .unwrap()
            .total_ms;
        assert!(smem * 2.0 < dram, "{smem} vs {dram}");
    }
}
