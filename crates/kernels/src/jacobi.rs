//! 1-D Jacobi with time tiling and concurrent start.
//!
//! The kernel:
//!
//! ```text
//! for t = 1, T
//!   for i = 1, N
//!     A[t][i] = (A[t-1][i-1] + A[t-1][i] + A[t-1][i+1]) / 3
//! ```
//!
//! Unlike ME, the time loop carries dependences across space tiles, so
//! thread blocks must synchronise. The paper time-tiles the kernel
//! using the concurrent-start transformation of Krishnamoorthy et al.
//! (PLDI'07); polymem implements the **overlapped-tile** variant: each
//! block redundantly recomputes a halo that grows one cell per time
//! step toward earlier rows, so that within one time tile no block
//! reads another block's fresh values — inter-block synchronisation is
//! needed only *between* time tiles. The overlapped domain is affine
//! and built with ordinary guards, so the whole compiler pipeline
//! applies unchanged.
//!
//! Figure reproduction: Fig. 5 sweeps problem size (8k–512k, T = 4096,
//! time tile 32, 64 threads); Fig. 7 sweeps thread blocks for
//! scratchpad-resident sizes; Fig. 8 sweeps (time, space) tile sizes
//! under the paper's per-block limit `M_up = 2^9` words, where the
//! §4.3 search picks space 256 / time 32.

use crate::synth_value;
use polymem_ir::expr::v;
use polymem_ir::{ArrayStore, Expr, LinExpr, Program, ProgramBuilder};
use polymem_machine::{BlockedKernel, KernelProfile, MachineConfig};

/// Problem instance.
#[derive(Clone, Copy, Debug)]
pub struct JacobiSize {
    /// Space points.
    pub n: i64,
    /// Time iterations (paper: 4096).
    pub t: i64,
}

/// Build the plain (unskewed) program; array `A[T+1][N+2]` keeps every
/// time row so transformations can be validated bit-exactly.
pub fn program() -> Program {
    let mut b = ProgramBuilder::new("jacobi1d", ["T", "N"]);
    b.array("A", &[v("T") + 1, v("N") + 2]);
    b.stmt("S")
        .loops(&[("t", LinExpr::c(1), v("T")), ("i", LinExpr::c(1), v("N"))])
        .write("A", &[v("t"), v("i")])
        .read("A", &[v("t") - 1, v("i") - 1])
        .read("A", &[v("t") - 1, v("i")])
        .read("A", &[v("t") - 1, v("i") + 1])
        .body(Expr::div(
            Expr::add(Expr::add(Expr::Read(0), Expr::Read(1)), Expr::Read(2)),
            Expr::Const(3),
        ))
        .done();
    b.build().expect("jacobi program is well-formed")
}

/// The concurrent-start (skewed) version: `s = 2t + i`, making every
/// dependence component non-negative so the (t, s) band is tilable.
pub fn skewed_program() -> Program {
    let mut b = ProgramBuilder::new("jacobi1d_skewed", ["T", "N"]);
    b.array("A", &[v("T") + 1, v("N") + 2]);
    let unskew = |t: LinExpr, s: LinExpr| -> Vec<LinExpr> { vec![t.clone(), s - t * 2] };
    b.stmt("S")
        .loops(&[
            ("t", LinExpr::c(1), v("T")),
            ("s", v("t") * 2 + 1, v("t") * 2 + v("N")),
        ])
        // With s = 2t + i, the stencil reads (t-1, i-1), (t-1, i),
        // (t-1, i+1) sit at skewed coordinates s-3, s-2, s-1.
        .write("A", &unskew(v("t"), v("s")))
        .read("A", &unskew(v("t") - 1, v("s") - 3))
        .read("A", &unskew(v("t") - 1, v("s") - 2))
        .read("A", &unskew(v("t") - 1, v("s") - 1))
        .body(Expr::div(
            Expr::add(Expr::add(Expr::Read(0), Expr::Read(1)), Expr::Read(2)),
            Expr::Const(3),
        ))
        .done();
    b.build().expect("skewed jacobi is well-formed")
}

/// Parameter vector for the programs.
pub fn params(size: &JacobiSize) -> Vec<i64> {
    vec![size.t, size.n]
}

/// Deterministic initial condition on row 0 (boundaries stay zero).
pub fn init_store(store: &mut ArrayStore, seed: u64) {
    store
        .fill_with("A", |ix| {
            if ix[0] == 0 {
                synth_value(seed, &ix[1..])
            } else {
                0
            }
        })
        .expect("A exists");
}

/// Native reference implementation.
pub fn reference(store: &mut ArrayStore, size: &JacobiSize) {
    let (t_max, n) = (size.t, size.n);
    let row = (n + 2) as usize;
    let a = store.data_mut("A").expect("A");
    for t in 1..=t_max as usize {
        for i in 1..=n as usize {
            a[t * row + i] =
                (a[(t - 1) * row + i - 1] + a[(t - 1) * row + i] + a[(t - 1) * row + i + 1]) / 3;
        }
    }
}

/// The time-tiled **overlapped** mapping: rounds are time tiles of
/// `tt` steps; each block owns a base region of `si` cells and
/// redundantly recomputes a halo growing one cell per remaining time
/// step on each side, so all intra-tile reads are block-local or from
/// the previous round.
pub fn overlapped_kernel(tt: i64, si: i64, use_scratchpad: bool) -> BlockedKernel {
    assert!(tt >= 1 && si >= 1);
    let mut b = ProgramBuilder::new("jacobi1d_overlapped", ["T", "N"]);
    b.array("A", &[v("T") + 1, v("N") + 2]);
    // Dims: (tT, iT, t, i). Guards define the overlapped trapezoid.
    // t_top = tT*tt + tt (last row of the time tile).
    let t_top = v("tT") * tt + tt;
    b.stmt("S")
        .loops(&[
            ("tT", LinExpr::c(0), (v("T") - 1) * 1), // tightened by guards
            ("iT", LinExpr::c(0), v("N") - 1),       // tightened by guards
            ("t", LinExpr::c(1), v("T")),
            ("i", LinExpr::c(1), v("N")),
        ])
        // Time-tile membership.
        .guard_le(v("tT") * tt + 1, v("t"))
        .guard_le(v("t"), t_top.clone())
        // Base region of block iT: [iT*si + 1, (iT+1)*si].
        .guard_le(v("iT") * si + 1, v("N")) // block has a base cell
        // Overlap: |i - base| <= t_top - t on each side.
        .guard_le(v("iT") * si + 1 - (t_top.clone() - v("t")), v("i"))
        .guard_le(v("i"), (v("iT") + 1) * si + (t_top - v("t")))
        .write("A", &[v("t"), v("i")])
        .read("A", &[v("t") - 1, v("i") - 1])
        .read("A", &[v("t") - 1, v("i")])
        .read("A", &[v("t") - 1, v("i") + 1])
        .body(Expr::div(
            Expr::add(Expr::add(Expr::Read(0), Expr::Read(1)), Expr::Read(2)),
            Expr::Const(3),
        ))
        .done();
    let p = b.build().expect("overlapped jacobi is well-formed");
    BlockedKernel {
        program: p,
        round_dims: vec!["tT".into()],
        block_dims: vec!["iT".into()],
        seq_dims: vec![],
        thread_dims: vec![],
        use_scratchpad,
    }
}

/// Analytic profile for scratchpad-resident sizes (Fig. 7 setup): the
/// whole problem fits in the device's total scratchpad; per round only
/// halos move, and every round ends with a device-wide barrier.
pub fn profile_resident(
    size: &JacobiSize,
    tt: i64,
    n_blocks: u64,
    threads: u64,
    machine: &MachineConfig,
) -> KernelProfile {
    let rounds = (size.t as u64).div_ceil(tt as u64);
    let chunk = (size.n as u64).div_ceil(n_blocks);
    // Redundant halo recomputation of overlapped tiles: ~tt extra
    // cells per side per round on top of tt*chunk base work.
    let base = size.t as u64 * size.n as u64;
    let redundant = rounds * n_blocks * (tt * tt) as u64;
    KernelProfile {
        n_blocks,
        threads_per_block: threads,
        instances: base + redundant,
        ops_per_instance: 3,
        global_accesses_per_instance: 0,
        smem_accesses_per_instance: 4,
        movement_occurrences_per_block: rounds,
        // Halo exchange: 2·tt cells in per side.
        movement_volume_per_occurrence: (4 * tt) as u64,
        smem_bytes_per_block: (chunk + 2 * tt as u64) * machine.word_bytes,
        device_syncs: rounds,
    }
}

/// Analytic profile for large (tiled) sizes (Fig. 5 / Fig. 8 setup):
/// per (time tile × space tile) occurrence the block stages
/// `si + 2·tt` cells (in-place skewed update buffer), computes the
/// overlapped trapezoid, writes `si` cells back.
pub fn profile_tiled(
    size: &JacobiSize,
    tt: i64,
    si: i64,
    n_blocks: u64,
    threads: u64,
    use_scratchpad: bool,
    machine: &MachineConfig,
) -> KernelProfile {
    let rounds = (size.t as u64).div_ceil(tt as u64);
    let base = size.t as u64 * size.n as u64;
    if !use_scratchpad {
        return KernelProfile {
            n_blocks,
            threads_per_block: threads,
            instances: base,
            ops_per_instance: 3,
            // Unit-stride neighbours coalesce: the 3 reads + 1 write
            // cost ~2 effective transactions per instance.
            global_accesses_per_instance: 2,
            device_syncs: size.t as u64, // sync every time step
            ..KernelProfile::default()
        };
    }
    let space_tiles = (size.n as u64).div_ceil(si as u64);
    let occurrences = rounds * space_tiles.div_ceil(n_blocks);
    let redundant = rounds * space_tiles * (tt * tt) as u64;
    KernelProfile {
        n_blocks,
        threads_per_block: threads,
        instances: base + redundant,
        ops_per_instance: 3,
        global_accesses_per_instance: 0,
        smem_accesses_per_instance: 4,
        movement_occurrences_per_block: occurrences,
        // si + 2tt in (expanded base row), si out (final row).
        movement_volume_per_occurrence: (2 * si + 2 * tt) as u64,
        smem_bytes_per_block: ((si + 2 * tt) as u64) * machine.word_bytes,
        device_syncs: rounds,
    }
}

/// CPU profile for the baseline series of Fig. 5.
///
/// A 1-D stencil streams through the cache: its whole working set per
/// sweep is two rows that stay L1/L2-resident, so the CPU run is
/// compute-bound (this matches the paper's modest ~15× CPU-vs-staged
/// gap for Jacobi, against the >100× gap for the compute-heavy ME).
pub fn profile_cpu(size: &JacobiSize) -> KernelProfile {
    KernelProfile {
        n_blocks: 1,
        threads_per_block: 1,
        instances: (size.t * size.n) as u64,
        // 2 adds + a division (the division costs extra on the CPU's
        // scalar pipeline).
        ops_per_instance: 4,
        global_accesses_per_instance: 0,
        ..KernelProfile::default()
    }
}

/// Search (time, space) tile sizes for the Fig. 8 setting by
/// minimising the *estimated execution time* under the paper's
/// per-block scratchpad limit `mem_limit_words` (the §4.3 movement
/// model extended with the redundant-computation term overlapped
/// tiling introduces — without it the movement-only objective is
/// monotone in the time-tile size and has no interior optimum).
pub fn search_tiles(
    size: &JacobiSize,
    n_blocks: u64,
    threads: u64,
    mem_limit_words: u64,
    machine: &MachineConfig,
) -> (i64, i64, f64) {
    let mut best = (0i64, 0i64, f64::INFINITY);
    for &tt in &[8i64, 16, 32, 64, 128] {
        for &si in &[32i64, 64, 128, 256, 512] {
            if (si + 2 * tt) as u64 > mem_limit_words {
                continue;
            }
            if tt > size.t || si > size.n {
                continue;
            }
            let p = profile_tiled(size, tt, si, n_blocks, threads, true, machine);
            let Ok(t) = p.estimate(machine) else { continue };
            if t.total_ms < best.2 {
                best = (tt, si, t.total_ms);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem_core::smem::tune::MappingDesc;
    use polymem_ir::exec_program;
    use polymem_machine::execute_blocked;

    fn small() -> JacobiSize {
        JacobiSize { n: 12, t: 6 }
    }

    fn run_kernel(k: &BlockedKernel, s: &JacobiSize, parallel: bool) -> ArrayStore {
        let p = program();
        let mut st = ArrayStore::for_program(&p, &params(s)).unwrap();
        init_store(&mut st, 11);
        let cfg = MachineConfig::geforce_8800_gtx();
        execute_blocked(k, &params(s), &mut st, &cfg, parallel).unwrap();
        st
    }

    fn reference_store(s: &JacobiSize) -> ArrayStore {
        let p = program();
        let mut st = ArrayStore::for_program(&p, &params(s)).unwrap();
        init_store(&mut st, 11);
        reference(&mut st, s);
        st
    }

    #[test]
    fn interpreter_matches_native() {
        let s = small();
        let p = program();
        let mut st = ArrayStore::for_program(&p, &params(&s)).unwrap();
        init_store(&mut st, 11);
        exec_program(&p, &params(&s), &mut st).unwrap();
        assert_eq!(
            st.data("A").unwrap(),
            reference_store(&s).data("A").unwrap()
        );
    }

    #[test]
    fn skewed_program_matches_native() {
        let s = small();
        let p = skewed_program();
        let mut st = ArrayStore::for_program(&p, &params(&s)).unwrap();
        init_store(&mut st, 11);
        exec_program(&p, &params(&s), &mut st).unwrap();
        assert_eq!(
            st.data("A").unwrap(),
            reference_store(&s).data("A").unwrap()
        );
    }

    #[test]
    fn stepwise_blocked_matches_native() {
        let s = small();
        let desc = MappingDesc {
            use_scratchpad: false,
            ..crate::tunespace::jacobi_stepwise(4)
        };
        let st = run_kernel(&crate::tunespace::build("jacobi", &desc).unwrap(), &s, true);
        assert_eq!(
            st.data("A").unwrap(),
            reference_store(&s).data("A").unwrap()
        );
    }

    #[test]
    fn overlapped_kernel_matches_native() {
        for (tt, si) in [(2, 4), (3, 5), (6, 12), (2, 3)] {
            let s = small();
            let st = run_kernel(&overlapped_kernel(tt, si, false), &s, false);
            assert_eq!(
                st.data("A").unwrap(),
                reference_store(&s).data("A").unwrap(),
                "tt={tt} si={si}"
            );
        }
    }

    #[test]
    fn overlapped_kernel_parallel_matches_sequential() {
        let s = JacobiSize { n: 17, t: 5 };
        let a = run_kernel(&overlapped_kernel(2, 4, false), &s, false);
        let b = run_kernel(&overlapped_kernel(2, 4, false), &s, true);
        assert_eq!(a.data("A").unwrap(), b.data("A").unwrap());
        assert_eq!(a.data("A").unwrap(), reference_store(&s).data("A").unwrap());
    }

    #[test]
    fn fig7_u_shape_in_thread_blocks() {
        // Resident sizes: execution time falls with more blocks, then
        // rises when device-sync cost dominates (paper Fig. 7).
        let cfg = MachineConfig::geforce_8800_gtx();
        let s = JacobiSize {
            n: 32 * 1024,
            t: 4096,
        };
        let times: Vec<f64> = [16u64, 64, 128, 1024]
            .iter()
            .map(|&b| {
                profile_resident(&s, 32, b, 64, &cfg)
                    .estimate(&cfg)
                    .unwrap()
                    .total_ms
            })
            .collect();
        assert!(times[1] < times[0], "{times:?}");
        assert!(times[3] > times[2], "{times:?}");
    }

    #[test]
    fn fig8_search_finds_paper_tiles() {
        let cfg = MachineConfig::geforce_8800_gtx();
        let s = JacobiSize {
            n: 512 * 1024,
            t: 4096,
        };
        let (tt, si, _) = search_tiles(&s, 128, 64, 512, &cfg);
        assert_eq!((tt, si), (32, 256), "expected the paper's (32, 256)");
    }

    #[test]
    fn scratchpad_beats_dram_only_profile() {
        let cfg = MachineConfig::geforce_8800_gtx();
        let s = JacobiSize {
            n: 256 * 1024,
            t: 4096,
        };
        let smem = profile_tiled(&s, 32, 256, 128, 64, true, &cfg)
            .estimate(&cfg)
            .unwrap()
            .total_ms;
        let dram = profile_tiled(&s, 32, 256, 128, 64, false, &cfg)
            .estimate(&cfg)
            .unwrap()
            .total_ms;
        assert!(smem * 3.0 < dram, "{smem} vs {dram}");
    }

    #[test]
    fn gpu_beats_cpu_profile() {
        let gpu = MachineConfig::geforce_8800_gtx();
        let cpu = MachineConfig::host_cpu();
        let s = JacobiSize {
            n: 64 * 1024,
            t: 4096,
        };
        let t_gpu = profile_tiled(&s, 32, 256, 128, 64, true, &gpu)
            .estimate(&gpu)
            .unwrap()
            .total_ms;
        let t_cpu = profile_cpu(&s).estimate_cpu(&cpu).total_ms;
        assert!(t_cpu > 5.0 * t_gpu, "{t_cpu} vs {t_gpu}");
    }
}
