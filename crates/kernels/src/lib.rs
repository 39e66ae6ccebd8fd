//! Kernel specifications used in the paper's evaluation, plus extras.
//!
//! Each kernel module provides:
//!
//! * the affine **program** (built with the IR builder, matching the
//!   paper's loop structure — e.g. [`me`] reproduces Fig. 2);
//! * a **native reference implementation** (plain Rust loops) used to
//!   validate the polyhedral interpreter and the simulator;
//! * a **mapped kernel** builder (tiled + block/round dims) for the
//!   functional executor;
//! * an **analytic profile** builder that derives the
//!   [`KernelProfile`](polymem_machine::KernelProfile) for a given
//!   problem size / tile sizes / launch configuration from the
//!   compiler's own footprint and movement analysis — this is what the
//!   figure-reproduction benches evaluate.
//!
//! Modules: [`me`] (MPEG-4 motion estimation, Fig. 2), [`jacobi`]
//! (1-D Jacobi with concurrent-start time tiling), [`matmul`] and
//! [`jacobi2d`] (extra workloads for examples and tests).

pub mod builtins;
pub mod conv2d;
pub mod jacobi;
pub mod jacobi2d;
pub mod matmul;
pub mod me;
pub mod tunespace;

/// Deterministic pseudo-random fill values for workload arrays (xorshift).
pub(crate) fn synth_value(seed: u64, idx: &[i64]) -> i64 {
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    for &i in idx {
        x ^= (i as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
    }
    // Keep values small so i64 accumulations cannot overflow.
    (x % 256) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_values_are_deterministic_and_bounded() {
        let a = synth_value(1, &[3, 4]);
        let b = synth_value(1, &[3, 4]);
        assert_eq!(a, b);
        assert_ne!(synth_value(1, &[3, 4]), synth_value(2, &[3, 4]));
        for i in 0..100 {
            let v = synth_value(7, &[i, i * 3]);
            assert!((0..256).contains(&v));
        }
    }
}
