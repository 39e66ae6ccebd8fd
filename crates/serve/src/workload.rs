//! The service's view of the built-in kernel table.
//!
//! Nothing here decides what a built-in launch is: the table and the
//! launch resolver live in [`polymem_kernels::builtins`], which the
//! `polymem` CLI reads too — that shared owner, not a mirrored copy, is
//! why a `run` request against the daemon computes bit-for-bit the
//! launch `polymem run <kernel> --size N` does. This module keeps the
//! names its callers import ([`KERNELS`], [`Workload`], [`resolve`])
//! as projections of that table, plus the result [`checksum`].

use polymem_core::smem::artifact::{fnv1a, FNV_OFFSET, FNV_PRIME};
use polymem_ir::Program;
use polymem_kernels::builtins::{launch, BUILTINS};
use polymem_machine::{BlockedKernel, LaunchToggles, MachineConfig};

/// The built-in kernel names the service accepts: the table's.
pub const KERNELS: [&str; BUILTINS.len()] = {
    let mut names = [""; BUILTINS.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = BUILTINS[i].name;
        i += 1;
    }
    names
};

/// A built-in launch without its machine configuration.
pub struct Workload {
    /// The whole-program IR (reference executions run this).
    pub program: Program,
    /// The canonical blocked mapping.
    pub kernel: BlockedKernel,
    /// Concrete parameter values for `size`.
    pub params: Vec<i64>,
    /// The output array whose contents define the result checksum.
    pub check: &'static str,
}

/// Resolve a built-in kernel at a problem size. `db` selects the
/// sequential-sub-tile variant that double buffering overlaps (the
/// CLI's `--double-buffer`). `None` for unknown names.
pub fn resolve(name: &str, size: i64, db: bool) -> Option<Workload> {
    let toggles = LaunchToggles {
        double_buffer: db,
        ..LaunchToggles::default()
    };
    // The mapping's shape does not depend on the machine.
    let l = launch(
        name,
        size,
        &MachineConfig::geforce_8800_gtx(),
        &toggles,
        false,
    )?;
    Some(Workload {
        program: l.program,
        kernel: l.kernel,
        params: l.params,
        check: l.check,
    })
}

/// FNV-1a over an array's words: the result fingerprint `run`
/// responses carry, comparable against a direct in-process execution.
pub fn checksum(data: &[i64]) -> u64 {
    data.iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(h, FNV_PRIME, &v.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clients compare these fingerprints across versions (the
    /// `benchmark/` crate against direct execution): standard 64-bit
    /// FNV-1a over the little-endian words.
    #[test]
    fn checksum_values_are_pinned() {
        assert_eq!(checksum(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(&[1, -2, 3]), 0xadf8_1e59_2c2c_f47e);
    }

    #[test]
    fn all_builtins_resolve_both_variants() {
        assert_eq!(KERNELS, ["me", "jacobi", "jacobi2d", "matmul", "conv2d"]);
        for name in KERNELS {
            for db in [false, true] {
                let w = resolve(name, 16, db).unwrap();
                assert!(!w.params.is_empty());
                assert!(w.program.arrays.iter().any(|a| a.name == w.check));
            }
        }
        assert!(resolve("nope", 16, false).is_none());
    }
}
