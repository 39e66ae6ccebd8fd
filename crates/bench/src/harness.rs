//! Shared machinery for the `BENCH_*.json` harness binaries
//! (`polycore`, `dma`, `exec`, `hier`, …).
//!
//! Each binary benches the five built-in kernels on the machine
//! models, checks outputs against the reference interpreter, gates on
//! a bench-specific quantity, writes a JSON report and exits non-zero
//! on any failure. The case bookkeeping, best-of-N timing,
//! bit-exactness plumbing and report ritual are identical across them
//! and live here; each binary keeps only its own problem sizes, tiles,
//! measured quantities and gates — program, initialiser and checked
//! array come from the built-in kernel table.

use polymem_ir::{exec_program, ArrayStore, Program};
use polymem_kernels::builtins::Builtin;
use polymem_kernels::{conv2d, jacobi, jacobi2d, matmul, me};
use polymem_machine::BlockedKernel;

/// One benchable kernel: a program, its blocked mapping, concrete
/// parameters, an initialized input store and the output array to
/// check.
pub struct Case {
    /// Kernel name as printed and written to JSON.
    pub name: &'static str,
    /// The untiled source program (reference semantics).
    pub program: Program,
    /// The blocked mapping under test.
    pub kernel: BlockedKernel,
    /// Concrete structure parameters.
    pub params: Vec<i64>,
    /// Initialized input arrays; every run starts from a clone.
    pub base: ArrayStore,
    /// Name of the output array compared for bit-exactness.
    pub check: &'static str,
}

impl Case {
    /// The built-in kernel `name` at explicit parameter values (benches
    /// pick their own problem shapes, not `--size`'s), its inputs
    /// seeded with `seed`, under the mapping `kernel`.
    pub fn builtin(name: &str, params: Vec<i64>, seed: u64, kernel: BlockedKernel) -> Case {
        let b = Builtin::named(name).expect("built-in kernel");
        let program = (b.program)();
        let mut base = ArrayStore::for_program(&program, &params).expect("store");
        (b.init)(&mut base, seed);
        Case {
            name: b.name,
            program,
            kernel,
            params,
            base,
            check: b.check,
        }
    }

    /// Run the reference interpreter on a clone of the base store.
    pub fn reference(&self) -> ArrayStore {
        let mut st = self.base.clone();
        exec_program(&self.program, &self.params, &mut st).expect("reference interpreter");
        st
    }

    /// Whether `store`'s checked output equals the reference's.
    pub fn output_matches(&self, store: &ArrayStore, reference: &ArrayStore) -> bool {
        store.data(self.check).expect("output")
            == reference.data(self.check).expect("reference output")
    }
}

/// The five kernels in their sequential-sub-tile mappings, at the
/// sizes the `exec`, `hier` and `unified` harnesses share.
pub fn seq_cases(smoke: bool) -> Vec<Case> {
    let pick = |small: i64, full: i64| if smoke { small } else { full };
    let me_size = me::MeSize {
        ni: pick(16, 32),
        nj: pick(16, 32),
        ws: pick(2, 3),
    };
    let jacobi_size = jacobi::JacobiSize {
        n: pick(32, 256),
        t: pick(2, 4),
    };
    let conv_size = conv2d::ConvSize {
        n: pick(7, 23),
        k: 3,
    };
    let mm = pick(4, 8);
    vec![
        Case::builtin(
            "me",
            me::params(&me_size),
            7,
            me::blocked_seq_kernel(4, 4, true),
        ),
        Case::builtin(
            "jacobi",
            jacobi::params(&jacobi_size),
            8,
            jacobi::stepwise_kernel(16, true),
        ),
        Case::builtin(
            "jacobi2d",
            jacobi2d::params(pick(2, 4), pick(8, 32)),
            9,
            jacobi2d::stepwise_seq_kernel(4, pick(4, 8), true),
        ),
        Case::builtin(
            "matmul",
            vec![pick(8, 32)],
            10,
            matmul::blocked_kernel_hoisted(mm, mm, mm, true),
        ),
        Case::builtin(
            "conv2d",
            conv2d::params(&conv_size),
            11,
            conv2d::blocked_seq_kernel(3, pick(3, 5), true),
        ),
    ]
}

/// Run `run` `reps` times and keep the iteration with the smallest
/// measured value (first element of the returned pair). The payload of
/// the best iteration rides along, so timed runs can hand back stores
/// or stats without re-running.
pub fn best_of<T>(reps: usize, mut run: impl FnMut() -> (f64, T)) -> (f64, T) {
    assert!(reps > 0, "best_of needs at least one rep");
    let mut best = run();
    for _ in 1..reps {
        let cur = run();
        if cur.0 < best.0 {
            best = cur;
        }
    }
    best
}

/// Whether `--smoke` was passed (CI mode: tiny sizes, timing gates
/// reported but not asserted).
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// All strings the harnesses emit into JSON are static identifiers;
/// assert that rather than escaping.
pub fn json_escape_free(s: &str) -> &str {
    assert!(
        s.chars().all(|c| c != '"' && c != '\\' && !c.is_control()),
        "bench JSON strings must not need escaping: {s:?}"
    );
    s
}

/// Write the report, print the failures, and exit — zero iff there
/// were none. The caller embeds `failures.is_empty()` in the JSON as
/// its `pass` field before calling.
pub fn conclude(path: &str, json: &str, failures: &[String]) -> ! {
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    for f in failures {
        eprintln!("FAILED: {f}");
    }
    let pass = failures.is_empty();
    println!("\nwrote {path} (pass: {pass})");
    std::process::exit(if pass { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_keeps_minimum_and_its_payload() {
        let mut vals = [3.0, 1.0, 2.0].into_iter();
        let (t, tag) = best_of(3, || {
            let v = vals.next().unwrap();
            (v, v as i64 * 10)
        });
        assert_eq!(t, 1.0);
        assert_eq!(tag, 10);
    }

    #[test]
    #[should_panic(expected = "must not need escaping")]
    fn json_escape_free_rejects_quotes() {
        json_escape_free("a\"b");
    }
}
