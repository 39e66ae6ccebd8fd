//! Shared machinery for the `BENCH_*.json` harness binaries
//! (`polycore`, `dma`, `exec`, `hier`, …).
//!
//! Each binary benches the five built-in kernels on the machine
//! models, checks outputs against the reference interpreter, gates on
//! a bench-specific quantity, writes a JSON report and exits non-zero
//! on any failure. The case bookkeeping, the kernel × machine ×
//! toggle-mode loop ([`sweep`]: best-of-N runs, bit-exactness against
//! the reference, full [`ExecStats`] per mode) and the report ritual
//! ([`conclude`]: one envelope, one writer) are identical across them
//! and live here; each binary keeps only its own problem sizes, tiles,
//! mode table, derived ratios, printed row and gates — program,
//! initialiser and checked array come from the built-in kernel table,
//! counter names from [`ExecStats::to_json`].

use polymem_ir::{exec_program, ArrayStore, Program};
use polymem_kernels::builtins::Builtin;
use polymem_kernels::{conv2d, jacobi, jacobi2d, matmul, me};
use polymem_machine::{
    execute_blocked, BlockedKernel, ExecStats, Json, MachineConfig, STATS_SCHEMA,
};

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

    /// The checked output array after the reference interpreter ran
    /// on a clone of the base store.
    fn reference_output(&self) -> Vec<i64> {
        let mut st = self.base.clone();
        exec_program(&self.program, &self.params, &mut st).expect("reference interpreter");
        st.data(self.check).expect("reference output").to_vec()
    }
}

/// One kernel × machine cell of a [`sweep`].
pub struct Cell {
    /// Kernel name ([`Case::name`]).
    pub kernel: &'static str,
    /// Machine label as passed to [`sweep`].
    pub machine: &'static str,
    /// The machine's element size, for byte-denominated ratios.
    pub word_bytes: u64,
    /// Per mode, in mode-table order: the stats of the run with the
    /// least compute time — so `compute_ns` is the best-of-N figure.
    pub stats: Vec<ExecStats>,
    /// Every mode's checked output equals the reference interpreter's.
    pub bit_exact: bool,
    labels: Vec<&'static str>,
}

impl Cell {
    /// The report row: `kernel`, `machine`, `bit_exact`, the full
    /// stats of each mode under `modes.<label>`, then the binary's
    /// `derived` quantities.
    pub fn to_json(&self, derived: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        let modes = self.labels.iter().zip(&self.stats);
        let mut row = vec![
            ("kernel", self.kernel.into()),
            ("machine", self.machine.into()),
            ("bit_exact", self.bit_exact.into()),
            ("modes", Json::obj(modes.map(|(l, s)| (*l, s.to_json())))),
        ];
        row.extend(derived);
        Json::obj(row)
    }
}

/// The loop every toggle harness shares: each case on each machine
/// under each mode — a label plus what it sets on a clone of the
/// machine's configuration — executed sequentially `reps` times from a
/// fresh clone of the inputs, keeping the run with the least compute
/// time and comparing its output with the reference interpreter's.
/// Cells are produced lazily, in case-major order, so a harness prints
/// each row as it completes.
pub fn sweep<'a, F: Fn(&mut MachineConfig)>(
    cases: &'a [Case],
    machines: &'a [(&'static str, MachineConfig)],
    modes: &'a [(&'static str, F)],
    reps: usize,
) -> impl Iterator<Item = Cell> + 'a {
    cases.iter().flat_map(move |case| {
        let reference = case.reference_output();
        machines.iter().map(move |(machine, base)| {
            let mut bit_exact = true;
            let stats = modes
                .iter()
                .map(|(_, apply)| {
                    let mut config = base.clone();
                    apply(&mut config);
                    let (_, (stats, store)) = best_of(reps, || {
                        let mut store = case.base.clone();
                        let stats =
                            execute_blocked(&case.kernel, &case.params, &mut store, &config, false)
                                .expect("execution succeeds");
                        (stats.compute_ns as f64, (stats, store))
                    });
                    bit_exact &= store.data(case.check).expect("output") == reference;
                    stats
                })
                .collect();
            Cell {
                kernel: case.name,
                machine,
                word_bytes: base.word_bytes,
                stats,
                bit_exact,
                labels: modes.iter().map(|(label, _)| *label).collect(),
            }
        })
    })
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

/// Write `BENCH_<bench>.json` — the envelope every report shares
/// (`bench`, `schema`, `mode`, `pass`) followed by the fields of
/// `body` — print the failures, and exit: zero iff there were none.
pub fn conclude(bench: &str, smoke: bool, body: Json, failures: &[String]) -> ! {
    let Json::Obj(body) = body else {
        panic!("a report body is an object");
    };
    let pass = failures.is_empty();
    let mode = if smoke { "smoke" } else { "full" };
    let mut report: Vec<(String, Json)> = [
        ("bench", Json::from(bench)),
        ("schema", STATS_SCHEMA.into()),
        ("mode", mode.into()),
        ("pass", pass.into()),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .into();
    report.extend(body);
    let path = format!("BENCH_{bench}.json");
    std::fs::write(&path, Json::Obj(report).pretty())
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    for f in failures {
        eprintln!("FAILED: {f}");
    }
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
    fn sweep_runs_every_mode_and_rows_carry_full_stats() {
        let cases: Vec<Case> = seq_cases(true)
            .into_iter()
            .filter(|c| c.name == "matmul")
            .collect();
        let modes: [(_, fn(&mut MachineConfig)); 2] = [
            ("off", |c| c.hierarchy = false),
            ("on", |c| c.hierarchy = true),
        ];
        let gpu = [("gpu", MachineConfig::geforce_8800_gtx())];
        let cells: Vec<Cell> = sweep(&cases, &gpu, &modes, 1).collect();
        let [cell] = &cells[..] else {
            panic!("one case on one machine is one cell");
        };
        assert!(cell.bit_exact);
        let [off, on] = &cell.stats[..] else {
            panic!("one stats block per mode");
        };
        assert_eq!((off.hier_groups, on.hier_groups > 0), (0, true));
        let row = cell.to_json([("extra", 7u64.into())]);
        assert_eq!(row.get("kernel").and_then(Json::as_str), Some("matmul"));
        let on_json = row.get("modes").and_then(|m| m.get("on")).expect("mode");
        assert_eq!(on_json, &on.to_json());
        assert_eq!(row.get("extra").and_then(Json::as_i64), Some(7));
        assert_eq!(Json::parse(&row.pretty()), Some(row));
    }
}
