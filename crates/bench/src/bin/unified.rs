//! Unified engine harness: compiled execution × register-tile
//! hierarchy.
//!
//! Before this harness existed the two tentpoles did not compose: a
//! hierarchy plan made `machine::compiled` decline the block and the
//! whole compute phase silently dropped to the per-point interpreter.
//! This binary pins the fix. It runs the five built-in kernels on the
//! GPU and Cell machine models in three modes —
//!
//! * **unified**: compiled engine *and* register-tile hierarchy on,
//! * **compiled-only**: hierarchy off,
//! * **hier-only**: compiled execution off (interpreter owns the
//!   hierarchy plan),
//!
//! — and checks, per kernel and machine:
//!
//! * outputs are bit-exact against the reference interpreter in every
//!   mode;
//! * the unified mode really ran compiled: `compiled_blocks > 0` (the
//!   engine is total now — a block it cannot run is a launch error,
//!   so the silent drop cannot come back as a fallback);
//! * unified stats equal hier-only stats counter for counter (engine
//!   attribution aside): same scratchpad traffic, same
//!   `smem_loads_saved` / `reg_bytes_moved` / `hier_groups`, same
//!   modeled cycles — so the BENCH_hier traffic numbers carry over
//!   unchanged;
//! * on matmul and ME (the kernels whose inner-process reuse the
//!   paper's recursion argument centres on), unified modeled time is
//!   no worse than the better of the two single-tentpole modes.
//!
//! All gated quantities are deterministic counters, so the gates hold
//! on noisy CI runners; wall clock is informational only.
//!
//! ```sh
//! cargo run --release -p polymem-bench --bin unified            # full
//! cargo run --release -p polymem-bench --bin unified -- --smoke # CI
//! ```
//!
//! `POLYMEM_EXEC_CHECK=1` additionally runs the reference interpreter
//! as an oracle beside every compiled block — including hierarchy
//! blocks — and panics on divergence; the CI job sets it.
//!
//! Writes `BENCH_unified.json` and exits non-zero on any failure.

use polymem_bench::harness::{conclude, seq_cases, smoke_mode, sweep};
use polymem_machine::{ExecStats, Json, MachineConfig};

type Mode = (&'static str, fn(&mut MachineConfig));

/// Execution modes under comparison, in report order.
const MODES: [Mode; 3] = [
    ("unified", |c| (c.compiled_exec, c.hierarchy) = (true, true)),
    ("compiled_only", |c| {
        (c.compiled_exec, c.hierarchy) = (true, false)
    }),
    ("hier_only", |c| {
        (c.compiled_exec, c.hierarchy) = (false, true)
    }),
];

fn smem_traffic(s: &ExecStats) -> u64 {
    s.smem_reads + s.smem_writes
}

fn main() {
    let smoke = smoke_mode();
    let mode = if smoke { "smoke" } else { "full" };
    let check = std::env::var("POLYMEM_EXEC_CHECK").is_ok_and(|v| v == "1");

    println!(
        "unified engine harness ({mode} mode{})\n",
        if check { ", oracle cross-check on" } else { "" }
    );
    let cases = seq_cases(smoke);
    let machines = [
        ("gpu", MachineConfig::geforce_8800_gtx()),
        ("cell", MachineConfig::cell_like()),
    ];

    let mut failures = Vec::new();
    let mut runs = Vec::new();
    for cell in sweep(&cases, &machines, &MODES, 3) {
        let [u, c, h] = &cell.stats[..] else {
            unreachable!("three modes")
        };
        let at = format!("{}[{}]", cell.kernel, cell.machine);
        println!(
            "{:<9} [{:<4}] modeled {:>10} (compiled-only {:>10}, hier-only {:>10})  \
             blocks {:>4}c/{}i  smem {:>8}  bit-exact: {}",
            cell.kernel,
            cell.machine,
            u.modeled_cycles,
            c.modeled_cycles,
            h.modeled_cycles,
            u.compiled_blocks,
            u.interpreted_blocks,
            smem_traffic(u),
            if cell.bit_exact { "yes" } else { "NO" },
        );
        // Every mode bit-exact against the reference.
        if !cell.bit_exact {
            failures.push(format!("{at}: output mismatch"));
        }
        // The unified mode really composed the tentpoles: the
        // compiled engine ran the compute phases with the register
        // level active.
        if u.compiled_blocks == 0 {
            failures.push(format!("{at}: unified mode ran no compiled blocks"));
        }
        // Counter-for-counter parity with the interpreter on the
        // same plan: the scratchpad-traffic numbers BENCH_hier
        // gates carry over unchanged.
        if u != h {
            failures.push(format!("{at}: unified stats diverge from hier-only"));
        }
        // The composition gate: where the register level helps (matmul,
        // ME), running it *through the compiled engine* must model no
        // worse than the better single-tentpole mode.
        let best_single = c.modeled_cycles.min(h.modeled_cycles);
        if ["matmul", "me"].contains(&cell.kernel) && u.modeled_cycles > best_single {
            failures.push(format!(
                "{at}: unified modeled {} exceeds best single-tentpole {best_single}",
                u.modeled_cycles
            ));
        }
        runs.push(cell.to_json([
            ("smem_traffic_unified", smem_traffic(u).into()),
            ("smem_traffic_compiled_only", smem_traffic(c).into()),
            ("smem_traffic_hier_only", smem_traffic(h).into()),
        ]));
    }

    let body = Json::obj([("runs", runs.into())]);
    conclude("unified", smoke, body, &failures);
}
