//! Unified engine harness: compiled execution × register-tile
//! hierarchy, plus the vector-width ablation.
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
//! * the unified mode really ran compiled: `compiled_blocks > 0`,
//!   `interpreted_blocks == 0`, zero fallback counts — the silent
//!   drop stays fixed;
//! * unified stats equal hier-only stats counter for counter (engine
//!   attribution aside): same scratchpad traffic, same
//!   `smem_loads_saved` / `reg_bytes_moved` / `hier_groups`, same
//!   modeled cycles — so the BENCH_hier traffic numbers carry over
//!   unchanged;
//! * on matmul and ME (the kernels whose inner-process reuse the
//!   paper's recursion argument centres on), unified modeled time is
//!   no worse than the better of the two single-tentpole modes.
//!
//! A second sweep ablates [`MachineConfig::vector_width`] over
//! 1/2/4/8 in unified mode on the GPU model: modeled cycles must be
//! bit-identical at every width (batching is a pure execution
//! strategy), wall times are reported for the record. All gated
//! quantities are deterministic counters, so the gates hold on noisy
//! CI runners; wall clock is informational only.
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

/// The vector-width ablation: each width, on a machine already in
/// unified mode.
const WIDTHS: [Mode; 4] = [
    ("w1", |c| c.vector_width = 1),
    ("w2", |c| c.vector_width = 2),
    ("w4", |c| c.vector_width = 4),
    ("w8", |c| c.vector_width = 8),
];

fn smem_traffic(s: &ExecStats) -> u64 {
    s.smem_reads + s.smem_writes
}

/// Best-of-3 compute-phase time, milliseconds.
fn ms(s: &ExecStats) -> f64 {
    s.compute_ns as f64 / 1e6
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
        // compiled engine owned every compute phase even with the
        // register level active.
        if u.compiled_blocks == 0 || u.interpreted_blocks != 0 {
            failures.push(format!(
                "{at}: unified mode fell back ({} compiled / {} interpreted blocks)",
                u.compiled_blocks, u.interpreted_blocks
            ));
        }
        if u.fallback.total() != 0 {
            failures.push(format!(
                "{at}: unified mode recorded {} interpreter fallbacks",
                u.fallback.total()
            ));
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

    println!();
    let mut ablations = Vec::new();
    let mut unified_gpu = machines[0].clone();
    (MODES[0].1)(&mut unified_gpu.1);
    for cell in sweep(&cases, &[unified_gpu], &WIDTHS, 3) {
        let pts: Vec<String> = WIDTHS
            .iter()
            .zip(&cell.stats)
            .map(|((w, _), s)| format!("{w} {:7.3} ms", ms(s)))
            .collect();
        println!("{:<9} [gpu ] ablation: {}", cell.kernel, pts.join("  "));
        // Batching is a pure execution strategy: modeled cycles must be
        // bit-identical at every vector width.
        let c0 = cell.stats[0].modeled_cycles;
        if cell.stats.iter().any(|s| s.modeled_cycles != c0) {
            failures.push(format!(
                "{}: modeled cycles vary across vector widths",
                cell.kernel
            ));
        }
        ablations.push(cell.to_json([]));
    }

    let body = Json::obj([
        ("runs", runs.into()),
        ("vector_width_ablation", ablations.into()),
    ]);
    conclude("unified", smoke, body, &failures);
}
