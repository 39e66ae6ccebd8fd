//! Compiled-execution harness.
//!
//! Runs the five built-in kernels on the GPU and Cell machine models
//! with the compiled block execution engine off (per-point
//! interpreter) and on (bytecode bodies + strided address streams),
//! then
//!
//! * verifies outputs are bit-exact against the reference interpreter
//!   and between the two engines, and that every deterministic
//!   counter matches (`ExecStats` equality ignores only wall-clock
//!   compute time);
//! * measures the compute-phase wall time (`ExecStats::compute_ns`,
//!   best of three runs) in both modes;
//! * in full mode, asserts the compiled engine speeds up the compute
//!   phase by at least 5x on matmul and jacobi2d, the two kernels
//!   whose compute phases dominate; smoke mode (CI) reports the
//!   speedups without gating them, since the tiny smoke sizes are
//!   timer-granularity bound;
//! * writes `BENCH_exec.json` with the per-kernel numbers.
//!
//! ```sh
//! cargo run --release -p polymem-bench --bin exec            # full
//! cargo run --release -p polymem-bench --bin exec -- --smoke # CI
//! ```
//!
//! `POLYMEM_EXEC_CHECK=1` additionally runs the interpreter as an
//! oracle beside every compiled block (outside the timed window) and
//! panics on any divergence — the CI job sets it.
//!
//! Exits non-zero on any check failure.

use polymem_bench::harness::{conclude, seq_cases, smoke_mode, sweep, Cell};
use polymem_machine::{Json, MachineConfig};

/// Compute-phase speedup: interpreted over compiled best-of-three
/// compute time.
fn speedup(c: &Cell) -> f64 {
    c.stats[0].compute_ns as f64 / c.stats[1].compute_ns.max(1) as f64
}

fn main() {
    let smoke = smoke_mode();
    let mode = if smoke { "smoke" } else { "full" };
    let target = 5.0;
    let check = std::env::var("POLYMEM_EXEC_CHECK").is_ok_and(|v| v == "1");

    println!(
        "compiled-execution harness ({mode} mode{})\n",
        if check { ", oracle cross-check on" } else { "" }
    );
    let cases = seq_cases(smoke);
    let machines = [
        ("gpu", MachineConfig::geforce_8800_gtx()),
        ("cell", MachineConfig::cell_like()),
    ];
    let modes: [(_, fn(&mut MachineConfig)); 2] = [
        ("interp", |c| c.compiled_exec = false),
        ("compiled", |c| c.compiled_exec = true),
    ];

    let mut failures = Vec::new();
    let mut runs = Vec::new();
    for c in sweep(&cases, &machines, &modes, 3) {
        let (interp, compiled) = (&c.stats[0], &c.stats[1]);
        // `ExecStats` equality compares every deterministic counter
        // (instances, memory traffic, plan-cache hits, modeled cycles,
        // DMA) and ignores wall-clock compute time.
        let stats_equal = interp == compiled;
        println!(
            "{:<9} [{:<4}] compute {:>12} -> {:>12} ns ({:6.2}x)  instances {:>8}  bit-exact: {}  stats: {}",
            c.kernel,
            c.machine,
            interp.compute_ns,
            compiled.compute_ns,
            speedup(&c),
            compiled.instances,
            if c.bit_exact { "yes" } else { "NO" },
            if stats_equal { "equal" } else { "DIFFER" },
        );
        // Both engines bit-exact against the reference, identical
        // counters, on every kernel and both machines.
        if !c.bit_exact {
            failures.push(format!("{}[{}]: output mismatch", c.kernel, c.machine));
        }
        if !stats_equal {
            failures.push(format!("{}[{}]: counter mismatch", c.kernel, c.machine));
        }
        // The speedup gate: compute-phase-dominated kernels must get at
        // least `target`x from the compiled engine. Full mode only —
        // smoke sizes finish in microseconds and measure the timer.
        if !smoke && ["matmul", "jacobi2d"].contains(&c.kernel) && speedup(&c) < target {
            failures.push(format!(
                "{}[{}]: compute speedup {:.2}x below {target}x",
                c.kernel,
                c.machine,
                speedup(&c)
            ));
        }
        runs.push(c.to_json([
            ("stats_equal", stats_equal.into()),
            ("speedup", Json::fixed(speedup(&c), 2)),
        ]));
    }

    let body = Json::obj([("runs", runs.into()), ("speedup_target", target.into())]);
    conclude("exec", smoke, body, &failures);
}
