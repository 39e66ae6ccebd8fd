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

use polymem_bench::harness::{best_of, conclude, json_escape_free, seq_cases, smoke_mode, Case};
use polymem_ir::ArrayStore;
use polymem_machine::{execute_blocked, ExecStats, MachineConfig};

struct ModeResult {
    stats: ExecStats,
    store: ArrayStore,
    /// Best-of-three compute-phase wall time.
    min_compute_ns: u64,
}

struct MachineResult {
    machine: &'static str,
    interp: ModeResult,
    compiled: ModeResult,
    bit_exact: bool,
    stats_equal: bool,
}

struct KernelResult {
    name: &'static str,
    machines: Vec<MachineResult>,
}

impl MachineResult {
    /// Compute-phase speedup: interpreted over compiled wall time.
    fn speedup(&self) -> f64 {
        self.interp.min_compute_ns as f64 / self.compiled.min_compute_ns.max(1) as f64
    }
}

fn run_mode(case: &Case, cfg: &MachineConfig, compiled: bool) -> ModeResult {
    let mut config = cfg.clone();
    config.compiled_exec = compiled;
    let (ns, (stats, store)) = best_of(3, || {
        let mut store = case.base.clone();
        let stats = execute_blocked(&case.kernel, &case.params, &mut store, &config, false)
            .expect("execution succeeds");
        (stats.compute_ns as f64, (stats, store))
    });
    ModeResult {
        stats,
        store,
        min_compute_ns: ns as u64,
    }
}

fn run_case(case: &Case) -> KernelResult {
    let reference = case.reference();
    let mut machines = Vec::new();
    for (label, cfg) in [
        ("gpu", MachineConfig::geforce_8800_gtx()),
        ("cell", MachineConfig::cell_like()),
    ] {
        let interp = run_mode(case, &cfg, false);
        let compiled = run_mode(case, &cfg, true);
        let bit_exact = case.output_matches(&interp.store, &reference)
            && case.output_matches(&compiled.store, &reference);
        // `ExecStats` equality compares every deterministic counter
        // (instances, memory traffic, plan-cache hits, modeled cycles,
        // DMA) and ignores wall-clock compute time.
        let stats_equal = interp.stats == compiled.stats;
        machines.push(MachineResult {
            machine: label,
            interp,
            compiled,
            bit_exact,
            stats_equal,
        });
    }
    KernelResult {
        name: case.name,
        machines,
    }
}

fn render_json(mode: &str, kernels: &[KernelResult], target: f64, pass: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape_free(mode)));
    out.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n      \"runs\": [\n",
            json_escape_free(k.name)
        ));
        for (j, m) in k.machines.iter().enumerate() {
            out.push_str(&format!(
                "        {{ \"machine\": \"{}\", \"interp_compute_ns\": {}, \
                 \"compiled_compute_ns\": {}, \"speedup\": {:.2}, \
                 \"instances\": {}, \"bit_exact\": {}, \"stats_equal\": {} }}{}\n",
                json_escape_free(m.machine),
                m.interp.min_compute_ns,
                m.compiled.min_compute_ns,
                m.speedup(),
                m.compiled.stats.instances,
                m.bit_exact,
                m.stats_equal,
                if j + 1 == k.machines.len() { "" } else { "," }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 == kernels.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"speedup_target\": {target:.1},\n  \"pass\": {pass}\n}}\n"
    ));
    out
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
    let mut results = Vec::new();
    for case in seq_cases(smoke) {
        let r = run_case(&case);
        for m in &r.machines {
            println!(
                "{:<9} [{:<4}] compute {:>12} -> {:>12} ns ({:6.2}x)  instances {:>8}  bit-exact: {}  stats: {}",
                r.name,
                m.machine,
                m.interp.min_compute_ns,
                m.compiled.min_compute_ns,
                m.speedup(),
                m.compiled.stats.instances,
                if m.bit_exact { "yes" } else { "NO" },
                if m.stats_equal { "equal" } else { "DIFFER" },
            );
        }
        results.push(r);
    }

    let mut failures = Vec::new();

    // Both engines bit-exact against the reference, identical
    // counters, on every kernel and both machines.
    for r in &results {
        for m in &r.machines {
            if !m.bit_exact {
                failures.push(format!("{}[{}]: output mismatch", r.name, m.machine));
            }
            if !m.stats_equal {
                failures.push(format!("{}[{}]: counter mismatch", r.name, m.machine));
            }
        }
    }

    // The speedup gate: compute-phase-dominated kernels must get at
    // least `target`x from the compiled engine. Full mode only —
    // smoke sizes finish in microseconds and measure the timer.
    if !smoke {
        for name in ["matmul", "jacobi2d"] {
            let r = results.iter().find(|r| r.name == name).expect("case");
            for m in &r.machines {
                if m.speedup() < target {
                    failures.push(format!(
                        "{name}[{}]: compute speedup {:.2}x below {target}x",
                        m.machine,
                        m.speedup()
                    ));
                }
            }
        }
    }

    let json = render_json(mode, &results, target, failures.is_empty());
    conclude("BENCH_exec.json", &json, &failures);
}
