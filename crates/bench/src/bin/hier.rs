//! Multi-level hierarchy harness.
//!
//! Runs the five built-in kernels on the GPU and Cell machine models
//! with the register-tile level off (scratchpad-only staging) and on
//! (`MachineConfig::hierarchy`: the §3 pipeline re-run over the
//! intra-thread subnest, staging per-inner-process register frames),
//! then
//!
//! * verifies outputs are bit-exact against the reference interpreter
//!   in both modes — with hierarchy on, every read served from a frame
//!   and every write flushed through one must land exactly where the
//!   scratchpad-only path puts it;
//! * measures modeled scratchpad traffic (compute-phase accesses plus
//!   frame staging) in both modes, and asserts the register level cuts
//!   it by at least 2x on matmul and ME — the two kernels whose
//!   inner-process reuse the paper's recursion argument centres on —
//!   in smoke and full mode alike (the quantity is a deterministic
//!   counter, so tiny CI sizes gate as reliably as full sizes);
//! * reports the new hierarchy counters (`smem_loads_saved`,
//!   `reg_bytes_moved`, `hier_groups`) and the modeled-cycle
//!   improvement;
//! * writes `BENCH_hier.json` with the per-kernel numbers.
//!
//! ```sh
//! cargo run --release -p polymem-bench --bin hier            # full
//! cargo run --release -p polymem-bench --bin hier -- --smoke # CI
//! ```
//!
//! `POLYMEM_EXEC_CHECK=1` additionally runs the reference interpreter
//! as an oracle beside every compiled block — hierarchy-on plans
//! included, now that the compiled engine executes them natively —
//! and panics on divergence; the CI job sets it.
//!
//! Exits non-zero on any check failure. All gated quantities are
//! deterministic counters, so the gates hold on noisy CI runners too.

use polymem_bench::harness::{best_of, conclude, json_escape_free, seq_cases, smoke_mode, Case};
use polymem_ir::ArrayStore;
use polymem_machine::{execute_blocked, ExecStats, MachineConfig};

struct ModeResult {
    stats: ExecStats,
    store: ArrayStore,
}

struct MachineResult {
    machine: &'static str,
    off: ModeResult,
    on: ModeResult,
    bit_exact: bool,
}

struct KernelResult {
    name: &'static str,
    machines: Vec<MachineResult>,
}

/// Modeled scratchpad traffic: compute-phase accesses plus the level-2
/// staging reads/writes. This is the quantity the register level
/// exists to shrink.
fn smem_traffic(s: &ExecStats) -> u64 {
    s.smem_reads + s.smem_writes
}

impl MachineResult {
    /// Scratchpad-traffic ratio, hierarchy-off over hierarchy-on
    /// (>1 means the register level cut traffic).
    fn traffic_reduction(&self) -> f64 {
        smem_traffic(&self.off.stats) as f64 / smem_traffic(&self.on.stats).max(1) as f64
    }

    /// Modeled-time ratio, off over on.
    fn modeled_improvement(&self) -> f64 {
        self.off.stats.modeled_cycles as f64 / self.on.stats.modeled_cycles.max(1) as f64
    }
}

fn run_mode(case: &Case, cfg: &MachineConfig, hierarchy: bool) -> ModeResult {
    let mut config = cfg.clone();
    config.hierarchy = hierarchy;
    let (_, (stats, store)) = best_of(3, || {
        let mut store = case.base.clone();
        let stats = execute_blocked(&case.kernel, &case.params, &mut store, &config, false)
            .expect("execution succeeds");
        (stats.compute_ns as f64, (stats, store))
    });
    ModeResult { stats, store }
}

fn run_case(case: &Case) -> KernelResult {
    let reference = case.reference();
    let mut machines = Vec::new();
    for (label, cfg) in [
        ("gpu", MachineConfig::geforce_8800_gtx()),
        ("cell", MachineConfig::cell_like()),
    ] {
        let off = run_mode(case, &cfg, false);
        let on = run_mode(case, &cfg, true);
        let bit_exact = case.output_matches(&off.store, &reference)
            && case.output_matches(&on.store, &reference);
        machines.push(MachineResult {
            machine: label,
            off,
            on,
            bit_exact,
        });
    }
    KernelResult {
        name: case.name,
        machines,
    }
}

fn mode_json(m: &ModeResult) -> String {
    let s = &m.stats;
    format!(
        "{{ \"smem_traffic\": {}, \"smem_reads\": {}, \"smem_writes\": {}, \
         \"smem_loads_saved\": {}, \"reg_bytes_moved\": {}, \"hier_groups\": {}, \
         \"modeled_cycles\": {} }}",
        smem_traffic(s),
        s.smem_reads,
        s.smem_writes,
        s.smem_loads_saved,
        s.reg_bytes_moved,
        s.hier_groups,
        s.modeled_cycles,
    )
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
                "        {{ \"machine\": \"{}\",\n          \"off\": {},\n          \"on\": {},\n          \
                 \"bit_exact\": {}, \"traffic_reduction\": {:.4}, \"modeled_improvement\": {:.4} }}{}\n",
                json_escape_free(m.machine),
                mode_json(&m.off),
                mode_json(&m.on),
                m.bit_exact,
                m.traffic_reduction(),
                m.modeled_improvement(),
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
        "  \"traffic_target\": {target:.1},\n  \"pass\": {pass}\n}}\n"
    ));
    out
}

fn main() {
    let smoke = smoke_mode();
    let mode = if smoke { "smoke" } else { "full" };
    let target = 2.0;
    let check = std::env::var("POLYMEM_EXEC_CHECK").is_ok_and(|v| v == "1");

    println!(
        "multi-level hierarchy harness ({mode} mode{})\n",
        if check { ", oracle cross-check on" } else { "" }
    );
    let mut results = Vec::new();
    for case in seq_cases(smoke) {
        let r = run_case(&case);
        for m in &r.machines {
            println!(
                "{:<9} [{:<4}] smem {:>8} -> {:>8} ({:5.2}x)  saved {:>7}  reg B {:>8}  groups {:>5}  modeled {:4.2}x  bit-exact: {}",
                r.name,
                m.machine,
                smem_traffic(&m.off.stats),
                smem_traffic(&m.on.stats),
                m.traffic_reduction(),
                m.on.stats.smem_loads_saved,
                m.on.stats.reg_bytes_moved,
                m.on.stats.hier_groups,
                m.modeled_improvement(),
                if m.bit_exact { "yes" } else { "NO" },
            );
        }
        results.push(r);
    }

    let mut failures = Vec::new();

    // Both modes bit-exact against the reference, every kernel, both
    // machines.
    for r in &results {
        for m in r.machines.iter().filter(|m| !m.bit_exact) {
            failures.push(format!("{}[{}]: output mismatch", r.name, m.machine));
        }
    }

    // The traffic gate: the register level must cut modeled scratchpad
    // traffic at least `target`x on matmul and ME, and must actually
    // have staged frames to do it. Deterministic counters — gated in
    // smoke mode too.
    for name in ["matmul", "me"] {
        let r = results.iter().find(|r| r.name == name).expect("case");
        for m in &r.machines {
            if m.on.stats.hier_groups == 0 {
                failures.push(format!("{name}[{}]: no register frames staged", m.machine));
            }
            if m.on.stats.smem_loads_saved == 0 {
                failures.push(format!("{name}[{}]: no scratchpad loads saved", m.machine));
            }
            if m.traffic_reduction() < target {
                failures.push(format!(
                    "{name}[{}]: traffic reduction {:.2}x below {target}x",
                    m.machine,
                    m.traffic_reduction()
                ));
            }
            // Less scratchpad traffic at identical functional global
            // traffic can only lower the modeled time.
            if m.on.stats.modeled_cycles > m.off.stats.modeled_cycles {
                failures.push(format!(
                    "{name}[{}]: modeled time regressed ({} -> {})",
                    m.machine, m.off.stats.modeled_cycles, m.on.stats.modeled_cycles
                ));
            }
        }
    }

    let json = render_json(mode, &results, target, failures.is_empty());
    conclude("BENCH_hier.json", &json, &failures);
}
