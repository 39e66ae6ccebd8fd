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

use polymem_bench::harness::{best_of, conclude, json_escape_free, seq_cases, smoke_mode, Case};
use polymem_ir::ArrayStore;
use polymem_machine::{execute_blocked, ExecStats, MachineConfig};

struct ModeResult {
    stats: ExecStats,
    store: ArrayStore,
    /// Best-of-3 compute-phase wall time, milliseconds.
    ms: f64,
}

/// Execution modes under comparison, in report order.
const MODES: [(&str, bool, bool); 3] = [
    ("unified", true, true),
    ("compiled_only", true, false),
    ("hier_only", false, true),
];

fn run_mode(case: &Case, cfg: &MachineConfig, compiled: bool, hierarchy: bool) -> ModeResult {
    let mut config = cfg.clone();
    config.compiled_exec = compiled;
    config.hierarchy = hierarchy;
    let (ns, (stats, store)) = best_of(3, || {
        let mut store = case.base.clone();
        let stats = execute_blocked(&case.kernel, &case.params, &mut store, &config, false)
            .expect("execution succeeds");
        (stats.compute_ns as f64, (stats, store))
    });
    ModeResult {
        stats,
        store,
        ms: ns / 1e6,
    }
}

struct MachineResult {
    machine: &'static str,
    /// One result per [`MODES`] entry.
    modes: Vec<ModeResult>,
    bit_exact: bool,
}

struct KernelResult {
    name: &'static str,
    machines: Vec<MachineResult>,
}

fn smem_traffic(s: &ExecStats) -> u64 {
    s.smem_reads + s.smem_writes
}

fn run_case(case: &Case) -> KernelResult {
    let reference = case.reference();
    let mut machines = Vec::new();
    for (label, cfg) in [
        ("gpu", MachineConfig::geforce_8800_gtx()),
        ("cell", MachineConfig::cell_like()),
    ] {
        let modes: Vec<ModeResult> = MODES
            .iter()
            .map(|&(_, c, h)| run_mode(case, &cfg, c, h))
            .collect();
        let bit_exact = modes
            .iter()
            .all(|m| case.output_matches(&m.store, &reference));
        machines.push(MachineResult {
            machine: label,
            modes,
            bit_exact,
        });
    }
    KernelResult {
        name: case.name,
        machines,
    }
}

/// The vector-width ablation: unified mode on the GPU model at each
/// width, stats + wall time.
struct Ablation {
    name: &'static str,
    /// `(width, modeled_cycles, ms)` per ablated width.
    points: Vec<(u64, u64, f64)>,
}

fn run_ablation(case: &Case) -> Ablation {
    let mut points = Vec::new();
    for w in [1u64, 2, 4, 8] {
        let mut cfg = MachineConfig::geforce_8800_gtx();
        cfg.vector_width = w;
        let m = run_mode(case, &cfg, true, true);
        points.push((w, m.stats.modeled_cycles, m.ms));
    }
    Ablation {
        name: case.name,
        points,
    }
}

fn mode_json(m: &ModeResult) -> String {
    let s = &m.stats;
    format!(
        "{{ \"modeled_cycles\": {}, \"compute_ms\": {:.3}, \"smem_traffic\": {}, \
         \"smem_loads_saved\": {}, \"reg_bytes_moved\": {}, \"hier_groups\": {}, \
         \"compiled_blocks\": {}, \"interpreted_blocks\": {} }}",
        s.modeled_cycles,
        m.ms,
        smem_traffic(s),
        s.smem_loads_saved,
        s.reg_bytes_moved,
        s.hier_groups,
        s.compiled_blocks,
        s.interpreted_blocks,
    )
}

fn render_json(mode: &str, kernels: &[KernelResult], ablations: &[Ablation], pass: bool) -> String {
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
                "        {{ \"machine\": \"{}\", \"bit_exact\": {},\n",
                json_escape_free(m.machine),
                m.bit_exact
            ));
            for (mi, (label, _, _)) in MODES.iter().enumerate() {
                out.push_str(&format!(
                    "          \"{}\": {}{}\n",
                    json_escape_free(label),
                    mode_json(&m.modes[mi]),
                    if mi + 1 == MODES.len() { " }" } else { "," }
                ));
            }
            out.push_str(if j + 1 == k.machines.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 == kernels.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"vector_width_ablation\": [\n");
    for (i, a) in ablations.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"points\": [",
            json_escape_free(a.name)
        ));
        for (j, (w, cyc, ms)) in a.points.iter().enumerate() {
            out.push_str(&format!(
                "{{ \"width\": {w}, \"modeled_cycles\": {cyc}, \"compute_ms\": {ms:.3} }}{}",
                if j + 1 == a.points.len() { "" } else { ", " }
            ));
        }
        out.push_str(&format!(
            "] }}{}\n",
            if i + 1 == ablations.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"pass\": {pass}\n}}\n"));
    out
}

fn main() {
    let smoke = smoke_mode();
    let mode = if smoke { "smoke" } else { "full" };
    let check = std::env::var("POLYMEM_EXEC_CHECK").is_ok_and(|v| v == "1");

    println!(
        "unified engine harness ({mode} mode{})\n",
        if check { ", oracle cross-check on" } else { "" }
    );
    let all_cases = seq_cases(smoke);
    let mut results = Vec::new();
    for case in &all_cases {
        let r = run_case(case);
        for m in &r.machines {
            let [u, c, h] = &m.modes[..] else {
                unreachable!("three modes")
            };
            println!(
                "{:<9} [{:<4}] modeled {:>10} (compiled-only {:>10}, hier-only {:>10})  \
                 blocks {:>4}c/{}i  smem {:>8}  bit-exact: {}",
                r.name,
                m.machine,
                u.stats.modeled_cycles,
                c.stats.modeled_cycles,
                h.stats.modeled_cycles,
                u.stats.compiled_blocks,
                u.stats.interpreted_blocks,
                smem_traffic(&u.stats),
                if m.bit_exact { "yes" } else { "NO" },
            );
        }
        results.push(r);
    }

    println!();
    let mut ablations = Vec::new();
    for case in &all_cases {
        let a = run_ablation(case);
        let pts: Vec<String> = a
            .points
            .iter()
            .map(|(w, _, ms)| format!("w{w} {ms:7.3} ms"))
            .collect();
        println!("{:<9} [gpu ] ablation: {}", a.name, pts.join("  "));
        ablations.push(a);
    }

    let mut failures = Vec::new();

    for r in &results {
        for m in &r.machines {
            let [u, _, h] = &m.modes[..] else {
                unreachable!("three modes")
            };
            // Every mode bit-exact against the reference.
            if !m.bit_exact {
                failures.push(format!("{}[{}]: output mismatch", r.name, m.machine));
            }
            // The unified mode really composed the tentpoles: the
            // compiled engine owned every compute phase even with the
            // register level active.
            if u.stats.compiled_blocks == 0 || u.stats.interpreted_blocks != 0 {
                failures.push(format!(
                    "{}[{}]: unified mode fell back ({} compiled / {} interpreted blocks)",
                    r.name, m.machine, u.stats.compiled_blocks, u.stats.interpreted_blocks
                ));
            }
            if u.stats.fallback.total() != 0 {
                failures.push(format!(
                    "{}[{}]: unified mode recorded {} interpreter fallbacks",
                    r.name,
                    m.machine,
                    u.stats.fallback.total()
                ));
            }
            // Counter-for-counter parity with the interpreter on the
            // same plan: the scratchpad-traffic numbers BENCH_hier
            // gates carry over unchanged.
            if u.stats != h.stats {
                failures.push(format!(
                    "{}[{}]: unified stats diverge from hier-only",
                    r.name, m.machine
                ));
            }
        }
    }

    // The composition gate: where the register level helps (matmul,
    // ME), running it *through the compiled engine* must model no
    // worse than the better single-tentpole mode.
    for name in ["matmul", "me"] {
        let r = results.iter().find(|r| r.name == name).expect("case");
        for m in &r.machines {
            let [u, c, h] = &m.modes[..] else {
                unreachable!("three modes")
            };
            let best_single = c.stats.modeled_cycles.min(h.stats.modeled_cycles);
            if u.stats.modeled_cycles > best_single {
                failures.push(format!(
                    "{name}[{}]: unified modeled {} exceeds best single-tentpole {}",
                    m.machine, u.stats.modeled_cycles, best_single
                ));
            }
        }
    }

    // Batching is a pure execution strategy: modeled cycles must be
    // bit-identical at every vector width.
    for a in &ablations {
        let c0 = a.points[0].1;
        if a.points.iter().any(|&(_, c, _)| c != c0) {
            failures.push(format!(
                "{}: modeled cycles vary across vector widths",
                a.name
            ));
        }
    }

    let json = render_json(mode, &results, &ablations, failures.is_empty());
    conclude("BENCH_unified.json", &json, &failures);
}
