//! Inter-block residency / delta-transfer harness.
//!
//! Runs the five built-in kernels on the GPU and Cell machine models,
//! synchronous and double-buffered, with the residency pass off and
//! on. The Jacobi-2D case uses the paper's Fig. 1 buffer layout (one
//! buffer per array over the convex union, `partition = false`) so the
//! stencil's sliding window lives in a single group. It then
//!
//! * writes `BENCH_residency.json` — per kernel × machine × mode: the
//!   move-in global traffic (elements and bytes), DMA bytes, retained
//!   and delta element counters, residency group instances and modeled
//!   cycles for both settings;
//! * verifies outputs are bit-exact against the reference interpreter
//!   and between the two settings in every mode;
//! * asserts residency cuts move-in global traffic by at least 2x on
//!   the two sliding-window kernels (ME and Jacobi-2D) on every
//!   machine and mode;
//! * asserts modeled cycles never regress with residency on, for any
//!   kernel, machine or mode;
//! * asserts the residency counters activate on the gated kernels and
//!   stay zero with the pass disabled;
//! * asserts the compiled engine keeps executing every block (zero
//!   interpreter fallbacks) with residency on.
//!
//! ```sh
//! cargo run --release -p polymem-bench --bin residency            # full
//! cargo run --release -p polymem-bench --bin residency -- --smoke # CI
//! ```
//!
//! All asserted quantities are modeled (deterministic integer counts),
//! so the gates hold on noisy CI runners too.

use polymem_bench::harness::{conclude, json_escape_free, smoke_mode, Case};
use polymem_ir::ArrayStore;
use polymem_kernels::{conv2d, jacobi, jacobi2d, matmul, me};
use polymem_machine::{execute_blocked, ExecStats, MachineConfig};

/// A harness case plus residency-specific knobs: whether the 2x
/// traffic gate applies, and whether to use the merged (Fig. 1)
/// buffer layout.
struct ResCase {
    case: Case,
    gated: bool,
    merged_layout: bool,
}

fn cases(smoke: bool) -> Vec<ResCase> {
    let pick = |small: i64, full: i64| if smoke { small } else { full };
    let res = |case, gated, merged_layout| ResCase {
        case,
        gated,
        merged_layout,
    };
    let me_size = me::MeSize {
        ni: pick(8, 16),
        nj: pick(8, 16),
        ws: 4,
    };
    let jacobi_size = jacobi::JacobiSize {
        n: pick(32, 128),
        t: pick(2, 4),
    };
    let conv_size = conv2d::ConvSize {
        n: pick(7, 15),
        k: 3,
    };
    vec![
        // ME: the W-wide search window slides one column per sub-tile;
        // consecutive windows share W of W+1 columns.
        res(
            Case::builtin(
                "me",
                me::params(&me_size),
                7,
                me::blocked_seq_kernel(8, 1, true),
            ),
            true,
            false,
        ),
        // 1-D Jacobi keeps its round-only mapping: no sequential
        // sub-tile loop, so residency must be a structural no-op.
        res(
            Case::builtin(
                "jacobi",
                jacobi::params(&jacobi_size),
                8,
                jacobi::stepwise_kernel(16, true),
            ),
            false,
            false,
        ),
        // Jacobi-2D with a single-column sub-tile: the 5-point window
        // spans three sliding columns, of which two are retained. The
        // merged layout keeps the whole window in one buffer.
        res(
            Case::builtin(
                "jacobi2d",
                jacobi2d::params(2, pick(32, 64)),
                9,
                jacobi2d::stepwise_seq_kernel(pick(8, 16), 1, true),
            ),
            true,
            true,
        ),
        // Matmul's hoisted mapping: the persistent-buffer shortcut
        // (§4.2) takes priority over residency on the hoisted operand.
        res(
            Case::builtin(
                "matmul",
                vec![pick(8, 16)],
                10,
                matmul::blocked_kernel_hoisted(4, 4, 4, true),
            ),
            false,
            false,
        ),
        res(
            Case::builtin(
                "conv2d",
                conv2d::params(&conv_size),
                11,
                conv2d::blocked_seq_kernel(3, pick(3, 5), true),
            ),
            false,
            false,
        ),
    ]
}

struct ModeResult {
    stats: ExecStats,
    store: ArrayStore,
    /// Bytes entering the compute level from global memory: staged
    /// move-ins plus direct (unstaged) reads.
    in_bytes: u64,
}

struct RunResult {
    machine: &'static str,
    double_buffer: bool,
    off: ModeResult,
    on: ModeResult,
    bit_exact: bool,
}

struct KernelResult {
    name: &'static str,
    gated: bool,
    runs: Vec<RunResult>,
}

impl RunResult {
    /// Move-in traffic ratio, off over on (>1: residency saved bytes).
    fn traffic_ratio(&self) -> f64 {
        self.off.in_bytes as f64 / self.on.in_bytes.max(1) as f64
    }
    fn label(&self) -> String {
        format!(
            "{}{}",
            self.machine,
            if self.double_buffer { "+db" } else { "" }
        )
    }
}

fn in_bytes(s: &ExecStats, word_bytes: u64) -> u64 {
    (s.moved_in + s.global_reads) * word_bytes
}

fn run_case(rc: &ResCase) -> KernelResult {
    let case = &rc.case;
    let reference = case.reference();
    let mut runs = Vec::new();
    for (label, cfg) in [
        ("gpu", MachineConfig::geforce_8800_gtx()),
        ("cell", MachineConfig::cell_like()),
    ] {
        for double_buffer in [false, true] {
            let run = |residency: bool| {
                let mut config = cfg.clone();
                config.double_buffer = double_buffer;
                config.residency = residency;
                if rc.merged_layout {
                    config.partition = false;
                }
                let mut store = case.base.clone();
                let stats = execute_blocked(&case.kernel, &case.params, &mut store, &config, false)
                    .expect("execution succeeds");
                let ib = in_bytes(&stats, config.word_bytes);
                ModeResult {
                    stats,
                    store,
                    in_bytes: ib,
                }
            };
            let off = run(false);
            let on = run(true);
            let bit_exact = case.output_matches(&off.store, &reference)
                && case.output_matches(&on.store, &reference);
            runs.push(RunResult {
                machine: label,
                double_buffer,
                off,
                on,
                bit_exact,
            });
        }
    }
    KernelResult {
        name: case.name,
        gated: rc.gated,
        runs,
    }
}

fn mode_json(m: &ModeResult) -> String {
    let s = &m.stats;
    format!(
        "{{ \"modeled_cycles\": {}, \"moved_in\": {}, \"global_reads\": {}, \
         \"in_bytes\": {}, \"dma_bytes\": {}, \"residency_groups\": {}, \
         \"retained_elems\": {}, \"delta_elems\": {}, \"interpreted_blocks\": {} }}",
        s.modeled_cycles,
        s.moved_in,
        s.global_reads,
        m.in_bytes,
        s.dma.bytes,
        s.residency_groups,
        s.retained_elems,
        s.delta_elems,
        s.interpreted_blocks,
    )
}

fn render_json(mode: &str, kernels: &[KernelResult], target: f64, pass: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape_free(mode)));
    out.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n      \"traffic_gated\": {},\n",
            json_escape_free(k.name),
            k.gated
        ));
        out.push_str("      \"runs\": [\n");
        for (j, r) in k.runs.iter().enumerate() {
            out.push_str(&format!(
                "        {{ \"machine\": \"{}\", \"double_buffer\": {},\n          \"residency_off\": {},\n          \"residency_on\": {},\n          \"bit_exact\": {}, \"traffic_ratio\": {:.4} }}{}\n",
                json_escape_free(r.machine),
                r.double_buffer,
                mode_json(&r.off),
                mode_json(&r.on),
                r.bit_exact,
                r.traffic_ratio(),
                if j + 1 == k.runs.len() { "" } else { "," }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 == kernels.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"traffic_target\": {target:.1},\n  \"pass\": {pass}\n}}\n"
    ));
    out
}

fn main() {
    let smoke = smoke_mode();
    let mode = if smoke { "smoke" } else { "full" };
    let target = 2.0;

    println!("inter-block residency harness ({mode} mode)\n");
    let mut results = Vec::new();
    for rc in cases(smoke) {
        let r = run_case(&rc);
        for m in &r.runs {
            println!(
                "{:<9} [{:<7}] in-bytes {:>8} -> {:>8} ({:4.2}x)  retained {:>6} delta {:>6} groups {:>4}  cycles {:>9} -> {:>9}  bit-exact: {}",
                r.name,
                m.label(),
                m.off.in_bytes,
                m.on.in_bytes,
                m.traffic_ratio(),
                m.on.stats.retained_elems,
                m.on.stats.delta_elems,
                m.on.stats.residency_groups,
                m.off.stats.modeled_cycles,
                m.on.stats.modeled_cycles,
                if m.bit_exact { "yes" } else { "NO" },
            );
        }
        results.push(r);
    }

    let mut failures = Vec::new();

    for r in &results {
        for m in &r.runs {
            // Bit-exact in every mode, against the reference and
            // between the two settings.
            if !m.bit_exact {
                failures.push(format!("{}[{}]: output mismatch", r.name, m.label()));
            }
            // Modeled time must never regress with residency on.
            if m.on.stats.modeled_cycles > m.off.stats.modeled_cycles {
                failures.push(format!(
                    "{}[{}]: modeled cycles regressed ({} -> {})",
                    r.name,
                    m.label(),
                    m.off.stats.modeled_cycles,
                    m.on.stats.modeled_cycles
                ));
            }
            // The pass must leave no trace when disabled.
            if m.off.stats.residency_groups != 0
                || m.off.stats.retained_elems != 0
                || m.off.stats.delta_elems != 0
            {
                failures.push(format!(
                    "{}[{}]: residency counters nonzero with the pass off",
                    r.name,
                    m.label()
                ));
            }
            // The compiled engine must keep executing every block.
            if m.on.stats.interpreted_blocks != 0 {
                failures.push(format!(
                    "{}[{}]: {} interpreter fallbacks with residency on",
                    r.name,
                    m.label(),
                    m.on.stats.interpreted_blocks
                ));
            }
        }
        // The sliding-window kernels must clear the 2x traffic gate
        // and actually exercise retention.
        if r.gated {
            for m in &r.runs {
                if m.traffic_ratio() < target {
                    failures.push(format!(
                        "{}[{}]: move-in traffic ratio {:.2} below {target}",
                        r.name,
                        m.label(),
                        m.traffic_ratio()
                    ));
                }
                if m.on.stats.residency_groups == 0 || m.on.stats.retained_elems == 0 {
                    failures.push(format!(
                        "{}[{}]: residency counters inactive",
                        r.name,
                        m.label()
                    ));
                }
            }
        }
    }

    let json = render_json(mode, &results, target, failures.is_empty());
    conclude("BENCH_residency.json", &json, &failures);
}
