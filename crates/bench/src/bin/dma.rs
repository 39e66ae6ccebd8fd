//! DMA transfer-engine harness.
//!
//! Runs the five built-in kernels — mapped with a sequential sub-tile
//! loop where the kernel has one (ME, Jacobi-2D, matmul, conv2d; the
//! 1-D Jacobi keeps its round-only mapping and exercises the
//! double-buffer fallback) — on the GPU and Cell machine models, with
//! double buffering off and on. It then
//!
//! * writes `BENCH_dma.json` — per kernel × machine × mode: modeled
//!   cycles, element-move counts vs. coalesced DMA descriptors,
//!   bytes per descriptor, overlap fraction, and the prefetch /
//!   forced-sync group counts;
//! * verifies outputs are bit-exact against the reference interpreter
//!   and between the two modes;
//! * asserts the coalescer turns per-element movement into at least
//!   10× fewer transfer operations (aggregate, per machine);
//! * asserts double buffering improves modeled time on the Jacobi-2D
//!   and matmul kernels, and reports a nonzero overlap fraction on
//!   every kernel that has a sequential sub-tile loop.
//!
//! ```sh
//! cargo run --release -p polymem-bench --bin dma            # full
//! cargo run --release -p polymem-bench --bin dma -- --smoke # CI
//! ```
//!
//! Exits non-zero on any check failure. All asserted quantities are
//! modeled (deterministic integer cycle counts), so the gates hold on
//! noisy CI runners too.

use polymem_bench::harness::{conclude, json_escape_free, smoke_mode, Case};
use polymem_ir::ArrayStore;
use polymem_kernels::{conv2d, jacobi, jacobi2d, matmul, me};
use polymem_machine::{execute_blocked, ExecStats, MachineConfig};

fn cases(smoke: bool) -> Vec<Case> {
    let pick = |small: i64, full: i64| if smoke { small } else { full };
    let me_size = me::MeSize {
        ni: pick(16, 32),
        nj: pick(16, 32),
        ws: pick(2, 3),
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
            jacobi2d::params(2, pick(8, 16)),
            9,
            jacobi2d::stepwise_seq_kernel(4, pick(4, 8), true),
        ),
        Case::builtin(
            "matmul",
            vec![pick(8, 16)],
            10,
            matmul::blocked_kernel_hoisted(4, 4, 4, true),
        ),
        Case::builtin(
            "conv2d",
            conv2d::params(&conv_size),
            11,
            conv2d::blocked_seq_kernel(3, pick(3, 5), true),
        ),
    ]
}

struct ModeResult {
    stats: ExecStats,
    store: ArrayStore,
    /// Bytes moved through global memory: staged element moves plus
    /// direct (unstaged) accesses, at the machine's word size.
    global_bytes: u64,
    word_bytes: u64,
}

struct MachineResult {
    machine: &'static str,
    off: ModeResult,
    on: ModeResult,
    bit_exact: bool,
}

struct KernelResult {
    name: &'static str,
    has_seq: bool,
    machines: Vec<MachineResult>,
}

impl MachineResult {
    /// Modeled-time ratio, synchronous over double-buffered (>1 means
    /// the overlap helped).
    fn improvement(&self) -> f64 {
        self.off.stats.modeled_cycles as f64 / self.on.stats.modeled_cycles.max(1) as f64
    }
}

fn element_moves(s: &ExecStats) -> u64 {
    s.moved_in + s.moved_out
}

/// Every word that crosses the global-memory interface: DMA-staged
/// moves and the per-element reads/writes of unstaged references.
fn global_bytes(s: &ExecStats, word_bytes: u64) -> u64 {
    (element_moves(s) + s.global_reads + s.global_writes) * word_bytes
}

fn run_case(case: &Case) -> KernelResult {
    let reference = case.reference();
    let mut machines = Vec::new();
    for (label, cfg) in [
        ("gpu", MachineConfig::geforce_8800_gtx()),
        ("cell", MachineConfig::cell_like()),
    ] {
        let run = |double_buffer: bool| {
            let mut config = cfg.clone();
            config.double_buffer = double_buffer;
            let mut store = case.base.clone();
            let stats = execute_blocked(&case.kernel, &case.params, &mut store, &config, false)
                .expect("execution succeeds");
            let gb = global_bytes(&stats, config.word_bytes);
            ModeResult {
                stats,
                store,
                global_bytes: gb,
                word_bytes: config.word_bytes,
            }
        };
        let off = run(false);
        let on = run(true);
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
        has_seq: !case.kernel.seq_dims.is_empty(),
        machines,
    }
}

fn mode_json(m: &ModeResult) -> String {
    let s = &m.stats;
    format!(
        "{{ \"modeled_cycles\": {}, \"element_moves\": {}, \"descriptors\": {}, \
         \"dma_bytes\": {}, \"global_bytes\": {}, \"mean_descriptor_bytes\": {:.2}, \
         \"overlap_fraction\": {:.4}, \
         \"stall_cycles\": {}, \"overlap_groups\": {}, \"sync_groups\": {} }}",
        s.modeled_cycles,
        element_moves(s),
        s.dma.descriptors,
        s.dma.bytes,
        m.global_bytes,
        s.dma.mean_descriptor_bytes(),
        s.dma.overlap_fraction(),
        s.dma.stall_cycles,
        s.overlap_groups,
        s.sync_groups,
    )
}

fn render_json(
    mode: &str,
    kernels: &[KernelResult],
    coalesce_ratio: f64,
    ratio_target: f64,
    pass: bool,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape_free(mode)));
    out.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n      \"has_seq\": {},\n",
            json_escape_free(k.name),
            k.has_seq
        ));
        out.push_str("      \"runs\": [\n");
        for (j, m) in k.machines.iter().enumerate() {
            out.push_str(&format!(
                "        {{ \"machine\": \"{}\",\n          \"sync\": {},\n          \"double_buffer\": {},\n          \"bit_exact\": {}, \"modeled_improvement\": {:.4} }}{}\n",
                json_escape_free(m.machine),
                mode_json(&m.off),
                mode_json(&m.on),
                m.bit_exact,
                m.improvement(),
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
        "  \"coalesce_ratio\": {coalesce_ratio:.2},\n  \"coalesce_target\": {ratio_target:.1},\n  \"pass\": {pass}\n}}\n"
    ));
    out
}

fn main() {
    let smoke = smoke_mode();
    let mode = if smoke { "smoke" } else { "full" };
    let ratio_target = 10.0;

    println!("dma transfer-engine harness ({mode} mode)\n");
    let mut results = Vec::new();
    for case in cases(smoke) {
        let r = run_case(&case);
        for m in &r.machines {
            println!(
                "{:<9} [{:<4}] modeled {:>9} -> {:>9} cycles ({:4.2}x)  moves {:>6} descs {:>5} ({:5.1} B/desc)  overlap {:4.1}%  groups {}+{}  bit-exact: {}",
                r.name,
                m.machine,
                m.off.stats.modeled_cycles,
                m.on.stats.modeled_cycles,
                m.improvement(),
                element_moves(&m.on.stats),
                m.on.stats.dma.descriptors,
                m.on.stats.dma.mean_descriptor_bytes(),
                100.0 * m.on.stats.dma.overlap_fraction(),
                m.on.stats.overlap_groups,
                m.on.stats.sync_groups,
                if m.bit_exact { "yes" } else { "NO" },
            );
            println!(
                "{:<9} [{:<4}] global traffic {} bytes sync / {} bytes double-buffered",
                r.name, m.machine, m.off.global_bytes, m.on.global_bytes,
            );
        }
        results.push(r);
    }

    let mut failures = Vec::new();

    // Everything bit-exact, both modes, both machines.
    for r in &results {
        for m in &r.machines {
            if !m.bit_exact {
                failures.push(format!("{}[{}]: output mismatch", r.name, m.machine));
            }
        }
    }

    // Traffic accounting in bytes: every staged element crosses the
    // global interface through exactly one coalesced descriptor, so
    // descriptor bytes must equal element-move bytes; and overlapping
    // the transfers (double buffering) must not change how many bytes
    // touch global memory.
    for r in &results {
        for m in &r.machines {
            for (mode, res) in [("sync", &m.off), ("dbuf", &m.on)] {
                let move_bytes = element_moves(&res.stats) * res.word_bytes;
                if res.stats.dma.bytes != move_bytes {
                    failures.push(format!(
                        "{}[{} {mode}]: descriptor bytes {} != element-move bytes {}",
                        r.name, m.machine, res.stats.dma.bytes, move_bytes
                    ));
                }
            }
            if m.off.global_bytes != m.on.global_bytes {
                failures.push(format!(
                    "{}[{}]: double buffering changed global traffic ({} -> {} bytes)",
                    r.name, m.machine, m.off.global_bytes, m.on.global_bytes
                ));
            }
        }
    }

    // Coalescing: aggregate element moves over DMA descriptors (the
    // per-element baseline would issue one operation per element).
    let moves: u64 = results
        .iter()
        .flat_map(|r| &r.machines)
        .map(|m| element_moves(&m.on.stats))
        .sum();
    let descs: u64 = results
        .iter()
        .flat_map(|r| &r.machines)
        .map(|m| m.on.stats.dma.descriptors)
        .sum();
    let coalesce_ratio = moves as f64 / descs.max(1) as f64;
    println!(
        "\ncoalescing: {moves} element moves in {descs} descriptors ({coalesce_ratio:.1}x, target >= {ratio_target}x)"
    );
    if coalesce_ratio < ratio_target {
        failures.push(format!(
            "coalesce ratio {coalesce_ratio:.1} below {ratio_target}"
        ));
    }

    // Double buffering must improve modeled time on the two kernels
    // the paper's pipelining discussion centres on.
    for name in ["jacobi2d", "matmul"] {
        let r = results.iter().find(|r| r.name == name).expect("case");
        for m in &r.machines {
            if m.on.stats.modeled_cycles >= m.off.stats.modeled_cycles {
                failures.push(format!(
                    "{name}[{}]: no modeled-time improvement ({} -> {})",
                    m.machine, m.off.stats.modeled_cycles, m.on.stats.modeled_cycles
                ));
            }
        }
    }

    // Every seq-mapped kernel must actually overlap transfers.
    for r in results.iter().filter(|r| r.has_seq) {
        for m in &r.machines {
            if m.on.stats.overlap_groups == 0 {
                failures.push(format!("{}[{}]: no prefetches issued", r.name, m.machine));
            }
            if m.on.stats.dma.overlap_fraction() <= 0.0 {
                failures.push(format!("{}[{}]: zero overlap fraction", r.name, m.machine));
            }
        }
    }
    // The round-only 1-D Jacobi exercises the fallback: double_buffer
    // on, nothing to pipeline, still bit-exact with zero prefetches.
    let j = results.iter().find(|r| r.name == "jacobi").expect("case");
    if j.machines.iter().any(|m| m.on.stats.overlap_groups != 0) {
        failures.push("jacobi: round-only kernel should not prefetch".into());
    }

    let json = render_json(
        mode,
        &results,
        coalesce_ratio,
        ratio_target,
        failures.is_empty(),
    );
    conclude("BENCH_dma.json", &json, &failures);
}
