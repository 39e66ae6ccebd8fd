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

use polymem_bench::harness::{conclude, smoke_mode, sweep, Case};
use polymem_kernels::{conv2d, jacobi, jacobi2d, matmul, me};
use polymem_machine::{ExecStats, Json, MachineConfig};

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

/// Bytes entering the compute level from global memory: staged
/// move-ins plus direct (unstaged) reads.
fn in_bytes(s: &ExecStats, word_bytes: u64) -> u64 {
    (s.moved_in + s.global_reads) * word_bytes
}

/// Both machine models, synchronous and double-buffered (`+db`), in
/// the Fig. 1 single-buffer layout when `merged_layout`.
fn machines(merged_layout: bool) -> Vec<(&'static str, MachineConfig)> {
    [
        ("gpu", MachineConfig::geforce_8800_gtx(), false),
        ("gpu+db", MachineConfig::geforce_8800_gtx(), true),
        ("cell", MachineConfig::cell_like(), false),
        ("cell+db", MachineConfig::cell_like(), true),
    ]
    .into_iter()
    .map(|(label, mut config, double_buffer)| {
        config.double_buffer = double_buffer;
        config.partition &= !merged_layout;
        (label, config)
    })
    .collect()
}

fn main() {
    let smoke = smoke_mode();
    let mode = if smoke { "smoke" } else { "full" };
    let target = 2.0;

    println!("inter-block residency harness ({mode} mode)\n");
    let modes: [(_, fn(&mut MachineConfig)); 2] = [
        ("residency_off", |c| c.residency = false),
        ("residency_on", |c| c.residency = true),
    ];

    let mut failures = Vec::new();
    let mut runs = Vec::new();
    for rc in cases(smoke) {
        let machines = machines(rc.merged_layout);
        for c in sweep(std::slice::from_ref(&rc.case), &machines, &modes, 1) {
            let (off, on) = (&c.stats[0], &c.stats[1]);
            let at = format!("{}[{}]", c.kernel, c.machine);
            let (off_bytes, on_bytes) = (in_bytes(off, c.word_bytes), in_bytes(on, c.word_bytes));
            // Move-in traffic ratio, off over on (>1: residency saved
            // bytes).
            let traffic_ratio = off_bytes as f64 / on_bytes.max(1) as f64;
            println!(
                "{:<9} [{:<7}] in-bytes {:>8} -> {:>8} ({:4.2}x)  retained {:>6} delta {:>6} groups {:>4}  cycles {:>9} -> {:>9}  bit-exact: {}",
                c.kernel,
                c.machine,
                off_bytes,
                on_bytes,
                traffic_ratio,
                on.retained_elems,
                on.delta_elems,
                on.residency_groups,
                off.modeled_cycles,
                on.modeled_cycles,
                if c.bit_exact { "yes" } else { "NO" },
            );

            // Bit-exact in every mode, against the reference and
            // between the two settings.
            if !c.bit_exact {
                failures.push(format!("{at}: output mismatch"));
            }
            // Modeled time must never regress with residency on.
            if on.modeled_cycles > off.modeled_cycles {
                failures.push(format!(
                    "{at}: modeled cycles regressed ({} -> {})",
                    off.modeled_cycles, on.modeled_cycles
                ));
            }
            // The pass must leave no trace when disabled.
            if off.residency_groups != 0 || off.retained_elems != 0 || off.delta_elems != 0 {
                failures.push(format!(
                    "{at}: residency counters nonzero with the pass off"
                ));
            }
            // The compiled engine must keep executing every block.
            if on.interpreted_blocks != 0 {
                failures.push(format!(
                    "{at}: {} interpreter fallbacks with residency on",
                    on.interpreted_blocks
                ));
            }
            // The sliding-window kernels must clear the 2x traffic gate
            // and actually exercise retention.
            if rc.gated {
                if traffic_ratio < target {
                    failures.push(format!(
                        "{at}: move-in traffic ratio {traffic_ratio:.2} below {target}"
                    ));
                }
                if on.residency_groups == 0 || on.retained_elems == 0 {
                    failures.push(format!("{at}: residency counters inactive"));
                }
            }
            runs.push(c.to_json([
                ("traffic_gated", rc.gated.into()),
                ("in_bytes_off", off_bytes.into()),
                ("in_bytes_on", on_bytes.into()),
                ("traffic_ratio", Json::fixed(traffic_ratio, 4)),
            ]));
        }
    }

    let body = Json::obj([("runs", runs.into()), ("traffic_target", target.into())]);
    conclude("residency", smoke, body, &failures);
}
