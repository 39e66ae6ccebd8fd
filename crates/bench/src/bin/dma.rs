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

use polymem_bench::harness::{conclude, smoke_mode, sweep, Case};
use polymem_kernels::{conv2d, jacobi, jacobi2d, matmul, me};
use polymem_machine::{ExecStats, Json, MachineConfig};

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

fn element_moves(s: &ExecStats) -> u64 {
    s.moved_in + s.moved_out
}

/// Every word that crosses the global-memory interface: DMA-staged
/// moves and the per-element reads/writes of unstaged references.
fn global_bytes(s: &ExecStats, word_bytes: u64) -> u64 {
    (element_moves(s) + s.global_reads + s.global_writes) * word_bytes
}

fn main() {
    let smoke = smoke_mode();
    let mode = if smoke { "smoke" } else { "full" };
    let ratio_target = 10.0;

    println!("dma transfer-engine harness ({mode} mode)\n");
    let cases = cases(smoke);
    let machines = [
        ("gpu", MachineConfig::geforce_8800_gtx()),
        ("cell", MachineConfig::cell_like()),
    ];
    let modes: [(_, fn(&mut MachineConfig)); 2] = [
        ("sync", |c| c.double_buffer = false),
        ("double_buffer", |c| c.double_buffer = true),
    ];

    let mut failures = Vec::new();
    let mut runs = Vec::new();
    let (mut moves, mut descs) = (0u64, 0u64);
    for c in sweep(&cases, &machines, &modes, 1) {
        let (off, on) = (&c.stats[0], &c.stats[1]);
        let at = format!("{}[{}]", c.kernel, c.machine);
        let has_seq = cases
            .iter()
            .any(|k| k.name == c.kernel && !k.kernel.seq_dims.is_empty());
        // Modeled-time ratio, synchronous over double-buffered (>1
        // means the overlap helped).
        let improvement = off.modeled_cycles as f64 / on.modeled_cycles.max(1) as f64;
        let (off_bytes, on_bytes) = (
            global_bytes(off, c.word_bytes),
            global_bytes(on, c.word_bytes),
        );
        println!(
            "{:<9} [{:<4}] modeled {:>9} -> {:>9} cycles ({:4.2}x)  moves {:>6} descs {:>5} ({:5.1} B/desc)  overlap {:4.1}%  groups {}+{}  bit-exact: {}",
            c.kernel,
            c.machine,
            off.modeled_cycles,
            on.modeled_cycles,
            improvement,
            element_moves(on),
            on.dma.descriptors,
            on.dma.mean_descriptor_bytes(),
            100.0 * on.dma.overlap_fraction(),
            on.overlap_groups,
            on.sync_groups,
            if c.bit_exact { "yes" } else { "NO" },
        );
        println!(
            "{:<9} [{:<4}] global traffic {off_bytes} bytes sync / {on_bytes} bytes double-buffered",
            c.kernel, c.machine,
        );

        // Everything bit-exact, both modes, both machines.
        if !c.bit_exact {
            failures.push(format!("{at}: output mismatch"));
        }
        // Traffic accounting in bytes: every staged element crosses the
        // global interface through exactly one coalesced descriptor, so
        // descriptor bytes must equal element-move bytes; and
        // overlapping the transfers (double buffering) must not change
        // how many bytes touch global memory.
        for (mode, s) in [("sync", off), ("dbuf", on)] {
            let move_bytes = element_moves(s) * c.word_bytes;
            if s.dma.bytes != move_bytes {
                failures.push(format!(
                    "{}[{} {mode}]: descriptor bytes {} != element-move bytes {move_bytes}",
                    c.kernel, c.machine, s.dma.bytes
                ));
            }
        }
        if off_bytes != on_bytes {
            failures.push(format!(
                "{at}: double buffering changed global traffic ({off_bytes} -> {on_bytes} bytes)"
            ));
        }
        // Double buffering must improve modeled time on the two kernels
        // the paper's pipelining discussion centres on.
        if ["jacobi2d", "matmul"].contains(&c.kernel) && on.modeled_cycles >= off.modeled_cycles {
            failures.push(format!(
                "{at}: no modeled-time improvement ({} -> {})",
                off.modeled_cycles, on.modeled_cycles
            ));
        }
        // Every seq-mapped kernel must actually overlap transfers.
        if has_seq {
            if on.overlap_groups == 0 {
                failures.push(format!("{at}: no prefetches issued"));
            }
            if on.dma.overlap_fraction() <= 0.0 {
                failures.push(format!("{at}: zero overlap fraction"));
            }
        }
        // The round-only 1-D Jacobi exercises the fallback:
        // double_buffer on, nothing to pipeline, still bit-exact with
        // zero prefetches.
        if c.kernel == "jacobi" && on.overlap_groups != 0 {
            failures.push(format!("{at}: round-only kernel should not prefetch"));
        }
        moves += element_moves(on);
        descs += on.dma.descriptors;
        runs.push(c.to_json([
            ("has_seq", has_seq.into()),
            ("element_moves_sync", element_moves(off).into()),
            ("element_moves_double_buffer", element_moves(on).into()),
            ("global_bytes_sync", off_bytes.into()),
            ("global_bytes_double_buffer", on_bytes.into()),
            ("modeled_improvement", Json::fixed(improvement, 4)),
        ]));
    }

    // Coalescing: aggregate element moves over DMA descriptors (the
    // per-element baseline would issue one operation per element).
    let coalesce_ratio = moves as f64 / descs.max(1) as f64;
    println!(
        "\ncoalescing: {moves} element moves in {descs} descriptors ({coalesce_ratio:.1}x, target >= {ratio_target}x)"
    );
    if coalesce_ratio < ratio_target {
        failures.push(format!(
            "coalesce ratio {coalesce_ratio:.1} below {ratio_target}"
        ));
    }

    let body = Json::obj([
        ("runs", runs.into()),
        ("coalesce_ratio", Json::fixed(coalesce_ratio, 2)),
        ("coalesce_target", ratio_target.into()),
    ]);
    conclude("dma", smoke, body, &failures);
}
