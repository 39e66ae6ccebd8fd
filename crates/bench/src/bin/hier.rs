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

use polymem_bench::harness::{conclude, seq_cases, smoke_mode, sweep};
use polymem_machine::{ExecStats, Json, MachineConfig};

/// Modeled scratchpad traffic: compute-phase accesses plus the level-2
/// staging reads/writes. This is the quantity the register level
/// exists to shrink.
fn smem_traffic(s: &ExecStats) -> u64 {
    s.smem_reads + s.smem_writes
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
    let cases = seq_cases(smoke);
    let machines = [
        ("gpu", MachineConfig::geforce_8800_gtx()),
        ("cell", MachineConfig::cell_like()),
    ];
    let modes: [(_, fn(&mut MachineConfig)); 2] = [
        ("off", |c| c.hierarchy = false),
        ("on", |c| c.hierarchy = true),
    ];

    let mut failures = Vec::new();
    let mut runs = Vec::new();
    for c in sweep(&cases, &machines, &modes, 3) {
        let (off, on) = (&c.stats[0], &c.stats[1]);
        // Scratchpad-traffic ratio, hierarchy-off over hierarchy-on
        // (>1 means the register level cut traffic), and the same for
        // modeled time.
        let traffic_reduction = smem_traffic(off) as f64 / smem_traffic(on).max(1) as f64;
        let modeled_improvement = off.modeled_cycles as f64 / on.modeled_cycles.max(1) as f64;
        println!(
            "{:<9} [{:<4}] smem {:>8} -> {:>8} ({:5.2}x)  saved {:>7}  reg B {:>8}  groups {:>5}  modeled {:4.2}x  bit-exact: {}",
            c.kernel,
            c.machine,
            smem_traffic(off),
            smem_traffic(on),
            traffic_reduction,
            on.smem_loads_saved,
            on.reg_bytes_moved,
            on.hier_groups,
            modeled_improvement,
            if c.bit_exact { "yes" } else { "NO" },
        );
        // Both modes bit-exact against the reference, every kernel,
        // both machines.
        if !c.bit_exact {
            failures.push(format!("{}[{}]: output mismatch", c.kernel, c.machine));
        }
        // The traffic gate: the register level must cut modeled
        // scratchpad traffic at least `target`x on matmul and ME, and
        // must actually have staged frames to do it. Deterministic
        // counters — gated in smoke mode too.
        if ["matmul", "me"].contains(&c.kernel) {
            let at = format!("{}[{}]", c.kernel, c.machine);
            if on.hier_groups == 0 {
                failures.push(format!("{at}: no register frames staged"));
            }
            if on.smem_loads_saved == 0 {
                failures.push(format!("{at}: no scratchpad loads saved"));
            }
            if traffic_reduction < target {
                failures.push(format!(
                    "{at}: traffic reduction {traffic_reduction:.2}x below {target}x"
                ));
            }
            // Less scratchpad traffic at identical functional global
            // traffic can only lower the modeled time.
            if on.modeled_cycles > off.modeled_cycles {
                failures.push(format!(
                    "{at}: modeled time regressed ({} -> {})",
                    off.modeled_cycles, on.modeled_cycles
                ));
            }
        }
        runs.push(c.to_json([
            ("smem_traffic_off", smem_traffic(off).into()),
            ("smem_traffic_on", smem_traffic(on).into()),
            ("traffic_reduction", Json::fixed(traffic_reduction, 4)),
            ("modeled_improvement", Json::fixed(modeled_improvement, 4)),
        ]));
    }

    let body = Json::obj([("runs", runs.into()), ("traffic_target", target.into())]);
    conclude("hier", smoke, body, &failures);
}
