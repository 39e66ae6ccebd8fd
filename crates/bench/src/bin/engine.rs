//! Engine harness: compiled execution × register-tile hierarchy.
//!
//! Runs the five built-in kernels on the GPU and Cell machine models
//! in the four cells of the engine × register-level grid —
//!
//! * **interp**: per-point interpreter, scratchpad-only staging;
//! * **compiled**: the compiled engine (bytecode bodies + strided
//!   address streams), scratchpad-only staging;
//! * **interp_hier** / **compiled_hier**: the same two engines with the
//!   register-tile level on (`MachineConfig::hierarchy`: the §3
//!   pipeline re-run over the intra-thread subnest, staging
//!   per-inner-process register frames) —
//!
//! and checks, per kernel and machine:
//!
//! * every mode's output is bit-exact against the reference
//!   interpreter;
//! * the two engines' `ExecStats` are equal at each hierarchy setting
//!   (equality ignores only engine attribution: same traffic, same
//!   frames, same modeled cycles);
//! * with the hierarchy on, the compiled engine ran compiled blocks
//!   (the engine is total: a block it cannot run is a launch error,
//!   never a silent drop to the interpreter);
//! * on matmul and ME, the kernels whose inner-process reuse the
//!   paper's recursion argument centres on: the register level staged
//!   frames, saved scratchpad loads, cut modeled scratchpad traffic by
//!   at least 2x and did not raise modeled time. The engines' stats
//!   are equal, so this holds for the interpreter columns too;
//! * full mode only: the compiled engine speeds up the compute phase
//!   (the pass profiler's `compute` row, best of three) by at least 5x
//!   on matmul and jacobi2d, whose compute phases dominate. Smoke sizes
//!   finish in microseconds and measure the timer, so smoke mode
//!   reports the speedup without gating it.
//!
//! Every gate but the speedup is a deterministic counter and holds on
//! noisy CI runners. Writes `BENCH_engine.json`; exits non-zero on any
//! failure.
//!
//! ```sh
//! cargo run --release -p polymem-bench --bin engine            # full
//! cargo run --release -p polymem-bench --bin engine -- --smoke # CI
//! ```
//!
//! `POLYMEM_EXEC_CHECK=1` additionally runs the interpreter as an
//! oracle beside every compiled block (outside the timed window),
//! hierarchy blocks included, and panics on any divergence; the CI job
//! sets it.

use polymem_bench::harness::{conclude, seq_cases, smoke_mode, sweep, Cell};
use polymem_machine::{ExecStats, Json, MachineConfig};

/// A cell of the grid: which engine runs, whether the register level is on.
fn mode<const COMPILED: bool, const HIER: bool>(c: &mut MachineConfig) {
    (c.compiled_exec, c.hierarchy) = (COMPILED, HIER);
}

type Mode = (&'static str, fn(&mut MachineConfig));

/// The engine × register-level grid, in report order.
const MODES: [Mode; 4] = [
    ("interp", mode::<false, false>),
    ("compiled", mode::<true, false>),
    ("interp_hier", mode::<false, true>),
    ("compiled_hier", mode::<true, true>),
];

/// Full-mode floor on the compute-phase speedup, interp over compiled.
const SPEEDUP_TARGET: f64 = 5.0;
/// Floor on the scratchpad-traffic cut, compiled over compiled_hier.
const TRAFFIC_TARGET: f64 = 2.0;

/// Modeled scratchpad traffic: compute-phase accesses plus the
/// register-frame staging reads and writes. This is the quantity the
/// register level exists to shrink.
fn smem_traffic(s: &ExecStats) -> u64 {
    s.smem_reads + s.smem_writes
}

/// `a / b`, with a zero denominator read as one.
fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Compute-phase speedup: interp over compiled best-of-three compute
/// time, hierarchy off.
fn speedup(c: &Cell) -> f64 {
    c.compute[0].as_secs_f64() / c.compute[1].as_secs_f64().max(1e-9)
}

/// Scratchpad-traffic cut of the register level: compiled over
/// compiled_hier.
fn traffic_reduction(c: &Cell) -> f64 {
    ratio(smem_traffic(&c.stats[1]), smem_traffic(&c.stats[3]))
}

/// Modeled-time gain of the register level: compiled over
/// compiled_hier cycles.
fn modeled_improvement(c: &Cell) -> f64 {
    ratio(c.stats[1].modeled_cycles, c.stats[3].modeled_cycles)
}

/// The gates one cell fails, as printable messages.
fn failures(c: &Cell, smoke: bool) -> Vec<String> {
    let [interp, compiled, interp_hier, hier] = &c.stats[..] else {
        unreachable!("four modes")
    };
    let mut checks = vec![
        (c.bit_exact, "output mismatch".to_string()),
        (interp == compiled, "engines' stats differ".into()),
        (interp_hier == hier, "engines' stats differ (hier)".into()),
        (hier.compiled_blocks > 0, "no compiled blocks (hier)".into()),
    ];
    if ["matmul", "me"].contains(&c.kernel) {
        let reduction = traffic_reduction(c);
        checks.extend([
            (hier.hier_groups > 0, "no register frames staged".into()),
            (
                hier.smem_loads_saved > 0,
                "no scratchpad loads saved".into(),
            ),
            (
                reduction >= TRAFFIC_TARGET,
                format!("traffic reduction {reduction:.2}x below {TRAFFIC_TARGET}x"),
            ),
            // Less scratchpad traffic at identical global traffic can
            // only lower the modeled time.
            (
                hier.modeled_cycles <= compiled.modeled_cycles,
                format!(
                    "modeled time regressed ({} -> {})",
                    compiled.modeled_cycles, hier.modeled_cycles
                ),
            ),
        ]);
    }
    if !smoke && ["matmul", "jacobi2d"].contains(&c.kernel) {
        let s = speedup(c);
        checks.push((
            s >= SPEEDUP_TARGET,
            format!("compute speedup {s:.2}x below {SPEEDUP_TARGET}x"),
        ));
    }
    let at = format!("{}[{}]", c.kernel, c.machine);
    checks
        .into_iter()
        .filter(|(ok, _)| !ok)
        .map(|(_, what)| format!("{at}: {what}"))
        .collect()
}

fn main() {
    let smoke = smoke_mode();
    let mode = if smoke { "smoke" } else { "full" };
    let check = std::env::var("POLYMEM_EXEC_CHECK").is_ok_and(|v| v == "1");

    println!(
        "engine harness ({mode} mode{})\n",
        if check { ", oracle cross-check on" } else { "" }
    );
    let cases = seq_cases(smoke);
    let machines = [
        ("gpu", MachineConfig::geforce_8800_gtx()),
        ("cell", MachineConfig::cell_like()),
    ];

    let mut failed = Vec::new();
    let mut runs = Vec::new();
    for c in sweep(&cases, &machines, &MODES, 3) {
        let (compiled, hier) = (&c.stats[1], &c.stats[3]);
        println!(
            "{:<9} [{:<4}] compute {:>11} -> {:>10} ns ({:6.2}x)  smem {:>8} -> {:>8} ({:5.2}x)  \
             saved {:>7}  groups {:>5}  modeled {:4.2}x  blocks {:>4}c  bit-exact: {}",
            c.kernel,
            c.machine,
            c.compute[0].as_nanos(),
            c.compute[1].as_nanos(),
            speedup(&c),
            smem_traffic(compiled),
            smem_traffic(hier),
            traffic_reduction(&c),
            hier.smem_loads_saved,
            hier.hier_groups,
            modeled_improvement(&c),
            hier.compiled_blocks,
            if c.bit_exact { "yes" } else { "NO" },
        );
        failed.extend(failures(&c, smoke));
        runs.push(c.to_json([
            ("speedup", Json::fixed(speedup(&c), 2)),
            ("traffic_reduction", Json::fixed(traffic_reduction(&c), 4)),
            (
                "modeled_improvement",
                Json::fixed(modeled_improvement(&c), 4),
            ),
        ]));
    }

    let body = Json::obj([
        ("runs", runs.into()),
        ("speedup_target", SPEEDUP_TARGET.into()),
        ("traffic_target", TRAFFIC_TARGET.into()),
    ]);
    conclude("engine", smoke, body, &failed);
}
