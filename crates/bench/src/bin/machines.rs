//! Machine-backend acceptance harness.
//!
//! Runs every built-in kernel's canonical (preset) mapping on the four
//! mapping-relevant machine descriptions (`gpu`, `cell`, `pim`,
//! `spatial`) and gates the claims the machine-description subsystem
//! ships with:
//!
//! * **bit-exact everywhere** — the same unchanged kernel produces the
//!   reference interpreter's exact output on all 4 machines × 5
//!   kernels (`POLYMEM_EXEC_CHECK=1` additionally cross-checks every
//!   block in-flight);
//! * **decisions diverge** — the §3 pipeline answers differently per
//!   machine: PIM (in-place compute) stages strictly fewer bytes than
//!   the GPU on at least two kernels (in fact zero everywhere), cell
//!   (mandatory local store) stages at least as much as the GPU on
//!   every kernel it stages;
//! * **the tuner diverges too** — the autotuned winner on the spatial
//!   machine (placement-priced NoC, 2 KB operand memories) differs
//!   from the GPU's winner on at least two kernels.
//!
//! Per-machine mapping decisions (staged bytes, scratchpad footprint,
//! modeled cycles, tune winner) are recorded in `BENCH_machines.json`.
//!
//! ```sh
//! cargo run --release -p polymem-bench --bin machines            # full
//! cargo run --release -p polymem-bench --bin machines -- --smoke # CI
//! ```

use polymem_bench::harness::{conclude, smoke_mode};
use polymem_core::smem::tune::MappingDesc;
use polymem_ir::{exec_program, ArrayStore};
use polymem_kernels::tunespace;
use polymem_machine::{desc, execute_blocked, tune, ExecStats, Json, MachineConfig, TuneOptions};

const KERNELS: [&str; 5] = ["matmul", "me", "jacobi", "jacobi2d", "conv2d"];
const MACHINES: [&str; 4] = ["gpu", "cell", "pim", "spatial"];

/// One kernel × machine execution of the canonical preset mapping.
struct RunRow {
    kernel: &'static str,
    machine: &'static str,
    exact: bool,
    word_bytes: u64,
    stats: ExecStats,
}

impl RunRow {
    /// Bytes staged into local memory across the launch (the mapping
    /// decision under test: 0 when Algorithm 1 declines every group).
    fn moved_in_bytes(&self) -> u64 {
        self.stats.moved_in * self.word_bytes
    }

    fn moved_out_bytes(&self) -> u64 {
        self.stats.moved_out * self.word_bytes
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("kernel", self.kernel.into()),
            ("machine", self.machine.into()),
            ("exact", self.exact.into()),
            ("moved_in_bytes", self.moved_in_bytes().into()),
            ("moved_out_bytes", self.moved_out_bytes().into()),
            ("stats", self.stats.to_json()),
        ])
    }
}

/// One kernel × machine autotune outcome.
struct TuneRow {
    kernel: &'static str,
    machine: &'static str,
    /// The winning mapping, compared across machines by gate 4.
    winner: MappingDesc,
    winner_cycles: u64,
    simulated: usize,
    total: usize,
}

impl TuneRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kernel", self.kernel.into()),
            ("machine", self.machine.into()),
            ("winner", self.winner.label().into()),
            ("winner_cycles", self.winner_cycles.into()),
            ("simulated", self.simulated.into()),
            ("candidates", self.total.into()),
        ])
    }
}

fn machine_config(name: &str) -> MachineConfig {
    desc::lookup(name).expect("registered machine").config()
}

fn run_preset(name: &'static str, mlabel: &'static str, size: i64) -> RunRow {
    let cfg = machine_config(mlabel);
    let (program, params, out) = tunespace::workload(name, size).expect("workload");
    let mut reference = ArrayStore::for_program(&program, &params).expect("store");
    tunespace::init_store(name, &mut reference, 42);
    let mut st = reference.clone();
    exec_program(&program, &params, &mut reference).expect("reference run");

    let cands = tunespace::candidates(name, &cfg, true).expect("candidate space");
    let preset = cands.iter().find(|c| c.preset).expect("pinned preset");
    let stats = execute_blocked(&preset.kernel, &params, &mut st, &cfg, true)
        .unwrap_or_else(|e| panic!("{name} on {mlabel}: {e}"));
    let exact = st.data(out).expect("output") == reference.data(out).expect("output");
    RunRow {
        kernel: name,
        machine: mlabel,
        exact,
        word_bytes: cfg.word_bytes,
        stats,
    }
}

fn tune_machine(name: &'static str, mlabel: &'static str, size: i64, dir: &str) -> TuneRow {
    let mut cfg = machine_config(mlabel);
    cfg.artifact_dir = Some(dir.to_string());
    let cands = tunespace::candidates(name, &cfg, true).expect("candidate space");
    let (program, params, _) = tunespace::workload(name, size).expect("workload");
    let init = |st: &mut ArrayStore| tunespace::init_store(name, st, 42);
    let opts = TuneOptions {
        space_label: format!("bench-machines:{name}"),
        ..TuneOptions::default()
    };
    let out = tune(&program, &params, &init, &cands, &cfg, &opts)
        .unwrap_or_else(|e| panic!("tune {name} on {mlabel}: {e}"));
    TuneRow {
        kernel: name,
        machine: mlabel,
        winner: out.winner,
        winner_cycles: out.winner_cycles,
        simulated: out.simulated,
        total: out.total,
    }
}

fn main() {
    let smoke = smoke_mode();
    let mode = if smoke { "smoke" } else { "full" };
    let size = if smoke { 8 } else { 16 };
    let check = std::env::var("POLYMEM_EXEC_CHECK").is_ok_and(|v| v == "1");

    let dir = std::env::temp_dir().join("polymem_bench_machines");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("artifact dir");
    let dir_s = dir.to_str().expect("utf8 temp dir").to_string();

    println!(
        "machine-backend acceptance harness ({mode} mode{})\n",
        if check { ", oracle cross-check on" } else { "" }
    );

    // Phase 1: the unchanged canonical mapping, bit-exact on every
    // machine, with the per-machine staging decisions recorded.
    let mut runs = Vec::new();
    for &name in &KERNELS {
        for &mlabel in &MACHINES {
            let r = run_preset(name, mlabel, size);
            println!(
                "{:<9} [{:<7}] exact: {:<3}  staged in/out {:>7}/{:>7} B  \
                 smem {:>5} words  {:>12} cycles",
                r.kernel,
                r.machine,
                if r.exact { "yes" } else { "NO" },
                r.moved_in_bytes(),
                r.moved_out_bytes(),
                r.stats.max_smem_words,
                r.stats.modeled_cycles,
            );
            runs.push(r);
        }
    }

    // Phase 2: the autotuner over the same candidate space per
    // machine — the spatial machine's placement-priced cost model and
    // tiny operand memories must move the winner.
    println!();
    let mut tunes = Vec::new();
    for &name in &KERNELS {
        for &mlabel in &MACHINES {
            let t = tune_machine(name, mlabel, size, &dir_s);
            println!(
                "tune {:<9} [{:<7}] winner {:<40} {:>12} cycles  ({}/{} simulated)",
                t.kernel,
                t.machine,
                t.winner.label(),
                t.winner_cycles,
                t.simulated,
                t.total,
            );
            tunes.push(t);
        }
    }

    let mut failures = Vec::new();

    // Gate 1: bit-exactness, 4 machines × 5 kernels.
    for r in &runs {
        if !r.exact {
            failures.push(format!(
                "{}[{}]: output diverged from the reference interpreter",
                r.kernel, r.machine
            ));
        }
    }

    // Gate 2: PIM runs in place — zero staged bytes, and strictly
    // fewer than the GPU on at least two kernels.
    let moved = |machine: &str, kernel: &str| {
        runs.iter()
            .find(|r| r.machine == machine && r.kernel == kernel)
            .map(|r| r.moved_in_bytes())
            .unwrap_or(0)
    };
    let mut pim_strictly_fewer = 0usize;
    for &name in &KERNELS {
        let pim = moved("pim", name);
        if pim != 0 {
            failures.push(format!(
                "{name}[pim]: staged {pim} B despite in-place compute"
            ));
        }
        if pim < moved("gpu", name) {
            pim_strictly_fewer += 1;
        }
    }
    if pim_strictly_fewer < 2 {
        failures.push(format!(
            "pim staged strictly fewer bytes than gpu on only {pim_strictly_fewer} kernels (< 2)"
        ));
    }

    // Gate 3: cell's mandatory local store stages at least as much as
    // the GPU's benefit-gated staging wherever the GPU stages at all.
    for &name in &KERNELS {
        let (gpu, cell) = (moved("gpu", name), moved("cell", name));
        if cell < gpu {
            failures.push(format!(
                "{name}[cell]: must-stage moved {cell} B < gpu's {gpu} B"
            ));
        }
    }

    // Gate 4: the spatial machine's tuned winner differs from the
    // GPU's on at least two kernels.
    let winner = |machine: &str, kernel: &str| {
        tunes
            .iter()
            .find(|t| t.machine == machine && t.kernel == kernel)
            .map(|t| &t.winner)
    };
    let mut spatial_divergent = 0usize;
    for &name in &KERNELS {
        if winner("spatial", name) != winner("gpu", name) {
            spatial_divergent += 1;
        }
    }
    if spatial_divergent < 2 {
        failures.push(format!(
            "spatial tune winner matched gpu's on all but {spatial_divergent} kernels (need >= 2 divergent)"
        ));
    }

    let body = Json::obj([
        ("runs", runs.iter().map(RunRow::to_json).collect()),
        ("tunes", tunes.iter().map(TuneRow::to_json).collect()),
    ]);
    conclude("machines", smoke, body, &failures);
}
