//! Autotuner acceptance harness.
//!
//! Runs `machine::tune` over the pinned candidate spaces
//! (`tunespace`) for the built-in kernels on the GPU and Cell machine
//! models and gates the four claims the tuner ships with:
//!
//! * **tuned beats preset** — the winner's simulated modeled cycles
//!   are never worse than the hand-picked preset mapping's on any
//!   kernel × machine pair, and strictly better on at least two pairs;
//! * **pruning works** — on the matmul and ME smoke spaces the
//!   cost-model-pruned search simulates at least 5× fewer candidates
//!   than an exhaustive sweep while finding a winner with the same
//!   simulated cycles;
//! * **artifacts close the loop** — an immediate re-tune with the same
//!   artifact store answers from the persisted `TuneArtifact`
//!   (`plan_source == "artifact"`, zero simulations, same winner);
//! * **everything simulated is bit-exact** — every candidate the
//!   search simulated matched the reference interpreter exactly.
//!
//! The predicted-vs-simulated Spearman rank correlation over the
//! simulated frontier is recorded per run (reported, not gated — the
//! frontier is small and ties are common).
//!
//! ```sh
//! cargo run --release -p polymem-bench --bin tune            # full
//! cargo run --release -p polymem-bench --bin tune -- --smoke # CI
//! ```
//!
//! `POLYMEM_EXEC_CHECK=1` runs the reference interpreter beside every
//! simulated block; the CI job sets it. All gated quantities are
//! deterministic counters. Writes `BENCH_tune.json`; exits non-zero on
//! any gate failure.

use polymem_bench::harness::{conclude, smoke_mode};
use polymem_ir::ArrayStore;
use polymem_kernels::tunespace;
use polymem_machine::{tune, Json, MachineConfig, TuneOptions, TuneOutcome};

const KERNELS_FULL: [&str; 5] = ["matmul", "me", "jacobi", "jacobi2d", "conv2d"];
const KERNELS_SMOKE: [&str; 2] = ["matmul", "me"];

fn machines(dir: &str) -> [(&'static str, MachineConfig); 2] {
    let mut gpu = MachineConfig::geforce_8800_gtx();
    gpu.artifact_dir = Some(dir.to_string());
    let mut cell = MachineConfig::cell_like();
    cell.artifact_dir = Some(dir.to_string());
    [("gpu", gpu), ("cell", cell)]
}

fn tune_kernel(
    name: &str,
    base: &MachineConfig,
    smoke: bool,
    size: i64,
    opts: &TuneOptions,
) -> TuneOutcome {
    let cands = tunespace::candidates(name, base, smoke).expect("candidate space");
    let (program, params, _) = tunespace::workload(name, size).expect("workload");
    let init = |st: &mut ArrayStore| tunespace::init_store(name, st, 42);
    tune(&program, &params, &init, &cands, base, opts).expect("tune succeeds")
}

/// Average-tie ranks of `v` (1-based).
fn ranks(v: &[f64]) -> Vec<f64> {
    let n = v.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
    let mut r = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && v[idx[j + 1]] == v[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            r[k] = avg;
        }
        i = j + 1;
    }
    r
}

/// Spearman rank correlation; `None` when degenerate (fewer than two
/// points, or either side constant).
fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let (rx, ry) = (ranks(xs), ranks(ys));
    let n = xs.len() as f64;
    let (mx, my) = (rx.iter().sum::<f64>() / n, ry.iter().sum::<f64>() / n);
    let (mut num, mut dx, mut dy) = (0.0, 0.0, 0.0);
    for i in 0..xs.len() {
        let (a, b) = (rx[i] - mx, ry[i] - my);
        num += a * b;
        dx += a * a;
        dy += b * b;
    }
    if dx == 0.0 || dy == 0.0 {
        return None;
    }
    Some(num / (dx * dy).sqrt())
}

struct RunResult {
    kernel: &'static str,
    machine: &'static str,
    total: usize,
    simulated: usize,
    preset_cycles: Option<u64>,
    tuned_cycles: u64,
    winner: String,
    spearman: Option<f64>,
    all_exact: bool,
    warm_source: &'static str,
    warm_simulated: usize,
    warm_same_winner: bool,
}

struct PruneResult {
    kernel: &'static str,
    machine: &'static str,
    exhaustive_simulated: usize,
    pruned_simulated: usize,
    same_winner: bool,
}

impl RunResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kernel", self.kernel.into()),
            ("machine", self.machine.into()),
            ("candidates", self.total.into()),
            ("simulated", self.simulated.into()),
            ("preset_cycles", self.preset_cycles.into()),
            ("tuned_cycles", self.tuned_cycles.into()),
            ("winner", self.winner.as_str().into()),
            ("spearman", self.spearman.map(|r| Json::fixed(r, 4)).into()),
            ("all_exact", self.all_exact.into()),
            ("warm_plan_source", self.warm_source.into()),
            ("warm_simulated", self.warm_simulated.into()),
            ("warm_same_winner", self.warm_same_winner.into()),
        ])
    }
}

impl PruneResult {
    fn ratio(&self) -> f64 {
        self.exhaustive_simulated as f64 / self.pruned_simulated.max(1) as f64
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("kernel", self.kernel.into()),
            ("machine", self.machine.into()),
            ("exhaustive_simulated", self.exhaustive_simulated.into()),
            ("pruned_simulated", self.pruned_simulated.into()),
            ("ratio", Json::fixed(self.ratio(), 2)),
            ("same_winner", self.same_winner.into()),
        ])
    }
}

fn main() {
    let smoke = smoke_mode();
    let mode = if smoke { "smoke" } else { "full" };
    let kernels: &[&'static str] = if smoke { &KERNELS_SMOKE } else { &KERNELS_FULL };
    let size = if smoke { 8 } else { 16 };
    let check = std::env::var("POLYMEM_EXEC_CHECK").is_ok_and(|v| v == "1");

    let dir = std::env::temp_dir().join("polymem_bench_tune");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("artifact dir");
    let dir_s = dir.to_str().expect("utf8 temp dir").to_string();

    println!(
        "autotuner acceptance harness ({mode} mode{})\n",
        if check { ", oracle cross-check on" } else { "" }
    );

    let mut runs = Vec::new();
    for &name in kernels {
        for (mlabel, base) in machines(&dir_s) {
            let opts = TuneOptions {
                space_label: format!("bench:{name}"),
                ..TuneOptions::default()
            };
            let cold = tune_kernel(name, &base, smoke, size, &opts);
            let warm = tune_kernel(name, &base, smoke, size, &opts);

            let preset_cycles = cold
                .rows
                .iter()
                .find(|r| r.preset)
                .and_then(|r| r.simulated);
            let simmed: Vec<&_> = cold.rows.iter().filter(|r| r.simulated.is_some()).collect();
            let rho = spearman(
                &simmed
                    .iter()
                    .map(|r| r.predicted as f64)
                    .collect::<Vec<_>>(),
                &simmed
                    .iter()
                    .map(|r| r.simulated.unwrap() as f64)
                    .collect::<Vec<_>>(),
            );
            let r = RunResult {
                kernel: name,
                machine: mlabel,
                total: cold.total,
                simulated: cold.simulated,
                preset_cycles,
                tuned_cycles: cold.winner_cycles,
                winner: cold.winner.label(),
                spearman: rho,
                all_exact: cold.rows.iter().all(|r| r.simulated.is_none() || r.exact),
                warm_source: warm.plan_source,
                warm_simulated: warm.simulated,
                warm_same_winner: warm.winner == cold.winner
                    && warm.winner_cycles == cold.winner_cycles,
            };
            println!(
                "{:<9} [{:<4}] {:>3} candidates, {:>2} simulated  preset {:>8}  tuned {:>8} ({})  \
                 spearman {}  warm: {}/{} sims",
                r.kernel,
                r.machine,
                r.total,
                r.simulated,
                r.preset_cycles
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "-".into()),
                r.tuned_cycles,
                r.winner,
                r.spearman.map_or("null".into(), |rho| format!("{rho:.4}")),
                r.warm_source,
                r.warm_simulated,
            );
            runs.push(r);
        }
    }

    // Pruning acceptance on the smoke spaces (bounded even in full
    // mode): exhaustive sweep vs the pruned frontier, forced past the
    // artifact store so both genuinely search.
    println!();
    let mut prunes = Vec::new();
    for name in ["matmul", "me"] {
        for (mlabel, base) in machines(&dir_s) {
            let ex = tune_kernel(
                name,
                &base,
                true,
                8,
                &TuneOptions {
                    exhaustive: true,
                    force: true,
                    space_label: format!("bench:{name}:ex"),
                    ..TuneOptions::default()
                },
            );
            let pr = tune_kernel(
                name,
                &base,
                true,
                8,
                &TuneOptions {
                    top_k: 2,
                    force: true,
                    space_label: format!("bench:{name}:pruned"),
                    ..TuneOptions::default()
                },
            );
            let p = PruneResult {
                kernel: name,
                machine: mlabel,
                exhaustive_simulated: ex.simulated,
                pruned_simulated: pr.simulated,
                same_winner: pr.winner_cycles == ex.winner_cycles,
            };
            println!(
                "prune {:<9} [{:<4}] exhaustive {:>3} sims vs pruned {:>2} ({:>5.1}x)  same winner: {}",
                p.kernel,
                p.machine,
                p.exhaustive_simulated,
                p.pruned_simulated,
                p.ratio(),
                if p.same_winner { "yes" } else { "NO" },
            );
            prunes.push(p);
        }
    }

    let mut failures = Vec::new();

    let mut strictly_better = 0usize;
    for r in &runs {
        match r.preset_cycles {
            None => failures.push(format!(
                "{}[{}]: preset mapping was not simulated",
                r.kernel, r.machine
            )),
            Some(p) => {
                if r.tuned_cycles > p {
                    failures.push(format!(
                        "{}[{}]: tuned {} cycles worse than preset {}",
                        r.kernel, r.machine, r.tuned_cycles, p
                    ));
                }
                if r.tuned_cycles < p {
                    strictly_better += 1;
                }
            }
        }
        if r.simulated == 0 || r.simulated >= r.total {
            failures.push(format!(
                "{}[{}]: pruning inactive ({} of {} simulated)",
                r.kernel, r.machine, r.simulated, r.total
            ));
        }
        if !r.all_exact {
            failures.push(format!(
                "{}[{}]: a simulated candidate diverged from the reference",
                r.kernel, r.machine
            ));
        }
        if r.warm_source != "artifact" || r.warm_simulated != 0 {
            failures.push(format!(
                "{}[{}]: warm re-tune re-searched ({}, {} sims)",
                r.kernel, r.machine, r.warm_source, r.warm_simulated
            ));
        }
        if !r.warm_same_winner {
            failures.push(format!(
                "{}[{}]: warm winner differs from cold",
                r.kernel, r.machine
            ));
        }
    }
    if strictly_better < 2 {
        failures.push(format!(
            "tuned strictly beat the preset on only {strictly_better} kernel-machine pairs (< 2)"
        ));
    }

    for p in &prunes {
        if p.ratio() < 5.0 {
            failures.push(format!(
                "prune {}[{}]: only {:.1}x fewer simulations (< 5x)",
                p.kernel,
                p.machine,
                p.ratio()
            ));
        }
        if !p.same_winner {
            failures.push(format!(
                "prune {}[{}]: pruned search missed the exhaustive optimum",
                p.kernel, p.machine
            ));
        }
    }

    let body = Json::obj([
        ("runs", runs.iter().map(RunResult::to_json).collect()),
        ("prune", prunes.iter().map(PruneResult::to_json).collect()),
    ]);
    conclude("tune", smoke, body, &failures);
}
