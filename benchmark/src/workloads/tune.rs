//! `tune-search`: the mapping autotuner on a cold polyhedral core —
//! compile-dominated, the workload `polycore`/`smem`/`tune` work shows
//! on and block execution barely does.

use super::launch::seeded_reference;
use super::{pass_ms, report_passes, report_setup_ir, Sweeper, Totals};
use crate::api::{
    self, ArrayStore, MachineConfig, PassProfiler, TuneCandidate, TuneOptions, TuneOutcome,
    Workload,
};
use crate::metrics::Report;
use crate::stats;
use crate::trace::{named, per_group_ms, Span, Tracer};

/// Kernels searched, at this problem size, on this machine.
const KERNELS: [&str; 3] = ["jacobi2d", "matmul", "me"];
const SIZE: i64 = 16;
const MACHINE: &str = "gpu";

struct Case {
    name: &'static str,
    /// Base program, parameters and checked array; `kernel` is unused
    /// by the search and holds the preset candidate's.
    w: Workload,
    cands: Vec<TuneCandidate>,
    seed: u64,
    /// Set-up's search result, re-executed and compared with the
    /// reference interpreter: what every later search must find again.
    verified: TuneOutcome,
    /// Global traffic of the verified winner's launch, in bytes.
    traffic_bytes: u64,
}

/// What the traced pass keeps beside its spans.
#[derive(Default)]
struct Kept {
    simulate_cpu_ms: Vec<f64>,
    simulate_ms: Vec<f64>,
    core_ms: Vec<f64>,
    core: api::PolyCoreStats,
    pass_ms: Vec<[f64; 10]>,
    /// The last traced sweep's outcomes, in case order.
    outcomes: Vec<TuneOutcome>,
    /// The estimator's traffic figure for each winner.
    predicted_global_bytes: u64,
}

pub struct Search {
    base: MachineConfig,
    cases: Vec<Case>,
    kept: Kept,
}

fn search(
    name: &'static str,
    w: &Workload,
    cands: &[TuneCandidate],
    seed: u64,
    base: &MachineConfig,
) -> Result<TuneOutcome, String> {
    api::tune(
        &w.program,
        &w.params,
        &move |st: &mut ArrayStore| api::tunespace::init_store(name, st, seed),
        cands,
        base,
        &TuneOptions::default(),
    )
    .map_err(|e| format!("{name}: tune: {e}"))
}

impl Case {
    fn search(&self, base: &MachineConfig) -> Result<TuneOutcome, String> {
        search(self.name, &self.w, &self.cands, self.seed, base)
    }

    /// A search is good when it searched, every simulated row matched
    /// the reference interpreter, and it found the verified winner.
    fn agrees(&self, out: &TuneOutcome) -> bool {
        out.plan_source == "search"
            && out.rows.iter().all(|r| r.exact)
            && out.winner == self.verified.winner
            && out.winner_cycles == self.verified.winner_cycles
    }
}

impl Sweeper for Search {
    fn setup(_workload: &str, seed: u64, tr: &mut Tracer) -> Result<Search, String> {
        // No artifact directory: every search searches.
        let base = api::machine(MACHINE);
        let mut cases = Vec::new();
        for name in KERNELS {
            let (program, params, check) = api::tunespace::workload(name, SIZE)
                .ok_or_else(|| format!("no workload `{name}`"))?;
            let cands = api::tunespace::candidates(name, &base, true)
                .ok_or_else(|| format!("no tune space for `{name}`"))?;
            let preset = cands.iter().find(|c| c.preset).unwrap_or(&cands[0]);
            let w = Workload {
                program,
                kernel: preset.kernel.clone(),
                params,
                check,
            };
            let (init, reference) = seeded_reference(name, &w, seed, tr)?;
            // Verify the search independently of its own checks:
            // rebuild the winner, launch it, compare with the
            // reference interpreter and with the cycles it reported.
            let verified = search(name, &w, &cands, seed, &base)?;
            let kernel = api::tunespace::build(name, &verified.winner)
                .ok_or_else(|| format!("{name}: winner does not rebuild"))?;
            let cfg = api::config_for(&verified.winner, &base);
            let mut st = init;
            let stats =
                api::execute_blocked_profiled(&kernel, &w.params, &mut st, &cfg, true, None)
                    .map_err(|e| format!("{name}: winner launch: {e}"))?;
            if st.data(check).map_err(|e| e.to_string())? != &reference[..] {
                return Err(format!("{name}: tuned winner differs from the reference"));
            }
            if stats.modeled_cycles != verified.winner_cycles {
                return Err(format!(
                    "{name}: winner launch took {} modeled cycles, the search reported {}",
                    stats.modeled_cycles, verified.winner_cycles
                ));
            }
            cases.push(Case {
                name,
                w,
                cands,
                seed,
                verified,
                traffic_bytes: (stats.global_reads + stats.global_writes) * cfg.word_bytes,
            });
        }
        Ok(Search {
            base,
            cases,
            kept: Kept::default(),
        })
    }

    /// What `polymem tune <kernel>` does, three kernels per sweep on
    /// one cold core.
    fn sweep(&mut self) -> Totals {
        let mut t = Totals::default();
        api::poly_core_reset();
        for c in &self.cases {
            t.attempted += 1;
            match c.search(&self.base) {
                Ok(out) if c.agrees(&out) => {
                    t.modeled_cycles += out.winner_cycles;
                    t.traffic_bytes += c.traffic_bytes;
                }
                _ => t.failed += 1,
            }
        }
        t
    }

    /// The searches again, each in a span; then, as probes, the parts
    /// `tune` does not return a time for, replayed through the same
    /// public functions on a core as cold as the search's was.
    fn traced_sweep(&mut self, tr: &mut Tracer) -> Totals {
        let mut t = Totals::default();
        api::poly_core_reset();
        self.kept.outcomes.clear();
        for c in &self.cases {
            t.attempted += 1;
            let out = tr
                .span(&format!("op:{}", c.name), |tr| {
                    tr.leaf("tune.search", || c.search(&self.base))
                })
                .0;
            match out {
                Ok(out) if c.agrees(&out) => {
                    t.modeled_cycles += out.winner_cycles;
                    t.traffic_bytes += c.traffic_bytes;
                    self.kept.outcomes.push(out);
                }
                _ => t.failed += 1,
            }
        }
        let core = api::poly_core_stats();
        self.kept.core_ms.push(core.core_ms());
        self.kept.core = core;
        // `sim_ns` are wall times of simulations that ran side by side
        // on the search's pool of min(8, frontier) threads: their sum is
        // a thread sum. Spread over the cores that pool can get, it
        // estimates the simulation phase's share of the search's wall.
        let cores = super::nproc();
        let (mut cpu, mut wall) = (0.0, 0.0);
        for out in &self.kept.outcomes {
            let sum = out.sim_ns.iter().flatten().sum::<u128>() as f64 / 1e6;
            cpu += sum;
            wall += sum / out.simulated.clamp(1, 8).min(cores) as f64;
        }
        self.kept.simulate_cpu_ms.push(cpu);
        self.kept.simulate_ms.push(wall);

        api::poly_core_reset();
        let profiler = PassProfiler::new();
        let mut predicted = 0;
        tr.span("probe:price", |tr| {
            for c in &self.cases {
                for cand in &c.cands {
                    let cfg = api::config_for(&cand.desc, &self.base);
                    let Ok(shape) = tr.leaf("tune.structure", || {
                        api::structure_of(&cand.kernel, &c.w.params, &cfg)
                    }) else {
                        continue;
                    };
                    let plan = if cand.kernel.use_scratchpad {
                        let warmed = tr.leaf("tune.plan", || {
                            api::warm_plan(&cand.kernel, &c.w.params, &cfg, Some(&profiler), None)
                        });
                        match warmed {
                            Ok(p) => p.map(|(sp, _)| sp),
                            Err(_) => continue,
                        }
                    } else {
                        None
                    };
                    let est = tr.leaf("tune.estimate", || {
                        api::estimate(
                            &cand.kernel.program,
                            plan.as_deref(),
                            &c.w.params,
                            &shape,
                            &api::cost_constants(&cfg),
                        )
                    });
                    if let (Ok(est), true) = (est, cand.desc == c.verified.winner) {
                        predicted += est.global_bytes;
                    }
                }
            }
        });
        self.kept.predicted_global_bytes = predicted;
        self.kept.pass_ms.push(pass_ms(&profiler));

        tr.span("probe:reference", |tr| {
            for c in &self.cases {
                tr.leaf("tune.reference", || {
                    let mut st = ArrayStore::for_program(&c.w.program, &c.w.params).ok()?;
                    api::tunespace::init_store(c.name, &mut st, c.seed);
                    api::exec_program(&c.w.program, &c.w.params, &mut st).ok()
                });
            }
        });
        t
    }

    fn layers(&self, spans: &[Span], r: &mut Report) -> f64 {
        let k = &self.kept;
        let sweep = |name: &'static str| per_group_ms(spans, "sweep", named(name));
        report_setup_ir(spans, r);

        r.time("polycore.core_ms", &k.core_ms);
        r.info("polycore.memo_hit_ratio", k.core.hit_rate());
        r.info("polycore.fm_rows", k.core.fm_rows_generated as f64);
        r.info("polycore.fm_pruned", k.core.fm_rows_pruned as f64);

        r.time("tune.price_ms", &sweep("probe:price"));
        r.time("tune.structure_ms", &sweep("tune.structure"));
        r.time("tune.plan_ms", &sweep("tune.plan"));
        r.time("tune.estimate_ms", &sweep("tune.estimate"));
        r.time("tune.simulate_cpu_ms", &k.simulate_cpu_ms);
        r.time("tune.simulate_ms", &k.simulate_ms);
        r.time("tune.reference_ms", &sweep("tune.reference"));
        // The smem layer's share of a search is the fresh plan each
        // candidate is priced from.
        r.time("smem.plan_ms", &sweep("tune.plan"));
        report_passes(&k.pass_ms, 6, r);

        let (mut total, mut simulated, mut infeasible) = (0, 0, 0);
        let (mut rho, mut err) = (Vec::new(), Vec::new());
        for (c, out) in self.cases.iter().zip(&k.outcomes) {
            total += out.total;
            simulated += out.simulated;
            infeasible += out.rows.iter().filter(|r| r.predicted == u64::MAX).count();
            let (pred, sim): (Vec<f64>, Vec<f64>) = out
                .rows
                .iter()
                .filter_map(|r| Some((r.predicted as f64, r.simulated? as f64)))
                .unzip();
            rho.extend(stats::spearman(&pred, &sim));
            err.push(
                (out.winner_predicted as f64 - out.winner_cycles as f64).abs()
                    / out.winner_cycles as f64,
            );
            r.count(
                &format!("model.cycles.{}", c.name),
                out.winner_cycles as f64,
            );
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        r.count("tune.candidates", total as f64);
        r.count("tune.simulated", simulated as f64);
        r.count("tune.infeasible", infeasible as f64);
        r.count(
            "tune.prune_ratio",
            (total - infeasible) as f64 / simulated as f64,
        );
        r.count("tune.spearman", mean(&rho));
        r.count("tune.winner_pred_err", mean(&err));
        r.count(
            "model.predicted_global_bytes",
            k.predicted_global_bytes as f64,
        );

        r.value("tune.price_ms") + r.value("tune.simulate_ms") + r.value("tune.reference_ms")
    }
}
