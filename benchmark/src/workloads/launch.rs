//! `launch-hier-gpu` and `launch-dma-cell`: kernel launches as
//! `polymem run` makes them, on the two ends of the executor.

use super::{pass_ms, report_passes, report_setup_ir, ScratchDir, Sweeper, Totals};
use crate::api::{self, ArrayStore, ExecStats, MachineConfig, PassProfiler, Workload};
use crate::metrics::Report;
use crate::trace::{named, per_group_ms, Span, Tracer};
use std::sync::Arc;

/// `(kernel, size)` lists and machine policy of the two workloads.
struct Spec {
    cases: &'static [(&'static str, i64)],
    machine: &'static str,
    double_buffer: bool,
    hierarchy: bool,
}

fn spec(workload: &str) -> Spec {
    match workload {
        // The CLI default policy: hierarchy on, residency on, compiled
        // engine, no double buffering. Register-frame compute carries
        // the executor's CPU time here.
        "launch-hier-gpu" => Spec {
            cases: &[
                ("me", 32),
                ("jacobi", 32),
                ("jacobi2d", 32),
                ("matmul", 32),
                ("conv2d", 32),
            ],
            machine: "gpu",
            double_buffer: false,
            hierarchy: true,
        },
        // Sequential-sub-tile mappings on a must-stage machine with
        // double buffering: the pipelined block driver, residency
        // deltas and the DMA model; move-in and move-out carry the CPU
        // time here.
        "launch-dma-cell" => Spec {
            cases: &[("me", 64), ("jacobi2d", 64), ("conv2d", 64), ("matmul", 32)],
            machine: "cell",
            double_buffer: true,
            hierarchy: false,
        },
        other => unreachable!("`{other}` is not a launch workload"),
    }
}

struct Case {
    name: &'static str,
    w: Workload,
    cfg: MachineConfig,
    /// The seeded inputs every launch starts from.
    init: ArrayStore,
    /// The checked array after the reference interpreter ran.
    reference: Vec<i64>,
}

/// Build one case: seeded store plus its reference output.
pub(super) fn seeded_reference(
    name: &str,
    w: &Workload,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(ArrayStore, Vec<i64>), String> {
    let init = tr.leaf("ir.store_init", || {
        ArrayStore::for_program(&w.program, &w.params).map(|mut st| {
            api::tunespace::init_store(name, &mut st, seed);
            st
        })
    });
    let init = init.map_err(|e| format!("{name}: store: {e}"))?;
    let reference = tr.leaf("ir.reference", || {
        let mut st = init.clone();
        api::exec_program(&w.program, &w.params, &mut st)
            .and_then(|()| st.data(w.check).map(<[i64]>::to_vec))
    });
    let reference = reference.map_err(|e| format!("{name}: reference interpreter: {e}"))?;
    Ok((init, reference))
}

/// Per-sweep sums the traced pass keeps beside its spans.
#[derive(Default)]
struct Kept {
    /// `PassKind` totals in ms, one row per traced sweep.
    pass_ms: Vec<[f64; 10]>,
    core_ms: Vec<f64>,
    /// Polyhedral-core counters of the last traced sweep.
    core: api::PolyCoreStats,
    /// Executor counters of the last traced sweep, summed over cases.
    stats: ExecStats,
    cycles_by_kernel: Vec<(&'static str, u64)>,
    // Probes.
    predicted_global_bytes: u64,
    buffers: u64,
    buffer_words: u64,
    artifact_bytes: u64,
}

pub struct Launch {
    cases: Vec<Case>,
    kept: Kept,
}

impl Launch {
    fn matches(c: &Case, st: &ArrayStore) -> bool {
        st.data(c.w.check).is_ok_and(|d| d == &c.reference[..])
    }
}

impl Sweeper for Launch {
    fn setup(workload: &str, seed: u64, tr: &mut Tracer) -> Result<Launch, String> {
        let sp = spec(workload);
        let mut cases = Vec::new();
        for &(name, size) in sp.cases {
            let w = api::resolve_workload(name, size, sp.double_buffer)
                .ok_or_else(|| format!("unknown kernel `{name}`"))?;
            let (init, reference) = seeded_reference(name, &w, seed, tr)?;
            cases.push(Case {
                name,
                w,
                cfg: api::cli_config(sp.machine, sp.double_buffer, sp.hierarchy),
                init,
                reference,
            });
        }
        Ok(Launch {
            cases,
            kept: Kept::default(),
        })
    }

    /// What `polymem run <kernel>` does per process: a cold polyhedral
    /// core, one profiled launch without a seed plan, the output
    /// compared with the reference interpreter's.
    fn sweep(&mut self) -> Totals {
        let mut t = Totals::default();
        for c in &self.cases {
            api::poly_core_reset();
            let mut st = c.init.clone();
            t.attempted += 1;
            match api::execute_blocked_profiled(
                &c.w.kernel,
                &c.w.params,
                &mut st,
                &c.cfg,
                true,
                None,
            ) {
                Ok(stats) if Self::matches(c, &st) => t.add_launch(&stats, &c.cfg),
                _ => t.failed += 1,
            }
        }
        t
    }

    /// The same launches split at the one seam the public API has:
    /// `warm_plan` (the §3 compile) then `execute_blocked_seeded` with
    /// that plan, so launch = plan + run.
    fn traced_sweep(&mut self, tr: &mut Tracer) -> Totals {
        let mut t = Totals::default();
        let mut passes = [0.0; 10];
        let mut core = api::PolyCoreStats::default();
        let mut sum = ExecStats::default();
        self.kept.cycles_by_kernel.clear();
        for c in &self.cases {
            t.attempted += 1;
            let profiler = PassProfiler::new();
            let (stats, _) = tr.span(&format!("op:{}", c.name), |tr| {
                api::poly_core_reset();
                let mut st = c.init.clone();
                let plan = tr
                    .leaf("smem.plan", || {
                        api::warm_plan(&c.w.kernel, &c.w.params, &c.cfg, Some(&profiler), None)
                    })
                    .ok()?
                    .map(|(sp, _)| sp);
                let run = tr.leaf("exec.run", || {
                    api::execute_blocked_seeded(
                        &c.w.kernel,
                        &c.w.params,
                        &mut st,
                        &c.cfg,
                        true,
                        Some(&profiler),
                        plan.as_ref(),
                    )
                });
                let ok = tr.leaf("check", || Self::matches(c, &st));
                run.ok().filter(|_| ok).map(|(stats, _)| stats)
            });
            let Some(stats) = stats else {
                t.failed += 1;
                continue;
            };
            t.add_launch(&stats, &c.cfg);
            let pc = api::poly_core_stats();
            core.core_ns += pc.core_ns;
            core.cache_hits += pc.cache_hits;
            core.cache_misses += pc.cache_misses;
            core.fm_rows_generated += pc.fm_rows_generated;
            core.fm_rows_pruned += pc.fm_rows_pruned;
            for (sum, ms) in passes.iter_mut().zip(pass_ms(&profiler)) {
                *sum += ms;
            }
            self.kept
                .cycles_by_kernel
                .push((c.name, stats.modeled_cycles));
            sum.absorb(&stats);
        }
        self.kept.pass_ms.push(passes);
        self.kept.core_ms.push(core.core_ms());
        self.kept.core = core;
        self.kept.stats = sum;
        t
    }

    /// Once per traced pass: what the plans look like (IR size after
    /// the passes, the estimator's traffic prediction for the same
    /// mapping) and what the artifact store costs for them.
    fn probes(&mut self, tr: &mut Tracer) -> Result<(), String> {
        const ARTIFACT_REPS: usize = 5;
        let dir = ScratchDir::new("artifact-probe").map_err(|e| format!("scratch dir: {e}"))?;
        let store = api::ArtifactStore::open(&dir.0).map_err(|e| format!("artifact store: {e}"))?;
        let mut arts = Vec::new();
        for c in &self.cases {
            let e = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", c.name);
            api::poly_core_reset();
            let shape = api::structure_of(&c.w.kernel, &c.w.params, &c.cfg)
                .map_err(|x| e("structure_of", &x))?;
            let plan: Option<Arc<api::SymbolicPlan>> =
                api::warm_plan(&c.w.kernel, &c.w.params, &c.cfg, None, None)
                    .map_err(|x| e("warm_plan", &x))?
                    .map(|(sp, _)| sp);
            let est = api::estimate(
                &c.w.kernel.program,
                plan.as_deref(),
                &c.w.params,
                &shape,
                &api::cost_constants(&c.cfg),
            )
            .map_err(|x| e("estimate", &x))?;
            self.kept.predicted_global_bytes += est.global_bytes;
            let Some(sp) = plan else { continue };
            let ext = sp
                .ext_params(&c.w.params, &shape.rep_first)
                .ok_or_else(|| {
                    e(
                        "plan",
                        &"representative block does not cover the fixed dims",
                    )
                })?;
            self.kept.buffers += sp.plan.buffers.len() as u64;
            self.kept.buffer_words += sp
                .plan
                .total_buffer_words(&ext)
                .map_err(|x| e("buffer words", &x))?;
            let key = api::plan_artifact_key(&c.w.kernel, &c.w.params, &c.cfg)
                .map_err(|x| e("plan key", &x))?
                .ok_or_else(|| e("plan key", &"launch stages nothing"))?;
            let art = api::PlanArtifact::build(&c.w.kernel.program, &sp, key, &ext)
                .map_err(|x| e("artifact build", &x))?;
            arts.push((c, art));
        }
        for rep in 0..ARTIFACT_REPS {
            tr.set_sweep(rep as u64);
            let (bytes, _) = tr.span("probe:artifact", |tr| -> Result<u64, String> {
                let mut bytes = 0;
                for (c, art) in &arts {
                    let path = tr
                        .leaf("artifact.save", || store.save(art))
                        .map_err(|x| format!("{}: artifact save: {x}", c.name))?;
                    bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
                    tr.leaf("artifact.load", || {
                        store.load(&art.key, &c.w.kernel.program)
                    })
                    .ok_or_else(|| format!("{}: saved artifact does not load", c.name))?;
                }
                Ok(bytes)
            });
            self.kept.artifact_bytes = bytes?;
        }
        Ok(())
    }

    fn layers(&self, spans: &[Span], r: &mut Report) -> f64 {
        let k = &self.kept;
        report_setup_ir(spans, r);
        r.time(
            "smem.plan_ms",
            &per_group_ms(spans, "sweep", named("smem.plan")),
        );
        r.time(
            "exec.run_ms",
            &per_group_ms(spans, "sweep", named("exec.run")),
        );

        // Not counts: parallel block workers race on the process-global
        // memo, so the core's counters differ a little from run to run.
        r.time("polycore.core_ms", &k.core_ms);
        r.info("polycore.memo_hit_ratio", k.core.hit_rate());
        r.info("polycore.fm_rows", k.core.fm_rows_generated as f64);
        r.info("polycore.fm_pruned", k.core.fm_rows_pruned as f64);

        report_passes(&k.pass_ms, 10, r);
        let cpu: f64 = super::PASS_METRICS[6..].iter().map(|n| r.value(n)).sum();
        let run = r.value("exec.run_ms");
        r.time_value("exec.cpu_over_wall", cpu / run);
        r.time_value(
            "exec.instances_per_s",
            k.stats.instances as f64 / (run / 1e3),
        );

        let s = &k.stats;
        let phases = s.compiled_blocks + s.interpreted_blocks;
        r.count("smem.buffers", k.buffers as f64);
        r.count("smem.buffer_words", k.buffer_words as f64);
        let us = |name| -> Vec<f64> {
            per_group_ms(spans, "probe:artifact", named(name))
                .iter()
                .map(|ms| ms * 1e3)
                .collect()
        };
        r.time("artifact.save_us", &us("artifact.save"));
        r.time("artifact.load_us", &us("artifact.load"));
        r.count("artifact.bytes", k.artifact_bytes as f64);
        r.count("exec.blocks", s.blocks as f64);
        r.count("exec.phases", phases as f64);
        r.count(
            "exec.compiled_share",
            s.compiled_blocks as f64 / phases as f64,
        );
        r.count("exec.fallbacks", s.fallback.total() as f64);
        r.count("exec.plan_cache_hits", s.plan_cache_hits as f64);
        r.count("exec.plan_cache_misses", s.plan_cache_misses as f64);
        for (kernel, cycles) in &k.cycles_by_kernel {
            r.count(&format!("model.cycles.{kernel}"), *cycles as f64);
        }
        model_counts(s, r);
        r.count(
            "model.predicted_global_bytes",
            k.predicted_global_bytes as f64,
        );
        r.value("smem.plan_ms") + run
    }
}

/// The modeled machine's counters out of summed [`ExecStats`].
pub(super) fn model_counts(s: &ExecStats, r: &mut Report) {
    r.count("model.block_cycles", s.block_cycles as f64);
    r.count("model.moved_in_elems", s.moved_in as f64);
    r.count("model.moved_out_elems", s.moved_out as f64);
    r.count("model.retained_elems", s.retained_elems as f64);
    r.count("model.delta_elems", s.delta_elems as f64);
    r.count("model.smem_loads_saved", s.smem_loads_saved as f64);
    r.count("model.reg_bytes_moved", s.reg_bytes_moved as f64);
    r.count("model.max_smem_words", s.max_smem_words as f64);
    r.count("dma.descriptors", s.dma.descriptors as f64);
    r.count("dma.bytes", s.dma.bytes as f64);
    r.count("dma.stall_cycles", s.dma.stall_cycles as f64);
    r.count("dma.busy_cycles", s.dma.total_busy_cycles() as f64);
    r.count("dma.overlap_fraction", s.dma.overlap_fraction());
}
