//! Functional block-parallel execution of mapped kernels.
//!
//! [`execute_blocked`] runs a tiled program the way the paper's GPU
//! runs it: an outer sequence of *rounds* (values of the round dims,
//! with a device-wide barrier between consecutive rounds — the
//! inter-thread-block synchronisation of the Jacobi kernel), each
//! round launching a grid of *blocks* (values of the block dims) that
//! execute independently. Blocks may run on real parallel threads
//! (std scoped threads, one pool slot per simulated
//! multiprocessor); determinism is preserved by buffering each block's
//! global writes in an overlay that is merged in block order at the
//! end of its round — exactly the visibility rule of the hardware
//! (writes are not guaranteed visible to other blocks until the
//! barrier).
//!
//! With `use_scratchpad`, each block stages data through local buffers
//! using the full §3 pipeline — one symbolic analysis of the launch's
//! block shape, evaluated per sub-block: generated move-in code,
//! rewritten accesses, generated move-out code — so the executor is an
//! end-to-end test of the compiler: the test-suite compares final
//! array contents bit-exactly against the reference interpreter.
//!
//! One job per module: this one is the launch — the entry points, plan
//! warm-up, the launch record (`LaunchShared`) and the round loop with
//! its worker pool. `grid` enumerates rounds, blocks and sub-tiles;
//! `block` runs one block (staging, movement, register frames) on the
//! block clock of [`crate::dma`]; `compiled` is the engine and `oracle`
//! the per-point interpreter it is checked against; `stats` holds the
//! counters.

use crate::block::{execute_one_block, seq_facts};
use crate::compiled::{lower_code, StmtCode};
use crate::config::MachineConfig;
use crate::grid::{launch_grid, LaunchGrid};
use crate::overlay::Overlay;
use crate::stats::ExecStats;
use crate::trace::{PassKind, PassProfiler};
use crate::{MachineError, Result};
use polymem_core::smem::tune::CostConstants;
use polymem_core::smem::{
    analyze_symbolic_hier, parametrize_dims, plan_key, ArtifactKey, ArtifactStore, ExtSource,
    HierPlan, HierSpec, MovementCode, PlanArtifact, Schedule, SmemConfig, SmemPlan, SymbolicPlan,
};
use polymem_ir::exec::resolve_array_ids;
use polymem_ir::{ArrayStore, Program, Statement};
use polymem_poly::bounds::{bound_cascade, DimBounds};
use polymem_poly::{PolyError, Polyhedron};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A tiled program mapped onto the two-level machine.
#[derive(Clone, Debug)]
pub struct BlockedKernel {
    /// The tiled program.
    pub program: Program,
    /// Sequential dims with a device-wide barrier between values
    /// (outermost first). Empty for sync-free kernels like ME.
    pub round_dims: Vec<String>,
    /// Dims enumerated across thread blocks.
    pub block_dims: Vec<String>,
    /// Sequential sub-tile dims *inside* a block (the paper's middle
    /// tiling level, executed one sub-tile at a time to respect the
    /// scratchpad limit). Scratchpad staging then happens per
    /// sub-tile, with §4.2 hoisting: buffers none of whose references
    /// depend on these dims are staged once per block and written back
    /// once at the end.
    pub seq_dims: Vec<String>,
    /// Dims distributed across the *inner* processes (threads) of one
    /// block. With [`MachineConfig::hierarchy`] on, the §3 pipeline
    /// runs a second time over the intra-thread subnest and promotes
    /// reused scratchpad data into per-thread register frames
    /// (smem → reg move-in, reg → smem move-out). Empty = no register
    /// level.
    pub thread_dims: Vec<String>,
    /// Stage per-block data through scratchpad buffers (§3 pipeline).
    pub use_scratchpad: bool,
}

/// Where the launch's shared symbolic plan came from (see
/// [`execute_blocked_seeded`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanSource {
    /// The caller-provided in-memory seed (a compile service's warm
    /// cache) matched this launch's shape and was reused as-is.
    Seeded,
    /// Loaded from the content-addressed artifact store (envelope,
    /// decode and fit checked against the program).
    Artifact,
    /// Freshly analysed by the §3 pipeline this launch.
    Fresh,
}

/// A launch's shared symbolic plan together with where it came from —
/// what seeded entry points hand back for the caller's warm cache.
pub type WarmedPlan = (Arc<SymbolicPlan>, PlanSource);

/// Mapping-relevant machine-model fields folded into the plan
/// artifact key: everything that changes which symbolic plan a launch
/// computes or consumes. Performance-only knobs (latencies, clocks,
/// DMA shape) and the engine choice stay out, so neither retuning the
/// cost model nor switching engines invalidates compiled plans.
pub(crate) fn machine_salt(config: &MachineConfig) -> [u64; 8] {
    [
        // Capability bits replace the old machine-kind discriminant:
        // each flag changes what the §3 pipeline decides, so each gets
        // its own bit. Mesh geometry stays out (routes change cycles,
        // never plans).
        config.caps.must_stage as u64
            | (config.caps.in_place_compute as u64) << 1
            | (config.caps.placement_cost as u64) << 2
            | (config.caps.hardware_cache as u64) << 3,
        config.smem_bytes,
        config.word_bytes,
        config.double_buffer as u64,
        config.regs_per_inner,
        config.hierarchy as u64,
        config.residency as u64,
        config.partition as u64,
    ]
}

/// The representative sub-block a launch analyses symbolically: its
/// fixed dims as sorted `(dim, value)` pairs, plus the register-level
/// spec, if any.
pub type Representative = (Vec<(String, i64)>, Option<HierSpec>);

pub(crate) fn shape_error(op: &'static str) -> MachineError {
    MachineError::Poly(PolyError::SpaceMismatch { op })
}

/// The representative sub-block of a staged launch — what
/// [`warm_plan`] analyses, for reports that evaluate the plan at the
/// block it was analysed for. `None` when the mapping stages nothing
/// (no scratchpad, or no statements).
pub fn launch_representative(
    kernel: &BlockedKernel,
    params: &[i64],
    config: &MachineConfig,
) -> Result<Option<Representative>> {
    match kernel.program.stmts.first() {
        Some(lead) if kernel.use_scratchpad => {
            let grid = launch_grid(kernel, params, config, lead)?;
            Ok(Some(grid.representative(kernel, config)))
        }
        _ => Ok(None),
    }
}

/// The content address of the symbolic plan analysed at `pairs`: the
/// program IR, the mapping-relevant machine fields and the
/// representative block-shape parametrization, hashed per
/// `polymem_core::smem::artifact`.
fn shape_key(
    kernel: &BlockedKernel,
    params: &[i64],
    config: &MachineConfig,
    (pairs, hier): &Representative,
) -> ArtifactKey {
    plan_key(
        &kernel.program,
        &smem_config(params, config, kernel),
        pairs,
        hier.as_ref(),
        &machine_salt(config),
    )
}

/// The content address of the symbolic plan [`execute_blocked`] would
/// compile for this launch. `None` when the mapping stages nothing (no
/// scratchpad, or no statements). Stable across processes — a compile
/// service keys its warm cache and the on-disk store with it.
pub fn plan_artifact_key(
    kernel: &BlockedKernel,
    params: &[i64],
    config: &MachineConfig,
) -> Result<Option<ArtifactKey>> {
    Ok(launch_representative(kernel, params, config)?
        .map(|rep| shape_key(kernel, params, config, &rep)))
}

/// Obtain the shared symbolic plan [`execute_blocked`] would launch
/// with, without executing anything: a compile service's `analyze`
/// entry point. Consults the caller's `seed` and the configured
/// artifact store exactly like execution does — and persists fresh
/// analyses the same way — so a later `run` of the same launch finds
/// the plan warm. `None` when the mapping stages nothing.
pub fn warm_plan(
    kernel: &BlockedKernel,
    params: &[i64],
    config: &MachineConfig,
    profiler: Option<&PassProfiler>,
    seed: Option<&Arc<SymbolicPlan>>,
) -> Result<Option<WarmedPlan>> {
    kernel.program.validate()?;
    launch_representative(kernel, params, config)?
        .map(|rep| warm(kernel, params, config, &rep, profiler, seed))
        .transpose()
}

/// Obtain the symbolic plan of the launch's block shape, analysed at
/// the representative `rep`, cheapest source first:
///
/// 1. a caller-provided in-memory `seed` whose fixed names match
///    this shape (a compile service's warm cache);
/// 2. the content-addressed artifact store in
///    `config.artifact_dir` — a load checks the envelope, the decode
///    and the plan's fit to the program, so a corrupt or stale file
///    silently degrades to the next source;
/// 3. a fresh `analyze_symbolic_hier` run. Only this source
///    absorbs §3 pass times into the profiler (the others skipped
///    the passes) and, when a store is configured, persists the
///    result for future processes.
///
/// A failed analysis is the launch's error.
pub(crate) fn warm(
    kernel: &BlockedKernel,
    params: &[i64],
    config: &MachineConfig,
    rep: &Representative,
    profiler: Option<&PassProfiler>,
    seed: Option<&Arc<SymbolicPlan>>,
) -> Result<WarmedPlan> {
    let program = &kernel.program;
    let (pairs, hier) = rep;
    let store = config
        .artifact_dir
        .as_ref()
        .and_then(|d| ArtifactStore::open(d).ok());
    let same_shape = |sp: &SymbolicPlan| sp.fixed.iter().eq(pairs.iter().map(|p| &p.0));
    if let Some(sp) = seed.filter(|sp| same_shape(sp)) {
        return Ok((sp.clone(), PlanSource::Seeded));
    }
    // The content address is only computed for a store to look up.
    let store = store.map(|s| (s, shape_key(kernel, params, config, rep)));
    let loaded = store.as_ref().and_then(|(s, k)| s.load(k, program));
    if let Some(art) = loaded.filter(|art| same_shape(&art.plan)) {
        return Ok((Arc::new(art.plan), PlanSource::Artifact));
    }
    let cfg = smem_config(params, config, kernel);
    let (sp, times) = analyze_symbolic_hier(program, pairs, &cfg, hier.as_ref())?;
    if let Some(pr) = profiler {
        pr.absorb_pass_times(&times);
    }
    if let Some((s, k)) = &store {
        let mut ext = cfg.sample_params;
        ext.extend(pairs.iter().map(|p| p.1));
        if let Ok(art) = PlanArtifact::build(program, &sp, *k, &ext) {
            let _ = s.save(&art);
        }
    }
    Ok((Arc::new(sp), PlanSource::Fresh))
}

/// Execute a mapped kernel functionally.
///
/// `parallel` runs each round's blocks on a pool of
/// `min(config.n_outer, host cores, blocks)` worker threads; results
/// are bit-identical to sequential execution.
pub fn execute_blocked(
    kernel: &BlockedKernel,
    params: &[i64],
    store: &mut ArrayStore,
    config: &MachineConfig,
    parallel: bool,
) -> Result<ExecStats> {
    execute_blocked_profiled(kernel, params, store, config, parallel, None)
}

/// [`execute_blocked`] with an optional pass-level profiler: compiler
/// passes (§3 pipeline) accumulate wall-clock time into it, executor
/// phases (move-in, compute, move-out, barrier) their time summed over
/// block workers.
pub fn execute_blocked_profiled(
    kernel: &BlockedKernel,
    params: &[i64],
    store: &mut ArrayStore,
    config: &MachineConfig,
    parallel: bool,
    profiler: Option<&PassProfiler>,
) -> Result<ExecStats> {
    execute_blocked_seeded(kernel, params, store, config, parallel, profiler, None)
        .map(|(stats, _)| stats)
}

/// [`execute_blocked_profiled`] with plan seeding: a caller holding a
/// still-valid symbolic plan (a compile service's warm cache) passes
/// it as `seed` and the launch skips the §3 pipeline entirely when the
/// shapes match. Independently, when `config.artifact_dir` is set, the
/// launch consults the content-addressed on-disk store before
/// analysing and persists freshly computed plans into it. Returns the
/// shared plan alongside where it came from, so services can keep it
/// warm for the next request.
pub fn execute_blocked_seeded(
    kernel: &BlockedKernel,
    params: &[i64],
    store: &mut ArrayStore,
    config: &MachineConfig,
    parallel: bool,
    profiler: Option<&PassProfiler>,
    seed: Option<&Arc<SymbolicPlan>>,
) -> Result<(ExecStats, Option<WarmedPlan>)> {
    kernel.program.validate()?;
    let program = &kernel.program;

    // Rounds, blocks and sub-tiles are enumerated from the first
    // statement (programs with no statements do nothing).
    let mut stats = ExecStats::default();
    let Some(lead) = program.stmts.first() else {
        return Ok((stats, None));
    };
    // Test hook: `POLYMEM_FAULT_PANIC_BLOCK=<idx>` makes the parallel
    // worker for that block index panic (exercises WorkerPanicked).
    let fault_block: Option<usize> = std::env::var("POLYMEM_FAULT_PANIC_BLOCK")
        .ok()
        .and_then(|s| s.parse().ok());

    // Compile-once-per-launch: every sub-block pins the same dims, so
    // the launch grid is projected and one representative sub-block is
    // analysed symbolically (fixed dims as parameters) before any
    // worker runs; every sub-block then evaluates the grid, the shared
    // plan, the enumeration layout and the compiled streams at its own
    // coordinates. Building up-front keeps the workers lock-free and
    // every counter deterministic under parallel execution.
    let grid = launch_grid(kernel, params, config, lead)?;
    let warmed = if kernel.use_scratchpad {
        stats.plan_cache_misses = 1;
        let rep = grid.representative(kernel, config);
        Some(warm(kernel, params, config, &rep, profiler, seed)?)
    } else {
        None
    };
    // The one store check: every array at exactly the launch's extents,
    // so no flat offset computed past this point needs one.
    let plan = warmed.as_ref().map(|(sp, _)| sp.clone());
    let launch = &LaunchShared::new(kernel, params, config, grid, plan, store)?;

    for round in launch.grid.scan(0, params)? {
        let blocks = launch.grid.scan(1, &round)?;

        // Execute every block of this round against the same store
        // snapshot, buffering writes.
        let run_block = |coords: &Vec<i64>, bidx: u64| -> Result<(Overlay, ExecStats)> {
            execute_one_block(launch, coords, store, profiler, bidx)
        };

        let results: Vec<(Overlay, ExecStats)> = if parallel && blocks.len() > 1 {
            // A host-sized pool: one worker per core this process may
            // use, never more than the machine has outer units or the
            // round has blocks, each claiming the next block index
            // from one shared counter (it publishes nothing: blocks
            // are read-only and results come back through `join`).
            let host = std::thread::available_parallelism().map_or(1, |n| n.get());
            let workers = host.min(config.n_outer.max(1) as usize).min(blocks.len());
            let claim = AtomicUsize::new(0);
            let failed = Mutex::new(None::<(usize, MachineError)>);
            let work = || {
                let mut done = Vec::new();
                loop {
                    let block = claim.fetch_add(1, Ordering::Relaxed);
                    let Some(coords) = blocks.get(block) else {
                        break;
                    };
                    // A panicking worker (a compiler/executor bug, or
                    // an injected fault) must surface as a typed
                    // error, not abort the whole process.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if fault_block == Some(block) {
                            panic!("injected fault in block worker {block}");
                        }
                        run_block(coords, block as u64)
                    }));
                    let e = match outcome {
                        Ok(Ok(r)) => {
                            done.push((block, r));
                            continue;
                        }
                        Ok(Err(e)) => e,
                        Err(_) => MachineError::WorkerPanicked { block },
                    };
                    // Nobody claims past a failure. Indices are claimed
                    // in order, so every earlier block still runs to
                    // its end: the lowest failing index is the error
                    // sequential execution stops at.
                    claim.store(blocks.len(), Ordering::Relaxed);
                    let mut first = failed.lock().expect("no worker panics under the lock");
                    if first.as_ref().is_none_or(|(b, _)| block < *b) {
                        *first = Some((block, e));
                    }
                    break;
                }
                done
            };
            let mut out: Vec<Option<(Overlay, ExecStats)>> = vec![None; blocks.len()];
            std::thread::scope(|scope| {
                let pool: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                for worker in pool {
                    for (block, r) in worker.join().expect("workers catch their panics") {
                        out[block] = Some(r);
                    }
                }
            });
            if let Some((_, e)) = failed
                .into_inner()
                .expect("no worker panics under the lock")
            {
                return Err(e);
            }
            out.into_iter()
                .map(|o| o.expect("block completed"))
                .collect()
        } else {
            let mut v = Vec::with_capacity(blocks.len());
            for (bidx, b) in blocks.iter().enumerate() {
                v.push(run_block(b, bidx as u64)?);
            }
            v
        };

        // Merge overlays deterministically, in block order (the
        // device-wide barrier: writes become visible between rounds).
        let t0 = profiler.map(|_| Instant::now());
        let mut round_max_cycles = 0u64;
        let mut round_max_words = 0u64;
        for (overlay, bstats) in &results {
            overlay.merge_into(&launch.sids, store);
            round_max_cycles = round_max_cycles.max(bstats.block_cycles);
            round_max_words = round_max_words.max(bstats.max_smem_words);
            stats.absorb(bstats);
        }
        if let (Some(pr), Some(t0)) = (profiler, t0) {
            pr.record(PassKind::Barrier, t0.elapsed());
        }
        // Device time for this round: the slowest block, times the
        // number of occupancy waves (§5), plus the barrier cost.
        stats.modeled_cycles += launch.cost.round_cycles(
            round_max_cycles,
            results.len() as u64,
            round_max_words * config.word_bytes,
        );
        stats.rounds += 1;
    }
    Ok((stats, warmed))
}

/// The §3 configuration the executor analyses (and warms) with; the
/// residency dim is the innermost `seq_dims` entry.
pub(crate) fn smem_config(
    params: &[i64],
    config: &MachineConfig,
    kernel: &BlockedKernel,
) -> SmemConfig {
    SmemConfig {
        sample_params: params.to_vec(),
        must_copy_all: config.caps.must_stage,
        staging_pays: config.staging_pays(),
        partition: config.partition,
        residency_dim: if config.residency {
            kernel.seq_dims.last().cloned()
        } else {
            None
        },
        ..SmemConfig::default()
    }
}

/// Map point-budget exhaustion to its typed machine error; everything
/// else stays a polyhedral error.
pub(crate) fn budget_error(e: PolyError) -> MachineError {
    match e {
        PolyError::TooManyPoints { budget } => MachineError::EnumerationBudget { budget },
        other => MachineError::Poly(other),
    }
}

/// The launch record: everything that depends only on the launch,
/// built before any block worker runs and shared read-only by all of
/// them. The launch itself (program, parameters, machine), the
/// hoisted common-prefix depth matrix, global array extents and the
/// store ids they were checked against — and the launch's
/// one *block shape*: every sub-block pins the same dims
/// (round ∪ block ∪ seq), so the grid that enumerates them, the shared
/// symbolic plan, the per-statement enumeration layout both engines
/// walk, the compiled statement code on top of it and the
/// sub-tile schedule are all derived here once. A
/// sub-block contributes only its coordinate vector
/// ([`LaunchGrid::pparams`]).
pub(crate) struct LaunchShared<'a> {
    pub(crate) program: &'a Program,
    pub(crate) params: &'a [i64],
    pub(crate) config: &'a MachineConfig,
    /// `common[a][b]` = shared loop-dim prefix of statements `a`, `b`.
    pub common: Vec<Vec<usize>>,
    /// Concrete extents of every global array, in program order.
    pub ext: Vec<Vec<i64>>,
    /// The store id of every global array, in program order, resolved
    /// once per launch from a store that holds each at exactly `ext`:
    /// every flat offset the launch computes is valid against it.
    pub(crate) sids: Vec<usize>,
    /// `POLYMEM_EXEC_CHECK=1`: run the interpreter as an oracle beside
    /// every compiled block and panic on divergence.
    pub exec_check: bool,
    /// The cycle model's constants: the formulas the launch charges
    /// compute phases and rounds with are the estimator's.
    pub cost: CostConstants,
    /// Rounds, blocks and sub-tiles, and the block shape they pin
    /// (`grid.fixed`, sorted: the order the values extend the params).
    pub(crate) grid: LaunchGrid,
    /// The shared symbolic scratchpad plan every staged sub-block
    /// evaluates; `None` when the mapping stages nothing.
    pub plan: Option<Arc<SymbolicPlan>>,
    /// The sub-tile schedule every block of the launch walks.
    pub(crate) schedule: Schedule,
    /// Per register-level entry: its frame is written
    /// ([`SmemPlan::is_written`]), so `flush_frames` writes it back.
    pub(crate) frames_written: Vec<bool>,
    /// Index of the residency seq dim in a sub-block's grid
    /// coordinates, when the plan retains anything.
    pub(crate) residency_at: Option<usize>,
    /// Where each entry of a level-2 `params ++ ext values` vector
    /// comes from (sub-block vector or thread key); empty without a
    /// register level. Lives here, not in the serialised plan.
    pub(crate) hier_ext: Vec<ExtSource>,
    /// Per-statement enumeration layout, read by the interpreter
    /// (`enumerate_with_cascade` + sort) and the compiled engine
    /// ([`Cursor`]) alike.
    pub layouts: Vec<StmtLayout>,
    /// The compiled engine's code for every statement; `None` exactly
    /// when [`MachineConfig::compiled_exec`] is off.
    pub(crate) code: Option<Vec<StmtCode>>,
}

impl<'a> LaunchShared<'a> {
    /// Derive the launch state for the block shape `grid` pins, staged
    /// through `plan` if the mapping stages, against `store`. A store
    /// missing a program array, or holding one at other extents than
    /// the program's at `params`, is a typed error; so is a shape that
    /// cannot be parametrized, scanned or (engine on) compiled, and a
    /// plan analysed for another shape.
    pub fn new(
        kernel: &'a BlockedKernel,
        params: &'a [i64],
        config: &'a MachineConfig,
        grid: LaunchGrid,
        plan: Option<Arc<SymbolicPlan>>,
        store: &ArrayStore,
    ) -> Result<LaunchShared<'a>> {
        let program = &kernel.program;
        let n = program.stmts.len();
        let common = (0..n)
            .map(|a| (0..n).map(|b| program.common_depth(a, b)).collect())
            .collect();
        let sids = resolve_array_ids(program, store)?;
        let mut ext = Vec::with_capacity(program.arrays.len());
        for (a, &id) in program.arrays.iter().zip(&sids) {
            let want = a.eval_extents(&program.params, params)?;
            if store.extents_by_id(id) != want.as_slice() {
                return Err(MachineError::StoreMismatch {
                    array: a.name.clone(),
                    expected: want,
                    found: store.extents_by_id(id).to_vec(),
                });
            }
            ext.push(want);
        }
        let fixed = &grid.fixed;
        let sym = parametrize_dims(program, fixed)?;
        let layouts = program
            .stmts
            .iter()
            .zip(&sym.stmts)
            .map(|(orig, ss)| StmtLayout::build(orig, ss, fixed, program.params.len()))
            .collect::<polymem_poly::Result<Vec<_>>>()?;
        let code = (config.compiled_exec)
            .then(|| lower_code(program, &sym, &layouts, plan.as_deref()))
            .transpose()?;
        let sp = plan.as_deref();
        let residency = sp.and_then(|sp| sp.residency.as_ref());
        let residency_at = residency
            .filter(|res| !res.plans.is_empty())
            .and_then(|res| grid.names.iter().position(|n| *n == res.seq_param))
            .map(|i| params.len() + i);
        let schedule = match sp {
            Some(sp) => Schedule::new(sp, &seq_facts(kernel, config)?),
            None => Schedule::default(),
        };
        let frames_written = sp
            .and_then(|sp| sp.hier.as_ref())
            .map_or_else(Vec::new, |h| {
                let written = |m: &MovementCode| h.plan.is_written(m.buffer);
                h.plan.movement.iter().map(written).collect()
            });
        let hier_ext = match sp.and_then(|sp| sp.hier.as_ref()) {
            Some(h) => {
                // The level-2 vector indexes the sub-block's by
                // position: its non-thread names must be this shape's.
                let level1 = h.ext_names.iter().filter(|n| !h.thread_dims.contains(n));
                if !level1.eq(fixed) {
                    return Err(shape_error(
                        "a register-level plan analysed for another launch shape",
                    ));
                }
                h.ext_sources(params.len())
            }
            None => Vec::new(),
        };
        Ok(LaunchShared {
            program,
            params,
            config,
            common,
            ext,
            sids,
            exec_check: std::env::var("POLYMEM_EXEC_CHECK").is_ok_and(|v| v == "1"),
            cost: crate::tune::cost_constants(config),
            schedule,
            frames_written,
            residency_at,
            hier_ext,
            grid,
            plan,
            layouts,
            code,
        })
    }

    /// The level-1 plan and the register-level plan riding on it, when
    /// the launch has a register level.
    pub(crate) fn hier(&self) -> Option<(&SmemPlan, &HierPlan)> {
        let sp = self.plan.as_deref()?;
        Some((&sp.plan, sp.hier.as_ref()?))
    }
}

/// Everything shape-invariant about one statement's iteration space:
/// the parametrized domain, its bound cascade and the kept/fixed dim
/// layout. Enumerating a concrete sub-block is bound *evaluation* at
/// its extended params — no per-block Fourier–Motzkin.
pub(crate) struct StmtLayout {
    /// Statement domain with the fixed dims turned into parameters.
    pub domain: Polyhedron,
    pub cascade: Vec<DimBounds>,
    /// Original dim index of each kept dim, in order.
    pub kept: Vec<usize>,
    /// `(original dim index, index into the extended params)` of each
    /// fixed dim this statement iterates.
    pub fixed_pos: Vec<(usize, usize)>,
    /// Dim count of the original (full-space) statement domain.
    pub n_full: usize,
}

impl StmtLayout {
    pub(crate) fn build(
        orig: &Statement,
        sym: &Statement,
        fixed: &[String],
        n_params: usize,
    ) -> polymem_poly::Result<StmtLayout> {
        let dims = orig.domain.space().dims();
        let (mut kept, mut fixed_pos) = (Vec::new(), Vec::new());
        for (i, d) in dims.iter().enumerate() {
            match fixed.iter().position(|n| n == d) {
                Some(fi) => fixed_pos.push((i, n_params + fi)),
                None => kept.push(i),
            }
        }
        Ok(StmtLayout {
            cascade: bound_cascade(&sym.domain)?,
            domain: sym.domain.clone(),
            kept,
            fixed_pos,
            n_full: dims.len(),
        })
    }

    /// The full-space point of the kept-dim point `p` in the sub-block
    /// at extended params `ep`.
    pub fn full_point(&self, p: &[i64], ep: &[i64]) -> Vec<i64> {
        let mut full = vec![0i64; self.n_full];
        for (&d, &v) in self.kept.iter().zip(p) {
            full[d] = v;
        }
        for &(d, e) in &self.fixed_pos {
            full[d] = ep[e];
        }
        full
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use polymem_core::tiling::transform::{tile_program, TileSpec};
    use polymem_ir::expr::v;
    use polymem_ir::{exec_program, Expr, LinExpr, ProgramBuilder};

    /// C[i][j] = A[i][j] + A[i][j+1], tiled 2-D.
    pub(crate) fn window2d() -> Program {
        let mut b = ProgramBuilder::new("w", ["N"]);
        b.array("A", &[v("N"), v("N") + 1]);
        b.array("C", &[v("N"), v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("N") - 1),
            ])
            .write("C", &[v("i"), v("j")])
            .read("A", &[v("i"), v("j")])
            .read("A", &[v("i"), v("j") + 1])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        b.build().unwrap()
    }

    fn blocked(use_scratchpad: bool) -> BlockedKernel {
        let p = window2d();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 4)], "T")).unwrap();
        BlockedKernel {
            program: t,
            round_dims: vec![],
            block_dims: vec!["iT".into(), "jT".into()],
            seq_dims: vec![],
            thread_dims: vec![],
            use_scratchpad,
        }
    }

    pub(crate) fn reference(params: &[i64]) -> ArrayStore {
        let p = window2d();
        let mut st = ArrayStore::for_program(&p, params).unwrap();
        st.fill_with("A", |ix| ix[0] * 1000 + ix[1]).unwrap();
        exec_program(&p, params, &mut st).unwrap();
        st
    }

    fn run(kernel: &BlockedKernel, params: &[i64], parallel: bool) -> (ArrayStore, ExecStats) {
        let p = window2d();
        let mut st = ArrayStore::for_program(&p, params).unwrap();
        st.fill_with("A", |ix| ix[0] * 1000 + ix[1]).unwrap();
        let cfg = MachineConfig::geforce_8800_gtx();
        let stats = execute_blocked(kernel, params, &mut st, &cfg, parallel).unwrap();
        (st, stats)
    }

    #[test]
    fn blocked_matches_reference_without_scratchpad() {
        let k = blocked(false);
        let (st, stats) = run(&k, &[10], false);
        assert_eq!(st.data("C").unwrap(), reference(&[10]).data("C").unwrap());
        assert_eq!(stats.blocks, 9); // ceil(10/4)^2
        assert_eq!(stats.instances, 100);
        assert_eq!(stats.smem_reads, 0);
        assert_eq!(stats.moved_in, 0);
    }

    #[test]
    fn blocked_matches_reference_with_scratchpad() {
        let k = blocked(true);
        let (st, stats) = run(&k, &[10], false);
        assert_eq!(st.data("C").unwrap(), reference(&[10]).data("C").unwrap());
        assert!(stats.moved_in > 0);
        // C is written once per element — no reuse, so the GPU-mode
        // plan correctly leaves it in global memory (no move-out).
        assert_eq!(stats.moved_out, 0);
        assert!(stats.smem_reads > 0);
        assert!(stats.max_smem_words > 0);
    }

    #[test]
    fn plan_cache_hits_once_per_sub_block() {
        let (_, stats) = run(&blocked(true), &[10], false);
        // 9 blocks: 1 warm-up miss, every block a hit (10 = 2*4 + 2
        // leaves partial tiles, which evaluate the same shared plan).
        assert_eq!(stats.plan_cache_misses, 1);
        assert_eq!(stats.plan_cache_hits, 9);
        // Nothing staged, nothing to warm.
        let (_, unstaged) = run(&blocked(false), &[10], false);
        assert_eq!(unstaged.plan_cache_misses, 0);
        assert_eq!(unstaged.plan_cache_hits, 0);
    }

    #[test]
    fn profiled_run_records_phases() {
        use crate::trace::{PassKind, PassProfiler};
        let k = blocked(true);
        let p = window2d();
        let mut st = ArrayStore::for_program(&p, &[10]).unwrap();
        st.fill_with("A", |ix| ix[0] * 1000 + ix[1]).unwrap();
        let cfg = MachineConfig::geforce_8800_gtx();
        let profiler = PassProfiler::new();
        execute_blocked_profiled(&k, &[10], &mut st, &cfg, false, Some(&profiler)).unwrap();
        let r = profiler.report();
        let count = |kind: PassKind| r.rows.iter().find(|w| w.kind == kind).unwrap().count;
        // One warm-up symbolic analysis → one occurrence per compiler
        // pass; 9 blocks → 9 move-in and compute phases; one barrier.
        assert_eq!(count(PassKind::Reuse), 1);
        assert_eq!(count(PassKind::Dataspace), 1);
        assert_eq!(count(PassKind::MoveIn), 9);
        assert_eq!(count(PassKind::Compute), 9);
        assert_eq!(count(PassKind::Barrier), 1);
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let k = blocked(true);
        let (seq, s1) = run(&k, &[13], false);
        let (par, s2) = run(&k, &[13], true);
        assert_eq!(seq.data("C").unwrap(), par.data("C").unwrap());
        assert_eq!(s1, s2);
    }

    #[test]
    fn scratchpad_reduces_global_traffic() {
        let k_no = blocked(false);
        let k_yes = blocked(true);
        let (_, dram) = run(&k_no, &[16], false);
        let (_, smem) = run(&k_yes, &[16], false);
        // DRAM-only: 2 global reads per instance (512 total). With
        // staging each A element is read once per block (overlap
        // column read twice across neighbouring blocks only).
        assert!(
            smem.global_reads < dram.global_reads,
            "{} vs {}",
            smem.global_reads,
            dram.global_reads
        );
    }

    #[test]
    fn rounds_with_device_sync() {
        // A 1-D recurrence over rounds: for r in [1,3], i in [0,N-1]:
        // B[r][i] = B[r-1][i] + 1 — each round reads the previous
        // round's output, so round_dims = [r] is required and the
        // executor must produce the sequential result.
        let mut b = ProgramBuilder::new("r", ["N"]);
        b.array("B", &[LinExpr::c(4), v("N")]);
        b.stmt("S")
            .loops(&[
                ("r", LinExpr::c(1), LinExpr::c(3)),
                ("i", LinExpr::c(0), v("N") - 1),
            ])
            .write("B", &[v("r"), v("i")])
            .read("B", &[v("r") - 1, v("i")])
            .body(Expr::add(Expr::Read(0), Expr::Const(1)))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap();
        let k = BlockedKernel {
            program: t,
            round_dims: vec!["r".into()],
            block_dims: vec!["iT".into()],
            seq_dims: vec![],
            thread_dims: vec![],
            use_scratchpad: false,
        };
        let mut st = ArrayStore::for_program(&p, &[8]).unwrap();
        let cfg = MachineConfig::geforce_8800_gtx();
        let stats = execute_blocked(&k, &[8], &mut st, &cfg, true).unwrap();
        assert_eq!(stats.rounds, 3);
        for i in 0..8 {
            assert_eq!(st.get("B", &[3, i]).unwrap(), 3);
        }
    }

    #[test]
    fn cell_mode_copies_everything() {
        let p = window2d();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 4)], "T")).unwrap();
        let k = BlockedKernel {
            program: t,
            round_dims: vec![],
            block_dims: vec!["iT".into(), "jT".into()],
            seq_dims: vec![],
            thread_dims: vec![],
            use_scratchpad: true,
        };
        let mut st = ArrayStore::for_program(&p, &[8]).unwrap();
        st.fill_with("A", |ix| ix[0] + ix[1]).unwrap();
        let cfg = MachineConfig::cell_like();
        let stats = execute_blocked(&k, &[8], &mut st, &cfg, false).unwrap();
        // In Cell mode no compute access touches global memory: all
        // global traffic is movement.
        assert_eq!(stats.global_reads, stats.moved_in);
        assert_eq!(stats.global_writes, stats.moved_out);
        assert_eq!(st.data("C").unwrap(), {
            let mut r = ArrayStore::for_program(&p, &[8]).unwrap();
            r.fill_with("A", |ix| ix[0] + ix[1]).unwrap();
            exec_program(&p, &[8], &mut r).unwrap();
            r.data("C").unwrap().to_vec()
        });
    }

    /// The window2d kernel with the `j` tile loop kept sequential
    /// inside each block — the shape the double-buffered pipeline
    /// targets.
    pub(crate) fn blocked_seq() -> BlockedKernel {
        let p = window2d();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 4)], "T")).unwrap();
        BlockedKernel {
            program: t,
            round_dims: vec![],
            block_dims: vec!["iT".into()],
            seq_dims: vec!["jT".into()],
            thread_dims: vec![],
            use_scratchpad: true,
        }
    }

    /// `A[s][i] = A[s-1][i] + 1` carries a flow dependence on the seq
    /// dim `s`; the independent `Out[s][i] = B2[s][i] * 2` does not.
    pub(crate) fn carry_kernel() -> (Program, BlockedKernel) {
        let mut b = ProgramBuilder::new("d", ["N"]);
        b.array("A", &[LinExpr::c(4), v("N")]);
        b.array("B2", &[LinExpr::c(4), v("N")]);
        b.array("Out", &[LinExpr::c(4), v("N")]);
        b.stmt("S1")
            .loops(&[
                ("s", LinExpr::c(1), LinExpr::c(3)),
                ("i", LinExpr::c(0), v("N") - 1),
            ])
            .write("A", &[v("s"), v("i")])
            .read("A", &[v("s") - 1, v("i")])
            .body(Expr::add(Expr::Read(0), Expr::Const(1)))
            .done();
        b.stmt("S2")
            .loops(&[
                ("s", LinExpr::c(1), LinExpr::c(3)),
                ("i", LinExpr::c(0), v("N") - 1),
            ])
            .write("Out", &[v("s"), v("i")])
            .read("B2", &[v("s"), v("i")])
            .body(Expr::mul(Expr::Read(0), Expr::Const(2)))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap();
        let k = BlockedKernel {
            program: t,
            round_dims: vec![],
            block_dims: vec!["iT".into()],
            seq_dims: vec!["s".into()],
            thread_dims: vec![],
            use_scratchpad: true,
        };
        (p, k)
    }

    use polymem_kernels::builtins::Builtin;
    use polymem_kernels::{conv2d, jacobi, jacobi2d, me, tunespace};

    /// A `polymem_kernels` kernel as this crate's type (the
    /// dev-dependency links the non-test build of this crate, so its
    /// `BlockedKernel` is a different type with the same fields).
    macro_rules! own {
        ($kernel:expr) => {{
            let k = $kernel;
            BlockedKernel {
                program: k.program,
                round_dims: k.round_dims,
                block_dims: k.block_dims,
                seq_dims: k.seq_dims,
                thread_dims: k.thread_dims,
                use_scratchpad: k.use_scratchpad,
            }
        }};
    }

    /// The five built-ins at the sizes `tests/exec_golden.rs` runs, in
    /// their sequential-sub-tile or flat mappings.
    pub(crate) fn golden_builtins(seq: bool) -> Vec<(&'static str, BlockedKernel, Vec<i64>)> {
        let me_size = me::MeSize {
            ni: 8,
            nj: 8,
            ws: 4,
        };
        let mut jacobi_desc = tunespace::jacobi_stepwise(4);
        if seq {
            jacobi_desc.block_dims = vec![];
            jacobi_desc.seq_dims = vec!["iT".into()];
        }
        // The sequential mappings halve the last tile loop.
        let table = |name: &str, flat_tiles: &[i64]| {
            let mut tiles = flat_tiles.to_vec();
            if seq {
                *tiles.last_mut().unwrap() /= 2;
            }
            let desc = Builtin::named(name).unwrap().tiled(&tiles, seq);
            own!(tunespace::build(name, &desc).unwrap())
        };
        vec![
            ("me", table("me", &[4, 4]), me::params(&me_size)),
            (
                "jacobi",
                own!(tunespace::build("jacobi", &jacobi_desc).unwrap()),
                jacobi::params(&jacobi::JacobiSize { n: 16, t: 2 }),
            ),
            (
                "jacobi2d",
                table("jacobi2d", &[4, 4]),
                jacobi2d::params(2, 8),
            ),
            ("matmul", table("matmul", &[4, 4, 4]), vec![8]),
            (
                "conv2d",
                table("conv2d", &[4, 4]),
                conv2d::params(&conv2d::ConvSize { n: 8, k: 3 }),
            ),
        ]
    }

    /// `exec_golden`'s `flush` program: overlapping in-place updates,
    /// so residency flush deltas engage.
    pub(crate) fn flush_kernel() -> BlockedKernel {
        let mut b = ProgramBuilder::new("p", ["M", "N"]);
        b.array("A", &[v("M"), v("N") + 2]);
        b.array("B", &[v("M"), v("N")]);
        b.array("C", &[v("M"), v("N")]);
        for (name, shift, other) in [("S1", 0, "B"), ("S2", 2, "C")] {
            b.stmt(name)
                .loops(&[
                    ("j", LinExpr::c(0), v("M") - 1),
                    ("i", LinExpr::c(0), v("N") - 1),
                ])
                .write("A", &[v("j"), v("i") + shift])
                .read("A", &[v("j"), v("i") + shift])
                .read(other, &[v("j"), v("i")])
                .body(Expr::add(Expr::Read(0), Expr::Read(1)))
                .done();
        }
        let p = b.build().unwrap();
        BlockedKernel {
            program: tile_program(&p, &TileSpec::new(&[("j", 4), ("i", 4)], "T")).unwrap(),
            round_dims: vec![],
            block_dims: vec!["jT".into()],
            seq_dims: vec!["iT".into()],
            thread_dims: vec![],
            use_scratchpad: true,
        }
    }
}
