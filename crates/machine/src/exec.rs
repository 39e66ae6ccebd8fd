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

use crate::compiled::{run_compiled, LaunchShared};
use crate::config::MachineConfig;
use crate::dma::{DmaEngine, DmaStats, DmaTag};
use crate::json::{counters_json, Json};
use crate::overlay::{flatten, Overlay};
use crate::trace::PassProfiler;
use crate::{MachineError, Result};
use polymem_core::smem::{
    analyze_symbolic_hier, check_parametrizable, delta_transfer_list, flush_transfer_list,
    plan_key, transfer_list, AccessId, ArtifactKey, ArtifactStore, Direction, HierPlan, HierSpec,
    LocalBuffer, MovementCode, PlanArtifact, ResidencyPlan, RetainPlan, SmemConfig, SmemPlan,
    SymbolicPlan,
};
use polymem_core::tiling::transform::fix_dims;
use polymem_ir::{ArrayStore, Program};
use polymem_poly::count::{enumerate_points, enumerate_with_cascade};
use polymem_poly::Constraint;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
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

/// Counters collected by the functional executor.
///
/// Equality compares every *deterministic* counter and ignores
/// [`compute_ns`](ExecStats::compute_ns), which is measured host CPU
/// time and varies run to run (the parallel-determinism tests assert
/// stats equality).
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    /// Thread blocks executed.
    pub blocks: u64,
    /// Statement instances executed.
    pub instances: u64,
    /// Global-memory element reads (incl. move-in traffic).
    pub global_reads: u64,
    /// Global-memory element writes (incl. move-out traffic).
    pub global_writes: u64,
    /// Scratchpad element reads.
    pub smem_reads: u64,
    /// Scratchpad element writes.
    pub smem_writes: u64,
    /// Elements moved global → scratchpad.
    pub moved_in: u64,
    /// Elements moved scratchpad → global.
    pub moved_out: u64,
    /// Rounds executed (device-wide barriers = rounds - 1).
    pub rounds: u64,
    /// Peak scratchpad words used by any single block.
    pub max_smem_words: u64,
    /// Sub-blocks whose scratchpad plan was instantiated from the
    /// shared symbolic plan (compile-once-per-shape reuse): every
    /// staged sub-block.
    pub plan_cache_hits: u64,
    /// Symbolic plans the launch had to obtain: 1 for a staged launch
    /// (the one warm-up of its block shape, whatever its source), else
    /// 0.
    pub plan_cache_misses: u64,
    /// Modeled cycles one block spent (compute + exposed transfer
    /// time); summed over blocks by [`absorb`](ExecStats::absorb).
    pub block_cycles: u64,
    /// Modeled device cycles for the whole launch: per round, the
    /// slowest block's cycles times the number of occupancy waves,
    /// plus the device-wide barrier cost (top-level only).
    pub modeled_cycles: u64,
    /// Buffer stagings issued asynchronously ahead of compute
    /// (double-buffer prefetches).
    pub overlap_groups: u64,
    /// Buffer stagings forced synchronous by a seq-carried flow
    /// dependence while double buffering was on.
    pub sync_groups: u64,
    /// Scratchpad reads avoided because the access hit a register
    /// frame instead (level-2 hits; charged near-zero latency).
    pub smem_loads_saved: u64,
    /// Bytes moved between scratchpad and register frames (level-2
    /// move-in + move-out traffic).
    pub reg_bytes_moved: u64,
    /// Register frame sets staged (one per thread key per sub-block
    /// compute phase).
    pub hier_groups: u64,
    /// Elements kept resident in scratchpad across consecutive
    /// sub-tiles (re-based in place instead of re-transferred).
    pub retained_elems: u64,
    /// Elements transferred as residency deltas (the only move-in
    /// traffic of a residency-staged group).
    pub delta_elems: u64,
    /// Move-out elements flushed as residency flush deltas: when
    /// [`RetainPlan::flush_legal`] holds, elements the successor
    /// sub-tile overwrites anyway are skipped and only these cross the
    /// bus.
    pub flushed_delta_elems: u64,
    /// Buffer stagings served by the residency pass (retain + delta
    /// instead of a full move-in).
    pub residency_groups: u64,
    /// Sub-block compute phases executed by the compiled engine.
    /// Engine attribution (this field, `interpreted_blocks` and
    /// `fallback`) is excluded from stats equality: the whole point of
    /// comparing stats across engines is that everything *else*
    /// matches.
    pub compiled_blocks: u64,
    /// Sub-block compute phases that ran on the per-point interpreter.
    pub interpreted_blocks: u64,
    /// Why interpreted phases fell back (one count per phase).
    pub fallback: FallbackStats,
    /// DMA transfer-engine counters ([`crate::dma`]).
    pub dma: DmaStats,
    /// Host CPU nanoseconds spent in block compute phases (compiled or
    /// interpreted): each block's elapsed time, summed over blocks by
    /// [`absorb`](ExecStats::absorb). Blocks run on parallel workers,
    /// so this is a sum over workers and can exceed the launch's
    /// wall-clock time. Excluded from equality.
    pub compute_ns: u64,
}

/// Reasons a sub-block compute phase used the interpreter instead of
/// the compiled engine. Before these counters existed, the default
/// CLI path (hierarchy on) silently interpreted every block while
/// reporting compute time as if the compiled engine were on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FallbackStats {
    /// Compiled execution was off for the launch: the config flag, or
    /// a body that failed to compile to bytecode.
    pub engine_off: u64,
    /// The launch's block shape failed to lower (unbounded proof
    /// boxes, or a plan/dim-layout mismatch).
    pub shape_uncompiled: u64,
    /// The compiled engine declined at run time, before any effect
    /// (foreign store, unbounded proof box or cascade).
    pub runtime_decline: u64,
}

impl FallbackStats {
    /// Total interpreted-phase fallbacks.
    pub fn total(&self) -> u64 {
        self.engine_off + self.shape_uncompiled + self.runtime_decline
    }

    /// Every counter under its field name.
    pub fn to_json(&self) -> Json {
        Json::obj(counters_json!(
            FallbackStats {
                engine_off,
                shape_uncompiled,
                runtime_decline,
            } = self
        ))
    }

    fn absorb(&mut self, o: &FallbackStats) {
        self.engine_off += o.engine_off;
        self.shape_uncompiled += o.shape_uncompiled;
        self.runtime_decline += o.runtime_decline;
    }
}

impl PartialEq for ExecStats {
    fn eq(&self, o: &ExecStats) -> bool {
        self.blocks == o.blocks
            && self.instances == o.instances
            && self.global_reads == o.global_reads
            && self.global_writes == o.global_writes
            && self.smem_reads == o.smem_reads
            && self.smem_writes == o.smem_writes
            && self.moved_in == o.moved_in
            && self.moved_out == o.moved_out
            && self.rounds == o.rounds
            && self.max_smem_words == o.max_smem_words
            && self.plan_cache_hits == o.plan_cache_hits
            && self.plan_cache_misses == o.plan_cache_misses
            && self.block_cycles == o.block_cycles
            && self.modeled_cycles == o.modeled_cycles
            && self.overlap_groups == o.overlap_groups
            && self.sync_groups == o.sync_groups
            && self.smem_loads_saved == o.smem_loads_saved
            && self.reg_bytes_moved == o.reg_bytes_moved
            && self.hier_groups == o.hier_groups
            && self.retained_elems == o.retained_elems
            && self.delta_elems == o.delta_elems
            && self.flushed_delta_elems == o.flushed_delta_elems
            && self.residency_groups == o.residency_groups
            && self.dma == o.dma
    }
}

impl Eq for ExecStats {}

/// Version of the [`ExecStats::to_json`] document and of the report
/// envelope the bench harnesses wrap around it. Bump it whenever a
/// counter is renamed, removed or changes meaning (adding one is
/// compatible).
pub const STATS_SCHEMA: u64 = 2;

impl ExecStats {
    /// The one place a counter is named in output: `schema`, then every
    /// field under its own name, `fallback` and `dma` nested. The CLI,
    /// the daemon and every `BENCH_*.json` take their counters from
    /// here (DESIGN.md "Reports" lists units and clocks).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("schema", STATS_SCHEMA.into())];
        fields.extend(counters_json!(
            ExecStats {
                blocks,
                instances,
                global_reads,
                global_writes,
                smem_reads,
                smem_writes,
                moved_in,
                moved_out,
                rounds,
                max_smem_words,
                plan_cache_hits,
                plan_cache_misses,
                block_cycles,
                modeled_cycles,
                overlap_groups,
                sync_groups,
                smem_loads_saved,
                reg_bytes_moved,
                hier_groups,
                retained_elems,
                delta_elems,
                flushed_delta_elems,
                residency_groups,
                compiled_blocks,
                interpreted_blocks,
                fallback,
                dma,
                compute_ns,
            } = self
        ));
        Json::obj(fields)
    }

    /// Merge another stats block into this one. Field-complete:
    /// every counter is summed (`max_smem_words` maxes; `dma`
    /// delegates to [`DmaStats::absorb`]). `rounds` and
    /// `modeled_cycles` are incremented at the top level of
    /// [`execute_blocked_profiled`] and are always zero in per-block
    /// stats, but they are summed here too so the merge stays correct
    /// if per-block stats ever carry them.
    pub fn absorb(&mut self, o: &ExecStats) {
        self.blocks += o.blocks;
        self.instances += o.instances;
        self.global_reads += o.global_reads;
        self.global_writes += o.global_writes;
        self.smem_reads += o.smem_reads;
        self.smem_writes += o.smem_writes;
        self.moved_in += o.moved_in;
        self.moved_out += o.moved_out;
        self.rounds += o.rounds;
        self.max_smem_words = self.max_smem_words.max(o.max_smem_words);
        self.plan_cache_hits += o.plan_cache_hits;
        self.plan_cache_misses += o.plan_cache_misses;
        self.block_cycles += o.block_cycles;
        self.modeled_cycles += o.modeled_cycles;
        self.overlap_groups += o.overlap_groups;
        self.sync_groups += o.sync_groups;
        self.smem_loads_saved += o.smem_loads_saved;
        self.reg_bytes_moved += o.reg_bytes_moved;
        self.hier_groups += o.hier_groups;
        self.retained_elems += o.retained_elems;
        self.delta_elems += o.delta_elems;
        self.flushed_delta_elems += o.flushed_delta_elems;
        self.residency_groups += o.residency_groups;
        self.compiled_blocks += o.compiled_blocks;
        self.interpreted_blocks += o.interpreted_blocks;
        self.fallback.absorb(&o.fallback);
        self.dma.absorb(&o.dma);
        self.compute_ns += o.compute_ns;
    }
}

/// Where the launch's shared symbolic plan came from (see
/// [`execute_blocked_seeded`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanSource {
    /// The caller-provided in-memory seed (a compile service's warm
    /// cache) matched this launch's shape and was reused as-is.
    Seeded,
    /// Loaded — and re-proved against the program — from the
    /// content-addressed artifact store.
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
/// DMA shape) deliberately stay out, so retuning the cost model never
/// invalidates compiled plans.
pub(crate) fn machine_salt(config: &MachineConfig) -> [u64; 11] {
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
        // Held the retired `plan_cache` knob (always on); kept so no
        // plan or tune key moves.
        1,
        config.double_buffer as u64,
        config.compiled_exec as u64,
        config.regs_per_inner,
        config.hierarchy as u64,
        config.vector_width,
        config.residency as u64,
        config.partition as u64,
    ]
}

/// The representative sub-block a launch analyses symbolically: its
/// fixed dims as sorted `(dim, value)` pairs, plus the register-level
/// spec, if any.
pub type Representative = (Vec<(String, i64)>, Option<HierSpec>);

/// The values one level of dims (round, block or seq) enumerates to.
pub(crate) type LevelValues = Vec<Vec<i64>>;

/// Enumerate each level of dims of `lead` in turn, every outer level
/// pinned at its first enumerated value: the launch's first sub-block.
/// It is the representative the shared plan is analysed at *and* the
/// point the tuner's estimator prices, so both read this one walker.
/// Returns the pinned dims plus every level's enumerated values.
pub(crate) fn first_sub_block(
    lead: &polymem_ir::Statement,
    levels: &[&[String]],
    params: &[i64],
    budget: u64,
) -> Result<(HashMap<String, i64>, Vec<LevelValues>)> {
    let mut rep = HashMap::new();
    let mut vals = Vec::with_capacity(levels.len());
    for dims in levels {
        let level = enumerate_named(lead, dims, params, &rep, budget)?;
        if let Some(v0) = level.first() {
            rep.extend(dims.iter().cloned().zip(v0.iter().copied()));
        }
        vals.push(level);
    }
    Ok((rep, vals))
}

/// The launch's round values and its representative: the dims every
/// sub-block pins (round ∪ block, ∪ seq when the mapping stages) at
/// their first values and, with hierarchy on, the thread dims at
/// theirs.
fn first_block(
    kernel: &BlockedKernel,
    params: &[i64],
    config: &MachineConfig,
    lead: &polymem_ir::Statement,
) -> Result<(LevelValues, Representative)> {
    let levels: [&[String]; 3] = [&kernel.round_dims, &kernel.block_dims, &kernel.seq_dims];
    let staged = if kernel.use_scratchpad { 3 } else { 2 };
    let (rep, mut vals) = first_sub_block(lead, &levels[..staged], params, config.enum_budget)?;
    // Register-tile level: analyse the intra-thread subnest of the
    // representative block with the thread dims as extra fixed
    // dims. The representative thread values feed Algorithm 1's
    // volume test exactly like the representative block values do.
    let mut hier = None;
    if kernel.use_scratchpad && config.hierarchy && !kernel.thread_dims.is_empty() {
        let tvals = enumerate_named(lead, &kernel.thread_dims, params, &rep, config.enum_budget)?;
        hier = tvals.first().map(|t0| HierSpec {
            thread_dims: kernel.thread_dims.clone(),
            thread_reps: kernel
                .thread_dims
                .iter()
                .cloned()
                .zip(t0.iter().copied())
                .collect(),
            regs_per_inner: config.regs_per_inner,
        });
    }
    let mut pairs: Vec<(String, i64)> = rep.into_iter().collect();
    pairs.sort();
    Ok((vals.swap_remove(0), (pairs, hier)))
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
            let rep = first_block(kernel, params, config, lead)?.1;
            // Reports and keys run no analysis that would reject dims
            // the symbolic view cannot turn into parameters.
            check_parametrizable(&kernel.program, rep.0.iter().map(|p| &p.0))?;
            Ok(Some(rep))
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
///    `config.artifact_dir` — loads are fully re-proved against the
///    program, so a corrupt or stale file silently degrades to the
///    next source;
/// 3. a fresh `analyze_symbolic_hier` run. Only this source
///    absorbs §3 pass times into the profiler (the others skipped
///    the passes) and, when a store is configured, persists the
///    result for future processes.
///
/// A failed analysis is the launch's error.
fn warm(
    kernel: &BlockedKernel,
    params: &[i64],
    config: &MachineConfig,
    rep: &Representative,
    profiler: Option<&PassProfiler>,
    seed: Option<&Arc<SymbolicPlan>>,
) -> Result<WarmedPlan> {
    let program = &kernel.program;
    let (pairs, hier) = rep;
    // The on-disk store and the content-address are only computed
    // when someone can use them: a configured artifact dir, or a
    // caller-provided seed (whose provider keys by the same hash).
    let store = config
        .artifact_dir
        .as_ref()
        .and_then(|d| ArtifactStore::open(d).ok());
    let akey = (store.is_some() || seed.is_some()).then(|| shape_key(kernel, params, config, rep));
    let same_shape = |sp: &SymbolicPlan| sp.fixed.iter().eq(pairs.iter().map(|p| &p.0));
    if let Some(sp) = seed.filter(|sp| same_shape(sp)) {
        return Ok((sp.clone(), PlanSource::Seeded));
    }
    let loaded = store
        .as_ref()
        .zip(akey)
        .and_then(|(s, k)| s.load(&k, program));
    if let Some(art) = loaded.filter(|art| same_shape(&art.plan)) {
        return Ok((Arc::new(art.plan), PlanSource::Artifact));
    }
    let cfg = smem_config(params, config, kernel);
    let sp = analyze_symbolic_hier(program, pairs, &cfg, hier.as_ref())?;
    if let Some(pr) = profiler {
        pr.absorb_pass_times(&sp.pass_times);
    }
    if let (Some(s), Some(k)) = (&store, akey) {
        let mut ext = cfg.sample_params;
        ext.extend(pairs.iter().map(|p| p.1));
        if let Ok(art) = PlanArtifact::build(program, &sp, k, &ext) {
            let _ = s.save(&art);
        }
    }
    Ok((Arc::new(sp), PlanSource::Fresh))
}

/// Execute a mapped kernel functionally.
///
/// `parallel` runs each round's blocks on up to `config.n_outer`
/// worker threads; results are bit-identical to sequential execution.
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
/// passes (§3 pipeline) and executor phases (move-in, compute,
/// move-out, barrier) accumulate real wall-clock time into it.
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
    // one representative sub-block is analysed symbolically (fixed
    // dims as parameters) before any worker runs, and every sub-block
    // evaluates the shared plan, enumeration layout and compiled
    // streams at its own fixed values. Building up-front keeps the
    // workers lock-free and every counter deterministic under
    // parallel execution.
    let (round_vals, rep) = first_block(kernel, params, config, lead)?;
    let rounds = if round_vals.is_empty() {
        vec![Vec::new()]
    } else {
        round_vals
    };
    let warmed = if kernel.use_scratchpad {
        stats.plan_cache_misses = 1;
        Some(warm(kernel, params, config, &rep, profiler, seed)?)
    } else {
        None
    };
    let launch = LaunchShared::new(
        program,
        params,
        config,
        rep.0.into_iter().map(|p| p.0).collect(),
        warmed.as_ref().map(|(sp, _)| sp.clone()),
    )?;
    let launch = &launch;

    // Double-buffer legality (§3.1.4 dependence information, reused):
    // read accesses reached by a seq-carried flow dependence within a
    // block may not be prefetched ahead of the writing sub-tile.
    // Computed once per launch, shared read-only by all workers.
    let poisoned: Option<HashSet<AccessId>> =
        if kernel.use_scratchpad && config.double_buffer && !kernel.seq_dims.is_empty() {
            Some(overlap_poisoned_reads(kernel)?)
        } else {
            None
        };
    let poisoned = poisoned.as_ref();

    for round in &rounds {
        let mut fixed_round: HashMap<String, i64> = HashMap::new();
        for (n, v) in kernel.round_dims.iter().zip(round) {
            fixed_round.insert(n.clone(), *v);
        }
        let block_vals = enumerate_named(
            lead,
            &kernel.block_dims,
            params,
            &fixed_round,
            config.enum_budget,
        )?;
        let blocks = if block_vals.is_empty() {
            vec![Vec::new()]
        } else {
            block_vals
        };

        // Execute every block of this round against the same store
        // snapshot, buffering writes.
        let run_block = |bv: &Vec<i64>, bidx: u64| -> Result<(Overlay, ExecStats)> {
            let mut fixed = fixed_round.clone();
            for (n, v) in kernel.block_dims.iter().zip(bv) {
                fixed.insert(n.clone(), *v);
            }
            execute_one_block(
                kernel, &fixed, params, store, config, profiler, poisoned, launch, bidx,
            )
        };

        let results: Vec<(Overlay, ExecStats)> = if parallel && blocks.len() > 1 {
            let workers = config.n_outer.max(1) as usize;
            let mut out: Vec<Option<(Overlay, ExecStats)>> = vec![None; blocks.len()];
            let err = std::sync::Mutex::new(None::<MachineError>);
            std::thread::scope(|scope| {
                let chunk = blocks.len().div_ceil(workers);
                for (ci, (bchunk, ochunk)) in
                    blocks.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate()
                {
                    let err = &err;
                    let run_block = &run_block;
                    scope.spawn(move || {
                        for (k, (b, o)) in bchunk.iter().zip(ochunk.iter_mut()).enumerate() {
                            let block = ci * chunk + k;
                            // A panicking worker (a compiler/executor bug,
                            // or an injected fault) must surface as a typed
                            // error, not abort the whole process.
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    if fault_block == Some(block) {
                                        panic!("injected fault in block worker {block}");
                                    }
                                    run_block(b, block as u64)
                                }));
                            match outcome {
                                Ok(Ok(r)) => *o = Some(r),
                                Ok(Err(e)) => {
                                    err.lock().unwrap().get_or_insert(e);
                                    return;
                                }
                                Err(_) => {
                                    err.lock()
                                        .unwrap()
                                        .get_or_insert(MachineError::WorkerPanicked { block });
                                    return;
                                }
                            }
                        }
                    });
                }
            });
            if let Some(e) = err.into_inner().unwrap() {
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
        let t0 = Instant::now();
        let mut round_max_cycles = 0u64;
        let mut round_max_words = 0u64;
        for (overlay, bstats) in &results {
            overlay.merge_into(program, store)?;
            round_max_cycles = round_max_cycles.max(bstats.block_cycles);
            round_max_words = round_max_words.max(bstats.max_smem_words);
            stats.absorb(bstats);
        }
        if let Some(pr) = profiler {
            pr.record(crate::trace::PassKind::Barrier, t0.elapsed());
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

/// Enumerate the values of the named dims of a statement's domain
/// (projected), with some dims already fixed.
fn enumerate_named(
    stmt: &polymem_ir::Statement,
    names: &[String],
    params: &[i64],
    fixed: &HashMap<String, i64>,
    budget: u64,
) -> Result<Vec<Vec<i64>>> {
    if names.is_empty() {
        return Ok(Vec::new());
    }
    let dom = fix_dims(&stmt.domain, fixed);
    let keep: Vec<usize> = names
        .iter()
        .filter_map(|n| dom.space().find_dim(n))
        .collect();
    if keep.len() != names.len() {
        return Ok(Vec::new());
    }
    let proj = dom.project_onto(&keep)?;
    let concrete = proj.substitute_params(params)?;
    let mut out = Vec::new();
    enumerate_points(&concrete, budget, &mut |p| out.push(p.to_vec())).map_err(budget_error)?;
    Ok(out)
}

/// Map point-budget exhaustion to its typed machine error; everything
/// else stays a polyhedral error.
pub(crate) fn budget_error(e: polymem_poly::PolyError) -> MachineError {
    match e {
        polymem_poly::PolyError::TooManyPoints { budget } => {
            MachineError::EnumerationBudget { budget }
        }
        other => MachineError::Poly(other),
    }
}

/// Local scratchpad storage for one block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LocalStore {
    /// Per buffer id: (flat data, extents, offsets).
    pub(crate) bufs: Vec<(Vec<i64>, Vec<i64>, Vec<i64>)>,
}

impl LocalStore {
    fn flat(&self, buf: usize, idx: &[i64]) -> Option<usize> {
        let (_, extents, _) = &self.bufs[buf];
        let mut off: i64 = 0;
        for (&i, &e) in idx.iter().zip(extents) {
            if i < 0 || i >= e {
                return None;
            }
            off = off * e + i;
        }
        Some(off as usize)
    }

    pub(crate) fn get(&self, buf: usize, idx: &[i64]) -> Result<i64> {
        let f = self.flat(buf, idx).ok_or_else(|| {
            MachineError::Ir(polymem_ir::IrError::OutOfBounds {
                array: format!("local buffer {buf}"),
                index: idx.to_vec(),
            })
        })?;
        Ok(self.bufs[buf].0[f])
    }

    pub(crate) fn set(&mut self, buf: usize, idx: &[i64], v: i64) -> Result<()> {
        let f = self.flat(buf, idx).ok_or_else(|| {
            MachineError::Ir(polymem_ir::IrError::OutOfBounds {
                array: format!("local buffer {buf}"),
                index: idx.to_vec(),
            })
        })?;
        self.bufs[buf].0[f] = v;
        Ok(())
    }
}

/// A buffer kept alive across a block's sequential sub-tiles because
/// none of its references depend on the sub-tile dims (§4.2 hoisting).
struct Persistent<'a> {
    buffer: &'a LocalBuffer,
    mc: &'a MovementCode,
    /// The parking sub-tile's `params ++ fixed values` (hoisted
    /// buffers do not depend on the seq dims, so any captured seq
    /// value yields the same element set).
    pparams: Vec<i64>,
    data: Vec<i64>,
    extents: Vec<i64>,
    offsets: Vec<i64>,
    dirty: bool,
}

/// Write a persistent buffer's contents back to the (overlay of)
/// global memory, once, at the end of the block. The transfer is
/// modeled as a synchronous DMA list.
fn writeback_persistent(
    p: &Persistent,
    overlay: &mut Overlay,
    stats: &mut ExecStats,
    clock: &mut BlockClock,
    config: &MachineConfig,
) -> Result<()> {
    let flat = |idx: &[i64]| -> Option<usize> {
        let mut off: i64 = 0;
        for (&i, &e) in idx.iter().zip(&p.extents) {
            if i < 0 || i >= e {
                return None;
            }
            off = off * e + i;
        }
        Some(off as usize)
    };
    let mut err = None;
    let ext = &clock.ext[p.buffer.array];
    polymem_core::smem::movement::for_each_move_out(p.mc, p.buffer, &p.pparams, &mut |g, l| {
        if err.is_some() {
            return;
        }
        match flat(l) {
            Some(off) => {
                if let Err(e) =
                    overlay.set_idx(p.buffer.array, &p.buffer.array_name, g, ext, p.data[off])
                {
                    err = Some(MachineError::Ir(e));
                }
            }
            None => {
                err = Some(MachineError::Ir(polymem_ir::IrError::OutOfBounds {
                    array: format!("persistent L{}", p.buffer.array_name),
                    index: l.to_vec(),
                }))
            }
        }
        stats.global_writes += 1;
        stats.moved_out += 1;
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    if clock.dma_on {
        let list = transfer_list(
            p.mc,
            p.buffer,
            Direction::Out,
            &clock.ext[p.buffer.array],
            &p.pparams,
        )?;
        let tag = clock
            .dma
            .issue_list(&list, config.word_bytes, clock.now, clock.now);
        clock.wait(&tag);
    }
    Ok(())
}

/// Arrays none of whose accesses depend on the kernel's seq dims:
/// their staged buffers are identical across sub-tiles and hoist.
///
/// Dependence can enter two ways: directly, through a nonzero seq-dim
/// coefficient in the subscript map, or indirectly, through a domain
/// constraint coupling a seq dim to a dim the subscripts read (e.g.
/// `j = jT` when the seq tile width is 1 — the `j` footprint slides
/// with `jT` even though no subscript mentions `jT`). The indirect
/// case matters because the buffer planner may drop such a dim as an
/// H-matrix row, leaving the kept-dim shape identical across
/// sub-tiles — hoisting would then alias distinct footprints.
pub(crate) fn seq_redundant_arrays(kernel: &BlockedKernel) -> std::collections::HashSet<usize> {
    let program = &kernel.program;
    (0..program.arrays.len())
        .filter(|&a| {
            program.stmts.iter().all(|s| {
                let dims = s.domain.space().dims();
                let seq_idx: Vec<usize> = kernel
                    .seq_dims
                    .iter()
                    .filter_map(|n| dims.iter().position(|d| d == n))
                    .collect();
                let clean = |acc: &polymem_ir::Access| {
                    if acc.array != a {
                        return true;
                    }
                    let m = acc.map.matrix();
                    let used: Vec<usize> = (0..dims.len())
                        .filter(|&d| (0..m.rows()).any(|r| m[(r, d)] != 0))
                        .collect();
                    seq_idx.iter().all(|&j| {
                        (0..m.rows()).all(|r| m[(r, j)] == 0)
                            && s.domain
                                .constraints()
                                .iter()
                                .all(|c| c.coeff(j) == 0 || used.iter().all(|&d| c.coeff(d) == 0))
                    })
                };
                clean(&s.write) && s.reads.iter().all(clean)
            })
        })
        .collect()
}

/// Per-block simulated clock plus its DMA engine: `now` advances with
/// modeled compute cycles, the engine tracks in-flight transfers.
/// Everything is deterministic integer arithmetic, so block stats are
/// identical between sequential and parallel execution.
struct BlockClock {
    now: u64,
    dma: DmaEngine,
    /// DMA modeling enabled (`dma_channels > 0`). When off, movement
    /// costs nothing in modeled time (the pre-DMA behaviour) and no
    /// descriptors are built.
    dma_on: bool,
    /// Concrete extents of every global array, for flattening
    /// descriptor addresses and overlay offsets (shared per launch).
    ext: Vec<Vec<i64>>,
}

impl BlockClock {
    fn new(ext: Vec<Vec<i64>>, config: &MachineConfig, block_idx: u64) -> BlockClock {
        BlockClock {
            now: 0,
            dma: DmaEngine::with_route(config, config.route_cycles(block_idx)),
            dma_on: config.dma_channels > 0,
            ext,
        }
    }

    /// Build the DMA list for one movement entry and queue it. The
    /// transfer starts no earlier than `earliest` (buffer-reuse
    /// dependence on the previous sub-tile's move-out).
    fn issue_movement(
        &mut self,
        plan: &SmemPlan,
        mi: usize,
        pparams: &[i64],
        dir: Direction,
        config: &MachineConfig,
        earliest: u64,
    ) -> Result<DmaTag> {
        if !self.dma_on {
            return Ok(DmaTag::immediate(self.now));
        }
        let mc = &plan.movement[mi];
        let buf = &plan.buffers[mc.buffer];
        let list = transfer_list(mc, buf, dir, &self.ext[buf.array], pparams)?;
        Ok(self
            .dma
            .issue_list(&list, config.word_bytes, self.now, earliest))
    }

    /// Queue the DMA list for a residency delta — the only elements
    /// that cross the bus. The local re-base rides the same channel
    /// first: retained atoms move scratchpad-to-scratchpad at 4× the
    /// global DMA rate, delaying the delta's start. The tag therefore
    /// always completes no later than the full transfer it replaces
    /// (the retained bytes leave the 1×-rate payload and come back as
    /// a 4×-rate local copy), in both the synchronous and the
    /// double-buffered schedule.
    fn issue_delta(
        &mut self,
        rp: &RetainPlan,
        buf: &LocalBuffer,
        pparams: &[i64],
        config: &MachineConfig,
        earliest: u64,
        retained: u64,
    ) -> Result<DmaTag> {
        if !self.dma_on {
            return Ok(DmaTag::immediate(self.now));
        }
        let start = earliest.max(self.now);
        // Re-basing the retained atoms is a scratchpad-local copy at 4x
        // the global DMA rate; it proceeds concurrently with the
        // incoming delta (the two touch disjoint buffer regions), so
        // the group is ready at the max of the two, never the sum.
        let mut rebase_done = start;
        if retained > 0 {
            let bytes = (retained * config.word_bytes) as f64;
            rebase_done += (bytes / (config.dma_bytes_per_cycle * 4.0)).ceil() as u64;
        }
        let list = delta_transfer_list(rp, buf, &self.ext[buf.array], pparams)?;
        if list.is_empty() {
            return Ok(DmaTag::immediate(rebase_done));
        }
        let mut tag = self
            .dma
            .issue_list(&list, config.word_bytes, self.now, start);
        tag.done = tag.done.max(rebase_done);
        Ok(tag)
    }

    /// Queue the DMA list for a residency flush delta — the move-out
    /// elements the successor does not overwrite. Issued in place of
    /// the full move-out list when [`RetainPlan::flush_legal`] holds;
    /// the list is a subset of the full one, so the tag never
    /// completes later than the flush it replaces.
    fn issue_flush(
        &mut self,
        rp: &RetainPlan,
        buf: &LocalBuffer,
        pparams: &[i64],
        config: &MachineConfig,
        earliest: u64,
    ) -> Result<DmaTag> {
        if !self.dma_on {
            return Ok(DmaTag::immediate(self.now));
        }
        let start = earliest.max(self.now);
        let list = flush_transfer_list(rp, buf, &self.ext[buf.array], pparams)?;
        if list.is_empty() {
            return Ok(DmaTag::immediate(start));
        }
        Ok(self
            .dma
            .issue_list(&list, config.word_bytes, self.now, start))
    }

    /// Advance the clock to the tag's completion, recording stalls.
    fn wait(&mut self, tag: &DmaTag) {
        self.now = self.dma.wait(tag, self.now);
    }
}

/// Read accesses reached by a flow dependence carried by a seq dim
/// within one block (§3.1.4 dependence information, reused): for each
/// flow dependence, restrict its polyhedron to pairs with equal
/// round/block dims (same block, same round) and a strictly positive
/// seq-dim distance (earlier seq dims equal). Non-empty means
/// prefetching the target's buffer ahead of the writing sub-tile would
/// read stale data, so its group must stage synchronously.
fn overlap_poisoned_reads(kernel: &BlockedKernel) -> Result<HashSet<AccessId>> {
    use polymem_poly::dep::DepKind;
    let program = &kernel.program;
    let deps = polymem_core::deps::compute_deps(program, &[DepKind::Flow])?;
    let mut out = HashSet::new();
    let pos = |dims: &[String], n: &str| dims.iter().position(|x| x == n);
    'deps: for d in deps {
        let src_dims = program.stmts[d.dep.src_stmt].domain.space().dims().to_vec();
        let dst_dims = program.stmts[d.dep.dst_stmt].domain.space().dims().to_vec();
        let n_src = d.dep.n_src;
        let n_cols = d.dep.poly.space().n_cols();
        let mut base = d.dep.poly.clone();
        for name in kernel.round_dims.iter().chain(&kernel.block_dims) {
            if let (Some(s), Some(t)) = (pos(&src_dims, name), pos(&dst_dims, name)) {
                let mut row = vec![0i64; n_cols];
                row[s] = 1;
                row[n_src + t] = -1;
                base.add_constraint(Constraint::eq(row));
            }
        }
        for (li, name) in kernel.seq_dims.iter().enumerate() {
            let (Some(s), Some(t)) = (pos(&src_dims, name), pos(&dst_dims, name)) else {
                continue;
            };
            let mut p = base.clone();
            for prev in &kernel.seq_dims[..li] {
                if let (Some(ps), Some(pt)) = (pos(&src_dims, prev), pos(&dst_dims, prev)) {
                    let mut row = vec![0i64; n_cols];
                    row[ps] = 1;
                    row[n_src + pt] = -1;
                    p.add_constraint(Constraint::eq(row));
                }
            }
            // dst[seq] >= src[seq] + 1: carried strictly forward.
            let mut row = vec![0i64; n_cols];
            row[s] = -1;
            row[n_src + t] = 1;
            row[n_cols - 1] = -1;
            p.add_constraint(Constraint::ineq(row));
            if !p.is_empty()? {
                out.insert(d.dst_access);
                continue 'deps;
            }
        }
    }
    Ok(out)
}

/// §4.2 hoisting applies only when the array materialises as exactly
/// one buffer in the plan: with separate read and write buffers,
/// parking by array key would keep only the last-parked buffer and
/// lose the other's writes.
fn plan_hoists(plan: &SmemPlan, array: usize, hoistable: &HashSet<usize>) -> bool {
    hoistable.contains(&array) && plan.buffers.iter().filter(|b| b.array == array).count() == 1
}

/// Whether any poisoned read access is rewritten into the buffer
/// served by movement entry `mi`.
fn buffer_poisoned(plan: &SmemPlan, mi: usize, poisoned: &HashSet<AccessId>) -> bool {
    let b = plan.movement[mi].buffer;
    plan.rewrites
        .iter()
        .any(|(id, la)| la.buffer == b && poisoned.contains(id))
}

/// Whether staging after the predecessor's move-out would serve this
/// (read-only) buffer from the §4.2 parked copy for free: the array is
/// hoist-eligible and its buffer shape (extents and offsets) does not
/// shift between the current and the next sub-tile. Prefetching such
/// a buffer would only add global traffic.
fn hoist_shortcut_hits(
    plan: &SmemPlan,
    cur: &SubBlock,
    next: &SubBlock,
    bi: usize,
    hoistable: &HashSet<usize>,
) -> bool {
    let (Some(c), Some(n)) = (cur.staging.as_ref(), next.staging.as_ref()) else {
        return false;
    };
    let (c, n) = (&c.local.bufs[bi], &n.local.bufs[bi]);
    plan_hoists(plan, plan.buffers[bi].array, hoistable) && c.1 == n.1 && c.2 == n.2
}

/// One sub-tile's scratchpad state: the launch's shared plan and the
/// local buffers allocated for it at this sub-tile's extents, plus
/// per-movement-entry staging progress (with overlap on, entries of
/// two live sub-tiles interleave).
struct Staging<'a> {
    plan: &'a SymbolicPlan,
    local: LocalStore,
    words: u64,
    /// Per movement entry: functional move-in already performed.
    staged: Vec<bool>,
    /// In-flight prefetch DMA tags, waited on before compute.
    tags: Vec<DmaTag>,
}

/// A sub-block prepared for execution: the dims it pins, the
/// parameter vector `params ++ fixed values` everything shape-level
/// (plan, enumeration layout, compiled streams) evaluates under, and
/// (when the launch stages) its staging state.
struct SubBlock<'a> {
    fixed: HashMap<String, i64>,
    pparams: Vec<i64>,
    staging: Option<Staging<'a>>,
}

/// Evaluate the launch shape at one (sub-)block and allocate its local
/// buffers. Footprint checks are the caller's job (one footprint must
/// be resident without overlap, two with it).
fn prepare_sub_block<'a>(
    fixed: HashMap<String, i64>,
    params: &[i64],
    launch: &'a LaunchShared,
    stats: &mut ExecStats,
) -> Result<SubBlock<'a>> {
    let pparams = launch.sub_block_params(params, &fixed)?;
    let staging = match launch.plan.as_deref() {
        Some(sp) => {
            stats.plan_cache_hits += 1;
            let mut bufs = Vec::with_capacity(sp.plan.buffers.len());
            let mut words = 0u64;
            for b in &sp.plan.buffers {
                let extents = b.extents(&pparams)?;
                let offsets = b.offsets(&pparams)?;
                let size: i64 = extents.iter().product::<i64>().max(0);
                words += size as u64;
                bufs.push((vec![0i64; size as usize], extents, offsets));
            }
            stats.max_smem_words = stats.max_smem_words.max(words);
            Some(Staging {
                plan: sp,
                local: LocalStore { bufs },
                words,
                staged: vec![false; sp.plan.movement.len()],
                tags: Vec::new(),
            })
        }
        None => None,
    };
    Ok(SubBlock {
        fixed,
        pparams,
        staging,
    })
}

/// The shared plan's residency decomposition, when it applies between
/// `prev_fixed` and `fixed`: the two sub-tiles are lexicographically
/// consecutive along the residency seq dim (every other fixed dim
/// equal).
fn shared_residency<'a>(
    sp: &'a SymbolicPlan,
    fixed: &HashMap<String, i64>,
    prev_fixed: &HashMap<String, i64>,
) -> Option<&'a ResidencyPlan> {
    let res = sp.residency.as_ref()?;
    if res.plans.is_empty() || prev_fixed.len() != fixed.len() {
        return None;
    }
    let consecutive = fixed.iter().all(|(k, v)| match prev_fixed.get(k) {
        Some(pv) if *k == res.seq_param => *v == pv + 1,
        Some(pv) => v == pv,
        None => false,
    });
    consecutive.then_some(res)
}

/// Stage one movement entry's move-in (global → local): the one place
/// a movement entry becomes a move-in [`DmaTag`]. Cheapest source
/// first:
///
/// 1. the §4.2 parked copy, when the array hoists and the copy's
///    shape (extents and offsets) is this sub-tile's — free, no tag
///    (`None`);
/// 2. residency, when the plan retains this buffer across `pred` (the
///    lexicographic predecessor, its scratchpad still live): the
///    retained atoms re-base with a scratchpad-local copy and only the
///    delta crosses the bus;
/// 3. the full window — the partition whose retained set is empty.
///
/// The transfer starts no earlier than `earliest` (buffer-reuse
/// dependence on an earlier sub-tile's move-out). A `prefetch` runs
/// ahead of the predecessor's compute, so `pred` holds pre-compute
/// contents (the caller only prefetches read-only, dependence-free
/// groups) and the parked copy is never taken: the caller's
/// [`hoist_shortcut_hits`] filter already ruled source 1 out.
#[allow(clippy::too_many_arguments)]
fn stage_entry(
    program: &Program,
    sb: &mut SubBlock,
    mi: usize,
    pred: Option<&SubBlock>,
    hoistable: &HashSet<usize>,
    persistent: &mut HashMap<usize, Persistent>,
    prefetch: bool,
    store: &ArrayStore,
    overlay: &mut Overlay,
    stats: &mut ExecStats,
    clock: &mut BlockClock,
    config: &MachineConfig,
    earliest: u64,
) -> Result<Option<DmaTag>> {
    let pparams = &sb.pparams;
    let Staging {
        plan: sp,
        local,
        staged,
        ..
    } = sb.staging.as_mut().expect("staged");
    let plan = &sp.plan;
    let mc = &plan.movement[mi];
    let bi = mc.buffer;
    let buf = &plan.buffers[bi];
    staged[mi] = true;
    let hoists = plan_hoists(plan, buf.array, hoistable);
    let parked_fits = hoists
        && persistent
            .get(&buf.array)
            .is_some_and(|p| p.extents == local.bufs[bi].1 && p.offsets == local.bufs[bi].2);
    if parked_fits && !prefetch {
        local.bufs[bi]
            .0
            .copy_from_slice(&persistent[&buf.array].data);
        return Ok(None);
    }
    // Residency defers to a shape-stable parked copy (free, so cheaper
    // than any delta).
    let resident = pred.filter(|_| !parked_fits).and_then(|p| {
        let prev = &p.staging.as_ref()?.local;
        let rp = shared_residency(sp, &sb.fixed, &p.fixed)?.plans.get(&bi)?;
        Some((rp, prev))
    });
    // A stale differently-shaped parked copy must reach global memory
    // before this sub-tile stages fresh data — the predecessor's
    // writes must be in the overlay before the move-in reads it. A
    // prefetched full window leaves the parked copy alone: the
    // predecessor has not moved out yet and re-parks it when it does.
    if hoists && !parked_fits && (resident.is_some() || !prefetch) {
        if let Some(p) = persistent.remove(&buf.array) {
            if p.dirty {
                writeback_persistent(&p, overlay, stats, clock, config)?;
            }
        }
    }
    let mut err: Option<MachineError> = None;
    // Re-base the retained atoms: the predecessor's window contains
    // them by construction (retained ⊆ W(s−1) ⊆ its bounding box), so
    // the indexed reads below are always in bounds, boundary tiles
    // included.
    let mut retained = 0u64;
    if let Some((rp, prev)) = resident {
        polymem_core::smem::residency::for_each_retained(rp, buf, pparams, &mut |g, l| {
            if err.is_some() {
                return;
            }
            match prev.get(bi, &level1_index(buf, &prev.bufs[bi].2, g)) {
                Ok(v) => {
                    if let Err(e) = local.set(bi, l, v) {
                        err = Some(e);
                    }
                }
                Err(e) => err = Some(e),
            }
            retained += 1;
        })?;
        if let Some(e) = err.take() {
            return Err(e);
        }
    }
    // Fetch what crosses the bus: the delta atoms, or the whole window.
    let name = &program.arrays[buf.array].name;
    let ext = &clock.ext[buf.array];
    let mut fetched = 0u64;
    let mut fetch = |g: &[i64], l: &[i64]| {
        if err.is_some() {
            return;
        }
        match read_global(store, overlay, buf.array, name, g, ext) {
            Ok(v) => {
                if let Err(e) = local.set(bi, l, v) {
                    err = Some(e);
                }
            }
            Err(e) => err = Some(e),
        }
        fetched += 1;
    };
    match resident {
        Some((rp, _)) => {
            polymem_core::smem::residency::for_each_delta_in(rp, buf, pparams, &mut fetch)?
        }
        None => polymem_core::smem::movement::for_each_move_in(mc, buf, pparams, &mut fetch)?,
    }
    if let Some(e) = err {
        return Err(e);
    }
    stats.global_reads += fetched;
    stats.moved_in += fetched;
    Ok(Some(match resident {
        Some((rp, _)) => {
            stats.retained_elems += retained;
            stats.delta_elems += fetched;
            stats.residency_groups += 1;
            clock.issue_delta(rp, buf, pparams, config, earliest, retained)?
        }
        None => clock.issue_movement(plan, mi, pparams, Direction::In, config, earliest)?,
    }))
}

/// The flush-delta plan for one movement entry, present iff the delta
/// flush is legal *and* the successor sub-tile will provably stage
/// this buffer by residency — decided with the exact predicate and
/// argument pair its move-in uses ([`shared_residency`] on
/// `(next_fixed, fixed)`), so the two sides can never disagree.
/// `None` means the full move-out must run.
fn flush_delta_plan<'a>(
    sp: &'a SymbolicPlan,
    mi: usize,
    fixed: &HashMap<String, i64>,
    next_fixed: Option<&HashMap<String, i64>>,
) -> Option<&'a RetainPlan> {
    let res = shared_residency(sp, next_fixed?, fixed)?;
    let rp = res.plans.get(&sp.plan.movement[mi].buffer)?;
    rp.flush_legal.then_some(rp)
}

/// Apply one movement entry's move-out (local → global overlay) and
/// queue its DMA list at the current cycle. Hoisted arrays park in
/// `persistent` instead (one writeback at the end of the block;
/// nothing crosses the bus, no tag). When the successor stages this
/// buffer by residency and [`RetainPlan::flush_legal`] holds, only
/// the flush delta is written back: the skipped elements lie in the
/// successor's write set, so a later sub-tile's flush overwrites them
/// before anything can read them from global memory, and their newest
/// values are already where every legal reader looks (this sub-tile's
/// still-live scratchpad).
#[allow(clippy::too_many_arguments)]
fn move_out_buffer<'a>(
    sb: &SubBlock<'a>,
    mi: usize,
    next_fixed: Option<&HashMap<String, i64>>,
    overlay: &mut Overlay,
    stats: &mut ExecStats,
    hoistable: &HashSet<usize>,
    persistent: &mut HashMap<usize, Persistent<'a>>,
    clock: &mut BlockClock,
    config: &MachineConfig,
) -> Result<Option<DmaTag>> {
    let staging = sb.staging.as_ref().expect("staged");
    let sp: &'a SymbolicPlan = staging.plan;
    let plan = &sp.plan;
    let mc = &plan.movement[mi];
    let buf = &plan.buffers[mc.buffer];
    if plan_hoists(plan, buf.array, hoistable) {
        let dirty = !mc.write_spaces.is_empty();
        let prev_dirty = persistent.get(&buf.array).is_some_and(|q| q.dirty);
        persistent.insert(
            buf.array,
            Persistent {
                buffer: buf,
                mc,
                pparams: sb.pparams.clone(),
                data: staging.local.bufs[mc.buffer].0.clone(),
                extents: staging.local.bufs[mc.buffer].1.clone(),
                offsets: staging.local.bufs[mc.buffer].2.clone(),
                dirty: dirty || prev_dirty,
            },
        );
        return Ok(None);
    }
    let flush = flush_delta_plan(sp, mi, &sb.fixed, next_fixed);
    let ls = &staging.local;
    let mut err = None;
    let mut n = 0u64;
    let aext = &clock.ext[buf.array];
    let mut copy = |g: &[i64], l: &[i64]| {
        if err.is_some() {
            return;
        }
        match ls.get(mc.buffer, l) {
            Ok(v) => {
                if let Err(e) = overlay.set_idx(buf.array, &buf.array_name, g, aext, v) {
                    err = Some(MachineError::Ir(e));
                }
            }
            Err(e) => err = Some(e),
        }
        n += 1;
    };
    match flush {
        Some(rp) => {
            polymem_core::smem::residency::for_each_flush_delta(rp, buf, &sb.pparams, &mut copy)?
        }
        None => polymem_core::smem::movement::for_each_move_out(mc, buf, &sb.pparams, &mut copy)?,
    }
    if let Some(e) = err {
        return Err(e);
    }
    stats.global_writes += n;
    stats.moved_out += n;
    let now = clock.now;
    Ok(Some(match flush {
        Some(rp) => {
            stats.flushed_delta_elems += n;
            clock.issue_flush(rp, buf, &sb.pparams, config, now)?
        }
        None => clock.issue_movement(plan, mi, &sb.pparams, Direction::Out, config, now)?,
    }))
}

/// Execute the sub-block's statement instances in interleaved source
/// order, then charge the modeled compute cycles to the block clock.
///
/// Dispatch: when the launch compiled (bytecode bodies + the lowered
/// streams of its block shape), the compiled engine runs the
/// instances — including hierarchy (level-2) plans, whose register
/// frames it stages through the same [`stage_frames`]/[`flush_frames`]
/// protocol as the interpreter; otherwise — engine off, shape lowering
/// failure, or a per-block proof obstacle — the interpreter does, with
/// identical semantics and counters. Which engine ran, and why a
/// fallback happened, lands in [`ExecStats::compiled_blocks`] /
/// [`ExecStats::interpreted_blocks`] / [`ExecStats::fallback`].
/// `POLYMEM_EXEC_CHECK=1` runs the interpreter as an oracle on cloned
/// state beside every compiled block (outside the timed window) and
/// panics on divergence.
#[allow(clippy::too_many_arguments)]
fn compute_sub_block(
    program: &Program,
    sb: &mut SubBlock,
    params: &[i64],
    store: &ArrayStore,
    config: &MachineConfig,
    profiler: Option<&PassProfiler>,
    overlay: &mut Overlay,
    stats: &mut ExecStats,
    clock: &mut BlockClock,
    launch: &LaunchShared,
) -> Result<()> {
    let compiled = launch.bodies.is_some() && launch.streams.is_some();

    // Oracle pass (check mode only): the interpreter runs first on
    // cloned state, outside the timed window.
    let oracle = if compiled && launch.exec_check {
        let mut ov = overlay.clone();
        let mut loc = sb.staging.as_ref().map(|st| st.local.clone());
        let mut sc = ExecStats::default();
        let c = interpreted_compute(
            program,
            &sb.fixed,
            &sb.pparams,
            params,
            store,
            config,
            loc.as_mut(),
            &mut ov,
            &mut sc,
            launch,
        )?;
        Some((ov, loc, sc, c))
    } else {
        None
    };
    let before = oracle.as_ref().map(|_| stats.clone());

    let t0 = Instant::now();
    let counts = run_compiled(
        launch,
        program,
        params,
        &sb.fixed,
        &sb.pparams,
        store,
        sb.staging.as_mut().map(|st| &mut st.local),
        overlay,
        stats,
        config,
    )?;
    let (n_inst, n_smem, n_glob) = match counts {
        Some(c) => {
            stats.compiled_blocks += 1;
            (c.n_inst, c.n_smem, c.n_glob)
        }
        None => {
            stats.interpreted_blocks += 1;
            // Fallback attribution, one count per interpreted phase.
            if launch.bodies.is_none() {
                stats.fallback.engine_off += 1;
            } else if launch.streams.is_none() {
                stats.fallback.shape_uncompiled += 1;
            } else {
                stats.fallback.runtime_decline += 1;
            }
            interpreted_compute(
                program,
                &sb.fixed,
                &sb.pparams,
                params,
                store,
                config,
                sb.staging.as_mut().map(|st| &mut st.local),
                overlay,
                stats,
                launch,
            )?
        }
    };
    if let Some(pr) = profiler {
        pr.record(crate::trace::PassKind::Compute, t0.elapsed());
    }
    stats.compute_ns += t0.elapsed().as_nanos() as u64;

    if let (Some((ov, loc, sc, oc)), Some(before)) = (oracle, before) {
        let local_now = sb.staging.as_ref().map(|st| st.local.clone());
        let deltas = (
            stats.instances - before.instances,
            stats.global_reads - before.global_reads,
            stats.global_writes - before.global_writes,
            stats.smem_reads - before.smem_reads,
            stats.smem_writes - before.smem_writes,
            stats.smem_loads_saved - before.smem_loads_saved,
            stats.reg_bytes_moved - before.reg_bytes_moved,
            stats.hier_groups - before.hier_groups,
        );
        let odeltas = (
            sc.instances,
            sc.global_reads,
            sc.global_writes,
            sc.smem_reads,
            sc.smem_writes,
            sc.smem_loads_saved,
            sc.reg_bytes_moved,
            sc.hier_groups,
        );
        assert!(
            *overlay == ov
                && local_now == loc
                && deltas == odeltas
                && (n_inst, n_smem, n_glob) == oc,
            "POLYMEM_EXEC_CHECK: compiled execution diverged from the interpreter \
             (fixed dims {:?}: overlay match {}, local match {}, counters {:?} vs {:?})",
            sb.fixed,
            *overlay == ov,
            local_now == loc,
            deltas,
            odeltas,
        );
    }

    clock.now += launch.cost.compute_cycles(n_inst, n_smem, n_glob);
    Ok(())
}

/// Register frames staged for one inner process (thread key) during a
/// sub-block's compute phase. Shared by both engines: the interpreter
/// and the compiled engine stage, serve and flush frames through the
/// same functions, which is what keeps `smem_loads_saved`,
/// `reg_bytes_moved`, `hier_groups` and the typed overflow check
/// bit-identical between them.
pub(crate) struct FrameSet {
    /// The thread-dim values the frames are staged for.
    pub(crate) key: Vec<i64>,
    /// `params ++ ext values` at this key — the parameter vector every
    /// level-2 affine structure evaluates under.
    pub(crate) pp2: Vec<i64>,
    /// Frame storage, indexed by level-2 buffer id.
    pub(crate) frames: LocalStore,
}

/// The local index of global array element `g` in buffer `buf1`
/// (whose concrete offsets are `offsets1`): a level-1 buffer backing a
/// register frame, or the predecessor's window residency re-bases
/// from.
fn level1_index(buf1: &LocalBuffer, offsets1: &[i64], g: &[i64]) -> Vec<i64> {
    buf1.kept_dims
        .iter()
        .zip(offsets1)
        .map(|(&d, &o)| g[d] - o)
        .collect()
}

/// Stage every register frame for one thread key (smem → reg move-in):
/// allocate the frames at the key's concrete extents, enforce the
/// register-file capacity at runtime (the plan-time gate only checked
/// the representative block — frames can grow past it, e.g. on
/// triangular domains), then run the level-2 movement code against the
/// backing level-1 buffers. Returns the staged set plus the scratchpad
/// reads to charge the cycle model.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stage_frames(
    h: &HierPlan,
    plan1: &SmemPlan,
    key: Vec<i64>,
    params: &[i64],
    fixed: &HashMap<String, i64>,
    local: &LocalStore,
    stats: &mut ExecStats,
    config: &MachineConfig,
) -> Result<(FrameSet, u64)> {
    let pp2 = h
        .ext_params(params, fixed, &key)
        .expect("hier plan was built from this shape's fixed dims");
    let mut bufs = Vec::with_capacity(h.plan.buffers.len());
    let mut words = 0u64;
    for b in &h.plan.buffers {
        let extents = b.extents(&pp2)?;
        let offsets = b.offsets(&pp2)?;
        let size: i64 = extents.iter().product::<i64>().max(0);
        words += size as u64;
        bufs.push((vec![0i64; size as usize], extents, offsets));
    }
    if words > h.regs_per_inner {
        return Err(MachineError::RegisterOverflow {
            requested: words,
            available: h.regs_per_inner,
        });
    }
    let mut frames = LocalStore { bufs };
    let mut n_smem = 0u64;
    for mc in &h.plan.movement {
        let buf = &h.plan.buffers[mc.buffer];
        let buf1 = &plan1.buffers[h.backing[mc.buffer]];
        let mut err = None;
        polymem_core::smem::movement::for_each_move_in(mc, buf, &pp2, &mut |g, l| {
            if err.is_some() {
                return;
            }
            let l1 = level1_index(buf1, &local.bufs[buf1.id].2, g);
            match local.get(buf1.id, &l1) {
                Ok(v) => {
                    if let Err(e) = frames.set(mc.buffer, l, v) {
                        err = Some(e);
                    }
                }
                Err(e) => err = Some(e),
            }
            stats.smem_reads += 1;
            stats.reg_bytes_moved += config.word_bytes;
            n_smem += 1;
        })?;
        if let Some(e) = err {
            return Err(e);
        }
    }
    stats.hier_groups += 1;
    Ok((FrameSet { key, pp2, frames }, n_smem))
}

/// Flush written register frames back to their level-1 buffers
/// (reg → smem move-out) before the thread key changes or the compute
/// phase ends. Read-only frames are dropped for free. Returns the
/// scratchpad writes to charge the cycle model.
pub(crate) fn flush_frames(
    h: &HierPlan,
    plan1: &SmemPlan,
    fs: &FrameSet,
    local: &mut LocalStore,
    stats: &mut ExecStats,
    config: &MachineConfig,
) -> Result<u64> {
    let mut n_smem = 0u64;
    for mc in &h.plan.movement {
        if mc.write_spaces.is_empty() {
            continue;
        }
        let buf = &h.plan.buffers[mc.buffer];
        let buf1 = &plan1.buffers[h.backing[mc.buffer]];
        let mut err = None;
        polymem_core::smem::movement::for_each_move_out(mc, buf, &fs.pp2, &mut |g, l| {
            if err.is_some() {
                return;
            }
            let l1 = level1_index(buf1, &local.bufs[buf1.id].2, g);
            match fs.frames.get(mc.buffer, l) {
                Ok(v) => {
                    if let Err(e) = local.set(buf1.id, &l1, v) {
                        err = Some(e);
                    }
                }
                Err(e) => err = Some(e),
            }
            stats.smem_writes += 1;
            stats.reg_bytes_moved += config.word_bytes;
            n_smem += 1;
        })?;
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(n_smem)
}

/// The reference per-point interpreter for one sub-block's compute
/// phase: enumerate every statement's instances through the launch's
/// shared layout (bound evaluation at `pparams`), sort into
/// interleaved source order, then walk them through `Expr::eval` and
/// `AffineMap::apply`. It shares the layout with the compiled engine
/// but none of its walking code, which is what makes it an oracle.
/// `local` is the sub-block's staged scratchpad (present iff the
/// launch has a plan). Returns the `(instances, smem accesses, global
/// accesses)` tallies for the cycle model.
///
/// When the shared symbolic plan carries a level-2 (register-tile)
/// plan, the walk additionally stages register frames per thread key:
/// on every thread-key change the previous key's written frames flush
/// to scratchpad and the new key's frames stage from it, and accesses
/// rewritten at level 2 are served from the frames (counted in
/// `smem_loads_saved`, charged near-zero latency) instead of touching
/// scratchpad. Flush-on-change keeps cross-key overlap (e.g. sliding
/// windows) exact — §3.1 partitioning guarantees frames never alias
/// any other access of the same instance at any thread value.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn interpreted_compute(
    program: &Program,
    fixed: &HashMap<String, i64>,
    pparams: &[i64],
    params: &[i64],
    store: &ArrayStore,
    config: &MachineConfig,
    mut local: Option<&mut LocalStore>,
    overlay: &mut Overlay,
    stats: &mut ExecStats,
    launch: &LaunchShared,
) -> Result<(u64, u64, u64)> {
    let source = launch.plan.as_deref();
    let hier: Option<&HierPlan> = source.and_then(|sp| sp.hier.as_ref());
    let mut cur_frames: Option<FrameSet> = None;

    let mut instances: Vec<(usize, Vec<i64>)> = Vec::new();
    for (si, l) in launch.layouts.iter().enumerate() {
        enumerate_with_cascade(
            &l.domain,
            &l.cascade,
            pparams,
            config.enum_budget,
            &mut |p| instances.push((si, l.full_point(p, pparams))),
        )
        .map_err(budget_error)?;
    }
    let common = &launch.common;
    instances.sort_by(|(sa, pa), (sb, pb)| {
        let c = common[*sa][*sb];
        for k in 0..c {
            match pa[k].cmp(&pb[k]) {
                std::cmp::Ordering::Equal => {}
                o => return o,
            }
        }
        match sa.cmp(sb) {
            std::cmp::Ordering::Equal => pa[c..].cmp(&pb[c..]),
            o => o,
        }
    });

    let (mut n_inst, mut n_smem, mut n_glob) = (0u64, 0u64, 0u64);
    for (si, point) in &instances {
        let stmt = &program.stmts[*si];
        // Stage the instance's register frames: flush the previous
        // thread key's written frames, load this key's from
        // scratchpad. Statements that don't iterate every thread dim
        // have no key and never touch frames (the thread-complete
        // gate dropped any group they could alias).
        if let Some(h) = hier {
            if let Some(key) = h.thread_key(*si, point) {
                if cur_frames.as_ref().map(|fs| &fs.key) != Some(&key) {
                    let plan1 = &source.expect("hier implies staging").plan;
                    let ls = local.as_deref_mut().expect("hier implies local store");
                    if let Some(fs) = cur_frames.take() {
                        n_smem += flush_frames(h, plan1, &fs, ls, stats, config)?;
                    }
                    let (fs, dn) = stage_frames(h, plan1, key, params, fixed, ls, stats, config)?;
                    n_smem += dn;
                    cur_frames = Some(fs);
                }
            }
        }
        let mut reads = Vec::with_capacity(stmt.reads.len());
        for (k, r) in stmt.reads.iter().enumerate() {
            let id = AccessId::read(*si, k);
            let mut staged = None;
            // Level-2 hit: serve the read from the register frame at
            // near-zero cost (no smem access in the cycle model).
            if let (Some(h), Some(fs)) = (hier, cur_frames.as_ref()) {
                if let Some(la) = h.plan.rewrites.get(&id) {
                    let buf = &h.plan.buffers[la.buffer];
                    let proj = h.project_point(*si, point);
                    let idx = la.local_index(buf, &proj, &fs.pp2)?;
                    stats.smem_loads_saved += 1;
                    staged = Some(fs.frames.get(la.buffer, &idx)?);
                }
            }
            if staged.is_none() {
                if let Some(sp) = source {
                    if let Some(la) = sp.plan.rewrites.get(&id) {
                        let buf = &sp.plan.buffers[la.buffer];
                        let proj = sp.project_point(*si, point);
                        let idx = la.local_index(buf, &proj, pparams)?;
                        stats.smem_reads += 1;
                        n_smem += 1;
                        staged = Some(
                            local
                                .as_deref()
                                .expect("staged plan implies local store")
                                .get(la.buffer, &idx)?,
                        );
                    }
                }
            }
            let v = match staged {
                Some(v) => v,
                None => {
                    let idx = r.map.apply(point, params)?;
                    let name = &program.arrays[r.array].name;
                    stats.global_reads += 1;
                    n_glob += 1;
                    read_global(store, overlay, r.array, name, &idx, &launch.ext[r.array])?
                }
            };
            reads.push(v);
        }
        let value = stmt.body.eval(&reads, point, params)?;
        let wid = AccessId::write(*si);
        let mut staged = false;
        // Level-2 hit: the write lands in the register frame and
        // reaches scratchpad once, at the next flush.
        if let (Some(h), Some(fs)) = (hier, cur_frames.as_mut()) {
            if let Some(la) = h.plan.rewrites.get(&wid) {
                let buf = &h.plan.buffers[la.buffer];
                let proj = h.project_point(*si, point);
                let idx = la.local_index(buf, &proj, &fs.pp2)?;
                fs.frames.set(la.buffer, &idx, value)?;
                staged = true;
            }
        }
        if !staged {
            if let Some(sp) = source {
                if let Some(la) = sp.plan.rewrites.get(&wid) {
                    let buf = &sp.plan.buffers[la.buffer];
                    let proj = sp.project_point(*si, point);
                    let idx = la.local_index(buf, &proj, pparams)?;
                    stats.smem_writes += 1;
                    n_smem += 1;
                    local
                        .as_deref_mut()
                        .expect("staged plan implies local store")
                        .set(la.buffer, &idx, value)?;
                    staged = true;
                }
            }
        }
        if !staged {
            let a = stmt.write.array;
            let idx = stmt.write.map.apply(point, params)?;
            stats.global_writes += 1;
            n_glob += 1;
            overlay
                .set_idx(a, &program.arrays[a].name, &idx, &launch.ext[a], value)
                .map_err(MachineError::Ir)?;
        }
        stats.instances += 1;
        n_inst += 1;
    }
    // Final flush: the last thread key's written frames must reach
    // scratchpad before the sub-block's move-out runs.
    if let (Some(h), Some(fs)) = (hier, cur_frames.take()) {
        let plan1 = &source.expect("hier implies staging").plan;
        let ls = local.expect("hier implies local store");
        n_smem += flush_frames(h, plan1, &fs, ls, stats, config)?;
    }
    Ok((n_inst, n_smem, n_glob))
}

/// Execute one thread block: the single sub-tile driver. Every
/// schedule is this loop — per sub-tile `t`: stage what is left of
/// `t`, prepare `t+1` (and, when overlap is legal and on, prefetch its
/// eligible groups), wait `t`'s tags, compute, move out. A mapping
/// without sequential sub-tiles is one sub-tile spanning the block;
/// the synchronous schedule is the pipeline at prefetch depth 0.
///
/// Overlap (double buffering) only changes *when* a copy is issued,
/// never *what* it copies: with it on, the move-in for `t+1` is in
/// flight on the DMA channels while `t` computes, and `t`'s move-out
/// is left flying over `t+1`; with it off, every tag is waited on at
/// issue. Functional semantics are identical either way: prefetched
/// groups carry no seq-dim flow dependence (`poisoned`, from
/// [`overlap_poisoned_reads`]), and everything else — hoisted copies,
/// poisoned or written groups — stages after the previous sub-tile's
/// move-out.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn execute_one_block(
    kernel: &BlockedKernel,
    fixed: &HashMap<String, i64>,
    params: &[i64],
    store: &ArrayStore,
    config: &MachineConfig,
    profiler: Option<&PassProfiler>,
    poisoned: Option<&HashSet<AccessId>>,
    launch: &LaunchShared,
    block_idx: u64,
) -> Result<(Overlay, ExecStats)> {
    let mut overlay = Overlay::new(kernel.program.arrays.len());
    let mut stats = ExecStats {
        blocks: 1,
        ..ExecStats::default()
    };
    let mut clock = BlockClock::new(launch.ext.clone(), config, block_idx);
    // Sequential sub-tiles with §4.2 hoisting; otherwise one sub-tile
    // spans the block and nothing hoists.
    let (seq_vals, hoistable) = if kernel.use_scratchpad && !kernel.seq_dims.is_empty() {
        let Some(lead) = kernel.program.stmts.first() else {
            return Ok((overlay, stats));
        };
        (
            enumerate_named(lead, &kernel.seq_dims, params, fixed, config.enum_budget)?,
            seq_redundant_arrays(kernel),
        )
    } else {
        (Vec::new(), HashSet::new())
    };
    let seqs = if seq_vals.is_empty() {
        vec![Vec::new()]
    } else {
        seq_vals
    };
    let prepare = |sv: &[i64], stats: &mut ExecStats| {
        let mut f2 = fixed.clone();
        for (n, v) in kernel.seq_dims.iter().zip(sv) {
            f2.insert(n.clone(), *v);
        }
        prepare_sub_block(f2, params, launch, stats)
    };
    let overflows = |words: u64| {
        (config.smem_bytes > 0 && words * config.word_bytes > config.smem_bytes)
            .then_some((words * config.word_bytes, config.smem_bytes))
    };
    let poisoned = poisoned.filter(|_| config.double_buffer && seqs.len() > 1);
    let overlap = poisoned.is_some();
    let mut persistent: HashMap<usize, Persistent> = HashMap::new();
    // The lexicographic predecessor, kept alive past its move-out:
    // its scratchpad holds the newest value of every element (flushing
    // copies out of it, never into it), which is what residency
    // re-bases retained atoms from — also under a delta flush, whose
    // skipped elements are exactly the ones served from here.
    let mut pred: Option<SubBlock> = None;
    let mut cur = prepare(&seqs[0], &mut stats)?;
    // Cycle at which the previous sub-tile's move-out has drained:
    // its writes are in global memory and its buffer slots are free.
    let mut out_done = 0u64;
    for t in 0..seqs.len() {
        let cur_words = cur.staging.as_ref().map_or(0, |st| st.words);
        if let Some((requested, available)) = overflows(cur_words) {
            return Err(MachineError::ScratchpadOverflow {
                requested,
                available,
            });
        }
        // Stage whatever prefetching left of `t` (everything, when
        // overlap is off or `t` is the first sub-tile): the stale
        // parked copies, hoisted-copy shortcuts, written groups and
        // groups pinned by a seq-carried flow dependence. These must
        // observe `t−1`'s writes, so they run after its move-out and
        // their transfers start no earlier than `out_done`.
        if let Some(sp) = cur.staging.as_ref().map(|st| st.plan) {
            let t0 = Instant::now();
            let plan = &sp.plan;
            let n_move = plan.movement.len();
            for mi in 0..n_move {
                if cur.staging.as_ref().expect("staged").staged[mi] {
                    continue;
                }
                let Some(tag) = stage_entry(
                    &kernel.program,
                    &mut cur,
                    mi,
                    pred.as_ref(),
                    &hoistable,
                    &mut persistent,
                    false,
                    store,
                    &mut overlay,
                    &mut stats,
                    &mut clock,
                    config,
                    out_done,
                )?
                else {
                    continue;
                };
                clock.wait(&tag);
                let array = plan.buffers[plan.movement[mi].buffer].array;
                if t > 0
                    && !plan_hoists(plan, array, &hoistable)
                    && poisoned.is_some_and(|p| buffer_poisoned(plan, mi, p))
                {
                    stats.sync_groups += 1;
                }
            }
            if let Some(pr) = profiler {
                pr.record(crate::trace::PassKind::MoveIn, t0.elapsed());
            }
        }
        let mut next = match seqs.get(t + 1) {
            Some(sv) => Some(prepare(sv, &mut stats)?),
            None => None,
        };
        // Prefetch `t+1`'s overlap-legal, non-hoisted groups; the
        // transfers fly while `t` computes. Functionally the copies
        // happen before `t`'s writes, which is exactly what the
        // legality check licenses. Their slots were `t−1`'s, so they
        // start no earlier than `out_done`; and two footprints must be
        // resident at once.
        let next_plan = next
            .as_ref()
            .and_then(|nx| Some(&nx.staging.as_ref()?.plan.plan));
        if let (Some(poisoned), Some(nx), Some(plan)) = (poisoned, next.as_mut(), next_plan) {
            let words = cur_words + nx.staging.as_ref().map_or(0, |st| st.words);
            if let Some((requested, available)) = overflows(words) {
                return Err(MachineError::DoubleBufferOverflow {
                    requested,
                    available,
                });
            }
            let t0 = Instant::now();
            for mi in 0..plan.movement.len() {
                let bi = plan.movement[mi].buffer;
                // Only read-only, dependence-free buffers the hoist
                // shortcut cannot satisfy prefetch: a written buffer's
                // move-in may read locations the previous sub-tile
                // wrote (an output/anti dependence the flow-dep check
                // does not cover). Read-only and retention-legal also
                // means `cur`'s pre-compute contents already hold the
                // retained values residency re-bases from.
                if !plan.movement[mi].write_spaces.is_empty()
                    || buffer_poisoned(plan, mi, poisoned)
                    || hoist_shortcut_hits(plan, &cur, nx, bi, &hoistable)
                {
                    continue;
                }
                if let Some(tag) = stage_entry(
                    &kernel.program,
                    nx,
                    mi,
                    Some(&cur),
                    &hoistable,
                    &mut persistent,
                    true,
                    store,
                    &mut overlay,
                    &mut stats,
                    &mut clock,
                    config,
                    out_done,
                )? {
                    nx.staging.as_mut().expect("staged").tags.push(tag);
                    stats.overlap_groups += 1;
                }
            }
            if let Some(pr) = profiler {
                pr.record(crate::trace::PassKind::MoveIn, t0.elapsed());
            }
        }
        // The prefetches for `cur` (issued while `t−1` computed) must
        // have landed before its compute touches the buffers.
        if let Some(st) = cur.staging.as_mut() {
            for tag in std::mem::take(&mut st.tags) {
                clock.wait(&tag);
            }
        }
        compute_sub_block(
            &kernel.program,
            &mut cur,
            params,
            store,
            config,
            profiler,
            &mut overlay,
            &mut stats,
            &mut clock,
            launch,
        )?;
        // Move-out of `t`: applied functionally now, in the same order
        // under every schedule. With overlap its DMA time flies over
        // `t+1`'s compute; without, each tag is waited on at issue.
        out_done = clock.now;
        if let Some(n_move) = cur.staging.as_ref().map(|st| st.plan.plan.movement.len()) {
            let t0 = Instant::now();
            let next_fixed = next.as_ref().map(|nx| &nx.fixed);
            for mi in 0..n_move {
                if let Some(tag) = move_out_buffer(
                    &cur,
                    mi,
                    next_fixed,
                    &mut overlay,
                    &mut stats,
                    &hoistable,
                    &mut persistent,
                    &mut clock,
                    config,
                )? {
                    if !overlap {
                        clock.wait(&tag);
                    }
                    out_done = out_done.max(tag.done);
                }
            }
            if let Some(pr) = profiler {
                pr.record(crate::trace::PassKind::MoveOut, t0.elapsed());
            }
        }
        pred = next.map(|nx| std::mem::replace(&mut cur, nx));
    }
    // Deterministic writeback order (DMA timing depends on it).
    let mut arrays: Vec<usize> = persistent.keys().copied().collect();
    arrays.sort_unstable();
    for a in arrays {
        let p = &persistent[&a];
        if p.dirty {
            writeback_persistent(p, &mut overlay, &mut stats, &mut clock, config)?;
        }
    }
    clock.now = clock.dma.drain(clock.now);
    stats.block_cycles = clock.now;
    stats.dma = clock.dma.stats.clone();
    Ok((overlay, stats))
}

/// A global element read: the block's own buffered writes shadow the
/// store. Overlay lookups go through the flat row-major offset; an
/// index that does not flatten falls through to `store.get`, whose
/// typed out-of-bounds error is authoritative.
fn read_global(
    store: &ArrayStore,
    overlay: &Overlay,
    array: usize,
    name: &str,
    idx: &[i64],
    ext: &[i64],
) -> Result<i64> {
    if let Some(v) = flatten(idx, ext).and_then(|off| overlay.get(array, off)) {
        return Ok(v);
    }
    Ok(store.get(name, idx)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem_core::tiling::transform::{tile_program, TileSpec};
    use polymem_ir::expr::v;
    use polymem_ir::{exec_program, Expr, LinExpr, ProgramBuilder};

    /// C[i][j] = A[i][j] + A[i][j+1], tiled 2-D.
    fn window2d() -> Program {
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

    fn reference(params: &[i64]) -> ArrayStore {
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
    fn blocked_seq() -> BlockedKernel {
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

    fn run_seq(double_buffer: bool, params: &[i64]) -> (ArrayStore, ExecStats) {
        let k = blocked_seq();
        let p = window2d();
        let mut st = ArrayStore::for_program(&p, params).unwrap();
        st.fill_with("A", |ix| ix[0] * 1000 + ix[1]).unwrap();
        let mut cfg = MachineConfig::cell_like();
        cfg.double_buffer = double_buffer;
        let stats = execute_blocked(&k, params, &mut st, &cfg, false).unwrap();
        (st, stats)
    }

    #[test]
    fn absorb_accumulates_every_field() {
        // Explicit struct literals (no `..`) so a future field forces
        // this test — and `absorb` — to be revisited.
        let mk = |x: u64| ExecStats {
            blocks: x,
            instances: x + 1,
            global_reads: x + 2,
            global_writes: x + 3,
            smem_reads: x + 4,
            smem_writes: x + 5,
            moved_in: x + 6,
            moved_out: x + 7,
            rounds: x + 8,
            max_smem_words: x + 9,
            plan_cache_hits: x + 10,
            plan_cache_misses: x + 11,
            block_cycles: x + 12,
            modeled_cycles: x + 13,
            overlap_groups: x + 14,
            sync_groups: x + 15,
            smem_loads_saved: x + 23,
            reg_bytes_moved: x + 24,
            hier_groups: x + 25,
            retained_elems: x + 32,
            delta_elems: x + 33,
            flushed_delta_elems: x + 35,
            residency_groups: x + 34,
            compiled_blocks: x + 26,
            interpreted_blocks: x + 27,
            fallback: FallbackStats {
                engine_off: x + 28,
                shape_uncompiled: x + 30,
                runtime_decline: x + 31,
            },
            compute_ns: x + 22,
            dma: DmaStats {
                descriptors: x + 16,
                elements: x + 17,
                bytes: x + 18,
                channel_busy_cycles: vec![x, x + 19],
                stall_cycles: x + 20,
                bytes_hist: vec![x + 21],
            },
        };
        let mut a = mk(100);
        let b = mk(1);
        a.absorb(&b);
        assert_eq!(a.blocks, 101);
        assert_eq!(a.instances, 103);
        assert_eq!(a.global_reads, 105);
        assert_eq!(a.global_writes, 107);
        assert_eq!(a.smem_reads, 109);
        assert_eq!(a.smem_writes, 111);
        assert_eq!(a.moved_in, 113);
        assert_eq!(a.moved_out, 115);
        assert_eq!(a.rounds, 117);
        assert_eq!(a.max_smem_words, 109); // max, not sum
        assert_eq!(a.plan_cache_hits, 121);
        assert_eq!(a.plan_cache_misses, 123);
        assert_eq!(a.block_cycles, 125);
        assert_eq!(a.modeled_cycles, 127);
        assert_eq!(a.overlap_groups, 129);
        assert_eq!(a.sync_groups, 131);
        assert_eq!(a.dma.descriptors, 133);
        assert_eq!(a.dma.elements, 135);
        assert_eq!(a.dma.bytes, 137);
        assert_eq!(a.dma.channel_busy_cycles, vec![101, 139]);
        assert_eq!(a.dma.stall_cycles, 141);
        assert_eq!(a.dma.bytes_hist, vec![143]);
        assert_eq!(a.compute_ns, 145); // CPU time sums across workers
        assert_eq!(a.smem_loads_saved, 147);
        assert_eq!(a.reg_bytes_moved, 149);
        assert_eq!(a.hier_groups, 151);
        assert_eq!(a.retained_elems, 165);
        assert_eq!(a.delta_elems, 167);
        assert_eq!(a.flushed_delta_elems, 171);
        assert_eq!(a.residency_groups, 169);
        assert_eq!(a.compiled_blocks, 153);
        assert_eq!(a.interpreted_blocks, 155);
        assert_eq!(a.fallback.engine_off, 157);
        assert_eq!(a.fallback.shape_uncompiled, 161);
        assert_eq!(a.fallback.runtime_decline, 163);
        assert_eq!(a.fallback.total(), 157 + 161 + 163);
    }

    /// Square matmul C[i][j] += A[i][k] * B[k][j] with i and j tiled,
    /// mapped with `i` distributed across the inner processes.
    fn matmul_hier_kernel() -> (Program, BlockedKernel) {
        let mut b = ProgramBuilder::new("mm", ["N"]);
        b.array("A", &[v("N"), v("N")]);
        b.array("B", &[v("N"), v("N")]);
        b.array("C", &[v("N"), v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("N") - 1),
                ("k", LinExpr::c(0), v("N") - 1),
            ])
            .write("C", &[v("i"), v("j")])
            .read("C", &[v("i"), v("j")])
            .read("A", &[v("i"), v("k")])
            .read("B", &[v("k"), v("j")])
            .body(Expr::add(
                Expr::Read(0),
                Expr::mul(Expr::Read(1), Expr::Read(2)),
            ))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 4)], "T")).unwrap();
        let k = BlockedKernel {
            program: t,
            round_dims: vec![],
            block_dims: vec!["iT".into(), "jT".into()],
            seq_dims: vec![],
            thread_dims: vec!["i".into()],
            use_scratchpad: true,
        };
        (p, k)
    }

    fn run_hier(
        k: &BlockedKernel,
        p: &Program,
        hierarchy: bool,
        parallel: bool,
    ) -> (ArrayStore, ExecStats) {
        let mut st = ArrayStore::for_program(p, &[8]).unwrap();
        st.fill_with("A", |ix| ix[0] * 7 + ix[1]).unwrap();
        st.fill_with("B", |ix| ix[0] - 3 * ix[1]).unwrap();
        let mut cfg = MachineConfig::geforce_8800_gtx();
        cfg.hierarchy = hierarchy;
        let stats = execute_blocked(k, &[8], &mut st, &cfg, parallel).unwrap();
        (st, stats)
    }

    #[test]
    fn hierarchy_is_bit_exact_and_cuts_scratchpad_traffic() {
        let (p, k) = matmul_hier_kernel();
        let (st_off, off) = run_hier(&k, &p, false, false);
        let (st_on, on) = run_hier(&k, &p, true, false);
        assert_eq!(st_on.data("C").unwrap(), st_off.data("C").unwrap());
        assert_eq!(st_on.data("C").unwrap(), {
            let mut r = ArrayStore::for_program(&p, &[8]).unwrap();
            r.fill_with("A", |ix| ix[0] * 7 + ix[1]).unwrap();
            r.fill_with("B", |ix| ix[0] - 3 * ix[1]).unwrap();
            exec_program(&p, &[8], &mut r).unwrap();
            r.data("C").unwrap().to_vec()
        });
        // Reused C and A rows are served from register frames: the
        // scratchpad sees only B reads plus the frame staging traffic.
        assert_eq!(off.smem_loads_saved, 0);
        assert_eq!(off.hier_groups, 0);
        assert!(on.smem_loads_saved > 0);
        assert!(on.reg_bytes_moved > 0);
        // 4 blocks × 4 thread values each.
        assert_eq!(on.hier_groups, 16);
        let traffic = |s: &ExecStats| s.smem_reads + s.smem_writes;
        assert!(
            traffic(&on) * 2 <= traffic(&off),
            "expected ≥2× scratchpad-traffic cut: {} vs {}",
            traffic(&on),
            traffic(&off)
        );
        // Fewer scratchpad accesses at equal functional global traffic
        // can only lower the modeled time.
        assert!(on.modeled_cycles <= off.modeled_cycles);
        assert_eq!(on.global_reads, off.global_reads);
        assert_eq!(on.global_writes, off.global_writes);
    }

    #[test]
    fn hierarchy_parallel_is_deterministic() {
        let (p, k) = matmul_hier_kernel();
        let (seq, s1) = run_hier(&k, &p, true, false);
        let (par, s2) = run_hier(&k, &p, true, true);
        assert_eq!(seq.data("C").unwrap(), par.data("C").unwrap());
        assert_eq!(s1, s2);
    }

    #[test]
    fn register_overflow_is_typed() {
        // Triangular domain: the T frame holds row i's first i+1
        // elements, so it grows past the representative (i = 0) size.
        // The plan-time gate passes; the runtime check must trip with
        // the typed error once a thread value no longer fits.
        let mut b = ProgramBuilder::new("tri", ["N"]);
        b.array("T", &[v("N"), v("N")]);
        b.array("Out", &[v("N"), v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("i")),
            ])
            .write("Out", &[v("i"), v("j")])
            .read("T", &[v("i"), v("j")])
            .read("T", &[v("i"), v("j")])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let k = BlockedKernel {
            program: p.clone(),
            round_dims: vec![],
            block_dims: vec![],
            seq_dims: vec![],
            thread_dims: vec!["i".into()],
            use_scratchpad: true,
        };
        let run = |regs: u64| {
            let mut st = ArrayStore::for_program(&p, &[8]).unwrap();
            st.fill_with("T", |ix| ix[0] * 10 + ix[1]).unwrap();
            let mut cfg = MachineConfig::geforce_8800_gtx();
            cfg.hierarchy = true;
            cfg.regs_per_inner = regs;
            execute_blocked(&k, &[8], &mut st, &cfg, false)
        };
        assert!(run(8).is_ok(), "the largest row (8 words) must fit");
        match run(4) {
            Err(MachineError::RegisterOverflow {
                requested,
                available,
            }) => {
                assert_eq!(requested, 5); // row i = 4 is the first to overflow
                assert_eq!(available, 4);
            }
            other => panic!("expected RegisterOverflow, got {other:?}"),
        }
    }

    #[test]
    fn double_buffer_is_bit_exact_and_overlaps() {
        let (off_st, off) = run_seq(false, &[16]);
        let (on_st, on) = run_seq(true, &[16]);
        assert_eq!(on_st.data("C").unwrap(), off_st.data("C").unwrap());
        assert_eq!(
            on_st.data("C").unwrap(),
            reference(&[16]).data("C").unwrap()
        );
        // Identical functional traffic, different schedule.
        assert_eq!(on.moved_in, off.moved_in);
        assert_eq!(on.moved_out, off.moved_out);
        assert_eq!(on.instances, off.instances);
        // The read-only A buffers prefetch ahead of compute…
        assert!(on.overlap_groups > 0, "no prefetches issued");
        assert_eq!(off.overlap_groups, 0);
        // …which hides transfer latency: modeled time cannot get
        // worse, and the DMA engine reports coalesced descriptors.
        assert!(on.modeled_cycles <= off.modeled_cycles);
        assert!(on.dma.descriptors > 0);
        assert!(on.dma.descriptors < on.moved_in + on.moved_out);
        assert!(on.dma.overlap_fraction() > 0.0);
    }

    #[test]
    fn double_buffer_parallel_is_deterministic() {
        let k = blocked_seq();
        let p = window2d();
        let run = |parallel: bool| {
            let mut st = ArrayStore::for_program(&p, &[13]).unwrap();
            st.fill_with("A", |ix| ix[0] * 1000 + ix[1]).unwrap();
            let mut cfg = MachineConfig::cell_like();
            cfg.double_buffer = true;
            let stats = execute_blocked(&k, &[13], &mut st, &cfg, parallel).unwrap();
            (st, stats)
        };
        let (seq, s1) = run(false);
        let (par, s2) = run(true);
        assert_eq!(seq.data("C").unwrap(), par.data("C").unwrap());
        assert_eq!(s1, s2);
    }

    #[test]
    fn double_buffer_overflow_is_typed() {
        // Find the single-buffer footprint, then give the machine
        // room for one footprint but not two.
        let (_, off) = run_seq(false, &[16]);
        let words = off.max_smem_words;
        assert!(words > 0);
        let k = blocked_seq();
        let p = window2d();
        let run = |double_buffer: bool| {
            let mut st = ArrayStore::for_program(&p, &[16]).unwrap();
            st.fill_with("A", |ix| ix[0] * 1000 + ix[1]).unwrap();
            let mut cfg = MachineConfig::cell_like();
            cfg.double_buffer = double_buffer;
            cfg.smem_bytes = words * cfg.word_bytes + cfg.word_bytes;
            execute_blocked(&k, &[16], &mut st, &cfg, false)
        };
        assert!(run(false).is_ok(), "one footprint must still fit");
        match run(true) {
            Err(MachineError::DoubleBufferOverflow {
                requested,
                available,
            }) => {
                assert!(requested > available);
            }
            other => panic!("expected DoubleBufferOverflow, got {other:?}"),
        }
    }

    #[test]
    fn seq_carried_dep_forces_sync_staging() {
        // A[s][i] = A[s-1][i] + 1 carries a flow dependence on the
        // seq dim `s`, so A's group must stage synchronously; the
        // independent Out[s][i] = B2[s][i] * 2 statement still
        // prefetches B2. Both must stay bit-exact.
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
        let run = |double_buffer: bool| {
            let mut st = ArrayStore::for_program(&p, &[8]).unwrap();
            st.fill_with("A", |ix| ix[1]).unwrap();
            st.fill_with("B2", |ix| ix[0] * 10 + ix[1]).unwrap();
            let mut cfg = MachineConfig::cell_like();
            cfg.double_buffer = double_buffer;
            let stats = execute_blocked(&k, &[8], &mut st, &cfg, false).unwrap();
            (st, stats)
        };
        let (off_st, off) = run(false);
        let (on_st, on) = run(true);
        for a in ["A", "Out"] {
            assert_eq!(on_st.data(a).unwrap(), off_st.data(a).unwrap(), "{a}");
        }
        // The recurrence result is the sequential one.
        for i in 0..8 {
            assert_eq!(on_st.get("A", &[3, i]).unwrap(), i + 3);
        }
        assert_eq!(off.sync_groups, 0);
        assert!(
            on.sync_groups > 0,
            "seq-carried dep must pin a group synchronous"
        );
        assert!(
            on.overlap_groups > 0,
            "independent group must still prefetch"
        );
    }
}
