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
use crate::trace::{PassKind, PassProfiler};
use crate::{MachineError, Result};
use polymem_core::smem::alloc::extent_words;
use polymem_core::smem::movement::{for_each_move_in, for_each_move_out};
use polymem_core::smem::residency::{for_each_delta_in, for_each_flush_delta, for_each_retained};
use polymem_core::smem::{
    analyze_symbolic_hier, check_parametrizable, delta_transfer_list, flush_transfer_list,
    parametrize_domain, plan_key, transfer_list, AccessId, ArtifactKey, ArtifactStore, Direction,
    ExtSource, HierPlan, HierSpec, LocalBuffer, MovementCode, PlanArtifact, ResidencyPlan,
    RetainPlan, SmemConfig, SmemPlan, SymbolicPlan, TransferList,
};
use polymem_ir::{ArrayStore, Program, Statement};
use polymem_poly::bounds::{bound_cascade, DimBounds};
use polymem_poly::count::enumerate_with_cascade;
use polymem_poly::{Constraint, PolyError, Polyhedron};
use std::collections::{HashMap, HashSet};
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

fn shape_error(op: &'static str) -> MachineError {
    MachineError::Poly(PolyError::SpaceMismatch { op })
}

/// One tier of the launch grid: the lead statement's shadow on the
/// tier's dims, parametric in the program parameters and the dims of
/// every outer pinned tier, with its bound cascade — the tier's values
/// under any outer coordinates are bound evaluation, not a projection.
struct Tier {
    shadow: Polyhedron,
    cascade: Vec<DimBounds>,
    /// The launch's first sub-block found a value here, so the tier's
    /// dims are part of the launch shape and every sub-block pins them.
    pinned: bool,
}

impl Tier {
    fn values(&self, outer: &[i64], budget: u64) -> Result<Vec<Vec<i64>>> {
        let mut out = Vec::new();
        enumerate_with_cascade(&self.shadow, &self.cascade, outer, budget, &mut |p| {
            out.push(p.to_vec())
        })
        .map_err(budget_error)?;
        Ok(out)
    }
}

/// The launch grid — rounds → blocks → sequential sub-tiles, the tile
/// iterators of the §4 mapping — projected from the lead statement
/// once per launch. A sub-block is addressed by its *grid coordinates*
/// `params ++ round values ++ block values ++ seq values` (pinned tiers
/// only, each tier's dims in domain order); everything analysed over
/// the launch shape evaluates under the same values in sorted-name
/// order ([`LaunchGrid::pparams`]). Names stop here: past
/// construction, a sub-block is a vector.
pub(crate) struct LaunchGrid {
    tiers: Vec<Option<Tier>>,
    /// Names of the pinned dims, in grid-coordinate order (what
    /// `structure_of` zips back onto coordinates for the estimator).
    pub(crate) names: Vec<String>,
    /// The launch shape: the same names sorted, the order
    /// `SymbolicPlan::fixed` extends the parameters in.
    pub(crate) fixed: Vec<String>,
    /// Per entry of `params ++ fixed values`, its index in the grid
    /// coordinates (the parameters stay in front).
    perm: Vec<usize>,
    /// Grid coordinates of the launch's first sub-block — the
    /// representative the shared plan is analysed at *and* the point
    /// the tuner's estimator prices.
    first: Vec<i64>,
    /// The thread dims at their first values in that sub-block, when
    /// the grid was asked for the thread tier and it has a value.
    thread_reps: Option<Vec<(String, i64)>>,
    budget: u64,
}

impl LaunchGrid {
    /// Project every level of `lead` in turn (then `thread_dims`, for
    /// the hierarchy representative), each under the outer levels
    /// pinned at their first values. A level naming a dim `lead` does
    /// not iterate, or a dim another level (or itself) already names,
    /// is a typed error: mapping descriptions cross a trust boundary
    /// (tune artifacts), and a misspelt dim must not run as one
    /// untiled level.
    pub(crate) fn new(
        lead: &Statement,
        levels: &[&[String]],
        thread_dims: &[String],
        params: &[i64],
        budget: u64,
    ) -> Result<LaunchGrid> {
        let mut grid = LaunchGrid {
            tiers: Vec::with_capacity(levels.len()),
            names: Vec::new(),
            fixed: Vec::new(),
            perm: Vec::new(),
            first: params.to_vec(),
            thread_reps: None,
            budget,
        };
        let mut seen: Vec<&String> = Vec::new();
        for (k, dims) in levels.iter().copied().chain([thread_dims]).enumerate() {
            for n in dims {
                if lead.domain.space().find_dim(n).is_none() {
                    return Err(shape_error(
                        "a launch level names a dim the lead statement does not iterate",
                    ));
                }
                if seen.contains(&n) {
                    return Err(shape_error("a launch level names a dim twice"));
                }
                seen.push(n);
            }
            // The thread tier only contributes its first value.
            let thread = k == levels.len();
            if dims.is_empty() {
                if !thread {
                    grid.tiers.push(None);
                }
                continue;
            }
            let sym = parametrize_domain(&lead.domain, &grid.names)?;
            let keep: Vec<usize> = dims
                .iter()
                .filter_map(|n| sym.space().find_dim(n))
                .collect();
            let shadow = sym.project_onto(&keep)?;
            let mut tier = Tier {
                cascade: bound_cascade(&shadow)?,
                shadow,
                pinned: false,
            };
            // The projection keeps domain order, whatever order the
            // level listed its dims in.
            let here = tier.shadow.space().dims().to_vec();
            let v0 = tier.values(&grid.first, budget)?.into_iter().next();
            if thread {
                grid.thread_reps = v0.map(|v| here.into_iter().zip(v).collect());
                continue;
            }
            if let Some(v) = v0 {
                tier.pinned = true;
                grid.names.extend(here);
                grid.first.extend(v);
            }
            grid.tiers.push(Some(tier));
        }
        // The symbolic view turns the pinned dims into parameters.
        check_parametrizable(lead.domain.space().params(), &grid.names)?;
        let mut order: Vec<usize> = (0..grid.names.len()).collect();
        order.sort_by(|&a, &b| grid.names[a].cmp(&grid.names[b]));
        grid.fixed = order.iter().map(|&g| grid.names[g].clone()).collect();
        let np = params.len();
        grid.perm = (0..np).chain(order.into_iter().map(|g| np + g)).collect();
        Ok(grid)
    }

    /// The grid coordinates of every instance of tier `k` (0 = round,
    /// 1 = block, 2 = seq) under the outer coordinates `outer`, in
    /// lexicographic order. A tier without dims — or one the launch
    /// shape does not pin — is the single instance `outer` itself; an
    /// instance set that disagrees with the launch shape (a pinned
    /// tier with no value here, or an unpinned one with some) is a
    /// typed error.
    pub(crate) fn scan(&self, k: usize, outer: &[i64]) -> Result<Vec<Vec<i64>>> {
        let Some(tier) = self.tiers.get(k).and_then(Option::as_ref) else {
            return Ok(vec![outer.to_vec()]);
        };
        let vals = tier.values(outer, self.budget)?;
        if vals.is_empty() == tier.pinned {
            return Err(shape_error(
                "evaluating the launch shape at a sub-block that fixes different dims",
            ));
        }
        if vals.is_empty() {
            return Ok(vec![outer.to_vec()]);
        }
        Ok(vals.iter().map(|v| [outer, v].concat()).collect())
    }

    /// `params ++ fixed values` of the sub-block at grid coordinates
    /// `coords`: the parameter vector the plan, the layouts and the
    /// streams all evaluate under.
    pub(crate) fn pparams(&self, coords: &[i64]) -> Vec<i64> {
        debug_assert_eq!(coords.len(), self.perm.len());
        self.perm.iter().map(|&g| coords[g]).collect()
    }

    /// The representative of a launch of `kernel` on this grid.
    fn representative(&self, kernel: &BlockedKernel, config: &MachineConfig) -> Representative {
        let n_params = self.first.len() - self.names.len();
        let vals = self.pparams(&self.first).split_off(n_params);
        let hier = self.thread_reps.clone().map(|thread_reps| HierSpec {
            thread_dims: kernel.thread_dims.clone(),
            thread_reps,
            regs_per_inner: config.regs_per_inner,
        });
        (self.fixed.iter().cloned().zip(vals).collect(), hier)
    }
}

/// The grid of a launch of `kernel`: round and block tiers, the seq
/// tier when the mapping stages (an unstaged block is one sub-tile),
/// and the thread tier when the register level is on.
fn launch_grid(
    kernel: &BlockedKernel,
    params: &[i64],
    config: &MachineConfig,
    lead: &Statement,
) -> Result<LaunchGrid> {
    let levels: [&[String]; 3] = [&kernel.round_dims, &kernel.block_dims, &kernel.seq_dims];
    let staged = if kernel.use_scratchpad { 3 } else { 2 };
    // Register-tile level: the intra-thread subnest of the
    // representative block is analysed with the thread dims as extra
    // fixed dims; their representative values feed Algorithm 1's
    // volume test like the block values do.
    let threads: &[String] = if kernel.use_scratchpad && config.hierarchy {
        &kernel.thread_dims
    } else {
        &[]
    };
    LaunchGrid::new(lead, &levels[..staged], threads, params, config.enum_budget)
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
    let plan = warmed.as_ref().map(|(sp, _)| sp.clone());
    let launch = &LaunchShared::new(kernel, params, config, grid, plan)?;

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
pub(crate) fn budget_error(e: polymem_poly::PolyError) -> MachineError {
    match e {
        polymem_poly::PolyError::TooManyPoints { budget } => {
            MachineError::EnumerationBudget { budget }
        }
        other => MachineError::Poly(other),
    }
}

/// One buffer's storage: row-major `data` over `extents`, holding the
/// global elements from `offsets` on. Scratchpad buffers, register
/// frames and parked (§4.2) copies are all this.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Buffer {
    pub(crate) data: Vec<i64>,
    pub(crate) extents: Vec<i64>,
    pub(crate) offsets: Vec<i64>,
}

impl Buffer {
    /// The element at the local index `idx`; `None` outside the
    /// extents.
    fn get(&self, idx: &[i64]) -> Option<i64> {
        flatten(idx, &self.extents).map(|f| self.data[f])
    }

    fn set(&mut self, idx: &[i64], v: i64) -> Option<()> {
        flatten(idx, &self.extents).map(|f| self.data[f] = v)
    }
}

/// The typed error of an index outside the buffer called `array`.
fn out_of_bounds(array: String, idx: &[i64]) -> MachineError {
    MachineError::Ir(polymem_ir::IrError::OutOfBounds {
        array,
        index: idx.to_vec(),
    })
}

/// Local scratchpad storage for one block (or the register frames of
/// one thread key), indexed by buffer id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct LocalStore {
    pub(crate) bufs: Vec<Buffer>,
}

impl LocalStore {
    /// Take the shape — extents and offsets, no storage — of every
    /// buffer of `plan` at the extended params `ep`, in this store's
    /// own vectors, and return the total words. The caller holds that
    /// size against its capacity *before* [`zero`](LocalStore::zero)
    /// allocates it: a shape a level cannot hold ends in that level's
    /// typed overflow error with nothing of its size allocated.
    fn reshape(&mut self, plan: &SmemPlan, ep: &[i64]) -> Result<u64> {
        self.bufs.resize_with(plan.buffers.len(), Buffer::default);
        let mut words = 0u64;
        for (buf, b) in self.bufs.iter_mut().zip(&plan.buffers) {
            words = words.saturating_add(b.shape_into(ep, &mut buf.offsets, &mut buf.extents)?);
        }
        Ok(words)
    }

    /// Zeroed storage for the current shape, reusing what this store
    /// already owns (nothing of a previous shape's values survives).
    fn zero(&mut self) {
        for buf in &mut self.bufs {
            buf.data.clear();
            buf.data.resize(extent_words(&buf.extents) as usize, 0);
        }
    }

    pub(crate) fn get(&self, buf: usize, idx: &[i64]) -> Result<i64> {
        let v = self.bufs[buf].get(idx);
        v.ok_or_else(|| out_of_bounds(format!("local buffer {buf}"), idx))
    }

    pub(crate) fn set(&mut self, buf: usize, idx: &[i64], v: i64) -> Result<()> {
        let done = self.bufs[buf].set(idx, v);
        done.ok_or_else(|| out_of_bounds(format!("local buffer {buf}"), idx))
    }
}

/// Walk one movement nest (`scan` hands every `(global index, local
/// index)` pair to its callback) and copy each element through `copy`.
/// The walkers cannot stop early, so after the first failed copy the
/// remaining pairs are skipped and that error is returned; otherwise
/// the number of elements copied.
fn copy_elements(
    scan: impl FnOnce(&mut dyn FnMut(&[i64], &[i64])) -> polymem_core::smem::Result<()>,
    mut copy: impl FnMut(&[i64], &[i64]) -> Result<()>,
) -> Result<u64> {
    let mut n = 0u64;
    let mut err = None;
    scan(&mut |g, l| {
        if err.is_none() {
            n += 1;
            err = copy(g, l).err();
        }
    })?;
    err.map_or(Ok(n), Err)
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
    buf: Buffer,
    dirty: bool,
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
struct BlockClock<'a> {
    now: u64,
    dma: DmaEngine,
    /// DMA modeling enabled (`dma_channels > 0`). When off, movement
    /// costs nothing in modeled time (the pre-DMA behaviour) and no
    /// descriptors are built.
    dma_on: bool,
    config: &'a MachineConfig,
}

impl<'a> BlockClock<'a> {
    fn new(config: &'a MachineConfig, block_idx: u64) -> BlockClock<'a> {
        BlockClock {
            now: 0,
            dma: DmaEngine::with_route(config, config.route_cycles(block_idx)),
            dma_on: config.dma_channels > 0,
            config,
        }
    }

    /// Build one transfer's DMA list and queue it; the transfer starts
    /// no earlier than `earliest` (buffer-reuse dependence on an
    /// earlier sub-tile's move-out).
    fn issue(
        &mut self,
        earliest: u64,
        list: impl FnOnce() -> polymem_core::smem::Result<TransferList>,
    ) -> Result<DmaTag> {
        if !self.dma_on {
            return Ok(DmaTag::immediate(self.now));
        }
        let word_bytes = self.config.word_bytes;
        Ok(self
            .dma
            .issue_list(&list()?, word_bytes, self.now, earliest))
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
        earliest: u64,
        retained: u64,
        list: impl FnOnce() -> polymem_core::smem::Result<TransferList>,
    ) -> Result<DmaTag> {
        let start = earliest.max(self.now);
        let mut tag = self.issue(start, list)?;
        // Re-basing the retained atoms is a scratchpad-local copy at 4x
        // the global DMA rate; it proceeds concurrently with the
        // incoming delta (the two touch disjoint buffer regions), so
        // the group is ready at the max of the two, never the sum.
        if self.dma_on {
            let bytes = (retained * self.config.word_bytes) as f64;
            let rebase = (bytes / (self.config.dma_bytes_per_cycle * 4.0)).ceil() as u64;
            tag.done = tag.done.max(start + rebase);
        }
        Ok(tag)
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

/// What staging needs to know about each movement entry of the
/// launch's plan, decided once per launch: whether double buffering
/// can engage at all, and per entry whether its array hoists (§4.2)
/// and whether a prefetch of it could read stale data.
#[derive(Default)]
pub(crate) struct StagingFlags {
    /// The mapping stages sequential sub-tiles with double buffering
    /// on: a block with more than one sub-tile prefetches.
    pub(crate) overlap: bool,
    /// §4.2 hoisting applies: none of the array's accesses depend on
    /// the seq dims *and* the array materialises as exactly one buffer
    /// (with separate read and write buffers, parking by array would
    /// keep only the last-parked buffer and lose the other's writes).
    pub(crate) hoists: Vec<bool>,
    /// A read reached by a seq-carried flow dependence is rewritten
    /// into the entry's buffer: its group must stage synchronously.
    pub(crate) poisoned: Vec<bool>,
}

impl StagingFlags {
    pub(crate) fn new(
        kernel: &BlockedKernel,
        config: &MachineConfig,
        plan: Option<&SmemPlan>,
    ) -> Result<StagingFlags> {
        let Some(plan) = plan else {
            return Ok(StagingFlags::default());
        };
        let (mut hoistable, mut stale) = (HashSet::new(), HashSet::new());
        let overlap = config.double_buffer && !kernel.seq_dims.is_empty();
        if !kernel.seq_dims.is_empty() {
            hoistable = seq_redundant_arrays(kernel);
        }
        // Double-buffer legality (§3.1.4 dependence information,
        // reused): read accesses reached by a seq-carried flow
        // dependence within a block may not be prefetched ahead of the
        // writing sub-tile.
        if overlap {
            stale = overlap_poisoned_reads(kernel)?;
        }
        let one_buffer = |a: usize| plan.buffers.iter().filter(|b| b.array == a).count() == 1;
        let entries = plan.movement.iter().map(|mc| {
            let array = plan.buffers[mc.buffer].array;
            let poisoned = plan
                .rewrites
                .iter()
                .any(|(id, la)| la.buffer == mc.buffer && stale.contains(id));
            (hoistable.contains(&array) && one_buffer(array), poisoned)
        });
        let (hoists, poisoned) = entries.unzip();
        Ok(StagingFlags {
            overlap,
            hoists,
            poisoned,
        })
    }
}

/// One sub-tile's scratchpad state: the local buffers allocated for
/// the launch's shared plan at this sub-tile's extents, plus
/// per-movement-entry staging progress (with overlap on, entries of
/// two live sub-tiles interleave).
struct Staging {
    /// Shaped by [`Block::prepare_sub_block`]; storage comes once the
    /// footprint passed its capacity check.
    local: LocalStore,
    words: u64,
    /// Per movement entry: functional move-in already performed.
    staged: Vec<bool>,
    /// In-flight prefetch DMA tags, waited on before compute.
    tags: Vec<DmaTag>,
}

/// A sub-block prepared for execution: the parameter vector
/// `params ++ fixed values` everything shape-level (plan, enumeration
/// layout, compiled streams) evaluates under — its identity — and
/// (when the launch stages) its staging state.
struct SubBlock {
    pparams: Vec<i64>,
    staging: Option<Staging>,
}

/// The shared plan's residency decomposition, when it applies between
/// the sub-tiles at `prev` and `cur` (each a `params ++ fixed values`
/// vector): the two are lexicographically consecutive along the
/// residency seq dim, every other coordinate equal.
fn shared_residency<'a>(
    launch: &'a LaunchShared,
    cur: &[i64],
    prev: &[i64],
) -> Option<&'a ResidencyPlan> {
    let at = launch.residency_at?;
    let consecutive =
        (cur.iter().zip(prev).enumerate()).all(|(i, (c, p))| *c == p + i64::from(i == at));
    launch
        .plan
        .as_deref()?
        .residency
        .as_ref()
        .filter(|_| consecutive)
}

/// The flush-delta plan for one movement entry, present iff the delta
/// flush is legal *and* the successor sub-tile will provably stage
/// this buffer by residency — decided with the exact predicate and
/// argument pair its move-in uses ([`shared_residency`] on
/// `(next, cur)`), so the two sides can never disagree. `None` means
/// the full move-out must run.
fn flush_delta_plan<'a>(
    launch: &'a LaunchShared,
    buffer: usize,
    cur: &[i64],
    next: Option<&[i64]>,
) -> Option<&'a RetainPlan> {
    let rp = shared_residency(launch, next?, cur)?.plans.get(&buffer)?;
    rp.flush_legal.then_some(rp)
}

/// One thread block in flight: the launch record and store snapshot it
/// reads, and everything it accumulates — buffered global writes,
/// counters, the modeled clock and the §4.2 parked copies.
struct Block<'a> {
    launch: &'a LaunchShared<'a>,
    store: &'a ArrayStore,
    profiler: Option<&'a PassProfiler>,
    overlay: Overlay,
    stats: ExecStats,
    clock: BlockClock<'a>,
    /// Parked copies by array.
    persistent: HashMap<usize, Persistent<'a>>,
}

impl<'a> Block<'a> {
    /// The launch's staged plan (staging entry points only run under
    /// one).
    fn plan(&self) -> &'a SmemPlan {
        &self.launch.plan.as_deref().expect("staged launch").plan
    }

    fn record(&self, kind: PassKind, since: Instant) {
        if let Some(pr) = self.profiler {
            pr.record(kind, since.elapsed());
        }
    }

    /// Evaluate the launch shape at the sub-block at grid coordinates
    /// `coords`: its parameter vector and the shape of its local
    /// buffers. Footprint checks (one footprint must be resident
    /// without overlap, two with it) and, after them, the storage
    /// ([`LocalStore::zero`]) are the caller's job.
    fn prepare_sub_block(&mut self, coords: &[i64]) -> Result<SubBlock> {
        let pparams = self.launch.grid.pparams(coords);
        let staging = match self.launch.plan.as_deref() {
            Some(sp) => {
                self.stats.plan_cache_hits += 1;
                let mut local = LocalStore::default();
                let words = local.reshape(&sp.plan, &pparams)?;
                self.stats.max_smem_words = self.stats.max_smem_words.max(words);
                Some(Staging {
                    local,
                    words,
                    staged: vec![false; sp.plan.movement.len()],
                    tags: Vec::new(),
                })
            }
            None => None,
        };
        Ok(SubBlock { pparams, staging })
    }

    /// Write a persistent buffer's contents back to the (overlay of)
    /// global memory, once, at the end of the block. The transfer is
    /// modeled as a synchronous DMA list.
    fn writeback_persistent(&mut self, p: &Persistent) -> Result<()> {
        let (array, name) = (p.buffer.array, &p.buffer.array_name);
        let ext = &self.launch.ext[array];
        let overlay = &mut self.overlay;
        let n = copy_elements(
            |f| for_each_move_out(p.mc, p.buffer, &p.pparams, f),
            |g, l| {
                let v = p.buf.get(l);
                let v = v.ok_or_else(|| out_of_bounds(format!("persistent L{name}"), l))?;
                Ok(overlay.set_idx(array, name, g, ext, v)?)
            },
        )?;
        self.stats.global_writes += n;
        self.stats.moved_out += n;
        let list = || transfer_list(p.mc, p.buffer, Direction::Out, ext, &p.pparams);
        let tag = self.clock.issue(self.clock.now, list)?;
        self.clock.wait(&tag);
        Ok(())
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
    fn stage_entry(
        &mut self,
        sb: &mut SubBlock,
        mi: usize,
        pred: Option<&SubBlock>,
        prefetch: bool,
        earliest: u64,
    ) -> Result<Option<DmaTag>> {
        let launch = self.launch;
        let plan = self.plan();
        let mc = &plan.movement[mi];
        let bi = mc.buffer;
        let buf = &plan.buffers[bi];
        let pparams = &sb.pparams;
        let Staging { local, staged, .. } = sb.staging.as_mut().expect("staged");
        staged[mi] = true;
        let hoists = launch.flags.hoists[mi];
        let parked_fits = hoists
            && self.persistent.get(&buf.array).is_some_and(|p| {
                p.buf.extents == local.bufs[bi].extents && p.buf.offsets == local.bufs[bi].offsets
            });
        if parked_fits && !prefetch {
            local.bufs[bi]
                .data
                .copy_from_slice(&self.persistent[&buf.array].buf.data);
            return Ok(None);
        }
        // Residency defers to a shape-stable parked copy (free, so cheaper
        // than any delta).
        let resident = pred.filter(|_| !parked_fits).and_then(|p| {
            let prev = &p.staging.as_ref()?.local;
            let rp = shared_residency(launch, pparams, &p.pparams)?
                .plans
                .get(&bi)?;
            Some((rp, prev))
        });
        // A stale differently-shaped parked copy must reach global memory
        // before this sub-tile stages fresh data — the predecessor's
        // writes must be in the overlay before the move-in reads it. A
        // prefetched full window leaves the parked copy alone: the
        // predecessor has not moved out yet and re-parks it when it does.
        if hoists && !parked_fits && (resident.is_some() || !prefetch) {
            if let Some(p) = self.persistent.remove(&buf.array) {
                if p.dirty {
                    self.writeback_persistent(&p)?;
                }
            }
        }
        // Re-base the retained atoms: the predecessor's window contains
        // them by construction (retained ⊆ W(s−1) ⊆ its bounding box), so
        // the indexed reads below are always in bounds, boundary tiles
        // included.
        let mut retained = 0u64;
        if let Some((rp, prev)) = resident {
            let (origin, mut at) = (&prev.bufs[bi].offsets, Vec::new());
            retained = copy_elements(
                |f| for_each_retained(rp, buf, pparams, f),
                |g, l| local.set(bi, l, prev.get(bi, level1_index(buf, origin, g, &mut at))?),
            )?;
        }
        // Fetch what crosses the bus: the delta atoms, or the whole window.
        let name = &launch.program.arrays[buf.array].name;
        let ext = &launch.ext[buf.array];
        let (store, overlay) = (self.store, &self.overlay);
        let fetched = copy_elements(
            |f| match resident {
                Some((rp, _)) => for_each_delta_in(rp, buf, pparams, f),
                None => for_each_move_in(mc, buf, pparams, f),
            },
            |g, l| local.set(bi, l, read_global(store, overlay, buf.array, name, g, ext)?),
        )?;
        self.stats.global_reads += fetched;
        self.stats.moved_in += fetched;
        Ok(Some(match resident {
            Some((rp, _)) => {
                self.stats.retained_elems += retained;
                self.stats.delta_elems += fetched;
                self.stats.residency_groups += 1;
                let list = || delta_transfer_list(rp, buf, ext, pparams);
                self.clock.issue_delta(earliest, retained, list)?
            }
            None => {
                let list = || transfer_list(mc, buf, Direction::In, ext, pparams);
                self.clock.issue(earliest, list)?
            }
        }))
    }

    /// Apply one movement entry's move-out (local → global overlay) and
    /// queue its DMA list at the current cycle. Hoisted arrays park in
    /// `persistent` instead (one writeback at the end of the block;
    /// nothing crosses the bus, no tag). When the successor (at
    /// `next`) stages this buffer by residency and
    /// [`RetainPlan::flush_legal`] holds, only the flush delta is
    /// written back: the skipped elements lie in the successor's write
    /// set, so a later sub-tile's flush overwrites them before
    /// anything can read them from global memory, and their newest
    /// values are already where every legal reader looks (this
    /// sub-tile's still-live scratchpad).
    fn move_out_buffer(
        &mut self,
        sb: &SubBlock,
        mi: usize,
        next: Option<&[i64]>,
    ) -> Result<Option<DmaTag>> {
        let launch = self.launch;
        let plan = self.plan();
        let mc = &plan.movement[mi];
        let buf = &plan.buffers[mc.buffer];
        let local = &sb.staging.as_ref().expect("staged").local;
        if launch.flags.hoists[mi] {
            let dirty = !mc.write_spaces.is_empty()
                || self.persistent.get(&buf.array).is_some_and(|q| q.dirty);
            let parked = Persistent {
                buffer: buf,
                mc,
                pparams: sb.pparams.clone(),
                buf: local.bufs[mc.buffer].clone(),
                dirty,
            };
            self.persistent.insert(buf.array, parked);
            return Ok(None);
        }
        let flush = flush_delta_plan(launch, mc.buffer, &sb.pparams, next);
        let aext = &launch.ext[buf.array];
        let overlay = &mut self.overlay;
        let n = copy_elements(
            |f| match flush {
                Some(rp) => for_each_flush_delta(rp, buf, &sb.pparams, f),
                None => for_each_move_out(mc, buf, &sb.pparams, f),
            },
            |g, l| {
                let v = local.get(mc.buffer, l)?;
                Ok(overlay.set_idx(buf.array, &buf.array_name, g, aext, v)?)
            },
        )?;
        self.stats.global_writes += n;
        self.stats.moved_out += n;
        // The flush delta is a subset of the full list, so its tag
        // never completes later than the flush it replaces.
        let now = self.clock.now;
        Ok(Some(match flush {
            Some(rp) => {
                self.stats.flushed_delta_elems += n;
                let list = || flush_transfer_list(rp, buf, aext, &sb.pparams);
                self.clock.issue(now, list)?
            }
            None => {
                let list = || transfer_list(mc, buf, Direction::Out, aext, &sb.pparams);
                self.clock.issue(now, list)?
            }
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
    fn compute_sub_block(&mut self, sb: &mut SubBlock) -> Result<()> {
        let (launch, store) = (self.launch, self.store);
        let compiled = launch.bodies.is_some() && launch.streams.is_some();

        // Oracle pass (check mode only): the interpreter runs first on
        // cloned state, outside the timed window.
        let oracle = if compiled && launch.exec_check {
            let mut ov = self.overlay.clone();
            let mut loc = sb.staging.as_ref().map(|st| st.local.clone());
            let mut sc = ExecStats::default();
            let c =
                interpreted_compute(launch, &sb.pparams, store, loc.as_mut(), &mut ov, &mut sc)?;
            Some((ov, loc, sc, c, self.stats.clone()))
        } else {
            None
        };

        let t0 = Instant::now();
        let (overlay, stats) = (&mut self.overlay, &mut self.stats);
        let mut local = sb.staging.as_mut().map(|st| &mut st.local);
        let counts = match run_compiled(
            launch,
            &sb.pparams,
            store,
            local.as_deref_mut(),
            overlay,
            stats,
        )? {
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
                interpreted_compute(launch, &sb.pparams, store, local, overlay, stats)?
            }
        };
        self.record(PassKind::Compute, t0);
        self.stats.compute_ns += t0.elapsed().as_nanos() as u64;

        if let Some((ov, loc, sc, oc, before)) = oracle {
            let local_now = sb.staging.as_ref().map(|st| &st.local);
            let tally = |s: &ExecStats| {
                [
                    s.instances,
                    s.global_reads,
                    s.global_writes,
                    s.smem_reads,
                    s.smem_writes,
                    s.smem_loads_saved,
                    s.reg_bytes_moved,
                    s.hier_groups,
                ]
            };
            let (odeltas, mut deltas) = (tally(&sc), tally(&self.stats));
            for (d, b) in deltas.iter_mut().zip(tally(&before)) {
                *d -= b;
            }
            assert!(
                self.overlay == ov
                    && local_now == loc.as_ref()
                    && deltas == odeltas
                    && counts == oc,
                "POLYMEM_EXEC_CHECK: compiled execution diverged from the interpreter \
                 (sub-block {:?}: overlay match {}, local match {}, counters {:?} vs {:?})",
                sb.pparams,
                self.overlay == ov,
                local_now == loc.as_ref(),
                deltas,
                odeltas,
            );
        }

        let (n_inst, n_smem, n_glob) = counts;
        self.clock.now += launch.cost.compute_cycles(n_inst, n_smem, n_glob);
        Ok(())
    }
}

/// Whether staging after the predecessor's move-out would serve this
/// (read-only) buffer from the §4.2 parked copy for free: the entry's
/// array hoists and its buffer shape (extents and offsets) does not
/// shift between the current and the next sub-tile. Prefetching such
/// a buffer would only add global traffic.
fn hoist_shortcut_hits(launch: &LaunchShared, cur: &SubBlock, next: &SubBlock, mi: usize) -> bool {
    let (Some(c), Some(n), Some(sp)) = (&cur.staging, &next.staging, &launch.plan) else {
        return false;
    };
    let bi = sp.plan.movement[mi].buffer;
    let (c, n) = (&c.local.bufs[bi], &n.local.bufs[bi]);
    launch.flags.hoists[mi] && c.extents == n.extents && c.offsets == n.offsets
}

/// `(requested, available)` bytes when a footprint of `words` does not
/// fit the scratchpad. `smem_bytes == 0` is no limit — for every size
/// that exists: a word count that saturated is past any scratchpad.
fn scratchpad_overflow(words: u64, config: &MachineConfig) -> Option<(u64, u64)> {
    let requested = words.saturating_mul(config.word_bytes);
    let limited = config.smem_bytes > 0 || words == u64::MAX;
    (limited && requested > config.smem_bytes).then_some((requested, config.smem_bytes))
}

/// Execute the thread block at grid coordinates `coords`: the single
/// sub-tile driver. Every schedule is this loop — per sub-tile `t`:
/// stage what is left of `t`, prepare `t+1` (and, when overlap is
/// legal and on, prefetch its eligible groups), wait `t`'s tags,
/// compute, move out. A mapping without sequential sub-tiles is one
/// sub-tile spanning the block; the synchronous schedule is the
/// pipeline at prefetch depth 0.
///
/// Overlap (double buffering) only changes *when* a copy is issued,
/// never *what* it copies: with it on, the move-in for `t+1` is in
/// flight on the DMA channels while `t` computes, and `t`'s move-out
/// is left flying over `t+1`; with it off, every tag is waited on at
/// issue. Functional semantics are identical either way: prefetched
/// groups carry no seq-dim flow dependence
/// ([`StagingFlags::poisoned`]), and everything else — hoisted copies,
/// poisoned or written groups — stages after the previous sub-tile's
/// move-out.
#[allow(clippy::too_many_lines)]
fn execute_one_block(
    launch: &LaunchShared,
    coords: &[i64],
    store: &ArrayStore,
    profiler: Option<&PassProfiler>,
    block_idx: u64,
) -> Result<(Overlay, ExecStats)> {
    let (config, flags) = (launch.config, &launch.flags);
    let mut b = Block {
        launch,
        store,
        profiler,
        overlay: Overlay::new(launch.program.arrays.len()),
        stats: ExecStats {
            blocks: 1,
            ..ExecStats::default()
        },
        clock: BlockClock::new(config, block_idx),
        persistent: HashMap::new(),
    };
    // The block's sequential sub-tiles (§4.2 hoisting applies across
    // them); an unstaged or seq-less block is one sub-tile spanning it.
    let seqs = launch.grid.scan(2, coords)?;
    let n_move = launch.plan.as_deref().map(|sp| sp.plan.movement.len());
    let overlap = flags.overlap && seqs.len() > 1;
    // The lexicographic predecessor, kept alive past its move-out:
    // its scratchpad holds the newest value of every element (flushing
    // copies out of it, never into it), which is what residency
    // re-bases retained atoms from — also under a delta flush, whose
    // skipped elements are exactly the ones served from here.
    let mut pred: Option<SubBlock> = None;
    let mut cur = b.prepare_sub_block(&seqs[0])?;
    // Cycle at which the previous sub-tile's move-out has drained:
    // its writes are in global memory and its buffer slots are free.
    let mut out_done = 0u64;
    for t in 0..seqs.len() {
        let cur_words = cur.staging.as_ref().map_or(0, |st| st.words);
        if let Some((requested, available)) = scratchpad_overflow(cur_words, config) {
            return Err(MachineError::ScratchpadOverflow {
                requested,
                available,
            });
        }
        // The footprint fits: only now does it get storage (under
        // overlap every later sub-tile got its own below, when two
        // footprints fitted, and may hold prefetched data by now).
        if let Some(st) = cur.staging.as_mut().filter(|_| t == 0 || !overlap) {
            st.local.zero();
        }
        // Stage whatever prefetching left of `t` (everything, when
        // overlap is off or `t` is the first sub-tile): the stale
        // parked copies, hoisted-copy shortcuts, written groups and
        // groups pinned by a seq-carried flow dependence. These must
        // observe `t−1`'s writes, so they run after its move-out and
        // their transfers start no earlier than `out_done`.
        if let Some(n_move) = n_move {
            let t0 = Instant::now();
            for mi in 0..n_move {
                if cur.staging.as_ref().expect("staged").staged[mi] {
                    continue;
                }
                let Some(tag) = b.stage_entry(&mut cur, mi, pred.as_ref(), false, out_done)? else {
                    continue;
                };
                b.clock.wait(&tag);
                if t > 0 && overlap && !flags.hoists[mi] && flags.poisoned[mi] {
                    b.stats.sync_groups += 1;
                }
            }
            b.record(PassKind::MoveIn, t0);
        }
        let mut next = match seqs.get(t + 1) {
            Some(at) => Some(b.prepare_sub_block(at)?),
            None => None,
        };
        // Prefetch `t+1`'s overlap-legal, non-hoisted groups; the
        // transfers fly while `t` computes. Functionally the copies
        // happen before `t`'s writes, which is exactly what the
        // legality check licenses. Their slots were `t−1`'s, so they
        // start no earlier than `out_done`; and two footprints must be
        // resident at once.
        if let (true, Some(nx), Some(n_move)) = (overlap, next.as_mut(), n_move) {
            let st = nx.staging.as_mut().expect("staged");
            let both = cur_words.saturating_add(st.words);
            if let Some((requested, available)) = scratchpad_overflow(both, config) {
                return Err(MachineError::DoubleBufferOverflow {
                    requested,
                    available,
                });
            }
            st.local.zero();
            let t0 = Instant::now();
            for mi in 0..n_move {
                // Only read-only, dependence-free buffers the hoist
                // shortcut cannot satisfy prefetch: a written buffer's
                // move-in may read locations the previous sub-tile
                // wrote (an output/anti dependence the flow-dep check
                // does not cover). Read-only and retention-legal also
                // means `cur`'s pre-compute contents already hold the
                // retained values residency re-bases from.
                if !b.plan().movement[mi].write_spaces.is_empty()
                    || flags.poisoned[mi]
                    || hoist_shortcut_hits(launch, &cur, nx, mi)
                {
                    continue;
                }
                if let Some(tag) = b.stage_entry(nx, mi, Some(&cur), true, out_done)? {
                    nx.staging.as_mut().expect("staged").tags.push(tag);
                    b.stats.overlap_groups += 1;
                }
            }
            b.record(PassKind::MoveIn, t0);
        }
        // The prefetches for `cur` (issued while `t−1` computed) must
        // have landed before its compute touches the buffers.
        if let Some(st) = cur.staging.as_mut() {
            for tag in std::mem::take(&mut st.tags) {
                b.clock.wait(&tag);
            }
        }
        b.compute_sub_block(&mut cur)?;
        // Move-out of `t`: applied functionally now, in the same order
        // under every schedule. With overlap its DMA time flies over
        // `t+1`'s compute; without, each tag is waited on at issue.
        out_done = b.clock.now;
        if let Some(n_move) = n_move {
            let t0 = Instant::now();
            let next_at = next.as_ref().map(|nx| nx.pparams.as_slice());
            for mi in 0..n_move {
                if let Some(tag) = b.move_out_buffer(&cur, mi, next_at)? {
                    if !overlap {
                        b.clock.wait(&tag);
                    }
                    out_done = out_done.max(tag.done);
                }
            }
            b.record(PassKind::MoveOut, t0);
        }
        pred = next.map(|nx| std::mem::replace(&mut cur, nx));
    }
    // Deterministic writeback order (DMA timing depends on it).
    let mut parked: Vec<_> = std::mem::take(&mut b.persistent).into_iter().collect();
    parked.sort_unstable_by_key(|(array, _)| *array);
    for (_, p) in parked.iter().filter(|(_, p)| p.dirty) {
        b.writeback_persistent(p)?;
    }
    b.clock.now = b.clock.dma.drain(b.clock.now);
    b.stats.block_cycles = b.clock.now;
    b.stats.dma = b.clock.dma.stats.clone();
    Ok((b.overlay, b.stats))
}

/// Register frames staged for one inner process (thread key) during a
/// sub-block's compute phase; one set serves every key of the phase,
/// re-shaped and refilled in place. Shared by both engines: the
/// interpreter and the compiled engine stage, serve and flush frames
/// through the same functions, which is what keeps `smem_loads_saved`,
/// `reg_bytes_moved`, `hier_groups` and the typed overflow check
/// bit-identical between them.
#[derive(Default)]
pub(crate) struct FrameSet {
    /// The thread-dim values the frames are staged for; empty while
    /// nothing is staged (a register level has at least one thread
    /// dim, so no key is).
    pub(crate) key: Vec<i64>,
    /// `params ++ ext values` at this key — the parameter vector every
    /// level-2 affine structure evaluates under.
    pub(crate) pp2: Vec<i64>,
    /// Frame storage, indexed by level-2 buffer id.
    pub(crate) frames: LocalStore,
}

/// The local index of global array element `g` in buffer `buf1`
/// (whose concrete offsets are `offsets1`), written into `idx`: a
/// level-1 buffer backing a register frame, or the predecessor's
/// window residency re-bases from.
fn level1_index<'i>(
    buf1: &LocalBuffer,
    offsets1: &[i64],
    g: &[i64],
    idx: &'i mut Vec<i64>,
) -> &'i [i64] {
    idx.clear();
    idx.extend(buf1.kept_dims.iter().zip(offsets1).map(|(&d, &o)| g[d] - o));
    idx
}

/// Switch `fs` to the thread key `key` of the sub-block at `pparams`:
/// flush the key it holds, then stage every register frame for the new
/// one (smem → reg move-in) — shape the frames at the key's concrete
/// extents, enforce the register-file capacity (the plan-time gate
/// only checked the representative block — frames can grow past it,
/// e.g. on triangular domains) before anything of that size is
/// allocated, then run the level-2 movement code against the backing
/// level-1 buffers. Returns the scratchpad accesses to charge the
/// cycle model.
pub(crate) fn stage_frames(
    launch: &LaunchShared,
    fs: &mut FrameSet,
    key: impl Iterator<Item = i64>,
    pparams: &[i64],
    local: &mut LocalStore,
    stats: &mut ExecStats,
) -> Result<u64> {
    let flushed = flush_frames(launch, fs, local, stats)?;
    let (plan1, h) = launch.hier().expect("frames stage under a level-2 plan");
    fs.key.clear();
    fs.key.extend(key);
    ExtSource::assemble_into(&launch.hier_ext, pparams, &fs.key, &mut fs.pp2);
    let words = fs.frames.reshape(&h.plan, &fs.pp2)?;
    if words > h.regs_per_inner {
        return Err(MachineError::RegisterOverflow {
            requested: words,
            available: h.regs_per_inner,
        });
    }
    fs.frames.zero();
    let (mut n_smem, mut idx1) = (0u64, Vec::new());
    for mc in &h.plan.movement {
        let buf1 = &plan1.buffers[h.backing[mc.buffer]];
        let origin = &local.bufs[buf1.id].offsets;
        let frames = &mut fs.frames;
        n_smem += copy_elements(
            |f| for_each_move_in(mc, &h.plan.buffers[mc.buffer], &fs.pp2, f),
            |g, l| {
                let at = level1_index(buf1, origin, g, &mut idx1);
                frames.set(mc.buffer, l, local.get(buf1.id, at)?)
            },
        )?;
    }
    stats.smem_reads += n_smem;
    stats.reg_bytes_moved += n_smem * launch.config.word_bytes;
    stats.hier_groups += 1;
    Ok(flushed + n_smem)
}

/// Flush the written register frames of the key `fs` holds (none: a
/// no-op) back to their level-1 buffers (reg → smem move-out) before
/// the thread key changes or the compute phase ends. Read-only frames
/// are dropped for free. Returns the scratchpad writes to charge the
/// cycle model.
pub(crate) fn flush_frames(
    launch: &LaunchShared,
    fs: &FrameSet,
    local: &mut LocalStore,
    stats: &mut ExecStats,
) -> Result<u64> {
    if fs.key.is_empty() {
        return Ok(0);
    }
    let (plan1, h) = launch.hier().expect("frames flush under a level-2 plan");
    let (mut n_smem, mut idx1) = (0u64, Vec::new());
    for mc in h
        .plan
        .movement
        .iter()
        .filter(|mc| !mc.write_spaces.is_empty())
    {
        let buf1 = &plan1.buffers[h.backing[mc.buffer]];
        n_smem += copy_elements(
            |f| for_each_move_out(mc, &h.plan.buffers[mc.buffer], &fs.pp2, f),
            |g, l| {
                let at = level1_index(buf1, &local.bufs[buf1.id].offsets, g, &mut idx1);
                local.set(buf1.id, at, fs.frames.get(mc.buffer, l)?)
            },
        )?;
    }
    stats.smem_writes += n_smem;
    stats.reg_bytes_moved += n_smem * launch.config.word_bytes;
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
#[allow(clippy::too_many_lines)]
fn interpreted_compute(
    launch: &LaunchShared,
    pparams: &[i64],
    store: &ArrayStore,
    mut local: Option<&mut LocalStore>,
    overlay: &mut Overlay,
    stats: &mut ExecStats,
) -> Result<(u64, u64, u64)> {
    let (program, params) = (launch.program, launch.params);
    let source = launch.plan.as_deref();
    let hier: Option<&HierPlan> = source.and_then(|sp| sp.hier.as_ref());
    let mut frames = FrameSet::default();

    let mut instances: Vec<(usize, Vec<i64>)> = Vec::new();
    for (si, l) in launch.layouts.iter().enumerate() {
        enumerate_with_cascade(
            &l.domain,
            &l.cascade,
            pparams,
            launch.config.enum_budget,
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
            if let Some(key) = h.thread_key(*si, point).filter(|key| *key != frames.key) {
                let ls = local.as_deref_mut().expect("hier implies local store");
                n_smem += stage_frames(launch, &mut frames, key.into_iter(), pparams, ls, stats)?;
            }
        }
        // Frames serve accesses only once a key is staged.
        let framed = hier.filter(|_| !frames.key.is_empty());
        let mut reads = Vec::with_capacity(stmt.reads.len());
        for (k, r) in stmt.reads.iter().enumerate() {
            let id = AccessId::read(*si, k);
            let mut staged = None;
            // Level-2 hit: serve the read from the register frame at
            // near-zero cost (no smem access in the cycle model).
            if let Some((h, la)) = framed.and_then(|h| Some((h, h.plan.rewrites.get(&id)?))) {
                let buf = &h.plan.buffers[la.buffer];
                let proj = h.project_point(*si, point);
                let idx = la.local_index(buf, &proj, &frames.pp2)?;
                stats.smem_loads_saved += 1;
                staged = Some(frames.frames.get(la.buffer, &idx)?);
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
        if let Some((h, la)) = framed.and_then(|h| Some((h, h.plan.rewrites.get(&wid)?))) {
            let buf = &h.plan.buffers[la.buffer];
            let proj = h.project_point(*si, point);
            let idx = la.local_index(buf, &proj, &frames.pp2)?;
            frames.frames.set(la.buffer, &idx, value)?;
            staged = true;
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
            overlay.set_idx(a, &program.arrays[a].name, &idx, &launch.ext[a], value)?;
        }
        stats.instances += 1;
        n_inst += 1;
    }
    // Final flush: the last thread key's written frames must reach
    // scratchpad before the sub-block's move-out runs.
    if let Some(ls) = local {
        n_smem += flush_frames(launch, &frames, ls, stats)?;
    }
    Ok((n_inst, n_smem, n_glob))
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

    /// `Out[i][j] = T[i][j] + T[i][j]` over `j ≤ i`, one row per inner
    /// process: the T frame holds row i's first i+1 elements, so it
    /// changes extents with every thread key.
    fn triangular_kernel() -> (Program, BlockedKernel) {
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
        (p, k)
    }

    #[test]
    fn register_overflow_is_typed() {
        // A merged group's footprint outgrows the representative
        // (i = 0) thread. The plan-time gate passes; the runtime
        // check must trip with a typed error at the first thread
        // value whose frames exceed the register file.
        let (p, k) = triangular_kernel();
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
    fn a_reused_frame_set_equals_a_fresh_one() {
        let (_, k) = triangular_kernel();
        let mut cfg = MachineConfig::geforce_8800_gtx();
        cfg.hierarchy = true;
        let params = [8i64];
        let grid = launch_grid(&k, &params, &cfg, &k.program.stmts[0]).unwrap();
        let rep = grid.representative(&k, &cfg);
        let (sp, _) = warm(&k, &params, &cfg, &rep, None, None).unwrap();
        let launch = LaunchShared::new(&k, &params, &cfg, grid, Some(sp.clone())).unwrap();
        let mut local = LocalStore::default();
        local.reshape(&sp.plan, &params).unwrap();
        local.zero();
        for buf in &mut local.bufs {
            for (at, word) in buf.data.iter_mut().enumerate() {
                *word = 100 + at as i64;
            }
        }
        let stats = &mut ExecStats::default();
        let stage = |fs: &mut FrameSet, key: i64, local: &mut LocalStore, stats: &mut _| {
            stage_frames(&launch, fs, [key].into_iter(), &params, local, stats).unwrap()
        };
        // The 8-word row, scribbled over, then the 3-word row in the
        // same storage: nothing of the larger frame survives.
        let mut reused = FrameSet::default();
        assert_eq!(stage(&mut reused, 7, &mut local, stats), 8);
        for frame in &mut reused.frames.bufs {
            frame.data.fill(-1);
        }
        assert_eq!(stage(&mut reused, 2, &mut local, stats), 3);
        let mut fresh = FrameSet::default();
        stage(&mut fresh, 2, &mut local, stats);
        assert_eq!(reused.frames, fresh.frames);
        assert_eq!((&reused.key, &reused.pp2), (&fresh.key, &fresh.pp2));
        let row2 = &local.bufs[sp.hier.as_ref().unwrap().backing[0]].data[16..19];
        assert_eq!(reused.frames.bufs[0].data, row2);
    }

    #[test]
    fn sizes_are_checked_before_they_are_compared() {
        // 2^62 · 4 wraps `i64` to 0: such a buffer used to be sized at
        // zero words, pass every capacity check and come out mis-sized.
        let words = extent_words(&[1 << 62, 4]);
        assert_eq!(words, u64::MAX);
        let mut cfg = MachineConfig::geforce_8800_gtx();
        let available = cfg.smem_bytes;
        assert_eq!(
            scratchpad_overflow(words, &cfg),
            Some((u64::MAX, available))
        );
        assert_eq!(scratchpad_overflow(available / cfg.word_bytes, &cfg), None);
        // "No limit" admits every size that exists, not this one.
        cfg.smem_bytes = 0;
        assert_eq!(scratchpad_overflow(words, &cfg), Some((u64::MAX, 0)));
        assert_eq!(scratchpad_overflow(1 << 40, &cfg), None);
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

    /// `A[s][i] = A[s-1][i] + 1` carries a flow dependence on the seq
    /// dim `s`; the independent `Out[s][i] = B2[s][i] * 2` does not.
    fn carry_kernel() -> (Program, BlockedKernel) {
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

    #[test]
    fn seq_carried_dep_forces_sync_staging() {
        // A's group must stage synchronously under double buffering;
        // the independent statement still prefetches B2. Both must
        // stay bit-exact.
        let (p, k) = carry_kernel();
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

    // ---- The launch grid against the per-level projection it replaced,
    // ---- and the per-launch staging flags against the per-call predicates.

    use polymem_core::tiling::transform::fix_dims;
    use polymem_kernels::{conv2d, jacobi, jacobi2d, matmul, me};
    use polymem_poly::count::enumerate_points;
    use proptest::prelude::*;

    /// A `polymem_kernels` constructor's kernel as this crate's type
    /// (the dev-dependency links the non-test build of this crate, so
    /// its `BlockedKernel` is a different type with the same fields).
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
    fn golden_builtins(seq: bool) -> Vec<(&'static str, BlockedKernel, Vec<i64>)> {
        let me_size = me::MeSize {
            ni: 8,
            nj: 8,
            ws: 4,
        };
        let mut jacobi_k = own!(jacobi::stepwise_kernel(4, true));
        if seq {
            jacobi_k.block_dims = vec![];
            jacobi_k.seq_dims = vec!["iT".into()];
        }
        let pick = |s: BlockedKernel, f: BlockedKernel| if seq { s } else { f };
        vec![
            (
                "me",
                pick(
                    own!(me::blocked_seq_kernel(4, 2, true)),
                    own!(me::blocked_kernel(4, 4, true)),
                ),
                me::params(&me_size),
            ),
            (
                "jacobi",
                jacobi_k,
                jacobi::params(&jacobi::JacobiSize { n: 16, t: 2 }),
            ),
            (
                "jacobi2d",
                pick(
                    own!(jacobi2d::stepwise_seq_kernel(4, 2, true)),
                    own!(jacobi2d::stepwise_kernel(4, 4, true)),
                ),
                jacobi2d::params(2, 8),
            ),
            (
                "matmul",
                pick(
                    own!(matmul::blocked_kernel_hoisted(4, 4, 2, true)),
                    own!(matmul::blocked_kernel(4, 4, 4, true)),
                ),
                vec![8],
            ),
            (
                "conv2d",
                pick(
                    own!(conv2d::blocked_seq_kernel(4, 2, true)),
                    own!(conv2d::blocked_kernel(4, 4, true)),
                ),
                conv2d::params(&conv2d::ConvSize { n: 8, k: 3 }),
            ),
        ]
    }

    /// `exec_golden`'s `flush` program: overlapping in-place updates,
    /// so residency flush deltas engage.
    fn flush_kernel() -> BlockedKernel {
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

    /// The parent's name-keyed dim context (sorted, as the plan wants
    /// the values).
    type Pins = std::collections::BTreeMap<String, i64>;

    /// The parent's `enumerate_named`: pin `fixed` by name, project
    /// the lead domain onto `names`, substitute the parameters,
    /// enumerate — one Fourier–Motzkin projection per level instance.
    fn reference_level(
        lead: &Statement,
        names: &[String],
        params: &[i64],
        fixed: &Pins,
    ) -> Vec<Vec<i64>> {
        if names.is_empty() {
            return Vec::new();
        }
        let fixed = fixed.iter().map(|(n, v)| (n.clone(), *v)).collect();
        let dom = fix_dims(&lead.domain, &fixed);
        let keep: Vec<usize> = names
            .iter()
            .map(|n| dom.space().find_dim(n).expect("level dim of the lead"))
            .collect();
        let concrete = dom
            .project_onto(&keep)
            .and_then(|p| p.substitute_params(params))
            .unwrap();
        let mut out = Vec::new();
        enumerate_points(&concrete, 1 << 20, &mut |p| out.push(p.to_vec())).unwrap();
        out
    }

    /// Walk the launch the way the parent's executor did — name-keyed
    /// pins, one projection per level instance — and demand that the
    /// grid yields the same instances in the same order at every tier
    /// and the same `params ++ sorted fixed values` per sub-block.
    /// Where a level's emptiness departs from the first sub-block's
    /// (the launch shape) the parent failed evaluating the shape
    /// there; the grid must answer the same typed error.
    struct GridWalk<'a> {
        grid: LaunchGrid,
        lead: &'a Statement,
        levels: [&'a [String]; 3],
        params: &'a [i64],
        /// Per tier: did the first sub-block find a value?
        shape: [Option<bool>; 3],
        sub_blocks: u64,
        mismatches: u64,
    }

    impl GridWalk<'_> {
        fn tier(&mut self, k: usize, coords: &[i64], pins: &Pins) {
            if k == 3 {
                let want: Vec<i64> = (self.params.iter()).chain(pins.values()).copied().collect();
                assert_eq!(self.grid.pparams(coords), want);
                self.sub_blocks += 1;
                return;
            }
            let vals = reference_level(self.lead, self.levels[k], self.params, pins);
            let pinned = *self.shape[k].get_or_insert(!vals.is_empty());
            let got = self.grid.scan(k, coords);
            if vals.is_empty() == pinned && !self.levels[k].is_empty() {
                assert!(
                    matches!(
                        got,
                        Err(MachineError::Poly(PolyError::SpaceMismatch { .. }))
                    ),
                    "tier {k} at {coords:?}: {got:?}"
                );
                self.mismatches += 1;
                return;
            }
            let vals = if vals.is_empty() { vec![vec![]] } else { vals };
            let want: Vec<Vec<i64>> = vals.iter().map(|v| [coords, v].concat()).collect();
            assert_eq!(got.unwrap(), want, "tier {k} at {coords:?}");
            for (at, v) in want.iter().zip(&vals) {
                let mut inner = pins.clone();
                inner.extend(self.levels[k].iter().cloned().zip(v.iter().copied()));
                self.tier(k + 1, at, &inner);
            }
        }
    }

    /// Sub-blocks visited and shape mismatches met walking `kernel`'s
    /// grid against the reference.
    fn walk_grid(kernel: &BlockedKernel, params: &[i64]) -> (u64, u64) {
        let lead = &kernel.program.stmts[0];
        let levels: [&[String]; 3] = [&kernel.round_dims, &kernel.block_dims, &kernel.seq_dims];
        let mut walk = GridWalk {
            grid: LaunchGrid::new(lead, &levels, &[], params, 1 << 20).unwrap(),
            lead,
            levels,
            params,
            shape: [None; 3],
            sub_blocks: 0,
            mismatches: 0,
        };
        walk.tier(0, params, &Pins::new());
        (walk.sub_blocks, walk.mismatches)
    }

    #[test]
    fn grid_is_the_per_level_projection_on_the_builtins() {
        for seq in [false, true] {
            for (name, k, params) in golden_builtins(seq) {
                let (sub_blocks, mismatches) = walk_grid(&k, &params);
                assert!(sub_blocks > 1, "{name} seq={seq}: {sub_blocks} sub-blocks");
                assert_eq!(mismatches, 0, "{name} seq={seq}");
            }
        }
        for k in [flush_kernel(), carry_kernel().1] {
            assert_eq!(walk_grid(&k, &[8, 12][..k.program.params.len()]).1, 0);
        }
    }

    #[test]
    fn grid_is_the_per_level_projection_on_a_triangular_domain() {
        // j <= i: the jT range of a block row depends on its iT.
        let mut b = ProgramBuilder::new("tri", ["N"]);
        b.array("T", &[v("N"), v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("i")),
            ])
            .write("T", &[v("i"), v("j")])
            .body(Expr::Const(1))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 3)], "T")).unwrap();
        let dims = |d: &[&str]| d.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        for (round, block, seq) in [
            (vec![], dims(&["iT", "jT"]), vec![]),
            (vec![], dims(&["iT"]), dims(&["jT"])),
            (dims(&["iT"]), dims(&["jT"]), vec![]),
            // Tiers against domain order: grid order != sorted order.
            (vec![], dims(&["jT"]), dims(&["iT"])),
        ] {
            let k = BlockedKernel {
                program: t.clone(),
                round_dims: round,
                block_dims: block,
                seq_dims: seq,
                thread_dims: vec![],
                use_scratchpad: true,
            };
            // Tile row iT holds i <= min(4 iT + 3, 12), hence the jT
            // values 0..=i/3: 2 + 3 + 4 + 5 tiles.
            let (sub_blocks, mismatches) = walk_grid(&k, &[13]);
            assert_eq!((sub_blocks, mismatches), (14, 0), "{:?}", k.seq_dims);
        }
    }

    #[test]
    fn grid_answers_a_hollow_fibre_with_the_shape_mismatch() {
        // `launch_shape.rs`'s kernel: `2s = b` leaves block b = 1 with
        // an empty integer fibre over the seq dim the shape pins.
        let mut b = ProgramBuilder::new("hollow", ["N"]);
        b.array("A", &[v("N")]);
        b.array("Out", &[v("N")]);
        b.stmt("S")
            .loops(&[
                ("b", LinExpr::c(0), LinExpr::c(1)),
                ("s", LinExpr::c(0), LinExpr::c(1)),
                ("i", LinExpr::c(0), v("N") - 1),
            ])
            .guard_le(v("b"), v("s") * 2)
            .guard_le(v("s") * 2, v("b"))
            .write("Out", &[v("i")])
            .read("A", &[v("i")])
            .body(Expr::Read(0))
            .done();
        let k = BlockedKernel {
            program: b.build().unwrap(),
            round_dims: vec![],
            block_dims: vec!["b".into()],
            seq_dims: vec!["s".into()],
            thread_dims: vec![],
            use_scratchpad: true,
        };
        assert_eq!(walk_grid(&k, &[8]), (1, 1));
    }

    #[test]
    fn grid_rejects_levels_it_cannot_place() {
        let k = blocked_seq();
        let lead = &k.program.stmts[0];
        let grid = |block: &[&str], seq: &[&str]| {
            let names = |d: &[&str]| d.iter().map(|n| n.to_string()).collect::<Vec<_>>();
            let (block, seq) = (names(block), names(seq));
            LaunchGrid::new(lead, &[&[], &block, &seq], &[], &[10], 1000).map(|g| g.fixed)
        };
        assert_eq!(grid(&["jT"], &["iT"]).unwrap(), ["iT", "jT"]);
        for (block, seq) in [
            (&["iT", "kT"][..], &[][..]),
            (&["iT"], &["iT"]),
            (&["jT", "jT"], &[]),
        ] {
            let got = grid(block, seq);
            assert!(
                matches!(
                    got,
                    Err(MachineError::Poly(PolyError::SpaceMismatch { .. }))
                ),
                "{block:?} {seq:?}: {got:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Generated stencil pipelines under every tier split of a 2-D
        /// tiling, partial edge tiles included.
        #[test]
        fn grid_is_the_per_level_projection_on_generated_programs(
            seed in 0u64..1000,
            n in 5i64..=13,
            ti in 2i64..=5,
            tj in 2i64..=5,
            split in 0usize..=4,
        ) {
            let p = polymem_ir::random_program(seed);
            let t = tile_program(&p, &TileSpec::new(&[("i", ti), ("j", tj)], "T")).unwrap();
            let (it, jt) = ("iT".to_string(), "jT".to_string());
            let (round_dims, block_dims, seq_dims) = match split {
                0 => (vec![], vec![it, jt], vec![]),
                1 => (vec![], vec![it], vec![jt]),
                2 => (vec![it], vec![jt], vec![]),
                3 => (vec![], vec![jt], vec![it]),
                _ => (vec![jt], vec![], vec![it]),
            };
            let k = BlockedKernel {
                program: t,
                round_dims,
                block_dims,
                seq_dims,
                thread_dims: vec![],
                use_scratchpad: true,
            };
            let (sub_blocks, mismatches) = walk_grid(&k, &[n]);
            let tiles = |size: i64| ((n + size - 1) / size) as u64;
            prop_assert_eq!(sub_blocks, tiles(ti) * tiles(tj));
            prop_assert_eq!(mismatches, 0);
        }
    }

    /// The parent's per-call predicate behind every hoisting decision:
    /// §4.2 hoisting applies only when the array materialises as
    /// exactly one buffer in the plan.
    fn plan_hoists(plan: &SmemPlan, array: usize, hoistable: &HashSet<usize>) -> bool {
        hoistable.contains(&array) && plan.buffers.iter().filter(|b| b.array == array).count() == 1
    }

    /// The parent's per-call predicate behind every prefetch decision:
    /// whether any poisoned read access is rewritten into the buffer
    /// served by movement entry `mi`.
    fn buffer_poisoned(plan: &SmemPlan, mi: usize, poisoned: &HashSet<AccessId>) -> bool {
        let b = plan.movement[mi].buffer;
        plan.rewrites
            .iter()
            .any(|(id, la)| la.buffer == b && poisoned.contains(id))
    }

    #[test]
    fn per_launch_staging_flags_equal_the_per_call_predicates() {
        let mut kernels = golden_builtins(true);
        kernels.push(("flush", flush_kernel(), vec![8, 12]));
        kernels.push(("carry", carry_kernel().1, vec![8]));
        let machines = [
            MachineConfig::geforce_8800_gtx(),
            MachineConfig::cell_like(),
            MachineConfig::spatial_mesh(),
        ];
        let (mut entries, mut hoisting, mut pinned) = (0, 0, 0);
        for (name, k, params) in &kernels {
            let lead = &k.program.stmts[0];
            let hoistable = seq_redundant_arrays(k);
            let stale = overlap_poisoned_reads(k).unwrap();
            for (base, db, variant) in golden_columns(&machines) {
                // exec_golden's columns: residency on / off, then the
                // register level on top of the machine's default.
                let mut cfg = base.clone();
                cfg.double_buffer = db;
                match variant {
                    0 => cfg.residency = true,
                    1 => cfg.residency = false,
                    _ => cfg.hierarchy = true,
                }
                let grid = launch_grid(k, params, &cfg, lead).unwrap();
                let rep = grid.representative(k, &cfg);
                let (sp, _) = warm(k, params, &cfg, &rep, None, None).unwrap();
                let launch = LaunchShared::new(k, params, &cfg, grid, Some(sp.clone())).unwrap();
                let (plan, flags) = (&sp.plan, &launch.flags);
                assert_eq!(flags.overlap, db, "{name}");
                for (mi, mc) in plan.movement.iter().enumerate() {
                    let array = plan.buffers[mc.buffer].array;
                    let hoists = plan_hoists(plan, array, &hoistable);
                    let poisoned = db && buffer_poisoned(plan, mi, &stale);
                    assert_eq!(flags.hoists[mi], hoists, "{name} db={db} entry {mi}");
                    assert_eq!(flags.poisoned[mi], poisoned, "{name} db={db} entry {mi}");
                    entries += 1;
                    hoisting += hoists as u32;
                    pinned += poisoned as u32;
                }
            }
        }
        // The comparison saw both answers of both predicates.
        assert!(hoisting > 0 && pinned > 0 && entries > hoisting + pinned);
    }

    /// machine × double buffering × exec_golden column.
    fn golden_columns(machines: &[MachineConfig]) -> Vec<(&MachineConfig, bool, u8)> {
        let mut out = Vec::new();
        for m in machines {
            for db in [false, true] {
                for variant in 0..3 {
                    out.push((m, db, variant));
                }
            }
        }
        out
    }
}
