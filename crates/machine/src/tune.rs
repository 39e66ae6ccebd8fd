//! Cost-model-pruned mapping autotuner (the §4.3 search, generalised).
//!
//! [`tune`] takes a set of candidate mappings ([`TuneCandidate`]),
//! prices every one with the analytic estimator in
//! `polymem_core::smem::tune` (symbolic plan only — no simulation),
//! keeps a configurable top-K frontier (presets are always pinned into
//! it, so the tuned winner can never lose to a hand-picked mapping),
//! and simulates only the survivors in parallel across a scoped-thread
//! worker pool, each candidate seeded with its own warmed symbolic
//! plan and timed best-of-N. Every simulated candidate's outputs are
//! compared bit-exactly against the reference interpreter.
//!
//! The winner is persisted as a [`TuneArtifact`] in the plan artifact
//! store under [`tune_key`] (program × params × machine salt ×
//! candidate-space description), so a warm re-run — and `polymem run
//! --tuned` / `polymem serve` — loads it with zero simulations.
//!
//! [`generic_candidates`] derives a candidate space for *arbitrary*
//! affine programs (`.poly` files, fuzzed programs) from the
//! permutable-band analysis, mirroring how the five hand-written
//! kernels were mapped: tiled space loops across blocks, an optional
//! innermost sequential tile loop for residency/double-buffering, and
//! an outermost time loop as device-sync rounds when no space loop
//! exists.

use crate::config::MachineConfig;
use crate::exec::{
    execute_blocked_seeded, machine_salt, seq_redundant_arrays, warm_plan, BlockedKernel,
    LaunchGrid,
};
use crate::{MachineError, Result};
use polymem_core::smem::tune::{
    estimate, tune_key, CostConstants, CostEstimate, MappingDesc, Structure, TuneArtifact, TuneRow,
};
use polymem_core::smem::{ArtifactKey, SymbolicPlan};
use polymem_core::tiling::bands::find_permutable_band;
use polymem_core::tiling::legality::check_tiling;
use polymem_core::tiling::transform::{tile_program, TileSpec};
use polymem_ir::{exec_program, ArrayStore, Program};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One candidate mapping: its description plus the ready-to-execute
/// blocked kernel it denotes.
#[derive(Clone, Debug)]
pub struct TuneCandidate {
    /// The reusable mapping description (persisted in the artifact).
    pub desc: MappingDesc,
    /// The kernel the description reconstructs.
    pub kernel: BlockedKernel,
    /// Hand-picked preset mappings are pinned into the simulation
    /// frontier regardless of their predicted rank.
    pub preset: bool,
}

/// Search options.
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Frontier size: how many top-predicted candidates to simulate
    /// (presets are added on top).
    pub top_k: usize,
    /// Wall-clock repetitions per simulated candidate (best-of-N;
    /// modeled cycles are deterministic).
    pub reps: u32,
    /// Simulate every feasible candidate (disables pruning).
    pub exhaustive: bool,
    /// Worker threads for the simulation pool (0 = one per candidate,
    /// capped at 8).
    pub workers: usize,
    /// Ignore a warm tune artifact and re-search.
    pub force: bool,
    /// Human-readable tag folded into the tune key together with the
    /// candidate descriptions.
    pub space_label: String,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            top_k: 4,
            reps: 1,
            exhaustive: false,
            workers: 0,
            force: false,
            space_label: String::new(),
        }
    }
}

/// The result of one [`tune`] run.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// The artifact key the result is stored under.
    pub key: ArtifactKey,
    /// `"artifact"` when a warm tune artifact answered with zero
    /// simulations, `"search"` when the search ran.
    pub plan_source: &'static str,
    /// Candidates simulated this run (0 on a warm artifact hit).
    pub simulated: usize,
    /// Total candidates considered.
    pub total: usize,
    /// The winning mapping.
    pub winner: MappingDesc,
    /// The winner's predicted cycles.
    pub winner_predicted: u64,
    /// The winner's simulated modeled cycles.
    pub winner_cycles: u64,
    /// Full ranked table (predicted ascending).
    pub rows: Vec<TuneRow>,
    /// Best-of-N simulation wall-clock per row (`None` for
    /// unsimulated rows; empty on a warm artifact hit — wall-clock is
    /// never persisted).
    pub sim_ns: Vec<Option<u128>>,
}

/// Machine toggles a [`MappingDesc`] overrides on the base config.
pub fn config_for(desc: &MappingDesc, base: &MachineConfig) -> MachineConfig {
    let mut cfg = base.clone();
    cfg.double_buffer = desc.double_buffer;
    cfg.hierarchy = desc.hierarchy;
    cfg.residency = desc.residency;
    cfg.vector_width = desc.vector_width.max(1);
    cfg
}

/// The per-launch policy switches of a built-in launch: what
/// `polymem run`'s flags and a serve request's optional fields both
/// parse into. The defaults are the CLI's (and the protocol's).
#[derive(Clone, Debug)]
pub struct LaunchToggles {
    /// Run the sequential-sub-tile mapping and overlap its DMA.
    pub double_buffer: bool,
    /// Execute block compute phases on the compiled engine.
    pub compiled_exec: bool,
    /// Stage per-inner-process register tiles.
    pub hierarchy: bool,
    /// Keep overlapping windows resident across sub-tiles (only where
    /// the machine derives residency at all).
    pub residency: bool,
    /// Override the machine's SIMD batch width (already validated
    /// `>= 1` where it entered the program).
    pub vector_width: Option<u64>,
    /// Persist compiled plans (and tune winners) here.
    pub artifact_dir: Option<String>,
}

impl Default for LaunchToggles {
    fn default() -> Self {
        LaunchToggles {
            double_buffer: false,
            compiled_exec: true,
            hierarchy: true,
            residency: true,
            vector_width: None,
            artifact_dir: None,
        }
    }
}

/// Fold launch toggles over a machine's pristine configuration.
pub fn launch_config(toggles: &LaunchToggles, base: &MachineConfig) -> MachineConfig {
    let mut cfg = base.clone();
    cfg.double_buffer = toggles.double_buffer;
    cfg.compiled_exec = toggles.compiled_exec;
    cfg.hierarchy = toggles.hierarchy;
    cfg.residency = base.residency && toggles.residency;
    cfg.vector_width = toggles.vector_width.unwrap_or(base.vector_width);
    cfg.artifact_dir = toggles.artifact_dir.clone();
    cfg
}

/// Rebuild the [`BlockedKernel`] a `scheme == "tile"` description
/// denotes on `program`. Returns `None` for foreign schemes (callers
/// with kernel-specific rebuilders handle those).
pub fn tile_kernel(program: &Program, desc: &MappingDesc) -> Result<Option<BlockedKernel>> {
    if desc.scheme != "tile" {
        return Ok(None);
    }
    let tiled = if desc.tiles.is_empty() {
        program.clone()
    } else {
        let tiles: Vec<(&str, i64)> = desc.tiles.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        tile_program(program, &TileSpec::new(&tiles, "T"))?
    };
    Ok(Some(BlockedKernel {
        program: tiled,
        round_dims: desc.round_dims.clone(),
        block_dims: desc.block_dims.clone(),
        seq_dims: desc.seq_dims.clone(),
        thread_dims: desc.thread_dims.clone(),
        use_scratchpad: desc.use_scratchpad,
    }))
}

/// Enumerate the launch shape the estimator prices: round/block/seq
/// counts plus the representative fixed-dim values — walked on the
/// executor's own [`LaunchGrid`], so the estimator prices the
/// sub-block the shared plan is analysed at — and the advanced seq
/// point the residency delta sets are evaluated at. This is where the
/// grid's coordinates get their names back.
pub fn structure_of(
    kernel: &BlockedKernel,
    params: &[i64],
    config: &MachineConfig,
) -> Result<Structure> {
    let mut st = Structure {
        rounds: 1,
        blocks: 1,
        seqs: 1,
        rep_first: HashMap::new(),
        rep_mid: None,
        hoisted_arrays: Vec::new(),
        double_buffer: config.double_buffer,
    };
    let Some(lead) = kernel.program.stmts.first() else {
        return Ok(st);
    };
    let levels: [&[String]; 3] = [&kernel.round_dims, &kernel.block_dims, &kernel.seq_dims];
    let grid = LaunchGrid::new(lead, &levels, &[], params, config.enum_budget)?;
    let named = |coords: &[i64]| -> HashMap<String, i64> {
        let vals = coords[params.len()..].iter().copied();
        grid.names.iter().cloned().zip(vals).collect()
    };
    // Every tier at the first instance of the tiers outside it (a scan
    // has at least one instance).
    let rounds = grid.scan(0, params)?;
    let blocks = grid.scan(1, &rounds[0])?;
    let seqs = grid.scan(2, &blocks[0])?;
    st.rounds = rounds.len() as u64;
    st.blocks = blocks.len() as u64;
    st.seqs = seqs.len() as u64;
    st.rep_first = named(&seqs[0]);
    // The delta sets compare sub-tile s1 against its predecessor s0,
    // so the mid point carries s1's values.
    st.rep_mid = seqs.get(1).map(|s1| named(s1));
    if !kernel.seq_dims.is_empty() && kernel.use_scratchpad {
        let mut h: Vec<usize> = seq_redundant_arrays(kernel).into_iter().collect();
        h.sort_unstable();
        st.hoisted_arrays = h;
    }
    Ok(st)
}

/// The estimator's view of a machine config.
pub fn cost_constants(config: &MachineConfig) -> CostConstants {
    CostConstants {
        cycles_per_op: config.cycles_per_op,
        smem_latency: config.smem_latency,
        global_latency: config.global_latency,
        global_overlap: config.global_overlap,
        word_bytes: config.word_bytes,
        smem_bytes: config.smem_bytes,
        device_sync_base: config.device_sync_base,
        device_sync_per_block: config.device_sync_per_block,
        dma_channels: config.dma_channels,
        dma_setup_cycles: config.dma_setup_cycles,
        dma_bytes_per_cycle: config.dma_bytes_per_cycle,
        n_outer: config.n_outer,
        max_blocks_per_outer: config.max_blocks_per_outer,
        count_budget: config.enum_budget,
        mesh_rows: match &config.mesh {
            Some(m) if config.caps.placement_cost => m.rows,
            _ => 0,
        },
        mesh_cols: match &config.mesh {
            Some(m) if config.caps.placement_cost => m.cols,
            _ => 0,
        },
        hop_cycles: match &config.mesh {
            Some(m) if config.caps.placement_cost => m.hop_cycles,
            _ => 0.0,
        },
    }
}

/// Derive a candidate space for an arbitrary affine program from the
/// §4.1 permutable-band analysis. `tile_sizes` is the per-dimension
/// size menu (e.g. `[2, 4, 8]`); up to two loops are tiled.
pub fn generic_candidates(
    program: &Program,
    params: &[i64],
    base: &MachineConfig,
    tile_sizes: &[i64],
) -> Result<Vec<TuneCandidate>> {
    let band = find_permutable_band(program).map_err(MachineError::Poly)?;
    let Some(lead) = program.stmts.first() else {
        return Ok(Vec::new());
    };
    let names = lead.domain.space().dims().to_vec();
    // Only communication-free loops may span the blocks of one round;
    // a pipeline-promoted space loop carries a dependence, so such a
    // band is mapped like an all-time one below.
    let space_names: Vec<String> = band
        .parallel_loops()
        .iter()
        .map(|&l| names[l].clone())
        .collect();

    // Choose round dims and the (up to two) loops worth tiling.
    let mut round_dims: Vec<String> = Vec::new();
    let tile_dims: Vec<String> = if !space_names.is_empty() {
        space_names.iter().take(2).cloned().collect()
    } else if let Some(&first) = band.loops.first() {
        // All-time band (unskewed stencil): outermost time loop
        // becomes device-sync rounds, deeper loops become the tiling
        // targets (legality-checked per candidate).
        round_dims.push(names[first].clone());
        names.iter().skip(first + 1).take(2).cloned().collect()
    } else {
        Vec::new()
    };

    fn push_desc(program: &Program, out: &mut Vec<TuneCandidate>, desc: MappingDesc) -> Result<()> {
        if let Some(kernel) = tile_kernel(program, &desc)? {
            out.push(TuneCandidate {
                desc,
                kernel,
                preset: false,
            });
        }
        Ok(())
    }

    // Untiled whole-program mappings (single block per round): the
    // only option when nothing is tilable, and the fallback when
    // every tile combo fails the legality check below.
    let untiled = |spad: bool| MappingDesc {
        scheme: "tile".into(),
        tiles: vec![],
        round_dims: round_dims.clone(),
        block_dims: vec![],
        seq_dims: vec![],
        thread_dims: vec![],
        use_scratchpad: spad,
        double_buffer: false,
        hierarchy: false,
        residency: false,
        vector_width: base.vector_width,
    };
    let mut out: Vec<TuneCandidate> = Vec::new();
    if tile_dims.is_empty() {
        push_desc(program, &mut out, untiled(true))?;
        push_desc(program, &mut out, untiled(false))?;
        return Ok(out);
    }

    let combos: Vec<Vec<i64>> = if tile_dims.len() == 1 {
        tile_sizes.iter().map(|&a| vec![a]).collect()
    } else {
        let mut c = Vec::new();
        for &a in tile_sizes {
            for &b in tile_sizes {
                c.push(vec![a, b]);
            }
        }
        c
    };
    let mut unstaged_done = false;
    for combo in combos {
        let tiles: Vec<(String, i64)> = tile_dims
            .iter()
            .cloned()
            .zip(combo.iter().copied())
            .collect();
        let spec_pairs: Vec<(&str, i64)> = tiles.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let spec = TileSpec::new(&spec_pairs, "T");
        match check_tiling(program, &spec, Some(params)) {
            Ok(Ok(())) => {}
            Ok(Err(_)) => continue,
            Err(e) => return Err(MachineError::Poly(e)),
        }
        let block_all: Vec<String> = tile_dims.iter().map(|n| format!("{n}T")).collect();
        let thread = vec![tile_dims[0].clone()];
        let base_desc = MappingDesc {
            scheme: "tile".into(),
            tiles: tiles.clone(),
            round_dims: round_dims.clone(),
            block_dims: block_all.clone(),
            seq_dims: vec![],
            thread_dims: thread.clone(),
            use_scratchpad: true,
            double_buffer: false,
            hierarchy: false,
            residency: false,
            vector_width: base.vector_width,
        };
        // All tile dims across blocks.
        push_desc(program, &mut out, base_desc.clone())?;
        if !unstaged_done {
            push_desc(
                program,
                &mut out,
                MappingDesc {
                    use_scratchpad: false,
                    ..base_desc.clone()
                },
            )?;
            unstaged_done = true;
        }
        // Innermost tile loop sequential inside the block: the shape
        // residency and double buffering exploit.
        if block_all.len() >= 2 {
            let seq_desc = MappingDesc {
                block_dims: block_all[..block_all.len() - 1].to_vec(),
                seq_dims: vec![block_all[block_all.len() - 1].clone()],
                residency: base.residency,
                ..base_desc.clone()
            };
            push_desc(program, &mut out, seq_desc.clone())?;
            push_desc(
                program,
                &mut out,
                MappingDesc {
                    double_buffer: true,
                    ..seq_desc
                },
            )?;
        }
    }
    if out.is_empty() {
        // Every tile combo failed the legality check: fall back to the
        // untiled single-block mappings so the space is never empty.
        push_desc(program, &mut out, untiled(true))?;
        push_desc(program, &mut out, untiled(false))?;
    }
    Ok(out)
}

struct SimResult {
    cycles: u64,
    exact: bool,
    best_ns: u128,
    note: String,
}

fn simulate_one(
    cand: &TuneCandidate,
    program: &Program,
    params: &[i64],
    init: &(dyn Fn(&mut ArrayStore) + Sync),
    reference: &ArrayStore,
    base: &MachineConfig,
    reps: u32,
) -> SimResult {
    let cfg = config_for(&cand.desc, base);
    let mut seed: Option<Arc<SymbolicPlan>> = None;
    let mut cycles = 0u64;
    let mut exact = true;
    let mut best_ns = u128::MAX;
    for _ in 0..reps.max(1) {
        let mut store = match ArrayStore::for_program(&cand.kernel.program, params) {
            Ok(s) => s,
            Err(e) => {
                return SimResult {
                    cycles: 0,
                    exact: false,
                    best_ns: 0,
                    note: format!("store: {e}"),
                }
            }
        };
        init(&mut store);
        let t0 = Instant::now();
        match execute_blocked_seeded(
            &cand.kernel,
            params,
            &mut store,
            &cfg,
            false,
            None,
            seed.as_ref(),
        ) {
            Ok((stats, warmed)) => {
                best_ns = best_ns.min(t0.elapsed().as_nanos());
                cycles = stats.modeled_cycles;
                if let Some((sp, _)) = warmed {
                    seed = Some(sp);
                }
                for a in &program.arrays {
                    if store.data(&a.name) != reference.data(&a.name) {
                        exact = false;
                    }
                }
            }
            Err(e) => {
                return SimResult {
                    cycles: 0,
                    exact: false,
                    best_ns: 0,
                    note: format!("{e}"),
                }
            }
        }
    }
    SimResult {
        cycles,
        exact,
        best_ns,
        note: String::new(),
    }
}

/// Run the pruned search over `candidates`.
///
/// `program` is the *base* (untiled) program: it defines the reference
/// semantics every simulated candidate is checked against bit-exactly,
/// and the tune key. `init` seeds the array store deterministically
/// (called once for the reference and once per simulation rep).
pub fn tune(
    program: &Program,
    params: &[i64],
    init: &(dyn Fn(&mut ArrayStore) + Sync),
    candidates: &[TuneCandidate],
    base: &MachineConfig,
    opts: &TuneOptions,
) -> Result<TuneOutcome> {
    if candidates.is_empty() {
        return Err(MachineError::Tune("empty candidate space".into()));
    }
    // The space description keys the artifact: any change to the
    // candidate set or the pruning shape re-searches.
    let mut space = format!(
        "{};k={};ex={}",
        opts.space_label,
        if opts.exhaustive { 0 } else { opts.top_k },
        opts.exhaustive as u8
    );
    for c in candidates {
        space.push('|');
        space.push_str(&c.desc.to_line());
        if c.preset {
            space.push('*');
        }
    }
    let key = tune_key(program, params, &machine_salt(base), &space);
    let art_dir = base.artifact_dir.clone();
    if !opts.force {
        if let Some(dir) = &art_dir {
            if let Some(art) = TuneArtifact::load(Path::new(dir), &key) {
                return Ok(TuneOutcome {
                    key,
                    plan_source: "artifact",
                    simulated: 0,
                    total: candidates.len(),
                    winner: art.winner,
                    winner_predicted: art.winner_predicted,
                    winner_cycles: art.winner_cycles,
                    rows: art.rows,
                    sim_ns: Vec::new(),
                });
            }
        }
    }

    // Reference outputs from the sequential interpreter.
    let mut reference = ArrayStore::for_program(program, params).map_err(MachineError::Ir)?;
    init(&mut reference);
    exec_program(program, params, &mut reference).map_err(MachineError::Ir)?;

    // Analytic pass: plan symbolically (through the PR-8 artifact
    // store, so re-tunes reuse compiled plans) and price each
    // candidate. No simulation happens here.
    let mut priced: Vec<(usize, Option<CostEstimate>, String)> = Vec::new();
    for (ci, cand) in candidates.iter().enumerate() {
        let cfg = config_for(&cand.desc, base);
        let est = structure_of(&cand.kernel, params, &cfg).and_then(|st| {
            let sp = if cand.kernel.use_scratchpad {
                warm_plan(&cand.kernel, params, &cfg, None, None)?.map(|(sp, _)| sp)
            } else {
                None
            };
            estimate(
                &cand.kernel.program,
                sp.as_deref(),
                params,
                &st,
                &cost_constants(&cfg),
            )
            .map_err(MachineError::Smem)
        });
        match est {
            Ok(e) => {
                let need =
                    e.smem_words * cfg.word_bytes * if cand.desc.double_buffer { 2 } else { 1 };
                if cfg.smem_bytes > 0 && need > cfg.smem_bytes {
                    priced.push((
                        ci,
                        None,
                        format!("infeasible: needs {need} B of {} B", cfg.smem_bytes),
                    ));
                } else {
                    priced.push((ci, Some(e), String::new()));
                }
            }
            Err(e) => priced.push((ci, None, format!("estimate: {e}"))),
        }
    }

    // Rank feasible candidates by predicted cycles; the frontier is
    // the top-K plus every preset.
    let mut order: Vec<usize> = (0..priced.len())
        .filter(|&i| priced[i].1.is_some())
        .collect();
    order.sort_by_key(|&i| (priced[i].1.as_ref().unwrap().predicted_cycles, i));
    let frontier: Vec<usize> = order
        .iter()
        .enumerate()
        .filter(|(rank, &i)| {
            opts.exhaustive || *rank < opts.top_k.max(1) || candidates[priced[i].0].preset
        })
        .map(|(_, &i)| i)
        .collect();

    // Simulate the frontier in parallel (scoped worker pool, one warm
    // plan seed per worker carried across its candidates).
    let results: Vec<Mutex<Option<SimResult>>> = priced.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let n_workers = if opts.workers == 0 {
        frontier.len().clamp(1, 8)
    } else {
        opts.workers.min(frontier.len().max(1))
    };
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&pi) = frontier.get(k) else { break };
                let cand = &candidates[priced[pi].0];
                let r = simulate_one(cand, program, params, init, &reference, base, opts.reps);
                *results[pi].lock().unwrap() = Some(r);
            });
        }
    });

    // Assemble the ranked table: feasible candidates by predicted
    // order, then the infeasible/failed ones.
    let mut rows: Vec<TuneRow> = Vec::new();
    let mut sim_ns: Vec<Option<u128>> = Vec::new();
    let mut row_of: Vec<(usize, Option<u64>, bool)> = Vec::new();
    let mut emit = |pi: usize| {
        let (ci, est, note) = &priced[pi];
        let sim = results[pi].lock().unwrap().take();
        let (simulated, exact, note, ns) = match sim {
            Some(s) if s.note.is_empty() => {
                (Some(s.cycles), s.exact, note.clone(), Some(s.best_ns))
            }
            Some(s) => (None, false, s.note, None),
            None => (None, true, note.clone(), None),
        };
        sim_ns.push(ns);
        row_of.push((rows.len(), simulated, exact));
        rows.push(TuneRow {
            desc: candidates[*ci].desc.clone(),
            predicted: est.as_ref().map(|e| e.predicted_cycles).unwrap_or(u64::MAX),
            simulated,
            exact,
            preset: candidates[*ci].preset,
            note,
        });
    };
    for &pi in &order {
        emit(pi);
    }
    let infeasible: Vec<usize> = (0..priced.len())
        .filter(|&pi| priced[pi].1.is_none())
        .collect();
    for pi in infeasible {
        emit(pi);
    }

    let winner_row = row_of
        .iter()
        .filter(|(_, sim, exact)| sim.is_some() && *exact)
        .min_by_key(|(ri, sim, _)| (sim.unwrap(), *ri))
        .map(|(ri, _, _)| *ri)
        .ok_or_else(|| {
            let inexact = rows.iter().filter(|r| r.simulated.is_some()).count();
            let note = rows.iter().map(|r| r.note.as_str()).find(|n| !n.is_empty());
            MachineError::Tune(format!(
                "no candidate simulated successfully: {} simulated, {inexact} not bit-exact, \
                 {} failed{}",
                frontier.len(),
                frontier.len() - inexact,
                note.map(|n| format!("; first note: {n}"))
                    .unwrap_or_default(),
            ))
        })?;
    let winner = rows[winner_row].desc.clone();
    let winner_predicted = rows[winner_row].predicted;
    let winner_cycles = rows[winner_row].simulated.unwrap();

    let art = TuneArtifact {
        key,
        winner: winner.clone(),
        winner_predicted,
        winner_cycles,
        rows: rows.clone(),
    };
    if let Some(dir) = &art_dir {
        art.save(Path::new(dir))
            .map_err(|e| MachineError::Tune(format!("artifact save: {e}")))?;
    }
    Ok(TuneOutcome {
        key,
        plan_source: "search",
        simulated: frontier.len(),
        total: candidates.len(),
        winner,
        winner_predicted,
        winner_cycles,
        rows,
        sim_ns,
    })
}
