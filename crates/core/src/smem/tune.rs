//! §4.3-style analytic mapping cost estimator and tune artifacts.
//!
//! The paper's tile-size search (§4.3) ranks candidate mappings with a
//! closed-form data-movement cost model instead of executing them.
//! This module reproduces that lever for the *whole* mapping space the
//! executor exposes (tile shape, blocked/sequential dim split, thread
//! dims, double buffering, hierarchy, residency): [`estimate`] prices
//! one candidate from its [`SymbolicPlan`] alone — global-traffic
//! bytes from the movement/residency sets, DMA descriptor setup from
//! the coalesced transfer lists, per-instance compute and memory ops
//! from exact polyhedral point counts, and the §5 occupancy/sync terms
//! — mirroring the executor's cycle formulas term by term (the DMA
//! term through the very same [`DmaChannels`] model), with **no
//! simulation**.
//!
//! Two mapping knobs are deliberately *absent* from the predicted
//! cycles: `vector_width` and the compiled-vs-interpreted engine
//! toggle. Both change wall-clock only; the executor's modeled-cycle
//! counters (`n_inst`, `n_smem`, `n_glob`) are engine-identical by
//! construction (the `POLYMEM_EXEC_CHECK` oracle asserts it), so a
//! faithful estimator must not price them.
//!
//! The module also defines the persistent *tune artifact*: the ranked
//! candidate table plus the winning [`MappingDesc`], stored next to
//! the plan artifacts under a key derived from the program, the
//! machine salt and the candidate-space description, so later runs
//! (`polymem run --tuned`, `polymem serve`) load the best mapping with
//! zero search cost.

use super::artifact::{
    atomic_write, fnv1a, hash_program, schema_hash, ArtifactKey, KeyHasher, FNV_OFFSET, FNV_PRIME,
};
use super::descriptors::{
    delta_transfer_list, flush_transfer_list, transfer_list, Direction, DmaChannels, TransferList,
};
use super::{AccessId, Result, SmemError, SymbolicPlan};
use crate::tiling::transform::fix_dims;
use polymem_ir::Program;
use polymem_poly::count::{count_points, enumerate_points};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Version stamp of the tune key derivation and artifact codec.
pub const TUNE_FORMAT_VERSION: u64 = 1;

/// A machine-independent description of one candidate mapping: enough
/// to reconstruct the [`BlockedKernel`] (tiling + dim split) and the
/// per-mapping machine toggles. This is what the tune artifact
/// persists, so `run --tuned` can rebuild the winner without
/// re-searching.
///
/// `scheme` names the reconstruction recipe: `"tile"` means "tile the
/// base program by `tiles` (suffix `T`) and split dims as listed";
/// other schemes (e.g. `"jacobi_overlapped"`) are owned by
/// kernel-specific rebuilders.
///
/// [`BlockedKernel`]: https://docs.rs/polymem-machine
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MappingDesc {
    /// Reconstruction recipe name.
    pub scheme: String,
    /// `(loop name, tile size)` pairs fed to the tiler.
    pub tiles: Vec<(String, i64)>,
    /// Dims enumerated as device-sync rounds.
    pub round_dims: Vec<String>,
    /// Dims distributed across thread blocks.
    pub block_dims: Vec<String>,
    /// Dims run sequentially inside a block (§4.2 sub-tiles).
    pub seq_dims: Vec<String>,
    /// Dims distributed across inner processes (threads).
    pub thread_dims: Vec<String>,
    /// Stage buffers in the scratchpad at all.
    pub use_scratchpad: bool,
    /// Overlap sub-tile DMA with compute.
    pub double_buffer: bool,
    /// Enable the level-2 register-frame plan.
    pub hierarchy: bool,
    /// Enable inter-sub-tile residency (delta transfers).
    pub residency: bool,
    /// SIMD lanes of the compiled engine (wall-clock only; never
    /// priced by [`estimate`]).
    pub vector_width: u64,
}

fn join_list(v: &[String]) -> String {
    v.join(",")
}

fn split_list(s: &str) -> Vec<String> {
    if s.is_empty() {
        Vec::new()
    } else {
        s.split(',').map(|x| x.to_string()).collect()
    }
}

impl MappingDesc {
    /// Compact human-readable label, e.g.
    /// `tile[i=4,j=8] blk[iT] seq[jT] thr[i] spad db res vw8`.
    pub fn label(&self) -> String {
        let tiles: Vec<String> = self.tiles.iter().map(|(n, t)| format!("{n}={t}")).collect();
        let mut s = format!("{}[{}]", self.scheme, tiles.join(","));
        if !self.round_dims.is_empty() {
            s.push_str(&format!(" rnd[{}]", join_list(&self.round_dims)));
        }
        if !self.block_dims.is_empty() {
            s.push_str(&format!(" blk[{}]", join_list(&self.block_dims)));
        }
        if !self.seq_dims.is_empty() {
            s.push_str(&format!(" seq[{}]", join_list(&self.seq_dims)));
        }
        if !self.thread_dims.is_empty() {
            s.push_str(&format!(" thr[{}]", join_list(&self.thread_dims)));
        }
        if self.use_scratchpad {
            s.push_str(" spad");
        }
        if self.double_buffer {
            s.push_str(" db");
        }
        if self.hierarchy {
            s.push_str(" hier");
        }
        if self.residency {
            s.push_str(" res");
        }
        s.push_str(&format!(" vw{}", self.vector_width));
        s
    }

    /// Fold the full description into an artifact key hasher.
    pub fn hash_into(&self, h: &mut KeyHasher) {
        h.str(&self.scheme);
        h.u64(self.tiles.len() as u64);
        for (n, t) in &self.tiles {
            h.str(n);
            h.i64(*t);
        }
        for dims in [
            &self.round_dims,
            &self.block_dims,
            &self.seq_dims,
            &self.thread_dims,
        ] {
            h.u64(dims.len() as u64);
            for d in dims.iter() {
                h.str(d);
            }
        }
        let bits = (self.use_scratchpad as u64)
            | (self.double_buffer as u64) << 1
            | (self.hierarchy as u64) << 2
            | (self.residency as u64) << 3;
        h.u64(bits);
        h.u64(self.vector_width);
    }

    /// Single-line serialisation for the tune artifact (inverse of
    /// [`MappingDesc::parse_line`]). Loop names are identifiers, so
    /// the `;`/`,`/`=` separators are unambiguous.
    pub fn to_line(&self) -> String {
        let tiles: Vec<String> = self.tiles.iter().map(|(n, t)| format!("{n}={t}")).collect();
        format!(
            "scheme={};tiles={};round={};block={};seq={};thread={};spad={};db={};hier={};res={};vw={}",
            self.scheme,
            tiles.join(","),
            join_list(&self.round_dims),
            join_list(&self.block_dims),
            join_list(&self.seq_dims),
            join_list(&self.thread_dims),
            self.use_scratchpad as u8,
            self.double_buffer as u8,
            self.hierarchy as u8,
            self.residency as u8,
            self.vector_width,
        )
    }

    /// Parse a [`MappingDesc::to_line`] string; `None` on any
    /// malformed field.
    pub fn parse_line(line: &str) -> Option<MappingDesc> {
        let mut fields: HashMap<&str, &str> = HashMap::new();
        for part in line.split(';') {
            let (k, v) = part.split_once('=')?;
            fields.insert(k, v);
        }
        let tiles_raw = *fields.get("tiles")?;
        let mut tiles = Vec::new();
        if !tiles_raw.is_empty() {
            for t in tiles_raw.split(',') {
                let (n, v) = t.split_once('=')?;
                tiles.push((n.to_string(), v.parse().ok()?));
            }
        }
        let flag = |k: &str| -> Option<bool> { Some(*fields.get(k)? == "1") };
        Some(MappingDesc {
            scheme: fields.get("scheme")?.to_string(),
            tiles,
            round_dims: split_list(fields.get("round")?),
            block_dims: split_list(fields.get("block")?),
            seq_dims: split_list(fields.get("seq")?),
            thread_dims: split_list(fields.get("thread")?),
            use_scratchpad: flag("spad")?,
            double_buffer: flag("db")?,
            hierarchy: flag("hier")?,
            residency: flag("res")?,
            vector_width: fields.get("vw")?.parse().ok()?,
        })
    }
}

/// The machine's performance constants, mirrored from the simulator's
/// config so the estimator can live machine-independently in `core`.
/// Every term corresponds one-to-one to a field the executor reads.
#[derive(Clone, Debug)]
pub struct CostConstants {
    /// Cycles per statement instance.
    pub cycles_per_op: f64,
    /// Cycles per scratchpad access.
    pub smem_latency: f64,
    /// Cycles per global access before overlap division.
    pub global_latency: f64,
    /// Latency-hiding divisor for global accesses.
    pub global_overlap: f64,
    /// Bytes per array element.
    pub word_bytes: u64,
    /// Scratchpad bytes per outer unit (0 = unlimited).
    pub smem_bytes: u64,
    /// Device-wide barrier base cycles per round.
    pub device_sync_base: f64,
    /// Barrier cycles per block per round.
    pub device_sync_per_block: f64,
    /// DMA channels per outer unit (0 = per-element movement).
    pub dma_channels: u64,
    /// Per-descriptor setup cycles.
    pub dma_setup_cycles: f64,
    /// DMA bandwidth in bytes per cycle.
    pub dma_bytes_per_cycle: f64,
    /// Outer-level parallel units.
    pub n_outer: u64,
    /// Hardware cap on concurrent blocks per outer unit.
    pub max_blocks_per_outer: u64,
    /// Point budget for exact instance counting.
    pub count_budget: u64,
    /// PE-mesh rows on spatial machines (0 = no placement-priced NoC;
    /// DMA descriptors then pay no route term).
    pub mesh_rows: u64,
    /// PE-mesh columns (hop distance from the west-edge memory ports
    /// grows with the column index).
    pub mesh_cols: u64,
    /// NoC cycles per hop per DMA descriptor.
    pub hop_cycles: f64,
}

impl CostConstants {
    /// The §5 occupancy rule `min(X / M, hw limit)`: maximum
    /// concurrently resident blocks for a per-block scratchpad use.
    /// `smem_bytes == 0` means unlimited. The simulator's
    /// `MachineConfig::concurrent_blocks` delegates here.
    pub fn concurrent_blocks(&self, smem_per_block: u64) -> u64 {
        let hw = self.n_outer * self.max_blocks_per_outer;
        if smem_per_block == 0 || self.smem_bytes == 0 {
            return hw.max(1);
        }
        let per_unit = (self.smem_bytes / smem_per_block).min(self.max_blocks_per_outer);
        (per_unit * self.n_outer).max(1).min(hw.max(1))
    }

    /// Modeled cycles of one sub-block's compute phase: every statement
    /// instance pays `cycles_per_op`, every scratchpad access
    /// `smem_latency`, every global access the overlap-hidden
    /// `global_latency`. The executor charges its measured counts
    /// through this, the estimator its polyhedral ones.
    pub fn compute_cycles(&self, n_inst: u64, n_smem: u64, n_glob: u64) -> u64 {
        let l = self.global_latency / self.global_overlap.max(1.0);
        (n_inst as f64 * self.cycles_per_op + n_smem as f64 * self.smem_latency + n_glob as f64 * l)
            .round() as u64
    }

    /// Modeled device cycles of one round of `blocks` blocks: the
    /// slowest block, times the occupancy waves its scratchpad
    /// footprint (`smem_per_block` bytes) allows (§5), plus the
    /// device-wide barrier. A round of zero-cycle blocks costs exactly
    /// the barrier.
    pub fn round_cycles(&self, max_block_cycles: u64, blocks: u64, smem_per_block: u64) -> u64 {
        let waves = blocks.div_ceil(self.concurrent_blocks(smem_per_block));
        let sync =
            (self.device_sync_base + self.device_sync_per_block * blocks as f64).round() as u64;
        max_block_cycles.saturating_mul(waves).saturating_add(sync)
    }

    /// The worst per-descriptor NoC route any of `blocks` concurrent
    /// blocks pays under column-major mesh placement (the estimator
    /// prices the representative block as the round's critical path;
    /// `MachineConfig::max_route_cycles` delegates here). 0 without a
    /// mesh.
    pub fn max_route_cycles(&self, blocks: u64) -> u64 {
        if self.mesh_rows == 0 || self.mesh_cols == 0 || blocks == 0 {
            return 0;
        }
        let pes = (self.mesh_rows * self.mesh_cols).max(1);
        let col = (blocks.min(pes) - 1) / self.mesh_rows.max(1);
        ((col + 1) as f64 * self.hop_cycles).round() as u64
    }
}

/// The enumerated shape of one candidate's launch, computed by the
/// driver from the kernel dims (rounds × blocks × sequential
/// sub-tiles) plus the representative fixed-dim values the symbolic
/// plan is evaluated at.
#[derive(Clone, Debug)]
pub struct Structure {
    /// Number of device-sync rounds.
    pub rounds: u64,
    /// Blocks per round (≥ 1).
    pub blocks: u64,
    /// Sequential sub-tiles per block (≥ 1).
    pub seqs: u64,
    /// Round/block/seq dims pinned at their first enumerated values.
    pub rep_first: HashMap<String, i64>,
    /// Same, with the innermost seq dim advanced to its second value
    /// (present only when `seqs > 1`); evaluation point for the
    /// residency delta/flush sets.
    pub rep_mid: Option<HashMap<String, i64>>,
    /// Arrays whose staging hoists past the seq loop (moved in once,
    /// written back once per block).
    pub hoisted_arrays: Vec<usize>,
    /// Whether the candidate double-buffers sub-tile DMA.
    pub double_buffer: bool,
}

/// The analytic price of one candidate mapping.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostEstimate {
    /// Predicted modeled cycles for the whole launch (the ranking
    /// figure; mirrors `ExecStats::modeled_cycles`).
    pub predicted_cycles: u64,
    /// Bytes crossing the global bus (movement lists + unstaged
    /// accesses), whole launch.
    pub global_bytes: u64,
    /// DMA descriptors issued per block (setup-cost occurrences).
    pub dma_descriptors: u64,
    /// Device-sync cycles across all rounds.
    pub sync_cycles: u64,
    /// Statement instances across the whole launch.
    pub compute_ops: u64,
    /// Scratchpad accesses per representative sub-block.
    pub smem_accesses: u64,
    /// Global accesses (compute-side) per representative sub-block.
    pub global_accesses: u64,
    /// Scratchpad words resident per block.
    pub smem_words: u64,
}

/// Per-movement-group pricing inputs gathered once per candidate.
struct GroupLists {
    hoisted: bool,
    move_in: TransferList,
    move_out: TransferList,
    /// Residency delta move-in for non-first sub-tiles.
    delta_in: Option<TransferList>,
    /// Legal flush-delta move-out for non-last sub-tiles.
    flush_out: Option<TransferList>,
}

fn shape_err(what: &str) -> SmemError {
    SmemError::Ir(polymem_ir::IrError::UnknownName(format!(
        "tune estimator shape mismatch: {what}"
    )))
}

/// Price one candidate mapping from its symbolic plan alone.
///
/// `program` is the candidate's (tiled) program; `sp` its symbolic
/// plan (`None` for unstaged mappings); `structure` the enumerated
/// launch shape. The returned `predicted_cycles` mirrors the
/// executor's accounting exactly where the plan permits: per sub-block
/// `n_inst·cycles_per_op + n_smem·smem_latency + n_glob·(global_latency
/// / global_overlap)`, DMA lists priced by the channel model, rounds
/// charged `block_cycles · ⌈blocks / concurrent⌉ + sync`.
pub fn estimate(
    program: &Program,
    sp: Option<&SymbolicPlan>,
    params: &[i64],
    structure: &Structure,
    cc: &CostConstants,
) -> Result<CostEstimate> {
    let fixed = &structure.rep_first;
    let hier = sp.and_then(|s| s.hier.as_ref());

    // Compute-side counters of the representative sub-block, with the
    // executor's exact access classification: level-2 frame hits are
    // free, level-1 staged accesses pay smem latency, the rest go to
    // global memory.
    let (mut n_inst, mut n_smem, mut n_glob) = (0u64, 0u64, 0u64);
    for (si, stmt) in program.stmts.iter().enumerate() {
        let dom = fix_dims(&stmt.domain, fixed)
            .substitute_params(params)
            .map_err(SmemError::Poly)?;
        let c = count_points(&dom, cc.count_budget).map_err(SmemError::Poly)?;
        if c == 0 {
            continue;
        }
        n_inst += c;
        for k in 0..stmt.reads.len() {
            let id = AccessId::read(si, k);
            if hier.is_some_and(|h| h.plan.rewrites.contains_key(&id)) {
                // Register-frame hit: no smem access in the cycle model.
            } else if sp.is_some_and(|s| s.plan.rewrites.contains_key(&id)) {
                n_smem += c;
            } else {
                n_glob += c;
            }
        }
        let wid = AccessId::write(si);
        if hier.is_some_and(|h| h.plan.rewrites.contains_key(&wid)) {
            // Frame write: reaches scratchpad at flush, priced below.
        } else if sp.is_some_and(|s| s.plan.rewrites.contains_key(&wid)) {
            n_smem += c;
        } else {
            n_glob += c;
        }
    }

    // Level-2 frame staging traffic: per distinct thread key the
    // executor moves every frame's move-in elements from scratchpad
    // and flushes the written ones back — each element one smem
    // access.
    if let Some(h) = hier {
        let mut n_keys = 0u64;
        let mut thread_rep: Option<Vec<i64>> = None;
        for (si, stmt) in program.stmts.iter().enumerate() {
            if h.stmt_thread_pos[si].is_none() {
                continue;
            }
            let dom = fix_dims(&stmt.domain, fixed);
            let keep: Vec<usize> = h
                .thread_dims
                .iter()
                .filter_map(|n| dom.space().find_dim(n))
                .collect();
            if keep.len() != h.thread_dims.len() {
                continue;
            }
            let proj = dom
                .project_onto(&keep)
                .and_then(|p| p.substitute_params(params))
                .map_err(SmemError::Poly)?;
            let mut first: Option<Vec<i64>> = None;
            let mut count = 0u64;
            enumerate_points(&proj, cc.count_budget, &mut |p| {
                if first.is_none() {
                    first = Some(p.to_vec());
                }
                count += 1;
            })
            .map_err(SmemError::Poly)?;
            if count > n_keys {
                n_keys = count;
                thread_rep = first;
            }
        }
        if let (Some(tvals), true) = (thread_rep, n_keys > 0) {
            let fixed_pairs: HashMap<String, i64> = fixed.clone();
            let ext2 = h
                .ext_params(params, &fixed_pairs, &tvals)
                .ok_or_else(|| shape_err("level-2 ext params"))?;
            let mut per_key = 0u64;
            for mc in &h.plan.movement {
                per_key += mc.move_in_count(&ext2) + mc.move_out_count(&ext2);
            }
            n_smem = n_smem.saturating_add(n_keys.saturating_mul(per_key));
        }
    }

    let compute = cc.compute_cycles(n_inst, n_smem, n_glob);

    // Movement lists of the representative sub-block.
    let mut groups: Vec<GroupLists> = Vec::new();
    let mut smem_words = 0u64;
    if let Some(sp) = sp {
        let ext = sp
            .ext_params(params, fixed)
            .ok_or_else(|| shape_err("level-1 ext params"))?;
        let ext_mid = structure
            .rep_mid
            .as_ref()
            .and_then(|m| sp.ext_params(params, m));
        smem_words = sp.plan.total_buffer_words(&ext)?;
        for mc in &sp.plan.movement {
            let buf = &sp.plan.buffers[mc.buffer];
            let aext = program.arrays[buf.array]
                .eval_extents(&program.params, params)
                .map_err(SmemError::Ir)?;
            let move_in = transfer_list(mc, buf, Direction::In, &aext, &ext)?;
            let move_out = transfer_list(mc, buf, Direction::Out, &aext, &ext)?;
            let rp = sp.residency.as_ref().and_then(|r| r.plans.get(&mc.buffer));
            let (delta_in, flush_out) = match (rp, &ext_mid) {
                (Some(rp), Some(em)) => (
                    Some(delta_transfer_list(rp, buf, &aext, em)?),
                    rp.flush_legal
                        .then(|| flush_transfer_list(rp, buf, &aext, em))
                        .transpose()?,
                ),
                _ => (None, None),
            };
            groups.push(GroupLists {
                hoisted: structure.hoisted_arrays.contains(&buf.array),
                move_in,
                move_out,
                delta_in,
                flush_out,
            });
        }
    }

    // Walk the block's sub-tile schedule with the DMA channel model,
    // pricing the representative block as the round's NoC critical
    // path (the easternmost concurrently placed block's route).
    let seqs = structure.seqs.max(1);
    let mut dma = DmaChannels::new(
        cc.dma_channels,
        cc.dma_setup_cycles,
        cc.dma_bytes_per_cycle,
        cc.max_route_cycles(structure.blocks.max(1)),
    );
    let (mut descriptors, mut moved_elems) = (0u64, 0u64);
    // Queue a list no earlier than `at`; returns its completion cycle.
    let mut issue = |list: &TransferList, at: u64| {
        descriptors += list.descriptors.len() as u64;
        moved_elems += list.elements;
        dma.issue_list(list, cc.word_bytes, at)
    };
    let mut now = 0u64;
    if structure.double_buffer && seqs > 1 && !groups.is_empty() {
        // Pipelined: iteration s+1's move-in issues during compute of
        // s; only the first stage is exposed.
        let mut ready = 0u64;
        for g in &groups {
            ready = ready.max(issue(&g.move_in, now));
        }
        for s in 0..seqs {
            now = now.max(ready);
            let start = now;
            ready = 0;
            if s + 1 < seqs {
                for g in groups.iter().filter(|g| !g.hoisted) {
                    ready = ready.max(issue(&g.move_in, start));
                }
            }
            now += compute;
            for g in groups.iter().filter(|g| !g.hoisted) {
                now = now.max(issue(&g.move_out, now));
            }
        }
    } else {
        for s in 0..seqs {
            let first = s == 0;
            let last = s + 1 == seqs;
            for g in &groups {
                if g.hoisted && !first {
                    continue;
                }
                let list = match (&g.delta_in, first) {
                    (Some(d), false) => d,
                    _ => &g.move_in,
                };
                now = issue(list, now);
            }
            now += compute;
            for g in groups.iter().filter(|g| !g.hoisted) {
                let list = match (&g.flush_out, last) {
                    (Some(f), false) => f,
                    _ => &g.move_out,
                };
                now = issue(list, now);
            }
        }
    }
    for g in groups.iter().filter(|g| g.hoisted) {
        now = issue(&g.move_out, now);
    }
    now = now.max(dma.idle_at());
    let block_cycles = now;

    let blocks = structure.blocks.max(1);
    let rounds = structure.rounds.max(1);
    let smem_bytes = smem_words * cc.word_bytes;
    let predicted = rounds.saturating_mul(cc.round_cycles(block_cycles, blocks, smem_bytes));
    let per_block_glob = moved_elems + n_glob.saturating_mul(seqs);
    Ok(CostEstimate {
        predicted_cycles: predicted,
        global_bytes: per_block_glob
            .saturating_mul(blocks)
            .saturating_mul(rounds)
            .saturating_mul(cc.word_bytes),
        dma_descriptors: descriptors,
        sync_cycles: rounds * cc.round_cycles(0, blocks, smem_bytes),
        compute_ops: n_inst
            .saturating_mul(seqs)
            .saturating_mul(blocks)
            .saturating_mul(rounds),
        smem_accesses: n_smem,
        global_accesses: n_glob,
        smem_words,
    })
}

/// The content-addressed key a tune artifact is stored under:
/// program × params × machine salt × candidate-space description.
/// Any change to the space (new candidates, new toggles) changes the
/// key, so stale winners can never shadow a wider search.
pub fn tune_key(program: &Program, params: &[i64], salt: &[u64], space: &str) -> ArtifactKey {
    let mut h = KeyHasher::new();
    h.u64(TUNE_FORMAT_VERSION);
    h.u64(schema_hash());
    hash_program(&mut h, program);
    h.u64(params.len() as u64);
    for &p in params {
        h.i64(p);
    }
    h.u64(salt.len() as u64);
    for &w in salt {
        h.u64(w);
    }
    h.str(space);
    h.finish()
}

/// One ranked candidate in a tune artifact.
#[derive(Clone, Debug)]
pub struct TuneRow {
    /// The candidate mapping.
    pub desc: MappingDesc,
    /// Analytic prediction (modeled cycles).
    pub predicted: u64,
    /// Simulated modeled cycles, when the candidate survived pruning.
    pub simulated: Option<u64>,
    /// Whether the simulated outputs matched the reference interpreter
    /// bit-exactly (vacuously true for unsimulated candidates).
    pub exact: bool,
    /// Whether this is a preset (hand-picked) mapping.
    pub preset: bool,
    /// Failure note (estimator or executor error), empty if none.
    pub note: String,
}

/// The persisted result of one tuning run.
#[derive(Clone, Debug)]
pub struct TuneArtifact {
    /// The key the artifact is stored under.
    pub key: ArtifactKey,
    /// The winning mapping.
    pub winner: MappingDesc,
    /// The winner's predicted cycles.
    pub winner_predicted: u64,
    /// The winner's simulated modeled cycles.
    pub winner_cycles: u64,
    /// The full ranked table (predicted ascending).
    pub rows: Vec<TuneRow>,
}

fn escape_note(s: &str) -> String {
    let cleaned: String = s
        .chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect();
    if cleaned.is_empty() {
        "-".to_string()
    } else {
        cleaned
    }
}

impl TuneArtifact {
    /// File name under the artifact directory.
    pub fn path_for(dir: &Path, key: &ArtifactKey) -> PathBuf {
        dir.join(format!("{key}.tune"))
    }

    fn encode(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!(
            "polymem-tune v{TUNE_FORMAT_VERSION} {}\n",
            self.key
        ));
        body.push_str(&format!("winner {}\n", self.winner.to_line()));
        body.push_str(&format!(
            "winner_cycles {} {}\n",
            self.winner_predicted, self.winner_cycles
        ));
        for r in &self.rows {
            let sim = r
                .simulated
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".to_string());
            body.push_str(&format!(
                "row {} {} {} {} {} {}\n",
                r.predicted,
                sim,
                r.exact as u8,
                r.preset as u8,
                escape_note(&r.note),
                r.desc.to_line(),
            ));
        }
        let sum = fnv1a(FNV_OFFSET, FNV_PRIME, body.as_bytes());
        body.push_str(&format!("checksum {sum:016x}\n"));
        body
    }

    /// Atomically persist under `dir` (temp file + rename, like the
    /// plan artifact store). Returns the final path.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        atomic_write(dir, &format!("{}.tune", self.key), self.encode().as_bytes())
    }

    /// Load and validate (checksum + key match); `None` on any
    /// mismatch or parse failure — callers then re-run the search.
    pub fn load(dir: &Path, key: &ArtifactKey) -> Option<TuneArtifact> {
        let text = std::fs::read_to_string(TuneArtifact::path_for(dir, key)).ok()?;
        let (body, sum_line) = text.rsplit_once("checksum ")?;
        let sum = u64::from_str_radix(sum_line.trim(), 16).ok()?;
        if fnv1a(FNV_OFFSET, FNV_PRIME, body.as_bytes()) != sum {
            return None;
        }
        let mut lines = body.lines();
        let header = lines.next()?;
        let mut hp = header.split_whitespace();
        if hp.next()? != "polymem-tune" || hp.next()? != format!("v{TUNE_FORMAT_VERSION}") {
            return None;
        }
        if hp.next()? != format!("{key}") {
            return None;
        }
        let winner_line = lines.next()?.strip_prefix("winner ")?;
        let winner = MappingDesc::parse_line(winner_line)?;
        let wc = lines.next()?.strip_prefix("winner_cycles ")?;
        let mut wcp = wc.split_whitespace();
        let winner_predicted = wcp.next()?.parse().ok()?;
        let winner_cycles = wcp.next()?.parse().ok()?;
        let mut rows = Vec::new();
        for line in lines {
            let Some(rest) = line.strip_prefix("row ") else {
                continue;
            };
            let mut it = rest.splitn(6, ' ');
            let predicted = it.next()?.parse().ok()?;
            let sim_raw = it.next()?;
            let simulated = if sim_raw == "-" {
                None
            } else {
                Some(sim_raw.parse().ok()?)
            };
            let exact = it.next()? == "1";
            let preset = it.next()? == "1";
            let note_raw = it.next()?;
            let note = if note_raw == "-" {
                String::new()
            } else {
                note_raw.to_string()
            };
            let desc = MappingDesc::parse_line(it.next()?)?;
            rows.push(TuneRow {
                desc,
                predicted,
                simulated,
                exact,
                preset,
                note,
            });
        }
        Some(TuneArtifact {
            key: *key,
            winner,
            winner_predicted,
            winner_cycles,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc() -> MappingDesc {
        MappingDesc {
            scheme: "tile".into(),
            tiles: vec![("i".into(), 4), ("j".into(), 8)],
            round_dims: vec![],
            block_dims: vec!["iT".into()],
            seq_dims: vec!["jT".into()],
            thread_dims: vec!["i".into()],
            use_scratchpad: true,
            double_buffer: true,
            hierarchy: false,
            residency: true,
            vector_width: 8,
        }
    }

    #[test]
    fn desc_line_round_trips() {
        let d = desc();
        let line = d.to_line();
        assert_eq!(MappingDesc::parse_line(&line), Some(d.clone()));
        assert!(d.label().contains("blk[iT]"));
        assert!(d.label().contains("db"));
    }

    #[test]
    fn desc_hash_distinguishes_toggles() {
        let d = desc();
        let mut h1 = KeyHasher::new();
        d.hash_into(&mut h1);
        let mut d2 = d.clone();
        d2.residency = false;
        let mut h2 = KeyHasher::new();
        d2.hash_into(&mut h2);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn tune_artifact_round_trips_via_disk() {
        let dir = std::env::temp_dir().join(format!("polymem-tune-test-{}", std::process::id()));
        let key = ArtifactKey {
            lo: 0x1234,
            hi: 0xabcd,
        };
        let art = TuneArtifact {
            key,
            winner: desc(),
            winner_predicted: 100,
            winner_cycles: 90,
            rows: vec![
                TuneRow {
                    desc: desc(),
                    predicted: 100,
                    simulated: Some(90),
                    exact: true,
                    preset: false,
                    note: String::new(),
                },
                TuneRow {
                    desc: desc(),
                    predicted: 200,
                    simulated: None,
                    exact: true,
                    preset: true,
                    note: "scratchpad overflow: block needs 1 B".into(),
                },
            ],
        };
        art.save(&dir).unwrap();
        let back = TuneArtifact::load(&dir, &key).expect("loads");
        assert_eq!(back.winner, art.winner);
        assert_eq!(back.winner_cycles, 90);
        assert_eq!(back.rows.len(), 2);
        assert_eq!(back.rows[0].simulated, Some(90));
        assert_eq!(back.rows[1].simulated, None);
        assert!(back.rows[1].preset);
        assert!(back.rows[1].note.contains("overflow"));
        // A corrupted byte fails the checksum.
        let path = TuneArtifact::path_for(&dir, &key);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(TuneArtifact::load(&dir, &key).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tune_key_depends_on_space() {
        let p = {
            use polymem_ir::expr::v;
            use polymem_ir::{Expr, LinExpr, ProgramBuilder};
            let mut b = ProgramBuilder::new("t", ["N"]);
            b.array("A", &[v("N")]);
            b.stmt("S")
                .loops(&[("i", LinExpr::c(0), v("N") - 1)])
                .write("A", &[v("i")])
                .body(Expr::Const(1))
                .done();
            b.build().unwrap()
        };
        let k1 = tune_key(&p, &[8], &[1, 2], "a|b");
        let k2 = tune_key(&p, &[8], &[1, 2], "a|b|c");
        let k3 = tune_key(&p, &[16], &[1, 2], "a|b");
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_eq!(k1, tune_key(&p, &[8], &[1, 2], "a|b"));
    }
}
