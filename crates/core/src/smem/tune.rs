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
//! One execution knob is deliberately *absent* from the predicted
//! cycles: the compiled-vs-interpreted engine toggle. It changes
//! wall-clock only; the executor's modeled-cycle counters (`n_inst`,
//! `n_smem`, `n_glob`) are engine-identical by construction (the
//! `POLYMEM_EXEC_CHECK` oracle asserts it), so a faithful estimator
//! must not price it.
//!
//! The module also defines the persistent *tune artifact*: the ranked
//! candidate table plus the winning [`MappingDesc`], stored next to
//! the plan artifacts under a key derived from the program, the
//! machine salt, the [`CostConstants`] and the encoded candidate space,
//! so later runs (`polymem run --tuned`, `polymem serve`) load the best
//! mapping with zero search cost. Its file is the plan artifact's
//! envelope ([`seal`] / [`open`]) around a payload written with the
//! same codec.

use super::artifact::{
    atomic_write, decode_all, hash_program, open, schema_hash, seal, ArtifactKey, DResult, Dec,
    Enc, KeyHasher,
};
use super::descriptors::{transfer_list, DmaChannels, TransferList};
use super::{AccessId, Result, SmemError, SymbolicPlan};
use crate::tiling::transform::fix_dims;
use polymem_ir::Program;
use polymem_poly::count::{count_points, enumerate_points};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Version of the tune-file envelope and of the tune key derivation.
pub const TUNE_FORMAT_VERSION: u32 = 3;

/// Tune-file magic: "polymem tune artifact".
pub const TUNE_MAGIC: [u8; 4] = *b"PMTA";

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
}

impl MappingDesc {
    /// Compact human-readable label, e.g.
    /// `tile[i=4,j=8] blk[iT] seq[jT] thr[i] spad db res`.
    pub fn label(&self) -> String {
        let tiles: Vec<String> = self.tiles.iter().map(|(n, t)| format!("{n}={t}")).collect();
        let mut s = format!("{}[{}]", self.scheme, tiles.join(","));
        if !self.round_dims.is_empty() {
            s.push_str(&format!(" rnd[{}]", self.round_dims.join(",")));
        }
        if !self.block_dims.is_empty() {
            s.push_str(&format!(" blk[{}]", self.block_dims.join(",")));
        }
        if !self.seq_dims.is_empty() {
            s.push_str(&format!(" seq[{}]", self.seq_dims.join(",")));
        }
        if !self.thread_dims.is_empty() {
            s.push_str(&format!(" thr[{}]", self.thread_dims.join(",")));
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
        s
    }
}

fn put_mapping(e: &mut Enc, m: &MappingDesc) {
    e.str(&m.scheme);
    e.seq(&m.tiles, |e, (name, t)| {
        e.str(name);
        e.i64(*t);
    });
    for dims in [&m.round_dims, &m.block_dims, &m.seq_dims, &m.thread_dims] {
        e.seq(dims, |e, d| e.str(d));
    }
    for flag in [m.use_scratchpad, m.double_buffer, m.hierarchy, m.residency] {
        e.boolean(flag);
    }
}

fn get_names(d: &mut Dec) -> DResult<Vec<String>> {
    d.seq(|d| d.str())
}

fn get_mapping(d: &mut Dec) -> DResult<MappingDesc> {
    Ok(MappingDesc {
        scheme: d.str()?,
        tiles: d.seq(|d| Ok((d.str()?, d.i64()?)))?,
        round_dims: get_names(d)?,
        block_dims: get_names(d)?,
        seq_dims: get_names(d)?,
        thread_dims: get_names(d)?,
        use_scratchpad: d.boolean()?,
        double_buffer: d.boolean()?,
        hierarchy: d.boolean()?,
        residency: d.boolean()?,
    })
}

/// The machine's performance constants, mirrored from the simulator's
/// config so the estimator can live machine-independently in `core`.
/// Every term corresponds one-to-one to a field the executor reads.
#[derive(Clone, Debug, Default)]
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
            let move_in = transfer_list(&mc.move_in, buf, &aext, &ext)?;
            let move_out = transfer_list(&mc.move_out, buf, &aext, &ext)?;
            let rp = sp.residency.as_ref().and_then(|r| r.plans.get(&mc.buffer));
            let (delta_in, flush_out) = match (rp, &ext_mid) {
                (Some(rp), Some(em)) => (
                    Some(transfer_list(&rp.delta_scan, buf, &aext, em)?),
                    rp.flush_legal
                        .then(|| transfer_list(&rp.flush_scan, buf, &aext, em))
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
/// program × params × machine salt × cost constants × candidate space.
/// The space is the search's own `label` plus every candidate
/// `(mapping, preset)`, hashed in its tune-file encoding. Any change to
/// the space (new candidates, new toggles) changes the key, so stale
/// winners can never shadow a wider search. The plan salt leaves
/// pricing out, because a plan does not depend on it; a winner does,
/// so every constant of `cc` is hashed here too (floats by their bits).
pub fn tune_key<'a>(
    program: &Program,
    params: &[i64],
    salt: &[u64],
    cc: &CostConstants,
    label: &str,
    candidates: impl IntoIterator<Item = (&'a MappingDesc, bool)>,
) -> ArtifactKey {
    // Destructured, so a new constant cannot be left out of the key.
    let CostConstants {
        cycles_per_op,
        smem_latency,
        global_latency,
        global_overlap,
        word_bytes,
        smem_bytes,
        device_sync_base,
        device_sync_per_block,
        dma_channels,
        dma_setup_cycles,
        dma_bytes_per_cycle,
        n_outer,
        max_blocks_per_outer,
        count_budget,
        mesh_rows,
        mesh_cols,
        hop_cycles,
    } = *cc;
    let mut h = KeyHasher::new();
    h.u64(TUNE_FORMAT_VERSION as u64);
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
    let words = [
        word_bytes,
        smem_bytes,
        dma_channels,
        n_outer,
        max_blocks_per_outer,
        count_budget,
        mesh_rows,
        mesh_cols,
    ];
    let prices = [
        cycles_per_op,
        smem_latency,
        global_latency,
        global_overlap,
        device_sync_base,
        device_sync_per_block,
        dma_setup_cycles,
        dma_bytes_per_cycle,
        hop_cycles,
    ];
    for w in words.into_iter().chain(prices.map(f64::to_bits)) {
        h.u64(w);
    }
    h.str(label);
    let mut space = Enc::default();
    for (mapping, preset) in candidates {
        put_mapping(&mut space, mapping);
        space.boolean(preset);
    }
    h.bytes(&space.buf);
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

impl TuneArtifact {
    /// File name under the artifact directory.
    pub fn path_for(dir: &Path, key: &ArtifactKey) -> PathBuf {
        dir.join(format!("{key}.tune"))
    }

    /// The on-disk bytes: the shared envelope around the winner and the
    /// ranked table.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        put_mapping(&mut e, &self.winner);
        e.u64(self.winner_predicted);
        e.u64(self.winner_cycles);
        e.seq(&self.rows, |e, r| {
            put_mapping(e, &r.desc);
            e.u64(r.predicted);
            e.opt(&r.simulated, |e, &c| e.u64(c));
            e.boolean(r.exact);
            e.boolean(r.preset);
            e.str(&r.note);
        });
        seal(TUNE_MAGIC, TUNE_FORMAT_VERSION, self.key, &e.buf)
    }

    /// Decode on-disk bytes (what [`TuneArtifact::load`] runs after
    /// reading the file); `None` on any envelope or decode failure.
    pub fn decode(bytes: &[u8]) -> Option<TuneArtifact> {
        let (key, payload) = open(bytes, TUNE_MAGIC, TUNE_FORMAT_VERSION)?;
        decode_all(payload, |d| {
            Ok(TuneArtifact {
                key,
                winner: get_mapping(d)?,
                winner_predicted: d.u64()?,
                winner_cycles: d.u64()?,
                rows: d.seq(|d| {
                    Ok(TuneRow {
                        desc: get_mapping(d)?,
                        predicted: d.u64()?,
                        simulated: d.opt(|d| d.u64())?,
                        exact: d.boolean()?,
                        preset: d.boolean()?,
                        note: d.str()?,
                    })
                })?,
            })
        })
    }

    /// Atomically persist under `dir` (temp file + rename, like the
    /// plan artifact store). Returns the final path.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        atomic_write(dir, &format!("{}.tune", self.key), &self.encode())
    }

    /// Load the artifact stored under `key`; `None` on any mismatch or
    /// decode failure — callers then re-run the search.
    pub fn load(dir: &Path, key: &ArtifactKey) -> Option<TuneArtifact> {
        let bytes = std::fs::read(TuneArtifact::path_for(dir, key)).ok()?;
        TuneArtifact::decode(&bytes).filter(|a| a.key == *key)
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
        }
    }

    #[test]
    fn desc_label_names_the_mapping() {
        let d = desc();
        assert!(d.label().contains("blk[iT]"));
        assert!(d.label().contains("db"));
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
        assert_eq!(back.encode(), art.encode(), "decode∘encode is the identity");
        // A corrupted payload byte fails the checksum; a plan file is
        // not a tune file.
        let path = TuneArtifact::path_for(&dir, &key);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[44] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(TuneArtifact::load(&dir, &key).is_none());
        let bytes = art.encode();
        let (_, payload) = open(&bytes, TUNE_MAGIC, TUNE_FORMAT_VERSION).unwrap();
        let as_plan = seal(
            super::super::artifact::MAGIC,
            TUNE_FORMAT_VERSION,
            key,
            payload,
        );
        assert!(TuneArtifact::decode(&as_plan).is_none());
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
        let cc = CostConstants::default();
        let (a, mut b) = (desc(), desc());
        b.tiles[0].1 = 2;
        let key = |params: &[i64], space: &[(&MappingDesc, bool)]| {
            tune_key(&p, params, &[1, 2], &cc, "s", space.iter().copied())
        };
        let k1 = key(&[8], &[(&a, false), (&b, false)]);
        assert_eq!(k1, key(&[8], &[(&a, false), (&b, false)]));
        assert_ne!(k1, key(&[8], &[(&a, false), (&b, false), (&a, false)]));
        assert_ne!(k1, key(&[8], &[(&a, true), (&b, false)]), "the preset mark");
        assert_ne!(
            k1,
            key(&[8], &[(&b, false), (&a, false)]),
            "candidate order"
        );
        assert_ne!(k1, key(&[16], &[(&a, false), (&b, false)]));
    }
}
