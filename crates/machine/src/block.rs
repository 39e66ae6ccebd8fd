//! One thread block in flight: staging through scratchpad buffers
//! (§3 movement code, §4.2 hoisting, §8 residency), the sub-tile
//! driver, and the register frames of the level-2 plan.

use crate::compiled::run_compiled;
use crate::config::MachineConfig;
use crate::dma::{BlockClock, DmaTag};
use crate::exec::{BlockedKernel, LaunchShared};
use crate::oracle::interpreted_compute;
use crate::overlay::Overlay;
use crate::stats::ExecStats;
use crate::trace::{PassKind, PassProfiler};
use crate::{MachineError, Result};
use polymem_core::smem::alloc::extent_words;
use polymem_core::smem::movement::for_each_scan;
use polymem_core::smem::{
    flatten, transfer_list, AccessId, ExtSource, LocalBuffer, MovementCode, ResidencyPlan,
    RetainPlan, SmemError, SmemPlan, SymbolicPlan, TransferList,
};
use polymem_ir::ArrayStore;
use polymem_poly::Constraint;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// One buffer's storage: row-major `data` over `extents`, holding the
/// global elements from `offsets` on. Scratchpad buffers, register
/// frames and parked (§4.2) copies are all this.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Buffer {
    pub(crate) data: Vec<i64>,
    pub(crate) extents: Vec<i64>,
    pub(crate) offsets: Vec<i64>,
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

    /// The flat offset of the local index `idx` in buffer `buf`.
    fn at(&self, buf: usize, idx: &[i64]) -> Result<usize> {
        let at = flatten(idx, &self.bufs[buf].extents);
        at.ok_or_else(|| out_of_bounds(format!("local buffer {buf}"), idx))
    }

    pub(crate) fn get(&self, buf: usize, idx: &[i64]) -> Result<i64> {
        Ok(self.bufs[buf].data[self.at(buf, idx)?])
    }

    pub(crate) fn set(&mut self, buf: usize, idx: &[i64], v: i64) -> Result<()> {
        let at = self.at(buf, idx)?;
        self.bufs[buf].data[at] = v;
        Ok(())
    }
}

/// Walk a register frame's or the residency re-base's nest (`scan`
/// hands every `(global index, local index)` pair to its callback) and
/// copy each element through `copy`. The walkers cannot stop early, so
/// after the first failed copy the remaining pairs are skipped and that
/// error is returned; otherwise the number of elements copied.
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

/// The DMA list of one level-1 movement scan over `buf` at `pparams`:
/// the one list its copy executes and its clock prices. An element
/// outside the array is the array's typed out-of-bounds error; one
/// outside the buffer is that of the buffer `label` names.
fn movement_list(
    scan: &polymem_codegen::ast::Ast,
    buf: &LocalBuffer,
    ext: &[i64],
    pparams: &[i64],
    label: impl FnOnce() -> String,
) -> Result<TransferList> {
    transfer_list(scan, buf, ext, pparams).map_err(|e| match e {
        SmemError::ScanOutOfBounds { local: true, index } => out_of_bounds(label(), &index),
        SmemError::ScanOutOfBounds { index, .. } => out_of_bounds(buf.array_name.clone(), &index),
        e => e.into(),
    })
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
pub(crate) fn seq_redundant_arrays(kernel: &BlockedKernel) -> Vec<usize> {
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
/// can engage at all, and [`EntryFlags`] per entry.
#[derive(Default)]
pub(crate) struct StagingFlags {
    /// The mapping stages sequential sub-tiles with double buffering
    /// on: a block with more than one sub-tile prefetches.
    pub(crate) overlap: bool,
    /// Per movement entry of the plan.
    pub(crate) entries: Vec<EntryFlags>,
    /// Per register-level entry: its frame is written
    /// ([`SmemPlan::is_written`]), so [`flush_frames`] writes it back.
    pub(crate) frames_written: Vec<bool>,
}

/// One movement entry's staging flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EntryFlags {
    /// §4.2 hoisting applies ([`SmemPlan::hoists`]).
    pub(crate) hoists: bool,
    /// A read reached by a seq-carried flow dependence is rewritten
    /// into the entry's buffer: its group must stage synchronously.
    pub(crate) poisoned: bool,
    /// The entry's buffer is written ([`SmemPlan::is_written`]).
    pub(crate) written: bool,
}

impl StagingFlags {
    pub(crate) fn new(
        kernel: &BlockedKernel,
        config: &MachineConfig,
        sp: Option<&SymbolicPlan>,
    ) -> Result<StagingFlags> {
        let Some(sp) = sp else {
            return Ok(StagingFlags::default());
        };
        let written = |p: &SmemPlan| p.movement.iter().map(|m| p.is_written(m.buffer)).collect();
        let plan = &sp.plan;
        let (mut hoistable, mut stale) = (Vec::new(), HashSet::new());
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
        let entries = plan.movement.iter().map(|mc| EntryFlags {
            hoists: plan.hoists(mc.buffer, &hoistable),
            poisoned: (plan.rewrites.iter())
                .any(|(id, la)| la.buffer == mc.buffer && stale.contains(id)),
            written: plan.is_written(mc.buffer),
        });
        Ok(StagingFlags {
            overlap,
            entries: entries.collect(),
            frames_written: sp.hier.as_ref().map_or_else(Vec::new, |h| written(&h.plan)),
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

    /// The host clock, read only when a profiler will record it.
    fn now(&self) -> Option<Instant> {
        self.profiler.map(|_| Instant::now())
    }

    fn record(&self, kind: PassKind, since: Option<Instant>) {
        if let (Some(pr), Some(t0)) = (self.profiler, since) {
            pr.record(kind, t0.elapsed());
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
        let (buf, label) = (p.buffer, || format!("persistent L{}", p.buffer.array_name));
        let ext = &self.launch.ext[buf.array];
        let list = movement_list(&p.mc.move_out, buf, ext, &p.pparams, label)?;
        self.spill(buf.array, &list, &p.buf.data);
        let tag = self.clock.issue(self.clock.now, &list);
        self.clock.wait(&tag);
        Ok(())
    }

    /// Execute a move-in list into `dst`: each element from the
    /// block's buffered writes if it has one, else from the store's
    /// slice of the array (checked at the launch's extents).
    fn fetch(&mut self, array: usize, list: &TransferList, dst: &mut [i64]) {
        self.stats.global_reads += list.elements;
        self.stats.moved_in += list.elements;
        let src = self.store.data_by_id(self.launch.sids[array]);
        let overlay = &self.overlay;
        list.for_each(|g, l| {
            let g = g as usize;
            dst[l as usize] = overlay.get(array, g).unwrap_or_else(|| src[g]);
        });
    }

    /// Execute a move-out list from `src` into the block's buffered
    /// writes.
    fn spill(&mut self, array: usize, list: &TransferList, src: &[i64]) {
        let overlay = &mut self.overlay;
        list.for_each(|g, l| overlay.set(array, g as usize, src[l as usize]));
        self.stats.global_writes += list.elements;
        self.stats.moved_out += list.elements;
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
        let hoists = launch.flags.entries[mi].hoists;
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
                |f| for_each_scan(&rp.retained_scan, buf, pparams, f),
                |g, l| local.set(bi, l, prev.get(bi, level1_index(buf, origin, g, &mut at))?),
            )?;
        }
        // Fetch what crosses the bus: the delta atoms, or the whole window.
        let scan = resident.map_or(&mc.move_in, |(rp, _)| &rp.delta_scan);
        let ext = &launch.ext[buf.array];
        let list = movement_list(scan, buf, ext, pparams, || format!("local buffer {bi}"))?;
        self.fetch(buf.array, &list, &mut local.bufs[bi].data);
        Ok(Some(if resident.is_some() {
            self.stats.retained_elems += retained;
            self.stats.delta_elems += list.elements;
            self.stats.residency_groups += 1;
            self.clock.issue_delta(earliest, retained, &list)
        } else {
            self.clock.issue(earliest, &list)
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
        let (bi, buf) = (mc.buffer, &plan.buffers[mc.buffer]);
        let local = &sb.staging.as_ref().expect("staged").local;
        if launch.flags.entries[mi].hoists {
            let dirty = launch.flags.entries[mi].written
                || self.persistent.get(&buf.array).is_some_and(|q| q.dirty);
            let parked = Persistent {
                buffer: buf,
                mc,
                pparams: sb.pparams.clone(),
                buf: local.bufs[bi].clone(),
                dirty,
            };
            self.persistent.insert(buf.array, parked);
            return Ok(None);
        }
        let flush = flush_delta_plan(launch, bi, &sb.pparams, next);
        let scan = flush.map_or(&mc.move_out, |rp| &rp.flush_scan);
        let ext = &launch.ext[buf.array];
        let list = movement_list(scan, buf, ext, &sb.pparams, || format!("local buffer {bi}"))?;
        self.spill(buf.array, &list, &local.bufs[bi].data);
        if flush.is_some() {
            self.stats.flushed_delta_elems += list.elements;
        }
        // The flush delta is a subset of the full list, so its tag
        // never completes later than the flush it replaces.
        Ok(Some(self.clock.issue(self.clock.now, &list)))
    }

    /// Execute the sub-block's statement instances in interleaved source
    /// order, then charge the modeled compute cycles to the block clock.
    ///
    /// Dispatch is on the engine switch alone: with
    /// [`MachineConfig::compiled_exec`] on, the compiled engine runs the
    /// instances — including hierarchy (level-2) plans, whose register
    /// frames it stages through the same [`stage_frames`]/[`flush_frames`]
    /// protocol as the interpreter; with it off, the interpreter does,
    /// with identical semantics and counters. Which engine ran lands in
    /// [`ExecStats::compiled_blocks`] / [`ExecStats::interpreted_blocks`].
    /// `POLYMEM_EXEC_CHECK=1` runs the interpreter as an oracle on cloned
    /// state beside every compiled block (outside the timed window) and
    /// panics on divergence.
    fn compute_sub_block(&mut self, sb: &mut SubBlock) -> Result<()> {
        let (launch, store, pparams) = (self.launch, self.store, &sb.pparams);
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

        // Oracle pass (check mode only): the interpreter runs first on
        // cloned state, outside the timed window.
        let oracle = if launch.code.is_some() && launch.exec_check {
            let mut ov = self.overlay.clone();
            let mut loc = sb.staging.as_ref().map(|st| st.local.clone());
            let mut sc = ExecStats::default();
            interpreted_compute(launch, pparams, store, loc.as_mut(), &mut ov, &mut sc)?;
            Some((ov, loc, tally(&sc)))
        } else {
            None
        };

        let before = tally(&self.stats);
        let t0 = self.now();
        let (overlay, stats) = (&mut self.overlay, &mut self.stats);
        let local = sb.staging.as_mut().map(|st| &mut st.local);
        match &launch.code {
            Some(code) => {
                stats.compiled_blocks += 1;
                run_compiled(launch, code, pparams, store, local, overlay, stats)?
            }
            None => {
                stats.interpreted_blocks += 1;
                stats.fallback.engine_off += 1;
                interpreted_compute(launch, pparams, store, local, overlay, stats)?
            }
        }
        self.record(PassKind::Compute, t0);

        let mut deltas = tally(&self.stats);
        for (d, b) in deltas.iter_mut().zip(before) {
            *d -= b;
        }
        if let Some((ov, loc, charged)) = oracle {
            let same_overlay = self.overlay == ov;
            let same_local = sb.staging.as_ref().map(|st| &st.local) == loc.as_ref();
            assert!(
                same_overlay && same_local && deltas == charged,
                "POLYMEM_EXEC_CHECK: compiled execution diverged from the interpreter \
                 (sub-block {pparams:?}: overlay match {same_overlay}, local match \
                 {same_local}, counters {deltas:?} vs {charged:?})",
            );
        }
        // The phase pays for what it added to the counters.
        let [n_inst, g_reads, g_writes, s_reads, s_writes, ..] = deltas;
        self.clock.now +=
            (launch.cost).compute_cycles(n_inst, s_reads + s_writes, g_reads + g_writes);
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
    launch.flags.entries[mi].hoists && c.extents == n.extents && c.offsets == n.offsets
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
pub(crate) fn execute_one_block(
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
        clock: BlockClock::new(config, config.route_cycles(block_idx)),
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
            let t0 = b.now();
            for mi in 0..n_move {
                if cur.staging.as_ref().expect("staged").staged[mi] {
                    continue;
                }
                let Some(tag) = b.stage_entry(&mut cur, mi, pred.as_ref(), false, out_done)? else {
                    continue;
                };
                b.clock.wait(&tag);
                if t > 0 && overlap && !flags.entries[mi].hoists && flags.entries[mi].poisoned {
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
            let t0 = b.now();
            for mi in 0..n_move {
                // Only read-only, dependence-free buffers the hoist
                // shortcut cannot satisfy prefetch: a written buffer's
                // move-in may read locations the previous sub-tile
                // wrote (an output/anti dependence the flow-dep check
                // does not cover). Read-only and retention-legal also
                // means `cur`'s pre-compute contents already hold the
                // retained values residency re-bases from.
                let f = flags.entries[mi];
                if f.written || f.poisoned || hoist_shortcut_hits(launch, &cur, nx, mi) {
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
            let t0 = b.now();
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
    (b.stats.block_cycles, b.stats.dma) = b.clock.finish();
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
/// level-1 buffers.
pub(crate) fn stage_frames(
    launch: &LaunchShared,
    fs: &mut FrameSet,
    key: impl Iterator<Item = i64>,
    pparams: &[i64],
    local: &mut LocalStore,
    stats: &mut ExecStats,
) -> Result<()> {
    flush_frames(launch, fs, local, stats)?;
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
            |f| for_each_scan(&mc.move_in, &h.plan.buffers[mc.buffer], &fs.pp2, f),
            |g, l| {
                let at = level1_index(buf1, origin, g, &mut idx1);
                frames.set(mc.buffer, l, local.get(buf1.id, at)?)
            },
        )?;
    }
    stats.smem_reads += n_smem;
    stats.reg_bytes_moved += n_smem * launch.config.word_bytes;
    stats.hier_groups += 1;
    Ok(())
}

/// Flush the written register frames of the key `fs` holds (none: a
/// no-op) back to their level-1 buffers (reg → smem move-out) before
/// the thread key changes or the compute phase ends. Read-only frames
/// are dropped for free.
pub(crate) fn flush_frames(
    launch: &LaunchShared,
    fs: &FrameSet,
    local: &mut LocalStore,
    stats: &mut ExecStats,
) -> Result<()> {
    if fs.key.is_empty() {
        return Ok(());
    }
    let (plan1, h) = launch.hier().expect("frames flush under a level-2 plan");
    let (mut n_smem, mut idx1) = (0u64, Vec::new());
    let written = &launch.flags.frames_written;
    for (mc, _) in (h.plan.movement.iter().zip(written)).filter(|(_, &w)| w) {
        let buf1 = &plan1.buffers[h.backing[mc.buffer]];
        n_smem += copy_elements(
            |f| for_each_scan(&mc.move_out, &h.plan.buffers[mc.buffer], &fs.pp2, f),
            |g, l| {
                let at = level1_index(buf1, &local.bufs[buf1.id].offsets, g, &mut idx1);
                local.set(buf1.id, at, fs.frames.get(mc.buffer, l)?)
            },
        )?;
    }
    stats.smem_writes += n_smem;
    stats.reg_bytes_moved += n_smem * launch.config.word_bytes;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{
        blocked_seq, carry_kernel, flush_kernel, golden_builtins, reference, window2d,
    };
    use crate::exec::{execute_blocked, warm};
    use crate::grid::launch_grid;
    use polymem_core::tiling::transform::{tile_program, TileSpec};
    use polymem_ir::expr::v;
    use polymem_ir::{exec_program, Expr, LinExpr, Program, ProgramBuilder};

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
        let store = ArrayStore::for_program(&k.program, &params).unwrap();
        let launch = LaunchShared::new(&k, &params, &cfg, grid, Some(sp.clone()), &store).unwrap();
        let mut local = LocalStore::default();
        local.reshape(&sp.plan, &params).unwrap();
        local.zero();
        for buf in &mut local.bufs {
            for (at, word) in buf.data.iter_mut().enumerate() {
                *word = 100 + at as i64;
            }
        }
        let stats = &mut ExecStats::default();
        // The scratchpad accesses one switch to `key` charges.
        let stage = |fs: &mut FrameSet, key: i64, local: &mut LocalStore, stats: &mut ExecStats| {
            let before = stats.smem_reads + stats.smem_writes;
            stage_frames(&launch, fs, [key].into_iter(), &params, local, stats).unwrap();
            stats.smem_reads + stats.smem_writes - before
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
        // worse, and the block clock reports coalesced descriptors.
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

    /// The parent's per-call predicate behind every hoisting decision:
    /// §4.2 hoisting applies only when the array materialises as
    /// exactly one buffer in the plan.
    fn plan_hoists(plan: &SmemPlan, array: usize, hoistable: &[usize]) -> bool {
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
                let store = ArrayStore::for_program(&k.program, params).unwrap();
                let plan = Some(sp.clone());
                let launch = LaunchShared::new(k, params, &cfg, grid, plan, &store).unwrap();
                let (plan, flags) = (&sp.plan, &launch.flags);
                assert_eq!(flags.overlap, db, "{name}");
                for (mi, mc) in plan.movement.iter().enumerate() {
                    let array = plan.buffers[mc.buffer].array;
                    let hoists = plan_hoists(plan, array, &hoistable);
                    let poisoned = db && buffer_poisoned(plan, mi, &stale);
                    let f = flags.entries[mi];
                    assert_eq!(f.hoists, hoists, "{name} db={db} entry {mi}");
                    assert_eq!(f.poisoned, poisoned, "{name} db={db} entry {mi}");
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
