//! One thread block in flight: staging through scratchpad buffers
//! (§3 movement code, §4.2 hoisting, §8 residency), the sub-tile
//! driver, and the register frames of the level-2 plan.

use crate::compiled::run_compiled;
use crate::config::MachineConfig;
use crate::dma::DmaStats;
use crate::exec::{BlockedKernel, LaunchShared};
use crate::grid::follows;
use crate::oracle::interpreted_compute;
use crate::overlay::Overlay;
use crate::stats::ExecStats;
use crate::trace::{PassKind, PassProfiler};
use crate::{MachineError, Result};
use polymem_core::smem::alloc::extent_words;
use polymem_core::smem::movement::for_each_scan;
use polymem_core::smem::{
    flatten, transfer_list, AccessId, DmaClock, ExtSource, LocalBuffer, SeqFacts, SmemError,
    SmemPlan, Steps, Transfer, TransferList,
};
use polymem_ir::ArrayStore;
use polymem_poly::dep::access_pairs;
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

/// Read accesses reached by a flow dependence a seq dim carries within
/// one block (§3.1.4 dependence information, reused): a write of the
/// same element runs earlier — at a common loop level, or textually
/// first at none, as [`dependence_polyhedra`] orders instances — in the
/// same round and block but an earlier sub-tile (earlier seq dims
/// equal). Prefetching the read's buffer ahead of the writing sub-tile
/// would read stale data, so its group stages synchronously. A level
/// that orders the two instances by a dim the sub-tile constraints hold
/// equal is empty, and is not tested.
///
/// [`dependence_polyhedra`]: polymem_poly::dep::dependence_polyhedra
fn overlap_poisoned_reads(kernel: &BlockedKernel) -> Result<HashSet<AccessId>> {
    let program = &kernel.program;
    let mut out = HashSet::new();
    for (si, s) in program.stmts.iter().enumerate() {
        for (di, d) in program.stmts.iter().enumerate() {
            let (sd, dd) = (s.domain.space().dims(), d.domain.space().dims());
            // A dim both statements iterate, at its source and target index.
            let both = |n: &String| {
                Some((
                    sd.iter().position(|x| x == n)?,
                    dd.iter().position(|x| x == n)?,
                ))
            };
            let common = program.common_depth(si, di);
            'read: for (k, r) in d.reads.iter().enumerate() {
                if r.array != s.write.array || out.contains(&AccessId::read(di, k)) {
                    continue;
                }
                let base = access_pairs(&s.domain, &d.domain, &s.write.map, &r.map)?;
                let n_cols = base.space().n_cols();
                // The row `dst[b] − src[a] + c`.
                let diff = |(a, b): (usize, usize), c: i64| {
                    let mut v = vec![0i64; n_cols];
                    (v[a], v[sd.len() + b], v[n_cols - 1]) = (-1, 1, c);
                    v
                };
                let outer = kernel.round_dims.iter().chain(&kernel.block_dims);
                let mut held: Vec<_> = outer.filter_map(both).collect();
                for fwd in kernel.seq_dims.iter().filter_map(both) {
                    // Levels: the first `l` common dims equal and dim `l`
                    // earlier, or (textually first) all of them equal.
                    for level in (0..common).map(Some).chain((si < di).then_some(None)) {
                        let equal = level.unwrap_or(common);
                        if (fwd.0 == fwd.1 && fwd.0 < equal)
                            || level.is_some_and(|l| held.contains(&(l, l)))
                        {
                            continue;
                        }
                        let eqs = held.iter().copied().chain((0..equal).map(|j| (j, j)));
                        let later = level.map(|l| (l, l)).into_iter().chain([fwd]);
                        let mut p = base.clone();
                        eqs.for_each(|h| p.add_constraint(Constraint::eq(diff(h, 0))));
                        later.for_each(|h| p.add_constraint(Constraint::ineq(diff(h, -1))));
                        if !p.is_empty()? {
                            out.insert(AccessId::read(di, k));
                            continue 'read;
                        }
                    }
                    held.push(fwd);
                }
            }
        }
    }
    Ok(out)
}

/// What the schedule knows of `kernel`'s sequential sub-tiles under
/// `config`: the one place the launch and the estimator's
/// [`structure_of`](crate::tune::structure_of) take it from.
pub(crate) fn seq_facts(kernel: &BlockedKernel, config: &MachineConfig) -> Result<SeqFacts> {
    if kernel.seq_dims.is_empty() || !kernel.use_scratchpad {
        return Ok(SeqFacts::default());
    }
    let overlap = config.double_buffer;
    Ok(SeqFacts {
        overlap,
        seq_independent: seq_redundant_arrays(kernel),
        // Double-buffer legality (§3.1.4 dependence information,
        // reused): read accesses reached by a seq-carried flow
        // dependence within a block may not be prefetched ahead of the
        // writing sub-tile.
        stale_reads: if overlap {
            overlap_poisoned_reads(kernel)?
        } else {
            HashSet::new()
        },
    })
}

/// A sub-block prepared for execution: the parameter vector
/// `params ++ fixed values` everything shape-level (plan, enumeration
/// layout, compiled streams) evaluates under — its identity — and,
/// when the launch stages, its scratchpad: the local buffers of the
/// shared plan at its extents, `words` in all. Storage comes once the
/// footprint passed its capacity check.
struct SubBlock {
    pparams: Vec<i64>,
    local: Option<LocalStore>,
    words: u64,
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
    clock: DmaClock,
    /// Copies parked past the seq loop (§4.2 hoisting), by array: the
    /// parking sub-tile's `params ++ fixed values` and buffer (hoisted
    /// buffers do not depend on the seq dims, so any captured seq value
    /// yields the same element set).
    persistent: HashMap<usize, (Vec<i64>, Buffer)>,
    /// Grid coordinates of the block's sequential sub-tiles.
    seqs: Vec<Vec<i64>>,
    /// Sub-tiles `t − 1`, `t` and `t + 1`, at slot `t % 3`. The
    /// predecessor stays live past its move-out: its scratchpad holds
    /// the newest value of every element (flushing copies out of it,
    /// never into it), which is what residency re-bases retained atoms
    /// from — also under a delta flush, whose skipped elements are
    /// exactly the ones served from there.
    window: [Option<SubBlock>; 3],
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

    /// Sub-tile `t`, open in the window.
    fn sub(&self, t: usize) -> &SubBlock {
        self.window[t % 3].as_ref().expect("an open sub-tile")
    }

    /// Take sub-tile `t` out of the window while a step copies into or
    /// out of it; [`put`](Block::put) returns it.
    fn take(&mut self, t: usize) -> SubBlock {
        self.window[t % 3].take().expect("an open sub-tile")
    }

    fn put(&mut self, t: usize, sb: SubBlock) {
        self.window[t % 3] = Some(sb);
    }

    /// Evaluate the launch shape at sub-tile `t`: its parameter vector
    /// and the shape of its local buffers. Footprint checks (one
    /// footprint must be resident without overlap, two with it) and,
    /// after them, the storage ([`LocalStore::zero`]) are the caller's
    /// job.
    fn prepare_sub_block(&mut self, t: usize) -> Result<SubBlock> {
        let pparams = self.launch.grid.pparams(&self.seqs[t]);
        let (mut local, mut words) = (None, 0);
        if let Some(sp) = self.launch.plan.as_deref() {
            self.stats.plan_cache_hits += 1;
            words = local
                .insert(LocalStore::default())
                .reshape(&sp.plan, &pparams)?;
            self.stats.max_smem_words = self.stats.max_smem_words.max(words);
        }
        Ok(SubBlock {
            pparams,
            local,
            words,
        })
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

    /// Queue one level-1 list on the block clock, counting its
    /// descriptors ([`DmaClock::issue`]).
    fn issue(&mut self, earliest: u64, retained: Option<u64>, list: &TransferList) -> u64 {
        let (word_bytes, dma) = (self.launch.config.word_bytes, &mut self.stats.dma);
        let mut record = |d: &_, (ch, cost, _)| dma.record(d, word_bytes, ch, cost);
        self.clock
            .issue(earliest, list, retained, Some(&mut record))
    }

    /// Stage entry `mi` of sub-tile `t` (global → local) `from` the
    /// parked copy (free: no bus traffic), the residency delta or the
    /// full window; the transfer starts no earlier than `earliest`.
    /// Residency re-bases the retained atoms from `t − 1` with a
    /// scratchpad-local copy: the predecessor's window contains them by
    /// construction (retained ⊆ W(s−1) ⊆ its bounding box), so the
    /// indexed reads are in bounds, boundary tiles included. Only the
    /// delta crosses the bus.
    fn stage_entry(&mut self, t: usize, mi: usize, from: Transfer, earliest: u64) -> Result<u64> {
        let launch = self.launch;
        let plan = self.plan();
        let mc = &plan.movement[mi];
        let (bi, buf) = (mc.buffer, &plan.buffers[mc.buffer]);
        let mut sb = self.take(t);
        let (pparams, local) = (&sb.pparams, sb.local.as_mut().expect("staged"));
        let ext = &launch.ext[buf.array];
        let label = || format!("local buffer {bi}");
        let done = match from {
            Transfer::Unpark => {
                let parked = &self.persistent[&buf.array].1.data;
                local.bufs[bi].data.copy_from_slice(parked);
                self.clock.now
            }
            Transfer::Delta => {
                let res = launch.plan.as_deref().and_then(|sp| sp.residency.as_ref());
                let rp = &res.expect("a residency plan").plans[&bi];
                let prev = self.sub(t - 1).local.as_ref().expect("staged");
                let (origin, mut at) = (&prev.bufs[bi].offsets, Vec::new());
                let retained = copy_elements(
                    |f| for_each_scan(&rp.retained_scan, buf, pparams, f),
                    |g, l| local.set(bi, l, prev.get(bi, level1_index(buf, origin, g, &mut at))?),
                )?;
                let list = movement_list(&rp.delta_scan, buf, ext, pparams, label)?;
                self.fetch(buf.array, &list, &mut local.bufs[bi].data);
                self.stats.retained_elems += retained;
                self.stats.delta_elems += list.elements;
                self.stats.residency_groups += 1;
                self.issue(earliest, Some(retained), &list)
            }
            _ => {
                let list = movement_list(&mc.move_in, buf, ext, pparams, label)?;
                self.fetch(buf.array, &list, &mut local.bufs[bi].data);
                self.issue(earliest, None, &list)
            }
        };
        self.put(t, sb);
        Ok(done)
    }

    /// Move entry `mi` of sub-tile `t` out (local → global overlay) as
    /// `kind` and queue its DMA list now. A hoisted array parks in
    /// `persistent` instead (nothing crosses the bus). A flush writes
    /// back only the residency flush delta: the skipped elements lie in
    /// the successor's write set, so a later sub-tile's flush overwrites
    /// them before anything can read them from global memory, and their
    /// newest values are already where every legal reader looks (this
    /// sub-tile's still-live scratchpad).
    fn move_out(&mut self, t: usize, mi: usize, kind: Transfer) -> Result<u64> {
        let launch = self.launch;
        let plan = self.plan();
        let mc = &plan.movement[mi];
        let (bi, buf) = (mc.buffer, &plan.buffers[mc.buffer]);
        let sb = self.take(t);
        let local = sb.local.as_ref().expect("staged");
        let done = if kind == Transfer::Park {
            let parked = (sb.pparams.clone(), local.bufs[bi].clone());
            self.persistent.insert(buf.array, parked);
            self.clock.now
        } else {
            let res = launch.plan.as_deref().and_then(|sp| sp.residency.as_ref());
            let scan = match kind {
                Transfer::Flush => &res.expect("a residency plan").plans[&bi].flush_scan,
                _ => &mc.move_out,
            };
            let ext = &launch.ext[buf.array];
            let label = || format!("local buffer {bi}");
            let list = movement_list(scan, buf, ext, &sb.pparams, label)?;
            self.spill(buf.array, &list, &local.bufs[bi].data);
            if kind == Transfer::Flush {
                self.stats.flushed_delta_elems += list.elements;
            }
            self.issue(0, None, &list)
        };
        self.put(t, sb);
        Ok(done)
    }

    /// Write the copy parked for entry `mi`'s array back to the
    /// (overlay of) global memory, as one DMA list queued now.
    fn write_back(&mut self, mi: usize) -> Result<u64> {
        let plan = self.plan();
        let mc = &plan.movement[mi];
        let buf = &plan.buffers[mc.buffer];
        let (pparams, parked) = self.persistent.remove(&buf.array).expect("a parked copy");
        let label = || format!("persistent L{}", buf.array_name);
        let ext = &self.launch.ext[buf.array];
        let list = movement_list(&mc.move_out, buf, ext, &pparams, label)?;
        self.spill(buf.array, &list, &parked.data);
        Ok(self.issue(0, None, &list))
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
            let mut loc = sb.local.clone();
            let mut sc = ExecStats::default();
            interpreted_compute(launch, pparams, store, loc.as_mut(), &mut ov, &mut sc)?;
            Some((ov, loc, tally(&sc)))
        } else {
            None
        };

        let before = tally(&self.stats);
        let t0 = self.now();
        let (overlay, stats) = (&mut self.overlay, &mut self.stats);
        let local = sb.local.as_mut();
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
            let same_local = sb.local == loc;
            assert!(
                same_overlay && same_local && deltas == charged,
                "POLYMEM_EXEC_CHECK: compiled execution diverged from the interpreter \
                 (sub-block {pparams:?}: overlay match {same_overlay}, local match \
                 {same_local}, counters {deltas:?} vs {charged:?})",
            );
        }
        // The phase pays for what it added to the counters.
        let [n_inst, g_reads, g_writes, s_reads, s_writes, ..] = deltas;
        let cycles = (launch.cost).compute_cycles(n_inst, s_reads + s_writes, g_reads + g_writes);
        self.clock.now += cycles;
        Ok(())
    }
}

/// The executor's [`Steps`]: the schedule's copies run on the block's
/// buffers, its transfers on the block clock.
impl Steps for Block<'_> {
    type Error = MachineError;

    /// Shape sub-tile `t` and hold its footprint — alone, or with the
    /// one `beside` it — against the scratchpad before it gets storage.
    fn open(&mut self, t: usize, beside: Option<usize>) -> Result<()> {
        let mut sb = self.prepare_sub_block(t)?;
        let held = beside.map_or(0, |b| self.sub(b).words);
        let requested = held.saturating_add(sb.words);
        if let Some((requested, available)) = scratchpad_overflow(requested, self.launch.config) {
            return Err(match beside {
                None => MachineError::ScratchpadOverflow {
                    requested,
                    available,
                },
                Some(_) => MachineError::DoubleBufferOverflow {
                    requested,
                    available,
                },
            });
        }
        if let Some(local) = sb.local.as_mut() {
            local.zero();
        }
        self.put(t, sb);
        Ok(())
    }

    fn transfer(&mut self, t: usize, mi: usize, kind: Transfer, earliest: u64) -> Result<u64> {
        let t0 = self.now();
        let (pass, done) = match kind {
            Transfer::Unpark | Transfer::Delta | Transfer::Window => {
                (PassKind::MoveIn, self.stage_entry(t, mi, kind, earliest)?)
            }
            Transfer::WriteBack => (PassKind::MoveOut, self.write_back(mi)?),
            Transfer::Park | Transfer::Flush | Transfer::MoveOut => {
                (PassKind::MoveOut, self.move_out(t, mi, kind)?)
            }
        };
        self.record(pass, t0);
        Ok(done)
    }

    fn wait(&mut self, done: u64) {
        self.stats.dma.stall_cycles += self.clock.wait(done);
    }

    fn compute(&mut self, t: usize) -> Result<u64> {
        let mut sb = self.take(t);
        self.compute_sub_block(&mut sb)?;
        self.put(t, sb);
        Ok(self.clock.now)
    }

    fn fits(&self, mi: usize, a: usize, b: usize) -> bool {
        let bi = self.plan().movement[mi].buffer;
        let shape = |t: usize| {
            let buf = &self.sub(t).local.as_ref().expect("staged").bufs[bi];
            (&buf.extents, &buf.offsets)
        };
        shape(a) == shape(b)
    }

    fn follows(&self, t: usize) -> bool {
        let at = self.launch.residency_at;
        at.is_some_and(|at| follows(&self.seqs[t - 1], &self.seqs[t], at))
    }
}

/// `(requested, available)` bytes when a footprint of `words` does not
/// fit the scratchpad. `smem_bytes == 0` is no limit — for every size
/// that exists: a word count that saturated is past any scratchpad.
fn scratchpad_overflow(words: u64, config: &MachineConfig) -> Option<(u64, u64)> {
    let requested = words.saturating_mul(config.word_bytes);
    let limited = config.smem_bytes > 0 || words == u64::MAX;
    (limited && requested > config.smem_bytes).then_some((requested, config.smem_bytes))
}

/// Execute the thread block at grid coordinates `coords`: walk the
/// launch's [`Schedule`](polymem_core::smem::Schedule) over the block's
/// sequential sub-tiles (one spanning the block when it has none or
/// stages nothing), copying data and driving the block clock.
pub(crate) fn execute_one_block(
    launch: &LaunchShared,
    coords: &[i64],
    store: &ArrayStore,
    profiler: Option<&PassProfiler>,
    block_idx: u64,
) -> Result<(Overlay, ExecStats)> {
    let config = launch.config;
    let mut b = Block {
        launch,
        store,
        profiler,
        overlay: Overlay::new(launch.program.arrays.len()),
        stats: ExecStats::default(),
        clock: DmaClock::new(
            config.dma_channels,
            config.dma_setup_cycles,
            config.dma_bytes_per_cycle,
            config.route_cycles(block_idx),
            config.word_bytes,
        ),
        persistent: HashMap::new(),
        seqs: launch.grid.scan(2, coords)?,
        window: Default::default(),
    };
    b.stats.dma = DmaStats::for_channels(b.clock.channels());
    let tally = launch.schedule.walk(b.seqs.len(), &mut b)?;
    let s = &mut b.stats;
    (s.overlap_groups, s.sync_groups) = (tally.prefetched, tally.forced_sync);
    [s.declined_written, s.declined_poisoned, s.declined_parked] = tally.declined;
    b.stats.dma.stall_cycles += b.clock.drain();
    (b.stats.blocks, b.stats.block_cycles) = (1, b.clock.now);
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
    let written = &launch.frames_written;
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
    use proptest::prelude::*;

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

    #[test]
    fn every_prefetch_is_issued_or_declined_once() {
        let mut kernels = golden_builtins(true);
        kernels.push(("flush", flush_kernel(), vec![8, 12]));
        kernels.push(("carry", carry_kernel().1, vec![8]));
        let (mut prefetched, mut declined) = ([0u64; 2], [0u64; 3]);
        for (name, k, params) in &kernels {
            for mut cfg in [
                MachineConfig::geforce_8800_gtx(),
                MachineConfig::cell_like(),
            ] {
                cfg.double_buffer = true;
                let grid = launch_grid(k, params, &cfg, &k.program.stmts[0]).unwrap();
                let rep = grid.representative(k, &cfg);
                let (sp, _) = warm(k, params, &cfg, &rep, None, None).unwrap();
                // Every entry of every sub-tile but a block's first.
                let mut slots = 0;
                for round in grid.scan(0, params).unwrap() {
                    for block in grid.scan(1, &round).unwrap() {
                        let later = grid.scan(2, &block).unwrap().len() - 1;
                        slots += (later * sp.plan.movement.len()) as u64;
                    }
                }
                let mut store = ArrayStore::for_program(&k.program, params).unwrap();
                let s = execute_blocked(k, params, &mut store, &cfg, false).unwrap();
                let why = [s.declined_written, s.declined_poisoned, s.declined_parked];
                assert_eq!(s.overlap_groups + why.iter().sum::<u64>(), slots, "{name}");
                prefetched[usize::from(s.overlap_groups > 0)] += 1;
                (0..3).for_each(|r| declined[r] += why[r]);
            }
        }
        // Launches that prefetched and launches that did not, and every
        // reason, were seen.
        assert!(prefetched.iter().all(|&n| n > 0), "{prefetched:?}");
        assert!(declined.iter().all(|&n| n > 0), "{declined:?}");
    }

    /// The analysis `overlap_poisoned_reads` replaces: every flow
    /// dependence level from `compute_deps`, restricted to pairs in one
    /// round and block and strictly forward along a seq dim.
    fn poisoned_reads_from_deps(kernel: &BlockedKernel) -> HashSet<AccessId> {
        use polymem_poly::dep::DepKind;
        let program = &kernel.program;
        let deps = polymem_core::deps::compute_deps(program, &[DepKind::Flow]).unwrap();
        let mut out = HashSet::new();
        let pos = |dims: &[String], n: &str| dims.iter().position(|x| x == n);
        for d in deps {
            let src_dims = program.stmts[d.dep.src_stmt].domain.space().dims().to_vec();
            let dst_dims = program.stmts[d.dep.dst_stmt].domain.space().dims().to_vec();
            let (n_src, n_cols) = (d.dep.n_src, d.dep.poly.space().n_cols());
            let eq = |p: &mut polymem_poly::Polyhedron, name: &String| {
                if let (Some(s), Some(t)) = (pos(&src_dims, name), pos(&dst_dims, name)) {
                    let mut row = vec![0i64; n_cols];
                    (row[s], row[n_src + t]) = (1, -1);
                    p.add_constraint(Constraint::eq(row));
                }
            };
            let mut base = d.dep.poly.clone();
            kernel
                .round_dims
                .iter()
                .chain(&kernel.block_dims)
                .for_each(|n| eq(&mut base, n));
            for (li, name) in kernel.seq_dims.iter().enumerate() {
                let (Some(s), Some(t)) = (pos(&src_dims, name), pos(&dst_dims, name)) else {
                    continue;
                };
                let mut p = base.clone();
                kernel.seq_dims[..li].iter().for_each(|n| eq(&mut p, n));
                let mut row = vec![0i64; n_cols];
                (row[s], row[n_src + t], row[n_cols - 1]) = (-1, 1, -1);
                p.add_constraint(Constraint::ineq(row));
                if !p.is_empty().unwrap() {
                    out.insert(d.dst_access);
                }
            }
        }
        out
    }

    #[test]
    fn stale_reads_equal_the_dependence_analysis() {
        let mut kernels = golden_builtins(true);
        kernels.push(("flush", flush_kernel(), vec![8, 12]));
        kernels.push(("carry", carry_kernel().1, vec![8]));
        kernels.push(("seq", blocked_seq(), vec![16]));
        let mut stale = 0;
        for (name, k, _) in &kernels {
            let fast = overlap_poisoned_reads(k).unwrap();
            assert_eq!(fast, poisoned_reads_from_deps(k), "{name}");
            stale += fast.len();
        }
        assert!(stale > 0, "the comparison saw stale reads");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The same on generated stencil pipelines (one to three
        /// statements), under every split of a 2-D tiling with seq dims.
        #[test]
        fn stale_reads_equal_the_dependence_analysis_on_generated_programs(
            seed in 0u64..1000,
            ti in 2i64..=5,
            tj in 2i64..=5,
            split in 0usize..=3,
        ) {
            let p = polymem_ir::random_program(seed);
            let t = tile_program(&p, &TileSpec::new(&[("i", ti), ("j", tj)], "T")).unwrap();
            let (it, jt) = ("iT".to_string(), "jT".to_string());
            let (round_dims, block_dims, seq_dims) = match split {
                0 => (vec![], vec![it], vec![jt]),
                1 => (vec![], vec![jt], vec![it]),
                2 => (vec![jt], vec![], vec![it]),
                _ => (vec![], vec![], vec![it, jt]),
            };
            let k = BlockedKernel {
                program: t,
                round_dims,
                block_dims,
                seq_dims,
                thread_dims: vec![],
                use_scratchpad: true,
            };
            prop_assert_eq!(overlap_poisoned_reads(&k).unwrap(), poisoned_reads_from_deps(&k));
        }
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
                let (plan, schedule) = (&sp.plan, &launch.schedule);
                assert_eq!(schedule.overlap, db, "{name}");
                for (mi, mc) in plan.movement.iter().enumerate() {
                    let array = plan.buffers[mc.buffer].array;
                    let hoists = plan_hoists(plan, array, &hoistable);
                    let poisoned = db && buffer_poisoned(plan, mi, &stale);
                    let f = schedule.entries[mi];
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
