//! Compiled block execution: bytecode bodies + strided address streams.
//!
//! The interpreter in [`crate::oracle`] walks every statement instance
//! through `Expr::eval` and `AffineMap::apply`, allocating index
//! vectors and hashing multi-index overlay keys per point. This module
//! lowers everything that is invariant across a block *shape* — the
//! set of fixed (block-origin) dims — exactly once per launch
//! ([`LaunchShared`]), next to the shared [`SymbolicPlan`]:
//!
//! * statement bodies compile to flat stack bytecode
//!   ([`polymem_ir::BodyCode`]), validated ahead of time;
//! * every affine access lowers to [`LoweredRow`]s over the kept dims
//!   and extended parameters, and per block to a proven base offset +
//!   per-dim strides ([`prove_flat`]) updated incrementally as the
//!   instance cursor carries — no `map.apply`, no `local_index`, no
//!   per-point allocation;
//! * instances are emitted directly in interleaved source order by a
//!   k-way merge of per-statement lexicographic cursors over the
//!   shared bound cascade — no materialize + sort.
//!
//! Hierarchy (level-2 register-tile) plans execute here too, and a
//! register frame is just another lowered target: the level-2 rewrite
//! `F'(y) − g` lowers once per launch to rows over the same instance
//! cursor (the thread dims reach it through the level-2 parameter
//! vector), the k-way merge tracks thread-key change points, and at
//! each one the frames switch through the exact
//! [`stage_frames`]/[`flush_frames`] protocol the interpreter uses and
//! every frame access is re-anchored against the staged frame's
//! concrete extents and offsets — proven where the proof holds,
//! guarded otherwise. So `smem_loads_saved`, `reg_bytes_moved`,
//! `hier_groups` and the typed `RegisterOverflow` check are
//! bit-identical between engines.
//!
//! Every instance runs through one scalar body: reads, bytecode
//! evaluation, write. What runs save is the search: once the merge picks
//! a statement, a probe sizes a *run* — up to [`LANES`] consecutive
//! innermost-dim instances that lie in the domain, fit the enumeration
//! budget, precede every other statement's next instance in source
//! order and keep the thread key — and the cursor steps through it
//! without re-scanning the merge or re-seeking the bound cascade. A run
//! is scalar order by construction, so it never changes arrays,
//! counters or errors.
//!
//! Accesses whose in-bounds / no-overflow proof fails degrade to a
//! *guarded* stream (checked per point, typed errors). The engine is
//! total: a shape that does not lower is a typed launch error, never a
//! block handed to the interpreter. The interpreter runs only with
//! [`MachineConfig::compiled_exec`](crate::MachineConfig::compiled_exec) off, as the oracle
//! (`POLYMEM_EXEC_CHECK=1` cross-checks every block against it).

use crate::block::{flush_frames, stage_frames, Buffer, FrameSet, LocalStore};
use crate::exec::{budget_error, shape_error, LaunchShared, StmtLayout};
use crate::overlay::Overlay;
use crate::stats::ExecStats;
use crate::{MachineError, Result};
use polymem_core::smem::{lower_rows, prove_flat, AccessId, LoweredRow, SymbolicPlan};
use polymem_ir::{ArrayStore, BodyCode, IrError, Program};
use polymem_poly::bounds::{all_param_bounds, DimBounds};
use polymem_poly::PolyError;
use std::cmp::Ordering;

/// Where a lowered access lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Target {
    /// Global array (program array index) via the overlay/store.
    Global { array: usize },
    /// Scratchpad buffer of the block's [`LocalStore`].
    Local { buffer: usize },
    /// Register frame (level-2 buffer id) of the staged [`FrameSet`],
    /// re-anchored at every thread-key change.
    Frame { buffer: usize },
}

/// One access of one statement, lowered to rows over
/// `[kept dims, extended params, 1]` — for a frame target the level-2
/// vector `params ++ ext values` of the staged thread key.
#[derive(Clone, Debug)]
pub(crate) struct AccTemplate {
    pub target: Target,
    pub rows: Vec<LoweredRow>,
}

/// One statement compiled over its [`StmtLayout`]: the bytecode body
/// and the lowered accesses.
pub(crate) struct StmtCode {
    pub body: BodyCode,
    /// Context-free parametric bounds of each kept dim (the proof box).
    pub boxes: Vec<DimBounds>,
    /// The innermost kept dim is a level-2 thread dim — a run along it
    /// would straddle thread-key (frame staging) boundaries.
    pub vary_thread: bool,
    /// The reads in statement order, then the write.
    pub accs: Vec<AccTemplate>,
}

/// Compile every statement of `program` for the launch shape: its body
/// to bytecode, and every access of its parametrized twin in `sym` to
/// rows over the shape's layouts and (if the mapping stages) its shared
/// plan. A validated program and a plan analysed for this shape always
/// compile; anything else is a typed error naming what disagrees.
pub(crate) fn lower_code(
    program: &Program,
    sym: &Program,
    layouts: &[StmtLayout],
    plan: Option<&SymbolicPlan>,
) -> Result<Vec<StmtCode>> {
    let hier = plan.and_then(|sp| sp.hier.as_ref());
    let n_ext = sym.params.len();
    let mut stmts = Vec::with_capacity(sym.stmts.len());
    let shapes = program.stmts.iter().zip(&sym.stmts).zip(layouts);
    for (si, ((orig, ss), layout)) in shapes.enumerate() {
        let kept = &layout.kept;
        // The plan's projection must agree with our dim layout, or
        // local-access rows would read the wrong cursor dims.
        if plan.is_some_and(|sp| sp.kept_dims.get(si) != Some(kept)) {
            return Err(shape_error(
                "a plan projected onto other dims than the launch shape keeps",
            ));
        }
        let thread_pos = hier.and_then(|h| h.stmt_thread_pos.get(si)?.as_ref());
        // Frame-redirected accesses need a thread key at every
        // instance of their statement.
        let keyed = thread_pos.is_some();
        let vary_thread =
            thread_pos.is_some_and(|pos| kept.last().is_some_and(|vd| pos.contains(vd)));
        let lower = |id: AccessId, array: usize, map: &polymem_poly::AffineMap| {
            if let Some(h) = hier.filter(|h| h.plan.rewrites.contains_key(&id)) {
                // Level-2 frame target: `F'` over this cursor's dims
                // and the level-2 vector (one entry more than the
                // level-1 one per thread dim).
                let n_ext2 = n_ext + h.thread_dims.len();
                let fits = |rows: &[LoweredRow]| rows.iter().all(|r| r.pcoef.len() == n_ext2);
                let (buffer, rows) = (h.frame_rows(id, kept))
                    .filter(|(_, rows)| keyed && fits(rows))
                    .ok_or_else(|| shape_error("a frame rewrite that does not lower here"))?;
                return Ok(AccTemplate {
                    target: Target::Frame { buffer },
                    rows,
                });
            }
            let (target, map) = match plan.and_then(|sp| sp.plan.rewrites.get(&id)) {
                Some(la) => (Target::Local { buffer: la.buffer }, &la.map),
                None => (Target::Global { array }, map),
            };
            if map.n_in() != kept.len() || map.in_space().n_params() != n_ext {
                return Err(shape_error(
                    "an access map of another arity than the launch shape",
                ));
            }
            Ok(AccTemplate {
                target,
                rows: lower_rows(map),
            })
        };
        let mut accs = ss
            .reads
            .iter()
            .enumerate()
            .map(|(k, r)| lower(AccessId::read(si, k), r.array, &r.map))
            .collect::<Result<Vec<_>>>()?;
        accs.push(lower(AccessId::write(si), ss.write.array, &ss.write.map)?);
        let dims = orig.domain.space().dims().len();
        stmts.push(StmtCode {
            body: BodyCode::compile(&orig.body, orig.reads.len(), dims, program.params.len())?,
            boxes: all_param_bounds(&ss.domain)?,
            vary_thread,
            accs,
        });
    }
    Ok(stmts)
}

/// A per-block address stream: proven (incremental partial sums, no
/// checks) or guarded (evaluated and bounds-checked per point).
enum Addr<'s> {
    Proven {
        base: i64,
        strides: Vec<i64>,
        /// `part[k] = base + Σ_{j≤k} strides[j]·point[j]`.
        part: Vec<i64>,
    },
    Guarded {
        rows: &'s [LoweredRow],
    },
}

struct AccInst<'s> {
    target: Target,
    addr: Addr<'s>,
}

impl<'s> AccInst<'s> {
    /// Anchor the access `t` against its target's concrete storage: a
    /// proven stream where [`prove_flat`] holds over `boxes`, the
    /// guarded rows otherwise (and for a frame while no key is staged).
    fn anchor(
        t: &'s AccTemplate,
        ep: &[i64],
        launch: &LaunchShared,
        tiles: &Tiles,
        boxes: &[(i64, i64)],
    ) -> AccInst<'s> {
        let proven = match t.target {
            Target::Global { array } => prove_flat(&t.rows, ep, &launch.ext[array], None, boxes),
            tile => tiles
                .at(tile, ep)
                .and_then(|(b, ep)| prove_flat(&t.rows, ep, &b.extents, Some(&b.offsets), boxes)),
        };
        let addr = match proven {
            Some(fa) => Addr::Proven {
                base: fa.base,
                part: vec![0; fa.strides.len()],
                strides: fa.strides,
            },
            None => Addr::Guarded { rows: &t.rows },
        };
        AccInst {
            target: t.target,
            addr,
        }
    }

    /// Recompute the partial sums from depth `from` after a carry.
    /// Proven streams never overflow here (that is what the proof is).
    #[inline]
    fn carry(&mut self, point: &[i64], from: usize) {
        if let Addr::Proven {
            base,
            strides,
            part,
        } = &mut self.addr
        {
            for k in from..strides.len() {
                let prev = if k == 0 { *base } else { part[k - 1] };
                part[k] = prev + strides[k] * point[k];
            }
        }
    }

    /// Current flat offset of a proven stream.
    #[inline]
    fn offset(&self) -> usize {
        match &self.addr {
            Addr::Proven { base, part, .. } => *part.last().unwrap_or(base) as usize,
            Addr::Guarded { .. } => unreachable!("offset() on guarded stream"),
        }
    }
}

/// The explicitly managed storage a sub-block's compute phase lands
/// in: its scratchpad (present iff the launch stages) and the register
/// frames of the current thread key.
struct Tiles<'a> {
    local: Option<&'a mut LocalStore>,
    frames: FrameSet,
}

impl Tiles<'_> {
    /// The buffer behind a scratchpad or frame target and the
    /// parameter vector its rows evaluate under — `ep` for the
    /// scratchpad, the staged key's level-2 vector for a frame. `None`
    /// for a frame while no key is staged (and for a global target).
    fn at<'t>(&'t self, t: Target, ep: &'t [i64]) -> Option<(&'t Buffer, &'t [i64])> {
        match t {
            Target::Global { .. } => None,
            Target::Local { buffer } => Some((&self.local.as_deref()?.bufs[buffer], ep)),
            Target::Frame { buffer } => {
                Some((self.frames.frames.bufs.get(buffer)?, &self.frames.pp2))
            }
        }
    }
}

struct StmtInst<'s> {
    /// The reads in statement order, then the write.
    accs: Vec<AccInst<'s>>,
}

impl<'s> StmtInst<'s> {
    /// A new thread key's frames are staged: re-anchor the frame
    /// accesses against their concrete extents and offsets.
    fn rekey(
        &mut self,
        st: &'s StmtCode,
        ep: &[i64],
        launch: &LaunchShared,
        tiles: &Tiles,
        boxes: &[(i64, i64)],
    ) {
        for (acc, t) in self.accs.iter_mut().zip(&st.accs) {
            if matches!(t.target, Target::Frame { .. }) {
                *acc = AccInst::anchor(t, ep, launch, tiles, boxes);
            }
        }
    }

    fn carry(&mut self, point: &[i64], from: usize) {
        for acc in &mut self.accs {
            acc.carry(point, from);
        }
    }

    fn reads(&self) -> &[AccInst<'s>] {
        &self.accs[..self.accs.len() - 1]
    }

    fn write(&self) -> &AccInst<'s> {
        self.accs.last().expect("a statement writes")
    }
}

/// Lexicographic instance cursor over one statement's bound cascade —
/// an iterative replica of the recursive scan in
/// `polymem_poly::count`, with identical budget and membership
/// semantics, plus carry-depth tracking for incremental addressing.
pub(crate) struct Cursor<'a> {
    st: &'a StmtLayout,
    ep: &'a [i64],
    budget: u64,
    /// Kept-dim coordinates.
    pub point: Vec<i64>,
    /// Inclusive upper bound at each descended depth.
    hi: Vec<i64>,
    /// Full-space point (fixed dims pre-filled, kept dims synced).
    pub full: Vec<i64>,
    visited: u64,
    /// Shallowest kept depth whose value changed since the previous
    /// accepted point.
    changed: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `st` in the sub-block at extended params `ep`
    /// (`params ++ fixed values`), the fixed full-space dims pre-filled.
    pub fn new(st: &'a StmtLayout, ep: &'a [i64], budget: u64) -> Cursor<'a> {
        let n = st.cascade.len();
        Cursor {
            st,
            ep,
            budget,
            point: vec![0; n],
            hi: vec![0; n],
            full: st.full_point(&[], ep),
            visited: 0,
            changed: 0,
        }
    }

    /// Position at the first accepted point. `Ok(false)` = empty.
    pub fn first(&mut self) -> polymem_poly::Result<bool> {
        self.changed = 0;
        if self.st.cascade.is_empty() {
            if !self.st.domain.contains(&[], self.ep) {
                return Ok(false);
            }
            self.visited += 1;
            if self.visited > self.budget {
                return Err(PolyError::TooManyPoints {
                    budget: self.budget,
                });
            }
            return Ok(true);
        }
        self.seek(0)
    }

    /// Advance to the next accepted point; `Ok(Some(d))` reports the
    /// shallowest changed depth, `Ok(None)` exhaustion.
    pub fn advance(&mut self) -> polymem_poly::Result<Option<usize>> {
        let n = self.st.cascade.len();
        if n == 0 {
            return Ok(None);
        }
        self.changed = n;
        match self.bump_below(n) {
            Some(d) if self.seek(d)? => Ok(Some(self.changed)),
            _ => Ok(None),
        }
    }

    /// Descend from `depth`, bumping outward on empty ranges and
    /// rejected leaves, until a point is accepted or space runs out.
    fn seek(&mut self, mut depth: usize) -> polymem_poly::Result<bool> {
        let n = self.st.cascade.len();
        loop {
            while depth < n {
                let Some((lo, hi)) =
                    self.st.cascade[depth].eval_range(&self.point[..depth], self.ep)
                else {
                    return Err(PolyError::Unbounded);
                };
                if lo > hi {
                    match self.bump_below(depth) {
                        Some(d) => {
                            depth = d;
                            continue;
                        }
                        None => return Ok(false),
                    }
                }
                self.point[depth] = lo;
                self.hi[depth] = hi;
                depth += 1;
            }
            if self.st.domain.contains(&self.point, self.ep) {
                self.visited += 1;
                if self.visited > self.budget {
                    return Err(PolyError::TooManyPoints {
                        budget: self.budget,
                    });
                }
                for k in self.changed..n {
                    self.full[self.st.kept[k]] = self.point[k];
                }
                return Ok(true);
            }
            match self.bump_below(n) {
                Some(d) => depth = d,
                None => return Ok(false),
            }
        }
    }

    /// Points left in the current innermost run (inclusive distance to
    /// its upper bound). 0 when the cursor has no kept dims.
    #[inline]
    pub fn run_remaining(&self) -> i64 {
        match (self.hi.last(), self.point.last()) {
            (Some(h), Some(p)) => h - p,
            _ => 0,
        }
    }

    /// Accepted points the budget still allows beyond the current one.
    #[inline]
    pub fn budget_headroom(&self) -> u64 {
        self.budget.saturating_sub(self.visited)
    }

    /// Jump `steps` points forward along the current innermost run.
    /// The caller has already verified domain membership of every
    /// skipped point and that the budget holds, so this only moves the
    /// coordinate and the visit count — no re-seek, no carry above the
    /// innermost depth.
    pub fn advance_run(&mut self, steps: i64) -> polymem_poly::Result<()> {
        let n = self.st.cascade.len();
        debug_assert!(n > 0 && steps >= 0 && self.point[n - 1] + steps <= self.hi[n - 1]);
        self.visited += steps as u64;
        if self.visited > self.budget {
            return Err(PolyError::TooManyPoints {
                budget: self.budget,
            });
        }
        self.point[n - 1] += steps;
        self.full[self.st.kept[n - 1]] = self.point[n - 1];
        Ok(())
    }

    /// Increment the deepest incrementable dim strictly below `depth`;
    /// returns the depth to re-descend from.
    fn bump_below(&mut self, depth: usize) -> Option<usize> {
        let mut k = depth;
        while k > 0 {
            k -= 1;
            if self.point[k] < self.hi[k] {
                self.point[k] += 1;
                self.changed = self.changed.min(k);
                return Some(k + 1);
            }
        }
        None
    }
}

/// Statement `a_si` at the full-space point `a_full` precedes `b` (at
/// its cursor's point) in interleaved source order: common-prefix dims
/// first, then statement index. Distinct statements, so the order is
/// strict. The point is explicit because the run probe asks about a
/// run's *last* point without moving the cursor.
fn earlier_pt(a_si: usize, a_full: &[i64], b_si: usize, b: &Cursor, common: &[Vec<usize>]) -> bool {
    let c = common[a_si][b_si];
    match a_full[..c].cmp(&b.full[..c]) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => a_si < b_si,
    }
}

/// Evaluate a guarded access at one point: checked row evaluation,
/// per-dim bounds checks against `extents` (after subtracting
/// `offsets`), checked flattening. Mirrors the interpreter's typed
/// errors exactly.
fn guarded_offset(
    rows: &[LoweredRow],
    point: &[i64],
    ep: &[i64],
    extents: &[i64],
    offsets: Option<&[i64]>,
    scratch: &mut Vec<i64>,
    name: impl FnOnce() -> String,
) -> Result<usize> {
    const OVERFLOW: MachineError =
        MachineError::Ir(IrError::Arithmetic("overflow in address computation"));
    scratch.clear();
    for (r, row) in rows.iter().enumerate() {
        let v = row.eval(point, ep).ok_or(OVERFLOW)?;
        let rel = v.checked_sub(offsets.map_or(0, |o| o[r])).ok_or(OVERFLOW)?;
        scratch.push(rel);
    }
    if scratch.len() != extents.len()
        || scratch
            .iter()
            .zip(extents)
            .any(|(&rel, &e)| rel < 0 || rel >= e)
    {
        return Err(MachineError::Ir(IrError::OutOfBounds {
            array: name(),
            index: scratch.clone(),
        }));
    }
    let mut flat: i64 = 0;
    for (&rel, &e) in scratch.iter().zip(extents) {
        flat = flat
            .checked_mul(e)
            .and_then(|f| f.checked_add(rel))
            .ok_or(OVERFLOW)?;
    }
    Ok(flat as usize)
}

/// The flat offset of an access at the cursor's `point`: a proven
/// stream's current offset, or a guarded evaluation against the
/// target's extents.
#[inline]
fn flat_offset(
    acc: &AccInst,
    point: &[i64],
    ep: &[i64],
    launch: &LaunchShared,
    tiles: &Tiles,
    scratch: &mut Vec<i64>,
) -> Result<usize> {
    let Addr::Guarded { rows } = &acc.addr else {
        return Ok(acc.offset());
    };
    match acc.target {
        Target::Global { array } => {
            let name = || launch.program.arrays[array].name.clone();
            guarded_offset(rows, point, ep, &launch.ext[array], None, scratch, name)
        }
        tile @ (Target::Local { buffer } | Target::Frame { buffer }) => {
            let (b, ep) = tiles.at(tile, ep).expect("staged before its first access");
            let name = || format!("local buffer {buffer}");
            guarded_offset(rows, point, ep, &b.extents, Some(&b.offsets), scratch, name)
        }
    }
}

/// Charge the counters for one read of `t` — exactly what the
/// interpreter charges.
fn charge_read(t: Target, stats: &mut ExecStats) {
    match t {
        Target::Local { .. } => stats.smem_reads += 1,
        Target::Global { .. } => stats.global_reads += 1,
        Target::Frame { .. } => stats.smem_loads_saved += 1,
    }
}

/// Charge the counters for one write of `t` (frame writes are silent,
/// like the interpreter's: they pay at flush).
fn charge_write(t: Target, stats: &mut ExecStats) {
    match t {
        Target::Local { .. } => stats.smem_writes += 1,
        Target::Global { .. } => stats.global_writes += 1,
        Target::Frame { .. } => {}
    }
}

/// The element at the (proven or checked) flat offset `off` of `t`'s
/// storage; the block's own buffered writes shadow the global store.
#[inline]
fn load_at(t: Target, off: usize, tiles: &Tiles, overlay: &Overlay, gdatas: &[&[i64]]) -> i64 {
    match t {
        Target::Global { array } => match overlay.get(array, off) {
            Some(v) => v,
            None => gdatas[array][off],
        },
        Target::Local { buffer } => {
            let local = tiles.local.as_deref();
            local.expect("local target implies store").bufs[buffer].data[off]
        }
        Target::Frame { buffer } => tiles.frames.frames.bufs[buffer].data[off],
    }
}

/// Store `value` at flat offset `off` of `t`'s storage — storage only,
/// counters are charged separately.
#[inline]
fn store_at(t: Target, off: usize, value: i64, tiles: &mut Tiles, overlay: &mut Overlay) {
    let local = tiles.local.as_deref_mut();
    match t {
        Target::Global { array } => overlay.set(array, off, value),
        Target::Local { buffer } => {
            local.expect("local target implies store").bufs[buffer].data[off] = value;
        }
        Target::Frame { buffer } => tiles.frames.frames.bufs[buffer].data[off] = value,
    }
}

/// Most instances one run covers: the cap on how far the probe looks
/// ahead along the innermost dim before the merge scans again.
pub(crate) const LANES: usize = 8;

/// Run one sub-block's compute phase through the compiled engine
/// (`code`, the launch's), at the sub-block's extended params `ep`;
/// `local` is its staged scratchpad (present iff the launch has a
/// plan). Every error is the one the interpreter raises at the same
/// instance: an unbounded proof box or enumeration past the budget
/// through [`budget_error`], like its enumeration.
///
/// Hierarchy plans (`plan.hier`) execute here natively: the merge
/// tracks each keyed statement's thread key and switches the register
/// frames through the interpreter's own [`stage_frames`] at exactly
/// the key-change points the interpreter would hit, so every counter
/// (and the typed `RegisterOverflow`) is bit-identical; every frame
/// access is then re-anchored against the frames just staged.
pub(crate) fn run_compiled(
    launch: &LaunchShared,
    code: &[StmtCode],
    ep: &[i64],
    store: &ArrayStore,
    local: Option<&mut LocalStore>,
    overlay: &mut Overlay,
    stats: &mut ExecStats,
) -> Result<()> {
    let (params, budget) = (launch.params, launch.config.enum_budget);
    let thread_pos = |si: usize| {
        launch
            .hier()
            .and_then(|(_, h)| h.stmt_thread_pos[si].as_deref())
    };
    let mut tiles = Tiles {
        local,
        frames: FrameSet::default(),
    };

    // Instantiate address streams and cursors for every statement.
    let n_stmts = code.len();
    let mut insts: Vec<StmtInst> = Vec::with_capacity(n_stmts);
    let mut cursors: Vec<Cursor> = Vec::with_capacity(n_stmts);
    let mut boxes: Vec<Vec<(i64, i64)>> = Vec::with_capacity(n_stmts);
    for (st, layout) in code.iter().zip(&launch.layouts) {
        let at = |b: &DimBounds| b.eval_range(&[], ep);
        let bx = st.boxes.iter().map(at).collect::<Option<Vec<_>>>();
        let bx = bx.ok_or(PolyError::Unbounded).map_err(budget_error)?;
        let anchor = |t| AccInst::anchor(t, ep, launch, &tiles, &bx);
        insts.push(StmtInst {
            accs: st.accs.iter().map(anchor).collect(),
        });
        boxes.push(bx);
        cursors.push(Cursor::new(layout, ep, budget));
    }
    let mut alive = vec![false; n_stmts];
    for si in 0..n_stmts {
        alive[si] = cursors[si].first().map_err(budget_error)?;
        if alive[si] {
            insts[si].carry(&cursors[si].point, 0);
        }
    }

    // K-way merge in interleaved source order.
    let gdatas: Vec<&[i64]> = launch.sids.iter().map(|&id| store.data_by_id(id)).collect();
    // Scratch reused across instances so the hot loop never allocates.
    let mut reads_buf: Vec<i64> = Vec::new();
    let mut stack: Vec<i64> = Vec::new();
    let mut idx: Vec<i64> = Vec::new();
    let mut probe_buf: Vec<i64> = Vec::new();
    let mut end_full_buf: Vec<i64> = Vec::new();
    loop {
        let mut best: Option<usize> = None;
        for si in 0..n_stmts {
            if !alive[si] {
                continue;
            }
            best = Some(match best {
                None => si,
                Some(b) => {
                    if earlier_pt(si, &cursors[si].full, b, &cursors[b], &launch.common) {
                        si
                    } else {
                        b
                    }
                }
            });
        }
        let Some(si) = best else { break };
        // Frame staging at thread-key change points — the same
        // sequence of keys (hence the same hier_groups / traffic /
        // RegisterOverflow points) as the interpreter's loop, because
        // the merge emits instances in the identical order.
        if let Some(pos) = thread_pos(si) {
            let key = pos.iter().map(|&d| cursors[si].full[d]);
            if !tiles.frames.key.iter().copied().eq(key.clone()) {
                let ls = tiles.local.as_deref_mut();
                let ls = ls.expect("a staged launch passes its scratchpad");
                stage_frames(launch, &mut tiles.frames, key, ep, ls, stats)?;
                for (sj, inst) in insts.iter_mut().enumerate() {
                    inst.rekey(&code[sj], ep, launch, &tiles, &boxes[sj]);
                    if alive[sj] {
                        inst.carry(&cursors[sj].point, 0);
                    }
                }
            }
        }
        let (st, layout) = (&code[si], &launch.layouts[si]);
        let n = layout.cascade.len();

        // Probe for a run: up to `LANES` consecutive innermost-dim
        // instances, clipped to the cursor's innermost range, the
        // domain, the budget, and the source-order frontier of every
        // other alive statement; no run crosses a thread-key change.
        let mut lanes = 1usize;
        if n > 0 && !st.vary_thread {
            let cur = &cursors[si];
            let max_run = (cur.run_remaining() + 1).min(LANES as i64).max(1) as usize;
            lanes = max_run.min(cur.budget_headroom().min(usize::MAX as u64) as usize + 1);
            if lanes > 1 {
                probe_buf.clear();
                probe_buf.extend_from_slice(&cur.point);
                let mut ok = 1usize;
                while ok < lanes {
                    probe_buf[n - 1] += 1;
                    if !layout.domain.contains(&probe_buf, ep) {
                        break;
                    }
                    ok += 1;
                }
                lanes = ok;
            }
            if lanes > 1 && n_stmts > 1 {
                let vd = layout.kept[n - 1];
                end_full_buf.clear();
                end_full_buf.extend_from_slice(&cur.full);
                'shrink: while lanes > 1 {
                    end_full_buf[vd] = cur.full[vd] + (lanes as i64 - 1);
                    for (sj, c) in cursors.iter().enumerate() {
                        if sj == si || !alive[sj] {
                            continue;
                        }
                        if !earlier_pt(si, &end_full_buf, sj, c, &launch.common) {
                            lanes -= 1;
                            continue 'shrink;
                        }
                    }
                    break;
                }
            }
        }
        // Every instance of the run goes through the one scalar body,
        // in scalar order.
        for lane in 0..lanes {
            if lane > 0 {
                cursors[si].advance_run(1).map_err(budget_error)?;
                insts[si].carry(&cursors[si].point, n - 1);
            }
            let (inst, cur) = (&insts[si], &cursors[si]);
            reads_buf.clear();
            for acc in inst.reads() {
                charge_read(acc.target, stats);
                let off = flat_offset(acc, &cur.point, ep, launch, &tiles, &mut idx)?;
                reads_buf.push(load_at(acc.target, off, &tiles, overlay, &gdatas));
            }
            let value = st
                .body
                .eval(&mut stack, &reads_buf, &cur.full, params)
                .map_err(MachineError::Ir)?;
            let wacc = inst.write();
            charge_write(wacc.target, stats);
            let off = flat_offset(wacc, &cur.point, ep, launch, &tiles, &mut idx)?;
            store_at(wacc.target, off, value, &mut tiles, overlay);
            stats.instances += 1;
        }
        match cursors[si].advance().map_err(budget_error)? {
            Some(ch) => insts[si].carry(&cursors[si].point, ch),
            None => alive[si] = false,
        }
    }
    // The trailing frame set flushes after the last instance, exactly
    // like the interpreter's final flush.
    if let Some(ls) = tiles.local {
        flush_frames(launch, &tiles.frames, ls, stats)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem_ir::builder::ProgramBuilder;
    use polymem_ir::expr::{v, Expr, LinExpr};

    fn triangular() -> Program {
        let mut b = ProgramBuilder::new("tri", ["N"]);
        b.array("A", &[v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("i")),
            ])
            .write("A", &[v("i")])
            .body(Expr::Const(0))
            .done();
        b.build().unwrap()
    }

    /// The enumeration layout of `triangular()` with no dim pinned.
    fn triangular_layout() -> StmtLayout {
        let p = triangular();
        StmtLayout::build(&p.stmts[0], &p.stmts[0], &[], p.params.len()).unwrap()
    }

    #[test]
    fn cursor_walks_triangular_domain_in_lex_order() {
        let layout = triangular_layout();
        let ep = vec![4i64];
        let mut cur = Cursor::new(&layout, &ep, 1000);
        let mut pts = Vec::new();
        assert!(cur.first().unwrap());
        loop {
            pts.push((cur.full.clone(), cur.changed));
            match cur.advance().unwrap() {
                Some(_) => {}
                None => break,
            }
        }
        let want: Vec<Vec<i64>> = (0..4)
            .flat_map(|i| (0..=i).map(move |j| vec![i, j]))
            .collect();
        assert_eq!(pts.iter().map(|p| p.0.clone()).collect::<Vec<_>>(), want);
        // Carry depths: within a row only j changes (depth 1); across
        // rows i changes (depth 0). First point reports depth 0.
        assert_eq!(pts[0].1, 0);
        assert_eq!(pts[2].1, 1); // (1,1): j carried
        assert_eq!(pts[3].1, 0); // (2,0): i carried
    }

    #[test]
    fn cursor_enforces_the_enumeration_budget() {
        let layout = triangular_layout();
        let ep = vec![4i64];
        let mut cur = Cursor::new(&layout, &ep, 3);
        assert!(cur.first().unwrap());
        let mut n = 1;
        let err = loop {
            match cur.advance() {
                Ok(Some(_)) => n += 1,
                Ok(None) => panic!("budget never tripped"),
                Err(e) => break e,
            }
        };
        assert_eq!(n, 3);
        assert!(matches!(err, PolyError::TooManyPoints { budget: 3 }));
    }

    #[test]
    fn guarded_offset_checks_bounds_and_offsets() {
        // Row value i + 2 against extent 4: i = 3 lands at 5 → OOB.
        let rows = vec![LoweredRow {
            kcoef: vec![1],
            pcoef: vec![],
            konst: 2,
        }];
        let mut scratch = Vec::new();
        let off = guarded_offset(&rows, &[1], &[], &[4], None, &mut scratch, || "A".into());
        assert_eq!(off.unwrap(), 3);
        let err =
            guarded_offset(&rows, &[3], &[], &[4], None, &mut scratch, || "A".into()).unwrap_err();
        match err {
            MachineError::Ir(IrError::OutOfBounds { array, index }) => {
                assert_eq!(array, "A");
                assert_eq!(index, vec![5]);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Buffer origin subtraction: value 5 against origin 4 → rel 1.
        let off = guarded_offset(&rows, &[3], &[], &[4], Some(&[4]), &mut scratch, || {
            "L".into()
        });
        assert_eq!(off.unwrap(), 1);
    }
}
