//! Compiled block execution: bytecode bodies + strided address streams.
//!
//! The interpreter in [`crate::exec`] walks every statement instance
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
//! bit-identical between engines, and frame statements batch like any
//! other.
//!
//! With [`MachineConfig::vector_width`] > 1 the inner loop batches up
//! to that many consecutive innermost-dim instances per dispatch when
//! every address stream is proven: streaming statements evaluate all
//! lanes through [`polymem_ir::BodyCode::eval_lanes`], accumulator
//! statements (a read aliasing the lane-invariant write cell) chain
//! serially in scalar association order, and anything else bails to
//! the scalar path. Batching never changes arrays or counters.
//!
//! Accesses whose in-bounds / no-overflow proof fails degrade to a
//! *guarded* stream (checked per point, typed errors), and any shape
//! that cannot be compiled at all falls back to the interpreter, which
//! stays authoritative (`POLYMEM_EXEC_CHECK=1` cross-checks every
//! block against it).

use crate::config::MachineConfig;
use crate::exec::{
    budget_error, flush_frames, stage_frames, BlockedKernel, Buffer, ExecStats, FrameSet,
    LaunchGrid, LocalStore, StagingFlags,
};
use crate::overlay::Overlay;
use crate::{MachineError, Result};
use polymem_core::smem::tune::CostConstants;
use polymem_core::smem::{
    lower_rows, parametrize_dims, prove_flat, AccessId, ExtSource, HierPlan, LoweredRow, SmemPlan,
    SymbolicPlan,
};
use polymem_ir::{ArrayStore, BodyCode, IrError, Program, Statement};
use polymem_poly::bounds::{all_param_bounds, bound_cascade, DimBounds};
use polymem_poly::{PolyError, Polyhedron};
use std::cmp::Ordering;
use std::sync::Arc;

/// The launch record: everything that depends only on the launch,
/// built before any block worker runs and shared read-only by all of
/// them. The launch itself (program, parameters, machine), the
/// hoisted common-prefix depth matrix, global array extents, the
/// compiled statement bodies — and the launch's
/// one *block shape*: every sub-block pins the same dims
/// (round ∪ block ∪ seq), so the grid that enumerates them, the shared
/// symbolic plan, the per-statement enumeration layout both engines
/// walk, the compiled address streams on top of it and the
/// per-movement-entry staging flags are all derived here once. A
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
    /// Compiled statement bodies; `None` when compiled execution is
    /// off for the launch (the config flag, or a body that failed to
    /// compile to bytecode).
    pub bodies: Option<Vec<BodyCode>>,
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
    /// Hoisting and prefetch legality per movement entry of `plan`.
    pub(crate) flags: StagingFlags,
    /// Index of the residency seq dim in a sub-block's
    /// `params ++ fixed values`, when the plan retains anything.
    pub(crate) residency_at: Option<usize>,
    /// Where each entry of a level-2 `params ++ ext values` vector
    /// comes from (sub-block vector or thread key); empty without a
    /// register level. Lives here, not in the serialised plan.
    pub(crate) hier_ext: Vec<ExtSource>,
    /// Per-statement enumeration layout, read by the interpreter
    /// (`enumerate_with_cascade` + sort) and the compiled engine
    /// ([`Cursor`]) alike.
    pub layouts: Vec<StmtLayout>,
    /// The lowered accesses of every statement; `None` when compiled
    /// execution is off or the shape does not lower (unbounded proof
    /// boxes, or a plan/dim-layout mismatch).
    pub streams: Option<Vec<StmtStreams>>,
}

impl<'a> LaunchShared<'a> {
    /// Derive the launch state for the block shape `grid` pins, staged
    /// through `plan` if the mapping stages. A shape that cannot be
    /// parametrized or scanned, or a plan analysed for another shape,
    /// is a typed error.
    pub fn new(
        kernel: &'a BlockedKernel,
        params: &'a [i64],
        config: &'a MachineConfig,
        grid: LaunchGrid,
        plan: Option<Arc<SymbolicPlan>>,
    ) -> Result<LaunchShared<'a>> {
        let program = &kernel.program;
        let n = program.stmts.len();
        let mut common = vec![vec![0usize; n]; n];
        for (a, row) in common.iter_mut().enumerate() {
            for (b, c) in row.iter_mut().enumerate() {
                *c = program.common_depth(a, b);
            }
        }
        let mut ext = Vec::with_capacity(program.arrays.len());
        for a in &program.arrays {
            ext.push(a.eval_extents(&program.params, params)?);
        }
        let bodies: Option<Vec<BodyCode>> = config
            .compiled_exec
            .then(|| {
                program
                    .stmts
                    .iter()
                    .map(|s| {
                        BodyCode::compile(
                            &s.body,
                            s.reads.len(),
                            s.domain.space().dims().len(),
                            params.len(),
                        )
                        .ok()
                    })
                    .collect()
            })
            .flatten();
        let fixed = &grid.fixed;
        let sym = parametrize_dims(program, fixed)?;
        let layouts = program
            .stmts
            .iter()
            .zip(&sym.stmts)
            .map(|(orig, ss)| StmtLayout::build(orig, ss, fixed, program.params.len()))
            .collect::<polymem_poly::Result<Vec<_>>>()?;
        let streams = bodies
            .as_ref()
            .and_then(|_| lower_streams(&sym, &layouts, plan.as_deref()));
        let sp = plan.as_deref();
        let residency = sp.and_then(|sp| sp.residency.as_ref());
        let residency_at = residency
            .filter(|res| !res.plans.is_empty())
            .and_then(|res| fixed.iter().position(|n| *n == res.seq_param))
            .map(|i| params.len() + i);
        let hier_ext = match sp.and_then(|sp| sp.hier.as_ref()) {
            Some(h) => {
                // The level-2 vector indexes the sub-block's by
                // position: its non-thread names must be this shape's.
                let level1 = h.ext_names.iter().filter(|n| !h.thread_dims.contains(n));
                if !level1.eq(fixed) {
                    return Err(MachineError::Poly(PolyError::SpaceMismatch {
                        op: "a register-level plan analysed for another launch shape",
                    }));
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
            bodies,
            exec_check: std::env::var("POLYMEM_EXEC_CHECK").is_ok_and(|v| v == "1"),
            cost: crate::tune::cost_constants(config),
            flags: StagingFlags::new(kernel, config, sp.map(|sp| &sp.plan))?,
            residency_at,
            hier_ext,
            grid,
            plan,
            layouts,
            streams,
        })
    }

    /// The level-1 plan and the register-level plan riding on it, when
    /// the launch has a register level.
    pub(crate) fn hier(&self) -> Option<(&SmemPlan, &HierPlan)> {
        let sp = self.plan.as_deref()?;
        Some((&sp.plan, sp.hier.as_ref()?))
    }
}

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
    fn build(
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

/// The lowered accesses of one statement, over its [`StmtLayout`].
pub(crate) struct StmtStreams {
    /// Context-free parametric bounds of each kept dim (the proof box).
    pub boxes: Vec<DimBounds>,
    /// The innermost kept dim is a level-2 thread dim — batching along
    /// it would straddle thread-key (frame staging) boundaries.
    pub vary_thread: bool,
    /// The reads in statement order, then the write.
    pub accs: Vec<AccTemplate>,
}

/// Lower every access of the parametrized program `sym` against the
/// shape's layouts and (if the mapping stages) its shared plan.
fn lower_streams(
    sym: &Program,
    layouts: &[StmtLayout],
    plan: Option<&SymbolicPlan>,
) -> Option<Vec<StmtStreams>> {
    let hier = plan.and_then(|sp| sp.hier.as_ref());
    let n_ext = sym.params.len();
    let mut stmts = Vec::with_capacity(sym.stmts.len());
    for (si, (ss, layout)) in sym.stmts.iter().zip(layouts).enumerate() {
        let kept = &layout.kept;
        if let Some(sp) = plan {
            // The plan's projection must agree with our dim layout,
            // or local-access rows would read the wrong cursor dims.
            if sp.kept_dims.get(si) != Some(kept) {
                return None;
            }
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
                let (buffer, rows) = h.frame_rows(id, kept)?;
                let n_ext2 = n_ext + h.thread_dims.len();
                let fits = keyed && rows.iter().all(|r| r.pcoef.len() == n_ext2);
                return fits.then_some(AccTemplate {
                    target: Target::Frame { buffer },
                    rows,
                });
            }
            let (target, map) = match plan.and_then(|sp| sp.plan.rewrites.get(&id)) {
                Some(la) => (Target::Local { buffer: la.buffer }, &la.map),
                None => (Target::Global { array }, map),
            };
            (map.n_in() == kept.len() && map.in_space().n_params() == n_ext).then(|| AccTemplate {
                target,
                rows: lower_rows(map),
            })
        };
        let mut accs = ss
            .reads
            .iter()
            .enumerate()
            .map(|(k, r)| lower(AccessId::read(si, k), r.array, &r.map))
            .collect::<Option<Vec<_>>>()?;
        accs.push(lower(AccessId::write(si), ss.write.array, &ss.write.map)?);
        stmts.push(StmtStreams {
            boxes: all_param_bounds(&ss.domain).ok()?,
            vary_thread,
            accs,
        });
    }
    Some(stmts)
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

    /// Stride of a proven stream along the innermost kept dim.
    #[inline]
    fn vary_stride(&self) -> i64 {
        match &self.addr {
            Addr::Proven { strides, .. } => *strides.last().unwrap_or(&0),
            Addr::Guarded { .. } => 0,
        }
    }

    /// Flat offset of a proven stream at lane `l` of a batch along the
    /// innermost kept dim.
    #[inline]
    fn lane(&self, l: usize) -> usize {
        (self.offset() as i64 + self.vary_stride() * l as i64) as usize
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
        st: &'s StmtStreams,
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

    /// Batch eligibility: every access rides a proven stream.
    fn proven(&self) -> bool {
        let proven = |a: &AccInst| matches!(a.addr, Addr::Proven { .. });
        self.accs.iter().all(proven)
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
            Some(d) => {
                if self.seek(d)? {
                    Ok(Some(self.changed))
                } else {
                    Ok(None)
                }
            }
            None => Ok(None),
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
/// strict. The point is explicit because the batcher probes run
/// *endpoints* without moving the cursor.
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

/// Instance/traffic counts of one compiled compute phase, for the
/// cycle model (identical to the interpreter's tallies).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CompiledCounts {
    pub n_inst: u64,
    pub n_smem: u64,
    pub n_glob: u64,
}

/// Charge the counters for one read of `t` — exactly what the
/// interpreter charges.
fn charge_read(t: Target, stats: &mut ExecStats, counts: &mut CompiledCounts) {
    match t {
        Target::Local { .. } => {
            stats.smem_reads += 1;
            counts.n_smem += 1;
        }
        Target::Global { .. } => {
            stats.global_reads += 1;
            counts.n_glob += 1;
        }
        Target::Frame { .. } => stats.smem_loads_saved += 1,
    }
}

/// Charge the counters for one write of `t` (frame writes are silent,
/// like the interpreter's: they pay at flush).
fn charge_write(t: Target, stats: &mut ExecStats, counts: &mut CompiledCounts) {
    match t {
        Target::Local { .. } => {
            stats.smem_writes += 1;
            counts.n_smem += 1;
        }
        Target::Global { .. } => {
            stats.global_writes += 1;
            counts.n_glob += 1;
        }
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
/// counters are charged separately (reduction batches charge per lane
/// but store once).
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

/// Some read lane would observe some earlier write lane's cell:
/// `ro + rs·l == wo + ws·m` for any `m < l`. Brute force — lanes ≤ 8.
fn collides(ro: i64, rs: i64, wo: i64, ws: i64, lanes: usize) -> bool {
    (1..lanes as i64).any(|l| (0..l).any(|m| ro + rs * l == wo + ws * m))
}

/// Classify a candidate batch of `lanes` instances of `inst` against
/// its own write. Returns `false` on an unresolvable read-after-write
/// conflict (bail to scalar); on `true`, `flags[r]` marks accumulator
/// reads (read cell == lane-invariant write cell) whose lanes > 0
/// forward the previous lane's value instead of re-reading. Only
/// proven streams reach here, so the check is pure offset/stride
/// arithmetic — no charges, no stores.
fn classify_batch(inst: &StmtInst, lanes: usize, flags: &mut Vec<bool>) -> bool {
    let w = inst.write();
    flags.clear();
    flags.resize(inst.reads().len(), false);
    let (wo, ws) = (w.offset() as i64, w.vary_stride());
    for (r, acc) in inst.reads().iter().enumerate() {
        // Only the same array, scratchpad buffer or frame can alias:
        // distinct storage classes hold distinct copies.
        if acc.target != w.target {
            continue;
        }
        let (ro, rs) = (acc.offset() as i64, acc.vary_stride());
        if rs == 0 && ws == 0 && ro == wo {
            flags[r] = true;
        } else if collides(ro, rs, wo, ws, lanes) {
            return false;
        }
    }
    true
}

/// Run one sub-block's compute phase through the compiled engine, at
/// the sub-block's extended params `ep`; `local` is its staged
/// scratchpad (present iff the launch has a plan).
///
/// Returns `Ok(None)` — *before any effect* — when this block cannot
/// take the compiled path (engine off or shape not lowered for the
/// launch, unbounded boxes, foreign store); the caller then runs the
/// interpreter. After the first instance executes, errors are hard and
/// mirror the interpreter's.
///
/// Hierarchy plans (`plan.hier`) execute here natively: the merge
/// tracks each keyed statement's thread key and switches the register
/// frames through the interpreter's own [`stage_frames`] at exactly
/// the key-change points the interpreter would hit, so every counter
/// (and the typed `RegisterOverflow`) is bit-identical; every frame
/// access is then re-anchored against the frames just staged.
pub(crate) fn run_compiled(
    launch: &LaunchShared,
    ep: &[i64],
    store: &ArrayStore,
    local: Option<&mut LocalStore>,
    overlay: &mut Overlay,
    stats: &mut ExecStats,
) -> Result<Option<CompiledCounts>> {
    let (program, params, config) = (launch.program, launch.params, launch.config);
    let budget = config.enum_budget;
    let (Some(bodies), Some(streams)) = (launch.bodies.as_ref(), launch.streams.as_ref()) else {
        return Ok(None);
    };
    // Resolve store ids once and insist the store agrees with the
    // launch extents (flat offsets are only valid against them).
    let mut sids = Vec::with_capacity(program.arrays.len());
    for (a, decl) in program.arrays.iter().enumerate() {
        match store.id_of(&decl.name) {
            Some(id) if store.extents_by_id(id) == launch.ext[a].as_slice() => sids.push(id),
            _ => return Ok(None),
        }
    }
    let thread_pos = |si: usize| {
        launch
            .hier()
            .and_then(|(_, h)| h.stmt_thread_pos[si].as_deref())
    };
    let mut tiles = Tiles {
        local,
        frames: FrameSet::default(),
    };

    // Instantiate address streams and cursors for every statement —
    // all soft-fallback exits happen in this phase, before any effect.
    let n_stmts = streams.len();
    let mut insts: Vec<StmtInst> = Vec::with_capacity(n_stmts);
    let mut cursors: Vec<Cursor> = Vec::with_capacity(n_stmts);
    let mut boxes: Vec<Vec<(i64, i64)>> = Vec::with_capacity(n_stmts);
    for (st, layout) in streams.iter().zip(&launch.layouts) {
        let at = |b: &DimBounds| b.eval_range(&[], ep);
        let Some(bx) = st.boxes.iter().map(at).collect::<Option<Vec<_>>>() else {
            return Ok(None);
        };
        let anchor = |t| AccInst::anchor(t, ep, launch, &tiles, &bx);
        insts.push(StmtInst {
            accs: st.accs.iter().map(anchor).collect(),
        });
        boxes.push(bx);
        cursors.push(Cursor::new(layout, ep, budget));
    }
    let mut alive = vec![false; n_stmts];
    for si in 0..n_stmts {
        match cursors[si].first() {
            Ok(a) => alive[si] = a,
            // Init-phase trouble (unbounded cascade, zero budget):
            // nothing has run yet, so the interpreter can still own
            // this block.
            Err(_) => return Ok(None),
        }
        if alive[si] {
            insts[si].carry(&cursors[si].point, 0);
        }
    }
    let vw = config.vector_width.max(1) as usize;

    // K-way merge in interleaved source order.
    let gdatas: Vec<&[i64]> = sids.iter().map(|&id| store.data_by_id(id)).collect();
    let mut counts = CompiledCounts::default();
    let mut reads_buf: Vec<i64> = Vec::new();
    let mut batch_reads: Vec<i64> = Vec::new();
    let mut lane_vals: Vec<i64> = Vec::new();
    let mut stack: Vec<i64> = Vec::new();
    let mut idx: Vec<i64> = Vec::new();
    // Scratch reused across batches so the hot loop never allocates.
    let mut probe_buf: Vec<i64> = Vec::new();
    let mut end_full_buf: Vec<i64> = Vec::new();
    let mut fp_buf: Vec<i64> = Vec::new();
    let mut flags_buf: Vec<bool> = Vec::new();
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
                counts.n_smem += stage_frames(launch, &mut tiles.frames, key, ep, ls, stats)?;
                for (sj, inst) in insts.iter_mut().enumerate() {
                    inst.rekey(&streams[sj], ep, launch, &tiles, &boxes[sj]);
                    if alive[sj] {
                        inst.carry(&cursors[sj].point, 0);
                    }
                }
            }
        }
        let (st, layout) = (&streams[si], &launch.layouts[si]);
        let n = layout.cascade.len();

        // Probe for a batch: up to `vw` consecutive innermost-dim
        // instances, clipped to the run, the domain, the budget, and
        // the source-order frontier of every other alive statement.
        let mut lanes = 1usize;
        if vw > 1 && n > 0 && !st.vary_thread && insts[si].proven() {
            let cur = &cursors[si];
            let max_run = (cur.run_remaining() + 1).min(vw as i64).max(1) as usize;
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
        // Read-after-write conflict across lanes: scalar.
        if lanes > 1 && !classify_batch(&insts[si], lanes, &mut flags_buf) {
            lanes = 1;
        }

        let inst = &insts[si];
        let wacc = inst.write();
        if lanes > 1 {
            let vd = layout.kept[n - 1];
            let base_full = &cursors[si].full;
            let nr = inst.reads().len();
            if flags_buf.iter().any(|&f| f) {
                // Reduction: a read aliases the lane-invariant write
                // cell. Chain the accumulator serially — scalar
                // association order, scalar charges — while skipping
                // the merge scan and cursor seek per lane.
                fp_buf.clear();
                fp_buf.extend_from_slice(base_full);
                let mut value = 0i64;
                for l in 0..lanes {
                    fp_buf[vd] = base_full[vd] + l as i64;
                    reads_buf.clear();
                    for (r, acc) in inst.reads().iter().enumerate() {
                        charge_read(acc.target, stats, &mut counts);
                        reads_buf.push(if flags_buf[r] && l > 0 {
                            value
                        } else {
                            load_at(acc.target, acc.lane(l), &tiles, overlay, &gdatas)
                        });
                    }
                    value = bodies[si]
                        .eval(&mut stack, &reads_buf, &fp_buf, params)
                        .map_err(MachineError::Ir)?;
                    charge_write(wacc.target, stats, &mut counts);
                }
                store_at(
                    wacc.target,
                    wacc.lane(lanes - 1),
                    value,
                    &mut tiles,
                    overlay,
                );
            } else {
                // Streaming: gather slot-major, one lane-parallel body
                // evaluation, scatter in lane order.
                batch_reads.clear();
                for acc in inst.reads() {
                    for l in 0..lanes {
                        charge_read(acc.target, stats, &mut counts);
                        batch_reads.push(load_at(
                            acc.target,
                            acc.lane(l),
                            &tiles,
                            overlay,
                            &gdatas,
                        ));
                    }
                }
                if bodies[si]
                    .eval_lanes(
                        &mut stack,
                        &batch_reads,
                        lanes,
                        base_full,
                        Some(vd),
                        params,
                        &mut lane_vals,
                    )
                    .is_err()
                {
                    // Some lane faults. Re-run serially so the error
                    // surfaced is the one scalar order reports first.
                    lane_vals.clear();
                    fp_buf.clear();
                    fp_buf.extend_from_slice(base_full);
                    for l in 0..lanes {
                        fp_buf[vd] = base_full[vd] + l as i64;
                        reads_buf.clear();
                        for r in 0..nr {
                            reads_buf.push(batch_reads[r * lanes + l]);
                        }
                        lane_vals.push(
                            bodies[si]
                                .eval(&mut stack, &reads_buf, &fp_buf, params)
                                .map_err(MachineError::Ir)?,
                        );
                    }
                }
                for (l, &v) in lane_vals.iter().enumerate() {
                    charge_write(wacc.target, stats, &mut counts);
                    store_at(wacc.target, wacc.lane(l), v, &mut tiles, overlay);
                }
            }
            stats.instances += lanes as u64;
            counts.n_inst += lanes as u64;
            cursors[si]
                .advance_run(lanes as i64 - 1)
                .map_err(budget_error)?;
            insts[si].carry(&cursors[si].point, n - 1);
        } else {
            let cur = &cursors[si];
            reads_buf.clear();
            for acc in inst.reads() {
                charge_read(acc.target, stats, &mut counts);
                let off = flat_offset(acc, &cur.point, ep, launch, &tiles, &mut idx)?;
                reads_buf.push(load_at(acc.target, off, &tiles, overlay, &gdatas));
            }
            let value = bodies[si]
                .eval(&mut stack, &reads_buf, &cur.full, params)
                .map_err(MachineError::Ir)?;
            charge_write(wacc.target, stats, &mut counts);
            let off = flat_offset(wacc, &cur.point, ep, launch, &tiles, &mut idx)?;
            store_at(wacc.target, off, value, &mut tiles, overlay);
            stats.instances += 1;
            counts.n_inst += 1;
        }
        match cursors[si].advance().map_err(budget_error)? {
            Some(ch) => insts[si].carry(&cursors[si].point, ch),
            None => alive[si] = false,
        }
    }
    // The trailing frame set flushes after the last instance, exactly
    // like the interpreter's final flush.
    if let Some(ls) = tiles.local {
        counts.n_smem += flush_frames(launch, &tiles.frames, ls, stats)?;
    }
    Ok(Some(counts))
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
