//! Recursive second-level planning: per-thread register tiles.
//!
//! The paper's scheme (§2, §4) is recursive — every level of the
//! tiling hierarchy gets its own explicitly managed buffer with its
//! own copy-in/copy-out. This module applies the §3 pipeline a second
//! time: after the global→scratchpad plan for a block is known, the
//! *intra-tile* subnest (the innermost FOR levels left after fixing
//! round/block/seq dims **and** the per-thread dims) is analysed
//! against the level-1 local buffers as the new "global" arrays. The
//! result is a set of **frames** — tiny register tiles staged per
//! inner-process instance with smem→reg move-in and reg→smem
//! move-out.
//!
//! Mechanically this reuses the [`cache`](super::cache) machinery
//! unchanged: the program is parametrised once over the *union* of the
//! level-1 fixed dims and the thread dims, so all level-2 affine
//! structures take `params ++ sorted(fixed ∪ thread)` as their
//! parameter vector. Frames come out of [`analyze_program_timed`] as
//! ordinary [`LocalBuffer`]s in **global array coordinates**; a
//! post-filter then keeps only the groups that are
//!
//! 1. *backed*: every member access is rewritten at level 1, and all
//!    to the same level-1 buffer (registers cache scratchpad-resident
//!    data only — the group's elements are then guaranteed staged);
//! 2. *thread-complete*: every owning statement iterates all thread
//!    dims (otherwise no per-thread instance owns the frame);
//! 3. *beneficial*: Algorithm 1's reuse gate, re-run over the subnest
//!    (rank-full, low-overlap references keep reading scratchpad);
//! 4. *resident*: the running footprint at the representative block
//!    stays within [`HierSpec::regs_per_inner`] words.
//!
//! Soundness of the split between promoted and unpromoted accesses
//! follows from §3.1 partitioning: group disjointness is established
//! symbolically (existentially in all parameters, which now include
//! the thread dims), so a frame's elements never alias any direct
//! scratchpad access of the same instance, at *every* thread value.
//! The executor stages frames per thread value and flushes dirty
//! frames before the thread value changes, which keeps cross-value
//! overlap (e.g. sliding windows) exact.
//!
//! [`LocalBuffer`]: super::LocalBuffer
//! [`analyze_program_timed`]: super::analyze_program_timed

use super::cache::parametrize_dims;
use super::lowering::{lower_rows_onto, LoweredRow};
use super::{analyze_program_timed, AccessId, BufferId, Result, SmemConfig, SmemError, SmemPlan};
use crate::tiling::transform::fix_dims;
use polymem_ir::Program;
use polymem_poly::count::enumerate_points;
use std::collections::HashMap;

/// The explicitly managed memory levels of the machine model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemLevel {
    /// Level 1: the per-outer-unit scratchpad (global → smem).
    Scratchpad,
    /// Level 2: per-inner-process register tiles (smem → reg).
    Register,
}

/// Specification of the register-tile level for one blocked mapping.
#[derive(Clone, Debug)]
pub struct HierSpec {
    /// Iteration dims distributed across inner processes (threads);
    /// fixed per instance group, parametrised for the level-2 view.
    pub thread_dims: Vec<String>,
    /// Representative values for the thread dims (Algorithm 1's
    /// volume test); must cover `thread_dims` exactly.
    pub thread_reps: Vec<(String, i64)>,
    /// Register-file capacity per inner process, in words.
    pub regs_per_inner: u64,
}

/// The level-2 plan: register frames over the level-1 local buffers.
///
/// All affine structures in `plan` take `params ++ ext values` as
/// their parameter vector, where the extension order is `ext_names`.
#[derive(Clone, Debug)]
pub struct HierPlan {
    /// The filtered level-2 plan. Buffer bounds are in **global array
    /// coordinates**; translation to level-1 local coordinates goes
    /// through `backing` and the level-1 buffer's kept dims.
    pub plan: SmemPlan,
    /// Names appended as parameters: `sorted(fixed ∪ thread_dims)`.
    pub ext_names: Vec<String>,
    /// The thread dims, in the order thread values are keyed.
    pub thread_dims: Vec<String>,
    /// Per original statement: indices of the dims that remain
    /// iteration dims in the level-2 view (the intra-thread subnest).
    pub kept_dims: Vec<Vec<usize>>,
    /// Per original statement: positions of each thread dim in the
    /// statement's dim order (`thread_dims` order), or `None` if the
    /// statement does not iterate every thread dim (its accesses are
    /// never redirected to frames).
    pub stmt_thread_pos: Vec<Option<Vec<usize>>>,
    /// For each frame (level-2 buffer id): the level-1 buffer holding
    /// the data it caches.
    pub backing: Vec<BufferId>,
    /// The capacity the plan was gated against, in words.
    pub regs_per_inner: u64,
}

/// Where one entry of a level-2 extended parameter vector comes from:
/// the index map [`HierPlan::ext_sources`] resolves names into, once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtSource {
    /// This position of the level-1 vector `params ++ fixed values`.
    Level1(usize),
    /// This position of the thread key (`thread_dims` order).
    Thread(usize),
}

impl ExtSource {
    /// The level-2 vector `params ++ ext values` of one (sub-block,
    /// thread key) instance: `level1` is the sub-block's
    /// `params ++ fixed values`, `threads` the key.
    pub fn assemble(sources: &[ExtSource], level1: &[i64], threads: &[i64]) -> Vec<i64> {
        let mut out = Vec::with_capacity(sources.len());
        ExtSource::assemble_into(sources, level1, threads, &mut out);
        out
    }

    /// [`assemble`](ExtSource::assemble) into `out`'s storage: an
    /// executor re-keys one vector at every thread-key change.
    pub fn assemble_into(
        sources: &[ExtSource],
        level1: &[i64],
        threads: &[i64],
        out: &mut Vec<i64>,
    ) {
        out.clear();
        out.extend(sources.iter().map(|s| match *s {
            ExtSource::Level1(j) => level1[j],
            ExtSource::Thread(k) => threads[k],
        }));
    }
}

impl HierPlan {
    /// Per entry of `params ++ ext_names` (with `n_params` program
    /// parameters), where its value comes from. The non-thread ext
    /// names are the level-1 fixed dims in their sorted order, so they
    /// index the level-1 vector in sequence. A launch resolves this
    /// once and assembles every thread key's vector by index.
    pub fn ext_sources(&self, n_params: usize) -> Vec<ExtSource> {
        let mut next = n_params;
        let ext = self.ext_names.iter().map(|name| {
            match self.thread_dims.iter().position(|t| t == name) {
                Some(k) => ExtSource::Thread(k),
                None => {
                    next += 1;
                    ExtSource::Level1(next - 1)
                }
            }
        });
        (0..n_params).map(ExtSource::Level1).chain(ext).collect()
    }

    /// The named boundary over [`ExtSource::assemble`]: `fixed` holds
    /// the level-1 fixed-dim values by name, `threads` the thread-dim
    /// values in `thread_dims` order. `None` on a shape mismatch.
    pub fn ext_params(
        &self,
        params: &[i64],
        fixed: &HashMap<String, i64>,
        threads: &[i64],
    ) -> Option<Vec<i64>> {
        if threads.len() != self.thread_dims.len() {
            return None;
        }
        let mut level1 = params.to_vec();
        for name in &self.ext_names {
            if !self.thread_dims.contains(name) {
                level1.push(*fixed.get(name)?);
            }
        }
        let sources = self.ext_sources(params.len());
        Some(ExtSource::assemble(&sources, &level1, threads))
    }

    /// Level-2 frame staging traffic of the sub-block whose block and seq
    /// dims are `fixed`: per distinct thread key the executor moves every
    /// frame's move-in elements from scratchpad and flushes the written
    /// ones back — each element one smem access.
    pub fn frame_traffic(
        &self,
        program: &Program,
        params: &[i64],
        fixed: &HashMap<String, i64>,
        budget: u64,
    ) -> Result<u64> {
        let mut n_keys = 0u64;
        let mut thread_rep: Option<Vec<i64>> = None;
        for (si, stmt) in program.stmts.iter().enumerate() {
            if self.stmt_thread_pos[si].is_none() {
                continue;
            }
            let dom = fix_dims(&stmt.domain, fixed);
            let keep: Vec<usize> = self
                .thread_dims
                .iter()
                .filter_map(|n| dom.space().find_dim(n))
                .collect();
            if keep.len() != self.thread_dims.len() {
                continue;
            }
            let proj = dom
                .project_onto(&keep)
                .and_then(|p| p.substitute_params(params))
                .map_err(SmemError::Poly)?;
            let mut first: Option<Vec<i64>> = None;
            let mut count = 0u64;
            enumerate_points(&proj, budget, &mut |p| {
                first.get_or_insert_with(|| p.to_vec());
                count += 1;
            })
            .map_err(SmemError::Poly)?;
            if count > n_keys {
                n_keys = count;
                thread_rep = first;
            }
        }
        if let (Some(tvals), true) = (thread_rep, n_keys > 0) {
            let ext2 = (self.ext_params(params, fixed, &tvals)).ok_or_else(|| {
                SmemError::Ir(polymem_ir::IrError::UnknownName(
                    "level-2 ext params of a sub-block".into(),
                ))
            })?;
            let moves = self.plan.movement.iter();
            let per_key: u64 = moves
                .map(|mc| mc.move_in_count(&ext2) + mc.move_out_count(&ext2))
                .sum();
            return Ok(n_keys.saturating_mul(per_key));
        }
        Ok(0)
    }

    /// The frame (level-2 buffer id) the access `id` is redirected
    /// to, with its rewritten map `F'` lowered once over
    /// `[kept1, params ++ ext values, 1]`: `kept1` are the dims the
    /// level-1 instance cursor of the statement enumerates (its
    /// original dim indices — the intra-thread subnest plus the thread
    /// dims, whose values reach the rows through the parameter vector,
    /// so their coefficients are 0). `None` for an access no frame
    /// serves, or when `kept1` misses a dim the map reads. The local
    /// index is the rows' value minus the frame's offsets `g` at the
    /// thread key — [`LocalAccess::local_index`](super::LocalAccess)
    /// without the per-point map application.
    pub fn frame_rows(&self, id: AccessId, kept1: &[usize]) -> Option<(BufferId, Vec<LoweredRow>)> {
        let la = self.plan.rewrites.get(&id)?;
        let rows = lower_rows_onto(&la.map, self.kept_dims.get(id.stmt)?, kept1)?;
        Some((la.buffer, rows))
    }

    /// Project a full-space iteration point of statement `stmt` down
    /// to the level-2 view's kept dims (the intra-thread subnest).
    pub fn project_point(&self, stmt: usize, point: &[i64]) -> Vec<i64> {
        self.kept_dims[stmt].iter().map(|&d| point[d]).collect()
    }

    /// The thread-dim values of one instance, in `thread_dims` order,
    /// or `None` if the statement does not iterate every thread dim.
    pub fn thread_key(&self, stmt: usize, point: &[i64]) -> Option<Vec<i64>> {
        self.stmt_thread_pos[stmt]
            .as_ref()
            .map(|pos| pos.iter().map(|&d| point[d]).collect())
    }
}

/// Run the §3 pipeline a second time over the intra-thread subnest and
/// filter the result down to backed, thread-complete, resident frames.
///
/// `fixed` are the level-1 fixed dims with representative values (the
/// same pairs handed to [`analyze_symbolic`]); `level1` is the level-1
/// symbolic plan they produced. Returns `Ok(None)` when no frame
/// survives the gates — the mapping then simply has no register level.
///
/// [`analyze_symbolic`]: super::analyze_symbolic
pub fn analyze_hierarchy(
    program: &Program,
    fixed: &[(String, i64)],
    spec: &HierSpec,
    level1: &SmemPlan,
    config: &SmemConfig,
) -> Result<Option<HierPlan>> {
    if spec.thread_dims.is_empty() {
        return Ok(None);
    }
    for t in &spec.thread_dims {
        if !spec.thread_reps.iter().any(|(n, _)| n == t) {
            return Err(SmemError::Ir(polymem_ir::IrError::UnknownName(format!(
                "thread dim `{t}` has no representative value"
            ))));
        }
    }
    let mut pairs: Vec<(String, i64)> = fixed.to_vec();
    for (n, v) in &spec.thread_reps {
        pairs.push((n.clone(), *v));
    }
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    if pairs.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err(SmemError::Ir(polymem_ir::IrError::UnknownName(
            "thread dim clashes with a fixed dim".into(),
        )));
    }
    let ext_names: Vec<String> = pairs.iter().map(|p| p.0.clone()).collect();

    // One parametrisation over the union: all level-2 affine
    // structures are affine in `params ++ ext_names`.
    let symbolic = parametrize_dims(program, &ext_names)?;
    let mut cfg = config.clone();
    // Registers are an optional cache even on must-copy machines: the
    // reuse gate alone decides promotion.
    cfg.must_copy_all = false;
    cfg.sample_params.extend(pairs.iter().map(|p| p.1));
    let (raw, _) = analyze_program_timed(&symbolic, &cfg)?;
    let rep_ext = cfg.sample_params.clone();

    let kept_dims: Vec<Vec<usize>> = program
        .stmts
        .iter()
        .map(|s| {
            let dims = s.domain.space().dims();
            (0..dims.len())
                .filter(|&i| !ext_names.iter().any(|n| *n == dims[i]))
                .collect()
        })
        .collect();
    let stmt_thread_pos: Vec<Option<Vec<usize>>> = program
        .stmts
        .iter()
        .map(|s| {
            let dims = s.domain.space().dims();
            spec.thread_dims
                .iter()
                .map(|t| dims.iter().position(|d| d == t))
                .collect()
        })
        .collect();

    // Member accesses per raw level-2 buffer.
    let mut members: Vec<Vec<super::AccessId>> = vec![Vec::new(); raw.buffers.len()];
    for (id, la) in &raw.rewrites {
        members[la.buffer].push(*id);
    }

    // The gates: backed, thread-complete, bounded, resident.
    let mut keep: Vec<Option<usize>> = vec![None; raw.buffers.len()];
    let mut backing: Vec<BufferId> = Vec::new();
    let mut resident_words = 0u64;
    for (bi, buf) in raw.buffers.iter().enumerate() {
        let mem = &members[bi];
        let Some(first) = mem.first().and_then(|id| level1.rewrites.get(id)) else {
            continue;
        };
        let b1 = first.buffer;
        let backed = mem
            .iter()
            .all(|id| level1.rewrites.get(id).map(|la| la.buffer) == Some(b1));
        let complete = mem.iter().all(|id| stmt_thread_pos[id.stmt].is_some());
        if !backed || !complete {
            continue;
        }
        let Ok(words) = buf.size_words(&rep_ext) else {
            continue;
        };
        if resident_words.saturating_add(words) > spec.regs_per_inner {
            continue;
        }
        resident_words += words;
        keep[bi] = Some(backing.len());
        backing.push(b1);
    }
    if backing.is_empty() {
        return Ok(None);
    }

    // Rebuild the plan with the surviving frames renumbered densely.
    let mut buffers = Vec::new();
    let mut movement = Vec::new();
    for (bi, buf) in raw.buffers.iter().enumerate() {
        if let Some(nid) = keep[bi] {
            let mut b = buf.clone();
            b.id = nid;
            buffers.push(b);
            let mut mc = raw
                .movement
                .iter()
                .find(|m| m.buffer == bi)
                .expect("movement exists for every buffer")
                .clone();
            mc.buffer = nid;
            movement.push(mc);
        }
    }
    let rewrites = raw
        .rewrites
        .iter()
        .filter_map(|(id, la)| {
            keep[la.buffer].map(|nid| {
                let mut la = la.clone();
                la.buffer = nid;
                (*id, la)
            })
        })
        .collect();

    Ok(Some(HierPlan {
        plan: SmemPlan {
            buffers,
            rewrites,
            movement,
            decisions: raw.decisions,
        },
        ext_names,
        thread_dims: spec.thread_dims.clone(),
        kept_dims,
        stmt_thread_pos,
        backing,
        regs_per_inner: spec.regs_per_inner,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smem::analyze_symbolic;
    use crate::tiling::transform::{tile_program, TileSpec};
    use polymem_ir::expr::v;
    use polymem_ir::{Expr, LinExpr, ProgramBuilder};

    /// Square matmul C[i][j] += A[i][k] * B[k][j], tiled 4×4×4 with
    /// the k tile sequential (the hoisted mapping's program shape).
    fn tiled_matmul() -> Program {
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
        tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 4), ("k", 4)], "T")).unwrap()
    }

    fn fixed() -> Vec<(String, i64)> {
        vec![
            ("iT".to_string(), 0),
            ("jT".to_string(), 0),
            ("kT".to_string(), 0),
        ]
    }

    fn spec(regs: u64) -> HierSpec {
        HierSpec {
            thread_dims: vec!["i".to_string()],
            thread_reps: vec![("i".to_string(), 0)],
            regs_per_inner: regs,
        }
    }

    fn cfg() -> SmemConfig {
        SmemConfig {
            sample_params: vec![8],
            ..SmemConfig::default()
        }
    }

    #[test]
    fn matmul_promotes_reused_rows_but_not_streaming_b() {
        let t = tiled_matmul();
        let cfg = cfg();
        let sp = analyze_symbolic(&t, &fixed(), &cfg).unwrap();
        let h = analyze_hierarchy(&t, &fixed(), &spec(64), &sp.plan, &cfg)
            .unwrap()
            .expect("matmul has register frames");
        let arrays: Vec<&str> = h
            .plan
            .buffers
            .iter()
            .map(|b| b.array_name.as_str())
            .collect();
        // Over the (j, k) subnest, C[i][j] and A[i][k] are
        // rank-deficient (one reused row each); B[k][j] is rank-full
        // with no overlap — the reuse gate keeps it in scratchpad.
        assert!(arrays.contains(&"C"), "{arrays:?}");
        assert!(arrays.contains(&"A"), "{arrays:?}");
        assert!(!arrays.contains(&"B"), "{arrays:?}");
        // Every frame is backed by the level-1 buffer of its array.
        assert_eq!(h.backing.len(), h.plan.buffers.len());
        for (f, &b1) in h.plan.buffers.iter().zip(&h.backing) {
            assert_eq!(sp.plan.buffers[b1].array, f.array);
        }
    }

    #[test]
    fn frame_footprints_fit_the_register_capacity() {
        let t = tiled_matmul();
        let cfg = cfg();
        let sp = analyze_symbolic(&t, &fixed(), &cfg).unwrap();
        let h = analyze_hierarchy(&t, &fixed(), &spec(64), &sp.plan, &cfg)
            .unwrap()
            .unwrap();
        // Representative ext vector: params ++ sorted(fixed ∪ thread).
        let mut pairs = fixed();
        pairs.push(("i".to_string(), 0));
        pairs.sort();
        let mut ext = vec![8i64];
        ext.extend(pairs.iter().map(|p| p.1));
        let total: u64 = h
            .plan
            .buffers
            .iter()
            .map(|b| b.size_words(&ext).unwrap())
            .sum();
        // One C row (4) + one A row (4) at 4×4×4 tiles.
        assert_eq!(total, 8);
        assert!(total <= h.regs_per_inner);
    }

    #[test]
    fn capacity_gate_drops_frames_that_do_not_fit() {
        let t = tiled_matmul();
        let cfg = cfg();
        let sp = analyze_symbolic(&t, &fixed(), &cfg).unwrap();
        // 4 words hold one row but not two: exactly one frame survives.
        let h = analyze_hierarchy(&t, &fixed(), &spec(4), &sp.plan, &cfg)
            .unwrap()
            .unwrap();
        assert_eq!(h.plan.buffers.len(), 1);
        // And a capacity of 0 leaves no register level at all.
        let none = analyze_hierarchy(&t, &fixed(), &spec(0), &sp.plan, &cfg).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn missing_thread_rep_is_a_typed_error() {
        let t = tiled_matmul();
        let cfg = cfg();
        let sp = analyze_symbolic(&t, &fixed(), &cfg).unwrap();
        let bad = HierSpec {
            thread_dims: vec!["i".to_string()],
            thread_reps: vec![],
            regs_per_inner: 64,
        };
        assert!(analyze_hierarchy(&t, &fixed(), &bad, &sp.plan, &cfg).is_err());
    }

    #[test]
    fn thread_key_and_ext_params_line_up() {
        let t = tiled_matmul();
        let cfg = cfg();
        let sp = analyze_symbolic(&t, &fixed(), &cfg).unwrap();
        let h = analyze_hierarchy(&t, &fixed(), &spec(64), &sp.plan, &cfg)
            .unwrap()
            .unwrap();
        // Tiled dims: (iT, jT, kT, i, j, k) — thread dim i at 3.
        let point = [0i64, 0, 0, 2, 1, 3];
        assert_eq!(h.thread_key(0, &point), Some(vec![2]));
        assert_eq!(h.project_point(0, &point), vec![1, 3]);
        let fx: HashMap<String, i64> = fixed().into_iter().collect();
        let ext = h.ext_params(&[8], &fx, &[2]).unwrap();
        // ext_names sorted: i, iT, jT, kT.
        assert_eq!(ext, vec![8, 2, 0, 0, 0]);
        // The C frame's rewrite, lowered over the level-1 cursor's
        // dims (i, j, k): the thread dim i has no column of its own,
        // it arrives through `ext`.
        let id = AccessId::write(0);
        let (frame, rows) = h.frame_rows(id, &[3, 4, 5]).unwrap();
        assert_eq!(h.plan.buffers[frame].array_name, "C");
        assert!(rows.iter().all(|r| r.kcoef[0] == 0));
        let raw: Vec<i64> = rows
            .iter()
            .map(|r| r.eval(&[2, 1, 3], &ext).unwrap())
            .collect();
        assert_eq!(raw, h.plan.rewrites[&id].map.apply(&[1, 3], &ext).unwrap());
        // One thread's C frame is a row: only the j subscript is kept.
        assert_eq!(raw, vec![1]);
        // A cursor that does not enumerate k cannot carry it; B never
        // got a frame.
        assert!(h.frame_rows(AccessId::read(0, 1), &[3, 4]).is_none());
        assert!(h.frame_rows(AccessId::read(0, 2), &[3, 4, 5]).is_none());
    }
}
