//! Inter-block scratchpad residency: delta transfers between
//! lexicographically consecutive sub-tile instances.
//!
//! The §3 movement model re-stages each group's full data space on
//! every block instance, even when consecutive instances overlap (a
//! sliding stencil window re-transfers almost everything). Following
//! the usage-based dataflow partitioning of Ferry/Derrien/Rajopadhye
//! ("Maximal Atomic irRedundant Sets"), this pass decomposes each
//! group's move-in window — symbolically in the block/round/seq
//! parameters of a [`SymbolicPlan`](super::SymbolicPlan) — into
//! *atomic usage sets* with respect to the lexicographic predecessor
//! along the innermost sequential dimension:
//!
//! * the **retained** atoms `W(s) ∩ W(s-1)`: live-in to instance `s`
//!   and already resident from instance `s-1` — kept in the
//!   scratchpad (re-based by a local copy when the buffer window
//!   slides) instead of being re-transferred;
//! * the **delta** atoms `W(s) \ W(s-1)`: live-in to `s` but not
//!   resident — the only elements that still cross the global-memory
//!   bus.
//!
//! Together the atoms partition the window exactly (each element in
//! exactly one atom), so `retained ∪ delta` covers precisely the
//! elements the entry's `move_in` scan would have transferred, each
//! exactly once — the irredundant decomposition. The symbolic
//! predecessor window is obtained by the parametric lex-successor
//! substitution `s → s − 1`, which on a constraint row only shifts the
//! constant column by the seq-param coefficient.
//!
//! **Retention legality.** A retained element is served from a copy
//! loaded one sub-tile ago, so it must provably equal global memory at
//! use time. Writes through the *same* buffer are coherent (the local
//! copy holds the newest value and move-out flushes it every
//! sub-tile); writes that bypass the buffer are not. The pass
//! conservatively denies retention for a group when (a) any write to
//! the array is not rewritten into a local buffer, or (b) another
//! buffer of the same array has a write space that can intersect the
//! group's window at *any* pair of seq values (checked on the
//! seq-relaxed sets: all constraints involving the seq parameter
//! dropped, an over-approximation of the union over seq values).
//! Cross-block writes need no check: block overlays merge at round
//! barriers, so global memory as seen by one block run is constant
//! across its sub-tiles.
//!
//! The pass also emits the **outgoing flush delta**
//! `move_out(s) \ writes(s+1)` — the store-side dual (elements whose
//! flush the successor would not overwrite). When
//! [`RetainPlan::flush_legal`] holds, the executors flush only the
//! delta: every skipped element lies in the successor's write set, so
//! the successor (or, inductively, a later sub-tile, terminating at
//! the last one whose flush is always full) writes it back with a
//! value at least as new. Skipping is *observable* only if something
//! reads the element from global memory while its flush is pending;
//! [`flush_legal`](RetainPlan::flush_legal) conservatively requires
//! that no such read exists:
//!
//! * the successor's own delta move-in (its retained atoms are served
//!   from the local copy, which holds the newest value) must not
//!   touch any skipped element — checked exactly at seq distance 1,
//!   which covers every distance by induction (an element still
//!   pending at distance `k` is in the writes of every intervening
//!   sub-tile, so the distance-1 check applies at each step);
//! * no *other* buffer of the same array may read a skipped element
//!   at any seq distance (seq-relaxed over-approximation);
//! * no unrewritten read of the array may touch a skipped element at
//!   any seq distance (same relaxation).
//!
//! When `flush_legal` is false the executors fall back to the full
//! move-out flush.
//!
//! Every set this pass tests — a group's read and write data spaces,
//! and the other groups' — comes from the [`WindowPieces`] the movement
//! pass hands it in memory; the plan holds no data spaces. A
//! [`RetainPlan`] keeps no sets beside its three scan nests either: the
//! scans are the decomposition, built from the disjoint pieces this
//! pass computes, and they are all that runs or is stored of it. The
//! buffer a plan serves is its key in [`ResidencyPlan::plans`].

use super::movement::WindowPieces;
use super::{BufferId, Result, SmemPlan};
use polymem_codegen::{scan_pieces, Ast};
use polymem_ir::Program;
use polymem_poly::diff::difference_all;
use polymem_poly::{Constraint, ConstraintKind, PolyUnion, Polyhedron};
use std::collections::HashMap;

/// The residency decomposition for one buffer, as the three scan
/// nests the executors run: each is parametric in the same extended
/// parameter vector as the owning [`SymbolicPlan`](super::SymbolicPlan)
/// and visits its set's elements exactly once.
#[derive(Clone, Debug)]
pub struct RetainPlan {
    /// Scan nest over the retained set `W(s) ∩ W(s-1)`: elements
    /// already resident from the predecessor.
    pub retained_scan: Ast,
    /// Scan nest over the delta set `W(s) \ W(s-1)`: elements that
    /// must still be transferred.
    pub delta_scan: Ast,
    /// Scan nest over the flush delta `move_out(s) \ writes(s+1)`:
    /// move-out elements the successor does not overwrite.
    pub flush_scan: Ast,
    /// Whether flushing only the flush delta is provably unobservable
    /// (see the module docs for the exact conditions). Executors fall
    /// back to the full move-out flush when false.
    pub flush_legal: bool,
}

/// Per-group residency plans for one symbolic scratchpad plan, keyed
/// by buffer id. Buffers without an entry stage their full window
/// (retention denied by legality, or nothing retainable).
#[derive(Clone, Debug)]
pub struct ResidencyPlan {
    /// The innermost sequential dimension (a parameter of the
    /// symbolic view) along which consecutive instances retain data.
    pub seq_param: String,
    /// Buffer id → its retain/delta decomposition.
    pub plans: HashMap<BufferId, RetainPlan>,
}

impl ResidencyPlan {
    /// True iff no group retains anything.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

/// Substitute `seq → seq + shift` in a polyhedron whose space has the
/// seq dim as parameter column `param_idx`: exact on constraint rows
/// (only the constant column moves, by `coeff · shift`).
pub(super) fn shift_seq(poly: &Polyhedron, param_idx: usize, shift: i64) -> Polyhedron {
    let space = poly.space();
    let pcol = space.param_col(param_idx);
    let ccol = space.const_col();
    let rows: Vec<Constraint> = poly
        .constraints()
        .iter()
        .map(|c| {
            let mut coeffs: Vec<i64> = c.coeffs.iter().copied().collect();
            coeffs[ccol] += coeffs[pcol] * shift;
            match c.kind {
                ConstraintKind::Ineq => Constraint::ineq(coeffs),
                ConstraintKind::Eq => Constraint::eq(coeffs),
            }
        })
        .collect();
    Polyhedron::new(space.clone(), rows)
}

/// Drop every constraint involving the seq parameter: the result
/// over-approximates the union of the set over all seq values (used
/// for the conservative retention-legality test).
fn relax_seq(poly: &Polyhedron, param_idx: usize) -> Polyhedron {
    let pcol = poly.space().param_col(param_idx);
    let rows: Vec<Constraint> = poly
        .constraints()
        .iter()
        .filter(|c| c.coeff(pcol) == 0)
        .cloned()
        .collect();
    Polyhedron::new(poly.space().clone(), rows)
}

/// The array group `g` of `plan` stages.
fn group_array(plan: &SmemPlan, g: usize) -> usize {
    plan.buffers[plan.movement[g].buffer].array
}

/// The windows of the groups other than group `g` that stage group
/// `g`'s array.
fn other_windows<'a>(
    plan: &'a SmemPlan,
    windows: &'a [WindowPieces],
    g: usize,
) -> impl Iterator<Item = &'a WindowPieces> {
    let array = group_array(plan, g);
    (windows.iter().enumerate())
        .filter(move |&(j, _)| j != g && group_array(plan, j) == array)
        .map(|(_, w)| w)
}

/// Whether retaining group `g`'s window across sub-tiles is legal: no
/// write to the array can reach global memory behind the retained
/// copy's back. See the module docs for the exact conditions.
fn retention_legal(
    program: &Program,
    plan: &SmemPlan,
    windows: &[WindowPieces],
    g: usize,
    seq_idx: usize,
) -> Result<bool> {
    let window = &windows[g];
    // (a) An unrewritten write updates global memory directly; the
    // retained copy goes stale only if that write's data space can
    // touch the retained window at some seq distance. Writes to
    // disjoint regions (e.g. a stencil's next time plane) are
    // harmless.
    for r in super::dataspace::collect_refs(program, group_array(plan, g))? {
        if !r.id.is_write() || plan.rewrites.contains_key(&r.id) {
            continue;
        }
        let wr = relax_seq(&r.data_space, seq_idx);
        for rd in &window.read_spaces {
            if !relax_seq(rd, seq_idx).intersect(&wr)?.is_empty()? {
                return Ok(false);
            }
        }
    }
    // (b) A write staged through a *different* buffer of the same
    // array reaches global memory at that buffer's move-out without
    // updating this buffer's retained copy. Deny retention if any
    // such write space can touch this window at any seq distance.
    for other in other_windows(plan, windows, g) {
        for w in &other.write_spaces {
            let wr = relax_seq(w, seq_idx);
            for r in &window.read_spaces {
                if !relax_seq(r, seq_idx).intersect(&wr)?.is_empty()? {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

/// Whether flushing only group `g`'s flush delta is unobservable. The
/// *skip set* `K = move_out(s) ∩ writes(s+1)` holds the elements a
/// delta flush leaves pending in the scratchpad; each is rewritten by
/// the successor's flush (or a later one), so only an intervening
/// global read of a pending element can tell the difference. The
/// module docs spell out the three read classes checked here.
fn flush_delta_legal(
    program: &Program,
    plan: &SmemPlan,
    windows: &[WindowPieces],
    g: usize,
    seq_idx: usize,
    delta_pieces: &[Polyhedron],
) -> Result<bool> {
    let writes = &windows[g].write_spaces;
    let mut skip = Vec::new();
    for w in writes {
        for succ in writes {
            let k = w.intersect(&shift_seq(succ, seq_idx, 1))?;
            if !k.is_empty()? {
                skip.push(k);
            }
        }
    }
    if skip.is_empty() {
        // Nothing ever skipped: the flush delta is the full move-out.
        return Ok(true);
    }
    for k in &skip {
        // (1) The successor's global delta reads, exactly at distance
        // 1 (covers every distance by induction — see module docs).
        for d in delta_pieces {
            if !k.intersect(&shift_seq(d, seq_idx, 1))?.is_empty()? {
                return Ok(false);
            }
        }
        let kr = relax_seq(k, seq_idx);
        // (2) Reads staged through other buffers of the same array, at
        // any seq distance.
        for other in other_windows(plan, windows, g) {
            for r in &other.read_spaces {
                if !relax_seq(r, seq_idx).intersect(&kr)?.is_empty()? {
                    return Ok(false);
                }
            }
        }
        // (3) Unrewritten reads of the array touch global directly.
        for r in super::dataspace::collect_refs(program, group_array(plan, g))? {
            if r.id.is_write() || plan.rewrites.contains_key(&r.id) {
                continue;
            }
            if !relax_seq(&r.data_space, seq_idx)
                .intersect(&kr)?
                .is_empty()?
            {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Build the residency decomposition for every group of `plan`.
///
/// `program` is the symbolic view the plan was analysed on (its
/// parameters include the fixed dims); `seq_param` names the innermost
/// sequential dimension among them; `windows[k]` holds the data spaces
/// and disjoint pieces `plan.movement[k]`'s nests scan
/// ([`analyze_program_windows`](super::analyze_program_windows)).
/// Groups whose retained set is infeasible (nothing can ever be
/// retained) or whose retention is illegal get no entry.
///
/// Every set is decomposed once: the windows by the movement pass,
/// `retained` here, and delta / flush come out of `difference_all`
/// disjoint — so the three nests are [`scan_pieces`] over pieces this
/// function already holds.
pub fn plan_residency(
    program: &Program,
    plan: &SmemPlan,
    windows: &[WindowPieces],
    seq_param: &str,
) -> Result<ResidencyPlan> {
    assert_eq!(windows.len(), plan.movement.len(), "one window per group");
    let mut plans = HashMap::new();
    for (g, (mc, window)) in plan.movement.iter().zip(windows).enumerate() {
        let Some(first) = window.read_spaces.first() else {
            continue;
        };
        let Some(seq_idx) = first.space().find_param(seq_param) else {
            continue;
        };
        if !retention_legal(program, plan, windows, g, seq_idx)? {
            continue;
        }
        let prev: Vec<Polyhedron> = (window.read_spaces.iter())
            .map(|r| shift_seq(r, seq_idx, -1))
            .collect();
        // Retained: every pairwise window/predecessor intersection.
        let mut retained_members = Vec::new();
        for r in &window.read_spaces {
            for p in &prev {
                let inter = r.intersect(p)?;
                if !inter.is_empty()? {
                    retained_members.push(inter);
                }
            }
        }
        if retained_members.is_empty() {
            continue;
        }
        let retained_pieces = PolyUnion::from_members(retained_members)?.disjoint_pieces()?;
        // Delta: the window minus the whole predecessor window,
        // disjoint by construction (window pieces are disjoint and
        // each shrinks further).
        let mut delta_pieces = Vec::new();
        for piece in &window.read {
            delta_pieces.extend(difference_all(piece, &prev)?);
        }
        // Flush delta: move-out window minus the successor's writes.
        let next: Vec<Polyhedron> = (window.write_spaces.iter())
            .map(|w| shift_seq(w, seq_idx, 1))
            .collect();
        let mut flush_pieces = Vec::new();
        for piece in &window.write {
            flush_pieces.extend(difference_all(piece, &next)?);
        }
        let flush_legal = flush_delta_legal(program, plan, windows, g, seq_idx, &delta_pieces)?;
        let retained_scan = scan_pieces(&retained_pieces, &[0])?;
        let delta_scan = scan_pieces(&delta_pieces, &[0])?;
        let flush_scan = scan_pieces(&flush_pieces, &[0])?;
        plans.insert(
            mc.buffer,
            RetainPlan {
                retained_scan,
                delta_scan,
                flush_scan,
                flush_legal,
            },
        );
    }
    Ok(ResidencyPlan {
        seq_param: seq_param.to_string(),
        plans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smem::cache::analyze_symbolic;
    use crate::smem::movement::for_each_scan;
    use crate::smem::SmemConfig;
    use crate::tiling::transform::{tile_program, TileSpec};
    use polymem_ir::expr::v;
    use polymem_ir::{Expr, LinExpr, Program, ProgramBuilder};
    use std::collections::BTreeSet;

    /// Sliding 1-D window: Out[i] = A[i] + A[i+1] + A[i+2], i-tiles
    /// of 4 — consecutive tiles share two elements of A.
    fn tiled_window() -> Program {
        let mut b = ProgramBuilder::new("w", ["N"]);
        b.array("A", &[v("N") + 2]);
        b.array("Out", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("Out", &[v("i")])
            .read("A", &[v("i")])
            .read("A", &[v("i") + 1])
            .read("A", &[v("i") + 2])
            .body(Expr::add(
                Expr::add(Expr::Read(0), Expr::Read(1)),
                Expr::Read(2),
            ))
            .done();
        let p = b.build().unwrap();
        tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap()
    }

    fn symbolic_with_residency(p: &Program) -> (crate::smem::SymbolicPlan, Vec<i64>) {
        let n = 12i64;
        let cfg = SmemConfig {
            sample_params: vec![n],
            must_copy_all: true,
            residency_dim: Some("iT".to_string()),
            ..SmemConfig::default()
        };
        let sp = analyze_symbolic(p, &[("iT".to_string(), 1)], &cfg).unwrap();
        (sp, vec![n])
    }

    fn collect_region(f: impl Fn(&mut dyn FnMut(&[i64], &[i64]))) -> BTreeSet<Vec<i64>> {
        let mut set = BTreeSet::new();
        f(&mut |g, _| {
            assert!(set.insert(g.to_vec()), "duplicate element {g:?}");
        });
        set
    }

    #[test]
    fn retained_plus_delta_partition_the_window() {
        let t = tiled_window();
        let (sp, params) = symbolic_with_residency(&t);
        let res = sp.residency.as_ref().expect("residency planned");
        assert_eq!(res.seq_param, "iT");
        // The A buffer (read-only, sliding) must have a retain plan.
        let a = t.array_index("A").unwrap();
        let (mc, buf) = sp
            .plan
            .movement
            .iter()
            .map(|mc| (mc, &sp.plan.buffers[mc.buffer]))
            .find(|(_, b)| b.array == a)
            .unwrap();
        let rp = res.plans.get(&mc.buffer).expect("A group retains");
        for bt in 1..3 {
            let ext: Vec<i64> = params.iter().copied().chain([bt]).collect();
            let window = collect_region(|f| for_each_scan(&mc.move_in, buf, &ext, f).unwrap());
            let retained =
                collect_region(|f| for_each_scan(&rp.retained_scan, buf, &ext, f).unwrap());
            let delta = collect_region(|f| for_each_scan(&rp.delta_scan, buf, &ext, f).unwrap());
            // Disjoint and exactly covering.
            assert!(retained.is_disjoint(&delta), "tile {bt}");
            let union: BTreeSet<Vec<i64>> = retained.union(&delta).cloned().collect();
            assert_eq!(union, window, "tile {bt}");
            // Tiles of 4 with a +2 window: exactly 2 elements shared.
            assert_eq!(retained.len(), 2, "tile {bt}");
            // Every retained element sits in the predecessor window.
            let prev_ext: Vec<i64> = params.iter().copied().chain([bt - 1]).collect();
            let prev = collect_region(|f| for_each_scan(&mc.move_in, buf, &prev_ext, f).unwrap());
            assert!(retained.is_subset(&prev), "tile {bt}");
        }
    }

    #[test]
    fn flush_delta_excludes_successor_overwrites() {
        // Two in-place updates, A[i] and A[i+2], i-tiles of 4: tile t
        // writes [4t, 4t+5] and tile t+1 writes [4t+4, 4t+9], so the
        // flush delta is [4t, 4t+3] — 4 of the 6 flushed elements; the
        // other 2 get overwritten by the successor anyway.
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") + 2]);
        b.stmt("S1")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i")])
            .read("A", &[v("i")])
            .body(Expr::Read(0))
            .done();
        b.stmt("S2")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i") + 2])
            .read("A", &[v("i") + 2])
            .body(Expr::Read(0))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap();
        let cfg = SmemConfig {
            sample_params: vec![12],
            must_copy_all: true,
            residency_dim: Some("iT".to_string()),
            ..SmemConfig::default()
        };
        let sp = analyze_symbolic(&t, &[("iT".to_string(), 1)], &cfg).unwrap();
        let res = sp.residency.as_ref().unwrap();
        let a = t.array_index("A").unwrap();
        let mc = sp
            .plan
            .movement
            .iter()
            .find(|mc| sp.plan.buffers[mc.buffer].array == a)
            .unwrap();
        let rp = res.plans.get(&mc.buffer).expect("in-place group retains");
        let ext = [12i64, 1];
        let want: BTreeSet<Vec<i64>> = (4..8).map(|i| vec![i]).collect();
        let buf = &sp.plan.buffers[mc.buffer];
        let scanned = collect_region(|f| for_each_scan(&rp.flush_scan, buf, &ext, f).unwrap());
        assert_eq!(scanned, want);
        // Every skipped element is overwritten by the successor and
        // nothing reads it from global in between: legal to act on.
        assert!(rp.flush_legal, "in-place update chain is flush-legal");
    }

    #[test]
    fn successor_delta_read_denies_flush_delta() {
        // Tile t writes A[4t..4t+3] (S1) and A[4t+4..4t+7] (S2), and
        // S3 reads the sliding window A[4t..4t+4]. The skip set is
        // [4t+4, 4t+7]; the successor's delta move-in [4t+5, 4t+8]
        // would read skipped (unflushed) elements from global memory,
        // so the delta flush must be denied while retention itself
        // stays legal.
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") + 5]);
        b.array("B", &[v("N")]);
        b.array("C", &[v("N")]);
        b.stmt("S1")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i")])
            .read("B", &[v("i")])
            .body(Expr::Read(0))
            .done();
        b.stmt("S2")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i") + 4])
            .read("B", &[v("i")])
            .body(Expr::Read(0))
            .done();
        b.stmt("S3")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("C", &[v("i")])
            .read("A", &[v("i")])
            .read("A", &[v("i") + 1])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap();
        let cfg = SmemConfig {
            sample_params: vec![12],
            must_copy_all: true,
            residency_dim: Some("iT".to_string()),
            ..SmemConfig::default()
        };
        let sp = analyze_symbolic(&t, &[("iT".to_string(), 1)], &cfg).unwrap();
        let res = sp.residency.as_ref().unwrap();
        let a = t.array_index("A").unwrap();
        let mc = sp
            .plan
            .movement
            .iter()
            .find(|mc| sp.plan.buffers[mc.buffer].array == a && mc.move_in_count(&[12, 1]) > 0)
            .unwrap();
        let rp = res.plans.get(&mc.buffer).expect("sliding read retains");
        assert!(
            !rp.flush_legal,
            "successor delta reads skipped elements: must deny"
        );
    }

    #[test]
    fn unrewritten_read_denies_flush_delta() {
        // Same in-place update chain as the flush-delta test (legal
        // when everything is rewritten), but with the read rewrites
        // stripped: an unrewritten read fetches straight from global
        // memory and could observe a skipped flush at any distance.
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") + 2]);
        b.stmt("S1")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i")])
            .read("A", &[v("i")])
            .body(Expr::Read(0))
            .done();
        b.stmt("S2")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i") + 2])
            .read("A", &[v("i") + 2])
            .body(Expr::Read(0))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap();
        let sym = crate::smem::cache::parametrize_dims(&t, &["iT".to_string()]).unwrap();
        let cfg = SmemConfig {
            sample_params: vec![12, 1],
            must_copy_all: true,
            ..SmemConfig::default()
        };
        let (plan, _, windows) = crate::smem::analyze_program_windows(&sym, &cfg).unwrap();
        let res = plan_residency(&sym, &plan, &windows, "iT").unwrap();
        let rp = res.plans.values().next().expect("chain retains");
        assert!(rp.flush_legal, "fully rewritten chain is flush-legal");
        let mut crippled = plan.clone();
        crippled.rewrites.retain(|id, _| id.is_write());
        let res = plan_residency(&sym, &crippled, &windows, "iT").unwrap();
        let rp = res
            .plans
            .values()
            .next()
            .expect("retention itself stays legal");
        assert!(
            !rp.flush_legal,
            "unrewritten read must deny the delta flush"
        );
    }

    #[test]
    fn cross_buffer_write_overlap_denies_retention() {
        // Reads A[i], A[i+1] (sliding window [4T, 4T+4], which WOULD
        // retain its halo) and writes A[i+8] (window [4T+8, 4T+11]):
        // disjoint within a tile, so they form two buffers — but a
        // later tile's read window is an earlier tile's write window,
        // so a retained read copy would be stale. Legality must deny
        // retention for the read group.
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") + 8]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i") + 8])
            .read("A", &[v("i")])
            .read("A", &[v("i") + 1])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap();
        let cfg = SmemConfig {
            sample_params: vec![12],
            must_copy_all: true,
            residency_dim: Some("iT".to_string()),
            ..SmemConfig::default()
        };
        let sp = analyze_symbolic(&t, &[("iT".to_string(), 1)], &cfg).unwrap();
        let res = sp.residency.as_ref().expect("residency ran");
        let a = t.array_index("A").unwrap();
        for mc in &sp.plan.movement {
            if sp.plan.buffers[mc.buffer].array == a && mc.move_in_count(&[12, 1]) > 0 {
                assert!(
                    !res.plans.contains_key(&mc.buffer),
                    "stale cross-buffer retention must be denied"
                );
            }
        }
    }

    #[test]
    fn unrewritten_write_denies_retention() {
        // In-place stencil A[i] = A[i] + A[i+1], i-tiles of 4: one
        // buffer, write rewritten into it → retention of the sliding
        // halo is legal. Stripping the write rewrite (modelling a
        // write that bypasses the local store) must deny it.
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") + 1]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i")])
            .read("A", &[v("i")])
            .read("A", &[v("i") + 1])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap();
        let sym = crate::smem::cache::parametrize_dims(&t, &["iT".to_string()]).unwrap();
        let cfg = SmemConfig {
            sample_params: vec![12, 1],
            must_copy_all: true,
            ..SmemConfig::default()
        };
        let (plan, _, windows) = crate::smem::analyze_program_windows(&sym, &cfg).unwrap();
        let res = plan_residency(&sym, &plan, &windows, "iT").unwrap();
        assert!(!res.plans.is_empty(), "in-place stencil retains its halo");
        let mut crippled = plan.clone();
        crippled.rewrites.retain(|id, _| !id.is_write());
        let res = plan_residency(&sym, &crippled, &windows, "iT").unwrap();
        assert!(res.plans.is_empty(), "bypassing write must deny retention");
    }

    #[test]
    fn disjoint_tiles_retain_nothing() {
        // Out[i] = In[i] with 4-tiles: consecutive windows are
        // disjoint, so no retain plan is emitted at all.
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("In", &[v("N")]);
        b.array("Out", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("Out", &[v("i")])
            .read("In", &[v("i")])
            .body(Expr::Read(0))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap();
        let cfg = SmemConfig {
            sample_params: vec![12],
            must_copy_all: true,
            residency_dim: Some("iT".to_string()),
            ..SmemConfig::default()
        };
        let sp = analyze_symbolic(&t, &[("iT".to_string(), 1)], &cfg).unwrap();
        let res = sp.residency.as_ref().unwrap();
        assert!(res.is_empty());
    }
}
