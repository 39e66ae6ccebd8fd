//! Algorithm 2 — local buffer allocation.
//!
//! For a partition of data spaces, the paper takes the convex union,
//! finds the lower/upper bound of each dimension as an affine function
//! of the program parameters (via PIP), and allocates a local array of
//! size `Π (ub_k − lb_k + 1)`, preserving the dimension order of the
//! global array. Dimensions that do not appear in the convex union
//! polytope (they are affine functions of the others, e.g. the second
//! subscript of `A[i][i]`) are dropped from the buffer. Only the kept
//! dims are recorded: the rewritten accesses and the movement nests
//! address the buffer through them, so the paper's `H` rows (a dropped
//! dim's value over the kept ones) have no reader and are not stored.
//!
//! polymem represents each bound as a [`UnionBound`]: the union's
//! lower bound is the *min* over members of each member's (max-of-
//! affine) lower bound — exact, evaluated per parameter value, and
//! rendered symbolically as nested min/max in generated code. For the
//! common case (one member, one bound term) this degenerates to the
//! paper's single affine expression.

use super::dataspace::RefInfo;
use super::{BufferId, Result, SmemError};
use polymem_ir::Program;
use polymem_poly::bounds::{dim_bounds, AffineForm, BoundList};
use polymem_poly::{Constraint, ConstraintKind, Polyhedron};

/// A per-dimension bound of a union of data spaces.
#[derive(Clone, Debug)]
pub struct UnionBound {
    /// One (max-of-affine) lower bound list per member polyhedron.
    pub lowers: Vec<BoundList>,
    /// One (min-of-affine) upper bound list per member polyhedron.
    pub uppers: Vec<BoundList>,
}

impl UnionBound {
    /// Lower bound of the union at concrete parameters
    /// (min over members).
    pub fn eval_lower(&self, params: &[i64]) -> Option<i64> {
        let mut members = self.lowers.iter().map(|b| b.eval_lower(&[], params));
        let first = members.next()??;
        members.try_fold(first, |lo, v| Some(lo.min(v?)))
    }

    /// Upper bound of the union at concrete parameters
    /// (max over members).
    pub fn eval_upper(&self, params: &[i64]) -> Option<i64> {
        let mut members = self.uppers.iter().map(|b| b.eval_upper(&[], params));
        let first = members.next()??;
        members.try_fold(first, |hi, v| Some(hi.max(v?)))
    }

    /// Extent `ub − lb + 1` at concrete parameters (0 if inverted).
    pub fn extent(&self, params: &[i64]) -> Option<i64> {
        let lo = self.eval_lower(params)?;
        let hi = self.eval_upper(params)?;
        Some((hi - lo + 1).max(0))
    }

    /// Render the lower bound symbolically, e.g. `min(max(i0+1, 10), 2N)`.
    pub fn display_lower(&self, param_names: &[String]) -> String {
        render_combined(&self.lowers, param_names, "max", "min")
    }

    /// Render the upper bound symbolically.
    pub fn display_upper(&self, param_names: &[String]) -> String {
        render_combined(&self.uppers, param_names, "min", "max")
    }
}

/// If every list is a single divisor-free form and all forms share
/// their linear part, the min/max is the one with the smallest/largest
/// constant — fold it.
fn fold_same_linear(lists: &[BoundList], pick_max: bool) -> Option<AffineForm> {
    let mut best: Option<AffineForm> = None;
    for l in lists {
        if l.terms.len() != 1 || l.terms[0].div != 1 {
            return None;
        }
        let t = &l.terms[0];
        match &best {
            None => best = Some(t.clone()),
            Some(b) => {
                let n = t.coeffs.len();
                if b.coeffs[..n - 1] != t.coeffs[..n - 1] {
                    return None;
                }
                let better = if pick_max {
                    t.coeffs[n - 1] > b.coeffs[n - 1]
                } else {
                    t.coeffs[n - 1] < b.coeffs[n - 1]
                };
                if better {
                    best = Some(t.clone());
                }
            }
        }
    }
    best
}

fn render_combined(lists: &[BoundList], params: &[String], inner: &str, outer: &str) -> String {
    // min/max of forms sharing the linear part folds to one form.
    if let Some(f) = fold_same_linear(lists, outer == "max") {
        let none: Vec<String> = Vec::new();
        return f.display(&none, params);
    }
    // Constant bounds fold numerically (e.g. min(10, 20) prints as 10).
    if lists
        .iter()
        .all(|b| b.terms.iter().all(AffineForm::is_constant))
    {
        let fold = |b: &BoundList| -> Option<i64> {
            // All terms constant: any parameter values work; size the
            // vector from the coefficient row (ctx is empty here).
            let zeros = vec![
                0i64;
                b.terms
                    .first()
                    .map_or(0, |t| t.coeffs.len().saturating_sub(1))
            ];
            if inner == "max" {
                b.eval_lower(&[], &zeros)
            } else {
                b.eval_upper(&[], &zeros)
            }
        };
        let vals: Option<Vec<i64>> = lists.iter().map(fold).collect();
        if let Some(vals) = vals {
            let v = if outer == "min" {
                vals.into_iter().min()
            } else {
                vals.into_iter().max()
            };
            if let Some(v) = v {
                return v.to_string();
            }
        }
    }
    let none: Vec<String> = Vec::new();
    let mut rendered: Vec<String> = lists
        .iter()
        .map(|b| {
            let terms: Vec<String> = b.terms.iter().map(|t| t.display(&none, params)).collect();
            if terms.len() == 1 {
                terms.into_iter().next().expect("len checked")
            } else {
                format!("{inner}({})", terms.join(", "))
            }
        })
        .collect();
    rendered.sort();
    rendered.dedup();
    if rendered.len() == 1 {
        rendered.into_iter().next().expect("len checked")
    } else {
        format!("{outer}({})", rendered.join(", "))
    }
}

/// When both ends of a bound are a single divisor-free affine form,
/// the extent `ub − lb + 1` is itself affine; fold it for rendering.
fn symbolic_extent(b: &UnionBound) -> Option<AffineForm> {
    let lo = fold_same_linear(&b.lowers, false)?;
    let hi = fold_same_linear(&b.uppers, true)?;
    let mut coeffs: Vec<i64> = hi
        .coeffs
        .iter()
        .zip(lo.coeffs.iter())
        .map(|(h, l)| h - l)
        .collect();
    let last = coeffs.len().checked_sub(1)?;
    coeffs[last] += 1;
    Some(AffineForm {
        coeffs: coeffs.into(),
        div: 1,
    })
}

/// A local scratchpad buffer allocated for one partition of data
/// spaces of one array (the paper's `L_i`).
#[derive(Clone, Debug)]
pub struct LocalBuffer {
    /// Buffer id within the plan.
    pub id: BufferId,
    /// Index of the global array in the program.
    pub array: usize,
    /// Global array name (for rendering).
    pub array_name: String,
    /// Rank of the global array (`m` in the paper).
    pub n_array_dims: usize,
    /// Global-array dims present in the buffer, ascending (`n ≤ m`),
    /// preserving the global dimension order as the paper requires.
    /// The others are affine functions of these and the parameters.
    pub kept_dims: Vec<usize>,
    /// Per-kept-dim bounds of the convex union (defines size + offset).
    pub bounds: Vec<UnionBound>,
}

impl LocalBuffer {
    /// The typed error of kept dim `k` having no bound at some
    /// parameter value.
    fn unbounded(&self, k: usize) -> SmemError {
        SmemError::UnboundedBuffer {
            array: self.array_name.clone(),
            dim: self.kept_dims[k],
        }
    }

    /// The offset vector `g = (lb_1, …, lb_n)` at concrete parameters.
    pub fn offsets(&self, params: &[i64]) -> Result<Vec<i64>> {
        self.bounds
            .iter()
            .enumerate()
            .map(|(k, b)| b.eval_lower(params).ok_or_else(|| self.unbounded(k)))
            .collect()
    }

    /// Buffer extents (per kept dim) at concrete parameters.
    pub fn extents(&self, params: &[i64]) -> Result<Vec<i64>> {
        self.bounds
            .iter()
            .enumerate()
            .map(|(k, b)| b.extent(params).ok_or_else(|| self.unbounded(k)))
            .collect()
    }

    /// [`offsets`](LocalBuffer::offsets) and
    /// [`extents`](LocalBuffer::extents) into the caller's storage,
    /// each bound evaluated once, and the words they span
    /// ([`extent_words`]): an executor re-shapes the same register
    /// frames at every thread key, and holds the size against its
    /// capacity before it allocates anything of it.
    pub fn shape_into(
        &self,
        params: &[i64],
        offsets: &mut Vec<i64>,
        extents: &mut Vec<i64>,
    ) -> Result<u64> {
        offsets.clear();
        extents.clear();
        for (k, b) in self.bounds.iter().enumerate() {
            let ends = b.eval_lower(params).zip(b.eval_upper(params));
            let (lo, hi) = ends.ok_or_else(|| self.unbounded(k))?;
            offsets.push(lo);
            extents.push(hi.saturating_sub(lo).saturating_add(1).max(0));
        }
        Ok(extent_words(extents))
    }

    /// Total words of the buffer (`Π extents`) at concrete parameters.
    pub fn size_words(&self, params: &[i64]) -> Result<u64> {
        Ok(extent_words(&self.extents(params)?))
    }

    /// Declaration text, e.g. `LA[19][10];` (constant extents) or
    /// `LA[N + 1][M];` (parametric).
    pub fn render_decl(&self, param_names: &[String]) -> String {
        let mut s = format!("L{}", self.array_name);
        for (k, b) in self.bounds.iter().enumerate() {
            // extent = ub - lb + 1; render numerically when constant.
            let lo = b.eval_lower(&vec![0; param_names.len()]);
            let hi = b.eval_upper(&vec![0; param_names.len()]);
            let constant = self
                .bounds
                .get(k)
                .map(|ub| {
                    ub.lowers
                        .iter()
                        .chain(ub.uppers.iter())
                        .all(|l| l.terms.iter().all(AffineForm::is_constant))
                })
                .unwrap_or(false);
            if constant {
                if let (Some(lo), Some(hi)) = (lo, hi) {
                    s.push_str(&format!("[{}]", hi - lo + 1));
                    continue;
                }
            }
            // Single affine bound on each end: fold `ub - lb + 1`
            // symbolically (renders `LA[N]` instead of
            // `LA[N - 1 - (0) + 1]`).
            if let Some(extent) = symbolic_extent(b) {
                let none: Vec<String> = Vec::new();
                s.push_str(&format!("[{}]", extent.display(&none, param_names)));
                continue;
            }
            s.push_str(&format!(
                "[{} - ({}) + 1]",
                b.display_upper(param_names),
                b.display_lower(param_names)
            ));
        }
        s.push(';');
        s
    }
}

/// Words of a buffer with these extents: their product, checked —
/// past `u64` it saturates at `u64::MAX`, a size no capacity admits,
/// never wraps to a small one.
pub fn extent_words(extents: &[i64]) -> u64 {
    extents
        .iter()
        .fold(1u64, |w, &e| w.saturating_mul(e.max(0) as u64))
}

/// Allocate the local buffer for a partition of references
/// (Algorithm 2, steps 6–9).
pub fn allocate_buffer(
    program: &Program,
    array_idx: usize,
    id: BufferId,
    members: &[&RefInfo],
) -> Result<LocalBuffer> {
    let arr = &program.arrays[array_idx];
    let m = arr.rank();
    let spaces: Vec<&Polyhedron> = members.iter().map(|r| &r.data_space).collect();

    // Dims of the convex union fixed by equalities shared across all
    // members are dropped from the buffer.
    let dropped = find_dropped_dims(&spaces, m);
    let kept_dims: Vec<usize> = (0..m).filter(|d| !dropped.contains(d)).collect();

    let mut bounds = Vec::with_capacity(kept_dims.len());
    for &d in &kept_dims {
        let mut lowers = Vec::with_capacity(spaces.len());
        let mut uppers = Vec::with_capacity(spaces.len());
        for ds in &spaces {
            let b = dim_bounds(ds, d, 0)?;
            if b.lower.is_unbounded() || b.upper.is_unbounded() {
                return Err(SmemError::UnboundedBuffer {
                    array: arr.name.clone(),
                    dim: d,
                });
            }
            lowers.push(b.lower);
            uppers.push(b.upper);
        }
        bounds.push(UnionBound { lowers, uppers });
    }

    Ok(LocalBuffer {
        id,
        array: array_idx,
        array_name: arr.name.clone(),
        n_array_dims: m,
        kept_dims,
        bounds,
    })
}

/// Find dims expressible as affine functions of the *other* dims via
/// equalities present in every member data space. Greedy, highest
/// dim first (keeps lower dims — the global order — in the buffer).
fn find_dropped_dims(spaces: &[&Polyhedron], m: usize) -> Vec<usize> {
    let Some((first, rest)) = spaces.split_first() else {
        return Vec::new();
    };
    // Equalities common to all members (compared as normalised rows).
    let mut common: Vec<&Constraint> = first
        .constraints()
        .iter()
        .filter(|c| c.kind == ConstraintKind::Eq)
        .collect();
    for ds in rest {
        common.retain(|c| {
            ds.constraints()
                .iter()
                .any(|d| d.kind == ConstraintKind::Eq && d.coeffs == c.coeffs)
        });
    }
    // Pick dims such that each equality solves one dim with |coeff| = 1
    // and never references a previously dropped dim.
    let mut dropped: Vec<usize> = Vec::new();
    for c in common {
        let candidate = (0..m)
            .rev()
            .find(|&j| c.coeff(j).abs() == 1 && !dropped.contains(&j));
        let Some(j) = candidate else { continue };
        if (0..m).any(|k| k != j && c.coeff(k) != 0 && dropped.contains(&k)) {
            continue;
        }
        dropped.push(j);
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smem::dataspace::collect_refs;
    use polymem_ir::expr::v;
    use polymem_ir::{Expr, LinExpr, Program, ProgramBuilder};

    fn alloc_for(p: &Program, array: &str) -> LocalBuffer {
        let ai = p.array_index(array).unwrap();
        let refs = collect_refs(p, ai).unwrap();
        let members: Vec<&_> = refs.iter().collect();
        allocate_buffer(p, ai, 0, &members).unwrap()
    }

    #[test]
    fn simple_window_buffer() {
        // for i in [0, N-1]: Out[i] = A[i] + A[i+2]
        // Buffer covers [0, N+1]: extent N+2.
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") + 2]);
        b.array("Out", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("Out", &[v("i")])
            .read("A", &[v("i")])
            .read("A", &[v("i") + 2])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let buf = alloc_for(&p, "A");
        assert_eq!(buf.kept_dims, vec![0]);
        assert_eq!(buf.offsets(&[10]).unwrap(), vec![0]);
        assert_eq!(buf.extents(&[10]).unwrap(), vec![12]);
        assert_eq!(buf.size_words(&[10]).unwrap(), 12);
        // The in-place shape is the same three answers, in storage
        // that held another shape before.
        let (mut offsets, mut extents) = (vec![9, 9], vec![9]);
        assert_eq!(
            buf.shape_into(&[10], &mut offsets, &mut extents).unwrap(),
            12
        );
        assert_eq!((offsets, extents), (vec![0], vec![12]));
    }

    #[test]
    fn sizes_saturate_instead_of_wrapping() {
        assert_eq!(extent_words(&[3, 4, 5]), 60);
        assert_eq!(extent_words(&[]), 1);
        // 2^62 · 4 = 2^64: wraps `i64` to 0 and `u64` to 0.
        assert_eq!(extent_words(&[1 << 62, 4]), u64::MAX);
        assert_eq!(extent_words(&[i64::MAX, i64::MAX, 0]), 0);
    }

    #[test]
    fn offset_follows_lower_bound() {
        // for i in [10, 14]: Out[i-10] = A[i] — buffer offset 10, extent 5.
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[LinExpr::c(100)]);
        b.array("Out", &[LinExpr::c(100)]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(10), LinExpr::c(14))])
            .write("Out", &[v("i") - 10])
            .read("A", &[v("i")])
            .body(Expr::Read(0))
            .done();
        let p = b.build().unwrap();
        let buf = alloc_for(&p, "A");
        assert_eq!(buf.offsets(&[0]).unwrap(), vec![10]);
        assert_eq!(buf.extents(&[0]).unwrap(), vec![5]);
        assert_eq!(buf.render_decl(&p.params), "LA[5];");
    }

    #[test]
    fn diagonal_access_drops_a_dimension() {
        // for i in [0, N-1]: Out[i] = D[i][i] — D's buffer is 1-D.
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("D", &[v("N"), v("N")]);
        b.array("Out", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("Out", &[v("i")])
            .read("D", &[v("i"), v("i")])
            .body(Expr::Read(0))
            .done();
        let p = b.build().unwrap();
        let buf = alloc_for(&p, "D");
        // Dim 1 equals dim 0 on the diagonal, so only dim 0 is kept.
        assert_eq!(buf.kept_dims, vec![0]);
        assert_eq!(buf.size_words(&[8]).unwrap(), 8);
    }

    #[test]
    fn union_bounds_take_min_and_max_across_members() {
        // Two disjoint windows forced into one buffer (single
        // partition): A[i] over [0, N-1] and A[i + 2N] over [2N, 3N-1].
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N") * 3]);
        b.array("Out", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("Out", &[v("i")])
            .read("A", &[v("i")])
            .read("A", &[v("i") + v("N") * 2])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let buf = alloc_for(&p, "A");
        // Union spans [0, 3N-1]: extent 3N.
        assert_eq!(buf.offsets(&[10]).unwrap(), vec![0]);
        assert_eq!(buf.extents(&[10]).unwrap(), vec![30]);
    }

    #[test]
    fn parametric_rendering() {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N")]);
        b.array("Out", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("Out", &[v("i")])
            .read("A", &[v("i")])
            .body(Expr::Read(0))
            .done();
        let p = b.build().unwrap();
        let buf = alloc_for(&p, "A");
        let decl = buf.render_decl(&p.params);
        assert!(decl.starts_with("LA["), "{decl}");
        assert!(decl.contains('N'), "{decl}");
    }
}
