//! Strided (flat-offset) lowering of affine accesses.
//!
//! The compiled block execution engine replaces per-point
//! `AffineMap::apply` + multi-index bounds checks with a single flat
//! offset per access, updated incrementally as the instance iterator
//! carries. This module provides the machinery:
//!
//! * [`LoweredRow`] — one output dimension of an affine access split
//!   into coefficients over the *enumerated* dims (the kept symbolic
//!   block dims), coefficients over the *extended* parameters
//!   (program params followed by the fixed block-origin dims), and a
//!   constant — exactly the column layout
//!   [`parametrize_dims`](crate::smem::cache::parametrize_dims)
//!   produces;
//! * [`prove_flat`] — per block (per thread key for a register
//!   frame), collapse rows × row-major weights into a base offset and
//!   per-dim strides *and prove them safe*: every row must
//!   stay inside its target extent over the enumerated box, and every
//!   partial sum of the strided walk must stay in `i64`. If any proof
//!   fails the caller keeps a guarded (checked-per-point) path.
//!
//! All arithmetic here is checked: an overflow never produces a wrong
//! offset, it produces `None`, which downgrades the access to the
//! guarded path.

use polymem_poly::AffineMap;

/// One output dimension of an affine access in lowered form: the
/// value is `Σ kcoef[k]·point[k] + Σ pcoef[p]·ext_params[p] + konst`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoweredRow {
    /// Coefficients over the enumerated (kept) dims.
    pub kcoef: Vec<i64>,
    /// Coefficients over the extended parameters.
    pub pcoef: Vec<i64>,
    /// Constant term.
    pub konst: i64,
}

impl LoweredRow {
    /// The row's parameter-dependent constant at concrete extended
    /// parameter values, i.e. its value at `point = 0`. `None` on
    /// overflow.
    pub fn constant_at(&self, ext_params: &[i64]) -> Option<i64> {
        let mut acc = self.konst;
        for (&c, &p) in self.pcoef.iter().zip(ext_params) {
            acc = acc.checked_add(c.checked_mul(p)?)?;
        }
        Some(acc)
    }

    /// Evaluate the row at a concrete point (checked).
    pub fn eval(&self, point: &[i64], ext_params: &[i64]) -> Option<i64> {
        let mut acc = self.constant_at(ext_params)?;
        for (&c, &x) in self.kcoef.iter().zip(point) {
            acc = acc.checked_add(c.checked_mul(x)?)?;
        }
        Some(acc)
    }

    /// Interval of the row over a per-dim box of the enumerated dims
    /// (`boxes[k] = (lo, hi)`, inclusive). `None` on overflow.
    pub fn interval(&self, boxes: &[(i64, i64)], ext_params: &[i64]) -> Option<(i64, i64)> {
        let mut lo = self.constant_at(ext_params)?;
        let mut hi = lo;
        for (&c, &(blo, bhi)) in self.kcoef.iter().zip(boxes) {
            let (a, b) = mul_interval(c, blo, bhi)?;
            lo = lo.checked_add(a)?;
            hi = hi.checked_add(b)?;
        }
        Some((lo, hi))
    }
}

/// `(c·lo, c·hi)` sorted, checked.
fn mul_interval(c: i64, lo: i64, hi: i64) -> Option<(i64, i64)> {
    let a = c.checked_mul(lo)?;
    let b = c.checked_mul(hi)?;
    Some((a.min(b), a.max(b)))
}

/// Split an affine map with column layout `[dims, params, 1]` into
/// one [`LoweredRow`] per output dimension.
pub fn lower_rows(map: &AffineMap) -> Vec<LoweredRow> {
    let n_in = map.n_in();
    let n_par = map.in_space().n_params();
    let m = map.matrix();
    (0..m.rows())
        .map(|r| {
            let row = m.row(r);
            LoweredRow {
                kcoef: row[..n_in].to_vec(),
                pcoef: row[n_in..n_in + n_par].to_vec(),
                konst: row[n_in + n_par],
            }
        })
        .collect()
}

/// [`lower_rows`] for a map whose inputs are the dims `from` of a
/// wider enumeration over the dims `onto` (original dim indices, both
/// ascending): coefficients land at their dim's position in `onto`,
/// and the dims of `onto` the map does not read get 0. `None` when the
/// map reads a dim `onto` does not enumerate.
///
/// This is how a register-frame access — affine in the intra-thread
/// subnest, with the thread dims among its parameters — rides the
/// level-1 instance cursor, which enumerates the thread dims too.
pub fn lower_rows_onto(map: &AffineMap, from: &[usize], onto: &[usize]) -> Option<Vec<LoweredRow>> {
    let at = from
        .iter()
        .map(|d| onto.iter().position(|o| o == d))
        .collect::<Option<Vec<_>>>()?;
    if at.len() != map.n_in() {
        return None;
    }
    let mut rows = lower_rows(map);
    for row in &mut rows {
        let mut kcoef = vec![0i64; onto.len()];
        for (&k, &c) in at.iter().zip(&row.kcoef) {
            kcoef[k] = c;
        }
        row.kcoef = kcoef;
    }
    Some(rows)
}

/// A proven strided address stream: the flat offset of the access at
/// an enumerated point `p` is `base + Σ strides[k]·p[k]`, guaranteed
/// in-bounds and overflow-free for every point of the proven box.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatAffine {
    /// Flat offset at `p = 0` (already relative to the buffer
    /// origin, i.e. the target's per-dim offsets are subtracted).
    pub base: i64,
    /// Per-enumerated-dim flat strides.
    pub strides: Vec<i64>,
}

/// Try to lower an access (its [`LoweredRow`]s) into a proven
/// [`FlatAffine`] for one block.
///
/// * `ext_params` — concrete extended parameter values for the block;
/// * `extents`/`offsets` — the target storage's per-dim extents
///   (flattened row-major: row `r` weighs `Π extents[r+1..]`) and
///   origin (`offsets = None` ⇒ all zero, the global-array case);
/// * `boxes` — inclusive per-dim bounds of the enumerated dims,
///   covering every point the block will visit.
///
/// Returns `None` (caller keeps a guarded path) unless it can prove,
/// for every point in the box: each row lands inside
/// `[offset_r, offset_r + extent_r)`, every weight and every partial
/// sum of `base + Σ strides[k]·p[k]` stays in `i64`. Per-row
/// containment is what makes the flat offset equal the multi-index
/// flattening — the final sum needs no separate range check.
pub fn prove_flat(
    rows: &[LoweredRow],
    ext_params: &[i64],
    extents: &[i64],
    offsets: Option<&[i64]>,
    boxes: &[(i64, i64)],
) -> Option<FlatAffine> {
    if rows.len() != extents.len() {
        return None;
    }
    let n_dims = boxes.len();
    if boxes.iter().any(|&(lo, hi)| lo > hi) {
        // Empty box: the block visits no point of this statement, so
        // any stream is vacuously safe (it will never be evaluated).
        return Some(FlatAffine {
            base: 0,
            strides: vec![0; n_dims],
        });
    }
    let mut base = 0i64;
    let mut strides = vec![0i64; n_dims];
    // Innermost row first, so its weight is the running product.
    let mut w = 1i64;
    for (r, row) in rows.iter().enumerate().rev() {
        if row.kcoef.len() != n_dims {
            return None;
        }
        let off_r = offsets.map_or(0, |o| o[r]);
        // Row containment proof over the box.
        let (lo, hi) = row.interval(boxes, ext_params)?;
        if lo < off_r || hi >= off_r.checked_add(extents[r])? {
            return None;
        }
        // Fold this row into the flat base/strides.
        let c0 = row.constant_at(ext_params)?.checked_sub(off_r)?;
        base = base.checked_add(w.checked_mul(c0)?)?;
        for (k, &c) in row.kcoef.iter().enumerate() {
            strides[k] = strides[k].checked_add(w.checked_mul(c)?)?;
        }
        if r > 0 {
            w = w.checked_mul(extents[r])?;
        }
    }
    // No-overflow proof for the incremental walk: every partial sum
    // `base + Σ_{k<j} strides[k]·p[k]` must stay in i64 over the box.
    let mut lo = base;
    let mut hi = base;
    for (k, &s) in strides.iter().enumerate() {
        let (blo, bhi) = boxes[k];
        let (a, b) = mul_interval(s, blo, bhi)?;
        lo = lo.checked_add(a)?;
        hi = hi.checked_add(b)?;
    }
    Some(FlatAffine { base, strides })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(kcoef: &[i64], pcoef: &[i64], konst: i64) -> LoweredRow {
        LoweredRow {
            kcoef: kcoef.to_vec(),
            pcoef: pcoef.to_vec(),
            konst,
        }
    }

    #[test]
    fn weights_are_row_major() {
        // A[i][j][k] over a 3×4×5 array: strides 20, 5, 1.
        let rows = [
            row(&[1, 0, 0], &[], 0),
            row(&[0, 1, 0], &[], 0),
            row(&[0, 0, 1], &[], 0),
        ];
        let boxes = [(0i64, 2i64), (0, 3), (0, 4)];
        let fa = prove_flat(&rows, &[], &[3, 4, 5], None, &boxes).unwrap();
        assert_eq!((fa.base, fa.strides), (0, vec![20, 5, 1]));
        // An inner-array size past i64 leaves the access guarded, and
        // so does an extent no row can land inside.
        let pin = [row(&[0], &[], 0), row(&[0], &[], 0), row(&[0], &[], 0)];
        assert!(prove_flat(&pin, &[], &[2, i64::MAX, i64::MAX], None, &[(0, 0)]).is_none());
        assert!(prove_flat(&pin[..2], &[], &[2, -1], None, &[(0, 0)]).is_none());
    }

    #[test]
    fn rows_scatter_onto_a_wider_enumeration() {
        use polymem_poly::Space;
        // F(j, k) = (j + 2t, k + 1) with t a parameter, riding a cursor
        // over dims (1: t, 3: j, 4: k): t's column is 0, it enters
        // through the parameters.
        let from = Space::new(["j", "k"], ["t"]);
        let to = Space::new(["a", "b"], ["t"]);
        let map = AffineMap::from_rows(from, to, &[&[1, 0, 2, 0], &[0, 1, 0, 1]]);
        let rows = lower_rows_onto(&map, &[3, 4], &[1, 3, 4]).unwrap();
        assert_eq!(rows[0], row(&[0, 1, 0], &[2], 0));
        assert_eq!(rows[1], row(&[0, 0, 1], &[0], 1));
        assert_eq!(rows[0].eval(&[9, 5, 6], &[7]), Some(5 + 14));
        // A dim the cursor does not enumerate cannot be lowered.
        assert!(lower_rows_onto(&map, &[3, 4], &[1, 3]).is_none());
    }

    #[test]
    fn proven_stream_matches_pointwise_flattening() {
        // A[i+1][j+p] over i in 0..3, j in 0..4, extents 5×8, p = 2.
        let rows = [row(&[1, 0], &[0], 1), row(&[0, 1], &[1], 0)];
        let ext = [5i64, 8];
        let boxes = [(0i64, 3i64), (0i64, 4i64)];
        let fa = prove_flat(&rows, &[2], &ext, None, &boxes).unwrap();
        for i in 0..=3 {
            for j in 0..=4 {
                let flat = fa.base + fa.strides[0] * i + fa.strides[1] * j;
                let want = (i + 1) * 8 + (j + 2);
                assert_eq!(flat, want, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn offsets_shift_the_base() {
        // Local buffer with origin g = (2, 3): L[(i) - 2][(j) - 3].
        let rows = [row(&[1, 0], &[], 0), row(&[0, 1], &[], 0)];
        let ext = [4i64, 4];
        let boxes = [(2i64, 5i64), (3i64, 6i64)];
        let fa = prove_flat(&rows, &[], &ext, Some(&[2, 3]), &boxes).unwrap();
        assert_eq!(fa.base + fa.strides[0] * 2 + fa.strides[1] * 3, 0);
        assert_eq!(fa.base + fa.strides[0] * 5 + fa.strides[1] * 6, 15);
    }

    #[test]
    fn out_of_extent_row_fails_the_proof() {
        // A[i+1] over i in 0..4 against extent 4: i = 3 lands at 4.
        let rows = [row(&[1], &[], 1)];
        assert!(prove_flat(&rows, &[], &[4], None, &[(0, 3)]).is_none());
        // In-extent variant passes.
        assert!(prove_flat(&rows, &[], &[4], None, &[(0, 2)]).is_some());
    }

    #[test]
    fn overflow_in_any_step_fails_the_proof() {
        let rows = [row(&[i64::MAX / 2], &[], 0)];
        assert!(prove_flat(&rows, &[], &[i64::MAX], None, &[(0, 4)]).is_none());
    }

    #[test]
    fn empty_box_is_trivially_proven() {
        // lo > hi: the block visits nothing, so even a wildly
        // out-of-extent row proves (it will never be evaluated).
        let rows = [row(&[1], &[], 1_000_000)];
        let fa = prove_flat(&rows, &[], &[4], None, &[(3, 0)]);
        assert!(fa.is_some());
    }
}
