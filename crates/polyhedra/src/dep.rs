//! Dependence polyhedra.
//!
//! A dependence from statement instance `s(is)` to `t(it)` exists when
//! both are valid points of their iteration polytopes, they touch the
//! same array element, and `is` executes before `it` (Section 2 of the
//! paper). All three conditions are affine here, so each dependence is
//! a polyhedron over the product space `[src dims, dst dims]`.
//!
//! Execution order is encoded the classic way, split by *dependence
//! level*: for each common loop depth `l`, one polyhedron with
//! `is[0..l] = it[0..l]` and `is[l] < it[l]`; plus, when the source
//! statement precedes the target textually inside the innermost common
//! loop, one polyhedron with all common dims equal.
//!
//! Downstream users: tiling legality reads per-loop [`DirSign`]s;
//! the §3.1.4 copy-in/copy-out optimisation restricts the source or
//! target side to a block and projects.

use crate::constraint::Constraint;
use crate::map::AffineMap;
use crate::set::Polyhedron;
use crate::{PolyError, Result};

/// Classification of a data dependence by access kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DepKind {
    /// Write → read (true/flow dependence).
    Flow,
    /// Read → write.
    Anti,
    /// Write → write.
    Output,
    /// Read → read (not a real dependence; tracked for reuse analysis).
    Input,
}

/// Sign of `it[l] - is[l]` over a dependence polyhedron.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DirSign {
    /// Always negative (`<`): the loop carries the dependence backwards.
    Neg,
    /// Always zero (`=`): dependence independent of the loop.
    Zero,
    /// Always positive (`>`): forward-carried.
    Pos,
    /// Mixed signs (`*`).
    Star,
    /// The dependence polyhedron is empty.
    Empty,
}

impl DirSign {
    /// True iff the component is non-negative (`0` or `+` or empty):
    /// the condition each loop of a permutable band must satisfy for
    /// every dependence.
    pub fn is_non_negative(&self) -> bool {
        matches!(self, DirSign::Zero | DirSign::Pos | DirSign::Empty)
    }
}

/// One dependence between two statement instances.
#[derive(Clone, Debug)]
pub struct Dependence {
    /// Access-kind classification.
    pub kind: DepKind,
    /// Index of the source statement (caller-defined numbering).
    pub src_stmt: usize,
    /// Index of the target statement.
    pub dst_stmt: usize,
    /// Name of the array inducing the dependence.
    pub array: String,
    /// The dependence polyhedron over `[src dims, dst dims]` + params.
    pub poly: Polyhedron,
    /// Number of source dims (the first `n_src` dims of `poly`).
    pub n_src: usize,
}

impl Dependence {
    /// Project onto the source dims.
    pub fn src_instances(&self) -> Result<Polyhedron> {
        let keep: Vec<usize> = (0..self.n_src).collect();
        self.poly.project_onto(&keep)
    }

    /// Project onto the target dims.
    pub fn dst_instances(&self) -> Result<Polyhedron> {
        let keep: Vec<usize> = (self.n_src..self.poly.n_dims()).collect();
        self.poly.project_onto(&keep)
    }

    /// Restrict the source side to a set over the source space.
    pub fn constrain_src(&self, set: &Polyhedron) -> Result<Dependence> {
        Ok(Dependence {
            poly: constrain_side(&self.poly, set, 0, self.n_src)?,
            ..self.clone()
        })
    }

    /// Restrict the target side to a set over the target space.
    pub fn constrain_dst(&self, set: &Polyhedron) -> Result<Dependence> {
        Ok(Dependence {
            poly: constrain_side(&self.poly, set, self.n_src, self.poly.n_dims() - self.n_src)?,
            ..self.clone()
        })
    }

    /// Direction sign of shared loop `l` (`it[l] - is[l]`), assuming
    /// loop `l` is dim `l` on both sides.
    pub fn direction(&self, l: usize) -> Result<DirSign> {
        let n = self.poly.n_dims();
        let n_dst = n - self.n_src;
        if l >= self.n_src || l >= n_dst {
            return Err(PolyError::BadDim { dim: l, n_dims: n });
        }
        if self.poly.is_empty()? {
            return Ok(DirSign::Empty);
        }
        let ncols = self.poly.space().n_cols();
        let delta = |sign: i64, shift: i64| {
            // sign * (it_l - is_l) + shift >= 0
            let mut row = vec![0i64; ncols];
            row[self.n_src + l] = sign;
            row[l] = -sign;
            row[ncols - 1] = shift;
            Constraint::ineq(row)
        };
        let mut can_neg = self.poly.clone();
        can_neg.add_constraint(delta(-1, -1)); // it - is <= -1
        let mut can_zero = self.poly.clone();
        can_zero.add_constraint(delta(1, 0));
        can_zero.add_constraint(delta(-1, 0)); // it - is == 0
        let mut can_pos = self.poly.clone();
        can_pos.add_constraint(delta(1, -1)); // it - is >= 1
        let neg = !can_neg.is_empty()?;
        let zero = !can_zero.is_empty()?;
        let pos = !can_pos.is_empty()?;
        Ok(match (neg, zero, pos) {
            (true, false, false) => DirSign::Neg,
            (false, true, false) => DirSign::Zero,
            (false, false, true) => DirSign::Pos,
            (false, false, false) => DirSign::Empty,
            _ => DirSign::Star,
        })
    }
}

/// Intersect `poly`'s dims `[offset, offset+width)` with `set`.
fn constrain_side(
    poly: &Polyhedron,
    set: &Polyhedron,
    offset: usize,
    width: usize,
) -> Result<Polyhedron> {
    if set.n_dims() != width || set.n_params() != poly.n_params() {
        return Err(PolyError::SpaceMismatch {
            op: "constrain_side",
        });
    }
    let n = poly.n_dims();
    let ncols = poly.space().n_cols();
    let mut out = poly.clone();
    for c in set.constraints() {
        let mut row = vec![0i64; ncols];
        for j in 0..width {
            row[offset + j] = c.coeff(j);
        }
        for j in 0..(poly.n_params() + 1) {
            row[n + j] = c.coeff(width + j);
        }
        out.add_constraint(Constraint {
            coeffs: row.into(),
            kind: c.kind,
        });
    }
    Ok(out)
}

/// The pairs of a source and a target instance that touch one element,
/// `F_src(is) = F_dst(it)` over `src_dom × dst_dom`, in the product
/// space `s_* ++ t_*` over the shared parameters: the polyhedron every
/// dependence level restricts.
pub fn access_pairs(
    src_dom: &Polyhedron,
    dst_dom: &Polyhedron,
    f_src: &AffineMap,
    f_dst: &AffineMap,
) -> Result<Polyhedron> {
    if f_src.n_out() != f_dst.n_out() {
        return Err(PolyError::SpaceMismatch { op: "access_pairs" });
    }
    let n_src = src_dom.n_dims();
    let n_dst = dst_dom.n_dims();
    let n_params = src_dom.n_params();
    let src_space = src_dom.space().with_dim_prefix("s_");
    let dst_space = dst_dom.space().with_dim_prefix("t_");
    let space = src_space.product(&dst_space);
    let ncols = space.n_cols();

    let mut base_rows: Vec<Constraint> = Vec::new();
    // Both instances valid.
    for c in src_dom.constraints() {
        let mut row = vec![0i64; ncols];
        row[..n_src].copy_from_slice(&c.coeffs[..n_src]);
        for j in 0..(n_params + 1) {
            row[n_src + n_dst + j] = c.coeff(n_src + j);
        }
        base_rows.push(Constraint {
            coeffs: row.into(),
            kind: c.kind,
        });
    }
    for c in dst_dom.constraints() {
        let mut row = vec![0i64; ncols];
        row[n_src..n_src + n_dst].copy_from_slice(&c.coeffs[..n_dst]);
        for j in 0..(n_params + 1) {
            row[n_src + n_dst + j] = c.coeff(n_dst + j);
        }
        base_rows.push(Constraint {
            coeffs: row.into(),
            kind: c.kind,
        });
    }
    // Same array element: F_src(is) = F_dst(it), row per array dim.
    for r in 0..f_src.n_out() {
        let ms = f_src.matrix();
        let mt = f_dst.matrix();
        let mut row = vec![0i64; ncols];
        for j in 0..n_src {
            row[j] = ms[(r, j)];
        }
        for j in 0..n_dst {
            row[n_src + j] -= mt[(r, j)];
        }
        for j in 0..(n_params + 1) {
            row[n_src + n_dst + j] = ms[(r, n_src + j)] - mt[(r, n_dst + j)];
        }
        base_rows.push(Constraint::eq(row));
    }
    Ok(Polyhedron::new(space, base_rows))
}

/// Build the dependence polyhedra between a source and target access.
///
/// * `src_dom`, `dst_dom` — iteration polytopes (shared params);
/// * `f_src`, `f_dst` — access maps into the same array space;
/// * `common` — number of shared outer loops (dims `0..common` on both
///   sides refer to the same loops);
/// * `src_textually_before` — whether the source statement appears
///   before the target inside the innermost common loop (enables the
///   all-equal level); for `src == dst` statement self-dependences pass
///   `false`.
///
/// Returns one [`Dependence`] per non-empty level.
#[allow(clippy::too_many_arguments)]
pub fn dependence_polyhedra(
    kind: DepKind,
    src_stmt: usize,
    dst_stmt: usize,
    array: &str,
    src_dom: &Polyhedron,
    dst_dom: &Polyhedron,
    f_src: &AffineMap,
    f_dst: &AffineMap,
    common: usize,
    src_textually_before: bool,
) -> Result<Vec<Dependence>> {
    let base = access_pairs(src_dom, dst_dom, f_src, f_dst)?;
    let (n_src, ncols) = (src_dom.n_dims(), base.space().n_cols());

    let mut out = Vec::new();
    let mut push_level = |poly: Polyhedron| -> Result<()> {
        if !poly.is_empty()? {
            out.push(Dependence {
                kind,
                src_stmt,
                dst_stmt,
                array: array.to_string(),
                poly,
                n_src,
            });
        }
        Ok(())
    };

    for l in 0..common {
        // is[0..l] = it[0..l], is[l] <= it[l] - 1.
        let mut p = base.clone();
        for j in 0..l {
            let mut row = vec![0i64; ncols];
            row[j] = 1;
            row[n_src + j] = -1;
            p.add_constraint(Constraint::eq(row));
        }
        let mut row = vec![0i64; ncols];
        row[l] = -1;
        row[n_src + l] = 1;
        row[ncols - 1] = -1;
        p.add_constraint(Constraint::ineq(row));
        push_level(p)?;
    }
    if src_textually_before {
        let mut p = base.clone();
        for j in 0..common {
            let mut row = vec![0i64; ncols];
            row[j] = 1;
            row[n_src + j] = -1;
            p.add_constraint(Constraint::eq(row));
        }
        push_level(p)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;

    fn line_domain(n: &str) -> Polyhedron {
        // { i : 1 <= i <= N }
        Polyhedron::new(
            Space::new(["i"], [n]),
            vec![
                Constraint::ineq(vec![1, 0, -1]),
                Constraint::ineq(vec![-1, 1, 0]),
            ],
        )
    }

    fn access(rows: &[&[i64]], dom: &Polyhedron, n_out: usize) -> AffineMap {
        let out = Space::new(
            (0..n_out).map(|i| format!("a{i}")),
            dom.space().params().to_vec(),
        );
        AffineMap::from_rows(dom.space().clone(), out, rows)
    }

    #[test]
    fn stencil_flow_dependence_has_distance_one() {
        // for i: A[i] = A[i-1]  — flow dep from write A[i] at i to read
        // A[i-1] at i+1, carried by the loop with distance +1.
        let dom = line_domain("N");
        let write = access(&[&[1, 0, 0]], &dom, 1); // A[i]
        let read = access(&[&[1, 0, -1]], &dom, 1); // A[i-1]
        let deps = dependence_polyhedra(
            DepKind::Flow,
            0,
            0,
            "A",
            &dom,
            &dom,
            &write,
            &read,
            1,
            false,
        )
        .unwrap();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].direction(0).unwrap(), DirSign::Pos);
        // The polyhedron contains (is, it) = (1, 2) but not (2, 2).
        assert!(deps[0].poly.contains(&[1, 2], &[10]));
        assert!(!deps[0].poly.contains(&[2, 2], &[10]));
        assert!(!deps[0].poly.contains(&[2, 4], &[10])); // different element
    }

    #[test]
    fn independent_accesses_have_no_dependence() {
        // A[i] written and A[i + N] read never alias for i in [1, N].
        let dom = line_domain("N");
        let write = access(&[&[1, 0, 0]], &dom, 1);
        let read = access(&[&[1, 1, 0]], &dom, 1);
        let mut deps = dependence_polyhedra(
            DepKind::Flow,
            0,
            0,
            "A",
            &dom,
            &dom,
            &write,
            &read,
            1,
            false,
        )
        .unwrap();
        // Level polyhedra must be empty once N >= 1 context applies;
        // without a context the polyhedron can only be satisfied with
        // N <= 0, which contradicts 1 <= i <= N emptiness... verify:
        deps.retain(|d| !d.poly.is_empty().unwrap());
        assert!(deps.is_empty());
    }

    #[test]
    fn textual_order_gives_loop_independent_level() {
        // S1: A[i] = ...; S2: ... = A[i] in the same loop body.
        let dom = line_domain("N");
        let acc = access(&[&[1, 0, 0]], &dom, 1);
        let deps = dependence_polyhedra(DepKind::Flow, 0, 1, "A", &dom, &dom, &acc, &acc, 1, true)
            .unwrap();
        // One loop-independent level (is = it) plus no carried level
        // (same element requires is = it).
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].direction(0).unwrap(), DirSign::Zero);
    }

    #[test]
    fn mixed_direction_is_star() {
        // Write A[i], read A[N - i]: distance changes sign across the
        // domain midpoint.
        let dom = line_domain("N");
        let write = access(&[&[1, 0, 0]], &dom, 1);
        let read = access(&[&[-1, 1, 0]], &dom, 1);
        let deps = dependence_polyhedra(
            DepKind::Anti,
            0,
            0,
            "A",
            &dom,
            &dom,
            &read,
            &write,
            1,
            false,
        )
        .unwrap();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].direction(0).unwrap(), DirSign::Pos); // is < it enforced by level
    }

    #[test]
    fn projections_and_side_constraints() {
        let dom = line_domain("N");
        let write = access(&[&[1, 0, 0]], &dom, 1);
        let read = access(&[&[1, 0, -1]], &dom, 1);
        let dep = dependence_polyhedra(
            DepKind::Flow,
            0,
            0,
            "A",
            &dom,
            &dom,
            &write,
            &read,
            1,
            false,
        )
        .unwrap()
        .remove(0);
        let srcs = dep.src_instances().unwrap();
        // Sources are i in [1, N-1] (i = N writes A[N], read at i = N+1 invalid).
        assert!(srcs.contains(&[1], &[10]));
        assert!(srcs.contains(&[9], &[10]));
        let dsts = dep.dst_instances().unwrap();
        assert!(dsts.contains(&[2], &[10]));
        // Constrain targets to a block it in [5, 6]: sources become [4, 5].
        let block = Polyhedron::new(
            Space::new(["i"], ["N"]),
            vec![
                Constraint::ineq(vec![1, 0, -5]),
                Constraint::ineq(vec![-1, 0, 6]),
            ],
        );
        let narrowed = dep.constrain_dst(&block).unwrap();
        let srcs = narrowed.src_instances().unwrap();
        assert!(srcs.contains(&[4], &[10]));
        assert!(srcs.contains(&[5], &[10]));
        assert!(!srcs.contains(&[3], &[10]));
        assert!(!srcs.contains(&[6], &[10]));
    }

    #[test]
    fn direction_sign_helpers() {
        assert!(DirSign::Zero.is_non_negative());
        assert!(DirSign::Pos.is_non_negative());
        assert!(DirSign::Empty.is_non_negative());
        assert!(!DirSign::Neg.is_non_negative());
        assert!(!DirSign::Star.is_non_negative());
    }
}
