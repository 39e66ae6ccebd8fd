//! Integer point enumeration and counting.
//!
//! Algorithm 1 of the paper estimates *constant reuse* by comparing the
//! volume of pairwise overlaps of data spaces against the total volume
//! of the set (threshold δ = 30 %). This module provides the exact
//! counts: a recursive scan over a non-parametric polytope using the
//! Fourier–Motzkin bound cascade (outer dimension first, inner bounds
//! re-derived in the outer context).
//!
//! Enumeration requires a bounded, parameter-free polytope; callers
//! with symbolic parameters substitute representative values first
//! (see [`Polyhedron::substitute_params`]). A point `budget` bounds
//! worst-case work; exceeding it returns
//! [`PolyError::TooManyPoints`](crate::PolyError) so
//! callers can fall back to bounding-box estimates.

use crate::bounds::{bound_cascade, dim_bounds, DimBounds};
use crate::set::Polyhedron;
use crate::{PolyError, Result};
use std::ops::ControlFlow;

/// Exact number of integer points in a non-parametric polytope.
pub fn count_points(poly: &Polyhedron, budget: u64) -> Result<u64> {
    let mut n = 0u64;
    enumerate_points(poly, budget, &mut |_| n += 1)?;
    Ok(n)
}

/// Visit every integer point of a non-parametric polytope in
/// lexicographic order. The callback receives the point coordinates.
pub fn enumerate_points(
    poly: &Polyhedron,
    budget: u64,
    visit: &mut dyn FnMut(&[i64]),
) -> Result<()> {
    let _timer = crate::cache::CoreTimer::enter();
    if poly.n_params() != 0 {
        return Err(PolyError::Unbounded);
    }
    if poly.is_empty()? {
        return Ok(());
    }
    // Bound cascade: bounds of dim j in the context of dims 0..j,
    // derived incrementally from the suffix projections.
    let cascade: Vec<DimBounds> = bound_cascade(poly)?;
    enumerate_with_cascade(poly, &cascade, &[], budget, &mut |p| {
        visit(p);
        ControlFlow::Continue(())
    })
}

/// Visit every integer point of a *parametric* polytope at the given
/// parameter values, in lexicographic order, using a caller-supplied
/// bound cascade (`cascade[d]` = bounds of dim `d` in the context of
/// dims `0..d`, as produced by [`bound_cascade`]). Because the cascade
/// depends only on the symbolic polyhedron, a caller enumerating the
/// same shape at many parameter vectors — e.g. the blocked executor
/// visiting every block of a tiled domain — derives it once and pays
/// only bound evaluation per instance. `visit` ends the scan early by
/// answering [`ControlFlow::Break`]: a caller after the first few
/// points pays for those and no others.
pub fn enumerate_with_cascade(
    poly: &Polyhedron,
    cascade: &[DimBounds],
    qvals: &[i64],
    budget: u64,
    visit: &mut dyn FnMut(&[i64]) -> ControlFlow<()>,
) -> Result<()> {
    let _timer = crate::cache::CoreTimer::enter();
    if qvals.len() != poly.n_params() || cascade.len() != poly.n_dims() {
        return Err(PolyError::SpaceMismatch {
            op: "enumerate_with_cascade",
        });
    }
    if cascade.is_empty() {
        // Zero-dimensional set: the single (empty) point, if any.
        if poly.contains(&[], qvals) {
            let _ = visit(&[]);
        }
        return Ok(());
    }
    let mut point = vec![0i64; cascade.len()];
    let mut visited = 0u64;
    scan(
        poly,
        cascade,
        qvals,
        0,
        &mut point,
        budget,
        &mut visited,
        visit,
    )
    .map(|_| ())
}

#[allow(clippy::too_many_arguments)]
fn scan(
    poly: &Polyhedron,
    cascade: &[DimBounds],
    qvals: &[i64],
    depth: usize,
    point: &mut Vec<i64>,
    budget: u64,
    visited: &mut u64,
    visit: &mut dyn FnMut(&[i64]) -> ControlFlow<()>,
) -> Result<ControlFlow<()>> {
    let n = cascade.len();
    let ctx = point[..depth].to_vec();
    let Some((lo, hi)) = cascade[depth].eval_range(&ctx, qvals) else {
        // Unbounded in some direction at this depth.
        if cascade[depth].lower.is_unbounded() || cascade[depth].upper.is_unbounded() {
            return Err(PolyError::Unbounded);
        }
        return Ok(ControlFlow::Continue(())); // empty range here
    };
    for v in lo..=hi {
        point[depth] = v;
        if depth + 1 == n {
            // The FM cascade can over-approximate for non-unit
            // coefficients; the final membership check keeps the
            // enumeration exact.
            if poly.contains(point, qvals) {
                *visited += 1;
                if *visited > budget {
                    return Err(PolyError::TooManyPoints { budget });
                }
                if visit(point).is_break() {
                    return Ok(ControlFlow::Break(()));
                }
            }
        } else if scan(
            poly,
            cascade,
            qvals,
            depth + 1,
            point,
            budget,
            visited,
            visit,
        )?
        .is_break()
        {
            return Ok(ControlFlow::Break(()));
        }
    }
    Ok(ControlFlow::Continue(()))
}

/// A fast upper bound on the number of integer points: the product of
/// per-dimension bounding-box extents. Used as the fallback volume
/// estimate when exact counting would exceed its budget (mirrors the
/// paper's use of bounding boxes for buffer sizing).
pub fn bounding_box_volume(poly: &Polyhedron) -> Result<u64> {
    let _timer = crate::cache::CoreTimer::enter();
    if poly.n_params() != 0 {
        return Err(PolyError::Unbounded);
    }
    if poly.is_empty()? {
        return Ok(0);
    }
    let mut vol: u128 = 1;
    for d in 0..poly.n_dims() {
        let b = dim_bounds(poly, d, 0)?;
        let Some((lo, hi)) = b.eval_range(&[], &[]) else {
            return Err(PolyError::Unbounded);
        };
        if hi < lo {
            return Ok(0);
        }
        vol = vol.saturating_mul((hi - lo + 1) as u128);
    }
    Ok(u64::try_from(vol).unwrap_or(u64::MAX))
}

/// Count points, falling back to the bounding-box estimate if the
/// exact scan exceeds `budget`. The boolean is `true` when the count
/// is exact.
pub fn count_or_estimate(poly: &Polyhedron, budget: u64) -> Result<(u64, bool)> {
    match count_points(poly, budget) {
        Ok(n) => Ok((n, true)),
        Err(PolyError::TooManyPoints { .. }) => Ok((bounding_box_volume(poly)?, false)),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::space::Space;

    fn triangle_n(n: i64) -> Polyhedron {
        // { (i, j) : 0 <= i <= n-1, 0 <= j <= i }
        Polyhedron::new(
            Space::new(["i", "j"], Vec::<String>::new()),
            vec![
                Constraint::ineq(vec![1, 0, 0]),
                Constraint::ineq(vec![-1, 0, n - 1]),
                Constraint::ineq(vec![0, 1, 0]),
                Constraint::ineq(vec![1, -1, 0]),
            ],
        )
    }

    #[test]
    fn counts_triangle() {
        // Sum of 1..=10 = 55 points.
        assert_eq!(count_points(&triangle_n(10), 1000).unwrap(), 55);
    }

    #[test]
    fn counts_empty_and_point() {
        let empty = Polyhedron::empty(Space::new(["i"], Vec::<String>::new()));
        assert_eq!(count_points(&empty, 10).unwrap(), 0);
        let pt = Polyhedron::new(
            Space::new(["i"], Vec::<String>::new()),
            vec![Constraint::eq(vec![1, -7])],
        );
        assert_eq!(count_points(&pt, 10).unwrap(), 1);
    }

    #[test]
    fn enumeration_is_lexicographic_and_exact() {
        let mut pts = Vec::new();
        enumerate_points(&triangle_n(3), 100, &mut |p| pts.push(p.to_vec())).unwrap();
        assert_eq!(
            pts,
            vec![
                vec![0, 0],
                vec![1, 0],
                vec![1, 1],
                vec![2, 0],
                vec![2, 1],
                vec![2, 2]
            ]
        );
    }

    #[test]
    fn stride_constraints_respect_integrality() {
        // { i : 0 <= i <= 10, 2i = j for some j in [0,10] } — directly:
        // points with 3i in [4, 10] → i in {2, 3}.
        let p = Polyhedron::new(
            Space::new(["i"], Vec::<String>::new()),
            vec![
                Constraint::ineq(vec![3, -4]),
                Constraint::ineq(vec![-3, 10]),
            ],
        );
        assert_eq!(count_points(&p, 100).unwrap(), 2);
    }

    #[test]
    fn a_visitor_can_stop_the_scan() {
        // The first point comes back under a budget of one: the scan
        // ends before it reaches a second.
        let t = triangle_n(10);
        let cascade = bound_cascade(&t).unwrap();
        let mut seen = Vec::new();
        enumerate_with_cascade(&t, &cascade, &[], 1, &mut |p| {
            seen.push(p.to_vec());
            ControlFlow::Break(())
        })
        .unwrap();
        assert_eq!(seen, [vec![0, 0]]);
    }

    #[test]
    fn budget_is_enforced() {
        let big = triangle_n(100); // 5050 points
        assert!(matches!(
            count_points(&big, 10),
            Err(PolyError::TooManyPoints { budget: 10 })
        ));
        let (est, exact) = count_or_estimate(&big, 10).unwrap();
        assert!(!exact);
        assert_eq!(est, 100 * 100); // bounding box
        let (n, exact) = count_or_estimate(&big, 100_000).unwrap();
        assert!(exact);
        assert_eq!(n, 5050);
    }

    #[test]
    fn parametric_sets_are_rejected() {
        let p = Polyhedron::universe(Space::new(["i"], ["N"]));
        assert!(matches!(count_points(&p, 10), Err(PolyError::Unbounded)));
        assert!(matches!(bounding_box_volume(&p), Err(PolyError::Unbounded)));
    }

    #[test]
    fn unbounded_sets_are_rejected() {
        let p = Polyhedron::new(
            Space::new(["i"], Vec::<String>::new()),
            vec![Constraint::ineq(vec![1, 0])],
        );
        assert!(matches!(count_points(&p, 10), Err(PolyError::Unbounded)));
    }

    #[test]
    fn bounding_box_of_diagonal_strip() {
        // { (i,j) : 0<=i<=4, j = i } has 5 points but box volume 25.
        let p = Polyhedron::new(
            Space::new(["i", "j"], Vec::<String>::new()),
            vec![
                Constraint::ineq(vec![1, 0, 0]),
                Constraint::ineq(vec![-1, 0, 4]),
                Constraint::eq(vec![1, -1, 0]),
            ],
        );
        assert_eq!(count_points(&p, 100).unwrap(), 5);
        assert_eq!(bounding_box_volume(&p).unwrap(), 25);
    }

    #[test]
    fn zero_dimensional_set() {
        let p = Polyhedron::universe(Space::new(Vec::<String>::new(), Vec::<String>::new()));
        assert_eq!(count_points(&p, 10).unwrap(), 1);
    }
}
