//! Scanning polyhedra into loop nests.
//!
//! [`scan_polyhedron`] emits one loop per dimension, outermost first,
//! with bounds derived by Fourier–Motzkin in the context of the outer
//! dimensions — the standard polyhedral scanning scheme. Because the
//! FM cascade can over-approximate inner ranges for non-unit
//! coefficients, a residual [`Guard`](crate::ast::Ast::Guard) with the
//! original constraints is inserted above the leaf whenever the
//! original system has constraints that the loop bounds alone do not
//! re-imply for every visited point; this keeps the scan exact without
//! costing anything for the common (unit-coefficient) case.
//!
//! [`scan_union`] handles a union of possibly-overlapping polyhedra:
//! it first decomposes the union into disjoint pieces (polyhedral
//! difference) and concatenates their nests — this is what gives the
//! paper's move-in/move-out code its "single load/store per element"
//! property (§3.1.3) and reproduces the two-nest shape of Fig. 1. A
//! caller that already holds the disjoint pieces hands them to
//! [`scan_pieces`], which never decomposes.

use crate::ast::{Ast, LoopBounds};
use crate::Result;
use polymem_poly::bounds::bound_cascade;
use polymem_poly::{Constraint, ConstraintKind, PolyUnion, Polyhedron};

/// Scan one polyhedron into a loop nest whose leaf carries `tag`.
///
/// Returns [`Ast::Empty`] for empty sets.
pub fn scan_polyhedron(poly: &Polyhedron, tag: usize) -> Result<Ast> {
    if poly.is_empty()? {
        return Ok(Ast::Empty);
    }
    // Innermost first: start from the leaf.
    let mut body = Ast::Leaf { tag };

    // Exactness guard: with unit coefficients the FM cascade is exact
    // and the guard would be vacuous, so only add one when some
    // constraint mixes several dims with |coeff| > 1 (the only case
    // where the rational shadow can admit extra integer points).
    if needs_guard(poly) {
        body = Ast::Guard {
            conds: poly.as_ineq_rows(),
            body: Box::new(body),
        };
    }

    let cascade = bound_cascade(poly)?;
    for (d, b) in cascade.into_iter().enumerate().rev() {
        body = Ast::Loop {
            var: poly.space().dim_name(d).to_string(),
            bounds: LoopBounds {
                lower: b.lower,
                upper: b.upper,
            },
            body: Box::new(body),
        };
    }
    // Parameter-only constraints never become loop bounds, yet a piece
    // of a symbolic difference may be feasible only for some parameter
    // values (e.g. `jT >= Nj`): guard the whole nest on them so the
    // scan is exact at every concrete instantiation.
    let n = poly.n_dims();
    let param_rows: Vec<Constraint> = poly
        .constraints()
        .iter()
        .filter(|c| (0..n).all(|j| c.coeff(j) == 0))
        .map(|c| {
            let coeffs: Vec<i64> = (n..c.len()).map(|j| c.coeff(j)).collect();
            match c.kind {
                ConstraintKind::Ineq => Constraint::ineq(coeffs),
                ConstraintKind::Eq => Constraint::eq(coeffs),
            }
        })
        .collect();
    if !param_rows.is_empty() {
        body = Ast::Guard {
            conds: param_rows,
            body: Box::new(body),
        };
    }
    Ok(body)
}

/// Heuristic for when the FM cascade may over-approximate: some
/// constraint has |coefficient| > 1 on a dimension *and* involves
/// another dimension. (Pure single-dim strides are handled exactly by
/// the ceil/floor bound evaluation.)
fn needs_guard(poly: &Polyhedron) -> bool {
    let n = poly.n_dims();
    poly.constraints().iter().any(|c| {
        let nz: Vec<usize> = (0..n).filter(|&j| c.coeff(j) != 0).collect();
        nz.len() >= 2 && nz.iter().any(|&j| c.coeff(j).abs() > 1)
    })
}

/// Scan a union of polyhedra, visiting every point of the union
/// exactly once: [`scan_pieces`] over the union's
/// [`disjoint_pieces`](PolyUnion::disjoint_pieces) — the only step
/// here that decomposes anything. `tags[k]` labels the k-th *disjoint
/// piece*.
pub fn scan_union(union: &PolyUnion, tags: &[usize]) -> Result<Ast> {
    scan_pieces(&union.disjoint_pieces()?, tags)
}

/// Scan polyhedra the caller holds **pairwise disjoint** (a
/// `disjoint_pieces` / `difference_all` result): one nest per non-empty
/// piece, concatenated in a [`Ast::Seq`] — the multiple copy nests of
/// the paper's Fig. 1. Nothing is decomposed or checked here, so a
/// point two pieces share is visited twice. `tags[k]` labels piece
/// `k`'s leaf; if `tags` is shorter than `pieces` the last tag is
/// reused (pass a single-element slice for a uniform label).
pub fn scan_pieces(pieces: &[Polyhedron], tags: &[usize]) -> Result<Ast> {
    let mut items = Vec::with_capacity(pieces.len());
    for (k, piece) in pieces.iter().enumerate() {
        let tag = *tags.get(k).or(tags.last()).unwrap_or(&0);
        match scan_polyhedron(piece, tag)? {
            Ast::Empty => {}
            ast => items.push(ast),
        }
    }
    Ok(match items.len() {
        0 => Ast::Empty,
        1 => items.pop().expect("len checked"),
        _ => Ast::Seq(items),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem_poly::{Constraint, Space};
    use std::collections::HashSet;

    fn poly(space: Space, rows: Vec<Constraint>) -> Polyhedron {
        Polyhedron::new(space, rows)
    }

    fn interval(lo: i64, hi: i64) -> Polyhedron {
        poly(
            Space::new(["i"], Vec::<String>::new()),
            vec![
                Constraint::ineq(vec![1, -lo]),
                Constraint::ineq(vec![-1, hi]),
            ],
        )
    }

    #[test]
    fn scans_triangle_exactly() {
        let t = poly(
            Space::new(["i", "j"], ["N"]),
            vec![
                Constraint::ineq(vec![1, 0, 0, 0]),
                Constraint::ineq(vec![-1, 0, 1, -1]),
                Constraint::ineq(vec![0, 1, 0, 0]),
                Constraint::ineq(vec![1, -1, 0, 0]),
            ],
        );
        let ast = scan_polyhedron(&t, 0).unwrap();
        let mut seen = HashSet::new();
        ast.for_each_point(&[5], &mut |_, p| {
            assert!(seen.insert(p.to_vec()), "revisited {p:?}");
            assert!(t.contains(p, &[5]), "outside {p:?}");
        });
        assert_eq!(seen.len(), 15); // 1+2+3+4+5
    }

    #[test]
    fn scans_empty_to_empty_ast() {
        let e = Polyhedron::empty(Space::new(["i"], Vec::<String>::new()));
        assert!(matches!(scan_polyhedron(&e, 0).unwrap(), Ast::Empty));
    }

    #[test]
    fn guard_inserted_for_skewed_strides() {
        // { (i,j) : 0 <= i <= 10, 0 <= j <= 10, 2i + 3j <= 11 } — the
        // mixed constraint forces a guard; the scan must stay exact.
        let p = poly(
            Space::new(["i", "j"], Vec::<String>::new()),
            vec![
                Constraint::ineq(vec![1, 0, 0]),
                Constraint::ineq(vec![-1, 0, 10]),
                Constraint::ineq(vec![0, 1, 0]),
                Constraint::ineq(vec![0, -1, 10]),
                Constraint::ineq(vec![-2, -3, 11]),
            ],
        );
        let ast = scan_polyhedron(&p, 0).unwrap();
        let mut count = 0u64;
        ast.for_each_point(&[], &mut |_, pt| {
            assert!(p.contains(pt, &[]));
            count += 1;
        });
        let exact = polymem_poly::count::count_points(&p, 10_000).unwrap();
        assert_eq!(count, exact);
    }

    #[test]
    fn union_scan_visits_once_despite_overlap() {
        let u = PolyUnion::from_members(vec![interval(0, 6), interval(4, 10)]).unwrap();
        let ast = scan_union(&u, &[1, 2]).unwrap();
        let mut seen = HashSet::new();
        ast.for_each_point(&[], &mut |_, p| {
            assert!(seen.insert(p[0]), "revisited {}", p[0]);
        });
        assert_eq!(seen.len(), 11);
    }

    #[test]
    fn union_scan_tags_pieces() {
        let u = PolyUnion::from_members(vec![interval(0, 2), interval(10, 12)]).unwrap();
        let ast = scan_union(&u, &[7, 8]).unwrap();
        let mut tags = HashSet::new();
        ast.for_each_point(&[], &mut |t, _| {
            tags.insert(t);
        });
        assert_eq!(tags, HashSet::from([7, 8]));
        // A single uniform tag is reused for later pieces.
        let ast = scan_union(&u, &[9]).unwrap();
        let mut tags = HashSet::new();
        ast.for_each_point(&[], &mut |t, _| {
            tags.insert(t);
        });
        assert_eq!(tags, HashSet::from([9]));
    }

    #[test]
    fn union_scan_of_empty_union() {
        let u = PolyUnion::new();
        assert!(matches!(scan_union(&u, &[0]).unwrap(), Ast::Empty));
    }

    #[test]
    fn scan_union_is_scan_pieces_over_the_disjoint_pieces() {
        let param = |lo: i64, hi_off: i64| {
            poly(
                Space::new(["i"], ["N"]),
                vec![
                    Constraint::ineq(vec![1, 0, -lo]),
                    Constraint::ineq(vec![-1, 1, hi_off]),
                ],
            )
        };
        let empty = Polyhedron::empty(Space::new(["i"], Vec::<String>::new()));
        for (what, members) in [
            ("overlapping", vec![interval(0, 6), interval(4, 10)]),
            ("nested", vec![interval(0, 10), interval(3, 5)]),
            ("empty", vec![]),
            ("empty member", vec![empty, interval(2, 3)]),
            ("parametric", vec![param(0, -1), param(2, 3)]),
        ] {
            let u = PolyUnion::from_members(members).unwrap();
            let pieces = u.disjoint_pieces().unwrap();
            assert_eq!(
                format!("{:?}", scan_union(&u, &[1, 2]).unwrap()),
                format!("{:?}", scan_pieces(&pieces, &[1, 2]).unwrap()),
                "{what}"
            );
        }
    }

    #[test]
    fn scan_pieces_does_not_make_its_input_disjoint() {
        // The precondition is the caller's: overlapping "pieces" are
        // scanned as they are, so [4, 6] is visited twice.
        let ast = scan_pieces(&[interval(0, 6), interval(4, 10)], &[0]).unwrap();
        let mut visits = std::collections::HashMap::new();
        ast.for_each_point(&[], &mut |_, p| *visits.entry(p[0]).or_insert(0) += 1);
        for i in 0..=10 {
            assert_eq!(
                visits[&i],
                if (4..=6).contains(&i) { 2 } else { 1 },
                "at {i}"
            );
        }
    }

    #[test]
    fn parametric_scan_adapts_to_parameters() {
        // { i : 0 <= i <= N-1 }
        let p = poly(
            Space::new(["i"], ["N"]),
            vec![
                Constraint::ineq(vec![1, 0, 0]),
                Constraint::ineq(vec![-1, 1, -1]),
            ],
        );
        let ast = scan_polyhedron(&p, 0).unwrap();
        assert_eq!(ast.count_visits(&[4]), 4);
        assert_eq!(ast.count_visits(&[9]), 9);
        assert_eq!(ast.count_visits(&[0]), 0);
    }

    #[test]
    fn c_output_shape_matches_bounds() {
        let p = poly(
            Space::new(["i"], ["N"]),
            vec![
                Constraint::ineq(vec![1, 0, -2]),
                Constraint::ineq(vec![-1, 1, 0]),
            ],
        );
        let ast = scan_polyhedron(&p, 0).unwrap();
        let c = ast.to_c(&["N".into()], &|_| "move();".into());
        assert!(c.contains("for (i = 2; i <= N; i++) {"), "{c}");
    }
}
