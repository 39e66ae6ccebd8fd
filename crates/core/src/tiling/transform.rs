//! The multi-level tiling transformation (paper §4.1, Fig. 3).
//!
//! One [`TileSpec`] application rewrites selected loops `i` into a
//! pair `(iT, i)` with `iT·T ≤ i ≤ iT·T + T − 1`: the new tile
//! iterators form a group of outer loops preceding all original dims.
//! Applying specs repeatedly produces the paper's multi-level
//! structure — outer tiles distributed across outer-level parallel
//! units, a middle sequential level sized to the scratchpad limit, and
//! inner tiles distributed across inner-level units:
//!
//! ```text
//! FORALL iT, jT          <- level 1: across thread blocks
//!   FOR i', j', k', l'   <- level 2: memory-constrained sub-tiles
//!     <move-in>
//!     FORALL it, jt      <- level 3: across threads
//!       FOR i, j, k, l   <- intra-tile
//!     <move-out>
//! ```
//!
//! Tile sizes are compile-time constants, so the tiled domain stays
//! affine and every downstream pass (data management, codegen,
//! execution) applies unchanged to the tiled program. Execution
//! semantics are preserved bit-exactly whenever the tiled band is
//! permutable (validated in tests against the reference interpreter).

use polymem_ir::{Access, Program, Statement};
use polymem_poly::{Constraint, Polyhedron};
use std::collections::HashMap;

/// One level of tiling: which loops (by name) and with what sizes.
#[derive(Clone, Debug)]
pub struct TileSpec {
    /// `(loop name, tile size)` pairs; order defines the order of the
    /// new tile iterators.
    pub tiles: Vec<(String, i64)>,
    /// Suffix appended to loop names for the tile iterators
    /// (e.g. `"T"` turns `i` into `iT`).
    pub suffix: String,
    /// Where to insert the new tile iterators: before the named dim,
    /// or outermost (`None`). Multi-level tiling inserts each level
    /// before the first still-original dim to get the paper's Fig. 3
    /// nesting (`iT, jT, i', j', it, jt, i, j`).
    pub insert_before: Option<String>,
}

impl TileSpec {
    /// Convenience constructor (tile iterators become outermost).
    pub fn new(tiles: &[(&str, i64)], suffix: &str) -> TileSpec {
        TileSpec {
            tiles: tiles.iter().map(|(n, s)| (n.to_string(), *s)).collect(),
            suffix: suffix.to_string(),
            insert_before: None,
        }
    }

    /// Constructor placing the tile iterators just before `dim`.
    pub fn new_before(tiles: &[(&str, i64)], suffix: &str, dim: &str) -> TileSpec {
        TileSpec {
            insert_before: Some(dim.to_string()),
            ..TileSpec::new(tiles, suffix)
        }
    }
}

/// Apply one level of tiling to every statement that contains all the
/// named loops (statements missing a named loop are left unchanged —
/// they do not participate in this band).
///
/// Tile sizes must be positive; a size larger than the loop range
/// simply yields a single tile.
pub fn tile_program(program: &Program, spec: &TileSpec) -> polymem_ir::Result<Program> {
    for (_, s) in &spec.tiles {
        assert!(*s > 0, "tile sizes must be positive");
    }
    let mut out = program.clone();
    for stmt in &mut out.stmts {
        let names = stmt.domain.space().dims().to_vec();
        let idxs: Vec<Option<usize>> = spec
            .tiles
            .iter()
            .map(|(n, _)| names.iter().position(|d| d == n))
            .collect();
        if idxs.iter().any(Option::is_none) {
            continue;
        }
        let idxs: Vec<usize> = idxs.into_iter().map(|i| i.expect("checked")).collect();
        let n_new = idxs.len();
        let pos = spec
            .insert_before
            .as_ref()
            .and_then(|n| names.iter().position(|d| d == n))
            .unwrap_or(0);

        // 1. New domain: insert tile dims as a contiguous group at `pos`.
        let mut dom = stmt.domain.clone();
        for (k, (name, _)) in spec.tiles.iter().enumerate() {
            dom = dom.insert_dim(pos + k, &format!("{name}{}", spec.suffix));
        }
        // 2. Tiling constraints: iT*T <= i <= iT*T + T - 1.
        let ncols = dom.space().n_cols();
        let shifted = |o: usize| if o < pos { o } else { o + n_new };
        for (k, (&orig, (_, size))) in idxs.iter().zip(&spec.tiles).enumerate() {
            let i_col = shifted(orig);
            let t_col = pos + k;
            let mut lower = vec![0i64; ncols];
            lower[i_col] = 1;
            lower[t_col] = -size;
            dom.add_constraint(Constraint::ineq(lower)); // i - iT*T >= 0
            let mut upper = vec![0i64; ncols];
            upper[i_col] = -1;
            upper[t_col] = *size;
            upper[ncols - 1] = size - 1;
            dom.add_constraint(Constraint::ineq(upper)); // iT*T + T-1 - i >= 0
        }

        // 3. Accesses: zero columns for the new dims.
        let new_names: Vec<String> = spec
            .tiles
            .iter()
            .map(|(n, _)| format!("{n}{}", spec.suffix))
            .collect();
        let patch = |a: &Access| Access {
            array: a.array,
            map: a.map.insert_input_dims(pos, &new_names),
        };
        let write = patch(&stmt.write);
        let reads: Vec<Access> = stmt.reads.iter().map(patch).collect();

        // 4. Body: original iterator k at/after `pos` shifts by n_new.
        let body = stmt
            .body
            .map_iters(&|k| if k < pos { k } else { k + n_new });

        *stmt = Statement {
            name: stmt.name.clone(),
            domain: dom,
            write,
            reads,
            body,
        };
    }
    out.validate()?;
    Ok(out)
}

/// Interchange loops of every statement that has all the named loops:
/// the statement's nest is reordered so the named loops appear in the
/// given order at their (sorted) original positions; unnamed loops
/// stay put. Legality is the caller's concern — loops within one
/// permutable [`Band`](super::bands::Band) are always safe, and tests
/// validate by execution.
pub fn interchange_loops(program: &Program, order: &[&str]) -> polymem_ir::Result<Program> {
    let mut out = program.clone();
    for stmt in &mut out.stmts {
        let names = stmt.domain.space().dims().to_vec();
        let idxs: Vec<Option<usize>> = order
            .iter()
            .map(|n| names.iter().position(|d| d == n))
            .collect();
        if idxs.iter().any(Option::is_none) {
            continue;
        }
        let mut targets: Vec<usize> = idxs.into_iter().map(|i| i.expect("checked")).collect();
        let sources = targets.clone();
        targets.sort_unstable();
        // perm[new position] = old position.
        let mut perm: Vec<usize> = (0..names.len()).collect();
        for (slot, src) in targets.iter().zip(&sources) {
            perm[*slot] = *src;
        }
        let domain = stmt.domain.permute_dims(&perm);
        let write = polymem_ir::Access {
            array: stmt.write.array,
            map: stmt.write.map.permute_input_dims(&perm),
        };
        let reads: Vec<polymem_ir::Access> = stmt
            .reads
            .iter()
            .map(|r| polymem_ir::Access {
                array: r.array,
                map: r.map.permute_input_dims(&perm),
            })
            .collect();
        // Body iterators: old dim `perm[new]` is now at `new`.
        let mut inv = vec![0usize; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let body = stmt.body.map_iters(&|k| inv.get(k).copied().unwrap_or(k));
        *stmt = polymem_ir::Statement {
            name: stmt.name.clone(),
            domain,
            write,
            reads,
            body,
        };
    }
    out.validate()?;
    Ok(out)
}

/// Restrict a (tiled) statement domain to one concrete tile: fix the
/// named dims to the given values. Used to extract per-tile blocks for
/// the data-management framework and the simulator.
pub fn fix_dims(domain: &Polyhedron, fixed: &HashMap<String, i64>) -> Polyhedron {
    let mut out = domain.clone();
    let ncols = out.space().n_cols();
    let dims: Vec<String> = out.space().dims().to_vec();
    for (name, value) in fixed {
        if let Some(d) = dims.iter().position(|x| x == name) {
            let mut row = vec![0i64; ncols];
            row[d] = 1;
            row[ncols - 1] = -*value;
            out.add_constraint(Constraint::eq(row));
        }
    }
    out
}

/// Project a tiled domain onto a set of named dims (in the named
/// order) — e.g. onto the tile iterators to enumerate tiles.
pub fn project_onto_named(
    domain: &Polyhedron,
    names: &[String],
) -> polymem_poly::Result<Polyhedron> {
    let keep: Vec<usize> = names
        .iter()
        .filter_map(|n| domain.space().find_dim(n))
        .collect();
    domain.project_onto(&keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem_ir::expr::v;
    use polymem_ir::{exec_program, ArrayStore, Expr, LinExpr, ProgramBuilder};

    /// for i in [0, N-1], j in [0, N-1]: C[i][j] = A[i][j] * 2
    fn simple2d() -> Program {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N"), v("N")]);
        b.array("C", &[v("N"), v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("N") - 1),
            ])
            .write("C", &[v("i"), v("j")])
            .read("A", &[v("i"), v("j")])
            .body(Expr::mul(Expr::Read(0), Expr::Const(2)))
            .done();
        b.build().unwrap()
    }

    #[test]
    fn tiling_adds_dims_and_constraints() {
        let p = simple2d();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 4)], "T")).unwrap();
        let s = &t.stmts[0];
        assert_eq!(s.depth(), 4);
        assert_eq!(
            s.iter_names(),
            &["iT".to_string(), "jT".into(), "i".into(), "j".into()]
        );
        // (iT, jT, i, j) = (1, 0, 5, 2) valid: 4 <= 5 <= 7.
        assert!(s.domain.contains(&[1, 0, 5, 2], &[10]));
        assert!(!s.domain.contains(&[1, 0, 8, 2], &[10]));
        assert!(!s.domain.contains(&[0, 0, 5, 2], &[10]));
    }

    #[test]
    fn tiled_execution_matches_original() {
        let p = simple2d();
        let t = tile_program(&p, &TileSpec::new(&[("i", 3), ("j", 5)], "T")).unwrap();
        let params = [11i64]; // non-divisible size exercises partial tiles
        let mut st0 = ArrayStore::for_program(&p, &params).unwrap();
        st0.fill_with("A", |ix| ix[0] * 100 + ix[1]).unwrap();
        let mut st1 = st0.clone();
        exec_program(&p, &params, &mut st0).unwrap();
        exec_program(&t, &params, &mut st1).unwrap();
        assert_eq!(st0.data("C").unwrap(), st1.data("C").unwrap());
    }

    #[test]
    fn two_level_tiling_composes() {
        let p = simple2d();
        let t1 = tile_program(&p, &TileSpec::new(&[("i", 8), ("j", 8)], "T")).unwrap();
        // Second level nests *inside* the first: Fig. 3 ordering.
        let t2 = tile_program(&t1, &TileSpec::new_before(&[("i", 2), ("j", 2)], "t", "i")).unwrap();
        let s = &t2.stmts[0];
        assert_eq!(s.depth(), 6);
        assert_eq!(
            s.iter_names(),
            &[
                "iT".to_string(),
                "jT".into(),
                "it".into(),
                "jt".into(),
                "i".into(),
                "j".into()
            ]
        );
        // Execution still matches.
        let params = [9i64];
        let mut st0 = ArrayStore::for_program(&p, &params).unwrap();
        st0.fill_with("A", |ix| ix[0] * 7 + ix[1]).unwrap();
        let mut st1 = st0.clone();
        exec_program(&p, &params, &mut st0).unwrap();
        exec_program(&t2, &params, &mut st1).unwrap();
        assert_eq!(st0.data("C").unwrap(), st1.data("C").unwrap());
    }

    #[test]
    fn statements_missing_the_loops_are_untouched() {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N")]);
        b.array("B", &[v("N"), v("N")]);
        b.stmt("S1")
            .loops(&[("x", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("x")])
            .body(Expr::Const(1))
            .done();
        b.stmt("S2")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("N") - 1),
            ])
            .write("B", &[v("i"), v("j")])
            .body(Expr::Const(2))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 4)], "T")).unwrap();
        assert_eq!(t.stmts[0].depth(), 1); // S1 untouched
        assert_eq!(t.stmts[1].depth(), 4);
    }

    #[test]
    fn body_iterator_indices_are_shifted() {
        // Body uses Iter(0) (= i); after tiling it must still read i,
        // not iT.
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i")])
            .body(Expr::Iter(0))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap();
        let params = [10i64];
        let mut st = ArrayStore::for_program(&t, &params).unwrap();
        exec_program(&t, &params, &mut st).unwrap();
        let data = st.data("A").unwrap();
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as i64);
        }
    }

    #[test]
    fn interchange_preserves_semantics_and_reorders() {
        let p = simple2d();
        let x = interchange_loops(&p, &["j", "i"]).unwrap();
        assert_eq!(x.stmts[0].iter_names(), &["j".to_string(), "i".into()]);
        let params = [9i64];
        let mut st0 = ArrayStore::for_program(&p, &params).unwrap();
        st0.fill_with("A", |ix| ix[0] * 17 + ix[1]).unwrap();
        let mut st1 = st0.clone();
        exec_program(&p, &params, &mut st0).unwrap();
        exec_program(&x, &params, &mut st1).unwrap();
        assert_eq!(st0.data("C").unwrap(), st1.data("C").unwrap());
    }

    #[test]
    fn interchange_with_iterator_bodies() {
        // Body uses Iter(0) (= i); after (j, i) interchange, i is
        // iterator 1 and the remapped body must still read i.
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N"), v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("N") - 1),
            ])
            .write("A", &[v("i"), v("j")])
            .body(Expr::mul(Expr::Iter(0), Expr::Const(10)))
            .done();
        let p = b.build().unwrap();
        let x = interchange_loops(&p, &["j", "i"]).unwrap();
        let mut st = ArrayStore::for_program(&x, &[4]).unwrap();
        exec_program(&x, &[4], &mut st).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(st.get("A", &[i, j]).unwrap(), i * 10);
            }
        }
    }

    #[test]
    fn interchange_skips_statements_missing_loops() {
        let p = simple2d();
        let x = interchange_loops(&p, &["i", "zz"]).unwrap();
        assert_eq!(x.stmts[0].iter_names(), p.stmts[0].iter_names());
    }

    #[test]
    fn fix_dims_and_projection_enumerate_tiles() {
        let p = simple2d();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 4)], "T")).unwrap();
        let dom = &t.stmts[0].domain;
        // Tile space for N = 10: iT, jT in [0, 2].
        let tiles = project_onto_named(dom, &["iT".into(), "jT".into()]).unwrap();
        let c = tiles.substitute_params(&[10]).unwrap();
        assert_eq!(polymem_poly::count::count_points(&c, 100).unwrap(), 9);
        // Fixing a tile yields its intra-tile block.
        let mut fixed = HashMap::new();
        fixed.insert("iT".to_string(), 2);
        fixed.insert("jT".to_string(), 0);
        let block = fix_dims(dom, &fixed);
        assert!(block.contains(&[2, 0, 9, 3], &[10]));
        assert!(!block.contains(&[2, 0, 7, 3], &[10]));
    }
}
