//! Per-reference data spaces.
//!
//! For each reference `F` to an array in statement `S` with iteration
//! polytope `I`, the data space is the affine image `F·I` — "the set
//! of elements accessed by the affine reference" (paper §2). This
//! module collects, for one array, every reference in the block with
//! its data space and reuse rank information; the rest of the pipeline
//! consumes these [`RefInfo`]s.

use super::Result;
use polymem_ir::Program;
use polymem_linalg::IMat;
use polymem_poly::{AffineMap, ConstraintKind, Polyhedron};

/// Identity of one array reference in a program block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct AccessId {
    /// Statement index.
    pub stmt: usize,
    /// `None` = the write access; `Some(k)` = the k-th read.
    pub read_idx: Option<usize>,
}

impl AccessId {
    /// The write access of statement `stmt`.
    pub fn write(stmt: usize) -> AccessId {
        AccessId {
            stmt,
            read_idx: None,
        }
    }

    /// The `k`-th read access of statement `stmt`.
    pub fn read(stmt: usize, k: usize) -> AccessId {
        AccessId {
            stmt,
            read_idx: Some(k),
        }
    }

    /// True iff this is a write access.
    pub fn is_write(&self) -> bool {
        self.read_idx.is_none()
    }
}

/// One reference to the array under analysis, with its data space.
#[derive(Clone, Debug)]
pub struct RefInfo {
    /// Which reference this is.
    pub id: AccessId,
    /// The access function (subscript map).
    pub map: AffineMap,
    /// The data space `F·I` (dims = array dims, params = program params).
    pub data_space: Polyhedron,
    /// `rank(F)` restricted to the affine hull of the iteration
    /// domain (dims pinned by equality constraints contribute 0).
    pub rank: usize,
    /// Dimensionality of the affine hull of the statement's iteration
    /// domain (raw dims minus independent equality-pinned directions).
    pub iter_dims: usize,
}

impl RefInfo {
    /// The paper's Condition (1): `rank(F) < dim(is)` — the reference
    /// touches each element Ω(trip-count) times ("order of magnitude"
    /// reuse).
    pub fn has_order_of_magnitude_reuse(&self) -> bool {
        self.rank < self.iter_dims
    }
}

/// Dimensionality of the affine hull of `domain` and the rank of
/// `map` restricted to it. Raw column counts over-state both when a
/// view pins dims with equality constraints (e.g. the executor's
/// per-block restriction of a tiled program): a pinned dim is a
/// degenerate direction with no trips, so it must fire neither side of
/// Condition (1). With `E` the dim-part of the equality rows and `F`
/// the dim-part of the access, the hull has dimension
/// `n − rank(E)` and `F` restricted to `null(E)` has rank
/// `rank([F; E]) − rank(E)`.
fn effective_dims_and_rank(domain: &Polyhedron, map: &AffineMap) -> Result<(usize, usize)> {
    let space = domain.space();
    let n = space.n_dims();
    let rank_of = |rows: &[Vec<i64>]| -> Result<usize> {
        if rows.is_empty() || n == 0 {
            return Ok(0);
        }
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        Ok(IMat::from_rows(&refs)
            .rank()
            .map_err(polymem_poly::PolyError::from)?)
    };
    let eq_rows: Vec<Vec<i64>> = domain
        .constraints()
        .iter()
        .filter(|c| c.kind == ConstraintKind::Eq)
        .map(|c| (0..n).map(|d| c.coeff(space.dim_col(d))).collect())
        .collect();
    let e_rank = rank_of(&eq_rows)?;
    let m = map.matrix();
    let mut stacked: Vec<Vec<i64>> = (0..m.rows())
        .map(|r| (0..n).map(|d| m[(r, space.dim_col(d))]).collect())
        .collect();
    stacked.extend(eq_rows);
    let f_rank = rank_of(&stacked)?.saturating_sub(e_rank);
    Ok((n - e_rank, f_rank))
}

/// Collect every reference to array `array_idx` in the block.
pub fn collect_refs(program: &Program, array_idx: usize) -> Result<Vec<RefInfo>> {
    let mut out = Vec::new();
    for (si, stmt) in program.stmts.iter().enumerate() {
        let mut push = |id: AccessId, map: &AffineMap| -> Result<()> {
            let (iter_dims, rank) = effective_dims_and_rank(&stmt.domain, map)?;
            out.push(RefInfo {
                id,
                map: map.clone(),
                data_space: map.image(&stmt.domain)?,
                rank,
                iter_dims,
            });
            Ok(())
        };
        if stmt.write.array == array_idx {
            push(AccessId::write(si), &stmt.write.map)?;
        }
        for (k, r) in stmt.reads.iter().enumerate() {
            if r.array == array_idx {
                push(AccessId::read(si, k), &r.map)?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem_ir::expr::v;
    use polymem_ir::{Expr, LinExpr, ProgramBuilder};

    /// The matvec-like kernel: for i, j in [0, N-1]^2:
    /// `Y[i] = Y[i] + A[i][j] * X[j]`.
    fn matvec() -> Program {
        let mut b = ProgramBuilder::new("matvec", ["N"]);
        b.array("A", &[v("N"), v("N")]);
        b.array("X", &[v("N")]);
        b.array("Y", &[v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("N") - 1),
            ])
            .write("Y", &[v("i")])
            .read("Y", &[v("i")])
            .read("A", &[v("i"), v("j")])
            .read("X", &[v("j")])
            .body(Expr::add(
                Expr::Read(0),
                Expr::mul(Expr::Read(1), Expr::Read(2)),
            ))
            .done();
        b.build().unwrap()
    }

    #[test]
    fn collects_reads_and_writes() {
        let p = matvec();
        let y = p.array_index("Y").unwrap();
        let refs = collect_refs(&p, y).unwrap();
        assert_eq!(refs.len(), 2);
        assert!(refs.iter().any(|r| r.id.is_write()));
        assert!(refs.iter().any(|r| r.id == AccessId::read(0, 0)));
    }

    #[test]
    fn rank_classifies_reuse() {
        let p = matvec();
        // A[i][j]: rank 2 = iter dims 2 → no order-of-magnitude reuse.
        let a = p.array_index("A").unwrap();
        let refs = collect_refs(&p, a).unwrap();
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].rank, 2);
        assert!(!refs[0].has_order_of_magnitude_reuse());
        // X[j]: rank 1 < 2 → reuse along i.
        let x = p.array_index("X").unwrap();
        let refs = collect_refs(&p, x).unwrap();
        assert!(refs[0].has_order_of_magnitude_reuse());
        // Y[i]: rank 1 < 2 → reuse along j (both refs).
        let y = p.array_index("Y").unwrap();
        for r in collect_refs(&p, y).unwrap() {
            assert!(r.has_order_of_magnitude_reuse());
        }
    }

    #[test]
    fn a_data_space_is_the_access_image() {
        let p = matvec();
        let x = p.array_index("X").unwrap();
        let refs = collect_refs(&p, x).unwrap();
        let ds = &refs[0].data_space;
        assert!(ds.contains(&[0], &[5]));
        assert!(ds.contains(&[4], &[5]));
        assert!(!ds.contains(&[5], &[5]));
    }

    #[test]
    fn pinned_dims_do_not_fake_reuse() {
        use crate::tiling::transform::fix_dims;
        use std::collections::HashMap;
        let p = matvec();
        let mut view = p.clone();
        // Pin i = 3 (the executor's per-block restriction): A[i][j]
        // now sweeps a 1-d slice with a 1-d effective domain — still
        // no order-of-magnitude reuse; Y[i] becomes a single element
        // read over the j trips — now *genuine* reuse.
        let mut fixed = HashMap::new();
        fixed.insert("i".to_string(), 3);
        for s in &mut view.stmts {
            s.domain = fix_dims(&s.domain, &fixed);
        }
        let a = view.array_index("A").unwrap();
        let r = &collect_refs(&view, a).unwrap()[0];
        assert_eq!((r.iter_dims, r.rank), (1, 1));
        assert!(!r.has_order_of_magnitude_reuse());
        let y = view.array_index("Y").unwrap();
        let r = &collect_refs(&view, y).unwrap()[0];
        assert_eq!((r.iter_dims, r.rank), (1, 0));
        assert!(r.has_order_of_magnitude_reuse());
    }

    #[test]
    fn access_id_helpers() {
        assert!(AccessId::write(3).is_write());
        assert!(!AccessId::read(3, 0).is_write());
        assert_ne!(AccessId::write(0), AccessId::read(0, 0));
    }
}
