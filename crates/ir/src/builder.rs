//! Ergonomic construction of affine programs.
//!
//! [`ProgramBuilder`] + [`StatementBuilder`] let kernels be written the
//! way the paper writes them — named loops with inclusive affine
//! bounds, subscripts as [`LinExpr`]s — and lower everything to the
//! polyhedral representation ([`Polyhedron`] domains, [`AffineMap`]
//! accesses).

use crate::expr::{Expr, LinExpr};
use crate::program::{Access, ArrayDecl, Program, Statement};
use crate::{IrError, Result};
use polymem_linalg::IMat;
use polymem_poly::{AffineMap, Constraint, Polyhedron, Space};

/// Builds a [`Polyhedron`] from named inclusive bounds and extra
/// affine constraints.
#[derive(Clone, Debug)]
pub struct DomainBuilder {
    dims: Vec<String>,
    params: Vec<String>,
    constraints: Vec<Constraint>,
}

impl DomainBuilder {
    /// Start a domain over the given dims and params.
    pub fn new(
        dims: impl IntoIterator<Item = impl Into<String>>,
        params: impl IntoIterator<Item = impl Into<String>>,
    ) -> DomainBuilder {
        DomainBuilder {
            dims: dims.into_iter().map(Into::into).collect(),
            params: params.into_iter().map(Into::into).collect(),
            constraints: Vec::new(),
        }
    }

    /// Add `lo <= hi` (i.e. `hi - lo >= 0`).
    pub fn le(&mut self, lo: LinExpr, hi: LinExpr) -> Result<&mut Self> {
        let row = (hi - lo).to_row(&self.dims, &self.params)?;
        self.constraints.push(Constraint::ineq(row));
        Ok(self)
    }

    /// Add `a == b`.
    pub fn eq(&mut self, a: LinExpr, b: LinExpr) -> Result<&mut Self> {
        let row = (a - b).to_row(&self.dims, &self.params)?;
        self.constraints.push(Constraint::eq(row));
        Ok(self)
    }

    /// Add inclusive bounds `lb <= var <= ub`.
    pub fn bound(&mut self, var: &str, lb: LinExpr, ub: LinExpr) -> Result<&mut Self> {
        let v = LinExpr::var(var);
        self.le(lb, v.clone())?;
        self.le(v, ub)?;
        Ok(self)
    }

    /// Finish into a polyhedron.
    pub fn build(&self) -> Polyhedron {
        Polyhedron::new(
            Space::new(self.dims.clone(), self.params.clone()),
            self.constraints.clone(),
        )
    }
}

/// Builder for a whole [`Program`].
pub struct ProgramBuilder {
    name: String,
    params: Vec<String>,
    arrays: Vec<ArrayDecl>,
    stmts: Vec<Statement>,
    error: Option<IrError>,
}

impl ProgramBuilder {
    /// Start a program with the given parameter names.
    pub fn new(
        name: impl Into<String>,
        params: impl IntoIterator<Item = impl Into<String>>,
    ) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            params: params.into_iter().map(Into::into).collect(),
            arrays: Vec::new(),
            stmts: Vec::new(),
            error: None,
        }
    }

    /// Declare an array with per-dimension extents.
    pub fn array(&mut self, name: impl Into<String>, extents: &[LinExpr]) -> &mut Self {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            extents: extents.to_vec(),
        });
        self
    }

    /// Start a statement; finish it with
    /// [`StatementBuilder::done`].
    pub fn stmt(&mut self, name: impl Into<String>) -> StatementBuilder<'_> {
        StatementBuilder {
            program: self,
            name: name.into(),
            loops: Vec::new(),
            extra: Vec::new(),
            write: None,
            reads: Vec::new(),
            body: Expr::Const(0),
        }
    }

    /// Index of a parameter by name (used by the text frontend).
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p == name)
    }

    /// Finish the program (validates it).
    pub fn build(self) -> Result<Program> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let p = Program {
            name: self.name,
            params: self.params,
            arrays: self.arrays,
            stmts: self.stmts,
        };
        p.validate()?;
        Ok(p)
    }
}

/// Builder for one statement within a [`ProgramBuilder`].
pub struct StatementBuilder<'a> {
    program: &'a mut ProgramBuilder,
    name: String,
    loops: Vec<(String, LinExpr, LinExpr)>,
    extra: Vec<(LinExpr, LinExpr)>, // (lo, hi): lo <= hi
    write: Option<(String, Vec<LinExpr>)>,
    reads: Vec<(String, Vec<LinExpr>)>,
    body: Expr,
}

impl<'a> StatementBuilder<'a> {
    /// Declare the loop nest, outermost first, with inclusive bounds.
    pub fn loops(mut self, loops: &[(&str, LinExpr, LinExpr)]) -> Self {
        self.loops = loops
            .iter()
            .map(|(n, lb, ub)| (n.to_string(), lb.clone(), ub.clone()))
            .collect();
        self
    }

    /// Add an extra affine guard `lo <= hi`.
    pub fn guard_le(mut self, lo: LinExpr, hi: LinExpr) -> Self {
        self.extra.push((lo, hi));
        self
    }

    /// Set the written reference.
    pub fn write(mut self, array: &str, subscripts: &[LinExpr]) -> Self {
        self.write = Some((array.to_string(), subscripts.to_vec()));
        self
    }

    /// Add a read reference (referenced by `Expr::Read(k)` in order).
    pub fn read(mut self, array: &str, subscripts: &[LinExpr]) -> Self {
        self.reads.push((array.to_string(), subscripts.to_vec()));
        self
    }

    /// Set the right-hand side.
    pub fn body(mut self, body: Expr) -> Self {
        self.body = body;
        self
    }

    /// Lower and attach the statement to the program.
    pub fn done(self) {
        let result = self.lower();
        match result {
            Ok(stmt) => self.program.stmts.push(stmt),
            Err(e) => {
                if self.program.error.is_none() {
                    self.program.error = Some(e);
                }
            }
        }
    }

    fn lower(&self) -> Result<Statement> {
        let dims: Vec<String> = self.loops.iter().map(|(n, _, _)| n.clone()).collect();
        let params = self.program.params.clone();
        let mut db = DomainBuilder::new(dims.clone(), params.clone());
        for (n, lb, ub) in &self.loops {
            db.bound(n, lb.clone(), ub.clone())?;
        }
        for (lo, hi) in &self.extra {
            db.le(lo.clone(), hi.clone())?;
        }
        let domain = db.build();
        let in_space = domain.space().clone();

        let lower_access = |array: &str, subs: &[LinExpr]| -> Result<Access> {
            let idx = self
                .program
                .arrays
                .iter()
                .position(|a| a.name == array)
                .ok_or_else(|| IrError::UnknownArray(array.to_string()))?;
            let decl = &self.program.arrays[idx];
            if decl.rank() != subs.len() {
                return Err(IrError::UnknownArray(format!(
                    "array `{array}` has rank {}, subscript has {}",
                    decl.rank(),
                    subs.len()
                )));
            }
            let mut mat = IMat::zeros(0, 0);
            for s in subs {
                mat.push_row(&s.to_row(&dims, &params)?);
            }
            let out_space = Space::new(
                (0..subs.len()).map(|k| format!("{array}_{k}")),
                params.clone(),
            );
            Ok(Access {
                array: idx,
                map: AffineMap::new(in_space.clone(), out_space, mat),
            })
        };

        let (warr, wsubs) = self.write.as_ref().ok_or_else(|| {
            IrError::UnknownArray(format!("statement `{}` has no write", self.name))
        })?;
        let write = lower_access(warr, wsubs)?;
        let reads = self
            .reads
            .iter()
            .map(|(a, s)| lower_access(a, s))
            .collect::<Result<Vec<_>>>()?;
        Ok(Statement {
            name: self.name.clone(),
            domain,
            write,
            reads,
            body: self.body.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::v;

    #[test]
    fn domain_builder_bounds() {
        let mut db = DomainBuilder::new(["i", "j"], ["N"]);
        db.bound("i", LinExpr::c(0), v("N") - 1).unwrap();
        db.bound("j", LinExpr::c(0), v("i")).unwrap();
        let d = db.build();
        assert!(d.contains(&[3, 2], &[5]));
        assert!(!d.contains(&[3, 4], &[5]));
        assert!(!d.contains(&[5, 0], &[5]));
    }

    #[test]
    fn domain_builder_equality_and_unknown_names() {
        let mut db = DomainBuilder::new(["i", "j"], ["N"]);
        db.eq(v("i"), v("j") * 2).unwrap();
        let d = db.build();
        assert!(d.contains(&[4, 2], &[9]));
        assert!(!d.contains(&[3, 2], &[9]));
        assert!(db.le(v("i"), v("qq")).is_err());
    }

    #[test]
    fn statement_builder_lowers_accesses() {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N"), v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("N") - 1),
            ])
            .write("A", &[v("i"), v("j")])
            .read("A", &[v("i") + v("j"), v("j") + 1])
            .body(Expr::Read(0))
            .done();
        let p = b.build().unwrap();
        let s = &p.stmts[0];
        assert_eq!(s.depth(), 2);
        assert_eq!(s.reads.len(), 1);
        // Read map applied to (i, j) = (2, 3), N = 10: (5, 4).
        assert_eq!(s.reads[0].map.apply(&[2, 3], &[10]).unwrap(), vec![5, 4]);
    }

    #[test]
    fn builder_surfaces_errors_at_build() {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N"))])
            .write("B", &[v("i")]) // unknown array
            .body(Expr::Const(0))
            .done();
        assert!(matches!(b.build(), Err(IrError::UnknownArray(_))));
    }

    #[test]
    fn rank_mismatch_is_rejected() {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N"), v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N"))])
            .write("A", &[v("i")]) // rank 1 subscript on rank-2 array
            .body(Expr::Const(0))
            .done();
        assert!(b.build().is_err());
    }

    #[test]
    fn guards_restrict_domains() {
        let mut b = ProgramBuilder::new("p", ["N"]);
        b.array("A", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .guard_le(v("i") * 2, v("N")) // only lower half
            .write("A", &[v("i")])
            .body(Expr::Const(1))
            .done();
        let p = b.build().unwrap();
        let d = &p.stmts[0].domain;
        assert!(d.contains(&[5], &[10]));
        assert!(!d.contains(&[6], &[10]));
    }
}
