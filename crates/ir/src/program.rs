//! Arrays, statements and programs.
//!
//! A [`Program`] models the paper's *program block*: statements with
//! affine iteration domains and affine accesses over declared arrays,
//! sharing a list of symbolic parameters (problem sizes). Statements
//! may sit at different nesting depths but share outer loops *by
//! dimension name* (as in the paper's Fig. 1, where `S1` lives in the
//! `(i, j)` nest and `S2` in `(i, j, k)`).

use crate::expr::{Expr, LinExpr};
use crate::{IrError, Result};
use polymem_poly::{AffineMap, Polyhedron};
use std::fmt;

/// An array declaration: a name plus per-dimension extents as linear
/// expressions of the program parameters (`A[N][N+1]`).
#[derive(Clone, Debug)]
pub struct ArrayDecl {
    /// Array name.
    pub name: String,
    /// Per-dimension extent expressions (over parameters only).
    pub extents: Vec<LinExpr>,
}

impl ArrayDecl {
    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.extents.len()
    }

    /// Evaluate extents for concrete parameter values.
    pub fn eval_extents(&self, param_names: &[String], params: &[i64]) -> Result<Vec<i64>> {
        self.extents
            .iter()
            .map(|e| e.eval(&|n| param_names.iter().position(|p| p == n).map(|k| params[k])))
            .collect()
    }
}

/// One array reference: which array and the affine subscript map from
/// the statement's iteration space to the array's data space.
#[derive(Clone, Debug)]
pub struct Access {
    /// Index into [`Program::arrays`].
    pub array: usize,
    /// Subscript map (`in` = statement domain space, `out` = data space).
    pub map: AffineMap,
}

/// A statement: `write = body(reads)` over an iteration domain.
#[derive(Clone, Debug)]
pub struct Statement {
    /// Statement name (e.g. `"S1"`).
    pub name: String,
    /// Iteration domain; dims are this statement's loop iterators
    /// outermost-first, params are the program parameters.
    pub domain: Polyhedron,
    /// The written reference.
    pub write: Access,
    /// Read references, indexed by [`Expr::Read`].
    pub reads: Vec<Access>,
    /// Right-hand side.
    pub body: Expr,
}

impl Statement {
    /// Nesting depth (number of surrounding loops).
    pub fn depth(&self) -> usize {
        self.domain.n_dims()
    }

    /// Loop iterator names, outermost first.
    pub fn iter_names(&self) -> &[String] {
        self.domain.space().dims()
    }
}

/// A program block.
#[derive(Clone, Debug)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// Parameter names (problem sizes).
    pub params: Vec<String>,
    /// Declared arrays.
    pub arrays: Vec<ArrayDecl>,
    /// Statements in textual order.
    pub stmts: Vec<Statement>,
}

impl Program {
    /// Find an array index by name.
    pub fn array_index(&self, name: &str) -> Result<usize> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| IrError::UnknownArray(name.to_string()))
    }

    /// All accesses (reads and writes) to array `a`, as
    /// `(stmt index, access, is_write)` triples — the input the
    /// data-management framework consumes (`S_1..S_q` with their
    /// `F`/`G` matrices, §3.1).
    pub fn accesses_to(&self, a: usize) -> Vec<(usize, &Access, bool)> {
        let mut out = Vec::new();
        for (si, s) in self.stmts.iter().enumerate() {
            if s.write.array == a {
                out.push((si, &s.write, true));
            }
            for r in &s.reads {
                if r.array == a {
                    out.push((si, r, false));
                }
            }
        }
        out
    }

    /// True iff array `a` is only read (an *input array* in the
    /// paper's §3.1.4 sense).
    pub fn is_input_array(&self, a: usize) -> bool {
        self.stmts.iter().all(|s| s.write.array != a)
            && self
                .stmts
                .iter()
                .any(|s| s.reads.iter().any(|r| r.array == a))
    }

    /// True iff array `a` is only written (an *output array*).
    pub fn is_output_array(&self, a: usize) -> bool {
        self.stmts.iter().any(|s| s.write.array == a)
            && self
                .stmts
                .iter()
                .all(|s| s.reads.iter().all(|r| r.array != a))
    }

    /// Number of loops shared (by name, as a prefix) between two
    /// statements — the "common loops" of dependence analysis.
    pub fn common_depth(&self, s: usize, t: usize) -> usize {
        let a = self.stmts[s].iter_names();
        let b = self.stmts[t].iter_names();
        a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
    }

    /// Validate internal consistency: parameter, array and statement
    /// names are unique, and so are each statement's loop iterators;
    /// access maps match their statement's domain space and their
    /// array's rank.
    pub fn validate(&self) -> Result<()> {
        unique("parameter", self.params.iter())?;
        unique("array", self.arrays.iter().map(|a| &a.name))?;
        unique("statement", self.stmts.iter().map(|s| &s.name))?;
        for s in &self.stmts {
            unique("iterator", s.iter_names().iter())?;
            let check = |acc: &Access| -> Result<()> {
                let arr = self
                    .arrays
                    .get(acc.array)
                    .ok_or_else(|| IrError::UnknownArray(format!("#{}", acc.array)))?;
                if acc.map.n_out() != arr.rank() {
                    return Err(IrError::UnknownArray(format!(
                        "access rank {} != array `{}` rank {}",
                        acc.map.n_out(),
                        arr.name,
                        arr.rank()
                    )));
                }
                if !acc.map.in_space().same_shape(s.domain.space()) {
                    return Err(IrError::UnknownName(format!(
                        "access map space mismatch in `{}`",
                        s.name
                    )));
                }
                Ok(())
            };
            check(&s.write)?;
            for r in &s.reads {
                check(r)?;
            }
        }
        Ok(())
    }

    /// Render as pseudo-C (for docs, tests and eyeballing): one loop
    /// nest per statement with its domain's per-level bounds.
    pub fn to_pseudo_c(&self) -> String {
        let mut out = String::new();
        for a in &self.arrays {
            out.push_str(&a.name);
            for e in &a.extents {
                out.push_str(&format!("[{e}]"));
            }
            out.push_str(";\n");
        }
        for s in &self.stmts {
            out.push_str(&format!("// {}\n", s.name));
            let dims = s.domain.space().dims().to_vec();
            let params = s.domain.space().params().to_vec();
            for (d, name) in dims.iter().enumerate() {
                let indent = "  ".repeat(d);
                match polymem_poly::bounds::dim_bounds(&s.domain, d, d) {
                    Ok(b) => {
                        let wrap = |terms: &[polymem_poly::AffineForm], f: &str| {
                            let rendered: Vec<String> = terms
                                .iter()
                                .map(|t| t.display(&dims[..d], &params))
                                .collect();
                            if rendered.len() == 1 {
                                rendered.into_iter().next().expect("len checked")
                            } else {
                                format!("{f}({})", rendered.join(", "))
                            }
                        };
                        let lb = wrap(&b.lower.terms, "max");
                        let ub = wrap(&b.upper.terms, "min");
                        out.push_str(&format!(
                            "{indent}for ({name} = {lb}; {name} <= {ub}; {name}++)\n"
                        ));
                    }
                    Err(_) => out.push_str(&format!("{indent}for ({name} = ?; ?; {name}++)\n")),
                }
            }
            let indent = "  ".repeat(dims.len());
            out.push_str(&format!(
                "{indent}{} = f({});\n",
                self.render_access(&s.write),
                s.reads
                    .iter()
                    .map(|r| self.render_access(r))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        out
    }

    /// Render one access as source text, e.g. `A[i + 1][k]`.
    pub fn render_access(&self, acc: &Access) -> String {
        let arr = &self.arrays[acc.array];
        let m = acc.map.matrix();
        let in_space = acc.map.in_space();
        let mut s = arr.name.clone();
        for r in 0..acc.map.n_out() {
            let mut term = String::new();
            for j in 0..in_space.n_dims() {
                append_term(&mut term, m[(r, j)], in_space.dim_name(j));
            }
            for j in 0..in_space.n_params() {
                append_term(
                    &mut term,
                    m[(r, in_space.n_dims() + j)],
                    in_space.param_name(j),
                );
            }
            let k = m[(r, in_space.n_cols() - 1)];
            if term.is_empty() {
                term = k.to_string();
            } else if k > 0 {
                term.push_str(&format!(" + {k}"));
            } else if k < 0 {
                term.push_str(&format!(" - {}", -k));
            }
            s.push_str(&format!("[{term}]"));
        }
        s
    }
}

fn append_term(s: &mut String, c: i64, name: &str) {
    if c == 0 {
        return;
    }
    if s.is_empty() {
        if c == -1 {
            s.push('-');
        } else if c != 1 {
            s.push_str(&format!("{c}*"));
        }
    } else if c > 0 {
        s.push_str(" + ");
        if c != 1 {
            s.push_str(&format!("{c}*"));
        }
    } else {
        s.push_str(" - ");
        if c != -1 {
            s.push_str(&format!("{}*", -c));
        }
    }
    s.push_str(name);
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_pseudo_c())
    }
}

/// The first name `names` repeats, as a typed [`IrError::Duplicate`].
fn unique<'a>(kind: &'static str, names: impl Iterator<Item = &'a String>) -> Result<()> {
    let mut seen = std::collections::HashSet::new();
    for name in names {
        if !seen.insert(name) {
            return Err(IrError::Duplicate {
                kind,
                name: name.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::v;

    fn simple_program() -> Program {
        // for i in 0..N-1: B[i] = A[i] + A[i+1]
        let mut b = ProgramBuilder::new("sum", ["N"]);
        b.array("A", &[v("N") + 1]);
        b.array("B", &[v("N")]);
        b.stmt("S1")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("B", &[v("i")])
            .read("A", &[v("i")])
            .read("A", &[v("i") + 1])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        b.build().unwrap()
    }

    #[test]
    fn classification() {
        let p = simple_program();
        let a = p.array_index("A").unwrap();
        let b = p.array_index("B").unwrap();
        assert!(p.is_input_array(a));
        assert!(!p.is_output_array(a));
        assert!(p.is_output_array(b));
        assert!(!p.is_input_array(b));
        assert!(p.array_index("C").is_err());
    }

    #[test]
    fn accesses_to_collects_all_references() {
        let p = simple_program();
        let a = p.array_index("A").unwrap();
        let accs = p.accesses_to(a);
        assert_eq!(accs.len(), 2);
        assert!(accs.iter().all(|(_, _, w)| !w));
        let b = p.array_index("B").unwrap();
        let accs = p.accesses_to(b);
        assert_eq!(accs.len(), 1);
        assert!(accs[0].2);
    }

    #[test]
    fn validation_passes_and_extents_evaluate() {
        let p = simple_program();
        p.validate().unwrap();
        let a = &p.arrays[0];
        assert_eq!(a.eval_extents(&p.params, &[10]).unwrap(), vec![11]);
    }

    #[test]
    fn pseudo_c_rendering_mentions_structure() {
        let p = simple_program();
        let c = p.to_pseudo_c();
        assert!(c.contains("for (i"), "{c}");
        assert!(c.contains("B[i]"), "{c}");
        assert!(c.contains("A[i + 1]"), "{c}");
    }

    #[test]
    fn common_depth_by_name() {
        let mut b = ProgramBuilder::new("two", ["N"]);
        b.array("A", &[v("N") * 2]);
        b.stmt("S1")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("A", &[v("i")])
            .body(Expr::Const(1))
            .done();
        b.stmt("S2")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("i")),
            ])
            .write("A", &[v("j") + v("N")])
            .body(Expr::Const(2))
            .done();
        let p = b.build().unwrap();
        assert_eq!(p.common_depth(0, 1), 1);
        assert_eq!(p.common_depth(1, 1), 2);
    }
}
