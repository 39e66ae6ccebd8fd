//! Permutable-band detection and space/time classification (§4.1).
//!
//! The paper consumes the Bondhugula et al. transformation framework,
//! which delivers bands of permutable loops plus the classification of
//! band loops into space (communication-free) and time loops. polymem
//! reproduces that interface on the *given* loop order: a prefix of
//! the loops shared by all statements is a permutable band when every
//! dependence has non-negative direction components on every band
//! loop (so any interchange within the band is legal, and the band is
//! tilable). A band loop is a **space loop** when no dependence is
//! carried by it (all components zero); otherwise it is a **time
//! loop**. If the band has no space loop, all but the last band loop
//! are treated as space loops (pipelined/wavefront execution after
//! skewing, as in the paper's Jacobi treatment via its ref. \[27\]).

use crate::deps::{compute_deps, ProgDep};
use polymem_ir::Program;
use polymem_poly::dep::{DepKind, DirSign};
use polymem_poly::Result;

/// Classification of one band loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopKind {
    /// Communication-free: distributed across parallel units.
    Space,
    /// Carries dependences: executed sequentially (or pipelined).
    Time,
}

/// The outermost permutable band of a program.
#[derive(Clone, Debug)]
pub struct Band {
    /// Indices (into the shared loop prefix) of the band loops,
    /// outermost first. Always a prefix `0..len`.
    pub loops: Vec<usize>,
    /// Per-band-loop classification after the paper's rule.
    pub kinds: Vec<LoopKind>,
    /// The dependences used (for reuse by later phases).
    pub deps: Vec<ProgDep>,
    /// Whether the space loops come from the pipeline rule (every band
    /// loop carries a dependence and all but the last were promoted).
    /// Such loops are parallel only under wavefront synchronisation,
    /// not communication-free.
    pub pipelined: bool,
}

impl Band {
    /// The communication-free space loops: no dependence is carried by
    /// them, so their iterations can run as independent blocks of one
    /// round. Empty for a [`pipelined`](Band::pipelined) band.
    pub fn parallel_loops(&self) -> Vec<usize> {
        if self.pipelined {
            Vec::new()
        } else {
            self.space_loops()
        }
    }

    /// Indices of space loops.
    pub fn space_loops(&self) -> Vec<usize> {
        self.loops
            .iter()
            .zip(&self.kinds)
            .filter(|(_, k)| **k == LoopKind::Space)
            .map(|(l, _)| *l)
            .collect()
    }

    /// Indices of time loops within the band.
    pub fn time_loops(&self) -> Vec<usize> {
        self.loops
            .iter()
            .zip(&self.kinds)
            .filter(|(_, k)| **k == LoopKind::Time)
            .map(|(l, _)| *l)
            .collect()
    }
}

/// Number of loops shared (by name, as a prefix) by *all* statements.
fn shared_prefix_depth(program: &Program) -> usize {
    let Some(first) = program.stmts.first() else {
        return 0;
    };
    let mut depth = first.depth();
    for s in &program.stmts[1..] {
        let names = s.iter_names();
        let common = first
            .iter_names()
            .iter()
            .zip(names)
            .take_while(|(a, b)| a == b)
            .count();
        depth = depth.min(common);
    }
    depth
}

/// Find the outermost permutable band and classify its loops.
pub fn find_permutable_band(program: &Program) -> Result<Band> {
    let deps = compute_deps(program, &[DepKind::Flow, DepKind::Anti, DepKind::Output])?;
    let depth = shared_prefix_depth(program);

    // Direction sign of every dep at every shared loop.
    let mut signs: Vec<Vec<DirSign>> = Vec::with_capacity(deps.len());
    for d in &deps {
        let mut row = Vec::with_capacity(depth);
        for l in 0..depth {
            row.push(d.dep.direction(l)?);
        }
        signs.push(row);
    }

    // Outermost band: maximal prefix with all components non-negative.
    let mut band_len = 0;
    'grow: for l in 0..depth {
        for row in &signs {
            if !row[l].is_non_negative() {
                break 'grow;
            }
        }
        band_len = l + 1;
    }

    let loops: Vec<usize> = (0..band_len).collect();
    let mut kinds: Vec<LoopKind> = loops
        .iter()
        .map(|&l| {
            let carried = signs
                .iter()
                .any(|row| matches!(row[l], DirSign::Pos | DirSign::Star));
            if carried {
                LoopKind::Time
            } else {
                LoopKind::Space
            }
        })
        .collect();

    // Paper rule: with no communication-free loop in the band, all but
    // the last become space loops (pipeline parallelism).
    let pipelined = kinds.len() > 1 && kinds.iter().all(|k| *k == LoopKind::Time);
    if pipelined {
        let last = kinds.len() - 1;
        for k in kinds.iter_mut().take(last) {
            *k = LoopKind::Space;
        }
    }

    Ok(Band {
        loops,
        kinds,
        deps,
        pipelined,
    })
}

/// Largest prefix of the shared loops on which every dependence
/// distance is lexicographically non-negative.
///
/// This is a *necessary* condition for tiling the prefix in the given
/// order and an upper bound on how deep any tiling can go; it is not
/// sufficient for arbitrary tile sizes (a `(+, -)` distance is
/// lex-positive yet forbids 2-D rectangular tiling). The size-aware
/// authority is [`super::legality::check_tiling`], which additionally
/// accounts for tile-boundary crossings — e.g. the ME reduction's
/// `(0, 0, +, *)` dependence admits the paper's Fig. 3 tiling only
/// because its `(k, l)` tiles cover the whole window.
pub fn tilable_prefix(program: &Program) -> Result<usize> {
    let deps = compute_deps(program, &[DepKind::Flow, DepKind::Anti, DepKind::Output])?;
    let depth = shared_prefix_depth(program);
    let mut m = depth;
    for d in &deps {
        let n_src = d.dep.n_src;
        let ncols = d.dep.poly.space().n_cols();
        // Find the first depth j at which the distance can be
        // lex-negative: Δ_0 = … = Δ_{j-1} = 0 and Δ_j <= -1.
        let mut probe = d.dep.poly.clone();
        for j in 0..depth.min(n_src).min(d.dep.poly.n_dims() - n_src) {
            // Can Δ_j be negative with all earlier components zero?
            let mut neg = probe.clone();
            let mut row = vec![0i64; ncols];
            row[n_src + j] = -1;
            row[j] = 1;
            row[ncols - 1] = -1;
            neg.add_constraint(polymem_poly::Constraint::ineq(row));
            if !neg.is_empty()? {
                m = m.min(j);
                break;
            }
            // Pin Δ_j = 0 and continue deeper.
            let mut row = vec![0i64; ncols];
            row[n_src + j] = 1;
            row[j] = -1;
            probe.add_constraint(polymem_poly::Constraint::eq(row));
            if probe.is_empty()? {
                break; // distance strictly positive here: dep satisfied
            }
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem_ir::expr::v;
    use polymem_ir::{Expr, LinExpr, ProgramBuilder};

    /// Fig. 2 shape: FORALL i, j; FOR k, l — fully parallel i, j.
    fn me_like() -> polymem_ir::Program {
        let mut b = ProgramBuilder::new("me", ["Ni", "Nj", "W"]);
        b.array("Cur", &[v("Ni") + 16, v("Nj") + 16]);
        b.array("Ref", &[v("Ni") + 32, v("Nj") + 32]);
        b.array("Sad", &[v("Ni"), v("Nj")]);
        b.stmt("S1")
            .loops(&[
                ("i", LinExpr::c(0), v("Ni") - 1),
                ("j", LinExpr::c(0), v("Nj") - 1),
                ("k", LinExpr::c(0), v("W") - 1),
                ("l", LinExpr::c(0), v("W") - 1),
            ])
            .write("Sad", &[v("i"), v("j")])
            .read("Sad", &[v("i"), v("j")])
            .read("Cur", &[v("i") + v("k"), v("j") + v("l")])
            .read("Ref", &[v("i") + v("k"), v("j") + v("l")])
            .body(Expr::add(
                Expr::Read(0),
                Expr::abs(Expr::sub(Expr::Read(1), Expr::Read(2))),
            ))
            .done();
        b.build().unwrap()
    }

    #[test]
    fn me_kernel_has_parallel_space_loops() {
        let p = me_like();
        let band = find_permutable_band(&p).unwrap();
        assert!(band.loops.len() >= 2);
        assert_eq!(band.kinds[0], LoopKind::Space);
        assert_eq!(band.kinds[1], LoopKind::Space);
        assert_eq!(band.space_loops()[..2], [0, 1]);
        assert!(!band.pipelined);
        assert_eq!(band.parallel_loops(), band.space_loops());
    }

    /// Skewed Jacobi-like: for t, for i: A[t][i] = A[t-1][i-1] +
    /// A[t-1][i] + A[t-1][i+1] with i skewed by t would be
    /// pipelined; unskewed, the t loop carries everything and i is
    /// parallel.
    fn jacobi_unskewed() -> polymem_ir::Program {
        let mut b = ProgramBuilder::new("jacobi", ["T", "N"]);
        b.array("A", &[v("T") + 1, v("N") + 2]);
        b.stmt("S")
            .loops(&[("t", LinExpr::c(1), v("T")), ("i", LinExpr::c(1), v("N"))])
            .write("A", &[v("t"), v("i")])
            .read("A", &[v("t") - 1, v("i") - 1])
            .read("A", &[v("t") - 1, v("i")])
            .read("A", &[v("t") - 1, v("i") + 1])
            .body(Expr::div(
                Expr::add(Expr::add(Expr::Read(0), Expr::Read(1)), Expr::Read(2)),
                Expr::Const(3),
            ))
            .done();
        b.build().unwrap()
    }

    #[test]
    fn unskewed_jacobi_band_stops_at_star_component() {
        let p = jacobi_unskewed();
        let band = find_permutable_band(&p).unwrap();
        // t has direction +, i has direction * (A[t-1][i+1] gives
        // negative i-distance): band = [t] only, which then becomes a
        // pipelined... single-loop band: all-time rule keeps last as
        // time, so zero space loops here.
        assert_eq!(band.loops, vec![0]);
        assert_eq!(band.kinds, vec![LoopKind::Time]);
        assert!(band.space_loops().is_empty());
    }

    /// Skewed Jacobi: i' = 2t + i makes all dependence components
    /// non-negative on (t, i'), giving a 2-loop fully-time band →
    /// pipeline rule marks t as space.
    fn jacobi_skewed() -> polymem_ir::Program {
        let mut b = ProgramBuilder::new("jacobi_skew", ["T", "N"]);
        b.array("A", &[v("T") + 1, v("T") * 2 + v("N") + 2]);
        b.stmt("S")
            .loops(&[
                ("t", LinExpr::c(1), v("T")),
                ("s", v("t") * 2 + 1, v("t") * 2 + v("N")),
            ])
            .write("A", &[v("t"), v("s") - v("t") * 2])
            .read("A", &[v("t") - 1, v("s") - v("t") * 2 - 1])
            .read("A", &[v("t") - 1, v("s") - v("t") * 2])
            .read("A", &[v("t") - 1, v("s") - v("t") * 2 + 1])
            .body(Expr::div(
                Expr::add(Expr::add(Expr::Read(0), Expr::Read(1)), Expr::Read(2)),
                Expr::Const(3),
            ))
            .done();
        b.build().unwrap()
    }

    #[test]
    fn skewed_jacobi_gets_pipelined_space_loop() {
        let p = jacobi_skewed();
        let band = find_permutable_band(&p).unwrap();
        assert_eq!(band.loops, vec![0, 1]);
        // Both carry deps → all-time → pipeline rule: first is space.
        assert_eq!(band.kinds, vec![LoopKind::Space, LoopKind::Time]);
        assert_eq!(band.space_loops(), vec![0]);
        assert_eq!(band.time_loops(), vec![1]);
        // ...but `t` carries the flow dependence: not a loop whose
        // iterations may run as independent blocks.
        assert!(band.pipelined);
        assert!(band.parallel_loops().is_empty());
    }

    #[test]
    fn empty_program_has_empty_band() {
        let b = ProgramBuilder::new("empty", ["N"]);
        let p = b.build().unwrap();
        let band = find_permutable_band(&p).unwrap();
        assert!(band.loops.is_empty());
    }
}
