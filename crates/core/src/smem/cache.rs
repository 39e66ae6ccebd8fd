//! Compile-once-per-shape plan reuse.
//!
//! A blocked launch restricts the tiled program to one block by fixing
//! the round/block/seq dims to concrete values. Every instance has the
//! same shape and its analysis result differs only in where the fixed
//! dims sit, so running the §3 pipeline on each restricted view — once
//! *per sub-tile of every block of every round* — would repeat one
//! analysis. This module makes it happen once: [`parametrize_dims`]
//! turns the fixed dims into extra *parameters* of the program, so one
//! symbolic [`analyze_program`] run produces a [`SymbolicPlan`] whose
//! buffer bounds, access rewrites and movement loop nests are affine in
//! those parameters. Instantiating the plan for a concrete block is
//! then just evaluating affine forms at `params ++ fixed values`
//! ([`ext_params`]) — no Fourier–Motzkin, no partitioning, no codegen.
//!
//! Exactness: buffer bounds ([`UnionBound`]), movement ASTs and local
//! access maps are already fully parametric, so instantiating the
//! symbolic plan at a block's fixed values yields element-for-element
//! the data movement of a fresh per-instance analysis — including
//! boundary (partial) tiles, whose `min`/`max` bounds evaluate tighter
//! automatically. The only representative-dependent part is Algorithm
//! 1's *volume* test (it counts points at `sample_params`), which picks
//! which groups are buffered, never how a buffered group behaves; the
//! choice is made once at a representative block and is
//! correctness-neutral.
//!
//! The symbolic program is an **analysis view only**: statement bodies
//! still index iterators of the original full space and must not be
//! evaluated against the reduced space.
//!
//! [`UnionBound`]: super::UnionBound

use super::hierarchy::{analyze_hierarchy, HierPlan, HierSpec, MemLevel};
use super::residency::{plan_residency, ResidencyPlan};
use super::{analyze_program_windows, PassTimes, Result, SmemConfig, SmemError, SmemPlan};
use polymem_ir::{Access, Program};
use polymem_linalg::IMat;
use polymem_poly::{AffineMap, Constraint, ConstraintKind, Polyhedron, Space};
use std::collections::HashMap;
use std::time::Instant;

/// A block-shape-generic scratchpad plan: the result of running the §3
/// pipeline once on the [`parametrize_dims`] view of a blocked program.
#[derive(Clone, Debug)]
pub struct SymbolicPlan {
    /// The plan over the symbolic view. All of its affine structures
    /// take `params ++ fixed` as their parameter vector.
    pub plan: SmemPlan,
    /// The fixed-dim names appended as parameters, in the (sorted)
    /// order their values must be appended to the program parameters.
    pub fixed: Vec<String>,
    /// Per original statement: indices of the dims that remain
    /// iteration dims in the symbolic view (in original order).
    pub kept_dims: Vec<Vec<usize>>,
    /// The recursive level-2 (register-tile) plan, when the mapping
    /// declares thread dims and at least one frame survives the gates.
    pub hier: Option<HierPlan>,
    /// Inter-block residency decomposition (delta transfers between
    /// consecutive sub-tiles), when `SmemConfig::residency_dim` named
    /// one of the fixed dims. Empty plans mean the pass ran but no
    /// group can legally retain anything.
    pub residency: Option<ResidencyPlan>,
}

impl SymbolicPlan {
    /// The plan at one memory level: the scratchpad plan always
    /// exists; the register plan only when the hierarchy produced one.
    pub fn level(&self, level: MemLevel) -> Option<&SmemPlan> {
        match level {
            MemLevel::Scratchpad => Some(&self.plan),
            MemLevel::Register => self.hier.as_ref().map(|h| &h.plan),
        }
    }

    /// [`ext_params`] over this plan's fixed dims.
    pub fn ext_params(&self, params: &[i64], fixed: &HashMap<String, i64>) -> Option<Vec<i64>> {
        ext_params(&self.fixed, params, fixed)
    }

    /// Project a full-space iteration point of statement `stmt` down to
    /// the symbolic view's kept dims.
    pub fn project_point(&self, stmt: usize, point: &[i64]) -> Vec<i64> {
        self.kept_dims[stmt].iter().map(|&d| point[d]).collect()
    }
}

/// The extended parameter vector `params ++ fixed values` of one
/// concrete block instance: every affine structure analysed over the
/// [`parametrize_dims`] view at `names` evaluates under it. `None` if
/// `fixed` does not pin exactly the dims in `names` (a shape mismatch).
pub fn ext_params(
    names: &[String],
    params: &[i64],
    fixed: &HashMap<String, i64>,
) -> Option<Vec<i64>> {
    if fixed.len() != names.len() {
        return None;
    }
    let mut out = Vec::with_capacity(params.len() + names.len());
    out.extend_from_slice(params);
    for name in names {
        out.push(*fixed.get(name)?);
    }
    Some(out)
}

/// Rebuild a statement space with the `names` dims moved to the end of
/// the parameter list. Returns the new space plus, for every new
/// column, the old column it reads from (`None` ⇒ the dim does not
/// exist in this statement; its coefficient is 0).
fn remap_columns(space: &Space, names: &[String]) -> (Space, Vec<Option<usize>>, Vec<usize>) {
    let dims = space.dims();
    let kept: Vec<usize> = (0..dims.len())
        .filter(|&i| !names.iter().any(|n| *n == dims[i]))
        .collect();
    let mut col_map: Vec<Option<usize>> = kept.iter().map(|&d| Some(space.dim_col(d))).collect();
    for p in 0..space.n_params() {
        col_map.push(Some(space.param_col(p)));
    }
    for n in names {
        col_map.push(space.find_dim(n).map(|d| space.dim_col(d)));
    }
    col_map.push(Some(space.const_col()));
    let new_space = Space::new(
        kept.iter().map(|&d| dims[d].clone()),
        space.params().iter().cloned().chain(names.iter().cloned()),
    );
    (new_space, col_map, kept)
}

fn remap_row(row: impl Fn(usize) -> i64, col_map: &[Option<usize>]) -> Vec<i64> {
    col_map.iter().map(|c| c.map(&row).unwrap_or(0)).collect()
}

/// Whether the dims `names` can become parameters next to `params` —
/// the one way [`parametrize_dims`] fails: a name that already is one.
pub fn check_parametrizable<'a>(
    params: &[String],
    names: impl IntoIterator<Item = &'a String>,
) -> Result<()> {
    match names.into_iter().find(|n| params.contains(n)) {
        Some(n) => Err(SmemError::Ir(polymem_ir::IrError::UnknownName(format!(
            "fixed dim `{n}` clashes with a program parameter"
        )))),
        None => Ok(()),
    }
}

/// One statement domain of the symbolic-block view: the dims in
/// `names` this domain iterates become parameters, appended after the
/// existing ones in the given order (a name it does not iterate becomes
/// an unconstrained parameter). Returns the new space's column map
/// alongside, for remapping the statement's accesses.
fn parametrize_space(domain: &Polyhedron, names: &[String]) -> (Polyhedron, Vec<Option<usize>>) {
    let (new_space, col_map, _) = remap_columns(domain.space(), names);
    let rows: Vec<Constraint> = domain
        .constraints()
        .iter()
        .map(|c| {
            let coeffs = remap_row(|j| c.coeff(j), &col_map);
            match c.kind {
                ConstraintKind::Ineq => Constraint::ineq(coeffs),
                ConstraintKind::Eq => Constraint::eq(coeffs),
            }
        })
        .collect();
    (Polyhedron::new(new_space, rows), col_map)
}

/// [`parametrize_dims`] for a single iteration domain: what a launch
/// grid tier is projected from, with the outer tiers' dims as `names`.
pub fn parametrize_domain(domain: &Polyhedron, names: &[String]) -> Result<Polyhedron> {
    check_parametrizable(domain.space().params(), names)?;
    Ok(parametrize_space(domain, names).0)
}

/// The symbolic-block view: every dim named in `names` becomes a
/// program *parameter* (appended after the existing ones, in the given
/// order), in statement domains and access functions alike. Statement
/// bodies are left untouched and must not be evaluated against the
/// transformed spaces.
pub fn parametrize_dims(program: &Program, names: &[String]) -> Result<Program> {
    check_parametrizable(&program.params, names)?;
    let mut out = program.clone();
    out.params.extend(names.iter().cloned());
    for s in &mut out.stmts {
        let (domain, col_map) = parametrize_space(&s.domain, names);
        s.domain = domain;
        let new_space = s.domain.space().clone();
        let remap_access = |acc: &Access| -> Access {
            let m = acc.map.matrix();
            let rows: Vec<Vec<i64>> = (0..m.rows())
                .map(|r| remap_row(|j| m[(r, j)], &col_map))
                .collect();
            let row_refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
            let out_space = Space::new(
                acc.map.out_space().dims().iter().cloned(),
                new_space.params().iter().cloned(),
            );
            Access {
                array: acc.array,
                map: AffineMap::new(new_space.clone(), out_space, IMat::from_rows(&row_refs)),
            }
        };
        s.write = remap_access(&s.write);
        for r in &mut s.reads {
            *r = remap_access(r);
        }
    }
    Ok(out)
}

/// Run the §3 pipeline once on the symbolic view of `program` obtained
/// by parametrising the given fixed dims, using the supplied values as
/// the representative block for Algorithm 1's volume test.
///
/// `config.sample_params` must hold the original program parameters;
/// the representative fixed values are appended internally.
pub fn analyze_symbolic(
    program: &Program,
    fixed: &[(String, i64)],
    config: &SmemConfig,
) -> Result<SymbolicPlan> {
    analyze_symbolic_hier(program, fixed, config, None).map(|(sp, _)| sp)
}

/// [`analyze_symbolic`] plus the recursive register-tile level: when
/// `spec` is given, the §3 pipeline is re-run over the intra-thread
/// subnest against the level-1 buffers and the surviving frames are
/// attached as [`SymbolicPlan::hier`]. Also returns the wall-clock
/// time of every pass, the second level's as the `hierarchy` pass.
/// The times are the caller's: the plan holds only what the passes
/// decided, so two analyses of one launch are equal.
pub fn analyze_symbolic_hier(
    program: &Program,
    fixed: &[(String, i64)],
    config: &SmemConfig,
    spec: Option<&HierSpec>,
) -> Result<(SymbolicPlan, PassTimes)> {
    let mut pairs = fixed.to_vec();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let names: Vec<String> = pairs.iter().map(|p| p.0.clone()).collect();
    let symbolic = parametrize_dims(program, &names)?;
    let mut cfg = config.clone();
    cfg.sample_params.extend(pairs.iter().map(|p| p.1));
    let (plan, mut times, windows) = analyze_program_windows(&symbolic, &cfg)?;
    let residency = match &config.residency_dim {
        Some(dim) if names.iter().any(|n| n == dim) => {
            // The delta / flush nests are movement code: their planning
            // time goes where the move-in / move-out nests' does.
            let t0 = Instant::now();
            let res = plan_residency(&symbolic, &plan, &windows, dim)?;
            times.movement += t0.elapsed();
            Some(res)
        }
        _ => None,
    };
    let kept_dims = program
        .stmts
        .iter()
        .map(|s| {
            let dims = s.domain.space().dims();
            (0..dims.len())
                .filter(|&i| !names.iter().any(|n| *n == dims[i]))
                .collect()
        })
        .collect();
    let hier = match spec {
        Some(spec) => {
            let t0 = Instant::now();
            let hier = analyze_hierarchy(program, fixed, spec, &plan, config)?;
            times.hierarchy = t0.elapsed();
            hier
        }
        None => None,
    };
    let sp = SymbolicPlan {
        plan,
        fixed: names,
        kept_dims,
        hier,
        residency,
    };
    Ok((sp, times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smem::analyze_program;
    use crate::tiling::transform::{fix_dims, tile_program, TileSpec};
    use polymem_ir::expr::v;
    use polymem_ir::{Expr, LinExpr, ProgramBuilder};
    use polymem_poly::count::enumerate_points;
    use std::collections::BTreeSet;

    /// Tiled window kernel: Out[i] = A[i] + A[i+1], i-tiles of 4.
    fn tiled_window() -> Program {
        let mut b = ProgramBuilder::new("w", ["N"]);
        b.array("A", &[v("N") + 1]);
        b.array("Out", &[v("N")]);
        b.stmt("S")
            .loops(&[("i", LinExpr::c(0), v("N") - 1)])
            .write("Out", &[v("i")])
            .read("A", &[v("i")])
            .read("A", &[v("i") + 1])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap()
    }

    #[test]
    fn parametrized_view_validates_and_shrinks_dims() {
        let t = tiled_window();
        let sym = parametrize_dims(&t, &["iT".to_string()]).unwrap();
        sym.validate().unwrap();
        assert_eq!(sym.params, vec!["N".to_string(), "iT".to_string()]);
        for s in &sym.stmts {
            assert!(!s.domain.space().dims().contains(&"iT".to_string()));
            assert_eq!(s.domain.space().n_params(), 2);
            assert_eq!(s.write.map.in_space().n_params(), 2);
        }
    }

    #[test]
    fn parametrized_domain_matches_fixed_domain_pointwise() {
        let t = tiled_window();
        let sym = parametrize_dims(&t, &["iT".to_string()]).unwrap();
        let n = 10i64;
        for bt in 0..3 {
            // Concrete restriction of the original statement.
            let mut fixed = HashMap::new();
            fixed.insert("iT".to_string(), bt);
            let conc = fix_dims(&t.stmts[0].domain, &fixed)
                .substitute_params(&[n])
                .unwrap();
            let mut orig: BTreeSet<Vec<i64>> = BTreeSet::new();
            enumerate_points(&conc, 10_000, &mut |p| {
                // Drop the iT dim (position 0 after tiling).
                orig.insert(p[1..].to_vec());
            })
            .unwrap();
            // The symbolic domain at ext params [n, bt].
            let sdom = sym.stmts[0].domain.substitute_params(&[n, bt]).unwrap();
            let mut got: BTreeSet<Vec<i64>> = BTreeSet::new();
            enumerate_points(&sdom, 10_000, &mut |p| {
                got.insert(p.to_vec());
            })
            .unwrap();
            assert_eq!(orig, got, "block {bt}");
        }
    }

    #[test]
    fn symbolic_plan_matches_per_instance_analysis_per_block() {
        let t = tiled_window();
        let n = 10i64;
        // The caller's config — including the default
        // `must_copy_all: false`, so reuse minimisation applies to the
        // cached path exactly as to fresh per-instance analysis.
        let cfg = SmemConfig {
            sample_params: vec![n],
            ..SmemConfig::default()
        };
        let sp = analyze_symbolic(&t, &[("iT".to_string(), 0)], &cfg).unwrap();
        // Blocks 0..2 (block 2 is a partial boundary tile: 10 = 2*4+2).
        for bt in 0..3 {
            let mut fixed = HashMap::new();
            fixed.insert("iT".to_string(), bt);
            let mut view = t.clone();
            for s in &mut view.stmts {
                s.domain = fix_dims(&s.domain, &fixed);
            }
            let fresh = analyze_program(&view, &cfg).unwrap();
            let ext = sp.ext_params(&[n], &fixed).unwrap();
            assert_eq!(sp.plan.buffers.len(), fresh.buffers.len(), "block {bt}");
            for (sb, fb) in sp.plan.buffers.iter().zip(&fresh.buffers) {
                assert_eq!(sb.array, fb.array);
                assert_eq!(sb.extents(&ext).unwrap(), fb.extents(&[n]).unwrap());
                assert_eq!(sb.offsets(&ext).unwrap(), fb.offsets(&[n]).unwrap());
            }
            // Move-in element sets agree (global side).
            let collect = |plan: &SmemPlan, params: &[i64]| -> BTreeSet<(usize, Vec<i64>)> {
                let mut set = BTreeSet::new();
                for mc in &plan.movement {
                    let buf = &plan.buffers[mc.buffer];
                    crate::smem::movement::for_each_scan(&mc.move_in, buf, params, &mut |g, _| {
                        set.insert((buf.array, g.to_vec()));
                    })
                    .unwrap();
                }
                set
            };
            assert_eq!(collect(&sp.plan, &ext), collect(&fresh, &[n]), "block {bt}");
        }
    }

    #[test]
    fn cached_plan_honors_minimised_copy_sets() {
        // With the default `must_copy_all: false`, the singleton Out
        // write group fails Algorithm 1 and must be skipped by BOTH
        // the cached (symbolic) path and fresh per-instance analysis —
        // and the surviving groups must move identical element sets.
        let t = tiled_window();
        let n = 10i64;
        let cfg = SmemConfig {
            sample_params: vec![n],
            ..SmemConfig::default()
        };
        let sp = analyze_symbolic(&t, &[("iT".to_string(), 0)], &cfg).unwrap();
        let out = t.array_index("Out").unwrap();
        assert!(
            !sp.plan.buffers.iter().any(|b| b.array == out),
            "cached path must apply reuse minimisation"
        );
        for bt in 0..3 {
            let mut fixed = HashMap::new();
            fixed.insert("iT".to_string(), bt);
            let mut view = t.clone();
            for s in &mut view.stmts {
                s.domain = fix_dims(&s.domain, &fixed);
            }
            let fresh = analyze_program(&view, &cfg).unwrap();
            assert!(!fresh.buffers.iter().any(|b| b.array == out), "block {bt}");
            let ext = sp.ext_params(&[n], &fixed).unwrap();
            let collect = |plan: &SmemPlan, params: &[i64]| -> BTreeSet<(usize, Vec<i64>)> {
                let mut set = BTreeSet::new();
                for mc in &plan.movement {
                    let buf = &plan.buffers[mc.buffer];
                    crate::smem::movement::for_each_scan(&mc.move_in, buf, params, &mut |g, _| {
                        set.insert((buf.array, g.to_vec()));
                    })
                    .unwrap();
                }
                set
            };
            assert_eq!(collect(&sp.plan, &ext), collect(&fresh, &[n]), "block {bt}");
        }
    }

    #[test]
    fn fixed_name_colliding_with_param_is_rejected() {
        let t = tiled_window();
        assert!(parametrize_dims(&t, &["N".to_string()]).is_err());
    }

    #[test]
    fn ext_params_rejects_shape_mismatch() {
        let t = tiled_window();
        let cfg = SmemConfig {
            sample_params: vec![8],
            ..SmemConfig::default()
        };
        let sp = analyze_symbolic(&t, &[("iT".to_string(), 0)], &cfg).unwrap();
        let mut wrong = HashMap::new();
        wrong.insert("jT".to_string(), 1);
        assert!(sp.ext_params(&[8], &wrong).is_none());
        assert!(sp.ext_params(&[8], &HashMap::new()).is_none());
    }
}
