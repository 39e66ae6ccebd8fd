//! [`Polyhedron`]: a conjunction of affine constraints over a named
//! space, with exact Fourier–Motzkin elimination.
//!
//! This is the workhorse type of the crate. Elimination substitutes
//! through equalities where possible (exact over the integers when the
//! pivot coefficient is ±1) and falls back to classic Fourier–Motzkin
//! pairing on inequalities (the rational shadow; see the crate-level
//! exactness notes).
//!
//! ## Performance shape
//!
//! Multi-dimension elimination ([`Polyhedron::eliminate_dims`]) orders
//! dims greedily by estimated pair blow-up (minimum lower×upper
//! product, equality pivots first), interleaves syntactic pruning after
//! every step (via `simplify`), and fires a *bounded exact prune* —
//! simplex-backed redundancy probes — whenever the row count grows past
//! a threshold. Results are memoized in the content-addressed
//! [`crate::cache`]. Emptiness ([`Polyhedron::is_empty`]) settles most
//! systems with cheap verdicts (constant rows, equality gcd, two
//! opposite inequalities), runs the rest through a capped rational FM
//! kernel in a reused flat per-thread buffer, and escalates blown-up
//! systems to a rational phase-1 simplex ([`crate::simplex`]); the
//! tightening FM path survives as the overflow fallback and as the
//! `POLYMEM_POLY_CHECK=1` cross-check oracle. Setting naive mode
//! ([`crate::cache::set_naive_mode`] or `POLYMEM_POLY_NAIVE=1`) reverts
//! all of this to the pre-optimization behaviour for benchmarking.

use crate::constraint::{Constraint, ConstraintKind};
use crate::space::Space;
use crate::{cache, simplex, PolyError, Result};
use polymem_linalg::combine_rows_into;
use polymem_linalg::gcd::gcd_i64;
use std::fmt;

/// Row count past which `eliminate_dims` runs a bounded exact prune
/// between elimination steps. The pipeline's systems stay well under
/// this after syntactic pruning, so the exact pass fires only on
/// genuinely blown-up intermediates.
const EXACT_PRUNE_THRESHOLD: usize = 24;

/// Probe budget for one bounded exact prune pass.
const EXACT_PRUNE_BUDGET: usize = 96;

/// Row cap for the rational Fourier–Motzkin feasibility fast path in
/// [`Polyhedron::rows_empty`]. The small sparse systems the pipeline
/// asks about (difference pieces, bound probes) eliminate in a handful
/// of cheap pairings; anything that grows past this cap escalates to
/// the phase-1 simplex, which is immune to FM blow-up.
const FM_FEAS_CAP: usize = 48;

/// A polyhedron: `{ x : A(x, q, 1) >= 0, B(x, q, 1) = 0 }` over the
/// dims `x` and parameters `q` of its [`Space`].
#[derive(Clone, PartialEq, Eq)]
pub struct Polyhedron {
    space: Space,
    constraints: Vec<Constraint>,
}

impl Polyhedron {
    /// The universe (no constraints) over a space.
    pub fn universe(space: Space) -> Polyhedron {
        Polyhedron {
            space,
            constraints: Vec::new(),
        }
    }

    /// Build from a space and constraint rows. Rows must have
    /// `space.n_cols()` columns.
    pub fn new(space: Space, constraints: Vec<Constraint>) -> Polyhedron {
        for c in &constraints {
            assert_eq!(
                c.len(),
                space.n_cols(),
                "constraint width {} does not match space {:?}",
                c.len(),
                space
            );
        }
        let mut p = Polyhedron { space, constraints };
        p.simplify();
        p
    }

    /// An explicitly empty polyhedron over a space.
    pub fn empty(space: Space) -> Polyhedron {
        let n = space.n_cols();
        let mut row = vec![0i64; n];
        row[n - 1] = -1; // -1 >= 0 : unsatisfiable
        Polyhedron {
            space,
            constraints: vec![Constraint::ineq(row)],
        }
    }

    /// The space this polyhedron lives in.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The constraint rows.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of set dimensions.
    pub fn n_dims(&self) -> usize {
        self.space.n_dims()
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.space.n_params()
    }

    /// Add one constraint (re-simplifies).
    pub fn add_constraint(&mut self, c: Constraint) {
        assert_eq!(c.len(), self.space.n_cols());
        self.constraints.push(c);
        self.simplify();
    }

    /// Intersection of two polyhedra over same-shape spaces (names from
    /// `self` win).
    pub fn intersect(&self, other: &Polyhedron) -> Result<Polyhedron> {
        if !self.space.same_shape(&other.space) {
            return Err(PolyError::SpaceMismatch { op: "intersect" });
        }
        let mut cs = self.constraints.clone();
        cs.extend(other.constraints.iter().cloned());
        Ok(Polyhedron::new(self.space.clone(), cs))
    }

    /// Membership test for a concrete point.
    pub fn contains(&self, x: &[i64], q: &[i64]) -> bool {
        debug_assert_eq!(x.len(), self.n_dims());
        debug_assert_eq!(q.len(), self.n_params());
        self.constraints.iter().all(|c| c.satisfied(x, q))
    }

    /// Syntactic + local-semantic cleanup: normalise rows, drop
    /// duplicates and trivially-true rows, fold opposite inequality
    /// pairs into equalities, keep only the tightest of rows sharing a
    /// variable part, and detect trivial unsatisfiability.
    fn simplify(&mut self) {
        use std::collections::{HashMap, HashSet};
        let ncols = self.space.n_cols();
        // Equality rows deduped by hashed content (rows are normalized
        // first, so equal sets hash equal) — O(n) instead of the O(n²)
        // `Vec::contains` scan this loop used to do.
        let mut eq_seen: HashSet<Vec<i64>> = HashSet::new();
        let mut eqs: Vec<Constraint> = Vec::new();
        // Tightest constant per inequality variable-part.
        let mut ineqs: HashMap<Vec<i64>, i64> = HashMap::new();
        let mut unsat = false;
        for c in &mut self.constraints {
            c.normalize();
        }
        for c in &self.constraints {
            match c.constant_verdict() {
                Some(true) => continue,
                Some(false) => {
                    unsat = true;
                    break;
                }
                None => {}
            }
            match c.kind {
                ConstraintKind::Eq => {
                    if eq_seen.insert(c.coeffs.0.clone()) {
                        eqs.push(c.clone());
                    }
                }
                ConstraintKind::Ineq => {
                    let var_part: Vec<i64> = c.coeffs[..ncols - 1].to_vec();
                    let k = c.constant();
                    ineqs
                        .entry(var_part)
                        .and_modify(|old| *old = (*old).min(k))
                        .or_insert(k);
                }
            }
        }
        if unsat {
            *self = Polyhedron::empty(self.space.clone());
            return;
        }
        // Fold e >= 0 and -e >= 0 (allowing the tightened constants to
        // meet exactly) into equalities; detect e >= a, -e >= -b with
        // a > b as unsatisfiable.
        let mut out: Vec<Constraint> = eqs;
        let mut consumed: HashSet<Vec<i64>> = HashSet::new();
        let keys: Vec<Vec<i64>> = ineqs.keys().cloned().collect();
        for vp in &keys {
            if consumed.contains(vp) {
                continue;
            }
            let neg: Vec<i64> = vp.iter().map(|&c| -c).collect();
            if let (Some(&k), Some(&nk)) = (ineqs.get(vp), ineqs.get(&neg)) {
                if vp != &neg {
                    // vp·x >= -k and vp·x <= nk ; empty if -k > nk.
                    if -k > nk {
                        *self = Polyhedron::empty(self.space.clone());
                        return;
                    }
                    if -k == nk {
                        let mut row = vp.clone();
                        row.push(k);
                        out.push(Constraint::eq(row));
                        consumed.insert(vp.clone());
                        consumed.insert(neg);
                        continue;
                    }
                }
            }
        }
        for (vp, k) in ineqs {
            if consumed.contains(&vp) {
                continue;
            }
            let mut row = vp;
            row.push(k);
            out.push(Constraint::ineq(row));
        }
        // Deterministic order keeps Debug output and tests stable.
        out.sort_by(|a, b| (a.kind as u8, &a.coeffs).cmp(&(b.kind as u8, &b.coeffs)));
        self.constraints = out;
    }

    /// True iff the polyhedron is syntactically the canonical empty set
    /// (cheap check; for a semantic test use [`Polyhedron::is_empty`]).
    pub fn is_obviously_empty(&self) -> bool {
        self.constraints
            .iter()
            .any(|c| c.constant_verdict() == Some(false))
    }

    /// Eliminate one set dimension (Fourier–Motzkin with equality
    /// substitution). The resulting polyhedron has `n_dims - 1` dims.
    pub fn eliminate_dim(&self, dim: usize) -> Result<Polyhedron> {
        let _timer = cache::CoreTimer::enter();
        let n = self.n_dims();
        if dim >= n {
            return Err(PolyError::BadDim { dim, n_dims: n });
        }
        let new_space = self.space.drop_dims(&[dim]);
        if self.is_obviously_empty() {
            return Ok(Polyhedron::empty(new_space));
        }

        // Prefer substitution through an equality with the smallest
        // |coefficient| on `dim` (|1| is exact over the integers).
        let pivot = self
            .constraints
            .iter()
            .filter(|c| c.kind == ConstraintKind::Eq && c.coeff(dim) != 0)
            .min_by_key(|c| c.coeff(dim).abs());
        if let Some(e) = pivot {
            let a = e.coeff(dim);
            let mut rows = Vec::with_capacity(self.constraints.len());
            let mut scratch: Vec<i64> = Vec::new();
            for c in &self.constraints {
                if std::ptr::eq(c, e) {
                    continue;
                }
                let b = c.coeff(dim);
                let combined = if b == 0 {
                    c.clone()
                } else {
                    // |a|*c - sign(a)*b*e has zero coefficient on dim.
                    // Multiplying an inequality by |a| > 0 is sound.
                    let g = gcd_i64(a, b);
                    let (ca, cb) = ((a / g).abs(), b / g * (a / g).signum());
                    combine_rows_into(ca, &c.coeffs, -cb, &e.coeffs, &mut scratch)?;
                    match c.kind {
                        ConstraintKind::Ineq => Constraint::ineq(scratch.clone()),
                        ConstraintKind::Eq => Constraint::eq(scratch.clone()),
                    }
                };
                rows.push(drop_col(&combined, dim));
            }
            return Ok(Polyhedron::new(new_space, rows));
        }

        // Classic FM pairing on inequalities. Equalities without the
        // dim pass through unchanged (any equality *with* the dim would
        // have been a pivot above).
        let mut lower: Vec<&Constraint> = Vec::new();
        let mut upper: Vec<&Constraint> = Vec::new();
        let mut rest: Vec<Constraint> = Vec::new();
        for c in &self.constraints {
            let a = c.coeff(dim);
            if a == 0 {
                rest.push(drop_col(c, dim));
            } else if a > 0 {
                lower.push(c); // a·dim >= -(rest) : lower bound
            } else {
                upper.push(c); // (-a)·dim <= rest : upper bound
            }
        }
        cache::count_fm_generated(lower.len() * upper.len());
        let mut scratch: Vec<i64> = Vec::new();
        for lo in &lower {
            for up in &upper {
                let a = lo.coeff(dim); // > 0
                let b = -up.coeff(dim); // > 0
                let g = gcd_i64(a, b);
                let (ma, mb) = (b / g, a / g);
                combine_rows_into(ma, &lo.coeffs, mb, &up.coeffs, &mut scratch)?;
                rest.push(drop_col(&Constraint::ineq(scratch.clone()), dim));
            }
        }
        let candidates = rest.len();
        let p = Polyhedron::new(new_space, rest);
        cache::count_fm_pruned(candidates.saturating_sub(p.constraints.len()));
        Ok(p)
    }

    /// Eliminate several dims. The fast path picks the elimination
    /// order greedily (equality pivots first, then minimum lower×upper
    /// pair product — the classic blow-up estimate), prunes
    /// syntactically after every step, runs a bounded exact prune when
    /// rows pile up, and memoizes the result by content in
    /// [`crate::cache`]. Naive mode falls back to fixed
    /// highest-index-first order with no pruning.
    pub fn eliminate_dims(&self, dims: &[usize]) -> Result<Polyhedron> {
        let _timer = cache::CoreTimer::enter();
        let mut sorted = dims.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if cache::naive_mode() {
            let mut p = self.clone();
            for &d in sorted.iter().rev() {
                p = p.eliminate_dim(d)?;
            }
            return Ok(p);
        }
        if sorted.is_empty() {
            return Ok(self.clone());
        }
        cache::project_memo(self, &sorted, || self.eliminate_dims_greedy(&sorted))
    }

    /// Greedy-ordered elimination with interleaved pruning (the fast
    /// path behind [`Polyhedron::eliminate_dims`]).
    fn eliminate_dims_greedy(&self, sorted: &[usize]) -> Result<Polyhedron> {
        let mut remaining: Vec<usize> = sorted.to_vec();
        let mut p = self.clone();
        while !remaining.is_empty() {
            let mut best = 0usize;
            let mut best_cost = u64::MAX;
            for (ri, &d) in remaining.iter().enumerate() {
                let (mut lo, mut up) = (0u64, 0u64);
                let mut has_eq = false;
                for c in &p.constraints {
                    let a = c.coeff(d);
                    if a == 0 {
                        continue;
                    }
                    if c.kind == ConstraintKind::Eq {
                        has_eq = true;
                        break;
                    }
                    if a > 0 {
                        lo += 1;
                    } else {
                        up += 1;
                    }
                }
                // Equality substitution never grows the system; FM
                // pairing replaces lo+up rows with lo·up.
                let cost = if has_eq { 0 } else { lo * up };
                if cost < best_cost {
                    best_cost = cost;
                    best = ri;
                }
            }
            let d = remaining.remove(best);
            p = p.eliminate_dim(d)?;
            for r in remaining.iter_mut() {
                if *r > d {
                    *r -= 1;
                }
            }
            if p.constraints.len() > EXACT_PRUNE_THRESHOLD {
                p = p.prune_exact_bounded(EXACT_PRUNE_BUDGET)?;
            }
        }
        Ok(p)
    }

    /// Project onto the given dims (kept in their current relative
    /// order); all other dims are eliminated.
    pub fn project_onto(&self, keep: &[usize]) -> Result<Polyhedron> {
        let _timer = cache::CoreTimer::enter();
        let n = self.n_dims();
        let mut keep_mask = vec![false; n];
        for &d in keep {
            if d < n {
                keep_mask[d] = true;
            }
        }
        let drop: Vec<usize> = (0..n).filter(|&d| !keep_mask[d]).collect();
        self.eliminate_dims(&drop)
    }

    /// Rational Fourier–Motzkin feasibility with a row cap: greedy
    /// variable ordering, equality pivots first, gcd row reduction —
    /// but *no* integer tightening, so the verdict is exactly rational
    /// (in)feasibility, interchangeable with the phase-1 simplex
    /// verdict. Returns `None` when an intermediate system grows past
    /// `cap` rows or an exact product overflows `i128`; the caller
    /// escalates to simplex. The kernel runs in `i64` first and reruns
    /// from the start in `i128` when an `i64` step overflows; both are
    /// exact, so the rerun changes no verdict.
    fn rows_feasible_fm_capped(rows: &[&Constraint], n_vars: usize, cap: usize) -> Option<bool> {
        match fm_kernel::<i64>(rows, n_vars, cap) {
            Some(verdict) => verdict,
            None => fm_kernel::<i128>(rows, n_vars, cap).flatten(),
        }
    }

    /// Rational emptiness of a constraint system over this
    /// polyhedron's variables: cheap verdicts (constant rows, the
    /// integer gcd shortcut on equalities, and outside naive mode two
    /// opposite inequalities whose constants sum below zero), then
    /// capped rational Fourier–Motzkin, escalating to phase-1 simplex
    /// when the system blows up; full integer-tightening FM is the
    /// naive-mode path and overflow fallback.
    pub(crate) fn rows_empty(&self, rows: &[Constraint]) -> Result<bool> {
        let refs: Vec<&Constraint> = rows.iter().collect();
        self.rows_empty_refs(&refs)
    }

    /// Borrowed-row variant of [`rows_empty`]: callers assembling a
    /// candidate system from pieces (e.g. the difference construction)
    /// can test emptiness without materializing an owned row vector —
    /// the FM fast path copies into its own scratch anyway. Owned rows
    /// are only built on the rare escalation paths.
    pub(crate) fn rows_empty_refs(&self, rows: &[&Constraint]) -> Result<bool> {
        for c in rows {
            if c.constant_verdict() == Some(false) {
                return Ok(true);
            }
            // Integer infeasibility shortcut: an equality whose
            // variable gcd does not divide its constant has no integer
            // solution.
            if c.kind == ConstraintKind::Eq {
                let n = c.len();
                let g = polymem_linalg::gcd::gcd_slice(&c.coeffs[..n - 1]);
                if g != 0 && c.constant() % g != 0 {
                    return Ok(true);
                }
            }
        }
        let n_vars = self.n_dims() + self.n_params();
        if !cache::naive_mode() && opposite_rows_empty(rows) {
            self.check_empty_verdict(rows, true, "the opposite-row pre-check")?;
            return Ok(true);
        }
        cache::count_feasibility_test();
        if !cache::naive_mode() {
            if let Some(feasible) = Self::rows_feasible_fm_capped(rows, n_vars, FM_FEAS_CAP) {
                self.check_empty_verdict(rows, !feasible, "rational FM")?;
                return Ok(!feasible);
            }
            // Escalation: the system grew past the FM cap (or
            // overflowed); hand it to the phase-1 simplex, which does
            // bounded-size pivoting regardless of density.
            let owned: Vec<Constraint> = rows.iter().map(|&c| c.clone()).collect();
            if let Ok(feasible) = simplex::feasible(&owned, n_vars) {
                self.check_empty_verdict(rows, !feasible, "simplex")?;
                return Ok(!feasible);
            }
            // Overflow in the exact tableau: fall through to FM.
        }
        let owned: Vec<Constraint> = rows.iter().map(|&c| c.clone()).collect();
        self.rows_empty_fm(&owned)
    }

    /// Under `POLYMEM_POLY_CHECK=1`, confirm a rational-empty verdict of
    /// `engine` with the tightening FM oracle; disagreement panics. The
    /// invariant is one-directional: rational emptiness must imply FM
    /// emptiness, but FM integer-tightens constants at every
    /// elimination, so it legitimately proves *integer* emptiness of
    /// some rationally-feasible systems (see the `simplex` module docs).
    fn check_empty_verdict(&self, rows: &[&Constraint], empty: bool, engine: &str) -> Result<()> {
        if empty && cache::cross_check() {
            let owned: Vec<Constraint> = rows.iter().map(|&c| c.clone()).collect();
            assert!(
                self.rows_empty_fm(&owned)?,
                "unsound: {engine} claims empty but tightened FM finds the \
                 system satisfiable ({} rows over {} vars)",
                rows.len(),
                self.n_dims() + self.n_params()
            );
        }
        Ok(())
    }

    /// The pre-optimization emptiness oracle: eliminate every dim *and*
    /// every parameter in fixed reverse order, then inspect the
    /// constant residue.
    fn rows_empty_fm(&self, rows: &[Constraint]) -> Result<bool> {
        // Temporarily view params as dims so FM can eliminate them.
        let total = self.n_dims() + self.n_params();
        let wide = Space::anon(total, 0);
        let mut p = Polyhedron {
            space: wide,
            constraints: rows.to_vec(),
        };
        for d in (0..total).rev() {
            p = p.eliminate_dim(d)?;
        }
        Ok(p.is_obviously_empty())
    }

    /// Semantic emptiness over the *rationals*, existentially in the
    /// parameters: returns `true` iff no rational `(x, q)` satisfies
    /// the system. (Combined with the per-equality gcd test this is
    /// exact for the program class in scope; see crate docs.)
    pub fn is_empty(&self) -> Result<bool> {
        let _timer = cache::CoreTimer::enter();
        if self.is_obviously_empty() {
            return Ok(true);
        }
        cache::empty_memo(&self.constraints, || self.rows_empty(&self.constraints))
    }

    /// Emptiness given a *context* polyhedron over the parameters
    /// (a 0-dim polyhedron whose params match): `true` iff no point
    /// exists for any parameter value admitted by the context.
    pub fn is_empty_in(&self, context: &Polyhedron) -> Result<Polyhedron> {
        // Returns the residual param-only system for reuse; see
        // `is_empty_in_context` for the boolean wrapper.
        if context.n_dims() != 0 || context.n_params() != self.n_params() {
            return Err(PolyError::SpaceMismatch { op: "is_empty_in" });
        }
        let dims: Vec<usize> = (0..self.n_dims()).collect();
        let shadow = self.eliminate_dims(&dims)?;
        let mut cs = shadow.constraints;
        cs.extend(context.constraints.iter().cloned());
        Ok(Polyhedron::new(
            Space::new(Vec::<String>::new(), self.space.params().to_vec()),
            cs,
        ))
    }

    /// Boolean form of [`Polyhedron::is_empty_in`].
    pub fn is_empty_in_context(&self, context: &Polyhedron) -> Result<bool> {
        self.is_empty_in(context)?.is_empty()
    }

    /// Substitute concrete parameter values, producing a parameter-free
    /// polyhedron over the same dims.
    pub fn substitute_params(&self, values: &[i64]) -> Result<Polyhedron> {
        if values.len() != self.n_params() {
            return Err(PolyError::SpaceMismatch {
                op: "substitute_params",
            });
        }
        let n = self.n_dims();
        let space = Space::new(self.space.dims().to_vec(), Vec::<String>::new());
        let rows = self
            .constraints
            .iter()
            .map(|c| {
                let mut row: Vec<i64> = c.coeffs[..n].to_vec();
                let mut k = c.constant() as i128;
                for (j, &v) in values.iter().enumerate() {
                    k += (c.coeff(n + j) as i128) * (v as i128);
                }
                row.push(i64::try_from(k).map_err(|_| polymem_linalg::LinalgError::Overflow)?);
                Ok(match c.kind {
                    ConstraintKind::Ineq => Constraint::ineq(row),
                    ConstraintKind::Eq => Constraint::eq(row),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Polyhedron::new(space, rows))
    }

    /// Explicit equalities plus equalities implied by opposite
    /// inequality pairs (`simplify` already folds the latter, so this
    /// just filters).
    pub fn equalities(&self) -> Vec<&Constraint> {
        self.constraints
            .iter()
            .filter(|c| c.kind == ConstraintKind::Eq)
            .collect()
    }

    /// All constraints as inequalities (equalities split in two).
    pub fn as_ineq_rows(&self) -> Vec<Constraint> {
        self.constraints.iter().flat_map(|c| c.as_ineqs()).collect()
    }

    /// Insert a fresh dimension at position `pos` (coefficient 0 in all
    /// existing rows), named `name`.
    pub fn insert_dim(&self, pos: usize, name: &str) -> Polyhedron {
        assert!(pos <= self.n_dims());
        let mut dims = self.space.dims().to_vec();
        dims.insert(pos, name.to_string());
        let space = Space::new(dims, self.space.params().to_vec());
        let rows = self
            .constraints
            .iter()
            .map(|c| {
                let mut row = c.coeffs.0.clone();
                row.insert(pos, 0);
                Constraint {
                    coeffs: row.into(),
                    kind: c.kind,
                }
            })
            .collect();
        Polyhedron {
            space,
            constraints: rows,
        }
    }

    /// The lexicographically smallest integer point of a
    /// non-parametric bounded polytope, or `None` if empty.
    pub fn sample_point(&self) -> Result<Option<Vec<i64>>> {
        let _timer = cache::CoreTimer::enter();
        if self.n_params() != 0 {
            return Err(PolyError::Unbounded);
        }
        if self.is_empty()? {
            return Ok(None);
        }
        let n = self.n_dims();
        let mut point = Vec::with_capacity(n);
        let mut ctx = self.clone();
        for d in 0..n {
            // Bounds of dim d with dims 0..d already fixed: fix them
            // via equalities and project.
            let b = crate::bounds::dim_bounds(&ctx, d, d)?;
            let Some((lo, hi)) = b.eval_range(&point, &[]) else {
                return Err(PolyError::Unbounded);
            };
            // The rational shadow can overshoot; scan for the first
            // integer-feasible value (certified by a non-empty rest).
            let mut found = None;
            for v in lo..=hi {
                let mut c = ctx.clone();
                let mut row = vec![0i64; c.space().n_cols()];
                row[d] = 1;
                row[c.space().n_cols() - 1] = -v;
                c.add_constraint(Constraint::eq(row));
                if !c.is_empty()? {
                    found = Some((v, c));
                    break;
                }
            }
            match found {
                Some((v, c)) => {
                    point.push(v);
                    ctx = c;
                }
                None => return Ok(None),
            }
        }
        Ok(Some(point))
    }

    /// Remove constraints implied by the others (exact, via rational
    /// feasibility): a row `c >= 0` is redundant iff the system with
    /// `c` replaced by its negation `c <= -1` is empty. Quadratic in
    /// the constraint count — use after eliminations that are known to
    /// pile up rows (`simplify` alone is only syntactic).
    pub fn remove_redundant(&self) -> Result<Polyhedron> {
        let _timer = cache::CoreTimer::enter();
        let rows = self.prune_rows(self.as_ineq_rows(), usize::MAX)?;
        // Re-fold equalities afterwards via Polyhedron::new/simplify.
        Ok(Polyhedron::new(self.space.clone(), rows))
    }

    /// Bounded exact prune used between elimination steps: same probe
    /// as [`Polyhedron::remove_redundant`] but capped at `max_probes`
    /// feasibility tests, so it stays cheap even on blown-up systems.
    fn prune_exact_bounded(&self, max_probes: usize) -> Result<Polyhedron> {
        let rows = self.prune_rows(self.as_ineq_rows(), max_probes)?;
        Ok(Polyhedron::new(self.space.clone(), rows))
    }

    /// Shared redundancy-probe loop. One probe buffer is reused across
    /// iterations: the candidate row is swapped for its negation in
    /// place and restored (or removed) after the test — no per-probe
    /// clone of the whole system.
    fn prune_rows(&self, mut rows: Vec<Constraint>, max_probes: usize) -> Result<Vec<Constraint>> {
        let before = rows.len();
        let mut probe = rows.clone();
        let mut probes = 0usize;
        let mut k = 0;
        while k < rows.len() && rows.len() > 1 && probes < max_probes {
            probe[k] = rows[k].negate_ineq();
            probes += 1;
            if self.rows_empty(&probe)? {
                rows.remove(k);
                probe.remove(k);
            } else {
                probe[k] = rows[k].clone();
                k += 1;
            }
        }
        cache::count_fm_pruned(before - rows.len());
        Ok(rows)
    }

    /// Reorder dims according to `order` (new dim `i` = old dim
    /// `order[i]`); `order` must be a permutation of `0..n_dims`.
    pub fn permute_dims(&self, order: &[usize]) -> Polyhedron {
        assert_eq!(order.len(), self.n_dims());
        let space = self.space.keep_dims(order);
        let n = self.n_dims();
        let rows = self
            .constraints
            .iter()
            .map(|c| {
                let mut row: Vec<i64> = Vec::with_capacity(c.len());
                for &o in order {
                    row.push(c.coeff(o));
                }
                row.extend_from_slice(&c.coeffs[n..]);
                Constraint {
                    coeffs: row.into(),
                    kind: c.kind,
                }
            })
            .collect();
        Polyhedron {
            space,
            constraints: rows,
        }
    }
}

/// Remove column `dim` from a constraint row.
fn drop_col(c: &Constraint, dim: usize) -> Constraint {
    let mut row = c.coeffs.0.clone();
    row.remove(dim);
    match c.kind {
        ConstraintKind::Ineq => Constraint::ineq(row),
        ConstraintKind::Eq => Constraint::eq(row),
    }
}

/// Two inequalities with exactly opposite variable parts whose constants
/// sum below zero (`e + a >= 0` and `-e + b >= 0` with `a + b < 0`)
/// admit no rational point. Pairs are tried from the last row back: a
/// difference piece appends its one negated row last, and that row is
/// usually half of the pair.
fn opposite_rows_empty(rows: &[&Constraint]) -> bool {
    let ineq = |c: &Constraint| c.kind == ConstraintKind::Ineq;
    rows.iter().enumerate().rev().any(|(i, p)| {
        let n = p.len() - 1;
        ineq(p)
            && rows[..i].iter().any(|q| {
                ineq(q)
                    && (p.constant() as i128) + (q.constant() as i128) < 0
                    && p.coeffs[..n]
                        .iter()
                        .zip(&q.coeffs[..n])
                        .all(|(&a, &b)| (a as i128) + (b as i128) == 0)
            })
    })
}

/// The exact integer type the rational FM kernel runs in, with the
/// per-thread scratch buffers it reuses across calls.
trait FmInt: Copy + Ord + std::ops::Div<Output = Self> + std::ops::Rem<Output = Self> {
    const ZERO: Self;
    const ONE: Self;
    fn widen(v: i64) -> Self;
    fn checked_mul(self, o: Self) -> Option<Self>;
    fn checked_add(self, o: Self) -> Option<Self>;
    fn checked_neg(self) -> Option<Self>;
    fn with_scratch<R>(f: impl FnOnce(&mut FmScratch<Self>) -> R) -> R;
}

macro_rules! fm_int {
    ($t:ty) => {
        impl FmInt for $t {
            const ZERO: $t = 0;
            const ONE: $t = 1;
            fn widen(v: i64) -> $t {
                <$t>::from(v)
            }
            fn checked_mul(self, o: $t) -> Option<$t> {
                <$t>::checked_mul(self, o)
            }
            fn checked_add(self, o: $t) -> Option<$t> {
                <$t>::checked_add(self, o)
            }
            fn checked_neg(self) -> Option<$t> {
                <$t>::checked_neg(self)
            }
            fn with_scratch<R>(f: impl FnOnce(&mut FmScratch<$t>) -> R) -> R {
                thread_local! {
                    static SCRATCH: std::cell::RefCell<FmScratch<$t>> =
                        const { std::cell::RefCell::new(FmScratch::new()) };
                }
                SCRATCH.with(|s| f(&mut s.borrow_mut()))
            }
        }
    };
}
fm_int!(i64);
fm_int!(i128);

fn fm_abs<T: FmInt>(a: T) -> Option<T> {
    if a < T::ZERO {
        a.checked_neg()
    } else {
        Some(a)
    }
}

fn fm_gcd<T: FmInt>(a: T, b: T) -> Option<T> {
    let (mut a, mut b) = (fm_abs(a)?, fm_abs(b)?);
    while b != T::ZERO {
        let t = a % b;
        a = b;
        b = t;
    }
    Some(a)
}

/// Divide a row by the gcd of all its entries, the constant included
/// (rationally exact for both kinds).
fn fm_reduce<T: FmInt>(row: &mut [T]) -> Option<()> {
    let mut g = T::ZERO;
    for &v in row.iter() {
        g = fm_gcd(g, v)?;
    }
    if g > T::ONE {
        for v in row {
            *v = *v / g;
        }
    }
    Some(())
}

/// The system under elimination, flat: row `i` is
/// `rows[i * (n_vars + 1)..][..n_vars + 1]` (constant last) and is an
/// equality iff `eqs[i]`. `held` holds the rows one step reads while it
/// rewrites `rows`: the equality pivot, or the lower then upper bounds
/// of an FM pairing.
struct FmScratch<T> {
    rows: Vec<T>,
    eqs: Vec<bool>,
    held: Vec<T>,
}

impl<T: FmInt> FmScratch<T> {
    const fn new() -> Self {
        FmScratch {
            rows: Vec::new(),
            eqs: Vec::new(),
            held: Vec::new(),
        }
    }

    fn swap_remove(&mut self, i: usize, w: usize) {
        let last = self.eqs.len() - 1;
        self.rows.copy_within(last * w..(last + 1) * w, i * w);
        self.rows.truncate(last * w);
        self.eqs.swap_remove(i);
    }

    /// Drop satisfied constant rows; `false` when a constant row is
    /// violated.
    fn settle_constant_rows(&mut self, n_vars: usize) -> bool {
        let w = n_vars + 1;
        let mut i = 0;
        while i < self.eqs.len() {
            let r = &self.rows[i * w..(i + 1) * w];
            if r[..n_vars].iter().any(|&a| a != T::ZERO) {
                i += 1;
                continue;
            }
            let c = r[n_vars];
            if (self.eqs[i] && c != T::ZERO) || (!self.eqs[i] && c < T::ZERO) {
                return false;
            }
            self.swap_remove(i, w);
        }
        true
    }

    /// Cheapest variable still present: equality pivots are free,
    /// otherwise the FM pairing product (as in `eliminate_dims`).
    fn pick_var(&self, n_vars: usize) -> Option<usize> {
        let w = n_vars + 1;
        let mut best = None;
        let mut best_cost = u64::MAX;
        for v in 0..n_vars {
            let (mut lo, mut up) = (0u64, 0u64);
            let mut present = false;
            let mut has_eq = false;
            for (r, &eq) in self.rows.chunks_exact(w).zip(&self.eqs) {
                if r[v] == T::ZERO {
                    continue;
                }
                present = true;
                if eq {
                    has_eq = true;
                    break;
                }
                if r[v] > T::ZERO {
                    lo += 1;
                } else {
                    up += 1;
                }
            }
            let cost = if has_eq { 0 } else { lo * up };
            if present && cost < best_cost {
                best_cost = cost;
                best = Some(v);
            }
        }
        best
    }

    /// Substitute variable `v` away through the equality row `p`:
    /// `|a/g|·row − sign(a/g)·(b/g)·e` zeroes column `v` with a
    /// positive multiplier on every inequality row.
    fn substitute(&mut self, p: usize, v: usize, w: usize) -> Option<()> {
        self.held.clear();
        self.held.extend_from_slice(&self.rows[p * w..(p + 1) * w]);
        self.swap_remove(p, w);
        let e = &self.held;
        let a = e[v];
        for row in self.rows.chunks_exact_mut(w) {
            let b = row[v];
            if b == T::ZERO {
                continue;
            }
            let g = fm_gcd(a, b)?;
            let ca = fm_abs(a / g)?;
            let cb = if a < T::ZERO {
                b / g
            } else {
                (b / g).checked_neg()?
            };
            for (t, &s) in row.iter_mut().zip(e) {
                *t = ca.checked_mul(*t)?.checked_add(cb.checked_mul(s)?)?;
            }
            fm_reduce(row)?;
        }
        Some(())
    }

    /// Pair every lower bound on `v` with every upper bound; rows
    /// without `v` keep their order and the pairs follow them.
    /// `Some(false)` when the result would pass `cap` rows.
    fn pair_bounds(&mut self, v: usize, w: usize, cap: usize) -> Option<bool> {
        self.held.clear();
        let mut lows = 0;
        for r in self.rows.chunks_exact(w).filter(|r| r[v] > T::ZERO) {
            self.held.extend_from_slice(r);
            lows += 1;
        }
        let mut ups = 0;
        for r in self.rows.chunks_exact(w).filter(|r| r[v] < T::ZERO) {
            self.held.extend_from_slice(r);
            ups += 1;
        }
        let mut kept = 0;
        for i in 0..self.eqs.len() {
            if self.rows[i * w + v] == T::ZERO {
                self.rows.copy_within(i * w..(i + 1) * w, kept * w);
                self.eqs[kept] = self.eqs[i];
                kept += 1;
            }
        }
        self.rows.truncate(kept * w);
        self.eqs.truncate(kept);
        if lows == 0 || ups == 0 {
            return Some(true);
        }
        if lows * ups + kept > cap {
            return Some(false);
        }
        let (lower, upper) = self.held.split_at(lows * w);
        for l in lower.chunks_exact(w) {
            for u in upper.chunks_exact(w) {
                let (a, b) = (l[v], u[v]); // b < 0
                let g = fm_gcd(a, b)?;
                let (ma, mb) = (b.checked_neg()? / g, a / g);
                let start = self.rows.len();
                for (&x, &y) in l.iter().zip(u) {
                    self.rows
                        .push(ma.checked_mul(x)?.checked_add(mb.checked_mul(y)?)?);
                }
                fm_reduce(&mut self.rows[start..])?;
                self.eqs.push(false);
            }
        }
        Some(true)
    }

    /// The elimination loop of [`fm_kernel`], on this scratch.
    fn feasible(
        &mut self,
        rows: &[&Constraint],
        n_vars: usize,
        cap: usize,
    ) -> Option<Option<bool>> {
        let w = n_vars + 1;
        self.rows.clear();
        self.eqs.clear();
        for c in rows {
            self.rows
                .extend(c.coeffs[..n_vars].iter().map(|&a| T::widen(a)));
            self.rows.push(T::widen(c.constant()));
            self.eqs.push(c.kind == ConstraintKind::Eq);
        }
        loop {
            if !self.settle_constant_rows(n_vars) {
                return Some(Some(false));
            }
            let Some(v) = self.pick_var(n_vars) else {
                // Every remaining row was a satisfied constant.
                return Some(Some(true));
            };
            let pivot =
                (0..self.eqs.len()).find(|&i| self.eqs[i] && self.rows[i * w + v] != T::ZERO);
            match pivot {
                Some(p) => self.substitute(p, v, w)?,
                None if !self.pair_bounds(v, w, cap)? => return Some(None),
                None => {}
            }
            if self.eqs.len() > cap {
                return Some(None);
            }
        }
    }
}

/// Capped rational Fourier–Motzkin feasibility of `rows` over `n_vars`
/// variables in the exact type `T`, in the calling thread's reused flat
/// scratch buffer (no allocation once it has grown). `None` when a step
/// overflows `T`; `Some(None)` when the system passes `cap` rows;
/// otherwise `Some(Some(feasible))`.
fn fm_kernel<T: FmInt>(rows: &[&Constraint], n_vars: usize, cap: usize) -> Option<Option<bool>> {
    if rows.len() > cap {
        return Some(None);
    }
    T::with_scratch(|s| s.feasible(rows, n_vars, cap))
}

impl fmt::Debug for Polyhedron {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:?} : {{", self.space)?;
        for c in &self.constraints {
            writeln!(f, "  {}", c.display(self.space.dims(), self.space.params()))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod fm_props;

#[cfg(test)]
mod tests {
    use super::*;

    /// `{ (i, j) : 0 <= i <= N-1, 0 <= j <= i }` over param N.
    fn triangle() -> Polyhedron {
        let space = Space::new(["i", "j"], ["N"]);
        Polyhedron::new(
            space,
            vec![
                Constraint::ineq(vec![1, 0, 0, 0]),   // i >= 0
                Constraint::ineq(vec![-1, 0, 1, -1]), // i <= N-1
                Constraint::ineq(vec![0, 1, 0, 0]),   // j >= 0
                Constraint::ineq(vec![1, -1, 0, 0]),  // j <= i
            ],
        )
    }

    #[test]
    fn membership() {
        let t = triangle();
        assert!(t.contains(&[3, 2], &[10]));
        assert!(t.contains(&[0, 0], &[1]));
        assert!(!t.contains(&[3, 4], &[10]));
        assert!(!t.contains(&[10, 0], &[10]));
    }

    #[test]
    fn eliminate_inner_dim_gives_outer_bounds() {
        let t = triangle();
        // Eliminating j leaves 0 <= i <= N-1.
        let p = t.eliminate_dim(1).unwrap();
        assert_eq!(p.n_dims(), 1);
        assert!(p.contains(&[0], &[5]));
        assert!(p.contains(&[4], &[5]));
        assert!(!p.contains(&[5], &[5]));
        assert!(!p.contains(&[-1], &[5]));
    }

    #[test]
    fn eliminate_outer_dim_gives_inner_shadow() {
        let t = triangle();
        // Eliminating i: j >= 0 and j <= i <= N-1 so j <= N-1.
        let p = t.eliminate_dim(0).unwrap();
        assert!(p.contains(&[0], &[5]));
        assert!(p.contains(&[4], &[5]));
        assert!(!p.contains(&[5], &[5]));
    }

    #[test]
    fn equality_substitution_is_used() {
        // { (i, j) : j = 2i + 1, 0 <= i <= 4 }; eliminating j leaves
        // 0 <= i <= 4 exactly, via the equality pivot.
        let space = Space::new(["i", "j"], Vec::<String>::new());
        let p = Polyhedron::new(
            space,
            vec![
                Constraint::eq(vec![2, -1, 1]),
                Constraint::ineq(vec![1, 0, 0]),
                Constraint::ineq(vec![-1, 0, 4]),
            ],
        );
        let q = p.eliminate_dim(1).unwrap();
        for i in 0..=4 {
            assert!(q.contains(&[i], &[]));
        }
        assert!(!q.contains(&[5], &[]));
        // Eliminating i through the equality (coefficient 2) produces
        // the rational shadow of j: 1 <= j <= 9.
        let r = p.eliminate_dim(0).unwrap();
        assert!(r.contains(&[1], &[]));
        assert!(r.contains(&[9], &[]));
        assert!(!r.contains(&[0], &[]));
        assert!(!r.contains(&[10], &[]));
    }

    #[test]
    fn emptiness() {
        let t = triangle();
        assert!(!t.is_empty().unwrap());
        // Adding j >= i + 1 contradicts j <= i.
        let mut e = t.clone();
        e.add_constraint(Constraint::ineq(vec![-1, 1, 0, -1]));
        assert!(e.is_empty().unwrap());
        // Explicitly empty.
        assert!(Polyhedron::empty(Space::anon(2, 0)).is_empty().unwrap());
        // Universe is non-empty.
        assert!(!Polyhedron::universe(Space::anon(2, 1)).is_empty().unwrap());
    }

    #[test]
    fn gcd_integer_emptiness() {
        // 2i = 1 has no integer solution (but has a rational one).
        let p = Polyhedron::new(
            Space::new(["i"], Vec::<String>::new()),
            vec![Constraint::eq(vec![2, -1])],
        );
        assert!(p.is_empty().unwrap());
    }

    #[test]
    fn opposite_ineqs_fold_to_equality() {
        let p = Polyhedron::new(
            Space::new(["i"], Vec::<String>::new()),
            vec![
                Constraint::ineq(vec![1, -3]), // i >= 3
                Constraint::ineq(vec![-1, 3]), // i <= 3
            ],
        );
        assert_eq!(p.equalities().len(), 1);
        assert!(p.contains(&[3], &[]));
        assert!(!p.contains(&[2], &[]));
    }

    #[test]
    fn contradictory_bounds_detected_in_simplify() {
        let p = Polyhedron::new(
            Space::new(["i"], Vec::<String>::new()),
            vec![
                Constraint::ineq(vec![1, -5]), // i >= 5
                Constraint::ineq(vec![-1, 3]), // i <= 3
            ],
        );
        assert!(p.is_obviously_empty());
    }

    #[test]
    fn duplicate_and_dominated_rows_are_merged() {
        let p = Polyhedron::new(
            Space::new(["i"], Vec::<String>::new()),
            vec![
                Constraint::ineq(vec![1, 0]),
                Constraint::ineq(vec![1, 0]),
                Constraint::ineq(vec![1, 5]), // weaker than i >= 0
                Constraint::ineq(vec![-1, 9]),
            ],
        );
        assert_eq!(p.constraints().len(), 2);
    }

    #[test]
    fn substitute_params_closes_the_set() {
        let t = triangle();
        let c = t.substitute_params(&[4]).unwrap();
        assert_eq!(c.n_params(), 0);
        assert!(c.contains(&[3, 3], &[]));
        assert!(!c.contains(&[4, 0], &[]));
    }

    #[test]
    fn context_emptiness() {
        // { i : 0 <= i <= N - 10 } is empty when N <= 9.
        let p = Polyhedron::new(
            Space::new(["i"], ["N"]),
            vec![
                Constraint::ineq(vec![1, 0, 0]),
                Constraint::ineq(vec![-1, 1, -10]),
            ],
        );
        let ctx_small = Polyhedron::new(
            Space::new(Vec::<String>::new(), vec!["N".to_string()]),
            vec![Constraint::ineq(vec![-1, 9])], // N <= 9
        );
        let ctx_big = Polyhedron::new(
            Space::new(Vec::<String>::new(), vec!["N".to_string()]),
            vec![Constraint::ineq(vec![1, -100])], // N >= 100
        );
        assert!(p.is_empty_in_context(&ctx_small).unwrap());
        assert!(!p.is_empty_in_context(&ctx_big).unwrap());
    }

    #[test]
    fn insert_and_permute_dims() {
        let t = triangle();
        let w = t.insert_dim(1, "k");
        assert_eq!(w.n_dims(), 3);
        assert!(w.contains(&[3, 99, 2], &[10])); // k unconstrained
        let p = t.permute_dims(&[1, 0]);
        assert!(p.contains(&[2, 3], &[10])); // (j, i) order now
        assert!(!p.contains(&[3, 2], &[10]));
    }

    #[test]
    fn sample_point_is_lexmin() {
        let t = triangle().substitute_params(&[5]).unwrap();
        assert_eq!(t.sample_point().unwrap(), Some(vec![0, 0]));
        // Shifted: { i in [3, 7], j in [i-1, i] } -> (3, 2).
        let p = Polyhedron::new(
            Space::new(["i", "j"], Vec::<String>::new()),
            vec![
                Constraint::ineq(vec![1, 0, -3]),
                Constraint::ineq(vec![-1, 0, 7]),
                Constraint::ineq(vec![-1, 1, 1]),
                Constraint::ineq(vec![1, -1, 0]),
            ],
        );
        assert_eq!(p.sample_point().unwrap(), Some(vec![3, 2]));
        // Empty sets yield None; parametric sets error.
        assert_eq!(
            Polyhedron::empty(Space::anon(2, 0)).sample_point().unwrap(),
            None
        );
        assert!(triangle().sample_point().is_err());
    }

    #[test]
    fn redundancy_removal_is_exact() {
        // x >= 0, x >= -5 (implied), x <= 10, x + y <= 20 with
        // y <= 5 making x + y <= 15 stricter... construct:
        let p = Polyhedron::new(
            Space::new(["x", "y"], Vec::<String>::new()),
            vec![
                Constraint::ineq(vec![1, 0, 0]),    // x >= 0
                Constraint::ineq(vec![1, 0, 5]),    // x >= -5 (implied)
                Constraint::ineq(vec![-1, 0, 10]),  // x <= 10
                Constraint::ineq(vec![0, 1, 0]),    // y >= 0
                Constraint::ineq(vec![0, -1, 5]),   // y <= 5
                Constraint::ineq(vec![-1, -1, 20]), // x + y <= 20 (implied)
            ],
        );
        // `simplify` already merges the two x lower bounds (same var
        // part); the diagonal row needs the semantic test.
        let r = p.remove_redundant().unwrap();
        assert!(r.constraints().len() < p.constraints().len());
        // Same integer set on a grid.
        for x in -2..13 {
            for y in -2..8 {
                assert_eq!(
                    p.contains(&[x, y], &[]),
                    r.contains(&[x, y], &[]),
                    "({x},{y})"
                );
            }
        }
        // The diagonal constraint is gone.
        assert!(r
            .constraints()
            .iter()
            .all(|c| !(c.coeff(0) == -1 && c.coeff(1) == -1)));
    }

    #[test]
    fn redundancy_removal_preserves_triangle_semantics() {
        let t = triangle();
        let r = t.remove_redundant().unwrap();
        // `i >= 0` is implied by `j >= 0 ∧ j <= i` and gets dropped;
        // everything else binds.
        assert_eq!(r.constraints().len(), 3);
        for n in [1i64, 4, 7] {
            for i in -2..(n + 2) {
                for j in -2..(n + 2) {
                    assert_eq!(
                        t.contains(&[i, j], &[n]),
                        r.contains(&[i, j], &[n]),
                        "({i},{j}) N={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn project_onto_keeps_selected_dims() {
        let t = triangle();
        let p = t.project_onto(&[1]).unwrap();
        assert_eq!(p.n_dims(), 1);
        assert_eq!(p.space().dim_name(0), "j");
        assert!(p.contains(&[0], &[5]));
        assert!(!p.contains(&[5], &[5]));
    }
}
