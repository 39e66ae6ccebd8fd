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
//! [`crate::cache`]. Emptiness ([`Polyhedron::is_empty`]) runs a
//! rational phase-1 simplex ([`crate::simplex`]) instead of eliminating
//! every variable; the FM path survives as the overflow fallback and as
//! the `POLYMEM_POLY_CHECK=1` cross-check oracle. Setting naive mode
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
    /// `cap` rows or an exact product overflows; the caller escalates
    /// to simplex. On the small sparse systems the pipeline asks about
    /// most, this is an order of magnitude cheaper than a tableau
    /// solve.
    fn rows_feasible_fm_capped(rows: &[&Constraint], n_vars: usize, cap: usize) -> Option<bool> {
        if rows.len() > cap {
            return None;
        }
        fn gcd128(a: i128, b: i128) -> i128 {
            let (mut a, mut b) = (a.abs(), b.abs());
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }
        // Row = (is_eq, var coeffs .. constant), mirroring `Constraint`.
        let mut sys: Vec<(bool, Vec<i128>)> = rows
            .iter()
            .map(|c| {
                let r = (0..n_vars)
                    .map(|i| c.coeff(i) as i128)
                    .chain(std::iter::once(c.constant() as i128))
                    .collect();
                (c.kind == ConstraintKind::Eq, r)
            })
            .collect();
        // Combine `a_mult * tgt + b_mult * src` into a fresh row,
        // gcd-reduced (rationally exact for both kinds since the
        // constant participates in the reduction).
        let combine =
            |tgt: &[i128], src: &[i128], a_mult: i128, b_mult: i128| -> Option<Vec<i128>> {
                let mut out = Vec::with_capacity(tgt.len());
                let mut g: i128 = 0;
                for (t, s) in tgt.iter().zip(src) {
                    let v = a_mult
                        .checked_mul(*t)?
                        .checked_add(b_mult.checked_mul(*s)?)?;
                    g = gcd128(g, v);
                    out.push(v);
                }
                if g > 1 {
                    for v in &mut out {
                        *v /= g;
                    }
                }
                Some(out)
            };
        loop {
            // Constant-row verdicts; satisfied rows are dropped.
            let mut i = 0;
            while i < sys.len() {
                let (eq, r) = &sys[i];
                if r[..n_vars].iter().all(|&a| a == 0) {
                    let c = r[n_vars];
                    if (*eq && c != 0) || (!*eq && c < 0) {
                        return Some(false);
                    }
                    sys.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            // Cheapest variable still present: equality pivots are
            // free, otherwise the FM pairing product (as in
            // `eliminate_dims`).
            let mut best = usize::MAX;
            let mut best_cost = u64::MAX;
            for v in 0..n_vars {
                let (mut lo, mut up) = (0u64, 0u64);
                let mut present = false;
                let mut has_eq = false;
                for (eq, r) in &sys {
                    if r[v] == 0 {
                        continue;
                    }
                    present = true;
                    if *eq {
                        has_eq = true;
                        break;
                    }
                    if r[v] > 0 {
                        lo += 1;
                    } else {
                        up += 1;
                    }
                }
                if !present {
                    continue;
                }
                let cost = if has_eq { 0 } else { lo * up };
                if cost < best_cost {
                    best_cost = cost;
                    best = v;
                }
            }
            if best == usize::MAX {
                // Every remaining row was a satisfied constant: feasible.
                return Some(true);
            }
            let v = best;
            // Eliminate `v`: substitute through an equality pivot when
            // one exists, otherwise pair lower against upper bounds.
            let pivot = sys
                .iter()
                .position(|(eq, r)| *eq && r[v] != 0)
                .map(|i| sys.swap_remove(i));
            if let Some((_, e)) = pivot {
                let a = e[v];
                for row in sys.iter_mut() {
                    let b = row.1[v];
                    if b == 0 {
                        continue;
                    }
                    let g = gcd128(a, b);
                    // |a/g| * row - sign(a/g) * (b/g) * e zeroes column v
                    // with a positive multiplier on the inequality row.
                    let ca = (a / g).abs();
                    let cb = -(b / g) * (a / g).signum();
                    row.1 = combine(&row.1, &e, ca, cb)?;
                }
            } else {
                let (mut lows, mut ups, mut rest) = (Vec::new(), Vec::new(), Vec::new());
                for row in sys.drain(..) {
                    match row.1[v].signum() {
                        1 => lows.push(row.1),
                        -1 => ups.push(row.1),
                        _ => rest.push(row),
                    }
                }
                if !lows.is_empty() && !ups.is_empty() {
                    if lows.len() * ups.len() + rest.len() > cap {
                        return None;
                    }
                    for l in &lows {
                        for u in &ups {
                            let a = l[v];
                            let b = u[v]; // < 0
                            let g = gcd128(a, b);
                            rest.push((false, combine(l, u, (-b) / g, a / g)?));
                        }
                    }
                }
                sys = rest;
            }
            if sys.len() > cap {
                return None;
            }
        }
    }

    /// Rational emptiness of a constraint system over this
    /// polyhedron's variables: cheap verdicts (constant rows, the
    /// integer gcd shortcut on equalities), then capped rational
    /// Fourier–Motzkin, escalating to phase-1 simplex when the system
    /// blows up; full integer-tightening FM is the naive-mode path and
    /// overflow fallback.
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
        cache::count_feasibility_test();
        let n_vars = self.n_dims() + self.n_params();
        if !cache::naive_mode() {
            if let Some(feasible) = Self::rows_feasible_fm_capped(rows, n_vars, FM_FEAS_CAP) {
                let empty = !feasible;
                if cache::cross_check() {
                    // Rational emptiness implies FM emptiness (the
                    // naive path additionally integer-tightens, so it
                    // proves at least as much).
                    let owned: Vec<Constraint> = rows.iter().map(|&c| c.clone()).collect();
                    let fm = self.rows_empty_fm(&owned)?;
                    assert!(
                        !empty || fm,
                        "unsound: rational FM claims empty but tightened FM \
                         finds the system satisfiable ({} rows over {} vars)",
                        rows.len(),
                        n_vars
                    );
                }
                return Ok(empty);
            }
            // Escalation: the system grew past the FM cap (or
            // overflowed); hand it to the phase-1 simplex, which does
            // bounded-size pivoting regardless of density.
            let owned: Vec<Constraint> = rows.iter().map(|&c| c.clone()).collect();
            if let Ok(feasible) = simplex::feasible(&owned, n_vars) {
                let empty = !feasible;
                if cache::cross_check() {
                    // One-directional invariant: rational emptiness
                    // must imply FM emptiness. The converse can fail
                    // legitimately — FM integer-tightens constants at
                    // every elimination, so it proves *integer*
                    // emptiness of some rationally-feasible systems
                    // (see the `simplex` module docs).
                    let fm = self.rows_empty_fm(&owned)?;
                    assert!(
                        !empty || fm,
                        "unsound: simplex claims empty but FM finds the \
                         system satisfiable ({} rows over {} vars)",
                        rows.len(),
                        n_vars
                    );
                }
                return Ok(empty);
            }
            // Overflow in the exact tableau: fall through to FM.
        }
        let owned: Vec<Constraint> = rows.iter().map(|&c| c.clone()).collect();
        self.rows_empty_fm(&owned)
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
