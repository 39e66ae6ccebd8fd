//! Affine constraints: normalised equality/inequality rows.
//!
//! A [`Constraint`] is a coefficient row `c` over the columns of a
//! [`Space`](crate::Space) meaning `c · (x, q, 1) >= 0` (inequality) or
//! `= 0` (equality). Rows are kept *normalised*: coefficients divided
//! by their gcd, with integer tightening of the constant for
//! inequalities (`2x >= 3` becomes `x >= 2`).

use polymem_linalg::gcd::{div_floor, gcd_slice};
use polymem_linalg::IVec;
use std::fmt;

/// Whether a row is an inequality (`>= 0`) or equality (`= 0`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConstraintKind {
    /// `coeffs · (x, q, 1) >= 0`
    Ineq,
    /// `coeffs · (x, q, 1) == 0`
    Eq,
}

/// A single affine constraint row.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Coefficients over `[dims..., params..., 1]`.
    pub coeffs: IVec,
    /// Inequality or equality.
    pub kind: ConstraintKind,
}

impl Constraint {
    /// Build and normalise an inequality `coeffs · (x,q,1) >= 0`.
    pub fn ineq(coeffs: impl Into<IVec>) -> Constraint {
        let mut c = Constraint {
            coeffs: coeffs.into(),
            kind: ConstraintKind::Ineq,
        };
        c.normalize();
        c
    }

    /// Build and normalise an equality `coeffs · (x,q,1) == 0`.
    pub fn eq(coeffs: impl Into<IVec>) -> Constraint {
        let mut c = Constraint {
            coeffs: coeffs.into(),
            kind: ConstraintKind::Eq,
        };
        c.normalize();
        c
    }

    /// Number of columns (dims + params + 1).
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// True iff the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Coefficient of column `i`.
    pub fn coeff(&self, i: usize) -> i64 {
        self.coeffs[i]
    }

    /// The constant term (last column).
    pub fn constant(&self) -> i64 {
        self.coeffs[self.coeffs.len() - 1]
    }

    /// Normalise in place: divide by the gcd of all coefficients; for
    /// inequalities, tighten the constant (`g·x + c >= 0` with
    /// variable-gcd `g` implies `x + floor(c/g) >= 0`).
    pub fn normalize(&mut self) {
        let n = self.coeffs.len();
        if n == 0 {
            return;
        }
        let var_gcd = gcd_slice(&self.coeffs[..n - 1]);
        match self.kind {
            ConstraintKind::Ineq => {
                if var_gcd > 1 {
                    for x in &mut self.coeffs.0[..n - 1] {
                        *x /= var_gcd;
                    }
                    self.coeffs[n - 1] = div_floor(self.coeffs[n - 1], var_gcd);
                }
            }
            ConstraintKind::Eq => {
                let g = gcd_slice(&self.coeffs);
                if g > 1 {
                    for x in &mut self.coeffs.0 {
                        *x /= g;
                    }
                }
                // Canonical sign: first nonzero coefficient positive.
                if self.coeffs.lex_sign() < 0 {
                    for x in &mut self.coeffs.0 {
                        *x = -*x;
                    }
                }
            }
        }
    }

    /// True iff the constraint involves none of the first `n_dims`
    /// columns (i.e. it constrains only parameters/constants).
    pub fn is_param_only(&self, n_dims: usize) -> bool {
        self.coeffs[..n_dims].iter().all(|&c| c == 0)
    }

    /// For a constraint whose variable and parameter coefficients are
    /// all zero: is it satisfiable? (`None` if it still has variables.)
    pub fn constant_verdict(&self) -> Option<bool> {
        let n = self.coeffs.len();
        if self.coeffs[..n - 1].iter().any(|&c| c != 0) {
            return None;
        }
        let k = self.coeffs[n - 1];
        Some(match self.kind {
            ConstraintKind::Ineq => k >= 0,
            ConstraintKind::Eq => k == 0,
        })
    }

    /// Evaluate the row at concrete dim values `x` and param values `q`;
    /// `None` when a step overflows `i64`.
    pub fn eval(&self, x: &[i64], q: &[i64]) -> Option<i64> {
        let n = self.coeffs.len();
        debug_assert_eq!(x.len() + q.len() + 1, n);
        let (cx, cq) = self.coeffs[..n - 1].split_at(x.len());
        let mut acc = self.coeffs[n - 1];
        for (cs, vs) in [(cx, x), (cq, q)] {
            for (c, v) in cs.iter().zip(vs) {
                acc = acc.checked_add(c.checked_mul(*v)?)?;
            }
        }
        Some(acc)
    }

    /// The sign of the row's exact value at `(x, q)`, for points where
    /// [`Constraint::eval`] overflows. The value is `wraps · 2^128 + low`:
    /// each product fits in `i128`, and `wraps` counts the signed `i128`
    /// overflows of the running sum, so no term is lost.
    fn exact_sign(&self, x: &[i64], q: &[i64]) -> i64 {
        let n = self.coeffs.len();
        let (cx, cq) = self.coeffs[..n - 1].split_at(x.len());
        let mut low = self.coeffs[n - 1] as i128;
        let mut wraps = 0i64;
        for (cs, vs) in [(cx, x), (cq, q)] {
            for (c, v) in cs.iter().zip(vs) {
                let p = (*c as i128) * (*v as i128);
                let (sum, wrapped) = low.overflowing_add(p);
                wraps += wrapped as i64 * p.signum() as i64;
                low = sum;
            }
        }
        if wraps != 0 {
            wraps.signum()
        } else {
            low.signum() as i64
        }
    }

    /// True iff point `(x, q)` satisfies the constraint, decided on the
    /// exact value of the row.
    pub fn satisfied(&self, x: &[i64], q: &[i64]) -> bool {
        let sign = match self.eval(x, q) {
            Some(v) => v.signum(),
            None => self.exact_sign(x, q),
        };
        match self.kind {
            ConstraintKind::Ineq => sign >= 0,
            ConstraintKind::Eq => sign == 0,
        }
    }

    /// The negation of an inequality `e >= 0` as the inequality
    /// `-e - 1 >= 0` (i.e. `e <= -1`, exact over the integers).
    /// Panics on equalities (negate those via two calls on the split
    /// inequalities).
    pub fn negate_ineq(&self) -> Constraint {
        assert_eq!(self.kind, ConstraintKind::Ineq, "negate_ineq on equality");
        let mut coeffs: Vec<i64> = self.coeffs.iter().map(|&c| -c).collect();
        let n = coeffs.len();
        coeffs[n - 1] -= 1;
        Constraint::ineq(coeffs)
    }

    /// Split an equality into the two inequalities `e >= 0` and `-e >= 0`.
    /// An inequality is returned unchanged (singleton).
    pub fn as_ineqs(&self) -> Vec<Constraint> {
        match self.kind {
            ConstraintKind::Ineq => vec![self.clone()],
            ConstraintKind::Eq => {
                let neg: Vec<i64> = self.coeffs.iter().map(|&c| -c).collect();
                vec![Constraint::ineq(self.coeffs.clone()), Constraint::ineq(neg)]
            }
        }
    }

    /// Render with names, e.g. `i + 2j - N + 3 >= 0`.
    pub fn display(&self, dim_names: &[String], param_names: &[String]) -> String {
        let mut s = String::new();
        let names: Vec<&str> = dim_names
            .iter()
            .map(String::as_str)
            .chain(param_names.iter().map(String::as_str))
            .collect();
        for (idx, &c) in self.coeffs[..self.coeffs.len() - 1].iter().enumerate() {
            if c == 0 {
                continue;
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
            s.push_str(names[idx]);
        }
        let k = self.constant();
        if s.is_empty() {
            s.push_str(&format!("{k}"));
        } else if k > 0 {
            s.push_str(&format!(" + {k}"));
        } else if k < 0 {
            s.push_str(&format!(" - {}", -k));
        }
        s.push_str(match self.kind {
            ConstraintKind::Ineq => " >= 0",
            ConstraintKind::Eq => " == 0",
        });
        s
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} {}",
            self.coeffs,
            match self.kind {
                ConstraintKind::Ineq => ">= 0",
                ConstraintKind::Eq => "== 0",
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_tightens_inequalities() {
        // 2x + 3 >= 0  ->  x + 1 >= 0 (since x >= -3/2 means x >= -1).
        let c = Constraint::ineq(vec![2, 3]);
        assert_eq!(c.coeffs.0, vec![1, 1]);
        // 2x - 3 >= 0  ->  x - 2 >= 0 (x >= 3/2 means x >= 2).
        let c = Constraint::ineq(vec![2, -3]);
        assert_eq!(c.coeffs.0, vec![1, -2]);
        // Constant-only rows are untouched by variable-gcd logic.
        let c = Constraint::ineq(vec![0, 5]);
        assert_eq!(c.coeffs.0, vec![0, 5]);
    }

    #[test]
    fn normalisation_canonicalises_equalities() {
        let c = Constraint::eq(vec![-2, 4, -6]);
        assert_eq!(c.coeffs.0, vec![1, -2, 3]);
        let c = Constraint::eq(vec![3, -6, 9]);
        assert_eq!(c.coeffs.0, vec![1, -2, 3]);
    }

    #[test]
    fn evaluation_and_satisfaction() {
        // x - y + N - 2 >= 0 over dims (x, y), param N.
        let c = Constraint::ineq(vec![1, -1, 1, -2]);
        assert_eq!(c.eval(&[5, 1], &[0]), Some(2));
        assert!(c.satisfied(&[5, 1], &[0]));
        assert!(!c.satisfied(&[0, 5], &[1]));
        let e = Constraint::eq(vec![1, -1, 0, 0]);
        assert!(e.satisfied(&[3, 3], &[7]));
        assert!(!e.satisfied(&[3, 4], &[7]));
    }

    #[test]
    fn satisfaction_is_decided_on_the_exact_sum() {
        // 2^62·x + y − 2^62 >= 0 at (4, 0) is 3·2^62: positive, but
        // past i64, where a truncated sum reads −2^62.
        let big = 1i64 << 62;
        let c = Constraint::ineq(vec![big, 1, -big]);
        assert!(c.satisfied(&[4, 0], &[]));
        assert_eq!(c.eval(&[4, 0], &[]), None);
        assert!(!c.satisfied(&[-4, 0], &[]));
        assert_eq!(c.eval(&[1, 5], &[]), Some(5));
        // Sums past i128 itself: four products of about ±2^126 (rows
        // built raw, since normalising would divide the coefficients).
        let (m, x) = (i64::MIN, i64::MAX);
        let raw = |coeffs: Vec<i64>, kind| Constraint {
            coeffs: coeffs.into(),
            kind,
        };
        let wide = raw(vec![m, m, m, m, 0], ConstraintKind::Ineq);
        assert!(wide.satisfied(&[m, m, m, m], &[]));
        assert!(!wide.satisfied(&[x, x, x, x], &[]));
        let e = raw(vec![m, m, 0], ConstraintKind::Eq);
        assert!(!e.satisfied(&[m, m], &[]));
        assert_eq!(e.eval(&[m, m], &[]), None);
    }

    #[test]
    fn negation_is_exact_integer_complement() {
        // x - 3 >= 0 negated is x <= 2, i.e. -x + 2 >= 0.
        let c = Constraint::ineq(vec![1, -3]);
        let n = c.negate_ineq();
        assert_eq!(n.coeffs.0, vec![-1, 2]);
        for x in -5..10 {
            assert_ne!(c.satisfied(&[x], &[]), n.satisfied(&[x], &[]));
        }
    }

    #[test]
    fn equality_split() {
        let e = Constraint::eq(vec![1, -2]);
        let parts = e.as_ineqs();
        assert_eq!(parts.len(), 2);
        for x in -5..5 {
            let both = parts.iter().all(|c| c.satisfied(&[x], &[]));
            assert_eq!(both, e.satisfied(&[x], &[]));
        }
    }

    #[test]
    fn constant_verdicts() {
        assert_eq!(
            Constraint::ineq(vec![0, 0, -1]).constant_verdict(),
            Some(false)
        );
        assert_eq!(
            Constraint::ineq(vec![0, 0, 3]).constant_verdict(),
            Some(true)
        );
        assert_eq!(
            Constraint::eq(vec![0, 0, 1]).constant_verdict(),
            Some(false)
        );
        assert_eq!(Constraint::ineq(vec![1, 0, -1]).constant_verdict(), None);
    }

    #[test]
    fn display_rendering() {
        let c = Constraint::ineq(vec![1, 2, -1, 3]);
        let s = c.display(&["i".to_string(), "j".to_string()], &["N".to_string()]);
        assert_eq!(s, "i + 2*j - N + 3 >= 0");
        let z = Constraint::ineq(vec![0, 0, 0, -1]);
        assert_eq!(
            z.display(&["i".into(), "j".into()], &["N".into()]),
            "-1 >= 0"
        );
    }

    #[test]
    fn param_only_detection() {
        let c = Constraint::ineq(vec![0, 0, 1, -4]); // N - 4 >= 0 over 2 dims
        assert!(c.is_param_only(2));
        let c = Constraint::ineq(vec![1, 0, 1, 0]);
        assert!(!c.is_param_only(2));
    }
}
