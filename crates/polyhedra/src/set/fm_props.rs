//! Property test of the rational Fourier–Motzkin emptiness kernel and
//! the opposite-row pre-check against the phase-1 simplex, on seeded
//! random systems of 2–9 variables and 2–30 rows.

use super::*;
use proptest::test_runner::TestRng;

/// Uniform in `lo..=hi`.
fn draw(rng: &mut TestRng, lo: i64, hi: i64) -> i64 {
    lo + (rng.next_u64() % (hi - lo + 1) as u64) as i64
}

/// A system around a random integer point: each row is sparse, its
/// constant puts the point a few units inside or outside it, one system
/// in four carries coefficients near 2^34 (so an `i64` product
/// overflows), and some rows repeat an earlier inequality negated.
fn random_system(rng: &mut TestRng) -> (Vec<Constraint>, usize) {
    let n_vars = draw(rng, 2, 9) as usize;
    let n_rows = draw(rng, 2, 30) as usize;
    let big = draw(rng, 0, 3) == 0;
    let point: Vec<i64> = (0..n_vars).map(|_| draw(rng, -4, 4)).collect();
    let mut rows: Vec<Constraint> = Vec::with_capacity(n_rows);
    while rows.len() < n_rows {
        let earlier = rows
            .iter()
            .filter(|c| c.kind == ConstraintKind::Ineq)
            .nth(draw(rng, 0, 7) as usize);
        if let (Some(c), 0) = (earlier, draw(rng, 0, 4)) {
            let mut neg: Vec<i64> = c.coeffs.iter().map(|&a| -a).collect();
            neg[n_vars] = -c.constant() + draw(rng, -3, 3);
            rows.push(Constraint::ineq(neg));
            continue;
        }
        let mut coeffs: Vec<i64> = (0..n_vars)
            .map(|_| match draw(rng, 0, 2) {
                0 => 0,
                _ if big && draw(rng, 0, 2) == 0 => draw(rng, 1 << 33, 1 << 35) * draw(rng, -1, 1),
                _ => draw(rng, -3, 3),
            })
            .collect();
        let at: i64 = coeffs.iter().zip(&point).map(|(a, x)| a * x).sum();
        if draw(rng, 0, 5) == 0 {
            coeffs.push(-at + draw(rng, -1, 1));
            rows.push(Constraint::eq(coeffs));
        } else {
            coeffs.push(-at + draw(rng, -3, 6));
            rows.push(Constraint::ineq(coeffs));
        }
    }
    (rows, n_vars)
}

#[test]
fn kernel_and_pre_check_agree_with_simplex() {
    let mut rng = TestRng::new(0x5EED_F0F0);
    let (mut in_i64, mut reran, mut capped, mut pre_checked) = (0, 0, 0, 0);
    let mut verdicts = [0usize; 2];
    for case in 0..3000 {
        let (rows, n_vars) = random_system(&mut rng);
        let refs: Vec<&Constraint> = rows.iter().collect();
        let Ok(simplex) = simplex::feasible(&rows, n_vars) else {
            continue;
        };
        if opposite_rows_empty(&refs) {
            pre_checked += 1;
            assert!(
                !simplex,
                "case {case}: pre-check empty, simplex feasible: {rows:?}"
            );
        }
        let narrow = fm_kernel::<i64>(&refs, n_vars, FM_FEAS_CAP);
        let wide = fm_kernel::<i128>(&refs, n_vars, FM_FEAS_CAP);
        match narrow {
            Some(Some(v)) => {
                in_i64 += 1;
                assert_eq!(
                    wide,
                    Some(Some(v)),
                    "case {case}: i64 and i128 runs disagree"
                );
            }
            Some(None) => capped += 1,
            None if matches!(wide, Some(Some(_))) => reran += 1,
            None => {}
        }
        if let Some(feasible) = Polyhedron::rows_feasible_fm_capped(&refs, n_vars, FM_FEAS_CAP) {
            assert_eq!(
                feasible, simplex,
                "case {case}: FM and simplex disagree: {rows:?}"
            );
            verdicts[feasible as usize] += 1;
        }
    }
    assert!(
        in_i64 > 0 && reran > 0 && capped > 0 && pre_checked > 0 && !verdicts.contains(&0),
        "paths not all exercised: {in_i64} in i64, {reran} rerun in i128, \
         {capped} capped, {pre_checked} pre-checked; {verdicts:?} empty/feasible verdicts"
    );
}
