//! Order statistics and rank correlation for the benchmark's samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks. `None` on an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median; 0 on an empty slice (a layer that never ran).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method): the figures the spread of a metric is judged by.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// The highest percentile that still has at least ten samples beyond
/// it, with its value: `(percentile, value)`. `None` below 20 samples,
/// where no percentile above the median qualifies.
pub fn hi_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 20 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // Ten samples lie strictly beyond index n-11.
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

/// Average ranks (ties share the mean of the ranks they span).
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation of two equally long series. `None` when
/// fewer than two points or either series is constant.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let (rx, ry) = (ranks(xs), ranks(ys));
    let n = xs.len() as f64;
    let (mx, my) = (rx.iter().sum::<f64>() / n, ry.iter().sum::<f64>() / n);
    let (mut num, mut dx, mut dy) = (0.0, 0.0, 0.0);
    for (a, b) in rx.iter().zip(&ry) {
        num += (a - mx) * (b - my);
        dx += (a - mx) * (a - mx);
        dy += (b - my) * (b - my);
    }
    (dx > 0.0 && dy > 0.0).then(|| num / (dx * dy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]).unwrap();
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn hi_percentile_keeps_ten_samples_beyond() {
        assert!(hi_percentile(&[1.0; 19]).is_none());
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // 20 samples: index 9 (value 10) has exactly ten beyond it.
        assert_eq!(hi_percentile(&v), Some((50.0, 10.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, val) = hi_percentile(&v).unwrap();
        assert_eq!(val, 990.0);
        assert!((pct - 99.0).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > val).count(), 10);
    }

    #[test]
    fn spearman_on_monotone_reversed_tied_and_constant() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((spearman(&x, &[10.0, 20.0, 25.0, 90.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((spearman(&x, &[9.0, 7.0, 5.0, 1.0]).unwrap() + 1.0).abs() < 1e-12);
        // Ties share average ranks: ranks(y) = [1.5, 1.5, 3, 4].
        let r = spearman(&x, &[5.0, 5.0, 6.0, 7.0]).unwrap();
        assert!((r - 0.9486832980505138).abs() < 1e-12, "{r}");
        assert!(spearman(&x, &[2.0; 4]).is_none());
        assert!(spearman(&[1.0], &[1.0]).is_none());
    }
}
