//! Small statistics: medians, nearest-rank percentiles, and the
//! least-squares fit of the paper's message cost form `α + β·bytes`.

/// Median of `xs` (mean of the middle two for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Index of the median element of `xs` (the lower middle for an even
/// count), so a caller can report that sample's whole breakdown.
/// Panics if empty.
pub fn median_index(xs: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    idx[(xs.len() - 1) / 2]
}

/// Nearest-rank `p`-th percentile (0 < p ≤ 100) of an ascending slice;
/// 0 if empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Least-squares fit of `y = α + β·x`. Returns `(α, β)`; with fewer than
/// two distinct `x` values β is undetermined and reported as 0, α as the
/// mean of `y`.
pub fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    if points.is_empty() {
        return (0.0, 0.0);
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        return (my, 0.0);
    }
    let beta = sxy / sxx;
    (my - beta * mx, beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_its_index() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_index(&[5.0, 1.0, 3.0]), 2);
        assert_eq!(median_index(&[4.0, 1.0, 3.0, 2.0]), 3);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn fit_recovers_known_coefficients() {
        // Table 1's form: 40 µs + 50 ns/B, over a spread of batch sizes.
        let pts: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let bytes = 64.0 + 997.0 * i as f64;
                (bytes, 40_000.0 + 50.0 * bytes)
            })
            .collect();
        let (a, b) = fit_line(&pts);
        assert!((a - 40_000.0).abs() < 1e-6, "alpha {a}");
        assert!((b - 50.0).abs() < 1e-9, "beta {b}");
    }

    #[test]
    fn fit_cancels_noise_balanced_at_every_size() {
        let pts: Vec<(f64, f64)> = (0..1000)
            .map(|i| {
                let bytes = 100.0 * (i % 50) as f64;
                let noise = if (i / 50) % 2 == 0 { 500.0 } else { -500.0 };
                (bytes, 12_000.0 + 8.0 * bytes + noise)
            })
            .collect();
        let (a, b) = fit_line(&pts);
        assert!((a - 12_000.0).abs() < 1e-6, "alpha {a}");
        assert!((b - 8.0).abs() < 1e-9, "beta {b}");
    }

    #[test]
    fn fit_of_one_size_reports_mean_and_zero_slope() {
        assert_eq!(fit_line(&[(10.0, 3.0), (10.0, 5.0)]), (4.0, 0.0));
        assert_eq!(fit_line(&[]), (0.0, 0.0));
    }
}
