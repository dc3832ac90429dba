//! Order statistics used for every reported number.

/// Sorts `xs` and returns its median (mean of the two middle values for an
/// even count). `NaN` for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` (in `(0, 1]`) among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least a share `p` of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest-rank position of percentile `p`. The
/// reporting rule for tails: a percentile counts only with at least ten.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Sorts `xs` and returns its nearest-rank percentile `p`.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    nearest_rank(xs, p)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the exclusive method); `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread the acceptance rule is stated in.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(&mut xs.to_vec());
    Some((q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), 50.0);
        assert_eq!(nearest_rank(&xs, 0.95), 95.0);
        assert_eq!(nearest_rank(&xs, 0.99), 99.0);
        assert_eq!(nearest_rank(&xs, 1.0), 100.0);
        // 7 samples: ceil(0.95 * 7) = 7, ceil(0.5 * 7) = 4.
        let ys = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(nearest_rank(&ys, 0.95), 7.0);
        assert_eq!(nearest_rank(&ys, 0.5), 4.0);
        assert!(nearest_rank(&[], 0.5).is_nan());
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p95 of 200 samples sits at rank 190: exactly ten beyond.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        // p99 needs a thousand.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), Some((1.5, 12.0)));
        assert_eq!(iqr_share(&[16.0, 1.0, 4.0, 2.0, 8.0]), Some(10.5 / 4.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
