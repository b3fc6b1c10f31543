//! The benchmark's own arithmetic: percentiles, best-of-reps and spreads.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by nearest rank; 0 when empty.
pub fn percentile_sorted<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Sorts `values` and returns their `q`-quantile.
pub fn percentile<T: Copy + Into<f64> + PartialOrd>(values: &mut [T], q: f64) -> f64 {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    percentile_sorted(values, q)
}

/// The median, averaging the two middle values of an even-length input.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Which way a metric improves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput).
    Higher,
    /// Smaller is better (latency, set-up time, memory).
    Lower,
}

/// The best of a cell's reps: interference on the measuring host is
/// one-sided, so the fastest rep is the one least disturbed.
pub fn best_of(values: &[f64], better: Better) -> f64 {
    let pick = |a: f64, b: f64| match better {
        Better::Higher => a.max(b),
        Better::Lower => a.min(b),
    };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// Inter-quartile range as a share of the median (the driver's spread
/// statistic, `statistics.quantiles(values, n=4)` with its default
/// exclusive method); 0 for fewer than two values.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    let n = v.len();
    let med = median(&v);
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let quartile = |k: f64| {
        let pos = k * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    };
    (quartile(3.0) - quartile(1.0)) / med
}

/// How much worse `new` is than `old`, as a share of `old` (negative when
/// it is better).
pub fn worsening(old: f64, new: f64, better: Better) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (old - new) / old,
        Better::Lower => (new - old) / old,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        let mut one = [7u32];
        assert_eq!(percentile(&mut one, 0.5), 7.0);
        assert_eq!(percentile::<u32>(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_of_follows_the_direction() {
        let reps = [3.0, 9.0, 5.0];
        assert_eq!(best_of(&reps, Better::Higher), 9.0);
        assert_eq!(best_of(&reps, Better::Lower), 3.0);
        assert_eq!(best_of(&[], Better::Lower), 0.0);
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - 5.5 / 5.5).abs() < 1e-12);
        // quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: clamped
        // extrapolation, as Python does.
        assert!((iqr_over_median(&[10.0, 20.0]) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[5.0]), 0.0);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Lower) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }
}
