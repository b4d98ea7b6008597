//! Order statistics for reported timings.

/// A percentile is reported only with at least this many samples above
/// its rank; below that it is one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-percentile (`0 < p < 1`) of ascending `sorted`
/// samples: the value at rank `ceil(p·n)`. `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples sorted");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    sorted.get(rank - 1).copied()
}

/// Sorts `values` ascending (NaN-free timing samples).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The middle value of a handful of round results (mean of the two
/// middle ones for an even count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method). `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some([q(1), q(2), q(3)])
}

/// Interquartile range as a share of the median: the spread measure the
/// bounds are judged against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        // p50 needs 20 samples: rank 10 with 10 above it.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        // p90 needs 100, p99 needs 1000.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1_000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(2_250), 0.99), Some(2_228.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&ramp(10)).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
