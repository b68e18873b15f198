//! Order statistics over timing samples.

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. `None` on no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon keeps `99.9% of 1000` from rounding up past 999).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The percentiles a tail is reported at, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile in [`TAILS`] that has at least ten samples
/// beyond it, with its value: the tail a sample count supports.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    let p = TAILS.into_iter().find(|&p| n >= 10 + rank(n, p))?;
    Some((p, percentile(samples, p)?))
}

/// Quartiles `[q1, q2, q3]` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive one), so
/// spreads read the same as in any script that checks them. `None`
/// below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some([q(1), q(2), q(3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let s = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // 1000 samples: p99.9 has 1 beyond it, p99 has exactly 10.
        assert_eq!(tail(&s(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&s(10_000)), Some((99.9, 9990.0)));
        // 200 samples: p99 has 2 beyond, p95 has 10.
        assert_eq!(tail(&s(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&s(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&s(40)), Some((75.0, 30.0)));
        // Too few samples for any tail.
        assert_eq!(tail(&s(39)), None);
        assert_eq!(tail(&s(3)), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some([1.0, 3.0, 4.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
