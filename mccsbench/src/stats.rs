//! Quantile helpers: the quartile rule the benchmark contract uses
//! (Python's `statistics.quantiles(values, n=4)`), and the "a reported
//! percentile has at least ten samples beyond it" rule of the
//! choosing-metrics guide.

/// Ascending copy of `values` (which must hold no NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    v
}

/// `(q1, median, q3)` by the exclusive method, equal to Python's
/// `statistics.quantiles(values, n=4)`. A single sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile of an ascending slice. Percentiles are given
/// in thousandths (`990` = p99) so ranks are exact integer arithmetic.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// 1-based nearest rank of a percentile among `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    assert!((1..=1000).contains(&permille), "percentile out of range");
    (n * permille).div_ceil(1000).clamp(1, n)
}

/// Whether a percentile of `n` samples has at least ten samples strictly
/// beyond its rank.
pub fn ten_beyond(n: usize, permille: usize) -> bool {
    n >= 1 && n - rank(n, permille) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&[4.0], 990), 4.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1,000 samples sits at rank 990: exactly ten beyond.
        assert!(ten_beyond(1000, 990));
        assert!(!ten_beyond(999, 990));
        assert!(ten_beyond(20, 500));
        assert!(!ten_beyond(19, 500));
        // 6,400 samples carry p99 (64 beyond) but not p99.9 (6 beyond).
        assert!(ten_beyond(6400, 990));
        assert!(!ten_beyond(6400, 999));
    }
}
