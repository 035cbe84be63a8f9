//! Summary statistics for experiment reporting.
//!
//! The paper reports means with 95th-percentile intervals (Figures 6, 8, 9)
//! and CDFs (Figure 11). [`Summary`] provides the corresponding estimators
//! over a sample vector; [`cdf_points`] produces plot-ready CDF series.

/// Descriptive statistics over a set of `f64` samples.
#[derive(Clone, Debug)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Build from samples (order irrelevant; NaNs are rejected).
    pub fn new(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(
            sorted.iter().all(|x| !x.is_nan()),
            "summary over NaN samples"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        Summary { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample set is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean (0 for the empty set).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Linear-interpolated quantile, `q` in `[0, 1]`.
    fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The `(p5, p95)` interval — the "95% percentile intervals" shading of
    /// the paper's figures.
    pub fn p95_interval(&self) -> (f64, f64) {
        (self.quantile(0.05), self.quantile(0.95))
    }

    /// One-line rendering: `mean [p5, p95] (n)`.
    pub fn brief(&self) -> String {
        let (lo, hi) = self.p95_interval();
        format!(
            "{:.3} [{:.3}, {:.3}] (n={})",
            self.mean(),
            lo,
            hi,
            self.len()
        )
    }
}

/// Empirical CDF points `(value, fraction ≤ value)` for plotting, one point
/// per sample (Figure 11 style).
pub fn cdf_points(samples: impl IntoIterator<Item = f64>) -> Vec<(f64, f64)> {
    let s = Summary::new(samples);
    let n = s.len();
    s.sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = Summary::new([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::new([0.0, 10.0]);
        assert_eq!(s.quantile(0.25), 2.5);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 10.0);
    }

    #[test]
    fn empty_and_singleton() {
        let e = Summary::new([]);
        assert!(e.is_empty());
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.quantile(0.5), 0.0);
        let one = Summary::new([7.0]);
        assert_eq!(one.quantile(0.99), 7.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Summary::new([f64::NAN]);
    }

    #[test]
    fn p95_interval_brackets_bulk() {
        let s = Summary::new((0..=100).map(f64::from));
        let (lo, hi) = s.p95_interval();
        assert_eq!(lo, 5.0);
        assert_eq!(hi, 95.0);
        assert!(s.brief().contains("n=101"));
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let pts = cdf_points([3.0, 1.0, 2.0]);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (1.0, 1.0 / 3.0));
        assert_eq!(pts[2], (3.0, 1.0));
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }
}
