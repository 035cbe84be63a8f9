//! Time-series recording.
//!
//! The paper's Figures 7 and 10 plot quantities (algorithm bandwidth,
//! normalized throughput) against elapsed time. [`TimeSeries`] collects
//! `(time, value)` samples during a run and can resample them into fixed
//! windows for plotting.

use crate::time::Nanos;

/// A named sequence of `(time, value)` samples, append-only in time order.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    name: String,
    samples: Vec<(Nanos, f64)>,
}

impl TimeSeries {
    /// An empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a sample. Samples must be pushed in non-decreasing time order.
    pub fn push(&mut self, at: Nanos, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(at >= last, "time-series samples must be time ordered");
        }
        self.samples.push((at, value));
    }

    /// Raw samples.
    pub fn samples(&self) -> &[(Nanos, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of the values of all samples in `[from, to)`.
    pub fn mean_in(&self, from: Nanos, to: Nanos) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(t, v) in &self.samples {
            if t >= from && t < to {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Resample into fixed windows of width `window`, producing one
    /// `(window_start, mean)` point per non-empty window — the form used to
    /// render the timeline figures.
    pub fn windowed_means(&self, window: Nanos) -> Vec<(Nanos, f64)> {
        assert!(window > Nanos::ZERO, "window must be positive");
        let mut out = Vec::new();
        if self.samples.is_empty() {
            return out;
        }
        let end = self.samples.last().expect("non-empty").0;
        let mut start = Nanos::ZERO;
        while start <= end {
            let stop = start + window;
            if let Some(m) = self.mean_in(start, stop) {
                out.push((start, m));
            }
            start = stop;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        let mut ts = TimeSeries::new("bw");
        ts.push(Nanos::from_secs(0), 1.0);
        ts.push(Nanos::from_secs(1), 2.0);
        ts.push(Nanos::from_secs(2), 4.0);
        ts.push(Nanos::from_secs(3), 8.0);
        ts
    }

    #[test]
    fn push_and_len() {
        let ts = series();
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.name(), "bw");
        assert!(!ts.is_empty());
    }

    #[test]
    #[should_panic(expected = "time ordered")]
    fn out_of_order_push_panics() {
        let mut ts = series();
        ts.push(Nanos::from_secs(1), 0.0);
    }

    #[test]
    fn mean_in_window() {
        let ts = series();
        assert_eq!(
            ts.mean_in(Nanos::from_secs(0), Nanos::from_secs(2)),
            Some(1.5)
        );
        assert_eq!(ts.mean_in(Nanos::from_secs(10), Nanos::from_secs(11)), None);
    }

    #[test]
    fn windowed_means_cover_range() {
        let ts = series();
        let w = ts.windowed_means(Nanos::from_secs(2));
        assert_eq!(
            w,
            vec![(Nanos::from_secs(0), 1.5), (Nanos::from_secs(2), 6.0)]
        );
    }
}
