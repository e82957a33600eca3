//! Measurement primitives for the experiment harness.
//!
//! Three shapes cover everything the paper reports:
//!
//! * [`Histogram`] — latency distributions (request latencies, fault costs).
//! * [`TimeSeries`] — values over virtual time (Figure 14's traces).
//! * [`Meter`] — event counts and rates (DSM faults/s, bytes/s).

use crate::time::SimTime;

/// A sampled distribution with exact quantiles.
///
/// Samples are kept verbatim (simulations here produce at most a few million
/// samples) and sorted lazily on query.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Records a duration sample in nanoseconds.
    pub fn record_time(&mut self, t: SimTime) {
        self.record(t.as_nanos() as f64);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns true if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Minimum sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Maximum sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Exact quantile in `[0, 1]` (nearest-rank), or 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let idx = ((self.samples.len() as f64 - 1.0) * q).round() as usize;
        self.samples[idx]
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }
}

/// A value tracked over virtual time.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point; time must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous point.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time series must be monotonic");
        }
        self.points.push((t, v));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns true if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last value, or `None` when empty.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Time-weighted average over the recorded span, treating the series as
    /// a step function. Returns 0 for fewer than two points.
    pub fn time_weighted_mean(&self) -> f64 {
        if self.points.len() < 2 {
            return self.points.first().map(|&(_, v)| v).unwrap_or(0.0);
        }
        let mut acc = 0.0;
        let mut span = 0.0;
        for w in self.points.windows(2) {
            let dt = (w[1].0 - w[0].0).as_secs_f64();
            acc += w[0].1 * dt;
            span += dt;
        }
        if span == 0.0 {
            self.points[0].1
        } else {
            acc / span
        }
    }
}

/// An event counter with byte accounting, convertible to rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Meter {
    /// Number of events observed.
    pub events: u64,
    /// Total bytes attributed to those events.
    pub bytes: u64,
}

impl Meter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event carrying `bytes` bytes.
    pub fn record(&mut self, bytes: u64) {
        self.events += 1;
        self.bytes += bytes;
    }

    /// Events per second over a span.
    pub fn rate_per_sec(&self, span: SimTime) -> f64 {
        let s = span.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.events as f64 / s
        }
    }

    /// Bytes per second over a span.
    pub fn bytes_per_sec(&self, span: SimTime) -> f64 {
        let s = span.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.bytes as f64 / s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.median(), 3.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 5.0);
        assert_eq!(h.max(), 5.0);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_interleaved_record_and_query() {
        let mut h = Histogram::new();
        h.record(10.0);
        assert_eq!(h.median(), 10.0);
        h.record(20.0);
        h.record(0.0);
        assert_eq!(h.median(), 10.0);
    }

    #[test]
    fn time_series_weighted_mean() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(0), 1.0);
        s.push(SimTime::from_secs(1), 3.0);
        s.push(SimTime::from_secs(3), 0.0);
        // 1.0 for 1s, then 3.0 for 2s => (1 + 6) / 3.
        assert!((s.time_weighted_mean() - 7.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.last(), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn time_series_rejects_regression() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(2), 1.0);
        s.push(SimTime::from_secs(1), 1.0);
    }

    #[test]
    fn meter_rates() {
        let mut m = Meter::new();
        for _ in 0..10 {
            m.record(4096);
        }
        let span = SimTime::from_secs(2);
        assert_eq!(m.rate_per_sec(span), 5.0);
        assert_eq!(m.bytes_per_sec(span), 10.0 * 4096.0 / 2.0);
        assert_eq!(m.rate_per_sec(SimTime::ZERO), 0.0);
    }
}
