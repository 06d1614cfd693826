//! Streaming statistics for simulation metrics.

use infosleuth_obs::{default_latency_buckets, quantile_from_buckets};

/// Fixed-bucket percentile tracker for simulated response times,
/// sharing bucket bounds and interpolation with the live observability
/// plane's latency histograms (`infosleuth-obs`) — simulated p50/p95/p99
/// and scraped p50/p95/p99 are computed by the same code. Interpolation
/// inside a bucket can land outside what was ever recorded (every sample
/// 12.5 ms reads 17.5 ms in the 10–25 ms bucket), so the exact extremes
/// are kept beside the counts and every estimate is clamped into them.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileStats {
    bounds: Vec<f64>,
    /// One slot per finite bound plus the implicit `+Inf` slot.
    counts: Vec<u64>,
    /// Smallest and largest recorded sample (`+Inf` / `-Inf` while empty).
    min: f64,
    max: f64,
}

impl Default for PercentileStats {
    fn default() -> Self {
        PercentileStats::new()
    }
}

impl PercentileStats {
    /// Uses the observability plane's default latency buckets
    /// (100 µs … 10 s).
    pub fn new() -> Self {
        PercentileStats::with_bounds(default_latency_buckets())
    }

    /// `bounds` must be sorted ascending; an extra `+Inf` slot is
    /// implicit.
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        let counts = vec![0; bounds.len() + 1];
        PercentileStats { bounds, counts, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    pub fn record(&mut self, seconds: f64) {
        let slot = self.bounds.partition_point(|b| *b < seconds);
        self.counts[slot] += 1;
        self.min = self.min.min(seconds);
        self.max = self.max.max(seconds);
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Linear-interpolated quantile estimate (`0.0 ..= 1.0`), never
    /// outside the recorded `[min, max]`; overflow samples clamp to the
    /// last finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let estimate = quantile_from_buckets(&self.bounds, &self.counts, q);
        if self.min > self.max {
            return estimate;
        }
        estimate.clamp(self.min, self.max)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Merges another tracker into this one (for aggregating across
    /// seeds). Both must use the same bucket bounds.
    pub fn merge(&mut self, other: &PercentileStats) {
        assert_eq!(self.bounds, other.bounds, "bucket bounds must match to merge");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Running mean / min / max / variance (Welford's algorithm), used for
/// response-time series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    pub fn new() -> Self {
        RunningStats::default()
    }

    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if self.count == 1 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merges another stats accumulator into this one (for averaging
    /// across seeds).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = mean;
        self.m2 = m2;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_min_max() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 6.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 6.0);
        assert!((s.variance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_nan() {
        let s = RunningStats::new();
        assert!(s.mean().is_nan());
        assert!(s.min().is_nan());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64) * 0.7).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..20] {
            a.record(x);
        }
        for &x in &xs[20..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.record(1.0);
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn percentiles_track_a_skewed_distribution() {
        let mut p = PercentileStats::new();
        // 90 fast responses (~2 ms) and 10 slow ones (~2 s).
        for _ in 0..90 {
            p.record(0.002);
        }
        for _ in 0..10 {
            p.record(2.0);
        }
        assert_eq!(p.count(), 100);
        assert!(p.p50() <= 0.0025, "p50 {} in the fast bucket", p.p50());
        assert!(p.p95() >= 1.0, "p95 {} reflects the slow tail", p.p95());
        assert!(p.p99() >= p.p95());
    }

    #[test]
    fn percentile_merge_equals_concatenation() {
        let mut whole = PercentileStats::new();
        let mut a = PercentileStats::new();
        let mut b = PercentileStats::new();
        for i in 0..100 {
            let x = 0.0001 * (i as f64 + 1.0);
            whole.record(x);
            if i < 40 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn overflow_clamps_to_last_finite_bound() {
        let mut p = PercentileStats::with_bounds(vec![0.1, 1.0]);
        p.record(0.5);
        p.record(50.0);
        assert_eq!(p.count(), 2);
        assert_eq!(p.quantile(0.99), 1.0);
    }

    #[test]
    fn quantiles_stay_inside_what_was_recorded() {
        // Every sample sits at 12.5 ms, low in the 10–25 ms bucket, where
        // interpolation alone reads p50 = 17.5 ms — above the maximum.
        let mut p = PercentileStats::new();
        for _ in 0..100 {
            p.record(0.0125);
        }
        assert_eq!((p.p50(), p.p95(), p.p99()), (0.0125, 0.0125, 0.0125));
        // The extremes travel through a merge.
        let mut slow = PercentileStats::new();
        slow.record(0.024);
        p.merge(&slow);
        assert!(p.p50() >= 0.0125 && p.p99() <= 0.024, "p50 {} p99 {}", p.p50(), p.p99());
        // Nothing recorded, nothing to clamp into.
        assert_eq!(PercentileStats::new().p50(), quantile_from_buckets(&[1.0], &[0, 0], 0.5));
    }
}
