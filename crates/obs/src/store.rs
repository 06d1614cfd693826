//! Fixed-capacity time-series history over registry snapshots.
//!
//! The metrics registry ([`crate::metrics`]) is a *point-in-time* view:
//! counters only ever grow and histograms only ever accumulate, so a
//! single snapshot cannot answer "how fast is this counter moving?" or
//! "what was the p99 over the last few seconds?". A [`TimeSeriesStore`]
//! keeps the last N snapshots of every metric in per-series ring
//! buffers, and derives *windowed* views — rates, deltas, and
//! sliding-window quantiles computed from slot-count differences —
//! that the watermark health engine ([`crate::health`]) evaluates on
//! every sample tick. See DESIGN.md §16.

use crate::metrics::{Labels, MetricsSnapshot, SampleValue};
use crate::sync::{read, write};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// One recorded observation of one metric.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Sample tick (the store's record-call counter) this point landed on.
    pub tick: u64,
    /// Milliseconds since an epoch the caller chose (samplers use
    /// "since sampler start"); only *differences* are interpreted.
    pub at_millis: u64,
    pub value: SampleValue,
}

impl SeriesPoint {
    /// The point's scalar reading: counter and gauge values as-is,
    /// histograms as their cumulative sample count.
    pub fn scalar(&self) -> f64 {
        match &self.value {
            SampleValue::Counter(n) => *n as f64,
            SampleValue::Gauge(n) => *n as f64,
            SampleValue::Histogram(h) => h.count as f64,
        }
    }
}

/// Identity of one series: metric name plus its (sorted) label pairs.
pub type SeriesKey = (String, Labels);

/// Ring-buffer history of every metric seen in recorded snapshots.
///
/// `record` is called from one sampler tick at a time; readers
/// (`snapshot_history`, the windowed views) may run concurrently from
/// other threads. All windows are *point*-based: a window of `w` spans
/// the last `w` recorded points of that series (clamped to what is
/// actually buffered), so a fixed sampling interval makes them
/// time-based too.
///
/// A counter or histogram registered on first use (an agent's failure
/// series, a saturation histogram) first appears with its first event
/// already counted. When it appears after the store's first tick, the
/// store records that it read zero at the tick before, so the windowed
/// views count that first event.
pub struct TimeSeriesStore {
    capacity: usize,
    ticks: AtomicU64,
    /// `at_millis` of the last recorded tick: where a late series' zero
    /// point is put.
    last_at_millis: AtomicU64,
    series: RwLock<BTreeMap<SeriesKey, VecDeque<SeriesPoint>>>,
}

impl TimeSeriesStore {
    /// A store keeping at most `capacity` points per series (clamped to
    /// at least 2 — a single point supports no windowed view).
    pub fn new(capacity: usize) -> Self {
        TimeSeriesStore {
            capacity: capacity.max(2),
            ticks: AtomicU64::new(0),
            last_at_millis: AtomicU64::new(0),
            series: RwLock::new(BTreeMap::new()),
        }
    }

    /// Points retained per series.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of snapshots recorded so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Appends one snapshot as a new point on every contained series and
    /// returns the tick it landed on. Series absent from the snapshot
    /// simply gain no point (they resume where they left off). A counter
    /// or histogram new after the first tick gets a zero point at the tick
    /// before, first.
    pub fn record(&self, at_millis: u64, snapshot: &MetricsSnapshot) -> u64 {
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        let mut series = write(&self.series);
        let before = self.last_at_millis.swap(at_millis, Ordering::Relaxed);
        for sample in &snapshot.samples {
            let key = (sample.name.clone(), sample.labels.clone());
            let buf = series.entry(key).or_default();
            if buf.is_empty() && tick > 1 {
                let zero = match sample.value {
                    SampleValue::Counter(_) => Some(SampleValue::Counter(0)),
                    SampleValue::Histogram(_) => Some(SampleValue::Histogram(Default::default())),
                    SampleValue::Gauge(_) => None,
                };
                if let Some(value) = zero {
                    buf.push_back(SeriesPoint { tick: tick - 1, at_millis: before, value });
                }
            }
            if buf.len() == self.capacity {
                buf.pop_front();
            }
            buf.push_back(SeriesPoint { tick, at_millis, value: sample.value.clone() });
        }
        tick
    }

    /// Label sets recorded under a metric name, in sorted order.
    pub fn label_sets(&self, name: &str) -> Vec<Labels> {
        read(&self.series)
            .keys()
            .filter(|(n, _)| n == name)
            .map(|(_, labels)| labels.clone())
            .collect()
    }

    /// The buffered history of one series, oldest first.
    pub fn snapshot_history(&self, name: &str, labels: &Labels) -> Vec<SeriesPoint> {
        read(&self.series)
            .get(&(name.to_string(), labels.clone()))
            .map(|buf| buf.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// The newest point of one series.
    pub fn latest(&self, name: &str, labels: &Labels) -> Option<SeriesPoint> {
        read(&self.series).get(&(name.to_string(), labels.clone()))?.back().cloned()
    }

    /// The newest scalar reading of one series (see [`SeriesPoint::scalar`]).
    pub fn latest_scalar(&self, name: &str, labels: &Labels) -> Option<f64> {
        self.latest(name, labels).map(|p| p.scalar())
    }

    /// How much the series' scalar grew across the last `window` points
    /// (counter delta; negative deltas from a reset clamp to 0).
    pub fn windowed_delta(&self, name: &str, labels: &Labels, window: usize) -> Option<f64> {
        let (first, last) = self.window_ends(name, labels, window)?;
        Some((last.scalar() - first.scalar()).max(0.0))
    }

    /// The series' scalar growth rate in events/second over the last
    /// `window` points. `None` until two points exist or when no wall
    /// time elapsed between them.
    pub fn windowed_rate(&self, name: &str, labels: &Labels, window: usize) -> Option<f64> {
        let (first, last) = self.window_ends(name, labels, window)?;
        let dt_millis = last.at_millis.saturating_sub(first.at_millis);
        if dt_millis == 0 {
            return None;
        }
        Some((last.scalar() - first.scalar()).max(0.0) / (dt_millis as f64 / 1e3))
    }

    /// Sliding-window quantile of a histogram series: the quantile of
    /// only the samples that arrived within the last `window` points,
    /// from slot-wise count differences and so within the same
    /// [`MAX_RELATIVE_ERROR`](crate::MAX_RELATIVE_ERROR). `None` for
    /// non-histogram series or when the window saw no samples.
    pub fn windowed_quantile(
        &self,
        name: &str,
        labels: &Labels,
        window: usize,
        q: f64,
    ) -> Option<f64> {
        let (first, last) = self.window_ends(name, labels, window)?;
        let (SampleValue::Histogram(old), SampleValue::Histogram(new)) =
            (&first.value, &last.value)
        else {
            return None;
        };
        let arrived = new.since(old);
        (arrived.count > 0).then(|| arrived.quantile(q))
    }

    /// First and last points of the last `window` points of a series.
    /// The window start is the point *before* the last `window - 1`
    /// intervals, so a window of 2 diffs adjacent points. `None` until
    /// the series holds two points.
    fn window_ends(
        &self,
        name: &str,
        labels: &Labels,
        window: usize,
    ) -> Option<(SeriesPoint, SeriesPoint)> {
        let series = read(&self.series);
        let buf = series.get(&(name.to_string(), labels.clone()))?;
        if buf.len() < 2 {
            return None;
        }
        let span = window.max(2).min(buf.len());
        let first = buf[buf.len() - span].clone();
        let last = buf.back()?.clone();
        Some((first, last))
    }
}

impl std::fmt::Debug for TimeSeriesStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TimeSeriesStore({} series, cap {})", read(&self.series).len(), self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn labels() -> Labels {
        vec![("broker".to_string(), "b1".to_string())]
    }

    #[test]
    fn record_appends_and_ring_evicts_oldest() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("events_total", &[("broker", "b1")]);
        let store = TimeSeriesStore::new(3);
        for i in 0..5u64 {
            c.add(10);
            assert_eq!(store.record(i * 100, &reg.snapshot()), i + 1);
        }
        assert_eq!(store.ticks(), 5);
        let hist = store.snapshot_history("events_total", &labels());
        assert_eq!(hist.len(), 3, "capacity bounds the buffer");
        let ticks: Vec<u64> = hist.iter().map(|p| p.tick).collect();
        assert_eq!(ticks, vec![3, 4, 5], "oldest points evicted first");
        assert_eq!(store.latest_scalar("events_total", &labels()), Some(50.0));
    }

    #[test]
    fn a_counter_that_appears_after_the_first_tick_counts_from_zero() {
        let reg = MetricsRegistry::new();
        let store = TimeSeriesStore::new(8);
        store.record(0, &reg.snapshot());
        reg.counter("events_total", &[("broker", "b1")]).add(3);
        store.record(1000, &reg.snapshot());
        assert_eq!(store.windowed_delta("events_total", &labels(), 4), Some(3.0));
        assert_eq!(store.windowed_rate("events_total", &labels(), 4), Some(3.0));
        // A gauge reads a level, not a growth: it gets no zero point.
        reg.gauge("depth", &[]).set(5);
        store.record(2000, &reg.snapshot());
        assert_eq!(store.snapshot_history("depth", &Vec::new()).len(), 1);
        // A series present at the first tick starts where it was found.
        let first = TimeSeriesStore::new(8);
        first.record(0, &reg.snapshot());
        assert_eq!(first.windowed_delta("events_total", &labels(), 4), None);
    }

    #[test]
    fn windowed_rate_and_delta_track_counter_growth() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("events_total", &[("broker", "b1")]);
        let store = TimeSeriesStore::new(16);
        for i in 0..4u64 {
            c.add(100);
            store.record(i * 1000, &reg.snapshot());
        }
        // Last two points: 100 events over 1 s.
        assert_eq!(store.windowed_delta("events_total", &labels(), 2), Some(100.0));
        assert_eq!(store.windowed_rate("events_total", &labels(), 2), Some(100.0));
        // Whole buffer: 300 events over 3 s.
        assert_eq!(store.windowed_delta("events_total", &labels(), 99), Some(300.0));
        assert_eq!(store.windowed_rate("events_total", &labels(), 99), Some(100.0));
        // One point only → no window.
        let fresh = TimeSeriesStore::new(4);
        fresh.record(0, &reg.snapshot());
        assert_eq!(fresh.windowed_rate("events_total", &labels(), 2), None);
    }

    #[test]
    fn windowed_quantile_sees_only_recent_samples() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_seconds", &[]);
        let store = TimeSeriesStore::new(16);
        // Epoch 1: a thousand fast samples.
        for _ in 0..1000 {
            h.observe(0.0005);
        }
        store.record(0, &reg.snapshot());
        // Epoch 2: ten slow samples.
        for _ in 0..10 {
            h.observe(0.5);
        }
        store.record(1000, &reg.snapshot());
        // The lifetime quantile is dominated by the fast thousand…
        assert_eq!(h.snapshot().p99(), 0.0005);
        // …but the sliding window over the last tick sees only the slow ten.
        let p99 = store.windowed_quantile("lat_seconds", &Vec::new(), 2, 0.99).unwrap();
        assert!((p99 - 0.5).abs() <= 0.5 * crate::MAX_RELATIVE_ERROR, "windowed p99 {p99}");
        // A window with no new samples yields None, not a stale zero.
        store.record(2000, &reg.snapshot());
        assert_eq!(store.windowed_quantile("lat_seconds", &Vec::new(), 2, 0.99), None);
    }

    #[test]
    fn gauge_history_and_label_sets() {
        let reg = MetricsRegistry::new();
        reg.gauge("depth", &[("agent", "a")]).set(7);
        reg.gauge("depth", &[("agent", "b")]).set(9);
        let store = TimeSeriesStore::new(4);
        store.record(0, &reg.snapshot());
        let sets = store.label_sets("depth");
        assert_eq!(sets.len(), 2);
        let a = vec![("agent".to_string(), "a".to_string())];
        assert_eq!(store.latest_scalar("depth", &a), Some(7.0));
        assert_eq!(store.snapshot_history("missing", &Vec::new()), Vec::new());
    }
}
