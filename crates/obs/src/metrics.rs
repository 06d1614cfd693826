//! Lock-cheap metrics: counters, gauges, and log-linear histograms with
//! a stated quantile error behind a get-or-create registry.
//!
//! Handles returned by the registry are cheap `Arc` clones around
//! atomics; callers cache them once and the hot path is lock-free.
//! The registry itself is only locked on handle creation and on
//! snapshot/render, both of which are rare.

use crate::sync::{read, write};
use infosleuth_kqml::SExpr;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (never rendered).
    pub fn detached() -> Self {
        Self::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depths, pool sizes).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not attached to any registry (never rendered).
    pub fn detached() -> Self {
        Self::default()
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Every histogram counts on one integer scale of 10⁻⁹ of the recorded
/// unit — a nanosecond of a latency in seconds, a billionth of a plain
/// size — so no call site picks a range.
const NANOS: f64 = 1e9;

/// Slots per histogram: one per integer below 32, then 16 per power of
/// two up to 2⁴⁸ (78 h of nanoseconds, sizes to 2.8 × 10⁵). Anything
/// larger lands in the last slot, which only `+Inf` renders.
pub const BUCKETS: usize = 720;

/// The stated bound on every quantile's relative error: a bucket is at
/// most 1/16 of its lower bound wide, and a quantile is its midpoint.
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / 32.0;

fn to_nanos(value: f64) -> u64 {
    // `as` saturates: NaN and negatives read 0, +Inf reads `u64::MAX`.
    (value * NANOS).round() as u64
}

/// The slot counting `nanos`: the value itself below 32, else the top
/// five bits under the leading one, 16 slots per octave.
fn bucket_index(nanos: u64) -> usize {
    if nanos < 16 {
        return nanos as usize;
    }
    let shift = 59 - nanos.leading_zeros() as usize;
    ((shift << 4) + (nanos >> shift) as usize).min(BUCKETS - 1)
}

/// Smallest and largest integer slot `index` counts; the last slot has
/// no upper end, so a quantile inside it reads the exact maximum.
fn bucket_range(index: usize) -> (u64, u64) {
    if index < 16 {
        return (index as u64, index as u64);
    }
    let shift = (index >> 4) - 1;
    let low = (16 + (index & 15) as u64) << shift;
    (low, if index == BUCKETS - 1 { u64::MAX } else { low + ((1 << shift) - 1) })
}

struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    sum_nanos: AtomicU64,
    min_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

/// Log-linear histogram of latencies (seconds) or sizes: a flat array of
/// [`BUCKETS`] atomic counters (5.8 kB), the exact extremes and the sum
/// in integer nanos. Read it through [`Histogram::snapshot`].
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            min_nanos: AtomicU64::new(u64::MAX),
            max_nanos: AtomicU64::new(0),
        }))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram").field("count", &snap.count).field("sum", &snap.sum()).finish()
    }
}

impl Histogram {
    /// A histogram not attached to any registry (never rendered).
    pub fn detached() -> Self {
        Self::default()
    }

    /// Records one latency in seconds, or one size.
    pub fn observe(&self, value: f64) {
        self.record(to_nanos(value));
    }

    pub fn observe_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    fn record(&self, nanos: u64) {
        let h = &*self.0;
        if nanos < h.min_nanos.load(Ordering::Relaxed) {
            h.min_nanos.fetch_min(nanos, Ordering::Relaxed);
        }
        if nanos > h.max_nanos.load(Ordering::Relaxed) {
            h.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        }
        h.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        // Counted last and with Release, read first and with Acquire in
        // `snapshot`: a reader that counts this sample also sees its
        // extremes and sum, so `min ≤ max` whenever `count > 0`.
        h.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Release);
    }

    /// Times a closure and records its wall-clock duration.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.observe_duration(start.elapsed());
        out
    }

    pub fn count(&self) -> u64 {
        self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &*self.0;
        let loaded =
            h.buckets.iter().enumerate().map(|(i, b)| (i as u16, b.load(Ordering::Acquire)));
        let buckets: Vec<(u16, u64)> = loaded.filter(|b| b.1 > 0).collect();
        if buckets.is_empty() {
            return HistogramSnapshot::default();
        }
        HistogramSnapshot {
            count: buckets.iter().map(|b| b.1).sum(),
            buckets,
            sum_nanos: h.sum_nanos.load(Ordering::Relaxed),
            min_nanos: h.min_nanos.load(Ordering::Relaxed),
            max_nanos: h.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A histogram's plain value: what a registry snapshot, a KQML report
/// and a [`TimeSeriesStore`](crate::TimeSeriesStore) point carry, and
/// what single-threaded code (the simulator) records into directly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-empty slots as `(index, count)`, ascending by index.
    pub buckets: Vec<(u16, u64)>,
    /// Samples recorded: the sum of `buckets`' counts.
    pub count: u64,
    /// Sum, smallest and largest sample in nanos; all 0 while empty.
    pub sum_nanos: u64,
    pub min_nanos: u64,
    pub max_nanos: u64,
}

impl HistogramSnapshot {
    /// Records one latency in seconds, or one size.
    pub fn record(&mut self, value: f64) {
        let nanos = to_nanos(value);
        self.add(&[(bucket_index(nanos) as u16, 1)], nanos, nanos, nanos);
    }

    /// Adds `other`'s samples: equal to having recorded both sets here.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count > 0 {
            self.add(&other.buckets, other.sum_nanos, other.min_nanos, other.max_nanos);
        }
    }

    fn add(&mut self, buckets: &[(u16, u64)], sum: u64, min: u64, max: u64) {
        self.min_nanos = if self.count == 0 { min } else { self.min_nanos.min(min) };
        self.max_nanos = self.max_nanos.max(max);
        self.sum_nanos = self.sum_nanos.wrapping_add(sum);
        for &(index, n) in buckets {
            self.count += n;
            match self.buckets.binary_search_by_key(&index, |b| b.0) {
                Ok(at) => self.buckets[at].1 += n,
                Err(at) => self.buckets.insert(at, (index, n)),
            }
        }
    }

    /// The samples recorded after `older` was taken of the same
    /// histogram. The window's own extremes are unknown; the lifetime
    /// ones still bound every sample in it.
    pub fn since(&self, older: &HistogramSnapshot) -> HistogramSnapshot {
        let before = |index| {
            let at = older.buckets.binary_search_by_key(&index, |b| b.0);
            at.map_or(0, |at| older.buckets[at].1)
        };
        let grown = self.buckets.iter().map(|&(index, n)| (index, n.saturating_sub(before(index))));
        let buckets: Vec<(u16, u64)> = grown.filter(|b| b.1 > 0).collect();
        HistogramSnapshot {
            count: buckets.iter().map(|b| b.1).sum(),
            buckets,
            sum_nanos: self.sum_nanos.wrapping_sub(older.sum_nanos),
            ..*self
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the midpoint of the slot
    /// holding the `⌈q · count⌉`-th smallest sample, clamped into the
    /// exact `[min, max]` — within [`MAX_RELATIVE_ERROR`] of that sample
    /// and monotone in `q`. 0 while empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (low, high) = bucket_range(index as usize);
                let mid = (low as f64 + high as f64) / 2.0;
                return mid.max(self.min_nanos as f64).min(self.max_nanos as f64) / NANOS;
            }
        }
        self.max()
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

    pub fn sum(&self) -> f64 {
        self.sum_nanos as f64 / NANOS
    }

    pub fn min(&self) -> f64 {
        self.min_nanos as f64 / NANOS
    }

    pub fn max(&self) -> f64 {
        self.max_nanos as f64 / NANOS
    }
}

/// Label pairs, kept sorted for a canonical identity.
pub type Labels = Vec<(String, String)>;

fn canonical_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    out.sort();
    out
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Labels,
}

#[derive(Clone)]
enum MetricEntry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Get-or-create registry of named metrics. Cloning shares the
/// underlying map; handles stay valid for the registry's lifetime.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RwLock<BTreeMap<MetricKey, MetricEntry>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsRegistry({} metrics)", read(&self.inner).len())
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter handle for `name{labels}`. A name/label collision with a
    /// different metric kind yields a detached handle rather than
    /// corrupting the registered family.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey { name: name.to_string(), labels: canonical_labels(labels) };
        if let Some(MetricEntry::Counter(c)) = read(&self.inner).get(&key) {
            return c.clone();
        }
        match write(&self.inner)
            .entry(key)
            .or_insert_with(|| MetricEntry::Counter(Counter::default()))
        {
            MetricEntry::Counter(c) => c.clone(),
            _ => Counter::detached(),
        }
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey { name: name.to_string(), labels: canonical_labels(labels) };
        if let Some(MetricEntry::Gauge(g)) = read(&self.inner).get(&key) {
            return g.clone();
        }
        match write(&self.inner).entry(key).or_insert_with(|| MetricEntry::Gauge(Gauge::default()))
        {
            MetricEntry::Gauge(g) => g.clone(),
            _ => Gauge::detached(),
        }
    }

    /// Histogram handle for latencies in seconds or for sizes.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey { name: name.to_string(), labels: canonical_labels(labels) };
        if let Some(MetricEntry::Histogram(h)) = read(&self.inner).get(&key) {
            return h.clone();
        }
        match write(&self.inner)
            .entry(key)
            .or_insert_with(|| MetricEntry::Histogram(Histogram::default()))
        {
            MetricEntry::Histogram(h) => h.clone(),
            _ => Histogram::detached(),
        }
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let samples = read(&self.inner)
            .iter()
            .map(|(key, entry)| Sample {
                name: key.name.clone(),
                labels: key.labels.clone(),
                value: match entry {
                    MetricEntry::Counter(c) => SampleValue::Counter(c.get()),
                    MetricEntry::Gauge(g) => SampleValue::Gauge(g.get()),
                    MetricEntry::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot { samples }
    }

    /// Prometheus text exposition (v0.0.4) of the live registry.
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

/// One exported metric with its identity and current value.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Labels,
    pub value: SampleValue,
}

#[derive(Clone, Debug, PartialEq)]
pub enum SampleValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

impl SampleValue {
    fn kind(&self) -> &'static str {
        match self {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
            SampleValue::Histogram(_) => "histogram",
        }
    }
}

/// A serializable point-in-time copy of a registry, the unit the
/// monitor agent aggregates across the community.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Prometheus text exposition of this snapshot alone.
    pub fn render(&self) -> String {
        render_samples(self.samples.iter().map(|s| (s, None)))
    }

    /// KQML-transportable form:
    /// `(metrics (counter "name" ((k "v")…) n) (gauge …) (histogram
    /// "name" (labels…) sum count min max (index n)…))`, one pair per
    /// non-empty slot.
    pub fn to_sexpr(&self) -> SExpr {
        let samples = self.samples.iter().map(|s| {
            let labels = SExpr::list(
                s.labels
                    .iter()
                    .map(|(k, v)| SExpr::list([SExpr::atom(k.as_str()), SExpr::string(v)])),
            );
            match &s.value {
                SampleValue::Counter(n) => SExpr::list([
                    SExpr::atom("counter"),
                    SExpr::string(&s.name),
                    labels,
                    SExpr::atom(n.to_string()),
                ]),
                SampleValue::Gauge(n) => SExpr::list([
                    SExpr::atom("gauge"),
                    SExpr::string(&s.name),
                    labels,
                    SExpr::atom(n.to_string()),
                ]),
                SampleValue::Histogram(h) => {
                    let head = [SExpr::atom("histogram"), SExpr::string(&s.name), labels];
                    let scalars = [h.sum_nanos, h.count, h.min_nanos, h.max_nanos];
                    let slots = h.buckets.iter().map(|(index, n)| {
                        SExpr::list([SExpr::atom(index.to_string()), SExpr::atom(n.to_string())])
                    });
                    SExpr::list(
                        head.into_iter()
                            .chain(scalars.map(|n| SExpr::atom(n.to_string())))
                            .chain(slots),
                    )
                }
            }
        });
        SExpr::list(std::iter::once(SExpr::atom("metrics")).chain(samples))
    }

    /// `None` for anything [`MetricsSnapshot::to_sexpr`] could not have
    /// written — for a histogram: a slot index out of range or not
    /// ascending, an empty slot, `count` ≠ the slots' total, `min > max`.
    pub fn from_sexpr(expr: &SExpr) -> Option<Self> {
        let items = expr.as_list()?;
        if items.first()?.as_atom() != Some("metrics") {
            return None;
        }
        let mut samples = Vec::new();
        for item in &items[1..] {
            let parts = item.as_list()?;
            let kind = parts.first()?.as_atom()?;
            let name = parts.get(1)?.as_text()?.to_string();
            let labels = parts
                .get(2)?
                .as_list()?
                .iter()
                .map(|pair| {
                    let kv = pair.as_list()?;
                    Some((kv.first()?.as_text()?.to_string(), kv.get(1)?.as_text()?.to_string()))
                })
                .collect::<Option<Labels>>()?;
            let value = match kind {
                "counter" => SampleValue::Counter(parts.get(3)?.as_atom()?.parse().ok()?),
                "gauge" => SampleValue::Gauge(parts.get(3)?.as_atom()?.parse().ok()?),
                "histogram" => {
                    let scalar = |at: usize| parts.get(at)?.as_atom()?.parse::<u64>().ok();
                    let mut h = HistogramSnapshot {
                        buckets: Vec::new(),
                        sum_nanos: scalar(3)?,
                        count: scalar(4)?,
                        min_nanos: scalar(5)?,
                        max_nanos: scalar(6)?,
                    };
                    let mut total = 0u64;
                    for bucket in &parts[7..] {
                        let pair = bucket.as_list()?;
                        let index: u16 = pair.first()?.as_atom()?.parse().ok()?;
                        let n: u64 = pair.get(1)?.as_atom()?.parse().ok()?;
                        let unsorted = h.buckets.last().is_some_and(|last| last.0 >= index);
                        if unsorted || usize::from(index) >= BUCKETS || n == 0 {
                            return None;
                        }
                        total = total.checked_add(n)?;
                        h.buckets.push((index, n));
                    }
                    if total != h.count || h.min_nanos > h.max_nanos {
                        return None;
                    }
                    SampleValue::Histogram(h)
                }
                _ => return None,
            };
            samples.push(Sample { name, labels, value });
        }
        Some(MetricsSnapshot { samples })
    }
}

/// Renders snapshots from many agents as one exposition, tagging every
/// sample with an `agent` label identifying its source registry.
pub fn render_merged(sources: &BTreeMap<String, MetricsSnapshot>) -> String {
    let tagged: Vec<(&Sample, Option<&str>)> = {
        let mut v: Vec<(&Sample, Option<&str>)> = sources
            .iter()
            .flat_map(|(agent, snap)| snap.samples.iter().map(move |s| (s, Some(agent.as_str()))))
            .collect();
        // Group families together regardless of source agent.
        v.sort_by(|a, b| (&a.0.name, a.1, &a.0.labels).cmp(&(&b.0.name, b.1, &b.0.labels)));
        v
    };
    render_samples(tagged.into_iter())
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn format_labels(labels: &Labels, extra: &[(&str, &str)]) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .chain(extra.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))))
        .collect();
    if pairs.is_empty() {
        return String::new();
    }
    pairs.sort();
    format!("{{{}}}", pairs.join(","))
}

fn render_samples<'a>(samples: impl Iterator<Item = (&'a Sample, Option<&'a str>)>) -> String {
    let mut out = String::new();
    let mut typed: std::collections::BTreeSet<String> = Default::default();
    for (s, agent) in samples {
        if typed.insert(s.name.clone()) {
            let _ = writeln!(out, "# TYPE {} {}", s.name, s.value.kind());
        }
        let extra: Vec<(&str, &str)> = agent.map(|a| ("agent", a)).into_iter().collect();
        match &s.value {
            SampleValue::Counter(n) => {
                let _ = writeln!(out, "{}{} {}", s.name, format_labels(&s.labels, &extra), n);
            }
            SampleValue::Gauge(n) => {
                let _ = writeln!(out, "{}{} {}", s.name, format_labels(&s.labels, &extra), n);
            }
            SampleValue::Histogram(h) => {
                // One cumulative line per non-empty slot below the
                // saturating last one, which has no finite bound.
                let mut cum = 0u64;
                let finite = h.buckets.iter().filter(|b| usize::from(b.0) < BUCKETS - 1);
                let lines = finite.map(|&(index, n)| {
                    cum += n;
                    ((bucket_range(index.into()).1 as f64 / NANOS).to_string(), cum)
                });
                for (le, cum) in lines.chain([("+Inf".to_string(), h.count)]) {
                    let mut extra_with_le = extra.clone();
                    extra_with_le.push(("le", &le));
                    let labels = format_labels(&s.labels, &extra_with_le);
                    let _ = writeln!(out, "{}_bucket{labels} {cum}", s.name);
                }
                let labels = format_labels(&s.labels, &extra);
                let _ = writeln!(out, "{}_sum{labels} {}", s.name, h.sum());
                let _ = writeln!(out, "{}_count{labels} {}", s.name, h.count);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip_through_the_registry() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("requests_total", &[("agent", "b1")]);
        c.inc();
        c.add(2);
        // Same identity → same underlying atomic.
        assert_eq!(reg.counter("requests_total", &[("agent", "b1")]).get(), 3);
        let g = reg.gauge("queue_depth", &[]);
        g.add(5);
        g.add(-2);
        assert_eq!(reg.gauge("queue_depth", &[]).get(), 3);
    }

    #[test]
    fn kind_collision_yields_detached_handle() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("thing", &[]);
        c.inc();
        let g = reg.gauge("thing", &[]);
        g.set(99);
        // The registered counter is unharmed.
        assert_eq!(reg.counter("thing", &[]).get(), 1);
    }

    /// Every value lands in a slot whose range holds it, slots tile the
    /// scale without gap or overlap, and none is wider than 1/16 of its
    /// lower bound — which is where [`MAX_RELATIVE_ERROR`] comes from.
    #[test]
    fn buckets_tile_the_scale_within_the_stated_width() {
        for index in 0..BUCKETS {
            let (low, high) = bucket_range(index);
            assert_eq!((bucket_index(low), bucket_index(high)), (index, index));
            if index + 1 < BUCKETS {
                assert_eq!(bucket_range(index + 1).0, high + 1, "gap after slot {index}");
                let half_width = (high - low) as f64 / 2.0;
                assert!(half_width <= low as f64 * MAX_RELATIVE_ERROR, "slot {index} too wide");
            }
        }
        assert_eq!(bucket_range(BUCKETS - 1), ((1 << 48) - (1 << 43), u64::MAX));
        assert!(std::mem::size_of::<HistogramInner>() <= 6 * 1024);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::detached();
        assert_eq!((h.count(), h.snapshot().p99()), (0, 0.0));
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    /// A cache lookup takes 170–280 ns. Summed in whole microseconds
    /// each one added 0 and, under a first bound of 1 µs, read 0.5 µs.
    #[test]
    fn sub_microsecond_samples_keep_their_sum_and_their_quantiles() {
        let h = Histogram::detached();
        for _ in 0..1000 {
            h.observe_duration(Duration::from_nanos(200));
        }
        let snap = h.snapshot();
        assert!((snap.sum() - 2e-4).abs() < 1e-12, "sum {}", snap.sum());
        assert!((snap.p50() - 200e-9).abs() <= 200e-9 * MAX_RELATIVE_ERROR, "p50 {}", snap.p50());
        assert_eq!((snap.min(), snap.max()), (200e-9, 200e-9));
    }

    #[test]
    fn junk_samples_count_as_zero_and_huge_ones_saturate() {
        let h = Histogram::detached();
        for junk in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            h.observe(junk);
        }
        assert_eq!(h.snapshot().buckets, vec![(0, 3)]);
        h.observe(f64::INFINITY);
        h.observe_duration(Duration::MAX);
        assert_eq!(h.snapshot().buckets, vec![(0, 3), (BUCKETS as u16 - 1, 2)]);
    }

    #[test]
    fn render_is_prometheus_text() {
        let reg = MetricsRegistry::new();
        reg.counter("sent_total", &[("transport", "tcp")]).add(7);
        reg.gauge("depth", &[]).set(-2);
        let h = reg.histogram("lat_seconds", &[]);
        h.observe(20e-9);
        h.observe(0.5);
        let text = reg.render();
        assert!(text.contains("# TYPE sent_total counter"), "{text}");
        assert!(text.contains("sent_total{transport=\"tcp\"} 7"), "{text}");
        assert!(text.contains("depth -2"), "{text}");
        assert!(text.contains("# TYPE lat_seconds histogram"), "{text}");
        // One line per non-empty slot: 20 ns has a slot of its own, and
        // 0.5 s one whose inclusive upper bound is 0.503316479 s.
        assert!(text.contains("lat_seconds_bucket{le=\"0.00000002\"} 1"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"0.503316479\"} 2"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 2"), "{text}");
        assert_eq!(text.matches("lat_seconds_bucket").count(), 3, "{text}");
        assert!(text.contains("lat_seconds_count 2"), "{text}");
    }

    #[test]
    fn rendered_histograms_are_internally_consistent() {
        // For every histogram in the exposition: the cumulative
        // `le="+Inf"` bucket must equal `_count`, and `_sum` must equal
        // the recorded sum.
        let reg = MetricsRegistry::new();
        let coarse = reg.histogram("pipeline_seconds", &[("broker", "b1")]);
        coarse.observe(0.25);
        coarse.observe(3.0);
        coarse.observe(1e6); // beyond the last finite bound → only +Inf counts it
        let fine = reg.histogram("notify_seconds", &[("broker", "b1")]);
        for _ in 0..10 {
            fine.observe(0.000004); // 4µs — sub-notify scale
        }
        let text = reg.render();
        let mut inf: std::collections::BTreeMap<String, f64> = Default::default();
        let mut counts: std::collections::BTreeMap<String, f64> = Default::default();
        let mut sums: std::collections::BTreeMap<String, f64> = Default::default();
        for line in text.lines() {
            let Some((series, value)) = line.rsplit_once(' ') else { continue };
            let value: f64 = match value.parse() {
                Ok(v) => v,
                Err(_) => continue,
            };
            if series.contains("_bucket") && series.contains("le=\"+Inf\"") {
                inf.insert(series.split("_bucket").next().unwrap().to_string(), value);
            } else if let Some(name) =
                series.split("_count").next().filter(|_| series.contains("_count"))
            {
                counts.insert(name.to_string(), value);
            } else if let Some(name) =
                series.split("_sum").next().filter(|_| series.contains("_sum"))
            {
                sums.insert(name.to_string(), value);
            }
        }
        assert_eq!(inf.len(), 2, "two histograms rendered: {text}");
        for (name, inf_count) in &inf {
            assert_eq!(Some(inf_count), counts.get(name), "{name}: +Inf ≠ _count\n{text}");
        }
        assert_eq!(text.matches("pipeline_seconds_bucket").count(), 3, "{text}");
        assert!((sums["pipeline_seconds"] - 1_000_003.25).abs() < 1e-6, "{text}");
        assert!((sums["notify_seconds"] - 0.00004).abs() < 1e-12, "{text}");
    }

    #[test]
    fn snapshot_sexpr_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter("c", &[("a", "x \"quoted\"")]).add(3);
        reg.gauge("g", &[]).set(-9);
        reg.histogram("h", &[("broker", "b1")]).observe(1.0);
        reg.histogram("idle", &[]);
        let snap = reg.snapshot();
        let back = MetricsSnapshot::from_sexpr(&snap.to_sexpr()).expect("parses back");
        assert_eq!(snap, back);
    }

    fn recorded(samples: impl IntoIterator<Item = f64>) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        samples.into_iter().for_each(|x| h.record(x));
        h
    }

    #[test]
    fn percentiles_track_a_skewed_distribution() {
        // 90 fast responses (~2 ms) and 10 slow ones (~2 s).
        let p = recorded((0..100).map(|i| if i < 90 { 0.002 } else { 2.0 }));
        assert_eq!(p.count, 100);
        assert_eq!(p.p50(), 0.002);
        assert!((p.p95() - 2.0).abs() <= 2.0 * MAX_RELATIVE_ERROR, "p95 {}", p.p95());
        assert_eq!(p.p99(), p.p95());
    }

    #[test]
    fn percentile_merge_equals_concatenation() {
        let xs: Vec<f64> = (0..100).map(|i| 0.0001 * (i as f64 + 1.0)).collect();
        let mut a = recorded(xs[..40].iter().copied());
        a.merge(&recorded(xs[40..].iter().copied()));
        assert_eq!(a, recorded(xs));
        // Merging nothing, or into nothing, changes nothing.
        let whole = a.clone();
        a.merge(&HistogramSnapshot::default());
        assert_eq!(a, whole);
        let mut empty = HistogramSnapshot::default();
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn overflow_saturates_the_last_slot_and_reads_the_exact_max() {
        let p = recorded([0.5, 1e7]);
        assert_eq!(p.buckets.last(), Some(&(BUCKETS as u16 - 1, 1)));
        assert_eq!(p.quantile(0.99), 1e7);
    }

    #[test]
    fn quantiles_stay_inside_what_was_recorded() {
        // Every sample sits at 12.5 ms, which no slot's midpoint is: the
        // exact extremes pull every estimate onto it.
        let mut p = recorded(std::iter::repeat(0.0125).take(100));
        assert_eq!((p.p50(), p.p95(), p.p99()), (0.0125, 0.0125, 0.0125));
        // The extremes travel through a merge.
        p.merge(&recorded([0.024]));
        assert_eq!((p.min(), p.p50(), p.max()), (0.0125, 0.0125, 0.024));
        // A window keeps the lifetime extremes and only its own counts.
        let window = p.since(&recorded(std::iter::repeat(0.0125).take(100)));
        assert_eq!((window.count, window.min(), window.max()), (1, 0.0125, 0.024));
        assert!((window.p50() - 0.024).abs() <= 0.024 * MAX_RELATIVE_ERROR);
    }

    #[test]
    fn merged_render_tags_sources() {
        let reg_a = MetricsRegistry::new();
        reg_a.counter("m_total", &[]).add(1);
        let reg_b = MetricsRegistry::new();
        reg_b.counter("m_total", &[]).add(2);
        let mut sources = BTreeMap::new();
        sources.insert("agent-a".to_string(), reg_a.snapshot());
        sources.insert("agent-b".to_string(), reg_b.snapshot());
        let text = render_merged(&sources);
        assert_eq!(text.matches("# TYPE m_total counter").count(), 1, "{text}");
        assert!(text.contains("m_total{agent=\"agent-a\"} 1"), "{text}");
        assert!(text.contains("m_total{agent=\"agent-b\"} 2"), "{text}");
    }
}
