//! Declarative watermark health engine over the time-series store.
//!
//! A [`HealthRule`] names one watermark — (metric, window, threshold,
//! severity) — and the engine evaluates every rule against a
//! [`TimeSeriesStore`] on each sample tick. Rules breach on *windowed*
//! views (latest gauge reading, counter delta or rate, sliding-window
//! histogram quantile, hit-ratio of paired counters), and transitions
//! are debounced with hysteresis: a rule must breach `fire_after`
//! consecutive ticks to fire and recover `clear_after` consecutive
//! ticks to clear, so a single noisy sample neither pages nor silences.
//! Each transition yields a [`HealthEvent`]; the worst firing severity
//! rolls up into the broker's overall [`HealthState`]. See DESIGN.md §16.

use crate::metrics::Labels;
use crate::store::TimeSeriesStore;

/// How loud a breached rule is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Info,
    Warning,
    Critical,
}

impl Severity {
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// Overall rolled-up state of one observed process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HealthState {
    Healthy,
    Degraded,
    Critical,
}

impl HealthState {
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Critical => "critical",
        }
    }

    /// Parses the `as_str` form back (used by the monitor and top view).
    pub fn parse(s: &str) -> Option<HealthState> {
        match s {
            "healthy" => Some(HealthState::Healthy),
            "degraded" => Some(HealthState::Degraded),
            "critical" => Some(HealthState::Critical),
            _ => None,
        }
    }

    /// Gauge encoding for the scrape: 0 healthy, 1 degraded, 2 critical.
    pub fn as_level(&self) -> i64 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Critical => 2,
        }
    }
}

/// The windowed view a rule watches and the level that breaches it.
#[derive(Clone, Debug, PartialEq)]
pub enum Watermark {
    /// Latest scalar reading above the threshold (queue depth, in-flight).
    GaugeAbove(f64),
    /// Counter growth across the window above the threshold (failures).
    DeltaAbove(f64),
    /// Counter growth rate (events/second) above the threshold.
    RateAbove(f64),
    /// Sliding-window histogram quantile above the threshold (seconds).
    QuantileAbove { q: f64, threshold: f64 },
    /// `this / (this + other)` windowed-delta ratio below the threshold
    /// (cache hit rate). Skipped until the window saw `min_events`
    /// combined events — an idle cache is not an unhealthy cache.
    RatioBelow { other_metric: String, other_labels: Labels, threshold: f64, min_events: f64 },
}

impl Watermark {
    /// The configured breach level (for reporting).
    pub fn threshold(&self) -> f64 {
        match self {
            Watermark::GaugeAbove(t) | Watermark::DeltaAbove(t) | Watermark::RateAbove(t) => *t,
            Watermark::QuantileAbove { threshold, .. } => *threshold,
            Watermark::RatioBelow { threshold, .. } => *threshold,
        }
    }
}

/// One declarative watermark: metric + window + threshold + severity.
///
/// `labels: None` means "any series under this metric name" — the rule
/// evaluates every label set and reports the worst one, so a single rule
/// expresses "queue_depth > 100 on any broker".
#[derive(Clone, Debug, PartialEq)]
pub struct HealthRule {
    /// Stable rule id, unique within an engine (e.g. `queue-depth`).
    pub name: String,
    pub metric: String,
    pub labels: Option<Labels>,
    /// Window in sample ticks the watermark looks back over (min 2 for
    /// delta/rate/quantile views; 1 is fine for `GaugeAbove`).
    pub window: usize,
    pub watermark: Watermark,
    pub severity: Severity,
}

impl HealthRule {
    pub fn new(
        name: &str,
        metric: &str,
        window: usize,
        watermark: Watermark,
        severity: Severity,
    ) -> Self {
        HealthRule {
            name: name.to_string(),
            metric: metric.to_string(),
            labels: None,
            window,
            watermark,
            severity,
        }
    }

    /// Pins the rule to one label set instead of scanning all of them.
    pub fn with_labels(mut self, labels: &[(&str, &str)]) -> Self {
        self.labels = Some(labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect());
        self
    }

    /// The rule's observed value right now, or `None` when the view is
    /// not yet computable (too few points, idle window).
    fn observe(&self, store: &TimeSeriesStore) -> Option<f64> {
        let label_sets: Vec<Labels> = match &self.labels {
            Some(l) => vec![l.clone()],
            None => store.label_sets(&self.metric),
        };
        let mut worst: Option<f64> = None;
        for labels in &label_sets {
            let value = match &self.watermark {
                Watermark::GaugeAbove(_) => store.latest_scalar(&self.metric, labels),
                Watermark::DeltaAbove(_) => store.windowed_delta(&self.metric, labels, self.window),
                Watermark::RateAbove(_) => store.windowed_rate(&self.metric, labels, self.window),
                Watermark::QuantileAbove { q, .. } => {
                    store.windowed_quantile(&self.metric, labels, self.window, *q)
                }
                Watermark::RatioBelow { other_metric, other_labels, min_events, .. } => {
                    let hits = store.windowed_delta(&self.metric, labels, self.window)?;
                    let others = store.windowed_delta(other_metric, other_labels, self.window)?;
                    if hits + others < *min_events {
                        None
                    } else {
                        Some(hits / (hits + others))
                    }
                }
            };
            let Some(value) = value else { continue };
            // "Worst" is the largest for Above watermarks, the smallest
            // for Below ones.
            worst = Some(match (worst, &self.watermark) {
                (None, _) => value,
                (Some(w), Watermark::RatioBelow { .. }) => w.min(value),
                (Some(w), _) => w.max(value),
            });
        }
        worst
    }

    fn breaches(&self, value: f64) -> bool {
        match &self.watermark {
            Watermark::RatioBelow { threshold, .. } => value < *threshold,
            _ => value > self.watermark.threshold(),
        }
    }
}

/// One fire/clear transition of one rule.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthEvent {
    pub rule: String,
    pub metric: String,
    pub severity: Severity,
    /// The observed value at the transition tick.
    pub value: f64,
    pub threshold: f64,
    /// `true` when the rule started firing, `false` when it cleared.
    pub firing: bool,
    /// Store tick the transition was observed on.
    pub tick: u64,
}

#[derive(Clone, Debug, Default)]
struct RuleState {
    breach_streak: u32,
    clear_streak: u32,
    firing: bool,
    last_value: Option<f64>,
}

/// Evaluates a rule set against a store with fire/clear hysteresis.
pub struct HealthEngine {
    rules: Vec<HealthRule>,
    states: Vec<RuleState>,
    fire_after: u32,
    clear_after: u32,
}

impl HealthEngine {
    /// An engine with the default hysteresis: fire after 2 consecutive
    /// breaching ticks, clear after 2 consecutive clean ones.
    pub fn new(rules: Vec<HealthRule>) -> Self {
        let states = vec![RuleState::default(); rules.len()];
        HealthEngine { rules, states, fire_after: 2, clear_after: 2 }
    }

    /// Overrides the hysteresis counts (both clamped to at least 1).
    pub fn with_hysteresis(mut self, fire_after: u32, clear_after: u32) -> Self {
        self.fire_after = fire_after.max(1);
        self.clear_after = clear_after.max(1);
        self
    }

    pub fn rules(&self) -> &[HealthRule] {
        &self.rules
    }

    /// Evaluates every rule against the store's current window and
    /// returns the transitions (newly fired or cleared rules) this tick.
    pub fn evaluate(&mut self, store: &TimeSeriesStore) -> Vec<HealthEvent> {
        let tick = store.ticks();
        let mut events = Vec::new();
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            let value = rule.observe(store);
            state.last_value = value;
            let breaching = value.is_some_and(|v| rule.breaches(v));
            if breaching {
                state.breach_streak += 1;
                state.clear_streak = 0;
            } else {
                state.clear_streak += 1;
                state.breach_streak = 0;
            }
            let transition = if !state.firing && state.breach_streak >= self.fire_after {
                state.firing = true;
                true
            } else if state.firing && state.clear_streak >= self.clear_after {
                state.firing = false;
                true
            } else {
                false
            };
            if transition {
                events.push(HealthEvent {
                    rule: rule.name.clone(),
                    metric: rule.metric.clone(),
                    severity: rule.severity,
                    value: value.unwrap_or(0.0),
                    threshold: rule.watermark.threshold(),
                    firing: state.firing,
                    tick,
                });
            }
        }
        events
    }

    /// The rolled-up state: `Critical` if any critical rule fires,
    /// `Degraded` if anything else fires, else `Healthy`.
    pub fn state(&self) -> HealthState {
        let mut state = HealthState::Healthy;
        for (rule, rs) in self.rules.iter().zip(self.states.iter()) {
            if !rs.firing {
                continue;
            }
            state = state.max(match rule.severity {
                Severity::Critical => HealthState::Critical,
                _ => HealthState::Degraded,
            });
        }
        state
    }

    /// The last observed value of a rule (for the fact publisher).
    pub fn last_value(&self, rule_name: &str) -> Option<f64> {
        self.rules.iter().position(|r| r.name == rule_name).and_then(|i| self.states[i].last_value)
    }
}

/// The stock watermark set for one broker process, over the runtime and
/// broker metrics every deployment already emits:
///
/// | rule | metric | watermark | severity |
/// |---|---|---|---|
/// | `queue-depth` | `runtime_queue_depth` | gauge > 100 | warning |
/// | `inflight` | `runtime_inflight` | gauge > 64 | warning |
/// | `delivery-failures` | `agent_delivery_failures_total` (any agent) | any growth in window | critical |
/// | `sub-notify-p99` | `broker_sub_notify_seconds{broker}` | windowed p99 > 50 ms | warning |
/// | `cache-hit-rate` | `broker_match_cache_total{broker,event}` | hit ratio < 0.5 (min 16 events) | info |
pub fn default_broker_rules(broker: &str) -> Vec<HealthRule> {
    vec![
        HealthRule::new(
            "queue-depth",
            "runtime_queue_depth",
            1,
            Watermark::GaugeAbove(100.0),
            Severity::Warning,
        ),
        HealthRule::new(
            "inflight",
            "runtime_inflight",
            1,
            Watermark::GaugeAbove(64.0),
            Severity::Warning,
        ),
        HealthRule::new(
            "delivery-failures",
            "agent_delivery_failures_total",
            4,
            Watermark::DeltaAbove(0.0),
            Severity::Critical,
        ),
        HealthRule::new(
            "sub-notify-p99",
            "broker_sub_notify_seconds",
            8,
            Watermark::QuantileAbove { q: 0.99, threshold: 0.05 },
            Severity::Warning,
        )
        .with_labels(&[("broker", broker)]),
        HealthRule {
            name: "cache-hit-rate".to_string(),
            metric: "broker_match_cache_total".to_string(),
            labels: Some(vec![
                ("broker".to_string(), broker.to_string()),
                ("event".to_string(), "hit".to_string()),
            ]),
            window: 8,
            watermark: Watermark::RatioBelow {
                other_metric: "broker_match_cache_total".to_string(),
                other_labels: vec![
                    ("broker".to_string(), broker.to_string()),
                    ("event".to_string(), "miss".to_string()),
                ],
                threshold: 0.5,
                min_events: 16.0,
            },
            severity: Severity::Info,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn gauge_rule(threshold: f64) -> HealthRule {
        HealthRule::new(
            "queue-depth",
            "runtime_queue_depth",
            1,
            Watermark::GaugeAbove(threshold),
            Severity::Warning,
        )
    }

    #[test]
    fn hysteresis_debounces_fire_and_clear() {
        let reg = MetricsRegistry::new();
        let depth = reg.gauge("runtime_queue_depth", &[]);
        let store = TimeSeriesStore::new(16);
        let mut engine = HealthEngine::new(vec![gauge_rule(100.0)]).with_hysteresis(2, 2);

        // One breaching tick: streak too short, nothing fires.
        depth.set(500);
        store.record(0, &reg.snapshot());
        assert!(engine.evaluate(&store).is_empty());
        assert_eq!(engine.state(), HealthState::Healthy);

        // Second consecutive breach: the rule fires.
        store.record(100, &reg.snapshot());
        let events = engine.evaluate(&store);
        assert_eq!(events.len(), 1);
        assert!(events[0].firing);
        assert_eq!(events[0].rule, "queue-depth");
        assert_eq!(events[0].value, 500.0);
        assert_eq!(engine.state(), HealthState::Degraded);

        // Recovery: first clean tick holds the alert, second clears it.
        depth.set(3);
        store.record(200, &reg.snapshot());
        assert!(engine.evaluate(&store).is_empty());
        assert_eq!(engine.state(), HealthState::Degraded, "still firing mid-hysteresis");
        store.record(300, &reg.snapshot());
        let events = engine.evaluate(&store);
        assert_eq!(events.len(), 1);
        assert!(!events[0].firing);
        assert_eq!(engine.state(), HealthState::Healthy);
    }

    #[test]
    fn flapping_sample_never_fires() {
        let reg = MetricsRegistry::new();
        let depth = reg.gauge("runtime_queue_depth", &[]);
        let store = TimeSeriesStore::new(16);
        let mut engine = HealthEngine::new(vec![gauge_rule(100.0)]).with_hysteresis(2, 2);
        for i in 0..10u64 {
            depth.set(if i % 2 == 0 { 500 } else { 1 });
            store.record(i * 100, &reg.snapshot());
            assert!(engine.evaluate(&store).is_empty(), "flapping must not page");
        }
        assert_eq!(engine.state(), HealthState::Healthy);
    }

    #[test]
    fn delta_rule_matches_any_label_set_and_critical_wins() {
        let reg = MetricsRegistry::new();
        let store = TimeSeriesStore::new(16);
        let rules = default_broker_rules("b1");
        let mut engine = HealthEngine::new(rules).with_hysteresis(1, 1);
        reg.counter("agent_delivery_failures_total", &[("agent", "x")]);
        store.record(0, &reg.snapshot());
        assert!(engine.evaluate(&store).is_empty());
        // A failure on *any* agent label breaches the unpinned rule.
        reg.counter("agent_delivery_failures_total", &[("agent", "x")]).add(1);
        store.record(100, &reg.snapshot());
        let events = engine.evaluate(&store);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rule, "delivery-failures");
        assert_eq!(events[0].severity, Severity::Critical);
        assert_eq!(engine.state(), HealthState::Critical);
        assert_eq!(engine.last_value("delivery-failures"), Some(1.0));
    }

    #[test]
    fn ratio_rule_skips_idle_windows_then_flags_low_hit_rate() {
        let reg = MetricsRegistry::new();
        let hits = reg.counter("broker_match_cache_total", &[("broker", "b1"), ("event", "hit")]);
        let misses =
            reg.counter("broker_match_cache_total", &[("broker", "b1"), ("event", "miss")]);
        let store = TimeSeriesStore::new(16);
        let rules: Vec<HealthRule> =
            default_broker_rules("b1").into_iter().filter(|r| r.name == "cache-hit-rate").collect();
        let mut engine = HealthEngine::new(rules).with_hysteresis(1, 1);
        // Below min_events: 2 misses total must not page.
        store.record(0, &reg.snapshot());
        misses.add(2);
        store.record(100, &reg.snapshot());
        assert!(engine.evaluate(&store).is_empty(), "idle cache is not unhealthy");
        // A real miss storm (40 misses vs 10 hits = 20% hit rate) fires.
        hits.add(10);
        misses.add(40);
        store.record(200, &reg.snapshot());
        let events = engine.evaluate(&store);
        assert_eq!(events.len(), 1, "{events:?}");
        assert!(events[0].firing);
        assert!(events[0].value < 0.5, "hit rate {}", events[0].value);
    }

    #[test]
    fn quantile_rule_reads_the_window_within_the_stated_error() {
        let reg = MetricsRegistry::new();
        let notify = reg.histogram("broker_sub_notify_seconds", &[("broker", "b1")]);
        let store = TimeSeriesStore::new(16);
        let rules: Vec<HealthRule> =
            default_broker_rules("b1").into_iter().filter(|r| r.name == "sub-notify-p99").collect();
        let mut engine = HealthEngine::new(rules).with_hysteresis(1, 1);
        // 4 µs fan-outs: far under the 50 ms watermark.
        (0..5000).for_each(|_| notify.observe(4e-6));
        store.record(0, &reg.snapshot());
        (0..1000).for_each(|_| notify.observe(4e-6));
        store.record(100, &reg.snapshot());
        assert!(engine.evaluate(&store).is_empty());
        // Forty 80 ms stalls: 0.6 % of the lifetime, 2 % of the window.
        (0..960).for_each(|_| notify.observe(4e-6));
        (0..40).for_each(|_| notify.observe(0.08));
        store.record(200, &reg.snapshot());
        assert!(notify.snapshot().p99() < 5e-6, "the lifetime p99 does not show them");
        let events = engine.evaluate(&store);
        assert_eq!(events.len(), 1, "{events:?}");
        assert!(events[0].firing);
        let error = (events[0].value - 0.08).abs();
        assert!(error <= 0.08 * crate::MAX_RELATIVE_ERROR, "p99 {}", events[0].value);
    }

    #[test]
    fn state_strings_round_trip() {
        for state in [HealthState::Healthy, HealthState::Degraded, HealthState::Critical] {
            assert_eq!(HealthState::parse(state.as_str()), Some(state));
        }
        assert_eq!(HealthState::parse("meh"), None);
        assert!(Severity::Info < Severity::Warning && Severity::Warning < Severity::Critical);
        assert_eq!(HealthState::Critical.as_level(), 2);
    }
}
