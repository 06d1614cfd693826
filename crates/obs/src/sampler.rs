//! Periodic sampling: snapshot the registry, append to the time-series
//! store, evaluate the health engine.
//!
//! Sampling is driven synchronously one tick at a time ([`sample_once`])
//! by whoever owns the cadence — agent-hosted publishers drive it from
//! their runtime tick, so sampling and alert publication share one
//! deterministic cadence and no thread of their own.

use crate::health::{HealthEngine, HealthEvent, HealthState};
use crate::metrics::MetricsRegistry;
use crate::store::TimeSeriesStore;
use std::time::Duration;

/// Floor for the sampling interval: sampling walks every registered
/// metric under the registry lock, so sub-10ms cadences would contend
/// with the hot paths they observe.
pub const MIN_SAMPLE_INTERVAL: Duration = Duration::from_millis(10);

/// One synchronous sample tick: snapshot → record → evaluate. Returns
/// the store tick, the health transitions, and the rolled-up state.
pub fn sample_once(
    registry: &MetricsRegistry,
    store: &TimeSeriesStore,
    engine: &mut HealthEngine,
    at_millis: u64,
) -> (u64, Vec<HealthEvent>, HealthState) {
    let tick = store.record(at_millis, &registry.snapshot());
    let events = engine.evaluate(store);
    (tick, events, engine.state())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::default_broker_rules;

    #[test]
    fn sample_once_records_and_evaluates() {
        let reg = MetricsRegistry::new();
        reg.gauge("runtime_queue_depth", &[]).set(500);
        let store = TimeSeriesStore::new(8);
        let mut engine = HealthEngine::new(default_broker_rules("b1")).with_hysteresis(1, 1);
        let (tick, events, state) = sample_once(&reg, &store, &mut engine, 0);
        assert_eq!(tick, 1);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rule, "queue-depth");
        assert_eq!(state, HealthState::Degraded);
    }
}
