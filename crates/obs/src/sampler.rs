//! Periodic sampling: snapshot the registry, append to the time-series
//! store, evaluate the health engine, hand the tick to a callback.
//!
//! The sampler can run as a background thread ([`Sampler::spawn`]) with
//! a configurable interval (`INFOSLEUTH_OBS_SAMPLE_MS` overrides the
//! programmed default, clamped to ≥ 10 ms), or be driven synchronously
//! one tick at a time ([`sample_once`]) — agent-hosted publishers drive
//! it from their runtime tick so sampling and alert publication share a
//! deterministic cadence.

use crate::health::{HealthEngine, HealthEvent, HealthState};
use crate::metrics::MetricsRegistry;
use crate::store::TimeSeriesStore;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Environment variable overriding the sampling interval, in milliseconds.
pub const OBS_SAMPLE_MS_ENV: &str = "INFOSLEUTH_OBS_SAMPLE_MS";

/// Floor for the sampling interval: sampling walks every registered
/// metric under the registry lock, so sub-10ms cadences would contend
/// with the hot paths they observe.
pub const MIN_SAMPLE_INTERVAL: Duration = Duration::from_millis(10);

/// Resolves the sampling interval from an optional env override and a
/// programmed default. A parseable override (milliseconds) wins; both
/// paths clamp to [`MIN_SAMPLE_INTERVAL`]. Pure so tests cover the
/// policy without mutating process state.
pub fn configured_sample_interval(env_value: Option<&str>, default: Duration) -> Duration {
    let chosen = env_value
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(default);
    chosen.max(MIN_SAMPLE_INTERVAL)
}

/// [`configured_sample_interval`] against the live process environment.
pub fn sample_interval_from_env(default: Duration) -> Duration {
    configured_sample_interval(std::env::var(OBS_SAMPLE_MS_ENV).ok().as_deref(), default)
}

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

/// A sample tick as seen by the [`Sampler`] callback.
pub struct SampleTick<'a> {
    pub tick: u64,
    /// Milliseconds since the sampler started.
    pub at_millis: u64,
    /// Transitions (fired/cleared rules) this tick — empty most ticks.
    pub events: Vec<HealthEvent>,
    pub state: HealthState,
    pub store: &'a TimeSeriesStore,
}

/// Background sampler thread over one registry/store/engine triple.
pub struct Sampler;

impl Sampler {
    /// Spawns the sampling thread. `on_tick` runs on the sampler thread
    /// after every tick; keep it short (publishers hand off to an agent
    /// runtime). Stop promptly via [`SamplerHandle::stop`].
    pub fn spawn<F>(
        registry: MetricsRegistry,
        store: Arc<TimeSeriesStore>,
        mut engine: HealthEngine,
        interval: Duration,
        on_tick: F,
    ) -> SamplerHandle
    where
        F: FnMut(&SampleTick<'_>) + Send + 'static,
    {
        let interval = interval.max(MIN_SAMPLE_INTERVAL);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let state = Arc::new(AtomicU8::new(HealthState::Healthy.as_level() as u8));
        let thread = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let state_cell = Arc::clone(&state);
            let mut on_tick = on_tick;
            std::thread::Builder::new()
                .name("obs-sampler".to_string())
                .spawn(move || {
                    let started = Instant::now();
                    loop {
                        {
                            let (lock, cvar) = &*stop;
                            let mut stopped = lock.lock().expect("sampler stop lock"); // lint: allow-unwrap — lock poisoning only follows a panicked sampler tick
                            if !*stopped {
                                stopped = cvar
                                    .wait_timeout(stopped, interval)
                                    .expect("sampler stop lock") // lint: allow-unwrap — same poisoning argument
                                    .0;
                            }
                            if *stopped {
                                return;
                            }
                        }
                        let at_millis = started.elapsed().as_millis() as u64;
                        let (tick, events, health) =
                            sample_once(&registry, &store, &mut engine, at_millis);
                        state_cell.store(health.as_level() as u8, Ordering::Relaxed);
                        on_tick(&SampleTick {
                            tick,
                            at_millis,
                            events,
                            state: health,
                            store: &store,
                        });
                    }
                })
                .expect("spawn obs-sampler thread") // lint: allow-unwrap — thread spawn failure is unrecoverable at startup
        };
        SamplerHandle { stop, state, store, thread: Some(thread) }
    }
}

/// Owner handle for a running sampler thread.
pub struct SamplerHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    state: Arc<AtomicU8>,
    store: Arc<TimeSeriesStore>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SamplerHandle {
    /// The store the sampler records into.
    pub fn store(&self) -> &Arc<TimeSeriesStore> {
        &self.store
    }

    /// The rolled-up health state as of the last completed tick.
    pub fn state(&self) -> HealthState {
        match self.state.load(Ordering::Relaxed) {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            _ => HealthState::Critical,
        }
    }

    /// Ticks completed so far.
    pub fn ticks(&self) -> u64 {
        self.store.ticks()
    }

    /// Signals the thread and joins it; pending sleep is interrupted.
    pub fn stop(mut self) {
        self.signal_stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    fn signal_stop(&self) {
        let (lock, cvar) = &*self.stop;
        if let Ok(mut stopped) = lock.lock() {
            *stopped = true;
        }
        cvar.notify_all();
    }
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.signal_stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{default_broker_rules, HealthRule, Severity, Watermark};
    use std::sync::mpsc;

    #[test]
    fn configured_interval_override_wins_and_clamps() {
        let default = Duration::from_millis(250);
        // Parseable override wins.
        assert_eq!(configured_sample_interval(Some("40"), default), Duration::from_millis(40));
        assert_eq!(configured_sample_interval(Some(" 100 "), default), Duration::from_millis(100));
        // Override below the floor clamps to 10 ms.
        assert_eq!(configured_sample_interval(Some("1"), default), MIN_SAMPLE_INTERVAL);
        assert_eq!(configured_sample_interval(Some("0"), default), MIN_SAMPLE_INTERVAL);
        // Unset / empty / garbage falls back to the default.
        assert_eq!(configured_sample_interval(None, default), default);
        assert_eq!(configured_sample_interval(Some(""), default), default);
        assert_eq!(configured_sample_interval(Some("fast"), default), default);
        assert_eq!(configured_sample_interval(Some("-5"), default), default);
        // A silly default is clamped too.
        assert_eq!(configured_sample_interval(None, Duration::from_millis(1)), MIN_SAMPLE_INTERVAL);
    }

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

    #[test]
    fn sampler_thread_ticks_and_stops() {
        let reg = MetricsRegistry::new();
        reg.gauge("runtime_queue_depth", &[]).set(999);
        let store = Arc::new(TimeSeriesStore::new(64));
        let rule = HealthRule::new(
            "queue-depth",
            "runtime_queue_depth",
            1,
            Watermark::GaugeAbove(100.0),
            Severity::Warning,
        );
        let engine = HealthEngine::new(vec![rule]).with_hysteresis(1, 1);
        let (tx, rx) = mpsc::channel();
        let handle = Sampler::spawn(
            reg,
            Arc::clone(&store),
            engine,
            Duration::from_millis(10),
            move |tick| {
                let _ = tx.send((tick.tick, tick.state, tick.events.len()));
            },
        );
        // First tick fires the rule (hysteresis 1).
        let (tick, state, events) =
            rx.recv_timeout(Duration::from_secs(5)).expect("first sample tick");
        assert_eq!(tick, 1);
        assert_eq!(state, HealthState::Degraded);
        assert_eq!(events, 1);
        // Subsequent ticks keep arriving with no new transitions.
        let (_, _, events) = rx.recv_timeout(Duration::from_secs(5)).expect("second tick");
        assert_eq!(events, 0);
        assert_eq!(handle.state(), HealthState::Degraded);
        assert!(handle.ticks() >= 2);
        assert!(handle.store().ticks() >= 2);
        handle.stop();
    }
}
