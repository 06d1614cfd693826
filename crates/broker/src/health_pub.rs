//! Broker health published through the broker itself.
//!
//! A [`HealthPublisher`] is an ordinary hosted agent that dogfoods the
//! observability plane through the brokering machinery (DESIGN.md §16):
//! on every sample tick it snapshots its runtime's metrics registry
//! into a ring-buffer [`TimeSeriesStore`], evaluates the watermark
//! [`HealthEngine`], and then
//!
//! 1. **advertises** the readings as a `broker_health` fact in the
//!    `infosleuth-obs` ontology into its own broker's repository (an
//!    `advertise` KQML message, re-sent each tick with fresh point
//!    constraints), so standing subscriptions with threshold queries —
//!    "queue_depth > 100 on any broker" — get `sub-delta` tells from
//!    the indexed notification path like any domain subscription;
//! 2. **advertises/unadvertises** a `health_alert` fact per watermark
//!    rule as it fires/clears, so severity-filtered subscriptions see
//!    alert deltas exactly at the hysteresis transitions;
//! 3. **tells** the monitor agent the rolled-up state and transitions
//!    (`(health-state …)` over the log ontology) for the fleet view;
//! 4. mirrors the state into `broker_health_level{broker}` /
//!    `broker_health_alerts_total{broker,severity}` so the merged
//!    Prometheus scrape carries per-broker health labels.
//!
//! Every tick opens a `health:tick` root span before sending, so the
//! advertise goes beside its context and the broker's `recv:advertise`
//! span — and the alert `tell`s its notification fan-out sends — parent
//! on the sampler tick: the trace connects sampler tick → alert delivery.
//!
//! The target broker's repository must have
//! [`infosleuth_ontology::obs_ontology`] registered, or the
//! advertisements are rejected at admission (IS021 unknown class).

use crate::codec;
use infosleuth_agent::{
    AgentBehavior, AgentContext, AgentHandle, AgentRuntime, Envelope, TransportError, LOG_ONTOLOGY,
};
use infosleuth_constraint::{Conjunction, Predicate};
use infosleuth_kqml::{Message, Performative, SExpr};
use infosleuth_obs::sync::lock;
use infosleuth_obs::{
    sample_once, Gauge, HealthEngine, HealthEvent, HealthState, Obs, Severity, TimeSeriesStore,
    MIN_SAMPLE_INTERVAL,
};
use infosleuth_ontology::{
    Advertisement, AgentLocation, AgentType, Capability, ConversationType, OntologyContent,
    SemanticInfo, SyntacticInfo,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Name of the observability ontology ([`infosleuth_ontology::obs_ontology`]).
pub const OBS_ONTOLOGY_NAME: &str = "infosleuth-obs";

/// Head atom of the health-state tell the publisher sends its monitor:
/// `(health-state <broker> <state> <tick> (event <rule> <severity>
/// <firing 0|1> <value> <threshold>)…)`.
pub const HEALTH_STATE_HEAD: &str = "health-state";

/// Configuration for [`spawn_health_publisher`].
#[derive(Clone, Debug)]
pub struct HealthPublisherConfig {
    /// The broker agent whose repository receives the obs facts (and
    /// whose name labels them).
    pub broker: String,
    /// Monitor agent for `(health-state …)` tells; `None` skips them.
    pub monitor: Option<String>,
    /// Sampling cadence (clamped ≥ 10 ms at spawn).
    pub interval: Duration,
    /// Points retained per metric series.
    pub store_capacity: usize,
}

impl HealthPublisherConfig {
    pub fn new(broker: impl Into<String>) -> Self {
        HealthPublisherConfig {
            broker: broker.into(),
            monitor: None,
            interval: Duration::from_millis(250),
            store_capacity: 256,
        }
    }

    pub fn with_monitor(mut self, monitor: impl Into<String>) -> Self {
        self.monitor = Some(monitor.into());
        self
    }

    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }
}

/// The agent behavior publishing one broker's health (see module docs).
pub struct HealthPublisher {
    /// This publisher's agent name (`health.<broker>`).
    name: String,
    config: HealthPublisherConfig,
    interval: Duration,
    obs: Arc<Obs>,
    store: Arc<TimeSeriesStore>,
    engine: Mutex<HealthEngine>,
    started: Instant,
    level: Gauge,
}

impl HealthPublisher {
    /// One full sample-and-publish tick. Public via the handle so tests
    /// and examples drive deterministic ticks instead of waiting out
    /// the interval.
    fn publish(&self, ctx: &AgentContext) {
        // Root span: the advertise (and everything the broker's
        // notification fan-out sends downstream) parents on this tick.
        let span = self.obs.tracer().agent_span("health:tick", &self.name, None);
        let at_millis = self.started.elapsed().as_millis() as u64;
        let (tick, events, state) = {
            let mut engine = lock(&self.engine);
            sample_once(self.obs.registry(), &self.store, &mut engine, at_millis)
        };
        self.level.set(state.as_level());
        for event in &events {
            self.obs
                .registry()
                .counter(
                    "broker_health_alerts_total",
                    &[("broker", &self.config.broker), ("severity", event.severity.as_str())],
                )
                .inc();
        }

        // The broker_health fact, re-advertised with fresh readings.
        let ad = self.health_fact(tick, state);
        let msg = Message::new(Performative::Advertise)
            .with_ontology("infosleuth-service")
            .with_content(codec::advertisement_to_sexpr(&ad));
        let _ = ctx.send(&self.config.broker, msg);

        // One health_alert fact per transition: advertised on fire,
        // withdrawn on clear — subscriptions see a delta either way.
        for event in &events {
            if event.firing {
                let alert = self.alert_fact(event);
                let msg = Message::new(Performative::Advertise)
                    .with_ontology("infosleuth-service")
                    .with_content(codec::advertisement_to_sexpr(&alert));
                let _ = ctx.send(&self.config.broker, msg);
            } else {
                let msg = Message::new(Performative::Unadvertise)
                    .with_ontology("infosleuth-service")
                    .with_content(SExpr::atom(self.alert_name(&event.rule)));
                let _ = ctx.send(&self.config.broker, msg);
            }
        }

        if let Some(monitor) = &self.config.monitor {
            let msg = Message::new(Performative::Tell)
                .with_ontology(LOG_ONTOLOGY)
                .with_content(health_state_to_sexpr(&self.config.broker, state, tick, &events));
            let _ = ctx.send(monitor, msg);
        }
        drop(span);
    }

    /// Latest reading of a stock rule, scaled and defaulted for the
    /// integer slots of the obs ontology.
    fn reading(&self, rule: &str, scale: f64, default: i64) -> i64 {
        lock(&self.engine).last_value(rule).map(|v| (v * scale).round() as i64).unwrap_or(default)
    }

    fn health_fact(&self, tick: u64, state: HealthState) -> Advertisement {
        let broker = &self.config.broker;
        let queue_depth = self.reading("queue-depth", 1.0, 0);
        let inflight = self.reading("inflight", 1.0, 0);
        let failures = self.reading("delivery-failures", 1.0, 0);
        let notify_ms = self.reading("sub-notify-p99", 1e3, 0);
        // An idle cache reports a perfect hit rate rather than zero.
        let hit_pct = self.reading("cache-hit-rate", 100.0, 100);
        let slot = |s: &str| format!("broker_health.{s}");
        Advertisement::new(AgentLocation::new(
            self.name.clone(),
            format!("tcp://{broker}.obs.internal:1"),
            AgentType::Monitor,
        ))
        .with_syntactic(SyntacticInfo::new(["KQML"], ["KQML"]))
        .with_semantic(
            SemanticInfo::default()
                .with_conversations([ConversationType::Subscribe, ConversationType::Update])
                .with_capabilities([Capability::new("monitoring")])
                .with_content(
                    OntologyContent::new(OBS_ONTOLOGY_NAME)
                        .with_classes(["broker_health"])
                        .with_constraints(Conjunction::from_predicates(vec![
                            Predicate::eq(slot("broker"), broker.as_str()),
                            Predicate::eq(slot("state"), state.as_str()),
                            Predicate::eq(slot("state_level"), state.as_level()),
                            Predicate::eq(slot("tick"), tick as i64),
                            Predicate::eq(slot("queue_depth"), queue_depth),
                            Predicate::eq(slot("inflight"), inflight),
                            Predicate::eq(slot("delivery_failures"), failures),
                            Predicate::eq(slot("sub_notify_p99_ms"), notify_ms),
                            Predicate::eq(slot("cache_hit_pct"), hit_pct),
                        ])),
                ),
        )
    }

    fn alert_name(&self, rule: &str) -> String {
        format!("alert.{}.{rule}", self.config.broker)
    }

    fn alert_fact(&self, event: &HealthEvent) -> Advertisement {
        let broker = &self.config.broker;
        let slot = |s: &str| format!("health_alert.{s}");
        Advertisement::new(AgentLocation::new(
            self.alert_name(&event.rule),
            format!("tcp://{broker}.obs.internal:1"),
            AgentType::Monitor,
        ))
        .with_syntactic(SyntacticInfo::new(["KQML"], ["KQML"]))
        .with_semantic(
            SemanticInfo::default()
                .with_conversations([ConversationType::Subscribe])
                .with_capabilities([Capability::new("notification")])
                .with_content(
                    OntologyContent::new(OBS_ONTOLOGY_NAME)
                        .with_classes(["health_alert"])
                        .with_constraints(Conjunction::from_predicates(vec![
                            Predicate::eq(slot("broker"), broker.as_str()),
                            Predicate::eq(slot("rule"), event.rule.as_str()),
                            Predicate::eq(slot("severity"), event.severity.as_str()),
                            Predicate::eq(slot("firing"), 1i64),
                            Predicate::eq(slot("tick"), event.tick as i64),
                        ])),
                ),
        )
    }
}

impl AgentBehavior for HealthPublisher {
    fn on_message(&self, _ctx: &AgentContext, _env: Envelope) {
        // Acks from the broker (tell/sorry) need no handling.
    }

    fn tick_interval(&self) -> Option<Duration> {
        Some(self.interval)
    }

    fn on_tick(&self, ctx: &AgentContext) {
        self.publish(ctx);
    }
}

/// Handle to a spawned [`HealthPublisher`].
pub struct HealthPublisherHandle {
    handle: AgentHandle,
    publisher: Arc<HealthPublisher>,
}

impl HealthPublisherHandle {
    /// Runs one sample-and-publish tick right now (in addition to the
    /// periodic ones) — deterministic cadence for tests and examples.
    pub fn publish(&self) {
        self.publisher.publish(self.handle.ctx());
    }

    /// The rolled-up health state after the last tick.
    pub fn state(&self) -> HealthState {
        lock(&self.publisher.engine).state()
    }

    /// The ring-buffer history the publisher samples into.
    pub fn store(&self) -> &Arc<TimeSeriesStore> {
        &self.publisher.store
    }

    /// This publisher's agent name (`health.<broker>`).
    pub fn name(&self) -> &str {
        &self.publisher.name
    }

    pub fn stop(&self) {
        self.handle.stop();
    }

    pub fn handle(&self) -> &AgentHandle {
        &self.handle
    }
}

/// Spawns a [`HealthPublisher`] named `health.<broker>` on `runtime`,
/// sampling with the stock broker watermark rules
/// ([`infosleuth_obs::default_broker_rules`]).
pub fn spawn_health_publisher(
    runtime: &AgentRuntime,
    config: HealthPublisherConfig,
) -> Result<HealthPublisherHandle, TransportError> {
    let engine = HealthEngine::new(infosleuth_obs::default_broker_rules(&config.broker));
    spawn_health_publisher_with(runtime, config, engine)
}

/// [`spawn_health_publisher`] with a caller-built rule engine.
pub fn spawn_health_publisher_with(
    runtime: &AgentRuntime,
    config: HealthPublisherConfig,
    engine: HealthEngine,
) -> Result<HealthPublisherHandle, TransportError> {
    let name = format!("health.{}", config.broker);
    let obs = Arc::clone(runtime.obs());
    let level = obs.registry().gauge("broker_health_level", &[("broker", &config.broker)]);
    let interval = config.interval.max(MIN_SAMPLE_INTERVAL);
    let publisher = Arc::new(HealthPublisher {
        name: name.clone(),
        store: Arc::new(TimeSeriesStore::new(config.store_capacity)),
        engine: Mutex::new(engine),
        started: Instant::now(),
        level,
        interval,
        config,
        obs,
    });
    let handle = runtime.spawn(name, Arc::clone(&publisher) as Arc<dyn AgentBehavior>)?;
    Ok(HealthPublisherHandle { handle, publisher })
}

/// Encodes one tick's health report for the monitor.
pub fn health_state_to_sexpr(
    broker: &str,
    state: HealthState,
    tick: u64,
    events: &[HealthEvent],
) -> SExpr {
    let mut items = vec![
        SExpr::atom(HEALTH_STATE_HEAD),
        SExpr::atom(broker),
        SExpr::atom(state.as_str()),
        SExpr::atom(tick.to_string()),
    ];
    for e in events {
        items.push(SExpr::list(vec![
            SExpr::atom("event"),
            SExpr::atom(&e.rule),
            SExpr::atom(e.severity.as_str()),
            SExpr::atom(if e.firing { "1" } else { "0" }),
            SExpr::atom(format!("{}", e.value)),
            SExpr::atom(format!("{}", e.threshold)),
        ]));
    }
    SExpr::list(items)
}

/// Decodes `(health-state …)`; the inverse of [`health_state_to_sexpr`].
/// Returns `(broker, state, tick, events)`.
pub fn health_state_from_sexpr(
    sexpr: &SExpr,
) -> Option<(String, HealthState, u64, Vec<HealthEvent>)> {
    let items = sexpr.as_list()?;
    if items.first()?.as_atom()? != HEALTH_STATE_HEAD || items.len() < 4 {
        return None;
    }
    let broker = items[1].as_text()?.to_string();
    let state = HealthState::parse(items[2].as_atom()?)?;
    let tick: u64 = items[3].as_atom()?.parse().ok()?;
    let mut events = Vec::new();
    for item in &items[4..] {
        let parts = item.as_list()?;
        if parts.len() != 6 || parts[0].as_atom()? != "event" {
            return None;
        }
        let severity = match parts[2].as_atom()? {
            "info" => Severity::Info,
            "warning" => Severity::Warning,
            "critical" => Severity::Critical,
            _ => return None,
        };
        events.push(HealthEvent {
            rule: parts[1].as_text()?.to_string(),
            metric: String::new(),
            severity,
            firing: parts[3].as_atom()? == "1",
            value: parts[4].as_atom()?.parse().ok()?,
            threshold: parts[5].as_atom()?.parse().ok()?,
            tick,
        });
    }
    Some((broker, state, tick, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker_agent::{subscribe_to, BrokerAgent, BrokerConfig};
    use crate::repository::Repository;
    use infosleuth_agent::{Bus, RuntimeConfig};
    use infosleuth_obs::{HealthRule, Watermark};
    use infosleuth_ontology::{obs_ontology, ServiceQuery};

    fn obs_repo() -> Repository {
        let mut repo = Repository::new();
        repo.register_ontology(obs_ontology());
        repo
    }

    #[test]
    fn health_state_sexpr_round_trips() {
        let events = vec![HealthEvent {
            rule: "queue-depth".into(),
            metric: String::new(),
            severity: Severity::Warning,
            value: 512.0,
            threshold: 100.0,
            firing: true,
            tick: 7,
        }];
        let enc = health_state_to_sexpr("broker-1", HealthState::Degraded, 7, &events);
        let (broker, state, tick, dec) = health_state_from_sexpr(&enc).expect("decodes");
        assert_eq!(broker, "broker-1");
        assert_eq!(state, HealthState::Degraded);
        assert_eq!(tick, 7);
        assert_eq!(dec, events);
        assert_eq!(health_state_from_sexpr(&SExpr::atom("nope")), None);
    }

    #[test]
    fn publisher_facts_reach_subscribers_through_the_broker() {
        let bus = Bus::new();
        let rt = infosleuth_agent::AgentRuntime::new(
            bus.as_transport(),
            RuntimeConfig::default().with_workers(4),
        );
        let broker = BrokerAgent::spawn_on(
            &rt,
            BrokerConfig::new("broker-1", "tcp://localhost:6000"),
            obs_repo(),
        )
        .expect("broker spawns");
        // Distinct requester and subscriber endpoints: the ack goes to
        // the requester, the snapshot + deltas to the subscriber.
        let mut client = bus.register("client").expect("fresh name");
        let mut watcher = bus.register("watcher").expect("fresh name");
        let mut monitor = bus.register("monitor-sink").expect("fresh name");

        // A standing threshold subscription: queue_depth > 100 anywhere.
        let q = ServiceQuery::for_agent_type(AgentType::Monitor)
            .with_ontology(OBS_ONTOLOGY_NAME)
            .with_classes(["broker_health"])
            .with_constraints(Conjunction::from_predicates(vec![Predicate::gt(
                "broker_health.queue_depth",
                100,
            )]));
        let sub_key = subscribe_to(&mut client, "broker-1", &q, "watcher", TIMEOUT)
            .expect("subscribe round-trips")
            .expect("subscription admitted");

        // The publisher, driven manually: a rule over a gauge we control.
        let depth = rt.obs().registry().gauge("runtime_queue_depth", &[]);
        let engine = HealthEngine::new(vec![HealthRule::new(
            "queue-depth",
            "runtime_queue_depth",
            1,
            Watermark::GaugeAbove(100.0),
            infosleuth_obs::Severity::Warning,
        )])
        .with_hysteresis(1, 1);
        let publisher = spawn_health_publisher_with(
            &rt,
            HealthPublisherConfig::new("broker-1")
                .with_monitor("monitor-sink")
                .with_interval(Duration::from_secs(3600)),
            engine,
        )
        .expect("publisher spawns");

        // Healthy tick: queue_depth 3 does not overlap `> 100` — the
        // subscription sees no delta beyond its initial empty snapshot.
        depth.set(3);
        publisher.publish();
        assert_eq!(publisher.state(), HealthState::Healthy);

        // Breaching tick: the re-advertised fact now overlaps the
        // threshold query; the indexed path delivers a sub-delta.
        depth.set(500);
        publisher.publish();
        assert_eq!(publisher.state(), HealthState::Degraded);
        let delta = wait_for_delta(&mut watcher, &sub_key, true);
        assert!(
            delta.iter().any(|m| m.contains("health.broker-1")),
            "delta names the health fact: {delta:?}"
        );

        // Recovery tick: the fact drops below the threshold and the
        // subscription sees the removal.
        depth.set(3);
        publisher.publish();
        assert_eq!(publisher.state(), HealthState::Healthy);
        let delta = wait_for_delta(&mut watcher, &sub_key, false);
        assert!(delta.iter().any(|m| m.contains("health.broker-1")), "{delta:?}");

        // The monitor sink got a health-state tell for each transition.
        let mut states = Vec::new();
        while let Some(env) = monitor.recv_timeout(Duration::from_millis(300)) {
            if let Some((b, s, _, ev)) = env.message.content().and_then(health_state_from_sexpr) {
                assert_eq!(b, "broker-1");
                states.push((s, ev.len()));
            }
            if states.len() >= 3 {
                break;
            }
        }
        assert!(
            states.contains(&(HealthState::Degraded, 1)),
            "monitor saw the degraded transition: {states:?}"
        );

        publisher.stop();
        broker.stop();
        rt.shutdown();
    }

    /// An agent whose failure series nothing registered before its first
    /// failed send: the stock `delivery-failures` rule must still see that
    /// failure on the next tick, and the health fact must carry it.
    #[test]
    fn a_first_delivery_failure_fires_the_rule_on_the_next_tick() {
        struct Quiet;
        impl AgentBehavior for Quiet {
            fn on_message(&self, _ctx: &AgentContext, _env: Envelope) {}
        }
        let bus = Bus::new();
        let rt = infosleuth_agent::AgentRuntime::new(bus.as_transport(), RuntimeConfig::default());
        let broker = BrokerAgent::spawn_on(
            &rt,
            BrokerConfig::new("broker-1", "tcp://localhost:6000"),
            obs_repo(),
        )
        .expect("broker spawns");
        let engine = HealthEngine::new(infosleuth_obs::default_broker_rules("broker-1"))
            .with_hysteresis(1, 1);
        let publisher = spawn_health_publisher_with(
            &rt,
            HealthPublisherConfig::new("broker-1").with_interval(Duration::from_secs(3600)),
            engine,
        )
        .expect("publisher spawns");
        publisher.publish();
        assert_eq!(publisher.state(), HealthState::Healthy);

        let talker = rt.spawn("talker", Arc::new(Quiet)).expect("fresh name");
        let series = || {
            let snapshot = rt.obs().registry().snapshot();
            snapshot.samples.iter().filter(|s| s.name == "agent_delivery_failures_total").count()
        };
        assert_eq!(series(), 0, "no agent has failed a send yet");
        assert!(talker.ctx().send("ghost", Message::new(Performative::Tell)).is_err());
        assert_eq!(talker.delivery_failures(), 1);
        assert_eq!(series(), 1, "the first failure registers the talker's series");

        publisher.publish();
        assert_eq!(publisher.state(), HealthState::Critical, "delivery-failures fired");
        assert_eq!(publisher.publisher.reading("delivery-failures", 1.0, 0), 1);
        talker.stop();
        publisher.stop();
        broker.stop();
        rt.shutdown();
    }

    const TIMEOUT: Duration = Duration::from_secs(5);

    /// Drains the watcher until a sub-delta for `sub_key` arrives whose
    /// added (or removed, for `expect_added = false`) list is non-empty;
    /// returns that list as display strings.
    fn wait_for_delta(
        watcher: &mut infosleuth_agent::Endpoint,
        sub_key: &str,
        expect_added: bool,
    ) -> Vec<String> {
        let deadline = Instant::now() + TIMEOUT;
        while Instant::now() < deadline {
            let Some(env) = watcher.recv_timeout(Duration::from_millis(100)) else { continue };
            if env.message.in_reply_to() != Some(sub_key) {
                continue;
            }
            let Some(content) = env.message.content() else { continue };
            let Ok((_epoch, added, removed)) = codec::sub_delta_from_sexpr(content) else {
                continue;
            };
            if expect_added && !added.is_empty() {
                return added.iter().map(|m| m.name.clone()).collect();
            }
            if !expect_added && !removed.is_empty() {
                return removed;
            }
        }
        panic!("no matching sub-delta for {sub_key} (added={expect_added})");
    }
}
