//! The monitor agent (Figure 1): standing-query notifications across the
//! community.
//!
//! InfoSleuth's motivating examples are monitoring tasks — "Notify me when
//! the cost of hospital stays for a Caesarian delivery significantly
//! deviates from the expected cost." A user agent sends the monitor agent a
//! `subscribe` with an SQL standing query; the monitor locates every
//! resource agent that can contribute (through the broker, like the MRQ
//! agent), opens subscriptions with each of them, and relays their change
//! notifications back to the user, tagging each with the originating
//! resource.
//!
//! The monitor is also the community's observability sink. Every agent
//! hosted on an [`AgentRuntime`] configured with this monitor reports
//! failed sends here as `tell`s tagged with [`LOG_ONTOLOGY`], and the
//! handle exposes the accumulated log — the observable form of §4.2.2's
//! "the transport layer will fail to make the connection". Runtimes that
//! spawn an `ObsReporter` additionally forward metrics snapshots and
//! span batches over the same ontology; the monitor merges the
//! snapshots per source, reconstructs cross-agent trace trees from the
//! spans, answers `ask-all` queries over the log ontology, and — when
//! [`MonitorSpec::scrape_addr`] is set — serves the merged registry as
//! Prometheus text over HTTP.

use infosleuth_agent::{
    AgentBehavior, AgentContext, AgentHandle, AgentRuntime, Bus, BusError, Envelope, RuntimeConfig,
    LOG_ONTOLOGY, METRICS_SNAPSHOT_HEAD, SPANS_HEAD,
};
use infosleuth_broker::{health_state_from_sexpr, query_broker, HEALTH_STATE_HEAD};
use infosleuth_kqml::{Message, Performative, SExpr};
use infosleuth_obs::sync::lock;
use infosleuth_obs::{
    render_merged, HealthEvent, HealthState, Labels, MetricsServer, MetricsSnapshot, SeriesPoint,
    SpanRecord, TimeSeriesStore,
};
use infosleuth_ontology::{
    Advertisement, AgentLocation, AgentType, Capability, ConversationType, SemanticInfo,
    ServiceQuery, SyntacticInfo,
};
use infosleuth_relquery::{parse_select, plan, referenced_classes};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Spans retained by the monitor; the oldest are evicted first.
const SPAN_RETENTION: usize = 8192;

/// Points retained per metric series in each source's history ring.
const HISTORY_RETENTION: usize = 128;

/// Health transitions retained for the `(health)` query's alert tail.
const ALERT_RETENTION: usize = 256;

/// Configuration for the monitor agent.
pub struct MonitorSpec {
    pub name: String,
    pub address: String,
    pub brokers: Vec<String>,
    pub timeout: Duration,
    /// When set (e.g. `"127.0.0.1:0"`), the monitor serves the merged
    /// metrics of every reporting runtime as Prometheus text on this
    /// address; the actually-bound address is
    /// [`MonitorAgentHandle::scrape_addr`].
    pub scrape_addr: Option<String>,
}

/// The monitor agent's standard advertisement.
pub fn monitor_advertisement(name: &str, address: &str) -> Advertisement {
    Advertisement::new(AgentLocation::new(name, address, AgentType::Monitor))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(
            SemanticInfo::default()
                .with_conversations([ConversationType::Subscribe, ConversationType::Tell])
                .with_capabilities([Capability::subscription(), Capability::notification()]),
        )
}

/// One recorded delivery failure, as reported by a sending agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryFailure {
    /// The agent whose send was refused.
    pub agent: String,
    /// The unreachable peer.
    pub peer: String,
    /// The performative of the message that could not be delivered.
    pub performative: String,
    /// The sender's running failure count at the time of the report.
    pub count: u64,
}

/// The roll-up a broker's health publisher last reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokerHealth {
    pub state: HealthState,
    /// The publisher's sample tick that produced this state.
    pub tick: u64,
}

/// Observability state forwarded by the community's `ObsReporter`s and
/// health publishers: the latest metrics snapshot per source (plus a
/// ring-buffer history of every series), a bounded span store, the
/// per-broker health roll-ups, and the recent alert transitions.
#[derive(Default)]
struct ObsStore {
    snapshots: BTreeMap<String, MetricsSnapshot>,
    history: BTreeMap<String, TimeSeriesStore>,
    spans: Vec<SpanRecord>,
    health: BTreeMap<String, BrokerHealth>,
    alerts: Vec<(String, HealthEvent)>,
}

impl ObsStore {
    fn push_span(&mut self, record: SpanRecord) {
        if self.spans.len() >= SPAN_RETENTION {
            let overflow = self.spans.len() + 1 - SPAN_RETENTION;
            self.spans.drain(..overflow);
        }
        self.spans.push(record);
    }

    fn absorb_snapshot(&mut self, source: &str, snap: MetricsSnapshot, at_millis: u64) {
        self.history
            .entry(source.to_string())
            .or_insert_with(|| TimeSeriesStore::new(HISTORY_RETENTION))
            .record(at_millis, &snap);
        self.snapshots.insert(source.to_string(), snap);
    }

    fn absorb_health(
        &mut self,
        broker: String,
        state: HealthState,
        tick: u64,
        events: Vec<HealthEvent>,
    ) {
        self.health.insert(broker.clone(), BrokerHealth { state, tick });
        for event in events {
            if self.alerts.len() >= ALERT_RETENTION {
                let overflow = self.alerts.len() + 1 - ALERT_RETENTION;
                self.alerts.drain(..overflow);
            }
            self.alerts.push((broker.clone(), event));
        }
    }
}

/// Handle to a running monitor agent.
pub struct MonitorAgentHandle {
    name: String,
    agent: AgentHandle,
    log: Arc<Mutex<Vec<DeliveryFailure>>>,
    obs_store: Arc<Mutex<ObsStore>>,
    scrape: Option<MetricsServer>,
    _runtime: Option<AgentRuntime>,
}

impl MonitorAgentHandle {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Every delivery failure reported to this monitor so far.
    pub fn delivery_log(&self) -> Vec<DeliveryFailure> {
        lock(&self.log).clone()
    }

    /// Number of delivery-failure reports received.
    pub fn delivery_failure_reports(&self) -> usize {
        lock(&self.log).len()
    }

    /// Sends by the monitor itself that the transport refused.
    pub fn delivery_failures(&self) -> u64 {
        self.agent.delivery_failures()
    }

    /// Where the Prometheus scrape endpoint actually bound, when
    /// [`MonitorSpec::scrape_addr`] was set.
    pub fn scrape_addr(&self) -> Option<std::net::SocketAddr> {
        self.scrape.as_ref().map(MetricsServer::local_addr)
    }

    /// Sources that have forwarded at least one metrics snapshot.
    pub fn snapshot_sources(&self) -> Vec<String> {
        lock(&self.obs_store).snapshots.keys().cloned().collect()
    }

    /// Every span forwarded to this monitor (bounded; oldest evicted).
    pub fn spans(&self) -> Vec<SpanRecord> {
        lock(&self.obs_store).spans.clone()
    }

    /// The latest health roll-up per broker, as reported by each
    /// broker's health publisher.
    pub fn health_states(&self) -> BTreeMap<String, BrokerHealth> {
        lock(&self.obs_store).health.clone()
    }

    /// Recent watermark transitions (fired and cleared), oldest first,
    /// tagged with the reporting broker. Bounded; oldest evicted.
    pub fn recent_alerts(&self) -> Vec<(String, HealthEvent)> {
        lock(&self.obs_store).alerts.clone()
    }

    /// The retained history of `metric` from `source`: one
    /// `(labels, points)` row per label set, oldest point first.
    pub fn metric_history(&self, source: &str, metric: &str) -> Vec<(Labels, Vec<SeriesPoint>)> {
        let store = lock(&self.obs_store);
        let Some(series) = store.history.get(source) else { return Vec::new() };
        series
            .label_sets(metric)
            .into_iter()
            .map(|labels| {
                let points = series.snapshot_history(metric, &labels);
                (labels, points)
            })
            .collect()
    }

    pub fn stop(self) {
        if let Some(server) = &self.scrape {
            server.shutdown();
        }
        self.agent.stop();
    }
}

/// One upstream subscription held at a resource agent, mapped back to the
/// downstream subscriber.
struct Relay {
    subscriber: String,
    downstream_id: String,
    resource: String,
}

struct MonitorState {
    relays: HashMap<String, Relay>,
    seq: u64,
}

struct MonitorBehavior {
    spec: MonitorSpec,
    state: Mutex<MonitorState>,
    log: Arc<Mutex<Vec<DeliveryFailure>>>,
    obs_store: Arc<Mutex<ObsStore>>,
    /// Monotonic epoch for history timestamps: snapshots from different
    /// sources land on one monitor-local clock.
    started: Instant,
}

impl MonitorBehavior {
    /// Absorbs a `tell` over the log ontology: a delivery-failure
    /// report, a forwarded metrics snapshot, or a span batch.
    fn absorb_log(&self, msg: &Message) {
        let Some(items) = msg.content().and_then(SExpr::as_list) else { return };
        match items.first().and_then(SExpr::as_text) {
            Some("delivery-failure") => {
                if let Some(report) = parse_delivery_failure(msg) {
                    lock(&self.log).push(report);
                }
            }
            Some(METRICS_SNAPSHOT_HEAD) => {
                let source = items.get(1).and_then(SExpr::as_text);
                let snap = items.get(2).and_then(MetricsSnapshot::from_sexpr);
                if let (Some(source), Some(snap)) = (source, snap) {
                    let at_millis = self.started.elapsed().as_millis() as u64;
                    lock(&self.obs_store).absorb_snapshot(source, snap, at_millis);
                }
            }
            Some(HEALTH_STATE_HEAD) => {
                if let Some(content) = msg.content() {
                    if let Some((broker, state, tick, events)) = health_state_from_sexpr(content) {
                        lock(&self.obs_store).absorb_health(broker, state, tick, events);
                    }
                }
            }
            Some(SPANS_HEAD) => {
                let mut store = lock(&self.obs_store);
                for item in &items[1..] {
                    if let Some(record) = SpanRecord::from_sexpr(item) {
                        store.push_span(record);
                    }
                }
            }
            _ => {}
        }
    }

    /// Answers an `ask-all`/`ask-one` over the log ontology:
    /// `(metrics)`, `(traces)`, `(trace <hex16>)`,
    /// `(delivery-failures)`, `(health)`, or
    /// `(history <source> <metric>)`.
    fn answer_log_query(&self, msg: &Message) -> Message {
        let items = msg.content().and_then(SExpr::as_list);
        let head = items.and_then(|l| l.first()).and_then(SExpr::as_text);
        match head {
            Some("health") => {
                let store = lock(&self.obs_store);
                let mut out = vec![SExpr::atom("health")];
                out.extend(store.health.iter().map(|(broker, h)| {
                    SExpr::list(vec![
                        SExpr::atom("broker"),
                        SExpr::atom(broker),
                        SExpr::atom(h.state.as_str()),
                        SExpr::atom(h.tick.to_string()),
                    ])
                }));
                out.extend(store.alerts.iter().map(|(broker, e)| {
                    SExpr::list(vec![
                        SExpr::atom("alert"),
                        SExpr::atom(broker),
                        SExpr::atom(&e.rule),
                        SExpr::atom(e.severity.as_str()),
                        SExpr::atom(u8::from(e.firing).to_string()),
                        SExpr::atom(e.tick.to_string()),
                    ])
                }));
                msg.reply_skeleton(Performative::Reply).with_content(SExpr::list(out))
            }
            Some("history") => {
                let source = items.and_then(|l| l.get(1)).and_then(SExpr::as_text);
                let metric = items.and_then(|l| l.get(2)).and_then(SExpr::as_text);
                let (Some(source), Some(metric)) = (source, metric) else {
                    return msg
                        .reply_skeleton(Performative::Error)
                        .with_content(SExpr::string("expected (history <source> <metric>)"));
                };
                let store = lock(&self.obs_store);
                let Some(series) = store.history.get(source) else {
                    return msg.reply_skeleton(Performative::Sorry).with_content(SExpr::string(
                        format!("no metrics history from source {source}"),
                    ));
                };
                let mut out =
                    vec![SExpr::atom("history"), SExpr::atom(source), SExpr::atom(metric)];
                for labels in series.label_sets(metric) {
                    let label_sexpr = SExpr::list(
                        labels
                            .iter()
                            .map(|(k, v)| SExpr::list(vec![SExpr::atom(k), SExpr::atom(v)])),
                    );
                    let mut entry = vec![SExpr::atom("series"), label_sexpr];
                    entry.extend(series.snapshot_history(metric, &labels).iter().map(|p| {
                        SExpr::list(vec![
                            SExpr::atom(p.tick.to_string()),
                            SExpr::atom(format!("{}", p.scalar())),
                        ])
                    }));
                    out.push(SExpr::list(entry));
                }
                let perf = if out.len() > 3 { Performative::Reply } else { Performative::Sorry };
                msg.reply_skeleton(perf).with_content(SExpr::list(out))
            }
            Some("metrics") => {
                let text = render_merged(&lock(&self.obs_store).snapshots);
                msg.reply_skeleton(Performative::Reply).with_content(SExpr::string(text))
            }
            Some("traces") => {
                let store = lock(&self.obs_store);
                let mut out = vec![SExpr::atom("traces")];
                out.extend(
                    infosleuth_obs::trace_ids(&store.spans)
                        .iter()
                        .map(|t| SExpr::atom(t.to_string())),
                );
                msg.reply_skeleton(Performative::Reply).with_content(SExpr::list(out))
            }
            Some("trace") => {
                let wanted = items
                    .and_then(|l| l.get(1))
                    .and_then(SExpr::as_text)
                    .unwrap_or_default()
                    .to_string();
                let store = lock(&self.obs_store);
                let mut out = vec![SExpr::atom(SPANS_HEAD)];
                out.extend(
                    store
                        .spans
                        .iter()
                        .filter(|r| r.trace.to_string() == wanted)
                        .map(SpanRecord::to_sexpr),
                );
                let perf = if out.len() > 1 { Performative::Reply } else { Performative::Sorry };
                msg.reply_skeleton(perf).with_content(SExpr::list(out))
            }
            Some("delivery-failures") => {
                let log = lock(&self.log);
                let mut out = vec![SExpr::atom("delivery-failures")];
                out.extend(log.iter().map(|f| {
                    SExpr::list(vec![
                        SExpr::atom(&f.agent),
                        SExpr::atom(&f.peer),
                        SExpr::atom(&f.performative),
                        SExpr::atom(f.count.to_string()),
                    ])
                }));
                msg.reply_skeleton(Performative::Reply).with_content(SExpr::list(out))
            }
            _ => msg.reply_skeleton(Performative::Error).with_content(SExpr::string(
                "log queries: (metrics) | (traces) | (trace <id>) | (delivery-failures) \
                 | (health) | (history <source> <metric>)",
            )),
        }
    }
}

impl AgentBehavior for MonitorBehavior {
    fn on_message(&self, ctx: &AgentContext, env: Envelope) {
        match env.message.performative {
            Performative::Ping => {
                let reply = env.message.reply_skeleton(Performative::Reply);
                let _ = ctx.send(&env.from, reply);
            }
            Performative::Subscribe => {
                let mut state = lock(&self.state);
                state.seq += 1;
                let seq = state.seq;
                let reply = open_subscription(ctx, &self.spec, &env, seq, &mut state.relays);
                drop(state);
                let _ = ctx.send(&env.from, reply);
            }
            Performative::AskAll | Performative::AskOne
                if env.message.get_text("ontology") == Some(LOG_ONTOLOGY) =>
            {
                let reply = self.answer_log_query(&env.message);
                let _ = ctx.send(&env.from, reply);
            }
            Performative::Tell => {
                // An observability report from a runtime (delivery
                // failure, metrics snapshot, or span batch): absorb it
                // rather than relaying.
                if env.message.get_text("ontology") == Some(LOG_ONTOLOGY) {
                    self.absorb_log(&env.message);
                    return;
                }
                // A notification from a resource agent: relay downstream.
                let Some(upstream_id) = env.message.in_reply_to() else {
                    return;
                };
                let state = lock(&self.state);
                if let Some(relay) = state.relays.get(upstream_id) {
                    let mut fwd = Message::new(Performative::Tell)
                        .with_in_reply_to(relay.downstream_id.clone());
                    if let Some(content) = env.message.content() {
                        fwd.set("content", content.clone());
                    }
                    // Provenance: which resource changed.
                    fwd.set("resource", SExpr::atom(relay.resource.as_str()));
                    let _ = ctx.send(&relay.subscriber, fwd);
                }
            }
            _ => {
                let reply = env
                    .message
                    .reply_skeleton(Performative::Error)
                    .with_content(SExpr::string("monitor agent accepts subscribe only"));
                let _ = ctx.send(&env.from, reply);
            }
        }
    }
}

/// Decodes a `(delivery-failure <agent> <peer> <performative> <count>)`
/// log payload.
fn parse_delivery_failure(msg: &Message) -> Option<DeliveryFailure> {
    let SExpr::List(items) = msg.content()? else {
        return None;
    };
    let mut texts = items.iter().map(SExpr::as_text);
    if texts.next()? != Some("delivery-failure") {
        return None;
    }
    Some(DeliveryFailure {
        agent: texts.next()??.to_string(),
        peer: texts.next()??.to_string(),
        performative: texts.next()??.to_string(),
        count: texts.next()??.parse().ok()?,
    })
}

/// Spawns the monitor agent on its own private runtime over the bus.
pub fn spawn_monitor_agent(bus: &Bus, spec: MonitorSpec) -> Result<MonitorAgentHandle, BusError> {
    let runtime = AgentRuntime::new(bus.as_transport(), RuntimeConfig::default().with_workers(2));
    let mut handle = spawn_monitor_agent_on(&runtime, spec)?;
    handle._runtime = Some(runtime);
    Ok(handle)
}

/// Spawns the monitor agent on a shared [`AgentRuntime`]: advertises to
/// every broker, then serves `subscribe` requests, relays notifications,
/// and accumulates delivery-failure reports.
pub fn spawn_monitor_agent_on(
    runtime: &AgentRuntime,
    spec: MonitorSpec,
) -> Result<MonitorAgentHandle, BusError> {
    let name = spec.name.clone();
    let ad = monitor_advertisement(&spec.name, &spec.address);
    let brokers = spec.brokers.clone();
    let timeout = spec.timeout;
    let scrape_addr = spec.scrape_addr.clone();
    let log = Arc::new(Mutex::new(Vec::new()));
    let obs_store = Arc::new(Mutex::new(ObsStore::default()));
    let behavior = Arc::new(MonitorBehavior {
        spec,
        state: Mutex::new(MonitorState { relays: HashMap::new(), seq: 0 }),
        log: Arc::clone(&log),
        obs_store: Arc::clone(&obs_store),
        started: Instant::now(),
    });
    let scrape = match scrape_addr {
        Some(addr) => {
            let store = Arc::clone(&obs_store);
            let render: infosleuth_obs::http::RenderFn =
                Arc::new(move || render_merged(&lock(&store).snapshots));
            Some(
                MetricsServer::serve(addr.as_str(), render)
                    .map_err(|e| BusError::Io(e.to_string()))?,
            )
        }
        None => None,
    };
    let agent = runtime.spawn(&name, behavior)?;
    {
        let mut requester = agent.ctx();
        for broker in &brokers {
            let _ = infosleuth_broker::advertise_to(&mut requester, broker, &ad, timeout);
        }
    }
    Ok(MonitorAgentHandle { name, agent, log, obs_store, scrape, _runtime: None })
}

/// Locates contributing resources for a standing query and subscribes to
/// each; returns the downstream acknowledgement.
fn open_subscription(
    ctx: &AgentContext,
    spec: &MonitorSpec,
    env: &Envelope,
    seq: u64,
    relays: &mut HashMap<String, Relay>,
) -> Message {
    let Some(sql) = env.message.content().and_then(SExpr::as_text).map(str::to_string) else {
        return env
            .message
            .reply_skeleton(Performative::Error)
            .with_content(SExpr::string("expected SQL content"));
    };
    let stmt = match parse_select(&sql) {
        Ok(s) => s,
        Err(e) => {
            return env
                .message
                .reply_skeleton(Performative::Error)
                .with_content(SExpr::string(e.to_string()))
        }
    };
    let classes = referenced_classes(&plan(&stmt));
    // One service query covering all referenced classes.
    let mut query = ServiceQuery::for_agent_type(AgentType::Resource)
        .with_query_language("SQL 2.0")
        .with_classes(classes.iter().map(String::as_str));
    if let Some(o) = env.message.ontology() {
        query = query.with_ontology(o);
    }
    let mut requester = ctx;
    let mut matches = Vec::new();
    for broker in &spec.brokers {
        if let Ok(m) = query_broker(&mut requester, broker, &query, None, spec.timeout) {
            if !m.is_empty() {
                matches = m;
                break;
            }
        }
    }
    if matches.is_empty() {
        return env.message.reply_skeleton(Performative::Sorry).with_content(SExpr::string(
            format!("no resource agents found for classes {classes:?}"),
        ));
    }
    let downstream_id =
        env.message.reply_with().map(str::to_string).unwrap_or_else(|| format!("mon-{seq}"));
    let mut opened = 0;
    for m in &matches {
        // `reply-to`: notifications must flow to the monitor's own
        // mailbox, not the ephemeral endpoint carrying this request.
        let sub = Message::new(Performative::Subscribe)
            .with_language("SQL 2.0")
            .with("reply-to", SExpr::atom(ctx.name()))
            .with_content(SExpr::string(sql.clone()));
        match ctx.request(&m.name, sub, spec.timeout) {
            Ok(ack) if ack.performative == Performative::Tell => {
                let upstream_id =
                    ack.content().and_then(SExpr::as_text).unwrap_or_default().to_string();
                if !upstream_id.is_empty() {
                    let subscriber =
                        env.message.get_text("reply-to").unwrap_or(&env.from).to_string();
                    relays.insert(
                        upstream_id,
                        Relay {
                            subscriber,
                            downstream_id: downstream_id.clone(),
                            resource: m.name.clone(),
                        },
                    );
                    opened += 1;
                }
            }
            _ => {}
        }
    }
    if opened == 0 {
        return env
            .message
            .reply_skeleton(Performative::Sorry)
            .with_content(SExpr::string("no resource accepted the subscription"));
    }
    env.message
        .reply_skeleton(Performative::Tell)
        .with_content(SExpr::atom(downstream_id))
        .with("resources", SExpr::atom(opened.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_delivery_failure_reports() {
        let msg = Message::new(Performative::Tell).with_ontology(LOG_ONTOLOGY).with_content(
            SExpr::list(vec![
                SExpr::atom("delivery-failure"),
                SExpr::atom("broker-1"),
                SExpr::atom("dead-ra"),
                SExpr::atom("ping"),
                SExpr::atom("3"),
            ]),
        );
        let report = parse_delivery_failure(&msg).expect("parses");
        assert_eq!(
            report,
            DeliveryFailure {
                agent: "broker-1".into(),
                peer: "dead-ra".into(),
                performative: "ping".into(),
                count: 3,
            }
        );
        // Malformed payloads are ignored, not crashes.
        let junk = Message::new(Performative::Tell).with_content(SExpr::atom("nope"));
        assert_eq!(parse_delivery_failure(&junk), None);
    }

    #[test]
    fn absorbs_runtime_failure_reports_into_the_log() {
        use infosleuth_agent::RuntimeConfig;
        let bus = Bus::new();
        let runtime = AgentRuntime::new(
            bus.as_transport(),
            RuntimeConfig::default().with_monitor("monitor-agent"),
        );
        let monitor = spawn_monitor_agent_on(
            &runtime,
            MonitorSpec {
                name: "monitor-agent".into(),
                address: "tcp://monitor.mcc.com:6001".into(),
                brokers: vec![],
                timeout: Duration::from_millis(200),
                scrape_addr: None,
            },
        )
        .unwrap();
        struct Talker;
        impl AgentBehavior for Talker {
            fn on_message(&self, ctx: &AgentContext, _env: Envelope) {
                let _ = ctx.send("ghost-agent", Message::new(Performative::Ping));
            }
        }
        let talker = runtime.spawn("talker", Arc::new(Talker)).unwrap();
        bus.register("poker").unwrap().send("talker", Message::new(Performative::Tell)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while monitor.delivery_failure_reports() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let log = monitor.delivery_log();
        assert!(!log.is_empty(), "monitor never received the failure report");
        assert_eq!(log[0].agent, "talker");
        assert_eq!(log[0].peer, "ghost-agent");
        assert_eq!(talker.delivery_failures(), 1);
        monitor.stop();
        runtime.shutdown();
    }

    #[test]
    fn aggregates_forwarded_obs_and_serves_scrape_endpoint() {
        use infosleuth_agent::spawn_obs_reporter;
        let bus = Bus::new();
        let runtime =
            AgentRuntime::new(bus.as_transport(), RuntimeConfig::default().with_workers(2));
        let monitor = spawn_monitor_agent_on(
            &runtime,
            MonitorSpec {
                name: "monitor-agent".into(),
                address: "tcp://monitor.mcc.com:6001".into(),
                brokers: vec![],
                timeout: Duration::from_millis(200),
                scrape_addr: Some("127.0.0.1:0".into()),
            },
        )
        .unwrap();
        let reporter =
            spawn_obs_reporter(&runtime, "obs.node", "monitor-agent", Duration::from_secs(3600))
                .unwrap();
        runtime.obs().registry().counter("demo_total", &[]).inc();
        {
            let _span = runtime.obs().tracer().span("demo-span");
        }
        reporter.flush();
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while (monitor.snapshot_sources().is_empty()
            || !monitor.spans().iter().any(|r| r.name == "demo-span"))
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(monitor.snapshot_sources(), vec!["obs.node".to_string()]);
        assert!(monitor.spans().iter().any(|r| r.name == "demo-span"));

        // The scrape endpoint serves the merged registry, tagged by source.
        let addr = monitor.scrape_addr().expect("scrape endpoint bound");
        let body = infosleuth_obs::scrape(&addr.to_string(), Duration::from_secs(2))
            .expect("scrape succeeds");
        assert!(body.contains("# TYPE demo_total counter"), "body:\n{body}");
        assert!(body.contains("demo_total{agent=\"obs.node\"} 1"), "body:\n{body}");

        // The same data is queryable over KQML (ask-all, log ontology).
        let mut client = bus.register("client").unwrap();
        let ask = |content: SExpr| {
            Message::new(Performative::AskAll).with_ontology(LOG_ONTOLOGY).with_content(content)
        };
        let reply = client
            .request(
                "monitor-agent",
                ask(SExpr::list(vec![SExpr::atom("metrics")])),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply.performative, Performative::Reply);
        assert!(reply.content().and_then(SExpr::as_text).unwrap().contains("demo_total"));
        let reply = client
            .request(
                "monitor-agent",
                ask(SExpr::list(vec![SExpr::atom("traces")])),
                Duration::from_secs(2),
            )
            .unwrap();
        let traces = reply.content().and_then(SExpr::as_list).unwrap();
        assert!(traces.len() >= 2, "at least one trace id listed: {traces:?}");
        let trace_id = traces[1].as_atom().unwrap().to_string();
        let reply = client
            .request(
                "monitor-agent",
                ask(SExpr::list(vec![SExpr::atom("trace"), SExpr::atom(&trace_id)])),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply.performative, Performative::Reply);
        let spans = reply.content().and_then(SExpr::as_list).unwrap();
        assert!(
            spans[1..].iter().all(|s| SpanRecord::from_sexpr(s).is_some()),
            "trace reply is decodable spans"
        );
        monitor.stop();
        runtime.shutdown();
    }

    #[test]
    fn absorbs_health_tells_and_answers_health_and_history_queries() {
        use infosleuth_agent::spawn_obs_reporter;
        use infosleuth_broker::health_state_to_sexpr;
        use infosleuth_obs::Severity;
        let bus = Bus::new();
        let runtime =
            AgentRuntime::new(bus.as_transport(), RuntimeConfig::default().with_workers(2));
        let monitor = spawn_monitor_agent_on(
            &runtime,
            MonitorSpec {
                name: "monitor-agent".into(),
                address: "tcp://monitor.mcc.com:6001".into(),
                brokers: vec![],
                timeout: Duration::from_millis(200),
                scrape_addr: None,
            },
        )
        .unwrap();

        // Two snapshots build a two-point history for the gauge — one the
        // runtime does not write itself, or a job queued between `set`
        // and `flush` shows up in the snapshot.
        let reporter =
            spawn_obs_reporter(&runtime, "broker-1", "monitor-agent", Duration::from_secs(3600))
                .unwrap();
        let depth = runtime.obs().registry().gauge("test_queue_depth", &[]);
        let points = || {
            monitor.metric_history("broker-1", "test_queue_depth").first().map_or(0, |s| s.1.len())
        };
        depth.set(3);
        reporter.flush();
        // The monitor handles up to `per_agent_inflight` tells at once, so
        // the second snapshot waits until the first has landed.
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while points() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        depth.set(500);
        reporter.flush();

        // A health publisher's transition tell.
        let events = vec![HealthEvent {
            rule: "queue-depth".into(),
            metric: "test_queue_depth".into(),
            severity: Severity::Warning,
            value: 500.0,
            threshold: 100.0,
            firing: true,
            tick: 2,
        }];
        let mut client = bus.register("client").unwrap();
        client
            .send(
                "monitor-agent",
                Message::new(Performative::Tell).with_ontology(LOG_ONTOLOGY).with_content(
                    health_state_to_sexpr("broker-1", HealthState::Degraded, 2, &events),
                ),
            )
            .unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        while (monitor.health_states().is_empty() || points() < 2)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }

        // Handle accessors.
        let health = monitor.health_states();
        assert_eq!(
            health.get("broker-1"),
            Some(&BrokerHealth { state: HealthState::Degraded, tick: 2 })
        );
        let alerts = monitor.recent_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].0, "broker-1");
        assert_eq!(alerts[0].1.rule, "queue-depth");
        let history = monitor.metric_history("broker-1", "test_queue_depth");
        assert_eq!(history.len(), 1, "one (unlabeled) series: {history:?}");
        let values: Vec<f64> = history[0].1.iter().map(SeriesPoint::scalar).collect();
        assert_eq!(values, vec![3.0, 500.0]);

        // The same data over KQML.
        let ask = |content: SExpr| {
            Message::new(Performative::AskAll).with_ontology(LOG_ONTOLOGY).with_content(content)
        };
        let reply = client
            .request(
                "monitor-agent",
                ask(SExpr::list(vec![SExpr::atom("health")])),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply.performative, Performative::Reply);
        let text = reply.content().unwrap().to_string();
        assert!(text.contains("(broker broker-1 degraded 2)"), "health reply: {text}");
        assert!(text.contains("(alert broker-1 queue-depth warning 1 2)"), "health reply: {text}");

        let reply = client
            .request(
                "monitor-agent",
                ask(SExpr::list(vec![
                    SExpr::atom("history"),
                    SExpr::atom("broker-1"),
                    SExpr::atom("test_queue_depth"),
                ])),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply.performative, Performative::Reply);
        let text = reply.content().unwrap().to_string();
        assert!(text.contains("(series ()"), "history reply carries a series: {text}");
        assert!(text.contains("500"), "history reply carries the points: {text}");

        // Unknown source gets a sorry, not an error.
        let reply = client
            .request(
                "monitor-agent",
                ask(SExpr::list(vec![
                    SExpr::atom("history"),
                    SExpr::atom("ghost"),
                    SExpr::atom("test_queue_depth"),
                ])),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply.performative, Performative::Sorry);
        monitor.stop();
        runtime.shutdown();
    }
}
