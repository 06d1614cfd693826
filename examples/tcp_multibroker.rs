//! Distributed multibrokering (§4) over real sockets: two TCP transport
//! nodes on localhost, each hosting part of the community, run the same
//! advertise → collaborative-search → query walkthrough the in-proc bus
//! runs — and must do so without a single swallowed delivery failure.
//!
//! ```text
//! node A (127.0.0.1:<pa>)          node B (127.0.0.1:<pb>)
//!   broker-1                         broker-2
//!   monitor-agent (+ scrape HTTP)    ra-c2   (holds class C2)
//!   mrq-agent                        obs.node-b (reporter)
//!   ra-c1   (holds class C1)
//!   mhn-user
//!   obs.node-a (reporter)
//! ```
//!
//! Both nodes carry an observability bundle: every dispatch and broker
//! pipeline stage is traced, both transports record send/recv metrics,
//! and a reporter per node forwards snapshots + spans to the monitor
//! agent, which serves the merged registry as Prometheus text over HTTP.
//!
//! Exits non-zero if any agent counted a delivery failure, if the
//! monitor cannot produce one connected trace tree spanning at least
//! three agents (user query → broker → resource agent), if
//! `broker_match_requests_total` or `broker_sub_notifications_total`
//! never moved, if any histogram in the scrape is empty (which forces
//! the standing-subscription churn below to exercise both brokers'
//! `broker_sub_notify_seconds`), or if either node's conversation
//! conformance tap counted a `protocol_violations_total` — so CI can run
//! this binary as a smoke test for the TCP transport, the metrics
//! plane, *and* the conversation protocol.

use infosleuth_core::agent::{
    spawn_obs_reporter, AgentRuntime, MessageTap, RuntimeConfig, TappedTransport, TcpTransport,
    Transport, TransportExt, LOG_ONTOLOGY,
};
use infosleuth_core::broker::{
    advertise_to, codec, interconnect, query_broker, spawn_health_publisher, subscribe_to,
    unadvertise_from, BrokerAgent, BrokerConfig, HealthPublisherConfig, ProtocolTap, Repository,
    SearchPolicy,
};
use infosleuth_core::constraint::{Conjunction, Predicate};
use infosleuth_core::kqml::{Message, Performative, SExpr};
use infosleuth_core::obs::{build_trace_tree, scrape, Obs, SpanNode, SpanRecord};
use infosleuth_core::ontology::{
    obs_ontology, paper_class_ontology, Advertisement, AgentLocation, AgentType, Ontology,
    OntologyContent, SemanticInfo, ServiceQuery,
};
use infosleuth_core::relquery::{generate_table, Catalog, GenSpec};
use infosleuth_core::{
    spawn_monitor_agent_on, spawn_mrq_agent_on, spawn_resource_agent_on, MonitorSpec, MrqSpec,
    ResourceDef, ResourceSpec, UserAgent,
};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const T: Duration = Duration::from_secs(5);

fn repo(ontology: &Arc<Ontology>) -> Repository {
    let mut r = Repository::new();
    r.register_ontology(ontology.as_ref().clone());
    // Health publishers advertise broker_health / health_alert facts
    // into their broker; the obs ontology makes those admissible.
    r.register_ontology(obs_ontology());
    r
}

/// One single-class resource agent spec, its advertisement derived the
/// same way [`infosleuth_core::Community`] derives them.
fn resource_spec(
    name: &str,
    class: &str,
    rows: usize,
    seed: u64,
    ontology: &Arc<Ontology>,
    port: u16,
) -> ResourceSpec {
    let mut catalog = Catalog::new();
    catalog.insert(generate_table(ontology, &GenSpec::new(class, rows, seed)).expect("generates"));
    let def = ResourceDef::new(name, ontology.name.clone(), catalog);
    let advertisement = def.advertisement(ontology, port);
    ResourceSpec {
        advertisement,
        catalog: def.catalog,
        ontology: Arc::clone(ontology),
        redundancy: 1,
        maintenance_interval: None,
        timeout: T,
    }
}

fn main() -> ExitCode {
    let ontology = Arc::new(paper_class_ontology());

    // --- Two transport nodes, like two machines on a LAN. -------------
    let node_a = TcpTransport::bind("127.0.0.1:0").expect("bind node A");
    let node_b = TcpTransport::bind("127.0.0.1:0").expect("bind node B");
    println!("node A listens on {}", node_a.local_addr());
    println!("node B listens on {}", node_b.local_addr());
    // Static routing tables: who lives where. Ephemeral request
    // endpoints ("broker-1.w3") are covered by the base-name routes.
    node_a.add_route("broker-2", node_b.address());
    node_a.add_route("ra-c2", node_b.address());
    for agent in
        ["broker-1", "monitor-agent", "mrq-agent", "ra-c1", "mhn-user", "probe", "sub-watcher"]
    {
        node_b.add_route(agent, node_a.address());
    }

    // --- One observability bundle per node: transports and runtimes ---
    // feed the same per-node registry/tracer.
    let obs_a = Obs::new();
    let obs_b = Obs::new();
    node_a.set_obs(&obs_a);
    node_b.set_obs(&obs_b);

    // --- A conversation-conformance tap per node. ---------------------
    // Every send leaving a node replays through a lenient IS05x monitor
    // (lenient because each tap sees only its own node's half of
    // cross-node conversations); violations surface both as
    // `protocol_violations_total` in the scrape and as the gate at the
    // bottom of this run.
    let tap_a = Arc::new(ProtocolTap::lenient(obs_a.registry(), "node-a"));
    let tap_b = Arc::new(ProtocolTap::lenient(obs_b.registry(), "node-b"));
    let transport_a = TappedTransport::wrap(
        Arc::clone(&node_a) as Arc<dyn Transport>,
        Arc::clone(&tap_a) as Arc<dyn MessageTap>,
    );
    let transport_b = TappedTransport::wrap(
        Arc::clone(&node_b) as Arc<dyn Transport>,
        Arc::clone(&tap_b) as Arc<dyn MessageTap>,
    );

    // --- One runtime per node; both report failures to the monitor. ---
    let runtime_a = AgentRuntime::new(
        Arc::clone(&transport_a),
        RuntimeConfig::default()
            .with_workers(8)
            .with_monitor("monitor-agent")
            .with_obs(Arc::clone(&obs_a)),
    );
    let runtime_b = AgentRuntime::new(
        Arc::clone(&transport_b),
        RuntimeConfig::default()
            .with_workers(4)
            .with_monitor("monitor-agent")
            .with_obs(Arc::clone(&obs_b)),
    );

    // --- Brokers, one per node, interconnected across the socket. -----
    let b1 = BrokerAgent::spawn_on(
        &runtime_a,
        BrokerConfig::new("broker-1", "tcp://b1.mcc.com:5001").with_ping_interval(None),
        repo(&ontology),
    )
    .expect("broker-1 spawns");
    let b2 = BrokerAgent::spawn_on(
        &runtime_b,
        BrokerConfig::new("broker-2", "tcp://b2.mcc.com:5002").with_ping_interval(None),
        repo(&ontology),
    )
    .expect("broker-2 spawns");
    interconnect(&[&b1, &b2]).expect("consortium forms across TCP");
    println!("broker-1 (node A) ⇄ broker-2 (node B) interconnected");

    let brokers = vec!["broker-1".to_string(), "broker-2".to_string()];
    let monitor = spawn_monitor_agent_on(
        &runtime_a,
        MonitorSpec {
            name: "monitor-agent".into(),
            address: "tcp://monitor.mcc.com:6100".into(),
            brokers: brokers.clone(),
            timeout: T,
            scrape_addr: Some("127.0.0.1:0".into()),
        },
    )
    .expect("monitor spawns");
    let scrape_addr = monitor.scrape_addr().expect("scrape endpoint bound");
    println!("monitor scrape endpoint: curl http://{scrape_addr}/metrics");
    // A reporter per node forwards that node's registry + span buffer to
    // the monitor; the short interval doubles as tick traffic, so the
    // tick-handler histograms are exercised too.
    let rep_a = spawn_obs_reporter(&runtime_a, "obs.node-a", "monitor-agent", T / 100)
        .expect("reporter A spawns");
    let rep_b = spawn_obs_reporter(&runtime_b, "obs.node-b", "monitor-agent", T / 100)
        .expect("reporter B spawns");
    let mrq = spawn_mrq_agent_on(
        &runtime_a,
        MrqSpec {
            name: "mrq-agent".into(),
            address: "tcp://mrq.mcc.com:6000".into(),
            brokers: brokers.clone(),
            ontologies: vec![Arc::clone(&ontology)],
            timeout: T,
        },
    )
    .expect("mrq spawns");
    // ra-c1 advertises to broker-1 (its node's broker), ra-c2 to
    // broker-2 — so finding the *other* class always takes an
    // inter-broker hop over the socket.
    let ra1 = spawn_resource_agent_on(
        &runtime_a,
        resource_spec("ra-c1", "C1", 6, 7, &ontology, 7001),
        &brokers[..1],
        T,
    )
    .expect("ra-c1 spawns");
    let ra2 = spawn_resource_agent_on(
        &runtime_b,
        resource_spec("ra-c2", "C2", 8, 42, &ontology, 7002),
        &brokers[1..],
        T,
    )
    .expect("ra-c2 spawns");

    // --- §4 walkthrough: discovery crosses brokers, hence nodes. -------
    // Capability-digest updates ride asynchronously behind the resource
    // agents' advertise acks; wait until each broker's view of its peer
    // has caught up before asserting on routing decisions.
    let deadline = Instant::now() + T;
    loop {
        let b1_sees = b1.peer_digest_epoch("broker-2") == Some(b2.with_repository(|r| r.epoch()));
        let b2_sees = b2.peer_digest_epoch("broker-1") == Some(b1.with_repository(|r| r.epoch()));
        if b1_sees && b2_sees {
            break;
        }
        assert!(Instant::now() < deadline, "digest propagation stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut probe = transport_a.endpoint("probe").expect("fresh name");
    let c2_query = ServiceQuery::for_agent_type(AgentType::Resource)
        .with_ontology("paper-classes")
        .with_classes(["C2"]);
    let found = query_broker(&mut probe, "broker-1", &c2_query, None, T).expect("answers");
    println!("broker-1 locates C2 collaboratively: {:?}", names(&found));
    assert_eq!(names(&found), ["ra-c2"], "cross-node search finds ra-c2");
    // The identical query again: broker-1's match cache serves the local
    // portion from memory (asserted against the scrape below) and the
    // answer is byte-for-byte the same.
    let again = query_broker(&mut probe, "broker-1", &c2_query, None, T).expect("answers");
    assert_eq!(names(&again), names(&found), "cached answer equals the computed one");
    let local = query_broker(&mut probe, "broker-1", &c2_query, Some(SearchPolicy::local()), T)
        .expect("answers");
    println!("broker-1 locates C2 locally: {:?}", names(&local));
    assert!(local.is_empty(), "ra-c2 is not advertised on broker-1");
    // The inverse question exercises digest-pruned routing: broker-2
    // provably cannot serve C1 (its digest never saw the class), so the
    // default terminal search answers locally without spending a socket
    // round trip — gated below on `broker_digest_pruned_total`.
    let c1_query = ServiceQuery::for_agent_type(AgentType::Resource)
        .with_ontology("paper-classes")
        .with_classes(["C1"]);
    let found = query_broker(&mut probe, "broker-1", &c1_query, None, T).expect("answers");
    assert_eq!(names(&found), ["ra-c1"], "C1 answered from broker-1's own repository");

    // --- Full query pipeline: user on A, data on both nodes. ----------
    let mut user =
        UserAgent::connect_over(Arc::clone(&transport_a), "mhn-user", brokers.clone(), T)
            .expect("user connects");
    for (sql, want) in [("select * from C1", 6), ("select * from C2", 8)] {
        let table = user.submit_sql(sql, Some("paper-classes")).expect("query answers");
        println!("`{sql}` → {} rows (via mrq-agent on node A)", table.len());
        assert_eq!(table.len(), want);
    }

    // --- Standing subscriptions: churn notifications cross the socket. -
    // One C3 subscription per broker, every notification delivered to a
    // `reply-to` watcher endpoint on node A (broker-2's cross a real
    // socket). The scrape gates below require both brokers' subscription
    // counters and notification-latency histograms to move, so this
    // section is load-bearing for the metrics plane.
    let mut watcher = transport_a.endpoint("sub-watcher").expect("fresh name");
    let c3_query = ServiceQuery::for_agent_type(AgentType::Resource)
        .with_ontology("paper-classes")
        .with_classes(["C3"]);
    for (broker, agent) in [("broker-1", "ra-c3-a"), ("broker-2", "ra-c3-b")] {
        let key = subscribe_to(&mut probe, broker, &c3_query, "sub-watcher", T)
            .expect("broker answers")
            .expect("subscription admitted");
        let snap = watcher.recv_timeout(T).expect("initial snapshot notification");
        assert_eq!(snap.message.in_reply_to(), Some(key.as_str()), "snapshot carries the sub key");
        let ad = Advertisement::new(AgentLocation::new(agent, "tcp://h:7003", AgentType::Resource))
            .with_semantic(
                SemanticInfo::default()
                    .with_content(OntologyContent::new("paper-classes").with_classes(["C3"])),
            );
        assert!(advertise_to(&mut probe, broker, &ad, T).expect("broker answers"));
        let note = watcher.recv_timeout(T).expect("join notification");
        let (_, matched, _) =
            codec::sub_delta_from_sexpr(note.message.content().expect("delta")).expect("decodes");
        assert_eq!(names(&matched), [agent], "join delta carries only the new agent");
        assert!(unadvertise_from(&mut probe, broker, agent, T).expect("broker answers"));
        let note = watcher.recv_timeout(T).expect("leave notification");
        let (_, _, unmatched) =
            codec::sub_delta_from_sexpr(note.message.content().expect("delta")).expect("decodes");
        assert_eq!(unmatched, [agent], "leave delta names only the departed agent");
        println!("{broker}: standing C3 subscription saw {agent} join and leave");
    }

    // --- Fleet health: watermark alerts through the broker itself. ----
    // A health publisher per node samples its runtime's metrics and
    // advertises `broker_health` / `health_alert` facts into its own
    // broker (DESIGN.md §16). A standing subscription on the
    // `health_alert` class must see the alert fact advertised when the
    // queue-depth watermark fires, and withdrawn when it clears — over
    // the exact same indexed sub-delta path as the C3 churn above.
    let hp_a = spawn_health_publisher(
        &runtime_a,
        HealthPublisherConfig::new("broker-1")
            .with_monitor("monitor-agent")
            .with_interval(Duration::from_secs(3600)),
    )
    .expect("health publisher A spawns");
    let hp_b = spawn_health_publisher(
        &runtime_b,
        HealthPublisherConfig::new("broker-2")
            .with_monitor("monitor-agent")
            .with_interval(Duration::from_secs(3600)),
    )
    .expect("health publisher B spawns");
    let mut health_watcher = transport_a.endpoint("health-watcher").expect("fresh name");
    let alert_query = ServiceQuery::for_agent_type(AgentType::Monitor)
        .with_ontology("infosleuth-obs")
        .with_classes(["health_alert"])
        .with_constraints(Conjunction::from_predicates(vec![Predicate::eq(
            "health_alert.severity",
            "warning",
        )]));
    let alert_key = subscribe_to(&mut probe, "broker-1", &alert_query, "health-watcher", T)
        .expect("broker answers")
        .expect("alert subscription admitted");
    let snap = health_watcher.recv_timeout(T).expect("initial alert snapshot");
    assert_eq!(snap.message.in_reply_to(), Some(alert_key.as_str()));
    // Two healthy baseline ticks, then two breaching ticks: the default
    // queue-depth watermark (> 100) fires on the second breach.
    let depth_a = runtime_a.obs().registry().gauge("runtime_queue_depth", &[]);
    for _ in 0..2 {
        hp_a.publish();
        hp_b.publish();
    }
    depth_a.set(500);
    hp_a.publish();
    hp_a.publish();
    let note = health_watcher.recv_timeout(T).expect("health alert tell never arrived");
    let (_, fired, _) =
        codec::sub_delta_from_sexpr(note.message.content().expect("delta")).expect("decodes");
    assert_eq!(
        names(&fired),
        ["alert.broker-1.queue-depth"],
        "the alert fact crossed the watermark"
    );
    println!("broker-1: health_alert subscription saw the queue-depth watermark fire");
    // Recovery: two clear ticks withdraw the alert fact.
    depth_a.set(0);
    hp_a.publish();
    hp_a.publish();
    let note = health_watcher.recv_timeout(T).expect("alert clear tell never arrived");
    let (_, _, cleared) =
        codec::sub_delta_from_sexpr(note.message.content().expect("delta")).expect("decodes");
    assert_eq!(cleared, ["alert.broker-1.queue-depth"], "the alert fact cleared");
    println!("broker-1: health_alert subscription saw the watermark clear");

    // --- Observability gate 1: one connected cross-agent trace. -------
    // Dispatch spans close a beat after the requester has its reply;
    // give them a moment, then force a flush from both nodes and wait
    // for the monitor to file everything.
    std::thread::sleep(Duration::from_millis(200));
    rep_a.flush();
    rep_b.flush();
    let deadline = Instant::now() + T;
    while Instant::now() < deadline
        && (monitor.snapshot_sources().len() < 2 || monitor.spans().is_empty())
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    println!("monitor aggregates sources: {:?}", monitor.snapshot_sources());
    assert!(monitor.snapshot_sources().len() >= 2, "both node reporters reached the monitor");
    let tree = retrieve_connected_trace(&mut probe).expect(
        "the monitor can reconstruct one connected trace tree spanning \
         user query → broker → resource agent",
    );
    println!("cross-agent trace: {}", infosleuth_core::obs::topology(&tree));

    // --- Observability gate 2: the scrape speaks Prometheus. ----------
    let text = scrape(&scrape_addr.to_string(), T).expect("scrape answers");
    let matches = sample_total(&text, "broker_match_requests_total");
    println!("scrape: {} lines, broker_match_requests_total = {matches}", text.lines().count());
    assert!(matches > 0.0, "broker_match_requests_total is zero in:\n{text}");
    let cache_hits = labeled_total(&text, "broker_match_cache_total", "event=\"hit\"");
    let cache_misses = labeled_total(&text, "broker_match_cache_total", "event=\"miss\"");
    println!("scrape: match cache hits = {cache_hits}, misses = {cache_misses}");
    assert!(cache_hits >= 1.0, "the repeated C2 query never hit the match cache:\n{text}");
    assert!(cache_misses >= 1.0, "first-time queries must count as cache misses:\n{text}");
    // Digest-pruned routing must be visible on the scrape: the C1 query
    // above skipped the broker-2 forward on digest evidence alone.
    let digest_pruned = sample_total(&text, "broker_digest_pruned_total");
    println!("scrape: broker_digest_pruned_total = {digest_pruned}");
    assert!(digest_pruned >= 1.0, "no digest-pruned forward visible in scrape:\n{text}");
    let sub_notes = sample_total(&text, "broker_sub_notifications_total");
    println!("scrape: broker_sub_notifications_total = {sub_notes}");
    assert!(sub_notes >= 4.0, "subscription churn produced no notifications in:\n{text}");
    // The TCP transport's metrics must reach the merged scrape: every
    // send counts into transport_send_total, so zero means the
    // transport's metrics were never attached or never merged.
    let sends = sample_total(&text, "transport_send_total");
    println!("scrape: transport_send_total = {sends}");
    assert!(sends > 0.0, "transport_send_total is zero in:\n{text}");
    // Every registered histogram must have observations — including each
    // broker's broker_sub_notify_seconds, fed by the churn above.
    let empty = empty_histograms(&text);
    assert!(empty.is_empty(), "empty histograms in scrape: {empty:?}\n{text}");
    // The fleet-health plane must be visible with per-broker labels:
    // each publisher mirrors its roll-up into broker_health_level, and
    // the fired-then-cleared queue-depth watermark counted two warning
    // transitions on broker-1.
    for broker in ["broker-1", "broker-2"] {
        let label = format!("broker=\"{broker}\"");
        assert!(
            text.lines().any(|l| l.starts_with("broker_health_level{") && l.contains(&label)),
            "scrape lacks broker_health_level for {broker}:\n{text}"
        );
    }
    let warnings = labeled_total(&text, "broker_health_alerts_total", "broker=\"broker-1\"");
    println!("scrape: broker_health_alerts_total{{broker-1}} = {warnings}");
    assert!(warnings >= 2.0, "fire + clear transitions missing from scrape:\n{text}");
    // The conformance counters must be present (both node taps reported
    // through the reporters) and at zero: the whole run conducted only
    // well-formed conversations.
    assert!(
        text.contains("protocol_violations_total"),
        "protocol_violations_total missing from scrape:\n{text}"
    );
    let scraped_violations = sample_total(&text, "protocol_violations_total");
    println!("scrape: protocol_violations_total = {scraped_violations}");

    // --- Conformance gate: no IS05x violations on either node. --------
    let protocol_violations = tap_a.total_violations() + tap_b.total_violations();
    for d in tap_a.violations().iter().chain(tap_b.violations().iter()) {
        eprintln!("protocol violation: {}: {}", d.code.as_str(), d.message);
    }
    println!(
        "protocol violations: node A {} / node B {} (open conversations: {} / {})",
        tap_a.total_violations(),
        tap_b.total_violations(),
        tap_a.open_conversations(),
        tap_b.open_conversations(),
    );

    // --- Smoke gate: the whole run must be delivery-failure free. -----
    let reported = monitor.delivery_failure_reports() as u64;
    let counted = b1.delivery_failures()
        + b2.delivery_failures()
        + mrq.delivery_failures()
        + ra1.delivery_failures()
        + ra2.delivery_failures()
        + monitor.delivery_failures();
    println!("delivery failures: {counted} counted locally, {reported} reported to monitor");

    hp_a.stop();
    hp_b.stop();
    b1.stop();
    b2.stop();
    mrq.stop();
    ra1.stop();
    ra2.stop();
    rep_a.stop();
    rep_b.stop();
    monitor.stop();
    runtime_a.shutdown();
    runtime_b.shutdown();

    if counted + reported > 0 {
        eprintln!("FAIL: {} delivery failure(s) during the walkthrough", counted + reported);
        return ExitCode::FAILURE;
    }
    if protocol_violations + scraped_violations as u64 > 0 {
        eprintln!("FAIL: {protocol_violations} conversation-protocol violation(s)");
        return ExitCode::FAILURE;
    }
    println!(
        "distributed walkthrough matched the in-proc behavior; no lost messages, \
         no protocol violations."
    );
    ExitCode::SUCCESS
}

fn names(matches: &[infosleuth_core::broker::MatchResult]) -> Vec<&str> {
    let mut names: Vec<&str> = matches.iter().map(|m| m.name.as_str()).collect();
    names.sort();
    names
}

/// Asks the monitor (over KQML, like any agent would) for its trace ids,
/// then pulls each trace's spans until it finds one that reassembles
/// into a *single* tree crossing at least three agents.
fn retrieve_connected_trace(probe: &mut infosleuth_core::agent::Endpoint) -> Option<SpanNode> {
    let ask = |content: SExpr| {
        Message::new(Performative::AskAll).with_ontology(LOG_ONTOLOGY).with_content(content)
    };
    let reply = probe
        .request("monitor-agent", ask(SExpr::list(vec![SExpr::atom("traces")])), T)
        .expect("monitor lists traces");
    let ids: Vec<String> = reply
        .content()
        .and_then(SExpr::as_list)
        .map(|l| l.iter().skip(1).filter_map(|e| e.as_text().map(str::to_string)).collect())
        .unwrap_or_default();
    for id in &ids {
        let reply = probe
            .request(
                "monitor-agent",
                ask(SExpr::list(vec![SExpr::atom("trace"), SExpr::atom(id)])),
                T,
            )
            .expect("monitor returns a trace");
        let spans: Vec<SpanRecord> = reply
            .content()
            .and_then(SExpr::as_list)
            .map(|l| l.iter().skip(1).filter_map(SpanRecord::from_sexpr).collect())
            .unwrap_or_default();
        let Some(trace) = spans.first().map(|r| r.trace) else { continue };
        let mut roots = build_trace_tree(&spans, trace);
        if roots.len() == 1 && distinct_agents(&roots[0]).len() >= 3 {
            return Some(roots.remove(0));
        }
    }
    None
}

fn distinct_agents(node: &SpanNode) -> BTreeSet<&str> {
    let mut agents: BTreeSet<&str> = BTreeSet::new();
    agents.insert(node.agent.as_str());
    for child in &node.children {
        agents.extend(distinct_agents(child));
    }
    agents
}

/// Sum of every sample of a counter family in Prometheus text, across
/// all label sets.
fn sample_total(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Sum of a counter family's samples restricted to label sets containing
/// `label` verbatim (e.g. `event="hit"`).
fn labeled_total(text: &str, family: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| l.strip_prefix(family).is_some_and(|rest| rest.starts_with('{')))
        .filter(|l| l.contains(label))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Histogram series whose `_count` sample is zero — i.e. registered but
/// never observed. The exposition only uses the `_count` suffix for
/// histograms, so this needs no TYPE lookup.
fn empty_histograms(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|l| {
            let (metric, value) = l.rsplit_once(' ')?;
            let name = metric.split('{').next()?;
            if name.ends_with("_count") && value.parse::<f64>() == Ok(0.0) {
                Some(metric.to_string())
            } else {
                None
            }
        })
        .collect()
}
