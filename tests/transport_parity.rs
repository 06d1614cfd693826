//! Transport parity: the §4 multibroker walkthrough must behave
//! identically whether the community talks over the in-proc [`Bus`] or
//! over TCP between two nodes. Match results, policy behavior,
//! unadvertise propagation, and final repository state are compared
//! structurally.

use infosleuth_core::agent::{
    AgentRuntime, Bus, RuntimeConfig, TcpTransport, Transport, TransportExt,
};
use infosleuth_core::broker::{
    advertise_to, codec, query_broker, subscribe_to, unadvertise_from, unsubscribe_from,
    BrokerAgent, BrokerConfig, BrokerHandle, FollowOption, Repository, SearchPolicy,
};
use infosleuth_core::obs::{
    build_trace_tree, forest_topology, trace_ids, Obs, RingSink, SpanRecord, SpanSink,
};
use infosleuth_core::ontology::{
    Advertisement, AgentLocation, AgentType, OntologyContent, SemanticInfo, ServiceQuery,
};
use infosleuth_integration_tests::paper_ontology;
use std::sync::Arc;
use std::time::Duration;

const T: Duration = Duration::from_secs(5);

fn repo() -> Repository {
    let mut r = Repository::new();
    r.register_ontology(paper_ontology());
    r
}

fn broker_config(name: &str, port: u16) -> BrokerConfig {
    // Liveness sweeps are disabled: the walkthrough compares discovery
    // behavior, not failure detection (covered elsewhere).
    BrokerConfig::new(name, format!("tcp://{name}.mcc.com:{port}")).with_ping_interval(None)
}

fn resource_ad(name: &str, class: &str) -> Advertisement {
    Advertisement::new(AgentLocation::new(name, "tcp://h:1", AgentType::Resource)).with_semantic(
        SemanticInfo::default()
            .with_content(OntologyContent::new("paper-classes").with_classes([class])),
    )
}

fn class_query(class: &str) -> ServiceQuery {
    ServiceQuery::for_agent_type(AgentType::Resource)
        .with_ontology("paper-classes")
        .with_classes([class])
}

fn sorted_names(matches: Vec<infosleuth_core::broker::MatchResult>) -> Vec<String> {
    let mut names: Vec<String> = matches.into_iter().map(|m| m.name).collect();
    names.sort();
    names
}

/// Everything observable about one walkthrough run, in comparable form.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// Collaborative C2 search through broker-1 then broker-2.
    collaborative_c2: Vec<Vec<String>>,
    /// Local-only C2 search at broker-1 (which does not hold it).
    local_c2_at_b1: Vec<String>,
    /// Until-match C1 search through broker-2.
    until_match_c1: Vec<String>,
    /// Whether broker-1 honored the ra-c3 unadvertise.
    unadvertised: bool,
    /// C3 search through broker-2 after the unadvertise.
    c3_after_unadvertise: Vec<String>,
    /// Per broker: (name, sorted advertised agents, sorted peer brokers).
    repositories: Vec<(String, Vec<String>, Vec<String>)>,
}

/// Runs the §4 walkthrough: three resources advertise unevenly across an
/// interconnected two-broker consortium, then a probe exercises
/// collaborative search, search policies, and unadvertising.
fn run_walkthrough(
    agents_node: &Arc<dyn Transport>,
    b1: &BrokerHandle,
    b2: &BrokerHandle,
) -> Outcome {
    infosleuth_core::broker::interconnect(&[b1, b2]).expect("consortium forms");
    let mut probe = agents_node.endpoint("probe").expect("fresh name");
    // The resource agents exist as live mailboxes; their advertisements
    // land on different brokers (redundancy 1), so cross-broker search
    // requires collaboration.
    let _ra1 = agents_node.endpoint("ra-c1").expect("fresh name");
    let _ra2 = agents_node.endpoint("ra-c2").expect("fresh name");
    let _ra3 = agents_node.endpoint("ra-c3").expect("fresh name");
    for (broker, name, class) in
        [("broker-1", "ra-c1", "C1"), ("broker-2", "ra-c2", "C2"), ("broker-1", "ra-c3", "C3")]
    {
        let accepted =
            advertise_to(&mut probe, broker, &resource_ad(name, class), T).expect("broker answers");
        assert!(accepted, "{name} advertises to {broker}");
    }

    let collaborative_c2 = ["broker-1", "broker-2"]
        .iter()
        .map(|b| {
            sorted_names(
                query_broker(&mut probe, b, &class_query("C2"), None, T).expect("broker answers"),
            )
        })
        .collect();
    let local_c2_at_b1 = sorted_names(
        query_broker(&mut probe, "broker-1", &class_query("C2"), Some(SearchPolicy::local()), T)
            .expect("broker answers"),
    );
    let until_match_c1 = sorted_names(
        query_broker(
            &mut probe,
            "broker-2",
            &class_query("C1").one(),
            Some(SearchPolicy { hop_count: 1, follow: FollowOption::UntilMatch }),
            T,
        )
        .expect("broker answers"),
    );
    let unadvertised =
        unadvertise_from(&mut probe, "broker-1", "ra-c3", T).expect("broker answers");
    let c3_after_unadvertise = sorted_names(
        query_broker(&mut probe, "broker-2", &class_query("C3"), None, T).expect("broker answers"),
    );
    let repositories = [b1, b2]
        .iter()
        .map(|b| {
            b.with_repository(|r| {
                let mut agents: Vec<String> =
                    r.agents().map(|a| a.location.name.to_string()).collect();
                agents.sort();
                let mut peers: Vec<String> =
                    r.peer_brokers().iter().map(|p| p.to_string()).collect();
                peers.sort();
                (b.name().to_string(), agents, peers)
            })
        })
        .collect();
    Outcome {
        collaborative_c2,
        local_c2_at_b1,
        until_match_c1,
        unadvertised,
        c3_after_unadvertise,
        repositories,
    }
}

fn run_over_bus() -> Outcome {
    let bus = Bus::new();
    let b1 =
        BrokerAgent::spawn(&bus, broker_config("broker-1", 5001), repo()).expect("broker-1 spawns");
    let b2 =
        BrokerAgent::spawn(&bus, broker_config("broker-2", 5002), repo()).expect("broker-2 spawns");
    let outcome = run_walkthrough(&bus.as_transport(), &b1, &b2);
    b1.stop();
    b2.stop();
    outcome
}

fn run_over_tcp() -> Outcome {
    // Two nodes on localhost: broker-1 + all non-broker agents on node A,
    // broker-2 alone on node B — every broker conversation crosses a
    // real socket.
    let node_a = TcpTransport::bind("127.0.0.1:0").expect("bind node A");
    let node_b = TcpTransport::bind("127.0.0.1:0").expect("bind node B");
    node_a.add_route("broker-2", node_b.address());
    for agent in ["broker-1", "probe", "ra-c1", "ra-c2", "ra-c3"] {
        node_b.add_route(agent, node_a.address());
    }
    let b1 = BrokerAgent::spawn_over(
        Arc::clone(&node_a) as Arc<dyn Transport>,
        broker_config("broker-1", 5001),
        repo(),
    )
    .expect("broker-1 spawns");
    let b2 = BrokerAgent::spawn_over(
        Arc::clone(&node_b) as Arc<dyn Transport>,
        broker_config("broker-2", 5002),
        repo(),
    )
    .expect("broker-2 spawns");
    let outcome = run_walkthrough(&(Arc::clone(&node_a) as Arc<dyn Transport>), &b1, &b2);
    b1.stop();
    b2.stop();
    outcome
}

/// A broker runtime wired into the tracing plane: each broker gets its
/// own [`Obs`] bundle (as two real nodes would) draining into a ring
/// sink we can read back after the run.
fn traced_runtime(transport: Arc<dyn Transport>) -> (AgentRuntime, Arc<RingSink>) {
    let obs = Obs::new();
    let sink = Arc::new(RingSink::new(4096));
    obs.tracer().add_sink(Arc::clone(&sink) as Arc<dyn SpanSink>);
    let runtime =
        AgentRuntime::new(transport, RuntimeConfig::default().with_workers(4).with_obs(obs));
    (runtime, sink)
}

/// Canonical shape of every trace in a record pile: one topology string
/// per trace id, sorted. Ids and timings are erased, parent/child
/// structure and span names (dispatches + pipeline stages) are kept.
fn trace_topologies(records: &[SpanRecord]) -> Vec<String> {
    let mut tops: Vec<String> = trace_ids(records)
        .into_iter()
        .map(|t| forest_topology(&build_trace_tree(records, t)))
        .collect();
    tops.sort();
    tops
}

fn traced_run_over_bus() -> Vec<String> {
    let bus = Bus::new();
    let (rt1, sink1) = traced_runtime(bus.as_transport());
    let (rt2, sink2) = traced_runtime(bus.as_transport());
    let b1 = infosleuth_core::broker::BrokerAgent::spawn_on(
        &rt1,
        broker_config("broker-1", 5001),
        repo(),
    )
    .expect("broker-1 spawns");
    let b2 = infosleuth_core::broker::BrokerAgent::spawn_on(
        &rt2,
        broker_config("broker-2", 5002),
        repo(),
    )
    .expect("broker-2 spawns");
    run_walkthrough(&bus.as_transport(), &b1, &b2);
    b1.stop();
    b2.stop();
    // Join the worker pools before draining: the final dispatch span
    // drops *after* the requester already has its reply.
    rt1.shutdown();
    rt2.shutdown();
    let mut records = sink1.drain();
    records.extend(sink2.drain());
    trace_topologies(&records)
}

fn traced_run_over_tcp() -> Vec<String> {
    let node_a = TcpTransport::bind("127.0.0.1:0").expect("bind node A");
    let node_b = TcpTransport::bind("127.0.0.1:0").expect("bind node B");
    node_a.add_route("broker-2", node_b.address());
    for agent in ["broker-1", "probe", "ra-c1", "ra-c2", "ra-c3"] {
        node_b.add_route(agent, node_a.address());
    }
    // Collaborative replies come back to broker-1's ephemeral worker
    // endpoints (`broker-1.w<n>`); the node-A prefix route covers them.
    let (rt1, sink1) = traced_runtime(Arc::clone(&node_a) as Arc<dyn Transport>);
    let (rt2, sink2) = traced_runtime(Arc::clone(&node_b) as Arc<dyn Transport>);
    let b1 = infosleuth_core::broker::BrokerAgent::spawn_on(
        &rt1,
        broker_config("broker-1", 5001),
        repo(),
    )
    .expect("broker-1 spawns");
    let b2 = infosleuth_core::broker::BrokerAgent::spawn_on(
        &rt2,
        broker_config("broker-2", 5002),
        repo(),
    )
    .expect("broker-2 spawns");
    run_walkthrough(&(Arc::clone(&node_a) as Arc<dyn Transport>), &b1, &b2);
    b1.stop();
    b2.stop();
    rt1.shutdown();
    rt2.shutdown();
    let mut records = sink1.drain();
    records.extend(sink2.drain());
    trace_topologies(&records)
}

/// The tracing plane must be deployment-invariant too: running the §4
/// walkthrough over the in-proc bus and over two TCP nodes produces the
/// *same set of trace trees* — identical parent/child topology and
/// identical pipeline stage names.
#[test]
fn span_trees_are_transport_agnostic() {
    let over_bus = traced_run_over_bus();
    let over_tcp = traced_run_over_tcp();
    let joined = over_bus.join("\n");
    // The collaborative C2 search shows up as one connected trace that
    // crosses both brokers and exposes every pipeline stage.
    assert!(
        over_bus.iter().any(|t| t.contains("@broker-1") && t.contains("@broker-2")),
        "a collaborative query spans both brokers in one trace:\n{joined}"
    );
    // No "saturation": these brokers have no derived rules, so nothing
    // asks for a model (the repository's own tests trace that stage).
    for stage in ["parse", "analysis", "repository", "scoring"] {
        assert!(joined.contains(stage), "stage '{stage}' is traced:\n{joined}");
    }
    assert!(joined.contains("recv:advertise@broker-1"), "advertises are traced:\n{joined}");
    assert_eq!(over_bus, over_tcp, "span trees differ between bus and TCP");
}

/// Everything observable about the standing-subscription scenario: the
/// admission verdicts and the exact decoded notification sequence the
/// `reply-to` watcher endpoint received.
#[derive(Debug, PartialEq)]
struct SubOutcome {
    /// The vacuous `ServiceQuery::any()` is rejected at admission.
    vacuous_rejected: bool,
    /// `(epoch, sorted matched names, unmatched names)` in arrival order.
    deltas: Vec<(u64, Vec<String>, Vec<String>)>,
    /// Each notification's content as the wire carries it, in arrival
    /// order: a body the broker printed once and a tree a peer parsed print
    /// byte for byte alike.
    texts: Vec<String>,
    /// The cancel round-trip succeeded.
    unsubscribed: bool,
}

/// Registers a standing C2 subscription whose notifications go to a
/// separate `reply-to` watcher endpoint, churns advertisements through the
/// broker (joins, a miss, an update out of scope, a departure), cancels,
/// then churns once more — the post-cancel silence is part of the compared
/// outcome.
fn run_subscription_scenario(
    agents_node: &Arc<dyn Transport>,
    broker: &BrokerHandle,
) -> SubOutcome {
    let mut probe = agents_node.endpoint("sub-probe").expect("fresh name");
    let mut watcher = agents_node.endpoint("sub-watcher").expect("fresh name");
    let b = broker.name();

    let vacuous_rejected = subscribe_to(
        &mut probe,
        b,
        &infosleuth_core::ontology::ServiceQuery::any(),
        "sub-watcher",
        T,
    )
    .expect("broker answers")
    .is_none();
    let key = subscribe_to(&mut probe, b, &class_query("C2"), "sub-watcher", T)
        .expect("broker answers")
        .expect("subscription admitted");

    // Churn: sx-1 joins, sx-miss is out of scope, sx-2 joins, sx-1 drifts
    // out of the subscribed class, sx-2 unadvertises.
    for (name, class) in [("sx-1", "C2"), ("sx-miss", "C1"), ("sx-2", "C2"), ("sx-1", "C3")] {
        let ok = advertise_to(&mut probe, b, &resource_ad(name, class), T).expect("broker answers");
        assert!(ok, "{name} advertises as {class}");
    }
    assert!(unadvertise_from(&mut probe, b, "sx-2", T).expect("broker answers"));

    let unsubscribed =
        unsubscribe_from(&mut probe, b, &key, "sub-watcher", T).expect("broker answers");
    let ok = advertise_to(&mut probe, b, &resource_ad("sx-3", "C2"), T).expect("broker answers");
    assert!(ok, "post-cancel churn is admitted");

    let (mut deltas, mut texts) = (Vec::new(), Vec::new());
    while let Some(env) = watcher.recv_timeout(Duration::from_millis(300)) {
        assert_eq!(
            env.message.in_reply_to(),
            Some(key.as_str()),
            "notification routed by subscription key"
        );
        let (epoch, matched, unmatched) =
            codec::sub_delta_from_sexpr(env.message.content().expect("delta content"))
                .expect("well-formed sub-delta");
        let mut names: Vec<String> = matched.into_iter().map(|m| m.name).collect();
        names.sort();
        deltas.push((epoch, names, unmatched));
        texts.push(env.message.content().expect("delta content").to_string());
    }
    SubOutcome { vacuous_rejected, deltas, texts, unsubscribed }
}

fn run_subscription_over_bus() -> SubOutcome {
    let bus = Bus::new();
    let broker =
        BrokerAgent::spawn(&bus, broker_config("broker-sub", 5003), repo()).expect("broker spawns");
    let outcome = run_subscription_scenario(&bus.as_transport(), &broker);
    broker.stop();
    outcome
}

fn run_subscription_over_tcp() -> SubOutcome {
    // The broker alone on node B; the subscriber and its reply-to watcher
    // on node A — every notification crosses a real socket.
    let node_a = TcpTransport::bind("127.0.0.1:0").expect("bind node A");
    let node_b = TcpTransport::bind("127.0.0.1:0").expect("bind node B");
    node_a.add_route("broker-sub", node_b.address());
    for agent in ["sub-probe", "sub-watcher"] {
        node_b.add_route(agent, node_a.address());
    }
    let broker = BrokerAgent::spawn_over(
        Arc::clone(&node_b) as Arc<dyn Transport>,
        broker_config("broker-sub", 5003),
        repo(),
    )
    .expect("broker spawns");
    let outcome = run_subscription_scenario(&(Arc::clone(&node_a) as Arc<dyn Transport>), &broker);
    broker.stop();
    outcome
}

/// Standing subscriptions are deployment-invariant: admission verdicts,
/// the snapshot, every incremental delta (and the post-cancel silence)
/// arrive identically over the in-proc bus and over TCP, delivered to the
/// `reply-to` endpoint rather than the subscriber's own mailbox.
#[test]
fn standing_subscriptions_are_transport_agnostic() {
    let over_bus = run_subscription_over_bus();
    let over_tcp = run_subscription_over_tcp();
    assert!(over_bus.vacuous_rejected, "vacuous query rejected at admission");
    assert!(over_bus.unsubscribed);
    // Snapshot (empty repo) + sx-1 join + sx-2 join + sx-1 drift +
    // sx-2 departure; nothing for sx-miss or the post-cancel sx-3.
    assert_eq!(over_bus.deltas.len(), 5, "deltas: {:?}", over_bus.deltas);
    assert!(over_bus.deltas[0].1.is_empty() && over_bus.deltas[0].2.is_empty());
    assert_eq!(over_bus.deltas[1].1, vec!["sx-1".to_string()]);
    assert_eq!(over_bus.deltas[2].1, vec!["sx-2".to_string()]);
    assert_eq!(over_bus.deltas[3].2, vec!["sx-1".to_string()]);
    assert_eq!(over_bus.deltas[4].2, vec!["sx-2".to_string()]);
    assert_eq!(over_bus, over_tcp, "subscription outcome differs between bus and TCP");
}

#[test]
fn multibroker_walkthrough_is_transport_agnostic() {
    let over_bus = run_over_bus();
    let over_tcp = run_over_tcp();
    // The walkthrough's own expectations hold...
    assert_eq!(
        over_bus.collaborative_c2,
        vec![vec!["ra-c2".to_string()], vec!["ra-c2".to_string()]],
        "both brokers locate ra-c2 collaboratively"
    );
    assert!(over_bus.local_c2_at_b1.is_empty(), "broker-1 does not hold ra-c2 locally");
    assert_eq!(over_bus.until_match_c1, vec!["ra-c1".to_string()]);
    assert!(over_bus.unadvertised);
    assert!(over_bus.c3_after_unadvertise.is_empty(), "unadvertise is global");
    // ...and the TCP deployment is indistinguishable, repositories
    // included.
    assert_eq!(over_bus, over_tcp);
}

/// Agent names a bare atom cannot carry: a space, parentheses.
const AWKWARD_NAMES: [&str; 2] = ["Resource Agent 5", "a(b)"];

/// Advertises the awkward names, then reports `(names a C2 query
/// returns, names the broker stored)`.
fn run_awkward_names(agents_node: &Arc<dyn Transport>, broker: &BrokerHandle) -> [Vec<String>; 2] {
    let mut probe = agents_node.endpoint("name-probe").expect("fresh name");
    for name in AWKWARD_NAMES {
        let ok = advertise_to(&mut probe, broker.name(), &resource_ad(name, "C2"), T)
            .expect("broker answers");
        assert!(ok, "{name} advertises");
    }
    let found = query_broker(&mut probe, broker.name(), &class_query("C2"), None, T)
        .expect("broker answers");
    let mut stored: Vec<String> =
        broker.with_repository(|r| r.agents().map(|a| a.location.name.to_string()).collect());
    stored.sort();
    [sorted_names(found), stored]
}

/// A name is one value on every transport: what the Bus hands the broker
/// whole, KQML text over TCP carries whole too — quoted, not split into
/// `Resource` and two stray atoms.
#[test]
fn names_a_bare_atom_cannot_carry_are_transport_agnostic() {
    let bus = Bus::new();
    let broker =
        BrokerAgent::spawn(&bus, broker_config("broker-n", 5004), repo()).expect("broker spawns");
    let over_bus = run_awkward_names(&bus.as_transport(), &broker);
    broker.stop();

    let node_a = TcpTransport::bind("127.0.0.1:0").expect("bind node A");
    let node_b = TcpTransport::bind("127.0.0.1:0").expect("bind node B");
    node_a.add_route("broker-n", node_b.address());
    node_b.add_route("name-probe", node_a.address());
    let broker = BrokerAgent::spawn_over(
        Arc::clone(&node_b) as Arc<dyn Transport>,
        broker_config("broker-n", 5004),
        repo(),
    )
    .expect("broker spawns");
    let over_tcp = run_awkward_names(&(Arc::clone(&node_a) as Arc<dyn Transport>), &broker);
    broker.stop();

    let mut expected: Vec<String> = AWKWARD_NAMES.map(String::from).to_vec();
    expected.sort();
    assert_eq!(over_bus, [expected.clone(), expected]);
    assert_eq!(over_bus, over_tcp, "names differ between bus and TCP");
}
