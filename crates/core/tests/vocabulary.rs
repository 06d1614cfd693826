//! Vocabulary drift: every section head the protocol's encoders write is a
//! word of the KQML vocabulary, so it is shared by every message instead
//! of allocated in each — on the sender, where the encoder builds the tree,
//! and on a TCP peer, where the reader rebuilds it. A new section whose
//! head was left out of the vocabulary fails here rather than quietly
//! costing an allocation per message.

use infosleuth_core::agent::{spawn_obs_reporter, AgentRuntime, Bus, RuntimeConfig, LOG_ONTOLOGY};
use infosleuth_core::broker::codec::{self, SearchRequest};
use infosleuth_core::broker::{
    health_state_to_sexpr, CapabilityDigest, FollowOption, MatchResult, SearchPolicy,
};
use infosleuth_core::constraint::{Conjunction, Predicate, Value};
use infosleuth_core::kqml::{Message, Performative, SExpr};
use infosleuth_core::obs::{HealthEvent, HealthState, Obs, Severity, SpanId, SpanRecord, TraceId};
use infosleuth_core::ontology::{
    paper_class_ontology, Advertisement, AgentLocation, AgentProperties, AgentType,
    BrokerAdvertisement, ConversationType, Fragment, OntologyContent, SemanticInfo, ServiceQuery,
    SyntacticInfo, ValueType,
};
use infosleuth_core::relquery::{Column, Table};
use infosleuth_core::tablecodec::{table_delta_to_sexpr, table_to_sexpr};
use infosleuth_core::{ontology_agent::ontology_to_sexpr, spawn_monitor_agent_on, MonitorSpec};
use std::time::{Duration, Instant};

/// Sections whose items are rows of data rather than sections: a row's
/// first cell is a value — a column name, a bucket index, a tick, an
/// agent — not a head.
const ROWS_OF: [&str; 4] = ["columns", "delivery-failures", "histogram", "series"];

/// The heads in `e` that are not vocabulary words. A list that does not
/// open with an atom (a label list) holds rows, not sections.
fn unshared_heads(e: &SExpr, out: &mut Vec<String>) {
    let Some(items) = e.as_list() else { return };
    let Some(SExpr::Atom(head)) = items.first() else { return };
    if !head.is_static() {
        out.push(head.to_string());
    }
    if !ROWS_OF.contains(&head.as_str()) {
        items[1..].iter().for_each(|item| unshared_heads(item, out));
    }
}

/// Holds `e` to the rule as built and as a peer reads it back.
fn assert_heads_shared(what: &str, e: &SExpr) {
    for tree in [e.clone(), SExpr::parse(&e.to_string()).unwrap()] {
        let mut unshared = Vec::new();
        unshared_heads(&tree, &mut unshared);
        assert!(unshared.is_empty(), "{what}: heads outside the vocabulary: {unshared:?}");
    }
}

fn advertisement() -> Advertisement {
    let content = OntologyContent::new("healthcare")
        .with_classes(["patient"])
        .with_slots(["patient.age"])
        .with_keys(["patient.id"])
        .with_fragment("patient", Fragment::vertical(["id", "age"]))
        .with_fragment(
            "diagnosis",
            Fragment::horizontal(Conjunction::from_predicates(vec![Predicate::eq(
                "diagnosis.code",
                "40W",
            )])),
        )
        .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
            "patient.age",
            43,
            75,
        )]));
    Advertisement::new(AgentLocation::new("ra5", "tcp://h:1", AgentType::Resource))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(
            SemanticInfo::default()
                .with_conversations([ConversationType::AskAll, ConversationType::Subscribe])
                .with_capabilities(["relational-query-processing"])
                .with_capability_restriction("no aggregation")
                .with_content(content),
        )
        .with_properties(AgentProperties {
            mobile: false,
            cloneable: true,
            estimated_response_time: Some(5.0),
            throughput: Some(2.5),
        })
}

fn digest() -> CapabilityDigest {
    let mut d = CapabilityDigest::empty("b1");
    d.epoch = 12;
    d.ads = 3;
    d.bits = vec![0x0123_4567_89ab_cdef];
    d.slot_hulls.insert("patient.age".into(), (25.0, 65.0));
    d
}

fn service_query() -> ServiceQuery {
    let mut q = ServiceQuery::for_agent_type(AgentType::Resource)
        .with_query_language("SQL 2.0")
        .with_communication_language("KQML")
        .with_conversation(ConversationType::AskAll)
        .with_capability("select")
        .with_ontology("healthcare")
        .with_classes(["patient"])
        .with_slots(["patient.age"])
        .with_constraints(Conjunction::from_predicates(vec![Predicate::ge("patient.age", 40)]))
        .with_max_response_time(10.0)
        .with_mobility(false)
        .with_cloneability(true)
        .one();
    q.agent_name = Some("ra5".into());
    q
}

fn table() -> Table {
    let mut t = Table::new(
        "patient",
        vec![Column::new("id", ValueType::Int), Column::new("name", ValueType::Str)],
    );
    t.push_row(vec![Value::Int(1), Value::str("ann")]).unwrap();
    t
}

/// The log ontology's answers, asked of a live monitor over the bus —
/// which hands the reply's tree over as the monitor built it.
fn monitor_replies() -> Vec<(String, SExpr)> {
    let bus = Bus::new();
    let runtime = AgentRuntime::new(bus.as_transport(), RuntimeConfig::default().with_workers(2));
    let spec = MonitorSpec {
        name: "monitor-agent".into(),
        address: "tcp://monitor.mcc.com:6001".into(),
        brokers: vec![],
        timeout: Duration::from_millis(200),
        scrape_addr: None,
    };
    let monitor = spawn_monitor_agent_on(&runtime, spec).unwrap();
    let reporter =
        spawn_obs_reporter(&runtime, "broker-1", "monitor-agent", Duration::from_secs(3600))
            .unwrap();
    let depth = runtime.obs().registry().gauge("vocab_depth", &[("shard", "0")]);
    depth.set(3);
    reporter.flush();
    depth.set(5);
    reporter.flush();
    let mut client = bus.register("client").unwrap();
    let events = [HealthEvent {
        rule: "depth".into(),
        metric: "vocab_depth".into(),
        severity: Severity::Warning,
        value: 5.0,
        threshold: 4.0,
        firing: true,
        tick: 2,
    }];
    let health = health_state_to_sexpr("broker-1", HealthState::Degraded, 2, &events);
    let tell = Message::new(Performative::Tell).with_ontology(LOG_ONTOLOGY).with_content(health);
    client.send("monitor-agent", tell).unwrap();
    let deadline = Instant::now() + Duration::from_secs(3);
    while (monitor.health_states().is_empty()
        || monitor.metric_history("broker-1", "vocab_depth").is_empty())
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let queries = [
        "(health)",
        "(history broker-1 vocab_depth)",
        "(traces)",
        "(trace 0000000000000001)",
        "(delivery-failures)",
    ];
    let replies = queries
        .iter()
        .map(|q| {
            let ask = Message::new(Performative::AskAll)
                .with_ontology(LOG_ONTOLOGY)
                .with_content(SExpr::parse(q).unwrap());
            let reply = client.request("monitor-agent", ask, Duration::from_secs(2)).unwrap();
            (format!("monitor {q}"), reply.content().cloned().expect("a reply with content"))
        })
        .collect();
    monitor.stop();
    runtime.shutdown();
    replies
}

#[test]
fn every_section_head_the_encoders_write_is_a_vocabulary_word() {
    let ad = advertisement();
    let mut broker = BrokerAdvertisement::new(ad.clone());
    broker.consortia = ["alpha".into()].into();
    broker.specialization.agent_types.insert(AgentType::Resource);
    broker.specialization.ontologies.insert("healthcare".into());
    broker.specialization.restrictions.push("patients only".into());
    let request = SearchRequest {
        query: service_query(),
        policy: SearchPolicy { hop_count: 2, follow: FollowOption::UntilMatch },
        visited: vec!["b2".into()],
        digest_epoch: Some(7),
    };
    let row = MatchResult {
        name: "ra5".into(),
        address: "tcp://h:1".into(),
        score: 5,
        estimated_response_time: Some(5.0),
        ontology: Some("healthcare".into()),
        classes: vec!["patient".into()],
        slots: vec!["patient.age".into()],
        keys: vec!["patient.id".into()],
    };
    let span = SpanRecord {
        trace: TraceId(0xab),
        span: SpanId(0xcd),
        parent: Some(SpanId(0xef)),
        name: "s".into(),
        agent: "a".into(),
        start_unix_micros: 1,
        duration_micros: 2,
    };
    let registry = Obs::new();
    registry.registry().counter("c_total", &[("broker", "b1")]).inc();
    registry.registry().gauge("g", &[]).set(3);
    registry.registry().histogram("h_seconds", &[]).observe(0.25);
    let rows = std::slice::from_ref(&row);
    let mut encoded = vec![
        ("advertisement", codec::advertisement_to_sexpr(&ad)),
        ("broker hello", codec::broker_hello_to_sexpr(&broker, Some(&digest()))),
        ("digest", codec::digest_to_sexpr(&digest())),
        ("broker-search", codec::search_request_to_sexpr(&request)),
        ("matches reply", codec::matches_reply_to_sexpr(rows, Some(&digest()))),
        ("sub-delta", codec::sub_delta_to_sexpr(9, rows, &["ra6".into()])),
        ("metrics", registry.registry().snapshot().to_sexpr()),
        ("span", span.to_sexpr()),
        ("health-state", health_state_to_sexpr("b1", HealthState::Healthy, 1, &[])),
        ("table", table_to_sexpr(&table())),
        ("table delta", table_delta_to_sexpr(&table(), &table())),
        ("ontology", ontology_to_sexpr(&paper_class_ontology())),
    ];
    let monitor = monitor_replies();
    let unanswered: Vec<&String> =
        monitor.iter().filter(|(_, e)| e.as_list().is_none()).map(|(q, _)| q).collect();
    assert!(unanswered.is_empty(), "monitor queries answered in prose: {unanswered:?}");
    for (what, e) in &encoded {
        assert_heads_shared(what, e);
    }
    for (what, e) in &monitor {
        assert_heads_shared(what, e);
    }
    // The rule has teeth: a head nobody added to the vocabulary is caught.
    encoded.push(("stray", SExpr::list([SExpr::atom("no-such-section"), SExpr::atom("x")])));
    let mut unshared = Vec::new();
    unshared_heads(&encoded.last().unwrap().1, &mut unshared);
    assert_eq!(unshared, ["no-such-section"]);
}
