//! Batched-dispatch parity: a broker with `batch_limit > 1` must emit
//! *exactly* the reply and notification sequences of the classic
//! per-message path — same acks, same deltas, same order, same epochs —
//! when both process an identical burst of repository mutations with
//! queries interleaved.
//!
//! Batching only amortizes lock round-trips and transport sends;
//! mutations are still applied one at a time in arrival order, so any
//! sequence divergence is a soundness bug in the batched path.

use infosleuth_core::agent::{AgentRuntime, Bus, RuntimeConfig};
use infosleuth_core::broker::{
    codec, subscribe_to, BrokerAgent, BrokerConfig, BrokerHandle, MatchResult, Repository,
};
use infosleuth_core::constraint::{Conjunction, Predicate};
use infosleuth_core::kqml::{Message, Performative, SExpr};
use infosleuth_core::obs::Obs;
use infosleuth_core::ontology::{
    paper_class_ontology, Advertisement, AgentLocation, AgentType, Capability, ConversationType,
    OntologyContent, SemanticInfo, ServiceQuery, SyntacticInfo,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const T: Duration = Duration::from_secs(5);

/// One decoded `sub-delta` notification: `(epoch, matched, unmatched)`.
type Delta = (u64, Vec<MatchResult>, Vec<String>);

/// Deterministic xorshift64* PRNG — the burst script must be identical
/// for both brokers.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn churn_ad(rng: &mut Rng, name: &str) -> Advertisement {
    let classes = ["C1", "C2", "C2a", "C2b", "C3"];
    let class = classes[rng.below(classes.len() as u64) as usize];
    let caps = [
        Capability::relational_query_processing(),
        Capability::subscription(),
        Capability::query_processing(),
    ];
    let cap = caps[rng.below(caps.len() as u64) as usize].clone();
    let lo = rng.below(80) as i64;
    let hi = lo + 5 + rng.below(40) as i64;
    Advertisement::new(AgentLocation::new(name, "tcp://h:1", AgentType::Resource))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(
            SemanticInfo::default()
                .with_conversations(vec![ConversationType::AskAll])
                .with_capabilities([cap])
                .with_content(
                    OntologyContent::new("paper-classes").with_classes([class]).with_constraints(
                        Conjunction::from_predicates(vec![Predicate::between(
                            format!("{class}.a"),
                            lo,
                            hi,
                        )]),
                    ),
                ),
        )
}

fn standing_queries() -> Vec<ServiceQuery> {
    vec![
        ServiceQuery::any().with_ontology("paper-classes").with_classes(["C1"]),
        ServiceQuery::any().with_ontology("paper-classes").with_classes(["C2"]),
        ServiceQuery::any().with_capability(Capability::relational_query_processing()),
        ServiceQuery::any().with_ontology("paper-classes").with_classes(["C1"]).with_constraints(
            Conjunction::from_predicates(vec![Predicate::between("C1.a", 10, 40)]),
        ),
        ServiceQuery::any().with_ontology("paper-classes"),
    ]
}

struct Side {
    runtime: AgentRuntime,
    obs: Arc<Obs>,
    broker: BrokerHandle,
    client: infosleuth_core::agent::Endpoint,
    watcher: infosleuth_core::agent::Endpoint,
    keys: Vec<String>,
}

fn spawn_side(bus: &Bus, tag: &str, batch_limit: usize) -> Side {
    let mut repo = Repository::new();
    repo.register_ontology(paper_class_ontology());
    let obs = Obs::new();
    // inflight cap 1 serializes dispatch jobs, so cross-job ordering is
    // the mailbox order on both sides and the comparison is exact.
    let runtime = AgentRuntime::new(
        bus.as_transport(),
        RuntimeConfig::default()
            .with_workers(2)
            .with_per_agent_inflight(1)
            .with_obs(Arc::clone(&obs)),
    );
    let broker = BrokerAgent::spawn_on(
        &runtime,
        BrokerConfig::new(format!("broker-{tag}"), format!("tcp://{tag}.mcc.com:5600"))
            .with_ping_interval(None)
            .with_batch_limit(batch_limit),
        repo,
    )
    .unwrap();
    let client = bus.register(format!("client-{tag}")).unwrap();
    let watcher = bus.register(format!("watch-{tag}")).unwrap();
    Side { runtime, obs, broker, client, watcher, keys: Vec::new() }
}

impl Side {
    fn subscribe_all(&mut self) {
        let broker = self.broker.name().to_string();
        let watcher = self.watcher.name().to_string();
        for q in standing_queries() {
            let key = subscribe_to(&mut self.client, &broker, &q, &watcher, T)
                .unwrap()
                .expect("subscription admitted");
            self.keys.push(key);
        }
    }

    /// Fire-and-forget: queue `msg` for the broker without waiting for
    /// the reply, so the broker's mailbox accumulates and batches form.
    fn blast(&self, msg: Message) {
        self.client.send(self.broker.name(), msg).unwrap();
    }

    /// Waits until the client has received `n` replies, returning them
    /// as comparable `(performative, in-reply-to, content)` rows in
    /// arrival order.
    fn collect_replies(&mut self, n: usize) -> Vec<(String, String, String)> {
        let mut rows = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while rows.len() < n && Instant::now() < deadline {
            if let Some(env) = self.client.recv_timeout(Duration::from_millis(200)) {
                let m = &env.message;
                rows.push((
                    m.performative.to_string(),
                    m.in_reply_to().unwrap_or("").to_string(),
                    m.content().map(|c| c.to_string()).unwrap_or_default(),
                ));
            }
        }
        assert_eq!(rows.len(), n, "missing replies");
        rows
    }

    /// Drains the watcher inbox, grouping decoded deltas per
    /// subscription (by registration position) in arrival order.
    fn drain_deltas(&mut self) -> BTreeMap<usize, Vec<Delta>> {
        let mut by_sub: BTreeMap<usize, Vec<_>> = BTreeMap::new();
        while let Some(env) = self.watcher.recv_timeout(Duration::from_millis(200)) {
            let msg: &Message = &env.message;
            let key = msg.in_reply_to().expect("notification carries :in-reply-to");
            let pos = self
                .keys
                .iter()
                .position(|k| k == key)
                .unwrap_or_else(|| panic!("unknown subscription key {key}"));
            let delta = codec::sub_delta_from_sexpr(msg.content().expect("delta content"))
                .expect("well-formed sub-delta");
            by_sub.entry(pos).or_default().push(delta);
        }
        by_sub
    }
}

#[test]
fn batched_and_per_message_sequences_are_identical() {
    let bus = Bus::new();
    let mut solo = spawn_side(&bus, "solo", 1);
    let mut bat = spawn_side(&bus, "bat", 8);
    solo.subscribe_all();
    bat.subscribe_all();

    // One deterministic burst script, rendered once and sent to both
    // brokers message-for-message.
    let mut rng = Rng(0x0bad_cafe_5eed_0007);
    let mut live: Vec<String> = Vec::new();
    let mut script: Vec<Message> = Vec::new();
    for step in 0..90u32 {
        let tag = format!("m{step}");
        let msg = if step % 9 == 8 {
            // Interleaved query: splits a mutation run inside a batch.
            Message::new(Performative::AskAll).with_ontology("infosleuth-service").with_content(
                codec::service_query_to_sexpr(&ServiceQuery::any().with_ontology("paper-classes")),
            )
        } else if rng.below(3) != 0 || live.is_empty() {
            let name = format!("ra{}", rng.below(16));
            let ad = churn_ad(&mut rng, &name);
            if !live.contains(&name) {
                live.push(name);
            }
            Message::new(Performative::Advertise)
                .with_ontology("infosleuth-service")
                .with_content(codec::advertisement_to_sexpr(&ad))
        } else {
            let name = live.remove(rng.below(live.len() as u64) as usize);
            Message::new(Performative::Unadvertise).with_content(SExpr::atom(&name))
        };
        script.push(msg.with("reply-with", SExpr::atom(&tag)));
    }

    for msg in &script {
        solo.blast(msg.clone());
        bat.blast(msg.clone());
    }

    let solo_replies = solo.collect_replies(script.len());
    let bat_replies = bat.collect_replies(script.len());
    assert_eq!(solo_replies, bat_replies, "reply sequences diverged");

    let solo_deltas = solo.drain_deltas();
    let bat_deltas = bat.drain_deltas();
    assert_eq!(
        solo_deltas.keys().collect::<Vec<_>>(),
        bat_deltas.keys().collect::<Vec<_>>(),
        "different subscriptions were notified"
    );
    for (pos, solo_seq) in &solo_deltas {
        assert_eq!(
            solo_seq, &bat_deltas[pos],
            "notification sequence diverged for subscription #{pos}"
        );
    }
    let total: usize = solo_deltas.values().map(Vec::len).sum();
    assert!(total > solo.keys.len(), "burst produced too few notifications: {total}");

    // The batched side must actually have coalesced: fewer dispatch jobs
    // than messages handled (subscriptions were serialized request/reply,
    // the burst was not).
    let jobs = bat.obs.registry().histogram("runtime_batch_size", &[]).count();
    let messages = (solo.keys.len() + script.len()) as u64;
    assert!(jobs < messages, "no batching occurred: {jobs} jobs for {messages} messages");

    solo.broker.stop();
    bat.broker.stop();
    solo.runtime.shutdown();
    bat.runtime.shutdown();
}
