//! Subscription-notification parity: the inverted-index incremental path
//! must deliver *exactly* the notification sequences of naive full
//! re-evaluation — same deltas, same order, same epochs — under randomized
//! advertisement churn, including a mid-stream derived-rule registration
//! (which disables index pruning on both sides).
//!
//! The index only prunes which subscriptions get re-scored; a false
//! positive re-scores and produces an empty delta (suppressed on both
//! paths), so any sequence divergence is a soundness bug.

use infosleuth_core::agent::Bus;
use infosleuth_core::broker::{
    advertise_to, codec, subscribe_to, unadvertise_from, BrokerAgent, BrokerConfig, BrokerHandle,
    MatchResult, Repository,
};
use infosleuth_core::constraint::{Conjunction, Predicate};
use infosleuth_core::kqml::Message;
use infosleuth_core::ontology::{
    paper_class_ontology, Advertisement, AgentLocation, AgentType, Capability, ConversationType,
    OntologyContent, SemanticInfo, ServiceQuery, SyntacticInfo,
};
use std::collections::BTreeMap;
use std::time::Duration;

const T: Duration = Duration::from_secs(5);

/// One decoded `sub-delta` notification: `(epoch, matched, unmatched)`.
type Delta = (u64, Vec<MatchResult>, Vec<String>);

/// Deterministic xorshift64* PRNG — the churn script must be identical for
/// both brokers across runs.
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
    let window = |rng: &mut Rng| {
        let lo = rng.below(80) as i64;
        let hi = lo + 5 + rng.below(40) as i64;
        OntologyContent::new("paper-classes").with_classes([class]).with_constraints(
            Conjunction::from_predicates(vec![Predicate::between(format!("{class}.a"), lo, hi)]),
        )
    };
    let mut semantic = SemanticInfo::default().with_content(window(rng));
    // One ad in three holds a second record with a window of its own: the
    // index may rule a subscription out only against the union of both.
    if rng.below(3) == 0 {
        semantic = semantic.with_content(window(rng));
    }
    let convs = if rng.below(2) == 0 {
        vec![ConversationType::AskAll]
    } else {
        vec![ConversationType::AskAll, ConversationType::Subscribe]
    };
    Advertisement::new(AgentLocation::new(name, "tcp://h:1", AgentType::Resource))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(semantic.with_conversations(convs).with_capabilities([cap]))
}

/// The standing subscriptions under test: one per index dimension (class,
/// hierarchy class, capability, agent name, constraint windows,
/// conversation, bare ontology).
fn standing_queries() -> Vec<ServiceQuery> {
    vec![
        ServiceQuery::any().with_ontology("paper-classes").with_classes(["C1"]),
        ServiceQuery::any().with_ontology("paper-classes").with_classes(["C2"]),
        ServiceQuery::any().with_capability(Capability::relational_query_processing()),
        {
            let mut q = ServiceQuery::any();
            q.agent_name = Some("ra7".into());
            q
        },
        ServiceQuery::any().with_ontology("paper-classes").with_classes(["C1"]).with_constraints(
            Conjunction::from_predicates(vec![Predicate::between("C1.a", 10, 40)]),
        ),
        ServiceQuery::any().with_ontology("paper-classes").with_constraints(
            Conjunction::from_predicates(vec![Predicate::between("C3.a", 60, 90)]),
        ),
        ServiceQuery::any().with_conversation(ConversationType::Subscribe),
        ServiceQuery::any().with_ontology("paper-classes"),
    ]
}

struct Side {
    broker: BrokerHandle,
    client: infosleuth_core::agent::Endpoint,
    watcher: infosleuth_core::agent::Endpoint,
    /// Subscription keys in registration order.
    keys: Vec<String>,
}

fn spawn_side(bus: &Bus, tag: &str, indexed: bool) -> Side {
    let mut repo = Repository::new();
    repo.register_ontology(paper_class_ontology());
    let broker = BrokerAgent::spawn(
        bus,
        BrokerConfig::new(format!("broker-{tag}"), format!("tcp://{tag}.mcc.com:5500"))
            .with_ping_interval(None)
            .with_subscription_index(indexed),
        repo,
    )
    .unwrap();
    let client = bus.register(format!("client-{tag}")).unwrap();
    let watcher = bus.register(format!("watch-{tag}")).unwrap();
    Side { broker, client, watcher, keys: Vec::new() }
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

    /// Drains the watcher inbox and groups decoded deltas per subscription
    /// (by registration position), preserving arrival order.
    fn drain(&mut self) -> BTreeMap<usize, Vec<Delta>> {
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
fn indexed_and_naive_notification_sequences_are_identical() {
    let bus = Bus::new();
    let mut idx = spawn_side(&bus, "idx", true);
    let mut nav = spawn_side(&bus, "nav", false);
    idx.subscribe_all();
    nav.subscribe_all();

    let mut rng = Rng(0x5eed_cafe_d00d_0042);
    let mut live: Vec<String> = Vec::new();
    for step in 0..120 {
        // Halfway through, register a derived rule out-of-band on both
        // brokers: index pruning turns off, full re-evaluation on every
        // later event — and both sides must notice existing matches shift.
        if step == 60 {
            for side in [&idx, &nav] {
                side.broker.with_repository(|r| {
                    r.register_derived_rules("cap(A, subscription) :- agent(A, resource).").unwrap()
                });
                side.broker.resync_subscriptions();
            }
        }
        let op = rng.below(3);
        if op == 0 || live.is_empty() {
            // Advertise a fresh agent or re-advertise (update) a live one.
            let name = format!("ra{}", rng.below(20));
            let ad = churn_ad(&mut rng, &name);
            let a = advertise_to(&mut idx.client, idx.broker.name(), &ad, T).unwrap();
            let b = advertise_to(&mut nav.client, nav.broker.name(), &ad, T).unwrap();
            assert_eq!(a, b, "admission diverged for {name}");
            if a && !live.contains(&name) {
                live.push(name);
            }
        } else {
            let name = live.remove(rng.below(live.len() as u64) as usize);
            let a = unadvertise_from(&mut idx.client, idx.broker.name(), &name, T).unwrap();
            let b = unadvertise_from(&mut nav.client, nav.broker.name(), &name, T).unwrap();
            assert_eq!(a, b, "unadvertise diverged for {name}");
        }
    }

    let got_idx = idx.drain();
    let got_nav = nav.drain();
    assert_eq!(
        got_idx.keys().collect::<Vec<_>>(),
        got_nav.keys().collect::<Vec<_>>(),
        "different subscriptions were notified"
    );
    for (pos, idx_seq) in &got_idx {
        let nav_seq = &got_nav[pos];
        assert_eq!(
            idx_seq,
            nav_seq,
            "notification sequence diverged for subscription #{pos}: \
             indexed {} deltas vs naive {}",
            idx_seq.len(),
            nav_seq.len()
        );
    }
    // The churn actually exercised the subscriptions: every one saw at
    // least its initial snapshot, and most saw real deltas.
    assert_eq!(got_idx.len(), idx.keys.len());
    let total: usize = got_idx.values().map(Vec::len).sum();
    assert!(total > idx.keys.len() * 2, "churn produced too few notifications: {total}");

    idx.broker.stop();
    nav.broker.stop();
}
