//! Subscription-notification parity: the broker's inverted-index
//! incremental path must deliver *exactly* the notification sequences of
//! naive full re-evaluation — same deltas, same order, same epochs, the
//! same wire text — under randomized advertisement churn, including a
//! mid-stream derived-rule registration (which turns index pruning off in
//! the broker).
//!
//! The naive side is an oracle built here, not a broker mode: a mirror
//! `Repository` takes the same mutations, and after each one every
//! standing query is re-evaluated with `match_query_linear` and diffed
//! with the public `result_delta`. The index only prunes which
//! subscriptions get re-scored; a false positive re-scores and produces
//! an empty delta (suppressed on both sides), so any sequence divergence
//! is a soundness bug.

use infosleuth_core::agent::{Bus, Endpoint};
use infosleuth_core::broker::{
    advertise_to, codec, result_delta, subscribe_to, unadvertise_from, BrokerAgent, BrokerConfig,
    MatchResult, Matchmaker, Repository,
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

/// One `sub-delta` notification, decoded as `(epoch, matched, unmatched)`
/// and as the wire text of its content.
type Delta = ((u64, Vec<MatchResult>, Vec<String>), String);

/// Deterministic xorshift64* PRNG — the churn script must be identical
/// across runs.
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

fn seeded_repo() -> Repository {
    let mut repo = Repository::new();
    repo.register_ontology(paper_class_ontology());
    repo
}

/// Drains the watcher inbox and groups decoded deltas per subscription
/// (by position in `keys`, the registration order), preserving arrival
/// order.
fn drain(watcher: &mut Endpoint, keys: &[String]) -> BTreeMap<usize, Vec<Delta>> {
    let mut by_sub: BTreeMap<usize, Vec<_>> = BTreeMap::new();
    while let Some(env) = watcher.recv_timeout(Duration::from_millis(200)) {
        let msg: &Message = &env.message;
        let key = msg.in_reply_to().expect("notification carries :in-reply-to");
        let pos = keys
            .iter()
            .position(|k| k == key)
            .unwrap_or_else(|| panic!("unknown subscription key {key}"));
        let content = msg.content().expect("delta content");
        let delta = codec::sub_delta_from_sexpr(content).expect("well-formed sub-delta");
        by_sub.entry(pos).or_default().push((delta, content.to_string()));
    }
    by_sub
}

/// Naive full re-evaluation: the deltas a broker owes its subscribers if
/// it re-scored every standing query, by the linear scan, after every
/// repository change.
struct Oracle {
    repo: Repository,
    /// Each standing query with the result set last delivered for it.
    subs: Vec<(ServiceQuery, Vec<MatchResult>)>,
    expected: BTreeMap<usize, Vec<Delta>>,
}

impl Oracle {
    /// Subscribes to every standing query: each is owed its snapshot, the
    /// delta against the empty set, even when nothing matches yet.
    fn new() -> Oracle {
        let subs = standing_queries().into_iter().map(|q| (q, Vec::new())).collect();
        let mut oracle = Oracle { repo: seeded_repo(), subs, expected: BTreeMap::new() };
        oracle.reevaluate(true);
        oracle
    }

    /// `snapshot`: a delta is owed even where nothing changed.
    fn reevaluate(&mut self, snapshot: bool) {
        let model = self.repo.saturated();
        for (pos, (query, last)) in self.subs.iter_mut().enumerate() {
            let new = Matchmaker::default().match_query_linear(&self.repo, &model, query);
            let (matched, unmatched) = result_delta(last, &new);
            if !snapshot && matched.is_empty() && unmatched.is_empty() {
                continue;
            }
            let epoch = self.repo.epoch();
            let text = codec::sub_delta_to_sexpr(epoch, &matched, &unmatched).to_string();
            self.expected.entry(pos).or_default().push(((epoch, matched, unmatched), text));
            *last = new;
        }
    }
}

#[test]
fn indexed_and_naive_notification_sequences_are_identical() {
    let bus = Bus::new();
    let broker = BrokerAgent::spawn(
        &bus,
        BrokerConfig::new("broker-idx", "tcp://idx.mcc.com:5500").with_ping_interval(None),
        seeded_repo(),
    )
    .unwrap();
    let mut client = bus.register("client-idx").unwrap();
    let mut watcher = bus.register("watch-idx").unwrap();
    let mut nav = Oracle::new();
    let keys: Vec<String> = standing_queries()
        .iter()
        .map(|q| {
            subscribe_to(&mut client, broker.name(), q, watcher.name(), T)
                .unwrap()
                .expect("subscription admitted")
        })
        .collect();

    let mut rng = Rng(0x5eed_cafe_d00d_0042);
    let mut live: Vec<String> = Vec::new();
    for step in 0..120 {
        // Halfway through, register a derived rule out-of-band: every
        // advertisement is posted again with what the rule grants it, the
        // index keeps pruning on the granted terms — and the broker must
        // notice existing matches shift.
        if step == 60 {
            let rule = "cap(A, subscription) :- agent(A, resource).";
            broker.with_repository(|r| r.register_derived_rules(rule).unwrap());
            nav.repo.register_derived_rules(rule).unwrap();
            nav.reevaluate(false);
        }
        let op = rng.below(3);
        if op == 0 || live.is_empty() {
            // Advertise a fresh agent or re-advertise (update) a live one.
            let name = format!("ra{}", rng.below(20));
            let ad = churn_ad(&mut rng, &name);
            let a = advertise_to(&mut client, broker.name(), &ad, T).unwrap();
            let b = nav.repo.advertise(ad).is_ok();
            assert_eq!(a, b, "admission diverged for {name}");
            if a && !live.contains(&name) {
                live.push(name);
            }
        } else {
            let name = live.remove(rng.below(live.len() as u64) as usize);
            let a = unadvertise_from(&mut client, broker.name(), &name, T).unwrap();
            let b = nav.repo.unadvertise(&name);
            assert_eq!(a, b, "unadvertise diverged for {name}");
        }
        nav.reevaluate(false);
    }

    let got_idx = drain(&mut watcher, &keys);
    let got_nav = nav.expected;
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
    assert_eq!(got_idx.len(), keys.len());
    let total: usize = got_idx.values().map(Vec::len).sum();
    assert!(total > keys.len() * 2, "churn produced too few notifications: {total}");

    broker.stop();
}
