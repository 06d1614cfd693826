//! Stored-answer parity: a live broker patches the records a write reaches
//! instead of matching them again, and what it stores and tells must be
//! what naive re-evaluation stores and tells.
//!
//! Randomized churn — advertise, update and unadvertise — runs through a
//! broker on the bus, without a derived rule, under one from the start,
//! and under one registered halfway (which re-matches the table). Standing
//! subscriptions do and do not set `max_matches`, and one query is both
//! asked and subscribed, so an ask's cache entry and a subscription share
//! a record. After every step every record's rows must equal the linear
//! reference scan (`BrokerHandle::stored_answers`), each subscription must
//! read what the oracle last told it, and the asked query must answer
//! what the scan answers. At the end every subscription's delta sequence,
//! and its wire text, must equal the oracle's: a mirror repository whose
//! standing queries are all re-scanned after each mutation and diffed with
//! `result_delta`.

use infosleuth_core::agent::{Bus, Endpoint};
use infosleuth_core::broker::{
    advertise_to, codec, query_broker, result_delta, subscribe_to, unadvertise_from, BrokerAgent,
    BrokerConfig, MatchResult, Matchmaker, Repository, SearchPolicy,
};
use infosleuth_core::constraint::{Conjunction, Predicate};
use infosleuth_core::ontology::{
    paper_class_ontology, Advertisement, AgentLocation, AgentType, Capability, ConversationType,
    OntologyContent, SemanticInfo, ServiceQuery, SyntacticInfo,
};
use std::collections::BTreeMap;
use std::time::Duration;

const T: Duration = Duration::from_secs(5);

const RULE: &str = "cap(A, subscription) :- agent(A, resource).";

/// One `sub-delta`, decoded as `(epoch, matched, unmatched)` and as the
/// wire text of its content.
type Delta = ((u64, Vec<MatchResult>, Vec<String>), String);

/// Deterministic xorshift64*.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }
}

fn churn_ad(rng: &mut Rng, name: &str) -> Advertisement {
    let class = ["C1", "C2", "C2a", "C3"][rng.below(4) as usize];
    let lo = rng.below(80) as i64;
    let content = OntologyContent::new("paper-classes").with_classes([class]).with_constraints(
        Conjunction::from_predicates(vec![Predicate::between(
            format!("{class}.a"),
            lo,
            lo + 5 + rng.below(40) as i64,
        )]),
    );
    let cap = [Capability::relational_query_processing(), Capability::subscription()]
        [rng.below(2) as usize]
        .clone();
    let mut convs = vec![ConversationType::AskAll];
    if rng.below(2) == 0 {
        convs.push(ConversationType::Subscribe);
    }
    Advertisement::new(AgentLocation::new(name, "tcp://h:1", AgentType::Resource))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(
            SemanticInfo::default()
                .with_content(content)
                .with_conversations(convs)
                .with_capabilities([cap]),
        )
}

/// The query asked every step, and subscribed to as well.
fn asked() -> ServiceQuery {
    ServiceQuery::any().with_ontology("paper-classes").with_classes(["C2"])
}

fn cut(query: ServiceQuery, n: usize) -> ServiceQuery {
    ServiceQuery { max_matches: Some(n), ..query }
}

/// Standing queries: whole and cut rankings, a constraint window, a
/// capability only the rule grants some agents, the asked query, and a
/// cut of it reading the same record.
fn standing_queries() -> Vec<ServiceQuery> {
    let c1 = ServiceQuery::any().with_ontology("paper-classes").with_classes(["C1"]);
    let window = ServiceQuery::any()
        .with_ontology("paper-classes")
        .with_classes(["C1"])
        .with_constraints(Conjunction::from_predicates(vec![Predicate::between("C1.a", 10, 40)]));
    let subscription = ServiceQuery::any().with_capability(Capability::subscription());
    vec![
        c1.clone(),
        cut(c1, 2),
        window.clone(),
        cut(window, 1),
        subscription.clone(),
        cut(subscription, 3),
        ServiceQuery::any().with_conversation(ConversationType::Subscribe),
        asked(),
        cut(asked(), 1),
    ]
}

fn seeded_repo(rule: bool) -> Repository {
    let mut repo = Repository::new();
    repo.register_ontology(paper_class_ontology());
    if rule {
        repo.register_derived_rules(RULE).unwrap();
    }
    repo
}

/// Naive re-evaluation over a mirror repository.
struct Oracle {
    repo: Repository,
    /// Each standing query with the rows it was last told.
    subs: Vec<(ServiceQuery, Vec<MatchResult>)>,
    expected: BTreeMap<usize, Vec<Delta>>,
}

impl Oracle {
    fn new(rule: bool) -> Oracle {
        let subs = standing_queries().into_iter().map(|q| (q, Vec::new())).collect();
        let mut oracle = Oracle { repo: seeded_repo(rule), subs, expected: BTreeMap::new() };
        oracle.reevaluate(true);
        oracle
    }

    fn linear(&mut self, query: &ServiceQuery) -> Vec<MatchResult> {
        let model = self.repo.saturated();
        Matchmaker::default().match_query_linear(&self.repo, &model, query)
    }

    /// `snapshot`: a delta is owed even where nothing changed.
    fn reevaluate(&mut self, snapshot: bool) {
        let epoch = self.repo.epoch();
        for pos in 0..self.subs.len() {
            let new = self.linear(&self.subs[pos].0.clone());
            let (matched, unmatched) = result_delta(&self.subs[pos].1, &new);
            if !snapshot && matched.is_empty() && unmatched.is_empty() {
                continue;
            }
            let text = codec::sub_delta_to_sexpr(epoch, &matched, &unmatched).to_string();
            self.expected.entry(pos).or_default().push(((epoch, matched, unmatched), text));
            self.subs[pos].1 = new;
        }
    }
}

/// The watcher's notifications, grouped by subscription position.
fn drain(watcher: &mut Endpoint, keys: &[String]) -> BTreeMap<usize, Vec<Delta>> {
    let mut by_sub: BTreeMap<usize, Vec<Delta>> = BTreeMap::new();
    while let Some(env) = watcher.recv_timeout(Duration::from_millis(200)) {
        let key = env.message.in_reply_to().expect("notification carries :in-reply-to");
        let pos = keys.iter().position(|k| k == key).expect("a known subscription key");
        let content = env.message.content().expect("delta content");
        let delta = codec::sub_delta_from_sexpr(content).expect("well-formed sub-delta");
        by_sub.entry(pos).or_default().push((delta, content.to_string()));
    }
    by_sub
}

/// `rule_at`: `Some(0)` seeds the rule, `Some(step)` registers it through
/// the handle before that step, `None` never.
fn run(seed: u64, rule_at: Option<usize>) {
    let bus = Bus::new();
    let config = BrokerConfig::new("broker", "tcp://broker.mcc.com:5500").with_ping_interval(None);
    let seeded = rule_at == Some(0);
    let broker = BrokerAgent::spawn(&bus, config, seeded_repo(seeded)).unwrap();
    let mut client = bus.register("client").unwrap();
    let mut watcher = bus.register("watcher").unwrap();
    let mut oracle = Oracle::new(seeded);
    let keys: Vec<String> = standing_queries()
        .iter()
        .map(|q| subscribe_to(&mut client, "broker", q, "watcher", T).unwrap().expect("admitted"))
        .collect();
    let mut rng = Rng(seed | 1);
    let mut live: Vec<String> = Vec::new();
    for step in 0..90 {
        if rule_at == Some(step) && step > 0 {
            broker.with_repository(|r| r.register_derived_rules(RULE).unwrap());
            oracle.repo.register_derived_rules(RULE).unwrap();
            oracle.reevaluate(false);
        }
        if rng.below(3) > 0 || live.is_empty() {
            let name = format!("ra{}", rng.below(16));
            let ad = churn_ad(&mut rng, &name);
            let admitted = advertise_to(&mut client, "broker", &ad, T).unwrap();
            assert_eq!(admitted, oracle.repo.advertise(ad).is_ok(), "admission of {name}");
            if admitted && !live.contains(&name) {
                live.push(name);
            }
        } else {
            let name = live.remove(rng.below(live.len() as u64) as usize);
            assert!(unadvertise_from(&mut client, "broker", &name, T).unwrap());
            assert!(oracle.repo.unadvertise(&name));
        }
        oracle.reevaluate(false);

        let views = broker.stored_answers().unwrap_or_else(|e| panic!("step {step}: {e}"));
        assert_eq!(views.len(), keys.len());
        for (subscriber, key, rows) in views {
            assert_eq!(subscriber, "watcher");
            let pos = keys.iter().position(|k| *k == key).expect("a known key");
            assert_eq!(rows, oracle.subs[pos].1, "step {step}: what subscription #{pos} reads");
        }
        let answer =
            query_broker(&mut client, "broker", &asked(), Some(SearchPolicy::local()), T).unwrap();
        assert_eq!(answer, oracle.linear(&asked()), "step {step}: the asked query's answer");
    }

    let got = drain(&mut watcher, &keys);
    assert_eq!(got.keys().collect::<Vec<_>>(), oracle.expected.keys().collect::<Vec<_>>());
    for (pos, deltas) in &got {
        assert_eq!(deltas, &oracle.expected[pos], "delta sequence of subscription #{pos}");
    }
    let total: usize = got.values().map(Vec::len).sum();
    assert!(total > keys.len() * 3, "churn produced too few notifications: {total}");
    broker.stop();
}

#[test]
fn patched_answers_equal_naive_re_evaluation() {
    run(0x5eed_0001, None);
}

#[test]
fn patched_answers_equal_naive_re_evaluation_under_a_rule() {
    run(0x5eed_0002, Some(0));
}

#[test]
fn a_rule_registered_mid_churn_re_matches_the_table() {
    run(0x5eed_0003, Some(45));
}
