//! Correctness oracles for the hot-path machinery: candidate narrowing,
//! the posted terms, the direct model probe and the match cache, which a
//! repository mutated behind its back drops at the next lookup, must all
//! be *invisible* — every fast path returns exactly what
//! the serial linear scan over the reference model returns, on every
//! repository shape (randomized churn, derived rules, held snapshots) and
//! at every point of the mutation timeline.

use infosleuth_broker::{MatchCache, Matchmaker, Repository};
use infosleuth_constraint::{Conjunction, Predicate};
use infosleuth_ldl::{Atom, Literal, Sym, Term};
use infosleuth_ontology::{
    healthcare_ontology, paper_class_ontology, Advertisement, AgentLocation, AgentType, Capability,
    ConversationType, OntologyContent, SemanticInfo, ServiceQuery, SyntacticInfo,
};

/// The names as the symbols a probe takes: looked up, never interned.
fn syms<const N: usize>(names: [&str; N]) -> [Option<Sym>; N] {
    names.map(Sym::lookup)
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

fn capability_pool() -> Vec<Capability> {
    vec![
        Capability::query_processing(),
        Capability::relational_query_processing(),
        Capability::select(),
        Capability::join(),
        Capability::subscription(),
        Capability::multiresource_query_processing(),
        Capability::data_mining(),
    ]
}

/// A randomized but always-valid advertisement: capabilities from the
/// standard taxonomy, content drawn from the two registered ontologies.
fn random_ad(rng: &mut XorShift, i: usize) -> Advertisement {
    let caps = capability_pool();
    let mut semantic = SemanticInfo::default()
        .with_conversations(match rng.below(3) {
            0 => vec![ConversationType::AskAll],
            1 => vec![ConversationType::AskAll, ConversationType::Subscribe],
            _ => vec![ConversationType::Subscribe, ConversationType::Update],
        })
        .with_capabilities([caps[rng.below(caps.len())].clone()]);
    if rng.below(4) > 0 {
        let classes: Vec<&str> = match rng.below(4) {
            0 => vec!["C1"],
            1 => vec!["C2"],
            2 => vec!["C2a", "C3"],
            _ => vec!["C1", "C2"],
        };
        semantic =
            semantic.with_content(OntologyContent::new("paper-classes").with_classes(classes));
    }
    if rng.below(3) == 0 {
        let lo = rng.below(60) as i64;
        semantic = semantic.with_content(
            OntologyContent::new("healthcare")
                .with_classes(["patient"])
                .with_slots(["patient.age"])
                .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                    "patient.age",
                    lo,
                    lo + 25,
                )])),
        );
    }
    Advertisement::new(AgentLocation::new(
        format!("agent{i}"),
        format!("tcp://h{i}:4000"),
        AgentType::Resource,
    ))
    .with_syntactic(SyntacticInfo::sql_kqml())
    .with_semantic(semantic)
}

fn fresh_repo() -> Repository {
    let mut r = Repository::new();
    r.register_ontology(paper_class_ontology());
    r.register_ontology(healthcare_ontology());
    r
}

/// A randomized query shape, covering every dimension the matchmaker
/// scores on (capability, class, conversation, constraints, truncation,
/// and fully unconstrained).
fn random_query(rng: &mut XorShift) -> ServiceQuery {
    let caps = capability_pool();
    let q = match rng.below(6) {
        0 => ServiceQuery::for_agent_type(AgentType::Resource)
            .with_capability(caps[rng.below(caps.len())].clone()),
        1 => ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes([["C1", "C2", "C2a", "C3"][rng.below(4)]]),
        2 => ServiceQuery::for_agent_type(AgentType::Resource)
            .with_conversation(ConversationType::Subscribe),
        3 => ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("healthcare")
            .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                "patient.age",
                rng.below(40) as i64,
                60,
            )])),
        4 => ServiceQuery::for_agent_type(AgentType::Resource)
            .with_query_language("SQL 2.0")
            .with_capability(caps[rng.below(caps.len())].clone())
            .with_ontology("paper-classes")
            .with_classes(["C2"]),
        _ => ServiceQuery::any(),
    };
    if rng.below(4) == 0 {
        q.one()
    } else {
        q
    }
}

/// The indexed path (candidate pruning) must equal the serial linear scan
/// at every step of a randomized churn.
#[test]
fn indexed_and_probe_paths_equal_linear_over_churn() {
    for seed in [3u64, 977, 0xBEEF] {
        let mut rng = XorShift(seed | 1);
        let mut repo = fresh_repo();
        let mm = Matchmaker::default();
        for i in 0..80 {
            repo.advertise(random_ad(&mut rng, i)).unwrap();
        }
        for step in 0..40 {
            let i = rng.below(80);
            if rng.next() % 2 == 0 {
                repo.advertise(random_ad(&mut rng, i)).unwrap();
            } else {
                repo.unadvertise(&format!("agent{i}"));
            }
            let model = repo.saturated();
            for qi in 0..4 {
                let q = random_query(&mut rng);
                assert_eq!(
                    mm.match_query(&repo, &q),
                    mm.match_query_linear(&repo, &model, &q),
                    "indexed path and linear scan disagree (seed {seed} step {step} query {qi})"
                );
            }
        }
    }
}

/// After every mutation the direct probe the linear scan reads
/// (`Saturated::holds_fact`) must answer what the conjunctive-query
/// evaluator answers for the same ground atom: for every agent that was
/// ever advertised — live, replaced or withdrawn — and one that never was.
#[test]
fn model_probe_equals_holds_after_every_patch() {
    let holds = |model: &infosleuth_ldl::Saturated, pred: &str, names: &[&str]| {
        let args = names.iter().map(|n| Term::constant(*n)).collect();
        model.holds(&[Literal::Pos(Atom::new(pred, args))])
    };
    let mut rng = XorShift(55);
    let mut repo = fresh_repo();
    for step in 0..120 {
        let i = rng.below(30);
        if rng.next() % 100 < 60 {
            repo.advertise(random_ad(&mut rng, i)).unwrap();
        } else {
            repo.unadvertise(&format!("agent{i}"));
        }
        let model = repo.saturated();
        let mut provided = 0;
        for agent in (0..30).map(|i| format!("agent{i}")).chain(["nobody".to_string()]) {
            for cap in capability_pool() {
                let direct = model.holds_fact("provides", syms([&agent, cap.as_str()]));
                assert_eq!(
                    direct,
                    holds(&model, "provides", &[&agent, cap.as_str()]),
                    "step {step}"
                );
                provided += usize::from(direct);
            }
            for class in ["C1", "C2", "C2a", "C3", "no-such-class"] {
                for pred in ["serves_class", "contributes_class"] {
                    assert_eq!(
                        model.holds_fact(pred, syms([&agent, "paper-classes", class])),
                        holds(&model, pred, &[&agent, "paper-classes", class]),
                        "{pred}({agent}, paper-classes, {class}) at step {step}"
                    );
                }
            }
        }
        assert_eq!(provided > 0, !repo.is_empty(), "every live agent provides its own capability");
    }
}

/// The cached path must be transparent across mutation epochs: every
/// answer — hit or miss — equals a fresh linear scan at that instant,
/// and entries cached before a mutation are never served after it.
#[test]
fn cached_path_equals_linear_across_epochs() {
    for seed in [21u64, 1031] {
        let mut rng = XorShift(seed | 1);
        let mut repo = fresh_repo();
        let mm = Matchmaker::default();
        let cache = MatchCache::new(64);
        for i in 0..60 {
            repo.advertise(random_ad(&mut rng, i)).unwrap();
        }
        // A fixed query set re-issued across epochs guarantees both cache
        // hits (same epoch) and stale drops (after a mutation).
        let queries: Vec<ServiceQuery> = (0..6).map(|_| random_query(&mut rng)).collect();
        for round in 0..25 {
            // Issue each query twice per round: the second must hit.
            for (qi, q) in queries.iter().enumerate() {
                for _ in 0..2 {
                    let cached = mm.match_query_cached(&mut repo, &cache, q);
                    let model = repo.saturated();
                    let linear = mm.match_query_linear(&repo, &model, q);
                    assert_eq!(
                        *cached, linear,
                        "cached path diverged (seed {seed} round {round} query {qi})"
                    );
                }
            }
            // Mutate: bumps the epoch, invalidating everything cached.
            let i = rng.below(60);
            if rng.next() % 2 == 0 {
                repo.advertise(random_ad(&mut rng, i)).unwrap();
            } else {
                repo.unadvertise(&format!("agent{i}"));
            }
        }
        let stats = cache.stats();
        assert!(stats.hits >= 25 * 6, "every second issue per round must hit, got {stats:?}");
        assert!(stats.stale > 0, "epoch bumps must drop stale entries, got {stats:?}");
    }
}

/// Derived rules invent facts no advertisement states; what they grant is
/// posted with each advertisement, and the cached path must agree with
/// the linear scan, including for capabilities that only exist through
/// the derived rule.
#[test]
fn cached_path_with_derived_rules_stays_correct() {
    let mut rng = XorShift(91);
    let mut repo = fresh_repo();
    repo.register_derived_rules("cap(A, polling) :- cap(A, subscription).").unwrap();
    let mm = Matchmaker::default();
    let cache = MatchCache::default();
    for i in 0..40 {
        repo.advertise(random_ad(&mut rng, i)).unwrap();
    }
    let derived_q = ServiceQuery::for_agent_type(AgentType::Resource)
        .with_capability(Capability::new("polling"));
    let mut queries: Vec<ServiceQuery> = (0..4).map(|_| random_query(&mut rng)).collect();
    queries.push(derived_q.clone());
    for round in 0..10 {
        for (qi, q) in queries.iter().enumerate() {
            let cached = mm.match_query_cached(&mut repo, &cache, q);
            let model = repo.saturated();
            let linear = mm.match_query_linear(&repo, &model, q);
            assert_eq!(*cached, linear, "derived-rule repo diverged (round {round} query {qi})");
        }
        let i = rng.below(40);
        if rng.next() % 2 == 0 {
            repo.advertise(random_ad(&mut rng, i)).unwrap();
        } else {
            repo.unadvertise(&format!("agent{i}"));
        }
    }
    // The derived capability is reachable only through the rule; the
    // cached path must find the subscribers that imply it.
    let derived = mm.match_query_cached(&mut repo, &cache, &derived_q);
    let subscribers = repo
        .agents()
        .filter(|a| a.semantic.capabilities.contains(&Capability::subscription()))
        .count();
    assert_eq!(derived.len(), subscribers, "every subscriber provides the derived capability");
    let model = repo.saturated();
    for ad in repo.agents() {
        assert_eq!(
            model.holds_fact("provides", syms([&ad.location.name, "polling"])),
            ad.semantic.capabilities.contains(&Capability::subscription()),
            "the probe sees the derived fact of {}",
            ad.location.name
        );
    }
}

/// A model snapshot held across a mutation is the repository as it stood:
/// the mutation builds a new one and leaves the held one alone, and the
/// linear scan over it answers what the indexed path answered then.
#[test]
fn stale_model_snapshot_scores_correctly_without_index() {
    let mut rng = XorShift(7001);
    let mut repo = fresh_repo();
    let mm = Matchmaker::default();
    for i in 0..50 {
        repo.advertise(random_ad(&mut rng, i)).unwrap();
    }
    let then = repo.clone();
    let snapshot = repo.saturated();
    // Mutate underneath the held snapshot.
    repo.advertise(random_ad(&mut rng, 50)).unwrap();
    repo.unadvertise("agent3");
    let fresh = repo.saturated();
    assert!(!std::sync::Arc::ptr_eq(&snapshot, &fresh), "the mutation built a new model");
    assert!(snapshot.holds_fact("agent", syms(["agent3", "resource"])));
    assert!(!fresh.holds_fact("agent", syms(["agent3", "resource"])));
    for qi in 0..8 {
        let q = random_query(&mut rng);
        assert_eq!(
            mm.match_query(&then, &q),
            mm.match_query_linear(&then, &snapshot, &q),
            "stale-snapshot scoring diverged on query {qi}"
        );
    }
}
