//! Correctness oracles for the matchmaking fast path: `match_query`
//! (candidate pruning through the inverted indexes, subsumption off the
//! closures and the terms derived rules grant when an advertisement is
//! posted) must return exactly what the linear scan over the from-scratch
//! model returns — on the paper's Figure 6/7 walkthrough repositories, and
//! under randomized churn with and without derived rules.

use infosleuth_broker::{
    compile_facts, matchmaking_program_with, CapabilityDigest, Matchmaker, Repository,
};
use infosleuth_constraint::{Conjunction, Predicate};
use infosleuth_ontology::{
    healthcare_ontology, paper_class_ontology, Advertisement, AgentLocation, AgentType, Capability,
    ConversationType, OntologyContent, SemanticInfo, ServiceQuery, SyntacticInfo,
};

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

/// Agent-local rules over both registered ontologies: one grants a
/// capability, one a class.
const RULES: &str = "cap(A, polling) :- cap(A, subscription).\n\
                     class(A, healthcare, provider) :- class(A, healthcare, patient).";

/// The oracle for a repository's reference model: every advertisement
/// compiled and saturated from scratch under the base and [`RULES`].
fn oracle_model(repo: &Repository) -> infosleuth_ldl::Saturated {
    let facts = compile_facts(
        repo.agents(),
        repo.capability_taxonomy(),
        [paper_class_ontology(), healthcare_ontology()].iter(),
    );
    let rules = infosleuth_ldl::parse_rules(RULES).unwrap();
    matchmaking_program_with(rules.rules()).unwrap().saturate(facts).unwrap()
}

/// Under derived rules, matching off the posted terms answers what the
/// linear scan over the from-scratch model answers, after every step of a
/// randomized churn — for the capability and the class only the rules
/// grant, and for what is advertised.
#[test]
fn posted_matching_under_rules_equals_the_from_scratch_oracle_over_churn() {
    let mm = Matchmaker::default();
    let healthcare =
        |class: &str| ServiceQuery::any().with_ontology("healthcare").with_classes([class]);
    let queries = [
        ServiceQuery::any().with_capability(Capability::new("polling")),
        ServiceQuery::any().with_capability(Capability::subscription()),
        ServiceQuery::any().with_capability(Capability::select()),
        healthcare("provider"),
        healthcare("patient"),
        healthcare("provider").with_constraints(Conjunction::from_predicates(vec![
            Predicate::between("patient.age", 30, 40),
        ])),
        ServiceQuery::any().with_ontology("paper-classes").with_classes(["C2"]),
    ];
    // 3 seeds x 350 steps = 1050 randomized advertise/unadvertise steps.
    for seed in [11u64, 4242, 0xC0FFEE] {
        let mut rng = XorShift(seed | 1);
        let mut repo = fresh_repo();
        repo.register_derived_rules(RULES).unwrap();
        let pool = 20;
        let mut granted = 0;
        for step in 0..350 {
            let i = rng.below(pool);
            if rng.next() % 100 < 60 {
                repo.advertise(random_ad(&mut rng, i)).unwrap();
            } else {
                repo.unadvertise(&format!("agent{i}"));
            }
            let model = repo.saturated();
            assert_eq!(model.db(), oracle_model(&repo).db(), "model at seed {seed} step {step}");
            for (qi, q) in queries.iter().enumerate() {
                let posted = mm.match_query(&repo, q);
                assert_eq!(
                    posted,
                    mm.match_query_linear(&repo, &model, q),
                    "query {qi} at seed {seed} step {step}"
                );
                granted += usize::from(qi == 0 && !posted.is_empty());
            }
        }
        assert!(granted > 100, "the rules granted too rarely at seed {seed}: {granted}");
    }
}

/// The §2.2 walkthrough repository: DB1 holds C1+C2, DB2 holds C2+C3,
/// plus one multi-resource query agent.
fn walkthrough_repo() -> Repository {
    let resource = |name: &str, classes: &[&str]| {
        Advertisement::new(AgentLocation::new(name, "tcp://h:1", AgentType::Resource))
            .with_syntactic(SyntacticInfo::sql_kqml())
            .with_semantic(
                SemanticInfo::default()
                    .with_conversations([ConversationType::AskAll])
                    .with_capabilities([Capability::relational_query_processing()])
                    .with_content(
                        OntologyContent::new("paper-classes").with_classes(classes.to_vec()),
                    ),
            )
    };
    let mut r = fresh_repo();
    r.advertise(resource("db1", &["C1", "C2"])).unwrap();
    r.advertise(resource("db2", &["C2", "C3"])).unwrap();
    let mrq =
        Advertisement::new(AgentLocation::new("mrq", "tcp://h:2", AgentType::MultiResourceQuery))
            .with_syntactic(SyntacticInfo::sql_kqml())
            .with_semantic(
                SemanticInfo::default()
                    .with_conversations([ConversationType::AskAll])
                    .with_capabilities([Capability::multiresource_query_processing()]),
            );
    r.advertise(mrq).unwrap();
    r
}

fn walkthrough_queries() -> Vec<ServiceQuery> {
    vec![
        // Figure 6: one multiresource query processing agent.
        ServiceQuery::for_agent_type(AgentType::MultiResourceQuery)
            .with_query_language("SQL 2.0")
            .with_capability(Capability::multiresource_query_processing())
            .one(),
        // Figure 7: resources holding C2, then C3.
        ServiceQuery::for_agent_type(AgentType::Resource)
            .with_query_language("SQL 2.0")
            .with_ontology("paper-classes")
            .with_classes(["C2"]),
        ServiceQuery::for_agent_type(AgentType::Resource)
            .with_query_language("SQL 2.0")
            .with_ontology("paper-classes")
            .with_classes(["C3"]),
        // Capability subsumption via the taxonomy.
        ServiceQuery::for_agent_type(AgentType::Resource).with_capability(Capability::select()),
        // Conversation requirement.
        ServiceQuery::for_agent_type(AgentType::Resource)
            .with_conversation(ConversationType::AskAll),
        // Unprunable: nothing indexed in the query at all.
        ServiceQuery::any(),
    ]
}

#[test]
fn indexed_matchmaking_equals_linear_scan_on_walkthrough() {
    let mut repo = walkthrough_repo();
    let model = repo.saturated();
    let mm = Matchmaker::default();
    for (i, q) in walkthrough_queries().iter().enumerate() {
        assert_eq!(
            mm.match_query(&repo, q),
            mm.match_query_linear(&repo, &model, q),
            "indexed and linear matchmaking disagree on walkthrough query {i}"
        );
    }
    // Sanity: the walkthrough answers themselves are the paper's.
    let m = mm.match_query(&repo, &walkthrough_queries()[1]);
    let names: Vec<&str> = m.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, vec!["db1", "db2"]);
}

#[test]
fn indexed_matchmaking_equals_linear_scan_under_churn() {
    let mut rng = XorShift(2026);
    let mut repo = fresh_repo();
    let mm = Matchmaker::default();
    let caps = capability_pool();
    for i in 0..120 {
        repo.advertise(random_ad(&mut rng, i)).unwrap();
    }
    for step in 0..60 {
        // Churn a little between query batches.
        let i = rng.below(120);
        if rng.next() % 2 == 0 {
            repo.advertise(random_ad(&mut rng, i)).unwrap();
        } else {
            repo.unadvertise(&format!("agent{i}"));
        }
        let model = repo.saturated();
        let queries = [
            ServiceQuery::for_agent_type(AgentType::Resource)
                .with_capability(caps[rng.below(caps.len())].clone()),
            ServiceQuery::for_agent_type(AgentType::Resource)
                .with_ontology("paper-classes")
                .with_classes([["C1", "C2", "C2a", "C3"][rng.below(4)]]),
            ServiceQuery::for_agent_type(AgentType::Resource)
                .with_conversation(ConversationType::Subscribe),
            ServiceQuery::for_agent_type(AgentType::Resource)
                .with_ontology("healthcare")
                .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                    "patient.age",
                    rng.below(40) as i64,
                    60,
                )])),
        ];
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(
                mm.match_query(&repo, q),
                mm.match_query_linear(&repo, &model, q),
                "indexed and linear matchmaking disagree at step {step}, query {qi}"
            );
        }
    }
}

#[test]
fn unprunable_scoring_preserves_order_and_results() {
    // An unprunable query over enough agents that nearly all of them are
    // scored; results must be deterministic and identical to the serial
    // linear scan.
    let mut rng = XorShift(7);
    let mut repo = fresh_repo();
    for i in 0..300 {
        repo.advertise(random_ad(&mut rng, i)).unwrap();
    }
    let model = repo.saturated();
    let mm = Matchmaker::default();
    let q = ServiceQuery::for_agent_type(AgentType::Resource).with_query_language("SQL 2.0");
    let indexed = mm.match_query(&repo, &q);
    assert!(indexed.len() > 100, "query should match most of the repo");
    assert_eq!(indexed, mm.match_query_linear(&repo, &model, &q));
    // Deterministic across runs.
    assert_eq!(indexed, mm.match_query(&repo, &q));
}

#[test]
fn derived_rules_keep_pruning_and_correctness() {
    let mut repo = fresh_repo();
    // Subscription implies pollability — a capability never advertised.
    repo.register_derived_rules("cap(A, polling) :- cap(A, subscription).").unwrap();
    let subscriber =
        Advertisement::new(AgentLocation::new("sub1", "tcp://h:9", AgentType::Resource))
            .with_syntactic(SyntacticInfo::sql_kqml())
            .with_semantic(
                SemanticInfo::default()
                    .with_conversations([ConversationType::Subscribe])
                    .with_capabilities([Capability::subscription()]),
            );
    repo.advertise(subscriber).unwrap();
    let model = repo.saturated();
    let mm = Matchmaker::default();
    let q = ServiceQuery::for_agent_type(AgentType::Resource)
        .with_capability(Capability::new("polling"));
    let m = mm.match_query(&repo, &q);
    assert_eq!(m.len(), 1, "derived capability must still be found");
    assert_eq!(m[0].name, "sub1");
    assert_eq!(m, mm.match_query_linear(&repo, &model, &q));
    // The digest admits the derived capability and prunes the rest.
    let digest = CapabilityDigest::of("b", &repo);
    assert!(digest.can_match(&q));
    assert!(!digest.can_match(&ServiceQuery::any().with_capability(Capability::data_mining())));
}
