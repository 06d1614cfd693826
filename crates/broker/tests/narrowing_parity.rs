//! Narrowing soundness: `match_query` — bitmap postings over dense
//! advertisement ids, then the per-slot hull columns — returns exactly the
//! rows, in exactly the order, of `match_query_linear`, which scores every
//! advertisement. The generators aim at everything the hulls relax:
//! exclusive and one-sided bounds, `in`-sets (a string-valued one has no
//! hull and must never prune), advertisements whose content records
//! constrain different slot sets, queries with constraints but no ontology
//! or classes, a derived-rule repository, and ids recycled under churn —
//! and, for the three syntactic postings, agent types and languages varied
//! on both sides, a type and a language nobody advertises included.
//!
//! The two sides also read subsumption from different places —
//! `match_query` off the taxonomies' closures and what derived rules
//! granted each advertisement when it was posted, `match_query_linear` off
//! the reference model of the whole repository — so one more arm aims at
//! where those could part: a multi-parent capability DAG, the requested
//! class held by another content record of the same agent and ontology, a
//! content ontology nobody registered, and requested names outside the
//! taxonomy or never interned, with and without a derived rule.
//!
//! The same scripts hold the routing digest to its contract:
//! `CapabilityDigest::of`, read off the narrowing index, equals field for
//! field the digest built by walking every advertisement — its terms
//! expanded through the hierarchies and read off the reference model —
//! and admits every query the linear scan finds a match for.
//!
//! An advertisement is expanded through the hierarchies when it is posted,
//! so one arm registers the class hierarchy again, a subclass added, under
//! live advertisements, and holds both contracts across it.

use infosleuth_broker::{CapabilityDigest, Matchmaker, Repository};
use infosleuth_constraint::{Bound, Conjunction, Predicate, Value};
use infosleuth_ldl::{Const, Saturated, Sym};
use infosleuth_ontology::{
    healthcare_ontology, paper_class_ontology, Advertisement, AgentLocation, AgentType, Capability,
    ClassDef, ConversationType, Ontology, OntologyContent, SemanticInfo, ServiceQuery,
    SyntacticInfo, Taxonomy,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const CLASSES: [&str; 5] = ["C1", "C2", "C2a", "C2b", "C3"];
/// The last of each is asked for and never advertised.
const AGENT_TYPES: [AgentType; 4] =
    [AgentType::Resource, AgentType::MultiResourceQuery, AgentType::DataMining, AgentType::User];
const QUERY_LANGUAGES: [&str; 4] = ["SQL 2.0", "LDL", "OQL", "Datalog"];
const COMMUNICATION_LANGUAGES: [&str; 3] = ["KQML", "CORBA", "SOAP"];

fn arb_capability() -> impl Strategy<Value = Capability> {
    prop_oneof![
        Just(Capability::query_processing()),
        Just(Capability::relational_query_processing()),
        Just(Capability::select()),
        Just(Capability::subscription()),
    ]
}

fn arb_conversation() -> impl Strategy<Value = ConversationType> {
    prop_oneof![Just(ConversationType::AskAll), Just(ConversationType::Subscribe)]
}

/// One predicate over a small domain, so disjoint and touching windows are
/// both common. `x` and `y` are numeric; `tag` takes strings.
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let slot = prop_oneof![Just("x"), Just("y")];
    (slot, 0u8..11, 0i64..100, 1i64..30, 0u8..4).prop_map(|(slot, op, v, w, tag)| match op {
        0 | 1 => Predicate::between(slot, v, v + w),
        2 => Predicate::gt(slot, v),
        3 => Predicate::ge(slot, v),
        4 => Predicate::lt(slot, v),
        5 => Predicate::le(slot, v),
        6 => Predicate::eq(slot, v),
        7 => Predicate::ne(slot, v),
        8 => Predicate::is_in(slot, [v, v + w, v + 2 * w]),
        9 => Predicate::between(slot, v as f64 + 0.5, (v + w) as f64 - 0.5),
        _ => Predicate::is_in("tag", [format!("t{tag}"), format!("t{}", (tag + 1) % 4)]),
    })
}

fn arb_constraints() -> impl Strategy<Value = Conjunction> {
    prop::collection::vec(arb_predicate(), 0..3).prop_map(Conjunction::from_predicates)
}

fn arb_content() -> impl Strategy<Value = OntologyContent> {
    (0u8..5, prop::collection::btree_set(0usize..CLASSES.len(), 0..3), arb_constraints()).prop_map(
        |(onto, classes, constraints)| {
            if onto == 0 {
                OntologyContent::new("healthcare")
                    .with_classes(["patient"])
                    .with_constraints(constraints)
            } else {
                OntologyContent::new("paper-classes")
                    .with_classes(classes.into_iter().map(|c| CLASSES[c]))
                    .with_constraints(constraints)
            }
        },
    )
}

/// The semantic part of an advertisement: zero to three content records.
fn arb_semantic() -> impl Strategy<Value = SemanticInfo> {
    (
        prop::collection::vec(arb_conversation(), 0..3),
        arb_capability(),
        prop::collection::vec(arb_content(), 0..4),
    )
        .prop_map(|(convs, cap, content)| {
            content.into_iter().fold(
                SemanticInfo::default().with_conversations(convs).with_capabilities([cap]),
                SemanticInfo::with_content,
            )
        })
}

/// Everything of an advertisement but its name: the agent type, zero to
/// two languages of each kind (the never-advertised last ones left out),
/// and the semantic part.
type AdBody = (AgentType, SyntacticInfo, SemanticInfo);

fn arb_body() -> impl Strategy<Value = AdBody> {
    (
        0..AGENT_TYPES.len() - 1,
        prop::collection::btree_set(0..QUERY_LANGUAGES.len() - 1, 0..3),
        prop::collection::btree_set(0..COMMUNICATION_LANGUAGES.len() - 1, 0..3),
        arb_semantic(),
    )
        .prop_map(|(agent_type, query, communication, semantic)| {
            let syntactic = SyntacticInfo::new(
                query.into_iter().map(|l| QUERY_LANGUAGES[l]),
                communication.into_iter().map(|l| COMMUNICATION_LANGUAGES[l]),
            );
            (AGENT_TYPES[agent_type].clone(), syntactic, semantic)
        })
}

/// A resource agent speaking SQL over KQML, for the fixed cases.
fn resource(semantic: SemanticInfo) -> AdBody {
    (AgentType::Resource, SyntacticInfo::sql_kqml(), semantic)
}

fn ad(name: &str, (agent_type, syntactic, semantic): AdBody) -> Advertisement {
    Advertisement::new(AgentLocation::new(name, "tcp://h:4000", agent_type))
        .with_syntactic(syntactic)
        .with_semantic(semantic)
}

fn arb_query() -> impl Strategy<Value = ServiceQuery> {
    let syntactic = (
        prop::option::of(0..AGENT_TYPES.len()),
        prop::option::of(0..QUERY_LANGUAGES.len()),
        prop::option::of(0..COMMUNICATION_LANGUAGES.len()),
    );
    (
        prop::option::of(prop_oneof![Just("paper-classes"), Just("healthcare"), Just("nowhere")]),
        prop::collection::btree_set(0usize..CLASSES.len(), 0..3),
        prop::option::of(arb_capability()),
        prop::option::of(arb_conversation()),
        arb_constraints(),
        (prop::option::of(1usize..4), syntactic),
    )
        .prop_map(|(onto, classes, cap, conv, constraints, (max, syntactic))| {
            let mut q = ServiceQuery::any()
                .with_classes(classes.into_iter().map(|c| CLASSES[c]))
                .with_constraints(constraints);
            q.ontology = onto.map(Into::into);
            q.capabilities.extend(cap);
            q.conversations.extend(conv);
            q.max_matches = max;
            let (agent_type, query_language, communication_language) = syntactic;
            q.agent_type = agent_type.map(|t| AGENT_TYPES[t].clone());
            q.query_language = query_language.map(|l| QUERY_LANGUAGES[l].into());
            q.communication_language =
                communication_language.map(|l| COMMUNICATION_LANGUAGES[l].into());
            q
        })
}

/// A mutation script: `(agent number, Some(ad body) | None = unadvertise)`.
/// Twelve names over up to forty steps, so updates and recycled ids are
/// the norm. Unsatisfiable advertisements are refused by the repository
/// and simply do not land.
fn arb_script() -> impl Strategy<Value = Vec<(usize, Option<AdBody>)>> {
    prop::collection::vec((0usize..12, prop::option::of(arb_body())), 0..40)
}

fn repo_after(script: Vec<(usize, Option<AdBody>)>) -> Repository {
    let mut repo = Repository::new();
    repo.register_ontology(paper_class_ontology());
    repo.register_ontology(healthcare_ontology());
    for (n, step) in script {
        let name = format!("agent{n}");
        match step {
            Some(body) => drop(repo.advertise(ad(&name, body))),
            None => drop(repo.unadvertise(&name)),
        }
    }
    repo
}

/// The digest's wire hash, restated so that moving a bit fails here:
/// FNV-1a 64 over a dimension tag, `0x1f` and the text.
fn symbol(tag: u8, text: &str) -> u64 {
    [tag, 0x1f].into_iter().chain(text.bytes()).fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// splitmix64's finalizer, from which the Bloom probes are seeded.
fn mix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One content record's closed numeric hull on a slot, when it has one:
/// exclusive bounds relaxed, an all-numeric `in`-set clipped to its range.
fn record_hull(c: &Conjunction, slot: &str) -> Option<(f64, f64)> {
    let number = |v: &Value| match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    };
    let end = |bound: &Bound, open: f64| match bound {
        Bound::Unbounded => Some(open),
        Bound::Incl(v) | Bound::Excl(v) => number(v),
    };
    let domain = c.domain(slot);
    let mut lo = end(&domain.range.lo, f64::NEG_INFINITY)?;
    let mut hi = end(&domain.range.hi, f64::INFINITY)?;
    if let Some(allowed) = &domain.allowed {
        let numbers: Vec<f64> = allowed.iter().filter_map(number).collect();
        if numbers.len() == allowed.len() && !numbers.is_empty() {
            lo = lo.max(numbers.iter().copied().fold(f64::INFINITY, f64::min));
            hi = hi.min(numbers.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        }
    }
    ((lo, hi) != (f64::NEG_INFINITY, f64::INFINITY)).then_some((lo, hi))
}

/// An advertisement's hull per slot: the slots every content record has a
/// hull on, each with the union over the records.
fn ad_hulls(ad: &Advertisement) -> BTreeMap<&str, (f64, f64)> {
    let mut records = ad.semantic.content.iter().map(|content| {
        let c = &content.constraints;
        c.constrained_slots()
            .filter_map(|slot| Some((slot, record_hull(c, slot)?)))
            .collect::<BTreeMap<_, _>>()
    });
    let mut hulls = records.next().unwrap_or_default();
    for record in records {
        hulls.retain(|slot, (lo, hi)| {
            record.get(slot).map(|(rlo, rhi)| (*lo, *hi) = (lo.min(*rlo), hi.max(*rhi))).is_some()
        });
    }
    hulls
}

/// The oracle: the digest built by walking the repository one
/// advertisement at a time — each one's terms expanded, together with the
/// capabilities it provides and the classes it contributes to in the
/// reference `model` (what derived rules grant included), and hashed into
/// one set, a slot hull kept when every advertisement has one.
fn digest_by_walking_every_advertisement(
    broker: &str,
    repo: &Repository,
    model: &Saturated,
) -> CapabilityDigest {
    let mut symbols = BTreeSet::new();
    let mut hulls: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for ad in repo.agents() {
        let agent = Const::Sym(Sym::lookup(&ad.location.name).expect("in the model"));
        let facts = |pred| model.db().tuples_with_first(pred, &agent);
        let name = |c: &Const| c.as_sym().expect("a symbol");
        symbols.extend(facts("provides").map(|t| symbol(b'p', name(&t[1]))));
        symbols.extend(
            facts("contributes_class")
                .map(|t| symbol(b'c', &format!("{}\u{1}{}", name(&t[1]), name(&t[2])))),
        );
        symbols.insert(symbol(b'n', &ad.location.name));
        symbols.insert(symbol(b't', &ad.location.agent_type.to_string()));
        symbols.extend(ad.syntactic.query_languages.iter().map(|l| symbol(b'q', l)));
        symbols.extend(ad.syntactic.communication_languages.iter().map(|l| symbol(b'l', l)));
        symbols.extend(ad.semantic.conversations.iter().map(|c| symbol(b'v', &c.to_string())));
        for cap in &ad.semantic.capabilities {
            let satisfied = repo.satisfied_capabilities(cap.as_str());
            symbols.extend(satisfied.map(|c| symbol(b'p', c)));
        }
        for content in &ad.semantic.content {
            let onto = &content.ontology;
            symbols.insert(symbol(b'o', onto));
            for class in &content.classes {
                let related = repo.satisfying_classes(onto, class);
                symbols.extend(related.map(|c| symbol(b'c', &format!("{onto}\u{1}{c}"))));
            }
        }
        for (slot, (lo, hi)) in ad_hulls(ad) {
            let all = hulls.entry(slot).or_insert((0, f64::INFINITY, f64::NEG_INFINITY));
            *all = (all.0 + 1, all.1.min(lo), all.2.max(hi));
        }
    }
    let width = (symbols.len() * 14).next_power_of_two().max(1024) as u64;
    let mut bits = vec![0u64; width as usize / 64];
    for sym in symbols {
        let (h1, h2) = (mix(sym), mix(sym ^ 0x9e37_79b9_7f4a_7c15) | 1);
        for i in 0..4u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % width;
            bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }
    CapabilityDigest {
        broker: broker.to_string(),
        epoch: repo.epoch(),
        ads: repo.len() as u64,
        k: 4,
        bits,
        slot_hulls: hulls
            .into_iter()
            .filter(|(_, (constrained, ..))| *constrained == repo.len())
            .map(|(slot, (_, lo, hi))| (slot.to_string(), (lo, hi)))
            .collect(),
    }
}

/// Narrowing returns the linear scan's rows, and the digest read off the
/// same index is the walked one and prunes no query the scan answers.
fn assert_narrowing_is_invisible(repo: &mut Repository, queries: &[ServiceQuery]) {
    let model = repo.saturated();
    let mm = Matchmaker::default();
    let digest = CapabilityDigest::of("b", repo);
    assert_eq!(digest, digest_by_walking_every_advertisement("b", repo, &model));
    for q in queries {
        let linear = mm.match_query_linear(repo, &model, q);
        assert_eq!(
            mm.match_query(repo, q),
            linear,
            "narrowed differently from the linear scan on {q:?}"
        );
        assert!(linear.is_empty() || digest.can_match(q), "the digest prunes a match of {q:?}");
    }
}

proptest! {
    #[test]
    fn narrowed_matches_equal_the_linear_scan(
        script in arb_script(),
        queries in prop::collection::vec(arb_query(), 1..8),
    ) {
        assert_narrowing_is_invisible(&mut repo_after(script), &queries);
    }

    /// What derived rules grant an advertisement — a capability, a class —
    /// is posted with it, so narrowing and the digest keep every dimension
    /// under rules.
    #[test]
    fn narrowed_matches_equal_the_linear_scan_under_derived_rules(
        script in arb_script(),
        queries in prop::collection::vec(arb_query(), 1..8),
    ) {
        let mut repo = repo_after(script);
        repo.register_derived_rules(
            "cap(A, subscription) :- agent(A, resource).\n\
             class(A, healthcare, provider) :- class(A, healthcare, patient).",
        )
        .expect("rules admit");
        assert_narrowing_is_invisible(&mut repo, &queries);
    }
}

/// Under a derived rule the digest is summarized like any other: it equals
/// its walked oracle bit for bit, admits the capability only the rule
/// grants, and prunes a query no advertisement can match.
#[test]
fn a_digest_under_derived_rules_is_prunable() {
    let holds = |classes: &[&str]| {
        resource(SemanticInfo::default().with_content(
            OntologyContent::new("paper-classes").with_classes(classes.iter().copied()),
        ))
    };
    let mut repo = repo_after(vec![(0, Some(holds(&["C1"]))), (1, Some(holds(&["C1", "C2a"])))]);
    repo.register_derived_rules("cap(A, subscription) :- agent(A, resource).")
        .expect("rule admits");
    let granted = ServiceQuery::any().with_capability(Capability::subscription());
    let nobody = ServiceQuery::any().with_ontology("paper-classes").with_classes(["C3"]);
    assert_narrowing_is_invisible(&mut repo, &[granted.clone(), nobody.clone()]);
    let model = repo.saturated();
    let mm = Matchmaker::default();
    assert_eq!(mm.match_query_linear(&repo, &model, &granted).len(), 2);
    assert!(mm.match_query_linear(&repo, &model, &nobody).is_empty());
    let digest = CapabilityDigest::of("b", &repo);
    assert_eq!(digest, digest_by_walking_every_advertisement("b", &repo, &model));
    assert!(digest.can_match(&granted));
    assert!(!digest.can_match(&nobody), "a digest under rules prunes");
}

/// Registered with `paper-classes` once advertisements exist, under `C2a`.
const NEW_SUBCLASS: &str = "C2a-late";

fn paper_classes_with_a_new_subclass() -> Ontology {
    let mut o = paper_class_ontology();
    o.add_subclass("C2a", ClassDef::new(NEW_SUBCLASS, Vec::new())).expect("C2a exists");
    o
}

proptest! {
    /// An ontology registered again, with a subclass added, after
    /// advertisements arrived: every advertisement is posted again under
    /// the hierarchy as it now stands, so narrowing and the digest follow
    /// the new class — before and after it is advertised, and through the
    /// churn that comes after.
    #[test]
    fn a_hierarchy_registered_again_is_followed_by_narrowing_and_the_digest(
        script in arb_script(),
        later in arb_script(),
        queries in prop::collection::vec(arb_query(), 1..8),
    ) {
        let mut repo = repo_after(script);
        repo.register_ontology(paper_classes_with_a_new_subclass());
        let mut queries = queries;
        queries.extend(["C2", "C2a", "C2b", NEW_SUBCLASS].map(|class| {
            ServiceQuery::any().with_ontology("paper-classes").with_classes([class])
        }));
        assert_narrowing_is_invisible(&mut repo, &queries);
        let newcomer = SemanticInfo::default()
            .with_content(OntologyContent::new("paper-classes").with_classes([NEW_SUBCLASS]));
        repo.advertise(ad("agent-late", resource(newcomer))).expect("the new subclass admits");
        for (n, step) in later {
            let name = format!("agent{n}");
            match step {
                Some(body) => drop(repo.advertise(ad(&name, body))),
                None => drop(repo.unadvertise(&name)),
            }
        }
        assert_narrowing_is_invisible(&mut repo, &queries);
    }
}

/// A capability DAG with two multi-parent nodes: `both` under `left` and
/// `right`, `leaf` under `both` and the second root `aside`.
const DAG_CAPABILITIES: [&str; 6] = ["top", "left", "right", "both", "leaf", "aside"];
/// Asked for, never advertised: `C1` is interned (as a class) but no
/// capability, the other is a name nothing ever interns.
const STRAY_CAPABILITIES: [&str; 2] = ["C1", "parity-capability-nobody-interns"];
const STRAY_CLASS: &str = "parity-class-nobody-interns";

fn dag_capability_taxonomy() -> Taxonomy {
    let mut t = Taxonomy::new();
    t.add_root("top").unwrap();
    t.add_child("top", "left").unwrap();
    t.add_child("top", "right").unwrap();
    t.add_child("left", "both").unwrap();
    t.add_edge("right", "both").unwrap();
    t.add_child("both", "leaf").unwrap();
    t.add_root("aside").unwrap();
    t.add_edge("aside", "leaf").unwrap();
    t
}

/// One or two DAG capabilities and up to three content records, each a
/// few classes of `paper-classes` or of `unregistered` — often two records
/// of one ontology, so a requested class sits in the record not scored.
fn arb_dag_body() -> impl Strategy<Value = AdBody> {
    let content = (any::<bool>(), prop::collection::btree_set(0usize..CLASSES.len(), 0..3))
        .prop_map(|(registered, classes)| {
            OntologyContent::new(if registered { "paper-classes" } else { "unregistered" })
                .with_classes(classes.into_iter().map(|c| CLASSES[c]))
        });
    (
        prop::collection::btree_set(0..DAG_CAPABILITIES.len(), 1..3),
        prop::collection::vec(content, 0..4),
    )
        .prop_map(|(caps, content)| {
            let caps = caps.into_iter().map(|c| Capability::new(DAG_CAPABILITIES[c]));
            resource(
                content.into_iter().fold(
                    SemanticInfo::default().with_capabilities(caps),
                    SemanticInfo::with_content,
                ),
            )
        })
}

fn arb_dag_query() -> impl Strategy<Value = ServiceQuery> {
    let names: Vec<&str> = DAG_CAPABILITIES.into_iter().chain(STRAY_CAPABILITIES).collect();
    (
        prop::option::of(prop_oneof![Just("paper-classes"), Just("unregistered"), Just("nowhere")]),
        prop::collection::btree_set(0..CLASSES.len() + 1, 0..4),
        prop::collection::btree_set(0..names.len(), 0..3),
    )
        .prop_map(move |(onto, classes, caps)| {
            let class = |c: usize| CLASSES.get(c).copied().unwrap_or(STRAY_CLASS);
            let mut q = ServiceQuery::any().with_classes(classes.into_iter().map(class));
            q.ontology = onto.map(Into::into);
            q.capabilities.extend(caps.into_iter().map(|c| Capability::new(names[c])));
            q
        })
}

proptest! {
    /// The closure evaluator against the model, then — one derived rule
    /// registered — the model against itself over the same repository.
    #[test]
    fn closure_scoring_equals_the_model_where_the_two_could_part(
        script in prop::collection::vec((0usize..8, prop::option::of(arb_dag_body())), 0..24),
        queries in prop::collection::vec(arb_dag_query(), 8..24),
    ) {
        let mut repo = Repository::with_capability_taxonomy(dag_capability_taxonomy());
        repo.register_ontology(paper_class_ontology());
        for (n, step) in script {
            let name = format!("agent{n}");
            match step {
                Some(body) => repo.advertise(ad(&name, body)).expect("the arm's advertisements admit"),
                None => drop(repo.unadvertise(&name)),
            }
        }
        assert_narrowing_is_invisible(&mut repo, &queries);
        repo.register_derived_rules("cap(A, aside) :- cap(A, left).").expect("rule admits");
        assert_narrowing_is_invisible(&mut repo, &queries);
        prop_assert_eq!(Sym::lookup(STRAY_CAPABILITIES[1]), None);
        prop_assert_eq!(Sym::lookup(STRAY_CLASS), None);
    }
}

/// An id freed by a constrained advertisement and taken by one that says
/// nothing about the slot must read as open: a stale hull would prune an
/// agent that matches every window.
#[test]
fn a_recycled_id_does_not_inherit_the_hull() {
    let window = |lo: i64, hi: i64| {
        SemanticInfo::default().with_content(
            OntologyContent::new("paper-classes").with_classes(["C1"]).with_constraints(
                Conjunction::from_predicates(vec![Predicate::between("x", lo, hi)]),
            ),
        )
    };
    let open = SemanticInfo::default()
        .with_content(OntologyContent::new("paper-classes").with_classes(["C1"]));
    let mut repo = repo_after(vec![
        (0, Some(resource(window(0, 10)))),
        // Keeps the column for `x` alive across the churn below.
        (1, Some(resource(window(20, 30)))),
        (0, None),
        (2, Some(resource(open))),
    ]);
    let q = ServiceQuery::any()
        .with_ontology("paper-classes")
        .with_classes(["C1"])
        .with_constraints(Conjunction::from_predicates(vec![Predicate::between("x", 50, 60)]));
    let names: Vec<String> =
        Matchmaker::default().match_query(&repo, &q).into_iter().map(|m| m.name.into()).collect();
    assert_eq!(names, vec!["agent2"]);
    assert_narrowing_is_invisible(&mut repo, &[q]);
}

/// Likewise an id freed by a multiresource-query agent and taken by a
/// resource agent: the newcomer answers for its own type and languages and
/// for none of its predecessor's.
#[test]
fn a_recycled_id_does_not_inherit_the_agent_type_or_the_languages() {
    let semantic = || SemanticInfo::default().with_conversations([ConversationType::AskAll]);
    let mrq = (AgentType::MultiResourceQuery, SyntacticInfo::new(["LDL"], ["CORBA"]), semantic());
    let mut repo = repo_after(vec![
        (0, Some(mrq)),
        (1, Some(resource(semantic()))),
        (0, None),
        (2, Some(resource(semantic()))),
    ]);
    let queries = [
        ServiceQuery::for_agent_type(AgentType::MultiResourceQuery),
        ServiceQuery::any().with_query_language("LDL"),
        ServiceQuery::any().with_communication_language("CORBA"),
        ServiceQuery::for_agent_type(AgentType::Resource)
            .with_query_language("SQL 2.0")
            .with_communication_language("KQML"),
    ];
    let names = |repo: &mut Repository, q: &ServiceQuery| -> Vec<String> {
        Matchmaker::default().match_query(repo, q).into_iter().map(|m| m.name.into()).collect()
    };
    for gone in &queries[..3] {
        assert!(names(&mut repo, gone).is_empty(), "{gone:?}");
        assert!(!CapabilityDigest::of("b", &repo).can_match(gone), "{gone:?}");
    }
    assert_eq!(names(&mut repo, &queries[3]), vec!["agent1", "agent2"]);
    assert_narrowing_is_invisible(&mut repo, &queries);
}
