//! Narrowing soundness: `match_query` — bitmap postings over dense
//! advertisement ids, then the per-slot hull columns — returns exactly the
//! rows, in exactly the order, of `match_query_linear`, which scores every
//! advertisement. The generators aim at everything the hulls relax:
//! exclusive and one-sided bounds, `in`-sets (a string-valued one has no
//! hull and must never prune), advertisements whose content records
//! constrain different slot sets, queries with constraints but no ontology
//! or classes, a derived-rule repository, and ids recycled under churn.

use infosleuth_broker::{Matchmaker, Repository};
use infosleuth_constraint::{Conjunction, Predicate};
use infosleuth_ontology::{
    healthcare_ontology, paper_class_ontology, Advertisement, AgentLocation, AgentType, Capability,
    ConversationType, OntologyContent, SemanticInfo, ServiceQuery, SyntacticInfo,
};
use proptest::prelude::*;

const CLASSES: [&str; 5] = ["C1", "C2", "C2a", "C2b", "C3"];

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

fn ad(name: &str, semantic: SemanticInfo) -> Advertisement {
    Advertisement::new(AgentLocation::new(name, "tcp://h:4000", AgentType::Resource))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(semantic)
}

fn arb_query() -> impl Strategy<Value = ServiceQuery> {
    (
        prop::option::of(prop_oneof![Just("paper-classes"), Just("healthcare"), Just("nowhere")]),
        prop::collection::btree_set(0usize..CLASSES.len(), 0..3),
        prop::option::of(arb_capability()),
        prop::option::of(arb_conversation()),
        arb_constraints(),
        prop::option::of(1usize..4),
    )
        .prop_map(|(onto, classes, cap, conv, constraints, max)| {
            let mut q = ServiceQuery::any()
                .with_classes(classes.into_iter().map(|c| CLASSES[c]))
                .with_constraints(constraints);
            q.ontology = onto.map(str::to_string);
            q.capabilities.extend(cap);
            q.conversations.extend(conv);
            q.max_matches = max;
            q
        })
}

/// A mutation script: `(agent number, Some(ad body) | None = unadvertise)`.
/// Twelve names over up to forty steps, so updates and recycled ids are
/// the norm. Unsatisfiable advertisements are refused by the repository
/// and simply do not land.
fn arb_script() -> impl Strategy<Value = Vec<(usize, Option<SemanticInfo>)>> {
    prop::collection::vec((0usize..12, prop::option::of(arb_semantic())), 0..40)
}

fn repo_after(script: Vec<(usize, Option<SemanticInfo>)>) -> Repository {
    let mut repo = Repository::new();
    repo.register_ontology(paper_class_ontology());
    repo.register_ontology(healthcare_ontology());
    for (n, step) in script {
        let name = format!("agent{n}");
        match step {
            Some(semantic) => drop(repo.advertise(ad(&name, semantic))),
            None => drop(repo.unadvertise(&name)),
        }
    }
    repo
}

fn assert_narrowing_is_invisible(repo: &mut Repository, queries: &[ServiceQuery]) {
    let model = repo.saturated();
    let mm = Matchmaker::default();
    for q in queries {
        assert_eq!(
            mm.match_query(repo, &model, q),
            mm.match_query_linear(repo, &model, q),
            "narrowed differently from the linear scan on {q:?}"
        );
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

    /// Derived rules switch the class and capability dimensions off; the
    /// hull columns stay on, because constraints are checked on the content
    /// record and never through the model.
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
        (0, Some(window(0, 10))),
        // Keeps the column for `x` alive across the churn below.
        (1, Some(window(20, 30))),
        (0, None),
        (2, Some(open)),
    ]);
    let q = ServiceQuery::any()
        .with_ontology("paper-classes")
        .with_classes(["C1"])
        .with_constraints(Conjunction::from_predicates(vec![Predicate::between("x", 50, 60)]));
    let names: Vec<String> =
        Matchmaker::default().match_query_mut(&mut repo, &q).into_iter().map(|m| m.name).collect();
    assert_eq!(names, vec!["agent2"]);
    assert_narrowing_is_invisible(&mut repo, &[q]);
}
