//! One rendering, one set of bytes. A broker renders each result row once,
//! as a shared block, where it used to build a tree per reply: the block
//! must print byte for byte what that tree printed — the tree encoder
//! lives on here as the oracle — and size as it did, whether the row was
//! rendered from an advertisement in the repository or from a decoded
//! row. A reply or a `sub-delta` that holds blocks must decode to what its
//! printed-then-parsed twin decodes to, so a client on the `Bus` reads
//! what a client over TCP reads.

use infosleuth_broker::codec::{self, ResultRow};
use infosleuth_broker::{MatchResult, MatchRow, Matchmaker, Repository};
use infosleuth_constraint::{Conjunction, Predicate};
use infosleuth_kqml::{SExpr, Text};
use infosleuth_ontology::{
    healthcare_ontology, paper_class_ontology, Advertisement, AgentLocation, AgentProperties,
    AgentType, Capability, ConversationType, OntologyContent, SemanticInfo, ServiceQuery,
    SyntacticInfo,
};
use proptest::prelude::*;
use std::iter;
use std::sync::Arc;

/// `(head item ...)`, each item as `SExpr::atom` makes it.
fn atoms<'a>(head: &str, items: impl IntoIterator<Item = &'a String>) -> SExpr {
    SExpr::list(iter::once(SExpr::atom(head)).chain(items.into_iter().map(SExpr::atom)))
}

fn section(head: &str, item: SExpr) -> SExpr {
    SExpr::list([SExpr::atom(head), item])
}

/// The oracle: one match row as a tree, as the codec built it for every
/// reply before rows were rendered once.
fn match_to_sexpr(m: &MatchResult) -> SExpr {
    let items = [
        Some(section("name", SExpr::atom(&m.name))),
        Some(section("address", SExpr::string(&m.address))),
        Some(section("score", SExpr::atom(m.score.to_string()))),
        m.estimated_response_time.map(|t| section("response-time", SExpr::atom(t.to_string()))),
        m.ontology.as_ref().map(|o| section("ontology", SExpr::atom(o))),
        (!m.classes.is_empty()).then(|| atoms("classes", &m.classes)),
        (!m.slots.is_empty()).then(|| atoms("slots", &m.slots)),
        (!m.keys.is_empty()).then(|| atoms("keys", &m.keys)),
    ];
    SExpr::list(iter::once(SExpr::atom("match")).chain(items.into_iter().flatten()))
}

/// Names the reader would split, quote-worthy text, UTF-8, and names on
/// either side of the 22 bytes a `Text` holds in place.
const NAMES: [&str; 10] = [
    "ra0001",
    "Resource Agent 5",
    "a(b)",
    "say \"x\";",
    "é日𝄞",
    "tab\there",
    "twenty-two-bytes-long!",
    "twenty-three-bytes-long",
    "match",
    "",
];

fn arb_name() -> impl Strategy<Value = String> {
    (0..NAMES.len(), 0u32..3).prop_map(|(i, n)| format!("{}{}", NAMES[i], "7".repeat(n as usize)))
}

fn arb_seconds() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(5.0), Just(0.125), Just(1e-7), Just(123456.75), Just(-3.5)]
}

fn arb_result() -> impl Strategy<Value = MatchResult> {
    let lists = (
        prop::collection::vec(arb_name(), 0..3),
        prop::collection::vec(arb_name(), 0..3),
        prop::collection::vec(arb_name(), 0..2),
    );
    (
        (arb_name(), arb_name(), any::<u32>()),
        prop::option::of(arb_seconds()),
        prop::option::of(arb_name()),
        lists,
    )
        .prop_map(|((name, address, score), rt, ontology, (classes, slots, keys))| {
            MatchResult {
                name,
                address,
                score,
                estimated_response_time: rt,
                ontology,
                classes,
                slots,
                keys,
            }
        })
}

/// Content records the repository admits, with one to three of their
/// names in every list.
fn record(pick: u32) -> OntologyContent {
    match pick % 3 {
        0 => OntologyContent::new("healthcare")
            .with_classes(["diagnosis", "patient"])
            .with_slots(["diagnosis.code", "patient.age"])
            .with_keys(["patient.id"])
            .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                "patient.age",
                43,
                75,
            )])),
        1 => OntologyContent::new("paper-classes").with_classes(["C1"]),
        _ => OntologyContent::new("paper-classes").with_classes(["C2", "C3"]),
    }
}

fn advertisement(name: &str, i: usize, records: &[u32], rt: Option<f64>) -> Advertisement {
    let location =
        AgentLocation::new(format!("{name}{i}"), format!("tcp://h{i}:4000"), AgentType::Resource);
    let semantic = records.iter().fold(
        SemanticInfo::default()
            .with_conversations([ConversationType::AskAll])
            .with_capabilities([Capability::relational_query_processing()]),
        |semantic, r| semantic.with_content(record(*r)),
    );
    Advertisement::new(location)
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(semantic)
        .with_properties(AgentProperties { estimated_response_time: rt, ..Default::default() })
}

/// Through the text a peer would send and back.
fn over_the_wire(e: &SExpr) -> SExpr {
    SExpr::parse(&e.to_string()).expect("printed s-expressions parse")
}

proptest! {
    /// A row rendered from a decoded result prints and sizes as the tree
    /// the codec built for it, and decodes back to the result.
    #[test]
    fn a_rendered_row_prints_the_tree_it_replaces(m in arb_result()) {
        let oracle = match_to_sexpr(&m);
        let row = MatchRow::from(&m);
        prop_assert_eq!(row.item().to_string(), oracle.to_string());
        prop_assert_eq!(m.item().to_string(), oracle.to_string());
        prop_assert_eq!(row.item().wire_size(), oracle.wire_size());
        prop_assert_eq!(row.decode().unwrap(), m.clone());
        prop_assert_eq!(row.name, Text::from(&m.name));
    }

    /// Rows rendered once into the repository, from each advertisement
    /// and content record, print what the oracle prints for the reference
    /// path's rows — whichever record matched, with or without a response
    /// time — and a second match shares the same blocks.
    #[test]
    fn rows_rendered_from_advertisements_print_as_the_reference_rows(
        ads in prop::collection::vec(
            (arb_name(), prop::collection::vec(0u32..3, 0..3), prop::option::of(arb_seconds())),
            1..6,
        ),
        ontology in prop::option::of(prop_oneof![Just("healthcare"), Just("paper-classes")]),
    ) {
        let mut repo = Repository::new();
        repo.register_ontology(paper_class_ontology());
        repo.register_ontology(healthcare_ontology());
        for (i, (name, records, rt)) in ads.iter().enumerate() {
            repo.advertise(advertisement(name, i, records, rt.map(f64::abs))).unwrap();
        }
        let mut query = ServiceQuery::for_agent_type(AgentType::Resource);
        query.ontology = ontology.map(Into::into);
        let mm = Matchmaker::default();
        let rows = mm.match_query(&repo, &query);
        let reference = mm.match_query_linear(&repo, &repo.clone().saturated(), &query);
        prop_assert_eq!(rows.len(), reference.len());
        for (row, m) in rows.iter().zip(&reference) {
            prop_assert_eq!(row.item().to_string(), match_to_sexpr(m).to_string());
            prop_assert_eq!(row.item().wire_size(), match_to_sexpr(m).wire_size());
        }
        for (again, row) in mm.match_query(&repo, &query).iter().zip(&rows) {
            let (SExpr::Block(a, _), SExpr::Block(b, _)) = (again.item(), row.item()) else {
                panic!("a held row is a block");
            };
            prop_assert!(Arc::ptr_eq(&a, &b), "a second match renders again");
        }
    }

    /// A reply and a `sub-delta` holding shared blocks decode to what
    /// their printed-then-parsed twins decode to, and those are the rows.
    #[test]
    fn shared_blocks_decode_as_their_printed_twins(
        ms in prop::collection::vec(arb_result(), 0..5),
        gone in prop::collection::vec(arb_name(), 0..3),
        epoch in any::<u64>(),
    ) {
        let rows: Vec<MatchRow> = ms.iter().map(MatchRow::from).collect();
        let reply = codec::matches_to_sexpr(&rows);
        let decoded = codec::matches_from_sexpr(&reply).unwrap();
        prop_assert_eq!(&codec::matches_from_sexpr(&over_the_wire(&reply)).unwrap(), &decoded);
        prop_assert_eq!(&decoded, &ms);
        let delta = codec::sub_delta_to_sexpr(epoch, &rows, &gone);
        let decoded = codec::sub_delta_from_sexpr(&delta).unwrap();
        prop_assert_eq!(&codec::sub_delta_from_sexpr(&over_the_wire(&delta)).unwrap(), &decoded);
        prop_assert_eq!(decoded, (epoch, ms, gone));
    }
}
