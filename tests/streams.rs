//! End-to-end coverage of the six Table 1 query-stream shapes on the live
//! system: single agent, double agent, four agent, vertical fragmentation,
//! class hierarchy, and fragmentation+hierarchy.

use infosleuth_core::constraint::Value;
use infosleuth_core::ontology::{Fragment, ValueType};
use infosleuth_core::relquery::{Catalog, Column, Table};
use infosleuth_core::{Community, ResourceDef};
use infosleuth_integration_tests::{catalog_of, int_column, paper_ontology};

/// Builds a table with explicit rows: (id, a, b, c).
fn class_table(name: &str, rows: &[(i64, i64, &str, f64)]) -> Table {
    let mut t = Table::new(
        name,
        vec![
            Column::new("id", ValueType::Int),
            Column::new("a", ValueType::Int),
            Column::new("b", ValueType::Str),
            Column::new("c", ValueType::Float),
        ],
    );
    for (id, a, b, c) in rows {
        t.push_row(vec![Value::Int(*id), Value::Int(*a), Value::str(*b), Value::Float(*c)])
            .expect("schema matches");
    }
    t
}

/// A vertical fragment holding only the key plus some columns.
fn fragment_table(name: &str, columns: &[(&str, ValueType)], rows: Vec<Vec<Value>>) -> Table {
    let mut t = Table::new(name, columns.iter().map(|(n, vt)| Column::new(*n, *vt)).collect());
    for r in rows {
        t.push_row(r).expect("schema matches");
    }
    t
}

#[test]
fn sa_stream_single_agent() {
    let o = paper_ontology();
    let community = Community::builder()
        .with_ontology(paper_ontology())
        .add_broker("broker-agent")
        .add_resource(ResourceDef::new("ra1", "paper-classes", catalog_of(&o, &[("C1", 5, 1)])))
        .build()
        .expect("community starts");
    let mut user = community.user("user").expect("connects");
    let r = user.submit_sql("select * from C1", Some("paper-classes")).expect("answers");
    assert_eq!(r.len(), 5);
    community.shutdown();
}

#[test]
fn da_and_4a_streams_horizontal_split() {
    // The class extent is split across agents; the union reassembles it.
    let parts: Vec<Vec<(i64, i64, &str, f64)>> = vec![
        vec![(1, 10, "x", 0.5), (2, 20, "y", 1.5)],
        vec![(3, 30, "z", 2.5)],
        vec![(4, 40, "w", 3.5)],
        vec![(5, 50, "v", 4.5)],
    ];
    let mut builder =
        Community::builder().with_ontology(paper_ontology()).add_broker("broker-agent");
    for (i, rows) in parts.iter().enumerate() {
        let mut cat = Catalog::new();
        cat.insert(class_table("C2", rows));
        builder = builder.add_resource(ResourceDef::new(format!("ra{i}"), "paper-classes", cat));
    }
    let community = builder.build().expect("community starts");
    let mut user = community.user("user").expect("connects");
    let r = user.submit_sql("select * from C2", Some("paper-classes")).expect("answers");
    assert_eq!(r.len(), 5, "4A union must reassemble all fragments");
    let mut ids = int_column(&r, "id");
    ids.sort();
    assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    community.shutdown();
}

#[test]
fn four_agent_stream_asks_its_resources_in_parallel() {
    use infosleuth_core::obs::{RingSink, SpanSink};
    use std::sync::Arc;
    // Extents large enough that answering takes each agent a while: were
    // the MRQ agent to ask them in turn, no two dispatch spans would meet.
    const ROWS: i64 = 8000;
    let mut builder =
        Community::builder().with_ontology(paper_ontology()).add_broker("broker-agent");
    for part in 0..4 {
        let rows: Vec<(i64, i64, &str, f64)> =
            (0..ROWS).map(|i| (part * ROWS + i, i, "x", 0.5)).collect();
        let mut cat = Catalog::new();
        cat.insert(class_table("C2", &rows));
        builder = builder.add_resource(ResourceDef::new(format!("ra{part}"), "paper-classes", cat));
    }
    let community = builder.build().expect("community starts");
    let sink = Arc::new(RingSink::new(4096));
    community.runtime().obs().tracer().add_sink(Arc::clone(&sink) as Arc<dyn SpanSink>);
    let mut user = community.user("user").expect("connects");
    let r = user.submit_sql("select * from C2", Some("paper-classes")).expect("answers");
    let mut ids = int_column(&r, "id");
    ids.sort();
    assert_eq!(ids, (0..4 * ROWS).collect::<Vec<_>>(), "the union of the four extents");
    // Joins the workers, so every dispatch span has closed.
    community.shutdown();
    let asks: Vec<_> = sink
        .drain()
        .into_iter()
        .filter(|s| s.name == "recv:ask-all" && s.agent.starts_with("ra"))
        .collect();
    assert_eq!(asks.len(), 4, "one ask per resource agent");
    let last_start = asks.iter().map(|s| s.start_unix_micros).max().unwrap();
    let first_end = asks.iter().map(|s| s.start_unix_micros + s.duration_micros).min().unwrap();
    assert!(last_start < first_end, "the four asks do not overlap: {asks:?}");
}

#[test]
fn vf_stream_vertical_fragments_rejoin_on_key() {
    // Fragment 1 holds (id, a); fragment 2 holds (id, b, c). The MRQ joins
    // them on the key.
    let f1 = fragment_table(
        "C1",
        &[("id", ValueType::Int), ("a", ValueType::Int)],
        vec![vec![Value::Int(1), Value::Int(10)], vec![Value::Int(2), Value::Int(20)]],
    );
    let f2 = fragment_table(
        "C1",
        &[("id", ValueType::Int), ("b", ValueType::Str), ("c", ValueType::Float)],
        vec![
            vec![Value::Int(1), Value::str("one"), Value::Float(0.1)],
            vec![Value::Int(2), Value::str("two"), Value::Float(0.2)],
        ],
    );
    let mut cat1 = Catalog::new();
    cat1.insert(f1);
    let mut cat2 = Catalog::new();
    cat2.insert(f2);
    let community = Community::builder()
        .with_ontology(paper_ontology())
        .add_broker("broker-agent")
        .add_resource(
            ResourceDef::new("vf1", "paper-classes", cat1)
                .with_fragment("C1", Fragment::vertical(["id", "a"])),
        )
        .add_resource(
            ResourceDef::new("vf2", "paper-classes", cat2)
                .with_fragment("C1", Fragment::vertical(["id", "b", "c"])),
        )
        .build()
        .expect("community starts");
    let mut user = community.user("user").expect("connects");
    let r = user.submit_sql("select * from C1", Some("paper-classes")).expect("answers");
    assert_eq!(r.len(), 2, "join on the key must pair the fragments");
    assert_eq!(r.columns().len(), 4, "all slots reassembled: id, a, b, c");
    assert_eq!(r.value(0, "a"), Some(&Value::Int(10)));
    assert_eq!(r.value(0, "b"), Some(&Value::str("one")));
    // Predicates over columns from *different* fragments work because the
    // MRQ applies the plan after reassembly.
    let filtered = user
        .submit_sql("select * from C1 where a = 20 and b = 'two'", Some("paper-classes"))
        .expect("answers");
    assert_eq!(filtered.len(), 1);
    community.shutdown();
}

#[test]
fn ch_stream_class_hierarchy_union() {
    // C2a and C2b are subclasses of C2, held by different agents; a query
    // over C2 reaches both via the broker's class-hierarchy reasoning.
    let o = paper_ontology();
    let community = Community::builder()
        .with_ontology(paper_ontology())
        .add_broker("broker-agent")
        .add_resource(ResourceDef::new("cha", "paper-classes", catalog_of(&o, &[("C2a", 3, 10)])))
        .add_resource(ResourceDef::new("chb", "paper-classes", catalog_of(&o, &[("C2b", 4, 11)])))
        .build()
        .expect("community starts");
    let mut user = community.user("user").expect("connects");
    let r = user.submit_sql("select * from C2", Some("paper-classes")).expect("answers");
    assert_eq!(r.len(), 7, "superclass query must union both subclass extents");
    community.shutdown();
}

#[test]
fn fh_stream_fragments_and_hierarchy_combined() {
    // Subclass C2a is itself vertically fragmented across two agents;
    // subclass C2b lives whole at a third agent.
    let f1 = fragment_table(
        "C2a",
        &[("id", ValueType::Int), ("a", ValueType::Int)],
        vec![vec![Value::Int(1), Value::Int(10)]],
    );
    let f2 = fragment_table(
        "C2a",
        &[("id", ValueType::Int), ("b", ValueType::Str), ("c", ValueType::Float)],
        vec![vec![Value::Int(1), Value::str("one"), Value::Float(0.1)]],
    );
    let whole_b = class_table("C2b", &[(9, 90, "nine", 9.9)]);
    let mk = |t: Table| {
        let mut c = Catalog::new();
        c.insert(t);
        c
    };
    let community = Community::builder()
        .with_ontology(paper_ontology())
        .add_broker("broker-agent")
        .add_resource(
            ResourceDef::new("fh1", "paper-classes", mk(f1))
                .with_fragment("C2a", Fragment::vertical(["id", "a"])),
        )
        .add_resource(
            ResourceDef::new("fh2", "paper-classes", mk(f2))
                .with_fragment("C2a", Fragment::vertical(["id", "b", "c"])),
        )
        .add_resource(ResourceDef::new("fh3", "paper-classes", mk(whole_b)))
        .build()
        .expect("community starts");
    let mut user = community.user("user").expect("connects");
    // Query the subclass directly: fragments rejoin.
    let c2a = user.submit_sql("select * from C2a", Some("paper-classes")).expect("answers");
    assert_eq!(c2a.len(), 1);
    assert_eq!(c2a.columns().len(), 4);
    // Query the superclass: the rejoined C2a row unions with C2b's row.
    let c2 = user.submit_sql("select * from C2", Some("paper-classes")).expect("answers");
    assert_eq!(c2.len(), 2, "hierarchy + fragmentation must both resolve");
    let mut ids = int_column(&c2, "id");
    ids.sort();
    assert_eq!(ids, vec![1, 9]);
    community.shutdown();
}
