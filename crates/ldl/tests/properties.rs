//! Property tests for the LDL engine: the semi-naive evaluator must agree
//! with the reference naive evaluator on arbitrary (safe, stratified)
//! programs, closure semantics must hold, and interned constants must
//! order, render and probe exactly as the strings they name.

use infosleuth_ldl::{parse_query, parse_rules, Atom, Const, Database, Literal, Sym, Term};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A random edge relation over a small node universe.
fn arb_edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((0u8..8, 0u8..8), 0..24)
}

fn edge_db(edges: &[(u8, u8)]) -> Database {
    let mut db = Database::new();
    for (a, b) in edges {
        db.assert("edge", vec![Const::sym(format!("n{a}")), Const::sym(format!("n{b}"))]);
    }
    db
}

/// Short names over a small alphabet, so equal names, shared prefixes and
/// every relative interning order turn up.
fn arb_name() -> impl Strategy<Value = String> {
    "[a-cA-C_-]{0,3}"
}

/// What a fact database printed as while constants held their own
/// `String`s: same type, field and variant names, so the derived `Debug`
/// is the reference rendering.
mod reference {
    use std::collections::BTreeMap;
    use std::fmt;

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Const {
        Sym(String),
        Str(String),
        Int(i64),
        FloatBits(u64),
    }

    impl fmt::Display for Const {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Const::Sym(s) => write!(f, "{s}"),
                Const::Str(s) => write!(f, "\"{s}\""),
                Const::Int(i) => write!(f, "{i}"),
                Const::FloatBits(b) => write!(f, "{}", f64::from_bits(*b)),
            }
        }
    }

    #[derive(Debug)]
    pub struct Relation {
        pub tuples: Vec<Vec<Const>>,
        #[allow(dead_code)] // read by the derived `Debug` only
        pub count: usize,
    }

    #[derive(Debug)]
    pub struct Database {
        pub facts: BTreeMap<String, Relation>,
    }

    impl fmt::Display for Database {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for (pred, rel) in &self.facts {
                for t in &rel.tuples {
                    let cells: Vec<String> = t.iter().map(Const::to_string).collect();
                    writeln!(f, "{pred}({}).", cells.join(", "))?;
                }
            }
            Ok(())
        }
    }
}

fn arb_ref_const() -> impl Strategy<Value = reference::Const> {
    prop_oneof![
        arb_name().prop_map(reference::Const::Sym),
        arb_name().prop_map(reference::Const::Str),
        (-3i64..4).prop_map(reference::Const::Int),
        (-2i64..3).prop_map(|i| reference::Const::FloatBits((i as f64 / 2.0).to_bits())),
    ]
}

fn interned(c: &reference::Const) -> Const {
    match c {
        reference::Const::Sym(s) => Const::sym(s),
        reference::Const::Str(s) => Const::str(s),
        reference::Const::Int(i) => Const::Int(*i),
        reference::Const::FloatBits(b) => Const::FloatBits(*b),
    }
}

proptest! {
    /// Symbols order as the strings they name, whatever order they were
    /// interned in, and are equal exactly when the strings are.
    #[test]
    fn sym_order_is_string_order(names in proptest::collection::vec(arb_name(), 0..12)) {
        let syms: Vec<Sym> = names.iter().map(|n| Sym::new(n)).collect();
        for (a, x) in names.iter().zip(&syms) {
            prop_assert_eq!(x.as_str(), a.as_str());
            for (b, y) in names.iter().zip(&syms) {
                prop_assert_eq!(x.cmp(y), a.cmp(b));
                prop_assert_eq!(x == y, a == b);
            }
        }
        let mut sorted = syms.clone();
        sorted.sort();
        let mut by_name = names.clone();
        by_name.sort();
        let rendered: Vec<&str> = sorted.iter().map(|s| s.as_str()).collect();
        prop_assert_eq!(rendered, by_name);
    }

    /// A database of interned constants prints — `Display`, `Debug` and
    /// pretty `Debug` — byte for byte what the `String`-constant layout
    /// printed, in whatever order the facts went in.
    #[test]
    fn database_renders_like_the_string_layout(
        facts in proptest::collection::vec(
            ("[pq]", proptest::collection::vec(arb_ref_const(), 0..4)),
            0..16,
        ),
    ) {
        let mut db = Database::new();
        let mut sets: BTreeMap<String, BTreeSet<Vec<reference::Const>>> = BTreeMap::new();
        for (pred, tuple) in &facts {
            let fresh = sets.entry(pred.clone()).or_default().insert(tuple.clone());
            let tuple: Vec<Const> = tuple.iter().map(interned).collect();
            prop_assert_eq!(db.assert(pred.as_str(), tuple), fresh);
        }
        let expected = reference::Database {
            facts: sets
                .into_iter()
                .map(|(pred, set)| {
                    let tuples: Vec<_> = set.into_iter().collect();
                    (pred, reference::Relation { count: tuples.len(), tuples })
                })
                .collect(),
        };
        prop_assert_eq!(db.to_string(), expected.to_string());
        prop_assert_eq!(format!("{db:?}"), format!("{expected:?}"));
        prop_assert_eq!(format!("{db:#?}"), format!("{expected:#?}"));
    }

    /// `holds` on one positive ground atom and the direct probe answer
    /// alike: for facts in the model, derived or given, and for atoms over
    /// names the model never held or nobody ever interned.
    #[test]
    fn ground_holds_agrees_with_the_direct_probe(
        edges in arb_edges(),
        probes in proptest::collection::vec(("[a-z]{1,2}[0-9]?", "n[0-9]"), 0..6),
    ) {
        let p = parse_rules(
            "reach(X,Y) :- edge(X,Y). reach(X,Y) :- edge(X,Z), reach(Z,Y).",
        ).expect("parses");
        let model = p.saturate(edge_db(&edges)).expect("stratified");
        let nodes = (0..8).map(|n| format!("n{n}"));
        let pairs: Vec<(String, String)> = nodes
            .clone()
            .flat_map(|a| nodes.clone().map(move |b| (a.clone(), b)))
            .chain(probes)
            .collect();
        for (a, b) in &pairs {
            for pred in ["edge", "reach", "absent"] {
                // Probed first: building the atom interns its names.
                let direct = model.holds_fact(pred, [Sym::lookup(a), Sym::lookup(b)]);
                let atom = Atom::new(pred, vec![Term::constant(a.as_str()), Term::constant(b.as_str())]);
                prop_assert_eq!(direct, model.holds(&[Literal::Pos(atom)]), "{}({}, {})", pred, a, b);
            }
        }
    }

    /// Semi-naive and naive evaluation produce identical models for the
    /// linear-recursive closure program, on arbitrary graphs (with cycles).
    #[test]
    fn semi_naive_matches_naive_linear(edges in arb_edges()) {
        let p = parse_rules(
            "reach(X,Y) :- edge(X,Y). reach(X,Y) :- edge(X,Z), reach(Z,Y).",
        ).expect("parses");
        let db = edge_db(&edges);
        let semi = p.saturate(db.clone()).expect("stratified");
        let naive = p.saturate_naive(&db).expect("stratified");
        prop_assert_eq!(semi.db(), naive.db());
    }

    /// Same for the non-linear (quadratic) formulation — a harder case for
    /// the delta propagation.
    #[test]
    fn semi_naive_matches_naive_nonlinear(edges in arb_edges()) {
        let p = parse_rules(
            "reach(X,Y) :- edge(X,Y). reach(X,Y) :- reach(X,Z), reach(Z,Y).",
        ).expect("parses");
        let db = edge_db(&edges);
        let semi = p.saturate(db.clone()).expect("stratified");
        let naive = p.saturate_naive(&db).expect("stratified");
        prop_assert_eq!(semi.db(), naive.db());
    }

    /// And with stratified negation layered on top.
    #[test]
    fn semi_naive_matches_naive_with_negation(edges in arb_edges()) {
        let p = parse_rules(
            "node(X) :- edge(X, Y). node(Y) :- edge(X, Y). \
             reach(X,Y) :- edge(X,Y). reach(X,Y) :- edge(X,Z), reach(Z,Y). \
             unreach(X,Y) :- node(X), node(Y), not reach(X,Y).",
        ).expect("parses");
        let db = edge_db(&edges);
        let semi = p.saturate(db.clone()).expect("stratified");
        let naive = p.saturate_naive(&db).expect("stratified");
        prop_assert_eq!(semi.db(), naive.db());
    }

    /// Closure semantics: `reach` is exactly graph reachability.
    #[test]
    fn closure_equals_reachability(edges in arb_edges()) {
        let p = parse_rules(
            "reach(X,Y) :- edge(X,Y). reach(X,Y) :- edge(X,Z), reach(Z,Y).",
        ).expect("parses");
        let model = p.saturate(edge_db(&edges)).expect("stratified");
        // Reference: BFS per node over the same graph.
        let mut adj = vec![vec![]; 8];
        for (a, b) in &edges {
            adj[*a as usize].push(*b as usize);
        }
        for start in 0..8usize {
            let mut seen = [false; 8];
            let mut stack: Vec<usize> = adj[start].clone();
            while let Some(n) = stack.pop() {
                if !seen[n] {
                    seen[n] = true;
                    stack.extend(adj[n].iter().copied());
                }
            }
            for (target, reachable) in seen.iter().enumerate() {
                let goal = parse_query(&format!("reach(n{start}, n{target})"))
                    .expect("query parses");
                prop_assert_eq!(
                    model.holds(&goal),
                    *reachable,
                    "reach(n{}, n{}) disagrees with BFS", start, target
                );
            }
        }
    }

    /// The model is monotone in the EDB for negation-free programs: adding
    /// facts never removes derived facts.
    #[test]
    fn positive_programs_are_monotone(
        edges in arb_edges(),
        extra in (0u8..8, 0u8..8),
    ) {
        let p = parse_rules(
            "reach(X,Y) :- edge(X,Y). reach(X,Y) :- edge(X,Z), reach(Z,Y).",
        ).expect("parses");
        let base = p.saturate(edge_db(&edges)).expect("stratified");
        let mut bigger_edges = edges.clone();
        bigger_edges.push(extra);
        let bigger = p.saturate(edge_db(&bigger_edges)).expect("stratified");
        for t in base.db().tuples("reach") {
            prop_assert!(bigger.db().contains("reach", t));
        }
    }
}

/// Eight threads interning the same strings at once, released together,
/// agree on one id per string and give distinct strings distinct ids.
#[test]
fn concurrent_interning_yields_one_id_per_string() {
    let names: Vec<String> = (0..200).map(|i| format!("concurrent-intern-{}", i % 50)).collect();
    let start = std::sync::Barrier::new(8);
    let per_thread: Vec<Vec<Sym>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let (names, start) = (&names, &start);
                scope.spawn(move || {
                    start.wait();
                    // Each thread walks the names from its own offset, so
                    // first sight of a name is spread over the threads.
                    (0..names.len()).map(|i| Sym::new(&names[(i + t * 25) % names.len()])).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("interning thread panicked")).collect()
    });
    let mut id_of: BTreeMap<&str, Sym> = BTreeMap::new();
    for (t, syms) in per_thread.iter().enumerate() {
        for (i, sym) in syms.iter().enumerate() {
            let name = names[(i + t * 25) % names.len()].as_str();
            assert_eq!(sym.as_str(), name);
            assert_eq!(*id_of.entry(name).or_insert(*sym), *sym, "two ids for {name}");
        }
    }
    assert_eq!(id_of.len(), 50);
    let ids: BTreeSet<u32> = id_of.values().map(|s| s.id()).collect();
    assert_eq!(ids.len(), 50, "distinct strings share no id");
}
