//! Oracle equivalence for incremental saturation: a long randomized
//! churn of EDB assertions and retractions, where after every step the
//! incrementally maintained model must equal a full recompute from the
//! current EDB.

use infosleuth_ldl::{parse_rules, Const, Database, Program, Saturated};

/// xorshift64* — deterministic, dependency-free randomness for the churn.
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

fn node(i: usize) -> Const {
    Const::sym(format!("n{i}"))
}

/// A program exercising recursion, joins across predicates, and a
/// comparison builtin — everything incremental maintenance must handle
/// except negation (which it refuses by design).
fn churn_program() -> Program {
    parse_rules(
        "path(X,Y) :- edge(X,Y). \
         path(X,Y) :- edge(X,Z), path(Z,Y). \
         hub(X) :- path(X,Y), path(Y,X). \
         heavy(X,Y,W) :- edge(X,Y), weight(X, W), W > 5. \
         linked(X,Y) :- path(X,Y), label(X, L), label(Y, L).",
    )
    .unwrap()
}

struct Churn {
    rng: XorShift,
    nodes: usize,
    edb: Database,
    model: Saturated,
    program: Program,
}

impl Churn {
    fn new(seed: u64, nodes: usize) -> Self {
        let program = churn_program();
        let mut edb = Database::new();
        // A few base weights and labels so the join rules fire.
        for i in 0..nodes {
            edb.assert("weight", vec![node(i), Const::int((i % 10) as i64)]);
            edb.assert("label", vec![node(i), Const::sym(format!("l{}", i % 3))]);
        }
        let model = program.saturate(&edb).unwrap();
        Churn { rng: XorShift(seed | 1), nodes, edb, model, program }
    }

    fn random_edge(&mut self) -> Vec<Const> {
        let a = self.rng.below(self.nodes);
        let b = self.rng.below(self.nodes);
        vec![node(a), node(b)]
    }

    /// One churn step: add or retract a small batch of edges, maintain
    /// the model incrementally, and compare against a full recompute.
    fn step(&mut self) {
        let batch = 1 + self.rng.below(3);
        let mut delta = Database::new();
        if self.rng.next() % 100 < 55 {
            for _ in 0..batch {
                let e = self.random_edge();
                delta.assert("edge", e.clone());
                self.edb.assert("edge", e);
            }
            self.model =
                self.model.add_facts(&self.program, &delta).expect("program is negation-free");
        } else {
            let present: Vec<Vec<Const>> = self.edb.tuples("edge").map(<[Const]>::to_vec).collect();
            if present.is_empty() {
                return;
            }
            for _ in 0..batch {
                let e = present[self.rng.below(present.len())].clone();
                delta.assert("edge", e.clone());
                self.edb.retract("edge", &e);
            }
            self.model =
                self.model.remove_facts(&self.program, &delta).expect("program is negation-free");
        }
        let oracle = self.program.saturate(&self.edb).unwrap();
        assert_eq!(
            self.model.db(),
            oracle.db(),
            "incremental model diverged from full recompute\nincremental:\n{}\noracle:\n{}",
            self.model.db(),
            oracle.db()
        );
    }
}

#[test]
fn incremental_matches_full_recompute_over_long_churn() {
    // 3 seeds x 400 steps = 1200 randomized add/retract steps, each
    // checked against the full-recompute oracle.
    for seed in [7, 1999, 0xDEADBEEF] {
        let mut churn = Churn::new(seed, 10);
        for _ in 0..400 {
            churn.step();
        }
    }
}

#[test]
fn add_then_remove_round_trips_to_original_model() {
    let program = churn_program();
    let mut edb = Database::new();
    for i in 0..6 {
        edb.assert("edge", vec![node(i), node((i + 1) % 6)]);
        edb.assert("weight", vec![node(i), Const::int(7)]);
        edb.assert("label", vec![node(i), Const::sym("l")]);
    }
    let base = program.saturate(&edb).unwrap();
    let mut delta = Database::new();
    delta.assert("edge", vec![node(0), node(3)]);
    delta.assert("edge", vec![node(5), node(5)]);
    let grown = base.add_facts(&program, &delta).unwrap();
    assert!(grown.db().len() > base.db().len());
    let back = grown.remove_facts(&program, &delta).unwrap();
    assert_eq!(back.db(), base.db());
}

#[test]
fn removal_keeps_facts_with_alternative_support() {
    let program =
        parse_rules("path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y).").unwrap();
    let mut edb = Database::new();
    // Two routes from a to c: direct, and via b.
    edb.assert("edge", vec![Const::sym("a"), Const::sym("c")]);
    edb.assert("edge", vec![Const::sym("a"), Const::sym("b")]);
    edb.assert("edge", vec![Const::sym("b"), Const::sym("c")]);
    let model = program.saturate(&edb).unwrap();
    let mut delta = Database::new();
    delta.assert("edge", vec![Const::sym("a"), Const::sym("c")]);
    let shrunk = model.remove_facts(&program, &delta).unwrap();
    // The direct edge is gone but path(a, c) survives via b.
    assert!(!shrunk.db().contains("edge", &[Const::sym("a"), Const::sym("c")]));
    assert!(shrunk.db().contains("path", &[Const::sym("a"), Const::sym("c")]));
}

#[test]
fn negation_refuses_incremental_maintenance() {
    let program = parse_rules("p(X) :- e(X). q(X) :- e(X), not f(X).").unwrap();
    let mut edb = Database::new();
    edb.assert("e", vec![Const::sym("a")]);
    let model = program.saturate(&edb).unwrap();
    let mut delta = Database::new();
    delta.assert("e", vec![Const::sym("b")]);
    assert!(model.add_facts(&program, &delta).is_none());
    assert!(model.remove_facts(&program, &delta).is_none());
}
