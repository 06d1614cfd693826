//! Bottom-up evaluation: semi-naive fixpoint per stratum.

use crate::builtins::interval_overlaps;
use crate::db::Database;
use crate::program::Program;
use crate::rule::{Literal, Rule};
use crate::term::{Bindings, Const, Term};
use crate::Sym;

impl Program {
    /// Computes the full model of the program over an extensional database,
    /// stratum by stratum, using semi-naive evaluation within each stratum.
    /// The model is grown in `edb` itself: a caller that still needs the
    /// base clones it first.
    pub fn saturate(&self, edb: Database) -> Result<Saturated, crate::ProgramError> {
        self.validate()?;
        let mut db = edb;
        for stratum in 0..self.num_strata() {
            let rules: Vec<&Rule> = self.rules_in_stratum(stratum).collect();
            if rules.is_empty() {
                continue;
            }
            // Initial round: naive evaluation against the current database.
            let mut delta = Database::new();
            for rule in &rules {
                for fact in eval_rule(rule, &db, None) {
                    if !db.contains(&rule.head.pred, &fact) {
                        delta.assert(rule.head.pred.clone(), fact);
                    }
                }
            }
            db.merge(&delta);
            // Semi-naive rounds: each derivation must use at least one
            // delta fact in some positive literal.
            while !delta.is_empty() {
                let mut next = Database::new();
                for rule in &rules {
                    for fact in eval_rule(rule, &db, Some(&delta)) {
                        if !db.contains(&rule.head.pred, &fact) {
                            next.assert(rule.head.pred.clone(), fact);
                        }
                    }
                }
                db.merge(&next);
                delta = next;
            }
        }
        Ok(Saturated { db })
    }

    /// Reference implementation: naive fixpoint, ignoring strata-internal
    /// optimization (still stratified for negation). Used by tests to
    /// validate semi-naive evaluation.
    pub fn saturate_naive(&self, edb: &Database) -> Result<Saturated, crate::ProgramError> {
        self.validate()?;
        let mut db = edb.clone();
        for stratum in 0..self.num_strata() {
            let rules: Vec<&Rule> = self.rules_in_stratum(stratum).collect();
            loop {
                let mut added = 0;
                for rule in &rules {
                    for fact in eval_rule(rule, &db, None) {
                        if db.assert(rule.head.pred.clone(), fact) {
                            added += 1;
                        }
                    }
                }
                if added == 0 {
                    break;
                }
            }
        }
        Ok(Saturated { db })
    }
}

/// The saturated (materialized) model of a program over a database.
#[derive(Debug, Clone, PartialEq)]
pub struct Saturated {
    db: Database,
}

impl Saturated {
    /// The underlying fact database (EDB ∪ derived facts).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Evaluates a conjunctive query against the model, returning one
    /// binding set per answer (deduplicated).
    ///
    /// Goals are evaluated left to right; negated and builtin goals must
    /// have their variables bound by earlier positive goals (the parser and
    /// rule constructor enforce the analogous safety for rules).
    pub fn query(&self, goals: &[Literal]) -> Vec<Bindings> {
        let mut envs = vec![Bindings::new()];
        for goal in goals {
            envs = step_literal(goal, &self.db, None, envs);
            if envs.is_empty() {
                break;
            }
        }
        envs.sort();
        envs.dedup();
        envs
    }

    /// Convenience: whether the conjunctive query has at least one answer.
    pub fn holds(&self, goals: &[Literal]) -> bool {
        !self.query(goals).is_empty()
    }

    /// Whether the model holds the ground fact `pred(args…)`, every
    /// argument a symbol — what [`holds`](Self::holds) answers for that
    /// one positive ground atom, without building it or allocating.
    /// Callers resolve names with [`Sym::lookup`], which never grows the
    /// symbol table: `None` is a name nobody interned, which is in no
    /// fact.
    pub fn holds_fact<const N: usize>(&self, pred: &str, args: [Option<Sym>; N]) -> bool {
        let mut tuple = [Const::Int(0); N];
        for (cell, arg) in tuple.iter_mut().zip(args) {
            match arg {
                Some(sym) => *cell = Const::Sym(sym),
                None => return false,
            }
        }
        self.db.contains(pred, &tuple)
    }
}

/// Evaluates one rule, returning derived ground head tuples. When `delta`
/// is provided, only derivations using at least one delta fact in some
/// positive literal are produced (the semi-naive restriction); this is
/// implemented as a union over which positive literal reads from the delta.
fn eval_rule(rule: &Rule, db: &Database, delta: Option<&Database>) -> Vec<Vec<Const>> {
    let mut out = Vec::new();
    let positive_positions: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, l)| matches!(l, Literal::Pos(_)))
        .map(|(i, _)| i)
        .collect();

    let variants: Vec<Option<usize>> = match delta {
        None => vec![None],
        Some(_) => positive_positions.iter().map(|&i| Some(i)).collect(),
    };

    for delta_pos in variants {
        // Evaluate the delta literal first so every derivation in this
        // variant starts from the (small) delta rather than scanning the
        // full database and filtering afterwards. Hoisting a positive
        // literal to the front is sound: the relative order of all other
        // literals is preserved, so builtins and negation still see every
        // binding they saw before, plus possibly more.
        let order: Vec<usize> = match delta_pos {
            Some(d) => std::iter::once(d).chain((0..rule.body.len()).filter(|&i| i != d)).collect(),
            None => (0..rule.body.len()).collect(),
        };
        let mut envs = vec![Bindings::new()];
        for &i in &order {
            let source = if delta_pos == Some(i) { delta } else { None };
            envs = step_literal(&rule.body[i], db, source, envs);
            if envs.is_empty() {
                break;
            }
        }
        for env in envs {
            if let Some(fact) = rule.head.ground(&env) {
                out.push(fact);
            }
        }
    }
    out
}

/// Extends each binding environment across one literal.
///
/// For positive literals, `restricted` (when provided) selects the fact
/// source (the delta database); otherwise facts come from `db`. Negation is
/// always checked against the full `db`.
fn step_literal(
    lit: &Literal,
    db: &Database,
    restricted: Option<&Database>,
    envs: Vec<Bindings>,
) -> Vec<Bindings> {
    let mut out = Vec::new();
    match lit {
        Literal::Pos(atom) => {
            let source = restricted.unwrap_or(db);
            for env in &envs {
                // Fully-ground probe: a single hash lookup.
                if let Some(tuple) = atom.ground(env) {
                    if source.contains(&atom.pred, &tuple) {
                        out.push(env.clone());
                    }
                    continue;
                }
                // First argument bound: scan only its index group.
                match atom.args.first().map(|t| t.resolve(env)) {
                    Some(Term::Const(first)) => {
                        for tuple in source.tuples_with_first(&atom.pred, &first) {
                            let mut candidate = env.clone();
                            if atom.match_fact(tuple, &mut candidate) {
                                out.push(candidate);
                            }
                        }
                    }
                    _ => {
                        for tuple in source.tuples(&atom.pred) {
                            let mut candidate = env.clone();
                            if atom.match_fact(tuple, &mut candidate) {
                                out.push(candidate);
                            }
                        }
                    }
                }
            }
        }
        Literal::Neg(atom) => {
            for env in envs {
                // An unbound variable here would be unsafe; `ground`
                // returning None yields no answers rather than a wrong one.
                if let Some(tuple) = atom.ground(&env) {
                    if !db.contains(&atom.pred, &tuple) {
                        out.push(env);
                    }
                }
            }
        }
        Literal::Cmp { op, lhs, rhs } => {
            for env in envs {
                if let (Term::Const(a), Term::Const(b)) = (lhs.resolve(&env), rhs.resolve(&env)) {
                    if op.eval(&a, &b) {
                        out.push(env);
                    }
                }
            }
        }
        Literal::Overlaps { a_lo, a_hi, b_lo, b_hi } => {
            for env in envs {
                let resolved = [
                    a_lo.resolve(&env),
                    a_hi.resolve(&env),
                    b_lo.resolve(&env),
                    b_hi.resolve(&env),
                ];
                let consts: Option<Vec<Const>> = resolved
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => Some(*c),
                        Term::Var(_) => None,
                    })
                    .collect();
                if let Some(c) = consts {
                    if interval_overlaps(&c[0], &c[1], &c[2], &c[3]) {
                        out.push(env);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_query, parse_rules};

    fn edges(pairs: &[(&str, &str)]) -> Database {
        let mut db = Database::new();
        for (a, b) in pairs {
            db.assert("edge", vec![Const::sym(*a), Const::sym(*b)]);
        }
        db
    }

    #[test]
    fn transitive_closure() {
        let p = parse_rules("path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y).").unwrap();
        let db = edges(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let s = p.saturate(db).unwrap();
        let answers = s.query(&parse_query("path(a, X)").unwrap());
        let mut xs: Vec<String> =
            answers.iter().map(|b| b["X"].as_sym().unwrap().to_string()).collect();
        xs.sort();
        assert_eq!(xs, vec!["b", "c", "d"]);
    }

    #[test]
    fn semi_naive_equals_naive() {
        let p = parse_rules("path(X,Y) :- edge(X,Y). path(X,Y) :- path(X,Z), path(Z,Y).").unwrap();
        // A small dense graph with cycles.
        let db = edges(&[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "d")]);
        let semi = p.saturate(db.clone()).unwrap();
        let naive = p.saturate_naive(&db).unwrap();
        assert_eq!(semi.db(), naive.db());
    }

    #[test]
    fn cyclic_graph_terminates() {
        let p = parse_rules("path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y).").unwrap();
        let db = edges(&[("a", "b"), ("b", "a")]);
        let s = p.saturate(db).unwrap();
        assert_eq!(s.db().tuples("path").count(), 4); // aa ab ba bb
    }

    #[test]
    fn stratified_negation_computes_complement() {
        let p = parse_rules(
            "node(X) :- edge(X,Y). node(Y) :- edge(X,Y). \
             reach(X,Y) :- edge(X,Y). reach(X,Y) :- edge(X,Z), reach(Z,Y). \
             unreach(X,Y) :- node(X), node(Y), not reach(X,Y).",
        )
        .unwrap();
        let db = edges(&[("a", "b"), ("b", "c")]);
        let s = p.saturate(db).unwrap();
        assert!(s.holds(&parse_query("unreach(c, a)").unwrap()));
        assert!(!s.holds(&parse_query("unreach(a, c)").unwrap()));
        // a cannot reach itself (no self loop).
        assert!(s.holds(&parse_query("unreach(a, a)").unwrap()));
    }

    #[test]
    fn builtins_filter_derivations() {
        let p = parse_rules("small(X) :- num(X), X < 3.").unwrap();
        let mut db = Database::new();
        for i in 0..5 {
            db.assert("num", vec![Const::int(i)]);
        }
        let s = p.saturate(db).unwrap();
        assert_eq!(s.query(&parse_query("small(X)").unwrap()).len(), 3);
    }

    #[test]
    fn overlaps_builtin_in_rules() {
        let p = parse_rules(
            "match(A, B) :- range(A, ALo, AHi), range(B, BLo, BHi), A != B, \
             overlaps(ALo, AHi, BLo, BHi).",
        )
        .unwrap();
        let mut db = Database::new();
        db.assert("range", vec![Const::sym("ra5"), Const::int(43), Const::int(75)]);
        db.assert("range", vec![Const::sym("q"), Const::int(25), Const::int(65)]);
        db.assert("range", vec![Const::sym("far"), Const::int(90), Const::int(99)]);
        let s = p.saturate(db).unwrap();
        assert!(s.holds(&parse_query("match(ra5, q)").unwrap()));
        assert!(!s.holds(&parse_query("match(ra5, far)").unwrap()));
    }

    #[test]
    fn query_projects_and_dedups() {
        let p = parse_rules("p(X) :- e(X, Y).").unwrap();
        let mut db = Database::new();
        db.assert("e", vec![Const::sym("a"), Const::int(1)]);
        db.assert("e", vec![Const::sym("a"), Const::int(2)]);
        let s = p.saturate(db).unwrap();
        let answers = s.query(&parse_query("p(X)").unwrap());
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0]["X"], Const::sym("a"));
    }

    #[test]
    fn query_with_constants_and_negation() {
        let p = parse_rules("p(X) :- e(X).").unwrap();
        let mut db = Database::new();
        db.assert("e", vec![Const::sym("a")]);
        db.assert("f", vec![Const::sym("a")]);
        let s = p.saturate(db).unwrap();
        assert!(s.holds(&parse_query("p(a)").unwrap()));
        assert!(!s.holds(&parse_query("p(b)").unwrap()));
        assert!(!s.holds(&parse_query("p(X), not f(X)").unwrap()));
    }

    #[test]
    fn empty_program_keeps_edb() {
        let p = parse_rules("").unwrap();
        let mut db = Database::new();
        db.assert("e", vec![Const::sym("a")]);
        let s = p.saturate(db).unwrap();
        assert_eq!(s.db().len(), 1);
    }

    #[test]
    fn multiple_rules_same_head() {
        let p = parse_rules("h(X) :- a(X). h(X) :- b(X).").unwrap();
        let mut db = Database::new();
        db.assert("a", vec![Const::int(1)]);
        db.assert("b", vec![Const::int(2)]);
        let s = p.saturate(db).unwrap();
        assert_eq!(s.db().tuples("h").count(), 2);
    }
}
