//! The extensional database: ground facts indexed by predicate and,
//! within a predicate, hashed for membership and ordered so that tuples
//! sharing a first argument are adjacent.

use crate::term::{Atom, Const};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// A stored tuple: one allocation, shared by the two structures that
/// index it and by every database a merge or a clone copied it into (the
/// repository's EDB and its saturated model hold the same rows).
type Tuple = Arc<[Const]>;

/// A tuple as the ordered index keys it. Rows order by
/// [`Const::id_key`], cell by cell: cheap, total, and putting every tuple
/// with a given first argument in one run — the order of *storage* only.
/// It follows symbol ids, which follow the order names happened to be
/// interned in, so nothing observable may depend on it: every rendering
/// sorts by `Const`'s own `Ord` first.
#[derive(Clone, PartialEq, Eq)]
struct Row(Tuple);

/// What a row is compared through, so a borrowed `&[Const]` can bound a
/// range of a `BTreeSet<Row>` without being allocated into a `Row` first.
trait Cells {
    fn cells(&self) -> &[Const];
}

impl Cells for Row {
    fn cells(&self) -> &[Const] {
        &self.0
    }
}

impl Cells for &[Const] {
    fn cells(&self) -> &[Const] {
        self
    }
}

impl<'a> Borrow<dyn Cells + 'a> for Row {
    fn borrow(&self) -> &(dyn Cells + 'a) {
        self
    }
}

impl Ord for dyn Cells + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cells().iter().map(Const::id_key).cmp(other.cells().iter().map(Const::id_key))
    }
}

impl PartialOrd for dyn Cells + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn Cells + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cells() == other.cells()
    }
}

impl Eq for dyn Cells + '_ {}

impl Ord for Row {
    fn cmp(&self, other: &Self) -> Ordering {
        (self as &dyn Cells).cmp(other)
    }
}

impl PartialOrd for Row {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One predicate's tuples, indexed twice. `members` answers the ground
/// probe — one hash lookup, nothing allocated: what scoring asks per
/// candidate and evaluation asks per derived fact. `rows` holds the same
/// tuples in order, so a probe with a bound first argument (the common
/// shape in matchmaking: the agent name leads every per-agent fact) is a
/// range scan over that argument's run with no table per argument.
#[derive(Clone, Default, PartialEq)]
struct Relation {
    members: HashSet<Tuple>,
    rows: BTreeSet<Row>,
}

// Hand-written so that dumps are deterministic: storage order follows
// symbol ids, which vary with interning order and break golden tests.
impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut tuples: Vec<&[Const]> = self.tuples().collect();
        tuples.sort();
        f.debug_struct("Relation").field("tuples", &tuples).field("count", &tuples.len()).finish()
    }
}

impl Relation {
    fn insert(&mut self, tuple: Tuple) -> bool {
        self.members.insert(Arc::clone(&tuple)) && self.rows.insert(Row(tuple))
    }

    fn contains(&self, tuple: &[Const]) -> bool {
        self.members.contains(tuple)
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    fn tuples(&self) -> impl Iterator<Item = &[Const]> {
        self.rows.iter().map(Row::cells)
    }

    /// The run of tuples led by `first`: it starts at the one-cell row
    /// `(first)`, which sorts before every longer row it prefixes.
    fn with_first(&self, first: Const) -> impl Iterator<Item = &[Const]> {
        let start: &[Const] = std::slice::from_ref(&first);
        self.rows
            .range::<dyn Cells, _>((Bound::Included(&start as &dyn Cells), Bound::Unbounded))
            .map(Row::cells)
            .take_while(move |t| t[0] == first)
    }
}

/// A set of ground facts, indexed by predicate name and first argument.
///
/// The broker keeps one `Database` per repository snapshot: advertisement
/// records compile into facts like `agent_capability(ra5, subscription)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Database {
    facts: BTreeMap<String, Relation>,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// Asserts a fact. Returns `true` if it was new.
    pub fn assert(&mut self, pred: impl Into<String>, tuple: impl Into<Arc<[Const]>>) -> bool {
        self.facts.entry(pred.into()).or_default().insert(tuple.into())
    }

    /// Asserts a ground atom.
    pub fn assert_atom(&mut self, atom: &Atom) -> Result<bool, String> {
        let tuple = atom
            .ground(&crate::term::Bindings::new())
            .ok_or_else(|| format!("atom {atom} is not ground"))?;
        Ok(self.assert(atom.pred.clone(), tuple))
    }

    /// Parses and asserts a textual fact like `isa(relational, select).`
    pub fn assert_str(&mut self, src: &str) -> Result<bool, crate::LdlParseError> {
        let atom = crate::parse_atom(src.trim_end_matches('.'))?;
        self.assert_atom(&atom).map_err(|m| crate::LdlParseError { message: m, position: 0 })
    }

    pub fn contains(&self, pred: &str, tuple: &[Const]) -> bool {
        self.facts.get(pred).is_some_and(|r| r.contains(tuple))
    }

    /// All tuples of a predicate.
    pub fn tuples(&self, pred: &str) -> impl Iterator<Item = &[Const]> {
        self.facts.get(pred).into_iter().flat_map(Relation::tuples)
    }

    /// Tuples of a predicate whose first argument equals `first` — a range
    /// scan over that argument's run, not over the predicate. Nullary
    /// tuples are never returned.
    pub fn tuples_with_first<'a>(
        &'a self,
        pred: &str,
        first: &Const,
    ) -> impl Iterator<Item = &'a [Const]> {
        let first = *first;
        self.facts.get(pred).into_iter().flat_map(move |r| r.with_first(first))
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.facts.values().map(Relation::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges another database into this one, returning how many facts were new.
    pub fn merge(&mut self, other: &Database) -> usize {
        let mut added = 0;
        for (pred, rel) in &other.facts {
            let target = self.facts.entry(pred.clone()).or_default();
            for row in &rel.rows {
                if target.insert(Arc::clone(&row.0)) {
                    added += 1;
                }
            }
        }
        added
    }

    /// Iterates every `(predicate, tuple)` pair.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[Const])> {
        self.facts.iter().flat_map(|(pred, rel)| rel.tuples().map(move |t| (pred.as_str(), t)))
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pred, rel) in &self.facts {
            let mut sorted: Vec<_> = rel.tuples().collect();
            sorted.sort();
            for t in sorted {
                write!(f, "{pred}(")?;
                for (i, c) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                writeln!(f, ").")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assert_and_contains() {
        let mut db = Database::new();
        assert!(db.assert("p", vec![Const::int(1)]));
        assert!(!db.assert("p", vec![Const::int(1)])); // duplicate
        assert!(db.contains("p", &[Const::int(1)]));
        assert!(!db.contains("p", &[Const::int(2)]));
        assert!(!db.contains("q", &[Const::int(1)]));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn merge_counts_new_facts() {
        let mut a = Database::new();
        a.assert("p", vec![Const::int(1)]);
        let mut b = Database::new();
        b.assert("p", vec![Const::int(1)]);
        b.assert("p", vec![Const::int(2)]);
        b.assert("q", vec![Const::sym("z")]);
        assert_eq!(a.merge(&b), 2);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn assert_str_parses_facts() {
        let mut db = Database::new();
        db.assert_str("isa(relational, select).").unwrap();
        assert!(db.contains("isa", &[Const::sym("relational"), Const::sym("select")]));
        assert!(db.assert_str("p(X).").is_err()); // not ground
    }

    #[test]
    fn display_is_sorted_and_stable() {
        let mut db = Database::new();
        db.assert("b", vec![Const::int(2)]);
        db.assert("a", vec![Const::int(1)]);
        let text = db.to_string();
        assert_eq!(text, "a(1).\nb(2).\n");
    }

    #[test]
    fn first_arg_groups_probe_without_scanning() {
        let mut db = Database::new();
        for i in 0..10 {
            db.assert("cap", vec![Const::sym(format!("a{i}")), Const::int(i)]);
        }
        let hits: Vec<_> = db.tuples_with_first("cap", &Const::sym("a3")).collect();
        assert_eq!(hits, vec![&[Const::sym("a3"), Const::int(3)][..]]);
        assert!(db.tuples_with_first("cap", &Const::sym("zz")).next().is_none());
        assert!(db.tuples_with_first("nope", &Const::sym("a3")).next().is_none());
    }

    #[test]
    fn iter_walks_every_fact() {
        let mut db = Database::new();
        db.assert("p", vec![Const::int(1)]);
        db.assert("q", vec![Const::sym("a"), Const::int(2)]);
        let mut seen: Vec<String> = db.iter().map(|(p, t)| format!("{p}/{}", t.len())).collect();
        seen.sort();
        assert_eq!(seen, vec!["p/1", "q/2"]);
    }
}
