//! Class fragments.
//!
//! Resource agents frequently hold only *part* of a class: a subset of its
//! slots (**vertical fragmentation**, the paper's `VF` query stream) or the
//! subset of instances satisfying a constraint (**horizontal
//! fragmentation**, e.g. "patients between 43 and 75"). The broker "can
//! return all matched slots from classes that are fragmented" (§2.1), so
//! fragments are first-class in the service ontology.

use infosleuth_constraint::Conjunction;
use infosleuth_kqml::{Fnv, Text};
use std::fmt;

/// A fragment of a class held by a resource agent.
#[derive(Debug, Clone, PartialEq)]
pub enum Fragment {
    /// The agent holds only these slots (plus, implicitly, the class key —
    /// required to rejoin vertical fragments).
    Vertical { slots: Vec<String> },
    /// The agent holds only instances satisfying the constraint.
    Horizontal { constraint: Conjunction },
}

impl Fragment {
    pub fn vertical<I, S>(slots: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Fragment::Vertical { slots: slots.into_iter().map(Into::into).collect() }
    }

    pub fn horizontal(constraint: Conjunction) -> Self {
        Fragment::Horizontal { constraint }
    }

    /// Whether this fragment can contribute to a request that needs the
    /// given slots (vertical) and satisfies the given constraint
    /// (horizontal). A vertical fragment contributes if it shares *any*
    /// requested slot (fragments are combined by joining on the key); a
    /// horizontal fragment contributes if its constraint overlaps the
    /// request's.
    pub fn contributes_to(&self, requested_slots: &[Text], requested: &Conjunction) -> bool {
        match self {
            Fragment::Vertical { slots } => {
                requested_slots.is_empty()
                    || requested_slots.iter().any(|r| slots.iter().any(|s| r == s.as_str()))
            }
            Fragment::Horizontal { constraint } => constraint.overlaps(requested),
        }
    }
}

/// Stable 64-bit FNV-1a hash of an ontology fragment name — the
/// `(ontology, class)` pair that identifies one unit of advertised
/// content. Shard planners partition advertisements across brokers by
/// this hash, so it must be identical across processes and runs; the
/// standard library's `HashMap` hasher is seed-randomized, hence
/// [`Fnv`]. A NUL separator keeps `("ab", "c")` and `("a", "bc")`
/// distinct.
pub fn fragment_hash(ontology: &str, class: &str) -> u64 {
    Fnv::EMPTY.eat(ontology).eat("\0").eat(class).finish()
}

impl fmt::Display for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fragment::Vertical { slots } => write!(f, "vertical({})", slots.join(", ")),
            Fragment::Horizontal { constraint } => write!(f, "horizontal({constraint})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_constraint::Predicate;

    #[test]
    fn vertical_fragment_contributes_on_slot_overlap() {
        let frag = Fragment::vertical(["id", "name"]);
        let wanted = ["name".into(), "age".into()];
        assert!(frag.contributes_to(&wanted, &Conjunction::always()));
        let unwanted = ["age".into()];
        assert!(!frag.contributes_to(&unwanted, &Conjunction::always()));
        // A `select *`-style request (no explicit slots) touches everything.
        assert!(frag.contributes_to(&[], &Conjunction::always()));
    }

    #[test]
    fn horizontal_fragment_contributes_on_constraint_overlap() {
        let frag = Fragment::horizontal(Conjunction::from_predicates(vec![Predicate::between(
            "patient.age",
            43,
            75,
        )]));
        let req = Conjunction::from_predicates(vec![Predicate::between("patient.age", 25, 65)]);
        assert!(frag.contributes_to(&[], &req));
        let miss = Conjunction::from_predicates(vec![Predicate::between("patient.age", 1, 10)]);
        assert!(!frag.contributes_to(&[], &miss));
    }

    #[test]
    fn fragment_hash_is_stable_and_separator_safe() {
        // Hand-computed FNV-1a must never drift: shard layouts depend on it.
        assert_eq!(fragment_hash("healthcare", "patient"), fragment_hash("healthcare", "patient"));
        assert_ne!(fragment_hash("ab", "c"), fragment_hash("a", "bc"));
        assert_ne!(fragment_hash("healthcare", "patient"), fragment_hash("patient", "healthcare"));
    }

    #[test]
    fn display() {
        assert_eq!(Fragment::vertical(["a", "b"]).to_string(), "vertical(a, b)");
        let frag = Fragment::horizontal(Conjunction::from_predicates(vec![Predicate::eq("x", 1)]));
        assert_eq!(frag.to_string(), "horizontal(x in [1, 1])");
    }
}
