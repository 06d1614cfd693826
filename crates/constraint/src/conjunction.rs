//! Conjunctions of predicates, normalized per slot.

use crate::{Predicate, SlotDomain, Value};
use infosleuth_kqml::Text;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// A conjunction of atomic constraints, normalized to one [`SlotDomain`] per
/// slot. This is the `data constraints` field of advertisements and service
/// queries in the paper's service ontology.
///
/// The empty conjunction is `true` (no restriction) — an agent that
/// advertises no data constraints matches any requested constraint, and a
/// query with no constraints matches any agent.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Conjunction {
    /// Sorted by slot name, one entry per slot: most conjunctions
    /// constrain one or two slots, and every advertisement holds one. Its
    /// capacity is its length, however it was built: a list grown from
    /// empty by a bare `insert` would hold room for four entries. A slot
    /// name of up to 22 bytes sits in its entry.
    slots: Vec<(Text, SlotDomain)>,
}

/// The two sorted slot runs walked in step: each slot either side
/// constrains, once, with each side's domain where it has one.
fn zip_slots<'a>(
    a: &'a Conjunction,
    b: &'a Conjunction,
) -> impl Iterator<Item = (Option<&'a SlotDomain>, Option<&'a SlotDomain>)> {
    let (mut a, mut b) = (a.slots.iter().peekable(), b.slots.iter().peekable());
    std::iter::from_fn(move || {
        let order = match (a.peek(), b.peek()) {
            (Some((x, _)), Some((y, _))) => x.cmp(y),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return None,
        };
        let left = if order.is_le() { a.next().map(|(_, d)| d) } else { None };
        let right = if order.is_ge() { b.next().map(|(_, d)| d) } else { None };
        Some((left, right))
    })
}

impl Conjunction {
    /// The unconstrained (`true`) conjunction.
    pub fn always() -> Self {
        Conjunction::default()
    }

    /// Builds a conjunction from a list of predicates, folding predicates on
    /// the same slot together.
    pub fn from_predicates<I>(preds: I) -> Self
    where
        I: IntoIterator<Item = Predicate>,
    {
        let mut c = Conjunction::default();
        for p in preds {
            c.add(&p);
        }
        c
    }

    fn position(&self, slot: &str) -> Result<usize, usize> {
        self.slots.binary_search_by(|(s, _)| s.as_bytes().cmp(slot.as_bytes()))
    }

    /// Puts a new slot's entry at `at`, growing the list by exactly one.
    fn insert_slot(&mut self, at: usize, slot: Text, dom: SlotDomain) {
        self.slots.reserve_exact(1);
        self.slots.insert(at, (slot, dom));
    }

    /// Adds one predicate to the conjunction.
    pub fn add(&mut self, pred: &Predicate) {
        let at = self.position(&pred.slot).unwrap_or_else(|at| {
            self.insert_slot(at, Text::from(&pred.slot), SlotDomain::full());
            at
        });
        self.slots[at].1.constrain(pred);
    }

    /// Whether no slot is constrained.
    pub fn is_trivial(&self) -> bool {
        self.slots.is_empty()
    }

    /// Heap slots held; equal to the number of constrained slots after
    /// every construction and mutation.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// The slots this conjunction constrains.
    pub fn constrained_slots(&self) -> impl Iterator<Item = &str> {
        self.slots.iter().map(|(slot, _)| slot.as_str())
    }

    /// The domain of a given slot (unconstrained slots are fully open).
    pub fn domain(&self, slot: &str) -> SlotDomain {
        self.position(slot).map_or_else(|_| SlotDomain::full(), |at| self.slots[at].1.clone())
    }

    /// Whether some assignment of values to slots satisfies the conjunction.
    pub fn is_satisfiable(&self) -> bool {
        self.slots.iter().all(|(_, dom)| dom.is_satisfiable())
    }

    /// The conjunction of both constraints.
    pub fn intersect(&self, other: &Conjunction) -> Conjunction {
        let mut out = self.clone();
        for (slot, dom) in &other.slots {
            match out.position(slot) {
                Ok(at) => out.slots[at].1 = out.slots[at].1.intersect(dom),
                Err(at) => out.insert_slot(at, slot.clone(), dom.clone()),
            }
        }
        out
    }

    /// Whether the two constraints can be satisfied simultaneously — the
    /// broker's core *overlap* test between an advertised restriction and a
    /// requested constraint. Slots mentioned by only one side are
    /// unconstrained on the other and never block the overlap. Exactly
    /// `self.intersect(other).is_satisfiable()`, slot by slot, without
    /// building the intersection.
    pub fn overlaps(&self, other: &Conjunction) -> bool {
        zip_slots(self, other).all(|pair| match pair {
            (Some(a), Some(b)) => a.overlaps(b),
            (a, b) => a.or(b).map_or(true, SlotDomain::is_satisfiable),
        })
    }

    /// Whether every assignment satisfying `self` satisfies `other`
    /// (`self ⊆ other`). Used to rank agents: an advertisement that
    /// *implies* the requested constraint covers the whole request, not just
    /// part of it.
    pub fn implies(&self, other: &Conjunction) -> bool {
        if !self.is_satisfiable() {
            return true;
        }
        zip_slots(self, other).all(|pair| match pair {
            (Some(a), Some(b)) => a.implies(b),
            // `other` constrains a slot `self` leaves fully open.
            (None, Some(b)) => SlotDomain::full().implies(b),
            (_, None) => true,
        })
    }

    /// A canonical list of predicates equivalent to this conjunction:
    /// parsing their textual form (or re-adding them) reconstructs the same
    /// constraint. Used to serialize constraints into KQML message content.
    pub fn canonical_predicates(&self) -> Vec<Predicate> {
        use crate::{Bound, CompareOp};
        let mut out = Vec::new();
        for (slot, dom) in &self.slots {
            if let Some(p) = dom.range.as_point() {
                out.push(Predicate::new(slot.as_str(), CompareOp::Eq(p.clone())));
            } else {
                match &dom.range.lo {
                    Bound::Incl(v) => {
                        out.push(Predicate::new(slot.as_str(), CompareOp::Ge(v.clone())))
                    }
                    Bound::Excl(v) => {
                        out.push(Predicate::new(slot.as_str(), CompareOp::Gt(v.clone())))
                    }
                    Bound::Unbounded => {}
                }
                match &dom.range.hi {
                    Bound::Incl(v) => {
                        out.push(Predicate::new(slot.as_str(), CompareOp::Le(v.clone())))
                    }
                    Bound::Excl(v) => {
                        out.push(Predicate::new(slot.as_str(), CompareOp::Lt(v.clone())))
                    }
                    Bound::Unbounded => {}
                }
            }
            if let Some(allowed) = &dom.allowed {
                out.push(Predicate::new(slot.as_str(), CompareOp::In(allowed.clone())));
            }
            if !dom.excluded.is_empty() {
                out.push(Predicate::new(slot.as_str(), CompareOp::NotIn(dom.excluded.clone())));
            }
        }
        out
    }

    /// The conjunction as parseable text (the inverse of
    /// [`crate::parse_conjunction`]); `"true"` when trivial.
    pub fn to_text(&self) -> String {
        let preds = self.canonical_predicates();
        if preds.is_empty() {
            return "true".to_string();
        }
        preds.iter().map(Predicate::to_string).collect::<Vec<_>>().join(" and ")
    }

    /// Whether a concrete assignment (slot → value) satisfies the
    /// conjunction. Slots absent from the assignment fail closed-world:
    /// a constrained slot must be present.
    pub fn matches(&self, assignment: &BTreeMap<String, Value>) -> bool {
        self.slots.iter().all(|(slot, dom)| {
            assignment.get(slot.as_str()).map(|v| dom.contains(v)).unwrap_or(false)
        })
    }
}

impl fmt::Display for Conjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.slots.is_empty() {
            return write!(f, "true");
        }
        for (i, (slot, dom)) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{slot} in {dom}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_healthcare_example() {
        // ResourceAgent5 advertises ages 43..=75; the query wants 25..=65
        // with diagnosis code 40W. The paper says the reasoning engine
        // *would* match ResourceAgent5.
        let advertised =
            Conjunction::from_predicates(vec![Predicate::between("patient.age", 43, 75)]);
        let requested = Conjunction::from_predicates(vec![
            Predicate::between("patient.age", 25, 65),
            Predicate::eq("patient.diagnosis_code", "40W"),
        ]);
        assert!(advertised.overlaps(&requested));
        assert!(requested.overlaps(&advertised));
    }

    #[test]
    fn disjoint_ranges_block_overlap() {
        let advertised =
            Conjunction::from_predicates(vec![Predicate::between("patient.age", 43, 75)]);
        let requested =
            Conjunction::from_predicates(vec![Predicate::between("patient.age", 10, 20)]);
        assert!(!advertised.overlaps(&requested));
    }

    #[test]
    fn podiatrists_in_dallas_and_houston() {
        // §2.1: "its subsection of the domain model is restricted to
        // podiatrists in Dallas and Houston".
        let advertised = Conjunction::from_predicates(vec![
            Predicate::eq("provider.specialty", "podiatrist"),
            Predicate::is_in("provider.city", ["Dallas", "Houston"]),
        ]);
        let austin = Conjunction::from_predicates(vec![Predicate::eq("provider.city", "Austin")]);
        assert!(!advertised.overlaps(&austin));
        let dallas = Conjunction::from_predicates(vec![Predicate::eq("provider.city", "Dallas")]);
        assert!(advertised.overlaps(&dallas));
    }

    #[test]
    fn trivial_conjunction_overlaps_and_is_implied() {
        let t = Conjunction::always();
        let c = Conjunction::from_predicates(vec![Predicate::eq("a", 1)]);
        assert!(t.overlaps(&c));
        assert!(c.overlaps(&t));
        assert!(c.implies(&t)); // everything implies `true`
        assert!(!t.implies(&c)); // `true` implies nothing restrictive
    }

    #[test]
    fn implication_orders_specificity() {
        let narrow = Conjunction::from_predicates(vec![
            Predicate::between("age", 40, 50),
            Predicate::eq("city", "Dallas"),
        ]);
        let wide = Conjunction::from_predicates(vec![Predicate::between("age", 20, 80)]);
        assert!(narrow.implies(&wide));
        assert!(!wide.implies(&narrow));
    }

    #[test]
    fn matches_concrete_assignment() {
        let c = Conjunction::from_predicates(vec![
            Predicate::between("age", 43, 75),
            Predicate::eq("code", "40W"),
        ]);
        let mut row = BTreeMap::new();
        row.insert("age".to_string(), Value::Int(50));
        row.insert("code".to_string(), Value::str("40W"));
        assert!(c.matches(&row));
        row.insert("age".to_string(), Value::Int(80));
        assert!(!c.matches(&row));
        row.remove("age");
        assert!(!c.matches(&row)); // constrained slot missing
    }

    #[test]
    fn unsat_conjunction_detected() {
        let c = Conjunction::from_predicates(vec![Predicate::gt("a", 10), Predicate::lt("a", 5)]);
        assert!(!c.is_satisfiable());
        // And it implies anything.
        assert!(c.implies(&Conjunction::from_predicates(vec![Predicate::eq("b", 1)])));
    }

    #[test]
    fn to_text_round_trips_through_parser() {
        let original = Conjunction::from_predicates(vec![
            Predicate::between("patient.age", 25, 65),
            Predicate::eq("patient.diagnosis_code", "40W"),
            Predicate::is_in("city", ["Dallas", "Houston"]),
            Predicate::ne("status", "void"),
            Predicate::gt("score", 1.5),
        ]);
        let text = original.to_text();
        let parsed = crate::parse_conjunction(&text).unwrap();
        assert_eq!(parsed, original);
        // Allow-sets intersected to nothing: unsatisfiable, and still text.
        let emptied = Conjunction::from_predicates(vec![
            Predicate::is_in("city", ["Dallas"]),
            Predicate::is_in("city", ["Houston"]),
        ]);
        assert_eq!(emptied.to_text(), "city in ()");
        assert_eq!(crate::parse_conjunction(&emptied.to_text()).unwrap(), emptied);
        assert_eq!(Conjunction::always().to_text(), "true");
        assert_eq!(
            crate::parse_conjunction(&Conjunction::always().to_text()).unwrap(),
            Conjunction::always()
        );
    }

    #[test]
    fn display_reads_like_the_paper() {
        let c = Conjunction::from_predicates(vec![Predicate::between("patient.age", 25, 65)]);
        assert_eq!(c.to_string(), "patient.age in [25, 65]");
        assert_eq!(Conjunction::always().to_string(), "true");
    }
}
