//! Property-based tests for the constraint algebra laws the broker relies on.

use infosleuth_constraint::{Conjunction, Predicate, Range, Value};
use proptest::prelude::*;

/// Arbitrary integer values in a small domain so collisions are common.
fn arb_value() -> impl Strategy<Value = Value> {
    (-20i64..=20).prop_map(Value::Int)
}

/// Arbitrary ranges: between, point, open-ended.
fn arb_range() -> impl Strategy<Value = Range> {
    prop_oneof![
        (arb_value(), arb_value()).prop_map(|(a, b)| Range::between(a, b)),
        arb_value().prop_map(Range::point),
        (arb_value(), any::<bool>()).prop_map(|(v, i)| Range::at_least(v, i)),
        (arb_value(), any::<bool>()).prop_map(|(v, i)| Range::at_most(v, i)),
        Just(Range::full()),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let slot = prop_oneof![Just("a"), Just("b"), Just("c")];
    (slot, 0u8..8, arb_value(), arb_value(), proptest::collection::btree_set(arb_value(), 1..4))
        .prop_map(|(slot, op, v1, v2, set)| match op {
            0 => Predicate::eq(slot, v1),
            1 => Predicate::ne(slot, v1),
            2 => Predicate::lt(slot, v1),
            3 => Predicate::le(slot, v1),
            4 => Predicate::gt(slot, v1),
            5 => Predicate::ge(slot, v1),
            6 => Predicate::between(slot, v1, v2),
            _ => Predicate::is_in(slot, set),
        })
}

fn arb_conjunction() -> impl Strategy<Value = Conjunction> {
    proptest::collection::vec(arb_predicate(), 0..5).prop_map(Conjunction::from_predicates)
}

/// One step of a conjunction's life after it was built.
#[derive(Debug, Clone)]
enum Step {
    Add(Predicate),
    Intersect(Conjunction),
    /// Printed and parsed back, as a decoder rebuilds it off the wire.
    Reparse,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        arb_predicate().prop_map(Step::Add),
        arb_conjunction().prop_map(Step::Intersect),
        Just(Step::Reparse),
    ];
    proptest::collection::vec(step, 0..8)
}

proptest! {
    /// Range intersection is commutative up to membership.
    #[test]
    fn range_intersection_commutes(a in arb_range(), b in arb_range(), v in arb_value()) {
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        prop_assert_eq!(ab.contains(&v), ba.contains(&v));
        prop_assert_eq!(ab.is_satisfiable(), ba.is_satisfiable());
    }

    /// Membership in the intersection is exactly joint membership.
    #[test]
    fn range_intersection_is_conjunction(a in arb_range(), b in arb_range(), v in arb_value()) {
        prop_assert_eq!(a.intersect(&b).contains(&v), a.contains(&v) && b.contains(&v));
    }

    /// Intersection is idempotent.
    #[test]
    fn range_intersection_idempotent(a in arb_range(), v in arb_value()) {
        prop_assert_eq!(a.intersect(&a).contains(&v), a.contains(&v));
    }

    /// Overlap is symmetric.
    #[test]
    fn range_overlap_symmetric(a in arb_range(), b in arb_range()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    /// Subset is sound: members of a subset belong to the superset.
    #[test]
    fn range_subset_soundness(a in arb_range(), b in arb_range(), v in arb_value()) {
        if a.is_subset_of(&b) && a.contains(&v) {
            prop_assert!(b.contains(&v));
        }
    }

    /// Subset is reflexive and transitive.
    #[test]
    fn range_subset_preorder(a in arb_range(), b in arb_range(), c in arb_range()) {
        prop_assert!(a.is_subset_of(&a));
        if a.is_subset_of(&b) && b.is_subset_of(&c) {
            prop_assert!(a.is_subset_of(&c));
        }
    }

    /// Conjunction overlap is symmetric.
    #[test]
    fn conjunction_overlap_symmetric(a in arb_conjunction(), b in arb_conjunction()) {
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    /// The slot-run walks of `overlaps` and `implies` have the truth table
    /// of the definitions they replaced: the satisfiability of the built
    /// intersection, and per-slot implication through `domain()`.
    #[test]
    fn conjunction_walks_equal_their_definitions(a in arb_conjunction(), b in arb_conjunction()) {
        prop_assert_eq!(a.overlaps(&b), a.intersect(&b).is_satisfiable());
        let by_domain = !a.is_satisfiable()
            || b.constrained_slots().all(|slot| a.domain(slot).implies(&b.domain(slot)));
        prop_assert_eq!(a.implies(&b), by_domain);
    }

    /// Conjunction intersection membership equals joint membership.
    #[test]
    fn conjunction_intersection_is_conjunction(
        a in arb_conjunction(),
        b in arb_conjunction(),
        va in arb_value(), vb in arb_value(), vc in arb_value(),
    ) {
        let mut row = std::collections::BTreeMap::new();
        row.insert("a".to_string(), va);
        row.insert("b".to_string(), vb);
        row.insert("c".to_string(), vc);
        prop_assert_eq!(
            a.intersect(&b).matches(&row),
            a.matches(&row) && b.matches(&row)
        );
    }

    /// Implication is sound with respect to concrete assignments.
    #[test]
    fn conjunction_implication_soundness(
        a in arb_conjunction(),
        b in arb_conjunction(),
        va in arb_value(), vb in arb_value(), vc in arb_value(),
    ) {
        let mut row = std::collections::BTreeMap::new();
        row.insert("a".to_string(), va);
        row.insert("b".to_string(), vb);
        row.insert("c".to_string(), vc);
        if a.implies(&b) && a.matches(&row) {
            prop_assert!(b.matches(&row));
        }
    }

    /// Implication is transitive.
    #[test]
    fn conjunction_implication_transitive(
        a in arb_conjunction(), b in arb_conjunction(), c in arb_conjunction()
    ) {
        if a.implies(&b) && b.implies(&c) {
            prop_assert!(a.implies(&c));
        }
    }

    /// A conjunction that matches some concrete row is satisfiable, and
    /// overlap is complete: if both match the same row they overlap.
    #[test]
    fn conjunction_overlap_completeness(
        a in arb_conjunction(),
        b in arb_conjunction(),
        va in arb_value(), vb in arb_value(), vc in arb_value(),
    ) {
        let mut row = std::collections::BTreeMap::new();
        row.insert("a".to_string(), va);
        row.insert("b".to_string(), vb);
        row.insert("c".to_string(), vc);
        if a.matches(&row) && b.matches(&row) {
            prop_assert!(a.overlaps(&b));
        }
    }

    /// However a conjunction came by its slots — built from predicates,
    /// added to, intersected, parsed back from its text — its slot list
    /// holds no spare capacity, and the text reads back to an equal value.
    #[test]
    fn conjunction_capacity_is_its_length(start in arb_conjunction(), steps in arb_steps()) {
        let slots = |c: &Conjunction| c.constrained_slots().count();
        let mut c = start;
        prop_assert_eq!(c.capacity(), slots(&c));
        for step in steps {
            c = match step {
                Step::Add(p) => {
                    c.add(&p);
                    c
                }
                Step::Intersect(other) => c.intersect(&other),
                Step::Reparse => {
                    let text = c.to_text();
                    let back = infosleuth_constraint::parse_conjunction(&text)
                        .unwrap_or_else(|e| panic!("{text:?} does not read back: {e}"));
                    prop_assert_eq!(&back, &c);
                    back
                }
            };
            prop_assert_eq!(c.capacity(), slots(&c));
        }
    }

    /// Display → parse round-trips membership for parseable conjunctions.
    #[test]
    fn predicate_display_parses_back(p in arb_predicate(), v in arb_value()) {
        let c = Conjunction::from_predicates(vec![p.clone()]);
        let parsed = infosleuth_constraint::parse_conjunction(&p.to_string()).unwrap();
        let mut row = std::collections::BTreeMap::new();
        row.insert(p.slot.clone(), v);
        prop_assert_eq!(c.matches(&row), parsed.matches(&row));
    }
}
