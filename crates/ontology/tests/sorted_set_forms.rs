//! [`SortedSet`] against a `BTreeSet` model across the switch between its
//! forms: an empty set and a set of one sit in place, two or more
//! elements in a block. Values come from four names — a vocabulary word,
//! a short name, and names of 22 and 23 bytes, the longest held in place
//! and the shortest that is not — so a random sequence of inserts,
//! removes, extends and array builds keeps crossing 0 ↔ 1 ↔ 2 elements.
//! After every step the set must answer as the model does, and compare,
//! order and hash against the set of the step before as the two models
//! do.

use infosleuth_kqml::Text;
use infosleuth_ontology::SortedSet;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};

const NAMES: [&str; 4] = ["KQML", "ra0123", "twenty-two-bytes-long!", "twenty-three-bytes-long"];

#[derive(Debug, Clone)]
enum Step {
    Insert(usize),
    Remove(usize),
    Extend(Vec<usize>),
    /// The set replaced by one built from an array of this many names.
    FromArray(usize, usize, usize),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let name = || 0usize..NAMES.len();
    let step = prop_oneof![
        name().prop_map(Step::Insert),
        name().prop_map(Step::Insert),
        name().prop_map(Step::Remove),
        name().prop_map(Step::Remove),
        proptest::collection::vec(name(), 0..3).prop_map(Step::Extend),
        (0usize..3, name(), name()).prop_map(|(n, a, b)| Step::FromArray(n, a, b)),
    ];
    proptest::collection::vec(step, 0..40)
}

fn text(n: usize) -> Text {
    Text::from(NAMES[n])
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// A set built from an array of `len` names: none, `a`, or `a` and `b`.
fn from_array(len: usize, a: usize, b: usize) -> SortedSet<Text> {
    match len {
        0 => SortedSet::from([]),
        1 => SortedSet::from([text(a)]),
        _ => SortedSet::from([text(a), text(b)]),
    }
}

proptest! {
    #[test]
    fn every_form_answers_as_the_model(steps in arb_steps()) {
        let mut set: SortedSet<Text> = SortedSet::new();
        let mut model: BTreeSet<Text> = BTreeSet::new();
        for step in steps {
            let (before, model_before) = (set.clone(), model.clone());
            match step {
                Step::Insert(n) => prop_assert_eq!(set.insert(text(n)), model.insert(text(n))),
                Step::Remove(n) => prop_assert_eq!(set.remove(NAMES[n]), model.remove(NAMES[n])),
                Step::Extend(ns) => {
                    set.extend(ns.iter().map(|&n| text(n)));
                    model.extend(ns.iter().map(|&n| text(n)));
                }
                Step::FromArray(len, a, b) => {
                    set = from_array(len, a, b);
                    model = [a, b].into_iter().take(len).map(text).collect();
                }
            }
            let ascending: Vec<&Text> = model.iter().collect();
            prop_assert!(set.iter().eq(ascending.iter().copied()));
            prop_assert!(set.as_slice().iter().eq(ascending.iter().copied()));
            prop_assert!((&set).into_iter().eq(ascending.iter().copied()));
            prop_assert!(set.clone().into_iter().eq(model.iter().cloned()));
            prop_assert_eq!((set.len(), set.is_empty()), (model.len(), model.is_empty()));
            prop_assert_eq!(set.capacity(), set.len());
            prop_assert_eq!(set.first(), model.first());
            for name in NAMES {
                prop_assert_eq!(set.contains(name), model.contains(name));
            }
            prop_assert_eq!(hash_of(&set), hash_of(&model));
            prop_assert_eq!(format!("{set:?}"), format!("{:?}", ascending));

            // Against the set of the step before, which may be of another form.
            prop_assert_eq!(set == before, model == model_before);
            prop_assert_eq!(set.cmp(&before), model.cmp(&model_before));
            prop_assert_eq!(set.partial_cmp(&before), model.partial_cmp(&model_before));
            prop_assert_eq!(set.is_subset(&before), model.is_subset(&model_before));
            prop_assert_eq!(before.is_subset(&set), model_before.is_subset(&model));
            // And against the same elements reached by another road.
            let rebuilt: SortedSet<Text> = model.iter().rev().cloned().collect();
            prop_assert_eq!(&rebuilt, &set);
            prop_assert_eq!(hash_of(&rebuilt), hash_of(&set));
        }
    }
}
