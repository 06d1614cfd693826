//! Domain-ontology model: classes, slots, and value types.

use crate::{Fragment, Taxonomy, TaxonomyError};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// The type of values a slot can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueType {
    Int,
    Float,
    Str,
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "int"),
            ValueType::Float => write!(f, "float"),
            ValueType::Str => write!(f, "string"),
            ValueType::Bool => write!(f, "bool"),
        }
    }
}

/// A named, typed slot of a class (e.g. `age: int` on `patient`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotDef {
    pub name: String,
    pub value_type: ValueType,
    /// Whether this slot is (part of) the class key, e.g. `patient-id`.
    pub is_key: bool,
}

impl SlotDef {
    pub fn new(name: impl Into<String>, value_type: ValueType) -> Self {
        SlotDef { name: name.into(), value_type, is_key: false }
    }

    pub fn key(name: impl Into<String>, value_type: ValueType) -> Self {
        SlotDef { name: name.into(), value_type, is_key: true }
    }
}

/// A class of the domain model, with its slots. Slots are inherited along
/// the class hierarchy; `ClassDef` holds only locally-declared slots.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    pub name: String,
    pub slots: Vec<SlotDef>,
}

impl ClassDef {
    pub fn new(name: impl Into<String>, slots: Vec<SlotDef>) -> Self {
        ClassDef { name: name.into(), slots }
    }

    pub fn slot(&self, name: &str) -> Option<&SlotDef> {
        self.slots.iter().find(|s| s.name == name)
    }

    pub fn key_slots(&self) -> impl Iterator<Item = &SlotDef> {
        self.slots.iter().filter(|s| s.is_key)
    }
}

/// Errors raised while building or querying an ontology.
#[derive(Debug, Clone, PartialEq)]
pub enum OntologyError {
    DuplicateClass(String),
    UnknownClass(String),
    UnknownSlot { class: String, slot: String },
    Hierarchy(TaxonomyError),
}

impl fmt::Display for OntologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OntologyError::DuplicateClass(c) => write!(f, "duplicate class '{c}'"),
            OntologyError::UnknownClass(c) => write!(f, "unknown class '{c}'"),
            OntologyError::UnknownSlot { class, slot } => {
                write!(f, "unknown slot '{slot}' on class '{class}'")
            }
            OntologyError::Hierarchy(e) => write!(f, "class hierarchy error: {e}"),
        }
    }
}

impl std::error::Error for OntologyError {}

impl From<TaxonomyError> for OntologyError {
    fn from(e: TaxonomyError) -> Self {
        OntologyError::Hierarchy(e)
    }
}

/// A named domain ontology: a set of classes arranged in an is-a hierarchy.
///
/// This is the "common vocabulary" the related-work section describes:
/// resource agents describe constraints on the objects they provide in terms
/// of the ontology, and the broker reasons over those descriptions.
#[derive(Debug, Clone, PartialEq)]
pub struct Ontology {
    pub name: String,
    classes: BTreeMap<String, ClassDef>,
    hierarchy: Taxonomy,
}

impl Ontology {
    pub fn new(name: impl Into<String>) -> Self {
        Ontology { name: name.into(), classes: BTreeMap::new(), hierarchy: Taxonomy::new() }
    }

    /// Adds a root class (no superclass).
    pub fn add_class(&mut self, class: ClassDef) -> Result<(), OntologyError> {
        if self.classes.contains_key(&class.name) {
            return Err(OntologyError::DuplicateClass(class.name));
        }
        self.hierarchy.add_root(class.name.clone())?;
        self.classes.insert(class.name.clone(), class);
        Ok(())
    }

    /// Adds a class as a subclass of an existing class.
    pub fn add_subclass(&mut self, superclass: &str, class: ClassDef) -> Result<(), OntologyError> {
        if self.classes.contains_key(&class.name) {
            return Err(OntologyError::DuplicateClass(class.name));
        }
        if !self.classes.contains_key(superclass) {
            return Err(OntologyError::UnknownClass(superclass.to_string()));
        }
        self.hierarchy.add_child(superclass, class.name.clone())?;
        self.classes.insert(class.name.clone(), class);
        Ok(())
    }

    pub fn class(&self, name: &str) -> Option<&ClassDef> {
        self.classes.get(name)
    }

    pub fn classes(&self) -> impl Iterator<Item = &ClassDef> {
        self.classes.values()
    }

    pub fn class_names(&self) -> impl Iterator<Item = &str> {
        self.classes.keys().map(String::as_str)
    }

    pub fn hierarchy(&self) -> &Taxonomy {
        &self.hierarchy
    }

    /// Whether `sub` is `sup` or a subclass of it.
    pub fn is_subclass_or_self(&self, sub: &str, sup: &str) -> bool {
        self.hierarchy.is_descendant_or_self(sub, sup)
    }

    /// All slots of a class, including slots inherited from superclasses.
    /// Local declarations shadow inherited ones of the same name.
    pub fn all_slots(&self, class: &str) -> Result<Vec<SlotDef>, OntologyError> {
        let def = self
            .classes
            .get(class)
            .ok_or_else(|| OntologyError::UnknownClass(class.to_string()))?;
        let mut out: Vec<SlotDef> = def.slots.clone();
        // Nearest superclass first, so of two inherited declarations of one
        // name the closer wins.
        let mut queue: VecDeque<&str> = self.hierarchy.parents_of(class).collect();
        let mut seen = BTreeSet::new();
        while let Some(anc) = queue.pop_front() {
            if !seen.insert(anc) {
                continue;
            }
            queue.extend(self.hierarchy.parents_of(anc));
            if let Some(anc_def) = self.classes.get(anc) {
                for slot in &anc_def.slots {
                    if !out.iter().any(|s| s.name == slot.name) {
                        out.push(slot.clone());
                    }
                }
            }
        }
        Ok(out)
    }

    /// Validates that a fragment of `class` refers only to known slots.
    pub fn validate_fragment(&self, class: &str, frag: &Fragment) -> Result<(), OntologyError> {
        let slots = self.all_slots(class)?;
        match frag {
            Fragment::Vertical { slots: names } => {
                for n in names {
                    if !slots.iter().any(|s| &s.name == n) {
                        return Err(OntologyError::UnknownSlot {
                            class: class.to_string(),
                            slot: n.clone(),
                        });
                    }
                }
                Ok(())
            }
            Fragment::Horizontal { constraint } => {
                for dotted in constraint.constrained_slots() {
                    // Constraint slots are dotted `class.slot`; accept both
                    // `slot` and `class.slot` spellings.
                    let bare = dotted.rsplit('.').next().unwrap_or(dotted);
                    if !slots.iter().any(|s| s.name == bare) {
                        return Err(OntologyError::UnknownSlot {
                            class: class.to_string(),
                            slot: dotted.to_string(),
                        });
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_constraint::{Conjunction, Predicate};

    fn people() -> Ontology {
        let mut o = Ontology::new("people");
        o.add_class(ClassDef::new(
            "person",
            vec![
                SlotDef::key("id", ValueType::Int),
                SlotDef::new("name", ValueType::Str),
                SlotDef::new("age", ValueType::Int),
            ],
        ))
        .unwrap();
        o.add_subclass(
            "person",
            ClassDef::new("patient", vec![SlotDef::new("diagnosis_code", ValueType::Str)]),
        )
        .unwrap();
        o
    }

    #[test]
    fn slots_are_inherited() {
        let o = people();
        let slots = o.all_slots("patient").unwrap();
        let names: Vec<&str> = slots.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["diagnosis_code", "id", "name", "age"]);
        assert!(slots.iter().any(|s| s.is_key && s.name == "id"));
    }

    #[test]
    fn local_slots_shadow_inherited() {
        let mut o = people();
        o.add_subclass(
            "patient",
            ClassDef::new("senior_patient", vec![SlotDef::new("age", ValueType::Float)]),
        )
        .unwrap();
        let slots = o.all_slots("senior_patient").unwrap();
        let age: Vec<_> = slots.iter().filter(|s| s.name == "age").collect();
        assert_eq!(age.len(), 1);
        assert_eq!(age[0].value_type, ValueType::Float);
    }

    #[test]
    fn subclass_queries() {
        let o = people();
        assert!(o.is_subclass_or_self("patient", "person"));
        assert!(o.is_subclass_or_self("person", "person"));
        assert!(!o.is_subclass_or_self("person", "patient"));
    }

    #[test]
    fn duplicate_and_unknown_classes_rejected() {
        let mut o = people();
        assert!(matches!(
            o.add_class(ClassDef::new("person", vec![])),
            Err(OntologyError::DuplicateClass(_))
        ));
        assert!(matches!(
            o.add_subclass("ghost", ClassDef::new("x", vec![])),
            Err(OntologyError::UnknownClass(_))
        ));
        assert!(matches!(o.all_slots("ghost"), Err(OntologyError::UnknownClass(_))));
    }

    #[test]
    fn fragment_validation() {
        let o = people();
        let ok = Fragment::Vertical { slots: vec!["id".into(), "age".into()] };
        assert!(o.validate_fragment("patient", &ok).is_ok());
        let bad = Fragment::Vertical { slots: vec!["height".into()] };
        assert!(matches!(
            o.validate_fragment("patient", &bad),
            Err(OntologyError::UnknownSlot { .. })
        ));
        let horiz = Fragment::Horizontal {
            constraint: Conjunction::from_predicates(vec![Predicate::between(
                "patient.age",
                43,
                75,
            )]),
        };
        assert!(o.validate_fragment("patient", &horiz).is_ok());
        let bad_horiz = Fragment::Horizontal {
            constraint: Conjunction::from_predicates(vec![Predicate::eq("patient.height", 1)]),
        };
        assert!(o.validate_fragment("patient", &bad_horiz).is_err());
    }
}
