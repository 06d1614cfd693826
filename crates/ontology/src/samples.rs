//! Sample ontologies used in the paper's examples, tests, and benchmarks.

use crate::{ClassDef, Ontology, SlotDef, ValueType};

/// The healthcare domain ontology from §2.1 and §2.4: patients, diagnoses,
/// providers, and hospital stays (the Caesarian-cost example from the
/// introduction).
pub fn healthcare_ontology() -> Ontology {
    let mut o = Ontology::new("healthcare");
    o.add_class(ClassDef::new(
        "patient",
        vec![
            SlotDef::key("id", ValueType::Int),
            SlotDef::new("name", ValueType::Str),
            SlotDef::new("age", ValueType::Int),
            SlotDef::new("city", ValueType::Str),
        ],
    ))
    .expect("fresh ontology");
    o.add_class(ClassDef::new(
        "diagnosis",
        vec![
            SlotDef::key("id", ValueType::Int),
            SlotDef::new("code", ValueType::Str),
            SlotDef::new("patient_id", ValueType::Int),
            SlotDef::new("description", ValueType::Str),
        ],
    ))
    .expect("fresh ontology");
    o.add_class(ClassDef::new(
        "provider",
        vec![
            SlotDef::key("id", ValueType::Int),
            SlotDef::new("name", ValueType::Str),
            SlotDef::new("specialty", ValueType::Str),
            SlotDef::new("city", ValueType::Str),
        ],
    ))
    .expect("fresh ontology");
    o.add_subclass(
        "provider",
        ClassDef::new("podiatrist", vec![SlotDef::new("license", ValueType::Str)]),
    )
    .expect("provider exists");
    o.add_class(ClassDef::new(
        "hospital_stay",
        vec![
            SlotDef::key("id", ValueType::Int),
            SlotDef::new("patient_id", ValueType::Int),
            SlotDef::new("procedure", ValueType::Str),
            SlotDef::new("cost", ValueType::Float),
            SlotDef::new("days", ValueType::Int),
        ],
    ))
    .expect("fresh ontology");
    o
}

/// The abstract class ontology of the §2.2 walkthrough (classes C1, C2, C3)
/// extended with the class hierarchy / fragmentation shapes the query
/// streams of Table 1 exercise: `C2a`/`C2b` are subclasses of `C2` (the
/// `CH` stream unions over them) and every class carries enough slots for
/// a vertical split (the `VF` stream joins fragments on `id`).
pub fn paper_class_ontology() -> Ontology {
    let mut o = Ontology::new("paper-classes");
    for name in ["C1", "C2", "C3"] {
        o.add_class(ClassDef::new(
            name,
            vec![
                SlotDef::key("id", ValueType::Int),
                SlotDef::new("a", ValueType::Int),
                SlotDef::new("b", ValueType::Str),
                SlotDef::new("c", ValueType::Float),
            ],
        ))
        .expect("fresh ontology");
    }
    o.add_subclass("C2", ClassDef::new("C2a", vec![])).expect("C2 exists");
    o.add_subclass("C2", ClassDef::new("C2b", vec![])).expect("C2 exists");
    o
}

/// The `infosleuth-obs` ontology: the observability plane modelled as a
/// brokered data source (DESIGN.md §16). Each broker's health publisher
/// advertises one `broker_health` fact per sample tick — the rolled-up
/// state plus the watermark readings the stock rules observe — and a
/// `health_alert` fact per fired rule, so standing subscriptions with
/// constraint queries ("queue_depth > 100 on any broker") are matched by
/// the same `SubscriptionRegistry` delta path as any domain subscription.
///
/// Slot units: gauges are raw readings, `*_ms` slots are milliseconds
/// (integer slots keep the constraint algebra simple), `*_pct` slots are
/// 0–100 percentages, and `state`/`severity` carry the `as_str` forms of
/// the obs crate's `HealthState`/`Severity`.
pub fn obs_ontology() -> Ontology {
    let mut o = Ontology::new("infosleuth-obs");
    o.add_class(ClassDef::new(
        "broker_health",
        vec![
            SlotDef::key("broker", ValueType::Str),
            SlotDef::new("state", ValueType::Str),
            SlotDef::new("state_level", ValueType::Int),
            SlotDef::new("tick", ValueType::Int),
            SlotDef::new("queue_depth", ValueType::Int),
            SlotDef::new("inflight", ValueType::Int),
            SlotDef::new("delivery_failures", ValueType::Int),
            SlotDef::new("sub_notify_p99_ms", ValueType::Int),
            SlotDef::new("cache_hit_pct", ValueType::Int),
        ],
    ))
    .expect("fresh ontology");
    o.add_class(ClassDef::new(
        "health_alert",
        vec![
            SlotDef::key("broker", ValueType::Str),
            SlotDef::new("rule", ValueType::Str),
            SlotDef::new("severity", ValueType::Str),
            SlotDef::new("firing", ValueType::Int),
            SlotDef::new("tick", ValueType::Int),
        ],
    ))
    .expect("fresh ontology");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthcare_ontology_shape() {
        let o = healthcare_ontology();
        assert_eq!(o.name, "healthcare");
        assert!(o.class("patient").is_some());
        assert!(o.is_subclass_or_self("podiatrist", "provider"));
        let slots = o.all_slots("podiatrist").unwrap();
        assert!(slots.iter().any(|s| s.name == "specialty")); // inherited
        assert!(slots.iter().any(|s| s.name == "license")); // local
    }

    #[test]
    fn obs_ontology_shape() {
        let o = obs_ontology();
        assert_eq!(o.name, "infosleuth-obs");
        let health = o.all_slots("broker_health").unwrap();
        assert!(health.iter().any(|s| s.name == "broker" && s.is_key));
        assert!(health.iter().any(|s| s.name == "queue_depth"));
        assert!(o.class("health_alert").is_some());
    }

    #[test]
    fn paper_class_ontology_shape() {
        let o = paper_class_ontology();
        assert!(o.is_subclass_or_self("C2a", "C2"));
        assert!(o.is_subclass_or_self("C2b", "C2"));
        assert!(!o.is_subclass_or_self("C1", "C2"));
        assert_eq!(o.hierarchy().descendants("C2").len(), 2);
        assert!(o.all_slots("C2a").unwrap().iter().any(|s| s.name == "id" && s.is_key));
    }
}
