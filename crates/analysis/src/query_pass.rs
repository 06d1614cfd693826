//! Static analysis of standing service queries (subscriptions).
//!
//! A `subscribe` performative registers a service query that the broker
//! re-evaluates on every repository mutation for as long as the
//! subscription lives, so a query that can never match (IS026) or that
//! matches *everything* (IS027) is worth rejecting at admission instead of
//! paying for it on every churn event. The vocabulary checks reuse the
//! advertisement codes: classes (IS021), slots (IS022), and capabilities
//! (IS023) are validated against the same [`AdContext`] the broker builds
//! for advertisement admission.

use crate::ad_pass::AdContext;
use crate::diag::{Code, Diagnostic, Report};
use infosleuth_kqml::Text;
use infosleuth_ontology::{Ontology, ServiceQuery};

/// Runs every subscription-query check; `origin` names the artifact (an
/// agent name, a file path).
pub fn analyze_service_query(origin: &str, query: &ServiceQuery, ctx: &AdContext<'_>) -> Report {
    let mut report = Report::new(origin);
    if !query.constraints.is_satisfiable() {
        report.push(
            Diagnostic::new(
                Code::UnsatisfiableSubscription,
                format!(
                    "subscription constraints are unsatisfiable: {}",
                    query.constraints.to_text()
                ),
            )
            .with_note("the standing query can never match any agent; refuse it at admission"),
        );
    }
    if is_vacuous(query) {
        report.push(
            Diagnostic::new(
                Code::VacuousSubscription,
                "subscription constrains nothing: it matches every agent and fires on every \
                 repository mutation",
            )
            .with_note("require at least one dimension (type, class, capability, constraint, ...)"),
        );
    }
    if let Some(tax) = ctx.taxonomy() {
        for cap in &query.capabilities {
            if !tax.contains(cap.as_str()) {
                report.push(Diagnostic::new(
                    Code::UnknownCapability,
                    format!("capability '{}' is not in the capability taxonomy", cap.as_str()),
                ));
            }
        }
    }
    // Vocabulary checks need a declared, registered ontology; the broker
    // cannot check what it does not know.
    if let Some(onto) = query.ontology.as_deref().and_then(|o| ctx.ontology(o)) {
        for class in &query.classes {
            if onto.class(class).is_none() {
                report.push(Diagnostic::new(
                    Code::UnknownClass,
                    format!("class '{class}' is unknown to ontology '{}'", onto.name),
                ));
            }
        }
        for slot in &query.slots {
            if !slot_known(slot, query, onto) {
                report.push(Diagnostic::new(
                    Code::UnknownSlot,
                    format!("slot '{slot}' is unknown to ontology '{}'", onto.name),
                ));
            }
        }
        // Constrained slots are advisory, as in the advertisement pass: a
        // constraint over an unknown slot can never meet advertised data.
        for slot in query.constraints.constrained_slots() {
            if !slot_known(slot, query, onto) {
                report.push(Diagnostic::warning(
                    Code::UnknownSlot,
                    format!("constrained slot '{slot}' is unknown to ontology '{}'", onto.name),
                ));
            }
        }
    }
    report.sorted()
}

/// Whether the query constrains nothing at all. `max_matches` alone does
/// not select — a "first match of anything" standing query still fires on
/// every mutation.
fn is_vacuous(q: &ServiceQuery) -> bool {
    q.agent_type.is_none()
        && q.agent_name.is_none()
        && q.query_language.is_none()
        && q.communication_language.is_none()
        && q.conversations.is_empty()
        && q.capabilities.is_empty()
        && q.ontology.is_none()
        && q.classes.is_empty()
        && q.slots.is_empty()
        && q.constraints.is_trivial()
        && q.max_response_time.is_none()
        && q.require_mobile.is_none()
        && q.require_cloneable.is_none()
}

/// Whether a (possibly dotted `class.slot`) slot name resolves in the
/// ontology, scoped to the query's classes when it names any.
fn slot_known(slot: &str, query: &ServiceQuery, onto: &Ontology) -> bool {
    if let Some((class, bare)) = slot.split_once('.') {
        return match onto.all_slots(class) {
            Ok(slots) => slots.iter().any(|s| s.name == bare),
            Err(_) => false,
        };
    }
    let mut candidates: Vec<&str> = query.classes.iter().map(Text::as_str).collect();
    if candidates.is_empty() {
        candidates = onto.class_names().collect();
    }
    candidates.iter().any(|class| {
        onto.all_slots(class).map(|slots| slots.iter().any(|s| s.name == slot)).unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use infosleuth_constraint::{Conjunction, Predicate};
    use infosleuth_ontology::{
        healthcare_ontology, standard_capability_taxonomy, AgentType, Capability,
    };

    fn ctx<'a>(tax: &'a infosleuth_ontology::Taxonomy, onto: &'a Ontology) -> AdContext<'a> {
        AdContext::new().with_taxonomy(tax).with_ontologies([onto])
    }

    #[test]
    fn wellformed_subscription_is_clean() {
        let tax = standard_capability_taxonomy();
        let onto = healthcare_ontology();
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("healthcare")
            .with_classes(["patient"])
            .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                "patient.age",
                25,
                65,
            )]));
        let r = analyze_service_query("watcher", &q, &ctx(&tax, &onto));
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn unsatisfiable_constraints_are_is026() {
        let tax = standard_capability_taxonomy();
        let onto = healthcare_ontology();
        let q = ServiceQuery::for_agent_type(AgentType::Resource).with_constraints(
            Conjunction::from_predicates(vec![
                Predicate::gt("patient.age", 70),
                Predicate::lt("patient.age", 20),
            ]),
        );
        let r = analyze_service_query("watcher", &q, &ctx(&tax, &onto));
        assert_eq!(r.codes(), vec![Code::UnsatisfiableSubscription]);
        assert!(r.has_errors());
    }

    #[test]
    fn vacuous_subscription_is_is027() {
        let tax = standard_capability_taxonomy();
        let onto = healthcare_ontology();
        let r = analyze_service_query("watcher", &ServiceQuery::any(), &ctx(&tax, &onto));
        assert_eq!(r.codes(), vec![Code::VacuousSubscription]);
        assert!(r.has_errors());
        // max_matches alone does not make it selective.
        let r = analyze_service_query("watcher", &ServiceQuery::any().one(), &ctx(&tax, &onto));
        assert_eq!(r.codes(), vec![Code::VacuousSubscription]);
        // Any single dimension does.
        let q = ServiceQuery::for_agent_type(AgentType::Resource);
        assert!(analyze_service_query("watcher", &q, &ctx(&tax, &onto)).is_clean());
    }

    #[test]
    fn unknown_vocabulary_reuses_ad_codes() {
        let tax = standard_capability_taxonomy();
        let onto = healthcare_ontology();
        let q = ServiceQuery::any()
            .with_ontology("healthcare")
            .with_classes(["martian"])
            .with_slots(["patient.blood_type"])
            .with_capability(Capability::new("quantum-foo"));
        let r = analyze_service_query("watcher", &q, &ctx(&tax, &onto));
        assert_eq!(r.codes(), vec![Code::UnknownClass, Code::UnknownSlot, Code::UnknownCapability]);
    }

    #[test]
    fn unknown_constraint_slot_warns() {
        let tax = standard_capability_taxonomy();
        let onto = healthcare_ontology();
        let q = ServiceQuery::any().with_ontology("healthcare").with_constraints(
            Conjunction::from_predicates(vec![Predicate::eq("patient.nonexistent", 1)]),
        );
        let r = analyze_service_query("watcher", &q, &ctx(&tax, &onto));
        assert_eq!(r.codes(), vec![Code::UnknownSlot]);
        assert_eq!(r.diagnostics[0].severity, Severity::Warning);
        assert!(!r.has_errors());
    }

    #[test]
    fn undeclared_ontology_skips_vocabulary_checks() {
        let tax = standard_capability_taxonomy();
        let onto = healthcare_ontology();
        let q = ServiceQuery::any().with_ontology("mystery").with_classes(["whatever"]);
        let r = analyze_service_query("watcher", &q, &ctx(&tax, &onto));
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }
}
