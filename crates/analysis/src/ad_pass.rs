//! Static analysis of advertisements.
//!
//! The checks mirror what the paper's broker promises on receipt of an
//! advertisement ("the broker validates and translates the advertisement")
//! but as structured diagnostics: unsatisfiable data constraints (IS020),
//! classes/slots unknown to the declared ontology (IS021/IS022), unknown
//! capabilities (IS023), invalid fragments (IS025), and advertisements
//! subsumed by one already registered for the same agent (IS024).

use crate::diag::{Code, Diagnostic, Report};
use infosleuth_kqml::Text;
use infosleuth_ontology::{Advertisement, Ontology, OntologyContent, Taxonomy};
use std::collections::BTreeMap;

/// What the analyzer knows about the broker's world: the capability
/// taxonomy, the registered domain ontologies, and the advertisement (if
/// any) already registered for the same agent. All optional — missing
/// knowledge skips the corresponding checks, mirroring the paper's "the
/// broker cannot check what it does not know".
#[derive(Debug, Clone, Default)]
pub struct AdContext<'a> {
    taxonomy: Option<&'a Taxonomy>,
    ontologies: BTreeMap<&'a str, &'a Ontology>,
    registered: Option<&'a Advertisement>,
}

impl<'a> AdContext<'a> {
    pub fn new() -> Self {
        AdContext::default()
    }

    pub fn with_taxonomy(mut self, t: &'a Taxonomy) -> Self {
        self.taxonomy = Some(t);
        self
    }

    pub fn with_ontologies<I>(mut self, ontologies: I) -> Self
    where
        I: IntoIterator<Item = &'a Ontology>,
    {
        for o in ontologies {
            self.ontologies.insert(o.name.as_str(), o);
        }
        self
    }

    /// The advertisement currently registered for the same agent, for
    /// subsumption checking.
    pub fn with_registered(mut self, ad: &'a Advertisement) -> Self {
        self.registered = Some(ad);
        self
    }

    /// The capability taxonomy, if known.
    pub fn taxonomy(&self) -> Option<&'a Taxonomy> {
        self.taxonomy
    }

    /// Looks up a registered ontology by name.
    pub fn ontology(&self, name: &str) -> Option<&'a Ontology> {
        self.ontologies.get(name).copied()
    }
}

/// Runs every advertisement check. The report origin is the agent name.
pub fn analyze_advertisement(ad: &Advertisement, ctx: &AdContext<'_>) -> Report {
    let mut report = Report::new(ad.location.name.clone());
    if let Some(tax) = ctx.taxonomy {
        for cap in &ad.semantic.capabilities {
            if !tax.contains(cap.as_str()) {
                report.push(Diagnostic::new(
                    Code::UnknownCapability,
                    format!("capability '{}' is not in the capability taxonomy", cap.as_str()),
                ));
            }
        }
    }
    for content in &ad.semantic.content {
        check_content(content, ctx, &mut report);
    }
    if let Some(existing) = ctx.registered {
        if existing.location.name == ad.location.name && subsumes(existing, ad) {
            report.push(
                Diagnostic::new(
                    Code::SubsumedAdvertisement,
                    format!(
                        "advertisement is subsumed by the one already registered for \
                         '{}': it offers no capability, conversation, class, slot, or \
                         data region the registered one lacks",
                        ad.location.name
                    ),
                )
                .with_note(
                    "re-advertising a weaker or identical service set has no effect on matchmaking",
                ),
            );
        }
    }
    report.sorted()
}

fn check_content(content: &OntologyContent, ctx: &AdContext<'_>, report: &mut Report) {
    if !content.constraints.is_satisfiable() {
        report.push(
            Diagnostic::new(
                Code::UnsatisfiableConstraints,
                format!(
                    "data constraints for ontology '{}' are unsatisfiable: {}",
                    content.ontology,
                    content.constraints.to_text()
                ),
            )
            .with_note("no query can ever match this content; the advertisement is useless"),
        );
    }
    // Classes, slots, and fragments can only be checked against ontologies
    // the broker knows.
    let Some(onto) = ctx.ontologies.get(content.ontology.as_str()) else { return };
    for class in &content.classes {
        if onto.class(class).is_none() {
            report.push(Diagnostic::new(
                Code::UnknownClass,
                format!("class '{class}' is unknown to ontology '{}'", content.ontology),
            ));
        }
    }
    for slot in content.slots.iter().chain(content.keys.iter()) {
        check_slot(slot, content, onto, Code::UnknownSlot, report);
    }
    // Constraint slots are advisory: a constraint over a slot the ontology
    // does not define can never be compared with a request over real data.
    for slot in content.constraints.constrained_slots() {
        if !slot_known(slot, content, onto) {
            report.push(Diagnostic::warning(
                Code::UnknownSlot,
                format!("constrained slot '{slot}' is unknown to ontology '{}'", content.ontology),
            ));
        }
    }
    for (class, frag) in &content.fragments {
        if let Err(e) = onto.validate_fragment(class, frag) {
            report.push(Diagnostic::new(
                Code::InvalidFragment,
                format!("invalid fragment of class '{class}': {e}"),
            ));
        }
    }
}

fn check_slot(
    slot: &str,
    content: &OntologyContent,
    onto: &Ontology,
    code: Code,
    report: &mut Report,
) {
    if !slot_known(slot, content, onto) {
        report.push(Diagnostic::new(
            code,
            format!("slot '{slot}' is unknown to ontology '{}'", onto.name),
        ));
    }
}

/// Whether a (possibly dotted `class.slot`) slot name resolves in the
/// ontology. Dotted names must name a known class and one of its slots
/// (inherited included); bare names must be a slot of some advertised
/// class, or of any class when the advertisement names none.
fn slot_known(slot: &str, content: &OntologyContent, onto: &Ontology) -> bool {
    if let Some((class, bare)) = slot.split_once('.') {
        return match onto.all_slots(class) {
            Ok(slots) => slots.iter().any(|s| s.name == bare),
            Err(_) => false,
        };
    }
    let mut candidates: Vec<&str> = content.classes.iter().map(Text::as_str).collect();
    if candidates.is_empty() {
        candidates = onto.class_names().collect();
    }
    candidates.iter().any(|class| {
        onto.all_slots(class).map(|slots| slots.iter().any(|s| s.name == slot)).unwrap_or(false)
    })
}

/// Whether `old` subsumes `new`: everything `new` offers, `old` already
/// offers. Capabilities, conversations, and per-ontology content must all
/// be covered, and `new`'s data region must lie inside `old`'s.
fn subsumes(old: &Advertisement, new: &Advertisement) -> bool {
    if !new.semantic.capabilities.is_subset(&old.semantic.capabilities) {
        return false;
    }
    if !new.semantic.conversations.is_subset(&old.semantic.conversations) {
        return false;
    }
    new.semantic.content.iter().all(|nc| {
        old.semantic.content.iter().any(|oc| {
            oc.ontology == nc.ontology
                && nc.classes.is_subset(&oc.classes)
                && nc.slots.is_subset(&oc.slots)
                && nc.keys.is_subset(&oc.keys)
                && nc.constraints.implies(&oc.constraints)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use infosleuth_constraint::{Conjunction, Predicate};
    use infosleuth_ontology::{
        healthcare_ontology, standard_capability_taxonomy, AgentLocation, AgentType, Capability,
        Fragment, SemanticInfo, SyntacticInfo,
    };

    fn ad(name: &str) -> Advertisement {
        Advertisement::new(AgentLocation::new(name, "tcp://h:1000", AgentType::Resource))
            .with_syntactic(SyntacticInfo::sql_kqml())
            .with_semantic(
                SemanticInfo::default()
                    .with_capabilities([Capability::relational_query_processing()]),
            )
    }

    fn healthcare_content() -> OntologyContent {
        OntologyContent::new("healthcare")
            .with_classes(["patient"])
            .with_slots(["patient.age", "city"])
            .with_keys(["patient.id"])
            .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                "patient.age",
                43,
                75,
            )]))
    }

    fn ctx<'a>(tax: &'a Taxonomy, onto: &'a Ontology) -> AdContext<'a> {
        AdContext::new().with_taxonomy(tax).with_ontologies([onto])
    }

    #[test]
    fn wellformed_ad_is_clean() {
        let tax = standard_capability_taxonomy();
        let onto = healthcare_ontology();
        let mut a = ad("ra5");
        a.semantic.content.push(healthcare_content());
        let r = analyze_advertisement(&a, &ctx(&tax, &onto));
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn unknown_capability_is_is023() {
        let tax = standard_capability_taxonomy();
        let onto = healthcare_ontology();
        let mut a = ad("x");
        a.semantic.capabilities.insert(Capability::new("quantum-foo"));
        let r = analyze_advertisement(&a, &ctx(&tax, &onto));
        assert_eq!(r.codes(), vec![Code::UnknownCapability]);
    }

    #[test]
    fn unsatisfiable_constraints_are_is020() {
        let tax = standard_capability_taxonomy();
        let onto = healthcare_ontology();
        let mut a = ad("x");
        a.semantic.content.push(OntologyContent::new("healthcare").with_constraints(
            Conjunction::from_predicates(vec![
                Predicate::gt("patient.age", 10),
                Predicate::lt("patient.age", 5),
            ]),
        ));
        let r = analyze_advertisement(&a, &ctx(&tax, &onto));
        assert!(r.codes().contains(&Code::UnsatisfiableConstraints), "{:?}", r.codes());
    }

    #[test]
    fn unknown_class_and_slot_are_is021_is022() {
        let tax = standard_capability_taxonomy();
        let onto = healthcare_ontology();
        let mut a = ad("x");
        a.semantic.content.push(
            OntologyContent::new("healthcare")
                .with_classes(["martian"])
                .with_slots(["patient.blood_type"]),
        );
        let r = analyze_advertisement(&a, &ctx(&tax, &onto));
        assert_eq!(r.codes(), vec![Code::UnknownClass, Code::UnknownSlot]);
    }

    #[test]
    fn unknown_ontology_passes_through() {
        let tax = standard_capability_taxonomy();
        let onto = healthcare_ontology();
        let mut a = ad("x");
        a.semantic.content.push(
            OntologyContent::new("mystery").with_classes(["whatever"]).with_slots(["thing.x"]),
        );
        let r = analyze_advertisement(&a, &ctx(&tax, &onto));
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn invalid_fragment_is_is025() {
        let tax = standard_capability_taxonomy();
        let onto = healthcare_ontology();
        let mut a = ad("x");
        a.semantic.content.push(
            OntologyContent::new("healthcare")
                .with_fragment("patient", Fragment::vertical(["no_such_slot"])),
        );
        let r = analyze_advertisement(&a, &ctx(&tax, &onto));
        assert_eq!(r.codes(), vec![Code::InvalidFragment]);
    }

    #[test]
    fn unknown_constraint_slot_is_warning() {
        let tax = standard_capability_taxonomy();
        let onto = healthcare_ontology();
        let mut a = ad("x");
        a.semantic.content.push(
            OntologyContent::new("healthcare").with_classes(["patient"]).with_constraints(
                Conjunction::from_predicates(vec![Predicate::eq("patient.nonexistent", 1)]),
            ),
        );
        let r = analyze_advertisement(&a, &ctx(&tax, &onto));
        assert_eq!(r.codes(), vec![Code::UnknownSlot]);
        assert_eq!(r.diagnostics[0].severity, Severity::Warning);
    }

    #[test]
    fn subsumed_readvertisement_is_is024_warning() {
        let tax = standard_capability_taxonomy();
        let onto = healthcare_ontology();
        let mut old = ad("ra5");
        old.semantic.content.push(healthcare_content());
        // The new ad narrows the age range and drops a slot: subsumed.
        let mut new = ad("ra5");
        let mut c = healthcare_content();
        c.slots.remove("city");
        c.constraints =
            Conjunction::from_predicates(vec![Predicate::between("patient.age", 50, 60)]);
        new.semantic.content.push(c);
        let r = analyze_advertisement(&new, &ctx(&tax, &onto).with_registered(&old));
        assert_eq!(r.codes(), vec![Code::SubsumedAdvertisement]);
        assert_eq!(r.diagnostics[0].severity, Severity::Warning);
        // An ad that *extends* the region is not subsumed.
        let mut wider = ad("ra5");
        let mut c = healthcare_content();
        c.constraints =
            Conjunction::from_predicates(vec![Predicate::between("patient.age", 20, 90)]);
        wider.semantic.content.push(c);
        let r = analyze_advertisement(&wider, &ctx(&tax, &onto).with_registered(&old));
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }
}
