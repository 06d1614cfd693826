//! The InfoSleuth **service ontology**: the shared vocabulary agents use to
//! describe themselves to brokers (advertisements) and to ask brokers for
//! other agents (service queries).
//!
//! The field inventory follows the paper directly: Fig. 8 (syntactic
//! information), Fig. 9 (semantic information), the §2.4 worked example, and
//! Fig. 13 (multibroker extensions).

use crate::{Capability, Fragment, SortedSet};
use infosleuth_constraint::Conjunction;
use infosleuth_kqml::Text;
use std::fmt;

/// The kind of agent, part of the syntactic service-ontology information.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AgentType {
    User,
    Resource,
    Broker,
    MultiResourceQuery,
    TaskPlanning,
    DataMining,
    Ontology,
    Monitor,
    Other(String),
}

impl fmt::Display for AgentType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentType::User => write!(f, "user"),
            AgentType::Resource => write!(f, "resource"),
            AgentType::Broker => write!(f, "broker"),
            AgentType::MultiResourceQuery => write!(f, "multiresource-query"),
            AgentType::TaskPlanning => write!(f, "task-planning"),
            AgentType::DataMining => write!(f, "data-mining"),
            AgentType::Ontology => write!(f, "ontology"),
            AgentType::Monitor => write!(f, "monitor"),
            AgentType::Other(s) => write!(f, "{s}"),
        }
    }
}

impl std::str::FromStr for AgentType {
    type Err = std::convert::Infallible;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "user" => AgentType::User,
            "resource" => AgentType::Resource,
            "broker" => AgentType::Broker,
            "multiresource-query" => AgentType::MultiResourceQuery,
            "task-planning" => AgentType::TaskPlanning,
            "data-mining" => AgentType::DataMining,
            "ontology" => AgentType::Ontology,
            "monitor" => AgentType::Monitor,
            other => AgentType::Other(other.to_string()),
        })
    }
}

/// Conversation types an agent can participate in (Fig. 9: "e.g., ask-all,
/// subscribe, emergent").
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConversationType {
    AskAll,
    AskOne,
    Subscribe,
    Update,
    Tell,
    Delegation,
    Forwarding,
    Emergent,
    Other(String),
}

impl ConversationType {
    /// The conversation's name, as advertised and as written on the wire.
    pub fn as_str(&self) -> &str {
        match self {
            ConversationType::AskAll => "ask-all",
            ConversationType::AskOne => "ask-one",
            ConversationType::Subscribe => "subscribe",
            ConversationType::Update => "update",
            ConversationType::Tell => "tell",
            ConversationType::Delegation => "delegation",
            ConversationType::Forwarding => "forwarding",
            ConversationType::Emergent => "emergent",
            ConversationType::Other(s) => s,
        }
    }
}

impl fmt::Display for ConversationType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Agent name and location (Fig. 8): unique name, contact directions, type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentLocation {
    /// Directions on how to contact the agent, e.g. `tcp://b1.mcc.com:4356`.
    pub address: Text,
    /// Unique agent name, e.g. `ResourceAgent5`.
    pub name: Text,
    pub agent_type: AgentType,
}

impl AgentLocation {
    pub fn new(name: impl Into<Text>, address: impl Into<Text>, agent_type: AgentType) -> Self {
        AgentLocation { address: address.into(), name: name.into(), agent_type }
    }
}

/// Agent syntactic knowledge (Fig. 8): communication and content languages.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SyntacticInfo {
    /// Content / interface query languages, e.g. `SQL 2.0`, `LDL`.
    pub query_languages: SortedSet<Text>,
    /// Communication languages/services, e.g. `KQML`, `CORBA`.
    pub communication_languages: SortedSet<Text>,
}

impl SyntacticInfo {
    pub fn new<Q, C>(query_languages: Q, communication_languages: C) -> Self
    where
        Q: IntoIterator,
        Q::Item: Into<Text>,
        C: IntoIterator,
        C::Item: Into<Text>,
    {
        SyntacticInfo {
            query_languages: query_languages.into_iter().map(Into::into).collect(),
            communication_languages: communication_languages.into_iter().map(Into::into).collect(),
        }
    }

    /// The common `SQL 2.0` + `KQML` combination used throughout the paper.
    pub fn sql_kqml() -> Self {
        Self::new(["SQL 2.0"], ["KQML"])
    }
}

/// One ontology's worth of advertised content (Fig. 9 "agent content" and
/// the §2.4 example): supported classes, slots, keys, fragments, and
/// restrictions on the data.
#[derive(Debug, Clone, PartialEq)]
pub struct OntologyContent {
    /// Supported ontology name, e.g. `healthcare`.
    pub ontology: Text,
    /// Supported ontology classes, e.g. `diagnosis`, `patient`.
    pub classes: SortedSet<Text>,
    /// Supported ontology slots, dotted, e.g. `patient.age`.
    pub slots: SortedSet<Text>,
    /// Supported class keys, e.g. `patient.id`.
    pub keys: SortedSet<Text>,
    /// Per-class fragments: `(class, fragment)` pairs; as built by
    /// [`with_fragment`](Self::with_fragment), capacity equals length.
    pub fragments: Vec<(Text, Fragment)>,
    /// Restrictions on the data, e.g. `patient.age between 43 and 75`.
    pub constraints: Conjunction,
}

impl OntologyContent {
    pub fn new(ontology: impl Into<Text>) -> Self {
        OntologyContent {
            ontology: ontology.into(),
            classes: SortedSet::new(),
            slots: SortedSet::new(),
            keys: SortedSet::new(),
            fragments: Vec::new(),
            constraints: Conjunction::always(),
        }
    }

    pub fn with_classes<I, S>(mut self, classes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Text>,
    {
        self.classes.extend(classes.into_iter().map(Into::into));
        self
    }

    pub fn with_slots<I, S>(mut self, slots: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Text>,
    {
        self.slots.extend(slots.into_iter().map(Into::into));
        self
    }

    pub fn with_keys<I, S>(mut self, keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Text>,
    {
        self.keys.extend(keys.into_iter().map(Into::into));
        self
    }

    pub fn with_fragment(mut self, class: impl Into<Text>, frag: Fragment) -> Self {
        push_exact(&mut self.fragments, (class.into(), frag));
        self
    }

    pub fn with_constraints(mut self, constraints: Conjunction) -> Self {
        self.constraints = constraints;
        self
    }
}

/// Agent semantic knowledge (Fig. 9): capabilities, conversations,
/// restrictions, and content.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SemanticInfo {
    /// Conversation types the agent can participate in.
    pub conversations: SortedSet<ConversationType>,
    /// The agent's functionality, as capability-taxonomy nodes.
    pub capabilities: SortedSet<Capability>,
    /// Free-text restrictions on those capabilities (e.g. "no statistical
    /// aggregation within queries").
    pub capability_restrictions: Vec<String>,
    /// Content per supported ontology. This list and the one above have
    /// capacity equal to length as the builders below make them.
    pub content: Vec<OntologyContent>,
}

impl SemanticInfo {
    pub fn with_conversations<I>(mut self, convs: I) -> Self
    where
        I: IntoIterator<Item = ConversationType>,
    {
        self.conversations.extend(convs);
        self
    }

    pub fn with_capabilities<I, C>(mut self, caps: I) -> Self
    where
        I: IntoIterator<Item = C>,
        C: Into<Capability>,
    {
        self.capabilities.extend(caps.into_iter().map(Into::into));
        self
    }

    pub fn with_capability_restriction(mut self, r: impl Into<String>) -> Self {
        push_exact(&mut self.capability_restrictions, r.into());
        self
    }

    pub fn with_content(mut self, content: OntologyContent) -> Self {
        push_exact(&mut self.content, content);
        self
    }
}

/// Appends to one of the lists above, growing it by exactly one slot, so
/// a list the builders made has no spare capacity — as a
/// [`SortedSet`](crate::SortedSet) has none. Most such lists hold one
/// element, where a bare `push` would allocate room for four.
fn push_exact<T>(list: &mut Vec<T>, item: T) {
    list.reserve_exact(1);
    list.push(item);
}

/// Agent properties (Fig. 9): adaptivity and processing statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AgentProperties {
    pub mobile: bool,
    pub cloneable: bool,
    /// Estimated response time in seconds (the §2.4 example advertises 5).
    pub estimated_response_time: Option<f64>,
    /// Throughput in requests/second, when known.
    pub throughput: Option<f64>,
}

/// A complete advertisement: everything an agent tells a broker about
/// itself. This is the unit stored in the broker repository.
#[derive(Debug, Clone, PartialEq)]
pub struct Advertisement {
    pub location: AgentLocation,
    pub syntactic: SyntacticInfo,
    pub semantic: SemanticInfo,
    pub properties: AgentProperties,
}

impl Advertisement {
    pub fn new(location: AgentLocation) -> Self {
        Advertisement {
            location,
            syntactic: SyntacticInfo::default(),
            semantic: SemanticInfo::default(),
            properties: AgentProperties::default(),
        }
    }

    pub fn with_syntactic(mut self, s: SyntacticInfo) -> Self {
        self.syntactic = s;
        self
    }

    pub fn with_semantic(mut self, s: SemanticInfo) -> Self {
        self.semantic = s;
        self
    }

    pub fn with_properties(mut self, p: AgentProperties) -> Self {
        self.properties = p;
        self
    }

    pub fn agent_name(&self) -> &str {
        &self.location.name
    }

    /// A rough serialized size in bytes, used by cost models (the simulator
    /// charges brokers per megabyte of advertisements).
    pub fn approx_size_bytes(&self) -> usize {
        let mut n = self.location.name.len() + self.location.address.len() + 16;
        n += self
            .syntactic
            .query_languages
            .iter()
            .chain(self.syntactic.communication_languages.iter())
            .map(|s| s.len() + 8)
            .sum::<usize>();
        n += self.semantic.capabilities.iter().map(|c| c.as_str().len() + 8).sum::<usize>();
        n += self.semantic.conversations.len() * 12;
        for c in &self.semantic.content {
            n += c.ontology.len() + 8;
            n += c
                .classes
                .iter()
                .chain(c.slots.iter())
                .chain(c.keys.iter())
                .map(|s| s.len() + 8)
                .sum::<usize>();
            n += c.fragments.len() * 32;
            n += c.constraints.to_string().len();
        }
        n + 64
    }
}

/// Broker specialization information (Fig. 13): what kinds of agents and
/// ontologies a broker focuses on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BrokerSpecialization {
    /// Agent types in the broker's repository (empty = any).
    pub agent_types: SortedSet<AgentType>,
    /// Ontologies the broker specializes in (empty = general purpose).
    pub ontologies: SortedSet<Text>,
    /// Free-text restrictions on brokered services.
    pub restrictions: Vec<String>,
}

impl BrokerSpecialization {
    /// Whether this is a general-purpose broker (no domain restriction).
    pub fn is_general_purpose(&self) -> bool {
        self.ontologies.is_empty() && self.agent_types.is_empty()
    }
}

/// A broker's advertisement to other brokers: the base agent advertisement
/// plus Fig. 13 multibroker extensions.
#[derive(Debug, Clone, PartialEq)]
pub struct BrokerAdvertisement {
    pub base: Advertisement,
    /// Consortium memberships.
    pub consortia: SortedSet<Text>,
    pub specialization: BrokerSpecialization,
}

impl BrokerAdvertisement {
    pub fn new(base: Advertisement) -> Self {
        BrokerAdvertisement {
            base,
            consortia: SortedSet::new(),
            specialization: BrokerSpecialization::default(),
        }
    }

    pub fn with_consortia<I, S>(mut self, consortia: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Text>,
    {
        self.consortia.extend(consortia.into_iter().map(Into::into));
        self
    }

    pub fn with_specialization(mut self, s: BrokerSpecialization) -> Self {
        self.specialization = s;
        self
    }
}

/// A service query: the fields an agent asks the broker about. Unset fields
/// are wildcards ("the syntactic or semantic information that the agent does
/// not care about is not specified"). This mirrors the §2.4 query content.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceQuery {
    /// Required agent type (`agent type: resource` in the example).
    pub agent_type: Option<AgentType>,
    /// Required specific agent name (rarely used; exact match).
    pub agent_name: Option<Text>,
    /// Required interface query language, e.g. `SQL 2.0`.
    pub query_language: Option<Text>,
    /// Required communication language, e.g. `KQML`.
    pub communication_language: Option<Text>,
    /// Required conversation types.
    pub conversations: SortedSet<ConversationType>,
    /// Required capabilities; each must be covered by an advertised
    /// capability via taxonomy subsumption.
    pub capabilities: SortedSet<Capability>,
    /// Required ontology name, e.g. `healthcare`.
    pub ontology: Option<Text>,
    /// Classes the request involves; the advertisement must cover at least
    /// one (the broker returns partial matches for fragmented classes, and
    /// the requester combines them).
    pub classes: SortedSet<Text>,
    /// Slots the request involves.
    pub slots: SortedSet<Text>,
    /// Data constraints that must overlap the advertised restrictions.
    pub constraints: Conjunction,
    /// Upper bound on estimated response time, when the requester cares.
    pub max_response_time: Option<f64>,
    /// Required adaptivity properties (Fig. 9: "e.g., cloneable, mobile").
    /// `Some(true)` demands the property; `Some(false)` demands its
    /// absence; `None` does not care.
    pub require_mobile: Option<bool>,
    pub require_cloneable: Option<bool>,
    /// How many matches the requester wants (`None` = all). `Some(1)`
    /// corresponds to the paper's "one multiresource query processing
    /// agent" request and triggers the until-match follow option default.
    pub max_matches: Option<usize>,
}

impl ServiceQuery {
    pub fn any() -> Self {
        ServiceQuery::default()
    }

    pub fn for_agent_type(agent_type: AgentType) -> Self {
        ServiceQuery { agent_type: Some(agent_type), ..ServiceQuery::default() }
    }

    pub fn with_query_language(mut self, lang: impl Into<Text>) -> Self {
        self.query_language = Some(lang.into());
        self
    }

    pub fn with_communication_language(mut self, lang: impl Into<Text>) -> Self {
        self.communication_language = Some(lang.into());
        self
    }

    pub fn with_conversation(mut self, c: ConversationType) -> Self {
        self.conversations.insert(c);
        self
    }

    pub fn with_capability(mut self, c: impl Into<Capability>) -> Self {
        self.capabilities.insert(c.into());
        self
    }

    pub fn with_ontology(mut self, o: impl Into<Text>) -> Self {
        self.ontology = Some(o.into());
        self
    }

    pub fn with_classes<I, S>(mut self, classes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Text>,
    {
        self.classes.extend(classes.into_iter().map(Into::into));
        self
    }

    pub fn with_slots<I, S>(mut self, slots: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Text>,
    {
        self.slots.extend(slots.into_iter().map(Into::into));
        self
    }

    pub fn with_constraints(mut self, c: Conjunction) -> Self {
        self.constraints = c;
        self
    }

    pub fn with_max_response_time(mut self, t: f64) -> Self {
        self.max_response_time = Some(t);
        self
    }

    pub fn with_mobility(mut self, required: bool) -> Self {
        self.require_mobile = Some(required);
        self
    }

    pub fn with_cloneability(mut self, required: bool) -> Self {
        self.require_cloneable = Some(required);
        self
    }

    pub fn one(mut self) -> Self {
        self.max_matches = Some(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_constraint::{Predicate, Value};

    /// Builds the §2.4 ResourceAgent5 advertisement.
    pub(crate) fn resource_agent5() -> Advertisement {
        Advertisement::new(AgentLocation::new(
            "ResourceAgent5",
            "tcp://b1.mcc.com:4356",
            AgentType::Resource,
        ))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(
            SemanticInfo::default()
                .with_conversations([
                    ConversationType::Subscribe,
                    ConversationType::Update,
                    ConversationType::AskAll,
                ])
                .with_capabilities([
                    Capability::relational_query_processing(),
                    Capability::subscription(),
                ])
                .with_content(
                    OntologyContent::new("healthcare")
                        .with_classes(["diagnosis", "patient"])
                        .with_slots(["diagnosis.code", "patient.age"])
                        .with_keys(["patient.id"])
                        .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                            "patient.age",
                            43,
                            75,
                        )])),
                ),
        )
        .with_properties(AgentProperties {
            mobile: false,
            cloneable: false,
            estimated_response_time: Some(5.0),
            throughput: None,
        })
    }

    #[test]
    fn paper_advertisement_builds() {
        let ad = resource_agent5();
        assert_eq!(ad.agent_name(), "ResourceAgent5");
        assert_eq!(ad.location.address, "tcp://b1.mcc.com:4356");
        assert!(ad.syntactic.query_languages.contains("SQL 2.0"));
        assert!(ad.semantic.capabilities.contains(&Capability::relational_query_processing()));
        let hc = &ad.semantic.content[0];
        assert_eq!(hc.ontology, "healthcare");
        assert!(hc.classes.contains("patient"));
        assert!(hc.constraints.domain("patient.age").contains(&Value::Int(50)));
        assert_eq!(ad.properties.estimated_response_time, Some(5.0));
        assert!(ad.approx_size_bytes() > 100);
    }

    #[test]
    fn paper_service_query_builds() {
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_query_language("SQL 2.0")
            .with_ontology("healthcare")
            .with_constraints(Conjunction::from_predicates(vec![
                Predicate::between("patient.age", 25, 65),
                Predicate::eq("patient.diagnosis_code", "40W"),
            ]));
        assert_eq!(q.agent_type, Some(AgentType::Resource));
        assert_eq!(q.query_language.as_deref(), Some("SQL 2.0"));
        assert!(q.max_matches.is_none());
        let one = q.one();
        assert_eq!(one.max_matches, Some(1));
    }

    #[test]
    fn broker_advertisement_extensions() {
        let base = Advertisement::new(AgentLocation::new(
            "Broker1",
            "tcp://b2.mcc.com:5000",
            AgentType::Broker,
        ));
        let spec = BrokerSpecialization {
            agent_types: SortedSet::from([AgentType::Resource]),
            ontologies: SortedSet::from(["healthcare".into()]),
            restrictions: vec![],
        };
        let ad = BrokerAdvertisement::new(base)
            .with_consortia(["alpha", "beta"])
            .with_specialization(spec);
        assert!(ad.consortia.contains("alpha"));
        assert!(!ad.specialization.is_general_purpose());
        let general = BrokerSpecialization::default();
        assert!(general.is_general_purpose());
    }

    #[test]
    fn agent_type_round_trips() {
        for t in [
            AgentType::User,
            AgentType::Resource,
            AgentType::Broker,
            AgentType::MultiResourceQuery,
            AgentType::Ontology,
        ] {
            let s = t.to_string();
            let back: AgentType = s.parse().unwrap();
            assert_eq!(back, t);
        }
        let other: AgentType = "weather".parse().unwrap();
        assert_eq!(other, AgentType::Other("weather".to_string()));
    }
}
