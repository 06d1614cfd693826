//! Broker objectives and specialization (§3.2, §4.1).
//!
//! "With independent brokers, each broker may have a specific objective for
//! the type of agent information it maintains. … If the objective is to
//! develop a specialty in brokering over certain chosen domains, then it
//! should only accept advertisements that overlap with its chosen domains."

use infosleuth_kqml::Text;
use infosleuth_ontology::{Advertisement, SortedSet};

/// What a broker decides to do with an incoming advertisement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Store it in the repository.
    Accept,
    /// Decline it, suggesting other brokers that look like a better fit
    /// ("a broker receiving an advertisement may … pass it on to other
    /// potentially-interested brokers"). Empty when no suggestion exists,
    /// in which case the advertiser receives a plain `sorry`.
    Forward { candidates: Vec<String> },
}

/// A broker's objective.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BrokerObjective {
    #[default]
    /// "each group of cooperating brokers should contain at least one
    /// general-purpose broker for queries not covered by the specialized
    /// brokers" — accepts every valid advertisement.
    GeneralPurpose,
    /// Accepts only advertisements whose content overlaps the chosen
    /// ontologies.
    Specialized { ontologies: SortedSet<Text> },
}

impl BrokerObjective {
    pub fn specialized<I, S>(ontologies: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Text>,
    {
        BrokerObjective::Specialized {
            ontologies: ontologies.into_iter().map(Into::into).collect(),
        }
    }

    /// How well an advertisement fits this broker's objective — the
    /// "metrics to measure how well the advertisement fits within the
    /// broker's advertised purpose": the fraction of the advertisement's
    /// content ontologies that lie inside the specialty (1.0 for
    /// general-purpose brokers and for content-free agents, which any
    /// broker can represent).
    pub fn fit(&self, ad: &Advertisement) -> f64 {
        match self {
            BrokerObjective::GeneralPurpose => 1.0,
            BrokerObjective::Specialized { ontologies } => {
                let content = &ad.semantic.content;
                if content.is_empty() {
                    return 1.0;
                }
                let inside = content.iter().filter(|c| ontologies.contains(&c.ontology)).count();
                inside as f64 / content.len() as f64
            }
        }
    }

    /// Decides whether to accept an advertisement. `peer_fits` maps peer
    /// broker names to whether that peer's advertised specialty covers the
    /// advertisement (computed by the caller from broker advertisements).
    pub fn admit(&self, ad: &Advertisement, peer_fits: &[(String, f64)]) -> AdmissionDecision {
        if self.fit(ad) > 0.0 {
            return AdmissionDecision::Accept;
        }
        let mut candidates: Vec<(String, f64)> =
            peer_fits.iter().filter(|(_, fit)| *fit > 0.0).cloned().collect();
        candidates.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        AdmissionDecision::Forward { candidates: candidates.into_iter().map(|(n, _)| n).collect() }
    }

    pub fn is_general_purpose(&self) -> bool {
        matches!(self, BrokerObjective::GeneralPurpose)
    }

    /// The specialty ontologies (empty for general-purpose brokers).
    pub fn ontologies(&self) -> SortedSet<Text> {
        match self {
            BrokerObjective::GeneralPurpose => SortedSet::new(),
            BrokerObjective::Specialized { ontologies } => ontologies.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_ontology::{AgentLocation, AgentType, OntologyContent, SemanticInfo};

    fn ad_with_ontologies(ontologies: &[&str]) -> Advertisement {
        let mut sem = SemanticInfo::default();
        for o in ontologies {
            sem = sem.with_content(OntologyContent::new(*o));
        }
        Advertisement::new(AgentLocation::new("a", "tcp://h:1", AgentType::Resource))
            .with_semantic(sem)
    }

    #[test]
    fn general_purpose_accepts_everything() {
        let obj = BrokerObjective::GeneralPurpose;
        assert_eq!(obj.fit(&ad_with_ontologies(&["food"])), 1.0);
        assert_eq!(obj.admit(&ad_with_ontologies(&["food"]), &[]), AdmissionDecision::Accept);
    }

    #[test]
    fn specialist_accepts_overlapping_domains() {
        // "if a food supplier agent advertises to a broker that only
        // brokers healthcare information, the broker should forward it"
        let obj = BrokerObjective::specialized(["healthcare"]);
        assert_eq!(obj.fit(&ad_with_ontologies(&["healthcare"])), 1.0);
        assert_eq!(obj.fit(&ad_with_ontologies(&["healthcare", "food"])), 0.5);
        assert_eq!(obj.fit(&ad_with_ontologies(&["food"])), 0.0);
        assert_eq!(obj.admit(&ad_with_ontologies(&["healthcare"]), &[]), AdmissionDecision::Accept);
    }

    #[test]
    fn specialist_forwards_to_best_fitting_peer() {
        let obj = BrokerObjective::specialized(["healthcare"]);
        let peers = vec![
            ("generalist".to_string(), 1.0),
            ("aerospace-broker".to_string(), 0.0),
            ("food-broker".to_string(), 1.0),
        ];
        let d = obj.admit(&ad_with_ontologies(&["food"]), &peers);
        match d {
            AdmissionDecision::Forward { candidates } => {
                assert_eq!(candidates, vec!["food-broker", "generalist"]);
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn specialist_with_no_peer_suggestions_rejects() {
        let obj = BrokerObjective::specialized(["healthcare"]);
        let d = obj.admit(&ad_with_ontologies(&["food"]), &[]);
        assert_eq!(d, AdmissionDecision::Forward { candidates: vec![] });
    }

    #[test]
    fn content_free_agents_fit_anywhere() {
        // A pure query-processing agent advertises no ontology content;
        // specialized brokers still accept it.
        let obj = BrokerObjective::specialized(["healthcare"]);
        assert_eq!(obj.fit(&ad_with_ontologies(&[])), 1.0);
    }
}
