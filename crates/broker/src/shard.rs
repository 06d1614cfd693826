//! Repository sharding for broker scale-out.
//!
//! One broker's repository is a scalability bottleneck once a community
//! grows past a few hundred agents: every advertisement lands in the same
//! table and every query scans it. Sharding partitions the advertisement
//! space across a consortium by **ontology fragment** — the
//! `(ontology, class)` pairs an agent advertises — using the stable
//! [`fragment_hash`], so that each broker owns a deterministic slice of
//! the semantic space and any community member can compute an
//! advertisement's home broker without asking anyone.
//!
//! The paper's multibrokering model (§4.3) already allows redundant and
//! specialized brokers; a [`ShardPlan`] is the degenerate-but-scalable
//! layout where specialization is *by hash* instead of by domain. Queries
//! still start at any broker: the inter-broker search with routing
//! digests forwards them to the shards that can actually match.

use crate::broker_agent::{interconnect, BrokerHandle};
use infosleuth_agent::BusError;
use infosleuth_ontology::{fragment_hash, Advertisement};

/// Deterministic assignment of ontology fragments to a fixed list of
/// shards (usually one shard per broker in a consortium).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: Vec<String>,
}

impl ShardPlan {
    /// A plan over the given shard owners (broker names), in order.
    pub fn new<I, S>(owners: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let shards: Vec<String> = owners.into_iter().map(Into::into).collect();
        assert!(!shards.is_empty(), "a shard plan needs at least one owner");
        ShardPlan { shards }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard owning one ontology fragment.
    pub fn shard_of(&self, ontology: &str, class: &str) -> usize {
        (fragment_hash(ontology, class) % self.shards.len() as u64) as usize
    }

    /// The home shard of an advertisement: the owner of its
    /// lexicographically smallest `(ontology, class)` fragment, so the
    /// choice is independent of content-record order. An advertisement
    /// with no classed content falls back to hashing the agent name —
    /// every agent has a home.
    pub fn home_shard(&self, ad: &Advertisement) -> usize {
        let home = ad
            .semantic
            .content
            .iter()
            .flat_map(|c| c.classes.iter().map(move |class| (c.ontology.as_str(), class.as_str())))
            .min();
        match home {
            Some((ontology, class)) => self.shard_of(ontology, class),
            None => (fragment_hash("", &ad.location.name) % self.shards.len() as u64) as usize,
        }
    }

    /// The broker owning an advertisement (name of its home shard).
    pub fn owner_of(&self, ad: &Advertisement) -> &str {
        &self.shards[self.home_shard(ad)]
    }

    /// Name of the broker owning shard `i`.
    pub fn broker(&self, i: usize) -> &str {
        &self.shards[i]
    }
}

/// Interconnects a consortium of brokers and returns the shard plan that
/// assigns each ontology fragment a home broker. Callers route each
/// advertisement to [`ShardPlan::owner_of`] so every broker holds only
/// its slice; queries may still enter at any broker and reach the rest
/// through the digest-pruned inter-broker search.
pub fn connect_community(brokers: &[&BrokerHandle]) -> Result<ShardPlan, BusError> {
    interconnect(brokers)?;
    Ok(ShardPlan::new(brokers.iter().map(|b| b.name().to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_ontology::{
        AgentLocation, AgentType, Capability, ConversationType, OntologyContent, SemanticInfo,
        SyntacticInfo,
    };

    fn ad(name: &str, classes: &[&str]) -> Advertisement {
        Advertisement::new(AgentLocation::new(name, "tcp://h:1", AgentType::Resource))
            .with_syntactic(SyntacticInfo::sql_kqml())
            .with_semantic(
                SemanticInfo::default()
                    .with_conversations([ConversationType::AskAll])
                    .with_capabilities([Capability::relational_query_processing()])
                    .with_content(
                        OntologyContent::new("paper-classes").with_classes(classes.to_vec()),
                    ),
            )
    }

    #[test]
    fn placement_is_deterministic_and_order_independent() {
        let plan = ShardPlan::new(["b1", "b2", "b3"]);
        let a = ad("ra", &["C1", "C2"]);
        let mut b = ad("ra", &["C2"]);
        b.semantic.content.push(OntologyContent::new("paper-classes").with_classes(["C1"]));
        // Smallest fragment (paper-classes, C1) decides in both layouts.
        assert_eq!(plan.home_shard(&a), plan.home_shard(&b));
        assert_eq!(plan.home_shard(&a), plan.shard_of("paper-classes", "C1"));
        assert_eq!(plan.owner_of(&a), plan.broker(plan.home_shard(&a)));
    }

    #[test]
    fn contentless_ads_still_get_a_home() {
        let plan = ShardPlan::new(["b1", "b2"]);
        let bare = Advertisement::new(AgentLocation::new("x", "tcp://h:1", AgentType::Resource));
        assert!(plan.home_shard(&bare) < plan.len());
    }

    #[test]
    fn hash_spread_over_many_fragments_is_even_enough() {
        let plan = ShardPlan::new((0..8).map(|i| format!("b{i}")));
        let mut counts = vec![0usize; 8];
        for i in 0..800 {
            counts[plan.shard_of("healthcare", &format!("class-{i}"))] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        // 100 expected per shard; FNV keeps the skew well under 2x.
        assert!(*min > 50 && *max < 200, "skewed spread: {counts:?}");
    }
}
