//! Static configuration for one broker.

use crate::objective::BrokerObjective;
use crate::policy::SearchPolicy;
use infosleuth_ontology::{
    Advertisement, AgentLocation, AgentType, BrokerAdvertisement, BrokerSpecialization, SortedSet,
};
use std::collections::BTreeSet;
use std::time::Duration;

/// Static configuration for one broker.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    pub name: String,
    /// Advertised contact directions, e.g. `tcp://b1.mcc.com:4356`.
    pub address: String,
    pub objective: BrokerObjective,
    /// Policy used when a requester does not specify one ("if the
    /// requesting agent did not specify any policy, the default policy set
    /// by a broker will be used").
    pub default_policy: SearchPolicy,
    /// How long to wait for each peer broker during an inter-broker search.
    pub peer_timeout: Duration,
    /// Consortium memberships (Fig. 13).
    pub consortia: BTreeSet<String>,
    /// Liveness sweep interval: "the broker periodically pings each of the
    /// agents that have advertised to it, to discover any agents that have
    /// failed. The broker removes from its repository all information about
    /// agents that have failed". `None` disables the sweep.
    pub ping_interval: Option<Duration>,
    /// Maximum envelopes the hosting runtime may drain into one broker
    /// dispatch (1 by default). Above 1, consecutive queued repository
    /// mutations (advertise / update / unadvertise) are applied under a
    /// single state lock, their sub-deltas and acks leaving when it is
    /// released — mutations are still processed strictly in arrival
    /// order, one at a time, so the emitted sequences are byte-identical
    /// at every limit.
    pub batch_limit: usize,
}

impl BrokerConfig {
    pub fn new(name: impl Into<String>, address: impl Into<String>) -> Self {
        BrokerConfig {
            name: name.into(),
            address: address.into(),
            objective: BrokerObjective::GeneralPurpose,
            default_policy: SearchPolicy::default(),
            peer_timeout: Duration::from_secs(2),
            consortia: BTreeSet::new(),
            ping_interval: Some(Duration::from_secs(30)),
            batch_limit: 1,
        }
    }

    /// Opts the broker into batched dispatch: up to `n` queued envelopes
    /// per job (clamped to at least 1).
    pub fn with_batch_limit(mut self, n: usize) -> Self {
        self.batch_limit = n.max(1);
        self
    }

    pub fn with_ping_interval(mut self, interval: Option<Duration>) -> Self {
        self.ping_interval = interval;
        self
    }

    pub fn with_objective(mut self, o: BrokerObjective) -> Self {
        self.objective = o;
        self
    }

    pub fn with_consortia<I, S>(mut self, consortia: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.consortia.extend(consortia.into_iter().map(Into::into));
        self
    }

    /// This broker's own advertisement to peers.
    pub fn broker_advertisement(&self) -> BrokerAdvertisement {
        let base = Advertisement::new(AgentLocation::new(
            self.name.clone(),
            self.address.clone(),
            AgentType::Broker,
        ));
        BrokerAdvertisement::new(base)
            .with_consortia(self.consortia.iter().cloned())
            .with_specialization(BrokerSpecialization {
                agent_types: SortedSet::new(),
                ontologies: self.objective.ontologies(),
                restrictions: Vec::new(),
            })
    }
}
