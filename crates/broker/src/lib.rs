//! The InfoSleuth broker: repository, combined syntactic + semantic
//! matchmaking, and peer-to-peer multibrokering.
//!
//! "The broker agent maintains a knowledge base of information that other
//! agents have advertised about themselves, and uses this knowledge to
//! match agents with requested services." (§2.1)
//!
//! The pieces, mapped to the paper:
//!
//! * [`Repository`] — the broker repository of Figures 3–4: validated
//!   advertisements, compiled into LDL facts for the reasoning engine.
//! * [`Matchmaker`] — combined brokering: a *syntactic* filter (languages,
//!   conversation types, agent type), then *semantic* reasoning over the
//!   capability taxonomy, domain ontologies (class hierarchies, fragments),
//!   and data constraints; finally ranking so that a better semantic match
//!   (the "MRQ2" example of §2.2) sorts first.
//! * [`SearchPolicy`] / [`FollowOption`] — the inter-broker search policy of
//!   §4.3, modelled on the CORBA trading service: a hop count and a follow
//!   option, plus a visited list for loop prevention.
//! * [`CapabilityDigest`] — what a broker advertises to its peers so that
//!   each can "know in advance which brokers it can immediately rule out
//!   from a query" (§5.2.2): a Bloom filter and slot hulls computed from
//!   the repository's narrowing index on demand, never kept beside it.
//! * [`BrokerObjective`] — broker specialization (§3.2): general-purpose
//!   brokers accept everything; specialized brokers accept advertisements
//!   that fit their domains and forward or reject the rest.
//! * [`BrokerAgent`] — the live agent: a message loop speaking KQML over
//!   the agent bus, handling advertise / unadvertise / update / ping /
//!   ask-all / ask-one, and collaborating with peer brokers on searches.
//! * [`codec`] — SExpr encodings of advertisements, service queries, and
//!   match lists, so everything that crosses the bus is a real KQML message.

#![forbid(unsafe_code)]

pub mod codec;

mod broker_agent;
mod digest;
mod facts;
mod health_pub;
mod match_cache;
mod matchmaker;
mod objective;
mod policy;
mod protocol_tap;
mod repository;
mod shard;
mod sub_index;

pub use broker_agent::{
    advertise_to, broker_one_content, interconnect, query_broker, subscribe_to, unadvertise_from,
    unsubscribe_from, BrokerAgent, BrokerConfig, BrokerCore, BrokerHandle, RoutingStats,
    StoredView,
};
pub use digest::CapabilityDigest;
pub use facts::{
    compile_agent_facts, compile_facts, compile_global_facts, derived_schema, edb_schema,
    matchmaking_env, matchmaking_program, matchmaking_program_with, matchmaking_rules_text,
};
pub use health_pub::{
    health_state_from_sexpr, health_state_to_sexpr, spawn_health_publisher,
    spawn_health_publisher_with, HealthPublisher, HealthPublisherConfig, HealthPublisherHandle,
    HEALTH_STATE_HEAD, OBS_ONTOLOGY_NAME,
};
pub use match_cache::{MatchCache, MatchCacheStats, QueryKey, DEFAULT_MATCH_CACHE_CAPACITY};
pub use matchmaker::{MatchResult, MatchRow, Matchmaker};
pub use objective::{AdmissionDecision, BrokerObjective};
pub use policy::{FollowOption, SearchPolicy};
pub use protocol_tap::ProtocolTap;
pub use repository::{Repository, RepositoryError};
pub use shard::{connect_community, ShardPlan};
pub use sub_index::{
    result_delta, Note, RecordId, StandingSubscription, SubId, SubscriptionRegistry,
};
