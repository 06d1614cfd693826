//! Ontologies and the InfoSleuth *service ontology*.
//!
//! InfoSleuth agents service requests over a set of common **domain
//! ontologies** (e.g. healthcare) and describe *themselves* to brokers using
//! a common **service ontology** covering syntactic knowledge (Fig. 8 of the
//! paper), semantic knowledge (Fig. 9), agent properties, and — for brokers
//! — multibroker extensions (Fig. 13). This crate provides:
//!
//! * the domain-ontology model: classes, slots, and an is-a [`Taxonomy`]
//!   with subsumption queries;
//! * the [`Capability`] taxonomy of Fig. 2 (query processing → relational →
//!   select/project/join/union);
//! * horizontal and vertical [`Fragment`]s of classes, which resource agents
//!   advertise when they hold only part of a class;
//! * [`Advertisement`], [`BrokerAdvertisement`], and [`ServiceQuery`] — the
//!   records that flow between agents and brokers;
//! * [`SortedSet`], the exactly-sized ordered set those records hold their
//!   lists in;
//! * the sample healthcare ontology used across the paper's examples;
//! * [`Sym`], the process-wide symbol table those names are interned in
//!   once they reach the reasoning engine.

#![forbid(unsafe_code)]

mod capability;
mod fragment;
mod model;
mod samples;
mod service;
mod set;
mod symbol;
mod taxonomy;

pub use capability::{standard_capability_taxonomy, Capability};
pub use fragment::{fragment_hash, Fragment};
pub use model::{ClassDef, Ontology, OntologyError, SlotDef, ValueType};
pub use samples::{healthcare_ontology, obs_ontology, paper_class_ontology};
pub use service::{
    Advertisement, AgentLocation, AgentProperties, AgentType, BrokerAdvertisement,
    BrokerSpecialization, ConversationType, OntologyContent, SemanticInfo, ServiceQuery,
    SyntacticInfo,
};
pub use set::SortedSet;
pub use symbol::Sym;
pub use taxonomy::{Taxonomy, TaxonomyError};
