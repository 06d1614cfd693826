//! Static analysis for the InfoSleuth reproduction: a diagnostics
//! framework, three admission passes, and the conversation-protocol
//! table with its runtime monitor.
//!
//! - [`ldl_pass`] — LDL rule programs: safety/range-restriction,
//!   stratified negation (reporting the precise negative cycle),
//!   dependency hygiene (undefined predicates, unreachable rules, arity
//!   clashes), and built-in argument sanity.
//! - [`ad_pass`] — advertisements: unsatisfiable constraints, classes and
//!   slots unknown to the declared ontology, unknown capabilities, invalid
//!   fragments, and subsumption by an already-registered advertisement.
//! - [`query_pass`] — standing service queries (subscriptions):
//!   unsatisfiable constraint conjunctions, vacuous queries that match
//!   everything, and vocabulary unknown to the registered ontologies.
//! - [`protocol`] — the conversation-protocol table (finite state
//!   machines over performatives, built in Rust) and its static IS04x
//!   pass: undefined or unreachable states, nondeterministic
//!   transitions, unhandled performatives, undischargeable reply
//!   obligations, dead ends.
//! - [`conformance`] — the generated runtime monitor interpreting those
//!   specs over observed traffic (IS05x: out-of-order replies, deltas
//!   after unsubscribe, orphan conversations, duplicate acks).
//!
//! Every pass returns a [`Report`] of [`Diagnostic`]s carrying a stable
//! `IS0xx` [`Code`], a severity, and (where the input has source text) a
//! byte-offset [`Span`]. Reports render human-readable (with carets into
//! the source) and sort deterministically.
//!
//! The broker uses these passes to reject bad advertisements, rule deltas
//! and standing queries at admission time; the `infosleuth-lint` binary
//! runs them over every shipped artifact and over the regression corpus
//! in `tests/lint_corpus/`.

#![forbid(unsafe_code)]

pub mod ad_pass;
pub mod conformance;
pub mod diag;
pub mod ldl_pass;
pub mod protocol;
pub mod query_pass;

pub use ad_pass::{analyze_advertisement, AdContext};
pub use conformance::ConformanceMonitor;
pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use ldl_pass::{analyze_ldl_source, analyze_rules, LdlEnv};
pub use protocol::{
    analyze_protocol, analyze_protocol_table, standard_protocols, ProtoTransition, ProtocolSpec,
    SubEffect, Trigger,
};
pub use query_pass::analyze_service_query;
