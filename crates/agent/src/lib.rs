//! Agent infrastructure: addresses, pluggable transports, the shared
//! agent runtime, liveness pings, and the known/connected broker lists of
//! §4.2.
//!
//! The paper's agents talked KQML over TCP between Sparc workstations.
//! This crate provides both halves of that story behind one [`Transport`]
//! trait: the in-process [`Bus`] (the default for tests and single-node
//! communities) and the [`TcpTransport`] (length-prefixed KQML frames to
//! the `tcp://host:port` addresses of Fig. 8). Every agent registers a
//! mailbox under its unique name; [`Endpoint`]s send KQML
//! [`Message`](infosleuth_kqml::Message)s, run request/reply conversations
//! with timeouts, and detect dead peers exactly the way the paper
//! describes ("either the transport layer will fail to make the
//! connection to the broker or the broker will fail to respond").
//!
//! Agents themselves are hosted on an [`AgentRuntime`]: a shared event
//! loop with a bounded worker pool, per-agent in-flight caps for
//! backpressure, and non-overlapping periodic ticks — replacing the
//! seed's one-thread-per-agent-plus-one-thread-per-message design.

#![forbid(unsafe_code)]

mod address;
mod broker_lists;
mod bus;
mod obs_report;
mod ping;
mod runtime;
mod tap;
mod tcp;
mod transport;

pub use address::{AddressError, AgentAddress};
pub use broker_lists::{BrokerLists, ReadvertisePlan};
pub use bus::Bus;
pub use obs_report::{
    spawn_obs_reporter, ObsReporter, ObsReporterHandle, METRICS_SNAPSHOT_HEAD, SPANS_HEAD,
};
pub use ping::ping;
pub use runtime::{
    AgentBehavior, AgentContext, AgentHandle, AgentRuntime, RuntimeConfig, LOG_ONTOLOGY,
};
pub use tap::{MessageTap, TappedTransport};
pub use tcp::TcpTransport;
pub use transport::{
    mailbox, BusError, Endpoint, Envelope, Mailbox, MailboxSender, Requester, Transport,
    TransportError, TransportExt, TransportMetrics,
};
