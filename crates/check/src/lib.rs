//! Schedule-space race detection for the batched message plane.
//!
//! The production stack delivers KQML over threads and sockets, so any
//! one test run sees a single arbitrary interleaving. This crate runs
//! the *real* broker dispatch core ([`BrokerCore`](infosleuth_broker::BrokerCore))
//! over a deterministic virtual transport and enumerates the delivery /
//! dispatch schedules a deployment could produce:
//!
//! * [`ScheduledTransport`] — per-`(from, to)` FIFO channels plus a
//!   global emission log; nothing moves until the explorer says so.
//! * [`World`] — one scenario instance advanced by explicit
//!   [`Action`]s (`Deliver` into an arrival queue, `Dispatch` of up to
//!   `batch_limit` envelopes into the behavior).
//! * [`explore`] — bounded stateless DFS with happens-before vector
//!   clocks and sleep-set (DPOR-lite) pruning, checking every complete
//!   schedule for conversation-protocol conformance (IS05x), per-channel
//!   sub-delta epoch monotonicity, and byte-identical repository
//!   convergence.
//!
//! [`WorldConfig::seeded_reorder`] arms a deliberate bug in the
//! explorer's own dispatcher (batches reach the broker reversed); the
//! oracle test in `tests/` proves the explorer catches it. See DESIGN.md
//! §15.

#![forbid(unsafe_code)]

mod clock;
mod explore;
mod scenarios;
mod transport;
mod world;

pub use clock::VectorClock;
pub use explore::{explore, ExploreConfig, ExploreResult, ScheduleViolation};
pub use scenarios::{query_storm, racing_mutations, standard_scenarios, subscription_churn};
pub use transport::{ScheduledTransport, SentRecord};
pub use world::{Action, Scenario, World, WorldConfig, BROKER};
