//! Discrete-event agent simulator reproducing the paper's evaluation.
//!
//! §5.2 of the paper argues that large multibroker experiments are only
//! practical in simulation, and describes an in-house MCC discrete-event
//! simulator with processor, network, and reliability models plus query /
//! resource / broker agent models. This crate is that simulator, built from
//! scratch, with "the parameters and behaviors of the agents ⟨set⟩ to
//! closely match those of the agents in the InfoSleuth system":
//!
//! * [`engine`] — event queue, virtual clock, FIFO processor model,
//!   network link model (bandwidth + latency);
//! * [`rng`] — seeded exponential and bounded-Gaussian sampling (query
//!   inter-arrival times, complexity, coverage, failures);
//! * [`params`] — the §5.2.1 parameter set in one place;
//! * [`strategies`] — single vs replicated vs specialized brokering
//!   (Figures 14–16);
//! * [`scalability`] — response time across system sizes (Figure 17);
//! * [`robustness`] — broker failures × advertisement redundancy
//!   (Tables 5–6);
//! * [`infosleuth`] — the real-system experiment grid of Tables 1–4
//!   (query streams SA/DA/4A/VF/CH/FH over the full user → broker → MRQ →
//!   resource pipeline) re-run in virtual time.
//!
//! Every run is deterministic for a given seed; experiment drivers average
//! several seeds, as the authors averaged repeated runs.

#![forbid(unsafe_code)]

pub mod engine;
pub mod infosleuth;
pub mod metrics;
pub mod params;
pub mod rng;
pub mod robustness;
pub mod scalability;
pub mod strategies;

pub use engine::{LinkModel, ProcId, SimCore};
pub use metrics::RunningStats;
pub use params::SimParams;
pub use rng::SimRng;
