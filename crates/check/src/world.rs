//! One explorable broker world: a real [`BrokerCore`] driven over the
//! virtual transport, with delivery and dispatch decomposed into
//! explicit schedulable [`Action`]s.
//!
//! The action model mirrors the production message plane exactly:
//!
//! * **Deliver { from, to }** — the transport moves the head of the
//!   `(from, to)` channel into `to`'s arrival queue (or hands it to a
//!   passive client). Per-channel FIFO is preserved; *which* channel
//!   advances next is the race.
//! * **Dispatch { to }** — the head of the arrival queue goes to the
//!   behavior: its `recv` span opens and `on_message` runs, exactly as
//!   on an [`AgentRuntime`](infosleuth_agent::AgentRuntime) worker with
//!   an in-flight cap of 1. When a dispatch fires relative to the
//!   arrivals decides what the handler sees — the second race.
//!
//! Handlers run synchronously inside `apply`, so every send they make is
//! enqueued (and logged) before the next action is chosen.

use crate::clock::VectorClock;
use crate::transport::{ScheduledTransport, SentRecord};
use infosleuth_agent::{AgentBehavior, AgentContext, Envelope, Transport};
use infosleuth_broker::{BrokerAgent, BrokerConfig, BrokerCore, Repository, StoredView};
use infosleuth_kqml::Message;
use infosleuth_obs::Obs;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// A schedulable step. Ordered so enabled-action lists are deterministic.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Action {
    /// Move the head of channel `(from, to)` into `to`'s arrival queue.
    Deliver { from: String, to: String },
    /// Hand the first arrived envelope to `to`'s behavior.
    Dispatch { to: String },
}

impl Action {
    /// The agent whose state this action mutates. Actions on distinct
    /// destinations commute (see `independent` in the explorer).
    pub fn dest(&self) -> &str {
        match self {
            Action::Deliver { to, .. } => to,
            Action::Dispatch { to } => to,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Deliver { from, to } => write!(f, "deliver {from}->{to}"),
            Action::Dispatch { to } => write!(f, "dispatch {to}"),
        }
    }
}

/// A reproducible initial condition: a broker repository plus the client
/// messages already in flight toward the broker. Injections from one
/// client stay FIFO; across clients they race.
pub struct Scenario {
    pub name: &'static str,
    /// Builds the broker's starting repository (called once per replay).
    pub repo: fn() -> Repository,
    /// `(client, message)` pairs, sent to the broker at world start in
    /// this order.
    pub injections: Vec<(String, Message)>,
}

/// How a world dispatches.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldConfig {
    /// Arms the seeded dispatcher bug: when a later arrival has the same
    /// sender as the head of the queue, [`Action::Dispatch`] hands the
    /// behavior that later envelope first, so a sender's second message
    /// overtakes its first. The oracle test proves the explorer catches
    /// the resulting divergence.
    pub seeded_overtake: bool,
}

/// The name every scenario's broker registers under.
pub const BROKER: &str = "broker";

/// A live instance of one scenario, advanced one [`Action`] at a time.
pub struct World {
    transport: Arc<ScheduledTransport>,
    core: BrokerCore,
    ctx: AgentContext,
    behavior: Arc<dyn AgentBehavior>,
    seeded_overtake: bool,
    /// Broker arrival queue: delivered but not yet dispatched.
    arrivals: VecDeque<(Envelope, VectorClock)>,
    /// Applied actions with the destination clock after each.
    trace: Vec<(Action, VectorClock)>,
}

impl World {
    pub fn new(scenario: &Scenario, config: WorldConfig) -> World {
        let obs = Obs::new();
        let transport = Arc::new(ScheduledTransport::new());
        transport.register(BROKER);
        for (client, _) in &scenario.injections {
            transport.register(client);
        }
        let broker_config = BrokerConfig::new(BROKER, "virtual://broker").with_ping_interval(None);
        let core = BrokerAgent::core(&obs, broker_config, (scenario.repo)());
        let behavior = core.behavior();
        let ctx = AgentContext::detached(
            BROKER,
            Arc::clone(&transport) as Arc<dyn Transport>,
            Arc::clone(&obs),
        );
        for (client, message) in &scenario.injections {
            transport
                .send(client, BROKER, message.clone())
                .expect("scenario injection targets the registered broker"); // lint: allow-unwrap
        }
        World {
            transport,
            core,
            ctx,
            behavior,
            seeded_overtake: config.seeded_overtake,
            arrivals: VecDeque::new(),
            trace: Vec::new(),
        }
    }

    /// All actions currently applicable, in deterministic order.
    pub fn enabled(&self) -> Vec<Action> {
        let mut actions: Vec<Action> = self
            .transport
            .nonempty_channels()
            .into_iter()
            .map(|(from, to)| Action::Deliver { from, to })
            .collect();
        if !self.arrivals.is_empty() {
            actions.push(Action::Dispatch { to: BROKER.to_string() });
        }
        actions.sort();
        actions
    }

    /// Applies one enabled action. Panics on a disabled action — the
    /// explorer only replays action sequences it derived from `enabled`.
    pub fn apply(&mut self, action: &Action) {
        match action {
            Action::Deliver { from, to } => {
                let (message, clock) =
                    self.transport.pop_channel(from, to).expect("deliver on an empty channel"); // lint: allow-unwrap
                if to == BROKER {
                    let env = Envelope { from: from.clone(), to: to.clone(), message };
                    self.arrivals.push_back((env, clock.clone()));
                    self.trace.push((action.clone(), clock));
                } else {
                    let after = self.transport.advance_clock(to, &clock);
                    self.trace.push((action.clone(), after));
                }
            }
            Action::Dispatch { .. } => {
                let at = match self.arrivals.front() {
                    Some((head, _)) if self.seeded_overtake => self
                        .arrivals
                        .iter()
                        .rposition(|(env, _)| env.from == head.from)
                        .unwrap_or(0),
                    _ => 0,
                };
                let (env, clock) =
                    self.arrivals.remove(at).expect("dispatch on an empty arrival queue"); // lint: allow-unwrap
                let after = self.transport.advance_clock(BROKER, &clock);
                self.trace.push((action.clone(), after));
                let _span = self.ctx.recv_span(&env);
                self.behavior.on_message(&self.ctx, env);
            }
        }
    }

    /// Canonical digest of the broker repository (see
    /// [`BrokerCore::repo_fingerprint`]).
    pub fn fingerprint(&self) -> String {
        self.core.repo_fingerprint()
    }

    pub fn repo_epoch(&self) -> u64 {
        self.core.repo_epoch()
    }

    pub fn subscription_count(&self) -> usize {
        self.core.subscription_count()
    }

    /// The broker's stored answers checked against its repository (see
    /// [`BrokerCore::stored_answers`]).
    pub fn stored_answers(&self) -> Result<Vec<StoredView>, String> {
        self.core.stored_answers()
    }

    /// Global emission log (scenario injections first, then everything
    /// the broker sent, in send order).
    pub fn log(&self) -> Vec<SentRecord> {
        self.transport.log()
    }

    /// Applied actions with the destination clock after each step.
    pub fn trace(&self) -> &[(Action, VectorClock)] {
        &self.trace
    }
}
