//! The pluggable transport fabric: errors, envelopes, mailboxes and the
//! registry that names them, the [`Transport`] trait, and the
//! transport-generic [`Endpoint`].
//!
//! The paper's agents exchanged KQML over TCP between Sparc workstations;
//! our seed hardwired every agent to the in-process [`Bus`](crate::Bus).
//! This module extracts the contract both share: a *transport* is a named
//! registry of agent mailboxes with point-to-point KQML delivery. Two
//! implementations exist — the in-process [`Bus`](crate::Bus) and the
//! length-prefixed [`TcpTransport`](crate::TcpTransport) — and every agent
//! above this layer (broker, resource, ontology, monitor, MRQ, user) is
//! written against `Arc<dyn Transport>`, so a community can be deployed
//! in-process or across machines without touching agent code.

use infosleuth_kqml::Message;
use infosleuth_obs::sync::{lock, wait, wait_timeout};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A delivered message with its envelope metadata.
#[derive(Debug, Clone)]
pub struct Envelope {
    pub from: String,
    pub to: String,
    pub message: Message,
}

/// Errors from transport operations.
///
/// This generalizes the seed's `BusError` (which remains available as a
/// type alias): in-process delivery failures and TCP connection failures
/// surface through the same variants, because §4.2.2 treats them alike —
/// "either the transport layer will fail to make the connection to the
/// broker or the broker will fail to respond".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No agent with that name is reachable (it never existed, has
    /// unregistered, or has "died") — the transport-layer connection
    /// failure of §4.2.2.
    UnknownAgent(String),
    /// A networked transport has no routing-table entry covering the
    /// destination — a deployment configuration gap, distinguishable
    /// from an agent that was reachable and died ([`Self::UnknownAgent`]).
    NoRoute(String),
    /// The agent name is already taken.
    DuplicateAgent(String),
    /// No reply arrived within the timeout.
    Timeout { waiting_on: String },
    /// The local endpoint was shut down.
    Closed,
    /// A wire-level failure (socket error, malformed frame, refused
    /// connection) on a networked transport.
    Io(String),
}

/// The seed's name for transport errors; every existing signature keeps
/// compiling.
pub type BusError = TransportError;

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownAgent(a) => {
                write!(f, "no agent '{a}' reachable on the transport")
            }
            TransportError::NoRoute(a) => {
                write!(f, "no route covers destination '{a}' (routing table gap)")
            }
            TransportError::DuplicateAgent(a) => {
                write!(f, "agent name '{a}' already registered")
            }
            TransportError::Timeout { waiting_on } => {
                write!(f, "timed out waiting for a reply from '{waiting_on}'")
            }
            TransportError::Closed => write!(f, "endpoint is closed"),
            TransportError::Io(e) => write!(f, "transport i/o failure: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// What the two halves of a mailbox share: the queue, and who is still
/// attached to it. Everything sits under the one mutex, so "push, then
/// wake" and "find nothing, then sleep" cannot interleave into a lost
/// wake-up.
struct MailboxState {
    /// Envelopes in arrival order, each with the instant it was enqueued.
    queue: VecDeque<(Instant, Envelope)>,
    /// Live [`MailboxSender`]s, clones included.
    senders: u32,
    /// Receivers asleep on `arrived`. A hosted agent's mailbox is polled,
    /// never waited on, so a delivery to it can skip the wake-up call.
    sleepers: u32,
    receiver_gone: bool,
}

struct MailboxShared {
    state: Mutex<MailboxState>,
    /// Signalled per enqueued envelope, and to every sleeper when the last
    /// sender goes — in both cases only if somebody is asleep.
    arrived: Condvar,
}

/// The receiving half of one agent's registered mailbox. Dropping it
/// frees whatever is still queued and makes every later
/// [`MailboxSender::deliver`] fail.
pub struct Mailbox {
    shared: Arc<MailboxShared>,
}

/// The delivery half of a mailbox, held inside a transport's registry.
pub struct MailboxSender {
    shared: Arc<MailboxShared>,
}

/// Why a blocking receive came back without an envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Empty {
    /// The deadline passed with senders still attached.
    TimedOut,
    /// The queue is empty and the last sender is gone: nothing can
    /// arrive any more.
    HungUp,
}

/// Creates a fresh (delivery, receive) mailbox pair. The queue allocates
/// nothing until the first envelope arrives.
pub fn mailbox() -> (MailboxSender, Mailbox) {
    let shared = Arc::new(MailboxShared {
        state: Mutex::new(MailboxState {
            queue: VecDeque::new(),
            senders: 1,
            sleepers: 0,
            receiver_gone: false,
        }),
        arrived: Condvar::new(),
    });
    (MailboxSender { shared: Arc::clone(&shared) }, Mailbox { shared })
}

impl MailboxSender {
    /// Delivers an envelope; fails with [`TransportError::UnknownAgent`]
    /// naming `env.to` if the receiving half is gone. Envelopes from one
    /// sender are received in the order they were delivered.
    pub fn deliver(&self, env: Envelope) -> Result<(), TransportError> {
        let enqueued = Instant::now();
        let mut state = lock(&self.shared.state);
        if state.receiver_gone {
            return Err(TransportError::UnknownAgent(env.to));
        }
        state.queue.push_back((enqueued, env));
        let wake = state.sleepers > 0;
        drop(state);
        if wake {
            self.shared.arrived.notify_one();
        }
        Ok(())
    }
}

impl Clone for MailboxSender {
    fn clone(&self) -> Self {
        lock(&self.shared.state).senders += 1;
        MailboxSender { shared: Arc::clone(&self.shared) }
    }
}

impl Drop for MailboxSender {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.senders -= 1;
        let wake = state.senders == 0 && state.sleepers > 0;
        drop(state);
        if wake {
            self.shared.arrived.notify_all();
        }
    }
}

impl Mailbox {
    /// The next queued envelope, if any. Never blocks.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.try_recv_stamped().map(|(_, env)| env)
    }

    /// [`Mailbox::try_recv`] plus the instant the envelope was enqueued.
    pub(crate) fn try_recv_stamped(&self) -> Option<(Instant, Envelope)> {
        lock(&self.shared.state).queue.pop_front()
    }

    /// The next envelope, waiting up to `timeout` for one to arrive.
    /// Returns at once when the queue is empty and the last sender is
    /// gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.recv_or_why(timeout).ok()
    }

    /// [`Mailbox::recv_timeout`] that says why it came back empty.
    pub(crate) fn recv_or_why(&self, timeout: Duration) -> Result<Envelope, Empty> {
        // A timeout too large to represent as a deadline waits forever.
        let deadline = Instant::now().checked_add(timeout);
        let mut state = lock(&self.shared.state);
        loop {
            if let Some((_, env)) = state.queue.pop_front() {
                return Ok(env);
            }
            if state.senders == 0 {
                return Err(Empty::HungUp);
            }
            let remaining = match deadline {
                None => None,
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(Empty::TimedOut);
                    }
                    Some(remaining)
                }
            };
            state.sleepers += 1;
            state = match remaining {
                None => wait(&self.shared.arrived, state),
                Some(remaining) => wait_timeout(&self.shared.arrived, state, remaining),
            };
            state.sleepers -= 1;
        }
    }
}

impl Drop for Mailbox {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.receiver_gone = true;
        let queued = std::mem::take(&mut state.queue);
        drop(state);
        // Freed outside the lock: a sender must not wait behind it.
        drop(queued);
    }
}

impl fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mailbox").finish_non_exhaustive()
    }
}

/// The local half of every transport: agent name → the delivery half of
/// its mailbox. Both the in-proc [`Bus`](crate::Bus) and a
/// [`TcpTransport`](crate::TcpTransport) node keep one behind a
/// reader-writer lock, and [`Registry::deliver`] is the one place an
/// envelope is built and enters a queue.
#[derive(Default)]
pub(crate) struct Registry {
    mailboxes: HashMap<String, MailboxSender>,
}

impl Registry {
    /// Registers `name` and returns the receiving half of its mailbox.
    pub(crate) fn open(&mut self, name: &str) -> Result<Mailbox, TransportError> {
        if self.mailboxes.contains_key(name) {
            return Err(TransportError::DuplicateAgent(name.to_string()));
        }
        let (tx, rx) = mailbox();
        self.mailboxes.insert(name.to_string(), tx);
        Ok(rx)
    }

    /// Drops `name`'s delivery half — a receiver blocked on that mailbox
    /// sees the hang-up. Returns whether the name was present.
    pub(crate) fn remove(&mut self, name: &str) -> bool {
        self.mailboxes.remove(name).is_some()
    }

    pub(crate) fn contains(&self, name: &str) -> bool {
        self.mailboxes.contains_key(name)
    }

    /// Registered names, sorted.
    pub(crate) fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.mailboxes.keys().cloned().collect();
        names.sort();
        names
    }

    /// Enqueues `message` on `to`'s mailbox. Fails with
    /// [`TransportError::UnknownAgent`] if `to` is not registered here or
    /// its receiving half is gone.
    pub(crate) fn deliver(
        &self,
        from: &str,
        to: &str,
        message: Message,
    ) -> Result<(), TransportError> {
        match self.mailboxes.get(to) {
            None => Err(TransportError::UnknownAgent(to.to_string())),
            Some(tx) => {
                tx.deliver(Envelope { from: from.to_string(), to: to.to_string(), message })
            }
        }
    }
}

/// A message transport: a registry of named agent mailboxes with
/// point-to-point KQML delivery.
///
/// `register`/`unregister`/`send`/`recv` semantics shared by every
/// implementation:
///
/// * names are unique per transport (the service ontology requires a
///   "unique identifier for the agent");
/// * sends to an unknown or unregistered name fail with
///   [`TransportError::UnknownAgent`], modelling agent death;
/// * delivery within one transport preserves per-sender order; no
///   cross-sender ordering is guaranteed.
pub trait Transport: Send + Sync + 'static {
    /// Registers an agent name and returns its mailbox.
    fn open_mailbox(&self, name: &str) -> Result<Mailbox, TransportError>;

    /// Removes an agent. Subsequent sends to it fail exactly like sends to
    /// an agent that never existed. Returns whether the name was present.
    fn unregister(&self, name: &str) -> bool;

    /// Whether an agent is currently reachable. For networked transports
    /// this may answer from routing knowledge only (a remote peer's death
    /// is discovered at send time, not here).
    fn is_registered(&self, name: &str) -> bool;

    /// Locally registered agent names, sorted.
    fn agents(&self) -> Vec<String>;

    /// Delivers a message. Fails if the recipient is not reachable.
    fn send(&self, from: &str, to: &str, message: Message) -> Result<(), TransportError>;

    /// A fresh conversation id (for `:reply-with`), unique across every
    /// node of the deployment.
    fn next_conversation_id(&self, prefix: &str) -> String;
}

/// Shared instrumentation for a transport implementation: counters for
/// send/recv volume and failures, plus one send-latency histogram, all
/// registered in one [`Obs`](infosleuth_obs::Obs) bundle. Both the
/// in-proc [`Bus`](crate::Bus) and the
/// [`TcpTransport`](crate::TcpTransport) attach one of these via their
/// `set_obs` methods.
pub struct TransportMetrics {
    send_total: infosleuth_obs::Counter,
    send_failures: infosleuth_obs::Counter,
    send_bytes: infosleuth_obs::Counter,
    recv_total: infosleuth_obs::Counter,
    recv_bytes: infosleuth_obs::Counter,
    route_fallback: infosleuth_obs::Counter,
    latency: infosleuth_obs::Histogram,
}

impl TransportMetrics {
    pub fn new(obs: &Arc<infosleuth_obs::Obs>, transport: &'static str) -> Arc<TransportMetrics> {
        let labels = [("transport", transport)];
        let reg = obs.registry();
        Arc::new(TransportMetrics {
            send_total: reg.counter("transport_send_total", &labels),
            send_failures: reg.counter("transport_send_failures_total", &labels),
            send_bytes: reg.counter("transport_send_bytes_total", &labels),
            recv_total: reg.counter("transport_recv_total", &labels),
            recv_bytes: reg.counter("transport_recv_bytes_total", &labels),
            route_fallback: reg.counter("transport_route_fallback_total", &labels),
            latency: reg.histogram("transport_send_seconds", &labels),
        })
    }

    pub fn record_send(&self, bytes: usize, elapsed: Duration, ok: bool) {
        self.send_total.inc();
        if ok {
            self.send_bytes.add(bytes as u64);
        } else {
            self.send_failures.inc();
        }
        self.latency.observe_duration(elapsed);
    }

    pub fn record_recv(&self, bytes: usize) {
        self.recv_total.inc();
        self.recv_bytes.add(bytes as u64);
    }

    /// The prefix-fallback route path resolved an ephemeral endpoint
    /// through its base-name route (see `TcpTransport::lookup_route`).
    pub fn record_route_fallback(&self) {
        self.route_fallback.inc();
    }
}

/// Extension methods on shared transports.
pub trait TransportExt {
    /// Registers an agent and returns a full [`Endpoint`] (mailbox plus
    /// send/request helpers) bound to this transport.
    fn endpoint(&self, name: impl Into<String>) -> Result<Endpoint, TransportError>;
}

impl TransportExt for Arc<dyn Transport> {
    fn endpoint(&self, name: impl Into<String>) -> Result<Endpoint, TransportError> {
        let name = name.into();
        let mailbox = self.open_mailbox(&name)?;
        Ok(Endpoint { name, transport: Arc::clone(self), mailbox, pending: VecDeque::new() })
    }
}

/// Anything that can run a KQML request/reply conversation under a name:
/// an owned [`Endpoint`], or a runtime
/// [`AgentContext`](crate::AgentContext) that conjures ephemeral reply
/// endpoints per call. Client helpers (`ping`, `advertise_to`,
/// `query_broker`, …) are written against this trait so they work from
/// both.
pub trait Requester {
    /// The requesting agent's name.
    fn name(&self) -> &str;

    /// Sends `message` with a fresh `:reply-with` id and waits for the
    /// matching `:in-reply-to` reply.
    fn request(
        &mut self,
        to: &str,
        message: Message,
        timeout: Duration,
    ) -> Result<Message, TransportError>;
}

/// How long a conversation's mailbox stays quiet before the recipients
/// still owed a reply are checked for existence, so a peer that
/// unregisters mid-conversation fails fast instead of consuming the full
/// timeout.
const LIVENESS_PROBE: Duration = Duration::from_millis(25);

/// One agent's connection to a transport: a name, an inbox, and send
/// helpers.
pub struct Endpoint {
    name: String,
    transport: Arc<dyn Transport>,
    mailbox: Mailbox,
    /// Messages received while waiting for a specific reply; drained by the
    /// next plain `recv`.
    pending: VecDeque<Envelope>,
}

impl Endpoint {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The transport this endpoint is registered on.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Sends a message, stamping `:sender` and `:receiver`.
    pub fn send(&self, to: &str, mut message: Message) -> Result<(), TransportError> {
        self.address(to, &mut message);
        self.transport.send(&self.name, to, message)
    }

    fn address(&self, to: &str, message: &mut Message) {
        message.set("sender", infosleuth_kqml::SExpr::atom(&self.name));
        message.set("receiver", infosleuth_kqml::SExpr::atom(to));
    }

    /// Receives the next message, if one is queued.
    pub fn try_recv(&mut self) -> Option<Envelope> {
        if let Some(e) = self.pending.pop_front() {
            return Some(e);
        }
        self.mailbox.try_recv()
    }

    /// Receives the next message, waiting up to `timeout`.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<Envelope> {
        if let Some(e) = self.pending.pop_front() {
            return Some(e);
        }
        self.mailbox.recv_timeout(timeout)
    }

    /// Request/reply: sends `message` with a fresh `:reply-with` id and
    /// waits for the message whose `:in-reply-to` matches — a
    /// [conversation](Endpoint::request_all) of one.
    pub fn request(
        &mut self,
        to: &str,
        message: Message,
        timeout: Duration,
    ) -> Result<Message, TransportError> {
        self.request_all(vec![(to.to_string(), message)], timeout)
            .pop()
            .expect("one result per message") // lint: allow-unwrap
    }

    /// A one-to-many conversation: stamps every message with a fresh
    /// `:reply-with` id, sends them one by one with [`Transport::send`] in
    /// input order — a refused send settles its recipient at once — and
    /// gathers the `:in-reply-to` replies on this endpoint's mailbox under
    /// one shared deadline. The result is index-aligned with `batch`: the
    /// reply, the send error, or [`TransportError::Timeout`] for a
    /// recipient still silent at the deadline. Unrelated messages that
    /// arrive meanwhile are buffered for later `recv` calls.
    ///
    /// A recipient that unregisters from the transport while we wait
    /// fails fast with [`TransportError::UnknownAgent`] instead of holding
    /// its slot until the deadline (any reply it managed to send before
    /// dying is still honored); the others keep waiting. If this
    /// endpoint's *own* name is unregistered while it waits, no reply can
    /// reach it any more: once what was already queued is read, every
    /// recipient still owed one gets [`TransportError::Closed`].
    pub fn request_all(
        &mut self,
        batch: Vec<(String, Message)>,
        timeout: Duration,
    ) -> Vec<Result<Message, TransportError>> {
        let mut results: Vec<Option<Result<Message, TransportError>>> = vec![None; batch.len()];
        let mut recipients = Vec::with_capacity(batch.len());
        // Issued id → batch index, for the recipients still owed a reply.
        let mut waiting = HashMap::with_capacity(batch.len());
        for (i, (to, mut message)) in batch.into_iter().enumerate() {
            let id = self.transport.next_conversation_id(&self.name);
            message.set("reply-with", infosleuth_kqml::SExpr::atom(&id));
            self.address(&to, &mut message);
            match self.transport.send(&self.name, &to, message) {
                Ok(()) => {
                    waiting.insert(id, i);
                }
                Err(e) => results[i] = Some(Err(e)),
            }
            recipients.push(to);
        }
        let deadline = Instant::now() + timeout;
        while !waiting.is_empty() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match self.mailbox.recv_or_why(remaining.min(LIVENESS_PROBE)) {
                Ok(env) => {
                    self.take_reply(env, &mut waiting, &mut results);
                    continue;
                }
                // Our own name was unregistered under us and the queue
                // is drained: no reply can arrive any more.
                Err(Empty::HungUp) => {
                    for (_, i) in waiting.drain() {
                        results[i] = Some(Err(TransportError::Closed));
                    }
                    break;
                }
                Err(Empty::TimedOut) => {}
            }
            let gone: Vec<usize> = waiting
                .values()
                .copied()
                .filter(|&i| !self.transport.is_registered(&recipients[i]))
                .collect();
            if gone.is_empty() {
                continue;
            }
            // Those mailboxes are gone. Drain any last-gasp reply sent
            // before unregistering, then report the rest dead.
            while let Some(env) = self.mailbox.try_recv() {
                self.take_reply(env, &mut waiting, &mut results);
            }
            for i in gone {
                results[i].get_or_insert_with(|| {
                    Err(TransportError::UnknownAgent(recipients[i].clone()))
                });
            }
            waiting.retain(|_, i| results[*i].is_none());
        }
        results
            .into_iter()
            .zip(recipients)
            .map(|(result, waiting_on)| {
                result.unwrap_or(Err(TransportError::Timeout { waiting_on }))
            })
            .collect()
    }

    /// Files `env` under the conversation it answers, or buffers it.
    fn take_reply(
        &mut self,
        env: Envelope,
        waiting: &mut HashMap<String, usize>,
        results: &mut [Option<Result<Message, TransportError>>],
    ) {
        match env.message.in_reply_to().and_then(|id| waiting.remove(id)) {
            Some(i) => results[i] = Some(Ok(env.message)),
            None => self.pending.push_back(env),
        }
    }

    /// Unregisters this endpoint from the transport (an explicit, clean
    /// exit; dropping the endpoint without calling this models a crash
    /// where the stale mailbox entry lingers until someone notices the
    /// agent is gone).
    pub fn unregister(self) {
        self.transport.unregister(&self.name);
    }
}

impl Requester for Endpoint {
    fn name(&self) -> &str {
        &self.name
    }

    fn request(
        &mut self,
        to: &str,
        message: Message,
        timeout: Duration,
    ) -> Result<Message, TransportError> {
        Endpoint::request(self, to, message, timeout)
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint").field("name", &self.name).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bus, TcpTransport};
    use infosleuth_kqml::{Performative, SExpr};

    const T: Duration = Duration::from_secs(5);

    /// The client's transport and the one its correspondents live on.
    type Net = (Arc<dyn Transport>, Arc<dyn Transport>);

    fn bus() -> Net {
        let bus = Bus::new();
        (bus.as_transport(), bus.as_transport())
    }

    /// Two loopback nodes; `dead` is routed to the far node but lives
    /// nowhere, `ghost` is not routed at all.
    fn tcp() -> Net {
        let near = TcpTransport::bind("127.0.0.1:0").expect("bind localhost");
        let far = TcpTransport::bind("127.0.0.1:0").expect("bind localhost");
        for name in ["server", "silent", "dead", "a", "b", "c"] {
            near.add_route(name, far.address());
        }
        far.add_route("client", near.address());
        (near, far)
    }

    type Ask = fn(&mut Endpoint, &str) -> Result<Message, TransportError>;

    fn ask_one(ep: &mut Endpoint, to: &str) -> Result<Message, TransportError> {
        ep.request(to, Message::new(Performative::AskOne), Duration::from_millis(80))
    }

    fn ask_all_of_one(ep: &mut Endpoint, to: &str) -> Result<Message, TransportError> {
        let batch = vec![(to.to_string(), Message::new(Performative::AskOne))];
        ep.request_all(batch, Duration::from_millis(80)).pop().expect("one result")
    }

    /// One client's view of a reply, an interleaved stranger, a silent
    /// peer, a dead one and an unroutable one, with ids erased.
    fn conversations((near, far): Net, ask: Ask) -> Vec<Result<Option<SExpr>, TransportError>> {
        let mut client = near.endpoint("client").unwrap();
        let _silent = far.endpoint("silent").unwrap();
        let mut server = far.endpoint("server").unwrap();
        let serving = std::thread::spawn(move || {
            let env = server.recv_timeout(T).expect("the request arrives");
            // An unrelated message overtakes the reply.
            let noise = Message::new(Performative::Tell).with_content(SExpr::atom("noise"));
            server.send(&env.from, noise).unwrap();
            let reply = env.message.reply_skeleton(Performative::Reply);
            server.send(&env.from, reply.with_content(SExpr::atom("answer"))).unwrap();
        });
        let mut seen = vec![ask(&mut client, "server").map(|m| m.content().cloned())];
        serving.join().unwrap();
        seen.push(Ok(client
            .try_recv()
            .expect("the stranger was buffered")
            .message
            .content()
            .cloned()));
        for to in ["silent", "dead", "ghost"] {
            seen.push(ask(&mut client, to).map(|m| m.content().cloned()));
        }
        seen
    }

    #[test]
    fn request_is_request_all_of_one_on_bus_and_tcp() {
        let answered = |dead: TransportError, ghost: TransportError| {
            vec![
                Ok(Some(SExpr::atom("answer"))),
                Ok(Some(SExpr::atom("noise"))),
                Err(TransportError::Timeout { waiting_on: "silent".into() }),
                Err(dead),
                Err(ghost),
            ]
        };
        let unknown = |name: &str| TransportError::UnknownAgent(name.into());
        let on_bus = answered(unknown("dead"), unknown("ghost"));
        assert_eq!(conversations(bus(), ask_one), on_bus);
        assert_eq!(conversations(bus(), ask_all_of_one), on_bus);
        let on_tcp = answered(unknown("dead"), TransportError::NoRoute("ghost".into()));
        assert_eq!(conversations(tcp(), ask_one), on_tcp);
        assert_eq!(conversations(tcp(), ask_all_of_one), on_tcp);
    }

    /// Six asks — `a`, an unknown name, `here` on the client's own node,
    /// `b`, a silent peer, `c` — whose four replies come back in reverse
    /// order.
    fn six_asks((near, far): Net) -> Vec<Result<Option<SExpr>, TransportError>> {
        let mut client = near.endpoint("client").unwrap();
        let _silent = far.endpoint("silent").unwrap();
        let mut servers: Vec<Endpoint> = [(&far, "a"), (&near, "here"), (&far, "b"), (&far, "c")]
            .into_iter()
            .map(|(transport, name)| transport.endpoint(name).unwrap())
            .collect();
        let serving = std::thread::spawn(move || {
            let asks: Vec<Envelope> =
                servers.iter_mut().map(|s| s.recv_timeout(T).expect("the ask arrives")).collect();
            for (server, ask) in servers.iter().zip(asks).rev() {
                let reply = ask.message.reply_skeleton(Performative::Reply);
                server.send(&ask.from, reply.with_content(SExpr::atom(server.name()))).unwrap();
            }
        });
        let batch = ["a", "dead", "here", "b", "silent", "c"]
            .iter()
            .map(|to| (to.to_string(), Message::new(Performative::AskOne)))
            .collect();
        let started = Instant::now();
        let results = client.request_all(batch, Duration::from_millis(300));
        assert!(started.elapsed() < Duration::from_millis(600), "one deadline, shared");
        serving.join().unwrap();
        results.into_iter().map(|r| r.map(|m| m.content().cloned())).collect()
    }

    #[test]
    fn request_all_is_index_aligned_whatever_the_arrival_order() {
        for net in [bus(), tcp()] {
            assert_eq!(
                six_asks(net),
                vec![
                    Ok(Some(SExpr::atom("a"))),
                    Err(TransportError::UnknownAgent("dead".into())),
                    Ok(Some(SExpr::atom("here"))),
                    Ok(Some(SExpr::atom("b"))),
                    Err(TransportError::Timeout { waiting_on: "silent".into() }),
                    Ok(Some(SExpr::atom("c"))),
                ]
            );
        }
    }

    #[test]
    fn one_dead_recipient_fails_fast_while_the_others_are_awaited() {
        let (near, far) = bus();
        let mut client = near.endpoint("client").unwrap();
        let mut doomed = far.endpoint("doomed").unwrap();
        let mut slow = far.endpoint("slow").unwrap();
        let dying = std::thread::spawn(move || {
            doomed.recv_timeout(T).expect("the ask arrives");
            doomed.unregister();
        });
        let answering = std::thread::spawn(move || {
            let ask = slow.recv_timeout(T).expect("the ask arrives");
            // Well past the liveness probe that finds `doomed` gone.
            std::thread::sleep(4 * LIVENESS_PROBE);
            slow.send(&ask.from, ask.message.reply_skeleton(Performative::Reply)).unwrap();
        });
        let batch = ["doomed", "slow"]
            .iter()
            .map(|to| (to.to_string(), Message::new(Performative::AskOne)))
            .collect();
        let started = Instant::now();
        let results = client.request_all(batch, Duration::from_secs(30));
        assert!(started.elapsed() < T, "the dead recipient held the conversation");
        assert_eq!(results[0], Err(TransportError::UnknownAgent("doomed".into())));
        assert_eq!(results[1].as_ref().map(|m| &m.performative), Ok(&Performative::Reply));
        dying.join().unwrap();
        answering.join().unwrap();
    }

    #[test]
    fn a_conversation_whose_own_mailbox_is_closed_ends_at_once() {
        let bus = Bus::new();
        let mut client = bus.register("client").unwrap();
        let _silent = bus.register("silent").unwrap();
        let closing = {
            let bus = bus.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                assert!(bus.unregister("client"));
            })
        };
        let started = Instant::now();
        let result =
            client.request("silent", Message::new(Performative::AskOne), Duration::from_secs(2));
        let took = started.elapsed();
        closing.join().unwrap();
        assert_eq!(result, Err(TransportError::Closed));
        assert!(took < Duration::from_millis(200), "waited {took:?} on a closed mailbox");
    }

    fn envelope(from: &str, n: usize) -> Envelope {
        let message = Message::new(Performative::Tell).with_content(SExpr::atom(n.to_string()));
        Envelope { from: from.into(), to: "rx".into(), message }
    }

    fn number(env: &Envelope) -> usize {
        env.message.content().and_then(SExpr::as_text).unwrap().parse().unwrap()
    }

    #[test]
    fn dropping_the_receiver_frees_the_queue_and_refuses_the_next_delivery() {
        let (tx, rx) = mailbox();
        for n in 0..100 {
            tx.deliver(envelope("a", n)).unwrap();
        }
        assert_eq!(lock(&tx.shared.state).queue.len(), 100);
        drop(rx);
        let state = lock(&tx.shared.state);
        assert_eq!((state.queue.len(), state.queue.capacity()), (0, 0), "queue not freed");
        drop(state);
        assert_eq!(tx.deliver(envelope("a", 100)), Err(TransportError::UnknownAgent("rx".into())));
        assert_eq!(lock(&tx.shared.state).queue.len(), 0, "a refused envelope was queued");
    }

    #[test]
    fn the_last_sender_going_wakes_a_blocked_receiver_and_a_clone_keeps_it_waiting() {
        let (tx, rx) = mailbox();
        let clone = tx.clone();
        let receiving = std::thread::spawn(move || {
            let started = Instant::now();
            (rx.recv_or_why(Duration::from_secs(30)).map(|_| ()), started.elapsed())
        });
        drop(tx);
        std::thread::sleep(Duration::from_millis(100));
        assert!(!receiving.is_finished(), "gave up while a sender was still attached");
        drop(clone);
        let (outcome, took) = receiving.join().unwrap();
        assert_eq!(outcome, Err(Empty::HungUp));
        assert!(took < T, "woken after {took:?}");
    }

    #[test]
    fn a_zero_timeout_on_an_empty_mailbox_returns_without_blocking() {
        let (_tx, rx) = mailbox();
        let started = Instant::now();
        assert_eq!(rx.recv_or_why(Duration::ZERO).map(|_| ()), Err(Empty::TimedOut));
        assert!(rx.recv_timeout(Duration::ZERO).is_none());
        assert!(rx.try_recv().is_none());
        assert!(started.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn two_concurrent_senders_are_each_received_in_their_own_order() {
        const EACH: usize = 20_000;
        let (tx, rx) = mailbox();
        let start = Arc::new(std::sync::Barrier::new(2));
        let senders: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|from| {
                let (tx, start) = (tx.clone(), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for n in 0..EACH {
                        tx.deliver(envelope(from, n)).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = HashMap::from([("a".to_string(), 0), ("b".to_string(), 0)]);
        // Ends on the hang-up: both senders done, everything read.
        while let Ok(env) = rx.recv_or_why(T) {
            let expected = next.get_mut(&env.from).unwrap();
            assert_eq!(number(&env), *expected, "sender {} out of order", env.from);
            *expected += 1;
        }
        assert_eq!(next["a"], EACH);
        assert_eq!(next["b"], EACH);
        for sender in senders {
            sender.join().unwrap();
        }
    }
}
