//! The in-process [`Transport`]: a shared registry of agent mailboxes.

use crate::transport::{BusError, Mailbox, Registry, Transport, TransportExt, TransportMetrics};
use infosleuth_kqml::Message;
use infosleuth_obs::sync::{read, write};
use infosleuth_obs::Obs;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// The shared in-process transport: a registry of agent mailboxes.
///
/// `Bus` is cheap to clone (it is an `Arc` internally); all clones see the
/// same registry. It is one of two [`Transport`] implementations — the
/// other is the networked [`TcpTransport`](crate::TcpTransport) — and the
/// default for single-process communities and tests.
#[derive(Clone, Default)]
pub struct Bus {
    registry: Arc<RwLock<Registry>>,
    conversation_counter: Arc<AtomicU64>,
    obs: Arc<RwLock<Option<Arc<TransportMetrics>>>>,
}

impl Bus {
    pub fn new() -> Self {
        Bus::default()
    }

    /// This bus as a shareable transport trait object.
    pub fn as_transport(&self) -> Arc<dyn Transport> {
        Arc::new(self.clone())
    }

    /// Registers an agent and returns its endpoint. Names must be unique —
    /// the service ontology requires a "unique identifier for the agent".
    pub fn register(&self, name: impl Into<String>) -> Result<crate::Endpoint, BusError> {
        self.as_transport().endpoint(name)
    }

    /// Removes an agent from the bus. Subsequent sends to it fail exactly
    /// like sends to an agent that never existed, modelling agent death or
    /// clean unregistration.
    pub fn unregister(&self, name: &str) -> bool {
        write(&self.registry).remove(name)
    }

    /// Whether an agent is currently registered ("alive").
    pub fn is_registered(&self, name: &str) -> bool {
        read(&self.registry).contains(name)
    }

    /// Registered agent names, sorted.
    pub fn agents(&self) -> Vec<String> {
        read(&self.registry).names()
    }

    /// Attaches transport metrics to this bus (and all its clones),
    /// registered under `transport="bus"` in `obs`.
    pub fn set_obs(&self, obs: &Arc<Obs>) {
        *write(&self.obs) = Some(TransportMetrics::new(obs, "bus"));
    }

    /// Delivers a message. Fails if the recipient is not registered. With
    /// metrics attached the delivery is recorded as a send and, on
    /// success, as its own receipt.
    pub fn send(&self, from: &str, to: &str, message: Message) -> Result<(), BusError> {
        let metrics = read(&self.obs).clone();
        let Some(m) = metrics.as_deref() else {
            return read(&self.registry).deliver(from, to, message);
        };
        let started = Instant::now();
        let size = message.wire_size();
        let result = read(&self.registry).deliver(from, to, message);
        m.record_send(size, started.elapsed(), result.is_ok());
        if result.is_ok() {
            m.record_recv(size);
        }
        result
    }

    /// A fresh conversation id (for `:reply-with`).
    pub fn next_conversation_id(&self, prefix: &str) -> String {
        let n = self.conversation_counter.fetch_add(1, Ordering::Relaxed);
        format!("{prefix}-{n}")
    }
}

impl Transport for Bus {
    fn open_mailbox(&self, name: &str) -> Result<Mailbox, BusError> {
        write(&self.registry).open(name)
    }

    fn unregister(&self, name: &str) -> bool {
        Bus::unregister(self, name)
    }

    fn is_registered(&self, name: &str) -> bool {
        Bus::is_registered(self, name)
    }

    fn agents(&self) -> Vec<String> {
        Bus::agents(self)
    }

    fn send(&self, from: &str, to: &str, message: Message) -> Result<(), BusError> {
        Bus::send(self, from, to, message)
    }

    fn next_conversation_id(&self, prefix: &str) -> String {
        Bus::next_conversation_id(self, prefix)
    }
}

impl fmt::Debug for Bus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bus").field("agents", &self.agents()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_kqml::{Performative, SExpr};
    use std::time::{Duration, Instant};

    #[test]
    fn register_send_receive() {
        let bus = Bus::new();
        let a = bus.register("a").unwrap();
        let mut b = bus.register("b").unwrap();
        a.send("b", Message::new(Performative::Tell).with_content(SExpr::atom("hi"))).unwrap();
        let env = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.from, "a");
        assert_eq!(env.message.sender(), Some("a"));
        assert_eq!(env.message.receiver(), Some("b"));
    }

    #[test]
    fn duplicate_names_rejected() {
        let bus = Bus::new();
        let _a = bus.register("a").unwrap();
        assert!(matches!(bus.register("a"), Err(BusError::DuplicateAgent(_))));
    }

    #[test]
    fn send_to_unknown_agent_fails() {
        let bus = Bus::new();
        let a = bus.register("a").unwrap();
        let err = a.send("ghost", Message::new(Performative::Tell)).unwrap_err();
        assert!(matches!(err, BusError::UnknownAgent(_)));
    }

    #[test]
    fn unregister_models_agent_death() {
        let bus = Bus::new();
        let a = bus.register("a").unwrap();
        let b = bus.register("b").unwrap();
        assert!(bus.is_registered("b"));
        b.unregister();
        assert!(!bus.is_registered("b"));
        assert!(a.send("b", Message::new(Performative::Tell)).is_err());
    }

    #[test]
    fn request_reply_round_trip() {
        let bus = Bus::new();
        let mut client = bus.register("client").unwrap();
        let bus2 = bus.clone();
        let server = std::thread::spawn(move || {
            let mut server = bus2.register("server").unwrap();
            let env = server.recv_timeout(Duration::from_secs(2)).unwrap();
            let reply =
                env.message.reply_skeleton(Performative::Reply).with_content(SExpr::atom("answer"));
            server.send(&env.from, reply).unwrap();
        });
        // Wait for the server to register.
        while !bus.is_registered("server") {
            std::thread::yield_now();
        }
        let reply = client
            .request(
                "server",
                Message::new(Performative::AskOne).with_content(SExpr::atom("question")),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply.content(), Some(&SExpr::atom("answer")));
        server.join().unwrap();
    }

    #[test]
    fn request_times_out_when_peer_is_silent() {
        let bus = Bus::new();
        let mut client = bus.register("client").unwrap();
        let _silent = bus.register("silent").unwrap();
        let err = client
            .request("silent", Message::new(Performative::AskOne), Duration::from_millis(30))
            .unwrap_err();
        assert!(matches!(err, BusError::Timeout { .. }));
    }

    #[test]
    fn request_fails_fast_when_peer_unregisters() {
        // A peer that dies mid-conversation is reported as UnknownAgent well
        // before the full timeout elapses (§4.2.2 transport-layer failure),
        // instead of leaving the requester to wait out the deadline.
        let bus = Bus::new();
        let mut client = bus.register("client").unwrap();
        let doomed = bus.register("doomed").unwrap();
        let bus2 = bus.clone();
        let t = std::thread::spawn(move || {
            // Receive the request, then die without replying.
            let mut ep = doomed;
            let _ = ep.recv_timeout(Duration::from_secs(2));
            ep.unregister();
            drop(bus2);
        });
        let started = Instant::now();
        let err = client
            .request("doomed", Message::new(Performative::AskOne), Duration::from_secs(30))
            .unwrap_err();
        assert!(matches!(err, BusError::UnknownAgent(_)), "got {err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "fail-fast took {:?}",
            started.elapsed()
        );
        t.join().unwrap();
    }

    #[test]
    fn request_honors_last_gasp_reply_from_dying_peer() {
        // If the peer replies and then immediately unregisters, the reply
        // still wins over the death notice.
        let bus = Bus::new();
        let mut client = bus.register("client").unwrap();
        let server = bus.register("server").unwrap();
        let t = std::thread::spawn(move || {
            let mut ep = server;
            let env = ep.recv_timeout(Duration::from_secs(2)).unwrap();
            let reply = env.message.reply_skeleton(Performative::Reply);
            ep.send(&env.from, reply).unwrap();
            ep.unregister();
        });
        let reply = client
            .request("server", Message::new(Performative::AskOne), Duration::from_secs(5))
            .unwrap();
        assert_eq!(reply.performative, Performative::Reply);
        t.join().unwrap();
    }

    #[test]
    fn unrelated_messages_are_buffered_during_request() {
        let bus = Bus::new();
        let mut client = bus.register("client").unwrap();
        let other = bus.register("other").unwrap();
        let responder = bus.register("responder").unwrap();
        // `other` sends an unrelated tell, then responder replies correctly.
        other
            .send("client", Message::new(Performative::Tell).with_content(SExpr::atom("noise")))
            .unwrap();
        let bus2 = bus.clone();
        let t = std::thread::spawn(move || {
            // The responder thread picks up the request off its own mailbox.
            let mut ep = responder;
            let env = ep.recv_timeout(Duration::from_secs(2)).unwrap();
            let reply = env.message.reply_skeleton(Performative::Reply);
            ep.send(&env.from, reply).unwrap();
            drop(bus2);
        });
        let reply = client
            .request("responder", Message::new(Performative::AskOne), Duration::from_secs(2))
            .unwrap();
        assert_eq!(reply.performative, Performative::Reply);
        // The noise is still deliverable afterwards.
        let env = client.try_recv().unwrap();
        assert_eq!(env.message.content(), Some(&SExpr::atom("noise")));
        t.join().unwrap();
    }

    #[test]
    fn concurrent_senders_deliver_everything() {
        // Many threads hammer one mailbox; nothing is lost or duplicated.
        let bus = Bus::new();
        let mut sink = bus.register("sink").unwrap();
        let senders: Vec<_> = (0..8)
            .map(|s| {
                let bus = bus.clone();
                std::thread::spawn(move || {
                    let ep = bus.register(format!("sender-{s}")).unwrap();
                    for i in 0..50 {
                        ep.send(
                            "sink",
                            Message::new(Performative::Tell)
                                .with_content(SExpr::atom(format!("{s}-{i}"))),
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in senders {
            t.join().unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..400 {
            let env = sink.recv_timeout(Duration::from_secs(2)).expect("message arrives");
            let tag = env.message.content().and_then(SExpr::as_text).unwrap().to_string();
            assert!(seen.insert(tag), "duplicate delivery");
        }
        assert!(sink.try_recv().is_none(), "exactly 400 messages expected");
    }

    #[test]
    fn send_preserves_order_and_isolates_failures() {
        let bus = Bus::new();
        let _a = bus.register("a").unwrap();
        let mut b = bus.register("b").unwrap();
        let mk = |s: &str| Message::new(Performative::Tell).with_content(SExpr::atom(s));
        let results: Vec<_> = [("b", "one"), ("ghost", "lost"), ("b", "two")]
            .into_iter()
            .map(|(to, tag)| bus.send("a", to, mk(tag)))
            .collect();
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(BusError::UnknownAgent(_))));
        assert!(results[2].is_ok());
        let first = b.recv_timeout(Duration::from_secs(1)).unwrap();
        let second = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(first.message.content(), Some(&SExpr::atom("one")));
        assert_eq!(second.message.content(), Some(&SExpr::atom("two")));
    }

    #[test]
    fn conversation_ids_are_unique() {
        let bus = Bus::new();
        let a = bus.next_conversation_id("x");
        let b = bus.next_conversation_id("x");
        assert_ne!(a, b);
    }
}
