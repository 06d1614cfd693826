//! Message taps: passive observers of everything a transport sends.
//!
//! A [`MessageTap`] sees each message at *send* time — before delivery,
//! in the global order messages enter the fabric. Wrapping a transport
//! in a [`TappedTransport`] catches every path an agent can emit on:
//! `AgentContext::send` *and* the ephemeral reply endpoints
//! `AgentContext::request` conjures (which talk straight to
//! `Transport::send` and would slip past any higher-level hook).
//!
//! The broker crate uses this to feed the conversation-conformance
//! monitor (`infosleuth_analysis::ConformanceMonitor`) and surface a
//! `protocol_violations_total` counter; the interleaving explorer in
//! `crates/check` uses the same trait to record deterministic schedules.

use crate::transport::{Mailbox, Transport, TransportError};
use infosleuth_kqml::Message;
use infosleuth_obs::TraceContext;
use std::sync::Arc;

/// A passive observer of outbound traffic. Implementations must be cheap
/// and non-blocking: `on_send` runs inline on the sending path, before
/// the transport attempts delivery (so even sends that fail are seen —
/// the message still *entered* the conversation from the sender's view).
pub trait MessageTap: Send + Sync + 'static {
    fn on_send(&self, from: &str, to: &str, message: &Message);
}

/// A transport wrapper that feeds every send through a [`MessageTap`]
/// and otherwise delegates unchanged. Registration, routing, and
/// conversation-id generation pass straight through, so a tapped
/// transport is a drop-in replacement anywhere an `Arc<dyn Transport>`
/// is expected.
pub struct TappedTransport {
    inner: Arc<dyn Transport>,
    tap: Arc<dyn MessageTap>,
}

impl TappedTransport {
    /// Wraps `inner` so `tap` observes every outbound message.
    pub fn wrap(inner: Arc<dyn Transport>, tap: Arc<dyn MessageTap>) -> Arc<dyn Transport> {
        Arc::new(TappedTransport { inner, tap })
    }
}

impl Transport for TappedTransport {
    fn open_mailbox(&self, name: &str) -> Result<Mailbox, TransportError> {
        self.inner.open_mailbox(name)
    }

    fn unregister(&self, name: &str) -> bool {
        self.inner.unregister(name)
    }

    fn is_registered(&self, name: &str) -> bool {
        self.inner.is_registered(name)
    }

    fn agents(&self) -> Vec<String> {
        self.inner.agents()
    }

    fn send(&self, from: &str, to: &str, message: Message) -> Result<(), TransportError> {
        self.tap.on_send(from, to, &message);
        self.inner.send(from, to, message)
    }

    fn send_traced(
        &self,
        from: &str,
        to: &str,
        message: Message,
        trace: Option<TraceContext>,
    ) -> Result<(), TransportError> {
        self.tap.on_send(from, to, &message);
        self.inner.send_traced(from, to, message, trace)
    }

    fn next_conversation_id(&self, prefix: &str) -> String {
        self.inner.next_conversation_id(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportExt;
    use crate::Bus;
    use infosleuth_kqml::{Performative, SExpr};
    use std::sync::Mutex;

    struct Recorder(Mutex<Vec<(String, String, String)>>);

    impl MessageTap for Recorder {
        fn on_send(&self, from: &str, to: &str, message: &Message) {
            self.0.lock().unwrap().push((
                from.to_string(),
                to.to_string(),
                message.performative.to_string(),
            ));
        }
    }

    #[test]
    fn tap_sees_sends_and_failures() {
        let bus = Bus::new();
        let recorder = Arc::new(Recorder(Mutex::new(Vec::new())));
        let tapped = TappedTransport::wrap(bus.as_transport(), recorder.clone());
        let a = tapped.endpoint("a").unwrap();
        let mut b = tapped.endpoint("b").unwrap();

        a.send("b", Message::new(Performative::Tell).with_content(SExpr::atom("x"))).unwrap();
        assert!(b.recv_timeout(std::time::Duration::from_secs(1)).is_some());

        assert!(tapped.send("a", "b", Message::new(Performative::Ping)).is_ok());
        assert!(
            tapped.send("a", "ghost", Message::new(Performative::Ping)).is_err(),
            "unknown agent still fails through the tap"
        );

        let seen = recorder.0.lock().unwrap().clone();
        let triples: Vec<(&str, &str, &str)> =
            seen.iter().map(|(f, t, p)| (f.as_str(), t.as_str(), p.as_str())).collect();
        assert_eq!(
            triples,
            vec![("a", "b", "tell"), ("a", "b", "ping"), ("a", "ghost", "ping")],
            "tap observes every send in emission order, including failures"
        );
    }

    #[test]
    fn registration_passes_through() {
        let bus = Bus::new();
        struct Nop;
        impl MessageTap for Nop {
            fn on_send(&self, _: &str, _: &str, _: &Message) {}
        }
        let tapped = TappedTransport::wrap(bus.as_transport(), Arc::new(Nop));
        let _ep = tapped.endpoint("x").unwrap();
        assert!(tapped.is_registered("x"));
        assert!(bus.is_registered("x"), "registration reaches the inner transport");
        assert!(tapped.unregister("x"));
        assert!(!bus.is_registered("x"));
        let id1 = tapped.next_conversation_id("x");
        let id2 = tapped.next_conversation_id("x");
        assert_ne!(id1, id2);
    }
}
