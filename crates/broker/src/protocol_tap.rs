//! A transport tap feeding every send through the runtime conversation
//! conformance monitor (IS05x).
//!
//! Wrap any node's transport in
//! [`TappedTransport`](infosleuth_agent::TappedTransport) with a
//! [`ProtocolTap`] and every outgoing message — broker acks, sub-deltas,
//! client requests — is replayed through a
//! [`ConformanceMonitor`](infosleuth_analysis::ConformanceMonitor) in
//! global emission order. Violations accumulate in the
//! `protocol_violations_total` counter (scrapable next to the broker's
//! other metrics) and are kept as [`Diagnostic`]s for inspection.
//!
//! Distributed deployments should use the lenient monitor
//! ([`ProtocolTap::lenient`]): a tap on one node sees replies to
//! conversations whose opening request left from another node, and a
//! strict monitor would flag those as out-of-order. A strict monitor
//! ([`ProtocolTap::over`] with
//! [`ConformanceMonitor::standard_strict`](infosleuth_analysis::ConformanceMonitor::standard_strict))
//! is for single-transport communities where the tap observes every
//! send.

use infosleuth_agent::MessageTap;
use infosleuth_analysis::{ConformanceMonitor, Diagnostic};
use infosleuth_kqml::Message;
use infosleuth_obs::sync::lock;
use infosleuth_obs::{Counter, MetricsRegistry};
use std::sync::Mutex;

/// Shared conformance tap: owns the monitor behind a mutex (taps are
/// called from every sending thread) and mirrors the running violation
/// count into a metric.
pub struct ProtocolTap {
    monitor: Mutex<ConformanceMonitor>,
    drained: Mutex<Vec<Diagnostic>>,
    violations: Counter,
}

impl ProtocolTap {
    /// A lenient tap (unknown conversation keys ignored) over the
    /// standard protocol table — the right default for multi-node
    /// deployments where this tap sees only one node's sends.
    pub fn lenient(registry: &MetricsRegistry, node: &str) -> ProtocolTap {
        ProtocolTap::over(ConformanceMonitor::standard_lenient(), registry, node)
    }

    /// A tap over an explicitly configured monitor.
    pub fn over(
        monitor: ConformanceMonitor,
        registry: &MetricsRegistry,
        node: &str,
    ) -> ProtocolTap {
        ProtocolTap {
            monitor: Mutex::new(monitor),
            drained: Mutex::new(Vec::new()),
            violations: registry.counter("protocol_violations_total", &[("node", node)]),
        }
    }

    /// Total violations observed so far (also the value of
    /// `protocol_violations_total`).
    pub fn total_violations(&self) -> u64 {
        lock(&self.monitor).total_violations()
    }

    /// All violation diagnostics observed so far, in emission order.
    pub fn violations(&self) -> Vec<Diagnostic> {
        let mut drained = lock(&self.drained);
        drained.extend(lock(&self.monitor).take_violations());
        drained.clone()
    }

    /// Conversations currently open in the monitor.
    pub fn open_conversations(&self) -> usize {
        lock(&self.monitor).open_conversations()
    }
}

impl MessageTap for ProtocolTap {
    fn on_send(&self, from: &str, to: &str, message: &Message) {
        let mut monitor = lock(&self.monitor);
        let before = monitor.total_violations();
        monitor.observe(from, to, message);
        let delta = monitor.total_violations() - before;
        if delta > 0 {
            self.violations.add(delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_agent::{Bus, TappedTransport};
    use infosleuth_kqml::{Message, Performative};
    use infosleuth_obs::Obs;
    use std::sync::Arc;

    /// A tap over the strict monitor: these tests observe every send.
    fn strict_tap(obs: &Obs) -> Arc<ProtocolTap> {
        Arc::new(ProtocolTap::over(ConformanceMonitor::standard_strict(), obs.registry(), "node1"))
    }

    fn scrape_total(obs: &Obs) -> Option<f64> {
        obs.registry().render().lines().find_map(|l| {
            l.strip_prefix("protocol_violations_total")
                .and_then(|rest| rest.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
        })
    }

    #[test]
    fn clean_conversation_leaves_counter_at_zero() {
        let obs = Obs::new();
        let tap = strict_tap(&obs);
        tap.on_send("client", "broker", &Message::new(Performative::Ping).with_reply_with("p1"));
        tap.on_send("broker", "client", &Message::new(Performative::Reply).with_in_reply_to("p1"));
        assert_eq!(tap.total_violations(), 0);
        assert!(tap.violations().is_empty());
        assert_eq!(tap.open_conversations(), 0);
    }

    #[test]
    fn duplicate_ack_is_counted_and_kept() {
        let obs = Obs::new();
        let tap = strict_tap(&obs);
        tap.on_send("client", "broker", &Message::new(Performative::Ping).with_reply_with("p1"));
        let ack = Message::new(Performative::Reply).with_in_reply_to("p1");
        tap.on_send("broker", "client", &ack);
        tap.on_send("broker", "client", &ack);
        assert_eq!(tap.total_violations(), 1);
        let kept = tap.violations();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].code, infosleuth_analysis::Code::DuplicateAck);
        // Draining is idempotent: diagnostics stay available.
        assert_eq!(tap.violations().len(), 1);
    }

    #[test]
    fn tapped_transport_feeds_the_monitor_and_metric() {
        let bus = Bus::new();
        let obs = Obs::new();
        let tap = strict_tap(&obs);
        let tap_obj: Arc<dyn infosleuth_agent::MessageTap> = Arc::clone(&tap) as _;
        let tapped = TappedTransport::wrap(bus.as_transport(), tap_obj);
        let _broker = tapped.open_mailbox("broker").unwrap();
        let _client = tapped.open_mailbox("client").unwrap();
        tapped
            .send("client", "broker", Message::new(Performative::Ping).with_reply_with("p9"))
            .unwrap();
        let ack = Message::new(Performative::Reply).with_in_reply_to("p9");
        tapped.send("broker", "client", ack.clone()).unwrap();
        tapped.send("broker", "client", ack).unwrap();
        assert_eq!(tap.total_violations(), 1);
        assert_eq!(scrape_total(&obs), Some(1.0));
    }
}
