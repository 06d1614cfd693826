//! The deterministic virtual transport the explorer schedules by hand.
//!
//! Unlike the in-process [`Bus`](infosleuth_agent::Bus), a send here does
//! not deliver: it enqueues the message on the per-`(from, to)` channel
//! and records it in a global emission log. Channels are strictly FIFO —
//! the per-sender ordering every real transport in this workspace
//! guarantees — and *when* a channel's head moves on (and when a mailbox
//! is dispatched) is the explorer's choice, not the transport's. That
//! choice is exactly the nondeterminism being model-checked.

use crate::clock::VectorClock;
use infosleuth_agent::{mailbox, Mailbox, Transport, TransportError};
use infosleuth_kqml::Message;
use infosleuth_obs::sync::lock;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;

/// One recorded send, in global emission order.
#[derive(Clone, Debug)]
pub struct SentRecord {
    pub seq: u64,
    pub from: String,
    pub to: String,
    pub message: Message,
}

struct ChannelEntry {
    message: Message,
    /// Sender's clock at send time (merged into the receiver on delivery).
    clock: VectorClock,
}

#[derive(Default)]
struct State {
    registered: BTreeSet<String>,
    channels: BTreeMap<(String, String), VecDeque<ChannelEntry>>,
    clocks: BTreeMap<String, VectorClock>,
    log: Vec<SentRecord>,
    conv_seq: u64,
}

/// In-memory channels + emission log behind one mutex. All scheduling
/// decisions happen in [`World`](crate::World); the transport only
/// stores.
#[derive(Default)]
pub struct ScheduledTransport {
    state: Mutex<State>,
}

impl ScheduledTransport {
    pub fn new() -> Self {
        ScheduledTransport::default()
    }

    /// Pre-registers a scenario agent so sends to it succeed.
    pub fn register(&self, name: &str) {
        lock(&self.state).registered.insert(name.to_string());
    }

    /// Channels with at least one undelivered message, sorted.
    pub fn nonempty_channels(&self) -> Vec<(String, String)> {
        let state = lock(&self.state);
        state.channels.iter().filter(|(_, q)| !q.is_empty()).map(|(k, _)| k.clone()).collect()
    }

    /// Pops the head of channel `(from, to)`, returning the message and
    /// the sender-side clock snapshot taken when it was sent.
    pub fn pop_channel(&self, from: &str, to: &str) -> Option<(Message, VectorClock)> {
        let mut state = lock(&self.state);
        let entry = state.channels.get_mut(&(from.to_string(), to.to_string()))?.pop_front()?;
        Some((entry.message, entry.clock))
    }

    /// Merges the delivered message's clock into `agent`'s clock and
    /// bumps its own component once; returns the updated clock.
    pub fn advance_clock(&self, agent: &str, delivered: &VectorClock) -> VectorClock {
        let mut state = lock(&self.state);
        let clock = state.clocks.entry(agent.to_string()).or_default();
        clock.merge(delivered);
        clock.bump(agent);
        clock.clone()
    }

    /// The global emission log so far, in send order.
    pub fn log(&self) -> Vec<SentRecord> {
        lock(&self.state).log.clone()
    }

    pub fn log_len(&self) -> usize {
        lock(&self.state).log.len()
    }
}

impl Transport for ScheduledTransport {
    fn open_mailbox(&self, name: &str) -> Result<Mailbox, TransportError> {
        // The explorer never drains transport mailboxes (it keeps its own
        // per-agent arrival queues), but registration must still work for
        // harness code that opens one.
        self.register(name);
        let (_tx, rx) = mailbox();
        Ok(rx)
    }

    fn unregister(&self, name: &str) -> bool {
        lock(&self.state).registered.remove(name)
    }

    fn is_registered(&self, name: &str) -> bool {
        lock(&self.state).registered.contains(name)
    }

    fn agents(&self) -> Vec<String> {
        lock(&self.state).registered.iter().cloned().collect()
    }

    fn send(&self, from: &str, to: &str, message: Message) -> Result<(), TransportError> {
        let mut state = lock(&self.state);
        if !state.registered.contains(to) {
            return Err(TransportError::UnknownAgent(to.to_string()));
        }
        let clock = {
            let clock = state.clocks.entry(from.to_string()).or_default();
            clock.bump(from);
            clock.clone()
        };
        let seq = state.log.len() as u64;
        state.log.push(SentRecord {
            seq,
            from: from.to_string(),
            to: to.to_string(),
            message: message.clone(),
        });
        state
            .channels
            .entry((from.to_string(), to.to_string()))
            .or_default()
            .push_back(ChannelEntry { message, clock });
        Ok(())
    }

    fn next_conversation_id(&self, prefix: &str) -> String {
        let mut state = lock(&self.state);
        state.conv_seq += 1;
        format!("{prefix}-v{}", state.conv_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_kqml::Performative;

    #[test]
    fn sends_queue_per_channel_and_log_globally() {
        let t = ScheduledTransport::new();
        t.register("a");
        t.register("b");
        t.register("c");
        t.send("a", "b", Message::new(Performative::Ping)).unwrap();
        t.send("c", "b", Message::new(Performative::Tell)).unwrap();
        t.send("a", "b", Message::new(Performative::Tell)).unwrap();
        assert_eq!(t.nonempty_channels(), vec![("a".into(), "b".into()), ("c".into(), "b".into())]);
        // Per-channel FIFO: a's ping precedes a's tell.
        let (first, _) = t.pop_channel("a", "b").unwrap();
        assert_eq!(first.performative, Performative::Ping);
        assert_eq!(t.log_len(), 3);
        assert_eq!(t.log()[1].from, "c");
    }

    #[test]
    fn send_to_unknown_agent_fails() {
        let t = ScheduledTransport::new();
        t.register("a");
        let err = t.send("a", "ghost", Message::new(Performative::Ping));
        assert!(matches!(err, Err(TransportError::UnknownAgent(_))));
    }

    #[test]
    fn clocks_snapshot_at_send_and_merge_on_delivery() {
        let t = ScheduledTransport::new();
        t.register("a");
        t.register("b");
        t.send("a", "b", Message::new(Performative::Ping)).unwrap();
        let (_, vc) = t.pop_channel("a", "b").unwrap();
        assert_eq!(vc.get("a"), 1);
        let after = t.advance_clock("b", &vc);
        assert_eq!(after.get("a"), 1);
        assert_eq!(after.get("b"), 1);
    }
}
