//! Runtime conversation-conformance monitoring (the IS05x family).
//!
//! A [`ConformanceMonitor`] interprets a [`ProtocolSpec`]
//! table over a stream of observed message *sends*. Every message is fed
//! through [`ConformanceMonitor::observe`] in global emission order (taps
//! hook the transport's `send`, so the order is the order messages enter
//! the fabric — observing at delivery time would manufacture false
//! cross-channel reorderings). The monitor tracks:
//!
//! - **conversations**, keyed by `(opener, :reply-with)` — opened when an
//!   opening performative of some protocol carries a `:reply-with`,
//!   advanced by replies whose `:in-reply-to` routes back to the opener,
//!   closed when the machine reaches a final state;
//! - **standing subscriptions**, keyed by the subscription key — created
//!   pending at `subscribe`, activated/closed by transitions annotated
//!   with a [`SubEffect`], with `sub-delta`
//!   notifications checked against the key's lifecycle.
//!
//! Violations are collected as [`Diagnostic`]s: IS050 out-of-order or
//! unknown replies, IS051 `sub-delta` after the unsubscribe ack, IS052
//! conversations still open when observation ends, IS053 duplicate
//! closing acknowledgements.
//!
//! Two observation modes: **strict** assumes the monitor sees *every*
//! message (the interleaving explorer's virtual transport), so a reply
//! whose `:in-reply-to` names no open conversation is IS050. **Lenient**
//! tolerates partial observation (a per-node tap in a multi-node
//! deployment sees only one side of cross-node conversations) and ignores
//! unknown conversation keys.

use crate::diag::{Code, Diagnostic, Report};
use crate::protocol::{content_head, ProtocolSpec, SubEffect};
use infosleuth_kqml::Message;
use std::collections::HashMap;

/// Lifecycle of one standing subscription key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubState {
    /// `subscribe` sent, ack not yet observed (snapshot deltas are legal).
    Pending,
    /// Ack observed; deltas are legal.
    Active,
    /// Unsubscribe acknowledged; further deltas are IS051.
    Closed,
}

/// One live (or finished) conversation.
#[derive(Debug, Clone)]
struct Conversation {
    spec: usize,
    state: String,
    /// Obligation labels currently open (e.g. `reply`).
    obligations: Vec<String>,
    done: bool,
    /// For unsubscribe conversations: the standing key the ack closes.
    target_sub: Option<String>,
    /// Emission index of the opening message (for violation messages).
    opened_at: u64,
}

/// Spec-driven conversation monitor; see the module docs.
#[derive(Debug)]
pub struct ConformanceMonitor {
    specs: Vec<ProtocolSpec>,
    strict: bool,
    /// `(opener, reply-with)` → conversation.
    conversations: HashMap<(String, String), Conversation>,
    subs: HashMap<String, SubState>,
    pending: Vec<Diagnostic>,
    total: u64,
    seq: u64,
}

impl ConformanceMonitor {
    /// A monitor over `specs`. `strict` means complete observation: replies
    /// to unknown conversations are violations rather than blind spots.
    pub fn new(specs: Vec<ProtocolSpec>, strict: bool) -> Self {
        ConformanceMonitor {
            specs,
            strict,
            conversations: HashMap::new(),
            subs: HashMap::new(),
            pending: Vec::new(),
            total: 0,
            seq: 0,
        }
    }

    /// A strict monitor over [`standard_protocols`](crate::protocol::standard_protocols).
    pub fn standard_strict() -> Self {
        ConformanceMonitor::new(crate::protocol::standard_protocols(), true)
    }

    /// A lenient monitor over the standard table, for distributed taps
    /// that see only part of the traffic.
    pub fn standard_lenient() -> Self {
        ConformanceMonitor::new(crate::protocol::standard_protocols(), false)
    }

    /// Total violations recorded so far (not reset by [`Self::take_violations`]).
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// Drains violations recorded since the last call.
    pub fn take_violations(&mut self) -> Vec<Diagnostic> {
        std::mem::take(&mut self.pending)
    }

    /// Number of conversations currently open.
    pub fn open_conversations(&self) -> usize {
        self.conversations.values().filter(|c| !c.done).count()
    }

    fn violate(&mut self, d: Diagnostic) {
        self.total += 1;
        self.pending.push(d);
    }

    /// Feeds one message *send* into the monitor, in emission order.
    pub fn observe(&mut self, from: &str, to: &str, msg: &Message) {
        self.seq += 1;
        let seq = self.seq;

        // 1. Opening performative with a :reply-with key opens a
        //    conversation — even when the message also carries
        //    :in-reply-to (unsubscribe names its subscription that way).
        if let Some(rw) = msg.reply_with() {
            if let Some(spec_idx) = self.opening_spec(msg) {
                let spec = &self.specs[spec_idx];
                let initial = spec.initial().unwrap_or_default().to_string();
                let t = spec.step(&initial, msg).expect("opening_spec matched a transition");
                let state = t.to.clone();
                let obligations: Vec<String> = t.opens.clone().into_iter().collect();
                let is_subscribe = spec.name == "subscribe";
                let target_sub = if spec.name == "unsubscribe" {
                    msg.content().and_then(|c| c.as_text()).or(msg.in_reply_to()).map(String::from)
                } else {
                    None
                };
                let key = (from.to_string(), rw.to_string());
                let replaced = self.conversations.insert(
                    key.clone(),
                    Conversation {
                        spec: spec_idx,
                        state,
                        obligations,
                        done: false,
                        target_sub,
                        opened_at: seq,
                    },
                );
                if let Some(old) = replaced {
                    if !old.done {
                        self.violate(Diagnostic::new(
                            Code::OrphanConversation,
                            format!(
                                "conversation ({from}, {rw}) reopened at event {seq} while still \
                                 in state `{}` (opened at event {})",
                                old.state, old.opened_at
                            ),
                        ));
                    }
                }
                if is_subscribe {
                    self.subs.insert(rw.to_string(), SubState::Pending);
                }
                return;
            }
        }

        // 2. Standing-subscription notifications route by the sub key,
        //    not a conversation: `tell` with a `sub-delta` content head.
        if let Some(irt) = msg.in_reply_to() {
            if content_head(msg) == Some("sub-delta") {
                match self.subs.get(irt) {
                    Some(SubState::Closed) => {
                        let irt = irt.to_string();
                        self.violate(Diagnostic::new(
                            Code::TellAfterUnsubscribe,
                            format!(
                                "sub-delta on key `{irt}` sent to `{to}` at event {seq} after its \
                                 unsubscribe was acknowledged"
                            ),
                        ));
                    }
                    Some(_) => {} // pending (snapshot) or active: legal
                    None if self.strict => {
                        let irt = irt.to_string();
                        self.violate(Diagnostic::new(
                            Code::OutOfOrderReply,
                            format!("sub-delta on unknown subscription key `{irt}` at event {seq}"),
                        ));
                    }
                    None => {}
                }
                return;
            }

            // 3. A reply: route to the conversation the receiver opened.
            let key = (to.to_string(), irt.to_string());
            let Some(conv) = self.conversations.get(&key) else {
                if self.strict {
                    self.violate(Diagnostic::new(
                        Code::OutOfOrderReply,
                        format!(
                            "{} from `{from}` to `{to}` at event {seq} answers unknown \
                             conversation `{irt}`",
                            msg.performative.as_str()
                        ),
                    ));
                }
                return;
            };
            let spec = &self.specs[conv.spec];
            if conv.done {
                let code = if spec.is_closing_trigger(msg) {
                    Code::DuplicateAck
                } else {
                    Code::OutOfOrderReply
                };
                let (state, what) = (conv.state.clone(), msg.performative.as_str().to_string());
                self.violate(Diagnostic::new(
                    code,
                    format!(
                        "{what} from `{from}` at event {seq} arrives after conversation \
                         ({to}, {irt}) already closed in state `{state}`"
                    ),
                ));
                return;
            }
            let Some(t) = spec.step(&conv.state, msg) else {
                let (state, name) = (conv.state.clone(), spec.name.clone());
                self.violate(Diagnostic::new(
                    Code::OutOfOrderReply,
                    format!(
                        "{} from `{from}` at event {seq} is not a legal `{name}` continuation \
                         from state `{state}` for conversation ({to}, {irt})",
                        msg.performative.as_str()
                    ),
                ));
                return;
            };
            let (to_state, opens, discharges, sub_effect) =
                (t.to.clone(), t.opens.clone(), t.discharges.clone(), t.sub);
            let is_final = spec.is_final(&to_state);
            let conv = self.conversations.get_mut(&key).expect("conversation just looked up");
            conv.state = to_state;
            if let Some(o) = opens {
                conv.obligations.push(o);
            }
            if let Some(o) = discharges {
                conv.obligations.retain(|x| x != &o);
            }
            conv.done = is_final;
            let sub_key = match sub_effect {
                Some(SubEffect::Close) => conv.target_sub.clone().or_else(|| Some(irt.to_string())),
                Some(SubEffect::Activate) => Some(irt.to_string()),
                _ => None,
            };
            match sub_effect {
                Some(SubEffect::Activate) => {
                    self.subs.insert(sub_key.expect("activate key"), SubState::Active);
                }
                Some(SubEffect::Close) => {
                    self.subs.insert(sub_key.expect("close key"), SubState::Closed);
                }
                _ => {}
            }
        }
        // Messages with neither an opening match nor :in-reply-to are
        // outside the protocol table (application traffic, log forwarding)
        // and pass through unchecked.
    }

    /// The spec whose initial state consumes this message, if any.
    fn opening_spec(&self, msg: &Message) -> Option<usize> {
        self.specs.iter().position(|s| s.initial().and_then(|init| s.step(init, msg)).is_some())
    }

    /// Ends observation: conversations still open become IS052 orphans.
    /// Returns every violation not already drained, deterministically
    /// sorted.
    pub fn finish(mut self) -> Report {
        let mut report = Report::new("conformance");
        let mut open: Vec<_> = self.conversations.iter().filter(|(_, c)| !c.done).collect();
        open.sort_by_key(|(_, c)| c.opened_at);
        for ((opener, rw), conv) in open {
            let spec = &self.specs[conv.spec];
            report.push(Diagnostic::new(
                Code::OrphanConversation,
                format!(
                    "`{}` conversation ({opener}, {rw}) opened at event {} never reached a final \
                     state (stuck in `{}`, open obligations: {})",
                    spec.name,
                    conv.opened_at,
                    conv.state,
                    if conv.obligations.is_empty() {
                        "none".to_string()
                    } else {
                        conv.obligations.join(", ")
                    }
                ),
            ));
        }
        self.total += report.diagnostics.len() as u64;
        report.diagnostics.splice(0..0, std::mem::take(&mut self.pending));
        report.sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_kqml::{Performative, SExpr};

    fn advertise(rw: &str) -> Message {
        Message::new(Performative::Advertise).with_content(SExpr::atom("ad")).with_reply_with(rw)
    }

    fn ack(irt: &str) -> Message {
        Message::new(Performative::Tell).with_content(SExpr::atom("ok")).with_in_reply_to(irt)
    }

    fn delta(key: &str) -> Message {
        Message::new(Performative::Tell)
            .with_content(SExpr::list([SExpr::atom("sub-delta"), SExpr::atom("e")]))
            .with_in_reply_to(key)
    }

    #[test]
    fn clean_advertise_roundtrip() {
        let mut m = ConformanceMonitor::standard_strict();
        m.observe("client", "broker", &advertise("m1"));
        m.observe("broker", "client", &ack("m1"));
        assert_eq!(m.total_violations(), 0);
        assert!(m.finish().is_clean());
    }

    #[test]
    fn duplicate_ack_is_053_and_unknown_reply_is_050() {
        let mut m = ConformanceMonitor::standard_strict();
        m.observe("client", "broker", &advertise("m1"));
        m.observe("broker", "client", &ack("m1"));
        m.observe("broker", "client", &ack("m1"));
        m.observe("broker", "client", &ack("never-opened"));
        let report = m.finish();
        assert_eq!(report.codes(), vec![Code::OutOfOrderReply, Code::DuplicateAck]);
    }

    #[test]
    fn lenient_mode_ignores_unknown_conversations() {
        let mut m = ConformanceMonitor::standard_lenient();
        m.observe("broker", "client", &ack("cross-node-key"));
        m.observe("broker", "watch", &delta("cross-node-sub"));
        assert!(m.finish().is_clean());
    }

    #[test]
    fn subscription_lifecycle_and_tell_after_unsubscribe() {
        let mut m = ConformanceMonitor::standard_strict();
        let sub = Message::new(Performative::Subscribe)
            .with_content(SExpr::atom("q"))
            .with_reply_with("sub-1");
        m.observe("client", "broker", &sub);
        // Snapshot delta to the watcher *before* the ack: legal.
        m.observe("broker", "watch", &delta("sub-1"));
        m.observe("broker", "client", &ack("sub-1"));
        m.observe("broker", "watch", &delta("sub-1"));
        // Unsubscribe names the key in content; fresh reply-with.
        let unsub = Message::new(Performative::Other("unsubscribe".into()))
            .with_content(SExpr::atom("sub-1"))
            .with_reply_with("m9");
        m.observe("client", "broker", &unsub);
        m.observe("broker", "client", &ack("m9"));
        assert_eq!(m.total_violations(), 0);
        // Any further delta is IS051.
        m.observe("broker", "watch", &delta("sub-1"));
        let report = m.finish();
        assert_eq!(report.codes(), vec![Code::TellAfterUnsubscribe]);
    }

    #[test]
    fn orphan_conversations_surface_at_finish() {
        let mut m = ConformanceMonitor::standard_strict();
        m.observe("client", "broker", &advertise("m1"));
        let report = m.finish();
        assert_eq!(report.codes(), vec![Code::OrphanConversation]);
        assert!(!report.has_errors(), "orphans are warnings");
    }

    #[test]
    fn out_of_order_reply_against_open_conversation() {
        let mut m = ConformanceMonitor::standard_strict();
        // Mutations close on tell/sorry/error only; a `reply` answering
        // an advertise has no transition, so stepping fails → IS050.
        m.observe("client", "broker", &advertise("m1"));
        let bad =
            Message::new(Performative::Reply).with_content(SExpr::atom("x")).with_in_reply_to("m1");
        m.observe("broker", "client", &bad);
        let drained: Vec<Code> = m.take_violations().iter().map(|d| d.code).collect();
        assert_eq!(drained, vec![Code::OutOfOrderReply]);
        // Draining leaves the running total intact.
        assert_eq!(m.total_violations(), 1);
    }
}
