//! The harness's own message tap and the span tree built from it.
//!
//! Nothing in `crates/*` is instrumented: a [`TraceLog`] tap wrapped
//! around each node's transport stamps every message as it *enters* the
//! fabric, the load generator stamps the client-side layer boundaries, and
//! both use one clock. Spans are kept in memory and written out when the
//! run ends.

use crate::community::{node_of_broker, CLIENT_NODE, CLI_ASK, CLI_SUB, CLI_WRITE};
use crate::json::Json;
use crate::loadgen::{Clock, RecvRec, SendRec};
use infosleuth_agent::MessageTap;
use infosleuth_kqml::{Message, Performative};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Client→broker requests kept, in fabric order, for replay on the twin.
pub const REPLAY_CAP: usize = 1000;
/// Ask replies kept for the codec / KQML replays.
pub const REPLY_CAP: usize = 256;
/// Requests whose spans are written to the trace file.
pub const SPAN_FILE_CAP: usize = 2000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Client ask entering the fabric / its reply entering the fabric.
    AskIn,
    AskOut,
    /// Client update / its ack.
    WriteIn,
    WriteOut,
    /// Broker-to-broker forwarded ask / its reply.
    ForwardIn,
    ForwardOut,
    /// A `sub-delta` tell to the subscriber.
    Delta,
    Other,
}

#[derive(Debug, Clone, Copy)]
pub struct TapEvent {
    pub t: u64,
    pub kind: Kind,
    /// Sequence number for client conversations, a hash of the
    /// conversation id for forwards.
    pub id: u64,
    /// Whether the message leaves the sending node.
    pub cross: bool,
}

#[derive(Default)]
struct Inner {
    events: Vec<TapEvent>,
    requests: Vec<(String, Message)>,
    replies: Vec<Message>,
}

/// Everything the taps saw while switched on.
pub struct TraceLog {
    pub clock: Clock,
    /// Transport nodes of the community (1 on the Bus, 3 over TCP).
    nodes: usize,
    on: AtomicBool,
    inner: Mutex<Inner>,
}

struct NodeTap {
    log: Arc<TraceLog>,
    node: usize,
}

fn hashed(text: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

fn seq_of(id: Option<&str>, prefix: char) -> Option<u64> {
    id?.strip_prefix(prefix)?.parse().ok()
}

impl TraceLog {
    pub fn new(clock: Clock, nodes: usize) -> Arc<TraceLog> {
        Arc::new(TraceLog { clock, nodes, on: AtomicBool::new(false), inner: Mutex::default() })
    }

    /// The tap for one node's transport.
    pub fn tap(log: &Arc<TraceLog>, node: usize) -> Arc<dyn MessageTap> {
        Arc::new(NodeTap { log: Arc::clone(log), node })
    }

    pub fn switch(&self, on: bool) {
        self.on.store(on, Ordering::Release);
    }

    /// Which node a name lives on; names the harness does not know (stub
    /// agents) are hosted next to whoever is talking to them.
    fn node_of(&self, name: &str, local: usize) -> usize {
        if self.nodes == 1 {
            0
        } else if name.starts_with("cli-") {
            CLIENT_NODE
        } else if let Some(i) = broker_index(name) {
            node_of_broker(i)
        } else {
            local
        }
    }

    pub fn take(&self) -> (Vec<TapEvent>, Vec<(String, Message)>, Vec<Message>) {
        let mut inner = self.inner.lock().expect("trace lock");
        (
            std::mem::take(&mut inner.events),
            std::mem::take(&mut inner.requests),
            std::mem::take(&mut inner.replies),
        )
    }
}

/// `b3` and its ephemeral request endpoints `b3.w17` → 3.
fn broker_index(name: &str) -> Option<usize> {
    let stem = name.split('.').next()?;
    stem.strip_prefix('b')?.parse().ok()
}

impl MessageTap for NodeTap {
    fn on_send(&self, from: &str, to: &str, message: &Message) {
        let log = &self.log;
        if !log.on.load(Ordering::Acquire) {
            return;
        }
        let t = log.clock.now();
        let (kind, id) = if from == CLI_ASK {
            (Kind::AskIn, seq_of(message.reply_with(), 'a'))
        } else if to == CLI_ASK {
            (Kind::AskOut, seq_of(message.in_reply_to(), 'a'))
        } else if from == CLI_WRITE {
            (Kind::WriteIn, seq_of(message.reply_with(), 'w'))
        } else if to == CLI_WRITE {
            (Kind::WriteOut, seq_of(message.in_reply_to(), 'w'))
        } else if to == CLI_SUB {
            (Kind::Delta, Some(0))
        } else if broker_index(from).is_some() && broker_index(to).is_some() {
            match (&message.performative, message.reply_with(), message.in_reply_to()) {
                (Performative::AskAll, Some(id), _) => (Kind::ForwardIn, Some(hashed(id))),
                (Performative::Reply | Performative::Sorry, _, Some(id)) => {
                    (Kind::ForwardOut, Some(hashed(id)))
                }
                _ => (Kind::Other, Some(0)),
            }
        } else {
            (Kind::Other, Some(0))
        };
        let Some(id) = id else { return };
        let cross = log.node_of(to, self.node) != self.node;
        let mut inner = log.inner.lock().expect("trace lock");
        inner.events.push(TapEvent { t, kind, id, cross });
        match kind {
            Kind::AskIn | Kind::WriteIn if inner.requests.len() < REPLAY_CAP => {
                inner.requests.push((from.to_string(), message.clone()));
            }
            Kind::AskOut if inner.replies.len() < REPLY_CAP => inner.replies.push(message.clone()),
            _ => {}
        }
    }
}

/// One request's span tree, client side and fabric side joined.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    pub seq: u64,
    pub send: SendRec,
    pub recv: RecvRec,
    /// Request entered the fabric → reply entered the fabric.
    pub in_broker: (u64, u64),
    /// Forwarded hops inside `in_broker`, each request → reply.
    pub hops: Vec<(u64, u64)>,
}

impl RequestTrace {
    /// Time in the entry broker itself: its span minus the part of it the
    /// forwarded hops cover.
    pub fn entry_self(&self) -> u64 {
        let mut hops = self.hops.clone();
        hops.sort_unstable();
        let (start, end) = self.in_broker;
        let (mut covered, mut cursor) = (0, start);
        for (a, b) in hops {
            let (a, b) = (a.max(cursor), b.min(end));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        (end - start).saturating_sub(covered)
    }
}

/// Joins tap events with the client-side stamps of the traced asks. A
/// forward belongs to the client ask open when it entered the fabric —
/// exact with one closed-loop client, which is the only workload that
/// forwards.
pub fn request_traces(
    events: &[TapEvent],
    sends: &[SendRec],
    recvs: &[RecvRec],
    first_seq: u64,
) -> Vec<RequestTrace> {
    let mut ask_in: HashMap<u64, u64> = HashMap::new();
    let mut fwd_in: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut hops: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut ask_out: HashMap<u64, u64> = HashMap::new();
    let mut open: Option<u64> = None;
    let mut ordered: Vec<&TapEvent> = events.iter().collect();
    ordered.sort_by_key(|e| e.t);
    for e in ordered {
        match e.kind {
            Kind::AskIn => {
                ask_in.insert(e.id, e.t);
                open = Some(e.id);
            }
            Kind::AskOut => {
                ask_out.insert(e.id, e.t);
            }
            Kind::ForwardIn => {
                if let Some(parent) = open {
                    fwd_in.insert(e.id, (parent, e.t));
                }
            }
            Kind::ForwardOut => {
                if let Some((parent, start)) = fwd_in.remove(&e.id) {
                    hops.entry(parent).or_default().push((start, e.t));
                }
            }
            _ => {}
        }
    }
    recvs
        .iter()
        .filter(|r| r.seq >= first_seq && r.ok)
        .filter_map(|r| {
            let start = *ask_in.get(&r.seq)?;
            let end = *ask_out.get(&r.seq)?;
            Some(RequestTrace {
                seq: r.seq,
                send: *sends.get(r.seq as usize)?,
                recv: *r,
                in_broker: (start, end.max(start)),
                hops: hops.remove(&r.seq).unwrap_or_default(),
            })
        })
        .collect()
}

/// The spans of one request as JSON lines: name, start, end, parent,
/// request id.
pub fn span_lines(t: &RequestTrace, out: &mut String) {
    let id = format!("a{}", t.seq);
    let mut line = |name: &str, start: u64, end: u64, parent: Option<&str>| {
        let span = Json::obj([
            ("name", Json::str(name)),
            ("start_ns", Json::Num(start as f64)),
            ("end_ns", Json::Num(end as f64)),
            ("parent", parent.map_or(Json::Null, Json::str)),
            ("request", Json::str(id.as_str())),
        ]);
        out.push_str(&span.render());
        out.push('\n');
    };
    line("ask", t.send.due, t.recv.done, None);
    line("client.encode", t.send.enc0, t.send.enc1, Some("ask"));
    line("transport.send", t.send.enc1, t.send.sent, Some("ask"));
    line("broker.inbox_to_reply", t.in_broker.0, t.in_broker.1, Some("ask"));
    for (a, b) in &t.hops {
        line("forward.hop", *a, *b, Some("broker.inbox_to_reply"));
    }
    line("transport.reply", t.in_broker.1, t.recv.recv, Some("ask"));
    line("client.decode", t.recv.recv, t.recv.done, Some("ask"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, base: u64) -> (SendRec, RecvRec) {
        (
            SendRec { due: base, enc0: base + 1, enc1: base + 3, sent: base + 5 },
            RecvRec { seq, recv: base + 90, done: base + 95, ok: true, matches: 4 },
        )
    }

    #[test]
    fn self_time_is_duration_minus_what_the_hops_cover() {
        let (send, recv) = rec(0, 0);
        // Two overlapping hops (10..40, 30..60) and one outside the span.
        let t = RequestTrace {
            seq: 0,
            send,
            recv,
            in_broker: (4, 80),
            hops: vec![(30, 60), (10, 40), (85, 99)],
        };
        assert_eq!(t.entry_self(), 76 - 50);
        let lone = RequestTrace { hops: Vec::new(), ..t };
        assert_eq!(lone.entry_self(), 76);
    }

    #[test]
    fn forwards_attach_to_the_ask_open_when_they_entered() {
        let ev = |t, kind, id| TapEvent { t, kind, id, cross: false };
        let events = vec![
            ev(4, Kind::AskIn, 0),
            ev(10, Kind::ForwardIn, 777),
            ev(40, Kind::ForwardOut, 777),
            ev(80, Kind::AskOut, 0),
            ev(104, Kind::AskIn, 1),
            ev(180, Kind::AskOut, 1),
        ];
        let (s0, r0) = rec(0, 0);
        let (s1, r1) = rec(1, 100);
        let traces = request_traces(&events, &[s0, s1], &[r0, r1], 0);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].hops, vec![(10, 40)]);
        assert!(traces[1].hops.is_empty());
        assert_eq!(request_traces(&events, &[s0, s1], &[r0, r1], 1).len(), 1);
        let mut out = String::new();
        span_lines(&traces[0], &mut out);
        assert_eq!(out.lines().count(), 7, "ask + five layers + one hop");
        assert!(out.lines().all(|l| crate::json::parse(l).is_ok()));
    }
}
