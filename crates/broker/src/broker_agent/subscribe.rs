//! The `subscribe` / `unsubscribe` conversations and the notification
//! fan-out they set up: "subscribe to changes in the set of matching
//! agents" (§2.2). Notifications are `tell`s carrying a `sub-delta` (only
//! agents that entered or left the match set) to the `:reply-to` endpoint,
//! tagged with the subscription key as `:in-reply-to` and sent beside the
//! trace context the subscribe message arrived with.

use super::{error_reply, push_out, reply_as_broker, sorry_reply, Outbox, Shared, State};
use crate::codec;
use crate::match_cache::QueryKey;
use crate::matchmaker::Matchmaker;
use crate::sub_index::{view, Note, RecordId, SubscriptionRegistry};
use crate::{MatchRow, Repository};
use infosleuth_agent::{AgentContext, Envelope};
use infosleuth_kqml::{Block, Message, Performative, SExpr, Text};
use infosleuth_obs::sync::lock;
use infosleuth_ontology::ServiceQuery;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Registers a standing service query on the record of its untruncated
/// form and sends the initial snapshot — the delta against the empty set,
/// so the subscriber learns the baseline the following deltas build on —
/// then the ack carrying the key.
pub(super) fn handle_subscribe(shared: &Shared, ctx: &AgentContext, env: &Envelope) {
    let msg = &env.message;
    let Some(content) = msg.content() else {
        return reply_as_broker(ctx, &env.from, error_reply(env, "subscribe without content"));
    };
    let query = match codec::service_query_from_sexpr(content) {
        Ok(q) => q,
        Err(e) => return reply_as_broker(ctx, &env.from, error_reply(env, e.to_string())),
    };
    let subscriber = Text::from(msg.get_text("reply-to").unwrap_or(&env.from));
    // This runs directly under the dispatch span, which continued the
    // subscriber's context.
    let trace = infosleuth_obs::continued_context();
    shared.with_state(ctx, |state, out| {
        let repo = &mut state.repo;
        // Admission: an unsatisfiable or vacuous standing query would be
        // paid for on every repository mutation — reject it with the
        // rendered diagnostics instead.
        let report = repo.analyze_subscription(&subscriber, &query);
        if report.has_errors() {
            let sorry = sorry_reply(env, report.render_human(None));
            return push_out(out, &env.from, sorry, None);
        }
        // One rendering of the untruncated query keys both the match
        // cache and the subscription's record.
        let cut = query.max_matches;
        let whole = ServiceQuery { max_matches: None, ..query };
        let key = QueryKey::new(&whole);
        let rows = Matchmaker::default().match_key_cached(repo, &shared.cache, key.clone());
        let mut table = shared.cache.table();
        let sub_key = msg
            .reply_with()
            .map(Text::from)
            .unwrap_or_else(|| table.records.fresh_key(&subscriber));
        let registered = table.records.register_keyed(
            sub_key.clone(),
            subscriber.clone(),
            trace,
            cut,
            key,
            Arc::clone(&rows),
        );
        drop(table);
        if registered.is_none() {
            let refusal = format!("{subscriber} already holds subscription {sub_key}");
            return push_out(out, &env.from, sorry_reply(env, refusal), None);
        }
        let snapshot = Message::new(Performative::Tell)
            .with_in_reply_to(sub_key.clone())
            .with_ontology("infosleuth-service")
            .with_content(codec::sub_delta_to_sexpr(repo.epoch(), view(&rows, cut), &[]));
        push_out(out, &subscriber, snapshot, trace);
        shared.obs.subscribes.inc();
        // Ack after the snapshot so a subscriber that is also the
        // requester observes a deterministic sequence.
        let ack = msg.reply_skeleton(Performative::Tell).with_content(SExpr::atom(sub_key));
        push_out(out, &env.from, ack, None);
    });
}

/// Cancels a standing subscription: content (or `:in-reply-to`) names the
/// subscription key; only the registered subscriber may cancel it.
pub(super) fn handle_unsubscribe(shared: &Shared, ctx: &AgentContext, env: &Envelope) {
    let msg = &env.message;
    let key = msg.content().and_then(SExpr::as_text).or_else(|| msg.in_reply_to());
    let subscriber = msg.get_text("reply-to").unwrap_or(&env.from);
    let removed = key.is_some_and(|key| {
        let _state = lock(&shared.state);
        shared.cache.table().records.unsubscribe(key, subscriber)
    });
    let perf = if removed { Performative::Tell } else { Performative::Sorry };
    reply_as_broker(ctx, &env.from, msg.reply_skeleton(perf));
}

/// A write in progress: the repository epoch it starts from, the agents it
/// changed, and the stored records their versions reach.
pub(super) struct Reach {
    from: u64,
    changed: Vec<Text>,
    records: BTreeSet<RecordId>,
}

impl Reach {
    pub(super) fn new(state: &State) -> Reach {
        Reach { from: state.repo.epoch(), changed: Vec::new(), records: BTreeSet::new() }
    }
}

/// Applies `mutate`, a change to `agent`'s advertisement that reports
/// whether it took effect, and adds to `reach` the records it must patch:
/// the index's candidates for the advertisement as posted before the
/// change — what derived rules granted it is withdrawn with it — and
/// after.
pub(super) fn mutate(
    shared: &Shared,
    state: &mut State,
    reach: &mut Reach,
    agent: &str,
    mutate: impl FnOnce(&mut Repository) -> bool,
) -> bool {
    let table = shared.cache.table();
    let repo = &mut state.repo;
    if table.records.records() == 0 {
        return mutate(repo);
    }
    let mut before = table.records.affected(repo.advertisement(agent), None, repo);
    if !mutate(repo) {
        return false;
    }
    shared.obs.sub_events.inc();
    reach.records.append(&mut before);
    reach.records.append(&mut table.records.affected(None, repo.advertisement(agent), repo));
    if !reach.changed.iter().any(|name| name == agent) {
        reach.changed.push(agent.into());
    }
    true
}

/// Patches each record `reach` holds — records it does not hold stay
/// valid — advances the table to the repository's epoch, and queues a
/// `sub-delta` for every subscription whose view changed. A table that
/// was not current when the write began is matched again instead.
pub(super) fn notify(shared: &Shared, state: &State, reach: Reach, out: &mut Outbox) {
    let mut table = shared.cache.table();
    let notes = if table.epoch() == reach.from {
        if reach.records.is_empty() {
            Vec::new()
        } else {
            shared.obs.sub_affected.add(reach.records.len() as u64);
            let _timer = shared.obs.obs.stage(&shared.obs.sub_notify, "sub-notify");
            table.records.patch(&state.repo, &reach.changed, &reach.records)
        }
    } else {
        table.records.rematch(&state.repo)
    };
    table.advance(state.repo.epoch());
    send(shared, &table.records, state.repo.epoch(), notes, out);
}

/// Makes the table current after a mutation no write patched (an ontology
/// or rule registration, or seeding through the handle): the records no
/// subscription pins are dropped, each pinned one is matched again, and
/// every subscription whose view changed is notified.
pub(super) fn resync(shared: &Shared, state: &State, out: &mut Outbox) {
    let mut table = shared.cache.table();
    let epoch = state.repo.epoch();
    if table.epoch() == epoch {
        return;
    }
    let notes = table.records.rematch(&state.repo);
    table.advance(epoch);
    send(shared, &table.records, epoch, notes, out);
}

/// Queues one `sub-delta` per note, ascending by subscription id, so
/// notification sequences are deterministic and identical to a naive
/// re-evaluation of everything. Each distinct delta is printed once, into
/// a block every notification that carries it shares.
fn send(
    shared: &Shared,
    records: &SubscriptionRegistry,
    epoch: u64,
    notes: Vec<Note>,
    out: &mut Outbox,
) {
    let mut bodies: HashMap<(Vec<MatchRow>, Vec<String>), Arc<Block>> = HashMap::new();
    for (id, record, matched, unmatched) in notes {
        let Some(sub) = records.subscription(record, id) else { continue };
        let body = bodies.entry((matched, unmatched)).or_insert_with_key(|(matched, unmatched)| {
            Arc::new(codec::sub_delta_block(epoch, matched, unmatched))
        });
        let note = Message::new(Performative::Tell)
            .with_in_reply_to(sub.sub_key.clone())
            .with_ontology("infosleuth-service")
            .with_content(SExpr::Block(Arc::clone(body), 0));
        shared.obs.sub_notifications.inc();
        push_out(out, &sub.subscriber, note, sub.trace);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{resource_ad, seeded_repo, spawn_broker, T};
    use crate::{
        advertise_to, codec, query_broker, subscribe_to, unadvertise_from, unsubscribe_from,
        BrokerAgent, BrokerConfig, SearchPolicy,
    };
    use infosleuth_agent::{AgentRuntime, Bus, RuntimeConfig};
    use infosleuth_kqml::{Message, Performative, SExpr};
    use infosleuth_ontology::{AgentType, Capability, ServiceQuery};
    use std::time::Duration;

    /// One frame as the wire carries it: `(from, to, body)`.
    type Frame = (String, String, String);

    /// A bare listener standing in for a subscriber's node: it acks the
    /// first `n` frames it reads and returns them.
    fn catch_frames(n: usize) -> (u16, std::thread::JoinHandle<Vec<Frame>>) {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let catcher = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            (0..n)
                .map(|_| {
                    let mut len = [0u8; 4];
                    stream.read_exact(&mut len).unwrap();
                    let mut payload = vec![0; u32::from_be_bytes(len) as usize];
                    stream.read_exact(&mut payload).unwrap();
                    stream.write_all(&[0]).unwrap();
                    let mut at = 0;
                    let mut field = |width: usize| {
                        let len =
                            payload[at..at + width].iter().fold(0, |n, &b| n << 8 | b as usize);
                        at += width + len;
                        String::from_utf8(payload[at - len..at].to_vec()).unwrap()
                    };
                    (field(2), field(2), field(4))
                })
                .collect()
        });
        (port, catcher)
    }

    #[test]
    fn the_outbox_sends_beside_the_sending_span_or_the_subscribers_context() {
        use infosleuth_agent::{AgentAddress, TcpTransport, Transport, TransportExt};
        use infosleuth_obs::{Obs, RingSink, SpanId, SpanSink, TraceContext, TraceId};
        use std::sync::Arc;
        let (port, catcher) = catch_frames(2);
        let node = TcpTransport::bind("127.0.0.1:0").unwrap();
        node.add_route("watcher", AgentAddress::tcp("127.0.0.1", port));
        let transport: Arc<dyn Transport> = node;
        let sink = Arc::new(RingSink::new(64));
        let obs = Obs::new();
        obs.tracer().add_sink(Arc::clone(&sink) as Arc<dyn SpanSink>);
        let runtime =
            AgentRuntime::new(Arc::clone(&transport), RuntimeConfig::default().with_obs(obs));
        let config =
            BrokerConfig::new("broker1", "tcp://broker1.mcc.com:5500").with_ping_interval(None);
        let broker = BrokerAgent::spawn_on(&runtime, config, seeded_repo()).unwrap();
        let mut client = transport.endpoint("client").unwrap();
        let query = |class: &str| {
            ServiceQuery::for_agent_type(AgentType::Resource)
                .with_ontology("paper-classes")
                .with_classes([class])
        };
        // An untraced subscribe: its snapshot leaves the outbox beside the
        // broker's dispatch span.
        let first = subscribe_to(&mut client, "broker1", &query("C1"), "watcher", T).unwrap();
        // A traced one: its snapshot goes beside the subscriber's context.
        let sent = TraceContext { trace: TraceId(0x5eed), span: SpanId(7) };
        let subscribe = Message::new(Performative::Subscribe)
            .with_ontology("infosleuth-service")
            .with("reply-to", SExpr::atom("watcher"))
            .with_content(codec::service_query_to_sexpr(&query("C2")))
            .with_reply_with("sub-2");
        transport.send_traced("client", "broker1", subscribe, Some(sent)).unwrap();
        let frames = catcher.join().unwrap();
        broker.stop();
        runtime.shutdown();
        let mut contexts = Vec::new();
        for ((from, to, body), key) in frames.iter().zip([first.unwrap(), "sub-2".into()]) {
            assert_eq!((from.as_str(), to.as_str()), ("broker1", "watcher"));
            let tell = Message::parse(body).unwrap();
            let keys: Vec<&str> = tell.params().map(|(k, _)| k).collect();
            assert_eq!(
                keys,
                ["in-reply-to", "ontology", "content", "sender", "receiver", "x-trace"]
            );
            assert_eq!(tell.in_reply_to(), Some(key.as_str()));
            assert_eq!((tell.sender(), tell.receiver()), (Some("broker1"), Some("watcher")));
            contexts.push(TraceContext::parse(tell.trace().unwrap()).unwrap());
        }
        let spans = sink.drain();
        let span = spans.iter().find(|r| r.span == contexts[0].span).expect("the sending span");
        assert_eq!((span.name.as_str(), span.agent.as_str()), ("recv:subscribe", "broker1"));
        assert_eq!(span.trace, contexts[0].trace);
        assert_eq!(contexts[1], sent, "the subscriber's context");
    }

    #[test]
    fn subscribe_notifies_on_churn_and_unsubscribe_stops_it() {
        let bus = Bus::new();
        let broker = spawn_broker(&bus, "broker1");
        let mut inbox = bus.register("watcher").unwrap();
        let mut client = bus.register("client").unwrap();

        let query = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"]);
        let key = subscribe_to(&mut client, "broker1", &query, "watcher", T).unwrap().unwrap();

        // Initial snapshot: empty repository, empty delta.
        let snap = inbox.recv_timeout(T).unwrap().message;
        assert_eq!(snap.performative, Performative::Tell);
        assert_eq!(snap.in_reply_to(), Some(key.as_str()));
        let (_, matched, unmatched) = codec::sub_delta_from_sexpr(snap.content().unwrap()).unwrap();
        assert!(matched.is_empty() && unmatched.is_empty());

        // A matching advertisement arrives: one `matched` entry.
        assert!(advertise_to(&mut client, "broker1", &resource_ad("ra1", &["C1"]), T).unwrap());
        let note = inbox.recv_timeout(T).unwrap().message;
        let (_, matched, unmatched) = codec::sub_delta_from_sexpr(note.content().unwrap()).unwrap();
        assert_eq!(matched.len(), 1);
        assert_eq!(matched[0].name, "ra1");
        assert!(unmatched.is_empty());

        // A non-matching advertisement: no notification at all.
        assert!(advertise_to(&mut client, "broker1", &resource_ad("ra2", &["C3"]), T).unwrap());
        // Its unadvertise produces the next notification we receive below.
        assert!(unadvertise_from(&mut client, "broker1", "ra1", T).unwrap());
        let note = inbox.recv_timeout(T).unwrap().message;
        let (_, matched, unmatched) = codec::sub_delta_from_sexpr(note.content().unwrap()).unwrap();
        assert!(matched.is_empty());
        assert_eq!(unmatched, vec!["ra1".to_string()]);

        assert_eq!(broker.subscription_count(), 1);
        assert!(unsubscribe_from(&mut client, "broker1", &key, "watcher", T).unwrap());
        assert_eq!(broker.subscription_count(), 0);
        assert!(advertise_to(&mut client, "broker1", &resource_ad("ra3", &["C1"]), T).unwrap());
        assert!(inbox.recv_timeout(Duration::from_millis(200)).is_none());
        broker.stop();
    }

    /// A subscriber holds one subscription per key: a second `subscribe`
    /// under a key it already holds is refused, so the one unsubscribe
    /// leaves nothing behind to notify.
    #[test]
    fn a_repeated_key_is_refused_and_unsubscribe_leaves_nothing() {
        let bus = Bus::new();
        let broker = spawn_broker(&bus, "broker1");
        let mut inbox = bus.register("watcher").unwrap();
        let mut client = bus.register("client").unwrap();
        let query = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"]);
        let subscribe = || {
            Message::new(Performative::Subscribe)
                .with("reply-to", SExpr::atom("watcher"))
                .with_content(codec::service_query_to_sexpr(&query))
                .with_reply_with("dup")
        };
        // Sent as they are: a request would key each under a fresh
        // `:reply-with` of its own.
        let mut ask = |msg: Message| {
            client.send("broker1", msg).unwrap();
            client.recv_timeout(T).expect("a reply").message
        };
        let first = ask(subscribe());
        assert_eq!(first.performative, Performative::Tell);
        assert_eq!(first.content().and_then(SExpr::as_text), Some("dup"));
        inbox.recv_timeout(T).expect("the snapshot");
        let second = ask(subscribe());
        assert_eq!(second.performative, Performative::Sorry, "{second}");
        assert!(inbox.recv_timeout(Duration::from_millis(100)).is_none(), "no second snapshot");
        assert_eq!(broker.subscription_count(), 1);

        assert!(unsubscribe_from(&mut client, "broker1", "dup", "watcher", T).unwrap());
        assert_eq!(broker.subscription_count(), 0);
        assert!(advertise_to(&mut client, "broker1", &resource_ad("ra1", &["C1"]), T).unwrap());
        assert!(inbox.recv_timeout(Duration::from_millis(200)).is_none(), "no delta after cancel");
        broker.stop();
    }

    /// A subscribe that names no key gets one its subscriber does not
    /// hold: `sub-2`, the key the broker would mint next, is taken.
    #[test]
    fn a_keyless_subscribe_is_given_a_key_its_subscriber_does_not_hold() {
        let bus = Bus::new();
        let broker = spawn_broker(&bus, "broker1");
        let mut inbox = bus.register("watcher").unwrap();
        let mut client = bus.register("client").unwrap();
        let query = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"]);
        let mut subscribe = |key: Option<&str>| {
            let mut msg = Message::new(Performative::Subscribe)
                .with("reply-to", SExpr::atom("watcher"))
                .with_content(codec::service_query_to_sexpr(&query));
            if let Some(key) = key {
                msg = msg.with_reply_with(key);
            }
            client.send("broker1", msg).unwrap();
            client.recv_timeout(T).expect("a reply").message
        };
        let named = subscribe(Some("sub-2"));
        assert_eq!(named.content().and_then(SExpr::as_text), Some("sub-2"));
        let minted = subscribe(None);
        assert_eq!(minted.performative, Performative::Tell, "{minted}");
        assert_eq!(minted.content().and_then(SExpr::as_text), Some("sub-3"));
        assert_eq!(broker.subscription_count(), 2);
        for _ in 0..2 {
            inbox.recv_timeout(T).expect("a snapshot");
        }
        broker.stop();
    }

    #[test]
    fn subscription_admission_rejects_vacuous_queries() {
        let bus = Bus::new();
        let broker = spawn_broker(&bus, "broker1");
        let mut client = bus.register("client").unwrap();
        let msg = Message::new(Performative::Subscribe)
            .with_content(codec::service_query_to_sexpr(&ServiceQuery::any()));
        let reply = client.request("broker1", msg, T).unwrap();
        assert_eq!(reply.performative, Performative::Sorry);
        let text = reply.content().and_then(SExpr::as_text).unwrap().to_string();
        assert!(text.contains("IS027"), "diagnostics not rendered: {text}");
        assert_eq!(broker.subscription_count(), 0);
        broker.stop();
    }

    #[test]
    fn resync_after_out_of_band_rule_delta_notifies() {
        let bus = Bus::new();
        let broker = spawn_broker(&bus, "broker1");
        let mut inbox = bus.register("watcher").unwrap();
        let mut client = bus.register("client").unwrap();
        assert!(advertise_to(&mut client, "broker1", &resource_ad("ra1", &["C1"]), T).unwrap());

        let query = ServiceQuery::any().with_capability(Capability::subscription());
        let key = subscribe_to(&mut client, "broker1", &query, "watcher", T).unwrap().unwrap();
        let snap = inbox.recv_timeout(T).unwrap().message;
        let (_, matched, _) = codec::sub_delta_from_sexpr(snap.content().unwrap()).unwrap();
        assert!(matched.is_empty());

        // Out-of-band derived rule: every resource agent now also counts
        // as a subscription agent. The repository mutation happens outside
        // any performative, so the test drives the resync.
        broker.with_repository(|r| {
            r.register_derived_rules("cap(A, subscription) :- agent(A, resource).").unwrap()
        });
        let note = inbox.recv_timeout(T).unwrap().message;
        assert_eq!(note.in_reply_to(), Some(key.as_str()));
        let (_, matched, unmatched) = codec::sub_delta_from_sexpr(note.content().unwrap()).unwrap();
        assert_eq!(matched.len(), 1);
        assert_eq!(matched[0].name, "ra1");
        assert!(unmatched.is_empty());
        broker.stop();
    }

    /// A broker under a derived rule never builds a model of its
    /// repository: registering the rule posts the one advertisement again
    /// and each advertise saturates its own facts — the `saturation` stage,
    /// once each — while asks, subscription re-scores and unadvertise never
    /// enter it. What the rule grants is matched and notified like what is
    /// advertised.
    #[test]
    fn a_broker_under_rules_builds_no_fact_base() {
        let bus = Bus::new();
        let runtime = AgentRuntime::new(bus.as_transport(), RuntimeConfig::default());
        let config = BrokerConfig::new("broker1", "tcp://broker1.mcc.com:5500");
        let broker = BrokerAgent::spawn_on(&runtime, config, seeded_repo()).unwrap();
        let labels = [("broker", "broker1"), ("stage", "saturation")];
        let saturations = runtime.obs().registry().histogram("broker_stage_seconds", &labels);
        let mut inbox = bus.register("watcher").unwrap();
        let mut client = bus.register("client").unwrap();
        let query = ServiceQuery::any().with_capability(Capability::subscription());
        let ask = |client: &mut _| -> Vec<String> {
            let found = query_broker(client, "broker1", &query, Some(SearchPolicy::local()), T);
            found.unwrap().into_iter().map(|m| m.name).collect()
        };

        assert!(advertise_to(&mut client, "broker1", &resource_ad("ra1", &["C1"]), T).unwrap());
        assert!(ask(&mut client).is_empty());
        subscribe_to(&mut client, "broker1", &query, "watcher", T).unwrap().unwrap();
        inbox.recv_timeout(T).unwrap();
        assert_eq!(saturations.count(), 0, "no rule, no saturation");

        broker.with_repository(|r| {
            r.register_derived_rules("cap(A, subscription) :- agent(A, resource).").unwrap()
        });
        inbox.recv_timeout(T).unwrap();
        assert_eq!(saturations.count(), 1, "ra1 posted again");
        assert_eq!(ask(&mut client), ["ra1"]);
        assert!(advertise_to(&mut client, "broker1", &resource_ad("ra2", &["C1"]), T).unwrap());
        let note = inbox.recv_timeout(T).unwrap().message;
        let (_, matched, _) = codec::sub_delta_from_sexpr(note.content().unwrap()).unwrap();
        assert_eq!(matched.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(), ["ra2"]);
        assert_eq!(ask(&mut client), ["ra1", "ra2"]);
        assert!(unadvertise_from(&mut client, "broker1", "ra2", T).unwrap());
        let note = inbox.recv_timeout(T).unwrap().message;
        let (_, _, unmatched) = codec::sub_delta_from_sexpr(note.content().unwrap()).unwrap();
        assert_eq!(unmatched, ["ra2"]);
        assert_eq!(saturations.count(), 2, "one more for ra2's advertise, none for the rest");
        broker.stop();
    }

    #[test]
    fn unsupported_performative_gets_error() {
        let bus = Bus::new();
        let broker = spawn_broker(&bus, "broker1");
        let mut agent = bus.register("client").unwrap();
        let msg = Message::new(Performative::Other("achieve".into()));
        let reply = agent.request("broker1", msg, T).unwrap();
        assert_eq!(reply.performative, Performative::Error);
        broker.stop();
    }
}
