//! The `mutation` conversation: advertise / update / unadvertise, answered
//! with `tell`, `sorry` or `error` (Figure 3, §2.2), plus the two things
//! brokers say to each other with the same performatives — the peer hello
//! and the one-way digest re-advertisement (§4, DESIGN.md §17).

use super::{error_reply, push_out, sorry_reply, subscribe, Outbox, Shared, State};
use crate::codec;
use crate::objective::{AdmissionDecision, BrokerObjective};
use infosleuth_agent::Envelope;
use infosleuth_kqml::{Message, Performative, SExpr};
use infosleuth_ontology::{Advertisement, BrokerAdvertisement};

/// Applies one mutation against the locked state. Outgoing traffic is
/// queued on `out` in send order: sub-deltas first, so a subscriber that
/// is also the advertiser sees a deterministic sequence; then digest
/// re-advertisements; the ack last. The updates are sent before the ack,
/// but a peer may still handle a query that follows the ack first: its
/// runtime can dispatch both in one pass to two workers, and the query
/// may take the state lock before the update does. A caller that needs a
/// peer to route on the new digest waits until that peer holds it.
pub(super) fn apply(shared: &Shared, state: &mut State, env: &Envelope, out: &mut Outbox) {
    if env.message.performative == Performative::Unadvertise {
        unadvertise(shared, state, env, out);
    } else {
        advertise(shared, state, env, out);
    }
}

/// Advertise / update: the content head says who is speaking — a peer's
/// digest, a peer broker introducing itself, or an agent.
fn advertise(shared: &Shared, state: &mut State, env: &Envelope, out: &mut Outbox) {
    shared.obs.advertises.inc();
    let Some(content) = env.message.content() else {
        return push_out(out, &env.from, error_reply(env, "advertise without content"), None);
    };
    let reply = match content.head() {
        Some("digest") => match codec::digest_from_sexpr(content) {
            // Delta-driven and one-way: refresh the routing entry; no
            // reply is owed.
            Ok(digest) => return shared.ingest_digest(state, digest, false),
            Err(e) => error_reply(env, e.to_string()),
        },
        Some("broker-advertisement") => match codec::broker_advertisement_from_sexpr(content) {
            Ok(peer) => peer_hello(shared, state, env, content, peer),
            Err(e) => error_reply(env, e.to_string()),
        },
        _ => match codec::advertisement_from_sexpr(content) {
            Ok(ad) => admit(shared, state, env, ad, out),
            Err(e) => error_reply(env, e.to_string()),
        },
    };
    push_out(out, &env.from, reply, None);
}

/// A peer broker advertising itself: store it and reciprocate with our own
/// advertisement (and digest) so the sender can store both — one round
/// trip establishes mutual knowledge.
fn peer_hello(
    shared: &Shared,
    state: &mut State,
    env: &Envelope,
    content: &SExpr,
    peer: BrokerAdvertisement,
) -> Message {
    if let Err(e) = shared.store_peer(state, content, peer) {
        return sorry_reply(env, e.to_string());
    }
    let digest = shared.own_digest(state);
    env.message.reply_skeleton(Performative::Tell).with_content(codec::broker_hello_to_sexpr(
        &shared.config.broker_advertisement(),
        Some(&digest),
    ))
}

/// An agent's advertisement: admitted against the broker's objective
/// (§3.2), stored, and announced to the subscriptions it affects.
fn admit(
    shared: &Shared,
    state: &mut State,
    env: &Envelope,
    ad: Advertisement,
    out: &mut Outbox,
) -> Message {
    // Fit of each known peer, from their advertised specialties.
    let peer_fits: Vec<(String, f64)> = state
        .repo
        .broker_advertisements()
        .map(|b| {
            let objective = if b.specialization.ontologies.is_empty() {
                BrokerObjective::GeneralPurpose
            } else {
                BrokerObjective::Specialized { ontologies: b.specialization.ontologies.clone() }
            };
            (b.base.location.name.to_string(), objective.fit(&ad))
        })
        .collect();
    match shared.config.objective.admit(&ad, &peer_fits) {
        AdmissionDecision::Accept => {
            let name = ad.location.name.clone();
            let mut result = Ok(());
            let mut reach = subscribe::Reach::new(state);
            subscribe::mutate(shared, state, &mut reach, &name, |repo| {
                result = repo.advertise(ad);
                result.is_ok()
            });
            subscribe::notify(shared, state, reach, out);
            shared.broadcast_digest(state, out);
            match result {
                Ok(_) => env.message.reply_skeleton(Performative::Tell),
                Err(e) => sorry_reply(env, e.to_string()),
            }
        }
        AdmissionDecision::Forward { candidates } => {
            // "If no brokers accept the advertisement, the broker …
            // will reply with a sorry message", listing better fits
            // when it has suggestions.
            let suggestions = candidates.iter().map(SExpr::atom);
            let content =
                SExpr::list(std::iter::once(SExpr::atom("forward-to")).chain(suggestions));
            env.message.reply_skeleton(Performative::Sorry).with_content(content)
        }
    }
}

fn unadvertise(shared: &Shared, state: &mut State, env: &Envelope, out: &mut Outbox) {
    shared.obs.unadvertises.inc();
    // Content is the agent name (atom) or absent (sender unadvertises
    // itself).
    let name = env.message.content().and_then(SExpr::as_text).unwrap_or(&env.from);
    let mut reach = subscribe::Reach::new(state);
    let removed = subscribe::mutate(shared, state, &mut reach, name, |r| r.unadvertise(name)) || {
        let was_broker = state.repo.unadvertise_broker(name);
        if was_broker {
            state.routing.forget(name);
        }
        was_broker
    };
    subscribe::notify(shared, state, reach, out);
    shared.broadcast_digest(state, out);
    let perf = if removed { Performative::Tell } else { Performative::Sorry };
    push_out(out, &env.from, env.message.reply_skeleton(perf), None);
}

#[cfg(test)]
mod tests {
    use super::super::tests::{resource_ad, seeded_repo, spawn_broker, T};
    use super::super::{interconnect, BrokerAgent};
    use crate::{
        advertise_to, codec, query_broker, unadvertise_from, BrokerConfig, BrokerObjective,
        CapabilityDigest, SearchPolicy,
    };
    use infosleuth_agent::Bus;
    use infosleuth_kqml::{Message, Performative, SExpr};
    use infosleuth_obs::sync::lock;
    use infosleuth_ontology::{AgentType, OntologyContent, ServiceQuery};

    #[test]
    fn advertise_query_unadvertise_conversation() {
        let bus = Bus::new();
        let broker = spawn_broker(&bus, "broker1");
        let mut agent = bus.register("client").unwrap();
        assert!(advertise_to(&mut agent, "broker1", &resource_ad("ra1", &["C1"]), T).unwrap());
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"]);
        let matches = query_broker(&mut agent, "broker1", &q, None, T).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].name, "ra1");
        assert!(unadvertise_from(&mut agent, "broker1", "ra1", T).unwrap());
        assert!(query_broker(&mut agent, "broker1", &q, None, T).unwrap().is_empty());
        broker.stop();
    }

    #[test]
    fn invalid_advertisement_is_declined() {
        let bus = Bus::new();
        let broker = spawn_broker(&bus, "broker1");
        let mut agent = bus.register("client").unwrap();
        let mut bad = resource_ad("ra1", &["C1"]);
        bad.location.address = "not-an-address".into();
        assert!(!advertise_to(&mut agent, "broker1", &bad, T).unwrap());
        broker.stop();
    }

    #[test]
    fn analysis_rejection_sorry_carries_diagnostics() {
        let bus = Bus::new();
        let broker = spawn_broker(&bus, "broker1");
        let mut agent = bus.register("client").unwrap();
        // 'C9' is not a class of the registered paper ontology: the static
        // analyzer rejects with IS021 and the sorry carries the report.
        let bad = resource_ad("ra1", &["C9"]);
        let msg =
            Message::new(Performative::Advertise).with_content(codec::advertisement_to_sexpr(&bad));
        let reply = agent.request("broker1", msg, T).unwrap();
        assert_eq!(reply.performative, Performative::Sorry);
        let text = reply.content().and_then(|c| c.as_text()).unwrap_or_default();
        assert!(text.contains("IS021"), "sorry lacks diagnostic: {text}");
        broker.stop();
    }

    #[test]
    fn rejected_digest_leaves_the_stored_one_in_place() {
        let bus = Bus::new();
        let b1 = spawn_broker(&bus, "broker1");
        let mut peer = bus.register("broker2").unwrap();
        let tell = |performative, content| {
            Message::new(performative).with_ontology("infosleuth-service").with_content(content)
        };
        // broker2 introduces itself with a digest at epoch 7.
        let mut good = CapabilityDigest::empty("broker2");
        good.epoch = 7;
        let me = BrokerConfig::new("broker2", "tcp://b2.mcc.com:5500").broker_advertisement();
        let hello = codec::broker_hello_to_sexpr(&me, Some(&good));
        peer.request("broker1", tell(Performative::Advertise, hello), T).unwrap();
        assert_eq!(b1.peer_digest_epoch("broker2"), Some(7));
        // Epoch 8 with a probe count no broker emits: answered with an
        // error, and epoch 7 stays on file.
        let bad = SExpr::parse(
            r#"(digest (broker broker2) (epoch 8) (ads 1) (k 4294967295) (bits "ffffffffffffffff"))"#,
        )
        .unwrap();
        let reply = peer.request("broker1", tell(Performative::Update, bad), T).unwrap();
        assert_eq!(reply.performative, Performative::Error);
        assert_eq!(b1.peer_digest_epoch("broker2"), Some(7));
        b1.stop();
    }

    #[test]
    fn an_overtaken_digest_update_leaves_the_newer_one_in_place() {
        let bus = Bus::new();
        let b1 = spawn_broker(&bus, "broker1");
        let mut peer = bus.register("broker2").unwrap();
        let at = |epoch| {
            let mut digest = CapabilityDigest::empty("broker2");
            digest.epoch = epoch;
            digest
        };
        let tell = |performative, content| {
            Message::new(performative).with_ontology("infosleuth-service").with_content(content)
        };
        let me = BrokerConfig::new("broker2", "tcp://b2.mcc.com:5500").broker_advertisement();
        let hello = |epoch| {
            tell(Performative::Advertise, codec::broker_hello_to_sexpr(&me, Some(&at(epoch))))
        };
        peer.request("broker1", hello(3), T).unwrap();
        // Updates are one-way, so each is waited for by count: epoch 8 is
        // in before epoch 7, which it overtook, arrives.
        for (taken_in, epoch) in [(2, 8), (3, 7)] {
            peer.send("broker1", tell(Performative::Update, codec::digest_to_sexpr(&at(epoch))))
                .unwrap();
            let deadline = std::time::Instant::now() + T;
            while b1.routing_stats().digest_updates < taken_in {
                assert!(std::time::Instant::now() < deadline, "update {epoch} never arrived");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        assert_eq!(b1.peer_digest_epoch("broker2"), Some(8));
        // A restarted peer counts from zero again, and says hello first.
        peer.request("broker1", hello(0), T).unwrap();
        assert_eq!(b1.peer_digest_epoch("broker2"), Some(0));
        b1.stop();
    }

    #[test]
    fn peerless_write_takes_no_digest_and_the_write_after_a_hello_broadcasts() {
        let bus = Bus::new();
        let b1 = spawn_broker(&bus, "broker1");
        let mut client = bus.register("client").unwrap();
        let advertised_epoch = || lock(&b1.shared.state).digest_advertised_epoch;
        let repo_epoch = || lock(&b1.shared.state).repo.epoch();
        // Nobody to tell: the write is acknowledged, nothing is recorded
        // as advertised.
        assert!(advertise_to(&mut client, "broker1", &resource_ad("ra1", &["C1"]), T).unwrap());
        assert_eq!(advertised_epoch(), None);
        // broker2 says hello; the reply carries the digest as of that write.
        let mut peer = bus.register("broker2").unwrap();
        let me = BrokerConfig::new("broker2", "tcp://b2.mcc.com:5500").broker_advertisement();
        let hello = Message::new(Performative::Advertise)
            .with_ontology("infosleuth-service")
            .with_content(codec::broker_hello_to_sexpr(&me, None));
        let reply = peer.request("broker1", hello, T).unwrap();
        let told = codec::embedded_digest(reply.content().unwrap()).unwrap();
        assert_eq!((told.epoch, told.ads), (repo_epoch(), 1));
        assert_eq!(advertised_epoch(), None);
        // The first write with a peer on file reaches it.
        assert!(advertise_to(&mut client, "broker1", &resource_ad("ra2", &["C3"]), T).unwrap());
        let update = peer.recv_timeout(T).expect("digest re-advertisement").message;
        assert_eq!(update.performative, Performative::Update);
        let digest = codec::digest_from_sexpr(update.content().unwrap()).unwrap();
        assert_eq!(
            (digest.broker.as_str(), digest.epoch, digest.ads),
            ("broker1", repo_epoch(), 2)
        );
        assert_eq!(advertised_epoch(), Some(repo_epoch()));
        b1.stop();
    }

    #[test]
    fn hop_count_limits_search_depth() {
        // Chain: broker1 knows broker2 knows broker3; agent only on broker3.
        let bus = Bus::new();
        let b1 = spawn_broker(&bus, "broker1");
        let b2 = spawn_broker(&bus, "broker2");
        let b3 = spawn_broker(&bus, "broker3");
        // Advertise before wiring the chain: stripping the reverse edges
        // below also severs the digest-update channel, so broker3's hello
        // digest must already cover ra9.
        let mut ra = bus.register("ra9").unwrap();
        advertise_to(&mut ra, "broker3", &resource_ad("ra9", &["C1"]), T).unwrap();
        b1.connect_peer("broker2").unwrap();
        b2.connect_peer("broker3").unwrap();
        // Remove reverse edges so the chain is strictly forward.
        b2.with_repository(|r| r.unadvertise_broker("broker1"));
        b3.with_repository(|r| r.unadvertise_broker("broker2"));
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"]);
        let hop1 = SearchPolicy { hop_count: 1, follow: crate::FollowOption::AllRepositories };
        assert!(query_broker(&mut ra, "broker1", &q, Some(hop1), T).unwrap().is_empty());
        let hop2 = SearchPolicy { hop_count: 2, follow: crate::FollowOption::AllRepositories };
        let found = query_broker(&mut ra, "broker1", &q, Some(hop2), T).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "ra9");
        b1.stop();
        b2.stop();
        b3.stop();
    }

    #[test]
    fn specialized_broker_forwards_mismatched_advertisements() {
        let bus = Bus::new();
        let health = BrokerAgent::spawn(
            &bus,
            BrokerConfig::new("health-broker", "tcp://h1:1")
                .with_objective(BrokerObjective::specialized(["healthcare"])),
            seeded_repo(),
        )
        .unwrap();
        let general = spawn_broker(&bus, "general-broker");
        health.connect_peer("general-broker").unwrap();
        let mut agent = bus.register("food-ra").unwrap();
        let mut food_ad = resource_ad("food-ra", &[]);
        food_ad.semantic.content = vec![OntologyContent::new("food").with_classes(["supplier"])];
        // The specialized broker declines and suggests the general one.
        let msg = Message::new(Performative::Advertise)
            .with_content(codec::advertisement_to_sexpr(&food_ad));
        let reply = agent.request("health-broker", msg, T).unwrap();
        assert_eq!(reply.performative, Performative::Sorry);
        let suggestions = reply.content().unwrap().as_list().unwrap();
        assert_eq!(suggestions[0], SExpr::atom("forward-to"));
        assert!(suggestions[1..].contains(&SExpr::atom("general-broker")));
        // The general broker accepts it.
        assert!(advertise_to(&mut agent, "general-broker", &food_ad, T).unwrap());
        health.stop();
        general.stop();
    }

    #[test]
    fn agents_discover_brokers_through_a_broker() {
        // §4.1: query a broker for the brokers available for a domain.
        let bus = Bus::new();
        let general = spawn_broker(&bus, "general-broker");
        let specialist = BrokerAgent::spawn(
            &bus,
            BrokerConfig::new("health-broker", "tcp://hb.mcc.com:5502")
                .with_objective(BrokerObjective::specialized(["healthcare"])),
            seeded_repo(),
        )
        .unwrap();
        interconnect(&[&general, &specialist]).unwrap();
        let mut agent = bus.register("newcomer").unwrap();
        // All brokers, any domain.
        let q = ServiceQuery::for_agent_type(AgentType::Broker);
        let all = query_broker(&mut agent, "general-broker", &q, None, T).unwrap();
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort();
        assert_eq!(names, vec!["general-broker", "health-broker"]);
        // Healthcare domain: the specialist ranks first.
        let q = ServiceQuery::for_agent_type(AgentType::Broker).with_ontology("healthcare");
        let hc = query_broker(&mut agent, "general-broker", &q, None, T).unwrap();
        assert_eq!(hc[0].name, "health-broker");
        assert_eq!(hc.len(), 2); // generalist still serves any domain
                                 // Food domain: the healthcare specialist is excluded.
        let q = ServiceQuery::for_agent_type(AgentType::Broker).with_ontology("food");
        let food = query_broker(&mut agent, "general-broker", &q, None, T).unwrap();
        let names: Vec<&str> = food.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["general-broker"]);
        general.stop();
        specialist.stop();
    }
}
