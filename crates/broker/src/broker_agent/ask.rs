//! The `ask` conversation (ask-all / ask-one / recruit-all / recruit-one,
//! Figure 4) with the inter-broker forward it may trigger (§3.3, §4.3),
//! and `broker-one`, which delegates to whichever agent an ask finds.

use super::{
    error_reply, reply_as_broker, Shared, SuspectEntry, SUSPECT_BASE_BACKOFF, SUSPECT_DROP_AFTER,
    SUSPECT_MAX_BACKOFF,
};
use crate::codec::{self, SearchRequest};
use crate::matchmaker::{MatchResult, MatchRow, Matchmaker};
use crate::policy::{FollowOption, SearchPolicy};
use infosleuth_agent::{AgentContext, BusError, Envelope};
use infosleuth_kqml::{Message, Performative, SExpr, Text};
use infosleuth_obs::sync::lock;
use infosleuth_ontology::{AgentType, ServiceQuery, SortedSet};
use std::time::Instant;

pub(super) fn handle_query(
    shared: &Shared,
    ctx: &AgentContext,
    env: &Envelope,
    force_max: Option<usize>,
) {
    shared.obs.match_requests.inc();
    let Some(content) = env.message.content() else {
        return reply_as_broker(ctx, &env.from, error_reply(env, "query without content"));
    };
    // The content head says which grammar this is: a full broker-search,
    // or a bare service-query that takes the broker's default policy.
    let parse_timer = shared.obs.obs.stage(&shared.obs.parse, "parse");
    let decoded = match content.head() {
        Some("broker-search") => codec::search_request_from_sexpr(content),
        _ => codec::service_query_from_sexpr(content).map(|mut query| {
            if let Some(n) = force_max {
                query.max_matches = Some(query.max_matches.map_or(n, |m| m.min(n)));
            }
            let policy = if query.max_matches.is_some() {
                SearchPolicy::default_for(query.max_matches)
            } else {
                shared.config.default_policy
            };
            SearchRequest { query, policy, visited: Vec::new(), digest_epoch: None }
        }),
    };
    drop(parse_timer);
    let request = match decoded {
        Ok(request) => request,
        Err(e) => return reply_as_broker(ctx, &env.from, error_reply(env, e.to_string())),
    };
    // §4.1 "Agents Discovering Brokers": a query for agents of type
    // `broker` is answered from the peer-broker table (plus this broker
    // itself), filtered by advertised specialization when the requester
    // names a data domain.
    if request.query.agent_type == Some(AgentType::Broker) {
        let matches = broker_discovery(shared, &request.query);
        let perf = if matches.is_empty() { Performative::Sorry } else { Performative::Reply };
        let reply =
            env.message.reply_skeleton(perf).with_content(codec::matches_to_sexpr(&matches));
        return reply_as_broker(ctx, &env.from, reply);
    }
    let rows = collaborative_search(shared, ctx, &request);
    let perf = if rows.is_empty() { Performative::Sorry } else { Performative::Reply };
    // A forwarding broker stamps the epoch of our digest it consulted;
    // when that is stale, piggyback a fresh digest on the reply so the
    // sender repairs its routing table without an extra round trip.
    let refresh = request.digest_epoch.and_then(|seen| {
        let state = lock(&shared.state);
        (state.repo.epoch() != seen).then(|| {
            shared.obs.digest_stale.inc();
            shared.own_digest(&state)
        })
    });
    let reply =
        env.message.reply_skeleton(perf).with_content(codec::matches_reply(rows, refresh.as_ref()));
    reply_as_broker(ctx, &env.from, reply);
}

/// Answers "which brokers are available (for this domain)?" from the local
/// broker-advertisement table, so an operational agent can "query the
/// preferred broker for one or all of the brokers that are available in
/// the system with the capabilities and data domain that it is interested
/// in" and reconfigure its preferred-broker list.
fn broker_discovery(shared: &Shared, query: &ServiceQuery) -> Vec<MatchResult> {
    let fits = |ontologies: &SortedSet<Text>| match &query.ontology {
        None => true,
        // A specialist fits if it covers the domain; a general-purpose
        // broker (empty specialization) fits anything.
        Some(o) => ontologies.is_empty() || ontologies.contains(o),
    };
    let mut out = Vec::new();
    {
        let state = lock(&shared.state);
        for b in state.repo.broker_advertisements() {
            if fits(&b.specialization.ontologies) {
                out.push(MatchResult {
                    name: b.base.location.name.to_string(),
                    address: b.base.location.address.to_string(),
                    score: if b.specialization.ontologies.is_empty() { 1 } else { 2 },
                    ontology: query.ontology.as_deref().map(str::to_string),
                    ..MatchResult::default()
                });
            }
        }
    }
    // This broker itself is also a candidate.
    if fits(&shared.config.objective.ontologies()) {
        out.push(MatchResult {
            name: shared.config.name.clone(),
            address: shared.config.address.clone(),
            score: if shared.config.objective.is_general_purpose() { 1 } else { 2 },
            ontology: query.ontology.as_deref().map(str::to_string),
            ..MatchResult::default()
        });
    }
    out.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| a.name.cmp(&b.name)));
    if let Some(n) = query.max_matches {
        out.truncate(n);
    }
    out
}

/// One row of a merged answer: the name and score it is merged and
/// ordered by, and the item the reply carries — a held row's shared
/// block, or a peer's row as it was received.
struct Answer {
    name: Text,
    score: u32,
    item: SExpr,
}

impl From<&MatchRow> for Answer {
    fn from(row: &MatchRow) -> Answer {
        Answer { name: row.name.clone(), score: row.score, item: codec::ResultRow::item(row) }
    }
}

/// Local matchmaking plus the §3.3 collaborative expansion: "Each broker
/// request is forwarded to relevant other brokers … The response to the
/// broker query contains the union of all agents which have advertised to
/// some broker that the broker query reached, and which match the request."
/// Returns the reply's row items, best first.
fn collaborative_search(
    shared: &Shared,
    ctx: &AgentContext,
    request: &SearchRequest,
) -> Vec<SExpr> {
    // Local matches first. The expansion decision must see the matches
    // *without* the max_matches truncation, so match untruncated and
    // truncate at the very end; every policy variant of one request then
    // also shares one cache entry.
    let mut untruncated = request.query.clone();
    untruncated.max_matches = None;
    let local = {
        let repo = &mut lock(&shared.state).repo;
        Matchmaker::default().match_query_cached(repo, &shared.cache, &untruncated)
    };
    let peers = if request.policy.should_expand(local.len()) {
        peer_candidates(shared, request, &untruncated)
    } else {
        Vec::new()
    };
    if peers.is_empty() {
        // The held rows are ranked already: the reply shares their blocks.
        let n = request.query.max_matches.unwrap_or(local.len()).min(local.len());
        return local[..n].iter().map(codec::ResultRow::item).collect();
    }
    let mut answers: Vec<Answer> = local.iter().map(Answer::from).collect();
    // The forwarded visited list contains everywhere the request has been
    // or is being sent, preventing loops and duplicate work even across
    // consortium overlaps.
    let mut visited = request.visited.clone();
    visited.push(shared.config.name.clone());
    visited.extend(peers.iter().map(|p| p.name.clone()));
    let forwarded = SearchRequest {
        query: untruncated.clone(),
        policy: request.policy.next_hop(),
        visited,
        digest_epoch: None,
    };
    // Until-match stays serial, one peer per round: the point is to stop
    // asking as soon as anyone answers.
    let until_match = matches!(request.policy.follow, FollowOption::UntilMatch);
    for round in peers.chunks(if until_match { 1 } else { peers.len() }) {
        for (peer, result) in forward_to_peers(shared, ctx, round, &forwarded) {
            match result {
                Ok(peer_answers) => {
                    note_forward_success(shared, peer, peer_answers.is_empty());
                    answers.extend(peer_answers);
                }
                Err(_) => note_forward_failure(shared, &peer.name),
            }
        }
        if until_match && !answers.is_empty() {
            break;
        }
    }
    union(answers, request.query.max_matches)
}

/// "…combines them with its own (possibly empty) list of providing
/// agents, eliminating duplicated entries": of the rows that share a name,
/// the first with the highest score stays. Sorted stably by name, the rows
/// of one name sit together in the order they came; the survivors are
/// then ranked (score descending, then name) and truncated to `max`.
fn union(mut answers: Vec<Answer>, max: Option<usize>) -> Vec<SExpr> {
    answers.sort_by(|a, b| a.name.cmp(&b.name));
    let mut kept: Vec<Answer> = Vec::with_capacity(answers.len());
    for answer in answers {
        match kept.last_mut() {
            Some(last) if last.name == answer.name => {
                if answer.score > last.score {
                    *last = answer;
                }
            }
            _ => kept.push(answer),
        }
    }
    kept.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| a.name.cmp(&b.name)));
    kept.truncate(max.unwrap_or(kept.len()));
    kept.into_iter().map(|a| a.item).collect()
}

/// A peer eligible for one forwarded search, with the epoch of the digest
/// that admitted it (`None`: no digest on file, or a relay hop —
/// forwarded anyway, since absence of evidence must not lose recall).
struct PeerTarget {
    name: String,
    digest_epoch: Option<u64>,
}

/// The peers one forwarded search should contact, three filters deep:
/// the §5.2.2 specialization rule-out, the suspect backoff window, and —
/// for terminal forwards only — the peer's capability digest. A digest
/// covers the peer's *local* repository, so pruning on it is sound only
/// when the forwarded hop cannot expand further; a relay hop (remaining
/// hop budget) is always contacted.
fn peer_candidates(
    shared: &Shared,
    request: &SearchRequest,
    untruncated: &ServiceQuery,
) -> Vec<PeerTarget> {
    let names: Vec<String> = {
        let state = lock(&shared.state);
        // §5.2.2: "brokers can advertise their capabilities to other
        // brokers which means that a broker can know in advance which
        // brokers it can immediately rule out from a query" — a peer
        // specialized in other ontologies cannot hold a match for this
        // query's ontology, so we skip it without a network round trip.
        state
            .repo
            .broker_advertisements()
            .filter(|b| {
                let name = &b.base.location.name;
                if request.visited.iter().any(|v| name == v.as_str())
                    || name == shared.config.name.as_str()
                {
                    return false;
                }
                match (&request.query.ontology, b.specialization.ontologies.is_empty()) {
                    // General-purpose peers, or no ontology requested:
                    // always worth asking.
                    (_, true) | (None, _) => true,
                    (Some(o), false) => b.specialization.ontologies.contains(o),
                }
            })
            .map(|b| b.base.location.name.to_string())
            .collect()
    };
    let now = Instant::now();
    let terminal = request.policy.next_hop().hop_count == 0;
    let routing = lock(&shared.routing);
    let mut out = Vec::new();
    for name in names {
        if routing.suspects.get(&name).is_some_and(|s| now < s.retry_at) {
            continue;
        }
        let digest = if terminal { routing.peers.get(&name) } else { None };
        if digest.is_some_and(|d| !d.can_match(untruncated)) {
            shared.obs.digest_pruned.inc();
            continue;
        }
        out.push(PeerTarget { name, digest_epoch: digest.map(|d| d.epoch) });
    }
    out
}

/// Forward success: clear suspicion, and count a digest false positive
/// when the digest admitted the peer but it had nothing.
fn note_forward_success(shared: &Shared, peer: &PeerTarget, empty: bool) {
    shared.clear_suspect(&peer.name);
    if peer.digest_epoch.is_some() && empty {
        shared.obs.digest_fp.inc();
    }
}

/// Forward failure: demote the peer to suspect with exponential backoff
/// instead of unadvertising it outright. Only [`SUSPECT_DROP_AFTER`]
/// consecutive failures remove it from the repository; its next
/// advertisement or digest re-admits it.
fn note_forward_failure(shared: &Shared, peer: &str) {
    shared.obs.peer_suspect.inc();
    let drop_peer = {
        let mut routing = lock(&shared.routing);
        let entry = routing
            .suspects
            .entry(peer.to_string())
            .or_insert(SuspectEntry { failures: 0, retry_at: Instant::now() });
        entry.failures = entry.failures.saturating_add(1);
        let backoff = SUSPECT_BASE_BACKOFF
            .saturating_mul(1u32 << (entry.failures - 1).min(6))
            .min(SUSPECT_MAX_BACKOFF);
        entry.retry_at = Instant::now() + backoff;
        entry.failures >= SUSPECT_DROP_AFTER
    };
    if drop_peer {
        lock(&shared.state).repo.unadvertise_broker(peer);
        shared.forget_peer(peer);
    }
}

/// The forwarded `ask-all` for one peer, stamped with the epoch of the
/// digest that admitted it.
fn forward_message(request: &SearchRequest, peer: &PeerTarget) -> Message {
    let stamped = SearchRequest { digest_epoch: peer.digest_epoch, ..request.clone() };
    Message::new(Performative::AskAll)
        .with_ontology("infosleuth-service")
        .with_content(codec::search_request_to_sexpr(&stamped))
}

/// The rows a peer replied with, passed through as they came
/// ([`codec::reply_rows`]), after taking in any digest refresh it
/// piggybacked (the staleness-repair half of the epoch protocol).
fn read_peer_reply(shared: &Shared, reply: Message) -> Vec<Answer> {
    let Some(content) = reply.into_content() else { return Vec::new() };
    shared.ingest_embedded_digest(&content, false);
    let rows = codec::reply_rows(content).unwrap_or_default();
    rows.into_iter().map(|(name, score, item)| Answer { name, score, item }).collect()
}

/// Forwards one search to `peers` as one
/// [conversation](AgentContext::request_all) bounded by `peer_timeout`.
fn forward_to_peers<'p>(
    shared: &Shared,
    ctx: &AgentContext,
    peers: &'p [PeerTarget],
    request: &SearchRequest,
) -> Vec<(&'p PeerTarget, Result<Vec<Answer>, BusError>)> {
    shared.obs.forwards.add(peers.len() as u64);
    let batch = peers.iter().map(|p| (p.name.clone(), forward_message(request, p))).collect();
    let replies = ctx.request_all(batch, shared.config.peer_timeout);
    peers
        .iter()
        .zip(replies)
        .map(|(peer, reply)| (peer, reply.map(|reply| read_peer_reply(shared, reply))))
        .collect()
}

/// KQML `broker-one`: "allow an agent to … ask a broker about other
/// services", here in the *brokered* (delegation) form — the broker finds
/// one matching agent, forwards the embedded message to it, and relays the
/// answer back to the requester. Content shape:
/// `(broker-one (service-query ...) (message "<kqml text>"))`.
pub(super) fn handle_broker_one(shared: &Shared, ctx: &AgentContext, env: &Envelope) {
    let fail = |reason: String| reply_as_broker(ctx, &env.from, error_reply(env, reason));
    let Some(items) = env.message.content().and_then(SExpr::as_list) else {
        return fail("broker-one expects (broker-one (service-query ...) (message ...))".into());
    };
    if items.first().and_then(SExpr::as_atom) != Some("broker-one") {
        return fail("expected (broker-one ...) content".into());
    }
    let Some(query_expr) = items.iter().find(|e| e.head() == Some("service-query")) else {
        return fail("broker-one missing service-query".into());
    };
    let mut query = match codec::service_query_from_sexpr(query_expr) {
        Ok(q) => q,
        Err(e) => return fail(e.to_string()),
    };
    query.max_matches = Some(1);
    let Some(embedded_text) = items
        .iter()
        .filter(|e| e.head() == Some("message"))
        .find_map(|e| e.as_list()?.get(1)?.as_text())
    else {
        return fail("broker-one missing embedded message".into());
    };
    let embedded = match Message::parse(embedded_text) {
        Ok(m) => m,
        Err(e) => return fail(format!("embedded message: {e}")),
    };
    // Find one provider (collaboratively, per the until-match default).
    let request = SearchRequest {
        query,
        policy: SearchPolicy::default_for(Some(1)),
        visited: Vec::new(),
        digest_epoch: None,
    };
    let rows = collaborative_search(shared, ctx, &request);
    let Some((target, _)) = rows.first().and_then(|row| codec::row_head(row).ok().flatten()) else {
        return reply_as_broker(ctx, &env.from, env.message.reply_skeleton(Performative::Sorry));
    };
    // Forward and relay.
    match ctx.request(&target, embedded, shared.config.peer_timeout) {
        Ok(answer) => {
            let mut relay = env.message.reply_skeleton(answer.performative.clone());
            if let Some(content) = answer.content() {
                relay.set("content", content.clone());
            }
            relay.set("language", SExpr::atom("KQML"));
            reply_as_broker(ctx, &env.from, relay);
        }
        Err(e) => fail(format!("provider '{target}' failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{resource_ad, seeded_repo, spawn_broker, T};
    use super::super::{interconnect, BrokerAgent, BrokerConfig, BrokerHandle};
    use crate::{advertise_to, codec, query_broker, BrokerObjective, SearchPolicy};
    use infosleuth_agent::Bus;
    use infosleuth_kqml::{Message, Performative, SExpr};
    use infosleuth_ontology::{AgentType, OntologyContent, ServiceQuery};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Waits until `from` holds `peer`'s digest at the peer's current repo
    /// epoch — digest updates ride one-way performatives, so tests that
    /// mutate a peer out-of-band must quiesce before asserting on routing.
    fn await_digest(from: &BrokerHandle, peer: &BrokerHandle) {
        let want = peer.with_repository(|r| r.epoch());
        let deadline = Instant::now() + T;
        while from.peer_digest_epoch(peer.name()) != Some(want) {
            assert!(
                Instant::now() < deadline,
                "digest from {} never reached {}",
                peer.name(),
                from.name()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn digest_prunes_empty_peer_without_contact() {
        let bus = Bus::new();
        let b1 = spawn_broker(&bus, "broker1");
        let b2 = spawn_broker(&bus, "broker2");
        interconnect(&[&b1, &b2]).unwrap();
        let mut ra = bus.register("ra1").unwrap();
        advertise_to(&mut ra, "broker1", &resource_ad("ra1", &["C1"]), T).unwrap();
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"]);
        let all = SearchPolicy { hop_count: 1, follow: crate::FollowOption::AllRepositories };
        let found = query_broker(&mut ra, "broker1", &q, Some(all), T).unwrap();
        assert_eq!(found.len(), 1);
        // broker2 advertised an empty repository at the interconnect hello,
        // so its digest rules it out before any round trip is spent.
        let stats = b1.routing_stats();
        assert_eq!(stats.forwards, 0, "empty peer must be digest-pruned, not contacted");
        assert!(stats.digest_pruned >= 1);
        b1.stop();
        b2.stop();
    }

    #[test]
    fn stale_digest_epoch_triggers_piggybacked_refresh() {
        let bus = Bus::new();
        let b1 = spawn_broker(&bus, "broker1");
        let mut ra = bus.register("ra1").unwrap();
        advertise_to(&mut ra, "broker1", &resource_ad("ra1", &["C1"]), T).unwrap();
        // A forwarded request claiming it consulted epoch 0 is stale (the
        // seeded ontology + the advertisement both bumped the epoch), so
        // the matches reply must piggyback a refreshed digest.
        let request = codec::SearchRequest {
            query: ServiceQuery::for_agent_type(AgentType::Resource)
                .with_ontology("paper-classes")
                .with_classes(["C1"]),
            policy: SearchPolicy::local(),
            visited: Vec::new(),
            digest_epoch: Some(0),
        };
        let msg = Message::new(Performative::AskAll)
            .with_ontology("infosleuth-service")
            .with_content(codec::search_request_to_sexpr(&request));
        let reply = ra.request("broker1", msg, T).unwrap();
        let content = reply.content().unwrap();
        assert_eq!(codec::matches_from_sexpr(content).unwrap().len(), 1);
        let refreshed = codec::embedded_digest(content).expect("stale epoch piggybacks a digest");
        assert_eq!(refreshed.epoch, b1.with_repository(|r| r.epoch()));
        assert!(b1.routing_stats().digest_stale >= 1);
        b1.stop();
    }

    #[test]
    fn digest_false_positive_is_counted_not_fatal() {
        use infosleuth_constraint::{Conjunction, Predicate};
        let bus = Bus::new();
        let b1 = spawn_broker(&bus, "broker1");
        let b2 = spawn_broker(&bus, "broker2");
        // broker2 holds two C1 agents covering disjoint slot ranges. The
        // digest only keeps the per-slot hull [0, 30], so a query window in
        // the gap is admitted, round-trips, and comes back empty.
        let constrained = |name: &str, lo: i64, hi: i64| {
            let mut ad = resource_ad(name, &["C1"]);
            ad.semantic.content =
                vec![OntologyContent::new("paper-classes").with_classes(["C1"]).with_constraints(
                    Conjunction::from_predicates(vec![Predicate::between("C1.a", lo, hi)]),
                )];
            ad
        };
        let mut ra2 = bus.register("ra2").unwrap();
        advertise_to(&mut ra2, "broker2", &constrained("ra2", 0, 10), T).unwrap();
        advertise_to(&mut ra2, "broker2", &constrained("rb2", 20, 30), T).unwrap();
        interconnect(&[&b1, &b2]).unwrap();
        let mut ua = bus.register("ua1").unwrap();
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"])
            .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                "C1.a", 12, 18,
            )]));
        let all = SearchPolicy { hop_count: 1, follow: crate::FollowOption::AllRepositories };
        let found = query_broker(&mut ua, "broker1", &q, Some(all), T).unwrap();
        assert!(found.is_empty());
        let stats = b1.routing_stats();
        assert_eq!(stats.forwards, 1, "hull admits the gap window (sound over-approximation)");
        assert!(stats.digest_fp >= 1, "the empty answer is recorded as a false positive");
        b1.stop();
        b2.stop();
    }

    #[test]
    fn dead_peer_is_demoted_to_suspect_and_search_continues() {
        let bus = Bus::new();
        let b1 = spawn_broker(&bus, "broker1");
        let b2 = spawn_broker(&bus, "broker2");
        let b3 = spawn_broker(&bus, "broker3");
        // broker2 holds a matching advertisement before the interconnect, so
        // broker1's stored digest admits it and the forward is attempted.
        let mut ra2 = bus.register("ra2").unwrap();
        advertise_to(&mut ra2, "broker2", &resource_ad("ra2", &["C1"]), T).unwrap();
        interconnect(&[&b1, &b2, &b3]).unwrap();
        let mut ra = bus.register("ra1").unwrap();
        advertise_to(&mut ra, "broker3", &resource_ad("ra1", &["C1"]), T).unwrap();
        b2.stop(); // broker2 dies without unadvertising
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"]);
        let found = query_broker(&mut ra, "broker1", &q, None, T).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "ra1");
        // The failed forward demotes broker2 to suspect — it stays in the
        // peer table so its next hello (or a backoff retry) re-admits it.
        assert!(b1.routing_stats().peer_suspects >= 1);
        b1.with_repository(|r| {
            assert!(r.peer_brokers().contains(&"broker2".to_string()));
        });
        // While suspected, further searches skip broker2 without another
        // round trip and still return the live match.
        let suspects_before = b1.routing_stats().peer_suspects;
        let found = query_broker(&mut ra, "broker1", &q, None, T).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(b1.routing_stats().peer_suspects, suspects_before);
        b1.stop();
        b3.stop();
    }

    #[test]
    fn fan_out_forwards_join_the_clients_trace() {
        use infosleuth_agent::{AgentRuntime, RuntimeConfig};
        use infosleuth_obs::{
            build_trace_tree, Obs, RingSink, SpanId, SpanSink, TraceContext, TraceId, TRACE_PARAM,
        };
        let bus = Bus::new();
        let obs = Obs::new();
        let sink = Arc::new(RingSink::new(4096));
        obs.tracer().add_sink(Arc::clone(&sink) as Arc<dyn SpanSink>);
        let runtime = AgentRuntime::new(bus.as_transport(), RuntimeConfig::default().with_obs(obs));
        let spawn = |name: &str| {
            let config = BrokerConfig::new(name, format!("tcp://{name}.mcc.com:5500"))
                .with_ping_interval(None);
            BrokerAgent::spawn_on(&runtime, config, seeded_repo()).unwrap()
        };
        let (b1, b2, b3) = (spawn("broker1"), spawn("broker2"), spawn("broker3"));
        // Both peers hold a match before the hellos, so both digests admit
        // the forward and it fans out to two peers.
        let mut ua = bus.register("ua1").unwrap();
        advertise_to(&mut ua, "broker2", &resource_ad("ra2", &["C1"]), T).unwrap();
        advertise_to(&mut ua, "broker3", &resource_ad("ra3", &["C1"]), T).unwrap();
        interconnect(&[&b1, &b2, &b3]).unwrap();
        let request = codec::SearchRequest {
            query: ServiceQuery::for_agent_type(AgentType::Resource)
                .with_ontology("paper-classes")
                .with_classes(["C1"]),
            policy: SearchPolicy { hop_count: 1, follow: crate::FollowOption::AllRepositories },
            visited: Vec::new(),
            digest_epoch: None,
        };
        let client = TraceContext { trace: TraceId(0xc11e), span: SpanId(1) };
        let mut msg = Message::new(Performative::AskAll)
            .with_ontology("infosleuth-service")
            .with_content(codec::search_request_to_sexpr(&request));
        msg.set(TRACE_PARAM, infosleuth_kqml::SExpr::string(client.encode()));
        let reply = ua.request("broker1", msg, T).unwrap();
        assert_eq!(codec::matches_from_sexpr(reply.content().unwrap()).unwrap().len(), 2);
        assert_eq!(b1.routing_stats().forwards, 2);
        for b in [b1, b2, b3] {
            b.stop();
        }
        // Join the workers before draining: a dispatch span closes after
        // its reply has left.
        runtime.shutdown();
        let records = sink.drain();
        let asks: Vec<_> = records.iter().filter(|r| r.name == "recv:ask-all").collect();
        assert_eq!(asks.len(), 3, "the origin's dispatch and one per peer: {asks:?}");
        let origin = asks.iter().find(|r| r.agent == "broker1").unwrap();
        for ask in &asks {
            assert_eq!(ask.trace, client.trace, "{} roots its own trace", ask.agent);
            let mut up = ask.parent;
            while ask.agent != "broker1" && up != Some(origin.span) {
                let parent = records.iter().find(|r| Some(r.span) == up);
                up = parent.unwrap_or_else(|| panic!("{} is not under broker1", ask.agent)).parent;
            }
        }
        assert_eq!(build_trace_tree(&records, client.trace).len(), 1, "one connected tree");
    }

    #[test]
    fn peer_that_dies_mid_forward_fails_fast_and_is_counted() {
        let bus = Bus::new();
        let b1 = spawn_broker(&bus, "broker1");
        let b2 = spawn_broker(&bus, "broker2");
        let mut ua = bus.register("ua1").unwrap();
        advertise_to(&mut ua, "broker2", &resource_ad("ra2", &["C1"]), T).unwrap();
        interconnect(&[&b1, &b2]).unwrap();
        // broker3 is a bare mailbox broker1 knows as a peer (no digest on
        // file, so it is always forwarded to): it takes the forward and
        // dies without answering.
        let doomed = bus.register("broker3").unwrap();
        b1.with_repository(|r| {
            let ad = BrokerConfig::new("broker3", "tcp://b3.mcc.com:5500").broker_advertisement();
            r.advertise_broker(ad).unwrap();
        });
        let dies = std::thread::spawn(move || {
            let mut ep = doomed;
            // Digest updates may come first; the forward is the ask-all.
            while ep.recv_timeout(T).expect("the forward arrives").message.performative
                != Performative::AskAll
            {}
            ep.unregister();
        });
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"]);
        let all = SearchPolicy { hop_count: 1, follow: crate::FollowOption::AllRepositories };
        let started = Instant::now();
        let found = query_broker(&mut ua, "broker1", &q, Some(all), T).unwrap();
        let elapsed = started.elapsed();
        dies.join().unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "ra2");
        assert!(
            elapsed < Duration::from_millis(500),
            "the dead peer held the ask for {elapsed:?} (peer_timeout is 2 s)"
        );
        assert_eq!(b1.routing_stats().forwards, 2);
        assert_eq!(b1.routing_stats().peer_suspects, 1, "the dead peer becomes suspect");
        assert_eq!(b1.delivery_failures(), 1, "the lost forward is a delivery failure");
        b1.stop();
        b2.stop();
    }

    #[test]
    fn peer_rule_out_skips_mismatched_specialists() {
        // broker1 (generalist) knows broker2 (healthcare specialist) and
        // broker3 (generalist). A paper-classes query is never forwarded
        // to broker2 — even though broker2's repository secretly contains
        // a matching agent, proving the rule-out happened client-side.
        let bus = Bus::new();
        let b1 = spawn_broker(&bus, "broker1");
        let b2 = BrokerAgent::spawn(
            &bus,
            BrokerConfig::new("broker2", "tcp://b2.mcc.com:5501")
                .with_objective(BrokerObjective::specialized(["healthcare"])),
            seeded_repo(),
        )
        .unwrap();
        let b3 = spawn_broker(&bus, "broker3");
        interconnect(&[&b1, &b2, &b3]).unwrap();
        // Plant a matching advertisement directly inside broker2.
        b2.with_repository(|r| {
            r.advertise(resource_ad("hidden-ra", &["C1"])).unwrap();
        });
        let mut ra = bus.register("ra3").unwrap();
        advertise_to(&mut ra, "broker3", &resource_ad("ra3", &["C1"]), T).unwrap();
        // broker3's digest update is ahead of the ask in broker1's mailbox,
        // but two workers may handle them at once: wait until it is taken in.
        await_digest(&b1, &b3);
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"]);
        let found = query_broker(&mut ra, "broker1", &q, None, T).unwrap();
        let names: Vec<&str> = found.iter().map(|m| m.name.as_str()).collect();
        // Only the agent reachable through the non-ruled-out peer appears.
        assert_eq!(names, vec!["ra3"], "broker2 must be ruled out in advance");
        // A query with no ontology still consults everyone. Quiesce first:
        // hidden-ra was planted out-of-band, and broker1 must hold broker2's
        // refreshed digest before it can admit the forward.
        await_digest(&b1, &b2);
        let q_any = ServiceQuery::for_agent_type(AgentType::Resource);
        let found = query_broker(&mut ra, "broker1", &q_any, None, T).unwrap();
        let names: Vec<&str> = found.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"hidden-ra"), "no-ontology query reaches specialists");
        b1.stop();
        b2.stop();
        b3.stop();
    }

    #[test]
    fn interbroker_search_unions_results() {
        let bus = Bus::new();
        let b1 = spawn_broker(&bus, "broker1");
        let b2 = spawn_broker(&bus, "broker2");
        interconnect(&[&b1, &b2]).unwrap();
        let mut ra1 = bus.register("ra1").unwrap();
        let mut ra2 = bus.register("ra2").unwrap();
        advertise_to(&mut ra1, "broker1", &resource_ad("ra1", &["C2"]), T).unwrap();
        advertise_to(&mut ra2, "broker2", &resource_ad("ra2", &["C2"]), T).unwrap();
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C2"]);
        // Local-only sees one agent.
        let local = query_broker(&mut ra1, "broker1", &q, Some(SearchPolicy::local()), T).unwrap();
        assert_eq!(local.len(), 1);
        // Default policy (hop 1, all repositories) sees both.
        let all = query_broker(&mut ra1, "broker1", &q, None, T).unwrap();
        let names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["ra1", "ra2"]);
        b1.stop();
        b2.stop();
    }

    #[test]
    fn visited_list_prevents_cycles() {
        // Fully-connected triangle; query must terminate and not duplicate.
        let bus = Bus::new();
        let b1 = spawn_broker(&bus, "broker1");
        let b2 = spawn_broker(&bus, "broker2");
        let b3 = spawn_broker(&bus, "broker3");
        interconnect(&[&b1, &b2, &b3]).unwrap();
        let mut ra = bus.register("ra1").unwrap();
        advertise_to(&mut ra, "broker2", &resource_ad("ra1", &["C1"]), T).unwrap();
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"]);
        let deep = SearchPolicy { hop_count: 10, follow: crate::FollowOption::AllRepositories };
        let found = query_broker(&mut ra, "broker1", &q, Some(deep), T).unwrap();
        assert_eq!(found.len(), 1);
        b1.stop();
        b2.stop();
        b3.stop();
    }

    #[test]
    fn until_match_stops_early() {
        let bus = Bus::new();
        let b1 = spawn_broker(&bus, "broker1");
        let b2 = spawn_broker(&bus, "broker2");
        interconnect(&[&b1, &b2]).unwrap();
        let mut ra = bus.register("ra1").unwrap();
        advertise_to(&mut ra, "broker1", &resource_ad("ra1", &["C1"]), T).unwrap();
        let mut ra2 = bus.register("ra2").unwrap();
        advertise_to(&mut ra2, "broker2", &resource_ad("ra2", &["C1"]), T).unwrap();
        // ask-one style: local match suffices, no expansion.
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"])
            .one();
        let found = query_broker(&mut ra, "broker1", &q, None, T).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "ra1");
        b1.stop();
        b2.stop();
    }

    #[test]
    fn broker_one_forwards_to_the_best_match() {
        let bus = Bus::new();
        let broker = spawn_broker(&bus, "broker1");
        // A provider that answers ask-one with a canned reply. Register
        // its endpoint before spawning so the broker can reach it as soon
        // as it is advertised.
        let mut ep = bus.register("provider-ra").unwrap();
        let provider = std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while std::time::Instant::now() < deadline {
                if let Some(env) = ep.recv_timeout(Duration::from_millis(20)) {
                    if env.message.performative == Performative::AskOne {
                        let reply = env
                            .message
                            .reply_skeleton(Performative::Reply)
                            .with_content(SExpr::string("42 rows"));
                        let _ = ep.send(&env.from, reply);
                        break;
                    }
                }
            }
            ep.unregister();
        });
        let mut client = bus.register("client").unwrap();
        advertise_to(&mut client, "broker1", &resource_ad("provider-ra", &["C1"]), T).unwrap();
        // Delegate: "broker-one, forward my ask-one to whoever has C1".
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C1"]);
        let embedded = Message::new(Performative::AskOne)
            .with_language("SQL 2.0")
            .with_content(SExpr::string("select * from C1"));
        let msg = Message::new(Performative::BrokerOne)
            .with_content(crate::broker_one_content(&q, &embedded));
        let reply = client.request("broker1", msg, T).unwrap();
        assert_eq!(reply.performative, Performative::Reply, "unexpected reply: {reply}");
        assert_eq!(reply.content(), Some(&SExpr::string("42 rows")));
        provider.join().unwrap();
        // No provider for an unknown class → sorry.
        let q2 = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes(["C9"]);
        let msg2 = Message::new(Performative::BrokerOne)
            .with_content(crate::broker_one_content(&q2, &embedded));
        let reply2 = client.request("broker1", msg2, T).unwrap();
        assert_eq!(reply2.performative, Performative::Sorry);
        broker.stop();
    }

    #[test]
    fn broker_one_rejects_malformed_content() {
        let bus = Bus::new();
        let broker = spawn_broker(&bus, "broker1");
        let mut client = bus.register("client").unwrap();
        let msg = Message::new(Performative::BrokerOne).with_content(SExpr::atom("nonsense"));
        let reply = client.request("broker1", msg, T).unwrap();
        assert_eq!(reply.performative, Performative::Error);
        broker.stop();
    }

    #[test]
    fn malformed_content_is_refused_in_its_own_grammar() {
        let bus = Bus::new();
        let broker = spawn_broker(&bus, "broker1");
        let mut agent = bus.register("client").unwrap();
        let mut error_for = |performative: Performative, content: &str| {
            let msg = Message::new(performative).with_content(SExpr::parse(content).unwrap());
            let reply = agent.request("broker1", msg, T).unwrap();
            assert_eq!(reply.performative, Performative::Error, "{content} -> {reply}");
            reply.content().and_then(SExpr::as_text).unwrap_or_default().to_string()
        };
        // The content head picks the decoder, and the error is that
        // decoder's own — not a fallback's "expected (service-query ...)".
        let cases = [
            (
                Performative::AskAll,
                "(broker-search (service-query) (policy (hop-count many) (follow local-only)))",
                "policy missing hop-count",
            ),
            (
                Performative::AskAll,
                "(broker-search (policy (hop-count 1) (follow local-only)))",
                "broker-search missing service-query",
            ),
            (
                Performative::AskAll,
                "(broker-search (service-query (constraints \"age >\")))",
                "bad constraints",
            ),
            (Performative::Advertise, "(digest (broker broker2))", "digest missing epoch"),
            (
                Performative::Advertise,
                "(broker-advertisement (consortia c1))",
                "broker-advertisement missing base advertisement",
            ),
            // An unknown head is still an error, in the conversation's
            // default grammar.
            (Performative::AskAll, "(frobnicate 1 2)", "expected (service-query ...)"),
            (Performative::Advertise, "(frobnicate 1 2)", "expected (advertisement ...)"),
        ];
        for (performative, content, expected) in cases {
            let text = error_for(performative, content);
            assert!(text.contains(expected), "{content} -> {text}");
        }
        // Nothing malformed was stored or routed.
        assert_eq!(broker.peer_digest_epoch("broker2"), None);
        broker.with_repository(|r| assert!(r.is_empty() && r.peer_brokers().is_empty()));
        broker.stop();
    }
}
