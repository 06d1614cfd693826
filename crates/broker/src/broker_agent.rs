//! The live broker agent, hosted on the shared [`AgentRuntime`].
//!
//! Handles the conversations of Figures 3–4 (advertise / query) plus the
//! multibroker machinery of §4: broker-to-broker advertising, inter-broker
//! search with hop counts, follow options and visited-list loop prevention,
//! liveness pings, and specialization-based admission.
//!
//! One handler module per conversation of
//! [`standard_protocols`](infosleuth_analysis::standard_protocols):
//! [`mutation`] (advertise / update / unadvertise), [`ask`] (ask-all /
//! ask-one / recruit-* and `broker-one`, with the inter-broker forward),
//! [`subscribe`] (subscribe / unsubscribe and the notification fan-out)
//! and [`ping`] (ping and the liveness sweep). This module holds what they
//! share: the configuration, the state lock (the repository and the
//! routing table under it), the stored answers, and the dispatch that
//! routes a delivered envelope to its handler.
//!
//! Incoming messages are handled concurrently on the runtime's bounded
//! worker pool (up to the per-agent in-flight cap) so that a broker
//! blocked waiting on a peer's reply never stops serving its own
//! repository — forwarded searches between mutually-querying brokers would
//! otherwise deadlock. The liveness sweep runs as the behavior's periodic
//! tick, which the runtime guarantees never overlaps itself.

mod ask;
mod client;
mod config;
mod mutation;
mod ping;
mod subscribe;

pub use client::{
    advertise_to, broker_one_content, query_broker, subscribe_to, unadvertise_from,
    unsubscribe_from,
};
pub use config::BrokerConfig;

use crate::codec;
use crate::digest::CapabilityDigest;
use crate::match_cache::{MatchCache, MatchCacheStats, DEFAULT_MATCH_CACHE_CAPACITY};
use crate::matchmaker::{MatchResult, MatchRow, Matchmaker};
use crate::repository::{Repository, RepositoryError};
use infosleuth_agent::{
    AgentBehavior, AgentContext, AgentHandle, AgentRuntime, Bus, BusError, Envelope, RuntimeConfig,
    Transport,
};
use infosleuth_kqml::{Message, Performative, SExpr};
use infosleuth_obs::sync::lock;
use infosleuth_obs::{Counter, Histogram, Obs, TraceContext};
use infosleuth_ontology::BrokerAdvertisement;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one subscription reads of its record: `(subscriber, key, rows)`.
pub type StoredView = (String, String, Vec<MatchResult>);

/// What a handler wants sent once it has let go of the state:
/// `(recipient, message)` in send order.
/// Messages a handler queued under the state lock, each with the trace
/// context it is to be sent beside.
type Outbox = Vec<(String, Message, Option<TraceContext>)>;

/// Everything one broker's handlers share; also the [`AgentBehavior`] the
/// runtime drives.
struct Shared {
    config: BrokerConfig,
    /// The repository and everything that changes in step with it.
    state: Mutex<State>,
    /// The stored answers: every standing subscription's record and the
    /// LRU of recent asks, one table patched by each write; consulted (and
    /// filled) by every ask/recommend before any scoring happens. Taken
    /// with the state held, never the other way round.
    cache: MatchCache,
    obs: BrokerObs,
}

/// The writer state: a repository mutation and the stored answers it
/// patches are applied under the one lock around this.
struct State {
    repo: Repository,
    /// Epoch of the last digest broadcast to peers — re-advertisements are
    /// delta-driven: nothing is sent while this matches the repository.
    digest_advertised_epoch: Option<u64>,
    /// What this broker believes about its peers.
    routing: RoutingTable,
}

/// The routing half of the digest layer: the latest digest each peer
/// broker advertised to us, and the peers currently in retry backoff.
#[derive(Default)]
struct RoutingTable {
    peers: HashMap<String, CapabilityDigest>,
    suspects: HashMap<String, SuspectEntry>,
}

impl RoutingTable {
    /// A departed peer broker takes its digest and suspicion with it.
    fn forget(&mut self, peer: &str) {
        self.peers.remove(peer);
        self.suspects.remove(peer);
    }
}

/// A peer that failed a forward: retried with exponential backoff instead
/// of being unadvertised outright. Only [`SUSPECT_DROP_AFTER`] consecutive
/// failures remove it from the repository; a digest or advertisement from
/// the peer clears the suspicion immediately.
struct SuspectEntry {
    failures: u32,
    retry_at: Instant,
}

const SUSPECT_BASE_BACKOFF: Duration = Duration::from_millis(500);
const SUSPECT_MAX_BACKOFF: Duration = Duration::from_secs(30);
/// Consecutive forward failures after which the peer is unadvertised.
const SUSPECT_DROP_AFTER: u32 = 5;

/// The broker's slice of the hosting runtime's metrics registry: request
/// counters plus the `parse` pipeline stage. The repository-side stages
/// (`analysis`, `repository`, `saturation`, `scoring`) are hooked in via
/// [`Repository::set_obs`].
struct BrokerObs {
    obs: Arc<Obs>,
    match_requests: Counter,
    advertises: Counter,
    unadvertises: Counter,
    /// `subscribe` performatives accepted into the registry.
    subscribes: Counter,
    /// Repository mutations intersected against the stored answers' index.
    sub_events: Counter,
    /// Records those intersections reached and patched (index false
    /// positives included: their rows come out as they were).
    sub_affected: Counter,
    /// Non-empty delta notifications actually delivered.
    sub_notifications: Counter,
    /// Inter-broker forwards actually sent.
    forwards: Counter,
    /// Peer forwards skipped because the peer's digest cannot match.
    digest_pruned: Counter,
    /// Contacted peers whose digest admitted the query but who returned
    /// zero matches (digest false positives).
    digest_fp: Counter,
    /// Forward failures that demoted a peer to the suspect list.
    peer_suspect: Counter,
    /// Digest (re-)advertisements ingested from peers.
    digest_updates: Counter,
    /// Forwarded requests that arrived carrying a stale digest epoch.
    digest_stale: Counter,
    parse: Histogram,
    /// Cost of one write's patch: score the changed agents against each
    /// record reached, re-rank, and diff each subscription's view.
    sub_notify: Histogram,
}

impl BrokerObs {
    fn new(obs: &Arc<Obs>, broker: &str) -> BrokerObs {
        let reg = obs.registry();
        BrokerObs {
            obs: Arc::clone(obs),
            match_requests: reg.counter("broker_match_requests_total", &[("broker", broker)]),
            advertises: reg.counter("broker_advertise_total", &[("broker", broker)]),
            unadvertises: reg.counter("broker_unadvertise_total", &[("broker", broker)]),
            subscribes: reg.counter("broker_subscribe_total", &[("broker", broker)]),
            sub_events: reg.counter("broker_sub_events_total", &[("broker", broker)]),
            sub_affected: reg.counter("broker_sub_affected_total", &[("broker", broker)]),
            sub_notifications: reg.counter("broker_sub_notifications_total", &[("broker", broker)]),
            forwards: reg.counter("broker_forwards_total", &[("broker", broker)]),
            digest_pruned: reg.counter("broker_digest_pruned_total", &[("broker", broker)]),
            digest_fp: reg.counter("broker_digest_fp_total", &[("broker", broker)]),
            peer_suspect: reg.counter("broker_peer_suspect_total", &[("broker", broker)]),
            digest_updates: reg.counter("broker_digest_updates_total", &[("broker", broker)]),
            digest_stale: reg.counter("broker_digest_stale_total", &[("broker", broker)]),
            parse: reg.histogram("broker_stage_seconds", &[("broker", broker), ("stage", "parse")]),
            sub_notify: reg.histogram("broker_sub_notify_seconds", &[("broker", broker)]),
        }
    }
}

impl Shared {
    fn new(obs: &Arc<Obs>, config: BrokerConfig, mut repo: Repository) -> Arc<Shared> {
        assert_eq!(
            config.batch_limit, 1,
            "BrokerConfig::batch_limit is pinned at 1 for the benchmark harness's report"
        );
        repo.set_obs(obs, &config.name);
        let state = State { repo, digest_advertised_epoch: None, routing: RoutingTable::default() };
        Arc::new(Shared {
            state: Mutex::new(state),
            cache: MatchCache::new(DEFAULT_MATCH_CACHE_CAPACITY)
                .with_obs(obs.registry(), &config.name),
            obs: BrokerObs::new(obs, &config.name),
            config,
        })
    }

    /// The one route a repository write takes: lock the state, apply `f`,
    /// unlock, then send what `f` queued, one message after the other — the
    /// state is never held across a send, and a later message never
    /// overtakes an earlier one, whoever the recipients are.
    fn with_state<T>(&self, ctx: &AgentContext, f: impl FnOnce(&mut State, &mut Outbox) -> T) -> T {
        let mut out = Vec::new();
        let result = f(&mut lock(&self.state), &mut out);
        for (to, msg, trace) in out {
            let _ = ctx.send_traced(&to, msg, trace);
        }
        result
    }

    /// This broker's digest of its repository as it stands.
    fn own_digest(&self, state: &State) -> CapabilityDigest {
        CapabilityDigest::of(&self.config.name, &state.repo)
    }

    /// Queues a digest re-advertisement to every known peer broker when
    /// the repository changed since the last broadcast. Delta-driven, never
    /// polled: nothing is sent while the digest epoch is unchanged. With no
    /// peer to tell, no snapshot is taken and no epoch is recorded as
    /// advertised, so the first write after a hello still broadcasts.
    fn broadcast_digest(&self, state: &mut State, out: &mut Outbox) {
        let epoch = state.repo.epoch();
        if state.digest_advertised_epoch == Some(epoch) {
            return;
        }
        let peers = state.repo.peer_brokers();
        if peers.is_empty() {
            return;
        }
        let digest = self.own_digest(state);
        state.digest_advertised_epoch = Some(epoch);
        let fact = codec::digest_to_sexpr(&digest);
        for peer in peers {
            let msg = Message::new(Performative::Update)
                .with_ontology("infosleuth-service")
                .with_content(fact.clone());
            push_out(out, &peer, msg, None);
        }
    }

    /// Takes in a digest a peer advertised and clears any suspicion of that
    /// peer — a broker that speaks is alive. The peer snapshots in epoch
    /// order but sends after unlocking, from whichever worker handled the
    /// write, so an update or a reply piggyback can arrive behind a newer
    /// one: the stored digest stays unless the arrival is at least as new. A
    /// `hello` always replaces it — a restarted peer counts from epoch 0.
    fn ingest_digest(&self, state: &mut State, digest: CapabilityDigest, hello: bool) {
        let routing = &mut state.routing;
        routing.suspects.remove(&digest.broker);
        let overtaken =
            routing.peers.get(&digest.broker).is_some_and(|held| held.epoch > digest.epoch);
        if hello || !overtaken {
            routing.peers.insert(digest.broker.clone(), digest);
        }
        // Counted with the state still held: whoever reads the count and
        // then the table sees this arrival applied.
        self.obs.digest_updates.inc();
    }

    /// A peer broker introducing itself, in a hello or the reply to ours:
    /// stored, its embedded digest taken in, and no longer suspect.
    fn store_peer(
        &self,
        state: &mut State,
        content: &SExpr,
        peer: BrokerAdvertisement,
    ) -> Result<(), RepositoryError> {
        let name = peer.base.location.name.to_string();
        state.repo.advertise_broker(peer)?;
        if let Some(digest) = codec::embedded_digest(content) {
            self.ingest_digest(state, digest, true);
        }
        state.routing.suspects.remove(&name);
        Ok(())
    }

    /// See [`BrokerHandle::stored_answers`].
    fn stored_answers(&self) -> Result<Vec<StoredView>, String> {
        let mut state = lock(&self.state);
        let table = self.cache.table();
        let (records, views) = table.records.stored();
        if !records.is_empty() && table.epoch() != state.repo.epoch() {
            let (table, repo) = (table.epoch(), state.repo.epoch());
            return Err(format!("the table is current at epoch {table}, the repository at {repo}"));
        }
        let model = state.repo.saturated();
        for (query, rows) in records {
            if rows != Matchmaker::default().match_query_linear(&state.repo, &model, query) {
                let query = codec::service_query_to_sexpr(query);
                return Err(format!("the stored rows of {query} are not the linear scan's"));
            }
        }
        let mut out = Vec::new();
        for (sub, rows) in views {
            let rows = rows.iter().map(MatchRow::decode).collect::<Result<_, _>>();
            let rows = rows.map_err(|e| format!("{}: {e}", sub.sub_key))?;
            out.push((sub.subscriber.to_string(), sub.sub_key.to_string(), rows));
        }
        out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        Ok(out)
    }
}

impl AgentBehavior for Shared {
    /// Dispatches on the performative to its conversation's handler.
    fn on_message(&self, ctx: &AgentContext, env: Envelope) {
        match env.message.performative {
            Performative::Advertise | Performative::Update | Performative::Unadvertise => {
                self.with_state(ctx, |state, out| mutation::apply(self, state, &env, out))
            }
            Performative::Ping => ping::handle_ping(self, ctx, &env),
            Performative::AskAll | Performative::RecruitAll => {
                ask::handle_query(self, ctx, &env, None)
            }
            Performative::AskOne | Performative::RecruitOne => {
                ask::handle_query(self, ctx, &env, Some(1))
            }
            Performative::BrokerOne => ask::handle_broker_one(self, ctx, &env),
            Performative::Subscribe => subscribe::handle_subscribe(self, ctx, &env),
            Performative::Other(ref other) if other == "unsubscribe" => {
                subscribe::handle_unsubscribe(self, ctx, &env)
            }
            _ => {
                let text = format!("unsupported performative '{}'", env.message.performative);
                reply_as_broker(ctx, &env.from, error_reply(&env, text));
            }
        }
    }

    fn tick_interval(&self) -> Option<Duration> {
        self.config.ping_interval
    }

    fn on_tick(&self, ctx: &AgentContext) {
        ping::liveness_sweep(self, ctx);
    }
}

/// Queues an outgoing message beside `trace`, or beside the active span's
/// context — the one [`AgentContext::send`] would have sent it with at
/// this point — when `trace` is `None`: buffered sends otherwise leave
/// the handler span before they hit the wire.
fn push_out(out: &mut Outbox, to: &str, msg: Message, trace: Option<TraceContext>) {
    out.push((to.to_string(), msg, trace.or_else(infosleuth_obs::current_context)));
}

/// Sends `reply` as the broker (not as a worker's ephemeral endpoint).
/// A refused delivery is no longer silently swallowed: the context counts
/// it in the broker's delivery-failure stat and reports it to the
/// runtime's monitor agent.
fn reply_as_broker(ctx: &AgentContext, to: &str, reply: Message) {
    let _ = ctx.send(to, reply);
}

/// The `error` reply to `env` carrying `text`.
fn error_reply(env: &Envelope, text: impl Into<String>) -> Message {
    env.message.reply_skeleton(Performative::Error).with_content(SExpr::string(text))
}

/// The `sorry` reply to `env` carrying `text`.
fn sorry_reply(env: &Envelope, text: impl Into<String>) -> Message {
    env.message.reply_skeleton(Performative::Sorry).with_content(SExpr::string(text))
}

/// The broker agent. Construct with [`BrokerAgent::spawn`] (in-proc bus),
/// [`BrokerAgent::spawn_over`] (any transport, private runtime), or
/// [`BrokerAgent::spawn_on`] (an existing shared runtime).
pub struct BrokerAgent;

/// A handle to a running broker: stop it, connect it to peers, inspect its
/// repository and delivery-failure count.
pub struct BrokerHandle {
    shared: Arc<Shared>,
    agent: AgentHandle,
    /// Present when this broker owns a private runtime (the `spawn` /
    /// `spawn_over` paths); dropped last so in-flight handlers wind down
    /// after the agent is unregistered.
    _runtime: Option<AgentRuntime>,
}

impl BrokerAgent {
    /// Registers the broker on the in-process bus with a private runtime.
    pub fn spawn(
        bus: &Bus,
        config: BrokerConfig,
        repo: Repository,
    ) -> Result<BrokerHandle, BusError> {
        BrokerAgent::spawn_over(bus.as_transport(), config, repo)
    }

    /// Registers the broker on any transport with a private runtime.
    pub fn spawn_over(
        transport: Arc<dyn Transport>,
        config: BrokerConfig,
        repo: Repository,
    ) -> Result<BrokerHandle, BusError> {
        // A broker needs concurrent handlers (mutually-querying peers) but
        // not a big pool when it runs alone.
        let runtime = AgentRuntime::new(transport, RuntimeConfig::default().with_workers(4));
        let mut handle = BrokerAgent::spawn_on(&runtime, config, repo)?;
        handle._runtime = Some(runtime);
        Ok(handle)
    }

    /// Hosts the broker on an existing runtime (the shared-community and
    /// multi-agent-per-node deployments).
    pub fn spawn_on(
        runtime: &AgentRuntime,
        config: BrokerConfig,
        repo: Repository,
    ) -> Result<BrokerHandle, BusError> {
        let shared = Shared::new(runtime.obs(), config, repo);
        let agent = runtime.spawn(shared.config.name.clone(), Arc::clone(&shared) as _)?;
        Ok(BrokerHandle { shared, agent, _runtime: None })
    }

    /// Builds the broker's dispatch core without spawning it on a
    /// runtime. The interleaving explorer in `infosleuth-check` drives
    /// the returned [`BrokerCore`]'s behavior directly with a detached
    /// [`AgentContext`], so that *it* — not a worker pool — decides the
    /// order in which envelopes are dispatched.
    pub fn core(obs: &Arc<Obs>, config: BrokerConfig, repo: Repository) -> BrokerCore {
        BrokerCore { shared: Shared::new(obs, config, repo) }
    }
}

/// The broker's dispatch core detached from any hosting runtime: the
/// same [`AgentBehavior`] a runtime would drive, plus read-only probes
/// over the shared state that the explorer's invariants compare across
/// schedules.
pub struct BrokerCore {
    shared: Arc<Shared>,
}

impl BrokerCore {
    /// The behavior to dispatch envelopes into: open the envelope's
    /// [`recv` span](AgentContext::recv_span), then call `on_message`,
    /// exactly as a runtime worker does.
    pub fn behavior(&self) -> Arc<dyn AgentBehavior> {
        Arc::clone(&self.shared) as Arc<dyn AgentBehavior>
    }

    pub fn name(&self) -> &str {
        &self.shared.config.name
    }

    /// Repository mutation epoch (bumps once per applied mutation).
    pub fn repo_epoch(&self) -> u64 {
        lock(&self.shared.state).repo.epoch()
    }

    /// Canonical byte-stable digest of the repository: every resource and
    /// broker advertisement rendered to KQML text, sorted. Every schedule
    /// of one scenario must converge to an identical fingerprint.
    pub fn repo_fingerprint(&self) -> String {
        let state = lock(&self.shared.state);
        let mut lines: Vec<String> =
            state.repo.agents().map(|ad| codec::advertisement_to_sexpr(ad).to_string()).collect();
        lines.extend(
            state
                .repo
                .broker_advertisements()
                .map(|ad| codec::broker_advertisement_to_sexpr(ad).to_string()),
        );
        lines.sort();
        lines.join("\n")
    }

    /// Number of standing subscriptions currently registered.
    pub fn subscription_count(&self) -> usize {
        self.shared.cache.subscription_count()
    }

    /// The broker's stored answers (see [`BrokerHandle::stored_answers`]).
    pub fn stored_answers(&self) -> Result<Vec<StoredView>, String> {
        self.shared.stored_answers()
    }
}

/// Snapshot of one broker's inter-broker routing counters (the same
/// values the Prometheus scrape exports as `broker_*_total`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingStats {
    /// Forwards actually sent to peers.
    pub forwards: u64,
    /// Forwards skipped because the peer's digest cannot match.
    pub digest_pruned: u64,
    /// Contacted peers whose digest admitted the query but who returned
    /// zero matches (digest false positives).
    pub digest_fp: u64,
    /// Forward failures that demoted a peer to the suspect list.
    pub peer_suspects: u64,
    /// Digest (re-)advertisements ingested from peers.
    pub digest_updates: u64,
    /// Forwarded requests received carrying a stale digest epoch.
    pub digest_stale: u64,
}

impl BrokerHandle {
    pub fn name(&self) -> &str {
        &self.shared.config.name
    }

    /// Runs a closure against the broker's repository (tests, metrics, and
    /// pre-seeding). An out-of-band mutation that bumps the epoch leaves
    /// the stored answers current — the records no subscription pins are
    /// dropped, the pinned ones matched again and their subscribers told
    /// what changed — and triggers a digest re-advertisement to peers,
    /// exactly as a mutation arriving as a performative would.
    pub fn with_repository<T>(&self, f: impl FnOnce(&mut Repository) -> T) -> T {
        self.shared.with_state(self.agent.ctx(), |state, out| {
            let result = f(&mut state.repo);
            subscribe::resync(&self.shared, state, out);
            self.shared.broadcast_digest(state, out);
            result
        })
    }

    /// Inter-broker routing counters (digest pruning, suspects, staleness).
    pub fn routing_stats(&self) -> RoutingStats {
        let o = &self.shared.obs;
        RoutingStats {
            forwards: o.forwards.get(),
            digest_pruned: o.digest_pruned.get(),
            digest_fp: o.digest_fp.get(),
            peer_suspects: o.peer_suspect.get(),
            digest_updates: o.digest_updates.get(),
            digest_stale: o.digest_stale.get(),
        }
    }

    /// This broker's own capability digest, computed from its repository
    /// under the state lock: what a peer saying hello now would be told.
    pub fn digest(&self) -> CapabilityDigest {
        self.shared.own_digest(&lock(&self.shared.state))
    }

    /// Epoch of the digest this broker currently stores for `peer`
    /// (`None` until the peer's first digest arrives). Tests and benches
    /// use it to wait for digest propagation to quiesce.
    pub fn peer_digest_epoch(&self, peer: &str) -> Option<u64> {
        lock(&self.shared.state).routing.peers.get(peer).map(|d| d.epoch)
    }

    /// Hit/miss/eviction/stale counters of this broker's match cache.
    pub fn match_cache_stats(&self) -> MatchCacheStats {
        self.shared.cache.stats()
    }

    /// Number of standing subscriptions currently registered.
    pub fn subscription_count(&self) -> usize {
        self.shared.cache.subscription_count()
    }

    /// The stored answers checked against the repository as it stands:
    /// `Err` names the first record whose rows are not what the linear
    /// reference scan returns; `Ok` holds what each subscription reads of
    /// its record, sorted by subscriber and key.
    pub fn stored_answers(&self) -> Result<Vec<StoredView>, String> {
        self.shared.stored_answers()
    }

    /// Sends by this broker that the transport refused (each one was also
    /// reported to the runtime's monitor agent, when configured).
    pub fn delivery_failures(&self) -> u64 {
        self.agent.delivery_failures()
    }

    /// Advertises this broker to a peer broker and stores the peer's
    /// reciprocal advertisement, so both ends know each other (the
    /// bidirectional arrows of Figure 11).
    pub fn connect_peer(&self, peer: &str) -> Result<(), BusError> {
        let shared = &self.shared;
        // The hello carries our current digest so the peer can prune
        // forwards to us from the first exchange on.
        let digest = self.digest();
        let msg =
            Message::new(Performative::Advertise).with_ontology("infosleuth-service").with_content(
                codec::broker_hello_to_sexpr(&shared.config.broker_advertisement(), Some(&digest)),
            );
        let reply = self.agent.ctx().request(peer, msg, shared.config.peer_timeout)?;
        if let Some(content) = reply.content() {
            if let Ok(peer_ad) = codec::broker_advertisement_from_sexpr(content) {
                let _ = shared.store_peer(&mut lock(&shared.state), content, peer_ad);
            }
        }
        Ok(())
    }

    /// Stops the broker cleanly: the broker's mailbox is removed from the
    /// transport (subsequent sends fail like sends to a dead process) and
    /// no further messages are dispatched to it.
    pub fn stop(self) {
        self.agent.stop();
        // Drop order then shuts down the private runtime, if any.
    }
}

/// Fully interconnects a set of brokers into a consortium ("a set of
/// brokers that are fully interconnected").
pub fn interconnect(brokers: &[&BrokerHandle]) -> Result<(), BusError> {
    for a in brokers {
        for b in brokers {
            if a.name() != b.name() {
                a.connect_peer(b.name())?;
            }
        }
    }
    Ok(())
}

/// Fixtures the handler modules' tests share.
#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_ontology::{
        paper_class_ontology, Advertisement, AgentLocation, AgentType, Capability,
        ConversationType, OntologyContent, SemanticInfo, SyntacticInfo,
    };

    pub(super) const T: Duration = Duration::from_secs(5);

    pub(super) fn resource_ad(name: &str, classes: &[&str]) -> Advertisement {
        Advertisement::new(AgentLocation::new(name, "tcp://h:1", AgentType::Resource))
            .with_syntactic(SyntacticInfo::sql_kqml())
            .with_semantic(
                SemanticInfo::default()
                    .with_conversations([ConversationType::AskAll])
                    .with_capabilities([Capability::relational_query_processing()])
                    .with_content(
                        OntologyContent::new("paper-classes").with_classes(classes.to_vec()),
                    ),
            )
    }

    pub(super) fn seeded_repo() -> Repository {
        let mut r = Repository::new();
        r.register_ontology(paper_class_ontology());
        r
    }

    pub(super) fn spawn_broker(bus: &Bus, name: &str) -> BrokerHandle {
        BrokerAgent::spawn(
            bus,
            BrokerConfig::new(name, format!("tcp://{name}.mcc.com:5500")),
            seeded_repo(),
        )
        .unwrap()
    }

    #[test]
    #[should_panic(expected = "pinned at 1 for the benchmark harness")]
    fn a_broker_handles_one_envelope_per_dispatch() {
        let config = BrokerConfig { batch_limit: 8, ..BrokerConfig::new("b", "tcp://b:1") };
        BrokerAgent::core(&Obs::new(), config, seeded_repo());
    }
}
