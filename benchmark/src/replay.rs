//! Per-layer timings taken from outside: the traced window's own
//! messages replayed through each layer's public functions on a
//! same-seed twin, after the window, off every timed path.
//!
//! Every value is the median over the replayed sample, so one slow first
//! call (cold caches, lazy saturation) does not move it.

use crate::community::{broker_name, CLI_SETUP, CLI_SUB};
use crate::gen::Inputs;
use crate::stats::median;
use infosleuth_agent::{
    mailbox, AgentContext, Envelope, Mailbox, MailboxSender, Transport, TransportError,
};
use infosleuth_broker::{
    codec, BrokerAgent, BrokerConfig, CapabilityDigest, MatchCache, Matchmaker, Repository,
    ShardPlan, SubscriptionRegistry, DEFAULT_MATCH_CACHE_CAPACITY,
};
use infosleuth_kqml::{Message, Performative, SExpr};
use infosleuth_obs::Obs;
use infosleuth_ontology::{Advertisement, ServiceQuery};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Advertisements replayed for the decode / repository timings.
const AD_SAMPLE: usize = 512;

/// Swallows everything the twin broker sends.
#[derive(Default)]
struct SinkTransport {
    ids: AtomicU64,
    /// Delivery halves of opened mailboxes, kept so they stay connected.
    open: Mutex<Vec<MailboxSender>>,
}

impl Transport for SinkTransport {
    fn open_mailbox(&self, _name: &str) -> Result<Mailbox, TransportError> {
        let (tx, rx) = mailbox();
        self.open.lock().expect("sink lock").push(tx);
        Ok(rx)
    }
    fn unregister(&self, _name: &str) -> bool {
        true
    }
    fn is_registered(&self, _name: &str) -> bool {
        true
    }
    fn agents(&self) -> Vec<String> {
        Vec::new()
    }
    fn send(&self, _from: &str, _to: &str, _message: Message) -> Result<(), TransportError> {
        Ok(())
    }
    fn next_conversation_id(&self, prefix: &str) -> String {
        format!("{prefix}-{}", self.ids.fetch_add(1, Ordering::Relaxed))
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = std::hint::black_box(f());
    (started.elapsed().as_nanos() as f64, out)
}

fn med(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// Decodes a request's content the way `handle_query` does: a full
/// `broker-search` first, a bare `service-query` on failure.
fn decode_query(content: &SExpr) -> Option<ServiceQuery> {
    match codec::search_request_from_sexpr(content) {
        Ok(request) => Some(request.query),
        Err(_) => codec::service_query_from_sexpr(content).ok(),
    }
}

fn advertise_message(ad: &Advertisement, id: usize) -> Message {
    Message::new(Performative::Advertise)
        .with_ontology("infosleuth-service")
        .with_content(codec::advertisement_to_sexpr(ad))
        .with_reply_with(format!("s{id}"))
}

/// What the traced window hands over for replay.
pub struct Sample<'a> {
    pub inputs: &'a Inputs,
    /// Client→broker requests in the order they entered the fabric.
    pub requests: &'a [(String, Message)],
    /// Ask replies as the client received them.
    pub replies: &'a [Message],
    /// Each live broker's current digest (several brokers only).
    pub digests: Vec<CapabilityDigest>,
}

/// Runs every replay and returns `(metric name, value)` pairs.
pub fn replay(sample: &Sample<'_>) -> Vec<(&'static str, f64)> {
    let inputs = sample.inputs;
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let asks: Vec<&Message> = sample
        .requests
        .iter()
        .map(|(_, m)| m)
        .filter(|m| m.performative == Performative::AskAll)
        .collect();
    let writes: Vec<Advertisement> = sample
        .requests
        .iter()
        .filter(|(_, m)| m.performative == Performative::Update)
        .filter_map(|(_, m)| codec::advertisement_from_sexpr(m.content()?).ok())
        .collect();
    let queries: Vec<ServiceQuery> =
        asks.iter().filter_map(|m| decode_query(m.content()?)).collect();

    // kqml: print, parse and size of the run's own requests and replies.
    let wire = |messages: &[&Message]| {
        let (mut print, mut parse, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
        for m in messages {
            let (t, text) = timed(|| m.to_string());
            print.push(t);
            parse.push(timed(|| Message::parse(&text)).0);
            bytes.push(m.wire_size() as f64);
        }
        (med(&print), med(&parse), med(&bytes))
    };
    let (req_print, req_parse, req_bytes) = wire(&asks);
    let (rep_print, rep_parse, rep_bytes) = wire(&sample.replies.iter().collect::<Vec<_>>());
    out.push(("kqml.print_ns", req_print + rep_print));
    out.push(("kqml.parse_ns", req_parse + rep_parse));
    out.push(("kqml.request_bytes", req_bytes));
    out.push(("kqml.reply_bytes", rep_bytes));

    // broker::codec: query decode as handle_query does it, reply encode,
    // advertisement decode.
    let decode: Vec<f64> =
        asks.iter().filter_map(|m| m.content()).map(|c| timed(|| decode_query(c)).0).collect();
    out.push(("codec.query_decode_ns", med(&decode)));
    let encode: Vec<f64> = sample
        .replies
        .iter()
        .filter_map(|m| codec::matches_from_sexpr(m.content()?).ok())
        .map(|matches| timed(|| codec::matches_reply_to_sexpr(&matches, None)).0)
        .collect();
    out.push(("codec.reply_encode_ns", med(&encode)));

    // The twin holds one broker's share of the population: everything on
    // a single-broker workload, shard 0 of the plan otherwise.
    let plan = ShardPlan::new((0..inputs.brokers).map(broker_name));
    let population: Vec<&Advertisement> =
        inputs.ads.iter().filter(|ad| plan.home_shard(ad) == 0).collect();
    let decoded_from: Vec<&Advertisement> = if writes.is_empty() {
        population.iter().copied().take(AD_SAMPLE).collect()
    } else {
        writes.iter().collect()
    };
    let ad_decode: Vec<f64> = decoded_from
        .iter()
        .map(|ad| {
            let content = codec::advertisement_to_sexpr(ad);
            timed(|| codec::advertisement_from_sexpr(&content)).0
        })
        .collect();
    out.push(("codec.ad_decode_ns", med(&ad_decode)));

    // broker::repository and broker::sub_index on a bare twin repository:
    // the population goes in (inserts), then the window's updates.
    let mut repo = Repository::new();
    repo.register_ontology(inputs.ontology.clone());
    let mut inserts = Vec::new();
    for ad in &population {
        let ad = (*ad).clone();
        inserts.push(timed(|| repo.advertise(ad)).0);
    }
    let mut registry = SubscriptionRegistry::new(true);
    for (i, q) in inputs.subscriptions.iter().enumerate() {
        let last = Arc::new(Matchmaker::default().match_query_mut(&mut repo, q));
        registry.register(format!("sub-{i}"), CLI_SUB.into(), None, q.clone(), last, &repo);
    }
    let (mut updates, mut affected) = (Vec::new(), Vec::new());
    for ad in &writes {
        let name = ad.location.name.clone();
        let old = repo.advertisement_arc(&name).cloned();
        let ad = ad.clone();
        updates.push(timed(|| repo.advertise(ad)).0);
        let new = repo.advertisement_arc(&name).cloned();
        affected.push(timed(|| registry.affected(old.as_deref(), new.as_deref(), &repo)).0);
    }
    let advertise = if updates.is_empty() { &inserts } else { &updates };
    out.push(("repository.advertise_us", med(advertise) / 1e3));
    out.push(("sub_index.affected_us", med(&affected) / 1e3));

    // broker::matchmaker: the miss path of match_query_cached on the twin.
    let cache = MatchCache::new(DEFAULT_MATCH_CACHE_CAPACITY);
    let matchmaker = Matchmaker::default();
    let matching: Vec<f64> = queries
        .iter()
        .map(|q| {
            cache.clear();
            timed(|| matchmaker.match_query_cached(&mut repo, &cache, q)).0
        })
        .collect();
    out.push(("matchmaker.match_us", med(&matching) / 1e3));

    // broker::match_cache: fill as the broker would (lookup, then insert on
    // a miss), then time the lookups of a second pass.
    cache.clear();
    let keys: Vec<_> = queries.iter().map(MatchCache::query_key).collect();
    for key in &keys {
        if cache.lookup_keyed(1, key).is_none() {
            cache.insert_keyed(1, key.clone(), Arc::new(Vec::new()));
        }
    }
    let lookups: Vec<f64> = keys.iter().map(|k| timed(|| cache.lookup_keyed(1, k)).0).collect();
    out.push(("cache.lookup_ns", med(&lookups)));

    // broker::digest: every peer digest asked about every sampled query.
    let mut can_match = Vec::new();
    for digest in &sample.digests {
        for q in &queries {
            can_match.push(timed(|| digest.can_match(q)).0);
        }
    }
    out.push(("digest.can_match_ns", med(&can_match)));

    // broker::broker_agent: the whole handler, driven the way crates/check
    // drives it — a detached context over a transport that swallows sends.
    let obs = Obs::new();
    let mut twin_repo = Repository::new();
    twin_repo.register_ontology(inputs.ontology.clone());
    let me = broker_name(0);
    let core = BrokerAgent::core(
        &obs,
        BrokerConfig::new(me.clone(), format!("tcp://{me}.bench:5500")),
        twin_repo,
    );
    let behavior = core.behavior();
    let transport: Arc<dyn Transport> = Arc::new(SinkTransport::default());
    let ctx = AgentContext::detached(me.clone(), transport, Arc::clone(&obs));
    let deliver = |from: &str, message: Message| {
        let env = Envelope { from: from.to_string(), to: me.clone(), message };
        timed(|| behavior.on_message(&ctx, env)).0
    };
    for (i, ad) in population.iter().enumerate() {
        deliver(CLI_SETUP, advertise_message(ad, i));
    }
    for (i, q) in inputs.subscriptions.iter().enumerate() {
        let subscribe = Message::new(Performative::Subscribe)
            .with_ontology("infosleuth-service")
            .with("reply-to", SExpr::atom(CLI_SUB))
            .with_content(codec::service_query_to_sexpr(q))
            .with_reply_with(format!("sub{i}"));
        deliver(CLI_SETUP, subscribe);
    }
    // The same warm-up the live community got.
    for (n, ask) in inputs.warmup().enumerate() {
        deliver(CLI_SETUP, crate::loadgen::ask_message(&me, format!("warm{n}"), &ask));
    }
    let (mut handler_ask, mut handler_write) = (Vec::new(), Vec::new());
    for (from, message) in sample.requests {
        let is_ask = message.performative == Performative::AskAll;
        let t = deliver(from, message.clone());
        if is_ask {
            handler_ask.push(t);
        } else {
            handler_write.push(t);
        }
    }
    out.push(("broker.handler_ask_us", med(&handler_ask) / 1e3));
    out.push(("broker.handler_write_us", med(&handler_write) / 1e3));
    out
}
