//! Live communities: runtimes, transports, brokers and stub agents, set up
//! through the same public calls a deployment uses and with every default
//! (`RuntimeConfig::default()`, `BrokerConfig::new(..)`) exactly as shipped.

use crate::gen::{self, Inputs};
use crate::trace::TraceLog;
use infosleuth_agent::{
    AgentBehavior, AgentContext, AgentHandle, AgentRuntime, Bus, Endpoint, Envelope, RuntimeConfig,
    TappedTransport, TcpTransport, Transport, TransportExt,
};
use infosleuth_broker::{
    advertise_to, codec, connect_community, query_broker, subscribe_to, BrokerAgent, BrokerConfig,
    BrokerHandle, Repository, ShardPlan,
};
use infosleuth_kqml::Performative;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timeout of every set-up conversation and of every measured request.
pub const T: Duration = Duration::from_secs(5);

pub const CLI_SETUP: &str = "cli-setup";
pub const CLI_ASK: &str = "cli-ask";
pub const CLI_WRITE: &str = "cli-write";
pub const CLI_SUB: &str = "cli-sub";
const CLIENTS: [&str; 4] = [CLI_SETUP, CLI_ASK, CLI_WRITE, CLI_SUB];

pub fn broker_name(i: usize) -> String {
    format!("b{i}")
}

/// The resource agent behind an advertised name: answers `ping`, nothing
/// else. Without it the broker's default 30 s liveness sweep would
/// unadvertise the whole population as dead.
#[derive(Default)]
pub struct Stub {
    pub pings: AtomicU64,
}

impl AgentBehavior for Stub {
    fn on_message(&self, ctx: &AgentContext, env: Envelope) {
        if env.message.performative == Performative::Ping {
            self.pings.fetch_add(1, Ordering::Relaxed);
            let _ = ctx.send(&env.from, env.message.reply_skeleton(Performative::Reply));
        }
    }
}

/// A running community plus the client-side endpoints the load generator
/// uses. Dropping it without [`Community::teardown`] leaks threads.
pub struct Community {
    pub brokers: Vec<BrokerHandle>,
    /// The transport client endpoints live on (the Bus, or the client's
    /// own TCP node).
    pub client_transport: Arc<dyn Transport>,
    pub stub: Arc<Stub>,
    pub hosted_agents: usize,
    pub ask_ep: Endpoint,
    pub write_ep: Option<Endpoint>,
    pub sub_ep: Option<Endpoint>,
    /// Sub-delta epochs last seen per subscription key (monotonicity check).
    pub sub_epochs: HashMap<String, u64>,
    runtimes: Vec<AgentRuntime>,
    tcp_nodes: Vec<Arc<TcpTransport>>,
    _stubs: Vec<AgentHandle>,
}

/// A community ready for its window, and what getting there cost.
pub struct SetUp {
    pub community: Community,
    /// Workload start → ready for the first measured operation.
    pub seconds: f64,
    /// Round trip of each population `advertise`, closed loop.
    pub advertise_ns: Vec<u64>,
}

fn fresh_repo(inputs: &Inputs) -> Repository {
    let mut repo = Repository::new();
    repo.register_ontology(inputs.ontology.clone());
    repo
}

fn tapped(
    inner: Arc<dyn Transport>,
    trace: Option<&Arc<TraceLog>>,
    node: usize,
) -> Arc<dyn Transport> {
    match trace {
        Some(log) => TappedTransport::wrap(inner, TraceLog::tap(log, node)),
        None => inner,
    }
}

/// Which node hosts broker `i` on `forward_closed_tcp`: two brokers each on
/// nodes 0 and 1; the client sits alone on node 2.
pub fn node_of_broker(i: usize) -> usize {
    i / 2
}
pub const CLIENT_NODE: usize = 2;

impl Community {
    /// Builds the community of `inputs` and brings it to the state the
    /// window starts from: population advertised through the live path
    /// (closed loop, one `advertise_to` at a time), subscriptions placed,
    /// digests quiescent, caches warm. Returns the community and how long
    /// all of that took.
    pub fn set_up(inputs: &Inputs, trace: Option<&Arc<TraceLog>>) -> Result<SetUp, String> {
        let started = Instant::now();
        let e = |what: &str, err: &dyn std::fmt::Display| format!("set-up: {what}: {err}");
        let tcp = inputs.workload == gen::FORWARD;

        // Transports: one Bus, or three TCP nodes on loopback.
        let mut tcp_nodes: Vec<Arc<TcpTransport>> = Vec::new();
        let node_transports: Vec<Arc<dyn Transport>> = if tcp {
            for _ in 0..3 {
                tcp_nodes.push(TcpTransport::bind("127.0.0.1:0").map_err(|x| e("bind", &x))?);
            }
            for (n, node) in tcp_nodes.iter().enumerate() {
                for b in 0..inputs.brokers {
                    if node_of_broker(b) != n {
                        node.add_route(broker_name(b), tcp_nodes[node_of_broker(b)].address());
                    }
                }
                if n != CLIENT_NODE {
                    for client in CLIENTS {
                        node.add_route(client, tcp_nodes[CLIENT_NODE].address());
                    }
                }
            }
            tcp_nodes
                .iter()
                .enumerate()
                .map(|(n, node)| tapped(Arc::clone(node) as Arc<dyn Transport>, trace, n))
                .collect()
        } else {
            vec![tapped(Bus::new().as_transport(), trace, 0)]
        };
        let client_transport = Arc::clone(node_transports.last().expect("at least one node"));
        let hosting = if tcp { 2 } else { 1 };
        let runtimes: Vec<AgentRuntime> = node_transports[..hosting]
            .iter()
            .map(|t| AgentRuntime::new(Arc::clone(t), RuntimeConfig::default()))
            .collect();

        // Brokers, interconnected when there are several.
        let mut brokers = Vec::with_capacity(inputs.brokers);
        for b in 0..inputs.brokers {
            let rt = &runtimes[if tcp { node_of_broker(b) } else { 0 }];
            let config =
                BrokerConfig::new(broker_name(b), format!("tcp://{}.bench:5500", broker_name(b)));
            brokers.push(
                BrokerAgent::spawn_on(rt, config, fresh_repo(inputs))
                    .map_err(|x| e("spawn broker", &x))?,
            );
        }
        let plan = if brokers.len() > 1 {
            let refs: Vec<&BrokerHandle> = brokers.iter().collect();
            connect_community(&refs).map_err(|x| e("interconnect", &x))?
        } else {
            ShardPlan::new([broker_name(0)])
        };

        let mut setup_ep = client_transport.endpoint(CLI_SETUP).map_err(|x| e("endpoint", &x))?;
        let ask_ep = client_transport.endpoint(CLI_ASK).map_err(|x| e("endpoint", &x))?;

        // Population: each agent comes up as a live stub next to its home
        // broker, then advertises there.
        let stub = Arc::new(Stub::default());
        let mut stubs = Vec::with_capacity(inputs.ads.len());
        let mut advertise_ns = Vec::with_capacity(inputs.ads.len());
        for ad in &inputs.ads {
            let home = plan.home_shard(ad);
            let rt = &runtimes[if tcp { node_of_broker(home) } else { 0 }];
            stubs.push(
                rt.spawn(ad.location.name.clone(), Arc::clone(&stub) as Arc<dyn AgentBehavior>)
                    .map_err(|x| e("spawn stub", &x))?,
            );
            let asked = Instant::now();
            match advertise_to(&mut setup_ep, plan.broker(home), ad, T) {
                Ok(true) => advertise_ns.push(asked.elapsed().as_nanos() as u64),
                Ok(false) => {
                    return Err(format!(
                        "set-up: {} declined {}",
                        plan.broker(home),
                        ad.location.name
                    ))
                }
                Err(x) => return Err(e("advertise", &x)),
            }
        }

        // Standing subscriptions, all held by one subscriber endpoint.
        let mut sub_ep = None;
        let mut sub_epochs = HashMap::new();
        if !inputs.subscriptions.is_empty() {
            let mut ep = client_transport.endpoint(CLI_SUB).map_err(|x| e("endpoint", &x))?;
            for q in &inputs.subscriptions {
                match subscribe_to(&mut setup_ep, &broker_name(0), q, CLI_SUB, T) {
                    Ok(Some(_)) => {}
                    Ok(None) => return Err("set-up: a subscription was declined".into()),
                    Err(x) => return Err(e("subscribe", &x)),
                }
            }
            drain_deltas(&mut ep, &mut sub_epochs)?;
            if sub_epochs.len() != inputs.subscriptions.len() {
                return Err(format!(
                    "set-up: {} initial snapshots for {} subscriptions",
                    sub_epochs.len(),
                    inputs.subscriptions.len()
                ));
            }
            sub_ep = Some(ep);
        }
        let write_ep = if inputs.workload == gen::CHURN {
            Some(client_transport.endpoint(CLI_WRITE).map_err(|x| e("endpoint", &x))?)
        } else {
            None
        };

        await_digests(&brokers)?;

        for ask in inputs.warmup() {
            query_broker(&mut setup_ep, &broker_name(ask.broker), &ask.query, ask.policy, T)
                .map_err(|x| e("warm-up ask", &x))?;
        }
        setup_ep.unregister();

        let community = Community {
            hosted_agents: brokers.len() + stubs.len(),
            brokers,
            client_transport,
            stub,
            ask_ep,
            write_ep,
            sub_ep,
            sub_epochs,
            runtimes,
            tcp_nodes,
            _stubs: stubs,
        };
        Ok(SetUp { community, seconds: started.elapsed().as_secs_f64(), advertise_ns })
    }

    /// Advertisements held across all brokers.
    pub fn repository_len(&self) -> usize {
        self.brokers.iter().map(|b| b.with_repository(|r| r.len())).sum()
    }

    pub fn repository_bytes(&self) -> usize {
        self.brokers.iter().map(|b| b.with_repository(|r| r.approx_size_bytes())).sum()
    }

    /// Stops every agent, joins every runtime and reactor thread.
    pub fn teardown(self) {
        let Community { brokers, runtimes, tcp_nodes, ask_ep, write_ep, sub_ep, _stubs, .. } = self;
        ask_ep.unregister();
        for ep in [write_ep, sub_ep].into_iter().flatten() {
            ep.unregister();
        }
        for b in brokers {
            b.stop();
        }
        drop(_stubs);
        for rt in &runtimes {
            rt.shutdown();
        }
        for node in &tcp_nodes {
            node.shutdown();
        }
    }
}

/// Drains queued `sub-delta` tells, checking per subscription that epochs
/// never go backwards. Returns how many were drained.
pub fn drain_deltas(ep: &mut Endpoint, last: &mut HashMap<String, u64>) -> Result<usize, String> {
    let mut n = 0;
    // The first wait covers tells still in flight behind the last ack.
    while let Some(env) = ep.recv_timeout(Duration::from_millis(if n == 0 { 50 } else { 0 })) {
        let key = env.message.in_reply_to().unwrap_or_default().to_string();
        let content = env.message.content().ok_or("sub-delta tell without content")?;
        let (epoch, _, _) = codec::sub_delta_from_sexpr(content).map_err(|x| x.0)?;
        let seen = last.entry(key.clone()).or_insert(0);
        if epoch < *seen {
            return Err(format!(
                "subscription {key}: delta epoch went back from {seen} to {epoch}"
            ));
        }
        *seen = epoch;
        n += 1;
    }
    Ok(n)
}

/// Blocks until every broker's stored digest of every peer has caught up
/// with that peer's repository epoch (digest updates are one-way tells).
pub fn await_digests(brokers: &[BrokerHandle]) -> Result<(), String> {
    let deadline = Instant::now() + T;
    for holder in brokers {
        for peer in brokers {
            if peer.name() == holder.name() {
                continue;
            }
            let want = peer.with_repository(|r| r.epoch());
            while holder.peer_digest_epoch(peer.name()) != Some(want) {
                if Instant::now() > deadline {
                    return Err(format!(
                        "digest of {} never reached {}",
                        peer.name(),
                        holder.name()
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_agent::ping;

    /// The reason stubs exist: a forced liveness sweep over live stubs
    /// leaves the repository intact, and the stubs counted its pings.
    #[test]
    fn stubs_answer_ping_and_survive_a_forced_sweep() {
        let inputs = gen::generate(gen::HIT, 1).unwrap();
        let bus = Bus::new();
        let runtime = AgentRuntime::new(bus.as_transport(), RuntimeConfig::default());
        let broker = BrokerAgent::spawn_on(
            &runtime,
            BrokerConfig::new("b0", "tcp://b0.bench:5500")
                .with_ping_interval(Some(Duration::from_millis(50))),
            fresh_repo(&inputs),
        )
        .unwrap();
        let stub = Arc::new(Stub::default());
        let mut client = bus.register("client").unwrap();
        let mut handles = Vec::new();
        for ad in inputs.ads.iter().take(12) {
            handles.push(runtime.spawn(ad.location.name.clone(), Arc::clone(&stub) as _).unwrap());
            assert!(advertise_to(&mut client, "b0", ad, T).unwrap());
        }
        assert_eq!(ping(&mut client, &inputs.ads[0].location.name, None, T), Ok(true));
        // Several sweep periods: every agent is pinged, none is dropped.
        let deadline = Instant::now() + T;
        while stub.pings.load(Ordering::Relaxed) <= 2 * 12 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(stub.pings.load(Ordering::Relaxed) > 2 * 12, "two sweeps must have run");
        assert_eq!(broker.with_repository(|r| r.len()), 12, "live agents must survive the sweep");
        // And the sweep does remove a name nobody answers for.
        drop(handles.pop());
        let deadline = Instant::now() + T;
        while broker.with_repository(|r| r.len()) == 12 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(broker.with_repository(|r| r.len()), 11, "a dead agent must be swept out");
        broker.stop();
        runtime.shutdown();
    }
}
