//! The `ping` conversation, in both directions: answering an agent that
//! asks whether the broker still knows it (§4.2.2), and the broker's own
//! periodic sweep over the agents that advertised to it (§2.2).

use super::{reply_as_broker, subscribe, Shared};
use crate::Repository;
use infosleuth_agent::{AgentContext, Envelope};
use infosleuth_kqml::{Message, Performative, SExpr};
use infosleuth_obs::sync::lock;
use std::collections::BTreeSet;

pub(super) fn handle_ping(shared: &Shared, ctx: &AgentContext, env: &Envelope) {
    // "In the event that a broker is alive but does not have information
    // about the agent that is doing the querying, [it] will receive a reply
    // containing no matches" — modelled as `sorry`.
    let perf = match env.message.content().and_then(SExpr::as_text) {
        Some(about) => {
            let state = lock(&shared.state);
            if state.repo.contains_agent(about)
                || state.repo.peer_brokers().iter().any(|b| b == about)
            {
                Performative::Reply
            } else {
                Performative::Sorry
            }
        }
        None => Performative::Reply,
    };
    reply_as_broker(ctx, &env.from, env.message.reply_skeleton(perf));
}

/// Pings every advertised agent and removes the ones that no longer
/// respond — the repository-maintenance half of §2.2's lifecycle.
pub(super) fn liveness_sweep(shared: &Shared, ctx: &AgentContext) {
    let agents: Vec<String> = lock(&shared.state).repo.agent_names().map(str::to_string).collect();
    // One conversation with the whole repository: an agent is dead iff no
    // reply arrives within `peer_timeout` of its ping. A probe the
    // transport refuses counts as a delivery failure (and is reported to
    // the monitor) in addition to marking the agent dead — the sweep does
    // not swallow send errors.
    let probes = agents.iter().map(|a| (a.clone(), Message::new(Performative::Ping))).collect();
    let replies = ctx.request_all(probes, shared.config.peer_timeout);
    let dead: Vec<String> =
        agents.into_iter().zip(replies).filter_map(|(a, r)| r.is_err().then_some(a)).collect();
    if dead.is_empty() {
        return;
    }
    shared.with_state(ctx, |state, out| {
        let mut affected = BTreeSet::new();
        for agent in dead {
            let unadvertise = |repo: &mut Repository| repo.unadvertise(&agent);
            if let Some(mut more) = subscribe::mutate(shared, state, &agent, unadvertise) {
                affected.append(&mut more);
            }
        }
        subscribe::notify(shared, state, affected, out);
        shared.broadcast_digest(state, out);
    });
}

#[cfg(test)]
mod tests {
    use super::super::tests::{resource_ad, seeded_repo, spawn_broker, T};
    use super::super::{BrokerAgent, BrokerConfig};
    use crate::{advertise_to, codec, subscribe_to, Repository};
    use infosleuth_agent::{
        AgentBehavior, AgentContext, AgentRuntime, Bus, Envelope, RuntimeConfig,
    };
    use infosleuth_kqml::{Performative, SExpr};
    use infosleuth_ontology::{paper_class_ontology, AgentType, ServiceQuery};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    #[test]
    fn ping_semantics() {
        let bus = Bus::new();
        let broker = spawn_broker(&bus, "broker1");
        let mut agent = bus.register("ra1").unwrap();
        advertise_to(&mut agent, "broker1", &resource_ad("ra1", &["C1"]), T).unwrap();
        assert_eq!(infosleuth_agent::ping(&mut agent, "broker1", Some("ra1"), T), Ok(true));
        assert_eq!(infosleuth_agent::ping(&mut agent, "broker1", Some("ghost"), T), Ok(false));
        broker.stop();
        // Dead broker: transport error.
        assert!(infosleuth_agent::ping(
            &mut agent,
            "broker1",
            Some("ra1"),
            Duration::from_millis(100)
        )
        .is_err());
    }

    #[test]
    fn liveness_sweep_prunes_dead_agents() {
        let bus = Bus::new();
        let mut repo = seeded_repo();
        repo.register_ontology(paper_class_ontology());
        let broker = BrokerAgent::spawn(
            &bus,
            BrokerConfig::new("broker1", "tcp://b1.mcc.com:5500")
                .with_ping_interval(Some(Duration::from_millis(50))),
            Repository::new(),
        )
        .unwrap();
        // A live agent that answers pings.
        let mut live = bus.register("live-ra").unwrap();
        let live_thread = std::thread::spawn({
            let bus = bus.clone();
            move || {
                let mut ep = bus.register("live-ra-loop").unwrap();
                drop(ep.try_recv()); // silence unused warnings
            }
        });
        live_thread.join().unwrap();
        advertise_to(&mut live, "broker1", &resource_ad("live-ra", &[]), T).unwrap();
        // A doomed agent that advertises then dies.
        let mut doomed = bus.register("doomed-ra").unwrap();
        advertise_to(&mut doomed, "broker1", &resource_ad("doomed-ra", &[]), T).unwrap();
        broker.with_repository(|r| {
            assert!(r.contains_agent("live-ra"));
            assert!(r.contains_agent("doomed-ra"));
        });
        doomed.unregister(); // the agent "fails" without unregistering
                             // Keep the live agent answering pings while the sweep runs.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(env) = live.recv_timeout(Duration::from_millis(20)) {
                if env.message.performative == Performative::Ping {
                    let _ = live.send(&env.from, env.message.reply_skeleton(Performative::Reply));
                }
            }
            let pruned = broker.with_repository(|r| !r.contains_agent("doomed-ra"));
            if pruned {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "sweep never pruned the dead agent");
        }
        broker.with_repository(|r| {
            assert!(r.contains_agent("live-ra"), "live agent must survive the sweep");
            assert!(!r.contains_agent("doomed-ra"));
        });
        broker.stop();
    }

    /// A hosted resource agent: notes when the first ping reached any
    /// stub, and answers it unless mute.
    struct Stub {
        mute: bool,
        first_ping: Arc<Mutex<Option<Instant>>>,
    }

    impl AgentBehavior for Stub {
        fn on_message(&self, ctx: &AgentContext, env: Envelope) {
            if env.message.performative == Performative::Ping {
                self.first_ping.lock().unwrap().get_or_insert_with(Instant::now);
                if !self.mute {
                    let _ = ctx.send(&env.from, env.message.reply_skeleton(Performative::Reply));
                }
            }
        }
    }

    #[test]
    fn sweep_waits_out_silent_agents_together() {
        let bus = Bus::new();
        let runtime = AgentRuntime::new(bus.as_transport(), RuntimeConfig::default());
        // The first sweep fires one interval after the spawn: late enough
        // for forty advertisements to land, and the only one in this test.
        let mut config = BrokerConfig::new("broker1", "tcp://b1.mcc.com:5500")
            .with_ping_interval(Some(Duration::from_millis(1500)));
        config.peer_timeout = Duration::from_millis(400);
        let broker = BrokerAgent::spawn_on(&runtime, config, seeded_repo()).unwrap();
        let first_ping = Arc::new(Mutex::new(None));
        let mut client = bus.register("client").unwrap();
        let mut watcher = bus.register("watcher").unwrap();
        let classes = ["C1", "C2", "C3"];
        // One standing query per class; each class loses one agent.
        let mut keys = Vec::new();
        for class in classes {
            let q = ServiceQuery::for_agent_type(AgentType::Resource)
                .with_ontology("paper-classes")
                .with_classes([class]);
            keys.push(subscribe_to(&mut client, "broker1", &q, "watcher", T).unwrap().unwrap());
            watcher.recv_timeout(T).expect("the empty snapshot");
        }
        let mut stubs = Vec::new();
        for i in 0..40 {
            let (name, mute) =
                if i < 3 { (format!("mute-{i}"), true) } else { (format!("ra-{i}"), false) };
            let stub = Stub { mute, first_ping: Arc::clone(&first_ping) };
            stubs.push(runtime.spawn(name.clone(), Arc::new(stub)).unwrap());
            assert!(advertise_to(
                &mut client,
                "broker1",
                &resource_ad(&name, &[classes[i % 3]]),
                T
            )
            .unwrap());
            watcher.recv_timeout(T).expect("the join delta");
        }
        assert!(first_ping.lock().unwrap().is_none(), "the sweep ran before the setup finished");
        let deadline = Instant::now() + T;
        while broker.with_repository(|r| r.len()) > 37 {
            assert!(Instant::now() < deadline, "the sweep never dropped the silent agents");
            std::thread::sleep(Duration::from_millis(5));
        }
        let swept = first_ping.lock().unwrap().expect("agents were pinged").elapsed();
        assert!(swept < Duration::from_millis(800), "three timeouts waited in turn: {swept:?}");
        broker.with_repository(|r| {
            assert_eq!(r.len(), 37);
            assert!((0..3).all(|i| !r.contains_agent(&format!("mute-{i}"))));
        });
        // Exactly one sub-delta per dropped agent, to the query it matched.
        for (i, key) in keys.iter().enumerate() {
            let note = watcher.recv_timeout(T).expect("a sub-delta per dropped agent").message;
            assert_eq!(note.in_reply_to(), Some(key.as_str()));
            let (_, added, removed) = codec::sub_delta_from_sexpr(note.content().unwrap()).unwrap();
            assert!(added.is_empty());
            assert_eq!(removed, vec![format!("mute-{i}")]);
        }
        assert!(watcher.recv_timeout(Duration::from_millis(100)).is_none(), "no further delta");
        broker.stop();
        drop(stubs);
        runtime.shutdown();
    }

    #[test]
    fn failed_liveness_probes_are_counted_and_reported() {
        // A dead advertised agent makes the sweep's ping fail at the
        // transport: that failure must show up in the broker's
        // delivery-failure stat AND reach the monitor agent as a log tell
        // (instead of being silently swallowed as in the seed).
        let bus = Bus::new();
        let runtime = AgentRuntime::new(
            bus.as_transport(),
            RuntimeConfig::default().with_monitor("monitor-agent"),
        );
        let mut monitor = bus.register("monitor-agent").unwrap();
        let broker = BrokerAgent::spawn_on(
            &runtime,
            BrokerConfig::new("broker1", "tcp://b1.mcc.com:5500")
                .with_ping_interval(Some(Duration::from_millis(50))),
            Repository::new(),
        )
        .unwrap();
        let mut doomed = bus.register("doomed-ra").unwrap();
        advertise_to(&mut doomed, "broker1", &resource_ad("doomed-ra", &[]), T).unwrap();
        assert_eq!(broker.delivery_failures(), 0);
        doomed.unregister();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while broker.delivery_failures() == 0 {
            assert!(std::time::Instant::now() < deadline, "sweep never failed a probe");
            std::thread::sleep(Duration::from_millis(10));
        }
        let env = monitor
            .recv_timeout(Duration::from_secs(2))
            .expect("monitor receives the delivery-failure log");
        assert_eq!(env.message.get_text("ontology"), Some(infosleuth_agent::LOG_ONTOLOGY));
        let items = env.message.content().and_then(SExpr::as_list).unwrap().to_vec();
        assert_eq!(items[0], SExpr::atom("delivery-failure"));
        assert_eq!(items[1], SExpr::atom("broker1"));
        assert_eq!(items[2], SExpr::atom("doomed-ra"));
        broker.stop();
        runtime.shutdown();
    }
}
