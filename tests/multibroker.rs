//! Multibrokering integration: consortium search, search policies,
//! redundant advertising, failover, and specialization routing on the live
//! system.

use infosleuth_core::agent::ping;
use infosleuth_core::broker::{
    advertise_to, query_broker, BrokerAgent, BrokerConfig, BrokerObjective, FollowOption,
    Repository, SearchPolicy,
};
use infosleuth_core::ontology::{AgentType, ServiceQuery};
use infosleuth_core::{Community, ResourceDef};
use infosleuth_integration_tests::{catalog_of, paper_ontology};
use std::time::Duration;

const T: Duration = Duration::from_secs(5);

/// Three-broker community; each resource advertises to exactly one broker
/// (redundancy 1), so cross-broker queries require collaboration.
fn consortium() -> Community {
    let o = paper_ontology();
    Community::builder()
        .with_ontology(paper_ontology())
        .add_broker("broker-1")
        .add_broker("broker-2")
        .add_broker("broker-3")
        .add_resource(ResourceDef::new("ra-c1", "paper-classes", catalog_of(&o, &[("C1", 3, 1)])))
        .add_resource(ResourceDef::new("ra-c2", "paper-classes", catalog_of(&o, &[("C2", 3, 2)])))
        .add_resource(ResourceDef::new("ra-c3", "paper-classes", catalog_of(&o, &[("C3", 3, 3)])))
        .build()
        .expect("community starts")
}

/// Which broker holds an agent's advertisement locally.
fn holder(community: &Community, agent: &str) -> String {
    let mut probe = community.bus().register(format!("holder-probe-{agent}")).expect("fresh name");
    community
        .broker_names()
        .iter()
        .find(|b| ping(&mut probe, b, Some(agent), T) == Ok(true))
        .expect("some broker holds the advertisement")
        .clone()
}

#[test]
fn collaborative_search_finds_remote_agents() {
    let community = consortium();
    let mut probe = community.bus().register("probe").expect("fresh name");
    // Whatever broker we ask, every class is locatable (hop 1 reaches the
    // full consortium).
    for class in ["C1", "C2", "C3"] {
        for broker in community.broker_names() {
            let q = ServiceQuery::for_agent_type(AgentType::Resource)
                .with_ontology("paper-classes")
                .with_classes([class]);
            let m = query_broker(&mut probe, broker, &q, None, T).expect("broker answers");
            assert_eq!(m.len(), 1, "{broker} should locate the {class} resource");
        }
    }
    community.shutdown();
}

#[test]
fn local_only_policy_respects_repository_boundaries() {
    let community = consortium();
    let mut probe = community.bus().register("probe").expect("fresh name");
    let ra_c1_home = holder(&community, "ra-c1");
    let q = ServiceQuery::for_agent_type(AgentType::Resource)
        .with_ontology("paper-classes")
        .with_classes(["C1"]);
    // Asking the holder locally succeeds; asking anyone else locally fails.
    let local = Some(SearchPolicy::local());
    let at_home = query_broker(&mut probe, &ra_c1_home, &q, local, T).expect("broker answers");
    assert_eq!(at_home.len(), 1);
    for broker in community.broker_names() {
        if broker != &ra_c1_home {
            let elsewhere = query_broker(&mut probe, broker, &q, local, T).expect("broker answers");
            assert!(elsewhere.is_empty(), "{broker} should not know ra-c1 locally");
        }
    }
    community.shutdown();
}

#[test]
fn until_match_policy_stops_at_first_hit() {
    let community = consortium();
    let mut probe = community.bus().register("probe").expect("fresh name");
    let q = ServiceQuery::for_agent_type(AgentType::Resource)
        .with_ontology("paper-classes")
        .with_classes(["C2"])
        .one();
    let policy = Some(SearchPolicy { hop_count: 1, follow: FollowOption::UntilMatch });
    for broker in community.broker_names() {
        let m = query_broker(&mut probe, broker, &q, policy, T).expect("broker answers");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "ra-c2");
    }
    community.shutdown();
}

#[test]
fn redundant_advertising_survives_broker_death() {
    let o = paper_ontology();
    let mut community = Community::builder()
        .with_ontology(paper_ontology())
        .add_broker("broker-1")
        .add_broker("broker-2")
        .add_broker("broker-3")
        .add_resource(
            ResourceDef::new("ra-hot", "paper-classes", catalog_of(&o, &[("C1", 4, 9)]))
                .with_redundancy(2),
        )
        .build()
        .expect("community starts");
    let victim = holder(&community, "ra-hot");
    assert!(community.stop_broker(&victim));
    // A surviving broker still locates the agent through the redundant
    // advertisement (directly or via its living peer).
    let mut probe = community.bus().register("probe").expect("fresh name");
    let q = ServiceQuery::for_agent_type(AgentType::Resource)
        .with_ontology("paper-classes")
        .with_classes(["C1"]);
    let survivor = community
        .broker_names()
        .iter()
        .find(|b| **b != victim)
        .expect("two brokers survive")
        .clone();
    let m = query_broker(&mut probe, &survivor, &q, None, T).expect("survivor answers");
    assert_eq!(m.len(), 1, "redundant advertisement keeps the agent visible");
    // End-to-end query still works.
    let mut user = community.user("user").expect("connects");
    let r = user.submit_sql("select * from C1", Some("paper-classes")).expect("answers");
    assert_eq!(r.len(), 4);
    community.shutdown();
}

#[test]
fn unadvertise_removes_visibility_everywhere_reachable() {
    let community = consortium();
    let mut probe = community.bus().register("probe").expect("fresh name");
    let home = holder(&community, "ra-c3");
    assert!(infosleuth_core::broker::unadvertise_from(&mut probe, &home, "ra-c3", T)
        .expect("broker answers"));
    let q = ServiceQuery::for_agent_type(AgentType::Resource)
        .with_ontology("paper-classes")
        .with_classes(["C3"]);
    for broker in community.broker_names() {
        let m = query_broker(&mut probe, broker, &q, None, T).expect("broker answers");
        assert!(m.is_empty(), "{broker} should no longer locate ra-c3");
    }
    community.shutdown();
}

/// Randomized churn over a four-broker cyclic (fully meshed) consortium.
/// A one-broker community holding every advertisement — nothing to
/// forward, so what a fan-out to every peer would find — receives the
/// same advertise/unadvertise stream, and after every step each class
/// query at each entry broker must return (a) no duplicate matches even
/// on multi-hop searches through the cycle, (b) exactly the ground-truth
/// agent set (no lost matches), and (c) the reference's sorted match list,
/// byte for byte.
#[test]
fn cyclic_churn_digest_routing_matches_the_one_broker_reference() {
    use infosleuth_core::broker::{interconnect, unadvertise_from, BrokerHandle};
    use infosleuth_core::ontology::{Advertisement, AgentLocation, OntologyContent, SemanticInfo};
    use std::collections::BTreeSet;

    const CLASSES: [&str; 3] = ["C1", "C2", "C3"];
    const BROKERS: usize = 4;
    const STEPS: usize = 24;

    fn spawn_consortium(
        bus: &infosleuth_core::agent::Bus,
        tag: &str,
        brokers: usize,
    ) -> Vec<BrokerHandle> {
        let handles: Vec<BrokerHandle> = (0..brokers)
            .map(|i| {
                let mut repo = Repository::new();
                repo.register_ontology(paper_ontology());
                BrokerAgent::spawn(
                    bus,
                    BrokerConfig::new(
                        format!("{tag}-broker-{i}"),
                        format!("tcp://{tag}{i}.mcc.com:5500"),
                    ),
                    repo,
                )
                .expect("broker spawns")
            })
            .collect();
        let refs: Vec<&BrokerHandle> = handles.iter().collect();
        // A full mesh is maximally cyclic: every forward has a return
        // path, so loop prevention (the visited list) is load-bearing.
        interconnect(&refs).expect("mesh");
        handles
    }

    fn churn_ad(name: &str, class: &str) -> Advertisement {
        Advertisement::new(AgentLocation::new(name, "tcp://h:1", AgentType::Resource))
            .with_semantic(
                SemanticInfo::default()
                    .with_content(OntologyContent::new("paper-classes").with_classes([class])),
            )
    }

    /// Digest updates are asynchronous one-way performatives: wait until
    /// every broker's stored digest for every peer reflects the peer's
    /// current repository epoch before asserting on routing decisions.
    fn quiesce(brokers: &[BrokerHandle]) {
        let deadline = std::time::Instant::now() + T;
        for holder in brokers {
            for peer in brokers {
                if peer.name() == holder.name() {
                    continue;
                }
                let want = peer.with_repository(|r| r.epoch());
                while holder.peer_digest_epoch(peer.name()) != Some(want) {
                    assert!(std::time::Instant::now() < deadline, "digest propagation stalled");
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    let bus = infosleuth_core::agent::Bus::new();
    let digest = spawn_consortium(&bus, "dig", BROKERS);
    let reference = spawn_consortium(&bus, "ref", 1).remove(0);
    let mut probe = bus.register("churn-probe").expect("fresh name");

    // Deterministic xorshift so the churn schedule is reproducible.
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    // Ground truth: agent → (class, home broker index); the reference
    // broker is everyone's home.
    let mut live: Vec<(String, String, usize)> = Vec::new();
    let mut serial = 0usize;

    for step in 0..STEPS {
        let op = next() % 3;
        if op == 0 || live.len() < 2 {
            // Advertise a fresh agent for a random class at a random broker.
            let class = CLASSES[(next() as usize) % CLASSES.len()];
            let home = (next() as usize) % BROKERS;
            let name = format!("churn-ra-{serial}");
            serial += 1;
            let ad = churn_ad(&name, class);
            assert!(advertise_to(&mut probe, digest[home].name(), &ad, T).expect("reachable"));
            assert!(advertise_to(&mut probe, reference.name(), &ad, T).expect("reachable"));
            live.push((name, class.to_string(), home));
        } else if op == 1 {
            // Withdraw a random live agent from its home broker.
            let victim = (next() as usize) % live.len();
            let (name, _, home) = live.swap_remove(victim);
            assert!(unadvertise_from(&mut probe, digest[home].name(), &name, T).expect("reachable"));
            assert!(unadvertise_from(&mut probe, reference.name(), &name, T).expect("reachable"));
        } else {
            // Move a random live agent to a different broker (the
            // reference holds it either way).
            let mover = (next() as usize) % live.len();
            let (name, class, old_home) = live[mover].clone();
            let new_home = (old_home + 1 + (next() as usize) % (BROKERS - 1)) % BROKERS;
            let ad = churn_ad(&name, &class);
            assert!(
                unadvertise_from(&mut probe, digest[old_home].name(), &name, T).expect("reachable")
            );
            assert!(advertise_to(&mut probe, digest[new_home].name(), &ad, T).expect("reachable"));
            live[mover].2 = new_home;
        }
        quiesce(&digest);

        // Every class, every entry broker, both hop depths: hop 1 is the
        // digest-pruned terminal forward, hop 2 pushes the search around
        // the cycle where only the visited list stops duplicates.
        for class in CLASSES {
            let truth: BTreeSet<&str> =
                live.iter().filter(|(_, c, _)| c == class).map(|(n, _, _)| n.as_str()).collect();
            let q = ServiceQuery::for_agent_type(AgentType::Resource)
                .with_ontology("paper-classes")
                .with_classes([class]);
            for hops in [1u32, 2] {
                let policy =
                    Some(SearchPolicy { hop_count: hops, follow: FollowOption::AllRepositories });
                for (entry, entry_broker) in digest.iter().enumerate() {
                    let mut render = |broker: &BrokerHandle| {
                        let found = query_broker(&mut probe, broker.name(), &q, policy, T)
                            .expect("broker answers");
                        let mut names: Vec<String> = found.into_iter().map(|m| m.name).collect();
                        names.sort_unstable();
                        names.join(",")
                    };
                    let pruned = render(entry_broker);
                    assert_eq!(
                        pruned,
                        render(&reference),
                        "step {step} class {class} hops {hops} entry {entry}: \
                         digest-pruned routing and the one-broker reference diverged"
                    );
                    let got: Vec<&str> = pruned.split(',').filter(|s| !s.is_empty()).collect();
                    let unique: BTreeSet<&str> = got.iter().copied().collect();
                    assert_eq!(
                        got.len(),
                        unique.len(),
                        "duplicate forwards produced duplicate matches: {pruned}"
                    );
                    assert_eq!(unique, truth, "step {step} class {class} lost or invented a match");
                }
            }
        }
    }

    // The digest layer must have actually pruned something across the run,
    // and churn alone must never demote a healthy peer to suspect.
    let pruned: u64 = digest.iter().map(|b| b.routing_stats().digest_pruned).sum();
    assert!(pruned > 0, "digest routing never pruned a forward under churn");
    let suspects: u64 = digest.iter().map(|b| b.routing_stats().peer_suspects).sum();
    assert_eq!(suspects, 0, "churn must not demote healthy peers");

    for b in digest.into_iter().chain([reference]) {
        b.stop();
    }
}

#[test]
fn specialized_broker_community_routes_advertisements() {
    // Hand-built consortium: one specialist + one generalist.
    let bus = infosleuth_core::agent::Bus::new();
    let mut spec_repo = Repository::new();
    spec_repo.register_ontology(paper_ontology());
    let specialist = BrokerAgent::spawn(
        &bus,
        BrokerConfig::new("spec-broker", "tcp://s.mcc.com:5001")
            .with_objective(BrokerObjective::specialized(["paper-classes"])),
        spec_repo,
    )
    .expect("specialist spawns");
    let mut gen_repo = Repository::new();
    gen_repo.register_ontology(paper_ontology());
    let generalist =
        BrokerAgent::spawn(&bus, BrokerConfig::new("gen-broker", "tcp://g.mcc.com:5002"), gen_repo)
            .expect("generalist spawns");
    infosleuth_core::broker::interconnect(&[&specialist, &generalist]).expect("mesh");

    let mut agent = bus.register("adv-agent").expect("fresh name");
    // In-domain advertisement → accepted by the specialist.
    let in_domain = infosleuth_core::ontology::Advertisement::new(
        infosleuth_core::ontology::AgentLocation::new("in-ra", "tcp://h:1", AgentType::Resource),
    )
    .with_semantic(infosleuth_core::ontology::SemanticInfo::default().with_content(
        infosleuth_core::ontology::OntologyContent::new("paper-classes").with_classes(["C1"]),
    ));
    assert!(advertise_to(&mut agent, "spec-broker", &in_domain, T).expect("reachable"));
    // Out-of-domain advertisement → declined by the specialist, accepted by
    // the generalist.
    let out_of_domain = infosleuth_core::ontology::Advertisement::new(
        infosleuth_core::ontology::AgentLocation::new("out-ra", "tcp://h:2", AgentType::Resource),
    )
    .with_semantic(infosleuth_core::ontology::SemanticInfo::default().with_content(
        infosleuth_core::ontology::OntologyContent::new("weather").with_classes(["storm"]),
    ));
    assert!(!advertise_to(&mut agent, "spec-broker", &out_of_domain, T).expect("reachable"));
    assert!(advertise_to(&mut agent, "gen-broker", &out_of_domain, T).expect("reachable"));
    // Both remain findable through either broker.
    let q = ServiceQuery::for_agent_type(AgentType::Resource).with_ontology("weather");
    let m = query_broker(&mut agent, "spec-broker", &q, None, T).expect("answers");
    assert_eq!(m.len(), 1);
    assert_eq!(m[0].name, "out-ra");
    specialist.stop();
    generalist.stop();
}
