//! Broker scale-out: sharded communities with digest-pruned routing.
//!
//! A fixed population of resource agents is spread over communities of
//! 2→64 brokers by the [`ShardPlan`](infosleuth_broker::ShardPlan)'s
//! fragment hash, and one query mix is driven through each: a terminal
//! forward goes only to peers whose capability digest *can* match (plus
//! the occasional hull false positive).
//!
//! Reported per community size: per-query message count (the client's
//! request plus the inter-broker forwards) beside what the paper's broad
//! fan-out would send — one forward per peer, so `brokers` messages per
//! query, which the run checks as `forwards + pruned == brokers − 1` — the
//! digest false-positive rate, and the byte-identical parity of the sorted
//! match lists with one broker holding every advertisement: pruning must
//! never cost recall. Every column is a deterministic count over one pass
//! that follows a warm-up pass; nothing here is timed — a query's round
//! trip through a live runtime is the `benchmark/` harness's to measure.
//!
//! Writes `BENCH_broker_scale.json`.

use infosleuth_agent::{AgentRuntime, Bus, RuntimeConfig};
use infosleuth_bench::{fmt_pct, parse_args, run_meta};
use infosleuth_broker::{
    advertise_to, connect_community, query_broker, BrokerAgent, BrokerConfig, BrokerHandle,
    FollowOption, RoutingStats, SearchPolicy,
};
use infosleuth_constraint::{Conjunction, Predicate};
use infosleuth_ontology::{
    Advertisement, AgentLocation, AgentType, Capability, ClassDef, ConversationType, Ontology,
    OntologyContent, SemanticInfo, ServiceQuery, SlotDef, SyntacticInfo, ValueType,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const ONTOLOGY: &str = "scale-classes";
/// Distinct ontology fragments (classes); ads and queries cycle over
/// them, so every class is one shard-placement unit.
const NUM_CLASSES: usize = 96;
/// Every Nth query probes the gap between its class's two advertised
/// constraint windows: inside the digest's per-slot hull, so the owner
/// is contacted and answers empty — a measured false positive.
const GAP_EVERY: usize = 32;
const T: Duration = Duration::from_secs(30);

fn scale_ontology() -> Ontology {
    let mut o = Ontology::new(ONTOLOGY);
    for i in 0..NUM_CLASSES {
        o.add_class(ClassDef::new(
            class_name(i),
            vec![SlotDef::key("id", ValueType::Int), SlotDef::new("a", ValueType::Int)],
        ))
        .expect("fresh ontology");
    }
    o
}

fn class_name(i: usize) -> String {
    format!("K{:02}", i % NUM_CLASSES)
}

/// A resource agent holding one class fragment, constrained to one slot
/// window. The first half of the population takes the low window, the
/// second half the high one, leaving a gap the digest hull papers over.
fn resource_ad(j: usize) -> Advertisement {
    let class = class_name(j);
    let (lo, hi) = if (j / NUM_CLASSES) % 2 == 0 { (0, 10) } else { (40, 50) };
    Advertisement::new(AgentLocation::new(format!("ra{j}"), "tcp://h:1", AgentType::Resource))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(
            SemanticInfo::default()
                .with_conversations([ConversationType::AskAll])
                .with_capabilities([Capability::relational_query_processing()])
                .with_content(
                    OntologyContent::new(ONTOLOGY).with_classes([class.clone()]).with_constraints(
                        Conjunction::from_predicates(vec![Predicate::between(
                            format!("{class}.a"),
                            lo,
                            hi,
                        )]),
                    ),
                ),
        )
}

fn scale_query(q: usize) -> ServiceQuery {
    let class = class_name(q);
    // The wide window overlaps every advertised range; the gap window
    // sits strictly between the two, inside the hull but matching no ad.
    let (lo, hi) = if q % GAP_EVERY == 0 { (20, 28) } else { (0, 50) };
    ServiceQuery::for_agent_type(AgentType::Resource)
        .with_ontology(ONTOLOGY)
        .with_classes([class.clone()])
        .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
            format!("{class}.a"),
            lo,
            hi,
        )]))
}

fn stats_sum(brokers: &[BrokerHandle]) -> RoutingStats {
    let mut sum = RoutingStats::default();
    for b in brokers {
        let s = b.routing_stats();
        sum.forwards += s.forwards;
        sum.digest_pruned += s.digest_pruned;
        sum.digest_fp += s.digest_fp;
    }
    sum
}

/// Blocks until every broker's stored digest for every peer has caught
/// up with that peer's repository epoch — advertisement-driven digest
/// updates are asynchronous one-way performatives, so a bench that
/// mutates then immediately measures must quiesce first.
fn await_digests(brokers: &[BrokerHandle]) {
    let deadline = Instant::now() + T;
    for holder in brokers {
        for peer in brokers {
            if peer.name() == holder.name() {
                continue;
            }
            let want = peer.with_repository(|r| r.epoch());
            while holder.peer_digest_epoch(peer.name()) != Some(want) {
                assert!(Instant::now() < deadline, "digest propagation stalled");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

struct Outcome {
    forwards_per_query: f64,
    pruned_per_query: f64,
    fp_rate: f64,
    /// Sorted match names of every query in issue order, one line per
    /// query — byte-compared with the single-broker reference.
    parity: String,
}

fn run_community(brokers: usize, agents: usize, queries: usize) -> Outcome {
    let bus = Bus::new();
    let runtime = AgentRuntime::new(bus.as_transport(), RuntimeConfig::default().with_workers(8));
    let handles: Vec<BrokerHandle> = (0..brokers)
        .map(|i| {
            let mut repo = infosleuth_broker::Repository::new();
            repo.register_ontology(scale_ontology());
            BrokerAgent::spawn_on(
                &runtime,
                BrokerConfig::new(format!("broker{i}"), format!("tcp://broker{i}.mcc.com:5500")),
                repo,
            )
            .expect("spawn broker")
        })
        .collect();
    let refs: Vec<&BrokerHandle> = handles.iter().collect();
    let plan = connect_community(&refs).expect("interconnect community");

    let mut client = bus.register("client").expect("register client");
    for j in 0..agents {
        let ad = resource_ad(j);
        let owner = plan.owner_of(&ad).to_string();
        assert!(advertise_to(&mut client, &owner, &ad, T).expect("advertise"));
    }
    await_digests(&handles);

    let policy = SearchPolicy { hop_count: 1, follow: FollowOption::AllRepositories };
    let mut run_pass = |record: Option<&mut String>| {
        let mut parity = record;
        for q in 0..queries {
            let entry = format!("broker{}", q % brokers);
            let found = query_broker(&mut client, &entry, &scale_query(q), Some(policy), T)
                .expect("query broker");
            if let Some(parity) = parity.as_deref_mut() {
                let mut names: Vec<&str> = found.iter().map(|m| m.name.as_str()).collect();
                names.sort_unstable();
                let _ = writeln!(parity, "{}", names.join(","));
            }
        }
    };

    // Warmup pass: populates match caches and captures the parity record.
    let mut parity = String::new();
    run_pass(Some(&mut parity));

    let before = stats_sum(&handles);
    run_pass(None);
    let after = stats_sum(&handles);

    let asked = queries as u64;
    let forwards = after.forwards - before.forwards;
    let pruned = after.digest_pruned - before.digest_pruned;
    // Every peer of the entry broker is either contacted or pruned, so
    // broad fan-out would have sent exactly `brokers` messages per query.
    assert_eq!(
        forwards + pruned,
        asked * (brokers as u64 - 1),
        "a peer was neither forwarded to nor pruned at {brokers} brokers"
    );
    let fps = (after.digest_fp - before.digest_fp) as f64;
    for h in handles {
        h.stop();
    }
    Outcome {
        forwards_per_query: forwards as f64 / asked as f64,
        pruned_per_query: pruned as f64 / asked as f64,
        fp_rate: if forwards > 0 { fps / forwards as f64 } else { 0.0 },
        parity,
    }
}

fn main() {
    let opts = parse_args();
    let (agents, queries, broker_axis): (usize, usize, &[usize]) =
        if opts.quick { (96, 96, &[2, 4, 8]) } else { (192, 384, &[2, 4, 8, 16, 32, 64]) };

    println!("=== broker scale-out: sharded communities with digest-pruned routing ===");
    println!(
        "{agents} agents over {NUM_CLASSES} fragments, {queries} queries counted after one \
         warm-up pass{}",
        if opts.quick { " [--quick]" } else { "" }
    );
    println!();
    println!(
        "{:>8} {:>11} {:>11} {:>8} {:>8}",
        "brokers", "msgs/q dig", "msgs/q bc", "msg-red", "fp-rate"
    );

    // Nothing to forward, so nothing to prune: the answers every
    // community must reproduce.
    let reference = run_community(1, agents, queries).parity;
    let mut rows: Vec<(usize, Outcome)> = Vec::new();
    for &brokers in broker_axis {
        let digest = run_community(brokers, agents, queries);
        assert_eq!(
            digest.parity, reference,
            "digest-pruned routing changed the match results at {brokers} brokers"
        );
        println!(
            "{:>8} {:>11.2} {:>11.2} {:>8.1} {:>8}",
            brokers,
            1.0 + digest.forwards_per_query,
            brokers as f64,
            brokers as f64 / (1.0 + digest.forwards_per_query),
            fmt_pct(digest.fp_rate),
        );
        rows.push((brokers, digest));
    }

    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"broker_scale\",\n");
    let _ = writeln!(out, "  \"quick\": {},", opts.quick);
    let _ = writeln!(out, "  \"meta\": {},", run_meta());
    let _ = writeln!(out, "  \"agents\": {agents},");
    let _ = writeln!(out, "  \"queries_per_pass\": {queries},");
    let _ = writeln!(out, "  \"fragments\": {NUM_CLASSES},");
    out.push_str("  \"results\": [\n");
    for (i, (brokers, r)) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"brokers\": {}, \"digest_msgs_per_query\": {:.3}, \
             \"broadcast_msgs_per_query\": {:.3}, \"msg_reduction_x\": {:.2}, \
             \"digest_pruned_per_query\": {:.3}, \"fp_rate\": {:.4}, \"parity\": \"ok\"}}",
            brokers,
            1.0 + r.forwards_per_query,
            *brokers as f64,
            *brokers as f64 / (1.0 + r.forwards_per_query),
            r.pruned_per_query,
            r.fp_rate,
        );
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_broker_scale.json", out).expect("write BENCH_broker_scale.json");
    println!();
    println!("wrote BENCH_broker_scale.json");
}
