//! The standard small-broker scenarios the explorer sweeps.
//!
//! Each scenario is a handful of in-flight client requests against one
//! broker — small enough that the schedule space is exhaustively
//! explorable, chosen so the racy parts of the message plane (racing
//! mutations, subscription churn, query/mutation interleaving) are all
//! exercised.

use crate::world::Scenario;
use infosleuth_broker::{codec, Repository};
use infosleuth_kqml::{Message, Performative, SExpr};
use infosleuth_ontology::{
    paper_class_ontology, Advertisement, AgentLocation, AgentType, Capability, ConversationType,
    OntologyContent, SemanticInfo, ServiceQuery, SyntacticInfo,
};

fn seeded_repo() -> Repository {
    let mut repo = Repository::new();
    repo.register_ontology(paper_class_ontology());
    repo
}

fn resource_ad(name: &str, classes: &[&str]) -> Advertisement {
    Advertisement::new(AgentLocation::new(name, "tcp://h:1", AgentType::Resource))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(
            SemanticInfo::default()
                .with_conversations([ConversationType::AskAll])
                .with_capabilities([Capability::relational_query_processing()])
                .with_content(OntologyContent::new("paper-classes").with_classes(classes.to_vec())),
        )
}

fn class_query(class: &str) -> ServiceQuery {
    ServiceQuery::for_agent_type(AgentType::Resource)
        .with_ontology("paper-classes")
        .with_classes([class])
}

fn advertise(ad: &Advertisement, reply_with: &str) -> Message {
    Message::new(Performative::Advertise)
        .with_ontology("infosleuth-service")
        .with_content(codec::advertisement_to_sexpr(ad))
        .with_reply_with(reply_with)
}

fn unadvertise(agent: &str, reply_with: &str) -> Message {
    Message::new(Performative::Unadvertise)
        .with_content(SExpr::atom(agent))
        .with_reply_with(reply_with)
}

fn ask_all(query: &ServiceQuery, reply_with: &str) -> Message {
    Message::new(Performative::AskAll)
        .with_ontology("infosleuth-service")
        .with_content(codec::service_query_to_sexpr(query))
        .with_reply_with(reply_with)
}

fn subscribe(query: &ServiceQuery, watcher: &str, reply_with: &str) -> Message {
    Message::new(Performative::Subscribe)
        .with_ontology("infosleuth-service")
        .with("reply-to", SExpr::atom(watcher))
        .with_content(codec::service_query_to_sexpr(query))
        .with_reply_with(reply_with)
}

fn unsubscribe(sub_key: &str, watcher: &str, reply_with: &str) -> Message {
    Message::new(Performative::Other("unsubscribe".into()))
        .with("reply-to", SExpr::atom(watcher))
        .with_content(SExpr::atom(sub_key))
        .with_reply_with(reply_with)
}

/// Three clients race repository mutations; one of them retracts its own
/// advertisement in the same flight. Every schedule must converge to
/// `{ra1, ra2}` — this is the scenario the seeded overtaking bug breaks,
/// because when c3's unadvertise overtakes its advertise the broker
/// retracts ra3 *before* it registers it, and ra3 stays.
pub fn racing_mutations() -> Scenario {
    Scenario {
        name: "racing_mutations",
        repo: seeded_repo,
        injections: vec![
            ("c1".to_string(), advertise(&resource_ad("ra1", &["C1"]), "c1-ad1")),
            ("c2".to_string(), advertise(&resource_ad("ra2", &["C2"]), "c2-ad1")),
            ("c3".to_string(), advertise(&resource_ad("ra3", &["C1"]), "c3-ad1")),
            ("c3".to_string(), unadvertise("ra3", "c3-un1")),
        ],
    }
}

/// A watcher runs the full subscription lifecycle while another client
/// churns a matching advertisement. Exercises snapshot-before-ack,
/// delta epochs, and delivery-after-close (IS051) across all schedules.
pub fn subscription_churn() -> Scenario {
    let query = class_query("C1");
    Scenario {
        name: "subscription_churn",
        repo: seeded_repo,
        injections: vec![
            ("w1".to_string(), subscribe(&query, "w1", "w1-s1")),
            ("c1".to_string(), advertise(&resource_ad("ra1", &["C1"]), "c1-ad1")),
            ("c1".to_string(), unadvertise("ra1", "c1-un1")),
            ("w1".to_string(), unsubscribe("w1-s1", "w1", "w1-un1")),
        ],
    }
}

/// Queries and a ping interleave with racing advertisements. Results
/// legitimately differ by schedule (a query may run before or after a
/// mutation); the repository and the conversation protocol must not.
pub fn query_storm() -> Scenario {
    let query = class_query("C1");
    Scenario {
        name: "query_storm",
        repo: seeded_repo,
        injections: vec![
            ("c1".to_string(), advertise(&resource_ad("ra1", &["C1"]), "c1-ad1")),
            ("c2".to_string(), ask_all(&query, "c2-q1")),
            ("c2".to_string(), Message::new(Performative::Ping).with_reply_with("c2-p1")),
            ("c3".to_string(), advertise(&resource_ad("ra2", &["C1"]), "c3-ad1")),
        ],
    }
}

/// All standard scenarios, in documentation order.
pub fn standard_scenarios() -> Vec<Scenario> {
    vec![racing_mutations(), subscription_churn(), query_storm()]
}
