//! The multiresource query (MRQ) agent.
//!
//! Figures 6–7 of the paper: the MRQ agent receives an SQL query, "looks at
//! the query to determine which classes are required to answer the query",
//! asks the broker for all resource agents that can answer over those
//! classes, fans the query out, and "receives the responses, assembles the
//! result, and forwards it back".
//!
//! Assembly handles every Table 1 stream shape: replicated extents and
//! horizontal fragments union, vertical fragments rejoin on the class key,
//! subclass extents union under the superclass (see [`crate::combine`]).
//! The assembled per-class extents form a local catalog against which the
//! user's original relational plan runs, so multi-class joins and unions
//! work unchanged.

use crate::combine::merge_class_extent;
use crate::tablecodec;
use infosleuth_agent::{
    AgentBehavior, AgentContext, AgentHandle, AgentRuntime, Bus, BusError, Envelope, RuntimeConfig,
};
use infosleuth_broker::query_broker;
use infosleuth_kqml::{Message, Performative, SExpr};
use infosleuth_ontology::{
    Advertisement, AgentLocation, AgentType, Capability, ConversationType, Ontology, SemanticInfo,
    ServiceQuery, SyntacticInfo,
};
use infosleuth_relquery::{execute, parse_select, plan, referenced_classes, Catalog, Table};
use std::sync::Arc;
use std::time::Duration;

/// Configuration for the MRQ agent.
pub struct MrqSpec {
    pub name: String,
    pub address: String,
    /// Brokers to advertise to and to consult for resource lookups.
    pub brokers: Vec<String>,
    /// Domain ontologies, for class keys and subclass knowledge.
    pub ontologies: Vec<Arc<Ontology>>,
    pub timeout: Duration,
}

/// The MRQ agent's standard advertisement.
pub fn mrq_advertisement(name: &str, address: &str) -> Advertisement {
    Advertisement::new(AgentLocation::new(name, address, AgentType::MultiResourceQuery))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(
            SemanticInfo::default()
                .with_conversations([ConversationType::AskAll, ConversationType::AskOne])
                .with_capabilities([
                    Capability::multiresource_query_processing(),
                    Capability::select(),
                    Capability::project(),
                    Capability::join(),
                    Capability::union(),
                    Capability::statistical_aggregation(),
                ]),
        )
}

/// Handle to a running MRQ agent.
pub struct MrqAgentHandle {
    name: String,
    agent: AgentHandle,
    _runtime: Option<AgentRuntime>,
}

impl MrqAgentHandle {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sends by this agent that the transport refused.
    pub fn delivery_failures(&self) -> u64 {
        self.agent.delivery_failures()
    }

    pub fn stop(self) {
        self.agent.stop();
    }
}

struct MrqBehavior {
    spec: MrqSpec,
}

impl AgentBehavior for MrqBehavior {
    fn on_message(&self, ctx: &AgentContext, env: Envelope) {
        match env.message.performative {
            Performative::Ping => {
                let reply = env.message.reply_skeleton(Performative::Reply);
                let _ = ctx.send(&env.from, reply);
            }
            Performative::AskAll | Performative::AskOne => {
                let reply = match env.message.content().and_then(SExpr::as_text) {
                    Some(sql) => {
                        let sql = sql.to_string();
                        answer(ctx, &self.spec, &sql, &env.message)
                    }
                    None => env
                        .message
                        .reply_skeleton(Performative::Error)
                        .with_content(SExpr::string("expected SQL content")),
                };
                let _ = ctx.send(&env.from, reply);
            }
            _ => {
                let reply = env
                    .message
                    .reply_skeleton(Performative::Error)
                    .with_content(SExpr::string("MRQ agent answers SQL ask-all only"));
                let _ = ctx.send(&env.from, reply);
            }
        }
    }
}

/// Spawns the MRQ agent on its own private runtime over the bus.
pub fn spawn_mrq_agent(bus: &Bus, spec: MrqSpec) -> Result<MrqAgentHandle, BusError> {
    let runtime = AgentRuntime::new(bus.as_transport(), RuntimeConfig::default().with_workers(4));
    let mut handle = spawn_mrq_agent_on(&runtime, spec)?;
    handle._runtime = Some(runtime);
    Ok(handle)
}

/// Spawns the MRQ agent on a shared [`AgentRuntime`]: advertises to every
/// configured broker, then serves SQL `ask-all` queries.
pub fn spawn_mrq_agent_on(
    runtime: &AgentRuntime,
    spec: MrqSpec,
) -> Result<MrqAgentHandle, BusError> {
    let name = spec.name.clone();
    let ad = mrq_advertisement(&spec.name, &spec.address);
    let brokers = spec.brokers.clone();
    let timeout = spec.timeout;
    let agent = runtime.spawn(&name, Arc::new(MrqBehavior { spec }))?;
    {
        let mut requester = agent.ctx();
        for broker in &brokers {
            let _ = infosleuth_broker::advertise_to(&mut requester, broker, &ad, timeout);
        }
    }
    Ok(MrqAgentHandle { name, agent, _runtime: None })
}

/// Full multiresource answering pipeline for one SQL query.
fn answer(ctx: &AgentContext, spec: &MrqSpec, sql: &str, msg: &Message) -> Message {
    let stmt = match parse_select(sql) {
        Ok(s) => s,
        Err(e) => {
            return msg
                .reply_skeleton(Performative::Error)
                .with_content(SExpr::string(e.to_string()))
        }
    };
    let logical = plan(&stmt);
    let classes = referenced_classes(&logical);
    // The preferred ontology comes from the message's :ontology parameter.
    let requested_ontology = msg.ontology().map(str::to_string);

    // Assemble each class extent.
    let mut catalog = Catalog::new();
    for class in &classes {
        let ontology = ontology_for_class(spec, requested_ontology.as_deref(), class);
        match assemble_class(ctx, spec, class, ontology.as_deref(), &stmt.where_clause) {
            Ok(table) => catalog.insert(table),
            Err(reason) => {
                return msg.reply_skeleton(Performative::Sorry).with_content(SExpr::string(reason))
            }
        }
    }
    match execute(&logical, &catalog) {
        Ok(result) => msg
            .reply_skeleton(Performative::Reply)
            .with_content(tablecodec::table_to_sexpr(&result)),
        Err(e) => {
            msg.reply_skeleton(Performative::Error).with_content(SExpr::string(e.to_string()))
        }
    }
}

fn ontology_for_class(
    spec: &MrqSpec,
    requested: Option<&str>,
    class: &str,
) -> Option<Arc<Ontology>> {
    if let Some(name) = requested {
        return spec.ontologies.iter().find(|o| o.name == name).cloned();
    }
    spec.ontologies.iter().find(|o| o.class(class).is_some()).cloned()
}

/// Locates contributors for one class via the brokers and merges their
/// contributions into one extent.
fn assemble_class(
    ctx: &AgentContext,
    spec: &MrqSpec,
    class: &str,
    ontology: Option<&Ontology>,
    constraints: &infosleuth_constraint::Conjunction,
) -> Result<Table, String> {
    // Figure 7: "who has resources for class C2 (SQL)?"
    let mut query = ServiceQuery::for_agent_type(AgentType::Resource)
        .with_query_language("SQL 2.0")
        .with_classes([class])
        .with_constraints(constraints.clone());
    if let Some(o) = ontology {
        query = query.with_ontology(o.name.clone());
    }
    // Ask brokers in order until one answers (redundant connectivity).
    let mut requester = ctx;
    let mut matches = Vec::new();
    for broker in &spec.brokers {
        match query_broker(&mut requester, broker, &query, None, spec.timeout) {
            Ok(m) if !m.is_empty() => {
                matches = m;
                break;
            }
            _ => continue,
        }
    }
    if matches.is_empty() {
        return Err(format!("no resource agents found for class '{class}'"));
    }
    // Fan the class query out in parallel (Figure 7); `sorry` replies
    // contribute nothing.
    let sql = format!("select * from {class}");
    let asks = matches
        .iter()
        .map(|m| {
            let ask = Message::new(Performative::AskAll)
                .with_language("SQL 2.0")
                .with_content(SExpr::string(sql.clone()));
            (m.name.clone(), ask)
        })
        .collect();
    let contributions: Vec<Table> = ctx
        .request_all(asks, spec.timeout)
        .into_iter()
        .flatten()
        .filter(|reply| reply.performative == Performative::Reply)
        .filter_map(|reply| tablecodec::table_from_sexpr(reply.content()?).ok())
        .collect();
    merge_class_extent(class, contributions, ontology).map_err(|e| e.to_string())
}
