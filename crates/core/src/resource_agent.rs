//! Resource agents: proxies for structured repositories.
//!
//! "Resource agents are the back-end agents within InfoSleuth which act as
//! proxies for structured or semi-structured repositories." Each one wraps
//! an in-memory relational [`Catalog`], advertises its content to brokers
//! (with redundancy, per §4.2), answers SQL `ask-all` queries, and responds
//! to pings. Resource agents are hosted on an [`AgentRuntime`]; §4.2.2
//! broker maintenance runs as the agent's periodic tick.

use crate::tablecodec;
use infosleuth_agent::{
    AgentBehavior, AgentContext, AgentHandle, AgentRuntime, BrokerLists, Bus, BusError, Envelope,
    Requester, RuntimeConfig,
};
use infosleuth_broker::advertise_to;
use infosleuth_kqml::{Message, Performative, SExpr};
use infosleuth_obs::sync::lock;
use infosleuth_ontology::{Advertisement, Ontology};
use infosleuth_relquery::{execute, parse_select, plan, Catalog, LogicalPlan, Table};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Specification of one resource agent.
pub struct ResourceSpec {
    /// The agent's complete advertisement (location, syntactic, semantic).
    pub advertisement: Advertisement,
    /// Local tables. Table names are ontology class names (a vertical
    /// fragment is a table with a subset of the class's columns; a
    /// subclass extent is a table named after the subclass).
    pub catalog: Catalog,
    /// The domain ontology, used to resolve superclass scans to local
    /// subclass tables.
    pub ontology: Arc<Ontology>,
    /// How many brokers to advertise to (redundant advertising, §4.2.1).
    pub redundancy: usize,
    /// §4.2.2 maintenance: how often to "cycle through the
    /// connected-broker-list, and query each broker in turn to see if it
    /// still knows about them" (the broker ping), re-advertising as needed.
    /// `None` disables maintenance.
    pub maintenance_interval: Option<Duration>,
    /// Request/reply timeout for broker conversations.
    pub timeout: Duration,
}

/// Handle to a running resource agent.
pub struct ResourceAgentHandle {
    name: String,
    agent: AgentHandle,
    _runtime: Option<AgentRuntime>,
}

impl ResourceAgentHandle {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sends by this agent the transport refused (dead brokers, vanished
    /// subscribers).
    pub fn delivery_failures(&self) -> u64 {
        self.agent.delivery_failures()
    }

    pub fn stop(self) {
        self.agent.stop();
    }
}

/// A standing query opened by a `subscribe` performative (§2: "performing
/// polling and notification for monitoring changes in data").
struct Subscription {
    id: String,
    subscriber: String,
    sql: String,
    last: Option<Table>,
}

/// Mutable state guarded as one unit, so each handler sees (and leaves)
/// a consistent catalog + broker-list + subscription picture — the same
/// serialization the seed's single loop thread provided.
struct ResourceState {
    spec: ResourceSpec,
    lists: BrokerLists,
    subscriptions: Vec<Subscription>,
    sub_seq: u64,
}

struct ResourceBehavior {
    maintenance_interval: Option<Duration>,
    state: Mutex<ResourceState>,
}

impl AgentBehavior for ResourceBehavior {
    fn on_message(&self, ctx: &AgentContext, env: Envelope) {
        let mut state = lock(&self.state);
        match env.message.performative {
            Performative::Ping => {
                let reply = env.message.reply_skeleton(Performative::Reply);
                let _ = ctx.send(&env.from, reply);
            }
            Performative::AskAll | Performative::AskOne => {
                let reply = match env.message.content().and_then(SExpr::as_text) {
                    Some(sql) => answer_sql(&state.spec, sql, &env.message),
                    None => env
                        .message
                        .reply_skeleton(Performative::Error)
                        .with_content(SExpr::string("expected SQL content")),
                };
                let _ = ctx.send(&env.from, reply);
            }
            Performative::Subscribe => {
                let Some(sql) = env.message.content().and_then(SExpr::as_text) else {
                    let reply = env
                        .message
                        .reply_skeleton(Performative::Error)
                        .with_content(SExpr::string("expected SQL content"));
                    let _ = ctx.send(&env.from, reply);
                    return;
                };
                state.sub_seq += 1;
                let id = env
                    .message
                    .reply_with()
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("sub-{}", state.sub_seq));
                // Notifications go to the message's `reply-to` when set:
                // a subscriber that asked through a request-scoped
                // endpoint names its long-lived mailbox there.
                let subscriber = env.message.get_text("reply-to").unwrap_or(&env.from).to_string();
                let mut sub =
                    Subscription { id: id.clone(), subscriber, sql: sql.to_string(), last: None };
                // Acknowledge, then deliver the initial snapshot.
                let ack =
                    env.message.reply_skeleton(Performative::Tell).with_content(SExpr::atom(id));
                let _ = ctx.send(&env.from, ack);
                notify_if_changed(ctx, &state.spec, &mut sub);
                state.subscriptions.push(sub);
            }
            Performative::Update => {
                let reply = match env.message.content().and_then(tablecodec::table_from_sexpr_ok) {
                    Some(rows) => match apply_update(&mut state.spec, &rows) {
                        Ok(n) => env
                            .message
                            .reply_skeleton(Performative::Tell)
                            .with_content(SExpr::atom(n.to_string())),
                        Err(e) => env
                            .message
                            .reply_skeleton(Performative::Error)
                            .with_content(SExpr::string(e)),
                    },
                    None => env
                        .message
                        .reply_skeleton(Performative::Error)
                        .with_content(SExpr::string("expected (table ...) content")),
                };
                let ok = reply.performative == Performative::Tell;
                let _ = ctx.send(&env.from, reply);
                if ok {
                    let ResourceState { spec, subscriptions, .. } = &mut *state;
                    for sub in subscriptions.iter_mut() {
                        notify_if_changed(ctx, spec, sub);
                    }
                }
            }
            _ => {
                let reply = env.message.reply_skeleton(Performative::Error).with_content(
                    SExpr::string("resource agents answer SQL ask-all/subscribe/update only"),
                );
                let _ = ctx.send(&env.from, reply);
            }
        }
    }

    fn tick_interval(&self) -> Option<Duration> {
        self.maintenance_interval
    }

    fn on_tick(&self, ctx: &AgentContext) {
        let mut state = lock(&self.state);
        let ResourceState { spec, lists, .. } = &mut *state;
        let mut requester = ctx;
        maintain_broker_connections(&mut requester, lists, spec);
    }
}

/// Spawns a resource agent on its own private runtime over the bus:
/// registers, advertises to brokers per the spec's redundancy, then
/// serves queries.
pub fn spawn_resource_agent(
    bus: &Bus,
    spec: ResourceSpec,
    brokers: &[String],
    timeout: Duration,
) -> Result<ResourceAgentHandle, BusError> {
    let runtime = AgentRuntime::new(bus.as_transport(), RuntimeConfig::default().with_workers(2));
    let mut handle = spawn_resource_agent_on(&runtime, spec, brokers, timeout)?;
    handle._runtime = Some(runtime);
    Ok(handle)
}

/// Spawns a resource agent on a shared [`AgentRuntime`].
pub fn spawn_resource_agent_on(
    runtime: &AgentRuntime,
    spec: ResourceSpec,
    brokers: &[String],
    timeout: Duration,
) -> Result<ResourceAgentHandle, BusError> {
    let name = spec.advertisement.location.name.to_string();
    let lists = BrokerLists::new(brokers.iter().cloned(), spec.redundancy);
    let behavior = Arc::new(ResourceBehavior {
        maintenance_interval: spec.maintenance_interval,
        state: Mutex::new(ResourceState { spec, lists, subscriptions: Vec::new(), sub_seq: 0 }),
    });
    let agent = runtime.spawn(&name, Arc::clone(&behavior) as Arc<dyn AgentBehavior>)?;
    {
        // Initial advertising, synchronously, so callers see a connected
        // agent as soon as the spawn returns.
        let mut state = lock(&behavior.state);
        let ResourceState { spec, lists, .. } = &mut *state;
        let mut requester = agent.ctx();
        advertise_per_plan(&mut requester, lists, &spec.advertisement, timeout);
    }
    Ok(ResourceAgentHandle { name, agent, _runtime: None })
}

/// Advertises to brokers following the §4.2 plan until redundancy is met
/// or candidates run out.
fn advertise_per_plan<R: Requester>(
    requester: &mut R,
    lists: &mut BrokerLists,
    ad: &Advertisement,
    timeout: Duration,
) {
    let plan = lists.plan_readvertise();
    for broker in plan.advertise_to {
        if !lists.needs_advertising() {
            break; // redundancy target met
        }
        match advertise_to(requester, &broker, ad, timeout) {
            Ok(true) => lists.record_advertised(&broker),
            Ok(false) | Err(_) => lists.record_lost(&broker),
        }
    }
}

/// §4.2.2: ping each connected broker about ourselves; drop brokers that
/// died or forgot us; re-advertise to restore the redundancy target.
fn maintain_broker_connections<R: Requester>(
    requester: &mut R,
    lists: &mut BrokerLists,
    spec: &ResourceSpec,
) {
    let connected: Vec<String> = lists.connected().map(str::to_string).collect();
    let me = spec.advertisement.location.name.clone();
    for broker in connected {
        match infosleuth_agent::ping(requester, &broker, Some(&me), spec.timeout) {
            Ok(true) => {}
            Ok(false) => lists.record_forgotten(&broker),
            Err(_) => lists.record_lost(&broker),
        }
    }
    advertise_per_plan(requester, lists, &spec.advertisement, spec.timeout);
}

/// Appends incoming rows to the named local table, aligning columns by
/// (bare) name. Returns the number of inserted rows.
fn apply_update(spec: &mut ResourceSpec, rows: &Table) -> Result<usize, String> {
    let target = spec
        .catalog
        .table_mut(&rows.name)
        .ok_or_else(|| format!("no local table '{}'", rows.name))?;
    let idx: Vec<usize> = target
        .columns()
        .iter()
        .map(|c| {
            rows.column_index(&c.name).ok_or_else(|| format!("update missing column '{}'", c.name))
        })
        .collect::<Result<_, _>>()?;
    let mut inserted = 0;
    for row in rows.rows() {
        let aligned: Vec<_> = idx.iter().map(|&i| row[i].clone()).collect();
        target.push_row(aligned).map_err(|e| e.to_string())?;
        inserted += 1;
    }
    Ok(inserted)
}

/// Re-evaluates a subscription; when the result changed, sends the
/// subscriber a `tell` notification tagged with the subscription id. The
/// first notification is the full snapshot (`(table ...)`); every later
/// one carries only the row-level delta against the previously delivered
/// result (`(delta (added ...) (removed ...))`). An unchanged result sends
/// nothing.
fn notify_if_changed(ctx: &AgentContext, spec: &ResourceSpec, sub: &mut Subscription) {
    let Ok(stmt) = parse_select(&sub.sql) else {
        return;
    };
    let logical = resolve_scans(&plan(&stmt), spec);
    let Ok(result) = execute(&logical, &spec.catalog) else {
        return;
    };
    let content = match &sub.last {
        None => tablecodec::table_to_sexpr(&result),
        Some(last) => {
            let (added, removed) = tablecodec::table_diff(last, &result);
            if added.is_empty() && removed.is_empty() {
                return;
            }
            tablecodec::table_delta_to_sexpr(&added, &removed)
        }
    };
    let notification =
        Message::new(Performative::Tell).with_in_reply_to(sub.id.clone()).with_content(content);
    let _ = ctx.send(&sub.subscriber, notification);
    sub.last = Some(result);
}

/// Parses and executes SQL against the local catalog, resolving scans of
/// classes this agent does not hold directly to local subclass extents.
fn answer_sql(spec: &ResourceSpec, sql: &str, msg: &Message) -> Message {
    let stmt = match parse_select(sql) {
        Ok(s) => s,
        Err(e) => {
            return msg
                .reply_skeleton(Performative::Error)
                .with_content(SExpr::string(e.to_string()))
        }
    };
    let logical = resolve_scans(&plan(&stmt), spec);
    match execute(&logical, &spec.catalog) {
        Ok(table) => {
            msg.reply_skeleton(Performative::Reply).with_content(tablecodec::table_to_sexpr(&table))
        }
        Err(e) => {
            // No local contribution (e.g. a fragment asked for a column it
            // does not hold): `sorry`, not an error — the MRQ treats it as
            // an empty contribution.
            msg.reply_skeleton(Performative::Sorry).with_content(SExpr::string(e.to_string()))
        }
    }
}

/// Rewrites `Scan(C)` into a union of the local tables whose class is `C`
/// or a subclass of `C` (the class-hierarchy stream: a resource holding
/// `C2a` answers a query over `C2` with its `C2a` rows).
fn resolve_scans(p: &LogicalPlan, spec: &ResourceSpec) -> LogicalPlan {
    match p {
        LogicalPlan::Scan { class } => {
            if spec.catalog.table(class).is_some() {
                return p.clone();
            }
            let locals: Vec<&Table> = spec
                .catalog
                .tables()
                .filter(|t| spec.ontology.is_subclass_or_self(&t.name, class))
                .collect();
            match locals.len() {
                0 => p.clone(), // execution will report UnknownClass
                _ => {
                    let mut iter = locals.into_iter();
                    let first = iter.next().expect("len >= 1");
                    let mut acc = LogicalPlan::Scan { class: first.name.clone() };
                    for t in iter {
                        acc = LogicalPlan::Union {
                            left: Box::new(acc),
                            right: Box::new(LogicalPlan::Scan { class: t.name.clone() }),
                        };
                    }
                    acc
                }
            }
        }
        LogicalPlan::Select { predicate, input } => LogicalPlan::Select {
            predicate: predicate.clone(),
            input: Box::new(resolve_scans(input, spec)),
        },
        LogicalPlan::Project { columns, input } => LogicalPlan::Project {
            columns: columns.clone(),
            input: Box::new(resolve_scans(input, spec)),
        },
        LogicalPlan::Join { left, right, left_col, right_col } => LogicalPlan::Join {
            left: Box::new(resolve_scans(left, spec)),
            right: Box::new(resolve_scans(right, spec)),
            left_col: left_col.clone(),
            right_col: right_col.clone(),
        },
        LogicalPlan::Union { left, right } => LogicalPlan::Union {
            left: Box::new(resolve_scans(left, spec)),
            right: Box::new(resolve_scans(right, spec)),
        },
        LogicalPlan::Aggregate { group_by, aggregates, input } => LogicalPlan::Aggregate {
            group_by: group_by.clone(),
            aggregates: aggregates.clone(),
            input: Box::new(resolve_scans(input, spec)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_constraint::Value;
    use infosleuth_ontology::{paper_class_ontology, AgentLocation, AgentType, ValueType};
    use infosleuth_relquery::Column;

    fn spec_with(tables: Vec<Table>) -> ResourceSpec {
        let mut catalog = Catalog::new();
        for t in tables {
            catalog.insert(t);
        }
        ResourceSpec {
            advertisement: Advertisement::new(AgentLocation::new(
                "ra-test",
                "tcp://h:1",
                AgentType::Resource,
            )),
            catalog,
            ontology: Arc::new(paper_class_ontology()),
            redundancy: 1,
            maintenance_interval: None,
            timeout: Duration::from_secs(2),
        }
    }

    fn table(name: &str, rows: Vec<(i64, i64)>) -> Table {
        let mut t = Table::new(
            name,
            vec![Column::new("id", ValueType::Int), Column::new("a", ValueType::Int)],
        );
        for (id, a) in rows {
            t.push_row(vec![Value::Int(id), Value::Int(a)]).unwrap();
        }
        t
    }

    fn ask(spec: &ResourceSpec, sql: &str) -> Message {
        let msg = Message::new(Performative::AskAll)
            .with_sender("tester")
            .with_reply_with("q1")
            .with_content(SExpr::string(sql));
        answer_sql(spec, sql, &msg)
    }

    #[test]
    fn answers_direct_class_queries() {
        let spec = spec_with(vec![table("C2", vec![(1, 10), (2, 20)])]);
        let reply = ask(&spec, "select * from C2 where a > 15");
        assert_eq!(reply.performative, Performative::Reply);
        let t = tablecodec::table_from_sexpr(reply.content().unwrap()).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn resolves_superclass_scan_to_subclass_tables() {
        // The CH stream: the agent holds C2a and C2b; a query over C2
        // returns the union of both extents.
        let spec = spec_with(vec![table("C2a", vec![(1, 10)]), table("C2b", vec![(2, 20)])]);
        let reply = ask(&spec, "select * from C2");
        assert_eq!(reply.performative, Performative::Reply);
        let t = tablecodec::table_from_sexpr(reply.content().unwrap()).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unknown_class_yields_sorry() {
        let spec = spec_with(vec![table("C2", vec![])]);
        let reply = ask(&spec, "select * from C9");
        assert_eq!(reply.performative, Performative::Sorry);
    }

    #[test]
    fn fragment_missing_column_yields_sorry() {
        // The agent holds only id+a; projecting b cannot be served locally.
        let spec = spec_with(vec![table("C1", vec![(1, 10)])]);
        let reply = ask(&spec, "select b from C1");
        assert_eq!(reply.performative, Performative::Sorry);
    }

    #[test]
    fn bad_sql_yields_error() {
        let spec = spec_with(vec![]);
        let reply = ask(&spec, "selekt * form x");
        assert_eq!(reply.performative, Performative::Error);
    }

    #[test]
    fn live_agent_round_trip() {
        let bus = Bus::new();
        let spec = spec_with(vec![table("C2", vec![(1, 10)])]);
        let handle = spawn_resource_agent(&bus, spec, &[], Duration::from_secs(1)).unwrap();
        let mut client = bus.register("client").unwrap();
        let reply = client
            .request(
                "ra-test",
                Message::new(Performative::AskAll)
                    .with_language("SQL 2.0")
                    .with_content(SExpr::string("select * from C2")),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply.performative, Performative::Reply);
        // Ping works.
        assert_eq!(
            infosleuth_agent::ping(&mut client, "ra-test", None, Duration::from_secs(1)),
            Ok(true)
        );
        handle.stop();
        assert!(!bus.is_registered("ra-test"));
    }

    #[test]
    fn hosted_agent_serves_subscriptions_on_shared_runtime() {
        use infosleuth_agent::{AgentRuntime, RuntimeConfig};
        let bus = Bus::new();
        let runtime = AgentRuntime::new(bus.as_transport(), RuntimeConfig::default());
        let spec = spec_with(vec![table("C2", vec![(1, 10)])]);
        let handle = spawn_resource_agent_on(&runtime, spec, &[], Duration::from_secs(1)).unwrap();
        let mut client = bus.register("subscriber").unwrap();
        let ack = client
            .request(
                "ra-test",
                Message::new(Performative::Subscribe)
                    .with_language("SQL 2.0")
                    .with_content(SExpr::string("select * from C2")),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(ack.performative, Performative::Tell);
        // The initial snapshot follows the ack.
        let snapshot = client.recv_timeout(Duration::from_secs(2)).expect("initial snapshot");
        let t = tablecodec::table_from_sexpr(snapshot.message.content().unwrap()).unwrap();
        assert_eq!(t.len(), 1);
        // An update triggers a row-level delta: only the inserted row.
        let update = Message::new(Performative::Update)
            .with_content(tablecodec::table_to_sexpr(&table("C2", vec![(2, 20)])));
        let reply = client.request("ra-test", update, Duration::from_secs(2)).unwrap();
        assert_eq!(reply.performative, Performative::Tell);
        let notify = client.recv_timeout(Duration::from_secs(2)).expect("change notification");
        let (added, removed) =
            tablecodec::table_delta_from_sexpr(notify.message.content().unwrap()).unwrap();
        assert_eq!(added.len(), 1);
        assert_eq!(added.value(0, "id"), Some(&Value::Int(2)));
        assert!(removed.is_empty());
        // Re-sending the same rows leaves the result unchanged: the agent
        // stays silent (no empty-delta notification).
        let update = Message::new(Performative::Update)
            .with_content(tablecodec::table_to_sexpr(&table("C2", vec![])));
        let reply = client.request("ra-test", update, Duration::from_secs(2)).unwrap();
        assert_eq!(reply.performative, Performative::Tell);
        assert!(client.recv_timeout(Duration::from_millis(200)).is_none());
        handle.stop();
        runtime.shutdown();
    }
}
