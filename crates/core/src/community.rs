//! Assembling a complete InfoSleuth agent community.
//!
//! A community (Figure 1) is brokers + core agents (MRQ, ontology agent) +
//! resource agents + user agents, all hosted on **one shared
//! [`AgentRuntime`]** over one in-proc [`Bus`]. The builder wires everything:
//! brokers spawn and interconnect into a consortium, resource agents
//! advertise with the configured redundancy, the MRQ agent advertises to
//! every broker, and user agents connect with the broker list as their
//! preferred brokers. The monitor agent doubles as the community's
//! delivery-failure sink.

use crate::monitor_agent::{spawn_monitor_agent_on, MonitorAgentHandle, MonitorSpec};
use crate::mrq_agent::{spawn_mrq_agent_on, MrqAgentHandle, MrqSpec};
use crate::ontology_agent::{spawn_ontology_agent_on, OntologyAgentHandle};
use crate::resource_agent::{spawn_resource_agent_on, ResourceAgentHandle, ResourceSpec};
use crate::user_agent::UserAgent;
use infosleuth_agent::{AgentRuntime, Bus, BusError, RuntimeConfig, Transport};
use infosleuth_broker::{BrokerAgent, BrokerConfig, BrokerHandle, Repository};
use infosleuth_constraint::Conjunction;
use infosleuth_ontology::{
    obs_ontology, Advertisement, AgentLocation, AgentType, Capability, ConversationType, Fragment,
    Ontology, OntologyContent, SemanticInfo, SyntacticInfo,
};
use infosleuth_relquery::Catalog;
use std::sync::Arc;
use std::time::Duration;

/// Declarative description of one resource agent.
pub struct ResourceDef {
    pub name: String,
    pub catalog: Catalog,
    /// Name of the ontology the catalog's classes come from.
    pub ontology: String,
    /// Advertised restrictions on the data (horizontal-fragment bounds).
    pub constraints: Conjunction,
    /// Advertised fragments, per class.
    pub fragments: Vec<(String, Fragment)>,
    /// Brokers to advertise to (redundant advertising); 1 by default.
    pub redundancy: usize,
    /// §4.2.2 maintenance interval (broker pings + re-advertising);
    /// `None` disables it.
    pub maintenance_interval: Option<Duration>,
}

impl ResourceDef {
    pub fn new(name: impl Into<String>, ontology: impl Into<String>, catalog: Catalog) -> Self {
        ResourceDef {
            name: name.into(),
            catalog,
            ontology: ontology.into(),
            constraints: Conjunction::always(),
            fragments: Vec::new(),
            redundancy: 1,
            maintenance_interval: None,
        }
    }

    pub fn with_constraints(mut self, c: Conjunction) -> Self {
        self.constraints = c;
        self
    }

    pub fn with_fragment(mut self, class: impl Into<String>, f: Fragment) -> Self {
        self.fragments.push((class.into(), f));
        self
    }

    pub fn with_redundancy(mut self, r: usize) -> Self {
        self.redundancy = r.max(1);
        self
    }

    /// Derives the agent's advertisement from its catalog and ontology.
    /// Public so distributed deployments can build a [`ResourceSpec`]
    /// without going through [`CommunityBuilder`].
    pub fn advertisement(&self, ontology: &Ontology, port: u16) -> Advertisement {
        let mut slots = Vec::new();
        let mut keys = Vec::new();
        for table in self.catalog.tables() {
            for col in table.columns() {
                slots.push(format!("{}.{}", table.name, col.name));
            }
            if let Ok(class_slots) = ontology.all_slots(&table.name) {
                for s in class_slots.iter().filter(|s| s.is_key) {
                    keys.push(format!("{}.{}", table.name, s.name));
                }
            }
        }
        let mut content = OntologyContent::new(self.ontology.clone())
            .with_classes(self.catalog.names())
            .with_slots(slots)
            .with_keys(keys)
            .with_constraints(self.constraints.clone());
        for (class, frag) in &self.fragments {
            content = content.with_fragment(class.clone(), frag.clone());
        }
        Advertisement::new(AgentLocation::new(
            self.name.clone(),
            format!("tcp://{}.mcc.com:{}", self.name, port),
            AgentType::Resource,
        ))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(
            SemanticInfo::default()
                .with_conversations([ConversationType::AskAll, ConversationType::AskOne])
                .with_capabilities([
                    Capability::relational_query_processing(),
                    Capability::select(),
                    Capability::project(),
                ])
                .with_content(content),
        )
    }
}

/// Builder for a [`Community`].
pub struct CommunityBuilder {
    ontologies: Vec<Arc<Ontology>>,
    broker_configs: Vec<BrokerConfig>,
    resources: Vec<ResourceDef>,
    timeout: Duration,
}

impl Default for CommunityBuilder {
    fn default() -> Self {
        CommunityBuilder {
            ontologies: Vec::new(),
            broker_configs: Vec::new(),
            resources: Vec::new(),
            timeout: Duration::from_secs(5),
        }
    }
}

impl CommunityBuilder {
    /// Registers a common domain ontology.
    pub fn with_ontology(mut self, o: Ontology) -> Self {
        self.ontologies.push(Arc::new(o));
        self
    }

    /// Adds a general-purpose broker by name.
    pub fn add_broker(mut self, name: impl Into<String>) -> Self {
        let name = name.into();
        let port = 5000 + self.broker_configs.len() as u16;
        self.broker_configs
            .push(BrokerConfig::new(name.clone(), format!("tcp://{name}.mcc.com:{port}")));
        self
    }

    /// Adds a resource agent.
    pub fn add_resource(mut self, def: ResourceDef) -> Self {
        self.resources.push(def);
        self
    }

    /// Spawns everything on one shared runtime and returns the running
    /// community.
    pub fn build(self) -> Result<Community, BusError> {
        assert!(!self.broker_configs.is_empty(), "a community needs at least one broker");
        let bus = Bus::new();
        let transport = bus.as_transport();
        // One runtime for the whole community. Workers are sized so that
        // the deepest request chain (user → MRQ → broker → broker peer,
        // plus resource fan-out and liveness sweeps) always finds a free
        // worker; requests are timeout-bounded, so an undersized pool
        // degrades to slow rather than stuck.
        let agent_count = self.broker_configs.len() + self.resources.len() + 3;
        let runtime = AgentRuntime::new(
            Arc::clone(&transport),
            RuntimeConfig::default()
                .with_workers((4 + 2 * agent_count).min(48))
                .with_monitor("monitor-agent"),
        );
        // Brokers first; they form one fully-interconnected consortium.
        let mut brokers = Vec::new();
        for config in self.broker_configs {
            let mut repo = Repository::new();
            // Every community broker understands the observability
            // ontology, so health publishers can advertise their facts
            // (and threshold subscriptions can stand) out of the box.
            repo.register_ontology(obs_ontology());
            for o in &self.ontologies {
                repo.register_ontology((**o).clone());
            }
            brokers.push(BrokerAgent::spawn_on(&runtime, config, repo)?);
        }
        {
            let refs: Vec<&BrokerHandle> = brokers.iter().collect();
            infosleuth_broker::interconnect(&refs)?;
        }
        let broker_names: Vec<String> = brokers.iter().map(|b| b.name().to_string()).collect();

        // Core agents. The monitor comes first so delivery failures during
        // the rest of the bring-up already have a sink.
        let monitor = spawn_monitor_agent_on(
            &runtime,
            MonitorSpec {
                name: "monitor-agent".into(),
                address: "tcp://monitor.mcc.com:6001".into(),
                brokers: broker_names.clone(),
                timeout: self.timeout,
                scrape_addr: None,
            },
        )?;
        let ontology_agent =
            spawn_ontology_agent_on(&runtime, "ontology-agent", self.ontologies.clone())?;
        let mrq = spawn_mrq_agent_on(
            &runtime,
            MrqSpec {
                name: "mrq-agent".into(),
                address: "tcp://mrq.mcc.com:6000".into(),
                brokers: broker_names.clone(),
                ontologies: self.ontologies.clone(),
                timeout: self.timeout,
            },
        )?;

        // Resource agents.
        let mut resources = Vec::new();
        for (i, def) in self.resources.into_iter().enumerate() {
            let ontology = self
                .ontologies
                .iter()
                .find(|o| o.name == def.ontology)
                .unwrap_or_else(|| {
                    panic!("resource '{}' references unknown ontology '{}'", def.name, def.ontology)
                })
                .clone();
            let ad = def.advertisement(&ontology, 7000 + i as u16);
            let spec = ResourceSpec {
                advertisement: ad,
                catalog: def.catalog,
                ontology,
                redundancy: def.redundancy,
                maintenance_interval: def.maintenance_interval,
                timeout: self.timeout,
            };
            resources.push(spawn_resource_agent_on(&runtime, spec, &broker_names, self.timeout)?);
        }

        Ok(Community {
            bus,
            transport,
            runtime,
            brokers,
            broker_names,
            resources,
            mrq: Some(mrq),
            monitor: Some(monitor),
            ontology_agent: Some(ontology_agent),
            timeout: self.timeout,
        })
    }
}

/// A running InfoSleuth community.
pub struct Community {
    bus: Bus,
    transport: Arc<dyn Transport>,
    runtime: AgentRuntime,
    brokers: Vec<BrokerHandle>,
    broker_names: Vec<String>,
    resources: Vec<ResourceAgentHandle>,
    mrq: Option<MrqAgentHandle>,
    monitor: Option<MonitorAgentHandle>,
    ontology_agent: Option<OntologyAgentHandle>,
    timeout: Duration,
}

impl Community {
    pub fn builder() -> CommunityBuilder {
        CommunityBuilder::default()
    }

    /// The shared in-proc message bus (for spawning additional custom
    /// agents).
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// The transport every community agent is registered on.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// The shared runtime hosting the community's agents (for spawning
    /// additional hosted agents).
    pub fn runtime(&self) -> &AgentRuntime {
        &self.runtime
    }

    pub fn broker_names(&self) -> &[String] {
        &self.broker_names
    }

    pub fn brokers(&self) -> &[BrokerHandle] {
        &self.brokers
    }

    /// The monitor agent's handle — the community's delivery-failure log.
    pub fn monitor(&self) -> Option<&MonitorAgentHandle> {
        self.monitor.as_ref()
    }

    /// Total delivery failures across the community's brokers and
    /// resource agents: sends the transport refused, §4.2.2's death
    /// signal. A healthy community reports 0.
    pub fn delivery_failures(&self) -> u64 {
        let broker_failures: u64 = self.brokers.iter().map(|b| b.delivery_failures()).sum();
        let resource_failures: u64 = self.resources.iter().map(|r| r.delivery_failures()).sum();
        broker_failures + resource_failures
    }

    /// Connects a new user agent to the community; its preferred brokers
    /// are all of the community's brokers, in order.
    pub fn user(&self, name: impl Into<String>) -> Result<UserAgent, BusError> {
        UserAgent::connect_over(
            Arc::clone(&self.transport),
            name,
            self.broker_names.clone(),
            self.timeout,
        )
    }

    /// Stops a broker (simulating failure or clean shutdown); the rest of
    /// the community keeps running. Returns false if no such broker.
    pub fn stop_broker(&mut self, name: &str) -> bool {
        if let Some(pos) = self.brokers.iter().position(|b| b.name() == name) {
            let b = self.brokers.remove(pos);
            b.stop();
            true
        } else {
            false
        }
    }

    /// Shuts the whole community down.
    pub fn shutdown(mut self) {
        for r in self.resources.drain(..) {
            r.stop();
        }
        if let Some(m) = self.mrq.take() {
            m.stop();
        }
        if let Some(m) = self.monitor.take() {
            m.stop();
        }
        if let Some(o) = self.ontology_agent.take() {
            o.stop();
        }
        for b in self.brokers.drain(..) {
            b.stop();
        }
        self.runtime.shutdown();
    }
}
