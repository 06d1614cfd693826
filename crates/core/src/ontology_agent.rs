//! The ontology agent: serves the community's common ontologies.
//!
//! "These agents service requests over a set of common ontologies, accessed
//! via the ontology agents." Agents ask it for class and slot definitions
//! by name; the reply carries a structured `(ontology ...)` payload. The
//! agent is stateless, so it is the simplest possible
//! [`AgentBehavior`]: one message in, one reply out.

use infosleuth_agent::{
    AgentBehavior, AgentContext, AgentHandle, AgentRuntime, Bus, BusError, Envelope, RuntimeConfig,
};
use infosleuth_kqml::{Performative, SExpr};
use infosleuth_ontology::Ontology;
use std::sync::Arc;

/// Encodes an ontology's structure (names, classes, slots, hierarchy).
pub fn ontology_to_sexpr(o: &Ontology) -> SExpr {
    let mut items = vec![SExpr::atom("ontology"), SExpr::atom(o.name.as_str())];
    for class in o.classes() {
        let mut c = vec![SExpr::atom("class"), SExpr::atom(class.name.as_str())];
        for parent in o.hierarchy().parents_of(&class.name) {
            c.push(SExpr::list([SExpr::atom("isa"), SExpr::atom(parent)]));
        }
        for slot in &class.slots {
            let mut s = vec![
                SExpr::atom("slot"),
                SExpr::atom(slot.name.as_str()),
                SExpr::atom(slot.value_type.to_string()),
            ];
            if slot.is_key {
                s.push(SExpr::atom("key"));
            }
            c.push(SExpr::list(s));
        }
        items.push(SExpr::list(c));
    }
    SExpr::list(items)
}

/// Handle to a running ontology agent.
pub struct OntologyAgentHandle {
    name: String,
    agent: AgentHandle,
    _runtime: Option<AgentRuntime>,
}

impl OntologyAgentHandle {
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

struct OntologyBehavior {
    ontologies: Vec<Arc<Ontology>>,
}

impl AgentBehavior for OntologyBehavior {
    fn on_message(&self, ctx: &AgentContext, env: Envelope) {
        let reply = match env.message.performative {
            Performative::Ping => env.message.reply_skeleton(Performative::Reply),
            Performative::AskOne | Performative::AskAll => {
                let wanted = env.message.content().and_then(SExpr::as_text);
                match wanted.and_then(|w| self.ontologies.iter().find(|o| o.name == w)) {
                    Some(o) => env
                        .message
                        .reply_skeleton(Performative::Reply)
                        .with_content(ontology_to_sexpr(o)),
                    None => env.message.reply_skeleton(Performative::Sorry),
                }
            }
            _ => env
                .message
                .reply_skeleton(Performative::Error)
                .with_content(SExpr::string("ontology agent answers ask-one only")),
        };
        let _ = ctx.send(&env.from, reply);
    }
}

/// Spawns an ontology agent on its own private runtime over the bus.
/// `ask-one` with an ontology-name atom as content returns the
/// definition; unknown names get `sorry`.
pub fn spawn_ontology_agent(
    bus: &Bus,
    name: impl Into<String>,
    ontologies: Vec<Arc<Ontology>>,
) -> Result<OntologyAgentHandle, BusError> {
    let runtime = AgentRuntime::new(bus.as_transport(), RuntimeConfig::default().with_workers(2));
    let mut handle = spawn_ontology_agent_on(&runtime, name, ontologies)?;
    handle._runtime = Some(runtime);
    Ok(handle)
}

/// Spawns an ontology agent on a shared [`AgentRuntime`].
pub fn spawn_ontology_agent_on(
    runtime: &AgentRuntime,
    name: impl Into<String>,
    ontologies: Vec<Arc<Ontology>>,
) -> Result<OntologyAgentHandle, BusError> {
    let name = name.into();
    let agent = runtime.spawn(&name, Arc::new(OntologyBehavior { ontologies }))?;
    Ok(OntologyAgentHandle { name, agent, _runtime: None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_agent::Bus;
    use infosleuth_kqml::Message;
    use infosleuth_ontology::healthcare_ontology;
    use std::time::Duration;

    #[test]
    fn serves_ontology_definitions() {
        let bus = Bus::new();
        let handle =
            spawn_ontology_agent(&bus, "ontology-agent", vec![Arc::new(healthcare_ontology())])
                .unwrap();
        let mut client = bus.register("client").unwrap();
        let reply = client
            .request(
                "ontology-agent",
                Message::new(Performative::AskOne).with_content(SExpr::atom("healthcare")),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply.performative, Performative::Reply);
        let text = reply.content().unwrap().to_string();
        assert!(text.contains("patient"));
        assert!(text.contains("(isa provider)")); // podiatrist is-a provider
        assert!(text.contains("key"));
        // Unknown ontology → sorry.
        let reply = client
            .request(
                "ontology-agent",
                Message::new(Performative::AskOne).with_content(SExpr::atom("nope")),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply.performative, Performative::Sorry);
        handle.stop();
    }
}
