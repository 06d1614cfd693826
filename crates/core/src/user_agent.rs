//! User agents: proxies for individual users.
//!
//! Figure 6: the user submits `select * from C2`; her user agent asks the
//! broker for "one multiresource query processing agent that can accept and
//! process SQL queries", then forwards the query to the recommended agent
//! and returns the assembled result.

use crate::tablecodec;
use infosleuth_agent::{Bus, BusError, Endpoint, Transport, TransportExt};
use infosleuth_broker::query_broker;
use infosleuth_kqml::{Message, Performative, SExpr};
use infosleuth_ontology::{AgentType, Capability, ServiceQuery};
use infosleuth_relquery::Table;
use std::fmt;
use std::time::Duration;

/// Errors surfaced to the user.
#[derive(Debug, Clone, PartialEq)]
pub enum UserAgentError {
    /// The broker recommended no MRQ agent.
    NoQueryAgent,
    /// Transport or timeout failure.
    Bus(BusError),
    /// The MRQ agent answered `sorry` or `error` with this explanation.
    QueryFailed(String),
    /// The reply payload was not a table.
    BadReply(String),
}

impl fmt::Display for UserAgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UserAgentError::NoQueryAgent => {
                write!(f, "no multiresource query agent available")
            }
            UserAgentError::Bus(e) => write!(f, "{e}"),
            UserAgentError::QueryFailed(m) => write!(f, "query failed: {m}"),
            UserAgentError::BadReply(m) => write!(f, "malformed reply: {m}"),
        }
    }
}

impl std::error::Error for UserAgentError {}

impl From<BusError> for UserAgentError {
    fn from(e: BusError) -> Self {
        UserAgentError::Bus(e)
    }
}

/// A user agent. Unlike the service agents it is caller-driven: the
/// application thread calls [`UserAgent::submit_sql`].
pub struct UserAgent {
    endpoint: Endpoint,
    brokers: Vec<String>,
    timeout: Duration,
}

impl UserAgent {
    /// Registers a user agent on the bus with its preferred brokers.
    pub fn connect(
        bus: &Bus,
        name: impl Into<String>,
        brokers: Vec<String>,
        timeout: Duration,
    ) -> Result<UserAgent, BusError> {
        UserAgent::connect_over(bus.as_transport(), name, brokers, timeout)
    }

    /// Registers a user agent on any [`Transport`] (in-proc bus or TCP
    /// node) with its preferred brokers.
    pub fn connect_over(
        transport: std::sync::Arc<dyn Transport>,
        name: impl Into<String>,
        brokers: Vec<String>,
        timeout: Duration,
    ) -> Result<UserAgent, BusError> {
        let endpoint = transport.endpoint(name.into())?;
        Ok(UserAgent { endpoint, brokers, timeout })
    }

    pub fn name(&self) -> &str {
        self.endpoint.name()
    }

    /// Figure 6 end to end: locate an MRQ agent via the brokers, forward
    /// the SQL (with its ontology tag), return the assembled table.
    pub fn submit_sql(
        &mut self,
        sql: &str,
        ontology: Option<&str>,
    ) -> Result<Table, UserAgentError> {
        let query = ServiceQuery::for_agent_type(AgentType::MultiResourceQuery)
            .with_query_language("SQL 2.0")
            .with_capability(Capability::multiresource_query_processing())
            .one();
        let mut mrq = None;
        for broker in &self.brokers {
            match query_broker(&mut self.endpoint, broker, &query, None, self.timeout) {
                Ok(matches) if !matches.is_empty() => {
                    mrq = Some(matches[0].name.clone());
                    break;
                }
                _ => continue,
            }
        }
        let mrq = mrq.ok_or(UserAgentError::NoQueryAgent)?;
        let mut msg = Message::new(Performative::AskAll)
            .with_language("SQL 2.0")
            .with_content(SExpr::string(sql));
        if let Some(o) = ontology {
            msg = msg.with_ontology(o);
        }
        let reply = self.endpoint.request(&mrq, msg, self.timeout)?;
        match reply.performative {
            Performative::Reply => {
                let content = reply
                    .content()
                    .ok_or_else(|| UserAgentError::BadReply("missing content".into()))?;
                tablecodec::table_from_sexpr(content)
                    .map_err(|e| UserAgentError::BadReply(e.to_string()))
            }
            _ => {
                let reason =
                    reply.content().and_then(SExpr::as_text).unwrap_or("unspecified").to_string();
                Err(UserAgentError::QueryFailed(reason))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_agent::Bus;
    use infosleuth_broker::{BrokerAgent, BrokerConfig, Repository};

    #[test]
    fn no_broker_reachable_yields_no_query_agent() {
        let bus = Bus::new();
        let mut user = UserAgent::connect(
            &bus,
            "lonely-user",
            vec!["ghost-broker".into()],
            Duration::from_millis(100),
        )
        .expect("connects");
        assert_eq!(user.name(), "lonely-user");
        let err = user.submit_sql("select * from C1", None).unwrap_err();
        assert_eq!(err, UserAgentError::NoQueryAgent);
    }

    #[test]
    fn broker_without_mrq_yields_no_query_agent() {
        let bus = Bus::new();
        let broker = BrokerAgent::spawn(
            &bus,
            BrokerConfig::new("empty-broker", "tcp://b.mcc.com:5000"),
            Repository::new(),
        )
        .expect("broker spawns");
        let mut user =
            UserAgent::connect(&bus, "user", vec!["empty-broker".into()], Duration::from_secs(2))
                .expect("connects");
        let err = user.submit_sql("select * from C1", None).unwrap_err();
        assert_eq!(err, UserAgentError::NoQueryAgent);
        broker.stop();
    }

    #[test]
    fn error_display_is_informative() {
        assert!(UserAgentError::NoQueryAgent.to_string().contains("multiresource"));
        assert!(UserAgentError::QueryFailed("boom".into()).to_string().contains("boom"));
        assert!(UserAgentError::BadReply("bad".into()).to_string().contains("bad"));
    }
}
