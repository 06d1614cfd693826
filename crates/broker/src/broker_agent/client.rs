//! Client-side helpers: what non-broker agents do to open each of the
//! broker's conversations.

use crate::codec;
use crate::matchmaker::MatchResult;
use crate::policy::SearchPolicy;
use infosleuth_agent::{BusError, Requester};
use infosleuth_kqml::{Message, Performative, SExpr};
use infosleuth_ontology::{Advertisement, ServiceQuery};
use std::time::Duration;

/// Builds the `broker-one` content payload that the broker agent expects.
pub fn broker_one_content(query: &ServiceQuery, embedded: &Message) -> SExpr {
    SExpr::list([
        SExpr::atom("broker-one"),
        codec::service_query_to_sexpr(query),
        SExpr::list([SExpr::atom("message"), SExpr::string(embedded.to_string())]),
    ])
}

/// Advertises an agent to a broker; `Ok(true)` = accepted, `Ok(false)` =
/// declined (specialization mismatch or validation failure).
pub fn advertise_to<R: Requester>(
    ep: &mut R,
    broker: &str,
    ad: &Advertisement,
    timeout: Duration,
) -> Result<bool, BusError> {
    let msg = Message::new(Performative::Advertise)
        .with_ontology("infosleuth-service")
        .with_content(codec::advertisement_to_sexpr(ad));
    let reply = ep.request(broker, msg, timeout)?;
    Ok(reply.performative == Performative::Tell)
}

/// Withdraws an agent's advertisement from a broker.
pub fn unadvertise_from<R: Requester>(
    ep: &mut R,
    broker: &str,
    agent: &str,
    timeout: Duration,
) -> Result<bool, BusError> {
    let msg = Message::new(Performative::Unadvertise).with_content(SExpr::atom(agent));
    let reply = ep.request(broker, msg, timeout)?;
    Ok(reply.performative == Performative::Tell)
}

/// Registers a standing subscription with a broker. Delta notifications go
/// to the agent named `reply_to`; the returned key identifies the
/// subscription (`:in-reply-to` on every notification, and the handle for
/// [`unsubscribe_from`]). `Ok(None)` means the broker declined the query
/// (e.g. it failed subscription admission analysis).
pub fn subscribe_to<R: Requester>(
    ep: &mut R,
    broker: &str,
    query: &ServiceQuery,
    reply_to: &str,
    timeout: Duration,
) -> Result<Option<String>, BusError> {
    let msg = Message::new(Performative::Subscribe)
        .with_ontology("infosleuth-service")
        .with("reply-to", SExpr::atom(reply_to))
        .with_content(codec::service_query_to_sexpr(query));
    let reply = ep.request(broker, msg, timeout)?;
    if reply.performative != Performative::Tell {
        return Ok(None);
    }
    Ok(reply.content().and_then(SExpr::as_text).map(str::to_string))
}

/// Cancels a standing subscription previously opened with [`subscribe_to`]
/// (same `reply_to`; only the registered subscriber may cancel).
pub fn unsubscribe_from<R: Requester>(
    ep: &mut R,
    broker: &str,
    sub_key: &str,
    reply_to: &str,
    timeout: Duration,
) -> Result<bool, BusError> {
    let msg = Message::new(Performative::Other("unsubscribe".into()))
        .with("reply-to", SExpr::atom(reply_to))
        .with_content(SExpr::atom(sub_key));
    let reply = ep.request(broker, msg, timeout)?;
    Ok(reply.performative == Performative::Tell)
}

/// Queries a broker for matching agents, optionally overriding the search
/// policy ("the requesting agent can then specify the policies under which
/// it wishes for the broker to initiate an inter-broker search").
pub fn query_broker<R: Requester>(
    ep: &mut R,
    broker: &str,
    query: &ServiceQuery,
    policy: Option<SearchPolicy>,
    timeout: Duration,
) -> Result<Vec<MatchResult>, BusError> {
    let content = match policy {
        Some(policy) => codec::search_request_to_sexpr(&codec::SearchRequest {
            query: query.clone(),
            policy,
            visited: Vec::new(),
            digest_epoch: None,
        }),
        None => codec::service_query_to_sexpr(query),
    };
    let msg = Message::new(Performative::AskAll)
        .with_ontology("infosleuth-service")
        .with_content(content);
    let reply = ep.request(broker, msg, timeout)?;
    match reply.content() {
        Some(content) => Ok(codec::matches_from_sexpr(content).unwrap_or_default()),
        None => Ok(Vec::new()),
    }
}
