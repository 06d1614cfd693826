//! The `ping` conversation, in both directions: answering an agent that
//! asks whether the broker still knows it (§4.2.2), and the broker's own
//! periodic sweep over the agents that advertised to it (§2.2).

use super::{reply_as_broker, subscribe, Shared};
use infosleuth_agent::{AgentContext, Envelope};
use infosleuth_kqml::{Message, Performative, SExpr};
use std::collections::BTreeSet;

pub(super) fn handle_ping(shared: &Shared, ctx: &AgentContext, env: &Envelope) {
    // "In the event that a broker is alive but does not have information
    // about the agent that is doing the querying, [it] will receive a reply
    // containing no matches" — modelled as `sorry`.
    let perf = match env.message.content().and_then(SExpr::as_text) {
        Some(about) => {
            let state = shared.state.lock();
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
    let agents: Vec<String> = shared.state.lock().repo.agent_names().map(str::to_string).collect();
    // A probe the transport refuses counts as a delivery failure (and is
    // reported to the monitor) in addition to marking the agent dead — the
    // sweep does not swallow send errors.
    let dead: Vec<String> = agents
        .into_iter()
        .filter(|agent| {
            let probe = Message::new(Performative::Ping);
            ctx.request(agent, probe, shared.config.peer_timeout).is_err()
        })
        .collect();
    if dead.is_empty() {
        return;
    }
    shared.with_state(ctx, |state, out| {
        let mut affected = BTreeSet::new();
        for agent in dead {
            if let Some(old) = state.unadvertise(&agent) {
                affected.append(&mut subscribe::affected(shared, state, Some(&old), None));
            }
        }
        subscribe::notify(shared, state, affected, out);
        shared.broadcast_digest(state, out);
    });
}
