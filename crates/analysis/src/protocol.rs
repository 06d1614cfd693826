//! Conversation-protocol specifications and their static analysis.
//!
//! InfoSleuth agents interoperate through KQML *conversations*: an opening
//! performative (`advertise`, `subscribe`, `ask-all`, …) carrying a
//! `:reply-with` key, followed by replies carrying the matching
//! `:in-reply-to`, until the conversation reaches a terminal
//! acknowledgement (`tell`, `reply`, `sorry`, `error`). A
//! [`ProtocolSpec`] describes one such conversation family as a finite
//! state machine over performatives; [`analyze_protocol`] statically
//! checks a spec for the IS04x defect classes (undefined/unreachable
//! states, nondeterministic transitions, undeclared or unhandled
//! performatives, obligations that can never be discharged, dead-end
//! states); and [`standard_protocols`] ships the table describing the
//! broker's actual conversation behaviour, which
//! [`crate::conformance::ConformanceMonitor`] interprets at runtime.
//!
//! Trigger matching is *most-specific-wins*: a trigger may name a bare
//! performative (`tell`) or refine it with a content head
//! (`tell/sub-delta`, matching a `tell` whose content is a list headed by
//! the atom `sub-delta`). A refined trigger takes precedence over a bare
//! one from the same state, so the pair is deterministic; two transitions
//! with *identical* triggers from one state are IS042.

use crate::diag::{Code, Diagnostic, Report};
use infosleuth_kqml::Message;
use std::collections::{BTreeMap, BTreeSet};

/// Effect a transition has on the standing-subscription registry the
/// runtime monitor keeps alongside conversations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubEffect {
    /// The transition acknowledges a subscription: its key becomes active.
    Activate,
    /// The transition acknowledges an unsubscribe: the key closes.
    Close,
    /// The transition is a `sub-delta` notification on the key.
    Delta,
}

/// What a message must look like to take a transition: a performative,
/// optionally refined by the head atom of its content list.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Trigger {
    pub performative: String,
    pub content_head: Option<String>,
}

impl Trigger {
    pub fn new(performative: impl Into<String>) -> Self {
        Trigger { performative: performative.into(), content_head: None }
    }

    pub fn with_head(performative: impl Into<String>, head: impl Into<String>) -> Self {
        Trigger { performative: performative.into(), content_head: Some(head.into()) }
    }

    /// Does `msg` satisfy this trigger? Bare triggers match any content;
    /// refined triggers additionally require the content head atom.
    pub fn matches(&self, msg: &Message) -> bool {
        if msg.performative.as_str() != self.performative {
            return false;
        }
        match &self.content_head {
            None => true,
            Some(head) => content_head(msg).is_some_and(|h| h == head),
        }
    }

    pub fn render(&self) -> String {
        match &self.content_head {
            Some(h) => format!("{}/{}", self.performative, h),
            None => self.performative.clone(),
        }
    }
}

/// The head atom of a message's content list, if any.
pub fn content_head(msg: &Message) -> Option<&str> {
    msg.content()?.as_list()?.first()?.as_atom()
}

/// One edge of the conversation machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoTransition {
    pub from: String,
    pub on: Trigger,
    pub to: String,
    /// Obligation label this transition opens (e.g. `reply`).
    pub opens: Option<String>,
    /// Obligation label this transition discharges.
    pub discharges: Option<String>,
    pub sub: Option<SubEffect>,
}

impl ProtoTransition {
    pub fn new(from: impl Into<String>, on: Trigger, to: impl Into<String>) -> Self {
        ProtoTransition {
            from: from.into(),
            on,
            to: to.into(),
            opens: None,
            discharges: None,
            sub: None,
        }
    }

    pub fn opens(mut self, obligation: impl Into<String>) -> Self {
        self.opens = Some(obligation.into());
        self
    }

    pub fn discharges(mut self, obligation: impl Into<String>) -> Self {
        self.discharges = Some(obligation.into());
        self
    }

    pub fn sub_effect(mut self, effect: SubEffect) -> Self {
        self.sub = Some(effect);
        self
    }
}

/// A declarative conversation protocol: named states (the first is
/// initial), final states, the performative vocabulary the protocol
/// claims to handle, and the transition table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolSpec {
    pub name: String,
    /// All states; `states[0]` is the initial state.
    pub states: Vec<String>,
    pub finals: Vec<String>,
    /// Performatives the protocol declares it participates in. Optional:
    /// when empty, IS043 is not checked.
    pub declares: Vec<String>,
    pub transitions: Vec<ProtoTransition>,
}

impl ProtocolSpec {
    pub fn new(name: impl Into<String>, states: &[&str], finals: &[&str]) -> Self {
        ProtocolSpec {
            name: name.into(),
            states: states.iter().map(|s| s.to_string()).collect(),
            finals: finals.iter().map(|s| s.to_string()).collect(),
            declares: Vec::new(),
            transitions: Vec::new(),
        }
    }

    pub fn declare(mut self, performatives: &[&str]) -> Self {
        self.declares.extend(performatives.iter().map(|s| s.to_string()));
        self
    }

    pub fn transition(mut self, t: ProtoTransition) -> Self {
        self.transitions.push(t);
        self
    }

    pub fn initial(&self) -> Option<&str> {
        self.states.first().map(String::as_str)
    }

    pub fn is_final(&self, state: &str) -> bool {
        self.finals.iter().any(|f| f == state)
    }

    /// The transition a message takes from `state`, most-specific-wins:
    /// a trigger refined by content head beats a bare performative.
    pub fn step<'a>(&'a self, state: &str, msg: &Message) -> Option<&'a ProtoTransition> {
        let mut bare = None;
        for t in self.transitions.iter().filter(|t| t.from == state) {
            if t.on.matches(msg) {
                if t.on.content_head.is_some() {
                    return Some(t);
                }
                bare.get_or_insert(t);
            }
        }
        bare
    }

    /// Does any performative of the spec close a conversation (enter a
    /// final state)? Used by the runtime monitor to split IS053
    /// (duplicate ack) from IS050 (plain out-of-order traffic).
    pub fn is_closing_trigger(&self, msg: &Message) -> bool {
        self.transitions.iter().any(|t| self.is_final(&t.to) && t.on.matches(msg))
    }
}

/// Statically checks one protocol spec, reporting the IS04x family.
pub fn analyze_protocol(spec: &ProtocolSpec) -> Report {
    let mut report = Report::new(format!("protocol {}", spec.name));
    let states: BTreeSet<&str> = spec.states.iter().map(String::as_str).collect();

    if spec.states.is_empty() {
        report.push(Diagnostic::new(
            Code::UndefinedProtocolState,
            "protocol declares no states (no initial state exists)",
        ));
        return report.sorted();
    }

    // IS040 — every state a transition or final list names must exist.
    for t in &spec.transitions {
        for (role, name) in [("source", &t.from), ("target", &t.to)] {
            if !states.contains(name.as_str()) {
                report.push(Diagnostic::new(
                    Code::UndefinedProtocolState,
                    format!(
                        "transition on `{}` names undeclared {role} state `{name}`",
                        t.on.render()
                    ),
                ));
            }
        }
    }
    for f in &spec.finals {
        if !states.contains(f.as_str()) {
            report.push(Diagnostic::new(
                Code::UndefinedProtocolState,
                format!("final-state list names undeclared state `{f}`"),
            ));
        }
    }

    // Forward reachability from the initial state (over declared states).
    let initial = spec.states[0].as_str();
    let mut reachable: BTreeSet<&str> = BTreeSet::new();
    let mut frontier = vec![initial];
    while let Some(s) = frontier.pop() {
        if !reachable.insert(s) {
            continue;
        }
        for t in spec.transitions.iter().filter(|t| t.from == s) {
            if states.contains(t.to.as_str()) {
                frontier.push(t.to.as_str());
            }
        }
    }

    // IS041 — declared but unreachable states.
    for s in &spec.states {
        if !reachable.contains(s.as_str()) {
            report.push(Diagnostic::new(
                Code::UnreachableProtocolState,
                format!("state `{s}` is unreachable from initial state `{initial}`"),
            ));
        }
    }

    // IS042 — identical (state, trigger) pairs. Refined vs bare triggers
    // on the same performative are fine (most-specific-wins is
    // deterministic); exact duplicates are not.
    let mut seen: BTreeMap<(&str, String), usize> = BTreeMap::new();
    for (i, t) in spec.transitions.iter().enumerate() {
        let key = (t.from.as_str(), t.on.render());
        if let Some(&first) = seen.get(&key) {
            report.push(Diagnostic::new(
                Code::NondeterministicTransition,
                format!(
                    "state `{}` has two transitions on `{}` (targets `{}` and `{}`)",
                    t.from,
                    t.on.render(),
                    spec.transitions[first].to,
                    t.to
                ),
            ));
        } else {
            seen.insert(key, i);
        }
    }

    // IS043 — declared performatives no transition ever consumes.
    for p in &spec.declares {
        if !spec.transitions.iter().any(|t| &t.on.performative == p) {
            report.push(Diagnostic::new(
                Code::UnhandledPerformative,
                format!("declared performative `{p}` is consumed by no transition"),
            ));
        }
    }

    // IS044 — obligations that open on a reachable path but can never be
    // discharged from the state the opening transition lands in.
    // Backward reachability: states from which some discharge-of-o
    // transition's source is reachable.
    let obligations: BTreeSet<&str> =
        spec.transitions.iter().filter_map(|t| t.opens.as_deref()).collect();
    for o in obligations {
        // States with a discharging transition for `o`.
        let mut can_discharge: BTreeSet<&str> = spec
            .transitions
            .iter()
            .filter(|t| t.discharges.as_deref() == Some(o))
            .map(|t| t.from.as_str())
            .collect();
        // Fixpoint: s can discharge if some transition leads to a state
        // that can.
        loop {
            let before = can_discharge.len();
            for t in &spec.transitions {
                if can_discharge.contains(t.to.as_str()) {
                    can_discharge.insert(t.from.as_str());
                }
            }
            if can_discharge.len() == before {
                break;
            }
        }
        for t in spec.transitions.iter().filter(|t| t.opens.as_deref() == Some(o)) {
            if reachable.contains(t.from.as_str()) && !can_discharge.contains(t.to.as_str()) {
                report.push(Diagnostic::new(
                    Code::UndischargeableObligation,
                    format!(
                        "obligation `{o}` opened by `{}` from state `{}` can never be discharged \
                         from state `{}`",
                        t.on.render(),
                        t.from,
                        t.to
                    ),
                ));
            }
        }
    }

    // IS045 — reachable non-final states with no way out.
    for s in &spec.states {
        if reachable.contains(s.as_str())
            && !spec.is_final(s)
            && !spec.transitions.iter().any(|t| &t.from == s)
        {
            report.push(Diagnostic::new(
                Code::DeadEndProtocolState,
                format!("non-final state `{s}` has no outgoing transitions — conversations reaching it are stuck"),
            ));
        }
    }

    report.sorted()
}

/// Runs [`analyze_protocol`] over every spec and absorbs the findings
/// into one report (origin `protocol-table`).
pub fn analyze_protocol_table(specs: &[ProtocolSpec]) -> Report {
    let mut report = Report::new("protocol-table");
    for spec in specs {
        report.absorb(analyze_protocol(spec));
    }
    report.sorted()
}

/// The shipped conversation-protocol table: the conversations the broker
/// in `crates/broker` actually conducts, one spec per family. The static
/// pass keeps this table clean in CI; the conformance monitor interprets
/// it at runtime.
pub fn standard_protocols() -> Vec<ProtocolSpec> {
    let mutation = ProtocolSpec::new("mutation", &["start", "awaiting", "done"], &["done"])
        .declare(&["advertise", "update", "unadvertise", "tell", "sorry", "error"])
        .transition(
            ProtoTransition::new("start", Trigger::new("advertise"), "awaiting").opens("reply"),
        )
        .transition(
            ProtoTransition::new("start", Trigger::new("update"), "awaiting").opens("reply"),
        )
        .transition(
            ProtoTransition::new("start", Trigger::new("unadvertise"), "awaiting").opens("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("tell"), "done").discharges("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("sorry"), "done").discharges("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("error"), "done").discharges("reply"),
        );

    let ask = ProtocolSpec::new("ask", &["start", "awaiting", "done"], &["done"])
        .declare(&["ask-all", "ask-one", "recruit-all", "recruit-one", "reply", "sorry", "error"])
        .transition(
            ProtoTransition::new("start", Trigger::new("ask-all"), "awaiting").opens("reply"),
        )
        .transition(
            ProtoTransition::new("start", Trigger::new("ask-one"), "awaiting").opens("reply"),
        )
        .transition(
            ProtoTransition::new("start", Trigger::new("recruit-all"), "awaiting").opens("reply"),
        )
        .transition(
            ProtoTransition::new("start", Trigger::new("recruit-one"), "awaiting").opens("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("reply"), "done").discharges("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("sorry"), "done").discharges("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("error"), "done").discharges("reply"),
        );

    // `broker-one` relays the answer of whichever agent the broker picked,
    // so any terminal performative may close it.
    let broker_one = ProtocolSpec::new("broker-one", &["start", "awaiting", "done"], &["done"])
        .declare(&["broker-one", "reply", "tell", "sorry", "error"])
        .transition(
            ProtoTransition::new("start", Trigger::new("broker-one"), "awaiting").opens("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("reply"), "done").discharges("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("tell"), "done").discharges("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("sorry"), "done").discharges("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("error"), "done").discharges("reply"),
        );

    // Subscription admission: the snapshot `sub-delta` tell reaches the
    // watcher *before* the ack tell reaches the requester; the plain tell
    // ack activates the standing key; `sorry`/`error` refuse admission.
    let subscribe = ProtocolSpec::new("subscribe", &["start", "awaiting", "done"], &["done"])
        .declare(&["subscribe", "tell", "sorry", "error"])
        .transition(
            ProtoTransition::new("start", Trigger::new("subscribe"), "awaiting").opens("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::with_head("tell", "sub-delta"), "awaiting")
                .sub_effect(SubEffect::Delta),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("tell"), "done")
                .discharges("reply")
                .sub_effect(SubEffect::Activate),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("sorry"), "done").discharges("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("error"), "done").discharges("reply"),
        );

    let unsubscribe = ProtocolSpec::new("unsubscribe", &["start", "awaiting", "done"], &["done"])
        .declare(&["unsubscribe", "tell", "sorry", "error"])
        .transition(
            ProtoTransition::new("start", Trigger::new("unsubscribe"), "awaiting").opens("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("tell"), "done")
                .discharges("reply")
                .sub_effect(SubEffect::Close),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("sorry"), "done").discharges("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("error"), "done").discharges("reply"),
        );

    let ping = ProtocolSpec::new("ping", &["start", "awaiting", "done"], &["done"])
        .declare(&["ping", "reply", "sorry"])
        .transition(ProtoTransition::new("start", Trigger::new("ping"), "awaiting").opens("reply"))
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("reply"), "done").discharges("reply"),
        )
        .transition(
            ProtoTransition::new("awaiting", Trigger::new("sorry"), "done").discharges("reply"),
        );

    vec![mutation, ask, broker_one, subscribe, unsubscribe, ping]
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_kqml::{Performative, SExpr};

    fn msg(p: Performative) -> Message {
        Message::new(p)
    }

    #[test]
    fn standard_table_is_clean() {
        let report = analyze_protocol_table(&standard_protocols());
        assert!(report.is_clean(), "{}", report.render_human(None));
    }

    #[test]
    fn trigger_refinement_is_most_specific_wins() {
        let specs = standard_protocols();
        let sub = specs.iter().find(|s| s.name == "subscribe").unwrap();
        let delta = msg(Performative::Tell)
            .with_content(SExpr::list([SExpr::atom("sub-delta"), SExpr::atom("x")]));
        let ack = msg(Performative::Tell).with_content(SExpr::atom("sub-1"));
        let t = sub.step("awaiting", &delta).unwrap();
        assert_eq!(t.sub, Some(SubEffect::Delta));
        assert_eq!(t.to, "awaiting");
        let t = sub.step("awaiting", &ack).unwrap();
        assert_eq!(t.sub, Some(SubEffect::Activate));
        assert_eq!(t.to, "done");
    }

    #[test]
    fn undefined_and_unreachable_states() {
        let spec = ProtocolSpec::new("bad", &["start", "island", "done"], &["done"])
            .transition(ProtoTransition::new("start", Trigger::new("ping"), "nowhere"))
            .transition(ProtoTransition::new("island", Trigger::new("tell"), "done"));
        let report = analyze_protocol(&spec);
        let codes = report.codes();
        assert!(codes.contains(&Code::UndefinedProtocolState), "{codes:?}");
        assert!(codes.contains(&Code::UnreachableProtocolState), "{codes:?}");
    }

    #[test]
    fn nondeterminism_and_dead_end() {
        let spec = ProtocolSpec::new("bad", &["start", "stuck"], &[])
            .transition(ProtoTransition::new("start", Trigger::new("ask-one"), "stuck"))
            .transition(ProtoTransition::new("start", Trigger::new("ask-one"), "start"));
        let report = analyze_protocol(&spec);
        let codes = report.codes();
        assert!(codes.contains(&Code::NondeterministicTransition), "{codes:?}");
        assert!(codes.contains(&Code::DeadEndProtocolState), "{codes:?}");
    }

    #[test]
    fn undischargeable_obligation() {
        // `reply` opens, but the only continuation loops without a
        // discharging edge.
        let spec = ProtocolSpec::new("bad", &["start", "wait"], &["wait"])
            .transition(
                ProtoTransition::new("start", Trigger::new("ask-all"), "wait").opens("reply"),
            )
            .transition(ProtoTransition::new("wait", Trigger::new("tell"), "wait"));
        let report = analyze_protocol(&spec);
        assert!(report.codes().contains(&Code::UndischargeableObligation), "{:?}", report.codes());
    }

    #[test]
    fn unhandled_performative_is_warning() {
        let spec = ProtocolSpec::new("bad", &["start", "done"], &["done"])
            .declare(&["ping", "reply", "sorry"])
            .transition(ProtoTransition::new("start", Trigger::new("ping"), "done"));
        let report = analyze_protocol(&spec);
        let unhandled: Vec<_> =
            report.diagnostics.iter().filter(|d| d.code == Code::UnhandledPerformative).collect();
        assert_eq!(unhandled.len(), 2, "{}", report.render_human(None));
        assert!(unhandled.iter().all(|d| d.severity == crate::Severity::Warning));
        assert!(!report.has_errors());
    }
}
