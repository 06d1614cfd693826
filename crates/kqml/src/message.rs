//! KQML message model.

use crate::{SExpr, SExprError, Text};
use std::fmt;

/// A KQML performative — the speech-act verb of a message.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Performative {
    /// Announce a capability to a broker.
    Advertise,
    /// Withdraw a previous advertisement.
    Unadvertise,
    /// Replace a previous advertisement with updated content.
    Update,
    /// Ask for all answers.
    AskAll,
    /// Ask for a single answer.
    AskOne,
    /// Assert an answer or fact.
    Tell,
    /// Direct reply carrying results.
    Reply,
    /// "I understood you, but have no answer."
    Sorry,
    /// Protocol or processing error.
    Error,
    /// Open a standing query (monitoring / notification).
    Subscribe,
    /// Ask a broker to *forward* the embedded request to one matching agent.
    BrokerOne,
    /// Ask a broker to *recommend* all matching agents.
    RecruitAll,
    /// Ask a broker to *recommend* one matching agent.
    RecruitOne,
    /// Liveness probe ("broker ping", §4.2.2).
    Ping,
    /// Any other verb.
    Other(String),
}

impl Performative {
    pub fn as_str(&self) -> &str {
        match self {
            Performative::Advertise => "advertise",
            Performative::Unadvertise => "unadvertise",
            Performative::Update => "update",
            Performative::AskAll => "ask-all",
            Performative::AskOne => "ask-one",
            Performative::Tell => "tell",
            Performative::Reply => "reply",
            Performative::Sorry => "sorry",
            Performative::Error => "error",
            Performative::Subscribe => "subscribe",
            Performative::BrokerOne => "broker-one",
            Performative::RecruitAll => "recruit-all",
            Performative::RecruitOne => "recruit-one",
            Performative::Ping => "ping",
            Performative::Other(s) => s,
        }
    }
}

impl From<&str> for Performative {
    fn from(s: &str) -> Self {
        match s {
            "advertise" => Performative::Advertise,
            "unadvertise" => Performative::Unadvertise,
            "update" => Performative::Update,
            "ask-all" => Performative::AskAll,
            "ask-one" => Performative::AskOne,
            "tell" => Performative::Tell,
            "reply" => Performative::Reply,
            "sorry" => Performative::Sorry,
            "error" => Performative::Error,
            "subscribe" => Performative::Subscribe,
            "broker-one" => Performative::BrokerOne,
            "recruit-all" => Performative::RecruitAll,
            "recruit-one" => Performative::RecruitOne,
            "ping" => Performative::Ping,
            other => Performative::Other(other.to_string()),
        }
    }
}

impl fmt::Display for Performative {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Errors produced when converting text to a [`Message`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KqmlError {
    Syntax(SExprError),
    /// The message is not a `(performative :kw value ...)` list.
    Malformed(String),
}

impl fmt::Display for KqmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KqmlError::Syntax(e) => write!(f, "{e}"),
            KqmlError::Malformed(m) => write!(f, "malformed KQML message: {m}"),
        }
    }
}

impl std::error::Error for KqmlError {}

impl From<SExprError> for KqmlError {
    fn from(e: SExprError) -> Self {
        KqmlError::Syntax(e)
    }
}

/// A KQML message: a performative plus keyword parameters.
///
/// Parameter order is preserved for faithful round-tripping; lookup is by
/// keyword (without the leading `:`). The parameters are one exact-length
/// block: a message queued in a mailbox holds no room it does not use.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    pub performative: Performative,
    params: Box<[(Text, SExpr)]>,
}

impl Message {
    pub fn new(performative: Performative) -> Self {
        Message { performative, params: Box::default() }
    }

    /// Sets (or replaces) a keyword parameter. `key` omits the leading `:`.
    pub fn with(mut self, key: impl Into<Text>, value: SExpr) -> Self {
        self.set(key, value);
        self
    }

    pub fn set(&mut self, key: impl Into<Text>, value: SExpr) {
        let key = key.into();
        debug_assert!(!key.starts_with(':'), "param keys omit the leading ':'");
        if let Some(slot) = self.params.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            let mut params = std::mem::take(&mut self.params).into_vec();
            params.reserve_exact(1);
            params.push((key, value));
            self.params = params.into_boxed_slice();
        }
    }

    /// Takes out the parameters named in `keys`: what each held, in `keys`
    /// order. The rest keep their order, in a block rebuilt once, and
    /// only when something was taken.
    pub fn take<const N: usize>(&mut self, keys: [&str; N]) -> [Option<SExpr>; N] {
        let mut taken = std::array::from_fn(|_| None);
        if self.params.iter().any(|(k, _)| keys.contains(&k.as_str())) {
            let mut kept = Vec::with_capacity(self.params.len());
            for (k, v) in std::mem::take(&mut self.params).into_vec() {
                match keys.iter().position(|key| *key == k.as_str()) {
                    Some(i) => taken[i] = Some(v),
                    None => kept.push((k, v)),
                }
            }
            self.params = kept.into_boxed_slice();
        }
        taken
    }

    pub fn get(&self, key: &str) -> Option<&SExpr> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Text of a parameter that is an atom or string.
    pub fn get_text(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(SExpr::as_text)
    }

    pub fn params(&self) -> impl Iterator<Item = (&str, &SExpr)> {
        self.params.iter().map(|(k, v)| (k.as_str(), v))
    }

    // Conventional accessors for the reserved KQML parameter names.

    pub fn sender(&self) -> Option<&str> {
        self.get_text("sender")
    }

    pub fn receiver(&self) -> Option<&str> {
        self.get_text("receiver")
    }

    pub fn content(&self) -> Option<&SExpr> {
        self.get("content")
    }

    /// Takes the message apart for its content, which moves out whole.
    pub fn into_content(self) -> Option<SExpr> {
        self.params.into_vec().into_iter().find(|(k, _)| k == "content").map(|(_, v)| v)
    }

    pub fn language(&self) -> Option<&str> {
        self.get_text("language")
    }

    pub fn ontology(&self) -> Option<&str> {
        self.get_text("ontology")
    }

    pub fn reply_with(&self) -> Option<&str> {
        self.get_text("reply-with")
    }

    pub fn in_reply_to(&self) -> Option<&str> {
        self.get_text("in-reply-to")
    }

    pub fn with_sender(self, s: impl Into<Text>) -> Self {
        self.with("sender", SExpr::atom(s))
    }

    pub fn with_receiver(self, s: impl Into<Text>) -> Self {
        self.with("receiver", SExpr::atom(s))
    }

    pub fn with_content(self, c: SExpr) -> Self {
        self.with("content", c)
    }

    pub fn with_language(self, s: impl Into<Text>) -> Self {
        self.with("language", SExpr::atom(s))
    }

    pub fn with_ontology(self, s: impl Into<Text>) -> Self {
        self.with("ontology", SExpr::atom(s))
    }

    pub fn with_reply_with(self, s: impl Into<Text>) -> Self {
        self.with("reply-with", SExpr::atom(s))
    }

    pub fn with_in_reply_to(self, s: impl Into<Text>) -> Self {
        self.with("in-reply-to", SExpr::atom(s))
    }

    /// Encoded trace context (`:x-trace`), when one rode along. The
    /// value format is defined by `infosleuth-obs`; this accessor only
    /// moves the opaque string.
    pub fn trace(&self) -> Option<&str> {
        self.get_text("x-trace")
    }

    /// Attaches an encoded trace context as `:x-trace`.
    pub fn with_trace(self, ctx: impl Into<String>) -> Self {
        self.with("x-trace", SExpr::string(ctx))
    }

    /// Builds a reply skeleton: `reply` performative, sender/receiver
    /// swapped, `in-reply-to` copied from this message's `reply-with`.
    pub fn reply_skeleton(&self, performative: Performative) -> Message {
        let mut m = Message::new(performative);
        if let Some(r) = self.receiver() {
            m.set("sender", SExpr::atom(r));
        }
        if let Some(s) = self.sender() {
            m.set("receiver", SExpr::atom(s));
        }
        if let Some(rw) = self.reply_with() {
            m.set("in-reply-to", SExpr::atom(rw));
        }
        m
    }

    /// The message as an s-expression.
    pub fn to_sexpr(&self) -> SExpr {
        let mut items = Vec::with_capacity(1 + 2 * self.params.len());
        items.push(SExpr::Atom(Text::from(self.performative.as_str())));
        for (k, v) in self.params.iter() {
            items.push(SExpr::Atom(Text::from(format!(":{k}"))));
            items.push(v.clone());
        }
        SExpr::List(items.into_boxed_slice())
    }

    /// Parses a message from its textual s-expression form.
    pub fn parse(src: &str) -> Result<Message, KqmlError> {
        Self::from_sexpr(SExpr::parse(src)?)
    }

    /// Takes `e` apart into a message: values move out of the tree, and
    /// a keyword becomes its vocabulary word when it has one.
    pub fn from_sexpr(e: SExpr) -> Result<Message, KqmlError> {
        let SExpr::List(items) = e else {
            return Err(KqmlError::Malformed("message must be a list".into()));
        };
        let mut it = items.into_vec().into_iter();
        let Some(SExpr::Atom(head)) = it.next() else {
            return Err(KqmlError::Malformed("missing performative".into()));
        };
        let mut msg = Message::new(Performative::from(head.as_str()));
        while let Some(kw) = it.next() {
            let key = match kw {
                SExpr::Atom(s) if s.starts_with(':') => s,
                other => {
                    return Err(KqmlError::Malformed(format!("expected keyword, got {other}")))
                }
            };
            let value = it
                .next()
                .ok_or_else(|| KqmlError::Malformed(format!("keyword {key} missing value")))?;
            msg.set(&key[1..], value);
        }
        Ok(msg)
    }

    /// Approximate wire size in bytes: what
    /// [`to_sexpr`](Self::to_sexpr)`().wire_size()` would return, summed
    /// over the parameters in place.
    pub fn wire_size(&self) -> usize {
        let params: usize = self.params.iter().map(|(k, v)| k.len() + 2 + v.wire_size()).sum();
        2 + self.performative.as_str().len() + 1 + params
    }
}

/// Prints exactly what [`Message::to_sexpr`] would, without building it.
impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        f.write_str(self.performative.as_str())?;
        for (k, v) in self.params.iter() {
            f.write_str(" :")?;
            f.write_str(k)?;
            f.write_str(" ")?;
            v.fmt(f)?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Message {
        Message::new(Performative::AskAll)
            .with_sender("mhn-user-agent")
            .with_receiver("broker-1")
            .with_language("SQL")
            .with_ontology("paper-classes")
            .with_reply_with("q1")
            .with_content(SExpr::string("select * from C2"))
    }

    #[test]
    fn round_trips_through_text() {
        let m = sample();
        let text = m.to_string();
        let back = Message::parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.sender(), Some("mhn-user-agent"));
        assert_eq!(back.content(), Some(&SExpr::string("select * from C2")));
    }

    #[test]
    fn performative_round_trips() {
        for p in [
            "advertise",
            "unadvertise",
            "update",
            "ask-all",
            "ask-one",
            "tell",
            "reply",
            "sorry",
            "error",
            "subscribe",
            "broker-one",
            "recruit-all",
            "recruit-one",
            "ping",
            "register",
        ] {
            let perf = Performative::from(p);
            assert_eq!(perf.as_str(), p);
        }
    }

    #[test]
    fn parameters_with_spaces_round_trip() {
        // `SQL 2.0` contains a space and must survive the wire as a
        // quoted string, not a broken atom.
        let m = Message::new(Performative::AskOne)
            .with_language("SQL 2.0")
            .with_ontology("my ontology");
        let back = Message::parse(&m.to_string()).unwrap();
        assert_eq!(back.language(), Some("SQL 2.0"));
        assert_eq!(back.ontology(), Some("my ontology"));
    }

    #[test]
    fn reply_skeleton_swaps_roles() {
        let m = sample();
        let r = m.reply_skeleton(Performative::Reply);
        assert_eq!(r.sender(), Some("broker-1"));
        assert_eq!(r.receiver(), Some("mhn-user-agent"));
        assert_eq!(r.in_reply_to(), Some("q1"));
        assert_eq!(r.performative, Performative::Reply);
    }

    #[test]
    fn set_replaces_existing_param() {
        let mut m = sample();
        m.set("language", SExpr::atom("LDL"));
        assert_eq!(m.language(), Some("LDL"));
        assert_eq!(m.params().filter(|(k, _)| *k == "language").count(), 1);
    }

    #[test]
    fn malformed_messages_rejected() {
        assert!(Message::parse("ask-all").is_err()); // not a list
        assert!(Message::parse("(ask-all :sender)").is_err()); // dangling kw
        assert!(Message::parse("((x) :a b)").is_err()); // list head
        assert!(Message::parse("(tell a b)").is_err()); // non-keyword param
    }

    #[test]
    fn structured_content() {
        let m = Message::new(Performative::Advertise).with_content(SExpr::list([
            SExpr::atom("capabilities"),
            SExpr::atom("relational-query-processing"),
        ]));
        let back = Message::parse(&m.to_string()).unwrap();
        assert_eq!(back.content().unwrap().as_list().unwrap().len(), 2);
    }

    #[test]
    fn trace_param_round_trips() {
        let m = sample().with_trace("00000000000000ab-00000000000000cd");
        let back = Message::parse(&m.to_string()).unwrap();
        assert_eq!(back.trace(), Some("00000000000000ab-00000000000000cd"));
        assert!(sample().trace().is_none());
        // reply_skeleton deliberately does not copy the trace: replies
        // to untraced requesters stay untraced.
        assert!(m.reply_skeleton(Performative::Reply).trace().is_none());
    }

    #[test]
    fn take_removes_the_named_params_and_keeps_the_rest_in_order() {
        let mut m = sample();
        let [receiver, missing, sender] = m.take(["receiver", "x-trace", "sender"]);
        assert_eq!(sender, Some(SExpr::atom("mhn-user-agent")));
        assert_eq!(receiver, Some(SExpr::atom("broker-1")));
        assert_eq!(missing, None);
        let keys: Vec<&str> = m.params().map(|(k, _)| k).collect();
        assert_eq!(keys, ["language", "ontology", "reply-with", "content"]);
        assert_eq!(m.take(["sender"]), [None]);
    }

    #[test]
    fn wire_size_counts_params() {
        assert!(sample().wire_size() > Message::new(Performative::AskAll).wire_size());
    }
}
