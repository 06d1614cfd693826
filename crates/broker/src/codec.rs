//! SExpr encodings for the payloads that cross the agent bus: everything a
//! broker sends or receives is a real KQML message whose `:content` is one
//! of these forms.

use crate::digest::CapabilityDigest;
use crate::matchmaker::{MatchResult, MatchRow};
use crate::policy::{FollowOption, SearchPolicy};
use infosleuth_constraint::{parse_conjunction, Conjunction};
use infosleuth_kqml::{Block, BlockWriter, Digits, SExpr, SExprError, Text, Token, Tokens};
use infosleuth_ontology::{
    Advertisement, AgentLocation, AgentProperties, AgentType, BrokerAdvertisement,
    BrokerSpecialization, Capability, ConversationType, Fragment, OntologyContent, SemanticInfo,
    ServiceQuery, SortedSet, SyntacticInfo,
};
use std::borrow::Cow;
use std::fmt;
use std::iter;
use std::sync::Arc;

/// Error decoding a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err(m: impl Into<String>) -> CodecError {
    CodecError(m.into())
}

// ---------------------------------------------------------------------
// Small helpers over the section-list format `(head item item ...)`.
// ---------------------------------------------------------------------

/// `(head item ...)` as one exact-length list. Every head is a word of the
/// KQML vocabulary, so it is shared, not allocated (the `vocabulary` test
/// of `infosleuth-core` holds every encoder here to that).
fn section(head: &str, items: impl IntoIterator<Item = SExpr>) -> SExpr {
    SExpr::list(iter::once(SExpr::atom(head)).chain(items))
}

/// A section of free text: every item quoted.
fn texts<T: Into<String>>(head: &str, it: impl IntoIterator<Item = T>) -> SExpr {
    section(head, it.into_iter().map(SExpr::string))
}

/// A section of names: each item bare where it reads back as one atom and
/// quoted where it would not (`Resource Agent 5`, `a(b)`).
fn atoms<T: Into<Text>>(head: &str, it: impl IntoIterator<Item = T>) -> SExpr {
    section(head, it.into_iter().map(SExpr::atom))
}

/// The items of a `(name item ...)` payload: every decoder's entry check,
/// so a payload run through the wrong decoder is refused in one wording.
fn body_of<'a>(e: &'a SExpr, name: &str) -> Result<&'a [SExpr], CodecError> {
    let list = e.as_list().ok_or_else(|| err(format!("{name} must be a list")))?;
    if list.first().and_then(SExpr::as_atom) != Some(name) {
        return Err(err(format!("expected ({name} ...)")));
    }
    Ok(&list[1..])
}

/// Finds the first sub-list starting with `head`.
fn find<'a>(items: &'a [SExpr], head: &'a str) -> Option<&'a [SExpr]> {
    find_all(items, head).next()
}

/// All sub-lists starting with `head`.
fn find_all<'a>(items: &'a [SExpr], head: &'a str) -> impl Iterator<Item = &'a [SExpr]> + 'a {
    items.iter().filter_map(move |e| {
        let list = e.as_list()?;
        if list.first()?.as_atom()? == head {
            Some(&list[1..])
        } else {
            None
        }
    })
}

/// The text of every item that has one, in an exact-length list: a decoded
/// list weighs what a built or cloned one does.
fn text_items(items: &[SExpr]) -> Vec<String> {
    let mut out = Vec::with_capacity(items.len());
    out.extend(items.iter().filter_map(|e| e.as_text().map(str::to_string)));
    out.shrink_to_fit();
    out
}

/// An item's text as a name field holds it: an atom's own `Text`, or a
/// quoted string's text in one — never by way of a `String`, so a decoded
/// name weighs what a built or cloned one does.
fn text_of(e: &SExpr) -> Option<Text> {
    match e {
        SExpr::Atom(text) => Some(text.clone()),
        SExpr::Str(s) => Some(Text::from(&**s)),
        SExpr::List(_) | SExpr::Block(..) => None,
    }
}

/// The names of every item that has one.
fn name_items<C: FromIterator<Text>>(items: &[SExpr]) -> C {
    items.iter().filter_map(text_of).collect()
}

/// The text of the first item of the first `(head ...)` section.
fn one_str<'a>(items: &'a [SExpr], head: &'a str) -> Option<&'a str> {
    find(items, head)?.first()?.as_text()
}

fn one_text(items: &[SExpr], head: &str) -> Option<String> {
    one_str(items, head).map(str::to_string)
}

fn one_name(items: &[SExpr], head: &str) -> Option<Text> {
    find(items, head)?.first().and_then(text_of)
}

fn one_f64(items: &[SExpr], head: &str) -> Option<f64> {
    one_str(items, head).and_then(|t| t.parse().ok())
}

fn one_bool(items: &[SExpr], head: &str) -> Option<bool> {
    one_str(items, head).and_then(|t| t.parse().ok())
}

fn constraints_to_sexpr(c: &Conjunction) -> SExpr {
    section("constraints", [SExpr::string(c.to_text())])
}

fn constraints_from(items: &[SExpr]) -> Result<Conjunction, CodecError> {
    match one_str(items, "constraints") {
        None => Ok(Conjunction::always()),
        Some(text) => parse_conjunction(text).map_err(|e| err(format!("bad constraints: {e}"))),
    }
}

// ---------------------------------------------------------------------
// Advertisement
// ---------------------------------------------------------------------

fn fragment_to_sexpr(class: &str, frag: &Fragment) -> SExpr {
    match frag {
        Fragment::Vertical { slots } => {
            section("vertical", iter::once(SExpr::atom(class)).chain(slots.iter().map(SExpr::atom)))
        }
        Fragment::Horizontal { constraint } => {
            section("horizontal", [SExpr::atom(class), SExpr::string(constraint.to_text())])
        }
    }
}

fn content_to_sexpr(c: &OntologyContent) -> SExpr {
    let fragments = (!c.fragments.is_empty()).then(|| {
        section("fragments", c.fragments.iter().map(|(class, f)| fragment_to_sexpr(class, f)))
    });
    let items = [
        section("ontology", [SExpr::atom(&c.ontology)]),
        atoms("classes", &c.classes),
        atoms("slots", &c.slots),
        atoms("keys", &c.keys),
        constraints_to_sexpr(&c.constraints),
    ];
    section("content", items.into_iter().chain(fragments))
}

fn content_from(items: &[SExpr]) -> Result<OntologyContent, CodecError> {
    let ontology = one_name(items, "ontology").ok_or_else(|| err("content missing ontology"))?;
    let mut c = OntologyContent::new(ontology);
    if let Some(classes) = find(items, "classes") {
        c.classes = name_items(classes);
    }
    if let Some(slots) = find(items, "slots") {
        c.slots = name_items(slots);
    }
    if let Some(keys) = find(items, "keys") {
        c.keys = name_items(keys);
    }
    c.constraints = constraints_from(items)?;
    if let Some(frags) = find(items, "fragments") {
        for f in frags {
            let list = f.as_list().ok_or_else(|| err("fragment must be a list"))?;
            let kind = list.first().and_then(SExpr::as_atom).ok_or_else(|| err("fragment kind"))?;
            let class = list.get(1).and_then(text_of).ok_or_else(|| err("fragment class"))?;
            let frag = match kind {
                "vertical" => Fragment::Vertical { slots: text_items(&list[2..]) },
                "horizontal" => {
                    let text = list
                        .get(2)
                        .and_then(SExpr::as_text)
                        .ok_or_else(|| err("horizontal fragment constraint"))?;
                    let constraint = parse_conjunction(text)
                        .map_err(|e| err(format!("bad fragment constraint: {e}")))?;
                    Fragment::Horizontal { constraint }
                }
                other => return Err(err(format!("unknown fragment kind '{other}'"))),
            };
            c = c.with_fragment(class, frag);
        }
    }
    Ok(c)
}

/// Encodes an advertisement as `(advertisement ...)`.
pub fn advertisement_to_sexpr(ad: &Advertisement) -> SExpr {
    let restrictions = &ad.semantic.capability_restrictions;
    let items = [
        section("name", [SExpr::atom(&ad.location.name)]),
        section("address", [SExpr::string(&ad.location.address)]),
        section("type", [SExpr::atom(ad.location.agent_type.to_string())]),
        texts("query-languages", &ad.syntactic.query_languages),
        texts("comm-languages", &ad.syntactic.communication_languages),
        atoms("conversations", ad.semantic.conversations.iter().map(ConversationType::as_str)),
        atoms("capabilities", ad.semantic.capabilities.iter().map(|c| c.as_str())),
    ];
    let restrictions =
        (!restrictions.is_empty()).then(|| texts("capability-restrictions", restrictions));
    let props = &ad.properties;
    let props = [
        Some(section("mobile", [SExpr::atom(props.mobile.to_string())])),
        Some(section("cloneable", [SExpr::atom(props.cloneable.to_string())])),
        props
            .estimated_response_time
            .map(|t| section("response-time", [SExpr::atom(t.to_string())])),
        props.throughput.map(|t| section("throughput", [SExpr::atom(t.to_string())])),
    ];
    let items = items
        .into_iter()
        .chain(restrictions)
        .chain(ad.semantic.content.iter().map(content_to_sexpr))
        .chain([section("properties", props.into_iter().flatten())]);
    section("advertisement", items)
}

/// Decodes an `(advertisement ...)` payload.
pub fn advertisement_from_sexpr(e: &SExpr) -> Result<Advertisement, CodecError> {
    let items = body_of(e, "advertisement")?;
    let name = one_name(items, "name").ok_or_else(|| err("advertisement missing name"))?;
    let address = one_name(items, "address").ok_or_else(|| err("advertisement missing address"))?;
    let agent_type: AgentType = one_str(items, "type")
        .ok_or_else(|| err("advertisement missing type"))?
        .parse()
        .expect("AgentType parsing is infallible"); // lint: allow-unwrap
    let mut ad = Advertisement::new(AgentLocation::new(name, address, agent_type));
    ad.syntactic = SyntacticInfo {
        query_languages: find(items, "query-languages").map(name_items).unwrap_or_default(),
        communication_languages: find(items, "comm-languages").map(name_items).unwrap_or_default(),
    };
    let mut sem = SemanticInfo::default();
    if let Some(convs) = find(items, "conversations") {
        sem.conversations =
            convs.iter().filter_map(SExpr::as_text).map(parse_conversation).collect();
    }
    if let Some(caps) = find(items, "capabilities") {
        sem.capabilities = caps.iter().filter_map(text_of).map(Capability).collect();
    }
    if let Some(rs) = find(items, "capability-restrictions") {
        sem.capability_restrictions = text_items(rs);
    }
    for c in find_all(items, "content") {
        sem = sem.with_content(content_from(c)?);
    }
    ad.semantic = sem;
    if let Some(props) = find(items, "properties") {
        ad.properties = AgentProperties {
            mobile: one_bool(props, "mobile").unwrap_or(false),
            cloneable: one_bool(props, "cloneable").unwrap_or(false),
            estimated_response_time: one_f64(props, "response-time"),
            throughput: one_f64(props, "throughput"),
        };
    }
    Ok(ad)
}

fn parse_conversation(s: &str) -> ConversationType {
    match s {
        "ask-all" => ConversationType::AskAll,
        "ask-one" => ConversationType::AskOne,
        "subscribe" => ConversationType::Subscribe,
        "update" => ConversationType::Update,
        "tell" => ConversationType::Tell,
        "delegation" => ConversationType::Delegation,
        "forwarding" => ConversationType::Forwarding,
        "emergent" => ConversationType::Emergent,
        other => ConversationType::Other(other.to_string()),
    }
}

// ---------------------------------------------------------------------
// Broker advertisement
// ---------------------------------------------------------------------

/// Encodes a broker advertisement as `(broker-advertisement ...)`.
pub fn broker_advertisement_to_sexpr(ad: &BrokerAdvertisement) -> SExpr {
    broker_hello_to_sexpr(ad, None)
}

/// Decodes a `(broker-advertisement ...)` payload.
pub fn broker_advertisement_from_sexpr(e: &SExpr) -> Result<BrokerAdvertisement, CodecError> {
    let items = body_of(e, "broker-advertisement")?;
    let base_expr = items
        .iter()
        .find(|e| e.head() == Some("advertisement"))
        .ok_or_else(|| err("broker-advertisement missing base advertisement"))?;
    let base = advertisement_from_sexpr(base_expr)?;
    let mut ad = BrokerAdvertisement::new(base);
    if let Some(cons) = find(items, "consortia") {
        ad.consortia = name_items(cons);
    }
    if let Some(spec) = find(items, "specialization") {
        let mut s = BrokerSpecialization::default();
        if let Some(tys) = find(spec, "agent-types") {
            s.agent_types = tys
                .iter()
                .filter_map(SExpr::as_text)
                .map(|t| t.parse().expect("AgentType parsing is infallible")) // lint: allow-unwrap
                .collect();
        }
        if let Some(os) = find(spec, "ontologies") {
            s.ontologies = name_items(os);
        }
        if let Some(rs) = find(spec, "restrictions") {
            s.restrictions = text_items(rs);
        }
        ad.specialization = s;
    }
    Ok(ad)
}

// ---------------------------------------------------------------------
// Routing digest
// ---------------------------------------------------------------------

fn bits_to_hex(bits: &[u64]) -> String {
    bits.iter().map(|w| format!("{w:016x}")).collect()
}

fn hex_to_bits(s: &str) -> Result<Vec<u64>, CodecError> {
    if !s.is_ascii() || s.len() % 16 != 0 {
        return Err(err("digest bits must be whole hex words"));
    }
    (0..s.len())
        .step_by(16)
        .map(|i| u64::from_str_radix(&s[i..i + 16], 16).map_err(|e| err(format!("bad bits: {e}"))))
        .collect()
}

/// Encodes a routing digest as a KQML fact:
/// `(digest (broker b) (epoch N) (ads N) (k K) (bits "hex")
/// (hulls (hull "slot" lo hi) ...))`.
pub fn digest_to_sexpr(d: &CapabilityDigest) -> SExpr {
    let items = [
        section("broker", [SExpr::atom(&d.broker)]),
        section("epoch", [SExpr::atom(d.epoch.to_string())]),
        section("ads", [SExpr::atom(d.ads.to_string())]),
        section("k", [SExpr::atom(d.k.to_string())]),
        section("bits", [SExpr::string(bits_to_hex(&d.bits))]),
    ];
    let hulls = (!d.slot_hulls.is_empty()).then(|| {
        section(
            "hulls",
            d.slot_hulls.iter().map(|(slot, (lo, hi))| {
                section(
                    "hull",
                    [
                        SExpr::string(slot.as_str()),
                        SExpr::atom(lo.to_string()),
                        SExpr::atom(hi.to_string()),
                    ],
                )
            }),
        )
    });
    section("digest", items.into_iter().chain(hulls))
}

/// Bloom probe counts the decoder accepts. Brokers emit 4; the ceiling
/// bounds the loop a peer can make every `can_match` probe run.
const DIGEST_K_RANGE: std::ops::RangeInclusive<u32> = 1..=16;

/// Decodes a `(digest ...)` payload. A digest comes from a peer and is
/// then trusted on every forwarded search, so one that could stall a
/// probe (`k` out of range) or answer "no match" where the peer has one
/// (advertisements but no filter bits; a hull that is inverted or NaN)
/// is refused here.
pub fn digest_from_sexpr(e: &SExpr) -> Result<CapabilityDigest, CodecError> {
    digest_from(body_of(e, "digest")?)
}

fn digest_from(items: &[SExpr]) -> Result<CapabilityDigest, CodecError> {
    let mut d = CapabilityDigest::empty(
        one_text(items, "broker").ok_or_else(|| err("digest missing broker"))?,
    );
    d.epoch = one_text(items, "epoch")
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err("digest missing epoch"))?;
    d.ads = one_text(items, "ads").and_then(|t| t.parse().ok()).ok_or_else(|| err("digest ads"))?;
    d.k = one_text(items, "k")
        .and_then(|t| t.parse().ok())
        .filter(|k| DIGEST_K_RANGE.contains(k))
        .ok_or_else(|| err(format!("digest k must be in {DIGEST_K_RANGE:?}")))?;
    d.bits = hex_to_bits(one_str(items, "bits").unwrap_or_default())?;
    if d.ads > 0 && d.bits.is_empty() {
        return Err(err("digest summarizes advertisements but carries no filter bits"));
    }
    if let Some(hulls) = find(items, "hulls") {
        for h in find_all(hulls, "hull") {
            let slot = h.first().and_then(SExpr::as_text).ok_or_else(|| err("hull slot"))?;
            let lo: f64 = h
                .get(1)
                .and_then(SExpr::as_text)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err("hull lo"))?;
            let hi: f64 = h
                .get(2)
                .and_then(SExpr::as_text)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err("hull hi"))?;
            // Half-open hulls are legitimate (`age >= 40`); NaN and
            // `lo > hi` overlap no window and would prune every query.
            if lo.is_nan() || hi.is_nan() || lo > hi {
                return Err(err(format!("hull on '{slot}' is not an interval: {lo}..{hi}")));
            }
            d.slot_hulls.insert(slot.to_string(), (lo, hi));
        }
    }
    Ok(d)
}

/// Extracts a digest embedded as an extra section of a larger payload —
/// a `(broker-advertisement ...)` hello or a `(matches ...)` reply. Both
/// decoders ignore the section, so old peers interoperate unchanged.
pub fn embedded_digest(e: &SExpr) -> Option<CapabilityDigest> {
    digest_from(find(e.as_list()?.get(1..)?, "digest")?).ok()
}

/// Encodes a broker hello: the broker advertisement with the sender's
/// current routing digest piggybacked as an extra section.
pub fn broker_hello_to_sexpr(ad: &BrokerAdvertisement, digest: Option<&CapabilityDigest>) -> SExpr {
    let spec = &ad.specialization;
    let items = [
        advertisement_to_sexpr(&ad.base),
        atoms("consortia", &ad.consortia),
        section(
            "specialization",
            [
                atoms("agent-types", spec.agent_types.iter().map(|t| t.to_string())),
                atoms("ontologies", &spec.ontologies),
                texts("restrictions", &spec.restrictions),
            ],
        ),
    ];
    section("broker-advertisement", items.into_iter().chain(digest.map(digest_to_sexpr)))
}

// ---------------------------------------------------------------------
// Service query + search request
// ---------------------------------------------------------------------

/// Encodes a service query as `(service-query ...)`.
pub fn service_query_to_sexpr(q: &ServiceQuery) -> SExpr {
    let one = |head: &str, value: String| section(head, [SExpr::atom(value)]);
    let items = [
        q.agent_type.as_ref().map(|t| one("type", t.to_string())),
        q.agent_name.as_ref().map(|n| section("name", [SExpr::atom(n)])),
        q.query_language.as_ref().map(|l| texts("query-language", [l])),
        q.communication_language.as_ref().map(|l| texts("comm-language", [l])),
        (!q.conversations.is_empty())
            .then(|| atoms("conversations", q.conversations.iter().map(ConversationType::as_str))),
        (!q.capabilities.is_empty())
            .then(|| atoms("capabilities", q.capabilities.iter().map(|c| c.as_str()))),
        q.ontology.as_ref().map(|o| section("ontology", [SExpr::atom(o)])),
        (!q.classes.is_empty()).then(|| atoms("classes", &q.classes)),
        (!q.slots.is_empty()).then(|| atoms("slots", &q.slots)),
        (!q.constraints.is_trivial()).then(|| constraints_to_sexpr(&q.constraints)),
        q.max_response_time.map(|t| one("max-response-time", t.to_string())),
        q.require_mobile.map(|m| one("require-mobile", m.to_string())),
        q.require_cloneable.map(|c| one("require-cloneable", c.to_string())),
        q.max_matches.map(|n| one("max-matches", n.to_string())),
    ];
    section("service-query", items.into_iter().flatten())
}

/// Decodes a `(service-query ...)` payload.
pub fn service_query_from_sexpr(e: &SExpr) -> Result<ServiceQuery, CodecError> {
    let items = body_of(e, "service-query")?;
    let mut q = ServiceQuery::any();
    if let Some(t) = one_str(items, "type") {
        // Infallible: unknown type strings become AgentType::Other.
        q.agent_type = t.parse().ok();
    }
    q.agent_name = one_name(items, "name");
    q.query_language = one_name(items, "query-language");
    q.communication_language = one_name(items, "comm-language");
    if let Some(convs) = find(items, "conversations") {
        q.conversations = convs.iter().filter_map(SExpr::as_text).map(parse_conversation).collect();
    }
    if let Some(caps) = find(items, "capabilities") {
        q.capabilities = caps.iter().filter_map(text_of).map(Capability).collect();
    }
    q.ontology = one_name(items, "ontology");
    if let Some(cs) = find(items, "classes") {
        q.classes = name_items(cs);
    }
    if let Some(ss) = find(items, "slots") {
        q.slots = name_items(ss);
    }
    q.constraints = constraints_from(items)?;
    q.max_response_time = one_f64(items, "max-response-time");
    q.require_mobile = one_bool(items, "require-mobile");
    q.require_cloneable = one_bool(items, "require-cloneable");
    q.max_matches = one_text(items, "max-matches").and_then(|t| t.parse().ok());
    Ok(q)
}

/// A broker search request: the query, the §4.3 policy, and the visited
/// list ("we keep a list of brokers that a request has been forwarded to
/// and pass this list along with the message").
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    pub query: ServiceQuery,
    pub policy: SearchPolicy,
    pub visited: Vec<String>,
    /// The epoch of the *receiver's* digest the sender consulted before
    /// forwarding, for staleness detection. `None` when the sender holds
    /// no digest (or predates the digest protocol).
    pub digest_epoch: Option<u64>,
}

/// Encodes a search request as `(broker-search ...)`.
pub fn search_request_to_sexpr(r: &SearchRequest) -> SExpr {
    let items = [
        service_query_to_sexpr(&r.query),
        section(
            "policy",
            [
                section("hop-count", [SExpr::atom(r.policy.hop_count.to_string())]),
                section("follow", [SExpr::atom(r.policy.follow.as_str())]),
            ],
        ),
        atoms("visited", &r.visited),
    ];
    let epoch = r.digest_epoch.map(|e| section("digest-epoch", [SExpr::atom(e.to_string())]));
    section("broker-search", items.into_iter().chain(epoch))
}

/// Decodes a `(broker-search ...)` payload.
pub fn search_request_from_sexpr(e: &SExpr) -> Result<SearchRequest, CodecError> {
    let items = body_of(e, "broker-search")?;
    let query_expr = items
        .iter()
        .find(|e| e.head() == Some("service-query"))
        .ok_or_else(|| err("broker-search missing service-query"))?;
    let query = service_query_from_sexpr(query_expr)?;
    let policy = match find(items, "policy") {
        None => SearchPolicy::default_for(query.max_matches),
        Some(p) => SearchPolicy {
            hop_count: one_text(p, "hop-count")
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err("policy missing hop-count"))?,
            follow: one_text(p, "follow")
                .as_deref()
                .and_then(FollowOption::parse)
                .ok_or_else(|| err("policy missing follow option"))?,
        },
    };
    let visited = find(items, "visited").map(text_items).unwrap_or_default();
    let digest_epoch = one_text(items, "digest-epoch").and_then(|t| t.parse().ok());
    Ok(SearchRequest { query, policy, visited, digest_epoch })
}

// ---------------------------------------------------------------------
// Match results
// ---------------------------------------------------------------------

/// A result row a reply or a notification carries, and what a broker
/// merges, diffs and orders rows by: the broker's [`MatchRow`], or a
/// decoded [`MatchResult`].
pub trait ResultRow: Clone + PartialEq {
    fn name(&self) -> &str;
    fn score(&self) -> u32;
    /// The row's `(match ...)` item.
    fn item(&self) -> SExpr;
}

/// The held row's shared block.
impl ResultRow for MatchRow {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&self) -> u32 {
        self.score
    }

    fn item(&self) -> SExpr {
        SExpr::Block(Arc::clone(&self.block), self.score)
    }
}

/// A block of its own, rendered from the decoded fields.
impl ResultRow for MatchResult {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&self) -> u32 {
        self.score
    }

    fn item(&self) -> SExpr {
        SExpr::Block(Arc::new(result_block(self)), self.score)
    }
}

/// Writes `(head item ...)` when there are items, and nothing otherwise.
fn write_names<'a>(w: &mut BlockWriter, head: &str, items: impl IntoIterator<Item = &'a str>) {
    let mut items = items.into_iter().peekable();
    if items.peek().is_some() {
        w.open().atom(head);
        for item in items {
            w.atom(item);
        }
        w.close();
    }
}

/// One match row, its score left open:
/// `(match (name n) (address "a") (score _) (response-time t) (ontology o)
/// (classes ...) (slots ...) (keys ...))`, the last five only when set.
fn write_row<'a>(
    name: &str,
    address: &str,
    response_time: Option<f64>,
    ontology: Option<&str>,
    [classes, slots, keys]: [impl IntoIterator<Item = &'a str>; 3],
) -> Block {
    // Room for the sections of a row of a few names: one growth at most.
    let mut w = BlockWriter::with_capacity(128 + name.len() + address.len());
    w.open().atom("match");
    w.open().atom("name").atom(name).close();
    w.open().atom("address").string(address).close();
    w.open().atom("score").hole().close();
    if let Some(t) = response_time {
        w.open().atom("response-time").atom(&t.to_string()).close();
    }
    if let Some(o) = ontology {
        w.open().atom("ontology").atom(o).close();
    }
    write_names(&mut w, "classes", classes);
    write_names(&mut w, "slots", slots);
    write_names(&mut w, "keys", keys);
    w.close();
    w.finish()
}

/// The block of `ad`'s result row naming content record `content`: what
/// [`Posted::row`](crate::repository::Posted::row) renders once per
/// advertisement version and record.
pub(crate) fn row_block(ad: &Advertisement, content: Option<&OntologyContent>) -> Block {
    let names = |f: fn(&OntologyContent) -> &SortedSet<Text>| {
        content.into_iter().flat_map(f).map(Text::as_str)
    };
    write_row(
        &ad.location.name,
        &ad.location.address,
        ad.properties.estimated_response_time,
        content.map(|c| c.ontology.as_str()),
        [names(|c| &c.classes), names(|c| &c.slots), names(|c| &c.keys)],
    )
}

/// The block of a decoded row.
fn result_block(m: &MatchResult) -> Block {
    fn names(list: &[String]) -> impl Iterator<Item = &str> {
        list.iter().map(String::as_str)
    }
    write_row(
        &m.name,
        &m.address,
        m.estimated_response_time,
        m.ontology.as_deref(),
        [names(&m.classes), names(&m.slots), names(&m.keys)],
    )
}

/// Encodes result rows as `(matches (match ...) ...)`.
pub fn matches_to_sexpr<R: ResultRow>(matches: &[R]) -> SExpr {
    matches_reply_to_sexpr(matches, None)
}

/// Encodes a matches reply, optionally piggybacking the responder's
/// fresh digest (stale-digest repair: the querier forwarded with an old
/// epoch, so the responder ships its current summary along).
pub fn matches_reply_to_sexpr<R: ResultRow>(
    matches: &[R],
    digest: Option<&CapabilityDigest>,
) -> SExpr {
    matches_reply(matches.iter().map(ResultRow::item), digest)
}

/// A matches reply of row items as they are: held blocks, or rows a peer
/// sent, passed through.
pub(crate) fn matches_reply(
    items: impl IntoIterator<Item = SExpr>,
    digest: Option<&CapabilityDigest>,
) -> SExpr {
    section("matches", items.into_iter().chain(digest.map(digest_to_sexpr)))
}

/// Decodes a `(matches ...)` payload.
pub fn matches_from_sexpr(e: &SExpr) -> Result<Vec<MatchResult>, CodecError> {
    matches_from(body_of(e, "matches")?)
}

/// The items of one `(head item ...)` section of a row.
enum Items<'a> {
    /// A tree's, read in place.
    Tree(&'a [SExpr]),
    /// Read off a block's tokens: each item's text, or `None` for a list.
    Read(&'a [Option<Cow<'a, str>>]),
}

impl Items<'_> {
    /// The text of the first item.
    fn first_text(&self) -> Option<&str> {
        match self {
            Items::Tree(items) => items.first()?.as_text(),
            Items::Read(items) => items.first()?.as_deref(),
        }
    }

    /// The text of every item that has one, in an exact-length list.
    fn texts(&self) -> Vec<String> {
        match self {
            Items::Tree(items) => text_items(items),
            Items::Read(items) => {
                let mut out = Vec::with_capacity(items.len());
                out.extend(items.iter().flatten().map(|t| t.to_string()));
                out.shrink_to_fit();
                out
            }
        }
    }
}

/// Calls `section(head, items)` for every section of a `(match ...)` row
/// item, in order — every list whose first item is an atom. A block is
/// read off its text in place, a tree as it is. `Ok(false)` for an item
/// that is no match row.
fn row_sections(
    item: &SExpr,
    section: &mut dyn FnMut(&str, Items<'_>),
) -> Result<bool, CodecError> {
    match item {
        SExpr::Block(block, fill) => {
            let fill = Digits::new(*fill);
            block_sections(block.tokens(&fill), section).map_err(|e| err(format!("match row: {e}")))
        }
        _ => {
            if item.head() != Some("match") {
                return Ok(false);
            }
            for list in body_of(item, "match")?.iter().filter_map(SExpr::as_list) {
                if let Some(head) = list.first().and_then(SExpr::as_atom) {
                    section(head, Items::Tree(&list[1..]));
                }
            }
            Ok(true)
        }
    }
}

/// [`row_sections`] over a block's tokens: the sections its tree would
/// have, read without building it.
fn block_sections(
    mut tokens: Tokens<'_>,
    section: &mut dyn FnMut(&str, Items<'_>),
) -> Result<bool, SExprError> {
    if !matches!(tokens.next().transpose()?, Some(Token::Open))
        || !matches!(tokens.next().transpose()?, Some(Token::Atom("match")))
    {
        return Ok(false);
    }
    let mut items = Vec::new();
    loop {
        match tokens.next().transpose()? {
            Some(Token::Close) => return Ok(true),
            Some(Token::Open) => {}
            Some(Token::Atom(_) | Token::Str(_)) => continue,
            None => return Err(unterminated()),
        }
        let head = match tokens.next().transpose()? {
            Some(Token::Atom(head)) => Some(head),
            Some(Token::Close) => continue,
            Some(Token::Open) => {
                skip_list(&mut tokens)?;
                None
            }
            Some(Token::Str(_)) => None,
            None => return Err(unterminated()),
        };
        items.clear();
        loop {
            match tokens.next().transpose()? {
                Some(Token::Close) => break,
                Some(Token::Open) => {
                    skip_list(&mut tokens)?;
                    items.push(None);
                }
                Some(Token::Atom(text)) => items.push(Some(Cow::Borrowed(text))),
                Some(Token::Str(text)) => items.push(Some(text)),
                None => return Err(unterminated()),
            }
        }
        if let Some(head) = head {
            section(head, Items::Read(&items));
        }
    }
}

fn unterminated() -> SExprError {
    SExprError { message: "unterminated list".into(), position: 0 }
}

/// Reads past the rest of a list whose `(` was just read.
fn skip_list(tokens: &mut Tokens<'_>) -> Result<(), SExprError> {
    let mut depth = 1;
    while depth > 0 {
        match tokens.next().transpose()? {
            Some(Token::Open) => depth += 1,
            Some(Token::Close) => depth -= 1,
            Some(_) => {}
            None => return Err(unterminated()),
        }
    }
    Ok(())
}

/// Keeps the first reading of a field: the decoder reads the first
/// section under each head, as `find` does.
fn first<T>(field: &mut Option<T>, read: impl FnOnce() -> T) {
    if field.is_none() {
        *field = Some(read());
    }
}

/// The match rows among `items`.
fn matches_from(items: &[SExpr]) -> Result<Vec<MatchResult>, CodecError> {
    let mut out = Vec::new();
    for item in items {
        if let Some(m) = match_from(item)? {
            out.push(m);
        }
    }
    Ok(out)
}

/// The fields of a `(match ...)` row item; `Ok(None)` for an item that is
/// no match row.
fn match_from(item: &SExpr) -> Result<Option<MatchResult>, CodecError> {
    let (mut name, mut address, mut score, mut time, mut ontology) = (None, None, None, None, None);
    let (mut classes, mut slots, mut keys) = (None, None, None);
    let text = |items: &Items<'_>| items.first_text().map(str::to_string);
    let is_row = row_sections(item, &mut |head, items| match head {
        "name" => first(&mut name, || text(&items)),
        "address" => first(&mut address, || text(&items)),
        "score" => first(&mut score, || items.first_text().and_then(|t| t.parse::<u32>().ok())),
        "response-time" => {
            first(&mut time, || items.first_text().and_then(|t| t.parse::<f64>().ok()))
        }
        "ontology" => first(&mut ontology, || text(&items)),
        "classes" => first(&mut classes, || items.texts()),
        "slots" => first(&mut slots, || items.texts()),
        "keys" => first(&mut keys, || items.texts()),
        _ => {}
    })?;
    if !is_row {
        return Ok(None);
    }
    Ok(Some(MatchResult {
        name: name.flatten().ok_or_else(|| err("match missing name"))?,
        address: address.flatten().ok_or_else(|| err("match missing address"))?,
        score: score.flatten().ok_or_else(|| err("match missing score"))?,
        estimated_response_time: time.flatten(),
        ontology: ontology.flatten(),
        classes: classes.unwrap_or_default(),
        slots: slots.unwrap_or_default(),
        keys: keys.unwrap_or_default(),
    }))
}

/// A row item's name and score, read without decoding the rest: what a
/// forwarding broker merges and orders a peer's rows by. `Ok(None)` for an
/// item that is no match row, an error for one the decoder would refuse.
pub(crate) fn row_head(item: &SExpr) -> Result<Option<(Text, u32)>, CodecError> {
    let (mut name, mut address, mut score) = (None, None, None);
    let is_row = row_sections(item, &mut |head, items| match head {
        "name" => first(&mut name, || match items {
            Items::Tree(items) => items.first().and_then(text_of),
            Items::Read(_) => items.first_text().map(Text::from),
        }),
        "address" => first(&mut address, || items.first_text().is_some()),
        "score" => first(&mut score, || items.first_text().and_then(|t| t.parse::<u32>().ok())),
        _ => {}
    })?;
    if !is_row {
        return Ok(None);
    }
    let name = name.flatten().ok_or_else(|| err("match missing name"))?;
    if address != Some(true) {
        return Err(err("match missing address"));
    }
    Ok(Some((name, score.flatten().ok_or_else(|| err("match missing score"))?)))
}

/// The rows of a `(matches ...)` reply, each read for its name and score
/// only and kept as it was received, so a forwarding broker passes a
/// peer's rows through; `None` where [`matches_from_sexpr`] would refuse
/// the reply.
pub(crate) fn reply_rows(content: SExpr) -> Option<Vec<(Text, u32, SExpr)>> {
    body_of(&content, "matches").ok()?;
    let SExpr::List(items) = content else { return None };
    let mut rows = Vec::new();
    for item in items.into_vec().into_iter().skip(1) {
        if let Some((name, score)) = row_head(&item).ok()? {
            rows.push((name, score, item));
        }
    }
    Some(rows)
}

impl MatchRow {
    /// The row as a client decodes it.
    pub fn decode(&self) -> Result<MatchResult, CodecError> {
        match_from(&self.item())?.ok_or_else(|| err("expected (match ...)"))
    }
}

/// A held row equals a decoded one when it decodes to it.
impl PartialEq<MatchResult> for MatchRow {
    fn eq(&self, other: &MatchResult) -> bool {
        self.decode().is_ok_and(|m| m == *other)
    }
}

/// A row of its own, for a result no advertisement rendered (a broker
/// answering with its peers' advertisements).
impl From<&MatchResult> for MatchRow {
    fn from(m: &MatchResult) -> MatchRow {
        MatchRow { name: Text::from(&m.name), score: m.score, block: Arc::new(result_block(m)) }
    }
}

/// Encodes an incremental subscription notification:
/// `(sub-delta (epoch N) (matched (match ...) ...) (unmatched a b))`.
/// `matched` carries full match rows for agents entering the result set
/// (or re-ranked within it); `unmatched` lists the names that left.
pub fn sub_delta_to_sexpr<R: ResultRow>(epoch: u64, matched: &[R], unmatched: &[String]) -> SExpr {
    let items = [
        section("epoch", [SExpr::atom(epoch.to_string())]),
        section("matched", matched.iter().map(ResultRow::item)),
        atoms("unmatched", unmatched),
    ];
    section("sub-delta", items)
}

/// [`sub_delta_to_sexpr`]'s notification printed once, for every `tell`
/// that carries it to share: each matched row's text is written in, its
/// score filled, so the block has no open number.
pub fn sub_delta_block<R: ResultRow>(epoch: u64, matched: &[R], unmatched: &[String]) -> Block {
    let mut w = BlockWriter::default();
    w.open().atom("sub-delta");
    w.open().atom("epoch").atom(&epoch.to_string()).close();
    w.open().atom("matched");
    for row in matched {
        w.sexpr(&row.item());
    }
    w.close();
    w.open().atom("unmatched");
    for name in unmatched {
        w.atom(name);
    }
    w.close().close();
    w.finish()
}

/// Decodes a `(sub-delta ...)` payload into `(epoch, matched, unmatched)`,
/// a block read as the tree it prints.
pub fn sub_delta_from_sexpr(e: &SExpr) -> Result<(u64, Vec<MatchResult>, Vec<String>), CodecError> {
    if let SExpr::Block(block, fill) = e {
        let tree = block.tree(*fill).map_err(|e| err(format!("sub-delta: {e}")))?;
        return sub_delta_from_sexpr(&tree);
    }
    let body = body_of(e, "sub-delta")?;
    let epoch = one_text(body, "epoch")
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err("sub-delta missing epoch"))?;
    let matched = find(body, "matched").map(matches_from).transpose()?.unwrap_or_default();
    let unmatched = find(body, "unmatched").map(text_items).unwrap_or_default();
    Ok((epoch, matched, unmatched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_constraint::Predicate;

    fn sample_ad() -> Advertisement {
        Advertisement::new(AgentLocation::new(
            "ResourceAgent5",
            "tcp://b1.mcc.com:4356",
            AgentType::Resource,
        ))
        .with_syntactic(SyntacticInfo::sql_kqml())
        .with_semantic(
            SemanticInfo::default()
                .with_conversations([ConversationType::Subscribe, ConversationType::AskAll])
                .with_capabilities(["relational-query-processing", "subscription"])
                .with_capability_restriction("no statistical aggregation")
                .with_content(
                    OntologyContent::new("healthcare")
                        .with_classes(["diagnosis", "patient"])
                        .with_slots(["diagnosis.code", "patient.age"])
                        .with_keys(["patient.id"])
                        .with_fragment("patient", Fragment::vertical(["id", "age"]))
                        .with_fragment(
                            "diagnosis",
                            Fragment::horizontal(Conjunction::from_predicates(vec![
                                Predicate::eq("diagnosis.code", "40W"),
                            ])),
                        )
                        .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                            "patient.age",
                            43,
                            75,
                        )])),
                ),
        )
        .with_properties(AgentProperties {
            mobile: false,
            cloneable: true,
            estimated_response_time: Some(5.0),
            throughput: Some(2.5),
        })
    }

    #[test]
    fn advertisement_round_trips() {
        let ad = sample_ad();
        let e = advertisement_to_sexpr(&ad);
        // Through text, as it would cross a real wire.
        let text = e.to_string();
        let parsed = SExpr::parse(&text).unwrap();
        let back = advertisement_from_sexpr(&parsed).unwrap();
        assert_eq!(back, ad);
    }

    /// A sender that repeats itself says nothing more: a class, a
    /// capability and a language listed twice decode to the advertisement
    /// that lists them once, whose wire form is pinned here byte for byte.
    #[test]
    fn repeated_list_items_decode_to_the_deduplicated_advertisement() {
        let ad = Advertisement::new(AgentLocation::new("ra1", "tcp://h:1", AgentType::Resource))
            .with_syntactic(SyntacticInfo::sql_kqml())
            .with_semantic(
                SemanticInfo::default()
                    .with_conversations([ConversationType::AskAll])
                    .with_capabilities(["subscription", "relational-query-processing"])
                    .with_content(
                        OntologyContent::new("healthcare")
                            .with_classes(["patient", "diagnosis"])
                            .with_keys(["patient.id"]),
                    ),
            );
        let repeating = "(advertisement (name ra1) (address \"tcp://h:1\") (type resource) \
            (query-languages \"SQL 2.0\" \"SQL 2.0\") (comm-languages \"KQML\") \
            (conversations ask-all) \
            (capabilities subscription relational-query-processing subscription) \
            (content (ontology healthcare) (classes patient diagnosis patient) (slots) \
            (keys patient.id) (constraints \"true\")) \
            (properties (mobile false) (cloneable false)))";
        let back = advertisement_from_sexpr(&SExpr::parse(repeating).unwrap()).unwrap();
        assert_eq!(back, ad);
        assert_eq!(
            advertisement_to_sexpr(&back).to_string(),
            "(advertisement (name ra1) (address \"tcp://h:1\") (type resource) \
             (query-languages \"SQL 2.0\") (comm-languages \"KQML\") (conversations ask-all) \
             (capabilities relational-query-processing subscription) \
             (content (ontology healthcare) (classes diagnosis patient) (slots) \
             (keys patient.id) (constraints \"true\")) \
             (properties (mobile false) (cloneable false)))"
        );
    }

    #[test]
    fn broker_advertisement_round_trips() {
        let mut ad = BrokerAdvertisement::new(
            Advertisement::new(AgentLocation::new("b1", "tcp://h:1", AgentType::Broker))
                .with_syntactic(SyntacticInfo::new(["LDL"], ["KQML"])),
        );
        ad.consortia = ["alpha".into(), "beta".into()].into();
        ad.specialization.ontologies.insert("healthcare".into());
        ad.specialization.agent_types.insert(AgentType::Resource);
        ad.specialization.restrictions.push("patients only".into());
        let text = broker_advertisement_to_sexpr(&ad).to_string();
        let back = broker_advertisement_from_sexpr(&SExpr::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ad);
    }

    #[test]
    fn service_query_round_trips() {
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_query_language("SQL 2.0")
            .with_communication_language("KQML")
            .with_conversation(ConversationType::AskAll)
            .with_capability("select")
            .with_ontology("healthcare")
            .with_classes(["patient"])
            .with_slots(["patient.age"])
            .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                "patient.age",
                25,
                65,
            )]))
            .with_max_response_time(10.0)
            .with_mobility(false)
            .with_cloneability(true)
            .one();
        let text = service_query_to_sexpr(&q).to_string();
        let back = service_query_from_sexpr(&SExpr::parse(&text).unwrap()).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn empty_service_query_round_trips() {
        let q = ServiceQuery::any();
        let back = service_query_from_sexpr(&service_query_to_sexpr(&q)).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn search_request_round_trips() {
        let r = SearchRequest {
            query: ServiceQuery::for_agent_type(AgentType::Resource),
            policy: SearchPolicy { hop_count: 3, follow: FollowOption::UntilMatch },
            visited: vec!["b1".into(), "b2".into()],
            digest_epoch: None,
        };
        let text = search_request_to_sexpr(&r).to_string();
        let back = search_request_from_sexpr(&SExpr::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        // And with a digest epoch stamped on.
        let stamped = SearchRequest { digest_epoch: Some(17), ..r };
        let text = search_request_to_sexpr(&stamped).to_string();
        let back = search_request_from_sexpr(&SExpr::parse(&text).unwrap()).unwrap();
        assert_eq!(back, stamped);
    }

    fn sample_digest() -> CapabilityDigest {
        let mut d = CapabilityDigest::empty("b1");
        d.epoch = 12;
        d.ads = 3;
        d.bits = vec![0x0123_4567_89ab_cdef, 0xffff_0000_dead_beef];
        d.slot_hulls.insert("patient.age".into(), (25.0, 65.0));
        d.slot_hulls.insert("open.low".into(), (f64::NEG_INFINITY, 10.5));
        d
    }

    #[test]
    fn digest_round_trips() {
        let d = sample_digest();
        let text = digest_to_sexpr(&d).to_string();
        let back = digest_from_sexpr(&SExpr::parse(&text).unwrap()).unwrap();
        assert_eq!(back, d);
        // The empty digest (no bits, no hulls) round-trips too.
        let empty = CapabilityDigest::empty("b2");
        let text = digest_to_sexpr(&empty).to_string();
        assert_eq!(digest_from_sexpr(&SExpr::parse(&text).unwrap()).unwrap(), empty);
        assert!(digest_from_sexpr(&SExpr::parse("(nonsense)").unwrap()).is_err());
    }

    /// `sample_digest` encoded, with one section dropped or swapped for
    /// the section `with` parses to.
    fn tampered_digest(section: &str, with: Option<&str>) -> SExpr {
        let SExpr::List(items) = digest_to_sexpr(&sample_digest()) else { unreachable!() };
        let kept = items.into_vec().into_iter().filter(|e| e.head() != Some(section));
        SExpr::list(kept.chain(with.map(|text| SExpr::parse(text).unwrap())))
    }

    #[test]
    fn digest_with_probe_count_out_of_range_is_rejected() {
        // k = 2^32 − 1 would spin every `contains` four billion times.
        for k in ["0", "17", "4294967295"] {
            let bad = tampered_digest("k", Some(&format!("(k {k})")));
            assert!(digest_from_sexpr(&bad).is_err(), "k = {k} accepted");
            assert_eq!(embedded_digest(&SExpr::list([SExpr::atom("matches"), bad])), None);
        }
        assert!(digest_from_sexpr(&tampered_digest("k", Some("(k 16)"))).is_ok());
    }

    #[test]
    fn digest_with_advertisements_but_no_bits_is_rejected() {
        // Every symbol would read as absent: the peer pruned from every
        // constrained search, a false negative.
        assert!(digest_from_sexpr(&tampered_digest("bits", None)).is_err());
        assert!(digest_from_sexpr(&tampered_digest("bits", Some("(bits \"\")"))).is_err());
    }

    #[test]
    fn digest_with_a_hull_that_is_no_interval_is_rejected() {
        for hull in ["(hull \"a\" NaN 5)", "(hull \"a\" 1 NaN)", "(hull \"a\" 9 3)"] {
            let bad = tampered_digest("hulls", Some(&format!("(hulls {hull})")));
            assert!(digest_from_sexpr(&bad).is_err(), "{hull} accepted");
        }
        let half_open = tampered_digest("hulls", Some("(hulls (hull \"a\" 3 inf))"));
        assert!(digest_from_sexpr(&half_open).is_ok());
    }

    #[test]
    fn broker_hello_carries_the_digest_transparently() {
        let ad = BrokerAdvertisement::new(
            Advertisement::new(AgentLocation::new("b1", "tcp://h:1", AgentType::Broker))
                .with_syntactic(SyntacticInfo::new(["LDL"], ["KQML"])),
        );
        let d = sample_digest();
        let text = broker_hello_to_sexpr(&ad, Some(&d)).to_string();
        let parsed = SExpr::parse(&text).unwrap();
        // The broker-advertisement decoder ignores the extra section...
        let back = broker_advertisement_from_sexpr(&parsed).unwrap();
        assert_eq!(back, ad);
        // ...while the digest extractor finds it.
        assert_eq!(embedded_digest(&parsed), Some(d));
        // Without a digest the hello is a plain broker-advertisement.
        let plain = broker_hello_to_sexpr(&ad, None);
        assert_eq!(plain, broker_advertisement_to_sexpr(&ad));
        assert_eq!(embedded_digest(&plain), None);
    }

    #[test]
    fn matches_reply_carries_the_digest_transparently() {
        let ms = vec![MatchResult {
            name: "db1".into(),
            address: "tcp://h:1".into(),
            score: 7,
            ..MatchResult::default()
        }];
        let d = sample_digest();
        let text = matches_reply_to_sexpr(&ms, Some(&d)).to_string();
        let parsed = SExpr::parse(&text).unwrap();
        assert_eq!(matches_from_sexpr(&parsed).unwrap(), ms);
        assert_eq!(embedded_digest(&parsed), Some(d));
        assert_eq!(matches_reply_to_sexpr(&ms, None), matches_to_sexpr(&ms));
    }

    #[test]
    fn matches_round_trip() {
        let ms = vec![
            MatchResult {
                name: "db1".into(),
                address: "tcp://h:1".into(),
                score: 7,
                estimated_response_time: Some(5.0),
                ontology: Some("healthcare".into()),
                classes: vec!["patient".into(), "diagnosis".into()],
                slots: vec!["patient.age".into()],
                keys: vec!["patient.id".into()],
            },
            MatchResult {
                name: "db2".into(),
                address: "tcp://h:2".into(),
                score: 4,
                estimated_response_time: None,
                ..MatchResult::default()
            },
        ];
        let text = matches_to_sexpr(&ms).to_string();
        let back = matches_from_sexpr(&SExpr::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ms);
        // Empty list round-trips too.
        assert_eq!(matches_from_sexpr(&matches_to_sexpr::<MatchResult>(&[])).unwrap(), vec![]);
    }

    /// Names and classes the reader would take apart travel quoted, so
    /// what a peer decodes from the text is what a `Bus` would have handed
    /// it as one value: nothing split, nothing dropped.
    #[test]
    fn names_the_reader_would_split_survive_print_and_parse() {
        let row = MatchResult {
            name: "Resource Agent 5".into(),
            address: "tcp://h:1".into(),
            score: 3,
            ontology: Some("".into()),
            classes: vec!["blood test".into(), "a(b)".into()],
            keys: vec!["say \"x\";".into()],
            ..MatchResult::default()
        };
        let over_the_wire = |e: SExpr| SExpr::parse(&e.to_string()).unwrap();
        let rows = vec![row.clone()];
        assert_eq!(matches_from_sexpr(&over_the_wire(matches_to_sexpr(&rows))).unwrap(), rows);
        let gone = vec![row.name.clone(), "a(b)".to_string()];
        let delta = over_the_wire(sub_delta_to_sexpr(7, &rows, &gone));
        assert_eq!(sub_delta_from_sexpr(&delta).unwrap(), (7, rows, gone));
        let mut ad = sample_ad();
        ad.location.name = row.name.into();
        ad.semantic.content[0].classes = ["blood test".into()].into();
        let back = advertisement_from_sexpr(&over_the_wire(advertisement_to_sexpr(&ad)));
        assert_eq!(back.unwrap(), ad);
    }

    /// Names on either side of the 22 bytes a `Text` holds in place, a
    /// vocabulary word, and names that travel quoted come back from the
    /// wire as the same advertisement and query, each in every field that
    /// holds a name.
    #[test]
    fn names_at_the_inline_boundary_survive_the_wire() {
        const NAMES: [&str; 5] =
            ["twenty-two-bytes-long!", "twenty-three-bytes-long", "KQML", "SQL 2.0", "a(b) c"];
        assert_eq!((NAMES[0].len(), NAMES[1].len()), (22, 23));
        let over_the_wire = |e: SExpr| SExpr::parse(&e.to_string()).unwrap();
        for name in NAMES {
            let ad = Advertisement::new(AgentLocation::new(name, name, AgentType::Resource))
                .with_syntactic(SyntacticInfo::new([name, "SQL 2.0"], [name]))
                .with_semantic(
                    SemanticInfo::default().with_capabilities([name]).with_content(
                        OntologyContent::new(name)
                            .with_classes([name])
                            .with_slots([name, "KQML"])
                            .with_keys([name])
                            .with_fragment(name, Fragment::vertical([name])),
                    ),
                );
            let back = advertisement_from_sexpr(&over_the_wire(advertisement_to_sexpr(&ad)));
            assert_eq!(back.unwrap(), ad, "{name}");

            let mut q = ServiceQuery::any()
                .with_query_language(name)
                .with_communication_language(name)
                .with_capability(name)
                .with_ontology(name)
                .with_classes([name, "twenty-three-bytes-long"])
                .with_slots([name]);
            q.agent_name = Some(name.into());
            let back = service_query_from_sexpr(&over_the_wire(service_query_to_sexpr(&q)));
            assert_eq!(back.unwrap(), q, "{name}");
        }
    }

    #[test]
    fn decoding_rejects_wrong_heads() {
        let e = SExpr::parse("(nonsense)").unwrap();
        assert!(advertisement_from_sexpr(&e).is_err());
        assert!(service_query_from_sexpr(&e).is_err());
        assert!(search_request_from_sexpr(&e).is_err());
        assert!(matches_from_sexpr(&e).is_err());
        assert!(broker_advertisement_from_sexpr(&e).is_err());
        assert!(advertisement_from_sexpr(&SExpr::atom("x")).is_err());
    }

    #[test]
    fn decoding_requires_mandatory_fields() {
        let e = SExpr::parse("(advertisement (name x))").unwrap();
        assert!(advertisement_from_sexpr(&e).is_err()); // missing address
        let e = SExpr::parse("(matches (match (name x)))").unwrap();
        assert!(matches_from_sexpr(&e).is_err()); // missing address/score
    }

    #[test]
    fn sub_delta_round_trips() {
        let matched = vec![MatchResult {
            name: "ra-1".into(),
            address: "tcp://ra-1.mcc.com:4000".into(),
            score: 5,
            ..MatchResult::default()
        }];
        let unmatched = vec!["ra-2".to_string()];
        let e = sub_delta_to_sexpr(42, &matched, &unmatched);
        let text = e.to_string();
        let back = SExpr::parse(&text).unwrap();
        let (epoch, m, u) = sub_delta_from_sexpr(&back).unwrap();
        assert_eq!(epoch, 42);
        assert_eq!(m, matched);
        assert_eq!(u, unmatched);
        // An empty delta round-trips too (snapshot of an empty repo).
        let e = sub_delta_to_sexpr::<MatchResult>(0, &[], &[]);
        let (epoch, m, u) = sub_delta_from_sexpr(&e).unwrap();
        assert_eq!((epoch, m.len(), u.len()), (0, 0, 0));
        assert!(sub_delta_from_sexpr(&SExpr::parse("(nonsense)").unwrap()).is_err());
    }

    /// The shared notification body prints, sizes and decodes as the tree
    /// the snapshot is built as, its rows' scores written in.
    #[test]
    fn a_sub_delta_block_is_its_tree() {
        let rows: Vec<MatchRow> = ["ra-1", "Resource Agent 2"]
            .iter()
            .enumerate()
            .map(|(j, name)| {
                let mut ad = sample_ad();
                ad.location.name = Text::from(*name);
                MatchRow {
                    name: Text::from(*name),
                    score: 3 + j as u32,
                    block: Arc::new(row_block(&ad, ad.semantic.content.first())),
                }
            })
            .collect();
        let gone = ["ra-3".to_string(), "a(b)".to_string()];
        for (matched, unmatched) in
            [(&rows[..], &gone[..]), (&rows[..1], &[][..]), (&[][..], &gone[..1])]
        {
            let tree = sub_delta_to_sexpr(17, matched, unmatched);
            let held = SExpr::Block(Arc::new(sub_delta_block(17, matched, unmatched)), 0);
            assert_eq!(held.to_string(), tree.to_string());
            assert_eq!(held.wire_size(), tree.wire_size());
            assert_eq!(held.head(), Some("sub-delta"));
            let decoded = sub_delta_from_sexpr(&tree).unwrap();
            assert_eq!(sub_delta_from_sexpr(&held).unwrap(), decoded);
            assert_eq!(decoded.1.len(), matched.len());
        }
    }

    /// A block is read off its text as its tree is read: the first section
    /// under a head wins, a section led by a list or a string is no
    /// section, a list among a section's items has no text, and anything
    /// not headed `match` is no row.
    #[test]
    fn a_block_row_decodes_as_its_tree() {
        let block = |write: &dyn Fn(&mut BlockWriter)| {
            let mut w = BlockWriter::default();
            write(&mut w);
            Arc::new(w.finish())
        };
        let rows = [
            block(&|w| {
                w.open().atom("match");
                w.open().atom("name").atom("ra1").close();
                w.open().atom("name").atom("ra2").close();
                w.open().open().atom("address").close().atom("x").close();
                w.open().string("address").atom("y").close();
                w.open().atom("address").string("tcp://h 1").atom("z").close();
                w.open().atom("score").hole().close();
                w.open().atom("classes").open().atom("a").close().atom("b").string("c d").close();
                w.open().close().atom("loose").string("loose too");
                w.close();
            }),
            block(&|w| {
                w.open().atom("match");
                w.open().atom("name").open().atom("nested").close().close();
                w.open().atom("address").atom("a").close();
                w.open().atom("score").hole().close();
                w.close();
            }),
            block(&|w| {
                w.open().atom("match");
                w.open().atom("name").atom("n").close();
                w.open().atom("address").atom("a").close();
                w.open().atom("score").atom("not-a-number").close();
                w.close();
            }),
            block(&|w| {
                w.open().atom("epoch").atom("3").close();
            }),
            block(&|w| {
                w.atom("match");
            }),
            block(&|w| {
                w.open().string("match").open().atom("name").atom("n").close().close();
            }),
        ];
        for row in &rows {
            for fill in [0, 42] {
                let held = SExpr::Block(Arc::clone(row), fill);
                let tree = row.tree(fill).unwrap();
                assert_eq!(match_from(&held), match_from(&tree), "{held}");
                assert_eq!(row_head(&held), row_head(&tree), "{held}");
            }
        }
        let first = match_from(&SExpr::Block(Arc::clone(&rows[0]), 9)).unwrap().unwrap();
        assert_eq!((first.name.as_str(), first.address.as_str()), ("ra1", "tcp://h 1"));
        assert_eq!((first.score, first.classes), (9, vec!["b".to_string(), "c d".to_string()]));
    }
}
