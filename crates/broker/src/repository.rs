//! The broker repository (Figures 3–4).
//!
//! "One of the primary jobs of a broker is to maintain a repository
//! containing current and correct information about operational agents and
//! the services they can provide." Advertisements are validated on receipt
//! ("the broker validates and translates the advertisement into a format
//! that its reasoning engine can understand and asserts it in its
//! repository"). Under derived-concept rules each advertisement's own
//! facts are saturated once, when it is posted; the whole repository is
//! compiled into LDL facts only for the reference model
//! ([`Repository::saturated`]).

use crate::facts::{
    compile_agent_facts, compile_facts, compile_global_facts, matchmaking_env, matchmaking_program,
    matchmaking_program_with, HIERARCHY_PREDICATES,
};
use crate::sub_index::ad_slot_hulls;
use infosleuth_agent::AgentAddress;
use infosleuth_analysis::{analyze_advertisement, analyze_ldl_source, AdContext, Report, Severity};
use infosleuth_kqml::{Block, Fnv, Text};
use infosleuth_ldl::{parse_rules, Const, Database, LdlParseError, Program, Rule, Saturated};
use infosleuth_obs::{Histogram, Obs, StageTimer};
use infosleuth_ontology::{
    standard_capability_taxonomy, Advertisement, AgentType, BrokerAdvertisement, ConversationType,
    Ontology, OntologyContent, ServiceQuery, Taxonomy,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Validation errors for incoming advertisements.
#[derive(Debug, Clone, PartialEq)]
pub enum RepositoryError {
    EmptyAgentName,
    InvalidAddress {
        agent: String,
        address: String,
        reason: String,
    },
    /// The static analyzer found error-severity diagnostics; the rendered
    /// report rides in the broker's `sorry` so the advertiser can see the
    /// exact `IS0xx` findings.
    Rejected {
        agent: String,
        report: String,
    },
}

impl fmt::Display for RepositoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepositoryError::EmptyAgentName => write!(f, "advertisement has empty agent name"),
            RepositoryError::InvalidAddress { agent, address, reason } => {
                write!(f, "agent '{agent}' has invalid address '{address}': {reason}")
            }
            RepositoryError::Rejected { agent, report } => {
                write!(f, "advertisement from '{agent}' rejected by analysis:\n{report}")
            }
        }
    }
}

impl std::error::Error for RepositoryError {}

/// How an agent's advertised classes relate to a requested one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClassCredit {
    /// `serves_class`: the class itself or an ancestor of it is advertised.
    Serves,
    /// `contributes_class` only: a descendant of it is advertised.
    Contributes,
}

/// Whether a closure run (ascending by name) holds `name`, compared as
/// bytes: an advertised name's bytes are read without a UTF-8 check.
fn names(run: &[Text], name: &[u8]) -> bool {
    run.binary_search_by(|held| held.as_bytes().cmp(name)).is_ok()
}

/// A set of dense advertisement ids as a bitmap, kept trimmed (the last
/// word is never zero) so equal sets are equal vectors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct IdSet(Vec<u64>);

impl IdSet {
    fn insert(&mut self, id: u32) {
        let word = id as usize / 64;
        if self.0.len() <= word {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (id % 64);
    }

    fn remove(&mut self, id: u32) {
        if let Some(word) = self.0.get_mut(id as usize / 64) {
            *word &= !(1 << (id % 64));
        }
        while self.0.last() == Some(&0) {
            self.0.pop();
        }
    }

    pub(crate) fn words(&self) -> &[u64] {
        &self.0
    }
}

/// The ids set in a bitmap, ascending.
fn set_ids(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |rest| {
            let rest = rest & (rest - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
    })
}

/// The hull of an advertisement that says nothing about a slot.
const OPEN: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

/// One constrained slot's `(lo, hi)` hull per advertisement id, [`OPEN`]
/// where an advertisement has none (ids past the end included).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct HullColumn {
    bounds: Vec<(f64, f64)>,
    /// How many advertisements hold a hull here; the column goes at zero.
    constrained: usize,
}

impl HullColumn {
    /// Clears from `words` every id whose hull is disjoint from the
    /// requested window `[qlo, qhi]`.
    pub(crate) fn clear_disjoint(&self, (qlo, qhi): (f64, f64), words: &mut [u64]) {
        for (w, word) in words.iter_mut().enumerate() {
            for bit in set_ids(&[*word]) {
                let (lo, hi) = self.bounds.get(w * 64 + bit).copied().unwrap_or(OPEN);
                if qhi < lo || qlo > hi {
                    *word &= !(1 << bit);
                }
            }
        }
    }
}

/// One term an advertisement is posted under and a query probes: an agent
/// name or a value of one of the seven posting dimensions.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Term<'a> {
    Name(&'a str),
    AgentType(&'a AgentType),
    QueryLanguage(&'a str),
    CommunicationLanguage(&'a str),
    Conversation(&'a ConversationType),
    Capability(&'a str),
    Ontology(&'a str),
    /// `(ontology, class)`.
    Class(&'a str, &'a str),
}

impl<'a> Term<'a> {
    /// The terms a match for `query` must be posted under, agent name
    /// aside, each as the query states it: the advertisement side was
    /// expanded when it was posted ([`Repository::posted_terms`]). Classes
    /// count only under a required ontology; without one the match may
    /// come from any content record.
    pub(crate) fn of_query(query: &'a ServiceQuery) -> impl Iterator<Item = Term<'a>> {
        let content = query.ontology.iter().flat_map(|onto| {
            let classes = query.classes.iter().map(move |class| Term::Class(onto, class));
            std::iter::once(Term::Ontology(onto)).chain(classes)
        });
        (query.agent_type.iter().map(Term::AgentType))
            .chain(query.query_language.iter().map(|lang| Term::QueryLanguage(lang)))
            .chain(
                query.communication_language.iter().map(|lang| Term::CommunicationLanguage(lang)),
            )
            .chain(query.conversations.iter().map(Term::Conversation))
            .chain(query.capabilities.iter().map(|cap| Term::Capability(cap.as_str())))
            .chain(content)
    }

    /// The term's 64-bit symbol, the one key it has in the narrowing
    /// index, the subscription index and the routing digest: FNV-1a over a
    /// dimension tag, `0x1f` and the text, an (ontology, class) pair being
    /// the two names joined by `U+0001`. Dimensions hash under their own
    /// tags, so they never alias; two terms that collide only ever add a
    /// candidate, which scoring re-checks. Peers probe the digest with
    /// these symbols, so the bytes are a wire format.
    pub(crate) fn symbol(self) -> u64 {
        let h = Fnv::EMPTY;
        let h = match self {
            Term::Name(name) => h.eat("n\u{1f}").eat(name),
            Term::AgentType(t) => h.eat("t\u{1f}").eat(t.as_str()),
            Term::QueryLanguage(lang) => h.eat("q\u{1f}").eat(lang),
            Term::CommunicationLanguage(lang) => h.eat("l\u{1f}").eat(lang),
            Term::Conversation(conv) => h.eat("v\u{1f}").eat(conv.as_str()),
            Term::Capability(cap) => h.eat("p\u{1f}").eat(cap),
            Term::Ontology(onto) => h.eat("o\u{1f}").eat(onto),
            Term::Class(onto, class) => h.eat("c\u{1f}").eat(onto).eat("\u{1}").eat(class),
        };
        h.finish()
    }
}

/// One fact the derived-concept rules grant an advertisement's agent
/// beyond what the closures of its own capabilities and classes give
/// ([`Repository::grant`]). The names are the rule engine's interned
/// symbols.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Grant {
    /// `provides(agent, capability)`.
    Provides(&'static str),
    /// `serves_class(agent, ontology, class)`: the request served in full.
    Serves(&'static str, &'static str),
    /// `contributes_class(agent, ontology, class)` where the closures give
    /// no credit at all. The model's `contributes_class` includes its
    /// `serves_class`, so these are every class the rules add a posting
    /// for.
    Contributes(&'static str, &'static str),
}

/// Everything the rules grant one advertisement.
pub(crate) type Granted = Box<[Grant]>;

/// A stored advertisement with the blocks of its result rows
/// ([`codec::row_block`](crate::codec::row_block)): one per content record
/// and one for a row that names none, each rendered when a match first
/// needs it and shared by every row that carries it until the
/// advertisement is replaced. Nothing is rendered at admission.
#[derive(Debug, Clone)]
pub(crate) struct Posted {
    pub(crate) ad: Arc<Advertisement>,
    rows: OnceLock<Box<[OnceLock<Arc<Block>>]>>,
}

impl Posted {
    fn new(ad: Arc<Advertisement>) -> Posted {
        Posted { ad, rows: OnceLock::new() }
    }

    /// The block of the row that names content record `record` (`None`:
    /// the row that names none).
    pub(crate) fn row(&self, record: Option<usize>) -> Arc<Block> {
        let records = &self.ad.semantic.content;
        let rows = self.rows.get_or_init(|| (0..=records.len()).map(|_| OnceLock::new()).collect());
        let slot = &rows[record.unwrap_or(records.len())];
        let content: Option<&OntologyContent> = record.map(|i| &records[i]);
        Arc::clone(slot.get_or_init(|| Arc::new(crate::codec::row_block(&self.ad, content))))
    }
}

/// The advertisement is the posting; its rendered rows follow from it.
impl PartialEq for Posted {
    fn eq(&self, other: &Posted) -> bool {
        self.ad == other.ad
    }
}

/// The narrowing index over the advertisements, maintained on every
/// advertise/unadvertise so matchmaking intersects machine words instead
/// of scanning the repository. It is also the repository's one store of
/// advertisements: each holds a dense `u32` id (recycled on unadvertise),
/// found by agent name — a [`Text`], so a name of up to 22 bytes is held
/// in its map entry — with what derived rules grant it, if anything. Each
/// advertisement is posted, in one bitmap over those ids per term, under
/// the symbol of every term [`Repository::posted_terms`] yields for it,
/// and each constrained slot has a column of per-advertisement hulls
/// filled by [`ad_slot_hulls`]. A posting lives exactly as long as some
/// advertisement is posted under it, so the posting keys and the names are
/// the repository's vocabulary — what the routing digest summarizes.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct AdIndex {
    ids: HashMap<Text, u32>,
    /// Advertisement by id; `None` marks an id on the free list.
    ads: Vec<Option<Posted>>,
    free: Vec<u32>,
    /// The ids posted under each term symbol.
    postings: HashMap<u64, IdSet>,
    hulls: HashMap<Text, HullColumn>,
    /// By agent name, for the advertisements derived rules grant anything:
    /// empty without rules.
    granted: HashMap<Text, Granted>,
}

impl AdIndex {
    /// Stores `ad`, with what the rules grant it, under a free id and
    /// posts it under `terms`.
    fn insert(&mut self, ad: Arc<Advertisement>, terms: &[u64], granted: Option<Granted>) {
        let id = self.free.pop().unwrap_or_else(|| {
            let id = u32::try_from(self.ads.len()).expect("fewer than 2^32 ads"); // lint: allow-unwrap
            self.ads.push(None);
            id
        });
        self.ids.insert(ad.location.name.clone(), id);
        if let Some(granted) = granted {
            self.granted.insert(ad.location.name.clone(), granted);
        }
        self.post(id, terms);
        for (slot, hull) in ad_slot_hulls(&ad) {
            let column = self.hulls.entry(Text::from(slot)).or_default();
            if column.bounds.len() <= id as usize {
                column.bounds.resize(id as usize + 1, OPEN);
            }
            column.bounds[id as usize] = hull;
            column.constrained += 1;
        }
        self.ads[id as usize] = Some(Posted::new(ad));
    }

    fn post(&mut self, id: u32, terms: &[u64]) {
        for term in terms {
            self.postings.entry(*term).or_default().insert(id);
        }
    }

    /// The advertisement stored for `agent`.
    fn get(&self, agent: &str) -> Option<&Arc<Advertisement>> {
        self.posted(agent).map(|p| &p.ad)
    }

    /// `agent`'s advertisement with its rows.
    pub(crate) fn posted(&self, agent: &str) -> Option<&Posted> {
        let id = *self.ids.get(agent)?;
        self.ads[id as usize].as_ref()
    }

    /// Every stored advertisement, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Arc<Advertisement>> {
        self.all().map(|p| &p.ad)
    }

    /// Every stored advertisement with its rows, in id order.
    pub(crate) fn all(&self) -> impl Iterator<Item = &Posted> {
        self.ads.iter().flatten()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Takes `agent`'s advertisement, posted under `terms`, out of the
    /// index, if it holds one. An emptied posting goes.
    fn remove(&mut self, agent: &str, terms: &[u64]) -> Option<Arc<Advertisement>> {
        let id = self.ids.remove(agent)?;
        let ad = self.ads[id as usize].take()?.ad;
        self.free.push(id);
        self.granted.remove(agent);
        for term in terms {
            let Some(set) = self.postings.get_mut(term) else { continue };
            set.remove(id);
            if set.0.is_empty() {
                self.postings.remove(term);
            }
        }
        // The freed id must read as open to whoever is advertised into it.
        // The slots are `insert`'s own, so `constrained` stays exact even for
        // a hull whose union over the content records came out unbounded.
        for slot in ad_slot_hulls(&ad).into_keys() {
            let Some(column) = self.hulls.get_mut(slot) else { continue };
            column.bounds[id as usize] = OPEN;
            column.constrained -= 1;
            if column.constrained == 0 {
                self.hulls.remove(slot);
            }
        }
        Some(ad)
    }

    /// The advertisements posted under `term`.
    pub(crate) fn posting(&self, term: Term<'_>) -> Option<&IdSet> {
        self.postings.get(&term.symbol())
    }

    /// The hull column of `slot`, when any advertisement holds a hull on it.
    pub(crate) fn hull_column(&self, slot: &str) -> Option<&HullColumn> {
        self.hulls.get(slot)
    }

    /// Every live id as a bitmap — the start of a narrowing no posting
    /// took part in.
    pub(crate) fn all_ids(&self) -> Vec<u64> {
        let mut words = vec![0u64; self.ads.len().div_ceil(64)];
        for (id, ad) in self.ads.iter().enumerate() {
            if ad.is_some() {
                words[id / 64] |= 1 << (id % 64);
            }
        }
        words
    }

    /// The advertisements whose ids are set in `words`.
    pub(crate) fn ads_in(&self, words: &[u64]) -> Vec<&Posted> {
        set_ids(words)
            .map(|id| self.ads[id].as_ref().expect("posted ids are live")) // lint: allow-unwrap
            .collect()
    }

    /// Every distinct symbol an advertisement is posted under, then the
    /// symbol of every agent name.
    pub(crate) fn symbols(&self) -> impl Iterator<Item = u64> + '_ {
        let names = self.ids.keys().map(|name| Term::Name(name).symbol());
        self.postings.keys().copied().chain(names)
    }

    /// The slots *every* advertisement holds a hull on, each with the union
    /// of those hulls: a window disjoint from it overlaps no advertisement.
    pub(crate) fn complete_hulls(&self) -> impl Iterator<Item = (&str, (f64, f64))> {
        self.hulls.iter().filter(|(_, column)| column.constrained == self.ids.len()).map(
            |(slot, column)| {
                let union =
                    self.ids.values().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), id| {
                        let (ad_lo, ad_hi) = column.bounds[*id as usize];
                        (lo.min(ad_lo), hi.max(ad_hi))
                    });
                (slot.as_str(), union)
            },
        )
    }
}

/// The derived-concept rules (§2.1) and what posting under them needs.
#[derive(Clone)]
struct DerivedRules {
    /// The rules as registered.
    rules: Vec<Rule>,
    /// The rules that derive facts about an agent: the standard base's
    /// and the derived ones — all of them but the hierarchy closures.
    local: Program,
    /// Every fact of the [`HIERARCHY_PREDICATES`]: the capability
    /// taxonomy's and the class hierarchies' edges and closures, the same
    /// for every advertisement and compiled again when an ontology is
    /// registered.
    hierarchy: Database,
}

/// One broker's knowledge base: agent advertisements, peer broker
/// advertisements, the capability taxonomy, and the domain ontologies the
/// broker can reason over.
///
/// Matchmaking reads §2.1 subsumption off the taxonomies' closures
/// ([`satisfying_classes`](Self::satisfying_classes) and its siblings) and
/// off what derived rules granted each advertisement when it was posted,
/// so no LDL model of the whole repository is ever built unless someone
/// asks for the reference one ([`saturated`](Self::saturated)).
#[derive(Clone)]
pub struct Repository {
    brokers: BTreeMap<String, BrokerAdvertisement>,
    capability_taxonomy: Taxonomy,
    ontologies: BTreeMap<String, Ontology>,
    /// `None` until a derived rule is registered.
    rules: Option<Box<DerivedRules>>,
    /// The advertisements, by agent name, and the postings over them.
    /// Each is `Arc`ed so a mutation's before/after pair and a caller
    /// holding one across a mutation share its body.
    index: AdIndex,
    /// The reference model and the epoch it was saturated at.
    model: Option<(u64, Arc<Saturated>)>,
    /// Bumped on every mutation that can change matchmaking results
    /// (advertise/unadvertise/ontology/rule registration); match caches
    /// tag entries with it and treat a mismatch as a miss.
    epoch: u64,
    /// Stage-timing hooks (see [`Repository::set_obs`]); `None` keeps the
    /// repository observability-free for standalone use and benchmarks.
    obs: Option<ObsHooks>,
}

/// The repository-side pipeline stages, pre-registered as
/// `broker_stage_seconds{broker,stage}` histograms — but for
/// `saturation`, registered when first entered: a repository without
/// derived rules never enters it, and a histogram nobody observes reads in
/// a scrape as a stage that broke.
#[derive(Clone)]
struct ObsHooks {
    obs: Arc<Obs>,
    broker: String,
    analysis: Histogram,
    repository: Histogram,
    saturation: OnceLock<Histogram>,
    scoring: Histogram,
}

/// The facts of the [`HIERARCHY_PREDICATES`] as a taxonomy and a set of
/// ontologies stand.
fn hierarchy(taxonomy: &Taxonomy, ontologies: &BTreeMap<String, Ontology>) -> Database {
    let edges = compile_global_facts(taxonomy, ontologies.values());
    let closed = matchmaking_program().saturate(edges).expect("the base is stratified"); // lint: allow-unwrap
    closed.db().clone()
}

fn stage_histogram(obs: &Obs, broker: &str, stage: &str) -> Histogram {
    obs.registry().histogram("broker_stage_seconds", &[("broker", broker), ("stage", stage)])
}

impl Repository {
    /// A repository reasoning over the standard capability taxonomy.
    pub fn new() -> Self {
        Self::with_capability_taxonomy(standard_capability_taxonomy())
    }

    pub fn with_capability_taxonomy(capability_taxonomy: Taxonomy) -> Self {
        Repository {
            brokers: BTreeMap::new(),
            capability_taxonomy,
            ontologies: BTreeMap::new(),
            rules: None,
            index: AdIndex::default(),
            model: None,
            epoch: 0,
            obs: None,
        }
    }

    /// Attaches stage timing: advertise/unadvertise/saturation work is
    /// recorded as `broker_stage_seconds{broker,stage}` samples (stages
    /// `analysis`, `repository`, `saturation` — entered once per posted
    /// advertisement under derived rules — and `scoring` for cached
    /// matchmaking misses) plus matching child spans under whatever span
    /// is active on the handling thread.
    pub fn set_obs(&mut self, obs: &Arc<Obs>, broker: &str) {
        self.obs = Some(ObsHooks {
            obs: Arc::clone(obs),
            broker: broker.to_string(),
            analysis: stage_histogram(obs, broker, "analysis"),
            repository: stage_histogram(obs, broker, "repository"),
            saturation: OnceLock::new(),
            scoring: stage_histogram(obs, broker, "scoring"),
        });
    }

    /// Opens a pipeline stage when stage timing is attached. The timer
    /// owns its handles, so it can stay open across `&mut self` calls.
    pub(crate) fn stage(&self, name: &'static str) -> Option<StageTimer> {
        let hooks = self.obs.as_ref()?;
        let histogram = match name {
            "analysis" => &hooks.analysis,
            "repository" => &hooks.repository,
            "scoring" => &hooks.scoring,
            _ => hooks
                .saturation
                .get_or_init(|| stage_histogram(&hooks.obs, &hooks.broker, "saturation")),
        };
        Some(hooks.obs.stage(histogram, name))
    }

    /// Registers a domain ontology so the broker "can reason over
    /// class-subclasses and derived concepts relationships".
    pub fn register_ontology(&mut self, ontology: Ontology) {
        self.ontologies.insert(ontology.name.clone(), ontology);
        // An advertisement's class terms, and what the rules grant it,
        // follow the hierarchy: post every advertisement again.
        if let Some(rules) = &mut self.rules {
            rules.hierarchy = hierarchy(&self.capability_taxonomy, &self.ontologies);
        }
        self.repost();
        self.epoch += 1;
    }

    /// Posts every advertisement again, under the terms the hierarchies
    /// and the rules give it now.
    fn repost(&mut self) {
        self.index.postings.clear();
        self.index.granted.clear();
        let ads: Vec<(u32, Arc<Advertisement>)> = (self.index.ids.values())
            .filter_map(|&id| Some((id, Arc::clone(&self.index.ads[id as usize].as_ref()?.ad))))
            .collect();
        for (id, ad) in ads {
            let granted = self.grant(&ad);
            let terms = self.posted_symbols(&ad, granted.as_ref());
            self.index.post(id, &terms);
            if let Some(granted) = granted {
                self.index.granted.insert(ad.location.name.clone(), granted);
            }
        }
    }

    pub fn ontology(&self, name: &str) -> Option<&Ontology> {
        self.ontologies.get(name)
    }

    pub fn ontologies(&self) -> impl Iterator<Item = &Ontology> {
        self.ontologies.values()
    }

    pub fn capability_taxonomy(&self) -> &Taxonomy {
        &self.capability_taxonomy
    }

    /// Registers LDL rules defining *derived concepts* over the fact schema
    /// (see [`crate::compile_facts`]) — e.g. a capability implied by
    /// another capability, or a class membership derived from advertised
    /// content:
    ///
    /// ```text
    /// cap(A, polling) :- cap(A, subscription).
    /// class(A, healthcare, senior_patient) :- class(A, healthcare, patient).
    /// ```
    ///
    /// Every rule must be *agent-local* (IS016): it derives facts about one
    /// agent from that agent's own facts and the hierarchy facts only, so
    /// what the rules grant an advertisement is found by saturating its
    /// own facts, once, when it is posted — and every advertisement is
    /// posted again here. The combined rule base must remain
    /// stratifiable; this is verified here, so a successful registration
    /// can never fail later saturation.
    pub fn register_derived_rules(&mut self, rules_text: &str) -> Result<(), LdlParseError> {
        // Static analysis first: unsafe or non-local rules, undefined
        // predicates, arity clashes with the fact schema, and negation
        // cycles inside the delta all come back as rendered IS0xx
        // diagnostics.
        let report = self.analyze_derived_rules(rules_text);
        if report.has_errors() {
            let position = report
                .diagnostics
                .iter()
                .find(|d| d.severity == Severity::Error)
                .and_then(|d| d.span)
                .map(|s| s.start)
                .unwrap_or(0);
            return Err(LdlParseError { message: report.render_human(Some(rules_text)), position });
        }
        let program = parse_rules(rules_text)?;
        let mut rules = self.rules.as_ref().map_or_else(Vec::new, |r| r.rules.clone());
        rules.extend(program.rules().iter().cloned());
        // Backstop: the *combined* base must stay stratifiable — a delta
        // that is clean in isolation can still close a negative cycle
        // through the standard rules.
        let program = matchmaking_program_with(&rules)?;
        let local =
            program.rules().iter().filter(|r| !HIERARCHY_PREDICATES.contains(&&*r.head.pred));
        let local = Program::new(local.cloned().collect()).expect("a part of a stratified program"); // lint: allow-unwrap
        let hierarchy = hierarchy(&self.capability_taxonomy, &self.ontologies);
        self.rules = Some(Box::new(DerivedRules { rules, local, hierarchy }));
        self.repost();
        self.epoch += 1;
        Ok(())
    }

    /// Statically analyzes a derived-concept rule delta against the
    /// matchmaking fact schema, without registering it.
    pub fn analyze_derived_rules(&self, rules_text: &str) -> Report {
        analyze_ldl_source("derived-rules", rules_text, &matchmaking_env())
    }

    /// Statically analyzes an advertisement against everything this
    /// repository knows (taxonomy, registered ontologies, and any
    /// advertisement already registered for the same agent), without
    /// storing it.
    pub fn analyze(&self, ad: &Advertisement) -> Report {
        let mut ctx = AdContext::new()
            .with_taxonomy(&self.capability_taxonomy)
            .with_ontologies(self.ontologies.values());
        if let Some(old) = self.index.get(&ad.location.name) {
            ctx = ctx.with_registered(old);
        }
        analyze_advertisement(ad, &ctx)
    }

    /// Statically analyzes a standing service query (a subscription)
    /// against the repository's taxonomy and registered ontologies,
    /// without registering it. `origin` names the would-be subscriber.
    pub fn analyze_subscription(&self, origin: &str, query: &ServiceQuery) -> Report {
        let ctx = AdContext::new()
            .with_taxonomy(&self.capability_taxonomy)
            .with_ontologies(self.ontologies.values());
        infosleuth_analysis::analyze_service_query(origin, query, &ctx)
    }

    /// What the static analysis does not look at: that the advertisement
    /// names its agent and gives an address the transport can parse.
    pub fn validate(&self, ad: &Advertisement) -> Result<(), RepositoryError> {
        if ad.location.name.trim().is_empty() {
            return Err(RepositoryError::EmptyAgentName);
        }
        if let Err(e) = AgentAddress::parse(&ad.location.address) {
            return Err(RepositoryError::InvalidAddress {
                agent: ad.location.name.to_string(),
                address: ad.location.address.to_string(),
                reason: e.to_string(),
            });
        }
        Ok(())
    }

    /// The one admission pass, for agents and peer brokers alike:
    /// [`Repository::validate`], then [`Repository::analyze`]. Any
    /// error-severity finding (unknown capability, class or slot,
    /// unsatisfiable constraints, invalid fragment) rejects with the
    /// rendered report; warnings (e.g. IS024 subsumption) never reject.
    fn admit(&self, ad: &Advertisement) -> Result<(), RepositoryError> {
        self.validate(ad)?;
        let report = self.analyze(ad);
        if report.has_errors() {
            return Err(RepositoryError::Rejected {
                agent: ad.location.name.to_string(),
                report: report.render_human(None),
            });
        }
        Ok(())
    }

    /// Stores an advertisement (insert or update — "when an agent's set of
    /// available services changes, the agent may update its advertisement").
    ///
    /// Under derived rules the advertisement's own facts are saturated
    /// first, and it is posted with what the rules grant it.
    pub fn advertise(&mut self, ad: Advertisement) -> Result<(), RepositoryError> {
        {
            let _t = self.stage("analysis");
            self.admit(&ad)?;
        }
        let granted = self.grant(&ad);
        let _mutation = self.stage("repository");
        let ad = Arc::new(ad);
        self.withdraw(&ad.location.name);
        let terms = self.posted_symbols(&ad, granted.as_ref());
        self.index.insert(ad, &terms, granted);
        self.epoch += 1;
        Ok(())
    }

    /// Removes an agent's advertisement ("when an agent goes offline, it
    /// first unregisters itself from the broker"; the broker also removes
    /// agents whose pings fail). Returns whether it was present.
    pub fn unadvertise(&mut self, agent: &str) -> bool {
        if !self.contains_agent(agent) {
            return false;
        }
        let _mutation = self.stage("repository");
        self.withdraw(agent);
        self.epoch += 1;
        true
    }

    /// Takes `agent`'s advertisement out of the index and out of every
    /// posting it is in.
    fn withdraw(&mut self, agent: &str) {
        let Some(ad) = self.index.get(agent) else { return };
        let terms = self.posted_symbols(ad, self.index.granted.get(agent));
        self.index.remove(agent, &terms);
    }

    /// The symbols of `ad`'s [`posted_terms`](Self::posted_terms).
    fn posted_symbols(&self, ad: &Advertisement, granted: Option<&Granted>) -> Vec<u64> {
        self.posted_terms(ad, granted).map(Term::symbol).collect()
    }

    /// What the derived rules grant `ad` ([`Granted`]), `None` without
    /// rules or where they grant nothing: `ad`'s own facts and the
    /// hierarchy facts saturated under the rules that derive facts about
    /// an agent. The rules are agent-local, so that model holds exactly
    /// the facts about `ad`'s agent that the whole repository's model does.
    fn grant(&self, ad: &Advertisement) -> Option<Granted> {
        let rules = self.rules.as_ref()?;
        let _t = self.stage("saturation");
        let mut facts = compile_agent_facts(ad);
        facts.merge(&rules.hierarchy);
        let model = rules.local.saturate(facts).expect("stratified at registration"); // lint: allow-unwrap
        let agent = Const::sym(&ad.location.name);
        // A fact's names after the agent's; a string constant is in no
        // fact the reference model is probed for.
        let of_agent = |pred| {
            let names = |t: &[Const]| t[1..].iter().map(Const::as_sym).collect::<Option<Vec<_>>>();
            model.db().tuples_with_first(pred, &agent).filter_map(names).collect::<Vec<_>>()
        };
        let credit = |t: &[&str]| self.closure_class_credit(ad, t[0], t[1]);
        let provides = (of_agent("provides").into_iter())
            .filter(|t| !self.closure_provides(ad, t[0]))
            .map(|t| Grant::Provides(t[0]));
        let serves = (of_agent("serves_class").into_iter())
            .filter(|t| credit(t) != Some(ClassCredit::Serves))
            .map(|t| Grant::Serves(t[0], t[1]));
        let contributes = (of_agent("contributes_class").into_iter())
            .filter(|t| credit(t).is_none())
            .map(|t| Grant::Contributes(t[0], t[1]));
        let granted: Granted = provides.chain(serves).chain(contributes).collect();
        (!granted.is_empty()).then_some(granted)
    }

    /// The terms `ad` is posted under, its agent name aside: its agent
    /// type, languages, conversations and ontologies as advertised; each
    /// capability with its descendants in the capability taxonomy
    /// ([`satisfied_capabilities`](Self::satisfied_capabilities)); each
    /// class with its ancestors and descendants in its content record's
    /// ontology ([`satisfying_classes`](Self::satisfying_classes)); and
    /// each capability and class the rules grant it.
    ///
    /// This is where §2.1 subsumption is expanded for candidate narrowing,
    /// the subscription index and the routing digest, once, when the
    /// advertisement is posted; each of them probes a query's own terms
    /// bare ([`Term::of_query`]). Both relations are symmetric — a class
    /// `a` is in `{q} ∪ ancestors(q) ∪ descendants(q)` iff `q` is in
    /// `{a} ∪ ancestors(a) ∪ descendants(a)`, and a capability `c` is in
    /// `{q} ∪ ancestors(q)` iff `q` is in `{c} ∪ descendants(c)` — so a
    /// bare probe finds exactly the advertisements that expanding the query
    /// would.
    pub(crate) fn posted_terms<'a>(
        &'a self,
        ad: &'a Advertisement,
        granted: Option<&'a Granted>,
    ) -> impl Iterator<Item = Term<'a>> + 'a {
        let granted = granted.into_iter().flatten().filter_map(|grant| match *grant {
            Grant::Provides(cap) => Some(Term::Capability(cap)),
            Grant::Contributes(onto, class) => Some(Term::Class(onto, class)),
            Grant::Serves(..) => None,
        });
        let (syntactic, semantic) = (&ad.syntactic, &ad.semantic);
        let capabilities = semantic
            .capabilities
            .iter()
            .flat_map(|cap| self.satisfied_capabilities(cap.as_str()).map(Term::Capability));
        let content = semantic.content.iter().flat_map(move |c| {
            let classes = c.classes.iter().flat_map(move |class| {
                self.satisfying_classes(&c.ontology, class)
                    .map(move |related| Term::Class(&c.ontology, related))
            });
            std::iter::once(Term::Ontology(&c.ontology)).chain(classes)
        });
        std::iter::once(Term::AgentType(&ad.location.agent_type))
            .chain(syntactic.query_languages.iter().map(|lang| Term::QueryLanguage(lang)))
            .chain(syntactic.communication_languages.iter().map(|l| Term::CommunicationLanguage(l)))
            .chain(semantic.conversations.iter().map(Term::Conversation))
            .chain(capabilities)
            .chain(content)
            .chain(granted)
    }

    /// Stores a peer broker's advertisement (Fig. 13 content).
    pub fn advertise_broker(&mut self, ad: BrokerAdvertisement) -> Result<(), RepositoryError> {
        self.admit(&ad.base)?;
        // Broker advertisements do not take part in agent matchmaking.
        self.brokers.insert(ad.base.location.name.to_string(), ad);
        Ok(())
    }

    pub fn unadvertise_broker(&mut self, broker: &str) -> bool {
        self.brokers.remove(broker).is_some()
    }

    pub fn advertisement(&self, agent: &str) -> Option<&Advertisement> {
        self.index.get(agent).map(|a| &**a)
    }

    /// The shared handle for an agent's advertisement — what a caller
    /// keeps across a mutation instead of cloning the advertisement body.
    pub fn advertisement_arc(&self, agent: &str) -> Option<&Arc<Advertisement>> {
        self.index.get(agent)
    }

    pub fn contains_agent(&self, agent: &str) -> bool {
        self.index.get(agent).is_some()
    }

    /// Every advertisement, in agent-name order. The index keeps them by
    /// id, so this sorts a list of references on each call: it is for
    /// renderings and the fact compiler, not for the ask path.
    pub fn agents(&self) -> impl Iterator<Item = &Advertisement> {
        let mut ads: Vec<&Advertisement> = self.index.iter().map(|a| &**a).collect();
        ads.sort_unstable_by(|a, b| a.location.name.cmp(&b.location.name));
        ads.into_iter()
    }

    /// Every agent name, in order.
    pub fn agent_names(&self) -> impl Iterator<Item = &str> {
        self.agents().map(Advertisement::agent_name)
    }

    pub fn broker_advertisements(&self) -> impl Iterator<Item = &BrokerAdvertisement> {
        self.brokers.values()
    }

    pub fn peer_brokers(&self) -> Vec<String> {
        self.brokers.keys().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total *advertised* bytes — the unit the simulator charges reasoning
    /// time against (1 second per megabyte of advertisements), not heap:
    /// what the repository keeps resident per advertisement is several
    /// times this and is bounded by `tests/footprint.rs`.
    pub fn approx_size_bytes(&self) -> usize {
        self.index.iter().map(|a| a.approx_size_bytes()).sum()
    }

    /// The reference model: the whole repository compiled into LDL facts
    /// ([`compile_facts`]) and saturated under the matchmaking base and the
    /// derived rules, from scratch, once per epoch. Matchmaking never asks
    /// for it; [`Matchmaker::match_query_linear`](crate::Matchmaker::match_query_linear)
    /// scores off it, which makes it the oracle the posted terms are held to.
    pub fn saturated(&mut self) -> Arc<Saturated> {
        if let Some((epoch, model)) = &self.model {
            if *epoch == self.epoch {
                return Arc::clone(model);
            }
        }
        let facts =
            compile_facts(self.agents(), &self.capability_taxonomy, self.ontologies.values());
        let rules = self.rules.as_ref().map_or(&[][..], |r| &r.rules);
        let program = matchmaking_program_with(rules).expect("stratified at registration"); // lint: allow-unwrap
        let model = Arc::new(program.saturate(facts).expect("stratified at registration")); // lint: allow-unwrap
        self.model = Some((self.epoch, Arc::clone(&model)));
        model
    }

    /// The repository's mutation epoch: bumped by every mutation that can
    /// change matchmaking results. Cache entries tagged with an older
    /// epoch are stale.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The advertised classes that satisfy a request for `class` of
    /// `ontology`: the class itself, its ancestors (full coverage) and its
    /// descendants (partial contribution) in that ontology's hierarchy —
    /// for an ontology nobody registered, the class alone. The relation is
    /// symmetric, so this is equally the set of requested classes an
    /// advertisement of `class` satisfies. It is the LDL base's
    /// `contributes_class`, read off the hierarchy's closure; the posted
    /// terms and scoring (through `class_credit`) are sound only while
    /// they agree on it.
    pub fn satisfying_classes<'a>(
        &'a self,
        ontology: &str,
        class: &'a str,
    ) -> impl Iterator<Item = &'a str> + 'a {
        let (above, below) = self.related_classes(ontology, class);
        std::iter::once(class).chain(above.iter().chain(below).map(|c| c.as_str()))
    }

    /// The strict ancestors and strict descendants of `class` in a
    /// registered `ontology`'s hierarchy.
    fn related_classes(&self, ontology: &str, class: &str) -> (&[Text], &[Text]) {
        self.ontologies.get(ontology).map_or((&[], &[]), |o| {
            let hierarchy = o.hierarchy();
            (hierarchy.ancestors(class), hierarchy.descendants(class))
        })
    }

    /// The requested capabilities an advertisement of `capability`
    /// satisfies: itself or any descendant — the LDL base's `provides`,
    /// read off the taxonomy's closure from the advertiser's side.
    pub fn satisfied_capabilities<'a>(
        &'a self,
        capability: &'a str,
    ) -> impl Iterator<Item = &'a str> + 'a {
        let below = self.capability_taxonomy.descendants(capability);
        std::iter::once(capability).chain(below.iter().map(|c| c.as_str()))
    }

    /// Whether `ad` provides a requested `capability`, as the LDL base and
    /// the derived rules grant it: some capability it advertises is the
    /// requested one or an ancestor of it, or the rules grant it.
    pub(crate) fn provides(&self, ad: &Advertisement, capability: &str) -> bool {
        self.closure_provides(ad, capability)
            || self.granted(ad).is_some_and(|granted| {
                granted
                    .iter()
                    .any(|grant| matches!(grant, Grant::Provides(cap) if *cap == capability))
            })
    }

    /// What `ad` holds of a requested `class` of `ontology`, as the LDL
    /// base and the derived rules grant it — per *(agent, ontology)*, so
    /// every content record of that ontology counts, whichever one is
    /// being scored.
    pub(crate) fn class_credit(
        &self,
        ad: &Advertisement,
        ontology: &str,
        class: &str,
    ) -> Option<ClassCredit> {
        let closure = self.closure_class_credit(ad, ontology, class);
        let Some(granted) = self.granted(ad) else { return closure };
        let serves = granted
            .iter()
            .any(|g| matches!(g, Grant::Serves(o, c) if (*o, *c) == (ontology, class)));
        let contributes = granted
            .iter()
            .any(|g| matches!(g, Grant::Contributes(o, c) if (*o, *c) == (ontology, class)));
        if closure == Some(ClassCredit::Serves) || serves {
            Some(ClassCredit::Serves)
        } else if closure.is_some() || contributes {
            Some(ClassCredit::Contributes)
        } else {
            None
        }
    }

    /// What the rules granted `ad` when it was posted.
    pub(crate) fn granted(&self, ad: &Advertisement) -> Option<&Granted> {
        self.index.granted.get(&ad.location.name)
    }

    /// [`provides`](Self::provides) off the capability taxonomy's closure
    /// alone.
    fn closure_provides(&self, ad: &Advertisement, capability: &str) -> bool {
        let above = self.capability_taxonomy.ancestors(capability);
        ad.semantic
            .capabilities
            .iter()
            .any(|adv| adv.0 == capability || names(above, adv.0.as_bytes()))
    }

    /// [`class_credit`](Self::class_credit) off the class hierarchy's
    /// closure alone.
    fn closure_class_credit(
        &self,
        ad: &Advertisement,
        ontology: &str,
        class: &str,
    ) -> Option<ClassCredit> {
        let (above, below) = self.related_classes(ontology, class);
        let advertised = || {
            let of_ontology = ad.semantic.content.iter().filter(|c| c.ontology == ontology);
            of_ontology.flat_map(|c| &c.classes)
        };
        if advertised().any(|adv| adv == class || names(above, adv.as_bytes())) {
            Some(ClassCredit::Serves)
        } else if advertised().any(|adv| names(below, adv.as_bytes())) {
            Some(ClassCredit::Contributes)
        } else {
            None
        }
    }

    /// The narrowing index [`Matchmaker`](crate::Matchmaker) intersects.
    pub(crate) fn ad_index(&self) -> &AdIndex {
        &self.index
    }
}

impl Default for Repository {
    fn default() -> Self {
        Repository::new()
    }
}

impl fmt::Debug for Repository {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Repository")
            .field("agents", &self.agent_names().collect::<Vec<_>>())
            .field("brokers", &self.brokers.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_constraint::{Conjunction, Predicate};
    use infosleuth_ontology::{
        healthcare_ontology, AgentLocation, AgentType, Capability, Fragment, OntologyContent,
        SemanticInfo, SyntacticInfo,
    };

    fn valid_ad(name: &str) -> Advertisement {
        Advertisement::new(AgentLocation::new(name, "tcp://h:1000", AgentType::Resource))
            .with_syntactic(SyntacticInfo::sql_kqml())
            .with_semantic(
                SemanticInfo::default()
                    .with_capabilities([Capability::relational_query_processing()]),
            )
    }

    #[test]
    fn advertise_unadvertise_round_trip() {
        let mut repo = Repository::new();
        repo.advertise(valid_ad("ra1")).unwrap();
        assert!(repo.contains_agent("ra1"));
        assert_eq!(repo.len(), 1);
        assert!(repo.unadvertise("ra1"));
        assert!(!repo.unadvertise("ra1"));
        assert!(repo.is_empty());
    }

    #[test]
    fn update_replaces_advertisement() {
        let mut repo = Repository::new();
        repo.advertise(valid_ad("ra1")).unwrap();
        let mut updated = valid_ad("ra1");
        updated.properties.estimated_response_time = Some(9.0);
        repo.advertise(updated).unwrap();
        assert_eq!(repo.len(), 1);
        assert_eq!(
            repo.advertisement("ra1").unwrap().properties.estimated_response_time,
            Some(9.0)
        );
    }

    #[test]
    fn validation_rejects_bad_advertisements() {
        let repo = Repository::new();
        let mut bad = valid_ad(" ");
        assert_eq!(repo.validate(&bad), Err(RepositoryError::EmptyAgentName));
        bad = valid_ad("x");
        bad.location.address = "nowhere".into();
        assert!(matches!(repo.validate(&bad), Err(RepositoryError::InvalidAddress { .. })));
        bad = valid_ad("x");
        bad.semantic.capabilities.insert(Capability::new("quantum-foo"));
        assert_rejected(&mut Repository::new(), bad, "IS023");
    }

    /// `advertise` turns `ad` away with `code` in the rendered report.
    fn assert_rejected(repo: &mut Repository, ad: Advertisement, code: &str) {
        let name = ad.location.name.clone();
        let err = repo.advertise(ad).unwrap_err();
        let RepositoryError::Rejected { report, .. } = &err else {
            panic!("expected an analysis rejection, got {err:?}");
        };
        assert!(report.contains(code), "missing {code} in:\n{report}");
        assert!(!repo.contains_agent(&name));
    }

    #[test]
    fn validation_rejects_unsatisfiable_constraints() {
        let mut bad = valid_ad("x");
        bad.semantic.content.push(OntologyContent::new("healthcare").with_constraints(
            Conjunction::from_predicates(vec![Predicate::gt("age", 10), Predicate::lt("age", 5)]),
        ));
        assert_rejected(&mut Repository::new(), bad, "IS020");
    }

    #[test]
    fn validation_checks_fragments_against_known_ontologies() {
        let mut repo = Repository::new();
        repo.register_ontology(healthcare_ontology());
        let mut bad = valid_ad("x");
        bad.semantic.content.push(
            OntologyContent::new("healthcare")
                .with_fragment("patient", Fragment::vertical(["no_such_slot"])),
        );
        assert_rejected(&mut repo, bad, "IS025");
        // Fragments of unknown ontologies pass through (the broker cannot
        // check what it does not know).
        let mut unknown = valid_ad("y");
        unknown.semantic.content.push(
            OntologyContent::new("mystery")
                .with_fragment("thing", Fragment::vertical(["whatever"])),
        );
        repo.advertise(unknown).unwrap();
    }

    #[test]
    fn saturation_cache_invalidated_on_change() {
        let mut repo = Repository::new();
        repo.advertise(valid_ad("ra1")).unwrap();
        let s1 = repo.saturated();
        let s1_again = repo.saturated();
        assert!(Arc::ptr_eq(&s1, &s1_again));
        repo.advertise(valid_ad("ra2")).unwrap();
        let s2 = repo.saturated();
        assert!(!Arc::ptr_eq(&s1, &s2));
    }

    /// Matching never builds a model of the repository; the reference one
    /// is the whole repository compiled and saturated from scratch, once
    /// per epoch.
    #[test]
    fn no_fact_base_until_a_model_is_asked_for() {
        let mut repo = Repository::new();
        repo.register_ontology(healthcare_ontology());
        repo.advertise(valid_ad("ra1")).unwrap();
        repo.advertise(valid_ad("ra1")).unwrap();
        let q = ServiceQuery::any().with_capability(Capability::select());
        let mm = crate::Matchmaker::default();
        assert_eq!(mm.match_query_mut(&mut repo, &q).len(), 1);
        assert_eq!(mm.match_query_cached(&mut repo, &crate::MatchCache::default(), &q).len(), 1);
        assert!(repo.unadvertise("ra1"));
        assert!(repo.model.is_none());
        repo.advertise(valid_ad("ra2")).unwrap();
        let model = repo.saturated();
        assert!(model.holds(&infosleuth_ldl::parse_query("provides(ra2, select)").unwrap()));
        let compiled = compile_facts(repo.agents(), repo.capability_taxonomy(), repo.ontologies());
        assert_eq!(*model, matchmaking_program().saturate(compiled).unwrap());
        assert!(Arc::ptr_eq(&model, &repo.saturated()), "memoized while the epoch stands");
        repo.advertise(valid_ad("ra3")).unwrap();
        assert!(repo
            .saturated()
            .holds(&infosleuth_ldl::parse_query("provides(ra3, select)").unwrap()));
    }

    /// The "saturation" stage is entered once per advertisement posted
    /// under derived rules — on advertise, and for every advertisement
    /// when the hierarchy changes — and never on an ask: a repository
    /// with rules builds no model of itself either.
    #[test]
    fn saturation_is_a_stage_of_repositories_with_derived_rules_only() {
        use infosleuth_obs::{RingSink, SpanSink};
        let obs = Obs::new();
        let ring = Arc::new(RingSink::new(64));
        obs.tracer().add_sink(Arc::clone(&ring) as Arc<dyn SpanSink>);
        let stages = |ring: &RingSink| -> Vec<String> {
            ring.drain().into_iter().map(|record| record.name).collect()
        };
        let mut repo = Repository::new();
        repo.set_obs(&obs, "broker-1");
        let cache = crate::MatchCache::default();
        let mm = crate::Matchmaker::default();
        let q = ServiceQuery::any().with_capability(Capability::subscription());

        repo.advertise(valid_ad("ra1")).unwrap();
        assert!(mm.match_query_cached(&mut repo, &cache, &q).is_empty());
        assert!(repo.unadvertise("ra1"));
        assert_eq!(stages(&ring), ["analysis", "repository", "scoring", "repository"]);

        repo.register_derived_rules("cap(A, subscription) :- agent(A, resource).").unwrap();
        repo.advertise(valid_ad("ra1")).unwrap();
        assert_eq!(mm.match_query_cached(&mut repo, &cache, &q).len(), 1);
        repo.advertise(valid_ad("ra2")).unwrap();
        assert_eq!(mm.match_query_cached(&mut repo, &cache, &q).len(), 2);
        let advertise = ["analysis", "saturation", "repository"];
        assert_eq!(
            stages(&ring),
            [&advertise[..], &["scoring"], &advertise, &["scoring"]].concat()
        );
        repo.register_ontology(healthcare_ontology());
        assert_eq!(stages(&ring), ["saturation", "saturation"]);
        assert!(repo.model.is_none());
    }

    #[test]
    fn derived_concept_rules_extend_the_model() {
        let mut repo = Repository::new();
        // "An agent that accepts subscriptions can be polled."
        repo.register_derived_rules("cap(A, polling) :- cap(A, subscription).").unwrap();
        let mut ad = valid_ad("ra1");
        ad.semantic.capabilities.insert(infosleuth_ontology::Capability::subscription());
        repo.advertise(ad).unwrap();
        let model = repo.saturated();
        let goals = infosleuth_ldl::parse_query("provides(ra1, polling)").unwrap();
        assert!(model.holds(&goals));
        // Bad rules are rejected at registration.
        assert!(repo.register_derived_rules("p(X, Y) :- q(X).").is_err());
        // Rules that break stratification *in combination with the standard
        // base* are also rejected at registration.
        assert!(repo
            .register_derived_rules("cap(A, x) :- agent(A, resource), not provides(A, y).")
            .is_err());
    }

    #[test]
    fn analysis_rejects_unknown_class_with_rendered_diagnostic() {
        let mut repo = Repository::new();
        repo.register_ontology(healthcare_ontology());
        let mut bad = valid_ad("x");
        bad.semantic.content.push(
            OntologyContent::new("healthcare")
                .with_classes(["martian"])
                .with_slots(["patient.blood_type"]),
        );
        let err = repo.advertise(bad).unwrap_err();
        let RepositoryError::Rejected { agent, report } = &err else {
            panic!("expected analysis rejection, got {err:?}");
        };
        assert_eq!(agent, "x");
        assert!(report.contains("IS021"), "missing IS021 in:\n{report}");
        assert!(report.contains("IS022"), "missing IS022 in:\n{report}");
        assert!(!repo.contains_agent("x"));
        // The rendered report travels with Display — the broker's `sorry`
        // path forwards exactly this text.
        assert!(err.to_string().contains("IS021"));
    }

    #[test]
    fn analysis_warnings_do_not_reject() {
        let mut repo = Repository::new();
        repo.register_ontology(healthcare_ontology());
        let mut ad = valid_ad("ra5");
        ad.semantic.content.push(
            OntologyContent::new("healthcare").with_classes(["patient"]).with_constraints(
                Conjunction::from_predicates(vec![Predicate::between("patient.age", 43, 75)]),
            ),
        );
        repo.advertise(ad.clone()).unwrap();
        // Re-advertising the same content is subsumed (IS024) — a warning,
        // so the update is still accepted.
        let report = repo.analyze(&ad);
        assert!(!report.has_errors());
        assert!(report.codes().contains(&infosleuth_analysis::Code::SubsumedAdvertisement));
        repo.advertise(ad).unwrap();
        assert!(repo.contains_agent("ra5"));
    }

    #[test]
    fn derived_rule_rejections_carry_diagnostics() {
        let mut repo = Repository::new();
        // Undefined predicate in the body → IS011.
        let err = repo.register_derived_rules("cap(A, x) :- mystery(A).").unwrap_err();
        assert!(err.message.contains("IS011"), "{}", err.message);
        // Arity clash with the fact schema → IS013.
        let err = repo.register_derived_rules("cap(A) :- agent(A, resource).").unwrap_err();
        assert!(err.message.contains("IS013"), "{}", err.message);
        // Unsafe head variable → IS002.
        let err = repo.register_derived_rules("cap(A, X) :- agent(A, resource).").unwrap_err();
        assert!(err.message.contains("IS002"), "{}", err.message);
        // Another agent's facts → IS016: what a rule grants is found from
        // one advertisement, when it is posted.
        let err = repo
            .register_derived_rules("cap(A, popular) :- agent(A, resource), cap(B, subscription).")
            .unwrap_err();
        assert!(err.message.contains("IS016"), "{}", err.message);
    }

    #[test]
    fn epoch_bumps_on_every_result_changing_mutation() {
        let mut repo = Repository::new();
        let e0 = repo.epoch();
        repo.advertise(valid_ad("ra1")).unwrap();
        let e1 = repo.epoch();
        assert!(e1 > e0);
        assert!(repo.unadvertise("ra1"));
        let e2 = repo.epoch();
        assert!(e2 > e1);
        repo.register_ontology(healthcare_ontology());
        let e3 = repo.epoch();
        assert!(e3 > e2);
        repo.register_derived_rules("cap(A, polling) :- cap(A, subscription).").unwrap();
        assert!(repo.epoch() > e3);
        // Reads and failed mutations leave the epoch alone.
        let before = repo.epoch();
        let _ = repo.saturated();
        assert!(!repo.unadvertise("nobody"));
        assert!(repo.advertise(valid_ad(" ")).is_err());
        assert_eq!(repo.epoch(), before);
    }

    /// Every posting and hull column rendered by agent name, so two
    /// indexes that assigned ids differently still compare. Panics on a
    /// bit or a hull left behind at a free id, and on an untrimmed bitmap.
    fn by_name(index: &AdIndex) -> BTreeMap<String, BTreeMap<String, (u64, u64)>> {
        let name = |id: usize| {
            let ad = &index.ads[id].as_ref().unwrap_or_else(|| panic!("id {id} is free")).ad;
            assert_eq!(index.ids[&ad.location.name] as usize, id);
            ad.location.name.to_string()
        };
        let posting = |set: &IdSet| {
            assert_ne!(set.0.last(), Some(&0), "untrimmed bitmap");
            assert!(!set.0.is_empty(), "empty posting kept");
            set_ids(&set.0).map(|id| (name(id), (0, 0))).collect::<BTreeMap<_, _>>()
        };
        let mut out = BTreeMap::new();
        for (agent, granted) in &index.granted {
            assert!(index.ids.contains_key(agent), "granted {agent} outlived its advertisement");
            out.insert(format!("granted {agent} {granted:?}"), BTreeMap::new());
        }
        for (term, set) in &index.postings {
            out.insert(format!("term {term:016x}"), posting(set));
        }
        for (slot, column) in &index.hulls {
            let hulls: BTreeMap<_, _> = column
                .bounds
                .iter()
                .enumerate()
                .filter(|(_, hull)| **hull != OPEN)
                .map(|(id, (lo, hi))| (name(id), (lo.to_bits(), hi.to_bits())))
                .collect();
            assert_eq!(hulls.len(), column.constrained, "hull count of {slot}");
            out.insert(format!("hull {slot}"), hulls);
        }
        let live = index.ads.iter().flatten().count();
        assert_eq!(index.ids.len(), live);
        assert_eq!(index.free.len() + live, index.ads.len());
        assert!(index.free.iter().all(|id| index.ads[*id as usize].is_none()));
        out
    }

    #[test]
    fn ad_index_under_churn_equals_one_built_from_scratch() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut repo = Repository::new();
        repo.register_ontology(healthcare_ontology());
        for step in 0..600 {
            if step == 300 {
                // Halfway, a rule: every advertisement is posted again, and
                // those with `subscription` are granted `polling`.
                repo.register_derived_rules("cap(A, polling) :- cap(A, subscription).").unwrap();
            }
            let name = format!("ra{}", below(90));
            if below(3) == 0 {
                repo.unadvertise(&name);
                continue;
            }
            // Zero to two content records, each with or without a window on
            // one of two slots: hull slots appear, widen and vanish.
            let mut ad = valid_ad(&name);
            if below(2) == 0 {
                ad.semantic.capabilities.insert(Capability::subscription());
            }
            if below(3) == 0 {
                ad.location.agent_type = AgentType::MultiResourceQuery;
                ad.syntactic = SyntacticInfo::new(["SQL 2.0", "LDL"], ["CORBA"]);
            }
            for _ in 0..below(3) {
                let mut content = OntologyContent::new("healthcare").with_classes([[
                    "patient",
                    "diagnosis",
                    "podiatrist",
                ][below(3) as usize]]);
                if below(4) > 0 {
                    let lo = below(80) as i64;
                    content = content.with_constraints(Conjunction::from_predicates(vec![
                        Predicate::between(
                            ["patient.age", "diagnosis.cost"][below(2) as usize],
                            lo,
                            lo + 10,
                        ),
                    ]));
                }
                ad.semantic.content.push(content);
            }
            repo.advertise(ad).unwrap();
            if step % 50 == 0 {
                let mut fresh = AdIndex::default();
                for ad in repo.index.iter() {
                    let granted = repo.grant(ad);
                    let terms = repo.posted_symbols(ad, granted.as_ref());
                    fresh.insert(Arc::clone(ad), &terms, granted);
                }
                assert_eq!(by_name(&repo.index), by_name(&fresh), "after step {step}");
            }
        }
        assert!(!repo.index.free.is_empty() && !repo.index.hulls.is_empty(), "churn too tame");
        assert!(!repo.index.granted.is_empty(), "the rule granted nothing");
        // Emptied out, nothing is left behind.
        let mut drained = repo.clone();
        assert!(drained.index == repo.index, "clone carries the index");
        for name in repo.agent_names() {
            drained.unadvertise(name);
        }
        assert!(by_name(&drained.index).is_empty());
    }

    /// `age > 40` in one record and `age < 60` in the other: each record
    /// has a hull, and their union is unbounded both ways — written into
    /// the column as what a free id reads as, yet counted in and out.
    #[test]
    fn a_hull_that_unions_to_unbounded_is_counted_out_with_its_advertisement() {
        let one_sided = |p: Predicate| {
            OntologyContent::new("healthcare")
                .with_classes(["patient"])
                .with_constraints(Conjunction::from_predicates(vec![p]))
        };
        let mut ad = valid_ad("ra1");
        ad.semantic.content = vec![
            one_sided(Predicate::gt("patient.age", 40)),
            one_sided(Predicate::lt("patient.age", 60)),
        ];
        let mut repo = Repository::new();
        repo.register_ontology(healthcare_ontology());
        repo.advertise(ad).unwrap();
        assert_eq!(repo.index.complete_hulls().collect::<Vec<_>>(), [("patient.age", OPEN)]);
        repo.advertise(valid_ad("ra2")).unwrap();
        assert_eq!(repo.index.complete_hulls().count(), 0, "ra2 is open on every slot");
        assert!(repo.unadvertise("ra1"));
        assert!(repo.index.hulls.is_empty(), "the column goes with its last advertisement");
        assert_eq!(repo.index.complete_hulls().count(), 0);
    }

    #[test]
    fn broker_advertisements_are_separate() {
        let mut repo = Repository::new();
        let b = BrokerAdvertisement::new(Advertisement::new(AgentLocation::new(
            "b2",
            "tcp://h:2000",
            AgentType::Broker,
        )));
        repo.advertise_broker(b).unwrap();
        assert_eq!(repo.peer_brokers(), vec!["b2"]);
        assert!(repo.is_empty()); // not an agent advertisement
        assert!(repo.unadvertise_broker("b2"));
        assert!(!repo.unadvertise_broker("b2"));
    }
}
