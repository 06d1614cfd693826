//! The broker repository (Figures 3–4).
//!
//! "One of the primary jobs of a broker is to maintain a repository
//! containing current and correct information about operational agents and
//! the services they can provide." Advertisements are validated on receipt
//! ("the broker validates and translates the advertisement into a format
//! that its reasoning engine can understand and asserts it in its
//! repository") and compiled into LDL facts on demand.

use crate::facts::{compile_agent_facts, compile_facts, matchmaking_env, matchmaking_program_with};
use crate::sub_index::ad_slot_hulls;
use infosleuth_agent::AgentAddress;
use infosleuth_analysis::{analyze_advertisement, analyze_ldl_source, AdContext, Report, Severity};
use infosleuth_kqml::Text;
use infosleuth_ldl::{parse_rules, Database, LdlParseError, Program, Rule, Saturated};
use infosleuth_obs::{Histogram, Obs, StageTimer};
use infosleuth_ontology::{
    standard_capability_taxonomy, Advertisement, AgentType, BrokerAdvertisement, ConversationType,
    Ontology, ServiceQuery, Sym, Taxonomy,
};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;
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

/// Counters for how the cached saturated model has been maintained —
/// useful for verifying that a churn workload actually stays on the
/// incremental path. All zero while no fact base exists.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Cached model patched in place by delta saturation / DRed.
    pub incremental_updates: u64,
    /// Model rebuilt from the full EDB (cold cache or invalidation).
    pub full_recomputes: u64,
    /// Incremental maintenance refused (negation in derived rules) and the
    /// cache was dropped instead.
    pub fallbacks: u64,
}

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
fn names(run: &[Sym], name: &[u8]) -> bool {
    run.binary_search_by(|held| held.as_str().as_bytes().cmp(name)).is_ok()
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

/// Removes `id` from the posting under `key`, dropping an emptied posting.
fn unpost<K, Q>(map: &mut HashMap<K, IdSet>, key: &Q, id: u32)
where
    K: Borrow<Q> + Hash + Eq,
    Q: Hash + Eq + ?Sized,
{
    if let Some(set) = map.get_mut(key) {
        set.remove(id);
        if set.0.is_empty() {
            map.remove(key);
        }
    }
}

/// The postings of one ontology: every advertisement with a content
/// record for it, and those per advertised class.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct OntologyPostings {
    any: IdSet,
    by_class: HashMap<Text, IdSet>,
}

impl OntologyPostings {
    pub(crate) fn any(&self) -> &IdSet {
        &self.any
    }

    pub(crate) fn class(&self, class: &str) -> Option<&IdSet> {
        self.by_class.get(class)
    }
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

/// One key the index posts advertisements under: an agent name or a value
/// of one of the seven posting dimensions. A posting lives exactly as long
/// as some advertisement holds its term, so [`AdIndex::terms`] is the
/// repository's vocabulary — what the routing digest summarizes.
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

/// The narrowing index over the advertisements, maintained on every
/// advertise/unadvertise so matchmaking intersects machine words instead
/// of scanning the repository. It is also the repository's one store of
/// advertisements: each holds a dense `u32` id (recycled on unadvertise),
/// found by agent name; the seven posting dimensions are bitmaps over
/// those ids, and each constrained slot has a column of per-advertisement
/// hulls filled by [`ad_slot_hulls`]. Every key is a [`Text`], so a name
/// of up to 22 bytes is held in its map entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct AdIndex {
    ids: HashMap<Text, u32>,
    /// Advertisement by id; `None` marks an id on the free list.
    ads: Vec<Option<Arc<Advertisement>>>,
    free: Vec<u32>,
    by_agent_type: HashMap<AgentType, IdSet>,
    by_query_language: HashMap<Text, IdSet>,
    by_communication_language: HashMap<Text, IdSet>,
    by_capability: HashMap<Text, IdSet>,
    by_conversation: HashMap<ConversationType, IdSet>,
    by_ontology: HashMap<Text, OntologyPostings>,
    hulls: HashMap<Text, HullColumn>,
}

impl AdIndex {
    fn insert(&mut self, ad: Arc<Advertisement>) {
        let id = self.free.pop().unwrap_or_else(|| {
            let id = u32::try_from(self.ads.len()).expect("fewer than 2^32 ads"); // lint: allow-unwrap
            self.ads.push(None);
            id
        });
        self.ids.insert(ad.location.name.clone(), id);
        self.by_agent_type.entry(ad.location.agent_type.clone()).or_default().insert(id);
        for lang in &ad.syntactic.query_languages {
            self.by_query_language.entry(lang.clone()).or_default().insert(id);
        }
        for lang in &ad.syntactic.communication_languages {
            self.by_communication_language.entry(lang.clone()).or_default().insert(id);
        }
        for c in &ad.semantic.capabilities {
            self.by_capability.entry(c.0.clone()).or_default().insert(id);
        }
        for c in &ad.semantic.conversations {
            self.by_conversation.entry(c.clone()).or_default().insert(id);
        }
        for content in &ad.semantic.content {
            let postings = self.by_ontology.entry(content.ontology.clone()).or_default();
            postings.any.insert(id);
            for class in &content.classes {
                postings.by_class.entry(class.clone()).or_default().insert(id);
            }
        }
        for (slot, hull) in ad_slot_hulls(&ad) {
            let column = self.hulls.entry(Text::from(slot)).or_default();
            if column.bounds.len() <= id as usize {
                column.bounds.resize(id as usize + 1, OPEN);
            }
            column.bounds[id as usize] = hull;
            column.constrained += 1;
        }
        self.ads[id as usize] = Some(ad);
    }

    /// The advertisement stored for `agent`.
    fn get(&self, agent: &str) -> Option<&Arc<Advertisement>> {
        let id = *self.ids.get(agent)?;
        self.ads[id as usize].as_ref()
    }

    /// Every stored advertisement, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Arc<Advertisement>> {
        self.ads.iter().flatten()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Takes `agent`'s advertisement out of the index, if it holds one.
    fn remove(&mut self, agent: &str) -> Option<Arc<Advertisement>> {
        let id = self.ids.remove(agent)?;
        let ad = self.ads[id as usize].take()?;
        self.free.push(id);
        unpost(&mut self.by_agent_type, &ad.location.agent_type, id);
        for lang in &ad.syntactic.query_languages {
            unpost(&mut self.by_query_language, lang.as_str(), id);
        }
        for lang in &ad.syntactic.communication_languages {
            unpost(&mut self.by_communication_language, lang.as_str(), id);
        }
        for c in &ad.semantic.capabilities {
            unpost(&mut self.by_capability, c.as_str(), id);
        }
        for c in &ad.semantic.conversations {
            unpost(&mut self.by_conversation, c, id);
        }
        for content in &ad.semantic.content {
            let Some(postings) = self.by_ontology.get_mut(&content.ontology) else { continue };
            postings.any.remove(id);
            for class in &content.classes {
                unpost(&mut postings.by_class, class.as_str(), id);
            }
            if postings.any.0.is_empty() {
                self.by_ontology.remove(&content.ontology);
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

    /// Advertisements of agent type `t`.
    pub(crate) fn agent_type(&self, t: &AgentType) -> Option<&IdSet> {
        self.by_agent_type.get(t)
    }

    /// Advertisements speaking query language `lang`.
    pub(crate) fn query_language(&self, lang: &str) -> Option<&IdSet> {
        self.by_query_language.get(lang)
    }

    /// Advertisements speaking communication language `lang`.
    pub(crate) fn communication_language(&self, lang: &str) -> Option<&IdSet> {
        self.by_communication_language.get(lang)
    }

    /// Advertisements advertising capability `cap` (exact, pre-subsumption).
    pub(crate) fn capability(&self, cap: &str) -> Option<&IdSet> {
        self.by_capability.get(cap)
    }

    /// Advertisements supporting conversation type `conv`.
    pub(crate) fn conversation(&self, conv: &ConversationType) -> Option<&IdSet> {
        self.by_conversation.get(conv)
    }

    /// Advertisements with a content record for ontology `onto`.
    pub(crate) fn ontology(&self, onto: &str) -> Option<&OntologyPostings> {
        self.by_ontology.get(onto)
    }

    /// The hull column of `slot`, when any advertisement holds a hull on it.
    pub(crate) fn hull_column(&self, slot: &str) -> Option<&HullColumn> {
        self.hulls.get(slot)
    }

    /// Every live id as a bitmap — the start of a narrowing no posting
    /// dimension took part in.
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
    pub(crate) fn ads_in(&self, words: &[u64]) -> Vec<&Advertisement> {
        set_ids(words)
            .map(|id| &**self.ads[id].as_ref().expect("posted ids are live")) // lint: allow-unwrap
            .collect()
    }

    /// Every distinct term some advertisement is posted under, each once.
    pub(crate) fn terms(&self) -> impl Iterator<Item = Term<'_>> {
        let content = self.by_ontology.iter().flat_map(|(onto, postings)| {
            let classes = postings.by_class.keys().map(move |class| Term::Class(onto, class));
            std::iter::once(Term::Ontology(onto)).chain(classes)
        });
        (self.ids.keys().map(|name| Term::Name(name)))
            .chain(self.by_agent_type.keys().map(Term::AgentType))
            .chain(self.by_query_language.keys().map(|lang| Term::QueryLanguage(lang)))
            .chain(
                self.by_communication_language.keys().map(|lang| Term::CommunicationLanguage(lang)),
            )
            .chain(self.by_conversation.keys().map(Term::Conversation))
            .chain(self.by_capability.keys().map(|cap| Term::Capability(cap)))
            .chain(content)
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

/// The LDL side of a repository: the compiled extensional database, the
/// rule program and its saturated model. Built the first time something
/// asks for one of them and from then on kept in step with every mutation:
/// advertise/unadvertise patch the EDB and the model incrementally (delta
/// saturation for assertions, delete-and-rederive for retractions)
/// instead of invalidating the model, falling back to a full recompute
/// when the rule base makes incremental maintenance unsound.
#[derive(Clone)]
struct FactBase {
    edb: Database,
    /// The standard matchmaking base plus the derived rules.
    program: Arc<Program>,
    /// `None` until first asked for, and after an invalidation.
    model: Option<Arc<Saturated>>,
    stats: MaintenanceStats,
}

impl FactBase {
    /// Applies one advertisement's fact delta to the EDB and to the model,
    /// when there is one to patch — otherwise the next
    /// [`Repository::saturated`] call recomputes from the (already updated)
    /// EDB. When incremental maintenance is refused (negation in derived
    /// rules), the model is dropped instead.
    fn patch(&mut self, removed: Option<&Advertisement>, added: Option<&Advertisement>) {
        let removed = removed.map(compile_agent_facts);
        let added = added.map(compile_agent_facts);
        if let Some(facts) = &removed {
            self.edb.subtract(facts);
        }
        if let Some(facts) = &added {
            self.edb.merge(facts);
        }
        let Some(mut cached) = self.model.take() else { return };
        if self.program.has_negation() {
            // The in-place patches would refuse anyway; drop the model so
            // the next read resaturates, and record the fallback.
            self.stats.fallbacks += 1;
            return;
        }
        // Patch in place when no other handle holds the model (the common
        // case — readers drop their `Arc` after matching); otherwise
        // `make_mut` copies once, which is still no worse than before.
        let model = Arc::make_mut(&mut cached);
        let mut ok = true;
        if let Some(facts) = &removed {
            ok = ok && model.remove_facts_mut(&self.program, facts);
        }
        if let Some(facts) = &added {
            ok = ok && model.add_facts_mut(&self.program, facts);
        }
        if ok {
            self.stats.incremental_updates += 1;
            self.model = Some(cached);
        } else {
            self.stats.fallbacks += 1;
        }
    }
}

/// One broker's knowledge base: agent advertisements, peer broker
/// advertisements, the capability taxonomy, and the domain ontologies the
/// broker can reason over.
///
/// Matchmaking over a repository with no derived rules reads §2.1
/// subsumption off the taxonomies' closures
/// ([`satisfying_classes`](Self::satisfying_classes) and its siblings), so
/// such a repository compiles no LDL fact unless someone asks for its
/// [`saturated`](Self::saturated) model; only derived rules need one.
#[derive(Clone)]
pub struct Repository {
    brokers: BTreeMap<String, BrokerAdvertisement>,
    capability_taxonomy: Taxonomy,
    ontologies: BTreeMap<String, Ontology>,
    /// Extra LDL rules defining derived concepts (§2.1), appended to the
    /// standard matchmaking rule base.
    derived_rules: Vec<Rule>,
    /// The advertisements, by agent name, and the postings over them.
    /// Each is `Arc`ed so a mutation's before/after pair and a caller
    /// holding one across a mutation share its body.
    index: AdIndex,
    /// `None` until something asks for the model, the EDB or the program.
    facts: Option<Box<FactBase>>,
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
/// `saturation`, registered when first entered: a repository that builds
/// no fact base never enters it, and a histogram nobody observes reads in
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
            derived_rules: Vec::new(),
            index: AdIndex::default(),
            facts: None,
            epoch: 0,
            obs: None,
        }
    }

    /// Attaches stage timing: advertise/unadvertise/saturation work is
    /// recorded as `broker_stage_seconds{broker,stage}` samples (stages
    /// `analysis`, `repository`, `saturation` — entered only where a fact
    /// base is built, patched or read — and `scoring` for cached
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
        // Global hierarchy facts changed: recompile the EDB and drop the
        // model (ontology registration is rare; churn is advertisements).
        if self.facts.is_some() {
            let edb = self.compile_edb();
            let facts = self.fact_base();
            facts.edb = edb;
            facts.model = None;
        }
        self.epoch += 1;
    }

    fn compile_edb(&self) -> Database {
        compile_facts(self.agents(), &self.capability_taxonomy, self.ontologies.values())
    }

    /// The fact base, compiled from the repository as it stands on first
    /// use.
    fn fact_base(&mut self) -> &mut FactBase {
        if self.facts.is_none() {
            let program = matchmaking_program_with(&self.derived_rules)
                .expect("combined base verified stratifiable at registration time"); // lint: allow-unwrap
            self.facts = Some(Box::new(FactBase {
                edb: self.compile_edb(),
                program: Arc::new(program),
                model: None,
                stats: MaintenanceStats::default(),
            }));
        }
        self.facts.as_mut().expect("built above") // lint: allow-unwrap
    }

    /// Whether a fact base has been built: `false` until something asks
    /// for the model, the EDB or the program — which matchmaking over a
    /// repository without derived rules never does.
    pub fn has_fact_base(&self) -> bool {
        self.facts.is_some()
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
    /// The combined rule base must remain stratifiable; this is verified
    /// here, so a successful registration can never fail later saturation.
    pub fn register_derived_rules(&mut self, rules_text: &str) -> Result<(), LdlParseError> {
        // Static analysis first: unsafe rules, undefined predicates, arity
        // clashes with the fact schema, and negation cycles inside the
        // delta all come back as rendered IS0xx diagnostics.
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
        let mut candidate = self.derived_rules.clone();
        candidate.extend(program.rules().iter().cloned());
        // Backstop: the *combined* base must stay stratifiable — a delta
        // that is clean in isolation can still close a negative cycle
        // through the standard rules.
        let program = matchmaking_program_with(&candidate)?;
        self.derived_rules = candidate;
        if let Some(facts) = &mut self.facts {
            facts.program = Arc::new(program);
            facts.model = None;
        }
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
    /// Where a fact base exists its model is patched incrementally: the
    /// previous advertisement's facts (if any) are retracted via
    /// delete-and-rederive and the new ones propagated via delta saturation.
    pub fn advertise(&mut self, ad: Advertisement) -> Result<(), RepositoryError> {
        {
            let _t = self.stage("analysis");
            self.admit(&ad)?;
        }
        let mutation = self.stage("repository");
        let ad = Arc::new(ad);
        let old = self.index.remove(&ad.location.name);
        self.index.insert(Arc::clone(&ad));
        self.epoch += 1;
        drop(mutation);
        self.patch_facts(old.as_deref(), Some(&ad));
        Ok(())
    }

    /// Removes an agent's advertisement ("when an agent goes offline, it
    /// first unregisters itself from the broker"; the broker also removes
    /// agents whose pings fail). Returns whether it was present.
    pub fn unadvertise(&mut self, agent: &str) -> bool {
        if !self.contains_agent(agent) {
            return false;
        }
        let mutation = self.stage("repository");
        let old = self.index.remove(agent);
        self.epoch += 1;
        drop(mutation);
        self.patch_facts(old.as_deref(), None);
        true
    }

    /// Carries one advertisement's replacement into the fact base, where
    /// there is one.
    fn patch_facts(&mut self, removed: Option<&Advertisement>, added: Option<&Advertisement>) {
        let _t = self.facts.as_ref().and_then(|_| self.stage("saturation"));
        if let Some(facts) = &mut self.facts {
            facts.patch(removed, added);
        }
    }

    /// Stores a peer broker's advertisement (Fig. 13 content).
    pub fn advertise_broker(&mut self, ad: BrokerAdvertisement) -> Result<(), RepositoryError> {
        self.admit(&ad.base)?;
        self.brokers.insert(ad.base.location.name.to_string(), ad);
        // Broker advertisements do not participate in agent matchmaking
        // facts, so a fact base stays as it is.
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

    /// The compiled rule program (standard matchmaking base plus derived
    /// rules), read off the fact base.
    pub fn program(&mut self) -> Arc<Program> {
        Arc::clone(&self.fact_base().program)
    }

    /// The saturated LDL model of this repository, building the fact base
    /// on first use. Served from cache when possible; the cache is
    /// maintained incrementally across advertise/unadvertise and recomputed
    /// from the EDB otherwise.
    pub fn saturated(&mut self) -> Arc<Saturated> {
        // Timed even on a cache hit: every query that needs the model shows
        // its (usually near-zero) "saturation" stage in its trace, and full
        // recomputes stand out in the same histogram.
        let _t = self.stage("saturation");
        let facts = self.fact_base();
        if let Some(model) = &facts.model {
            return Arc::clone(model);
        }
        let model = facts.program.saturate(&facts.edb).expect("matchmaking program is stratified"); // lint: allow-unwrap
        facts.stats.full_recomputes += 1;
        let model = Arc::new(model);
        facts.model = Some(Arc::clone(&model));
        model
    }

    /// The repository's mutation epoch: bumped by every mutation that can
    /// change matchmaking results. Cache entries tagged with an older
    /// epoch are stale.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The compiled extensional database (advertisement facts plus
    /// taxonomy and class-hierarchy facts), read off the fact base and so
    /// in sync with the repository contents.
    pub fn edb(&mut self) -> &Database {
        &self.fact_base().edb
    }

    /// How the cached model has been maintained so far.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.facts.as_ref().map_or_else(MaintenanceStats::default, |facts| facts.stats)
    }

    /// Whether the derived-concept rule base permits candidate pruning
    /// through the capability/class indexes. Derived rules can make an
    /// agent provide capabilities or classes it never advertised, so any
    /// index-based pruning over those dimensions must be disabled.
    pub fn has_derived_rules(&self) -> bool {
        !self.derived_rules.is_empty()
    }

    /// The advertised classes that satisfy a request for `class` of
    /// `ontology`: the class itself, its ancestors (full coverage) and its
    /// descendants (partial contribution) in that ontology's hierarchy —
    /// for an ontology nobody registered, the class alone. The relation is
    /// symmetric, so this is equally the set of requested classes an
    /// advertisement of `class` satisfies. It is the LDL base's
    /// `contributes_class`, read off the hierarchy's closure; candidate
    /// narrowing, the subscription index, the routing digest and — without
    /// derived rules — scoring (through `class_credit`) are sound only
    /// while they agree on it, so all four read it here.
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
    fn related_classes(&self, ontology: &str, class: &str) -> (&[Sym], &[Sym]) {
        self.ontologies.get(ontology).map_or((&[], &[]), |o| {
            let hierarchy = o.hierarchy();
            (hierarchy.ancestors(class), hierarchy.descendants(class))
        })
    }

    /// The advertised capabilities that satisfy a request for
    /// `capability`: the capability itself or any ancestor of it — the LDL
    /// base's `provides`, read off the taxonomy's closure.
    pub fn satisfying_capabilities<'a>(
        &'a self,
        capability: &'a str,
    ) -> impl Iterator<Item = &'a str> + 'a {
        let above = self.capability_taxonomy.ancestors(capability);
        std::iter::once(capability).chain(above.iter().map(|c| c.as_str()))
    }

    /// [`satisfying_capabilities`](Self::satisfying_capabilities) read from
    /// the advertiser's side: the requested capabilities an advertisement
    /// of `capability` satisfies — itself or any descendant.
    pub fn satisfied_capabilities<'a>(
        &'a self,
        capability: &'a str,
    ) -> impl Iterator<Item = &'a str> + 'a {
        let below = self.capability_taxonomy.descendants(capability);
        std::iter::once(capability).chain(below.iter().map(|c| c.as_str()))
    }

    /// Whether some capability `ad` advertises satisfies a request for
    /// `capability` ([`satisfying_capabilities`](Self::satisfying_capabilities)).
    pub(crate) fn provides(&self, ad: &Advertisement, capability: &str) -> bool {
        let above = self.capability_taxonomy.ancestors(capability);
        ad.semantic
            .capabilities
            .iter()
            .any(|adv| adv.0 == capability || names(above, adv.0.as_bytes()))
    }

    /// What `ad` holds of a requested `class` of `ontology`, as the LDL
    /// base grants it — per *(agent, ontology)*, so every content record
    /// of that ontology counts, whichever one is being scored.
    pub(crate) fn class_credit(
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
        assert!(!repo.has_fact_base());
        assert_eq!(repo.maintenance_stats(), MaintenanceStats::default());
        // Asked for, the model is the one an eagerly kept EDB would give,
        // and is patched from then on.
        repo.advertise(valid_ad("ra2")).unwrap();
        let model = repo.saturated();
        assert!(repo.has_fact_base());
        assert!(model.holds(&infosleuth_ldl::parse_query("provides(ra2, select)").unwrap()));
        let compiled = compile_facts(repo.agents(), repo.capability_taxonomy(), repo.ontologies());
        assert_eq!(*repo.edb(), compiled);
        drop(model);
        repo.advertise(valid_ad("ra3")).unwrap();
        let stats = repo.maintenance_stats();
        assert_eq!((stats.full_recomputes, stats.incremental_updates), (1, 1));
        assert!(repo
            .saturated()
            .holds(&infosleuth_ldl::parse_query("provides(ra3, select)").unwrap()));
    }

    /// The "saturation" stage is entered exactly where a fact base is
    /// built, read or patched: never on a repository without derived
    /// rules that nobody asked a model of, and ahead of "scoring" on
    /// every cache miss once a derived rule needs one.
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
        // The first write finds no fact base to patch; the first ask builds
        // it, the second write patches it, the second ask reads it.
        assert_eq!(
            stages(&ring),
            [
                ["analysis", "repository"].as_slice(),
                &["saturation", "scoring"],
                &["analysis", "repository", "saturation"],
                &["saturation", "scoring"],
            ]
            .concat()
        );
        let stats = repo.maintenance_stats();
        assert_eq!((stats.full_recomputes, stats.incremental_updates), (1, 1));
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
            let ad = index.ads[id].as_ref().unwrap_or_else(|| panic!("id {id} is free"));
            assert_eq!(index.ids[&ad.location.name] as usize, id);
            ad.location.name.to_string()
        };
        let posting = |set: &IdSet| {
            assert_ne!(set.0.last(), Some(&0), "untrimmed bitmap");
            assert!(!set.0.is_empty(), "empty posting kept");
            set_ids(&set.0).map(|id| (name(id), (0, 0))).collect::<BTreeMap<_, _>>()
        };
        let mut out = BTreeMap::new();
        for (agent_type, set) in &index.by_agent_type {
            out.insert(format!("type {agent_type}"), posting(set));
        }
        for (lang, set) in &index.by_query_language {
            out.insert(format!("query language {lang}"), posting(set));
        }
        for (lang, set) in &index.by_communication_language {
            out.insert(format!("communication language {lang}"), posting(set));
        }
        for (cap, set) in &index.by_capability {
            out.insert(format!("capability {cap}"), posting(set));
        }
        for (conv, set) in &index.by_conversation {
            out.insert(format!("conversation {conv}"), posting(set));
        }
        for (onto, postings) in &index.by_ontology {
            out.insert(format!("ontology {onto}"), posting(&postings.any));
            for (class, set) in &postings.by_class {
                out.insert(format!("class {onto} {class}"), posting(set));
            }
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
                repo.index.iter().for_each(|ad| fresh.insert(Arc::clone(ad)));
                assert_eq!(by_name(&repo.index), by_name(&fresh), "after step {step}");
            }
        }
        assert!(!repo.index.free.is_empty() && !repo.index.hulls.is_empty(), "churn too tame");
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
