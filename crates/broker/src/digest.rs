//! Semantic routing digests for inter-broker search pruning.
//!
//! Each broker summarizes its repository as a [`CapabilityDigest`]: a
//! Bloom filter over hashed (dimension, symbol) pairs expanded through
//! the class hierarchy and capability taxonomy — the same expansion
//! [`SubscriptionIndex`](crate::SubscriptionIndex) applies when bucketing
//! standing queries — plus per-slot numeric constraint hulls. Peers
//! exchange digests piggybacked on broker advertisements and delta
//! re-advertisements (see `broker_agent`), and consult them before
//! forwarding a search: a peer whose digest *cannot* match the query is
//! never contacted.
//!
//! Soundness contract: [`CapabilityDigest::can_match`] is a sound
//! over-approximation of the peer's `Matchmaker::candidates` narrowing —
//! it may return `true` for a query the peer cannot actually serve (one
//! wasted forward, counted as a digest false positive), but it never
//! returns `false` for a query the peer would answer. Recall through the
//! digest-pruned search is therefore that of asking every peer, which
//! the parity tests assert byte-for-byte against one broker holding
//! every advertisement.
//!
//! The expansion is candidate narrowing's own — all three of narrowing,
//! the subscription index and this digest expand through
//! [`Repository::satisfying_classes`] and
//! [`Repository::satisfying_capabilities`] (read from the advertiser's
//! side as [`Repository::satisfied_capabilities`]):
//!
//! * a query class `q` reaches an advertisement holding class `a` iff
//!   `a ∈ {q} ∪ ancestors(q) ∪ descendants(q)`; because ancestry is
//!   symmetric this equals `q ∈ {a} ∪ ancestors(a) ∪ descendants(a)`, so
//!   the digest inserts each advertised class *with its expansion* and
//!   probes with the bare query class;
//! * a query capability `q` is provided by an agent advertising `q` or an
//!   ancestor of `q`, so the digest inserts each advertised capability
//!   with its *descendants* and probes with the bare query capability;
//! * agent names, agent types, languages, and conversation types are
//!   matched verbatim, so they are inserted and probed exactly;
//! * a slot hull is recorded only when **every** advertisement constrains
//!   the slot in every content record — otherwise some agent is open on
//!   the slot and could match any window, so the dimension must not
//!   prune.
//!
//! When the repository has derived inference rules registered, class and
//! capability membership can be invented outside the index's view; the
//! digest then carries `unprunable = true` and peers never prune that
//! broker — exactly the fallback `Matchmaker::candidates` itself takes.

use crate::repository::Repository;
use crate::sub_index::{ad_slot_hulls, numeric_hull};
use infosleuth_ontology::{Advertisement, ServiceQuery};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Number of Bloom probe positions per symbol.
const BLOOM_K: u32 = 4;
/// Bits-per-symbol target; with k = 4 this keeps the per-probe
/// false-positive rate well under 1% at any population (m grows with
/// the symbol count), so routing fp-rates are dominated by the honest
/// hull dimension, not filter collisions.
const BLOOM_BITS_PER_SYMBOL: usize = 14;
/// Floor on the filter size so tiny repositories still serialize to a
/// stable, honestly-sized filter.
const BLOOM_MIN_BITS: usize = 1024;

/// FNV-1a 64-bit over a dimension tag and a symbol string. Collisions
/// only ever *add* false positives, which the soundness contract allows.
fn symbol(tag: u8, text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(tag);
    eat(0x1f);
    for b in text.as_bytes() {
        eat(*b);
    }
    h
}

/// Two-part symbol for (ontology, class) pairs: the names joined by `U+0001`.
fn class_symbol(ontology: &str, class: &str) -> u64 {
    symbol(b'c', &format!("{ontology}\u{1}{class}"))
}

/// splitmix64 finalizer: decorrelates the FNV symbol into the two Bloom
/// probe seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The dimension tags. Probes use the same tags, so dimensions never
/// alias each other inside the filter.
const TAG_NAME: u8 = b'n';
const TAG_TYPE: u8 = b't';
const TAG_QUERY_LANG: u8 = b'q';
const TAG_COMM_LANG: u8 = b'l';
const TAG_CONVERSATION: u8 = b'v';
const TAG_CAPABILITY: u8 = b'p';
const TAG_ONTOLOGY: u8 = b'o';

/// A broker's routing digest: the Bloom filter, the complete-slot hulls,
/// and the repository epoch the summary was taken at.
#[derive(Debug, Clone, PartialEq)]
pub struct CapabilityDigest {
    /// The broker this digest summarizes.
    pub broker: String,
    /// Repository mutation epoch at snapshot time; peers use it for
    /// staleness detection on forwarded requests.
    pub epoch: u64,
    /// Advertisements summarized. Zero means the repository holds no
    /// agents at all — always prunable.
    pub ads: u64,
    /// Set when the repository cannot be soundly summarized (derived
    /// rules registered): peers must forward.
    pub unprunable: bool,
    /// Bloom probe count.
    pub k: u32,
    /// The filter, `bits.len() * 64` bits wide.
    pub bits: Vec<u64>,
    /// Per-slot union hulls, present only for slots *every*
    /// advertisement constrains.
    pub slot_hulls: BTreeMap<String, (f64, f64)>,
}

impl CapabilityDigest {
    /// The digest of an empty repository: prunable, matches nothing.
    pub fn empty(broker: impl Into<String>) -> Self {
        CapabilityDigest {
            broker: broker.into(),
            epoch: 0,
            ads: 0,
            unprunable: false,
            k: BLOOM_K,
            bits: Vec::new(),
            slot_hulls: BTreeMap::new(),
        }
    }

    fn contains(&self, sym: u64) -> bool {
        let m = (self.bits.len() * 64) as u64;
        if m == 0 {
            return false;
        }
        let h1 = mix(sym);
        let h2 = mix(sym ^ 0x9e37_79b9_7f4a_7c15) | 1;
        for i in 0..u64::from(self.k.max(1)) {
            let idx = h1.wrapping_add(i.wrapping_mul(h2)) % m;
            if self.bits[(idx / 64) as usize] & (1u64 << (idx % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Whether the summarized repository *could* hold a match for the
    /// query. Sound over-approximation: `false` proves no match exists
    /// on the peer; `true` may be a false positive.
    pub fn can_match(&self, query: &ServiceQuery) -> bool {
        if self.ads == 0 {
            return false;
        }
        if self.unprunable {
            return true;
        }
        if let Some(name) = &query.agent_name {
            if !self.contains(symbol(TAG_NAME, name)) {
                return false;
            }
        }
        if let Some(t) = &query.agent_type {
            if !self.contains(symbol(TAG_TYPE, &t.to_string())) {
                return false;
            }
        }
        if let Some(lang) = &query.query_language {
            if !self.contains(symbol(TAG_QUERY_LANG, lang)) {
                return false;
            }
        }
        if let Some(lang) = &query.communication_language {
            if !self.contains(symbol(TAG_COMM_LANG, lang)) {
                return false;
            }
        }
        for conv in &query.conversations {
            if !self.contains(symbol(TAG_CONVERSATION, &conv.to_string())) {
                return false;
            }
        }
        for cap in &query.capabilities {
            if !self.contains(symbol(TAG_CAPABILITY, cap.as_str())) {
                return false;
            }
        }
        if let Some(onto) = &query.ontology {
            if !self.contains(symbol(TAG_ONTOLOGY, onto)) {
                return false;
            }
            // Class pruning requires the ontology: without one the match
            // may come from any content record, which a Bloom filter
            // cannot enumerate.
            for class in &query.classes {
                if !self.contains(class_symbol(onto, class)) {
                    return false;
                }
            }
        }
        for slot in query.constraints.constrained_slots() {
            if let (Some((qlo, qhi)), Some((dlo, dhi))) =
                (numeric_hull(&query.constraints, slot), self.slot_hulls.get(slot))
            {
                if qhi < *dlo || qlo > *dhi {
                    return false;
                }
            }
        }
        true
    }

    /// The filter's fill ratio (set bits / total bits) — the bench
    /// reports it next to the measured false-positive rate.
    pub fn fill_ratio(&self) -> f64 {
        let m = self.bits.len() * 64;
        if m == 0 {
            return 0.0;
        }
        let ones: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        f64::from(ones) / m as f64
    }
}

/// One advertisement's contribution to the digest, kept so removal is
/// exact without re-reading the repository.
#[derive(Debug, Clone)]
struct Contribution {
    symbols: BTreeSet<u64>,
    /// The advertisement's [`ad_slot_hulls`].
    hulls: BTreeMap<String, (f64, f64)>,
}

/// Maintains a broker's digest incrementally: one refcounted symbol set,
/// updated per advertise/unadvertise delta, snapshotted on demand.
#[derive(Debug, Default)]
pub struct DigestBuilder {
    contributions: HashMap<String, Contribution>,
    refs: HashMap<u64, u32>,
}

impl DigestBuilder {
    pub fn new() -> Self {
        DigestBuilder::default()
    }

    /// Seeds the builder from a pre-populated repository (brokers may
    /// spawn over an existing repository).
    pub fn from_repo(repo: &Repository) -> Self {
        let mut b = DigestBuilder::new();
        for ad in repo.agents() {
            b.advertise(ad, repo);
        }
        b
    }

    /// Number of advertisements summarized.
    pub fn len(&self) -> usize {
        self.contributions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.contributions.is_empty()
    }

    /// Records (or replaces) an advertisement's contribution. `repo`
    /// supplies the class hierarchy and capability taxonomy for
    /// expansion — the same repository the matchmaker will narrow
    /// against, so expansion and narrowing agree.
    pub fn advertise(&mut self, ad: &Advertisement, repo: &Repository) {
        let name = ad.location.name.clone();
        self.unadvertise(&name);
        let mut symbols = BTreeSet::new();
        symbols.insert(symbol(TAG_NAME, &name));
        symbols.insert(symbol(TAG_TYPE, &ad.location.agent_type.to_string()));
        for lang in &ad.syntactic.query_languages {
            symbols.insert(symbol(TAG_QUERY_LANG, lang));
        }
        for lang in &ad.syntactic.communication_languages {
            symbols.insert(symbol(TAG_COMM_LANG, lang));
        }
        for conv in &ad.semantic.conversations {
            symbols.insert(symbol(TAG_CONVERSATION, &conv.to_string()));
        }
        for cap in &ad.semantic.capabilities {
            for satisfied in repo.satisfied_capabilities(cap.as_str()) {
                symbols.insert(symbol(TAG_CAPABILITY, &satisfied));
            }
        }
        for content in &ad.semantic.content {
            symbols.insert(symbol(TAG_ONTOLOGY, &content.ontology));
            for class in &content.classes {
                for rel in repo.satisfying_classes(&content.ontology, class) {
                    symbols.insert(class_symbol(&content.ontology, &rel));
                }
            }
        }
        let hulls =
            ad_slot_hulls(ad).into_iter().map(|(slot, hull)| (slot.to_string(), hull)).collect();
        for sym in &symbols {
            *self.refs.entry(*sym).or_insert(0) += 1;
        }
        self.contributions.insert(name, Contribution { symbols, hulls });
    }

    /// Removes an advertisement's contribution; returns whether it was
    /// present.
    pub fn unadvertise(&mut self, name: &str) -> bool {
        let Some(c) = self.contributions.remove(name) else { return false };
        for sym in &c.symbols {
            if let Some(n) = self.refs.get_mut(sym) {
                *n -= 1;
                if *n == 0 {
                    self.refs.remove(sym);
                }
            }
        }
        true
    }

    /// Snapshots the current state as an exchangeable digest.
    pub fn snapshot(&self, broker: &str, repo: &Repository) -> CapabilityDigest {
        let n = self.refs.len();
        let m_bits = (n * BLOOM_BITS_PER_SYMBOL).next_power_of_two().max(BLOOM_MIN_BITS);
        let mut bits = vec![0u64; m_bits / 64];
        for sym in self.refs.keys() {
            let h1 = mix(*sym);
            let h2 = mix(*sym ^ 0x9e37_79b9_7f4a_7c15) | 1;
            for i in 0..u64::from(BLOOM_K) {
                let idx = h1.wrapping_add(i.wrapping_mul(h2)) % m_bits as u64;
                bits[(idx / 64) as usize] |= 1u64 << (idx % 64);
            }
        }
        // A slot prunes only when every advertisement constrains it.
        let total = self.contributions.len();
        let mut counts: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for c in self.contributions.values() {
            for (slot, (lo, hi)) in &c.hulls {
                let e =
                    counts.entry(slot.as_str()).or_insert((0, f64::INFINITY, f64::NEG_INFINITY));
                e.0 += 1;
                e.1 = e.1.min(*lo);
                e.2 = e.2.max(*hi);
            }
        }
        let slot_hulls = counts
            .into_iter()
            .filter(|(_, (n, _, _))| *n == total && total > 0)
            .map(|(slot, (_, lo, hi))| (slot.to_string(), (lo, hi)))
            .collect();
        CapabilityDigest {
            broker: broker.to_string(),
            epoch: repo.epoch(),
            ads: total as u64,
            unprunable: repo.has_derived_rules(),
            k: BLOOM_K,
            bits,
            slot_hulls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matchmaker;
    use infosleuth_constraint::{Conjunction, Predicate};
    use infosleuth_ontology::{
        paper_class_ontology, AgentLocation, AgentType, Capability, ConversationType,
        OntologyContent, SemanticInfo, SyntacticInfo,
    };

    fn repo() -> Repository {
        let mut r = Repository::new();
        r.register_ontology(paper_class_ontology());
        r
    }

    fn resource(name: &str, classes: &[&str]) -> Advertisement {
        Advertisement::new(AgentLocation::new(name, "tcp://h:1", AgentType::Resource))
            .with_syntactic(SyntacticInfo::sql_kqml())
            .with_semantic(
                SemanticInfo::default()
                    .with_conversations([ConversationType::AskAll])
                    .with_capabilities([Capability::relational_query_processing()])
                    .with_content(
                        OntologyContent::new("paper-classes").with_classes(classes.to_vec()),
                    ),
            )
    }

    fn class_query(class: &str) -> ServiceQuery {
        ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("paper-classes")
            .with_classes([class])
    }

    fn digest_of(repo: &Repository) -> CapabilityDigest {
        DigestBuilder::from_repo(repo).snapshot("b", repo)
    }

    #[test]
    fn empty_repository_is_always_prunable() {
        let r = repo();
        let d = digest_of(&r);
        assert_eq!(d.ads, 0);
        assert!(!d.can_match(&ServiceQuery::any()));
        assert!(!d.can_match(&class_query("C1")));
    }

    #[test]
    fn advertised_classes_probe_through_the_hierarchy() {
        let mut r = repo();
        r.advertise(resource("ra", &["C2"])).unwrap();
        let d = digest_of(&r);
        // Exact, ancestor (C2 serves subclasses), and descendant
        // (subclass holders contribute partially) queries all pass.
        assert!(d.can_match(&class_query("C2")));
        assert!(d.can_match(&class_query("C2a")));
        // An unrelated class prunes.
        assert!(!d.can_match(&class_query("C3")));
        // An unknown ontology prunes.
        assert!(!d.can_match(
            &ServiceQuery::for_agent_type(AgentType::Resource).with_ontology("healthcare")
        ));
    }

    #[test]
    fn capability_expansion_inserts_descendants() {
        let mut r = repo();
        let mut ad = resource("general", &["C1"]);
        ad.semantic.capabilities = [Capability::query_processing()].into_iter().collect();
        r.advertise(ad).unwrap();
        let d = digest_of(&r);
        // query-processing covers select (descendant): a select request
        // reaches the general agent.
        let q =
            ServiceQuery::for_agent_type(AgentType::Resource).with_capability(Capability::select());
        assert!(d.can_match(&q));
        let q = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_capability(Capability::data_mining());
        assert!(!d.can_match(&q));
    }

    #[test]
    fn slot_hulls_prune_only_when_every_ad_constrains() {
        let mut r = repo();
        let constrained = |name: &str, lo: i64, hi: i64| {
            let mut ad = resource(name, &["C1"]);
            ad.semantic.content =
                vec![OntologyContent::new("paper-classes").with_classes(["C1"]).with_constraints(
                    Conjunction::from_predicates(vec![Predicate::between("C1.a", lo, hi)]),
                )];
            ad
        };
        r.advertise(constrained("ra", 0, 10)).unwrap();
        r.advertise(constrained("rb", 20, 30)).unwrap();
        let d = digest_of(&r);
        let window = |lo: i64, hi: i64| {
            class_query("C1").with_constraints(Conjunction::from_predicates(vec![
                Predicate::between("C1.a", lo, hi),
            ]))
        };
        assert!(d.can_match(&window(5, 8)));
        assert!(!d.can_match(&window(50, 60)), "disjoint window prunes");
        // Add an agent open on the slot: the hull dimension must vanish.
        r.advertise(resource("rc", &["C1"])).unwrap();
        let d = digest_of(&r);
        assert!(d.can_match(&window(50, 60)), "open agent disables slot pruning");
    }

    #[test]
    fn derived_rules_make_the_digest_unprunable() {
        let mut r = repo();
        r.advertise(resource("ra", &["C1"])).unwrap();
        r.register_derived_rules("cap(A, polling) :- cap(A, subscription).").expect("rules admit");
        let d = digest_of(&r);
        assert!(d.unprunable);
        assert!(d.can_match(&class_query("C9-not-even-a-class")));
    }

    #[test]
    fn unadvertise_restores_prunability() {
        let mut r = repo();
        let mut b = DigestBuilder::new();
        r.advertise(resource("ra", &["C1"])).unwrap();
        r.advertise(resource("rb", &["C3"])).unwrap();
        for ad in r.agents() {
            b.advertise(ad, &r);
        }
        assert!(b.snapshot("b", &r).can_match(&class_query("C3")));
        assert!(b.unadvertise("rb"));
        assert!(!b.unadvertise("rb"), "second removal is a no-op");
        let d = b.snapshot("b", &r);
        assert!(d.can_match(&class_query("C1")), "remaining agent still matches");
        assert!(!d.can_match(&class_query("C3")), "removed agent's classes pruned");
    }

    #[test]
    fn replacing_an_advertisement_swaps_its_contribution() {
        let mut r = repo();
        let mut b = DigestBuilder::new();
        r.advertise(resource("ra", &["C1"])).unwrap();
        b.advertise(r.advertisement_arc("ra").unwrap(), &r);
        b.advertise(&resource("ra", &["C3"]), &r);
        let d = b.snapshot("b", &r);
        assert_eq!(d.ads, 1);
        assert!(d.can_match(&class_query("C3")));
        assert!(!d.can_match(&class_query("C1")));
    }

    /// The soundness oracle: for every query in a broad probe set, a
    /// non-empty matchmaker result implies `can_match` — no false
    /// negatives, ever.
    #[test]
    fn can_match_never_contradicts_the_matchmaker() {
        let mut r = repo();
        r.advertise(resource("ra", &["C1", "C2"])).unwrap();
        r.advertise(resource("rb", &["C3"])).unwrap();
        let mut narrow = resource("rc", &["C2a"]);
        narrow.semantic.content =
            vec![OntologyContent::new("paper-classes").with_classes(["C2a"]).with_constraints(
                Conjunction::from_predicates(vec![Predicate::between("C2a.x", 40, 60)]),
            )];
        r.advertise(narrow).unwrap();
        let d = digest_of(&r);
        let mm = Matchmaker::default();
        let o = paper_class_ontology();
        let mut queries: Vec<ServiceQuery> = vec![
            ServiceQuery::any(),
            ServiceQuery::for_agent_type(AgentType::Resource),
            ServiceQuery::for_agent_type(AgentType::User),
            ServiceQuery::any().with_query_language("SQL 2.0"),
            ServiceQuery::any().with_query_language("OQL"),
            ServiceQuery::any().with_capability(Capability::select()),
            ServiceQuery::any().with_capability(Capability::data_mining()),
            ServiceQuery::any().with_conversation(ConversationType::AskAll),
            ServiceQuery::any().with_conversation(ConversationType::Subscribe),
            ServiceQuery::any().with_ontology("healthcare"),
        ];
        for class in o.class_names() {
            queries.push(class_query(class));
            queries.push(class_query(class).with_constraints(Conjunction::from_predicates(vec![
                Predicate::between(format!("{class}.x"), 0, 10),
            ])));
        }
        let mut q = ServiceQuery::any();
        q.agent_name = Some("ra".into());
        queries.push(q);
        let mut q = ServiceQuery::any();
        q.agent_name = Some("nobody".into());
        queries.push(q);
        for q in &queries {
            let matched = !mm.match_query_mut(&mut r, q).is_empty();
            if matched {
                assert!(d.can_match(q), "digest must not prune a matching query: {q:?}");
            }
        }
        // And the digest really prunes something in this set.
        assert!(queries.iter().any(|q| !d.can_match(q)));
    }

    #[test]
    fn fill_ratio_reflects_population() {
        let r = repo();
        let mut b = DigestBuilder::new();
        assert_eq!(b.snapshot("b", &r).fill_ratio(), 0.0);
        b.advertise(&resource("ra", &["C1"]), &r);
        let d = b.snapshot("b", &r);
        assert!(d.fill_ratio() > 0.0 && d.fill_ratio() < 0.5);
    }
}
