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
//! The contract holds by construction: a digest is a pure function of the
//! repository. [`CapabilityDigest::of`] hashes the distinct keys of the very
//! index `candidates` intersects — agent names and the seven posting
//! dimensions, expanded as below — and unites the hull columns every
//! advertisement fills; [`CapabilityDigest::can_match`] probes with the
//! query's terms of the same dimensions. Nothing is stored between calls
//! for a mutation to leave behind. The hashing itself (dimension tags,
//! FNV-1a, probe mixing, sizing) decides which bits a peer sees set, so it
//! is a wire format.
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

use crate::repository::{Repository, Term};
use crate::sub_index::numeric_hull;
use infosleuth_ontology::ServiceQuery;
use std::collections::BTreeMap;

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

/// The filter symbol of one term, for insertion and for probing alike.
/// Each dimension hashes under its own tag, so dimensions never alias each
/// other inside the filter; an (ontology, class) pair is the two names
/// joined by `U+0001`.
fn term_symbol(term: Term<'_>) -> u64 {
    match term {
        Term::Name(name) => symbol(b'n', name),
        Term::AgentType(t) => symbol(b't', &t.to_string()),
        Term::QueryLanguage(lang) => symbol(b'q', lang),
        Term::CommunicationLanguage(lang) => symbol(b'l', lang),
        Term::Conversation(conv) => symbol(b'v', conv.as_str()),
        Term::Capability(cap) => symbol(b'p', cap),
        Term::Ontology(onto) => symbol(b'o', onto),
        Term::Class(onto, class) => symbol(b'c', &format!("{onto}\u{1}{class}")),
    }
}

/// splitmix64 finalizer: decorrelates the FNV symbol into the two Bloom
/// probe seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `k` bit positions of `sym` in a filter `m` bits wide.
fn probes(sym: u64, k: u32, m: u64) -> impl Iterator<Item = u64> {
    let h1 = mix(sym);
    let h2 = mix(sym ^ 0x9e37_79b9_7f4a_7c15) | 1;
    (0..u64::from(k)).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % m)
}

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

    /// The digest of `repo` as it stands, read off its narrowing index:
    /// every distinct term the index posts an advertisement under, expanded
    /// and hashed, plus the hull of every slot all advertisements constrain.
    /// Costs the index's vocabulary and one pass over the advertisement ids
    /// — nothing is kept between calls, so nothing can fall out of step with
    /// the repository.
    pub fn of(broker: &str, repo: &Repository) -> Self {
        let index = repo.ad_index();
        let mut symbols = Vec::new();
        for term in index.terms() {
            match term {
                Term::Capability(cap) => symbols.extend(
                    repo.satisfied_capabilities(cap)
                        .map(|satisfied| term_symbol(Term::Capability(satisfied))),
                ),
                Term::Class(onto, class) => symbols.extend(
                    repo.satisfying_classes(onto, class)
                        .map(|related| term_symbol(Term::Class(onto, related))),
                ),
                verbatim => symbols.push(term_symbol(verbatim)),
            }
        }
        // The filter is sized from the distinct symbols, so its bits are a
        // function of the repository's vocabulary alone.
        symbols.sort_unstable();
        symbols.dedup();
        let m_bits =
            (symbols.len() * BLOOM_BITS_PER_SYMBOL).next_power_of_two().max(BLOOM_MIN_BITS);
        let mut bits = vec![0u64; m_bits / 64];
        for sym in symbols {
            for idx in probes(sym, BLOOM_K, m_bits as u64) {
                bits[(idx / 64) as usize] |= 1u64 << (idx % 64);
            }
        }
        CapabilityDigest {
            broker: broker.to_string(),
            epoch: repo.epoch(),
            ads: repo.len() as u64,
            unprunable: repo.has_derived_rules(),
            k: BLOOM_K,
            bits,
            slot_hulls: index
                .complete_hulls()
                .map(|(slot, hull)| (slot.to_string(), hull))
                .collect(),
        }
    }

    fn contains(&self, sym: u64) -> bool {
        let m = (self.bits.len() * 64) as u64;
        m != 0
            && probes(sym, self.k.max(1), m)
                .all(|idx| self.bits[(idx / 64) as usize] & (1u64 << (idx % 64)) != 0)
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
        // Every term a match must be posted under — narrowing's own
        // dimensions — has to be in the filter. Class pruning requires the
        // ontology: without one the match may come from any content record,
        // which a Bloom filter cannot enumerate.
        let has = |term| self.contains(term_symbol(term));
        let posted = query.agent_name.iter().all(|name| has(Term::Name(name)))
            && query.agent_type.iter().all(|t| has(Term::AgentType(t)))
            && query.query_language.iter().all(|lang| has(Term::QueryLanguage(lang)))
            && query.communication_language.iter().all(|l| has(Term::CommunicationLanguage(l)))
            && query.conversations.iter().all(|conv| has(Term::Conversation(conv)))
            && query.capabilities.iter().all(|cap| has(Term::Capability(cap.as_str())))
            && query.ontology.iter().all(|onto| {
                has(Term::Ontology(onto))
                    && query.classes.iter().all(|class| has(Term::Class(onto, class)))
            });
        if !posted {
            return false;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matchmaker;
    use infosleuth_constraint::{Conjunction, Predicate};
    use infosleuth_ontology::{
        paper_class_ontology, Advertisement, AgentLocation, AgentType, Capability,
        ConversationType, OntologyContent, SemanticInfo, SyntacticInfo,
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
        CapabilityDigest::of("b", repo)
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
        r.advertise(resource("ra", &["C1"])).unwrap();
        r.advertise(resource("rb", &["C3"])).unwrap();
        assert!(digest_of(&r).can_match(&class_query("C3")));
        assert!(r.unadvertise("rb"));
        assert!(!r.unadvertise("rb"), "second removal is a no-op");
        let d = digest_of(&r);
        assert!(d.can_match(&class_query("C1")), "remaining agent still matches");
        assert!(!d.can_match(&class_query("C3")), "removed agent's classes pruned");
    }

    #[test]
    fn replacing_an_advertisement_swaps_its_contribution() {
        let mut r = repo();
        r.advertise(resource("ra", &["C1"])).unwrap();
        r.advertise(resource("ra", &["C3"])).unwrap();
        let d = digest_of(&r);
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
        let mut r = repo();
        assert_eq!(digest_of(&r).fill_ratio(), 0.0);
        r.advertise(resource("ra", &["C1"])).unwrap();
        let d = digest_of(&r);
        assert!(d.fill_ratio() > 0.0 && d.fill_ratio() < 0.5);
    }
}
