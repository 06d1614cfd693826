//! Semantic routing digests for inter-broker search pruning.
//!
//! Each broker summarizes its repository as a [`CapabilityDigest`]: a
//! Bloom filter over the symbols of the terms its narrowing index posts
//! advertisements under, plus per-slot numeric constraint hulls. Peers
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
//! repository. [`CapabilityDigest::of`] hashes the posting keys of the very
//! index `candidates` intersects, plus the agent names, and unites the hull
//! columns every advertisement fills; [`CapabilityDigest::can_match`]
//! probes with the query's own terms, the ones `candidates` looks up.
//! Nothing is stored between calls for a mutation to leave behind. The
//! hashing itself (`Term::symbol`'s tags and FNV-1a, probe mixing, sizing)
//! decides which bits a peer sees set, so it is a wire format.
//!
//! An advertisement is expanded once, when it is posted
//! (`Repository::posted_terms`), so the filter needs no taxonomy walk:
//!
//! * a query class `q` reaches an advertisement holding class `a` iff
//!   `a ∈ {q} ∪ ancestors(q) ∪ descendants(q)`; because ancestry is
//!   symmetric this equals `q ∈ {a} ∪ ancestors(a) ∪ descendants(a)`, so
//!   each advertised class is posted *with its expansion* and the digest
//!   probes with the bare query class;
//! * a query capability `q` is provided by an agent advertising `q` or an
//!   ancestor of `q`, so each advertised capability is posted with its
//!   *descendants* and the digest probes with the bare query capability;
//! * agent names, agent types, languages, and conversation types are
//!   matched verbatim, so they are posted and probed exactly;
//! * what derived rules grant an advertisement — capabilities and classes
//!   it never advertised — is posted with it, so a repository with rules
//!   is summarized, and pruned, like any other;
//! * a slot hull is recorded only when **every** advertisement constrains
//!   the slot in every content record — otherwise some agent is open on
//!   the slot and could match any window, so the dimension must not
//!   prune.

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

/// splitmix64 finalizer: decorrelates a term symbol into the two Bloom
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
            k: BLOOM_K,
            bits: Vec::new(),
            slot_hulls: BTreeMap::new(),
        }
    }

    /// The digest of `repo` as it stands, read off its narrowing index:
    /// the symbol of every term the index posts an advertisement under and
    /// of every agent name, plus the hull of every slot all advertisements
    /// constrain. Costs the index's vocabulary and one pass over the
    /// advertisement ids — nothing is kept between calls, so nothing can
    /// fall out of step with the repository.
    pub fn of(broker: &str, repo: &Repository) -> Self {
        let index = repo.ad_index();
        let mut symbols: Vec<u64> = index.symbols().collect();
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
        // Every term a match must be posted under — narrowing's own — has
        // to be in the filter.
        let has = |term: Term<'_>| self.contains(term.symbol());
        let posted = query.agent_name.iter().all(|name| has(Term::Name(name)))
            && Term::of_query(query).all(has);
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

    /// A capability only a derived rule grants reaches the digest, and the
    /// digest still prunes what nobody holds.
    #[test]
    fn derived_rules_keep_the_digest_prunable() {
        let mut r = repo();
        let mut ad = resource("ra", &["C1"]);
        ad.semantic.capabilities.insert(Capability::subscription());
        r.advertise(ad).unwrap();
        let polling = ServiceQuery::any().with_capability(Capability::new("polling"));
        assert!(!digest_of(&r).can_match(&polling));
        r.register_derived_rules("cap(A, polling) :- cap(A, subscription).").expect("rules admit");
        let d = digest_of(&r);
        assert!(d.can_match(&polling));
        assert!(!d.can_match(&class_query("C9-not-even-a-class")));
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

    /// Set bits over filter bits: none for an empty repository, and well
    /// under half once the filter is sized to its symbols.
    #[test]
    fn fill_ratio_reflects_population() {
        let fill_ratio = |d: &CapabilityDigest| {
            let ones: u32 = d.bits.iter().map(|w| w.count_ones()).sum();
            f64::from(ones) / (d.bits.len() * 64).max(1) as f64
        };
        let mut r = repo();
        assert_eq!(fill_ratio(&digest_of(&r)), 0.0);
        r.advertise(resource("ra", &["C1"])).unwrap();
        let d = digest_of(&r);
        assert!(fill_ratio(&d) > 0.0 && fill_ratio(&d) < 0.5);
    }
}
