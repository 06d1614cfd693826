//! The inverted subscription index: standing service queries bucketed so
//! that one repository mutation yields the (small) set of subscriptions it
//! can possibly affect, instead of re-evaluating every standing query.
//!
//! The shape follows S-ToPSS-style semantic pub/sub matching: the *event*
//! is expanded through the hierarchies and the subscriptions are stored
//! bare. Each subscription sits in one bucket, keyed by the symbol of its
//! most selective *required* term (agent name, then an ontology class,
//! then a capability, then the ontology itself, then a conversation type)
//! exactly as the query states it. An advertise/unadvertise/update event
//! probes the buckets with the changed advertisement's posted terms — its
//! name and [`Repository::posted_terms`], the expansion candidate
//! narrowing posts it under — for the old version before the mutation
//! *and* the new one after it, so the result is a sound
//! over-approximation: every subscription whose match set could have
//! changed is in the candidate set, and false positives (a 64-bit symbol
//! collision among them) only cost one cached re-score that produces an
//! empty delta. The expansion is read from the repository, so a hierarchy
//! re-registered under live subscriptions is followed at once.
//!
//! Numeric data constraints refine the candidate set through per-slot
//! windows: a subscription constraining `patient.age` to `[25, 65]` is
//! ruled out for an advertisement restricted to `[80, 90]` without ever
//! re-scoring it. Each candidate's window is one lookup, so the
//! refinement costs `O(candidates)` however many subscriptions constrain
//! the slot.
//!
//! Derived concept rules change nothing here: what they grant an
//! advertisement — capabilities and classes it never advertised — is
//! among its posted terms while it is posted, which is why the old
//! version is probed before the mutation withdraws it.

use crate::codec::ResultRow;
use crate::repository::Term;
use crate::{MatchRow, Repository};
use infosleuth_constraint::{Bound, Conjunction, Value};
use infosleuth_kqml::Text;
use infosleuth_ontology::{Advertisement, ServiceQuery};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Internal subscription identifier.
pub type SubId = u64;

/// The closed numeric `(lo, hi)` hull of a slot's domain.
type Hull = (f64, f64);

/// A registered standing subscription: the query, where notifications go,
/// and the last result set delivered (the base for delta computation).
#[derive(Debug, Clone)]
pub struct StandingSubscription {
    pub id: SubId,
    /// The external subscription id (from `:reply-with` or generated);
    /// notifications carry it as `:in-reply-to`.
    pub sub_key: String,
    /// The agent name notifications are delivered to (`:reply-to` of the
    /// subscribe message, falling back to the sender).
    pub subscriber: String,
    /// Encoded `:x-trace` context from the subscribe message, propagated
    /// onto every notification.
    pub trace: Option<String>,
    pub query: ServiceQuery,
    /// The result set as of the last notification.
    pub last: Arc<Vec<MatchRow>>,
}

/// The inverted index proper: one bucket per subscription plus each
/// subscription's constraint windows.
#[derive(Debug, Default)]
pub(crate) struct SubscriptionIndex {
    /// The term symbol each subscription is bucketed under, kept for
    /// removal; `None` for the catch-all.
    bucket_of: HashMap<SubId, Option<u64>>,
    buckets: HashMap<u64, BTreeSet<SubId>>,
    catch_all: BTreeSet<SubId>,
    /// The numeric hull of every slot a subscription constrains (for
    /// refinement, not primary candidacy).
    windows: HashMap<SubId, Vec<(Text, Hull)>>,
}

/// The numeric hull of one slot's domain under a conjunction, when one
/// exists. `None` means "not numerically constrained" — never used to
/// prune. Exclusive bounds are relaxed to closed ones, so two hulls that
/// are disjoint prove the two domains are.
pub(crate) fn numeric_hull(c: &Conjunction, slot: &str) -> Option<(f64, f64)> {
    let dom = c.domain(slot);
    let as_f64 = |v: &Value| match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    };
    // A finite allow-set hulls to [min, max] intersected with the range.
    let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
    match &dom.range.lo {
        Bound::Unbounded => {}
        Bound::Incl(v) | Bound::Excl(v) => lo = as_f64(v)?,
    }
    match &dom.range.hi {
        Bound::Unbounded => {}
        Bound::Incl(v) | Bound::Excl(v) => hi = as_f64(v)?,
    }
    if let Some(allowed) = &dom.allowed {
        let nums: Vec<f64> = allowed.iter().filter_map(as_f64).collect();
        if nums.len() == allowed.len() && !nums.is_empty() {
            lo = lo.max(nums.iter().cloned().fold(f64::INFINITY, f64::min));
            hi = hi.min(nums.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
        }
    }
    if lo == f64::NEG_INFINITY && hi == f64::INFINITY {
        return None;
    }
    Some((lo, hi))
}

/// The per-slot numeric hulls of a whole advertisement: the one rule by
/// which a data constraint may rule an advertisement out before it is
/// scored. A slot counts only when *every* content record constrains it
/// numerically — a record that says nothing about the slot overlaps any
/// window — and the advertisement's hull is the union over its records.
/// A requested window disjoint from that hull overlaps no record, so
/// `Conjunction::overlaps` fails on each of them. Candidate narrowing
/// ([`Repository`]'s hull columns), the subscription index's interval
/// refinement and the routing digest ([`crate::digest`], which unites
/// those columns) all prune by this function and nothing else.
pub(crate) fn ad_slot_hulls(ad: &Advertisement) -> BTreeMap<&str, (f64, f64)> {
    fn record_hulls(c: &Conjunction) -> impl Iterator<Item = (&str, (f64, f64))> {
        c.constrained_slots().filter_map(|slot| Some((slot, numeric_hull(c, slot)?)))
    }
    let mut records = ad.semantic.content.iter();
    let Some(first) = records.next() else { return BTreeMap::new() };
    let mut hulls: BTreeMap<&str, (f64, f64)> = record_hulls(&first.constraints).collect();
    for content in records {
        let record: BTreeMap<&str, (f64, f64)> = record_hulls(&content.constraints).collect();
        hulls.retain(|slot, (lo, hi)| match record.get(slot) {
            Some((rlo, rhi)) => {
                *lo = lo.min(*rlo);
                *hi = hi.max(*rhi);
                true
            }
            None => false,
        });
    }
    hulls
}

impl SubscriptionIndex {
    /// Registers a subscription under its representative term.
    pub(crate) fn insert(&mut self, id: SubId, query: &ServiceQuery) {
        self.remove(id);
        let bucket = Self::representative(query).map(Term::symbol);
        match bucket {
            Some(symbol) => self.buckets.entry(symbol).or_default().insert(id),
            None => self.catch_all.insert(id),
        };
        self.bucket_of.insert(id, bucket);
        let windows: Vec<_> = query
            .constraints
            .constrained_slots()
            .filter_map(|slot| Some((Text::from(slot), numeric_hull(&query.constraints, slot)?)))
            .collect();
        if !windows.is_empty() {
            self.windows.insert(id, windows);
        }
    }

    /// The most selective term the query *requires*, bare: agent name,
    /// then a class (requires an ontology), then a capability, then the
    /// ontology, then a conversation type. With none the subscription can
    /// be affected by any mutation (catch-all). One class or capability
    /// suffices: a matching advertisement must be posted under *every*
    /// requested one.
    fn representative(query: &ServiceQuery) -> Option<Term<'_>> {
        if let Some(name) = &query.agent_name {
            return Some(Term::Name(name));
        }
        if let (Some(onto), Some(class)) = (&query.ontology, query.classes.iter().next()) {
            return Some(Term::Class(onto, class));
        }
        if let Some(cap) = query.capabilities.iter().next() {
            return Some(Term::Capability(cap.as_str()));
        }
        if let Some(onto) = &query.ontology {
            return Some(Term::Ontology(onto));
        }
        query.conversations.iter().next().map(Term::Conversation)
    }

    pub(crate) fn remove(&mut self, id: SubId) {
        match self.bucket_of.remove(&id) {
            Some(Some(symbol)) => {
                if let Some(bucket) = self.buckets.get_mut(&symbol) {
                    bucket.remove(&id);
                    if bucket.is_empty() {
                        self.buckets.remove(&symbol);
                    }
                }
            }
            Some(None) => {
                self.catch_all.remove(&id);
            }
            None => {}
        }
        self.windows.remove(&id);
    }

    /// The candidate set for a changed advertisement: every subscription
    /// whose match set could have changed when `old` was replaced by
    /// `new` (either side `None` for pure advertise/unadvertise), each
    /// version's terms as `repo` posts it — see
    /// [`SubscriptionRegistry::affected`] for what that asks of the old
    /// one under derived rules.
    ///
    /// Sound over-approximation; the caller re-scores candidates and
    /// drops empty deltas.
    pub(crate) fn affected_by_change(
        &self,
        old: Option<&Advertisement>,
        new: Option<&Advertisement>,
        repo: &Repository,
    ) -> BTreeSet<SubId> {
        let mut out = self.catch_all.clone();
        for ad in [old, new].into_iter().flatten() {
            self.collect_for_ad(ad, repo, &mut out);
        }
        out
    }

    fn collect_for_ad(&self, ad: &Advertisement, repo: &Repository, out: &mut BTreeSet<SubId>) {
        if self.buckets.is_empty() {
            return;
        }
        let mut candidates: HashSet<SubId> = HashSet::new();
        let terms = repo.posted_terms(ad, repo.granted(ad));
        let posted = std::iter::once(Term::Name(&ad.location.name)).chain(terms);
        for term in posted {
            candidates.extend(self.buckets.get(&term.symbol()).into_iter().flatten());
        }
        if candidates.is_empty() {
            return;
        }
        // Interval refinement: a subscription constraining a slot to a
        // window disjoint from the advertisement's hull on that slot
        // overlaps none of its content records (constraint overlap is
        // required for any score), so it cannot be affected by this
        // version. Bounds are treated as closed — a conservative
        // relaxation of bound exclusivity — and only the candidates are
        // looked at, never every subscription on the slot.
        let hulls = ad_slot_hulls(ad);
        let meets = |(slot, (s_lo, s_hi)): &(Text, Hull)| {
            hulls
                .iter()
                .all(|(h, (lo, hi))| h.as_bytes() != slot.as_bytes() || (s_lo <= hi && s_hi >= lo))
        };
        candidates.retain(|id| self.windows.get(id).map_or(true, |w| w.iter().all(meets)));
        out.extend(candidates);
    }
}

/// The broker-level registry: standing subscriptions plus the index.
#[derive(Debug, Default)]
pub struct SubscriptionRegistry {
    entries: HashMap<SubId, StandingSubscription>,
    index: SubscriptionIndex,
    next_id: SubId,
}

impl SubscriptionRegistry {
    /// [`default`](Self::default) under the name and arity the
    /// `benchmark/` harness calls (`new(true)`). The registry is always
    /// indexed; the naive all-subscriptions oracle lives in
    /// `tests/sub_parity.rs`.
    pub fn new(indexed: bool) -> Self {
        assert!(indexed, "the unindexed registry left production");
        SubscriptionRegistry::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The id the next [`register`](Self::register) call will assign (used
    /// to mint an external `sub-N` key before registering).
    pub fn next_key(&self) -> SubId {
        self.next_id + 1
    }

    /// Registers a standing subscription and returns its internal id.
    /// `_repo` is not read — a subscription is bucketed as it is stated,
    /// and each event is expanded against the repository as it then
    /// stands — but it keeps the call shape `benchmark/` uses.
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        &mut self,
        sub_key: String,
        subscriber: String,
        trace: Option<String>,
        query: ServiceQuery,
        last: Arc<Vec<MatchRow>>,
        _repo: &Repository,
    ) -> SubId {
        self.next_id += 1;
        let id = self.next_id;
        self.index.insert(id, &query);
        self.entries
            .insert(id, StandingSubscription { id, sub_key, subscriber, trace, query, last });
        id
    }

    pub fn remove(&mut self, id: SubId) -> Option<StandingSubscription> {
        self.index.remove(id);
        self.entries.remove(&id)
    }

    pub fn entry(&self, id: SubId) -> Option<&StandingSubscription> {
        self.entries.get(&id)
    }

    /// Every registered subscription id, ascending (deterministic order
    /// for full re-evaluation sweeps).
    pub fn ids(&self) -> BTreeSet<SubId> {
        self.entries.keys().copied().collect()
    }

    /// Looks up a subscription by its external key and subscriber (the
    /// unsubscribe path: only the registering subscriber may cancel).
    pub fn find(&self, sub_key: &str, subscriber: &str) -> Option<SubId> {
        self.entries
            .values()
            .find(|s| s.sub_key == sub_key && s.subscriber == subscriber)
            .map(|s| s.id)
    }

    /// Replaces a subscription's last-delivered result set.
    pub fn update_last(&mut self, id: SubId, last: Arc<Vec<MatchRow>>) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.last = last;
        }
    }

    /// The subscriptions to re-score when `old` is replaced by `new`
    /// (either side `None` for a pure advertise or unadvertise), each
    /// version probed with the terms `repo` posts it under. What derived
    /// rules granted a version is read by its agent's name, so under
    /// rules ask about the old version while it is still posted: with
    /// `new` `None` before the mutation, then with `old` `None` after it,
    /// as the broker does.
    pub fn affected(
        &self,
        old: Option<&Advertisement>,
        new: Option<&Advertisement>,
        repo: &Repository,
    ) -> BTreeSet<SubId> {
        self.index.affected_by_change(old, new, repo)
    }
}

/// The notification delta between two result sets: `matched` carries every
/// result row that is new or that changed — a different block, read back
/// by text where the two are not one shared block, or a different score —
/// `unmatched` the names that left the set. The broker and the parity
/// suite's naive oracle, which diffs decoded rows field by field, feed the
/// same diff, so parity reduces to result-set equality.
pub fn result_delta<R: ResultRow>(old: &[R], new: &[R]) -> (Vec<R>, Vec<String>) {
    let old_by_name: HashMap<&str, &R> = old.iter().map(|m| (m.name(), m)).collect();
    let new_names: HashSet<&str> = new.iter().map(ResultRow::name).collect();
    let matched = new
        .iter()
        .filter(|m| old_by_name.get(m.name()).map_or(true, |o| *o != *m))
        .cloned()
        .collect();
    let unmatched = old
        .iter()
        .filter(|m| !new_names.contains(m.name()))
        .map(|m| m.name().to_string())
        .collect();
    (matched, unmatched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatchResult;
    use infosleuth_constraint::{Conjunction, Predicate};
    use infosleuth_ontology::{
        paper_class_ontology, AgentLocation, AgentType, Capability, ClassDef, Ontology,
        OntologyContent, SemanticInfo,
    };

    fn repo() -> Repository {
        let mut r = Repository::new();
        r.register_ontology(paper_class_ontology());
        r
    }

    fn ad(name: &str, classes: &[&str], constraints: Option<Conjunction>) -> Advertisement {
        let mut content =
            OntologyContent::new("paper-classes").with_classes(classes.iter().copied());
        if let Some(c) = constraints {
            content = content.with_constraints(c);
        }
        Advertisement::new(AgentLocation::new(
            name,
            format!("tcp://{name}.mcc.com:4000"),
            AgentType::Resource,
        ))
        .with_semantic(SemanticInfo::default().with_content(content))
    }

    fn class_query(class: &str) -> ServiceQuery {
        ServiceQuery::any().with_ontology("paper-classes").with_classes([class])
    }

    #[test]
    fn class_buckets_prune_unrelated_subscriptions() {
        let repo = repo();
        let mut idx = SubscriptionIndex::default();
        idx.insert(1, &class_query("C1"));
        idx.insert(2, &class_query("C2"));
        let hit = idx.affected_by_change(None, Some(&ad("ra", &["C1"], None)), &repo);
        assert!(hit.contains(&1));
        assert!(!hit.contains(&2));
        // Both old and new versions probe: moving an agent from C2 to C1
        // affects both subscriptions.
        let hit = idx.affected_by_change(
            Some(&ad("ra", &["C2"], None)),
            Some(&ad("ra", &["C1"], None)),
            &repo,
        );
        assert!(hit.contains(&1) && hit.contains(&2));
    }

    #[test]
    fn class_expansion_follows_the_hierarchy() {
        let repo = repo();
        let o = paper_class_ontology();
        let h = o.hierarchy();
        // Find a class with a parent so the expansion is non-trivial.
        let child = o
            .class_names()
            .find(|c| !h.ancestors(c).is_empty())
            .expect("paper ontology has a subclass");
        let parent = h.ancestors(child)[0].as_str();
        let mut idx = SubscriptionIndex::default();
        idx.insert(7, &class_query(child));
        // An agent advertising only the ancestor still affects the child
        // subscription (full-coverage matches).
        let hit = idx.affected_by_change(None, Some(&ad("ra", &[parent], None)), &repo);
        assert!(hit.contains(&7), "ancestor advertisement must hit the subscription");
    }

    #[test]
    fn catch_all_subscriptions_always_probe() {
        let repo = repo();
        let mut idx = SubscriptionIndex::default();
        idx.insert(1, &ServiceQuery::for_agent_type(AgentType::Resource));
        let hit = idx.affected_by_change(None, Some(&ad("ra", &["C1"], None)), &repo);
        assert!(hit.contains(&1));
    }

    #[test]
    fn agent_name_bucket_is_exact() {
        let repo = repo();
        let mut idx = SubscriptionIndex::default();
        let mut q = ServiceQuery::any();
        q.agent_name = Some("ra-1".into());
        idx.insert(1, &q);
        assert!(idx.affected_by_change(None, Some(&ad("ra-1", &["C1"], None)), &repo).contains(&1));
        assert!(idx.affected_by_change(None, Some(&ad("ra-2", &["C1"], None)), &repo).is_empty());
    }

    #[test]
    fn capability_bucket_expands_ancestors() {
        let mut r = Repository::new();
        r.register_ontology(paper_class_ontology());
        let mut idx = SubscriptionIndex::default();
        let q = ServiceQuery::any().with_capability(Capability::subscription());
        idx.insert(1, &q);
        let mut a = ad("ra", &[], None);
        a.semantic.capabilities.insert(Capability::subscription());
        assert!(idx.affected_by_change(None, Some(&a), &r).contains(&1));
        let b = ad("rb", &[], None);
        assert!(idx.affected_by_change(None, Some(&b), &r).is_empty());
    }

    #[test]
    fn interval_trees_rule_out_disjoint_constraint_windows() {
        let repo = repo();
        let mut idx = SubscriptionIndex::default();
        let q_lo = class_query("C1").with_constraints(Conjunction::from_predicates(vec![
            Predicate::between("C1.a", 0, 10),
        ]));
        let q_hi = class_query("C1").with_constraints(Conjunction::from_predicates(vec![
            Predicate::between("C1.a", 100, 110),
        ]));
        idx.insert(1, &q_lo);
        idx.insert(2, &q_hi);
        let narrow = ad(
            "ra",
            &["C1"],
            Some(Conjunction::from_predicates(vec![Predicate::between("C1.a", 5, 8)])),
        );
        let hit = idx.affected_by_change(None, Some(&narrow), &repo);
        assert!(hit.contains(&1), "overlapping window stays a candidate");
        assert!(!hit.contains(&2), "disjoint window is pruned");
        // An advertisement without a restriction on the slot can match
        // either subscription: nothing is pruned.
        let open = ad("rb", &["C1"], None);
        let hit = idx.affected_by_change(None, Some(&open), &repo);
        assert!(hit.contains(&1) && hit.contains(&2));
    }

    #[test]
    fn interval_refinement_takes_the_union_over_content_records() {
        let mut repo = repo();
        let window = |lo: i64, hi: i64| {
            OntologyContent::new("paper-classes").with_classes(["C1"]).with_constraints(
                Conjunction::from_predicates(vec![Predicate::between("C1.a", lo, hi)]),
            )
        };
        // Two records, far apart: a subscription inside the second one's
        // window is disjoint from the first record only.
        let two = Advertisement::new(AgentLocation::new("ra", "tcp://h:1", AgentType::Resource))
            .with_semantic(
                SemanticInfo::default().with_content(window(0, 10)).with_content(window(100, 105)),
            );
        let q = class_query("C1").with_constraints(Conjunction::from_predicates(vec![
            Predicate::between("C1.a", 100, 110),
        ]));
        let mut idx = SubscriptionIndex::default();
        idx.insert(1, &q);
        repo.advertise(two.clone()).unwrap();
        let matched = crate::Matchmaker::default().match_query_mut(&mut repo, &q);
        assert_eq!(matched.len(), 1, "the second record matches the subscription");
        assert!(idx.affected_by_change(None, Some(&two), &repo).contains(&1));
        // A record open on the slot takes the slot out of the hull.
        let mut half_open = two.clone();
        half_open.semantic.content[1] = OntologyContent::new("paper-classes").with_classes(["C1"]);
        assert!(idx.affected_by_change(None, Some(&half_open), &repo).contains(&1));
        // Both records disjoint from the subscription still prune it.
        let mut both_low = two;
        both_low.semantic.content[1] = window(20, 30);
        assert!(!idx.affected_by_change(None, Some(&both_low), &repo).contains(&1));
    }

    #[test]
    fn removal_unregisters_every_bucket() {
        let repo = repo();
        let mut idx = SubscriptionIndex::default();
        let q = class_query("C1").with_constraints(Conjunction::from_predicates(vec![
            Predicate::between("C1.a", 0, 10),
        ]));
        idx.insert(1, &q);
        assert_eq!(idx.bucket_of.len(), 1);
        idx.remove(1);
        assert!(idx.bucket_of.is_empty());
        assert!(idx.affected_by_change(None, Some(&ad("ra", &["C1"], None)), &repo).is_empty());
    }

    /// What a derived rule grants an advertisement is among its posted
    /// terms, so the index stays as narrow under rules as without them:
    /// the subscription only the rule lets the advertisement match is
    /// affected, the unrelated ones are not — before the advertisement is
    /// withdrawn as after it is posted.
    #[test]
    fn registry_stays_narrow_under_derived_rules() {
        let mut r = repo();
        r.register_derived_rules("cap(A, polling) :- cap(A, subscription).").expect("rules admit");
        let mut reg = SubscriptionRegistry::new(true);
        let mut register = |key: &str, query: ServiceQuery| {
            reg.register(key.into(), "watcher".into(), None, query, Arc::default(), &r)
        };
        let polling =
            register("s1", ServiceQuery::any().with_capability(Capability::new("polling")));
        let c1 = register("s2", class_query("C1"));
        let c3 = register("s3", class_query("C3"));
        let mut subscriber = ad("ra", &["C2"], None);
        subscriber.semantic.capabilities.insert(Capability::subscription());
        r.advertise(subscriber).unwrap();
        let posted = reg.affected(None, r.advertisement("ra"), &r);
        assert_eq!(posted, [polling].into(), "only the derived capability's subscription");
        assert!(!posted.contains(&c1) && !posted.contains(&c3));
        // Asked about while it is posted, the advertisement about to be
        // withdrawn reaches the polling subscription; withdrawn, its grants
        // are gone with it.
        let withdrawn = r.advertisement_arc("ra").cloned().unwrap();
        assert_eq!(reg.affected(Some(&withdrawn), None, &r), [polling].into());
        assert!(r.unadvertise("ra"));
        assert!(!reg.affected(Some(&withdrawn), None, &r).contains(&polling));
    }

    /// A subclass added to a live hierarchy reaches the subscriptions
    /// standing on its new ancestors: the event is expanded against the
    /// hierarchy as it is now, not as it was when they registered.
    #[test]
    fn a_subclass_registered_after_a_subscription_reaches_it() {
        let version = |subclasses: &[&str]| {
            let mut o = Ontology::new("zoo");
            o.add_class(ClassDef::new("q", Vec::new())).unwrap();
            for class in subclasses {
                o.add_subclass("q", ClassDef::new(*class, Vec::new())).unwrap();
            }
            o
        };
        let mut repo = Repository::new();
        repo.register_ontology(version(&[]));
        let mut reg = SubscriptionRegistry::default();
        let query = ServiceQuery::any().with_ontology("zoo").with_classes(["q"]);
        let id = reg.register("s1".into(), "watcher".into(), None, query, Arc::default(), &repo);
        repo.register_ontology(version(&["d"]));
        let of_d = Advertisement::new(AgentLocation::new("ra", "tcp://h:1", AgentType::Resource))
            .with_semantic(
                SemanticInfo::default()
                    .with_content(OntologyContent::new("zoo").with_classes(["d"])),
            );
        assert!(reg.affected(None, Some(&of_d), &repo).contains(&id));
    }

    #[test]
    fn delta_reports_entries_leavers_and_score_changes() {
        let m = |name: &str, score: u32| MatchResult {
            name: name.into(),
            score,
            ..MatchResult::default()
        };
        let old = vec![m("a", 3), m("b", 2)];
        let new = vec![m("a", 3), m("c", 4)];
        let (matched, unmatched) = result_delta(&old, &new);
        assert_eq!(matched.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(), vec!["c"]);
        assert_eq!(unmatched, vec!["b"]);
        // A score change re-announces the entry.
        let bumped = vec![m("a", 5), m("b", 2)];
        let (matched, unmatched) = result_delta(&old, &bumped);
        assert_eq!(matched.len(), 1);
        assert_eq!(matched[0].name, "a");
        assert!(unmatched.is_empty());
        // Identical sets produce an empty delta (no notification).
        let (matched, unmatched) = result_delta(&old, &old.clone());
        assert!(matched.is_empty() && unmatched.is_empty());
    }
}
