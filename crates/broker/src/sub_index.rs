//! The table of stored answers: one record per distinct untruncated
//! service query, holding its ranked rows and the standing subscriptions
//! that read them, bucketed so that one repository mutation yields the
//! (small) set of records it can possibly change. A record nobody
//! subscribes to is a match-cache entry ([`crate::MatchCache`] bounds and
//! evicts those); a subscribed one is pinned.
//!
//! The shape follows S-ToPSS-style semantic pub/sub matching: the *event*
//! is expanded through the hierarchies and the queries are stored bare.
//! Each record sits in one bucket, keyed by the symbol of its query's most
//! selective *required* term (agent name, then an ontology class, then a
//! capability, then the ontology itself, then a conversation type) exactly
//! as the query states it. An advertise/unadvertise/update event probes
//! the buckets with the changed advertisement's posted terms — its name
//! and [`Repository::posted_terms`], the expansion candidate narrowing
//! posts it under — for the old version before the mutation *and* the new
//! one after it, so the result is a sound over-approximation: every record
//! whose rows could have changed is in the candidate set, and a false
//! positive (a 64-bit symbol collision among them) only costs one score
//! that leaves the rows as they were. The expansion is read from the
//! repository, so a hierarchy re-registered under live records is
//! followed at once.
//!
//! A write to advertisement X can change a stored answer only in X's row
//! (an advertisement's score depends on it, its grants and the taxonomy
//! alone), so each record reached is patched, not re-matched: X's row is
//! dropped, the new X is scored against the record's query and inserted at
//! its rank. Records the write does not reach stay valid. A subscription
//! reads the first `max_matches` rows of its record; its delta is the
//! difference between that view before and after the patch.
//!
//! Numeric data constraints refine the candidate set through per-slot
//! windows: a query constraining `patient.age` to `[25, 65]` is ruled out
//! for an advertisement restricted to `[80, 90]` without ever scoring it.
//! Each candidate's window is one lookup, so the refinement costs
//! `O(candidates)` however many records constrain the slot.
//!
//! Derived concept rules change nothing here: what they grant an
//! advertisement — capabilities and classes it never advertised — is
//! among its posted terms while it is posted, which is why the old
//! version is probed before the mutation withdraws it.

use crate::codec::ResultRow;
use crate::match_cache::QueryKey;
use crate::matchmaker::insert_ranked;
use crate::repository::Term;
use crate::{MatchRow, Matchmaker, Repository};
use infosleuth_constraint::{Bound, Conjunction, Value};
use infosleuth_kqml::Text;
use infosleuth_obs::TraceContext;
use infosleuth_ontology::{Advertisement, ServiceQuery};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Internal subscription identifier.
pub type SubId = u64;

/// Internal record identifier: a slot of the record table, reused once
/// its record is evicted.
pub type RecordId = u32;

/// The closed numeric `(lo, hi)` hull of a slot's domain.
type Hull = (f64, f64);

/// One standing subscription: where its notifications go and how many of
/// its record's rows it reads.
#[derive(Debug)]
pub struct StandingSubscription {
    /// Notifications go out in ascending id order.
    pub id: SubId,
    /// The external subscription id (from `:reply-with` or minted);
    /// notifications carry it as `:in-reply-to`.
    pub sub_key: Text,
    /// The agent name notifications are delivered to (`:reply-to` of the
    /// subscribe message, falling back to the sender).
    pub subscriber: Text,
    /// The trace context the subscribe message arrived with; every
    /// notification is sent beside it.
    pub trace: Option<TraceContext>,
    /// The subscriber reads the first `max_matches` rows of the record.
    pub max_matches: Option<usize>,
}

/// One stored answer, boxed: the untruncated query, its ranked rows, where
/// the index holds it, and who reads it.
#[derive(Debug)]
struct QueryRecord {
    query: ServiceQuery,
    /// The hash of the query's canonical text.
    hash: u64,
    /// Best first, untruncated; shared with every reader it was handed to.
    rows: Arc<Vec<MatchRow>>,
    /// The symbol of the term bucket the record sits in; `None` for the
    /// catch-all.
    bucket: Option<u64>,
    /// The next record of the same bucket.
    next: Option<RecordId>,
    /// The numeric hull of every slot the query constrains (for
    /// refinement, not primary candidacy).
    windows: Box<[(Text, Hull)]>,
    /// The subscriptions reading this record, ascending by id; empty for
    /// a match-cache entry.
    subs: Vec<StandingSubscription>,
    /// LRU access stamp.
    stamp: u64,
}

/// A `sub-delta` owed to one subscription: `(id, its record, matched,
/// unmatched)`.
pub type Note = (SubId, RecordId, Vec<MatchRow>, Vec<String>);

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

/// The most selective term `query` *requires*, bare: agent name, then a
/// class (requires an ontology), then a capability, then the ontology,
/// then a conversation type. With none the subscription can be affected by
/// any mutation (catch-all). One class or capability suffices: a matching
/// advertisement must be posted under *every* requested one.
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

/// The table of stored answers and its inverted index: every record in
/// one slot, the record each canonical query names, the subscription each
/// subscriber's key names, and the term buckets.
#[derive(Debug, Default)]
pub struct SubscriptionRegistry {
    records: Vec<Option<Box<QueryRecord>>>,
    /// Empty slots of `records`, reused before the table grows.
    free: Vec<RecordId>,
    /// Hash of the canonical untruncated query text → record; a hit is
    /// confirmed against the record's query.
    by_key: HashMap<u64, RecordId>,
    /// `(subscriber, key)` → the subscription and its record: what
    /// `unsubscribe` names, one subscription per pair.
    keys: HashMap<(Text, Text), (SubId, RecordId)>,
    /// Term symbol → the first record of the bucket's chain (each record
    /// links the next one).
    buckets: HashMap<u64, RecordId>,
    /// The first record of the catch-all chain.
    catch_all: Option<RecordId>,
    next_id: SubId,
    /// Records no subscription pins: the match-cache entries.
    unpinned: usize,
}

impl SubscriptionRegistry {
    /// [`default`](Self::default) under the name and arity the
    /// `benchmark/` harness calls (`new(true)`). The table is always
    /// indexed; the naive all-subscriptions oracle lives in
    /// `tests/sub_parity.rs`.
    pub fn new(indexed: bool) -> Self {
        assert!(indexed, "the unindexed registry left production");
        SubscriptionRegistry::default()
    }

    /// A table whose slots and key map hold `records` records before they
    /// grow.
    pub(crate) fn with_capacity(records: usize) -> Self {
        SubscriptionRegistry {
            records: Vec::with_capacity(records),
            by_key: HashMap::with_capacity(records),
            ..SubscriptionRegistry::default()
        }
    }

    /// Number of standing subscriptions.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of records, pinned or not.
    pub(crate) fn records(&self) -> usize {
        self.records.len() - self.free.len()
    }

    /// Number of records no subscription pins.
    pub(crate) fn unpinned(&self) -> usize {
        self.unpinned
    }

    /// A `sub-N` key `subscriber` does not hold yet, for a subscribe that
    /// named none.
    pub(crate) fn fresh_key(&self, subscriber: &str) -> Text {
        let subscriber = Text::from(subscriber);
        (self.next_id + 1..)
            .map(|n| Text::from(format!("sub-{n}")))
            .find(|key| !self.keys.contains_key(&(subscriber.clone(), key.clone())))
            .expect("an unbounded range holds a free key") // lint: allow-unwrap
    }

    /// Registers a standing subscription on the record of `query`'s
    /// untruncated form — created with `rows`, its untruncated ranking,
    /// when there is none — and returns its id; or `None`, registering
    /// nothing, when `subscriber` already holds a subscription under
    /// `sub_key`. The subscription reads `query.max_matches` rows. `_repo`
    /// is not read — a record is bucketed as its query is stated, and each
    /// event is expanded against the repository as it then stands — but it
    /// keeps the call shape `benchmark/` uses.
    pub fn register(
        &mut self,
        sub_key: impl Into<Text>,
        subscriber: Text,
        trace: Option<TraceContext>,
        query: ServiceQuery,
        rows: Arc<Vec<MatchRow>>,
        _repo: &Repository,
    ) -> Option<SubId> {
        let max_matches = query.max_matches;
        self.register_keyed(
            sub_key.into(),
            subscriber,
            trace,
            max_matches,
            QueryKey::new(&query),
            rows,
        )
    }

    /// [`register`](Self::register) on a key already rendered: the
    /// subscription reads `max_matches` rows of the record `key` names.
    pub(crate) fn register_keyed(
        &mut self,
        sub_key: Text,
        subscriber: Text,
        trace: Option<TraceContext>,
        max_matches: Option<usize>,
        key: QueryKey<'_>,
        rows: Arc<Vec<MatchRow>>,
    ) -> Option<SubId> {
        let pair = (subscriber.clone(), sub_key.clone());
        if self.keys.contains_key(&pair) {
            return None;
        }
        self.next_id += 1;
        let id = self.next_id;
        let (record, _) = self.insert(key, rows, 0);
        self.keys.insert(pair, (id, record));
        let held = self.records[record as usize].as_mut().expect("a live record"); // lint: allow-unwrap
        if held.subs.is_empty() {
            self.unpinned -= 1;
        }
        held.subs.reserve_exact(1);
        held.subs.push(StandingSubscription { id, sub_key, subscriber, trace, max_matches });
        Some(id)
    }

    /// Cancels the subscription `subscriber` holds under `sub_key` (only
    /// the registering subscriber may cancel); `false` when it holds none.
    /// Its record stays, as a match-cache entry once nobody reads it.
    pub(crate) fn unsubscribe(&mut self, sub_key: &str, subscriber: &str) -> bool {
        let pair = (Text::from(subscriber), Text::from(sub_key));
        let Some((id, record)) = self.keys.remove(&pair) else { return false };
        if let Some(record) = self.records[record as usize].as_mut() {
            record.subs.retain(|s| s.id != id);
            if record.subs.is_empty() {
                self.unpinned += 1;
            }
        }
        true
    }

    /// Subscription `id`, which reads `record`.
    pub(crate) fn subscription(
        &self,
        record: RecordId,
        id: SubId,
    ) -> Option<&StandingSubscription> {
        self.records.get(record as usize)?.as_ref()?.subs.iter().find(|s| s.id == id)
    }

    /// The record `key` names, if any.
    fn find_record(&self, key: &QueryKey<'_>) -> Option<RecordId> {
        let id = *self.by_key.get(&key.hash())?;
        let record = self.records[id as usize].as_ref()?;
        (record.query == *key.query()).then_some(id)
    }

    /// The rows of the record `key` names, stamping it used at `stamp`.
    pub(crate) fn lookup(&mut self, key: &QueryKey<'_>, stamp: u64) -> Option<Arc<Vec<MatchRow>>> {
        let id = self.find_record(key)?;
        let record = self.records[id as usize].as_mut()?;
        record.stamp = stamp;
        Some(Arc::clone(&record.rows))
    }

    /// The record `key` names, created with `rows` when there is none —
    /// and listed under the key's hash unless another query holds it, in
    /// which case lookups never find it but writes patch it all the same;
    /// `true` when it was created.
    pub(crate) fn insert(
        &mut self,
        key: QueryKey<'_>,
        rows: Arc<Vec<MatchRow>>,
        stamp: u64,
    ) -> (RecordId, bool) {
        if let Some(id) = self.find_record(&key) {
            return (id, false);
        }
        let (hash, query) = key.into_parts();
        let bucket = representative(&query).map(Term::symbol);
        let windows = query
            .constraints
            .constrained_slots()
            .filter_map(|slot| Some((Text::from(slot), numeric_hull(&query.constraints, slot)?)))
            .collect();
        let id = self.free.pop().unwrap_or_else(|| {
            self.records.push(None);
            (self.records.len() - 1) as RecordId
        });
        let next = match bucket {
            Some(symbol) => self.buckets.insert(symbol, id),
            None => self.catch_all.replace(id),
        };
        let subs = Vec::new();
        let record = QueryRecord { query, hash, rows, bucket, next, windows, subs, stamp };
        self.records[id as usize] = Some(Box::new(record));
        self.by_key.entry(hash).or_insert(id);
        self.unpinned += 1;
        (id, true)
    }

    /// Drops the least recently used record no subscription pins; `false`
    /// when there is none.
    pub(crate) fn evict_lru(&mut self) -> bool {
        let oldest = self.records.iter().enumerate().filter_map(|(id, r)| {
            let r = r.as_ref().filter(|r| r.subs.is_empty())?;
            Some((r.stamp, id as RecordId))
        });
        let Some((_, oldest)) = oldest.min() else { return false };
        self.drop_record(oldest);
        true
    }

    /// Drops every record no subscription pins; returns how many.
    pub(crate) fn drop_unpinned(&mut self) -> usize {
        let unpinned =
            self.records.iter().enumerate().filter_map(|(id, r)| {
                r.as_ref().filter(|r| r.subs.is_empty()).map(|_| id as RecordId)
            });
        let doomed: Vec<RecordId> = unpinned.collect();
        for &id in &doomed {
            self.drop_record(id);
        }
        doomed.len()
    }

    /// Takes record `id`, which no subscription pins, out of every map.
    fn drop_record(&mut self, id: RecordId) {
        let Some(record) = self.records[id as usize].take() else { return };
        let head = match record.bucket {
            Some(symbol) => self.buckets.get(&symbol).copied(),
            None => self.catch_all,
        };
        if head == Some(id) {
            match (record.bucket, record.next) {
                (Some(symbol), Some(next)) => self.buckets.insert(symbol, next),
                (Some(symbol), None) => self.buckets.remove(&symbol),
                (None, next) => std::mem::replace(&mut self.catch_all, next),
            };
        } else {
            let mut at = head;
            while let Some(earlier) = at.and_then(|at| self.records[at as usize].as_mut()) {
                if earlier.next == Some(id) {
                    earlier.next = record.next;
                    break;
                }
                at = earlier.next;
            }
        }
        if self.by_key.get(&record.hash) == Some(&id) {
            self.by_key.remove(&record.hash);
        }
        self.free.push(id);
        self.unpinned -= 1;
    }

    /// The records whose rows `old` being replaced by `new` can change
    /// (either side `None` for a pure advertise or unadvertise), each
    /// version probed with the terms `repo` posts it under. What derived
    /// rules granted a version is read by its agent's name, so under
    /// rules ask about the old version while it is still posted: with
    /// `new` `None` before the mutation, then with `old` `None` after it,
    /// as the broker does.
    ///
    /// Sound over-approximation; a record reached in vain is patched to
    /// the rows it had.
    pub fn affected(
        &self,
        old: Option<&Advertisement>,
        new: Option<&Advertisement>,
        repo: &Repository,
    ) -> BTreeSet<RecordId> {
        let mut out: BTreeSet<RecordId> = self.chain(self.catch_all).collect();
        for ad in [old, new].into_iter().flatten() {
            self.collect_for_ad(ad, repo, &mut out);
        }
        out
    }

    /// The records of the chain that starts at `head`.
    fn chain(&self, head: Option<RecordId>) -> impl Iterator<Item = RecordId> + '_ {
        std::iter::successors(head, |id| self.records[*id as usize].as_ref()?.next)
    }

    fn collect_for_ad(&self, ad: &Advertisement, repo: &Repository, out: &mut BTreeSet<RecordId>) {
        if self.buckets.is_empty() {
            return;
        }
        let mut candidates: HashSet<RecordId> = HashSet::new();
        let terms = repo.posted_terms(ad, repo.granted(ad));
        let posted = std::iter::once(Term::Name(&ad.location.name)).chain(terms);
        for term in posted {
            candidates.extend(self.chain(self.buckets.get(&term.symbol()).copied()));
        }
        if candidates.is_empty() {
            return;
        }
        // Interval refinement: a query constraining a slot to a window
        // disjoint from the advertisement's hull on that slot overlaps
        // none of its content records (constraint overlap is required for
        // any score), so this version has no row in its record. Bounds
        // are treated as closed — a conservative relaxation of bound
        // exclusivity — and only the candidates are looked at, never every
        // record on the slot.
        let hulls = ad_slot_hulls(ad);
        let meets = |(slot, (s_lo, s_hi)): &(Text, Hull)| {
            hulls
                .iter()
                .all(|(h, (lo, hi))| h.as_bytes() != slot.as_bytes() || (s_lo <= hi && s_hi >= lo))
        };
        candidates.retain(|id| {
            self.records[*id as usize].as_ref().map_or(true, |r| r.windows.iter().all(meets))
        });
        out.extend(candidates);
    }

    /// Patches each record in `reached` for a write that changed the
    /// advertisements of `changed`: their rows are dropped, their versions
    /// now posted are scored against the record's query and inserted at
    /// their rank. Returns the deltas owed, ascending by subscription id,
    /// each the difference between the subscription's view before and
    /// after.
    pub(crate) fn patch(
        &mut self,
        repo: &Repository,
        changed: &[Text],
        reached: &BTreeSet<RecordId>,
    ) -> Vec<Note> {
        let posted: Vec<_> =
            changed.iter().filter_map(|name| repo.ad_index().posted(name)).collect();
        let mut notes = Vec::new();
        for &id in reached {
            let Some(record) = self.records[id as usize].as_mut() else { continue };
            let is_changed = |row: &MatchRow| changed.contains(&row.name);
            let scored: Vec<MatchRow> = posted
                .iter()
                .filter_map(|p| Matchmaker::default().score_row(repo, p, &record.query))
                .collect();
            if scored.is_empty() && !record.rows.iter().any(is_changed) {
                continue;
            }
            let old = (!record.subs.is_empty()).then(|| Arc::clone(&record.rows));
            let rows = Arc::make_mut(&mut record.rows);
            rows.retain(|row| !is_changed(row));
            for row in scored {
                insert_ranked(rows, row);
            }
            let Some(old) = old else { continue };
            for sub in &record.subs {
                let (matched, unmatched) = view_delta(&old, &record.rows, sub.max_matches, changed);
                if !matched.is_empty() || !unmatched.is_empty() {
                    notes.push((sub.id, id, matched, unmatched));
                }
            }
        }
        notes.sort_by_key(|note| note.0);
        notes
    }

    /// Makes the table current after a mutation no patch followed: drops
    /// every record no subscription pins and matches each pinned one
    /// again. Returns the deltas owed, ascending by subscription id.
    pub(crate) fn rematch(&mut self, repo: &Repository) -> Vec<Note> {
        self.drop_unpinned();
        let mut notes = Vec::new();
        for (id, slot) in self.records.iter_mut().enumerate() {
            let Some(record) = slot else { continue };
            let rows = Arc::new(Matchmaker::default().match_query(repo, &record.query));
            for sub in &record.subs {
                let cut = sub.max_matches;
                let (matched, unmatched) = result_delta(view(&record.rows, cut), view(&rows, cut));
                if !matched.is_empty() || !unmatched.is_empty() {
                    notes.push((sub.id, id as RecordId, matched, unmatched));
                }
            }
            record.rows = rows;
        }
        notes.sort_by_key(|note| note.0);
        notes
    }

    /// Every record's query with its rows, then every subscription with
    /// the view it reads: what a check of the stored answers compares.
    #[allow(clippy::type_complexity)]
    pub(crate) fn stored(
        &self,
    ) -> (Vec<(&ServiceQuery, &[MatchRow])>, Vec<(&StandingSubscription, &[MatchRow])>) {
        let records = self.records.iter().flatten().map(|r| (&r.query, r.rows.as_slice()));
        let views = self.records.iter().flatten().flat_map(|record| {
            record.subs.iter().map(|sub| (sub, view(&record.rows, sub.max_matches)))
        });
        (records.collect(), views.collect())
    }
}

/// The first `cut` rows: what a subscription reads of its record.
pub(crate) fn view<R>(rows: &[R], cut: Option<usize>) -> &[R] {
    &rows[..cut.map_or(rows.len(), |n| n.min(rows.len()))]
}

/// The delta between a subscription's views of a record before and after a
/// patch that changed only the rows named in `changed`: what
/// [`result_delta`] over the two views returns, found without hashing
/// either. Every other row keeps its order, so each view holds a prefix of
/// them, and a row beyond the shorter prefix is one that crossed the cut.
fn view_delta(
    old: &[MatchRow],
    new: &[MatchRow],
    cut: Option<usize>,
    changed: &[Text],
) -> (Vec<MatchRow>, Vec<String>) {
    let (old, new) = (view(old, cut), view(new, cut));
    let is_changed = |row: &MatchRow| changed.contains(&row.name);
    let kept = |rows: &[MatchRow]| rows.iter().filter(|r| !is_changed(r)).count();
    let (kept_old, kept_new) = match cut {
        Some(_) => (kept(old), kept(new)),
        None => (usize::MAX, usize::MAX),
    };
    let mut matched = Vec::new();
    let mut k = 0;
    for row in new {
        if is_changed(row) {
            if old.iter().find(|o| o.name == row.name) != Some(row) {
                matched.push(row.clone());
            }
        } else {
            k += 1;
            if k > kept_old {
                matched.push(row.clone());
            }
        }
    }
    let mut unmatched = Vec::new();
    let mut k = 0;
    for row in old {
        let gone = if is_changed(row) {
            !new.iter().any(|n| n.name == row.name)
        } else {
            k += 1;
            k > kept_new
        };
        if gone {
            unmatched.push(row.name.to_string());
        }
    }
    (matched, unmatched)
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

    /// A registry holding `queries` in order, so the `i`-th has id `i + 1`.
    fn registry<const N: usize>(queries: [ServiceQuery; N]) -> SubscriptionRegistry {
        let repo = Repository::new();
        let mut reg = SubscriptionRegistry::default();
        for (i, query) in queries.into_iter().enumerate() {
            let id =
                reg.register(format!("s{i}"), "watcher".into(), None, query, Arc::default(), &repo);
            assert_eq!(id, Some(i as SubId + 1));
        }
        reg
    }

    /// The subscriptions reading the records a write reaches.
    fn reached(
        reg: &SubscriptionRegistry,
        old: Option<&Advertisement>,
        new: Option<&Advertisement>,
        repo: &Repository,
    ) -> BTreeSet<SubId> {
        let records = reg.affected(old, new, repo);
        let reading = |id: &RecordId| reg.records[*id as usize].iter().flat_map(|r| &r.subs);
        records.iter().flat_map(reading).map(|sub| sub.id).collect()
    }

    #[test]
    fn class_buckets_prune_unrelated_subscriptions() {
        let repo = repo();
        let idx = registry([class_query("C1"), class_query("C2")]);
        let hit = reached(&idx, None, Some(&ad("ra", &["C1"], None)), &repo);
        assert!(hit.contains(&1));
        assert!(!hit.contains(&2));
        // Both old and new versions probe: moving an agent from C2 to C1
        // affects both subscriptions.
        let hit =
            reached(&idx, Some(&ad("ra", &["C2"], None)), Some(&ad("ra", &["C1"], None)), &repo);
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
        let idx = registry([class_query(child)]);
        // An agent advertising only the ancestor still affects the child
        // subscription (full-coverage matches).
        let hit = reached(&idx, None, Some(&ad("ra", &[parent], None)), &repo);
        assert!(hit.contains(&1), "ancestor advertisement must hit the subscription");
    }

    #[test]
    fn catch_all_subscriptions_always_probe() {
        let repo = repo();
        let idx = registry([ServiceQuery::for_agent_type(AgentType::Resource)]);
        let hit = reached(&idx, None, Some(&ad("ra", &["C1"], None)), &repo);
        assert!(hit.contains(&1));
    }

    #[test]
    fn agent_name_bucket_is_exact() {
        let repo = repo();
        let mut q = ServiceQuery::any();
        q.agent_name = Some("ra-1".into());
        let idx = registry([q]);
        assert!(reached(&idx, None, Some(&ad("ra-1", &["C1"], None)), &repo).contains(&1));
        assert!(reached(&idx, None, Some(&ad("ra-2", &["C1"], None)), &repo).is_empty());
    }

    #[test]
    fn capability_bucket_expands_ancestors() {
        let mut r = Repository::new();
        r.register_ontology(paper_class_ontology());
        let idx = registry([ServiceQuery::any().with_capability(Capability::subscription())]);
        let mut a = ad("ra", &[], None);
        a.semantic.capabilities.insert(Capability::subscription());
        assert!(reached(&idx, None, Some(&a), &r).contains(&1));
        let b = ad("rb", &[], None);
        assert!(reached(&idx, None, Some(&b), &r).is_empty());
    }

    #[test]
    fn interval_trees_rule_out_disjoint_constraint_windows() {
        let repo = repo();
        let q_lo = class_query("C1").with_constraints(Conjunction::from_predicates(vec![
            Predicate::between("C1.a", 0, 10),
        ]));
        let q_hi = class_query("C1").with_constraints(Conjunction::from_predicates(vec![
            Predicate::between("C1.a", 100, 110),
        ]));
        let idx = registry([q_lo, q_hi]);
        let narrow = ad(
            "ra",
            &["C1"],
            Some(Conjunction::from_predicates(vec![Predicate::between("C1.a", 5, 8)])),
        );
        let hit = reached(&idx, None, Some(&narrow), &repo);
        assert!(hit.contains(&1), "overlapping window stays a candidate");
        assert!(!hit.contains(&2), "disjoint window is pruned");
        // An advertisement without a restriction on the slot can match
        // either subscription: nothing is pruned.
        let open = ad("rb", &["C1"], None);
        let hit = reached(&idx, None, Some(&open), &repo);
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
        let idx = registry([q.clone()]);
        repo.advertise(two.clone()).unwrap();
        let matched = crate::Matchmaker::default().match_query(&repo, &q);
        assert_eq!(matched.len(), 1, "the second record matches the subscription");
        assert!(reached(&idx, None, Some(&two), &repo).contains(&1));
        // A record open on the slot takes the slot out of the hull.
        let mut half_open = two.clone();
        half_open.semantic.content[1] = OntologyContent::new("paper-classes").with_classes(["C1"]);
        assert!(reached(&idx, None, Some(&half_open), &repo).contains(&1));
        // Both records disjoint from the subscription still prune it.
        let mut both_low = two;
        both_low.semantic.content[1] = window(20, 30);
        assert!(!reached(&idx, None, Some(&both_low), &repo).contains(&1));
    }

    #[test]
    fn removal_unregisters_every_bucket() {
        let repo = repo();
        let q = class_query("C1").with_constraints(Conjunction::from_predicates(vec![
            Predicate::between("C1.a", 0, 10),
        ]));
        let mut idx = registry([q]);
        assert_eq!((idx.buckets.len(), idx.unpinned()), (1, 0));
        assert!(idx.unsubscribe("s0", "watcher"));
        assert!(!idx.unsubscribe("s0", "watcher"), "removed once");
        assert!(idx.keys.is_empty());
        assert_eq!((idx.records(), idx.unpinned()), (1, 1), "the record stays, unpinned");
        assert_eq!(idx.drop_unpinned(), 1);
        assert!(idx.buckets.is_empty() && idx.by_key.is_empty() && idx.records() == 0);
        assert!(reached(&idx, None, Some(&ad("ra", &["C1"], None)), &repo).is_empty());
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
            reg.register(key, "watcher".into(), None, query, Arc::default(), &r).unwrap()
        };
        let polling =
            register("s1", ServiceQuery::any().with_capability(Capability::new("polling")));
        let c1 = register("s2", class_query("C1"));
        let c3 = register("s3", class_query("C3"));
        let mut subscriber = ad("ra", &["C2"], None);
        subscriber.semantic.capabilities.insert(Capability::subscription());
        r.advertise(subscriber).unwrap();
        let posted = reached(&reg, None, r.advertisement("ra"), &r);
        assert_eq!(posted, [polling].into(), "only the derived capability's subscription");
        assert!(!posted.contains(&c1) && !posted.contains(&c3));
        // Asked about while it is posted, the advertisement about to be
        // withdrawn reaches the polling subscription; withdrawn, its grants
        // are gone with it.
        let withdrawn = r.advertisement_arc("ra").cloned().unwrap();
        assert_eq!(reached(&reg, Some(&withdrawn), None, &r), [polling].into());
        assert!(r.unadvertise("ra"));
        assert!(!reached(&reg, Some(&withdrawn), None, &r).contains(&polling));
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
        let id = reg.register("s1", "watcher".into(), None, query, Arc::default(), &repo).unwrap();
        repo.register_ontology(version(&["d"]));
        let of_d = Advertisement::new(AgentLocation::new("ra", "tcp://h:1", AgentType::Resource))
            .with_semantic(
                SemanticInfo::default()
                    .with_content(OntologyContent::new("zoo").with_classes(["d"])),
            );
        assert!(reached(&reg, None, Some(&of_d), &repo).contains(&id));
    }

    /// A subscriber holds one subscription per key: a second under the same
    /// key is refused, the same key under another subscriber is not, and
    /// unsubscribing frees the key.
    #[test]
    fn a_key_names_one_subscription_per_subscriber() {
        let repo = repo();
        let mut reg = SubscriptionRegistry::default();
        let mut register = |key: &str, subscriber: &str| {
            reg.register(key, subscriber.into(), None, class_query("C1"), Arc::default(), &repo)
        };
        register("k", "watcher").unwrap();
        assert_eq!(register("k", "watcher"), None);
        let other = register("k", "other-watcher").unwrap();
        assert_eq!((reg.len(), reg.records()), (2, 1), "one query, one record");
        assert!(reg.unsubscribe("k", "watcher"));
        assert!(!reg.unsubscribe("k", "watcher"));
        assert_eq!(reached(&reg, None, Some(&ad("ra", &["C1"], None)), &repo), [other].into());
        let again =
            reg.register("k", "watcher".into(), None, class_query("C1"), Arc::default(), &repo);
        assert!(again.is_some_and(|id| id > other), "the key is free again, under a new id");
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
    fn row(name: &str, score: u32) -> MatchRow {
        MatchRow::from(&MatchResult { name: name.into(), score, ..MatchResult::default() })
    }

    /// Over random rankings, random single-row changes and random cuts,
    /// the delta between the two views is `result_delta`'s.
    #[test]
    fn view_delta_is_result_delta_over_the_views() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..4000 {
            let names: Vec<String> = (0..next(8)).map(|i| format!("a{i}")).collect();
            let mut old: Vec<MatchRow> = names.iter().map(|n| row(n, next(4) as u32 + 1)).collect();
            let rank = |rows: &mut Vec<MatchRow>| {
                rows.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| a.name.cmp(&b.name)))
            };
            rank(&mut old);
            let changed = [Text::from(format!("a{}", next(9)))];
            let mut new: Vec<MatchRow> =
                old.iter().filter(|r| r.name != changed[0]).cloned().collect();
            if next(3) > 0 {
                insert_ranked(&mut new, row(&changed[0], next(4) as u32 + 1));
            }
            let cut = match next(3) {
                0 => None,
                _ => Some(next(6) as usize),
            };
            assert_eq!(
                view_delta(&old, &new, cut, &changed),
                result_delta(view(&old, cut), view(&new, cut)),
                "{old:?} -> {new:?} cut {cut:?}"
            );
        }
    }

    /// A record reached by a write is patched to what a fresh match
    /// returns, and each subscription hears what crossed its cut.
    #[test]
    fn a_patch_equals_a_fresh_match_and_notes_each_cut() {
        let mut repo = repo();
        for (name, lo) in [("ra", 0), ("rb", 5), ("rc", 50)] {
            let c = Conjunction::from_predicates(vec![Predicate::between("C1.a", lo, lo + 10)]);
            repo.advertise(ad(name, &["C1"], Some(c))).unwrap();
        }
        let query = class_query("C1").with_constraints(Conjunction::from_predicates(vec![
            Predicate::between("C1.a", 0, 12),
        ]));
        let rows = Arc::new(crate::Matchmaker::default().match_query(&repo, &query));
        let mut reg = SubscriptionRegistry::default();
        let one = ServiceQuery { max_matches: Some(1), ..query.clone() };
        reg.register("all", "w".into(), None, query.clone(), Arc::clone(&rows), &repo).unwrap();
        reg.register("top", "w".into(), None, one, rows, &repo).unwrap();
        assert_eq!(reg.records(), 1, "both read one record");
        let moved = ad("rc", &["C1"], None);
        let old = repo.advertisement_arc("rc").cloned();
        let mut reached = reg.affected(old.as_deref(), None, &repo);
        repo.advertise(moved).unwrap();
        reached.append(&mut reg.affected(None, repo.advertisement("rc"), &repo));
        let notes = reg.patch(&repo, &["rc".into()], &reached);
        let (records, views) = reg.stored();
        assert_eq!(records[0].1, crate::Matchmaker::default().match_query(&repo, &query));
        let top = views.iter().find(|(s, _)| s.sub_key == "top").unwrap().1;
        assert_eq!(top.len(), 1);
        let ids: Vec<SubId> = notes.iter().map(|n| n.0).collect();
        assert!(ids.contains(&1), "the whole view gained rc: {notes:?}");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending ids");
    }
}
