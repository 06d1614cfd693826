//! The table of stored answers behind its lock: the match cache and the
//! standing subscriptions are one [`SubscriptionRegistry`] of query
//! records, bounded, stamped with the repository epoch it is current at,
//! and counted.
//!
//! Repeated service queries are the broker's steady-state workload; a hit
//! skips candidate narrowing and scoring entirely. A broker write patches
//! the records it reaches and advances the table's epoch with the patch
//! (see [`crate::sub_index`]), so a write leaves every other answer
//! servable. A lookup at an epoch the table is not current at — a
//! repository someone mutated without patching the table, as standalone
//! users do — drops every record no subscription pins, counts them stale,
//! and misses; while pinned records remain, only a patch or a re-match
//! makes the table current again, so a path that skipped the patch can
//! never serve stale rows.
//!
//! Records no subscription pins are bounded LRU: a monotonic access stamp
//! per record, and eviction scans for the oldest, which is O(records) but
//! only runs on insert-past-capacity. An admission gate stops inserting
//! while recent lookups never hit (a query stream that never repeats),
//! admitting one insert in [`ADMISSION_PROBE_EVERY`] so a stream that
//! starts repeating reopens it.

use crate::codec::service_query_to_sexpr;
use crate::matchmaker::MatchRow;
use crate::sub_index::SubscriptionRegistry;
use infosleuth_obs::sync::lock;
use infosleuth_obs::{Counter, Histogram, MetricsRegistry};
use infosleuth_ontology::ServiceQuery;
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Default number of distinct queries a broker remembers beyond the ones
/// its subscriptions pin.
pub const DEFAULT_MATCH_CACHE_CAPACITY: usize = 256;

/// The records with the epoch they are current at.
pub(crate) struct Table {
    pub(crate) records: SubscriptionRegistry,
    epoch: u64,
    clock: u64,
    /// Lookups seen in the current admission window.
    window_lookups: u32,
    /// Hits seen in the current admission window.
    window_hits: u32,
    /// Whether the admission gate is closed (recent hit rate ~0).
    gated: bool,
    /// Inserts attempted while gated, for 1-in-N probe admission.
    probe: u64,
}

impl Table {
    /// The epoch every record's rows are current at.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records the table current at `epoch`: a patch or a re-match brought
    /// every record there.
    pub(crate) fn advance(&mut self, epoch: u64) {
        self.epoch = epoch;
    }
}

/// Lookups per admission-rate sample. Small enough to adapt within one
/// bench pass, large enough that a single hit is a real signal.
const ADMISSION_WINDOW: u32 = 64;

/// While the gate is closed, admit every Nth insert anyway, so a
/// workload that starts repeating itself can produce the hit that
/// reopens the gate.
const ADMISSION_PROBE_EVERY: u64 = 64;

/// A pre-rendered canonical key (see [`MatchCache::query_key`]) with the
/// untruncated query it was rendered from. The only way to make one is to
/// render a query, so a key can never disagree with the query it stands
/// for.
#[derive(Debug, Clone)]
pub struct QueryKey<'q> {
    hash: u64,
    query: Cow<'q, ServiceQuery>,
}

impl<'q> QueryKey<'q> {
    /// The key of `query` with its `max_matches` dropped: a record holds
    /// the whole ranking, and each reader cuts it.
    pub(crate) fn new(query: &'q ServiceQuery) -> QueryKey<'q> {
        let query = match query.max_matches {
            None => Cow::Borrowed(query),
            Some(_) => Cow::Owned(ServiceQuery { max_matches: None, ..query.clone() }),
        };
        let mut hasher = DefaultHasher::new();
        service_query_to_sexpr(&query).to_string().hash(&mut hasher);
        QueryKey { hash: hasher.finish(), query }
    }

    /// The hash of the canonical text.
    pub(crate) fn hash(&self) -> u64 {
        self.hash
    }

    /// The untruncated query.
    pub(crate) fn query(&self) -> &ServiceQuery {
        &self.query
    }

    pub(crate) fn into_parts(self) -> (u64, ServiceQuery) {
        (self.hash, self.query.into_owned())
    }
}

/// Cache counters, readable without the obs registry (used by tests and
/// the bench harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Records dropped because the table was not current at a lookup's
    /// epoch.
    pub stale: u64,
    /// Inserts skipped by the admission gate (recent hit rate ~0, so
    /// caching the result would only pay eviction cost for no reuse).
    pub skipped_inserts: u64,
}

/// The bounded, epoch-stamped table of stored answers.
///
/// Thread-safe behind an internal mutex; the broker consults it while
/// already holding the repository lock, so contention is nil in practice.
pub struct MatchCache {
    table: Mutex<Table>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    stale: Counter,
    skipped: Counter,
    lookup_seconds: Histogram,
}

impl MatchCache {
    pub fn new(capacity: usize) -> MatchCache {
        MatchCache {
            table: Mutex::new(Table {
                records: SubscriptionRegistry::with_capacity(capacity.max(1)),
                epoch: 0,
                clock: 0,
                window_lookups: 0,
                window_hits: 0,
                gated: false,
                probe: 0,
            }),
            capacity: capacity.max(1),
            hits: Counter::detached(),
            misses: Counter::detached(),
            evictions: Counter::detached(),
            stale: Counter::detached(),
            skipped: Counter::detached(),
            lookup_seconds: Histogram::detached(),
        }
    }

    /// Registers this cache's counters and lookup-latency histogram as
    /// `broker_match_cache_total{broker,event}` /
    /// `broker_match_cache_lookup_seconds{broker}` so they ride the
    /// monitor's Prometheus scrape.
    pub fn with_obs(mut self, registry: &MetricsRegistry, broker: &str) -> MatchCache {
        let event = |event: &str| {
            registry.counter("broker_match_cache_total", &[("broker", broker), ("event", event)])
        };
        self.hits = event("hit");
        self.misses = event("miss");
        self.evictions = event("eviction");
        self.stale = event("stale");
        self.skipped = event("skipped_insert");
        self.lookup_seconds =
            registry.histogram("broker_match_cache_lookup_seconds", &[("broker", broker)]);
        self
    }

    /// Renders the canonical key: the untruncated query's KQML
    /// s-expression. Canonical because every set-valued field is ordered
    /// (`BTreeSet`) and the codec is the wire format queries already
    /// round-trip through. Callers that both look up and insert (the miss
    /// path) render once and reuse the [`QueryKey`].
    pub fn query_key(query: &ServiceQuery) -> QueryKey<'_> {
        QueryKey::new(query)
    }

    /// The table, for the broker's write path.
    pub(crate) fn table(&self) -> MutexGuard<'_, Table> {
        lock(&self.table)
    }

    /// Whether `table` is current at `epoch`, making it so when no
    /// subscription pins a record: the records nobody pins are dropped
    /// and counted stale.
    fn current(&self, table: &mut Table, epoch: u64) -> bool {
        if table.epoch == epoch {
            return true;
        }
        self.stale.add(table.records.drop_unpinned() as u64);
        if table.records.records() > 0 {
            return false;
        }
        table.epoch = epoch;
        true
    }

    /// The untruncated ranked rows stored for `key`'s query at `epoch`, if
    /// any.
    pub fn lookup_keyed(&self, epoch: u64, key: &QueryKey<'_>) -> Option<Arc<Vec<MatchRow>>> {
        let started = Instant::now();
        let mut table = lock(&self.table);
        table.clock += 1;
        let clock = table.clock;
        let outcome =
            if self.current(&mut table, epoch) { table.records.lookup(key, clock) } else { None };
        // Admission-rate sample: one closed window with zero hits means
        // the workload is not repeating itself, so inserts stop paying
        // the eviction scan until a probe-admitted entry hits again.
        table.window_lookups += 1;
        if outcome.is_some() {
            table.window_hits += 1;
        }
        if table.window_lookups >= ADMISSION_WINDOW {
            table.gated = table.window_hits == 0;
            table.window_lookups = 0;
            table.window_hits = 0;
        }
        drop(table);
        match &outcome {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        self.lookup_seconds.observe_duration(started.elapsed());
        outcome
    }

    /// Stores the untruncated ranked `results` for `key`'s query, computed
    /// at `epoch`, evicting the least-recently-used record no subscription
    /// pins when full.
    pub fn insert_keyed(&self, epoch: u64, key: QueryKey<'_>, results: Arc<Vec<MatchRow>>) {
        let mut table = lock(&self.table);
        if !self.current(&mut table, epoch) {
            return;
        }
        if table.gated {
            table.probe += 1;
            if table.probe % ADMISSION_PROBE_EVERY != 0 {
                drop(table);
                self.skipped.inc();
                return;
            }
        }
        table.clock += 1;
        let clock = table.clock;
        let (_, created) = table.records.insert(key, results, clock);
        if created && table.records.unpinned() > self.capacity && table.records.evict_lru() {
            self.evictions.inc();
        }
    }

    /// Drops every record no subscription pins (e.g. after a broker
    /// restart in tests).
    pub fn clear(&self) {
        lock(&self.table).records.drop_unpinned();
    }

    /// Number of records, pinned or not.
    pub fn len(&self) -> usize {
        lock(&self.table).records.records()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of standing subscriptions.
    pub fn subscription_count(&self) -> usize {
        lock(&self.table).records.len()
    }

    pub fn stats(&self) -> MatchCacheStats {
        MatchCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            stale: self.stale.get(),
            skipped_inserts: self.skipped.get(),
        }
    }
}

impl Default for MatchCache {
    fn default() -> Self {
        MatchCache::new(DEFAULT_MATCH_CACHE_CAPACITY)
    }
}

impl std::fmt::Debug for MatchCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatchResult;
    use infosleuth_ontology::AgentType;

    fn query(i: usize) -> ServiceQuery {
        ServiceQuery::for_agent_type(AgentType::Resource).with_classes([format!("C{i}")])
    }

    fn result(name: &str) -> MatchResult {
        MatchResult { name: name.into(), score: 3, ..MatchResult::default() }
    }

    fn results(name: &str) -> Arc<Vec<MatchRow>> {
        Arc::new(vec![MatchRow::from(&result(name))])
    }

    trait ByQuery {
        fn lookup(&self, epoch: u64, query: &ServiceQuery) -> Option<Arc<Vec<MatchRow>>>;
        fn insert(&self, epoch: u64, query: &ServiceQuery, rows: Arc<Vec<MatchRow>>);
    }

    impl ByQuery for MatchCache {
        fn lookup(&self, epoch: u64, query: &ServiceQuery) -> Option<Arc<Vec<MatchRow>>> {
            self.lookup_keyed(epoch, &MatchCache::query_key(query))
        }

        fn insert(&self, epoch: u64, query: &ServiceQuery, rows: Arc<Vec<MatchRow>>) {
            self.insert_keyed(epoch, MatchCache::query_key(query), rows)
        }
    }

    #[test]
    fn hit_after_insert_at_same_epoch() {
        let cache = MatchCache::new(8);
        assert_eq!(cache.lookup(1, &query(0)), None);
        cache.insert(1, &query(0), results("a"));
        assert_eq!(cache.lookup(1, &query(0)).unwrap().as_slice(), &[result("a")]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn hit_shares_the_stored_results_without_copying() {
        let cache = MatchCache::new(8);
        let stored = results("a");
        cache.insert(1, &query(0), Arc::clone(&stored));
        let hit = cache.lookup(1, &query(0)).unwrap();
        assert!(Arc::ptr_eq(&stored, &hit), "a hit must be an Arc clone, not a deep copy");
    }

    #[test]
    fn epoch_mismatch_is_a_stale_miss() {
        let cache = MatchCache::new(8);
        cache.insert(1, &query(0), results("a"));
        cache.insert(1, &query(1), results("b"));
        assert_eq!(cache.lookup(2, &query(0)), None);
        let stats = cache.stats();
        assert_eq!(stats.stale, 2, "every record nobody pins is dropped");
        assert_eq!(stats.misses, 1);
        assert_eq!(cache.len(), 0, "stale records must be dropped");
        cache.insert(2, &query(0), results("a2"));
        assert_eq!(cache.lookup(2, &query(0)).unwrap().as_slice(), &[result("a2")]);
    }

    #[test]
    fn a_pinned_record_keeps_a_table_that_missed_a_patch_from_serving() {
        let cache = MatchCache::new(8);
        let repo = crate::Repository::new();
        cache.insert(1, &query(0), results("a"));
        let sub =
            cache.table().records.register("k", "w".into(), None, query(1), results("b"), &repo);
        assert!(sub.is_some());
        assert_eq!(cache.lookup(2, &query(1)), None, "the pinned record is not current at 2");
        assert_eq!(cache.len(), 1, "the unpinned record is gone, the pinned one stays");
        cache.insert(2, &query(0), results("a2"));
        assert_eq!(cache.lookup(2, &query(0)), None, "no insert into a table that is not current");
        cache.table().advance(2);
        assert_eq!(cache.lookup(2, &query(1)).unwrap().as_slice(), &[result("b")]);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = MatchCache::new(2);
        cache.insert(1, &query(0), results("a"));
        cache.insert(1, &query(1), results("b"));
        // Touch query(0) so query(1) is the LRU.
        assert!(cache.lookup(1, &query(0)).is_some());
        cache.insert(1, &query(2), results("c"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(1, &query(0)).is_some(), "recently used entry survives");
        assert!(cache.lookup(1, &query(1)).is_none(), "LRU entry evicted");
        assert!(cache.lookup(1, &query(2)).is_some());
    }

    #[test]
    fn pinned_records_are_never_evicted_nor_counted() {
        let cache = MatchCache::new(1);
        let repo = crate::Repository::new();
        let mut table = cache.table();
        table.records.register("k", "w".into(), None, query(0), results("a"), &repo).unwrap();
        table.advance(1);
        drop(table);
        cache.insert(1, &query(1), results("b"));
        cache.insert(1, &query(2), results("c"));
        assert_eq!((cache.len(), cache.stats().evictions), (2, 1));
        assert!(cache.lookup(1, &query(0)).is_some(), "the pinned record stays");
        assert!(cache.lookup(1, &query(2)).is_some());
    }

    #[test]
    fn reinsert_does_not_evict() {
        let cache = MatchCache::new(2);
        cache.insert(1, &query(0), results("a"));
        cache.insert(1, &query(1), results("b"));
        cache.insert(1, &query(1), results("b2"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn unique_workload_closes_the_admission_gate() {
        let cache = MatchCache::new(16);
        // A pure-miss stream: after one full window the gate closes and
        // inserts stop landing (except the 1-in-N probes).
        for i in 0..(ADMISSION_WINDOW as usize * 3) {
            let q = query(i);
            assert!(cache.lookup(1, &q).is_none());
            cache.insert(1, &q, results("x"));
        }
        let stats = cache.stats();
        assert!(stats.skipped_inserts > 0, "gate never closed: {stats:?}");
        assert!(
            stats.evictions < ADMISSION_WINDOW as u64,
            "gated inserts must not keep paying evictions: {stats:?}"
        );
    }

    #[test]
    fn probe_admission_reopens_the_gate_for_recurring_queries() {
        let cache = MatchCache::new(16);
        // Close the gate with a unique burst.
        for i in 0..ADMISSION_WINDOW as usize {
            assert!(cache.lookup(1, &query(1000 + i)).is_none());
            cache.insert(1, &query(1000 + i), results("x"));
        }
        // Now the workload repeats one query. A probe admission must let
        // it into the cache, after which hits reopen the gate.
        let mut hit = false;
        for _ in 0..(ADMISSION_PROBE_EVERY as usize * ADMISSION_WINDOW as usize) {
            if cache.lookup(1, &query(7)).is_some() {
                hit = true;
                break;
            }
            cache.insert(1, &query(7), results("x"));
        }
        assert!(hit, "recurring query never got probe-admitted: {:?}", cache.stats());
        // With hits flowing again, fresh inserts are admitted directly.
        for _ in 0..ADMISSION_WINDOW as usize {
            assert!(cache.lookup(1, &query(7)).is_some());
        }
        let skipped_before = cache.stats().skipped_inserts;
        cache.insert(1, &query(8), results("y"));
        assert_eq!(cache.stats().skipped_inserts, skipped_before, "gate must be open again");
        assert!(cache.lookup(1, &query(8)).is_some());
    }

    #[test]
    fn distinct_queries_get_distinct_keys() {
        let cache = MatchCache::new(8);
        cache.insert(1, &query(0), results("a"));
        assert_eq!(cache.lookup(1, &query(1)), None);
        let truncated = query(0).one();
        assert_eq!(
            cache.lookup(1, &truncated).unwrap().as_slice(),
            &[result("a")],
            "max_matches is the reader's cut, not part of the key"
        );
    }
}
