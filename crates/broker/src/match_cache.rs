//! An epoch-tagged, bounded LRU cache of ranked match results.
//!
//! Repeated service queries are the broker's steady-state workload; a
//! cache hit skips candidate narrowing and scoring entirely. Entries are
//! tagged with the repository's mutation epoch (see
//! [`Repository::epoch`](crate::Repository::epoch)): any
//! advertise/unadvertise/ontology/rule mutation bumps the epoch, so a
//! stale entry can never be served — it is dropped on the next lookup and
//! counted. No external dependencies: the LRU is a `HashMap` keyed by
//! the query's canonical KQML s-expression text, with a monotonic access
//! stamp per entry; eviction scans for the oldest stamp, which is O(capacity)
//! but only runs on insert-past-capacity.

use crate::codec::service_query_to_sexpr;
use crate::matchmaker::MatchRow;
use infosleuth_obs::sync::lock;
use infosleuth_obs::{Counter, Histogram, MetricsRegistry};
use infosleuth_ontology::ServiceQuery;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default number of distinct queries a broker remembers.
pub const DEFAULT_MATCH_CACHE_CAPACITY: usize = 256;

struct Entry {
    epoch: u64,
    /// Shared, immutable ranked results: hits and inserts exchange an
    /// `Arc` clone, never a deep copy of the result rows.
    results: Arc<Vec<MatchRow>>,
    stamp: u64,
}

struct Inner {
    map: HashMap<String, Entry>,
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

/// Lookups per admission-rate sample. Small enough to adapt within one
/// bench pass, large enough that a single hit is a real signal.
const ADMISSION_WINDOW: u32 = 64;

/// While the gate is closed, admit every Nth insert anyway, so a
/// workload that starts repeating itself can produce the hit that
/// reopens the gate.
const ADMISSION_PROBE_EVERY: u64 = 64;

/// A pre-rendered canonical cache key (see [`MatchCache::query_key`]).
/// Opaque: the only way to make one is to render a query, so a key can
/// never disagree with the query it stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryKey(String);

/// Cache counters, readable without the obs registry (used by tests and
/// the bench harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Entries dropped because their epoch no longer matched.
    pub stale: u64,
    /// Inserts skipped by the admission gate (recent hit rate ~0, so
    /// caching the result would only pay eviction cost for no reuse).
    pub skipped_inserts: u64,
}

/// A bounded, epoch-validated LRU over normalized service queries.
///
/// Thread-safe behind an internal mutex; the broker consults it while
/// already holding the repository lock, so contention is nil in practice.
pub struct MatchCache {
    inner: Mutex<Inner>,
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
            inner: Mutex::new(Inner {
                map: HashMap::new(),
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

    /// Renders the canonical cache key: the query's KQML s-expression.
    /// Canonical because every set-valued field is ordered (`BTreeSet`)
    /// and the codec is the wire format queries already round-trip
    /// through. Callers that both look up and insert (the miss path)
    /// render once and reuse the [`QueryKey`].
    pub fn query_key(query: &ServiceQuery) -> QueryKey {
        QueryKey(service_query_to_sexpr(query).to_string())
    }

    /// Returns the ranked results cached for `query` at `epoch`, if any.
    /// An entry from an older epoch counts as stale (removed) + miss.
    pub fn lookup(&self, epoch: u64, query: &ServiceQuery) -> Option<Arc<Vec<MatchRow>>> {
        self.lookup_keyed(epoch, &Self::query_key(query))
    }

    /// [`lookup`](Self::lookup) with a pre-rendered key.
    pub fn lookup_keyed(&self, epoch: u64, key: &QueryKey) -> Option<Arc<Vec<MatchRow>>> {
        let started = Instant::now();
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        let outcome = match inner.map.get_mut(&key.0) {
            Some(entry) if entry.epoch == epoch => {
                entry.stamp = clock;
                Some(Arc::clone(&entry.results))
            }
            Some(_) => {
                inner.map.remove(&key.0);
                self.stale.inc();
                None
            }
            None => None,
        };
        // Admission-rate sample: one closed window with zero hits means
        // the workload is not repeating itself, so inserts stop paying
        // the eviction scan until a probe-admitted entry hits again.
        inner.window_lookups += 1;
        if outcome.is_some() {
            inner.window_hits += 1;
        }
        if inner.window_lookups >= ADMISSION_WINDOW {
            inner.gated = inner.window_hits == 0;
            inner.window_lookups = 0;
            inner.window_hits = 0;
        }
        drop(inner);
        match &outcome {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        self.lookup_seconds.observe_duration(started.elapsed());
        outcome
    }

    /// Stores ranked results for `query` computed at `epoch`, evicting
    /// the least-recently-used entry when full.
    pub fn insert(&self, epoch: u64, query: &ServiceQuery, results: Arc<Vec<MatchRow>>) {
        self.insert_keyed(epoch, Self::query_key(query), results);
    }

    /// [`insert`](Self::insert) with a pre-rendered key.
    pub fn insert_keyed(&self, epoch: u64, key: QueryKey, results: Arc<Vec<MatchRow>>) {
        let mut inner = lock(&self.inner);
        if inner.gated && !inner.map.contains_key(&key.0) {
            inner.probe += 1;
            if inner.probe % ADMISSION_PROBE_EVERY != 0 {
                drop(inner);
                self.skipped.inc();
                return;
            }
        }
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.map.contains_key(&key.0) && inner.map.len() >= self.capacity {
            if let Some(oldest) =
                inner.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                self.evictions.inc();
            }
        }
        inner.map.insert(key.0, Entry { epoch, results, stamp: clock });
    }

    /// Drops every entry (e.g. after a broker restart in tests).
    pub fn clear(&self) {
        lock(&self.inner).map.clear();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        assert_eq!(cache.lookup(2, &query(0)), None);
        let stats = cache.stats();
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(cache.len(), 0, "stale entry must be dropped");
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
    fn reinsert_does_not_evict() {
        let cache = MatchCache::new(2);
        cache.insert(1, &query(0), results("a"));
        cache.insert(1, &query(1), results("b"));
        cache.insert(2, &query(1), results("b2"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.lookup(2, &query(1)).unwrap().as_slice(), &[result("b2")]);
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
        assert_eq!(cache.lookup(1, &truncated), None, "max_matches is part of the key");
    }
}
