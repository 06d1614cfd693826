//! What a repository keeps resident, counted: live heap bytes per
//! advertisement under a ceiling — the same to the byte whether it was
//! cloned in or decoded off the wire, and nothing per advertisement kept
//! by a broker beside it, live or not, a routing digest being computed,
//! not stored — no growth under re-advertisement churn, everything
//! returned by a full drain, and a symbol table that grows by distinct
//! names only. A standing subscription stays under a ceiling, and its
//! decoded query weighs what a cloned one does, and so does a decoded
//! advertisement whose names sit on either side of the 22 bytes a name
//! holds in place. And what a message costs while it waits in a mailbox:
//! a `sub-delta` notification and an `ask-all` reply, each under a
//! ceiling of its own, and the tells one write sends to 20 subscriptions —
//! one shared body and a skeleton each. And what a broker holds per result row: a row of a match
//! cache entry and of a subscription's last result set are a name, a
//! score and a pointer to the block the repository rendered once.
//!
//! A counting `#[global_allocator]` sees every allocation of the test
//! process, so the tests here take one lock and run one at a time. Even
//! so, the test harness starts the next test on a thread of its own while
//! one runs, and that thread allocates: a window that runs on one thread
//! counts that thread's allocations alone. Run with `--nocapture` for the
//! bytes-per-advertisement and bytes-per-message tables (EXPERIMENTS.md,
//! "Bytes per advertisement", "What a queued message costs").

use infosleuth_agent::{AgentRuntime, Bus, Endpoint, Envelope, RuntimeConfig};
use infosleuth_broker::{
    advertise_to, codec, subscribe_to, BrokerAgent, BrokerConfig, CapabilityDigest, MatchCache,
    MatchResult, MatchRow, Matchmaker, Repository, SubscriptionRegistry,
};
use infosleuth_constraint::{Conjunction, Predicate};
use infosleuth_kqml::{Message, Performative, SExpr};
use infosleuth_ldl::Sym;
use infosleuth_ontology::{
    Advertisement, AgentLocation, AgentType, Capability, ClassDef, ConversationType, Fragment,
    Ontology, OntologyContent, SemanticInfo, ServiceQuery, SlotDef, SyntacticInfo, ValueType,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_ALLOCS: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// What this thread has allocated less what it has freed.
    static MINE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

/// Counts `bytes` more live in `allocs` more allocations, for the process
/// and for the calling thread.
fn count(bytes: isize, allocs: isize) {
    LIVE_BYTES.fetch_add(bytes, Relaxed);
    LIVE_ALLOCS.fetch_add(allocs, Relaxed);
    let _ = MINE.try_with(|mine| {
        let (b, a) = mine.get();
        mine.set((b + bytes, a + allocs));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and publish nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), -1);
        // SAFETY: `ptr` came from `alloc` above, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, 0);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Live heap of the calling thread — what it allocated less what it
/// freed — as `(bytes, allocations)`: what a window that runs on this
/// thread alone reads.
fn live() -> (isize, isize) {
    MINE.with(Cell::get)
}

/// Live heap of the whole process, for the one window whose work runs on
/// a runtime's threads.
fn process_live() -> (isize, isize) {
    (LIVE_BYTES.load(Relaxed), LIVE_ALLOCS.load(Relaxed))
}

fn alone() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// `benchmark/src/gen.rs`'s `taxonomy(2, 10)`: root `R`, two mid classes,
/// ten leaves under each.
fn taxonomy() -> Ontology {
    let mut o = Ontology::new("bench");
    let slots = vec![SlotDef::key("id", ValueType::Int), SlotDef::new("a", ValueType::Int)];
    o.add_class(ClassDef::new("R", slots)).unwrap();
    for m in 0..2 {
        o.add_subclass("R", ClassDef::new(format!("M{m:02}"), Vec::new())).unwrap();
        for l in 0..10 {
            let leaf = ClassDef::new(format!("L{m:02}x{l:02}"), Vec::new());
            o.add_subclass(&format!("M{m:02}"), leaf).unwrap();
        }
    }
    o
}

/// One advertisement of `miss_closed_bus`'s shape: one leaf class, one
/// capability, one 12 000-wide window on `R.a`.
fn ad(name: &str, j: usize, lo: i64) -> Advertisement {
    let l = j % 20;
    Advertisement::new(AgentLocation::new(
        name,
        format!("tcp://{name}.bench:4000"),
        AgentType::Resource,
    ))
    .with_syntactic(SyntacticInfo::sql_kqml())
    .with_semantic(
        SemanticInfo::default()
            .with_conversations([ConversationType::AskAll])
            .with_capabilities([Capability::relational_query_processing()])
            .with_content(
                OntologyContent::new("bench")
                    .with_classes([format!("L{:02}x{:02}", l / 10, l % 10)])
                    .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                        "R.a",
                        lo,
                        lo + 12_000,
                    )])),
            ),
    )
}

fn window(j: usize, round: usize) -> i64 {
    ((j * 7_919 + round * 104_729) % 988_000) as i64
}

fn model_free_repo() -> Repository {
    let mut repo = Repository::new();
    repo.register_ontology(taxonomy());
    repo
}

fn saturated_empty_repo() -> Repository {
    let mut repo = model_free_repo();
    let _ = repo.saturated();
    repo
}

/// A repository under a rule that grants every advertisement of this
/// population one capability: each advertise saturates its own facts.
fn ruled_repo() -> Repository {
    let mut repo = model_free_repo();
    repo.register_derived_rules(RULE).unwrap();
    repo
}

const RULE: &str = "cap(A, subscription) :- agent(A, resource).";

/// A repository somebody asked the reference model of — an oracle's. This
/// layout measures 2 723 B in 25.7 allocations per advertisement of this
/// population (advertisement 594 B, narrowing index 114 B, the model
/// saturated once 1 940 B; ≈ 75 B more for the agent names interned). The
/// ceiling leaves room for where hash tables and vectors happen to have
/// last doubled.
const CEILING_BYTES_PER_AD: f64 = 4_200.0;

/// A repository nobody asked a model of: the advertisement and the
/// narrowing index, no fact — 732 B in 5 allocations, whether each
/// advertisement was cloned in or decoded off the wire, as a live broker
/// without derived rules decodes it (733 B in 5 held by such a broker).
/// The index is the one map from agent name to advertisement, and its
/// keys hold short names in place (934 B in 18.2 with a second, B-tree
/// name map beside it and every key a `String`); 24 B of its 138 are the
/// empty slot of the rows a first match renders (708 B before rows were
/// rendered once). A tenth over the 708.
const CEILING_MODEL_FREE_BYTES_PER_AD: f64 = 778.0;

/// The advertisement record itself: 233 advertised bytes cost 594 B in 4
/// allocations — the address and the capability, longer than the 22 bytes
/// a name holds in place, and the content and constraint-slot lists. Its
/// six short names and five sets of one sit inside the record (745 B in
/// 15 when each took a heap block of its own). A tenth over, in bytes and
/// in allocations.
const CEILING_AD_RECORD_BYTES: f64 = 654.0;
const CEILING_AD_RECORD_ALLOCS: f64 = 4.4;

/// A decoded standing query of `churn_mixed_bus`'s shape, registered: 1 301
/// B in 6.5 allocations, the same as a clone (1 339 B in 10.5 when its
/// ontology and class each took a `String` and its class list a block). A
/// tenth over.
const CEILING_SUB_QUERY_ALLOCS: f64 = 7.2;

/// What a broker may keep per advertisement beyond the repository it was
/// handed. Its match cache, counters and routing table do not grow with
/// the population, and its routing digest is read off the repository's
/// narrowing index on demand, so this is slack, not a share: a second
/// per-advertisement record of anything would cost far more. It bounds
/// both a bare `BrokerAgent::core` and a broker live on a runtime, each
/// against the model-free repository.
const CEILING_BROKER_BYTES_PER_AD: f64 = 32.0;

const T: Duration = Duration::from_secs(10);

/// `(bytes, allocations)` that came to be live between two readings.
fn delta(from: (isize, isize), to: (isize, isize)) -> (isize, isize) {
    (to.0 - from.0, to.1 - from.1)
}

/// A [`delta`] shared out over `n` items.
fn per(n: usize, (bytes, allocs): (isize, isize)) -> (f64, f64) {
    (bytes as f64 / n as f64, allocs as f64 / n as f64)
}

/// What a model-free repository comes to hold when each advertisement
/// arrives as a broker's `advertise` handler receives it: encoded by the
/// sender, decoded in the counted window.
fn decoded_into_a_repository(ads: &[Advertisement]) -> (isize, isize) {
    let wire: Vec<SExpr> = ads.iter().map(codec::advertisement_to_sexpr).collect();
    let mut repo = model_free_repo();
    let before = live();
    for e in &wire {
        repo.advertise(codec::advertisement_from_sexpr(e).unwrap()).unwrap();
    }
    delta(before, live())
}

/// What a broker hosted on a runtime over a `Bus` comes to hold, fed every
/// advertisement by `advertise_to` as the benchmark's set-up feeds it: the
/// bytes of the repository it decodes into, and anything of its own.
fn held_by_a_live_broker(ads: &[Advertisement]) -> (isize, isize) {
    // The runtime has finished with the last envelope once its workers
    // have been idle a while.
    let settled = || {
        std::thread::sleep(Duration::from_millis(50));
        process_live()
    };
    let bus = Bus::new();
    let rt = AgentRuntime::new(bus.as_transport(), RuntimeConfig::default().with_workers(2));
    let config = BrokerConfig::new("broker", "tcp://broker.bench:5500");
    let broker = BrokerAgent::spawn_on(&rt, config, model_free_repo()).unwrap();
    let mut client = bus.register("cli-setup").unwrap();
    let before = settled();
    for a in ads {
        assert!(advertise_to(&mut client, "broker", a, T).unwrap());
    }
    let held = delta(before, settled());
    assert_eq!(broker.with_repository(|r| r.len()), ads.len());
    client.unregister();
    broker.stop();
    rt.shutdown();
    held
}

#[test]
fn bytes_per_advertisement_stay_under_the_ceiling() {
    let _alone = alone();
    const N: usize = 2_000;
    let ads: Vec<Advertisement> =
        (0..N).map(|j| ad(&format!("ra{j:04}"), j, window(j, 0))).collect();
    let per_ad = |from: (isize, isize), to: (isize, isize)| per(N, delta(from, to));

    // The first asserted figure: a repository whose reference model was
    // asked for before the population arrived and after, as an oracle's
    // is.
    let mut repo = saturated_empty_repo();
    let before = live();
    for a in &ads {
        repo.advertise(a.clone()).unwrap();
    }
    let _ = repo.saturated();
    let (bytes, allocs) = per_ad(before, live());

    // The second, and the table of where the bytes sit: another repository
    // takes the same population and is asked for no model — it then holds
    // no fact at all — then saturates once.
    let mut cold = model_free_repo();
    let t0 = live();
    let ads_copy = ads.clone();
    let t1 = live();
    for a in &ads {
        cold.advertise(a.clone()).unwrap();
    }
    let t2 = live();
    let _ = cold.saturated();
    let t3 = live();
    let digest = CapabilityDigest::of("broker", &cold);
    let digest_ads = digest.ads;
    drop(digest);
    let t4 = live();
    let obs = infosleuth_obs::Obs::new();
    let t5 = live();
    let _core =
        BrokerAgent::core(&obs, BrokerConfig::new("broker", "tcp://broker.bench:5500"), cold);
    let broker = per_ad(t5, live());

    // The wire path: the same population decoded into a third repository,
    // and fed to a live broker.
    let decoded = decoded_into_a_repository(&ads);
    let live_broker = per(N, held_by_a_live_broker(&ads));

    // Reported, not bounded: a repository under a rule that grants every
    // advertisement one capability it never advertised.
    let mut ruled = ruled_repo();
    let t6 = live();
    for a in &ads {
        ruled.advertise(a.clone()).unwrap();
    }
    let under_a_rule = per_ad(t6, live());
    drop(ruled);

    let advertised = repo.approx_size_bytes() as f64 / N as f64;
    eprintln!(
        "per advertisement: {advertised:.1} advertised bytes (approx_size_bytes); live heap:"
    );
    let stored = per_ad(t1, t2);
    let record = per_ad(t0, t1);
    let rows = [
        ("repository, model saturated", (bytes, allocs)),
        ("repository, no model asked", stored),
        ("  advertisement", record),
        ("  narrowing index", (stored.0 - record.0, stored.1 - record.1)),
        ("  EDB + model, saturated once", per_ad(t2, t3)),
        ("no model asked, ads decoded", per(N, decoded)),
        ("under a rule granting one cap", under_a_rule),
        ("broker core, beside it", broker),
        ("live broker, fed over a Bus", live_broker),
    ];
    for (what, (bytes, allocs)) in rows {
        eprintln!("{what:<30} {bytes:>6.0} B in {allocs:>5.1} allocations");
    }
    drop(ads_copy);

    assert_eq!(
        decoded,
        delta(t1, t2),
        "(bytes, allocations) for {N} advertisements decoded off the wire, against cloned in"
    );
    assert!(
        live_broker.0 <= stored.0 + CEILING_BROKER_BYTES_PER_AD,
        "a live broker keeps {:.0} bytes per advertisement, its repository {:.0}, \
         ceiling {CEILING_BROKER_BYTES_PER_AD} between them",
        live_broker.0,
        stored.0
    );

    assert!(
        bytes <= CEILING_BYTES_PER_AD,
        "{bytes:.0} live bytes per advertisement, ceiling {CEILING_BYTES_PER_AD}"
    );
    assert!(
        stored.0 <= CEILING_MODEL_FREE_BYTES_PER_AD,
        "{:.0} live bytes per advertisement with no model asked for, \
         ceiling {CEILING_MODEL_FREE_BYTES_PER_AD}",
        stored.0
    );
    assert!(
        record.0 <= CEILING_AD_RECORD_BYTES && record.1 <= CEILING_AD_RECORD_ALLOCS,
        "an advertisement record keeps {:.0} live bytes in {:.1} allocations, \
         ceiling {CEILING_AD_RECORD_BYTES} in {CEILING_AD_RECORD_ALLOCS}",
        record.0,
        record.1
    );
    assert_eq!(digest_ads, N as u64);
    assert_eq!(t4, t3, "(bytes, allocations) still live after a digest was taken and dropped");
    assert!(
        broker.0 <= CEILING_BROKER_BYTES_PER_AD,
        "a broker core keeps {:.0} bytes per advertisement beside its repository, \
         ceiling {CEILING_BROKER_BYTES_PER_AD}",
        broker.0
    );
}

/// A standing query of `churn_mixed_bus`'s shape: one leaf class, one
/// 50 000-wide window on `R.a`.
fn sub_query(j: usize) -> ServiceQuery {
    let (l, lo) = (j % 20, window(j, 0));
    ServiceQuery::for_agent_type(AgentType::Resource)
        .with_ontology("bench")
        .with_classes([format!("L{:02}x{:02}", l / 10, l % 10)])
        .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
            "R.a",
            lo,
            lo + 50_000,
        )]))
}

/// A standing subscription keeps the query its `subscribe` message
/// carried, decoded. Registered the way the broker registers it, the
/// decoded query must cost what a clone of it does, to the byte.
#[test]
fn a_decoded_subscription_query_weighs_what_a_cloned_one_does() {
    let _alone = alone();
    const N: usize = 1_000;
    let queries: Vec<ServiceQuery> = (0..N).map(sub_query).collect();
    let wire: Vec<SExpr> = queries.iter().map(codec::service_query_to_sexpr).collect();
    let repo = model_free_repo();
    let fill = |queries: &mut dyn Iterator<Item = ServiceQuery>| {
        let mut subs = SubscriptionRegistry::default();
        let before = live();
        for (j, q) in queries.enumerate() {
            subs.register(format!("sub-{j}"), "cli-sub".into(), None, q, Arc::default(), &repo);
        }
        (delta(before, live()), subs)
    };
    // A first fill interns every name the index keys on.
    drop(fill(&mut queries.iter().cloned()));
    let (cloned, _cloned_subs) = fill(&mut queries.iter().cloned());
    let (decoded, _decoded_subs) =
        fill(&mut wire.iter().map(|e| codec::service_query_from_sexpr(e).unwrap()));
    eprintln!("per standing subscription: live heap");
    for (what, (bytes, allocs)) in
        [("query cloned", per(N, cloned)), ("query decoded", per(N, decoded))]
    {
        eprintln!("{what:<30} {bytes:>6.0} B in {allocs:>5.1} allocations");
    }
    assert_eq!(
        decoded, cloned,
        "(bytes, allocations) for {N} subscriptions, decoded against cloned"
    );
    let allocs = per(N, decoded).1;
    assert!(
        allocs <= CEILING_SUB_QUERY_ALLOCS,
        "a decoded standing query takes {allocs:.1} allocations, ceiling {CEILING_SUB_QUERY_ALLOCS}"
    );
}

/// A standing subscription of `churn_mixed_bus`'s shape, the record it
/// reads included: 779 B in 4.2 allocations when the subscription was a
/// record of its own, then a tenth over. The record also answers asks, so
/// its canonical key's bytes are allowed on top.
const CEILING_SUB_RECORD_BYTES: f64 = 857.0;

/// A record of the table of stored answers costs what a standing
/// subscription cost before the two were one table, plus its canonical
/// key: subscribed, each one registered the way the broker registers it;
/// unsubscribed, each one a match-cache entry of the same query, inserted
/// the way an ask's miss inserts it.
#[test]
fn a_record_weighs_a_subscription_and_its_key() {
    let _alone = alone();
    const N: usize = 1_000;
    let queries: Vec<ServiceQuery> = (0..N).map(sub_query).collect();
    let key_bytes =
        queries.iter().map(|q| codec::service_query_to_sexpr(q).to_string().len()).sum::<usize>()
            as f64
            / N as f64;
    let repo = model_free_repo();
    let subscribed = || {
        let mut subs = SubscriptionRegistry::default();
        let before = live();
        for (j, q) in queries.iter().enumerate() {
            let q = q.clone();
            subs.register(format!("sub-{j}"), "cli-sub".into(), None, q, Arc::default(), &repo);
        }
        (delta(before, live()), subs)
    };
    let unsubscribed = || {
        let cache = MatchCache::new(N);
        let before = live();
        for q in &queries {
            cache.insert_keyed(1, MatchCache::query_key(q), Arc::default());
        }
        (delta(before, live()), cache)
    };
    // A first fill interns every name the index keys on.
    drop(subscribed());
    let (pinned, _subs) = subscribed();
    let (entry, cache) = unsubscribed();
    assert_eq!((cache.len(), cache.stats().evictions), (N, 0));
    let (pinned, entry) = (per(N, pinned), per(N, entry));
    eprintln!("per record of the stored answers: live heap (key {key_bytes:.0} B)");
    for (what, (bytes, allocs)) in [("subscribed record", pinned), ("unsubscribed record", entry)] {
        eprintln!("{what:<30} {bytes:>6.0} B in {allocs:>5.1} allocations");
    }
    assert!(
        pinned.0 <= CEILING_SUB_RECORD_BYTES + key_bytes,
        "a subscribed record takes {:.0} B, ceiling {CEILING_SUB_RECORD_BYTES} + {key_bytes:.0}",
        pinned.0
    );
    assert!(
        entry.0 <= pinned.0,
        "an unsubscribed record weighs {:.0} B, more than a subscribed one",
        entry.0
    );
}

/// An advertisement whose names sit on either side of the 22 bytes a name
/// holds in place — a 22-byte agent name and key, a 23-byte class — or
/// are vocabulary words (`KQML`), or travel quoted (`SQL 2.0`, a slot
/// with parentheses and a space).
fn boundary_ad(j: usize) -> Advertisement {
    let name = format!("ra-{j:019}");
    let class = format!("class-of-{j:014}");
    Advertisement::new(AgentLocation::new(
        name.as_str(),
        format!("tcp://{name}.bench:4000"),
        AgentType::Resource,
    ))
    .with_syntactic(SyntacticInfo::sql_kqml())
    .with_semantic(
        SemanticInfo::default()
            .with_conversations([ConversationType::AskAll])
            .with_capabilities(["KQML"])
            .with_content(
                OntologyContent::new("bench")
                    .with_classes([class.as_str()])
                    .with_slots(["a(b) c", "R.a"])
                    .with_keys([name.as_str()])
                    .with_fragment(class.as_str(), Fragment::vertical(["a(b) c"])),
            ),
    )
}

/// Decoded off the wire, such an advertisement is the one that was sent
/// and weighs what a clone of it does, to the byte and the allocation.
#[test]
fn names_at_the_inline_boundary_weigh_the_same_decoded() {
    let _alone = alone();
    const N: usize = 500;
    let ads: Vec<Advertisement> = (0..N).map(boundary_ad).collect();
    assert_eq!(
        (ads[0].location.name.len(), ads[0].semantic.content[0].classes.as_slice()[0].len()),
        (22, 23)
    );
    let wire: Vec<SExpr> = ads.iter().map(codec::advertisement_to_sexpr).collect();
    let hold = |make: &dyn Fn(usize) -> Advertisement| {
        let mut held = Vec::with_capacity(N);
        let before = live();
        held.extend((0..N).map(make));
        (delta(before, live()), held)
    };
    let (cloned, _) = hold(&|j| ads[j].clone());
    let (decoded, back) = hold(&|j| codec::advertisement_from_sexpr(&wire[j]).unwrap());
    eprintln!("per advertisement with names at the inline boundary: live heap");
    for (what, (bytes, allocs)) in [("cloned", per(N, cloned)), ("decoded", per(N, decoded))] {
        eprintln!("{what:<30} {bytes:>6.0} B in {allocs:>5.1} allocations");
    }
    assert_eq!(back, ads);
    assert_eq!(
        decoded, cloned,
        "(bytes, allocations) for {N} advertisements, decoded against cloned"
    );
}

/// Once on a repository under a rule, whose every advertise saturates the
/// advertisement's own facts and keeps what the rule grants, once on one
/// without rules.
#[test]
fn churn_does_not_grow_and_a_drain_returns_everything() {
    let _alone = alone();
    for under_a_rule in [true, false] {
        churn_then_drain(under_a_rule);
    }
}

fn churn_then_drain(under_a_rule: bool) {
    const N: usize = 200;
    let names: Vec<String> = (0..N).map(|j| format!("churn{j:03}")).collect();
    let fill = |repo: &mut Repository| {
        for (j, name) in names.iter().enumerate() {
            repo.advertise(ad(name, j, window(j, 0))).unwrap();
        }
    };
    let drain = |repo: &mut Repository| {
        for name in &names {
            assert!(repo.unadvertise(name));
        }
        live()
    };
    let mut repo = if under_a_rule { ruled_repo() } else { model_free_repo() };
    let fresh = live();

    // A first fill and drain. What stays is what is meant to: one symbol
    // table entry per name seen (its bytes plus 36, before the table's own
    // doubling — ≈ 20 kB here) and the capacity the emptied id map and id
    // slots keep (≈ 28 kB). 400 B per advertisement bounds the two; a full
    // repository held 3 820 B for each.
    fill(&mut repo);
    let empty = drain(&mut repo);
    let symbols = Sym::table_len();
    assert!(
        empty.0 - fresh.0 <= (400 * N) as isize,
        "{} bytes kept after the first drain of {N} advertisements",
        empty.0 - fresh.0
    );

    // 10⁴ re-advertisements of the fixed population, each moving its
    // agent's window: the live heap after the first 10³ and after the
    // last 10³ must agree within 1 %, in bytes and in allocations.
    fill(&mut repo);
    let mut marks = Vec::new();
    for k in 0..10_000 {
        let j = (k * 37) % N;
        repo.advertise(ad(&names[j], j, window(j, 1 + k / N))).unwrap();
        if k == 999 || k == 9_999 {
            let now = live();
            marks.push((now.0 - empty.0, now.1 - empty.1));
        }
    }
    let (early, late) = (marks[0], marks[1]);
    let moved = |a: isize, b: isize| (b - a).abs() as f64 / a as f64;
    assert!(
        moved(early.0, late.0) <= 0.01 && moved(early.1, late.1) <= 0.01,
        "(bytes, allocations) went from {early:?} to {late:?} over the last 9 000 re-advertisements"
    );
    assert_eq!(Sym::table_len(), symbols, "re-advertising known names interns nothing");

    // With the names interned and the capacity in place, a drain returns
    // to the empty figure: no fact, row, advertisement or posting is left.
    let drained = drain(&mut repo);
    assert!(
        drained.0 - empty.0 <= 256,
        "{} bytes still live after the second drain",
        drained.0 - empty.0
    );
    assert_eq!(Sym::table_len(), symbols, "the drain interns nothing");
}

#[test]
fn the_symbol_table_grows_by_distinct_new_names_only() {
    let _alone = alone();
    let mut repo = ruled_repo();
    repo.advertise(ad("sym-seed", 0, 0)).unwrap();
    let before = Sym::table_len();
    // Name churn: 50 agents nobody has seen, each advertised twice and
    // withdrawn once. Each adds its name and nothing else — type,
    // languages, conversation, capability, ontology and class are known.
    for j in 0..50 {
        let name = format!("sym-fresh-{j}");
        repo.advertise(ad(&name, 0, window(j, 0))).unwrap();
        repo.advertise(ad(&name, 0, window(j, 1))).unwrap();
        assert!(repo.unadvertise(&name));
    }
    assert_eq!(Sym::table_len(), before + 50);
    // A rejected advertisement never reaches the fact compiler.
    let mut rejected = ad("sym-rejected", 0, 0);
    rejected.semantic.capabilities.insert(Capability::new("sym-no-such-capability"));
    assert!(repo.advertise(rejected).is_err());
    assert_eq!(Sym::table_len(), before + 50);
}

/// A queued churn-shaped `sub-delta` carrying one match row, built as the
/// snapshot a `subscribe` is answered with is built: the message's three
/// parameters and the tree of its content, whose row is the block the
/// repository rendered once; the envelope's names sit in place in the
/// mailbox's slot. 220 bytes of text measure 360 B in 5 allocations — one
/// per string, per non-empty list and per atom longer than 22 bytes, each
/// exactly as long as what it holds; protocol words are shared and short
/// atoms sit in their node (471 B in 7 with the names as two more
/// parameters and two `String`s; 878 B in 14 with the row a tree of its
/// own; 1 908 B in 38 when every atom was a `String` and every list a
/// `Vec`). A tenth over.
const CEILING_MATCHED_DELTA: (isize, isize) = (396, 5);

/// The same notification when the agent left the result set: 125 bytes of
/// text, 360 B in 5 allocations (471 B in 7 with the names in the message;
/// 1 005 B in 22 before that). A tenth over.
const CEILING_UNMATCHED_DELTA: (isize, isize) = (396, 5);

/// A queued 16-row `ask-all` reply of `miss_closed_bus`'s shape, its rows
/// the held blocks: 1 719 bytes of text, 600 B in 2 allocations (615 B in
/// 4 with the envelope's names as `String`s; 7 127 B in 116 with each row
/// a tree of its own; 15 393 B in 284 before that). A tenth over.
const CEILING_ASK_REPLY: (isize, isize) = (660, 2);

/// One match row of the benchmark's populations (`benchmark/src/gen.rs`).
fn row(j: usize) -> MatchResult {
    let name = format!("ra{j:04}");
    MatchResult {
        address: format!("tcp://{name}.bench:4000"),
        name,
        score: 5,
        estimated_response_time: None,
        ontology: Some("bench".into()),
        classes: vec![format!("L{:02}x{:02}", j % 5, j % 10)],
        slots: Vec::new(),
        keys: Vec::new(),
    }
}

/// What the message `build` makes costs from the moment the builder runs
/// until it is read off the receiver's mailbox — `((bytes, allocations),
/// bytes of text)`, sent the way a broker sends, through a bus that queues
/// it with the envelope's names in place beside it.
fn queued(build: impl Fn() -> Message) -> ((isize, isize), usize) {
    let bus = Bus::new();
    let from = bus.register("broker-0").unwrap();
    let mut to: Endpoint = bus.register("cli-sub").unwrap();
    // The first delivery sizes the mailbox's ring; a measured one then
    // adds only itself.
    from.send("cli-sub", Message::new(Performative::Tell)).unwrap();
    to.try_recv().unwrap();
    let before = live();
    from.send("cli-sub", build()).unwrap();
    let cost = delta(before, live());
    let wire = to.try_recv().unwrap().message.to_string().len();
    (cost, wire)
}

#[test]
fn a_queued_message_costs_what_it_weighs() {
    let _alone = alone();
    let delta = |matched: &[MatchRow], unmatched: &[String]| {
        Message::new(Performative::Tell)
            .with_in_reply_to("cli-setup-17")
            .with_ontology("infosleuth-service")
            .with_content(codec::sub_delta_to_sexpr(48_213, matched, unmatched))
    };
    // Rows as a broker holds them: their blocks rendered before the window.
    let one = [MatchRow::from(&row(123))];
    let matched = queued(|| delta(&one, &[]));
    let unmatched = queued(|| delta(&[], &[row(123).name]));
    let rows: Vec<MatchRow> = (0..16).map(|j| MatchRow::from(&row(100 + 37 * j))).collect();
    let reply = queued(|| {
        Message::new(Performative::AskAll)
            .with_reply_with("cli-ask-4096")
            .with("sender", infosleuth_kqml::SExpr::atom("cli-sub"))
            .with("receiver", infosleuth_kqml::SExpr::atom("broker-0"))
            .reply_skeleton(Performative::Reply)
            .with_content(codec::matches_reply_to_sexpr(&rows, None))
    });
    eprintln!("a message waiting in a mailbox: live heap");
    let table = [
        ("sub-delta, one matched row", matched, CEILING_MATCHED_DELTA),
        ("sub-delta, one unmatched name", unmatched, CEILING_UNMATCHED_DELTA),
        ("ask-all reply, 16 rows", reply, CEILING_ASK_REPLY),
    ];
    for (what, ((bytes, allocs), wire), _) in table {
        eprintln!("{what:<30} {wire:>5} text B  {bytes:>6} B in {allocs:>4} allocations");
    }
    for (what, (cost, _), ceiling) in table {
        assert!(
            cost.0 <= ceiling.0 && cost.1 <= ceiling.1,
            "{what}: {} B in {} allocations, ceiling {} B in {}",
            cost.0,
            cost.1,
            ceiling.0,
            ceiling.1
        );
    }
}

/// One row of a match cache entry whose blocks the repository already
/// rendered: 40.7 B in 0.008 allocations — a 40 B row of name, score and
/// pointer, with the entry's list, key and map slot shared out over its
/// 512 rows (a row was a `MatchResult` of 168 B with its address,
/// ontology and class list each a heap copy of its own). The first match
/// renders each block once, into the repository: 220 B in 3 allocations
/// per row, the row itself included. A tenth over.
const CEILING_CACHE_ROW: (f64, f64) = (44.8, 0.009);

/// One row of a subscription's last result set, registered the way the
/// benchmark's replay registers one: 42.0 B in 0.014 allocations, the
/// list and the standing query shared out. A tenth over.
const CEILING_LAST_ROW: (f64, f64) = (48.2, 0.018);

#[test]
fn a_held_result_row_is_a_pointer_to_its_block() {
    let _alone = alone();
    const N: usize = 512;
    let mut repo = model_free_repo();
    for j in 0..N {
        repo.advertise(ad(&format!("ra{j:04}"), j, window(j, 0))).unwrap();
    }
    let mm = Matchmaker::default();
    let everyone = ServiceQuery::for_agent_type(AgentType::Resource).with_ontology("bench");
    // The first match renders every block, once, into the repository.
    let before = live();
    let first = mm.match_query(&repo, &everyone);
    let rendered = per(N, delta(before, live()));
    assert_eq!(first.len(), N);
    drop(first);

    let cache = MatchCache::new(8);
    let asked = everyone.clone().with_conversation(ConversationType::AskAll);
    let before = live();
    let held = mm.match_query_cached(&mut repo, &cache, &asked);
    let cache_row = per(N, delta(before, live()));
    assert_eq!(held.len(), N);
    drop(held);

    let mut registry = SubscriptionRegistry::new(true);
    let query = everyone.clone();
    let before = live();
    let last = Arc::new(mm.match_query(&repo, &query));
    registry.register("sub-1", "cli-sub".into(), None, query, last, &repo);
    let last_row = per(N, delta(before, live()));

    eprintln!("per result row held: live heap");
    let table = [
        ("first match, blocks rendered", rendered, None),
        ("match cache entry", cache_row, Some(CEILING_CACHE_ROW)),
        ("subscription's last set", last_row, Some(CEILING_LAST_ROW)),
    ];
    for (what, (bytes, allocs), _) in table {
        eprintln!("{what:<30} {bytes:>6.1} B in {allocs:>5.3} allocations");
    }
    for (what, (bytes, allocs), ceiling) in table {
        let Some(ceiling) = ceiling else { continue };
        assert!(
            bytes <= ceiling.0 && allocs <= ceiling.1,
            "{what}: {bytes:.1} B in {allocs:.2} allocations per row, ceiling {} B in {}",
            ceiling.0,
            ceiling.1
        );
    }
}

/// One write that reaches 20 subscriptions of one subscriber: each `tell`
/// waiting in the subscriber's mailbox is a skeleton — the message's three
/// parameters, 144 B in 1 allocation — around the one body the broker
/// printed for the delta, shared by all of them (each tell held a 216 B
/// tree of its own in 4 more allocations before). The envelope's names sit
/// in place in the mailbox's slot and the sender's trace context beside
/// them, so a tell a broker sent from inside its handler's span costs what
/// an untraced one does: the names as two more parameters and two
/// `String`s made it 255 B in 3, and the trace as `:x-trace` text 336 B
/// in 4.
const CEILING_SHARED_DELTA_SKELETON: (isize, isize) = (144, 1);

/// What the first `n` envelopes waiting in `mailbox` hold, freed on this
/// thread one at a time as they are read and handed to `check`: `(each but
/// the last, the last)` — the last takes whatever they share with it.
/// Reading one makes its two name `String`s, which it frees again.
fn held_by(
    mailbox: &mut Endpoint,
    n: usize,
    check: impl Fn(&Envelope),
) -> ((isize, isize), (isize, isize)) {
    let mut read = || {
        let env = mailbox.try_recv().expect("a queued envelope");
        check(&env);
    };
    let before = live();
    for _ in 1..n {
        read();
    }
    let (bytes, allocs) = delta(live(), before);
    let each = n as isize - 1;
    assert!(bytes % each == 0 && allocs % each == 0, "the tells differ: {bytes} B in {allocs}");
    let before = live();
    read();
    ((bytes / each, allocs / each), delta(live(), before))
}

#[test]
fn one_write_is_one_body_for_every_subscription_it_reaches() {
    let _alone = alone();
    const N: usize = 20;
    let bus = Bus::new();
    let config = BrokerConfig::new("broker-0", "tcp://broker-0.bench:5500");
    let broker = BrokerAgent::spawn(&bus, config, model_free_repo()).unwrap();
    let mut client = bus.register("cli-setup").unwrap();
    let mut watcher = bus.register("cli-sub").unwrap();
    let lo = window(0, 0);
    let mut keys = Vec::new();
    for k in 0..N as i64 {
        let query = ServiceQuery::for_agent_type(AgentType::Resource)
            .with_ontology("bench")
            .with_classes(["L00x00"])
            .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                "R.a",
                lo - 1_000 * (k + 1),
                lo + 12_000 + 1_000 * (k + 1),
            )]));
        keys.push(subscribe_to(&mut client, "broker-0", &query, "cli-sub", T).unwrap().unwrap());
        watcher.recv_timeout(T).expect("the snapshot");
    }
    // The broker queues the tells before the reply, so all of them wait in
    // the watcher's mailbox once the advertisement is answered.
    assert!(advertise_to(&mut client, "broker-0", &ad("ra0000", 0, lo), T).unwrap());
    broker.stop();
    let body_of = |env: &Envelope| match env.message.content() {
        Some(SExpr::Block(body, _)) => Arc::clone(body),
        other => panic!("a sub-delta body printed once, not {other:?}"),
    };
    let first = watcher.try_recv().expect("a tell");
    let body = body_of(&first);
    let (_, matched, _) = codec::sub_delta_from_sexpr(first.message.content().unwrap()).unwrap();
    assert_eq!(matched.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(), ["ra0000"]);

    // The same tells as a queued row builds them, sent untraced under the
    // same two names.
    let from = bus.register("broker-0").unwrap();
    for key in &keys {
        let tell = Message::new(Performative::Tell)
            .with_in_reply_to(key.as_str())
            .with_ontology("infosleuth-service")
            .with_content(SExpr::Block(Arc::clone(&body), 0));
        from.send("cli-sub", tell).unwrap();
    }

    let one_body = |env: &Envelope| {
        assert_eq!(env.from, "broker-0");
        assert!(Arc::ptr_eq(&body_of(env), &body), "one body for all");
    };
    let (stamped, stamped_last) = held_by(&mut watcher, N - 1, one_body);
    drop((first, body));
    let (skeleton, last) = held_by(&mut watcher, N, |_| {});
    assert!(watcher.try_recv().is_none(), "one tell each");
    let shared = delta(skeleton, last);
    eprintln!("one write reaching {N} subscriptions of one subscriber: live heap");
    for (what, (bytes, allocs)) in [
        ("the shared body", shared),
        ("each tell, queued", skeleton),
        ("each tell, sent by a broker", stamped),
    ] {
        eprintln!("{what:<30} {bytes:>6} B in {allocs:>4} allocations");
    }
    assert_eq!(delta(stamped, stamped_last), (0, 0), "the last broker tell held no body");
    assert_eq!(stamped, skeleton, "a tell sent beside a trace context costs its skeleton");
    assert!(
        skeleton.0 <= CEILING_SHARED_DELTA_SKELETON.0
            && skeleton.1 <= CEILING_SHARED_DELTA_SKELETON.1,
        "each tell holds {} B in {} allocations beside the shared body, ceiling {} B in {}",
        skeleton.0,
        skeleton.1,
        CEILING_SHARED_DELTA_SKELETON.0,
        CEILING_SHARED_DELTA_SKELETON.1
    );
}
