//! Property tests for the taxonomy — the subsumption relation the broker's
//! capability and class-hierarchy reasoning is built on must be a strict
//! partial order that agrees with graph reachability — and for
//! [`SortedSet`], which must be a `BTreeSet` to every caller and a
//! no-spare-capacity vector to the allocator, as must every list the
//! advertisement builders append to.

use infosleuth_kqml::Text;
use infosleuth_ontology::{Fragment, OntologyContent, SemanticInfo, SortedSet, Taxonomy};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Counts this thread's `alloc` and `realloc` calls, so one test can bound
/// the heap operations of a bulk build while the others run beside it.
struct CountingPerThread;

thread_local! {
    static HEAP_OPS: Cell<usize> = const { Cell::new(0) };
}

fn count_heap_op() {
    // A thread being torn down has no counter left; nothing is measured
    // there.
    let _ = HEAP_OPS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local statistic.
unsafe impl GlobalAlloc for CountingPerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_heap_op();
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_heap_op();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingPerThread = CountingPerThread;

/// A random forest over up to 12 nodes, built so construction never fails:
/// each node attaches under a previously-created node (or becomes a root),
/// with a few extra cross edges added where they do not create cycles.
fn arb_taxonomy() -> impl Strategy<Value = Taxonomy> {
    (
        proptest::collection::vec(proptest::option::of(0usize..12), 1..12),
        proptest::collection::vec((0usize..12, 0usize..12), 0..8),
    )
        .prop_map(|(parents, extra_edges)| {
            let mut t = Taxonomy::new();
            for (i, parent) in parents.iter().enumerate() {
                let name = format!("n{i}");
                match parent {
                    Some(p) if *p < i => t.add_child(format!("n{p}"), name).expect("parent exists"),
                    _ => t.add_root(name).expect("fresh node"),
                }
            }
            for (a, b) in extra_edges {
                if a < parents.len() && b < parents.len() && a != b {
                    // add_edge rejects cycles on its own.
                    let _ = t.add_edge(format!("n{a}"), format!("n{b}"));
                }
            }
            t
        })
}

proptest! {
    /// Strict descendance is irreflexive and antisymmetric (a DAG).
    #[test]
    fn descendance_is_a_strict_order(t in arb_taxonomy()) {
        let nodes: Vec<String> = t.nodes().map(str::to_string).collect();
        for a in &nodes {
            prop_assert!(!t.is_descendant(a, a), "{a} descends from itself");
            for b in &nodes {
                if t.is_descendant(a, b) {
                    prop_assert!(
                        !t.is_descendant(b, a),
                        "cycle: {a} <-> {b}"
                    );
                }
            }
        }
    }

    /// Descendance is transitive.
    #[test]
    fn descendance_is_transitive(t in arb_taxonomy()) {
        let nodes: Vec<String> = t.nodes().map(str::to_string).collect();
        for a in &nodes {
            for b in &nodes {
                if !t.is_descendant(a, b) {
                    continue;
                }
                for c in &nodes {
                    if t.is_descendant(b, c) {
                        prop_assert!(t.is_descendant(a, c));
                    }
                }
            }
        }
    }

    /// `ancestors` and `descendants` are inverse views of the same relation.
    #[test]
    fn ancestors_and_descendants_are_inverse(t in arb_taxonomy()) {
        let nodes: Vec<String> = t.nodes().map(str::to_string).collect();
        for a in &nodes {
            let a_sym = Text::from(a.as_str());
            for anc in t.ancestors(a) {
                prop_assert!(t.descendants(anc.as_str()).contains(&a_sym));
                prop_assert!(t.is_descendant(a, anc.as_str()));
            }
            for desc in t.descendants(a) {
                prop_assert!(t.ancestors(desc.as_str()).contains(&a_sym));
            }
        }
    }

    /// `closure_pairs` is exactly reflexivity plus strict descendance.
    #[test]
    fn closure_pairs_match_descendance(t in arb_taxonomy()) {
        let pairs: std::collections::BTreeSet<(String, String)> =
            t.closure_pairs().into_iter().collect();
        let nodes: Vec<String> = t.nodes().map(str::to_string).collect();
        for a in &nodes {
            for b in &nodes {
                let expected = a == b || t.is_descendant(b, a);
                prop_assert_eq!(
                    pairs.contains(&(a.clone(), b.clone())),
                    expected,
                    "pair ({}, {})", a, b
                );
            }
        }
    }

    /// Depth is 0 exactly at roots and parents are always shallower-or-equal
    /// along some path (depth = shortest path to a root).
    #[test]
    fn depth_is_shortest_root_distance(t in arb_taxonomy()) {
        for node in t.nodes() {
            let d = t.depth(node).expect("declared node has a depth");
            let parents: Vec<&str> = t.parents_of(node).collect();
            if parents.is_empty() {
                prop_assert_eq!(d, 0);
            } else {
                let best = parents
                    .iter()
                    .map(|p| t.depth(p).expect("parent declared"))
                    .min()
                    .expect("non-empty parents");
                prop_assert_eq!(d, best + 1);
            }
        }
    }
}

/// One step of a set's life. Values come from a dozen names, so steps
/// collide: inserts repeat, removes hit, batches overlap what is held.
#[derive(Debug, Clone)]
enum Step {
    Insert(String),
    Remove(String),
    Extend(Vec<String>),
    Clear,
}

fn arb_name() -> impl Strategy<Value = String> {
    (0usize..12).prop_map(|n| format!("k{n:02}"))
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    // Arms are drawn evenly; the repeats keep a set growing between clears.
    let step = prop_oneof![
        arb_name().prop_map(Step::Insert),
        arb_name().prop_map(Step::Insert),
        arb_name().prop_map(Step::Insert),
        arb_name().prop_map(Step::Remove),
        arb_name().prop_map(Step::Remove),
        proptest::collection::vec(arb_name(), 0..6).prop_map(Step::Extend),
        proptest::collection::vec(arb_name(), 0..6).prop_map(Step::Extend),
        Just(Step::Clear),
    ];
    proptest::collection::vec(step, 0..40)
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

proptest! {
    /// Step by step against a `BTreeSet`: the same answers from `insert`,
    /// `remove` and `contains`, the same elements in the same order, and
    /// never a slot more than the elements need.
    #[test]
    fn sorted_set_is_a_btreeset_to_its_callers(steps in arb_steps()) {
        let mut set = SortedSet::new();
        let mut oracle = BTreeSet::new();
        for step in steps {
            match step {
                Step::Insert(v) => prop_assert_eq!(set.insert(v.clone()), oracle.insert(v)),
                Step::Remove(v) => prop_assert_eq!(set.remove(v.as_str()), oracle.remove(v.as_str())),
                Step::Extend(vs) => {
                    set.extend(vs.iter().cloned());
                    oracle.extend(vs);
                }
                Step::Clear => {
                    set.clear();
                    oracle.clear();
                }
            }
            prop_assert_eq!(set.capacity(), set.len());
            prop_assert_eq!((set.len(), set.is_empty()), (oracle.len(), oracle.is_empty()));
            prop_assert_eq!(set.first(), oracle.first());
            prop_assert!(set.iter().eq(oracle.iter()));
            prop_assert!((&set).into_iter().eq(&oracle));
            prop_assert!(set.clone().into_iter().eq(oracle.clone()));
            for n in 0..12 {
                let name = format!("k{n:02}");
                prop_assert_eq!(set.contains(name.as_str()), oracle.contains(name.as_str()));
            }
        }
    }

    /// A set is its elements, however it came by them: built by `collect`,
    /// by `insert` in reverse, or by `extend` in halves, equal element
    /// lists give equal sets with equal hashes; and two sets compare, hash
    /// and nest as the oracle's do.
    #[test]
    fn eq_ord_and_hash_ignore_insertion_order(
        a in proptest::collection::vec(arb_name(), 0..10),
        b in proptest::collection::vec(arb_name(), 0..10),
    ) {
        let collected: SortedSet<String> = a.iter().cloned().collect();
        let mut inserted = SortedSet::new();
        for v in a.iter().rev() {
            inserted.insert(v.clone());
        }
        let mut halves = SortedSet::new();
        halves.extend(a[a.len() / 2..].iter().cloned());
        halves.extend(a[..a.len() / 2].iter().cloned());
        for other in [&inserted, &halves] {
            prop_assert_eq!(&collected, other);
            prop_assert_eq!(hash_of(&collected), hash_of(other));
            prop_assert_eq!(other.capacity(), other.len());
        }

        let oracle_a: BTreeSet<String> = a.iter().cloned().collect();
        let oracle_b: BTreeSet<String> = b.iter().cloned().collect();
        let other: SortedSet<String> = b.iter().cloned().collect();
        prop_assert_eq!(collected.len(), oracle_a.len(), "duplicates collapse");
        prop_assert_eq!(collected == other, oracle_a == oracle_b);
        prop_assert_eq!(collected.cmp(&other), oracle_a.cmp(&oracle_b));
        prop_assert_eq!(hash_of(&collected), hash_of(&oracle_a));
        prop_assert_eq!(collected.is_subset(&other), oracle_a.is_subset(&oracle_b));
    }
}

/// One builder call on an advertisement's semantic information.
#[derive(Debug, Clone)]
enum Build {
    /// A content record carrying this many fragments.
    Content(usize),
    Restriction,
}

proptest! {
    /// The lists an advertisement's builders append to hold no spare
    /// capacity, as a `SortedSet` holds none: content records, each
    /// record's fragments, and capability restrictions, however the calls
    /// interleave.
    #[test]
    fn built_lists_hold_no_spare_capacity(
        calls in proptest::collection::vec(
            prop_oneof![(0usize..4).prop_map(Build::Content), Just(Build::Restriction)],
            0..8,
        ),
    ) {
        let mut sem = SemanticInfo::default();
        for (i, call) in calls.into_iter().enumerate() {
            sem = match call {
                Build::Content(fragments) => {
                    let content = (0..fragments).fold(OntologyContent::new(format!("o{i}")), |c, f| {
                        c.with_fragment(format!("c{f}"), Fragment::vertical([format!("s{f}")]))
                    });
                    prop_assert_eq!(content.fragments.capacity(), content.fragments.len());
                    sem.with_content(content)
                }
                Build::Restriction => sem.with_capability_restriction(format!("r{i}")),
            };
            prop_assert_eq!(sem.content.capacity(), sem.content.len());
            let restrictions = &sem.capability_restrictions;
            prop_assert_eq!(restrictions.capacity(), restrictions.len());
        }
    }
}

/// A bulk build sorts once. 10⁵ shuffled strings, a fifth of them
/// repeated, collect into the set in a handful of heap operations — the
/// vector growing, the sort's buffer, the final trim — where an `insert`
/// per element would trim, so reallocate, 10⁵ times.
#[test]
fn bulk_collect_sorts_once() {
    const N: usize = 100_000;
    let mut names: Vec<String> = (0..N).map(|n| format!("name-{:06}", n % (N * 4 / 5))).collect();
    // Fisher–Yates on a fixed LCG: the same shuffle every run.
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    for i in (1..N).rev() {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        names.swap(i, (state >> 33) as usize % (i + 1));
    }
    let oracle: BTreeSet<String> = names.iter().cloned().collect();

    let before = HEAP_OPS.with(Cell::get);
    let set: SortedSet<String> = names.into_iter().collect();
    let heap_ops = HEAP_OPS.with(Cell::get) - before;

    assert!(heap_ops <= 64, "{heap_ops} allocations and reallocations to collect {N} strings");
    assert_eq!((set.len(), set.capacity()), (N * 4 / 5, N * 4 / 5));
    assert!(set.iter().eq(oracle.iter()));
}
