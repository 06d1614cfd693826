//! Match-path harness: measures nanoseconds per service query through
//! the three matching paths and writes `BENCH_match.json` for tracking
//! across revisions.
//!
//! The paths, fastest to slowest on a warm broker:
//!
//! * **cache on** — `match_query_cached`: epoch-tagged LRU consulted
//!   first; repeated queries are answered without narrowing or scoring.
//! * **indexed** — `match_query`: candidate narrowing, then the scoring
//!   loop over the survivors, subsumption read off the taxonomies'
//!   closures — what a live broker runs on a cache miss.
//! * **linear** — `match_query_linear`: the same scoring loop over every
//!   advertisement, subsumption probed on the reference model; the
//!   reference path, and the baseline the speed-ups are stated against.
//!
//! Two workloads: **repeated** (one query re-issued — the cache's
//! steady state) and **unique** (every query distinct, cycling far past
//! cache capacity — all misses, measures worst-case cache overhead).

use infosleuth_bench::{median_sample, MEASURE_PASSES};
use infosleuth_broker::{MatchCache, Matchmaker, Repository};
use infosleuth_constraint::{Conjunction, Predicate};
use infosleuth_ontology::{
    healthcare_ontology, Advertisement, AgentLocation, AgentType, Capability, ConversationType,
    OntologyContent, SemanticInfo, ServiceQuery, SyntacticInfo,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Advertisements shaped for the paper's subsumption reasoning: agents
/// advertise `relational-query-processing` and the `podiatrist` class,
/// so queries for the `select` capability and the `provider` class are
/// answered through the taxonomy / class hierarchy — every candidate
/// costs real `provides`/`serves_class`/`contributes_class` probes, of
/// the closures on the indexed path and of the saturated model on the
/// linear one.
fn resource_ad(i: usize) -> Advertisement {
    let lo = (i % 50) as i64;
    Advertisement::new(AgentLocation::new(
        format!("ra{i}"),
        format!("tcp://h{i}.mcc.com:{}", 4000 + (i % 1000)),
        AgentType::Resource,
    ))
    .with_syntactic(SyntacticInfo::sql_kqml())
    .with_semantic(
        SemanticInfo::default()
            .with_conversations([ConversationType::AskAll])
            .with_capabilities([Capability::relational_query_processing()])
            .with_content(
                OntologyContent::new("healthcare")
                    .with_classes(["patient", "podiatrist"])
                    .with_slots(["patient.age", "podiatrist.license"])
                    .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                        "patient.age",
                        lo,
                        lo + 30,
                    )])),
            ),
    )
}

fn repo_of(n: usize) -> Repository {
    let mut repo = Repository::new();
    repo.register_ontology(healthcare_ontology());
    for i in 0..n {
        repo.advertise(resource_ad(i)).expect("valid advertisement");
    }
    repo.saturated();
    repo
}

/// The repeated-workload query: every dimension needs subsumption
/// reasoning (no agent advertises `select` or `provider` directly), so
/// scoring each candidate pays semantic probes; the constraint keeps
/// the answer set selective, as real queries are.
fn repeated_query() -> ServiceQuery {
    ServiceQuery::for_agent_type(AgentType::Resource)
        .with_query_language("SQL 2.0")
        .with_capability(Capability::select())
        .with_ontology("healthcare")
        .with_classes(["provider"])
        .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
            "patient.age",
            0,
            2,
        )]))
}

/// The unique-workload query for iteration `i`: the constraint bounds
/// cycle through 47 x 31 = 1457 combinations, far past the cache's 256
/// entries, so with LRU eviction no key ever survives to its re-issue —
/// every lookup is a miss and every insert pays eviction.
fn unique_query(i: usize) -> ServiceQuery {
    let lo = (i % 47) as i64;
    let hi = 50 + (i % 31) as i64;
    ServiceQuery::for_agent_type(AgentType::Resource)
        .with_query_language("SQL 2.0")
        .with_capability(Capability::select())
        .with_ontology("healthcare")
        .with_classes(["provider"])
        .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
            "patient.age",
            lo,
            hi,
        )]))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    CacheOn,
    Indexed,
    Linear,
}

/// Runs `warmup` untimed queries then timed queries until the cap or
/// budget (always at least two) and returns mean ns per timed query.
fn measure(
    repo: &mut Repository,
    path: Path,
    unique: bool,
    warmup: usize,
    max_queries: usize,
    budget: Duration,
) -> f64 {
    let model = repo.saturated();
    let mm = Matchmaker::default();
    let cache = MatchCache::default();
    let fixed = repeated_query();
    let mut run = |i: usize| {
        let q = if unique { unique_query(i) } else { fixed.clone() };
        match path {
            Path::CacheOn => {
                black_box(mm.match_query_cached(repo, &cache, &q));
            }
            Path::Indexed => {
                black_box(mm.match_query(repo, &q));
            }
            Path::Linear => {
                black_box(mm.match_query_linear(repo, &model, &q));
            }
        }
    };
    for i in 0..warmup {
        run(i);
    }
    let mut done = 0usize;
    let start = Instant::now();
    while done < max_queries && (done < 2 || start.elapsed() < budget) {
        run(warmup + done);
        done += 1;
    }
    start.elapsed().as_nanos() as f64 / done as f64
}

fn human(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let sizes: &[usize] = if quick { &[100, 1_000] } else { &[100, 1_000, 10_000] };
    let passes = if quick { 1 } else { MEASURE_PASSES };
    let budget = Duration::from_secs(if quick { 2 } else { 10 });
    let queries_for = |n: usize| {
        if quick {
            50
        } else {
            match n {
                ..=100 => 20_000,
                101..=1_000 => 2_000,
                _ => 200,
            }
        }
    };

    println!("=== Match path: cached vs indexed vs linear scan ===");
    println!(
        "ns per service query, median of {passes} warmed pass(es){}",
        if quick { " [--quick]" } else { "" }
    );
    println!();
    println!(
        "  agents   workload   {:>10}   {:>10}   {:>10}   cache x   index x",
        "cache on", "indexed", "linear"
    );

    let mut rows = Vec::new();
    for &n in sizes {
        let mut repo = repo_of(n);
        let queries = queries_for(n);
        let warmup = (queries / 10).clamp(2, 500);
        for unique in [false, true] {
            let mut columns = [0f64; 3];
            for (ci, path) in [Path::CacheOn, Path::Indexed, Path::Linear].into_iter().enumerate() {
                let samples: Vec<(f64, ())> = (0..passes)
                    .map(|_| (measure(&mut repo, path, unique, warmup, queries, budget), ()))
                    .collect();
                columns[ci] = median_sample(samples).0;
            }
            let [cache_ns, indexed_ns, linear_ns] = columns;
            let cache_speedup = linear_ns / cache_ns;
            let indexed_speedup = linear_ns / indexed_ns;
            // On the unique workload the cache never hits, so cache-on
            // vs indexed is pure cache overhead. Sub-noise readings can
            // dip below zero; clamp so the tracked JSON never reports
            // an impossible negative overhead.
            let cache_overhead_pct = ((cache_ns / indexed_ns - 1.0) * 100.0).max(0.0);
            let workload = if unique { "unique" } else { "repeated" };
            println!(
                "  {n:6}   {workload:8}   {:>10}   {:>10}   {:>10}   {cache_speedup:6.1}x   {indexed_speedup:6.1}x",
                human(cache_ns),
                human(indexed_ns),
                human(linear_ns),
            );
            rows.push(format!(
                concat!(
                    "    {{\"agents\": {}, \"workload\": \"{}\", ",
                    "\"cache_on_ns_per_query\": {:.0}, \"indexed_ns_per_query\": {:.0}, ",
                    "\"linear_ns_per_query\": {:.0}, ",
                    "\"cache_speedup_vs_linear\": {:.2}, \"indexed_speedup_vs_linear\": {:.2}, ",
                    "\"cache_overhead_pct\": {:.2}}}"
                ),
                n,
                workload,
                cache_ns,
                indexed_ns,
                linear_ns,
                cache_speedup,
                indexed_speedup,
                cache_overhead_pct,
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"match\",\n  \"paths\": \"cache_on | indexed | linear\",\n  \"quick\": {},\n  \"meta\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        quick,
        infosleuth_bench::run_meta(),
        rows.join(",\n")
    );
    let path = "BENCH_match.json";
    std::fs::write(path, &json).expect("write BENCH_match.json");
    println!();
    println!("(wrote {path})");
}
