//! Standing-subscription harness: measures per-churn-step notification
//! cost with the inverted subscription index on (incremental: intersect
//! the changed advertisement against the index, re-score only the
//! candidates) and off (naive: re-evaluate every standing query on every
//! change), and writes the results to `BENCH_sub.json`.
//!
//! One churn step = re-advertise one agent with a shifted constraint
//! window + re-score the affected subscriptions through the epoch-tagged
//! match cache + diff against each subscription's last-delivered result
//! set. The workload spreads subscriptions across a synthetic
//! many-class ontology so each step touches well under 1% of them —
//! the regime where the naive path's cost scales with the *total*
//! subscription count while the indexed path scales with the *affected*
//! count.

use infosleuth_bench::{median_sample, MEASURE_PASSES};
use infosleuth_broker::{result_delta, MatchCache, Matchmaker, Repository, SubscriptionRegistry};
use infosleuth_constraint::{Conjunction, Predicate};
use infosleuth_ontology::{
    Advertisement, AgentLocation, AgentType, ClassDef, ConversationType, Ontology, OntologyContent,
    SemanticInfo, ServiceQuery, SlotDef, SyntacticInfo, ValueType,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Classes in the synthetic ontology; subscriptions and advertisements
/// are distributed round-robin, so one changed advertisement can affect
/// at most ~1/CLASSES of the standing subscriptions.
const CLASSES: usize = 256;
/// Live advertisements churned through the repository.
const AGENTS: usize = 512;

fn class_name(i: usize) -> String {
    format!("K{:03}", i % CLASSES)
}

fn synthetic_ontology() -> Ontology {
    let mut o = Ontology::new("synthetic-classes");
    for i in 0..CLASSES {
        o.add_class(ClassDef::new(
            class_name(i),
            vec![SlotDef::key("id", ValueType::Int), SlotDef::new("a", ValueType::Int)],
        ))
        .expect("fresh ontology");
    }
    o
}

/// Agent `i`'s advertisement at churn `version`: same class every time,
/// constraint window shifted per version so an update genuinely changes
/// the match sets of overlapping subscriptions.
fn ad(i: usize, version: usize) -> Advertisement {
    let class = class_name(i);
    let lo = ((i * 7 + version * 13) % 200) as i64;
    Advertisement::new(AgentLocation::new(
        format!("ra{i}"),
        format!("tcp://h{}.mcc.com:{}", i % 100, 4000 + (i % 1000)),
        AgentType::Resource,
    ))
    .with_syntactic(SyntacticInfo::sql_kqml())
    .with_semantic(
        SemanticInfo::default().with_conversations([ConversationType::AskAll]).with_content(
            OntologyContent::new("synthetic-classes")
                .with_classes([class.as_str()])
                .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                    format!("{class}.a"),
                    lo,
                    lo + 60,
                )])),
        ),
    )
}

/// Standing subscription `j`: one class, one numeric window — each lands
/// in exactly one class bucket plus one interval tree of the index.
fn subscription(j: usize) -> ServiceQuery {
    let class = class_name(j);
    let lo = ((j * 11) % 200) as i64;
    ServiceQuery::for_agent_type(AgentType::Resource)
        .with_ontology("synthetic-classes")
        .with_classes([class.as_str()])
        .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
            format!("{class}.a"),
            lo,
            lo + 80,
        )]))
}

#[derive(Clone, Copy)]
struct Measured {
    ns_per_step: f64,
    steps: usize,
    affected_per_step: f64,
    notify_per_step: f64,
    register_ns_per_sub: f64,
}

/// Builds a repository with AGENTS live advertisements and `n_subs`
/// standing subscriptions, then churns: per step, one agent re-advertises
/// with a shifted window and every affected subscription is re-scored and
/// diffed exactly the way the broker's notification path does it.
fn measure(
    n_subs: usize,
    use_index: bool,
    warmup: usize,
    max_steps: usize,
    budget: Duration,
) -> Measured {
    let mut repo = Repository::new();
    repo.register_ontology(synthetic_ontology());
    for i in 0..AGENTS {
        repo.advertise(ad(i, 0)).expect("valid advertisement");
    }
    let mm = Matchmaker::default();
    let cache = MatchCache::new(64);
    let mut reg = SubscriptionRegistry::default();
    let mut register_ns = 0u64;
    for j in 0..n_subs {
        let q = subscription(j);
        let last = mm.match_query_cached(&mut repo, &cache, &q);
        let t0 = Instant::now();
        reg.register(format!("sub-{j}"), "watcher".into(), None, q, last, &repo);
        register_ns += t0.elapsed().as_nanos() as u64;
    }

    let mut affected_total = 0u64;
    let mut notified_total = 0u64;
    let mut step = |s: usize, affected_total: &mut u64, notified_total: &mut u64| {
        let victim = s % AGENTS;
        let name = format!("ra{victim}");
        let old = repo.advertisement_arc(&name).cloned();
        repo.advertise(ad(victim, s / AGENTS + 1)).expect("valid advertisement");
        let new = repo.advertisement_arc(&name).cloned();
        // The naive baseline is bench-side: every standing query, every step.
        let affected =
            if use_index { reg.affected(old.as_deref(), new.as_deref(), &repo) } else { reg.ids() };
        *affected_total += affected.len() as u64;
        for id in affected {
            let (query, last) = {
                let e = reg.entry(id).expect("registered");
                (e.query.clone(), Arc::clone(&e.last))
            };
            let new_res = mm.match_query_cached(&mut repo, &cache, &query);
            let (matched, unmatched) = result_delta(&last, &new_res);
            if matched.is_empty() && unmatched.is_empty() {
                continue;
            }
            *notified_total += 1;
            reg.update_last(id, new_res);
            black_box((&matched, &unmatched));
        }
    };
    let mut sink = (0u64, 0u64);
    for s in 0..warmup {
        step(s, &mut sink.0, &mut sink.1);
    }
    let mut steps = 0usize;
    let start = Instant::now();
    while steps < max_steps && (steps < 2 || start.elapsed() < budget) {
        step(warmup + steps, &mut affected_total, &mut notified_total);
        steps += 1;
    }
    Measured {
        ns_per_step: start.elapsed().as_nanos() as f64 / steps as f64,
        steps,
        affected_per_step: affected_total as f64 / steps as f64,
        notify_per_step: notified_total as f64 / steps as f64,
        register_ns_per_sub: register_ns as f64 / n_subs as f64,
    }
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
    let sizes: &[usize] =
        if quick { &[1_000, 10_000] } else { &[1_000, 10_000, 100_000, 1_000_000] };
    let budget = Duration::from_secs(if quick { 5 } else { 60 });

    println!("=== Standing subscriptions: inverted index vs naive re-evaluation ===");
    println!(
        "one step = re-advertise + re-score affected + diff ({CLASSES} classes, {AGENTS} agents){}",
        if quick { " [--quick]" } else { "" }
    );
    println!();
    println!("    subs     indexed/step   naive/step    speedup   affected   affected%   notified");

    let mut rows = Vec::new();
    for &n in sizes {
        // The indexed path is cheap: median over warmed passes. The naive
        // path re-scores every subscription per step, so it gets few
        // steps and (at the large sizes) a single pass.
        let idx_passes = if quick { 1 } else { MEASURE_PASSES };
        let idx_steps = (2_000_000 / n).clamp(20, 1_000);
        let nav_steps = (400_000 / n).clamp(2, 200);
        let nav_passes = if quick || n >= 100_000 { 1 } else { 3 };
        let mut idx_samples = Vec::with_capacity(idx_passes);
        for _ in 0..idx_passes {
            let m = measure(n, true, (idx_steps / 10).clamp(2, 100), idx_steps, budget);
            idx_samples.push((m.ns_per_step, m));
        }
        let mut nav_samples = Vec::with_capacity(nav_passes);
        for _ in 0..nav_passes {
            let m = measure(n, false, 1, nav_steps, budget);
            nav_samples.push((m.ns_per_step, m));
        }
        let (_, idx) = median_sample(idx_samples);
        let (_, nav) = median_sample(nav_samples);
        let speedup = nav.ns_per_step / idx.ns_per_step;
        let affected_pct = idx.affected_per_step / n as f64 * 100.0;
        println!(
            "  {n:7}   {:>12}   {:>10}   {speedup:7.1}x   {:8.1}   {affected_pct:8.3}%   {:8.1}",
            human(idx.ns_per_step),
            human(nav.ns_per_step),
            idx.affected_per_step,
            idx.notify_per_step,
        );
        rows.push(format!(
            concat!(
                "    {{\"subs\": {}, \"indexed_ns_per_step\": {:.0}, \"indexed_steps\": {}, ",
                "\"naive_ns_per_step\": {:.0}, \"naive_steps\": {}, \"speedup\": {:.2}, ",
                "\"affected_per_step\": {:.1}, \"affected_pct\": {:.4}, ",
                "\"notify_per_step\": {:.1}, \"register_ns_per_sub\": {:.0}}}"
            ),
            n,
            idx.ns_per_step,
            idx.steps,
            nav.ns_per_step,
            nav.steps,
            speedup,
            idx.affected_per_step,
            affected_pct,
            idx.notify_per_step,
            idx.register_ns_per_sub,
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"subscribe\",\n  \"step\": \"re-advertise + re-score affected + diff\",\n  \"classes\": {CLASSES},\n  \"agents\": {AGENTS},\n  \"quick\": {quick},\n  \"meta\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        infosleuth_bench::run_meta(),
        rows.join(",\n")
    );
    let path = "BENCH_sub.json";
    std::fs::write(path, &json).expect("write BENCH_sub.json");
    println!();
    println!("(wrote {path})");
}
