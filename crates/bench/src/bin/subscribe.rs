//! Standing-subscription harness: measures per-churn-step notification
//! cost the way the broker's write path pays it (indexed: intersect the
//! changed advertisement against the table of stored answers, patch the
//! records it reaches) and naively (re-evaluate every standing query on
//! every change and diff it against its last result set), and writes the
//! results to `BENCH_sub.json`.
//!
//! One indexed churn step = re-advertise one agent with a shifted
//! constraint window + `affected` for its old and new versions + `patch`,
//! which drops the agent's row from each record reached, scores its new
//! version and returns the deltas owed. The workload spreads
//! subscriptions across a synthetic many-class ontology so each step
//! touches well under 1% of them — the regime where the naive path's cost
//! scales with the *total* subscription count while the indexed path
//! scales with the *affected* count.

use infosleuth_bench::{median_sample, MEASURE_PASSES};
use infosleuth_broker::{result_delta, MatchRow, Matchmaker, Repository, SubscriptionRegistry};
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
/// with a shifted window and the records it reaches are patched exactly
/// the way the broker's write path patches them (`use_index`), or every
/// standing query is matched again and diffed (the naive baseline).
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
    let mut reg = SubscriptionRegistry::default();
    // The naive baseline's own last result sets, one per subscription.
    let mut naive: Vec<(ServiceQuery, Arc<Vec<MatchRow>>)> = Vec::new();
    let mut register_ns = 0u64;
    for j in 0..n_subs {
        let q = subscription(j);
        let rows = Arc::new(mm.match_query(&repo, &q));
        if !use_index {
            naive.push((q, rows));
            continue;
        }
        let t0 = Instant::now();
        reg.register(format!("sub-{j}"), "watcher".into(), None, q, rows, &repo);
        register_ns += t0.elapsed().as_nanos() as u64;
    }

    let mut affected_total = 0u64;
    let mut notified_total = 0u64;
    let mut step = |s: usize, affected_total: &mut u64, notified_total: &mut u64| {
        let victim = s % AGENTS;
        let name = format!("ra{victim}");
        if !use_index {
            repo.advertise(ad(victim, s / AGENTS + 1)).expect("valid advertisement");
            *affected_total += naive.len() as u64;
            for (query, last) in &mut naive {
                let new = Arc::new(mm.match_query(&repo, query));
                let (matched, unmatched) = result_delta(last, &new);
                if !matched.is_empty() || !unmatched.is_empty() {
                    *notified_total += 1;
                    *last = new;
                }
                black_box((&matched, &unmatched));
            }
            return;
        }
        let mut reached = reg.affected(repo.advertisement(&name), None, &repo);
        repo.advertise(ad(victim, s / AGENTS + 1)).expect("valid advertisement");
        reached.append(&mut reg.affected(None, repo.advertisement(&name), &repo));
        *affected_total += reached.len() as u64;
        let notes = reg.patch(&repo, &[name.as_str().into()], &reached);
        *notified_total += notes.len() as u64;
        black_box(notes);
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
        "one step = re-advertise + affected + patch ({CLASSES} classes, {AGENTS} agents){}",
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
        "{{\n  \"bench\": \"subscribe\",\n  \"step\": \"re-advertise + affected + patch\",\n  \"classes\": {CLASSES},\n  \"agents\": {AGENTS},\n  \"quick\": {quick},\n  \"meta\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        infosleuth_bench::run_meta(),
        rows.join(",\n")
    );
    let path = "BENCH_sub.json";
    std::fs::write(path, &json).expect("write BENCH_sub.json");
    println!();
    println!("(wrote {path})");
}
