//! Churn harness: measures interleaved advertise/unadvertise/match
//! throughput with the repository's incrementally maintained model
//! against a from-scratch saturation per step, and writes the results to
//! `BENCH_churn.json` for tracking across revisions.
//!
//! One churn step = unadvertise an agent + advertise a replacement + run
//! one service query. The incremental column warms the repository's
//! cached model once, so every mutation patches it by delta saturation
//! (additions) and delete-and-rederive (retractions). The
//! full-resaturation column never asks the repository for its model — so
//! there is none to patch — and scores each query against
//! `program().saturate(edb())`, the full recompute `churn_oracle` compares
//! the patched model with.

use infosleuth_analysis::ConformanceMonitor;
use infosleuth_bench::{median_sample, MEASURE_PASSES};
use infosleuth_broker::{Matchmaker, Repository};
use infosleuth_constraint::{Conjunction, Predicate};
use infosleuth_kqml::{Message, Performative, SExpr};
use infosleuth_obs::{Obs, RingSink, SpanSink};
use infosleuth_ontology::{
    healthcare_ontology, Advertisement, AgentLocation, AgentType, Capability, ConversationType,
    OntologyContent, SemanticInfo, ServiceQuery, SyntacticInfo,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
                    .with_classes(["patient", "diagnosis"])
                    .with_slots(["patient.age", "diagnosis.code"])
                    .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
                        "patient.age",
                        lo,
                        lo + 30,
                    )])),
            ),
    )
}

fn repo_of(n: usize, obs: Option<&Arc<Obs>>) -> Repository {
    let mut repo = Repository::new();
    repo.register_ontology(healthcare_ontology());
    if let Some(obs) = obs {
        repo.set_obs(obs, "bench-broker");
    }
    for i in 0..n {
        repo.advertise(resource_ad(i)).expect("valid advertisement");
    }
    repo
}

fn query() -> ServiceQuery {
    ServiceQuery::for_agent_type(AgentType::Resource)
        .with_query_language("SQL 2.0")
        .with_ontology("healthcare")
        .with_classes(["patient"])
        .with_constraints(Conjunction::from_predicates(vec![Predicate::between(
            "patient.age",
            25,
            65,
        )]))
}

/// Runs `warmup` untimed churn steps (caches hot, allocator and branch
/// predictors settled), then timed steps until the step cap or the time
/// budget is hit (always at least two) and returns mean nanoseconds per
/// timed step. With `obs` set, the repository runs fully instrumented,
/// as a live broker would: stage histograms registered plus a bounded
/// ring sink receiving every pipeline-stage span.
fn measure(
    n: usize,
    incremental: bool,
    obs: bool,
    warmup: usize,
    max_steps: usize,
    budget: Duration,
) -> (f64, usize) {
    let bundle = if obs {
        let o = Obs::new();
        o.tracer().add_sink(Arc::new(RingSink::new(4096)) as Arc<dyn SpanSink>);
        Some(o)
    } else {
        None
    };
    let mut repo = repo_of(n, bundle.as_ref());
    if incremental {
        repo.saturated();
    }
    let mm = Matchmaker::default();
    let q = query();
    let mut step = |i: usize| {
        let victim = i % n;
        repo.unadvertise(&format!("ra{victim}"));
        repo.advertise(resource_ad(victim)).expect("valid advertisement");
        if incremental {
            black_box(mm.match_query_mut(&mut repo, &q));
        } else {
            let model = repo.program().saturate(repo.edb()).expect("stratified program");
            black_box(mm.match_query(&repo, &model, &q));
        }
    };
    for i in 0..warmup {
        step(i);
    }
    let mut steps = 0usize;
    let start = Instant::now();
    while steps < max_steps && (steps < 2 || start.elapsed() < budget) {
        step(warmup + steps);
        steps += 1;
    }
    (start.elapsed().as_nanos() as f64 / steps as f64, steps)
}

/// The six conversation events a message tap would see for one churn
/// step — unadvertise, advertise, and query, each opened and
/// acknowledged — fed through a lenient monitor.
fn observe_step(m: &mut ConformanceMonitor, i: usize) {
    for (perf, key) in [
        (Performative::Unadvertise, format!("u{i}")),
        (Performative::Advertise, format!("a{i}")),
        (Performative::AskAll, format!("q{i}")),
    ] {
        m.observe(
            "client",
            "broker",
            &Message::new(perf.clone())
                .with_content(SExpr::atom("x"))
                .with_reply_with(key.as_str()),
        );
        let ack =
            if perf == Performative::AskAll { Performative::Reply } else { Performative::Tell };
        m.observe(
            "broker",
            "client",
            &Message::new(ack).with_content(SExpr::atom("ok")).with_in_reply_to(key.as_str()),
        );
    }
    black_box(m.total_violations());
}

/// Mean nanoseconds the IS05x conformance monitor adds to one churn
/// step, timed directly over `steps` warmed iterations (message
/// construction included — a tap observes realistic `Message` values).
/// The monitor costs single-digit microseconds against a
/// millisecond-scale step, so measuring it as the *difference* of two
/// full-step timings would drown in machine noise; timing the observe
/// block itself is stable and is what `conformance_overhead_pct`
/// divides by the baseline step time.
fn measure_conf(steps: usize) -> f64 {
    let mut monitor = ConformanceMonitor::standard_lenient();
    let warmup = (steps / 10).clamp(2, 200);
    for i in 0..warmup {
        observe_step(&mut monitor, i);
    }
    let start = Instant::now();
    for i in 0..steps {
        observe_step(&mut monitor, warmup + i);
    }
    start.elapsed().as_nanos() as f64 / steps as f64
}

fn human(ns: f64) -> String {
    if ns < 1_000_000.0 {
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
    let (inc_steps, full_steps) = if quick { (100, 5) } else { (500, 30) };
    let budget = Duration::from_secs(if quick { 5 } else { 60 });

    println!("=== Repository churn: incremental vs full-resaturation maintenance ===");
    println!("one step = unadvertise + advertise + match{}", if quick { " [--quick]" } else { "" });
    println!();
    println!(
        "  agents   incremental/step   full-resat/step   speedup   +obs/step   obs overhead   \
         conf overhead"
    );

    // The instrumentation overhead (obs on vs off) is small relative to
    // machine noise, so those two variants run in interleaved passes —
    // long enough samples per pass that each pass is meaningful — so
    // drift hits both variants alike. Each measurement is warmed up and
    // the *median* pass is reported; best-of-N favoured whichever
    // variant got the luckiest pass and once produced a negative
    // overhead (see infosleuth_bench::median_sample).
    let passes = if quick { 1 } else { MEASURE_PASSES };
    let obs_steps_for = |n: usize| {
        if quick {
            inc_steps
        } else {
            // Aim for seconds-long samples at every size.
            match n {
                ..=100 => 5_000,
                101..=1_000 => 1_000,
                _ => 150,
            }
        }
    };
    let mut rows = Vec::new();
    for &n in sizes {
        let steps = obs_steps_for(n);
        let warmup = (steps / 10).clamp(2, 200);
        let mut inc_samples = Vec::with_capacity(passes);
        let mut obs_samples = Vec::with_capacity(passes);
        let mut conf_samples = Vec::with_capacity(passes);
        for _ in 0..passes {
            inc_samples.push(measure(n, true, false, warmup, steps, budget));
            obs_samples.push(measure(n, true, true, warmup, steps, budget));
            conf_samples.push(measure_conf(steps));
        }
        let (inc_ns, inc_n) = median_sample(inc_samples);
        let (obs_ns, obs_n) = median_sample(obs_samples);
        conf_samples.sort_by(|a, b| a.total_cmp(b));
        let conf_ns = conf_samples[(conf_samples.len() - 1) / 2];
        let (full_ns, full_n) = measure(n, false, false, 1, full_steps, budget);
        let speedup = full_ns / inc_ns;
        let overhead_pct = (obs_ns / inc_ns - 1.0) * 100.0;
        // The conformance monitor is timed directly (see measure_conf)
        // and reported as its share of a baseline step, so unlike the obs
        // delta it cannot go negative.
        let conf_pct = conf_ns / inc_ns * 100.0;
        // Anything the median still reports below zero is measurement
        // floor, not a real speedup from instrumentation: clamp so the
        // tracked JSON never claims an impossible negative overhead.
        let overhead_clamped = overhead_pct.max(0.0);
        println!(
            "  {n:6}   {:>16}   {:>15}   {speedup:6.1}x   {:>9}   {overhead_pct:+10.1}%   \
             {conf_pct:+11.2}%",
            human(inc_ns),
            human(full_ns),
            human(obs_ns),
        );
        rows.push(format!(
            concat!(
                "    {{\"agents\": {}, \"incremental_ns_per_step\": {:.0}, ",
                "\"incremental_steps\": {}, \"full_ns_per_step\": {:.0}, ",
                "\"full_steps\": {}, \"speedup\": {:.2}, ",
                "\"incremental_obs_ns_per_step\": {:.0}, \"incremental_obs_steps\": {}, ",
                "\"obs_overhead_pct\": {:.2}, ",
                "\"conf_ns_per_step\": {:.0}, ",
                "\"conformance_overhead_pct\": {:.2}}}"
            ),
            n,
            inc_ns,
            inc_n,
            full_ns,
            full_n,
            speedup,
            obs_ns,
            obs_n,
            overhead_clamped,
            conf_ns,
            conf_pct
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"churn\",\n  \"step\": \"unadvertise + advertise + match\",\n  \"quick\": {},\n  \"meta\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        quick,
        infosleuth_bench::run_meta(),
        rows.join(",\n")
    );
    let path = "BENCH_churn.json";
    std::fs::write(path, &json).expect("write BENCH_churn.json");
    println!();
    println!("(wrote {path})");
}
