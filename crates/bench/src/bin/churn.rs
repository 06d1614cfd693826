//! Churn harness: measures interleaved advertise/unadvertise/match
//! throughput of a repository without and with a derived-concept rule,
//! against rebuilding the whole repository's model every step, and writes
//! the results to `BENCH_churn.json` for tracking across revisions.
//!
//! One churn step = unadvertise an agent + advertise a replacement + run
//! one service query. The model-free column has no derived rules: what a
//! live broker without them does, matching off the taxonomies' closures.
//! The rules column registers `cap(A, polling) :- cap(A, subscription).`
//! first, so every advertise also saturates the advertisement's own facts
//! with the hierarchy facts under the rules, once, when it is posted —
//! what a rule costs a broker. The full-resaturation column has no rules
//! and asks for the reference model (`Repository::saturated`) each step:
//! the whole repository compiled and saturated from scratch, what the
//! oracles pay.

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

fn empty_repo(obs: Option<&Arc<Obs>>) -> Repository {
    let mut repo = Repository::new();
    repo.register_ontology(healthcare_ontology());
    if let Some(obs) = obs {
        repo.set_obs(obs, "bench-broker");
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

/// The rule the rules column registers.
const RULE: &str = "cap(A, polling) :- cap(A, subscription).";

/// How a repository is set up and churned.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Model {
    /// No derived rules, no model.
    None,
    /// [`RULE`] registered: each advertisement saturated when posted.
    Rules,
    /// No derived rules; the reference model rebuilt on every step.
    Recomputed,
}

/// One repository and the way it is churned.
struct Variant {
    repo: Repository,
    model: Model,
    timed: Duration,
}

impl Variant {
    /// With `obs` set, the repository runs fully instrumented, as a live
    /// broker would: stage histograms registered plus a bounded ring sink
    /// receiving every pipeline-stage span (the repository keeps the
    /// bundle alive).
    fn new(model: Model, obs: bool) -> Variant {
        let bundle = obs.then(|| {
            let o = Obs::new();
            o.tracer().add_sink(Arc::new(RingSink::new(4096)) as Arc<dyn SpanSink>);
            o
        });
        let mut repo = empty_repo(bundle.as_ref());
        if model == Model::Rules {
            repo.register_derived_rules(RULE).expect("the rule is agent-local");
        }
        Variant { repo, model, timed: Duration::ZERO }
    }

    fn step(&mut self, victim: usize, q: &ServiceQuery) {
        let repo = &mut self.repo;
        repo.unadvertise(&format!("ra{victim}"));
        repo.advertise(resource_ad(victim)).expect("valid advertisement");
        if self.model == Model::Recomputed {
            black_box(repo.saturated());
        }
        black_box(Matchmaker::default().match_query_mut(repo, q));
    }
}

/// Fills and churns the variants side by side — each advertisement, then
/// each step, taken by every variant in turn, each on its own clock — so
/// machine drift and where the allocator happens to put a repository hit
/// all of them alike (a repository filled on its own into a heap the
/// previous pass left fragmented steps up to 15 % slower at 10⁴ agents,
/// more than a model's upkeep costs there). Runs `warmup` untimed steps
/// (caches hot, allocator and branch predictors settled), then timed
/// steps until the step cap or the time budget is hit (always at least
/// two) and returns each variant's mean nanoseconds per timed step.
fn measure(
    n: usize,
    variants: &[(Model, bool)],
    warmup: usize,
    max_steps: usize,
    budget: Duration,
) -> Vec<(f64, usize)> {
    let mut variants: Vec<Variant> =
        variants.iter().map(|&(model, obs)| Variant::new(model, obs)).collect();
    for i in 0..n {
        for v in &mut variants {
            v.repo.advertise(resource_ad(i)).expect("valid advertisement");
        }
    }
    let q = query();
    for i in 0..warmup {
        variants.iter_mut().for_each(|v| v.step(i % n, &q));
    }
    let mut steps = 0usize;
    let start = Instant::now();
    while steps < max_steps && (steps < 2 || start.elapsed() < budget) {
        for v in &mut variants {
            let began = Instant::now();
            v.step((warmup + steps) % n, &q);
            v.timed += began.elapsed();
        }
        steps += 1;
    }
    variants.iter().map(|v| (v.timed.as_nanos() as f64 / steps as f64, steps)).collect()
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
    let (quick_steps, full_steps) = if quick { (100, 5) } else { (500, 30) };
    let budget = Duration::from_secs(if quick { 5 } else { 60 });

    println!("=== Repository churn: no rules vs a derived rule vs full resaturation ===");
    println!("one step = unadvertise + advertise + match{}", if quick { " [--quick]" } else { "" });
    println!();
    println!(
        "  agents   model-free/step   rules/step   full-resat/step   speedup   +obs/step   \
         obs overhead   conf overhead"
    );

    // The instrumentation overhead (obs on vs off) and, at the larger
    // sizes, the rule's cost are small relative to machine noise, so those
    // three variants run side by side (see `measure`) in passes long
    // enough that each is meaningful. Each measurement is warmed up and
    // the *median* pass is reported; best-of-N favoured whichever
    // variant got the luckiest pass and once produced a negative
    // overhead (see infosleuth_bench::median_sample).
    let passes = if quick { 1 } else { MEASURE_PASSES };
    let obs_steps_for = |n: usize| {
        if quick {
            quick_steps
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
        let mut free_samples = Vec::with_capacity(passes);
        let mut rules_samples = Vec::with_capacity(passes);
        let mut obs_samples = Vec::with_capacity(passes);
        let mut conf_samples = Vec::with_capacity(passes);
        for _ in 0..passes {
            let side_by_side = [(Model::None, false), (Model::Rules, false), (Model::Rules, true)];
            let samples = measure(n, &side_by_side, warmup, steps, 3 * budget);
            free_samples.push(samples[0]);
            rules_samples.push(samples[1]);
            obs_samples.push(samples[2]);
            conf_samples.push(measure_conf(steps));
        }
        let (free_ns, free_n) = median_sample(free_samples);
        let (rules_ns, rules_n) = median_sample(rules_samples);
        let (obs_ns, obs_n) = median_sample(obs_samples);
        conf_samples.sort_by(|a, b| a.total_cmp(b));
        let conf_ns = conf_samples[(conf_samples.len() - 1) / 2];
        let (full_ns, full_n) = measure(n, &[(Model::Recomputed, false)], 1, full_steps, budget)[0];
        let speedup = full_ns / rules_ns;
        let overhead_pct = (obs_ns / rules_ns - 1.0) * 100.0;
        // The conformance monitor is timed directly (see measure_conf)
        // and reported as its share of a baseline step, so unlike the obs
        // delta it cannot go negative.
        let conf_pct = conf_ns / rules_ns * 100.0;
        // Anything the median still reports below zero is measurement
        // floor, not a real speedup from instrumentation: clamp so the
        // tracked JSON never claims an impossible negative overhead.
        let overhead_clamped = overhead_pct.max(0.0);
        println!(
            "  {n:6}   {:>15}   {:>16}   {:>15}   {speedup:6.1}x   {:>9}   {overhead_pct:+10.1}%   \
             {conf_pct:+11.2}%",
            human(free_ns),
            human(rules_ns),
            human(full_ns),
            human(obs_ns),
        );
        rows.push(format!(
            concat!(
                "    {{\"agents\": {}, \"model_free_ns_per_step\": {:.0}, ",
                "\"model_free_steps\": {}, \"rules_ns_per_step\": {:.0}, ",
                "\"rules_steps\": {}, \"full_ns_per_step\": {:.0}, ",
                "\"full_steps\": {}, \"speedup\": {:.2}, ",
                "\"rules_obs_ns_per_step\": {:.0}, \"rules_obs_steps\": {}, ",
                "\"obs_overhead_pct\": {:.2}, ",
                "\"conf_ns_per_step\": {:.0}, ",
                "\"conformance_overhead_pct\": {:.2}}}"
            ),
            n,
            free_ns,
            free_n,
            rules_ns,
            rules_n,
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
