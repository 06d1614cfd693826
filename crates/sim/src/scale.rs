//! Population-scale harness: one flat event queue over an arena of
//! 10⁵–10⁶ simulated agents.
//!
//! The experiment-grid modules ([`strategies`](crate::strategies),
//! [`scalability`](crate::scalability)) model tens of agents faithfully;
//! this module instead answers the systems question the batched message
//! plane raises — does per-event cost stay flat as the simulated
//! population grows? To make the answer about the *engine* and not the
//! model:
//!
//! * agents live in a flat `Vec` arena and are addressed by `u32` id —
//!   no per-agent boxing, no maps on the dispatch path;
//! * events are a small `Copy` enum, inserted into [`SimCore`]'s flat
//!   timestamp-ordered queue with their network latency already folded
//!   into the timestamp (latency-adjusted insertion), so dispatch is
//!   pop → arena index → push, with zero heap allocation;
//! * load is an *open* arrival process at a configurable global rate,
//!   so event counts are set by rate × duration, independent of
//!   population — any growth in per-event wall-clock cost with
//!   population is the engine's fault, and `BENCH_sim_scale` charts it.
//!
//! The scenario library skews that load the ways real deployments do:
//! Zipf-popular agents (hot-spot queries), flash crowds (a transient
//! arrival-rate spike), and churn bursts (a slice of the population
//! re-advertising at once).

use crate::engine::{LinkModel, ProcId, SimCore};
use crate::metrics::RunningStats;
use crate::rng::SimRng;
use infosleuth_obs::{
    sample_once, HealthEngine, HealthEvent, HealthRule, HealthState, HistogramSnapshot,
    MetricsRegistry, Severity, TimeSeriesStore, Watermark,
};

/// Which load shape the run applies on top of the base arrival rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Queries target agents uniformly at random.
    Uniform,
    /// Queries target agents Zipf-skewed by rank: agent `k` (0-based)
    /// is drawn with weight `1 / (k + 1)^exponent`. Hot agents pile
    /// work onto their broker's processor queue.
    ZipfQueries { exponent: f64 },
    /// A transient arrival-rate spike: between `at_s` and
    /// `at_s + width_s` the base rate is multiplied by `factor`.
    FlashCrowd { at_s: f64, width_s: f64, factor: f64 },
    /// Every `interval_s`, a random `fraction` of the population
    /// re-advertises, costing its broker repository work per agent.
    ChurnBurst { interval_s: f64, fraction: f64 },
}

impl Scenario {
    /// Stable tag used in benchmark output and scenario selection.
    pub fn tag(&self) -> &'static str {
        match self {
            Scenario::Uniform => "uniform",
            Scenario::ZipfQueries { .. } => "zipf",
            Scenario::FlashCrowd { .. } => "flash",
            Scenario::ChurnBurst { .. } => "churn",
        }
    }
}

/// How a query finds the broker shard owning its target agent — the
/// brokers axis of the scale model. [`RoutingMode::Direct`] is the
/// idealized lower bound (clients magically know the owner);
/// [`RoutingMode::Broadcast`] and [`RoutingMode::Digest`] bracket what a
/// real sharded consortium does: enter at a random broker and either fan
/// out to every peer or consult routing digests and forward only to the
/// shards that can match (plus a false-positive tax).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutingMode {
    /// Queries go straight to the owning broker; no inter-broker traffic.
    Direct,
    /// Queries enter at a random broker, which forwards to every peer.
    Broadcast,
    /// Queries enter at a random broker, which forwards to the owning
    /// shard, plus each non-owner independently at `fp_rate` (a digest
    /// false positive: contacted, searched, nothing found).
    Digest { fp_rate: f64 },
}

impl RoutingMode {
    /// Stable tag used in benchmark output.
    pub fn tag(&self) -> &'static str {
        match self {
            RoutingMode::Direct => "direct",
            RoutingMode::Broadcast => "broadcast",
            RoutingMode::Digest { .. } => "digest",
        }
    }
}

/// Configuration for one scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// Simulated resource agents (the arena size).
    pub agents: usize,
    /// Brokers; agent `i` advertises with broker `i % brokers`.
    pub brokers: usize,
    /// Virtual seconds to simulate.
    pub duration_s: f64,
    /// Global query arrivals per virtual second (open workload).
    pub arrivals_per_s: f64,
    pub scenario: Scenario,
    /// How queries reach the owning broker shard.
    pub routing: RoutingMode,
    pub seed: u64,
}

impl ScaleConfig {
    pub fn new(agents: usize, scenario: Scenario, seed: u64) -> ScaleConfig {
        ScaleConfig {
            agents,
            brokers: (agents / 10_000).clamp(1, 64),
            duration_s: 60.0,
            arrivals_per_s: 400.0,
            scenario,
            routing: RoutingMode::Direct,
            seed,
        }
    }
}

/// Event vocabulary — `Copy`, two words, no payload allocation.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The open arrival process fires: pick a target agent, send its
    /// query toward the owning broker.
    Arrival,
    /// A query reached its broker (latency already paid in the
    /// timestamp); queue the match work on the broker's processor.
    QueryAtBroker { agent: u32 },
    /// A query reached its *entry* broker (multi-broker routing modes);
    /// the forward set is decided there.
    RouteAtBroker { agent: u32, entry: u32 },
    /// A forwarded query reached peer `broker`; only the owning shard
    /// (`matching`) can answer — the rest burn match work and drop it.
    ForwardAtBroker { agent: u32, broker: u32, matching: bool },
    /// A non-owning shard finished searching a forwarded query: wasted
    /// work, nothing to send back in this model.
    ForwardMissed,
    /// Broker finished matchmaking; send the reply back.
    Matched { agent: u32 },
    /// The reply reached the querying agent; close the response-time
    /// sample.
    ReplyAtAgent { agent: u32 },
    /// A churn burst fires: a slice of the population re-advertises.
    Churn,
    /// One re-advertisement landed at its broker.
    AdvertiseAtBroker { agent: u32 },
    /// Broker committed the re-advertisement.
    Advertised,
}

/// Per-agent arena slot — fixed size, index-addressed.
#[derive(Debug, Clone, Copy)]
struct AgentSlot {
    /// Virtual time the in-flight query was issued (`-1.0` = none).
    issued_at: f64,
    /// Owning broker (index into the processor table).
    broker: u32,
}

/// The watermark rules the scale harness evaluates once per virtual
/// second, over the same [`HealthEngine`] the live brokers run:
/// broker backlog (the hot-spot signal Zipf skew and flash crowds
/// push), a stalled broker, and flat-queue flooding relative to the
/// configured arrival rate.
pub fn scale_health_rules(arrivals_per_s: f64) -> Vec<HealthRule> {
    vec![
        HealthRule::new(
            "broker-backlog",
            "sim_broker_backlog_ms",
            1,
            Watermark::GaugeAbove(250.0),
            Severity::Warning,
        ),
        HealthRule::new(
            "broker-stall",
            "sim_broker_backlog_ms",
            1,
            Watermark::GaugeAbove(2_000.0),
            Severity::Critical,
        ),
        HealthRule::new(
            "event-flood",
            "sim_pending_events",
            1,
            Watermark::GaugeAbove(arrivals_per_s.max(1.0) * 2.0),
            Severity::Warning,
        ),
    ]
}

/// One tick of the virtual-time health timeline: the rolled-up state
/// and any fire/clear transitions observed at that second.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSample {
    /// Virtual time of the sample (whole-second cadence).
    pub at_s: f64,
    pub state: HealthState,
    pub transitions: Vec<HealthEvent>,
}

/// What one scale run measured. All fields are deterministic functions
/// of the config (including the seed), which the determinism suite pins
/// byte-for-byte via [`ScaleReport::render_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    pub config_agents: usize,
    pub config_brokers: usize,
    pub scenario: &'static str,
    pub seed: u64,
    /// Total events dispatched through the flat queue.
    pub events: u64,
    pub queries_issued: u64,
    pub queries_answered: u64,
    /// Arrivals that hit an agent with a query still in flight (the
    /// open process does not queue a second one behind it).
    pub arrivals_busy: u64,
    pub readvertisements: u64,
    /// Inter-broker forwards (multi-broker routing modes only; 0 under
    /// [`RoutingMode::Direct`]). `forwards / queries_issued` is the
    /// per-query inter-broker message cost the digest layer exists to
    /// flatten.
    pub forwards: u64,
    /// Routing-mode tag of the config that produced this report.
    pub routing: &'static str,
    /// End-to-end response time of answered queries, virtual seconds.
    pub response: RunningStats,
    pub response_pcts: HistogramSnapshot,
    /// Virtual time the run actually covered.
    pub virtual_s: f64,
    /// Wall-clock nanoseconds spent inside the event loop — excludes the
    /// O(population) arena and sampler setup, so `loop_wall_ns / events`
    /// is the engine's per-event dispatch cost. Deliberately absent from
    /// [`ScaleReport::render_json`]: wall time is the one field that is
    /// not a deterministic function of the config.
    pub loop_wall_ns: u64,
    /// Virtual-time health timeline: one sample per virtual second,
    /// evaluated by the production [`HealthEngine`] over simulated
    /// broker backlog and queue pressure.
    pub health: Vec<HealthSample>,
}

impl ScaleReport {
    /// Renders the report as a stable JSON object. Every float is
    /// formatted with fixed precision, so byte-identical output is the
    /// determinism contract for a given config + seed.
    pub fn render_json(&self) -> String {
        format!(
            concat!(
                "{{\"agents\": {}, \"brokers\": {}, \"scenario\": \"{}\", \"seed\": {}, ",
                "\"events\": {}, \"queries_issued\": {}, \"queries_answered\": {}, ",
                "\"arrivals_busy\": {}, \"readvertisements\": {}, ",
                "\"routing\": \"{}\", \"forwards\": {}, ",
                "\"response_mean_s\": {:.9}, \"response_min_s\": {:.9}, ",
                "\"response_max_s\": {:.9}, ",
                "\"response_p50_s\": {:.9}, \"response_p95_s\": {:.9}, ",
                "\"response_p99_s\": {:.9}, \"virtual_s\": {:.3}, ",
                "\"health_samples\": {}, \"degraded_samples\": {}, ",
                "\"health_transitions\": {}, \"worst_state\": \"{}\"}}"
            ),
            self.config_agents,
            self.config_brokers,
            self.scenario,
            self.seed,
            self.events,
            self.queries_issued,
            self.queries_answered,
            self.arrivals_busy,
            self.readvertisements,
            self.routing,
            self.forwards,
            self.response.mean(),
            self.response_pcts.min(),
            self.response_pcts.max(),
            self.response_pcts.p50(),
            self.response_pcts.p95(),
            self.response_pcts.p99(),
            self.virtual_s,
            self.health.len(),
            self.degraded_samples(),
            self.health_transitions(),
            self.worst_state().as_str(),
        )
    }

    /// Timeline samples whose rolled-up state was not healthy.
    pub fn degraded_samples(&self) -> usize {
        self.health.iter().filter(|s| s.state != HealthState::Healthy).count()
    }

    /// Total fire/clear transitions across the timeline.
    pub fn health_transitions(&self) -> usize {
        self.health.iter().map(|s| s.transitions.len()).sum()
    }

    /// The worst rolled-up state any sample reached.
    pub fn worst_state(&self) -> HealthState {
        self.health
            .iter()
            .map(|s| s.state)
            .max_by_key(|s| s.as_level())
            .unwrap_or(HealthState::Healthy)
    }
}

/// Precomputed Zipf sampler: cumulative weights + binary search. Built
/// once at setup (O(n) memory); sampling is allocation-free.
struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: usize, exponent: f64) -> ZipfSampler {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(exponent);
            cumulative.push(total);
        }
        ZipfSampler { cumulative }
    }

    fn sample(&self, rng: &mut SimRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty population");
        let u = rng.uniform() * total;
        self.cumulative.partition_point(|c| *c < u).min(self.cumulative.len() - 1)
    }
}

/// Runs one scale scenario to completion and reports.
pub fn run(config: &ScaleConfig) -> ScaleReport {
    assert!(config.agents > 0 && config.brokers > 0, "empty population");
    let link = LinkModel { bandwidth_kb_per_s: 1500.0, latency_s: 0.005 };
    // Steady state keeps roughly one event per in-flight query plus the
    // arrival process; the capacity hint avoids heap regrowth mid-run.
    let expected = (config.arrivals_per_s * 0.5).max(64.0) as usize;
    let mut sim: SimCore<Ev> = SimCore::with_capacity(link, expected);
    let mut rng = SimRng::seeded(config.seed);

    let brokers: Vec<ProcId> = (0..config.brokers).map(|_| sim.add_processor(1.0)).collect();
    let mut agents: Vec<AgentSlot> = (0..config.agents)
        .map(|i| AgentSlot { issued_at: -1.0, broker: (i % config.brokers) as u32 })
        .collect();
    let zipf = match config.scenario {
        Scenario::ZipfQueries { exponent } => Some(ZipfSampler::new(config.agents, exponent)),
        _ => None,
    };

    let mut report = ScaleReport {
        config_agents: config.agents,
        config_brokers: config.brokers,
        scenario: config.scenario.tag(),
        seed: config.seed,
        events: 0,
        queries_issued: 0,
        queries_answered: 0,
        arrivals_busy: 0,
        readvertisements: 0,
        forwards: 0,
        routing: config.routing.tag(),
        response: RunningStats::new(),
        response_pcts: HistogramSnapshot::default(),
        virtual_s: 0.0,
        loop_wall_ns: 0,
        health: Vec::with_capacity(config.duration_s as usize + 1),
    };

    // Health sampling: once per virtual second the harness snapshots
    // simulated broker backlog and queue pressure into a real metrics
    // registry and runs the production health engine over it — the same
    // store/engine pair a live broker's sampler drives, so watermark
    // and hysteresis behaviour carries over unchanged.
    let registry = MetricsRegistry::new();
    let backlog_gauge = registry.gauge("sim_broker_backlog_ms", &[]);
    let pending_gauge = registry.gauge("sim_pending_events", &[]);
    let inflight_gauge = registry.gauge("sim_inflight_queries", &[]);
    let health_store = TimeSeriesStore::new((config.duration_s as usize + 8).max(16));
    let mut health_engine = HealthEngine::new(scale_health_rules(config.arrivals_per_s));
    let mut inflight: i64 = 0;
    let mut next_sample_s = 1.0;

    // Matchmaking cost per query: a repository probe over an indexed
    // store — log-ish in population, constant-ish per event.
    let match_work = 2e-4 * (config.agents as f64).log2().max(1.0) / 16.0;
    let advertise_work = 1e-4;
    let query_kb = 1.0;
    let reply_kb = 2.0;

    sim.at(rng.exponential(1.0 / config.arrivals_per_s), Ev::Arrival);
    if let Scenario::ChurnBurst { interval_s, .. } = config.scenario {
        sim.at(interval_s, Ev::Churn);
    }

    let loop_started = std::time::Instant::now();
    while let Some((now, ev)) = sim.next_event() {
        if now > config.duration_s {
            break;
        }
        while next_sample_s <= now {
            let backlog = brokers.iter().map(|&b| sim.backlog_s(b)).fold(0.0, f64::max);
            backlog_gauge.set((backlog * 1_000.0) as i64);
            pending_gauge.set(sim.pending_events() as i64);
            inflight_gauge.set(inflight);
            let (_, transitions, state) = sample_once(
                &registry,
                &health_store,
                &mut health_engine,
                (next_sample_s * 1_000.0) as u64,
            );
            report.health.push(HealthSample { at_s: next_sample_s, state, transitions });
            next_sample_s += 1.0;
        }
        report.events += 1;
        match ev {
            Ev::Arrival => {
                // Schedule the next arrival first: the process is open
                // and independent of what this arrival finds.
                let mut rate = config.arrivals_per_s;
                if let Scenario::FlashCrowd { at_s, width_s, factor } = config.scenario {
                    if now >= at_s && now < at_s + width_s {
                        rate *= factor;
                    }
                }
                sim.at(rng.exponential(1.0 / rate), Ev::Arrival);
                let agent = match &zipf {
                    Some(z) => z.sample(&mut rng),
                    None => rng.index(config.agents),
                } as u32;
                let slot = &mut agents[agent as usize];
                if slot.issued_at >= 0.0 {
                    report.arrivals_busy += 1;
                    continue;
                }
                slot.issued_at = now;
                report.queries_issued += 1;
                inflight += 1;
                match config.routing {
                    RoutingMode::Direct => sim.send(query_kb, false, Ev::QueryAtBroker { agent }),
                    // Multi-broker entry: clients don't know shard
                    // layouts, so the query lands on a random broker.
                    RoutingMode::Broadcast | RoutingMode::Digest { .. } => {
                        let entry = rng.index(config.brokers) as u32;
                        sim.send(query_kb, false, Ev::RouteAtBroker { agent, entry });
                    }
                }
            }
            Ev::QueryAtBroker { agent } => {
                let broker = brokers[agents[agent as usize].broker as usize];
                sim.exec(broker, match_work, Ev::Matched { agent });
            }
            Ev::RouteAtBroker { agent, entry } => {
                let owner = agents[agent as usize].broker;
                if entry == owner {
                    // The entry broker's own shard holds the agent; no
                    // inter-broker traffic at all.
                    sim.exec(brokers[entry as usize], match_work, Ev::Matched { agent });
                    continue;
                }
                for broker in 0..config.brokers as u32 {
                    if broker == entry {
                        continue;
                    }
                    let matching = broker == owner;
                    let forward = match config.routing {
                        RoutingMode::Broadcast => true,
                        RoutingMode::Digest { fp_rate } => matching || rng.uniform() < fp_rate,
                        // Direct never emits RouteAtBroker.
                        RoutingMode::Direct => false,
                    };
                    if forward {
                        report.forwards += 1;
                        sim.send(query_kb, false, Ev::ForwardAtBroker { agent, broker, matching });
                    }
                }
            }
            Ev::ForwardAtBroker { agent, broker, matching } => {
                let done = if matching { Ev::Matched { agent } } else { Ev::ForwardMissed };
                sim.exec(brokers[broker as usize], match_work, done);
            }
            Ev::ForwardMissed => {}
            Ev::Matched { agent } => {
                sim.send(reply_kb, false, Ev::ReplyAtAgent { agent });
            }
            Ev::ReplyAtAgent { agent } => {
                let slot = &mut agents[agent as usize];
                if slot.issued_at >= 0.0 {
                    let rt = now - slot.issued_at;
                    report.response.record(rt);
                    report.response_pcts.record(rt);
                    report.queries_answered += 1;
                    inflight -= 1;
                    slot.issued_at = -1.0;
                }
            }
            Ev::Churn => {
                if let Scenario::ChurnBurst { interval_s, fraction } = config.scenario {
                    // A contiguous random slice re-advertises — cheap to
                    // draw, deterministic, and as bursty as intended.
                    let burst = ((config.agents as f64 * fraction) as usize).max(1);
                    let start = rng.index(config.agents);
                    for i in 0..burst {
                        let agent = ((start + i) % config.agents) as u32;
                        sim.send(0.5, false, Ev::AdvertiseAtBroker { agent });
                    }
                    sim.at(interval_s, Ev::Churn);
                }
            }
            Ev::AdvertiseAtBroker { agent } => {
                let broker = brokers[agents[agent as usize].broker as usize];
                sim.exec(broker, advertise_work, Ev::Advertised);
            }
            Ev::Advertised => {
                report.readvertisements += 1;
            }
        }
        report.virtual_s = now;
    }
    report.loop_wall_ns = loop_started.elapsed().as_nanos() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scenario: Scenario, seed: u64) -> ScaleConfig {
        let mut c = ScaleConfig::new(2_000, scenario, seed);
        c.duration_s = 20.0;
        c.arrivals_per_s = 200.0;
        c
    }

    #[test]
    fn uniform_run_answers_most_queries() {
        let r = run(&quick(Scenario::Uniform, 11));
        assert!(r.queries_issued > 1_000, "issued {}", r.queries_issued);
        assert!(
            r.queries_answered as f64 >= r.queries_issued as f64 * 0.95,
            "answered {} of {}",
            r.queries_answered,
            r.queries_issued
        );
        assert!(r.response.mean() > 0.0 && r.response.mean() < 1.0);
    }

    #[test]
    fn zipf_concentrates_busy_collisions() {
        let uni = run(&quick(Scenario::Uniform, 11));
        let zipf = run(&quick(Scenario::ZipfQueries { exponent: 1.2 }, 11));
        // Skewed targeting re-hits in-flight agents far more often.
        assert!(
            zipf.arrivals_busy > uni.arrivals_busy * 5,
            "zipf busy {} vs uniform busy {}",
            zipf.arrivals_busy,
            uni.arrivals_busy
        );
    }

    #[test]
    fn flash_crowd_spikes_arrivals() {
        let base = run(&quick(Scenario::Uniform, 13));
        let flash = run(&quick(Scenario::FlashCrowd { at_s: 5.0, width_s: 5.0, factor: 8.0 }, 13));
        assert!(
            flash.queries_issued + flash.arrivals_busy
                > (base.queries_issued + base.arrivals_busy) * 2,
            "flash {} vs base {}",
            flash.queries_issued + flash.arrivals_busy,
            base.queries_issued + base.arrivals_busy
        );
    }

    #[test]
    fn churn_bursts_readvertise() {
        let r = run(&quick(Scenario::ChurnBurst { interval_s: 2.0, fraction: 0.05 }, 17));
        assert!(r.readvertisements > 500, "readvertised {}", r.readvertisements);
        assert!(r.queries_answered > 0);
    }

    #[test]
    fn health_timeline_fires_under_overload_and_recovers() {
        // Uniform load at these parameters is far under capacity: the
        // timeline samples every virtual second and stays healthy.
        let calm = run(&quick(Scenario::Uniform, 31));
        assert!(calm.health.len() >= 15, "samples: {}", calm.health.len());
        assert_eq!(calm.health_transitions(), 0, "{:?}", calm.health);
        assert_eq!(calm.worst_state(), HealthState::Healthy);

        // An 80x flash crowd over a large idle population floods the
        // single broker past its service rate: backlog builds past the
        // 250 ms watermark, the engine fires (with its production 2/2
        // hysteresis), and after the crowd passes the backlog drains
        // and the rule clears.
        let mut cfg = quick(Scenario::FlashCrowd { at_s: 4.0, width_s: 5.0, factor: 80.0 }, 31);
        cfg.agents = 20_000;
        cfg.brokers = 1;
        let stormy = run(&cfg);
        assert!(stormy.degraded_samples() > 0, "never degraded: {:?}", stormy.health);
        let fired: Vec<&HealthEvent> = stormy
            .health
            .iter()
            .flat_map(|s| &s.transitions)
            .filter(|e| e.rule == "broker-backlog")
            .collect();
        assert!(fired.iter().any(|e| e.firing), "backlog never fired: {fired:?}");
        assert!(fired.iter().any(|e| !e.firing), "backlog never cleared: {fired:?}");
        // The run ends recovered, and the summary feeds render_json.
        assert_eq!(stormy.health.last().map(|s| s.state), Some(HealthState::Healthy));
        assert_ne!(stormy.worst_state(), HealthState::Healthy);
        let rendered = stormy.render_json();
        assert!(
            rendered.contains(&format!("\"worst_state\": \"{}\"", stormy.worst_state().as_str())),
            "{rendered}"
        );
    }

    #[test]
    fn digest_routing_prunes_forwards_versus_broadcast() {
        let mut broadcast = quick(Scenario::Uniform, 41);
        broadcast.brokers = 16;
        broadcast.routing = RoutingMode::Broadcast;
        let mut digest = broadcast.clone();
        digest.routing = RoutingMode::Digest { fp_rate: 0.02 };
        let b = run(&broadcast);
        let d = run(&digest);
        // Same recall: both modes answer (almost) everything they issue.
        for r in [&b, &d] {
            assert!(
                r.queries_answered as f64 >= r.queries_issued as f64 * 0.95,
                "{} answered {} of {}",
                r.routing,
                r.queries_answered,
                r.queries_issued
            );
        }
        // Broadcast pays ~(B-1) forwards per query; digests pay ~1.
        let per_query = |r: &ScaleReport| r.forwards as f64 / r.queries_issued.max(1) as f64;
        assert!(per_query(&b) > 10.0, "broadcast fan-out too low: {}", per_query(&b));
        assert!(per_query(&d) < 2.5, "digest fan-out too high: {}", per_query(&d));
        assert!(
            b.forwards > d.forwards * 4,
            "digest must prune ≥4x: broadcast {} vs digest {}",
            b.forwards,
            d.forwards
        );
    }

    #[test]
    fn direct_routing_has_no_forwards() {
        let mut cfg = quick(Scenario::Uniform, 43);
        cfg.brokers = 8;
        let r = run(&cfg);
        assert_eq!(r.forwards, 0);
        assert_eq!(r.routing, "direct");
        assert!(r.render_json().contains("\"routing\": \"direct\", \"forwards\": 0"));
    }

    fn every_scenario() -> [Scenario; 4] {
        [
            Scenario::Uniform,
            Scenario::ZipfQueries { exponent: 1.1 },
            Scenario::FlashCrowd { at_s: 3.0, width_s: 4.0, factor: 6.0 },
            Scenario::ChurnBurst { interval_s: 3.0, fraction: 0.02 },
        ]
    }

    /// A report must not contradict itself: the quantiles lie inside the
    /// exact extremes and in order.
    #[test]
    fn quantiles_are_ordered_inside_min_and_max() {
        for scenario in every_scenario() {
            let r = run(&quick(scenario, 7));
            let row = [
                r.response_pcts.min(),
                r.response_pcts.p50(),
                r.response_pcts.p95(),
                r.response_pcts.p99(),
                r.response_pcts.max(),
            ];
            // The histogram's extremes are the exact ones, to the nanosecond.
            assert!((row[0] - r.response.min()).abs() <= 1e-9, "{row:?}");
            assert!((row[4] - r.response.max()).abs() <= 1e-9, "{row:?}");
            assert!(
                row.windows(2).all(|w| w[0] <= w[1]),
                "min ≤ p50 ≤ p95 ≤ p99 ≤ max broken for {scenario:?}: {row:?}"
            );
        }
    }

    #[test]
    fn same_seed_same_bytes() {
        for scenario in every_scenario() {
            let a = run(&quick(scenario, 99)).render_json();
            let b = run(&quick(scenario, 99)).render_json();
            assert_eq!(a, b, "scale run not deterministic for {scenario:?}");
            let c = run(&quick(scenario, 100)).render_json();
            assert_ne!(a, c, "seed is ignored for {scenario:?}");
        }
    }

    #[test]
    fn population_scales_without_event_blowup() {
        let small = run(&quick(Scenario::Uniform, 21));
        let mut big_cfg = quick(Scenario::Uniform, 21);
        big_cfg.agents = 100_000;
        big_cfg.brokers = ScaleConfig::new(100_000, Scenario::Uniform, 21).brokers;
        let big = run(&big_cfg);
        // Open workload: event volume is set by rate × duration, not by
        // population size.
        let ratio = big.events as f64 / small.events as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "event count should be population-independent: {} vs {}",
            big.events,
            small.events
        );
    }
}
