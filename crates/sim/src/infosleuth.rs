//! The InfoSleuth-system experiments of §5.1 (Tables 1–4), re-run in
//! virtual time.
//!
//! The paper measured end-to-end response time — "the total time for the
//! user to get the result displayed on the screen from the time the query
//! is submitted. This includes CPU, disk I/O, communication among agents
//! and graphical display of results" — for six query streams under five
//! configurations, comparing a single-broker deployment (all agents on one
//! Sparc Ultra) against a multibroker deployment (each broker on its own
//! machine). We reproduce the same pipeline on the simulator's processor
//! and network models:
//!
//! ```text
//! user ──lookup──▶ broker ──reply──▶ user ──SQL──▶ MRQ ──lookup──▶ broker(s)
//!                                         MRQ ◀──matching resources───┘
//!                                         MRQ ──SQL──▶ resource agents (parallel)
//!                                         MRQ ◀──results── (join/union/merge)
//! user ◀──display── MRQ
//! ```
//!
//! In the single-broker configuration every agent shares one processor and
//! loopback messaging; in the multibroker configuration each broker and
//! each resource agent has its own processor ("each broker is running on a
//! different Sparc Ultra 1 machine") and messages cross the network.
//! Experiment 6 adds broker specialization: the resources of each stream
//! advertise to a single (stream-affine) broker, and the broker's
//! advertised specialties let the queried broker rule out all but that one
//! peer instead of searching every repository.

use crate::engine::{ProcId, SimCore};
use crate::metrics::RunningStats;
use crate::params::SimParams;
use crate::rng::SimRng;
use std::collections::BTreeMap;

/// The query streams of Table 1 with their resource-agent counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stream {
    /// Single agent: one class at one resource.
    SA,
    /// Double agent: the class's extent is split across two resources.
    DA,
    /// Four agent: split across four resources.
    FourA,
    /// Vertical fragmentation: four slot-fragments rejoined on the key.
    VF,
    /// Class hierarchy: union over four subclasses.
    CH,
    /// Fragmentation and class hierarchy combined.
    FH,
}

impl Stream {
    pub fn label(&self) -> &'static str {
        match self {
            Stream::SA => "SA",
            Stream::DA => "DA",
            Stream::FourA => "4A",
            Stream::VF => "VF",
            Stream::CH => "CH",
            Stream::FH => "FH",
        }
    }

    /// Number of resource agents the stream's query touches (Table 1).
    pub fn resource_count(&self) -> usize {
        match self {
            Stream::SA => 1,
            Stream::DA => 2,
            Stream::FourA | Stream::VF | Stream::CH | Stream::FH => 4,
        }
    }

    /// Per-result combination cost at the MRQ agent, in seconds: merging
    /// is cheap, unions dedup, joins are the most expensive, FH does both.
    pub fn combine_s_per_result(&self) -> f64 {
        match self {
            Stream::SA | Stream::DA | Stream::FourA => 0.10,
            Stream::CH => 0.20,
            Stream::VF => 0.30,
            Stream::FH => 0.35,
        }
    }

    pub const ALL: [Stream; 6] =
        [Stream::SA, Stream::DA, Stream::FourA, Stream::VF, Stream::CH, Stream::FH];
}

/// The streams exercised by each experiment of Table 2 (reconstructed from
/// the populated cells of Table 3: experiment 1 ran 4A only; each later
/// experiment adds streams, with total resource counts 4, 4, 8, 12, 16).
/// Experiment 6 repeats experiment 5 with broker specialization.
pub fn experiment_streams(expt: usize) -> Vec<Stream> {
    match expt {
        1 => vec![Stream::FourA],
        2 => vec![Stream::FourA, Stream::DA, Stream::SA],
        3 => vec![Stream::FourA, Stream::DA, Stream::SA, Stream::VF],
        4 => vec![Stream::FourA, Stream::DA, Stream::SA, Stream::VF, Stream::FH],
        5 | 6 => Stream::ALL.to_vec(),
        other => panic!("no experiment {other}; Table 2 defines experiments 1-6"),
    }
}

/// Total resource agents for an experiment (the `#RAs` column of Table 2).
/// SA/DA/4A share the same four resource agents; VF, FH, and CH each bring
/// four of their own.
pub fn experiment_resource_count(streams: &[Stream]) -> usize {
    let mut n = 0;
    if streams.iter().any(|s| matches!(s, Stream::SA | Stream::DA | Stream::FourA)) {
        n += 4;
    }
    for s in [Stream::VF, Stream::FH, Stream::CH] {
        if streams.contains(&s) {
            n += 4;
        }
    }
    n
}

/// Configuration for one InfoSleuth-system run.
#[derive(Debug, Clone, PartialEq)]
pub struct InfoSleuthConfig {
    pub streams: Vec<Stream>,
    /// `false`: one broker, all agents on one processor. `true`: `brokers`
    /// brokers on their own processors, resources on their own processors.
    pub multibroker: bool,
    pub brokers: usize,
    /// Experiment 6: stream-affine advertisement placement + peer
    /// rule-out via broker advertisements.
    pub specialized: bool,
    /// Mean seconds between queries, per stream.
    pub mean_query_interval_s: f64,
    pub params: SimParams,
    pub seed: u64,
    /// Advertisement size per agent (the real system's advertisements are
    /// far smaller than the simulator's 1 MB stress value).
    pub advert_mb: f64,
    /// Data held by each resource agent, in MB.
    pub resource_data_mb: f64,
    /// Fixed MRQ costs.
    pub mrq_parse_s: f64,
    pub result_handling_s: f64,
    /// Rendering cost at the user agent ("graphical display of results").
    pub display_s: f64,
    /// Per-message CPU cost on brokers.
    pub broker_msg_handling_s: f64,
}

impl InfoSleuthConfig {
    pub fn new(streams: Vec<Stream>, multibroker: bool) -> Self {
        InfoSleuthConfig {
            streams,
            multibroker,
            brokers: if multibroker { 4 } else { 1 },
            specialized: false,
            mean_query_interval_s: 40.0,
            // Real-system per-message cost (TCP connect + KQML parse) is
            // higher than the simulator's conservative wire latency; this
            // is what makes the underloaded multibroker deployment
            // slightly *slower* than the single machine (Table 3 rows 1-3).
            params: SimParams { latency_s: 0.08, ..SimParams::default() },
            seed: 1,
            advert_mb: 0.05,
            resource_data_mb: 0.1,
            mrq_parse_s: 0.1,
            result_handling_s: 0.05,
            display_s: 0.5,
            broker_msg_handling_s: 0.1,
        }
    }
}

#[derive(Debug, Clone)]
enum Ev {
    Arrival {
        stream_idx: usize,
    },
    /// User agent's MRQ-lookup arrives at its broker.
    LookupRecv {
        qid: usize,
    },
    LookupDone {
        qid: usize,
    },
    /// Lookup reply back at the user agent; it forwards the SQL to the MRQ.
    UserGotMrq {
        qid: usize,
    },
    MrqRecv {
        qid: usize,
    },
    MrqParsed {
        qid: usize,
    },
    /// The MRQ's resource-lookup arrives at a broker.
    ResLookupRecv {
        qid: usize,
    },
    ResLookupLocalDone {
        qid: usize,
    },
    PeerRecv {
        qid: usize,
        peer: usize,
    },
    PeerDone {
        qid: usize,
        peer: usize,
    },
    PeerReply {
        qid: usize,
    },
    /// Resource list back at the MRQ; it fans the query out.
    BrokerReplyAtMrq {
        qid: usize,
    },
    ResourceRecv {
        qid: usize,
        slot: usize,
    },
    ResourceDone {
        qid: usize,
        slot: usize,
    },
    ResultAtMrq {
        qid: usize,
    },
    MrqCombined {
        qid: usize,
    },
    UserRecv {
        qid: usize,
    },
    UserDisplayed {
        qid: usize,
    },
}

struct Query {
    stream: Stream,
    issued_at: f64,
    complexity: f64,
    broker: usize,
    pending_peers: usize,
    pending_results: usize,
    result_kb: f64,
}

struct Sim {
    cfg: InfoSleuthConfig,
    rng: SimRng,
    core: SimCore<Ev>,
    /// Processor of each broker (all the same in single mode).
    broker_procs: Vec<ProcId>,
    /// Processor of the user agent, the MRQ agent, and each resource.
    user_proc: ProcId,
    mrq_proc: ProcId,
    resource_procs: Vec<ProcId>,
    /// Resource slots per stream (indexes into `resource_procs`).
    stream_resources: BTreeMap<Stream, Vec<usize>>,
    /// Repository size per broker, MB.
    repo_mb: Vec<f64>,
    /// Stream → the broker holding its resources (specialized mode).
    affine_broker: BTreeMap<Stream, usize>,
    queries: Vec<Query>,
    per_stream: BTreeMap<Stream, RunningStats>,
}

/// Runs one seeded InfoSleuth-system simulation, returning per-stream
/// end-to-end response-time statistics.
pub fn run_infosleuth(cfg: InfoSleuthConfig) -> BTreeMap<Stream, RunningStats> {
    let rng = SimRng::seeded(cfg.seed);
    let mut core = SimCore::new(cfg.params.link());

    // Processors. Single-broker deployment: one machine for everything.
    let shared = if cfg.multibroker { None } else { Some(core.add_processor(1.0)) };
    let proc = |core: &mut SimCore<Ev>| match shared {
        Some(p) => p,
        None => core.add_processor(1.0),
    };
    let brokers = if cfg.multibroker { cfg.brokers } else { 1 };
    let broker_procs: Vec<ProcId> = (0..brokers).map(|_| proc(&mut core)).collect();
    let user_proc = proc(&mut core);
    let mrq_proc = proc(&mut core);

    // Resource agents per stream (SA/DA/4A share the base four).
    let mut resource_procs = Vec::new();
    let mut stream_resources = BTreeMap::new();
    let mut base4: Option<Vec<usize>> = None;
    for &s in &cfg.streams {
        let slots: Vec<usize> = match s {
            Stream::SA | Stream::DA | Stream::FourA => {
                if base4.is_none() {
                    let created: Vec<usize> = (0..4)
                        .map(|_| {
                            resource_procs.push(proc(&mut core));
                            resource_procs.len() - 1
                        })
                        .collect();
                    base4 = Some(created);
                }
                base4.clone().expect("just created")[..s.resource_count()].to_vec()
            }
            _ => (0..s.resource_count())
                .map(|_| {
                    resource_procs.push(proc(&mut core));
                    resource_procs.len() - 1
                })
                .collect(),
        };
        stream_resources.insert(s, slots);
    }

    // Advertisement placement → per-broker repository sizes. The two core
    // agents (user, MRQ) advertise to every broker.
    let mut adverts_per_broker = vec![2usize; brokers];
    let mut affine_broker = BTreeMap::new();
    let mut rr = 0usize;
    for (i, (&s, slots)) in stream_resources.iter().enumerate() {
        if cfg.specialized {
            let b = i % brokers;
            affine_broker.insert(s, b);
            adverts_per_broker[b] += slots.len();
        } else {
            for _ in slots {
                adverts_per_broker[rr % brokers] += 1;
                rr += 1;
            }
            affine_broker.insert(s, 0);
        }
    }
    let repo_mb: Vec<f64> = adverts_per_broker.iter().map(|&n| n as f64 * cfg.advert_mb).collect();

    let mut sim = Sim {
        cfg,
        rng,
        core,
        broker_procs,
        user_proc,
        mrq_proc,
        resource_procs,
        stream_resources,
        repo_mb,
        affine_broker,
        queries: Vec::new(),
        per_stream: BTreeMap::new(),
    };
    for idx in 0..sim.cfg.streams.len() {
        let first = sim.rng.exponential(sim.cfg.mean_query_interval_s);
        sim.core.at(first, Ev::Arrival { stream_idx: idx });
    }
    while let Some((_, ev)) = sim.core.next_event() {
        sim.handle(ev);
    }
    sim.per_stream
}

impl Sim {
    fn remote(&self) -> bool {
        self.cfg.multibroker
    }

    fn broker_reason(&self, broker: usize, complexity: f64) -> f64 {
        self.cfg.broker_msg_handling_s
            + complexity * self.repo_mb[broker] * self.cfg.params.broker_reason_s_per_mb
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival { stream_idx } => self.on_arrival(stream_idx),
            Ev::LookupRecv { qid } => {
                let q = &self.queries[qid];
                let work = self.broker_reason(q.broker, q.complexity);
                self.core.exec(self.broker_procs[q.broker], work, Ev::LookupDone { qid });
            }
            Ev::LookupDone { qid } => {
                self.core.send(1.0, !self.remote(), Ev::UserGotMrq { qid });
            }
            Ev::UserGotMrq { qid } => {
                // User forwards the SQL to the MRQ agent.
                self.core.send(self.cfg.params.query_kb, !self.remote(), Ev::MrqRecv { qid });
            }
            Ev::MrqRecv { qid } => {
                self.core.exec(self.mrq_proc, self.cfg.mrq_parse_s, Ev::MrqParsed { qid });
            }
            Ev::MrqParsed { qid } => {
                self.core.send(self.cfg.params.query_kb, !self.remote(), Ev::ResLookupRecv { qid });
            }
            Ev::ResLookupRecv { qid } => self.on_resource_lookup(qid),
            Ev::ResLookupLocalDone { qid } => self.on_resource_lookup_local_done(qid),
            Ev::PeerRecv { qid, peer } => {
                let work = self.broker_reason(peer, self.queries[qid].complexity);
                self.core.exec(self.broker_procs[peer], work, Ev::PeerDone { qid, peer });
            }
            Ev::PeerDone { qid, peer } => {
                let _ = peer;
                self.core.send(1.0, !self.remote(), Ev::PeerReply { qid });
            }
            Ev::PeerReply { qid } => {
                self.queries[qid].pending_peers -= 1;
                if self.queries[qid].pending_peers == 0 {
                    self.core.send(1.0, !self.remote(), Ev::BrokerReplyAtMrq { qid });
                }
            }
            Ev::BrokerReplyAtMrq { qid } => self.on_fan_out(qid),
            Ev::ResourceRecv { qid, slot } => {
                let q = &self.queries[qid];
                let work = q.complexity
                    * self.cfg.resource_data_mb
                    * self.cfg.params.resource_query_s_per_mb;
                self.core.exec(self.resource_procs[slot], work, Ev::ResourceDone { qid, slot });
            }
            Ev::ResourceDone { qid, slot } => {
                let coverage = self.rng.bounded_gaussian(
                    self.cfg.params.coverage_mean,
                    self.cfg.params.coverage_var,
                    1e-9,
                    1.0,
                );
                let kb = coverage * self.cfg.resource_data_mb * 1024.0;
                self.queries[qid].result_kb += kb;
                let _ = slot;
                self.core.send(kb, !self.remote(), Ev::ResultAtMrq { qid });
            }
            Ev::ResultAtMrq { qid } => {
                self.queries[qid].pending_results -= 1;
                if self.queries[qid].pending_results == 0 {
                    let q = &self.queries[qid];
                    let n = q.stream.resource_count() as f64;
                    let work = n * (q.stream.combine_s_per_result() + self.cfg.result_handling_s);
                    self.core.exec(self.mrq_proc, work, Ev::MrqCombined { qid });
                }
            }
            Ev::MrqCombined { qid } => {
                let kb = self.queries[qid].result_kb.max(1.0);
                self.core.send(kb, !self.remote(), Ev::UserRecv { qid });
            }
            Ev::UserRecv { qid } => {
                self.core.exec(self.user_proc, self.cfg.display_s, Ev::UserDisplayed { qid });
            }
            Ev::UserDisplayed { qid } => {
                let q = &self.queries[qid];
                let rt = self.core.now() - q.issued_at;
                if self.core.now() <= self.cfg.params.sim_duration_s * 2.0 {
                    self.per_stream.entry(q.stream).or_default().record(rt);
                }
            }
        }
    }

    fn on_arrival(&mut self, stream_idx: usize) {
        if self.core.now() > self.cfg.params.sim_duration_s {
            return;
        }
        let next = self.rng.exponential(self.cfg.mean_query_interval_s);
        self.core.at(next, Ev::Arrival { stream_idx });
        let stream = self.cfg.streams[stream_idx];
        let complexity = self.rng.bounded_gaussian(
            self.cfg.params.complexity_mean,
            self.cfg.params.complexity_var,
            1e-6,
            self.cfg.params.complexity_mean * 10.0,
        );
        let broker = self.rng.index(self.broker_procs.len());
        let qid = self.queries.len();
        self.queries.push(Query {
            stream,
            issued_at: self.core.now(),
            complexity,
            broker,
            pending_peers: 0,
            pending_results: 0,
            result_kb: 0.0,
        });
        self.core.send(self.cfg.params.query_kb, !self.remote(), Ev::LookupRecv { qid });
    }

    /// The MRQ's resource lookup at the queried broker.
    fn on_resource_lookup(&mut self, qid: usize) {
        let q = &self.queries[qid];
        let broker = q.broker;
        if self.cfg.specialized {
            // Broker advertisements let the queried broker rule out every
            // peer except the stream's affine broker: a cheap scan of the
            // (tiny) broker-advertisement table instead of a full search.
            let affine = self.affine_broker[&q.stream];
            if affine == broker {
                let work = self.broker_reason(broker, q.complexity);
                self.core.exec(self.broker_procs[broker], work, Ev::ResLookupLocalDone { qid });
            } else {
                let rule_out = self.cfg.broker_msg_handling_s;
                self.queries[qid].pending_peers = 1;
                self.core.exec(
                    self.broker_procs[broker],
                    rule_out,
                    Ev::PeerRecv { qid, peer: affine },
                );
            }
        } else {
            let work = self.broker_reason(broker, q.complexity);
            self.core.exec(self.broker_procs[broker], work, Ev::ResLookupLocalDone { qid });
        }
    }

    fn on_resource_lookup_local_done(&mut self, qid: usize) {
        let brokers = self.broker_procs.len();
        if !self.cfg.specialized && self.cfg.multibroker && brokers > 1 {
            // Inter-broker search: with random placement the queried broker
            // cannot rule anyone out, so every peer reasons over its own
            // repository ("all repositories", hop count 1).
            let origin = self.queries[qid].broker;
            self.queries[qid].pending_peers = brokers - 1;
            for peer in 0..brokers {
                if peer != origin {
                    self.core.send(
                        self.cfg.params.query_kb,
                        !self.remote(),
                        Ev::PeerRecv { qid, peer },
                    );
                }
            }
        } else {
            self.core.send(1.0, !self.remote(), Ev::BrokerReplyAtMrq { qid });
        }
    }

    /// Fans the SQL out to the stream's resource agents, in parallel.
    fn on_fan_out(&mut self, qid: usize) {
        let stream = self.queries[qid].stream;
        let slots = self.stream_resources[&stream].clone();
        self.queries[qid].pending_results = slots.len();
        for slot in slots {
            self.core.send(
                self.cfg.params.query_kb,
                !self.remote(),
                Ev::ResourceRecv { qid, slot },
            );
        }
    }
}

/// Table 3: the multibroker/single-broker mean-response ratios for one
/// experiment, per stream (averaged over `params.runs` seeds).
pub fn table3_ratios(expt: usize, params: SimParams, seed: u64) -> Vec<(Stream, f64)> {
    assert!((1..=5).contains(&expt), "Table 3 covers experiments 1-5");
    let streams = experiment_streams(expt);
    let mut single: BTreeMap<Stream, RunningStats> = BTreeMap::new();
    let mut multi: BTreeMap<Stream, RunningStats> = BTreeMap::new();
    for run in 0..params.runs {
        let run_seed = seed + 1000 * run as u64;
        let mut cfg = InfoSleuthConfig::new(streams.clone(), false);
        cfg.params = SimParams { latency_s: cfg.params.latency_s, ..params };
        cfg.seed = run_seed;
        for (s, stats) in run_infosleuth(cfg) {
            single.entry(s).or_default().merge(&stats);
        }
        let mut cfg = InfoSleuthConfig::new(streams.clone(), true);
        cfg.params = SimParams { latency_s: cfg.params.latency_s, ..params };
        cfg.seed = run_seed;
        for (s, stats) in run_infosleuth(cfg) {
            multi.entry(s).or_default().merge(&stats);
        }
    }
    streams.iter().map(|s| (*s, multi[s].mean() / single[s].mean())).collect()
}

/// Table 4 (experiment 6): the specialized/unspecialized multibroker
/// mean-response ratios, per stream, on the experiment-5 agent population.
pub fn table4_ratios(params: SimParams, seed: u64) -> Vec<(Stream, f64)> {
    let streams = experiment_streams(5);
    let mut plain: BTreeMap<Stream, RunningStats> = BTreeMap::new();
    let mut spec: BTreeMap<Stream, RunningStats> = BTreeMap::new();
    for run in 0..params.runs {
        let run_seed = seed + 1000 * run as u64;
        let mut cfg = InfoSleuthConfig::new(streams.clone(), true);
        cfg.params = SimParams { latency_s: cfg.params.latency_s, ..params };
        cfg.seed = run_seed;
        for (s, stats) in run_infosleuth(cfg) {
            plain.entry(s).or_default().merge(&stats);
        }
        let mut cfg = InfoSleuthConfig::new(streams.clone(), true);
        cfg.specialized = true;
        cfg.params = SimParams { latency_s: cfg.params.latency_s, ..params };
        cfg.seed = run_seed;
        for (s, stats) in run_infosleuth(cfg) {
            spec.entry(s).or_default().merge(&stats);
        }
    }
    streams.iter().map(|s| (*s, spec[s].mean() / plain[s].mean())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SimParams {
        let mut p = SimParams::quick();
        p.runs = 2;
        p
    }

    #[test]
    fn table2_stream_and_resource_counts() {
        assert_eq!(experiment_streams(1), vec![Stream::FourA]);
        assert_eq!(experiment_streams(5).len(), 6);
        let counts: Vec<usize> =
            (1..=5).map(|e| experiment_resource_count(&experiment_streams(e))).collect();
        assert_eq!(counts, vec![4, 4, 8, 12, 16]);
    }

    #[test]
    #[should_panic(expected = "no experiment")]
    fn unknown_experiment_panics() {
        experiment_streams(7);
    }

    #[test]
    fn single_run_produces_per_stream_stats() {
        let mut cfg = InfoSleuthConfig::new(experiment_streams(2), false);
        cfg.params = quick();
        let stats = run_infosleuth(cfg);
        assert_eq!(stats.len(), 3);
        for (s, st) in &stats {
            assert!(st.count() > 3, "{} too few samples", s.label());
            assert!(st.mean() > 0.0);
        }
    }

    #[test]
    fn underloaded_ratio_is_near_one() {
        // Experiment 1: one light stream; multibroker's extra network hops
        // make it at best marginally slower (Table 3 row 1: 1.00).
        let ratios = table3_ratios(1, quick(), 1);
        let (_, ratio) = ratios[0];
        assert!((0.85..1.4).contains(&ratio), "experiment 1 ratio {ratio} should be near 1.0");
    }

    #[test]
    fn loaded_ratio_favours_multibrokering() {
        // Experiment 5: six streams saturate the single shared machine.
        let ratios = table3_ratios(5, quick(), 1);
        for (s, ratio) in &ratios {
            assert!(
                *ratio < 0.95,
                "experiment 5 stream {} ratio {ratio} should favour multibrokering",
                s.label()
            );
        }
    }

    #[test]
    fn specialization_helps_every_stream() {
        // Table 4: "there is an improvement in response time for all the
        // above type of queries with specialization of brokers."
        let ratios = table4_ratios(quick(), 1);
        for (s, ratio) in &ratios {
            assert!(
                *ratio < 1.0,
                "stream {} specialization ratio {ratio} should be < 1",
                s.label()
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut cfg = InfoSleuthConfig::new(experiment_streams(3), true);
        cfg.params = quick();
        let a = run_infosleuth(cfg.clone());
        let b = run_infosleuth(cfg);
        assert_eq!(a, b);
    }
}
