//! Brokering-strategy simulation: single vs replicated vs specialized
//! brokers (Figures 14–16), with optional broker failures and redundant
//! advertising (reused by the robustness experiments of Tables 5–6).
//!
//! The model follows §5.2.1:
//!
//! * query agents issue queries with exponentially-distributed
//!   inter-arrival times, each over a uniformly random data domain, to a
//!   uniformly random broker;
//! * a broker answers a query by reasoning for
//!   `complexity × repository-megabytes × 1 s/MB` on its processor (FIFO);
//! * under the **specialized** strategy the queried broker also forwards
//!   the request to every peer broker ("the broker network is fully
//!   connected, the hop-count was set to 1", follow option
//!   "all repositories"); each peer reasons over its own repository and
//!   replies; the origin combines the union and answers the query agent;
//! * the broker's reply is `1 KB × matching agents`; message handling
//!   charges a small CPU cost on the receiving broker — this is the
//!   "extra over-head in broker communication" that lets replication beat
//!   specialization at very high query rates (Fig. 14) while
//!   specialization wins from moderate rates on (Figs. 15–16);
//! * failed brokers lose in-flight work; peers that miss the reply
//!   timeout are skipped, exactly like the InfoSleuth broker dropping a
//!   dead peer.

use crate::engine::{ProcId, SimCore};
use crate::metrics::RunningStats;
use crate::params::SimParams;
use crate::rng::SimRng;

/// The three brokering arrangements of Figure 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// One broker holds every advertisement.
    Single,
    /// Every broker holds identical copies of every advertisement; a query
    /// is answered locally by whichever broker receives it.
    Replicated,
    /// Each advertisement lives on one (or `redundancy`) brokers; brokers
    /// collaborate on every query.
    Specialized,
}

/// Configuration for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct BrokerSimConfig {
    pub resources: usize,
    pub brokers: usize,
    pub strategy: Strategy,
    /// Mean time between queries, system-wide ("QF").
    pub mean_query_interval_s: f64,
    /// Number of brokers each resource advertises to (≥1; the robustness
    /// experiments sweep this).
    pub redundancy: usize,
    /// One data domain per resource (robustness experiments: "each
    /// resource agent had its own unique domain") instead of the default
    /// one domain per four resources.
    pub unique_domains: bool,
    /// Mean time to broker failure (exponential); `None` = perfectly
    /// reliable hardware.
    pub broker_mean_fail_s: Option<f64>,
    /// Mean time to repair (exponential).
    pub broker_mean_repair_s: f64,
    /// Per-message CPU cost on a receiving broker (parse + dispatch +
    /// combine) in seconds.
    pub msg_handling_s: f64,
    pub params: SimParams,
    pub seed: u64,
}

impl BrokerSimConfig {
    pub fn new(resources: usize, brokers: usize, strategy: Strategy) -> Self {
        BrokerSimConfig {
            resources,
            brokers: if strategy == Strategy::Single { 1 } else { brokers },
            strategy,
            mean_query_interval_s: 30.0,
            redundancy: 1,
            unique_domains: false,
            broker_mean_fail_s: None,
            broker_mean_repair_s: 2700.0,
            msg_handling_s: 0.25,
            params: SimParams::default(),
            seed: 1,
        }
    }
}

/// Aggregate outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct BrokerSimResult {
    /// Broker response times ("purely the time between when the query is
    /// issued to the broker and when the reply is received") for replies
    /// that arrived within the simulated window.
    pub response: RunningStats,
    pub issued: u64,
    pub replied: u64,
    /// Replied queries whose result located the unique matching resource
    /// (meaningful with `unique_domains`).
    pub located: u64,
}

impl BrokerSimResult {
    pub fn reply_fraction(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.replied as f64 / self.issued as f64
    }

    pub fn located_fraction(&self) -> f64 {
        if self.replied == 0 {
            return 0.0;
        }
        self.located as f64 / self.replied as f64
    }
}

#[derive(Debug, Clone)]
enum Ev {
    Arrival,
    Fail(usize),
    Repair(usize),
    /// Query delivered at its origin broker.
    BrokerRecv(usize),
    /// Origin finished local reasoning.
    LocalDone(usize),
    /// Reply delivered at the query agent.
    AgentRecv(usize),
    /// Forwarded request delivered at a tree node.
    TreeRecv {
        qid: usize,
        node: usize,
    },
    /// Node finished its local reasoning.
    TreeDone {
        qid: usize,
        node: usize,
    },
    /// A child's aggregated reply delivered at its parent.
    TreeReply {
        qid: usize,
        parent: usize,
        child: usize,
        matches: usize,
    },
    /// Parent processed a child reply.
    TreeHandled {
        qid: usize,
        parent: usize,
        child: usize,
        matches: usize,
    },
    /// Parent gave up waiting on a child subtree.
    TreeTimeout {
        qid: usize,
        parent: usize,
        child: usize,
    },
}

struct Query {
    issued_at: f64,
    domain: usize,
    origin: usize,
    complexity: f64,
    matches: usize,
    /// Whether the unique matching resource has been located.
    located: bool,
    replied: bool,
}

/// Per-(query, tree-node) aggregation state.
#[derive(Clone, Default)]
struct TreeNodeState {
    reasoning_done: bool,
    pending_children: usize,
    resolved: Vec<usize>,
    matches: usize,
    replied: bool,
}

struct Sim {
    cfg: BrokerSimConfig,
    rng: SimRng,
    core: SimCore<Ev>,
    procs: Vec<ProcId>,
    /// Per broker: advert count per domain.
    adverts: Vec<Vec<u32>>,
    /// Per broker: repository size in MB.
    repo_mb: Vec<f64>,
    domains: usize,
    queries: Vec<Query>,
    tree: std::collections::HashMap<(usize, usize), TreeNodeState>,
    result: BrokerSimResult,
}

/// Runs one seeded simulation.
pub fn run_broker_sim(cfg: BrokerSimConfig) -> BrokerSimResult {
    let mut rng = SimRng::seeded(cfg.seed);
    let mut core = SimCore::new(cfg.params.link());
    let procs: Vec<ProcId> = (0..cfg.brokers).map(|_| core.add_processor(1.0)).collect();

    let domains = if cfg.unique_domains { cfg.resources } else { (cfg.resources / 4).max(1) };
    let mut adverts = vec![vec![0u32; domains]; cfg.brokers];
    for r in 0..cfg.resources {
        let domain = r % domains;
        let holders: Vec<usize> = match cfg.strategy {
            Strategy::Single => vec![0],
            Strategy::Replicated => (0..cfg.brokers).collect(),
            Strategy::Specialized => {
                // `redundancy` distinct brokers, uniformly at random ("the
                // broker was chosen uniformly randomly from among all the
                // brokers in the system at start-up").
                let k = cfg.redundancy.clamp(1, cfg.brokers);
                let mut pool: Vec<usize> = (0..cfg.brokers).collect();
                let mut picked = Vec::with_capacity(k);
                for _ in 0..k {
                    let i = rng.index(pool.len());
                    picked.push(pool.swap_remove(i));
                }
                picked
            }
        };
        for &b in &holders {
            adverts[b][domain] += 1;
        }
    }
    let repo_mb: Vec<f64> = adverts
        .iter()
        .map(|per_domain| per_domain.iter().map(|&c| c as f64).sum::<f64>() * cfg.params.advert_mb)
        .collect();

    let mut sim = Sim {
        cfg,
        rng,
        core,
        procs,
        adverts,
        repo_mb,
        domains,
        queries: Vec::new(),
        tree: std::collections::HashMap::new(),
        result: BrokerSimResult::default(),
    };

    // Prime arrivals and failures.
    let first = sim.rng.exponential(sim.cfg.mean_query_interval_s);
    sim.core.at(first, Ev::Arrival);
    if let Some(mean_fail) = sim.cfg.broker_mean_fail_s {
        for b in 0..sim.cfg.brokers {
            let t = sim.rng.exponential(mean_fail);
            sim.core.at(t, Ev::Fail(b));
        }
    }

    while let Some((_, ev)) = sim.core.next_event() {
        sim.handle(ev);
    }
    sim.result
}

impl Sim {
    /// Peer brokers of an origin, in stable index order (the linearized
    /// spanning tree is built over this list).
    fn peers_of(&self, origin: usize) -> Vec<usize> {
        (0..self.cfg.brokers).filter(|&b| b != origin).collect()
    }

    /// The origin contacts every peer directly and handles every reply:
    /// the star is the tree of degree `brokers - 1`.
    fn tree_degree(&self) -> usize {
        self.cfg.brokers.saturating_sub(1).max(1)
    }

    /// Children of `node` in the d-ary spanning tree rooted at `origin`
    /// (heap layout over `[origin] ++ peers`).
    fn tree_children(&self, origin: usize, node: usize) -> Vec<usize> {
        let peers = self.peers_of(origin);
        let d = self.tree_degree();
        let ext = if node == origin {
            0
        } else {
            match peers.iter().position(|&p| p == node) {
                Some(i) => i + 1,
                None => return Vec::new(),
            }
        };
        (d * ext + 1..=d * ext + d).filter(|&j| j <= peers.len()).map(|j| peers[j - 1]).collect()
    }

    /// Height of the subtree rooted at `node` (1 for a leaf) — per-child
    /// timeouts scale with it, since a reply must climb the whole subtree.
    fn subtree_height(&self, origin: usize, node: usize) -> usize {
        1 + self
            .tree_children(origin, node)
            .into_iter()
            .map(|c| self.subtree_height(origin, c))
            .max()
            .unwrap_or(0)
    }

    /// Parent of `node` in the same tree (`None` for the origin).
    fn tree_parent(&self, origin: usize, node: usize) -> Option<usize> {
        if node == origin {
            return None;
        }
        let peers = self.peers_of(origin);
        let ext = peers.iter().position(|&p| p == node)? + 1;
        let parent_ext = (ext - 1) / self.tree_degree();
        Some(if parent_ext == 0 { origin } else { peers[parent_ext - 1] })
    }

    /// Opens a tree node: forwards the request down its subtree and arms
    /// per-child timeouts.
    fn open_tree_node(&mut self, qid: usize, node: usize, reasoning_done: bool, matches: usize) {
        let origin = self.queries[qid].origin;
        let children = self.tree_children(origin, node);
        let state = TreeNodeState {
            reasoning_done,
            pending_children: children.len(),
            resolved: Vec::new(),
            matches,
            replied: false,
        };
        self.tree.insert((qid, node), state);
        for child in children {
            self.core.send(self.cfg.params.query_kb, false, Ev::TreeRecv { qid, node: child });
            let budget = self.cfg.params.timeout_s * self.subtree_height(origin, child) as f64;
            self.core.at(budget, Ev::TreeTimeout { qid, parent: node, child });
        }
        self.try_resolve_tree_node(qid, node);
    }

    /// Replies up the tree (or to the query agent, at the origin) once the
    /// node's own reasoning and every child subtree have resolved.
    fn try_resolve_tree_node(&mut self, qid: usize, node: usize) {
        let origin = self.queries[qid].origin;
        let Some(state) = self.tree.get_mut(&(qid, node)) else {
            return;
        };
        if state.replied || !state.reasoning_done || state.pending_children > 0 {
            return;
        }
        state.replied = true;
        let matches = state.matches;
        match self.tree_parent(origin, node) {
            None => {
                // Origin resolved: answer the query agent.
                self.queries[qid].matches = matches;
                if matches > 0 {
                    self.queries[qid].located = true;
                }
                self.reply_to_agent(qid);
            }
            Some(parent) => {
                let size = (matches as f64) * self.cfg.params.broker_result_kb_per_match;
                self.core.send(
                    size.max(0.1),
                    false,
                    Ev::TreeReply { qid, parent, child: node, matches },
                );
            }
        }
    }

    /// Reasoning cost for `broker` to answer query `qid`.
    fn reasoning_work(&self, broker: usize, qid: usize) -> f64 {
        self.cfg.msg_handling_s
            + self.queries[qid].complexity
                * self.repo_mb[broker]
                * self.cfg.params.broker_reason_s_per_mb
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival => self.on_arrival(),
            Ev::Fail(b) => {
                self.core.set_up(self.procs[b], false);
                // The failure/repair process stops regenerating once the
                // measurement window closes, so the run can drain.
                if self.core.now() <= self.cfg.params.sim_duration_s {
                    let t = self.rng.exponential(self.cfg.broker_mean_repair_s);
                    self.core.at(t, Ev::Repair(b));
                }
            }
            Ev::Repair(b) => {
                self.core.set_up(self.procs[b], true);
                if let Some(mean_fail) = self.cfg.broker_mean_fail_s {
                    if self.core.now() <= self.cfg.params.sim_duration_s {
                        let t = self.rng.exponential(mean_fail);
                        self.core.at(t, Ev::Fail(b));
                    }
                }
            }
            Ev::BrokerRecv(qid) => {
                let origin = self.queries[qid].origin;
                if !self.core.is_up(self.procs[origin]) {
                    return; // lost with the dead broker; no reply
                }
                let work = self.reasoning_work(origin, qid);
                self.core.exec(self.procs[origin], work, Ev::LocalDone(qid));
            }
            Ev::LocalDone(qid) => self.on_local_done(qid),
            Ev::TreeRecv { qid, node } => {
                if !self.core.is_up(self.procs[node]) {
                    return; // parent's timeout covers the lost subtree
                }
                self.open_tree_node(qid, node, false, 0);
                let work = self.reasoning_work(node, qid);
                self.core.exec(self.procs[node], work, Ev::TreeDone { qid, node });
            }
            Ev::TreeDone { qid, node } => {
                if !self.core.is_up(self.procs[node]) {
                    return;
                }
                let local = self.adverts[node][self.queries[qid].domain] as usize;
                if let Some(state) = self.tree.get_mut(&(qid, node)) {
                    state.reasoning_done = true;
                    state.matches += local;
                }
                self.try_resolve_tree_node(qid, node);
            }
            Ev::TreeReply { qid, parent, child, matches } => {
                if !self.core.is_up(self.procs[parent]) {
                    return;
                }
                // Handling an aggregated child reply costs parent CPU.
                self.core.exec(
                    self.procs[parent],
                    self.cfg.msg_handling_s,
                    Ev::TreeHandled { qid, parent, child, matches },
                );
            }
            Ev::TreeHandled { qid, parent, child, matches } => {
                if !self.core.is_up(self.procs[parent]) {
                    return;
                }
                if let Some(state) = self.tree.get_mut(&(qid, parent)) {
                    if !state.replied && !state.resolved.contains(&child) {
                        state.resolved.push(child);
                        state.pending_children -= 1;
                        state.matches += matches;
                    }
                }
                self.try_resolve_tree_node(qid, parent);
            }
            Ev::TreeTimeout { qid, parent, child } => {
                if !self.core.is_up(self.procs[parent]) {
                    return;
                }
                if let Some(state) = self.tree.get_mut(&(qid, parent)) {
                    if !state.replied && !state.resolved.contains(&child) {
                        state.resolved.push(child);
                        state.pending_children -= 1;
                    }
                }
                self.try_resolve_tree_node(qid, parent);
            }
            Ev::AgentRecv(qid) => {
                let q = &self.queries[qid];
                self.result.replied += 1;
                if q.located {
                    self.result.located += 1;
                }
                let rt = self.core.now() - q.issued_at;
                if self.core.now() <= self.cfg.params.sim_duration_s {
                    self.result.response.record(rt);
                }
            }
        }
    }

    fn on_arrival(&mut self) {
        if self.core.now() > self.cfg.params.sim_duration_s {
            return; // no further arrivals; drain what is in flight
        }
        let next = self.rng.exponential(self.cfg.mean_query_interval_s);
        self.core.at(next, Ev::Arrival);

        let domain = self.rng.index(self.domains);
        let origin = self.rng.index(self.cfg.brokers);
        let complexity = self.rng.bounded_gaussian(
            self.cfg.params.complexity_mean,
            self.cfg.params.complexity_var,
            1e-6,
            self.cfg.params.complexity_mean * 10.0,
        );
        let qid = self.queries.len();
        self.queries.push(Query {
            issued_at: self.core.now(),
            domain,
            origin,
            complexity,
            matches: 0,
            located: false,
            replied: false,
        });
        self.result.issued += 1;
        self.core.send(self.cfg.params.query_kb, false, Ev::BrokerRecv(qid));
    }

    fn on_local_done(&mut self, qid: usize) {
        let origin = self.queries[qid].origin;
        if !self.core.is_up(self.procs[origin]) {
            return;
        }
        let domain = self.queries[qid].domain;
        let local_matches = self.adverts[origin][domain] as usize;
        self.queries[qid].matches += local_matches;
        if local_matches > 0 {
            self.queries[qid].located = true;
        }
        let expand = self.cfg.strategy == Strategy::Specialized && self.cfg.brokers > 1;
        if !expand {
            self.reply_to_agent(qid);
        } else {
            // Fan out down the spanning tree; replies aggregate back up it.
            let local = self.queries[qid].matches;
            self.open_tree_node(qid, origin, true, local);
        }
    }

    fn reply_to_agent(&mut self, qid: usize) {
        if self.queries[qid].replied {
            return;
        }
        self.queries[qid].replied = true;
        let size = (self.queries[qid].matches as f64) * self.cfg.params.broker_result_kb_per_match;
        self.core.send(size.max(0.1), false, Ev::AgentRecv(qid));
    }
}

/// Runs a configuration across `params.runs` seeds and merges the results.
pub fn run_averaged(base: BrokerSimConfig) -> BrokerSimResult {
    let mut total = BrokerSimResult::default();
    for run in 0..base.params.runs {
        let cfg = BrokerSimConfig { seed: base.seed + 1000 * run as u64, ..base.clone() };
        let r = run_broker_sim(cfg);
        total.response.merge(&r.response);
        total.issued += r.issued;
        total.replied += r.replied;
        total.located += r.located;
    }
    total
}

/// One row of Figure 14: mean broker response time for the three
/// strategies at a given mean query interval. The figure's configuration:
/// 32 resource agents and 8 brokers (counts OCR-lost; see DESIGN.md §2).
pub fn figure14_point(mean_interval_s: f64, params: SimParams, seed: u64) -> [f64; 3] {
    let mk = |strategy| {
        let mut cfg = BrokerSimConfig::new(32, 8, strategy);
        cfg.mean_query_interval_s = mean_interval_s;
        cfg.params = params;
        cfg.seed = seed;
        run_averaged(cfg).response.mean()
    };
    [mk(Strategy::Single), mk(Strategy::Replicated), mk(Strategy::Specialized)]
}

/// One row of Figure 16's configuration: 4 brokers, 32 resources
/// ("a higher resource-to-broker ratio").
pub fn figure16_point(mean_interval_s: f64, params: SimParams, seed: u64) -> [f64; 2] {
    let mk = |strategy| {
        let mut cfg = BrokerSimConfig::new(32, 4, strategy);
        cfg.mean_query_interval_s = mean_interval_s;
        cfg.params = params;
        cfg.seed = seed;
        run_averaged(cfg).response.mean()
    };
    [mk(Strategy::Replicated), mk(Strategy::Specialized)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(strategy: Strategy, interval: f64) -> BrokerSimConfig {
        let mut cfg = BrokerSimConfig::new(32, 8, strategy);
        cfg.mean_query_interval_s = interval;
        cfg.params = SimParams::quick();
        cfg
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run_broker_sim(quick(Strategy::Specialized, 30.0));
        let b = run_broker_sim(quick(Strategy::Specialized, 30.0));
        assert_eq!(a.issued, b.issued);
        assert_eq!(a.replied, b.replied);
        assert_eq!(a.response.mean(), b.response.mean());
        let mut other = quick(Strategy::Specialized, 30.0);
        other.seed = 99;
        let c = run_broker_sim(other);
        assert_ne!(a.response.mean(), c.response.mean());
    }

    #[test]
    fn reliable_brokers_answer_everything() {
        let r = run_broker_sim(quick(Strategy::Specialized, 30.0));
        assert!(r.issued > 50, "issued only {}", r.issued);
        assert_eq!(r.issued, r.replied);
        assert!((r.reply_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_broker_floor_is_repository_scan_time() {
        // "Because there are [32] resource agent advertisements in the
        // single broker's repository, it will take a minimum of [32]
        // seconds to respond to a query."
        let r = run_broker_sim(quick(Strategy::Single, 120.0));
        // Complexity ~ Gaussian(1.0, 0.1) can dip below 1 (sd ~ 0.32, and
        // the truncation floor is 0), so the observed minimum sits well
        // below the 32 s nominal scan time; the mean must not. Keep the
        // min bound loose enough to survive a ~3-sigma dip on any seed.
        assert!(r.response.min() >= 2.0, "min {}", r.response.min());
        assert!(r.response.mean() >= 25.0, "mean {}", r.response.mean());
    }

    #[test]
    fn single_broker_saturates_at_high_query_rates() {
        // Query interval below the 32 s scan time: the broker saturates and
        // response times explode relative to the underloaded case.
        let fast = run_broker_sim(quick(Strategy::Single, 10.0));
        let slow = run_broker_sim(quick(Strategy::Single, 120.0));
        assert!(
            fast.response.mean() > 5.0 * slow.response.mean(),
            "saturated {} vs idle {}",
            fast.response.mean(),
            slow.response.mean()
        );
    }

    #[test]
    fn specialization_beats_replication_at_moderate_rates() {
        let spec = run_broker_sim(quick(Strategy::Specialized, 20.0));
        let repl = run_broker_sim(quick(Strategy::Replicated, 20.0));
        assert!(
            spec.response.mean() < repl.response.mean(),
            "specialized {} vs replicated {}",
            spec.response.mean(),
            repl.response.mean()
        );
    }

    #[test]
    fn failures_reduce_reply_rate() {
        let mut cfg = quick(Strategy::Specialized, 30.0);
        cfg.unique_domains = true;
        cfg.redundancy = 1;
        cfg.broker_mean_fail_s = Some(900.0);
        cfg.broker_mean_repair_s = 2700.0;
        let r = run_broker_sim(cfg);
        assert!(r.issued > 50);
        assert!(
            r.reply_fraction() < 0.8,
            "reply fraction {} should drop under heavy failures",
            r.reply_fraction()
        );
    }

    #[test]
    fn full_redundancy_locates_every_answered_query() {
        // "The last column shows that with complete redundancy, you can
        // always find the agent if you get a reply at all."
        let mut cfg = quick(Strategy::Specialized, 30.0);
        cfg.unique_domains = true;
        cfg.redundancy = 8; // every broker
        cfg.broker_mean_fail_s = Some(1800.0);
        let r = run_broker_sim(cfg);
        assert!(r.replied > 0);
        assert!((r.located_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn redundancy_improves_located_fraction() {
        let run_k = |k: usize| {
            let mut cfg = quick(Strategy::Specialized, 30.0);
            cfg.unique_domains = true;
            cfg.redundancy = k;
            cfg.broker_mean_fail_s = Some(1800.0);
            cfg.params.runs = 3;
            run_averaged(cfg).located_fraction()
        };
        let k1 = run_k(1);
        let k5 = run_k(5);
        assert!(k5 > k1, "redundancy 5 ({k5}) should beat redundancy 1 ({k1})");
    }

    #[test]
    fn reliable_unique_domains_always_locate() {
        let mut cfg = quick(Strategy::Specialized, 30.0);
        cfg.unique_domains = true;
        let r = run_broker_sim(cfg);
        assert!((r.located_fraction() - 1.0).abs() < 1e-9);
    }
}
