//! Seeded input generation: ontologies, populations, query mixes,
//! subscriptions and write sequences for the four workloads.
//!
//! Everything the program under test receives comes out of this module,
//! and everything here is a pure function of `(workload, seed)`. The seed
//! moves *which* classes, windows and agents are touched, never *how much*
//! work an operation is: population sizes, matches per answer and candidate
//! counts are fixed per workload so runs at different seeds are comparable.

use infosleuth_broker::{FollowOption, SearchPolicy};
use infosleuth_constraint::{Conjunction, Predicate};
use infosleuth_ontology::{
    Advertisement, AgentLocation, AgentType, Capability, ClassDef, ConversationType, Ontology,
    OntologyContent, SemanticInfo, ServiceQuery, SlotDef, SyntacticInfo, ValueType,
};

pub const ONTOLOGY: &str = "bench";
/// The one constrained slot, declared on the root class and inherited by
/// every class below it, so advertised and requested windows always meet
/// on the same dimension.
pub const SLOT: &str = "R.a";

pub const HIT: &str = "hit_open_bus";
pub const MISS: &str = "miss_closed_bus";
pub const CHURN: &str = "churn_mixed_bus";
pub const FORWARD: &str = "forward_closed_tcp";
pub const WORKLOADS: [&str; 4] = [HIT, MISS, CHURN, FORWARD];

/// Population of `miss_closed_bus`, frozen after the traced run confirmed
/// the matchmaker's share of `ask_p50_us` (see README, "Tuning").
pub const MISS_POPULATION: usize = 2000;
/// Advertised / requested window widths on `miss_closed_bus` over a domain
/// of `DOMAIN` values: 1 000 candidates × (12 000 + 4 000) / 10⁶ ≈ 16 matches.
const DOMAIN: i64 = 1_000_000;
const MISS_AD_WIDTH: i64 = 12_000;
const MISS_QUERY_WIDTH: i64 = 4_000;
/// Coprime with `DOMAIN - MISS_QUERY_WIDTH`, so successive query windows
/// never repeat within a run.
const MISS_STRIDE: u64 = 7_919;

/// One query in 32 on `forward_closed_tcp` probes the gap between the two
/// advertised windows: inside every digest hull, matching no advertisement.
pub const FORWARD_MIX: usize = 32;

/// splitmix64: small, seedable, and good enough to scatter windows.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

/// A stream of its own per (seed, purpose), so adding draws to one part of
/// a workload never shifts another part's values.
fn rng_for(seed: u64, purpose: u64) -> Rng {
    let mut r = Rng::new(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f));
    r.next();
    r
}

/// A three-level taxonomy: root `R` (key `id`, slot `a`), `mids` classes
/// `M..` below it, `leaves` classes `L..x..` below each of those.
pub fn taxonomy(mids: usize, leaves: usize) -> Ontology {
    let mut o = Ontology::new(ONTOLOGY);
    o.add_class(ClassDef::new(
        "R",
        vec![SlotDef::key("id", ValueType::Int), SlotDef::new("a", ValueType::Int)],
    ))
    .expect("fresh ontology");
    for m in 0..mids {
        o.add_subclass("R", ClassDef::new(mid(m), Vec::new())).expect("root exists");
        for l in 0..leaves {
            o.add_subclass(&mid(m), ClassDef::new(leaf(m, l), Vec::new())).expect("mid exists");
        }
    }
    o
}

pub fn mid(m: usize) -> String {
    format!("M{m:02}")
}

pub fn leaf(m: usize, l: usize) -> String {
    format!("L{m:02}x{l:02}")
}

fn window(lo: i64, hi: i64) -> Conjunction {
    Conjunction::from_predicates(vec![Predicate::between(SLOT, lo, hi)])
}

pub fn agent_name(j: usize) -> String {
    format!("ra{j:04}")
}

fn resource_ad(j: usize, class: &str, capability: Capability, lo: i64, hi: i64) -> Advertisement {
    let name = agent_name(j);
    Advertisement::new(AgentLocation::new(
        name.clone(),
        format!("tcp://{name}.bench:4000"),
        AgentType::Resource,
    ))
    .with_syntactic(SyntacticInfo::sql_kqml())
    .with_semantic(
        SemanticInfo::default()
            .with_conversations([ConversationType::AskAll])
            .with_capabilities([capability])
            .with_content(
                OntologyContent::new(ONTOLOGY)
                    .with_classes([class])
                    .with_constraints(window(lo, hi)),
            ),
    )
}

fn class_query(class: &str, lo: i64, hi: i64) -> ServiceQuery {
    ServiceQuery::for_agent_type(AgentType::Resource)
        .with_ontology(ONTOLOGY)
        .with_classes([class])
        .with_constraints(window(lo, hi))
}

/// One `ask-all` the load generator sends: where, what, under which policy.
#[derive(Debug, Clone)]
pub struct Ask {
    pub broker: usize,
    pub query: ServiceQuery,
    pub policy: Option<SearchPolicy>,
}

/// The generated inputs of one workload at one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: &'static str,
    pub seed: u64,
    pub brokers: usize,
    pub ontology: Ontology,
    pub ads: Vec<Advertisement>,
    /// The finite query mix (empty on `miss_closed_bus`, whose queries are
    /// minted per sequence number by [`Inputs::ask`]).
    pub mix: Vec<ServiceQuery>,
    /// Standing subscriptions (`churn_mixed_bus` only).
    pub subscriptions: Vec<ServiceQuery>,
}

pub fn generate(workload: &str, seed: u64) -> Option<Inputs> {
    let inputs = match workload {
        HIT => hit(seed),
        MISS => miss(seed),
        CHURN => churn(seed),
        FORWARD => forward(seed),
        _ => return None,
    };
    Some(inputs)
}

const CAPS: [&str; 4] = ["relational-query-processing", "select", "project", "join"];

/// 200 ads, four to a leaf class; 32 distinct leaf queries, each answered
/// by exactly the four ads of its leaf.
fn hit(seed: u64) -> Inputs {
    let (mids, leaves) = (5, 10);
    let n_leaves = mids * leaves;
    let mut r = rng_for(seed, 1);
    let ads = (0..200)
        .map(|j| {
            let l = j % n_leaves;
            let lo = 1_000 + r.below(898_000) as i64;
            let cap = CAPS[r.below(CAPS.len() as u64) as usize];
            resource_ad(j, &leaf(l / leaves, l % leaves), cap.into(), lo, lo + 100_000)
        })
        .collect();
    let mut r = rng_for(seed, 2);
    let mix = r
        .shuffled(n_leaves)
        .into_iter()
        .take(32)
        .map(|l| {
            let jitter = r.below(1_000) as i64;
            class_query(&leaf(l / leaves, l % leaves), jitter, DOMAIN - jitter)
        })
        .collect();
    Inputs {
        workload: HIT,
        seed,
        brokers: 1,
        ontology: taxonomy(mids, leaves),
        ads,
        mix,
        subscriptions: Vec::new(),
    }
}

/// `MISS_POPULATION` ads split evenly under two mid classes; queries name a
/// mid class, so narrowing walks its leaves to half the population, and a
/// narrow window leaves ~16 of those as matches.
fn miss(seed: u64) -> Inputs {
    let (mids, leaves) = (2, 10);
    let n_leaves = mids * leaves;
    let mut r = rng_for(seed, 1);
    let ads = (0..MISS_POPULATION)
        .map(|j| {
            let l = j % n_leaves;
            let lo = r.below((DOMAIN - MISS_AD_WIDTH) as u64) as i64;
            // One capability for all: the capability dimension must never
            // narrow below the class dimension.
            resource_ad(
                j,
                &leaf(l / leaves, l % leaves),
                Capability::relational_query_processing(),
                lo,
                lo + MISS_AD_WIDTH,
            )
        })
        .collect();
    Inputs {
        workload: MISS,
        seed,
        brokers: 1,
        ontology: taxonomy(mids, leaves),
        ads,
        mix: Vec::new(),
        subscriptions: Vec::new(),
    }
}

/// Capabilities a `miss_closed_bus` query may require: every one is
/// `relational-query-processing` or a descendant of it, so every ad covers it.
const MISS_CAPS: [&str; 6] = [
    "relational-query-processing",
    "select",
    "project",
    "join",
    "union",
    "multiresource-query-processing",
];

/// 500 ads, ten to a leaf; 1 000 standing subscriptions, twenty to a leaf,
/// each overlapping about a tenth of its leaf's windows; 64 reader queries.
fn churn(seed: u64) -> Inputs {
    let (mids, leaves) = (5, 10);
    let n_leaves = mids * leaves;
    let width = 50_000;
    let mut r = rng_for(seed, 1);
    let ads = (0..500)
        .map(|j| {
            let l = j % n_leaves;
            let lo = 1_000 + r.below((DOMAIN - width - 2_000) as u64) as i64;
            resource_ad(
                j,
                &leaf(l / leaves, l % leaves),
                Capability::relational_query_processing(),
                lo,
                lo + width,
            )
        })
        .collect();
    let mut r = rng_for(seed, 2);
    let subscriptions = (0..1000)
        .map(|s| {
            let l = s % n_leaves;
            let lo = r.below((DOMAIN - width) as u64) as i64;
            class_query(&leaf(l / leaves, l % leaves), lo, lo + width)
        })
        .collect();
    let mut r = rng_for(seed, 3);
    let order = r.shuffled(n_leaves);
    let mix = (0..64)
        .map(|i| {
            let l = order[i % n_leaves];
            // The window spans every advertised one; the offset keeps the
            // 64 keys distinct when a leaf is asked about twice.
            class_query(&leaf(l / leaves, l % leaves), (i / n_leaves) as i64, DOMAIN)
        })
        .collect();
    Inputs {
        workload: CHURN,
        seed,
        brokers: 1,
        ontology: taxonomy(mids, leaves),
        ads,
        mix,
        subscriptions,
    }
}

/// 400 ads over 96 leaf classes in six groups; alternate sweeps of the
/// population take a low and a high window, leaving a gap between them.
/// The mix: one gap probe, 23 group queries (~67 matches from all four
/// brokers), eight leaf queries (~4 matches, the other brokers pruned).
fn forward(seed: u64) -> Inputs {
    let (mids, leaves) = (6, 16);
    let n_leaves = mids * leaves;
    let mut r = rng_for(seed, 1);
    let ads = (0..400)
        .map(|j| {
            let l = j % n_leaves;
            let shift = r.below(4) as i64;
            let (lo, hi) = if (j / n_leaves) % 2 == 0 {
                (shift, 10 + shift)
            } else {
                (40 - shift, 50 - shift)
            };
            resource_ad(
                j,
                &leaf(l / leaves, l % leaves),
                Capability::relational_query_processing(),
                lo,
                hi,
            )
        })
        .collect();
    let mut r = rng_for(seed, 2);
    let leaf_order = r.shuffled(n_leaves);
    let mix = (0..FORWARD_MIX)
        .map(|i| match i {
            0 => class_query(&mid(r.below(mids as u64) as usize), 20, 28),
            // Every (lo ≤ 4, hi ≥ 46) window overlaps both advertised bands.
            1..=23 => class_query(&mid(i % mids), (i % 5) as i64, 50 - ((i / 5) % 5) as i64),
            _ => {
                let l = leaf_order[i];
                class_query(&leaf(l / leaves, l % leaves), 0, 50)
            }
        })
        .collect();
    Inputs {
        workload: FORWARD,
        seed,
        brokers: 4,
        ontology: taxonomy(mids, leaves),
        ads,
        mix,
        subscriptions: Vec::new(),
    }
}

impl Inputs {
    /// The `n`-th ask of the run. Finite mixes cycle; `miss_closed_bus`
    /// mints a query no earlier `n` produced.
    pub fn ask(&self, n: u64) -> Ask {
        if self.workload == MISS {
            let mut r = rng_for(self.seed, 4);
            let offset = r.below(DOMAIN as u64);
            let span = (DOMAIN - MISS_QUERY_WIDTH) as u64;
            let lo = (n.wrapping_mul(MISS_STRIDE).wrapping_add(offset) % span) as i64;
            let query = class_query(&mid((n % 2) as usize), lo, lo + MISS_QUERY_WIDTH)
                .with_capability(MISS_CAPS[((n / 2) % MISS_CAPS.len() as u64) as usize]);
            return Ask { broker: 0, query, policy: None };
        }
        let i = self.mix_index(n).expect("finite mix");
        let (broker, policy) = if self.workload == FORWARD {
            // Rotate the entry broker per pass over the mix, so every query
            // enters at every broker.
            let entry = (n + n / self.mix.len() as u64) % self.brokers as u64;
            (
                entry as usize,
                Some(SearchPolicy { hop_count: 1, follow: FollowOption::AllRepositories }),
            )
        } else {
            (0, None)
        };
        Ask { broker, query: self.mix[i].clone(), policy }
    }

    /// How long the closed-loop client of `miss_closed_bus` thinks before
    /// its `n`-th ask: uniform over one default `poll_interval` (2 ms).
    /// Without it every ask arrives at the same phase of the dispatcher's
    /// poll cycle, latency falls on a 2 ms staircase, and the median flips
    /// between steps on a few per cent of handler time.
    pub fn think_ns(&self, n: u64) -> u64 {
        if self.workload == MISS {
            rng_for(self.seed, 6 + (n << 8)).below(2_000_000)
        } else {
            0
        }
    }

    /// The asks sent before the window: two passes over a finite mix fill
    /// the match cache; on the unique-query workload two of the cache's
    /// admission windows shut its gate. Minted far beyond any window's
    /// sequence numbers, so a unique-query window never repeats one.
    pub fn warmup(&self) -> impl Iterator<Item = Ask> + '_ {
        const BASE: u64 = 900_000;
        let count = if self.mix.is_empty() { 128 } else { 2 * self.mix.len() as u64 };
        (0..count).map(move |n| self.ask(BASE + n))
    }

    /// Which row of the finite mix the `n`-th ask cycles to.
    pub fn mix_index(&self, n: u64) -> Option<usize> {
        (!self.mix.is_empty()).then(|| (n % self.mix.len() as u64) as usize)
    }

    /// The `k`-th re-advertisement of `churn_mixed_bus`: a seeded agent
    /// moves to a new window of the same width.
    pub fn write(&self, k: u64) -> Advertisement {
        let mut r = rng_for(self.seed, 5 + (k << 8));
        let j = r.below(self.ads.len() as u64) as usize;
        let mut ad = self.ads[j].clone();
        let lo = 1_000 + r.below((DOMAIN - 52_000) as u64) as i64;
        for content in &mut ad.semantic.content {
            content.constraints = window(lo, lo + 50_000);
        }
        ad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infosleuth_broker::codec;

    /// Every generated input rendered through the wire codec: what the
    /// program under test would actually be sent.
    fn rendered(workload: &str, seed: u64) -> String {
        let inputs = generate(workload, seed).expect("known workload");
        let mut out = String::new();
        for ad in &inputs.ads {
            out.push_str(&codec::advertisement_to_sexpr(ad).to_string());
            out.push('\n');
        }
        for q in inputs.mix.iter().chain(&inputs.subscriptions) {
            out.push_str(&codec::service_query_to_sexpr(q).to_string());
            out.push('\n');
        }
        for n in 0..200 {
            let ask = inputs.ask(n);
            out.push_str(&format!("{} {:?} ", ask.broker, ask.policy));
            out.push_str(&codec::service_query_to_sexpr(&ask.query).to_string());
            out.push('\n');
        }
        if workload == CHURN {
            for k in 0..200 {
                out.push_str(&codec::advertisement_to_sexpr(&inputs.write(k)).to_string());
                out.push('\n');
            }
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in WORKLOADS {
            let a = rendered(workload, 7);
            assert_eq!(a, rendered(workload, 7), "{workload}: same seed must reproduce");
            assert_ne!(a, rendered(workload, 8), "{workload}: the seed must matter");
        }
    }

    #[test]
    fn populations_have_the_stated_shape() {
        let h = generate(HIT, 1).unwrap();
        assert_eq!((h.ads.len(), h.mix.len()), (200, 32));
        let keys: std::collections::BTreeSet<String> =
            h.mix.iter().map(|q| codec::service_query_to_sexpr(q).to_string()).collect();
        assert_eq!(keys.len(), 32, "the hit mix is 32 distinct queries");
        assert_eq!(generate(MISS, 1).unwrap().ads.len(), MISS_POPULATION);
        let c = generate(CHURN, 1).unwrap();
        assert_eq!((c.ads.len(), c.subscriptions.len(), c.mix.len()), (500, 1000, 64));
        let f = generate(FORWARD, 1).unwrap();
        assert_eq!((f.ads.len(), f.mix.len(), f.brokers), (400, FORWARD_MIX, 4));
        assert!(generate("nope", 1).is_none());
    }

    #[test]
    fn miss_queries_never_repeat_a_key() {
        let m = generate(MISS, 3).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..20_000 {
            let key = codec::service_query_to_sexpr(&m.ask(n).query).to_string();
            assert!(seen.insert(key), "query {n} repeats an earlier key");
        }
    }

    #[test]
    fn forward_entries_rotate_over_all_brokers() {
        let f = generate(FORWARD, 1).unwrap();
        let mut entries = std::collections::BTreeSet::new();
        for pass in 0..4u64 {
            entries.insert(f.ask(pass * FORWARD_MIX as u64).broker);
        }
        assert_eq!(entries.len(), 4, "query 0 must enter at every broker over four passes");
    }

    #[test]
    fn writes_keep_the_agent_and_move_its_window() {
        let c = generate(CHURN, 9).unwrap();
        let w = c.write(17);
        let original = c.ads.iter().find(|a| a.location.name == w.location.name).unwrap();
        assert_eq!(w.semantic.content[0].classes, original.semantic.content[0].classes);
        assert_ne!(w.semantic.content[0].constraints, original.semantic.content[0].constraints);
    }
}
