//! The metric names of `BENCHMARK.json`, with their units and the
//! workloads each applies to. `--smoke` checks this table against the
//! file, so the two cannot drift apart.

use crate::gen::{CHURN, FORWARD, HIT, MISS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Workloads the metric is measured on. Elsewhere the result file
    /// leaves it out.
    pub on: &'static [&'static str],
}

const ALL: &[&str] = &[HIT, MISS, CHURN, FORWARD];
const BUS: &[&str] = &[HIT, MISS, CHURN];
const TCP: &[&str] = &[FORWARD];
const WRITES: &[&str] = &[CHURN];

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> MetricDef {
    MetricDef { name, unit, better, on }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Measured with the tap off.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower, ALL),
    def("ask_p50_us", "us", Lower, ALL),
    def("ask_per_s", "1/s", Higher, ALL),
    def("write_p50_us", "us", Lower, WRITES),
    def("rss_mb", "MiB", Lower, ALL),
];

/// One layer each, taken from outside during or after a traced window.
pub const PER_LAYER: &[MetricDef] = &[
    def("loadgen.offered_per_s", "1/s", Higher, ALL),
    def("loadgen.late_p99_us", "us", Lower, ALL),
    def("client.encode_ns", "ns", Lower, ALL),
    def("client.decode_ns", "ns", Lower, ALL),
    def("client.ask_p99_us", "us", Lower, ALL),
    def("client.write_p99_us", "us", Lower, WRITES),
    def("client.sliced_ask_per_s", "1/s", Higher, ALL),
    def("kqml.print_ns", "ns", Lower, ALL),
    def("kqml.parse_ns", "ns", Lower, ALL),
    def("kqml.request_bytes", "B", Lower, ALL),
    def("kqml.reply_bytes", "B", Lower, ALL),
    def("codec.query_decode_ns", "ns", Lower, ALL),
    def("codec.reply_encode_ns", "ns", Lower, ALL),
    def("codec.ad_decode_ns", "ns", Lower, ALL),
    def("bus.send_ns", "ns", Lower, BUS),
    def("tcp.send_us", "us", Lower, TCP),
    def("tcp.hops_per_ask", "count", Lower, ALL),
    def("runtime.in_broker_us", "us", Lower, ALL),
    def("runtime.dispatch_wait_us", "us", Lower, ALL),
    def("runtime.reply_delivery_us", "us", Lower, ALL),
    def("runtime.hosted_agents", "count", Lower, ALL),
    def("broker.handler_ask_us", "us", Lower, ALL),
    def("broker.handler_write_us", "us", Lower, WRITES),
    def("cache.lookup_ns", "ns", Lower, ALL),
    def("cache.hit_ratio", "ratio", Higher, ALL),
    def("cache.stale_ratio", "ratio", Lower, ALL),
    def("matchmaker.match_us", "us", Lower, ALL),
    def("matchmaker.matches_per_ask", "count", Lower, ALL),
    def("repository.advertise_us", "us", Lower, ALL),
    def("repository.size_bytes", "B", Lower, ALL),
    def("sub_index.affected_us", "us", Lower, WRITES),
    def("sub_index.deltas_per_write", "count", Lower, WRITES),
    def("digest.can_match_ns", "ns", Lower, TCP),
    def("digest.forwards_per_ask", "count", Lower, TCP),
    def("digest.pruned_per_ask", "count", Higher, TCP),
    def("digest.fp_ratio", "ratio", Lower, TCP),
    def("liveness.pings_per_s", "1/s", Lower, ALL),
    def("trace.overhead_pct", "%", Lower, ALL),
    def("trace.residual_pct", "%", Lower, ALL),
];

pub fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

impl MetricDef {
    pub fn applies(&self, workload: &str) -> bool {
        self.on.contains(&workload)
    }
}
