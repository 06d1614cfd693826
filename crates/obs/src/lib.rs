//! Observability plane for the InfoSleuth reproduction: a lock-cheap
//! metrics registry with Prometheus text exposition ([`metrics`]), a
//! span tracer whose context rides beside a message in process and in
//! its `:x-trace` parameter on the wire ([`trace`]), and a tiny HTTP/1.0 scrape responder
//! ([`http`]). See DESIGN.md §11. On top of those sits the temporal +
//! reactive layer (DESIGN.md §16): ring-buffer metric history
//! ([`store`]), a one-tick sampler ([`sampler`]), and a declarative
//! watermark health engine with hysteresis ([`health`]).
//!
//! One [`Obs`] bundle travels with each [`AgentRuntime`]; everything
//! hosted on that runtime — transports, brokers, resource agents —
//! feeds the same registry and tracer, and a reporter agent forwards
//! snapshots to the monitor agent for community-wide aggregation.
//!
//! [`AgentRuntime`]: ../infosleuth_agent/struct.AgentRuntime.html

#![forbid(unsafe_code)]

pub mod health;
pub mod http;
pub mod metrics;
pub mod sampler;
pub mod store;
pub mod sync;
pub mod trace;

pub use health::{
    default_broker_rules, HealthEngine, HealthEvent, HealthRule, HealthState, Severity, Watermark,
};
pub use http::{scrape, MetricsServer};
pub use metrics::{
    render_merged, Counter, Gauge, Histogram, HistogramSnapshot, Labels, MetricsRegistry,
    MetricsSnapshot, Sample, SampleValue, BUCKETS, MAX_RELATIVE_ERROR,
};
pub use sampler::{sample_once, MIN_SAMPLE_INTERVAL};
pub use store::{SeriesKey, SeriesPoint, TimeSeriesStore};
pub use trace::{
    build_trace_tree, continued_context, current_context, forest_topology, topology, trace_ids,
    JsonlSink, RingSink, SpanGuard, SpanId, SpanNode, SpanRecord, SpanSink, TraceContext, TraceId,
    Tracer,
};

use std::sync::Arc;

/// One agent-runtime's worth of observability: a shared metrics
/// registry plus a shared tracer. Cloning shares both.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    registry: MetricsRegistry,
    tracer: Tracer,
}

impl Obs {
    /// A fresh, empty observability bundle, ready to share.
    pub fn new() -> Arc<Obs> {
        Arc::new(Obs::default())
    }

    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Opens a pipeline-stage timer: a child span named `stage` plus a
    /// sample in `histogram` when the returned guard drops.
    pub fn stage(&self, histogram: &Histogram, stage: &str) -> StageTimer {
        StageTimer {
            _span: self.tracer.span(stage.to_string()),
            histogram: histogram.clone(),
            started: std::time::Instant::now(),
        }
    }
}

/// RAII guard produced by [`Obs::stage`].
pub struct StageTimer {
    _span: SpanGuard,
    histogram: Histogram,
    started: std::time::Instant,
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        self.histogram.observe_duration(self.started.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timer_records_span_and_histogram_sample() {
        let obs = Obs::new();
        let ring = Arc::new(RingSink::new(8));
        obs.tracer().add_sink(Arc::clone(&ring) as Arc<dyn SpanSink>);
        let h = obs.registry().histogram("broker_stage_seconds", &[("stage", "saturation")]);
        {
            let _outer = obs.tracer().agent_span("recv:advertise", "broker-1", None);
            let _t = obs.stage(&h, "saturation");
        }
        assert_eq!(h.count(), 1);
        let records = ring.drain();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "saturation");
        assert_eq!(records[0].parent, Some(records[1].span), "stage nests under dispatch");
    }
}
