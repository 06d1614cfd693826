//! Span-based tracing correlated across agents.
//!
//! A span records one named unit of work inside one agent. Spans form
//! trees: within a thread, nesting is tracked through a thread-local
//! stack; across agents, the parent context travels beside the message —
//! a [`TraceContext`] value in process, printed as the KQML `:x-trace`
//! parameter only on the wire — and the receiving runtime opens its
//! dispatch span as a child of it. Finished spans
//! drain to pluggable [`SpanSink`]s.

use crate::sync::{lock, read, write};
use infosleuth_kqml::SExpr;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Identity of one causally-connected tree of spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identity of one span within a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

fn parse_hex16(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// The portable part of a span: enough for a remote agent to attach
/// children. Encoded on the wire as `"<trace-hex16>-<span-hex16>"`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceContext {
    pub trace: TraceId,
    pub span: SpanId,
}

impl TraceContext {
    pub fn encode(&self) -> String {
        format!("{}-{}", self.trace, self.span)
    }

    /// Strict parse of the wire form: exactly two 16-hexdigit halves
    /// joined by `-`. Anything else is rejected, and the receiving
    /// runtime dispatches the message under a fresh root span.
    pub fn parse(s: &str) -> Option<TraceContext> {
        if s.len() != 33 || s.as_bytes()[16] != b'-' {
            return None;
        }
        Some(TraceContext {
            trace: TraceId(parse_hex16(&s[..16])?),
            span: SpanId(parse_hex16(&s[17..])?),
        })
    }
}

impl fmt::Display for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Process-unique nonzero id: a wall-clock seed mixed with a global
/// counter, so two runtimes in one test process never collide.
fn fresh_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let seed = *SEED.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed);
        splitmix64(nanos)
    });
    let id = splitmix64(seed ^ COUNTER.fetch_add(1, Ordering::Relaxed));
    if id == 0 {
        1
    } else {
        id
    }
}

/// One finished span, as delivered to sinks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub trace: TraceId,
    pub span: SpanId,
    pub parent: Option<SpanId>,
    /// Stage or operation name, e.g. `recv:ask-all` or `saturation`.
    pub name: String,
    /// Agent the work ran inside (empty when outside any agent).
    pub agent: String,
    pub start_unix_micros: u64,
    pub duration_micros: u64,
}

impl SpanRecord {
    /// `(span <trace> <span> <parent|-> <name> <agent> <start> <dur>)`
    pub fn to_sexpr(&self) -> SExpr {
        SExpr::list([
            SExpr::atom("span"),
            SExpr::atom(self.trace.to_string()),
            SExpr::atom(self.span.to_string()),
            match self.parent {
                Some(p) => SExpr::atom(p.to_string()),
                None => SExpr::atom("-"),
            },
            SExpr::string(&self.name),
            SExpr::string(&self.agent),
            SExpr::atom(self.start_unix_micros.to_string()),
            SExpr::atom(self.duration_micros.to_string()),
        ])
    }

    pub fn from_sexpr(expr: &SExpr) -> Option<SpanRecord> {
        let parts = expr.as_list()?;
        if parts.len() != 8 || parts[0].as_atom() != Some("span") {
            return None;
        }
        let parent = match parts[3].as_atom()? {
            "-" => None,
            hex => Some(SpanId(parse_hex16(hex)?)),
        };
        Some(SpanRecord {
            trace: TraceId(parse_hex16(parts[1].as_atom()?)?),
            span: SpanId(parse_hex16(parts[2].as_atom()?)?),
            parent,
            name: parts[4].as_text()?.to_string(),
            agent: parts[5].as_text()?.to_string(),
            start_unix_micros: parts[6].as_atom()?.parse().ok()?,
            duration_micros: parts[7].as_atom()?.parse().ok()?,
        })
    }
}

/// Destination for finished spans. Implementations must be cheap and
/// non-blocking: `record` runs inline at span close.
pub trait SpanSink: Send + Sync {
    fn record(&self, span: &SpanRecord);
}

/// Bounded in-memory sink: tests and the monitor forwarder drain it.
pub struct RingSink {
    cap: usize,
    buf: Mutex<VecDeque<SpanRecord>>,
}

impl RingSink {
    pub fn new(cap: usize) -> Self {
        Self { cap: cap.max(1), buf: Mutex::new(VecDeque::new()) }
    }

    /// Removes and returns everything buffered, oldest first.
    pub fn drain(&self) -> Vec<SpanRecord> {
        lock(&self.buf).drain(..).collect()
    }

    /// Copies the buffer without draining it.
    pub fn records(&self) -> Vec<SpanRecord> {
        lock(&self.buf).iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        lock(&self.buf).len()
    }

    pub fn is_empty(&self) -> bool {
        lock(&self.buf).is_empty()
    }
}

impl SpanSink for RingSink {
    fn record(&self, span: &SpanRecord) {
        let mut buf = lock(&self.buf);
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(span.clone());
    }
}

/// Streams spans as JSON lines to any writer (file, stderr, pipe).
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        Self { out: Mutex::new(out) }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl SpanSink for JsonlSink {
    fn record(&self, span: &SpanRecord) {
        let parent = match span.parent {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        };
        let line = format!(
            "{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":{},\"name\":\"{}\",\"agent\":\"{}\",\"start_us\":{},\"dur_us\":{}}}\n",
            span.trace,
            span.span,
            parent,
            json_escape(&span.name),
            json_escape(&span.agent),
            span.start_unix_micros,
            span.duration_micros,
        );
        let mut out = lock(&self.out);
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

#[derive(Clone)]
struct ActiveSpan {
    ctx: TraceContext,
    parent: Option<SpanId>,
    agent: Arc<str>,
}

thread_local! {
    static ACTIVE: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
}

/// Trace context of the innermost span open on this thread, if any.
/// The runtime stamps this into outgoing KQML messages.
pub fn current_context() -> Option<TraceContext> {
    ACTIVE.with(|stack| stack.borrow().last().map(|a| a.ctx))
}

/// The context the innermost span open on this thread continued: its
/// trace and its parent span, or `None` for a root. Inside a dispatch
/// span, this is the context its message arrived with.
pub fn continued_context() -> Option<TraceContext> {
    ACTIVE.with(|stack| {
        let stack = stack.borrow();
        let top = stack.last()?;
        Some(TraceContext { trace: top.ctx.trace, span: top.parent? })
    })
}

/// Hands out spans and fans finished ones out to registered sinks.
/// Cloning shares the sink list.
#[derive(Clone, Default)]
pub struct Tracer {
    sinks: Arc<RwLock<Vec<Arc<dyn SpanSink>>>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tracer({} sinks)", read(&self.sinks).len())
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_sink(&self, sink: Arc<dyn SpanSink>) {
        write(&self.sinks).push(sink);
    }

    /// Opens a span nested under whatever span is active on this
    /// thread (same trace, same agent). With no active span, starts a
    /// fresh root trace attributed to no agent.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard {
        let (parent, trace, agent) = ACTIVE.with(|stack| match stack.borrow().last() {
            Some(top) => (Some(top.ctx.span), top.ctx.trace, Arc::clone(&top.agent)),
            None => (None, TraceId(fresh_id()), Arc::from("")),
        });
        self.start(name.into(), agent, trace, parent)
    }

    /// Opens a dispatch span for `agent`, attached under `parent` when
    /// a remote trace context arrived with the message, or starting a
    /// new root trace otherwise.
    pub fn agent_span(
        &self,
        name: impl Into<String>,
        agent: &str,
        parent: Option<TraceContext>,
    ) -> SpanGuard {
        let (trace, parent_span) = match parent {
            Some(ctx) => (ctx.trace, Some(ctx.span)),
            None => (TraceId(fresh_id()), None),
        };
        self.start(name.into(), Arc::from(agent), trace, parent_span)
    }

    fn start(
        &self,
        name: String,
        agent: Arc<str>,
        trace: TraceId,
        parent: Option<SpanId>,
    ) -> SpanGuard {
        let ctx = TraceContext { trace, span: SpanId(fresh_id()) };
        ACTIVE.with(|stack| {
            stack.borrow_mut().push(ActiveSpan { ctx, parent, agent: Arc::clone(&agent) })
        });
        SpanGuard {
            tracer: self.clone(),
            ctx,
            parent,
            name,
            agent,
            start_unix_micros: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            started: Instant::now(),
        }
    }
}

/// RAII span: open on creation, recorded to the tracer's sinks on
/// drop. Guards must drop in LIFO order on the thread that opened
/// them (the natural shape of scoped instrumentation).
pub struct SpanGuard {
    tracer: Tracer,
    ctx: TraceContext,
    parent: Option<SpanId>,
    name: String,
    agent: Arc<str>,
    start_unix_micros: u64,
    started: Instant,
}

impl SpanGuard {
    /// Context to propagate to work caused by this span.
    pub fn context(&self) -> TraceContext {
        self.ctx
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|a| a.ctx.span == self.ctx.span) {
                stack.truncate(pos);
            }
        });
        let record = SpanRecord {
            trace: self.ctx.trace,
            span: self.ctx.span,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            agent: self.agent.to_string(),
            start_unix_micros: self.start_unix_micros,
            duration_micros: self.started.elapsed().as_micros() as u64,
        };
        for sink in read(&self.tracer.sinks).iter() {
            sink.record(&record);
        }
    }
}

/// One node of a reconstructed trace tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    pub name: String,
    pub agent: String,
    pub children: Vec<SpanNode>,
}

/// Rebuilds the tree(s) of one trace from an unordered record pile.
/// Spans whose parent never materialized surface as roots, so a
/// partially-collected trace still renders. Siblings are ordered by
/// their topology string, making the result deployment-deterministic.
pub fn build_trace_tree(records: &[SpanRecord], trace: TraceId) -> Vec<SpanNode> {
    let in_trace: Vec<&SpanRecord> = records.iter().filter(|r| r.trace == trace).collect();
    let known: std::collections::HashSet<SpanId> = in_trace.iter().map(|r| r.span).collect();
    fn build(
        of: &[&SpanRecord],
        parent: Option<SpanId>,
        known: &std::collections::HashSet<SpanId>,
    ) -> Vec<SpanNode> {
        let mut nodes: Vec<SpanNode> = of
            .iter()
            .filter(|r| match parent {
                Some(p) => r.parent == Some(p),
                // Roots: no parent, or a parent we never collected.
                None => r.parent.map(|p| !known.contains(&p)).unwrap_or(true),
            })
            .map(|r| SpanNode {
                name: r.name.clone(),
                agent: r.agent.clone(),
                children: build(of, Some(r.span), known),
            })
            .collect();
        nodes.sort_by_key(topology);
        nodes
    }
    build(&in_trace, None, &known)
}

/// Canonical textual form of a node's shape: `name@agent(children…)`.
/// Two traces with equal topology did the same work through the same
/// agents, regardless of ids and timings.
pub fn topology(node: &SpanNode) -> String {
    let children: Vec<String> = node.children.iter().map(topology).collect();
    if children.is_empty() {
        format!("{}@{}", node.name, node.agent)
    } else {
        format!("{}@{}({})", node.name, node.agent, children.join(" "))
    }
}

/// Topology of a whole forest (roots sorted by [`build_trace_tree`]).
pub fn forest_topology(nodes: &[SpanNode]) -> String {
    nodes.iter().map(topology).collect::<Vec<_>>().join(" | ")
}

/// Distinct trace ids present in a record pile, ascending.
pub fn trace_ids(records: &[SpanRecord]) -> Vec<TraceId> {
    let mut ids: Vec<TraceId> = records.iter().map(|r| r.trace).collect();
    ids.sort();
    ids.dedup();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_encodes_and_parses_strictly() {
        let ctx = TraceContext {
            trace: TraceId(0xdead_beef_0000_0001),
            span: SpanId(0x0123_4567_89ab_cdef),
        };
        let wire = ctx.encode();
        assert_eq!(wire.len(), 33);
        assert_eq!(TraceContext::parse(&wire), Some(ctx));
        for bad in ["", "xyz", "123-456", &wire[..32], &format!("{wire}0"), &wire.replace('-', "_")]
        {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = fresh_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id");
        }
    }

    #[test]
    fn nested_spans_share_a_trace_and_link_parents() {
        let tracer = Tracer::new();
        let ring = Arc::new(RingSink::new(16));
        tracer.add_sink(Arc::clone(&ring) as Arc<dyn SpanSink>);
        {
            let outer = tracer.agent_span("recv:ask-all", "broker-1", None);
            let outer_ctx = outer.context();
            {
                let inner = tracer.span("saturation");
                assert_eq!(inner.context().trace, outer_ctx.trace);
                assert_eq!(current_context(), Some(inner.context()));
            }
            assert_eq!(current_context(), Some(outer_ctx));
        }
        assert_eq!(current_context(), None);
        let records = ring.drain();
        assert_eq!(records.len(), 2);
        // Inner closed first.
        assert_eq!(records[0].name, "saturation");
        assert_eq!(records[0].agent, "broker-1", "inner span inherits the agent");
        assert_eq!(records[0].parent, Some(records[1].span));
        assert_eq!(records[1].parent, None);
    }

    #[test]
    fn remote_parent_attaches_across_agents() {
        let tracer = Tracer::new();
        let ring = Arc::new(RingSink::new(16));
        tracer.add_sink(Arc::clone(&ring) as Arc<dyn SpanSink>);
        let remote_ctx = {
            let requester = tracer.agent_span("recv:tell", "user", None);
            requester.context()
        };
        // ...the context crosses the wire in :x-trace...
        let parsed = TraceContext::parse(&remote_ctx.encode()).expect("round trips");
        {
            let _handler = tracer.agent_span("recv:ask-all", "broker-1", Some(parsed));
        }
        let records = ring.drain();
        assert_eq!(records[1].trace, remote_ctx.trace);
        assert_eq!(records[1].parent, Some(remote_ctx.span));
    }

    #[test]
    fn a_dispatch_span_names_the_context_it_continued() {
        let tracer = Tracer::new();
        let sent = TraceContext { trace: TraceId(0x5eed), span: SpanId(7) };
        assert_eq!(continued_context(), None, "no span open");
        {
            let _root = tracer.agent_span("recv:tell", "a", None);
            assert_eq!(continued_context(), None, "a root continues nothing");
        }
        let _recv = tracer.agent_span("recv:subscribe", "broker-1", Some(sent));
        assert_eq!(continued_context(), Some(sent));
    }

    #[test]
    fn span_record_sexpr_round_trips() {
        let rec = SpanRecord {
            trace: TraceId(7),
            span: SpanId(8),
            parent: Some(SpanId(9)),
            name: "recv:ask-all".into(),
            agent: "broker-1".into(),
            start_unix_micros: 123,
            duration_micros: 456,
        };
        assert_eq!(SpanRecord::from_sexpr(&rec.to_sexpr()), Some(rec.clone()));
        let root = SpanRecord { parent: None, ..rec };
        assert_eq!(SpanRecord::from_sexpr(&root.to_sexpr()), Some(root));
    }

    #[test]
    fn ring_sink_is_bounded() {
        let ring = RingSink::new(2);
        let rec = |n: u64| SpanRecord {
            trace: TraceId(1),
            span: SpanId(n),
            parent: None,
            name: "s".into(),
            agent: "a".into(),
            start_unix_micros: 0,
            duration_micros: 0,
        };
        for n in 1..=3 {
            ring.record(&rec(n));
        }
        let kept: Vec<u64> = ring.drain().into_iter().map(|r| r.span.0).collect();
        assert_eq!(kept, vec![2, 3], "oldest span evicted");
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_span() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                lock(&self.0).extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Box::new(Shared(Arc::clone(&buf))));
        sink.record(&SpanRecord {
            trace: TraceId(0xab),
            span: SpanId(0xcd),
            parent: None,
            name: "n\"q".into(),
            agent: "a".into(),
            start_unix_micros: 1,
            duration_micros: 2,
        });
        let text = String::from_utf8(lock(&buf).clone()).unwrap();
        assert!(text.ends_with('\n'));
        assert!(text.contains("\"trace\":\"00000000000000ab\""), "{text}");
        assert!(text.contains("\"parent\":null"), "{text}");
        assert!(text.contains("\"name\":\"n\\\"q\""), "{text}");
    }

    #[test]
    fn trace_tree_reconstruction_and_topology() {
        let rec = |span: u64, parent: Option<u64>, name: &str, agent: &str| SpanRecord {
            trace: TraceId(1),
            span: SpanId(span),
            parent: parent.map(SpanId),
            name: name.into(),
            agent: agent.into(),
            start_unix_micros: 0,
            duration_micros: 0,
        };
        let records = vec![
            rec(10, None, "recv:ask-all", "broker-1"),
            rec(11, Some(10), "scoring", "broker-1"),
            rec(12, Some(10), "parse", "broker-1"),
            rec(13, Some(10), "recv:ask-all", "broker-2"),
            rec(14, Some(13), "scoring", "broker-2"),
            // Different trace — excluded.
            SpanRecord { trace: TraceId(2), ..rec(99, None, "noise", "x") },
        ];
        let tree = build_trace_tree(&records, TraceId(1));
        assert_eq!(tree.len(), 1);
        assert_eq!(
            forest_topology(&tree),
            "recv:ask-all@broker-1(parse@broker-1 recv:ask-all@broker-2(scoring@broker-2) scoring@broker-1)"
        );
        assert_eq!(trace_ids(&records), vec![TraceId(1), TraceId(2)]);
    }

    #[test]
    fn orphaned_spans_surface_as_roots() {
        let records = vec![SpanRecord {
            trace: TraceId(1),
            span: SpanId(2),
            parent: Some(SpanId(999)), // never collected
            name: "lost".into(),
            agent: "a".into(),
            start_unix_micros: 0,
            duration_micros: 0,
        }];
        let tree = build_trace_tree(&records, TraceId(1));
        assert_eq!(forest_topology(&tree), "lost@a");
    }

    fn rec2(span: u64, parent: Option<u64>, name: &str, agent: &str) -> SpanRecord {
        SpanRecord {
            trace: TraceId(1),
            span: SpanId(span),
            parent: parent.map(SpanId),
            name: name.into(),
            agent: agent.into(),
            start_unix_micros: 0,
            duration_micros: 0,
        }
    }

    #[test]
    fn orphan_subtree_renders_under_its_orphaned_root() {
        // Cross-node taps drop spans: here the true root (say the
        // client's send span on another node) was never collected, but
        // the broker-side subtree under it was. The highest collected
        // ancestor surfaces as a root with its whole subtree intact,
        // next to an untouched fully-collected tree.
        let records = vec![
            // Fully collected tree.
            rec2(1, None, "recv:subscribe", "broker-1"),
            rec2(2, Some(1), "scoring", "broker-1"),
            // Orphaned subtree: parent 100 never collected.
            rec2(10, Some(100), "recv:advertise", "broker-2"),
            rec2(11, Some(10), "saturation", "broker-2"),
            rec2(12, Some(10), "notify", "broker-2"),
        ];
        let tree = build_trace_tree(&records, TraceId(1));
        assert_eq!(tree.len(), 2, "orphan joins the complete tree as a second root");
        assert_eq!(
            forest_topology(&tree),
            "recv:advertise@broker-2(notify@broker-2 saturation@broker-2) \
             | recv:subscribe@broker-1(scoring@broker-1)"
        );
        // Sibling order is the topology sort, independent of record order.
        let mut shuffled = records.clone();
        shuffled.reverse();
        assert_eq!(
            forest_topology(&build_trace_tree(&shuffled, TraceId(1))),
            forest_topology(&tree)
        );
    }

    #[test]
    fn duplicate_span_ids_render_deterministically() {
        // Two taps on different nodes can both record the same span (a
        // relayed message re-enters the sink with identical ids). The
        // rebuild must not lose the subtree, loop, or depend on record
        // order: each duplicate renders as a sibling carrying the same
        // children.
        let records = vec![
            rec2(1, None, "recv:advertise", "broker-1"),
            rec2(5, Some(1), "notify", "broker-1"),
            rec2(5, Some(1), "notify", "broker-1"), // duplicate from a second tap
            rec2(6, Some(5), "push", "broker-1"),
        ];
        let tree = build_trace_tree(&records, TraceId(1));
        assert_eq!(tree.len(), 1);
        assert_eq!(
            forest_topology(&tree),
            "recv:advertise@broker-1(notify@broker-1(push@broker-1) notify@broker-1(push@broker-1))"
        );
        let mut shuffled = records.clone();
        shuffled.swap(0, 3);
        assert_eq!(
            forest_topology(&build_trace_tree(&shuffled, TraceId(1))),
            forest_topology(&tree)
        );
        // A duplicated orphan behaves the same way: both copies surface
        // as roots, children intact.
        let orphans = vec![
            rec2(7, Some(999), "lost", "node-a"),
            rec2(7, Some(999), "lost", "node-b"),
            rec2(8, Some(7), "child", "node-a"),
        ];
        let tree = build_trace_tree(&orphans, TraceId(1));
        assert_eq!(forest_topology(&tree), "lost@node-a(child@node-a) | lost@node-b(child@node-a)");
    }
}
