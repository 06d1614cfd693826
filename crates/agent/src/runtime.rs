//! The shared agent runtime: one event loop and a bounded worker pool
//! hosting many agents on one [`Transport`].
//!
//! The seed gave every agent a dedicated loop thread and spawned an
//! unbounded thread per incoming envelope (and per liveness sweep). The
//! runtime replaces all of that: agents are [`AgentBehavior`]s whose
//! `on_message` handlers run on a fixed pool, with a per-agent in-flight
//! cap for backpressure (excess messages simply wait in the transport
//! mailbox) and periodic `on_tick` callbacks that never overlap
//! themselves. Handlers may block on request/reply conversations — that
//! is why the pool is sized above one; every request carries a timeout,
//! so a saturated pool degrades to slow, never to stuck.

use crate::transport::{Envelope, Requester, Transport, TransportError, TransportExt};
use infosleuth_kqml::{Message, Performative, SExpr};
use infosleuth_obs::sync::{lock, wait};
use infosleuth_obs::{Counter, Gauge, Histogram, Obs, SpanGuard, TraceContext, TRACE_PARAM};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ontology tag on delivery-failure log tells sent to the monitor agent.
pub const LOG_ONTOLOGY: &str = "infosleuth-log";

/// Tuning knobs for an [`AgentRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads shared by every hosted agent. Must be at least 2
    /// when hosted agents query each other (a request from agent A to
    /// agent B needs a free worker to run B's handler while A's blocks).
    /// An idle worker parks, and a new job goes to the one that parked
    /// last, so a worker that load never reaches costs one parked thread
    /// and no malloc arena of its own.
    pub workers: usize,
    /// Maximum envelopes of one agent being handled concurrently. Excess
    /// traffic queues in the transport mailbox — this is the backpressure
    /// boundary.
    pub per_agent_inflight: usize,
    /// How often the event loop polls mailboxes and tick deadlines.
    pub poll_interval: Duration,
    /// Agent name to notify (best-effort `tell`, ontology
    /// [`LOG_ONTOLOGY`]) whenever a hosted agent's send fails.
    pub monitor: Option<String>,
    /// Observability bundle shared by the runtime and every hosted
    /// agent. `None` gives the runtime a private bundle (metrics still
    /// accumulate; nothing exports unless someone reads
    /// [`AgentRuntime::obs`]).
    pub obs: Option<Arc<Obs>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 8,
            per_agent_inflight: 4,
            poll_interval: Duration::from_millis(2),
            monitor: None,
            obs: None,
        }
    }
}

impl RuntimeConfig {
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    pub fn with_per_agent_inflight(mut self, cap: usize) -> Self {
        self.per_agent_inflight = cap.max(1);
        self
    }

    pub fn with_monitor(mut self, monitor: impl Into<String>) -> Self {
        self.monitor = Some(monitor.into());
        self
    }

    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }
}

/// Handles the runtime itself feeds: dispatch volume, handler latency,
/// and the depth of the shared job queue.
struct RuntimeMetrics {
    dispatch_messages: Counter,
    dispatch_ticks: Counter,
    handler_message_seconds: Histogram,
    handler_tick_seconds: Histogram,
    /// Enqueue on the agent's mailbox → its handler starts on a worker
    /// (`runtime_mailbox_wait_seconds`): what the poll nap, the in-flight
    /// cap and a busy pool cost a message before any handler sees it.
    mailbox_wait_seconds: Histogram,
    queue_depth: Gauge,
    /// Jobs currently dispatched to workers across all hosted agents
    /// (`runtime_inflight`) — the watermark the stock `inflight` health
    /// rule watches.
    inflight: Gauge,
}

impl RuntimeMetrics {
    fn new(obs: &Obs) -> Self {
        let reg = obs.registry();
        RuntimeMetrics {
            dispatch_messages: reg.counter("runtime_dispatch_total", &[("kind", "message")]),
            dispatch_ticks: reg.counter("runtime_dispatch_total", &[("kind", "tick")]),
            handler_message_seconds: reg
                .histogram("runtime_handler_seconds", &[("kind", "message")]),
            handler_tick_seconds: reg.histogram("runtime_handler_seconds", &[("kind", "tick")]),
            mailbox_wait_seconds: reg.histogram("runtime_mailbox_wait_seconds", &[]),
            queue_depth: reg.gauge("runtime_queue_depth", &[]),
            inflight: reg.gauge("runtime_inflight", &[]),
        }
    }
}

/// An agent hosted on the runtime: a message handler plus optional
/// periodic maintenance.
///
/// Handlers receive `&self` and run concurrently (up to the per-agent
/// in-flight cap), so behaviors guard their state internally — exactly
/// like the seed's thread-per-envelope agents did, minus the unbounded
/// spawning. Every delivery carries one envelope, so at most
/// `per_agent_inflight` messages of one agent are in handlers at once;
/// the rest wait in its mailbox.
pub trait AgentBehavior: Send + Sync + 'static {
    /// Handles one delivered envelope. Runs on a pool worker, inside the
    /// envelope's [`recv` span](AgentContext::recv_span); may block on
    /// (timeout-bounded) requests.
    fn on_message(&self, ctx: &AgentContext, env: Envelope);

    /// If `Some`, [`AgentBehavior::on_tick`] fires roughly this often.
    fn tick_interval(&self) -> Option<Duration> {
        None
    }

    /// Periodic maintenance (liveness sweeps, readvertising, subscription
    /// refresh). A tick never overlaps a previous tick of the same agent.
    fn on_tick(&self, _ctx: &AgentContext) {}

    /// Called once when the agent is stopped and its in-flight work has
    /// drained.
    fn on_stop(&self, _ctx: &AgentContext) {}
}

/// The runtime-provided face of the transport for one hosted agent:
/// sends that stamp the agent's name and account for delivery failures,
/// and request/reply conversations over ephemeral endpoints.
pub struct AgentContext {
    name: String,
    transport: Arc<dyn Transport>,
    worker_seq: AtomicU64,
    /// Failed sends, registered as
    /// `agent_delivery_failures_total{agent=…}` in the runtime's
    /// metrics registry (the seed kept a bespoke per-handle atomic; the
    /// registry handle serves both the accessor API and the scrape).
    delivery_failures: Counter,
    monitor: Option<String>,
    obs: Arc<Obs>,
}

impl AgentContext {
    fn new(
        name: String,
        transport: Arc<dyn Transport>,
        monitor: Option<String>,
        obs: Arc<Obs>,
    ) -> Self {
        let delivery_failures =
            obs.registry().counter("agent_delivery_failures_total", &[("agent", &name)]);
        AgentContext {
            name,
            transport,
            worker_seq: AtomicU64::new(0),
            delivery_failures,
            monitor,
            obs,
        }
    }

    /// A standalone context not hosted on any runtime, for harnesses that
    /// drive an [`AgentBehavior`] synchronously (the interleaving
    /// explorer in `crates/check` delivers envelopes itself over a
    /// virtual transport and needs the same send/request surface hosted
    /// handlers see).
    pub fn detached(name: impl Into<String>, transport: Arc<dyn Transport>, obs: Arc<Obs>) -> Self {
        AgentContext::new(name.into(), transport, None, obs)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// The observability bundle this agent reports into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Opens the dispatch span `recv:<performative>` for one delivered
    /// envelope. It continues the sender's trace when the envelope carried
    /// `:x-trace` and roots a fresh one otherwise; everything the handler
    /// does while the guard lives — nested stage spans, outgoing sends
    /// (stamped from the thread-local context) — hangs off it.
    pub fn recv_span(&self, env: &Envelope) -> SpanGuard {
        let parent = env.message.trace().and_then(TraceContext::parse);
        self.obs.tracer().agent_span(
            format!("recv:{}", env.message.performative),
            &self.name,
            parent,
        )
    }

    /// Stamps the calling thread's active trace context into the
    /// message as `:x-trace`, unless the caller already attached one.
    fn stamp_trace(message: &mut Message) {
        if message.get(TRACE_PARAM).is_none() {
            if let Some(ctx) = infosleuth_obs::current_context() {
                message.set(TRACE_PARAM, SExpr::string(ctx.encode()));
            }
        }
    }

    /// Sends a message as this agent. A failure is *counted* (and
    /// reported to the configured monitor agent) rather than silently
    /// dropped: a peer that cannot be reached is exactly the §4.2.2 death
    /// signal the brokers act on.
    pub fn send(&self, to: &str, mut message: Message) -> Result<(), TransportError> {
        message.set("sender", SExpr::atom(&self.name));
        message.set("receiver", SExpr::atom(to));
        Self::stamp_trace(&mut message);
        let performative = message.performative.clone();
        match self.transport.send(&self.name, to, message) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.note_delivery_failure(to, performative);
                Err(e)
            }
        }
    }

    /// Records a failed delivery and notifies the monitor agent
    /// (best-effort; monitor logging never recurses or counts itself).
    pub fn note_delivery_failure(&self, to: &str, performative: Performative) {
        self.delivery_failures.inc();
        let count = self.delivery_failures.get();
        if let Some(monitor) = &self.monitor {
            if monitor != &self.name && monitor != to {
                let mut log = Message::new(Performative::Tell).with_content(SExpr::list(vec![
                    SExpr::atom("delivery-failure"),
                    SExpr::atom(&self.name),
                    SExpr::atom(to),
                    SExpr::atom(performative.to_string()),
                    SExpr::atom(count.to_string()),
                ]));
                log.set("sender", SExpr::atom(&self.name));
                log.set("receiver", SExpr::atom(monitor));
                log.set("ontology", SExpr::atom(LOG_ONTOLOGY));
                let _ = self.transport.send(&self.name, monitor, log);
            }
        }
    }

    /// Total sends by this agent that the transport refused.
    pub fn delivery_failures(&self) -> u64 {
        self.delivery_failures.get()
    }

    /// Runs a request/reply conversation — [`AgentContext::request_all`]
    /// of one.
    pub fn request(
        &self,
        to: &str,
        message: Message,
        timeout: Duration,
    ) -> Result<Message, TransportError> {
        self.request_all(vec![(to.to_string(), message)], timeout)
            .pop()
            .expect("one result per message") // lint: allow-unwrap
    }

    /// Runs one [conversation](crate::Endpoint::request_all) through a
    /// fresh ephemeral endpoint (`{name}.w{seq}`), so concurrent handlers
    /// never steal each other's replies. Every message carries the
    /// calling thread's trace context, and every recipient the request
    /// never reached (or never came back from) is accounted for like any
    /// other failed delivery.
    pub fn request_all(
        &self,
        mut batch: Vec<(String, Message)>,
        timeout: Duration,
    ) -> Vec<Result<Message, TransportError>> {
        if batch.is_empty() {
            return Vec::new();
        }
        let mut ep = match self.ephemeral_endpoint() {
            Ok(ep) => ep,
            Err(e) => return batch.iter().map(|_| Err(e.clone())).collect(),
        };
        let sent: Vec<(String, Performative)> = batch
            .iter_mut()
            .map(|(to, message)| {
                Self::stamp_trace(message);
                (to.clone(), message.performative.clone())
            })
            .collect();
        let results = ep.request_all(batch, timeout);
        ep.unregister();
        for ((to, performative), result) in sent.into_iter().zip(&results) {
            if matches!(
                result,
                Err(TransportError::UnknownAgent(_)
                    | TransportError::NoRoute(_)
                    | TransportError::Io(_))
            ) {
                self.note_delivery_failure(&to, performative);
            }
        }
        results
    }

    /// A fresh uniquely-named endpoint for a side conversation.
    fn ephemeral_endpoint(&self) -> Result<crate::Endpoint, TransportError> {
        loop {
            let seq = self.worker_seq.fetch_add(1, Ordering::Relaxed);
            match self.transport.endpoint(format!("{}.w{seq}", self.name)) {
                Err(TransportError::DuplicateAgent(_)) => continue,
                other => return other,
            }
        }
    }
}

impl Requester for &AgentContext {
    fn name(&self) -> &str {
        &self.name
    }

    fn request(
        &mut self,
        to: &str,
        message: Message,
        timeout: Duration,
    ) -> Result<Message, TransportError> {
        AgentContext::request(self, to, message, timeout)
    }
}

struct AgentSlot {
    name: String,
    behavior: Arc<dyn AgentBehavior>,
    ctx: Arc<AgentContext>,
    /// Only the event loop pulls from the mailbox.
    mailbox: crate::transport::Mailbox,
    inflight: AtomicUsize,
    tick_running: AtomicBool,
    stopped: AtomicBool,
    finalized: AtomicBool,
    last_tick: Mutex<Instant>,
}

impl AgentSlot {
    fn idle(&self) -> bool {
        self.inflight.load(Ordering::Acquire) == 0 && !self.tick_running.load(Ordering::Acquire)
    }
}

enum Job {
    /// One envelope from the agent's mailbox, stamped with the instant it
    /// was enqueued there.
    Deliver(Arc<AgentSlot>, Instant, Envelope),
    Tick(Arc<AgentSlot>),
}

/// The pool's FIFO of jobs and its idle workers, parked LIFO.
///
/// Each worker parks on a condvar of its own, and a push wakes the one
/// that parked last. A single shared condvar would wake the one that
/// has waited longest, rotating a steady stream of jobs through every
/// worker: each of them then keeps its own malloc arena's high-water
/// pages, and every job lands on the coldest cache.
struct JobQueue<J> {
    inner: Mutex<JobQueueInner<J>>,
    /// `wakers[i]` is the only condvar worker `i` waits on.
    wakers: Box<[Condvar]>,
    /// Live depth of the shared queue (`runtime_queue_depth`) — the
    /// saturation signal for the worker pool.
    depth: Gauge,
}

struct JobQueueInner<J> {
    jobs: VecDeque<J>,
    /// Parked workers, most recently parked last. A worker is on it only
    /// while it waits and no push has signalled it, so a push never
    /// signals a busy worker.
    idle: Vec<usize>,
    shutdown: bool,
}

impl<J> JobQueue<J> {
    fn new(workers: usize, depth: Gauge) -> Self {
        JobQueue {
            inner: Mutex::new(JobQueueInner {
                jobs: VecDeque::new(),
                idle: Vec::with_capacity(workers),
                shutdown: false,
            }),
            wakers: (0..workers).map(|_| Condvar::new()).collect(),
            depth,
        }
    }

    fn push(&self, job: J) {
        let mut inner = lock(&self.inner);
        if inner.shutdown {
            return;
        }
        inner.jobs.push_back(job);
        self.depth.add(1);
        let hottest = inner.idle.pop();
        drop(inner);
        if let Some(worker) = hottest {
            self.wakers[worker].notify_one();
        }
    }

    /// The next job for worker `me`, parking it until there is one;
    /// `None` once the queue is closed and drained.
    fn pop(&self, me: usize) -> Option<J> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                self.depth.add(-1);
                debug_assert!(!inner.idle.contains(&me), "worker {me} took a job while parked");
                return Some(job);
            }
            if inner.shutdown {
                return None;
            }
            inner.idle.push(me);
            inner = wait(&self.wakers[me], inner);
            // A push takes the worker it signals off the stack; after a
            // spurious wake (or `close`) it is still there and must leave
            // before it takes a job, or a later push would signal it busy.
            if let Some(at) = inner.idle.iter().rposition(|&w| w == me) {
                inner.idle.remove(at);
            }
        }
    }

    fn close(&self) {
        lock(&self.inner).shutdown = true;
        for waker in self.wakers.iter() {
            waker.notify_all();
        }
    }
}

struct RuntimeShared {
    transport: Arc<dyn Transport>,
    config: RuntimeConfig,
    slots: Mutex<Vec<Arc<AgentSlot>>>,
    queue: JobQueue<Job>,
    shutting_down: AtomicBool,
    obs: Arc<Obs>,
    metrics: RuntimeMetrics,
}

/// A shared event loop hosting many agents over one transport.
///
/// Cheap to clone; all clones drive the same loop. Dropping the last
/// clone shuts the runtime down.
#[derive(Clone)]
pub struct AgentRuntime {
    shared: Arc<RuntimeShared>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl AgentRuntime {
    pub fn new(transport: Arc<dyn Transport>, config: RuntimeConfig) -> Self {
        // A struct literal bypasses the builders' clamps, and zero workers
        // or a zero in-flight cap would hang every hosted agent silently.
        let (workers, cap) = (config.workers, config.per_agent_inflight);
        let config = config.with_workers(workers).with_per_agent_inflight(cap);
        let obs = config.obs.clone().unwrap_or_default();
        let metrics = RuntimeMetrics::new(&obs);
        let shared = Arc::new(RuntimeShared {
            transport,
            queue: JobQueue::new(config.workers, metrics.queue_depth.clone()),
            config,
            slots: Mutex::new(Vec::new()),
            shutting_down: AtomicBool::new(false),
            obs,
            metrics,
        });
        let mut threads = Vec::new();
        for i in 0..shared.config.workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("runtime-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn runtime worker"), // lint: allow-unwrap
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("runtime-loop".to_string())
                    .spawn(move || event_loop(&shared))
                    .expect("spawn runtime event loop"), // lint: allow-unwrap
            );
        }
        AgentRuntime { shared, threads: Arc::new(Mutex::new(threads)) }
    }

    /// The transport every hosted agent is registered on.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.shared.transport
    }

    /// The observability bundle shared by this runtime and every agent
    /// it hosts (the one from [`RuntimeConfig::with_obs`], or a private
    /// default).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.shared.obs
    }

    /// Registers `name` on the transport and hosts `behavior` under it.
    pub fn spawn(
        &self,
        name: impl Into<String>,
        behavior: Arc<dyn AgentBehavior>,
    ) -> Result<AgentHandle, TransportError> {
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let name = name.into();
        let mailbox = self.shared.transport.open_mailbox(&name)?;
        let ctx = Arc::new(AgentContext::new(
            name.clone(),
            Arc::clone(&self.shared.transport),
            self.shared.config.monitor.clone(),
            Arc::clone(&self.shared.obs),
        ));
        let slot = Arc::new(AgentSlot {
            name: name.clone(),
            behavior,
            ctx,
            mailbox,
            inflight: AtomicUsize::new(0),
            tick_running: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            finalized: AtomicBool::new(false),
            last_tick: Mutex::new(Instant::now()),
        });
        lock(&self.shared.slots).push(Arc::clone(&slot));
        Ok(AgentHandle { slot, transport: Arc::clone(&self.shared.transport) })
    }

    /// Stops every hosted agent and joins the worker pool. Agents are
    /// unregistered *first*, so any handler blocked in a request on a
    /// sibling fails fast with `UnknownAgent` instead of waiting out its
    /// timeout.
    pub fn shutdown(&self) {
        if self.shared.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        let slots: Vec<_> = lock(&self.shared.slots).clone();
        for slot in &slots {
            slot.stopped.store(true, Ordering::Release);
            self.shared.transport.unregister(&slot.name);
        }
        self.shared.queue.close();
        let threads: Vec<_> = std::mem::take(&mut *lock(&self.threads));
        for t in threads {
            let _ = t.join();
        }
        // Workers are gone; finalize anything the event loop didn't.
        for slot in &slots {
            if !slot.finalized.swap(true, Ordering::AcqRel) {
                slot.behavior.on_stop(&slot.ctx);
            }
        }
        lock(&self.shared.slots).clear();
    }
}

impl Drop for AgentRuntime {
    fn drop(&mut self) {
        // Only the final clone tears the runtime down.
        if Arc::strong_count(&self.shared) == 1 {
            self.shutdown();
        }
    }
}

/// A hosted agent. Stopping (or dropping) the handle unregisters the
/// agent immediately — in-flight handlers finish on the pool, exactly
/// like the seed's detached per-envelope threads.
pub struct AgentHandle {
    slot: Arc<AgentSlot>,
    transport: Arc<dyn Transport>,
}

impl AgentHandle {
    pub fn name(&self) -> &str {
        &self.slot.name
    }

    /// The agent's runtime context (for sends/requests from outside a
    /// handler, and for reading the delivery-failure counter).
    pub fn ctx(&self) -> &Arc<AgentContext> {
        &self.slot.ctx
    }

    /// Total sends by this agent that the transport refused.
    pub fn delivery_failures(&self) -> u64 {
        self.slot.ctx.delivery_failures()
    }

    /// Unregisters the agent and stops dispatching to it. Idempotent.
    pub fn stop(&self) {
        if !self.slot.stopped.swap(true, Ordering::AcqRel) {
            self.transport.unregister(&self.slot.name);
        }
    }
}

impl Drop for AgentHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(shared: &RuntimeShared, me: usize) {
    while let Some(job) = shared.queue.pop(me) {
        match job {
            Job::Deliver(slot, enqueued, env) => {
                let started = Instant::now();
                shared.metrics.mailbox_wait_seconds.observe_duration(started - enqueued);
                {
                    let _span = slot.ctx.recv_span(&env);
                    slot.behavior.on_message(&slot.ctx, env);
                }
                shared.metrics.handler_message_seconds.observe_duration(started.elapsed());
                shared.metrics.dispatch_messages.inc();
                slot.inflight.fetch_sub(1, Ordering::AcqRel);
                shared.metrics.inflight.add(-1);
            }
            Job::Tick(slot) => {
                // Ticks are untraced background maintenance; they only
                // feed the dispatch metrics.
                let started = Instant::now();
                slot.behavior.on_tick(&slot.ctx);
                shared.metrics.handler_tick_seconds.observe_duration(started.elapsed());
                shared.metrics.dispatch_ticks.inc();
                slot.tick_running.store(false, Ordering::Release);
            }
        }
    }
}

fn event_loop(shared: &RuntimeShared) {
    let cap = shared.config.per_agent_inflight;
    loop {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        let slots: Vec<_> = lock(&shared.slots).clone();
        let mut dispatched = false;
        let mut any_removed = false;
        for slot in &slots {
            if slot.stopped.load(Ordering::Acquire) {
                if slot.idle() && !slot.finalized.swap(true, Ordering::AcqRel) {
                    slot.behavior.on_stop(&slot.ctx);
                    any_removed = true;
                }
                continue;
            }
            // Pull messages while under the in-flight cap; the rest wait
            // in the transport mailbox (backpressure).
            while slot.inflight.load(Ordering::Acquire) < cap {
                let Some((enqueued, env)) = slot.mailbox.try_recv_stamped() else { break };
                slot.inflight.fetch_add(1, Ordering::AcqRel);
                shared.metrics.inflight.add(1);
                shared.queue.push(Job::Deliver(Arc::clone(slot), enqueued, env));
                dispatched = true;
            }
            if let Some(interval) = slot.behavior.tick_interval() {
                let due = {
                    let last = lock(&slot.last_tick);
                    last.elapsed() >= interval
                };
                if due && !slot.tick_running.swap(true, Ordering::AcqRel) {
                    *lock(&slot.last_tick) = Instant::now();
                    shared.queue.push(Job::Tick(Arc::clone(slot)));
                    dispatched = true;
                }
            }
        }
        if any_removed {
            lock(&shared.slots).retain(|s| !s.finalized.load(Ordering::Acquire));
        }
        if !dispatched {
            std::thread::sleep(shared.config.poll_interval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bus;
    use infosleuth_kqml::{Message, Performative, SExpr};

    struct Echo;

    impl AgentBehavior for Echo {
        fn on_message(&self, ctx: &AgentContext, env: Envelope) {
            if env.message.reply_with().is_some() {
                let reply = env
                    .message
                    .reply_skeleton(Performative::Reply)
                    .with_content(env.message.content().cloned().unwrap_or(SExpr::atom("nil")));
                let _ = ctx.send(&env.from, reply);
            }
        }
    }

    fn runtime_on_bus(config: RuntimeConfig) -> (Bus, AgentRuntime) {
        let bus = Bus::new();
        let rt = AgentRuntime::new(bus.as_transport(), config);
        (bus, rt)
    }

    #[test]
    fn hosted_agent_replies_to_requests() {
        // The struct literals skip the builders' clamps; `new` applies them.
        for config in [
            RuntimeConfig::default(),
            RuntimeConfig { workers: 0, ..RuntimeConfig::default() },
            RuntimeConfig { per_agent_inflight: 0, ..RuntimeConfig::default() },
        ] {
            let label = format!("{config:?}");
            let (bus, rt) = runtime_on_bus(config);
            let _echo = rt.spawn("echo", Arc::new(Echo)).unwrap();
            let mut client = bus.register("client").unwrap();
            let reply = client.request(
                "echo",
                Message::new(Performative::AskOne).with_content(SExpr::atom("hi")),
                Duration::from_secs(2),
            );
            assert_eq!(reply.unwrap().content(), Some(&SExpr::atom("hi")), "{label}");
            rt.shutdown();
        }
    }

    #[test]
    fn malformed_trace_context_is_dispatched_under_a_fresh_root() {
        use infosleuth_obs::{RingSink, SpanId, SpanSink, TraceId};
        let sink = Arc::new(RingSink::new(64));
        let obs = Obs::new();
        obs.tracer().add_sink(Arc::clone(&sink) as Arc<dyn SpanSink>);
        let (bus, rt) = runtime_on_bus(RuntimeConfig::default().with_obs(obs));
        let _echo = rt.spawn("echo", Arc::new(Echo)).unwrap();
        let mut client = bus.register("client").unwrap();
        let sent = TraceContext { trace: TraceId(0x5eed), span: SpanId(7) };
        for (rider, content) in [(sent.encode(), "good"), ("zz".to_string(), "bad")] {
            let mut ask = Message::new(Performative::AskOne).with_content(SExpr::atom(content));
            ask.set(TRACE_PARAM, SExpr::string(rider));
            let reply = client.request("echo", ask, Duration::from_secs(2)).unwrap();
            assert_eq!(reply.content(), Some(&SExpr::atom(content)), "handler reached");
        }
        // Join the workers: a dispatch span closes after its reply left.
        rt.shutdown();
        let recvs: Vec<_> = sink.drain().into_iter().filter(|r| r.name == "recv:ask-one").collect();
        assert_eq!(recvs.len(), 2, "{recvs:?}");
        let good = recvs.iter().find(|r| r.parent.is_some()).expect("a continued span");
        let bad =
            recvs.iter().find(|r| r.parent.is_none()).expect("a malformed rider roots a span");
        assert_eq!((good.trace, good.parent), (sent.trace, Some(sent.span)));
        assert_ne!(bad.trace, sent.trace);
        assert_ne!(bad.trace, TraceId(0), "a fresh trace id is allocated");
    }

    /// An echo that counts the envelopes it handled on each thread.
    #[derive(Default)]
    struct ThreadNotingEcho {
        threads: Mutex<std::collections::BTreeMap<String, usize>>,
    }

    impl AgentBehavior for ThreadNotingEcho {
        fn on_message(&self, ctx: &AgentContext, env: Envelope) {
            let thread = std::thread::current().name().unwrap_or("unnamed").to_string();
            *self.threads.lock().unwrap().entry(thread).or_default() += 1;
            Echo.on_message(ctx, env);
        }
    }

    /// Blocks until `workers` workers wait on `queue`'s idle stack.
    fn wait_until_parked<J>(queue: &JobQueue<J>, workers: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while lock(&queue.inner).idle.len() < workers {
            assert!(Instant::now() < deadline, "workers never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn sequential_requests_stay_on_the_hottest_worker() {
        let config = RuntimeConfig::default();
        let workers = config.workers;
        let (bus, rt) = runtime_on_bus(config);
        let echo = Arc::new(ThreadNotingEcho::default());
        let _h = rt.spawn("echo", Arc::clone(&echo) as Arc<dyn AgentBehavior>).unwrap();
        let mut client = bus.register("client").unwrap();
        for i in 0..200 {
            // Each request waits for the whole pool to park: the worker
            // that answered the last one must be back on the stack, not
            // preempted by parallel tests between its reply and its park.
            // This checks the wake order, not the scheduler.
            wait_until_parked(&rt.shared.queue, workers);
            let ask = Message::new(Performative::AskOne).with_content(SExpr::atom(i.to_string()));
            client.request("echo", ask, Duration::from_secs(2)).unwrap();
        }
        let threads = echo.threads.lock().unwrap().clone();
        assert!(threads.keys().all(|t| t.starts_with("runtime-worker-")), "{threads:?}");
        assert!(threads.len() <= 2, "200 sequential requests rotated through {threads:?}");
        rt.shutdown();
    }

    fn job_queue(workers: usize) -> Arc<JobQueue<usize>> {
        Arc::new(JobQueue::new(workers, Obs::default().registry().gauge("queue_depth", &[])))
    }

    /// Spawns `workers` threads that drain `queue` until it closes,
    /// counting the jobs they take.
    fn drain_on_workers(
        queue: &Arc<JobQueue<usize>>,
        workers: usize,
        handled: &Arc<AtomicUsize>,
    ) -> Vec<JoinHandle<()>> {
        (0..workers)
            .map(|me| {
                let (queue, handled) = (Arc::clone(queue), Arc::clone(handled));
                std::thread::spawn(move || {
                    while queue.pop(me).is_some() {
                        handled.fetch_add(1, Ordering::AcqRel);
                    }
                })
            })
            .collect()
    }

    #[test]
    fn spurious_wakes_strand_no_job() {
        // Every worker is woken over and over without a push; each must
        // leave the idle stack before it takes a job (`pop`'s
        // debug_assert), and no push may signal a busy worker and leave
        // its job behind.
        const WORKERS: usize = 4;
        const JOBS: usize = 5_000;
        let queue = job_queue(WORKERS);
        let handled = Arc::new(AtomicUsize::new(0));
        let workers = drain_on_workers(&queue, WORKERS, &handled);
        let stop = Arc::new(AtomicBool::new(false));
        let noise = {
            let (queue, stop) = (Arc::clone(&queue), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    for waker in queue.wakers.iter() {
                        waker.notify_all();
                    }
                    std::thread::yield_now();
                }
            })
        };
        for job in 0..JOBS {
            queue.push(job);
            if job % 8 == 0 {
                std::thread::yield_now();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while handled.load(Ordering::Acquire) < JOBS && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
        noise.join().unwrap();
        assert_eq!(handled.load(Ordering::Acquire), JOBS, "jobs stranded in the queue");
        queue.close();
        for worker in workers {
            worker.join().expect("a worker took a job while still parked");
        }
    }

    #[test]
    fn close_releases_every_parked_worker() {
        const WORKERS: usize = 8;
        let queue = job_queue(WORKERS);
        let workers = drain_on_workers(&queue, WORKERS, &Arc::new(AtomicUsize::new(0)));
        wait_until_parked(&queue, WORKERS);
        let started = Instant::now();
        queue.close();
        for worker in workers {
            worker.join().unwrap();
        }
        assert!(started.elapsed() < Duration::from_secs(1), "close took {:?}", started.elapsed());
    }

    struct Slow {
        concurrent: AtomicUsize,
        peak: AtomicUsize,
        handled: AtomicUsize,
    }

    impl AgentBehavior for Slow {
        fn on_message(&self, _ctx: &AgentContext, _env: Envelope) {
            let now = self.concurrent.fetch_add(1, Ordering::AcqRel) + 1;
            self.peak.fetch_max(now, Ordering::AcqRel);
            std::thread::sleep(Duration::from_millis(10));
            self.concurrent.fetch_sub(1, Ordering::AcqRel);
            self.handled.fetch_add(1, Ordering::AcqRel);
        }
    }

    #[test]
    fn per_agent_inflight_cap_bounds_concurrency() {
        let (bus, rt) =
            runtime_on_bus(RuntimeConfig::default().with_workers(8).with_per_agent_inflight(2));
        let slow = Arc::new(Slow {
            concurrent: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            handled: AtomicUsize::new(0),
        });
        let _h = rt.spawn("slow", Arc::clone(&slow) as Arc<dyn AgentBehavior>).unwrap();
        let client = bus.register("client").unwrap();
        for i in 0..12 {
            client
                .send(
                    "slow",
                    Message::new(Performative::Tell).with_content(SExpr::atom(i.to_string())),
                )
                .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while slow.handled.load(Ordering::Acquire) < 12 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(slow.handled.load(Ordering::Acquire), 12, "all envelopes handled");
        assert!(
            slow.peak.load(Ordering::Acquire) <= 2,
            "in-flight cap exceeded: peak {}",
            slow.peak.load(Ordering::Acquire)
        );
        rt.shutdown();
    }

    struct Ticker {
        concurrent: AtomicUsize,
        overlapped: AtomicBool,
        ticks: AtomicUsize,
    }

    impl AgentBehavior for Ticker {
        fn on_message(&self, _ctx: &AgentContext, _env: Envelope) {}

        fn tick_interval(&self) -> Option<Duration> {
            Some(Duration::from_millis(5))
        }

        fn on_tick(&self, _ctx: &AgentContext) {
            if self.concurrent.fetch_add(1, Ordering::AcqRel) > 0 {
                self.overlapped.store(true, Ordering::Release);
            }
            // Longer than the interval: overlap would occur without the
            // tick_running latch.
            std::thread::sleep(Duration::from_millis(15));
            self.concurrent.fetch_sub(1, Ordering::AcqRel);
            self.ticks.fetch_add(1, Ordering::AcqRel);
        }
    }

    #[test]
    fn ticks_fire_and_never_overlap() {
        let (_bus, rt) = runtime_on_bus(RuntimeConfig::default());
        let ticker = Arc::new(Ticker {
            concurrent: AtomicUsize::new(0),
            overlapped: AtomicBool::new(false),
            ticks: AtomicUsize::new(0),
        });
        let _h = rt.spawn("ticker", Arc::clone(&ticker) as Arc<dyn AgentBehavior>).unwrap();
        let deadline = Instant::now() + Duration::from_secs(3);
        while ticker.ticks.load(Ordering::Acquire) < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(ticker.ticks.load(Ordering::Acquire) >= 3, "ticks fired");
        assert!(!ticker.overlapped.load(Ordering::Acquire), "ticks overlapped");
        rt.shutdown();
    }

    /// Notes the content of every envelope it handles, slowly enough that
    /// later ones queue up behind it.
    #[derive(Default)]
    struct Recorder {
        seen: Mutex<Vec<String>>,
    }

    impl AgentBehavior for Recorder {
        fn on_message(&self, _ctx: &AgentContext, env: Envelope) {
            let text = env.message.content().map(SExpr::to_string).unwrap_or_default();
            self.seen.lock().unwrap().push(text);
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn capped_agent_handles_queued_envelopes_in_send_order() {
        // An in-flight cap of 1 serializes the agent's jobs, so the order
        // its handler sees is the mailbox order, on however many workers.
        let (bus, rt) =
            runtime_on_bus(RuntimeConfig::default().with_workers(4).with_per_agent_inflight(1));
        let recorder = Arc::new(Recorder::default());
        let _h = rt.spawn("recorder", Arc::clone(&recorder) as Arc<dyn AgentBehavior>).unwrap();
        let client = bus.register("client").unwrap();
        for i in 0..12 {
            let ask = Message::new(Performative::AskOne).with_content(SExpr::atom(i.to_string()));
            client.send("recorder", ask).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while recorder.seen.lock().unwrap().len() < 12 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let seen = recorder.seen.lock().unwrap().clone();
        let expected: Vec<String> = (0..12).map(|i| i.to_string()).collect();
        assert_eq!(seen, expected, "mailbox order preserved across jobs");
        rt.shutdown();
    }

    /// Holds its worker for 50 ms once it has said that it started.
    struct Hog {
        started: AtomicBool,
    }

    impl AgentBehavior for Hog {
        fn on_message(&self, _ctx: &AgentContext, _env: Envelope) {
            self.started.store(true, Ordering::Release);
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    #[test]
    fn mailbox_wait_includes_the_wait_for_a_worker() {
        // One worker: while the hog holds it, the recorder's envelope is
        // drained at once but waits in the job queue. That wait is part of
        // what a message costs before its handler runs.
        let (bus, rt) = runtime_on_bus(RuntimeConfig::default().with_workers(1));
        let hog = Arc::new(Hog { started: AtomicBool::new(false) });
        let recorder = Arc::new(Recorder::default());
        let _hog = rt.spawn("hog", Arc::clone(&hog) as Arc<dyn AgentBehavior>).unwrap();
        let _rec = rt.spawn("recorder", Arc::clone(&recorder) as Arc<dyn AgentBehavior>).unwrap();
        let client = bus.register("client").unwrap();
        client.send("hog", Message::new(Performative::Tell)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !hog.started.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "the hog never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        client.send("recorder", Message::new(Performative::Tell)).unwrap();
        while recorder.seen.lock().unwrap().is_empty() {
            assert!(Instant::now() < deadline, "the recorder never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        let waits = rt.obs().registry().histogram("runtime_mailbox_wait_seconds", &[]).snapshot();
        assert_eq!(waits.count, 2, "one wait per envelope");
        let longest = waits.max();
        assert!(longest >= 0.040, "the wait for the worker went unseen: longest {longest}s");
        rt.shutdown();
    }

    #[test]
    fn stop_unregisters_immediately() {
        let (bus, rt) = runtime_on_bus(RuntimeConfig::default());
        let h = rt.spawn("echo", Arc::new(Echo)).unwrap();
        assert!(bus.is_registered("echo"));
        h.stop();
        assert!(!bus.is_registered("echo"));
        let client = bus.register("client").unwrap();
        assert!(client.send("echo", Message::new(Performative::Tell)).is_err());
        rt.shutdown();
    }

    #[test]
    fn delivery_failures_are_counted_and_logged_to_monitor() {
        let (bus, rt) = runtime_on_bus(RuntimeConfig::default().with_monitor("monitor"));
        let mut monitor = bus.register("monitor").unwrap();
        let h = rt.spawn("talker", Arc::new(Echo)).unwrap();
        assert_eq!(h.delivery_failures(), 0);
        let err = h.ctx().send("ghost", Message::new(Performative::Tell)).unwrap_err();
        assert!(matches!(err, TransportError::UnknownAgent(_)));
        assert_eq!(h.delivery_failures(), 1);
        let env = monitor.recv_timeout(Duration::from_secs(1)).expect("monitor notified");
        assert_eq!(env.message.get_text("ontology"), Some(LOG_ONTOLOGY));
        let items = match env.message.content() {
            Some(SExpr::List(items)) => items.clone(),
            other => panic!("unexpected log content: {other:?}"),
        };
        assert_eq!(items[0], SExpr::atom("delivery-failure"));
        assert_eq!(items[1], SExpr::atom("talker"));
        assert_eq!(items[2], SExpr::atom("ghost"));
        assert_eq!(items[3], SExpr::atom("tell"));
        // A refused request is logged under the performative it carried,
        // not under a fixed one.
        let ping = Message::new(Performative::Ping);
        let err = h.ctx().request("ghost", ping, Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, TransportError::UnknownAgent(_)));
        assert_eq!(h.delivery_failures(), 2);
        let env = monitor.recv_timeout(Duration::from_secs(1)).expect("monitor notified");
        let items = env.message.content().and_then(SExpr::as_list).expect("log content");
        assert_eq!(items[2], SExpr::atom("ghost"));
        assert_eq!(items[3], SExpr::atom("ping"));
        rt.shutdown();
    }

    #[test]
    fn shutdown_unblocks_intra_runtime_requests() {
        // Two hosted agents, one blocked in a long request on the other's
        // silence: shutdown unregisters both, so the blocked request
        // fails fast and shutdown returns well before the timeout.
        struct Waiter;
        impl AgentBehavior for Waiter {
            fn on_message(&self, ctx: &AgentContext, env: Envelope) {
                if env.message.content() == Some(&SExpr::atom("go")) {
                    // "silent" never answers; a 30s timeout would hang
                    // shutdown if fail-fast didn't work.
                    let _ = ctx.request(
                        "silent",
                        Message::new(Performative::AskOne),
                        Duration::from_secs(30),
                    );
                }
            }
        }
        struct Mute;
        impl AgentBehavior for Mute {
            fn on_message(&self, _ctx: &AgentContext, _env: Envelope) {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        let (bus, rt) = runtime_on_bus(RuntimeConfig::default());
        let _w = rt.spawn("waiter", Arc::new(Waiter)).unwrap();
        let _s = rt.spawn("silent", Arc::new(Mute)).unwrap();
        let client = bus.register("client").unwrap();
        client
            .send("waiter", Message::new(Performative::Tell).with_content(SExpr::atom("go")))
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        rt.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown took {:?}",
            started.elapsed()
        );
    }
}
