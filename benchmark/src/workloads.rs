//! The four workloads: set-up, the measured window, the checks after it,
//! and the metrics read off the window's own samples.

use crate::community::{broker_name, drain_deltas, Community, T};
use crate::gen::{self, Inputs, CHURN, FORWARD, HIT, MISS};
use crate::loadgen::{
    await_reply, paced_writer, sorted_names, AskReceiver, AskSender, Check, Clock, Pacer, RecvRec,
    SendRec, WriteRec, SAMPLE_EVERY,
};
use crate::replay::{replay, Sample};
use crate::stats::{median, summarize, Summary, MIN_SAMPLES};
use crate::trace::{request_traces, span_lines, Kind, RequestTrace, TraceLog, SPAN_FILE_CAP};
use infosleuth_agent::{RuntimeConfig, TransportExt};
use infosleuth_broker::{query_broker, MatchCacheStats, Matchmaker, Repository, RoutingStats};
use infosleuth_ontology::ServiceQuery;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Open-loop ask rate of `hit_open_bus`'s base phase.
pub const HIT_RATE: u64 = 400;
/// Requests `hit_open_bus`'s saturate phase keeps outstanding: as many as
/// the runtime will handle for one agent at once, read from the shipped
/// default so a change of it shows. Deeper pipelines were tried (64): how
/// many asks the dispatcher then takes per poll cycle settles into one of
/// several patterns (4, 6 or 10 per cycle; 1 800, 2 700 or 4 500 asks/s)
/// that holds for a whole run and differs between runs, so the number
/// said more about the sandbox's scheduler than about the broker.
pub fn saturate_depth() -> usize {
    RuntimeConfig::default().per_agent_inflight
}
/// Paced re-advertisements per second on `churn_mixed_bus`.
pub const WRITE_RATE: u64 = 100;
/// The open-loop latency limit: `ask_p99_us` at the base rate.
pub const LATENCY_LIMIT_US: f64 = 10_000.0;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Short windows: the sample-count floor is not enforced.
    pub smoke: bool,
}

impl Options {
    /// Complete set-ups per run; `setup_s` is their median. A traced run
    /// reports no set-up time and a smoke run only checks that it is there,
    /// so both set up once.
    pub fn setups(&self) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            3
        }
    }
}

pub struct Verdict {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub struct Outcome {
    pub workload: &'static str,
    /// Measured metrics by `BENCHMARK.json` name (only those that apply).
    pub values: Vec<(&'static str, f64)>,
    /// Stand-ins, in the contract's summary line only, for end-to-end
    /// metrics that do not apply to this workload: that line must carry
    /// every declared metric, measured and never 0.
    pub contract_fill: Vec<(&'static str, f64)>,
    /// The timings behind the percentiles, for `min ≤ p50 ≤ p99 ≤ max`.
    pub distributions: Vec<(&'static str, Summary)>,
    pub attempted: u64,
    pub failed: u64,
    /// Answer and population checks: any failure fails the run.
    pub checks: Vec<Verdict>,
    /// Measurement validity (sample counts, generator lateness): reported,
    /// not fatal; `--compare` calls a workload with a failed one `unresolved`.
    pub validity: Vec<Verdict>,
    /// Open-loop phase only: p99 within the limit, no growing backlog.
    pub limit_met: Option<bool>,
    /// Span lines of the traced requests (traced runs only).
    pub spans: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
    pub fn valid(&self) -> bool {
        self.validity.iter().all(|v| v.ok)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Phase {
    start: u64,
    end: u64,
    first_seq: u64,
    end_seq: u64,
}

impl Phase {
    fn secs(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
    fn holds(&self, seq: u64) -> bool {
        (self.first_seq..self.end_seq).contains(&seq)
    }
}

/// Everything one window recorded.
#[derive(Default)]
struct Window {
    sends: Vec<SendRec>,
    recvs: Vec<RecvRec>,
    /// Answers kept for the oracle to judge after the window.
    sampled: Vec<(u64, Vec<String>)>,
    writes: Vec<WriteRec>,
    /// The phase `ask_p50_us` / `ask_p99_us` are read from.
    latency: Phase,
    /// `hit_open_bus` only: the pipelined capacity phase.
    saturate: Option<Phase>,
    /// First ask sent with the tap on (traced runs).
    traced_from: Option<u64>,
    /// Period of the open-loop schedule, where there is one.
    period: Option<u64>,
}

/// Turns the tap on once the latency phase is half over, so one traced
/// run yields both an untraced and a traced `ask_p50_us`.
struct Flip<'a> {
    log: Option<&'a Arc<TraceLog>>,
    at: u64,
    seq: Option<u64>,
}

impl Flip<'_> {
    fn check(&mut self, now: u64, next_seq: u64) {
        if let (Some(log), None) = (self.log, self.seq) {
            if now >= self.at {
                log.switch(true);
                self.seq = Some(next_seq);
            }
        }
    }
}

fn ns(seconds: f64) -> u64 {
    (seconds * 1e9) as u64
}

/// What the linear reference matcher answers over the harness's mirror.
fn oracle(mirror: &mut Repository, query: &ServiceQuery) -> Vec<String> {
    let model = mirror.saturated();
    sorted_names(&Matchmaker::default().match_query_linear(mirror, &model, query))
}

fn build_mirror(inputs: &Inputs) -> Result<Repository, String> {
    let mut mirror = Repository::new();
    mirror.register_ontology(inputs.ontology.clone());
    for ad in &inputs.ads {
        mirror.advertise(ad.clone()).map_err(|e| format!("mirror rejects a generated ad: {e}"))?;
    }
    Ok(mirror)
}

fn cache_stats(c: &Community) -> MatchCacheStats {
    let mut sum = MatchCacheStats::default();
    for b in &c.brokers {
        let s = b.match_cache_stats();
        sum.hits += s.hits;
        sum.misses += s.misses;
        sum.stale += s.stale;
    }
    sum
}

fn routing_stats(c: &Community) -> RoutingStats {
    let mut sum = RoutingStats::default();
    for b in &c.brokers {
        let s = b.routing_stats();
        sum.forwards += s.forwards;
        sum.digest_pruned += s.digest_pruned;
        sum.digest_fp += s.digest_fp;
    }
    sum
}

/// `VmHWM` of this process in MiB: the harness, its mirror and the
/// community together. A high-water mark never falls, so it is one
/// workload's footprint only in a process that runs one workload once —
/// which is how `main` measures every (workload, run).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `hit_open_bus`: open loop at a fixed rate from this thread while a
/// second thread receives, then one endpoint keeping `saturate_depth()`
/// asks outstanding.
fn window_hit(
    c: &mut Community,
    inputs: &Inputs,
    check: &Check,
    clock: Clock,
    opt: &Options,
    log: Option<&Arc<TraceLog>>,
) -> Window {
    let base = ns(opt.seconds * 2.0 / 3.0);
    let pacer = Pacer::per_second(clock, clock.now() + 5_000_000, HIT_RATE);
    let base_end = pacer.start + base;
    let mut flip = Flip { log, at: pacer.start + base / 2, seq: None };
    let mut tx = AskSender { inputs, transport: &c.client_transport, clock, recs: Vec::new() };
    let mut rx = AskReceiver {
        inputs,
        ep: &mut c.ask_ep,
        check,
        clock,
        recs: Vec::new(),
        sampled: Vec::new(),
    };
    let sent = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut idle_since_done = 0u32;
            loop {
                let got = rx.recv(Duration::from_millis(10)).is_some();
                if sender_done.load(Ordering::Acquire) {
                    if rx.recs.len() as u64 >= sent.load(Ordering::Acquire) {
                        break;
                    }
                    idle_since_done = if got { 0 } else { idle_since_done + 1 };
                    if idle_since_done as u128 * 10 >= T.as_millis() {
                        break;
                    }
                }
            }
        });
        for k in 0.. {
            if pacer.due(k) >= base_end {
                break;
            }
            let (due, now) = pacer.wait(k);
            flip.check(now, tx.next_seq());
            tx.send(due);
            sent.store(tx.next_seq(), Ordering::Release);
        }
        sender_done.store(true, Ordering::Release);
        receiver.join().expect("receiver thread");
    });
    let latency = Phase { start: pacer.start, end: base_end, first_seq: 0, end_seq: tx.next_seq() };

    // Saturate: fill the pipe, then one send per reply.
    let depth = saturate_depth();
    let start = clock.now();
    let end = start + ns(opt.seconds) - base;
    let first_seq = tx.next_seq();
    let mut outstanding = 0usize;
    while outstanding < depth {
        tx.send(clock.now());
        outstanding += 1;
    }
    while outstanding > 0 {
        if rx.recv(T).is_none() {
            break;
        }
        outstanding -= 1;
        let now = clock.now();
        if now < end {
            tx.send(now);
            outstanding += 1;
        }
    }
    let saturate = Phase { start, end, first_seq, end_seq: tx.next_seq() };
    Window {
        sends: tx.recs,
        recvs: rx.recs,
        sampled: rx.sampled,
        latency,
        saturate: Some(saturate),
        traced_from: flip.seq,
        period: Some(pacer.period),
        ..Window::default()
    }
}

/// One closed-loop client: the next ask goes out when the previous answer
/// is decoded. With `writer`, a second thread re-advertises on a schedule.
fn window_closed(
    c: &mut Community,
    inputs: &Inputs,
    check: &Check,
    clock: Clock,
    opt: &Options,
    log: Option<&Arc<TraceLog>>,
    writer: bool,
) -> Window {
    let start = clock.now();
    let end = start + ns(opt.seconds);
    let mut flip = Flip { log, at: start + ns(opt.seconds) / 2, seq: None };
    let transport = Arc::clone(&c.client_transport);
    let mut tx = AskSender { inputs, transport: &transport, clock, recs: Vec::new() };
    let mut rx = AskReceiver {
        inputs,
        ep: &mut c.ask_ep,
        check,
        clock,
        recs: Vec::new(),
        sampled: Vec::new(),
    };
    let pacer = Pacer::per_second(clock, start, WRITE_RATE);
    let mut write_ep = c.write_ep.as_mut().filter(|_| writer);
    let mut writes = Vec::new();
    std::thread::scope(|s| {
        let transport = &transport;
        let writing = write_ep
            .take()
            .map(|ep| s.spawn(move || paced_writer(inputs, transport, ep, pacer, end)));
        let mut due = start;
        loop {
            let now = clock.now();
            if now >= end {
                break;
            }
            flip.check(now, tx.next_seq());
            let seq = tx.next_seq();
            let think = inputs.think_ns(seq);
            if think > 0 {
                std::thread::sleep(Duration::from_nanos(think));
                due = clock.now();
            }
            if tx.send(due) {
                await_reply(&mut rx, seq);
            }
            due = clock.now();
        }
        if let Some(handle) = writing {
            writes = handle.join().expect("writer thread");
        }
    });
    Window {
        latency: Phase { start, end: clock.now().max(end), first_seq: 0, end_seq: tx.next_seq() },
        sends: tx.recs,
        recvs: rx.recs,
        sampled: rx.sampled,
        writes,
        traced_from: flip.seq,
        period: writer.then_some(pacer.period),
        ..Window::default()
    }
}

fn us(samples: impl Iterator<Item = u64>) -> Vec<f64> {
    samples.map(|ns| ns as f64 / 1e3).collect()
}

/// Cuts a phase into half-second slices.
fn half_seconds(start: u64, end: u64) -> Vec<(u64, u64)> {
    const SLICE: u64 = 500_000_000;
    let slices = ((end - start) / SLICE).max(1);
    let width = (end - start) / slices;
    (0..slices).map(|i| (start + i * width, start + (i + 1) * width)).collect()
}

/// Completions per second as the median over time slices, each slice's
/// rate taken between its first and last completion. A stall that empties
/// a slice or two does not move it, so beside `ask_per_s`, which counts
/// the whole phase, it tells a stalled run from a slow one.
fn sliced_rate(done_at: &[u64], slices: &[(u64, u64)]) -> Option<f64> {
    let rates: Vec<f64> = slices
        .iter()
        .filter_map(|(lo, hi)| {
            let inside =
                &done_at[done_at.partition_point(|t| t < lo)..done_at.partition_point(|t| t < hi)];
            let (first, last) = (inside.first()?, inside.last()?);
            (last > first).then(|| (inside.len() - 1) as f64 / ((last - first) as f64 / 1e9))
        })
        .collect();
    (!rates.is_empty()).then(|| median(&rates))
}

/// Outstanding asks at the end of each third of the open-loop phase.
fn backlog_by_thirds(w: &Window) -> [usize; 3] {
    let done_at: std::collections::HashMap<u64, u64> =
        w.recvs.iter().map(|r| (r.seq, r.done)).collect();
    let third = (w.latency.end - w.latency.start) / 3;
    [1, 2, 3].map(|i| {
        let t = w.latency.start + i * third;
        (w.latency.first_seq..w.latency.end_seq)
            .filter(|seq| {
                let s = &w.sends[*seq as usize];
                s.sent != 0 && s.sent <= t && done_at.get(seq).is_none_or(|d| *d > t)
            })
            .count()
    })
}

/// Counter readings taken either side of the window.
#[derive(Clone, Copy)]
struct Counters {
    cache: MatchCacheStats,
    routing: RoutingStats,
    pings: u64,
}

impl Counters {
    fn read(c: &Community) -> Counters {
        Counters {
            cache: cache_stats(c),
            routing: routing_stats(c),
            pings: c.stub.pings.load(Ordering::Relaxed),
        }
    }
}

/// What the counters say happened during the window.
struct Activity {
    hit_ratio: f64,
    stale_ratio: f64,
    forwards: f64,
    pruned: f64,
    fp_ratio: f64,
    pings: f64,
}

impl Activity {
    fn between(before: Counters, after: Counters) -> Activity {
        let (c0, c1, r0, r1) = (before.cache, after.cache, before.routing, after.routing);
        let lookups = (c1.hits + c1.misses - c0.hits - c0.misses).max(1) as f64;
        let forwards = (r1.forwards - r0.forwards) as f64;
        Activity {
            hit_ratio: (c1.hits - c0.hits) as f64 / lookups,
            stale_ratio: (c1.stale - c0.stale) as f64 / lookups,
            forwards,
            pruned: (r1.digest_pruned - r0.digest_pruned) as f64,
            fp_ratio: if forwards > 0.0 {
                (r1.digest_fp - r0.digest_fp) as f64 / forwards
            } else {
                0.0
            },
            pings: (after.pings - before.pings) as f64,
        }
    }
}

/// The answers that can only be judged once the window is over: the
/// unique-query sample, and on `churn_mixed_bus` a quiesced re-ask of the
/// whole mix plus the subscriber's queued deltas. Returns how many answers
/// were wrong and how many deltas arrived.
fn judge_after_window(
    c: &mut Community,
    inputs: &Inputs,
    check: &Check,
    mirror: &mut Repository,
    w: &Window,
    opt: &Options,
    checks: &mut Vec<Verdict>,
) -> Result<(u64, usize), String> {
    let mut wrong_total = 0;
    let mut deltas = 0;
    if matches!(check, Check::Sample) {
        let kept = &w.sampled;
        let wrong = kept
            .iter()
            .filter(|(seq, names)| &oracle(mirror, &inputs.ask(*seq).query) != names)
            .count();
        wrong_total += wrong;
        checks.push(Verdict {
            name: "sampled_answers_match_oracle",
            ok: wrong == 0 && (opt.smoke || !kept.is_empty()),
            detail: format!("{wrong} wrong of {} sampled (1 in {SAMPLE_EVERY})", kept.len()),
        });
    }
    if inputs.workload == CHURN {
        for rec in w.writes.iter().filter(|r| r.ok) {
            mirror
                .advertise(inputs.write(rec.k))
                .map_err(|e| format!("mirror rejects a write: {e}"))?;
        }
        let mut ep =
            c.client_transport.endpoint("cli-check").map_err(|e| format!("check endpoint: {e}"))?;
        let mut wrong = 0;
        for q in &inputs.mix {
            let got = query_broker(&mut ep, &broker_name(0), q, None, T)
                .map_err(|e| format!("quiesced re-ask: {e}"))?;
            wrong += usize::from(sorted_names(&got) != oracle(mirror, q));
        }
        ep.unregister();
        wrong_total += wrong;
        checks.push(Verdict {
            name: "quiesced_answers_match_oracle",
            ok: wrong == 0,
            detail: format!("{wrong} wrong of {}", inputs.mix.len()),
        });
        let drained = match c.sub_ep.as_mut() {
            Some(ep) => drain_deltas(ep, &mut c.sub_epochs),
            None => Err("no subscriber endpoint".into()),
        };
        deltas = *drained.as_ref().unwrap_or(&0);
        checks.push(Verdict {
            name: "delta_epochs_monotonic",
            ok: drained.is_ok(),
            detail: drained.map_or_else(|e| e, |n| format!("{n} deltas drained")),
        });
    }
    Ok((wrong_total as u64, deltas))
}

/// What the traced half of the window says about each layer: medians over
/// the span trees, the tap's counts, and the replays on the twin.
#[allow(clippy::too_many_arguments)]
fn layer_values(
    inputs: &Inputs,
    log: &TraceLog,
    w: &Window,
    digests: Vec<infosleuth_broker::CapabilityDigest>,
    untraced_p50: f64,
    traced_p50: f64,
    checks: &mut Vec<Verdict>,
    spans: &mut String,
) -> Result<Vec<(&'static str, f64)>, String> {
    let (events, requests, replies) = log.take();
    let traces: Vec<_> =
        request_traces(&events, &w.sends, &w.recvs, w.traced_from.unwrap_or(u64::MAX))
            .into_iter()
            .filter(|t| w.latency.holds(t.seq))
            .collect();
    if traces.is_empty() {
        return Err("the tap recorded no complete request".into());
    }
    for t in traces.iter().take(SPAN_FILE_CAP) {
        span_lines(t, spans);
    }
    let med_of = |f: &dyn Fn(&RequestTrace) -> u64| {
        median(&traces.iter().map(|t| f(t) as f64).collect::<Vec<_>>())
    };
    let encode = med_of(&|t| t.send.enc1 - t.send.enc0);
    let decode = med_of(&|t| t.recv.done - t.recv.recv);
    let send = med_of(&|t| t.send.sent.saturating_sub(t.send.enc1));
    let in_broker = med_of(&|t| t.in_broker.1 - t.in_broker.0);
    let delivery = med_of(&|t| t.recv.recv.saturating_sub(t.in_broker.1));
    let lateness = med_of(&|t| t.send.enc0.saturating_sub(t.send.due));
    // Every stay in a broker: the entry broker's own share, and each hop.
    let stays: Vec<f64> = traces
        .iter()
        .flat_map(|t| std::iter::once(t.entry_self()).chain(t.hops.iter().map(|(a, b)| b - a)))
        .map(|ns| ns as f64)
        .collect();
    let traced_asks = traces.len() as f64;
    let first_at = traces.iter().map(|t| t.in_broker.0).min().unwrap_or(0);
    let last_at = traces.iter().map(|t| t.in_broker.1).max().unwrap_or(0);
    let hops = events
        .iter()
        .filter(|e| e.cross && (first_at..=last_at).contains(&e.t))
        .filter(|e| {
            matches!(e.kind, Kind::AskIn | Kind::AskOut | Kind::ForwardIn | Kind::ForwardOut)
        })
        .count() as f64
        / traced_asks;
    let tcp = inputs.workload == FORWARD;
    checks.push(if tcp {
        Verdict {
            name: "asks_cross_nodes",
            ok: hops >= 2.0,
            detail: format!("{hops:.2} cross-node sends per ask"),
        }
    } else {
        Verdict {
            name: "no_hops_on_the_bus",
            ok: hops == 0.0,
            detail: format!("{hops} cross-node sends per ask"),
        }
    });
    let replayed = replay(&Sample { inputs, requests: &requests, replies: &replies, digests });
    let handler_ask =
        replayed.iter().find(|(n, _)| *n == "broker.handler_ask_us").map_or(0.0, |(_, v)| *v);
    let covered = lateness + encode + in_broker + delivery + decode;
    let mut values = vec![
        ("client.encode_ns", encode),
        ("client.decode_ns", decode),
        if tcp { ("tcp.send_us", send / 1e3) } else { ("bus.send_ns", send) },
        ("tcp.hops_per_ask", hops),
        ("runtime.in_broker_us", in_broker / 1e3),
        ("runtime.dispatch_wait_us", (median(&stays) / 1e3 - handler_ask).max(0.0)),
        ("runtime.reply_delivery_us", delivery / 1e3),
        ("trace.overhead_pct", 100.0 * (traced_p50 - untraced_p50) / untraced_p50),
        ("trace.residual_pct", 100.0 * (traced_p50 - covered / 1e3) / traced_p50),
    ];
    values.extend(replayed);
    Ok(values)
}

pub fn run_once(workload: &str, opt: &Options) -> Result<Outcome, String> {
    let inputs = gen::generate(workload, opt.seed)
        .ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let workload = inputs.workload;
    // Expected answers come from the harness's own mirror of every ad,
    // through the linear reference matcher — before any clock starts.
    let mut mirror = build_mirror(&inputs)?;
    let check = match workload {
        MISS => Check::Sample,
        CHURN => Check::WellFormed,
        _ => Check::Exact(inputs.mix.iter().map(|q| oracle(&mut mirror, q)).collect()),
    };
    let clock = Clock::start();
    let log = opt.trace.then(|| TraceLog::new(clock, if workload == FORWARD { 3 } else { 1 }));

    let set_up = Community::set_up(&inputs, log.as_ref())?;
    let mut setup_secs = vec![set_up.seconds];
    let mut advertise_us = us(set_up.advertise_ns.into_iter());
    let mut c = set_up.community;

    let size_before = c.repository_len();
    let before = Counters::read(&c);
    let w = match workload {
        HIT => window_hit(&mut c, &inputs, &check, clock, opt, log.as_ref()),
        _ => window_closed(&mut c, &inputs, &check, clock, opt, log.as_ref(), workload == CHURN),
    };
    if let Some(log) = &log {
        log.switch(false);
    }
    // Read before the extra set-ups below: the high-water mark then covers
    // one community and its window, not what three left behind in the heap.
    let rss_mib = peak_rss_mib();
    let activity = Activity::between(before, Counters::read(&c));

    let mut checks: Vec<Verdict> = Vec::new();
    let (wrong_late, deltas) =
        judge_after_window(&mut c, &inputs, &check, &mut mirror, &w, opt, &mut checks)?;

    // Population self-checks: the workload must still be what its name says.
    let mut verdict = |name: &'static str, ok: bool, detail: String| {
        checks.push(Verdict { name, ok, detail });
    };
    let (size_after, expected) = (c.repository_len(), inputs.ads.len());
    verdict(
        "repository_size_constant",
        size_before == expected && size_after == expected && mirror.len() == expected,
        format!(
            "before {size_before}, after {size_after}, mirror {}, generated {expected}",
            mirror.len()
        ),
    );
    let hit_ratio = activity.hit_ratio;
    match workload {
        HIT => verdict("cache_hit_ratio_high", hit_ratio >= 0.99, format!("{hit_ratio:.4}")),
        MISS => verdict("cache_hit_ratio_low", hit_ratio <= 0.01, format!("{hit_ratio:.4}")),
        _ => {}
    }
    verdict("digest_fp_ratio_low", activity.fp_ratio < 0.05, format!("{:.4}", activity.fp_ratio));
    if workload == FORWARD {
        verdict(
            "forwards_happen",
            activity.forwards > 0.0,
            format!("{} forwards", activity.forwards),
        );
    } else {
        verdict(
            "no_forwards_on_one_broker",
            activity.forwards == 0.0,
            format!("{} forwards", activity.forwards),
        );
    }

    // Done with the live community; the extra set-ups behind `setup_s`
    // run after the window so they cannot disturb it.
    let hosted_agents = c.hosted_agents as f64;
    let repository_bytes = c.repository_bytes() as f64;
    let digests = if opt.trace && c.brokers.len() > 1 {
        c.brokers.iter().map(|b| b.digest()).collect()
    } else {
        Vec::new()
    };
    c.teardown();
    if !opt.trace {
        for _ in 1..opt.setups() {
            let extra = Community::set_up(&inputs, None)?;
            setup_secs.push(extra.seconds);
            advertise_us.extend(us(extra.advertise_ns.into_iter()));
            extra.community.teardown();
        }
    }

    // Latency and throughput off the window's own samples.
    let lat_of = |r: &RecvRec| r.done - w.sends[r.seq as usize].due;
    let in_latency: Vec<&RecvRec> =
        w.recvs.iter().filter(|r| r.ok && w.latency.holds(r.seq)).collect();
    let traced_from = w.traced_from.unwrap_or(u64::MAX);
    let mut untraced = us(in_latency.iter().filter(|r| r.seq < traced_from).map(|r| lat_of(r)));
    let mut traced = us(in_latency.iter().filter(|r| r.seq >= traced_from).map(|r| lat_of(r)));
    let ask = summarize(&mut untraced).ok_or("no ask completed in the window")?;
    let throughput = w.saturate.unwrap_or(w.latency);
    let mut done_at: Vec<u64> = w
        .recvs
        .iter()
        .filter(|r| r.ok && throughput.holds(r.seq) && r.done <= throughput.end)
        .map(|r| r.done)
        .collect();
    done_at.sort_unstable();
    let ask_per_s = done_at.len() as f64 / throughput.secs();
    let sliced_ask_per_s =
        sliced_rate(&done_at, &half_seconds(throughput.start, throughput.end)).unwrap_or(0.0);
    let setup_advertise =
        summarize(&mut advertise_us).ok_or("no advertisement completed during set-up")?;
    let mut write_lat = us(w.writes.iter().filter(|r| r.ok).map(|r| r.done - r.due));
    let write = summarize(&mut write_lat);
    if workload == CHURN && write.is_none() {
        return Err("no re-advertisement completed in the window".into());
    }

    let ok_asks = w.recvs.iter().filter(|r| r.ok).count() as u64;
    let ok_writes = w.writes.iter().filter(|r| r.ok).count() as u64;
    let attempted = (w.sends.len() + w.writes.len()) as u64;
    let failed = attempted - ok_asks - ok_writes + wrong_late;

    // Validity of the measurement itself.
    let mut validity = Vec::new();
    let floor = if opt.smoke { 1 } else { MIN_SAMPLES };
    validity.push(Verdict {
        name: "ask_samples",
        ok: ask.n >= floor,
        detail: format!("{} samples, floor {floor}", ask.n),
    });
    if let Some(write) = &write {
        validity.push(Verdict {
            name: "write_samples",
            ok: write.n >= floor,
            detail: format!("{} samples, floor {floor}", write.n),
        });
    }
    let mut late = match workload {
        CHURN => us(w.writes.iter().map(|r| r.at - r.due)),
        _ => us((w.latency.first_seq..w.latency.end_seq)
            .map(|seq| &w.sends[seq as usize])
            .map(|s| s.enc0.saturating_sub(s.due))),
    };
    let late = summarize(&mut late).ok_or("no send recorded")?;
    if let Some(period) = w.period {
        let quarter = period as f64 / 4e3;
        validity.push(Verdict {
            name: "generator_on_schedule",
            ok: late.tail <= quarter,
            detail: format!(
                "late p50 {:.1} us, p99 {:.1} us; a quarter period is {quarter:.1} us",
                late.p50, late.tail
            ),
        });
    }
    let limit_met = (workload == HIT).then(|| {
        let backlog = backlog_by_thirds(&w);
        ask.tail <= LATENCY_LIMIT_US && backlog[2] <= backlog[0] + 16
    });

    let mut distributions =
        vec![("ask_us", ask.clone()), ("setup_advertise_us", setup_advertise.clone())];
    distributions.extend(write.iter().map(|w| ("write_us", w.clone())));
    let (write_p50, write_p99) = write.map_or((0.0, 0.0), |w| (w.p50, w.tail));
    let mut spans = String::new();
    let mut values: Vec<(&'static str, f64)> = match &log {
        None => vec![
            ("setup_s", median(&setup_secs)),
            ("ask_p50_us", ask.p50),
            ("ask_per_s", ask_per_s),
            ("write_p50_us", write_p50),
            ("rss_mb", rss_mib),
        ],
        Some(log) => {
            let traced_ask = summarize(&mut traced).ok_or("no ask completed with the tap on")?;
            distributions.push(("ask_traced_us", traced_ask.clone()));
            let offered = match workload {
                CHURN => w.writes.len() as f64,
                _ => (w.latency.end_seq - w.latency.first_seq) as f64,
            } / w.latency.secs();
            let asks_sent = w.sends.len().max(1) as f64;
            let matches: f64 = w.recvs.iter().filter(|r| r.ok).map(|r| f64::from(r.matches)).sum();
            let window_secs = w.saturate.map_or(w.latency.end, |s| s.end) - w.latency.start;
            let mut values = vec![
                ("loadgen.offered_per_s", offered),
                ("loadgen.late_p99_us", late.tail),
                ("client.ask_p99_us", ask.tail),
                ("client.write_p99_us", write_p99),
                ("client.sliced_ask_per_s", sliced_ask_per_s),
                ("runtime.hosted_agents", hosted_agents),
                ("cache.hit_ratio", activity.hit_ratio),
                ("cache.stale_ratio", activity.stale_ratio),
                ("matchmaker.matches_per_ask", matches / ok_asks.max(1) as f64),
                ("repository.size_bytes", repository_bytes),
                ("sub_index.deltas_per_write", deltas as f64 / ok_writes.max(1) as f64),
                ("digest.forwards_per_ask", activity.forwards / asks_sent),
                ("digest.pruned_per_ask", activity.pruned / asks_sent),
                ("digest.fp_ratio", activity.fp_ratio),
                ("liveness.pings_per_s", activity.pings / (window_secs as f64 / 1e9)),
            ];
            values.extend(layer_values(
                &inputs,
                log,
                &w,
                digests,
                ask.p50,
                traced_ask.p50,
                &mut checks,
                &mut spans,
            )?);
            values
        }
    };
    let defs = crate::metrics::defs(opt.trace);
    values.retain(|(name, _)| defs.iter().any(|d| d.name == *name && d.applies(workload)));
    // Only `churn_mixed_bus` writes during its window; elsewhere the
    // contract line carries the set-up's advertise round trips in the
    // metric's place.
    let contract_fill =
        if workload == CHURN { Vec::new() } else { vec![("write_p50_us", setup_advertise.p50)] };
    Ok(Outcome {
        workload,
        values,
        contract_fill,
        distributions,
        attempted,
        failed,
        checks,
        validity,
        limit_met,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliced_rate_ignores_one_stalled_slice() {
        // 1 000 completions/s for four seconds, with nothing at all
        // completing during the third half-second.
        let ms = 1_000_000u64;
        let done: Vec<u64> =
            (0..4000).map(|i| i * ms).filter(|t| !(1000 * ms..1500 * ms).contains(t)).collect();
        let slices = half_seconds(0, 4000 * ms);
        assert_eq!(slices.len(), 8);
        let rate = sliced_rate(&done, &slices).unwrap();
        assert!((rate - 1000.0).abs() < 1.0, "median slice rate {rate}");
        // The plain count over the window would have read 12.5 % low.
        assert_eq!(done.len(), 3500);
        assert!(sliced_rate(&[], &slices).is_none());
        assert!(sliced_rate(&[5 * ms], &slices).is_none());
    }
}
