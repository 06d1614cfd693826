//! The load generator: a pacer for open-loop schedules, the client side
//! of an `ask-all` / `update` conversation with a timestamp at every layer
//! boundary, and the answer checker.
//!
//! All timestamps are nanoseconds on one [`Clock`], shared with the
//! message tap, so client-side and fabric-side events line up.

use crate::community::{broker_name, CLI_ASK, CLI_WRITE, T};
use crate::gen::{Ask, Inputs};
use infosleuth_agent::{Endpoint, Transport};
use infosleuth_broker::codec;
use infosleuth_kqml::{Message, Performative};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Of the unique-query workload's answers, one in this many is kept and
/// checked against the oracle after the window.
pub const SAMPLE_EVERY: u64 = 16;

#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// A fixed send schedule: the `k`-th operation is due at
/// `start + k·period`, whatever happened to the ones before it.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    pub clock: Clock,
    pub start: u64,
    pub period: u64,
}

impl Pacer {
    pub fn per_second(clock: Clock, start: u64, rate: u64) -> Pacer {
        Pacer { clock, start, period: 1_000_000_000 / rate }
    }

    pub fn due(&self, k: u64) -> u64 {
        self.start + k * self.period
    }

    /// Waits until the `k`-th operation is due — sleeping while it is far
    /// off, spinning over the last stretch — and returns `(due, now)`.
    /// When the generator has fallen behind it returns at once: the
    /// operation is sent late and still timed from `due`.
    pub fn wait(&self, k: u64) -> (u64, u64) {
        // Sleeps overshoot by ~0.15 ms at the median and ~0.5 ms at the
        // 99th percentile on the 2-core sandbox; the spin absorbs that.
        const SPIN: u64 = 1_000_000;
        let due = self.due(k);
        loop {
            let now = self.clock.now();
            if now >= due {
                return (due, now);
            }
            if due - now > SPIN {
                std::thread::sleep(Duration::from_nanos(due - now - SPIN));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Client-side stamps of one request's send half.
#[derive(Debug, Clone, Copy, Default)]
pub struct SendRec {
    /// When the request was due (open loop: by schedule; closed loop: when
    /// the previous answer was complete).
    pub due: u64,
    pub enc0: u64,
    pub enc1: u64,
    /// When `Transport::send` returned; 0 if it failed.
    pub sent: u64,
}

/// Client-side stamps of one request's receive half.
#[derive(Debug, Clone, Copy)]
pub struct RecvRec {
    pub seq: u64,
    /// When `recv` handed the reply over.
    pub recv: u64,
    /// When the answer was decoded: the end of the round trip.
    pub done: u64,
    pub ok: bool,
    pub matches: u32,
}

/// One paced `update` → ack round trip.
#[derive(Debug, Clone, Copy)]
pub struct WriteRec {
    pub k: u64,
    pub due: u64,
    /// When the send actually started; `at - due` is the writer's lateness.
    pub at: u64,
    pub done: u64,
    pub ok: bool,
}

pub fn ask_message(to: &str, id: String, ask: &Ask) -> Message {
    let content = match ask.policy {
        Some(policy) => codec::search_request_to_sexpr(&codec::SearchRequest {
            query: ask.query.clone(),
            policy,
            visited: Vec::new(),
            digest_epoch: None,
        }),
        None => codec::service_query_to_sexpr(&ask.query),
    };
    Message::new(Performative::AskAll)
        .with_ontology("infosleuth-service")
        .with_content(content)
        .with_reply_with(id)
        .with_sender(CLI_ASK)
        .with_receiver(to)
}

/// The sending half of the ask client.
pub struct AskSender<'a> {
    pub inputs: &'a Inputs,
    pub transport: &'a Arc<dyn Transport>,
    pub clock: Clock,
    /// One record per sequence number, in order.
    pub recs: Vec<SendRec>,
}

impl AskSender<'_> {
    pub fn next_seq(&self) -> u64 {
        self.recs.len() as u64
    }

    /// Encodes and sends the next ask. `due` is when it should have gone
    /// out; the time from there to the encode starting is the generator's
    /// own lateness.
    pub fn send(&mut self, due: u64) -> bool {
        let seq = self.next_seq();
        let ask = self.inputs.ask(seq);
        let to = broker_name(ask.broker);
        let enc0 = self.clock.now();
        let msg = ask_message(&to, format!("a{seq}"), &ask);
        let enc1 = self.clock.now();
        let ok = self.transport.send(CLI_ASK, &to, msg).is_ok();
        let sent = if ok { self.clock.now() } else { 0 };
        self.recs.push(SendRec { due, enc0, enc1, sent });
        ok
    }
}

/// How answers are judged.
pub enum Check {
    /// Finite mixes: sorted match names per mix index, from the oracle.
    Exact(Vec<Vec<String>>),
    /// Unique queries: the receiver keeps one answer in [`SAMPLE_EVERY`]
    /// for the oracle to judge after the window.
    Sample,
    /// Answers race with writes: only require a well-formed reply here;
    /// the quiesced re-ask after the window does the judging.
    WellFormed,
}

pub fn sorted_names(matches: &[infosleuth_broker::MatchResult]) -> Vec<String> {
    let mut names: Vec<String> = matches.iter().map(|m| m.name.clone()).collect();
    names.sort_unstable();
    names
}

/// The receiving half of the ask client.
pub struct AskReceiver<'a> {
    pub inputs: &'a Inputs,
    pub ep: &'a mut Endpoint,
    pub check: &'a Check,
    pub clock: Clock,
    pub recs: Vec<RecvRec>,
    /// Answers kept under [`Check::Sample`]: sequence number, sorted names.
    pub sampled: Vec<(u64, Vec<String>)>,
}

impl AskReceiver<'_> {
    /// Receives and decodes one answer, waiting up to `wait`. The round
    /// trip ends when the match list is decoded; judging it comes after.
    pub fn recv(&mut self, wait: Duration) -> Option<u64> {
        let env = self.ep.recv_timeout(wait)?;
        let recv = self.clock.now();
        let seq: u64 = env.message.in_reply_to()?.strip_prefix('a')?.parse().ok()?;
        let decoded = match (&env.message.performative, env.message.content()) {
            (Performative::Reply | Performative::Sorry, Some(content)) => {
                codec::matches_from_sexpr(content).ok()
            }
            _ => None,
        };
        let done = self.clock.now();
        let (ok, matches) = match decoded {
            None => (false, 0),
            Some(matches) => {
                let ok = match self.check {
                    Check::Exact(expected) => self
                        .inputs
                        .mix_index(seq)
                        .is_some_and(|i| expected[i] == sorted_names(&matches)),
                    Check::Sample => {
                        if seq.is_multiple_of(SAMPLE_EVERY) {
                            self.sampled.push((seq, sorted_names(&matches)));
                        }
                        true
                    }
                    Check::WellFormed => true,
                };
                (ok, matches.len() as u32)
            }
        };
        self.recs.push(RecvRec { seq, recv, done, ok, matches });
        Some(seq)
    }
}

/// Waits for the reply to one specific ask (closed loop).
pub fn await_reply(rx: &mut AskReceiver<'_>, seq: u64) -> bool {
    let deadline = Instant::now() + T;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        if rx.recv(left) == Some(seq) {
            return true;
        }
    }
}

pub fn write_message(id: String, ad: &infosleuth_ontology::Advertisement) -> Message {
    Message::new(Performative::Update)
        .with_ontology("infosleuth-service")
        .with_content(codec::advertisement_to_sexpr(ad))
        .with_reply_with(id)
        .with_sender(CLI_WRITE)
        .with_receiver(broker_name(0))
}

/// Re-advertises on a fixed schedule until `until`, one update in flight
/// at a time; a slow ack makes the following updates late, and each is
/// timed from when it was due.
pub fn paced_writer(
    inputs: &Inputs,
    transport: &Arc<dyn Transport>,
    ep: &mut Endpoint,
    pacer: Pacer,
    until: u64,
) -> Vec<WriteRec> {
    let clock = pacer.clock;
    let to = broker_name(0);
    let mut recs = Vec::new();
    for k in 0.. {
        if pacer.due(k) >= until {
            break;
        }
        let ad = inputs.write(k);
        let (due, at) = pacer.wait(k);
        let id = format!("w{k}");
        let sent_ok = transport.send(CLI_WRITE, &to, write_message(id.clone(), &ad)).is_ok();
        let deadline = Instant::now() + T;
        let mut ok = false;
        if sent_ok {
            while let Some(env) =
                ep.recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                if env.message.in_reply_to() == Some(id.as_str()) {
                    ok = env.message.performative == Performative::Tell;
                    break;
                }
            }
        }
        recs.push(WriteRec { k, due, at, done: clock.now(), ok });
    }
    recs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stalled transport must show up twice: as generator lateness, and
    /// in the latency of the requests queued behind the stall — which is
    /// only visible because latency runs from the due time, not the send.
    #[test]
    fn pacer_times_from_due_and_reports_lateness_behind_a_stall() {
        let clock = Clock::start();
        let pacer = Pacer { clock, start: clock.now() + 1_000_000, period: 1_000_000 };
        let stall = Duration::from_millis(20);
        let mut late = Vec::new();
        let mut from_due = Vec::new();
        let mut from_send = Vec::new();
        for k in 0..60u64 {
            let (due, at) = pacer.wait(k);
            assert_eq!(due, pacer.due(k));
            assert!(at >= due, "never sends early");
            late.push(at - due);
            // The fake transport: returns at once, except for one stall.
            if k == 10 {
                std::thread::sleep(stall);
            }
            let done = clock.now();
            from_due.push(done - due);
            from_send.push(done - at);
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        assert!(ms(late[9]) < 5.0, "on schedule before the stall: {late:?}");
        assert!(ms(late[11]) > 15.0, "the send behind the stall is late: {}", ms(late[11]));
        assert!(ms(from_due[11]) > 15.0, "and is charged the wait: {}", ms(from_due[11]));
        assert!(ms(from_send[11]) < 5.0, "which send-relative timing would hide");
        // 1 ms period, 20 ms stall: the backlog drains one period per send.
        assert!(late[12] < late[11] && late[20] < late[12], "backlog drains: {late:?}");
        assert!(ms(late[59]) < 5.0, "caught up by the end: {}", ms(late[59]));
    }

    #[test]
    fn pacer_due_times_are_a_fixed_grid() {
        let clock = Clock::start();
        let p = Pacer::per_second(clock, 5_000, 400);
        assert_eq!(p.period, 2_500_000);
        assert_eq!(p.due(0), 5_000);
        assert_eq!(p.due(400), 5_000 + 1_000_000_000);
    }
}
