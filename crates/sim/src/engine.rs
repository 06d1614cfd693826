//! The discrete-event core: virtual clock, event queue, processors, links.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A point in virtual time, stored as the IEEE-754 bit pattern of a
/// non-negative finite f64. For such floats the bit patterns order
/// exactly as the values do, so every heap comparison is a single `u64`
/// compare instead of a `total_cmp` call on the queue's sift-up and
/// sift-down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimeKey(u64);

impl TimeKey {
    fn from_seconds(t: f64) -> TimeKey {
        debug_assert!(t.is_finite() && t >= 0.0, "virtual time must be finite and non-negative");
        TimeKey(t.to_bits())
    }

    fn seconds(self) -> f64 {
        f64::from_bits(self.0)
    }
}

struct Scheduled<T> {
    at: TimeKey,
    seq: u64,
    tag: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Scheduled<T> {}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Scheduled<T> {
    /// Reversed so the `BinaryHeap` pops the *earliest* event; ties break
    /// by insertion order (FIFO) for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Identifier of a simulated processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcId(pub usize);

/// "At the lowest level of the simulator is a model of a processor, which
/// is the fundamental unit on which agents can run." Tasks queue FIFO; a
/// task submitted at `t` starts at `max(t, busy_until)` and runs for
/// `work / speed` seconds.
#[derive(Debug, Clone)]
struct Processor {
    /// Relative speed ("a relative measure of how fast they can compute").
    speed: f64,
    busy_until: f64,
    up: bool,
}

/// "The main parameter for the network is its speed or bandwidth … We also
/// modeled the network latency time."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Effective bandwidth in kilobytes per second.
    pub bandwidth_kb_per_s: f64,
    /// Per-message latency in seconds.
    pub latency_s: f64,
}

impl LinkModel {
    /// Transfer time for a message of `size_kb` kilobytes.
    pub fn transfer_time(&self, size_kb: f64) -> f64 {
        self.latency_s + size_kb / self.bandwidth_kb_per_s
    }
}

/// The simulation core, generic over the experiment's event tag type.
pub struct SimCore<T> {
    time: f64,
    seq: u64,
    heap: BinaryHeap<Scheduled<T>>,
    procs: Vec<Processor>,
    /// Network model for cross-processor messages.
    pub link: LinkModel,
    /// Latency used for messages between agents on the *same* processor
    /// (loopback; effectively free).
    pub local_latency_s: f64,
}

impl<T> SimCore<T> {
    pub fn new(link: LinkModel) -> Self {
        SimCore {
            time: 0.0,
            seq: 0,
            heap: BinaryHeap::new(),
            procs: Vec::new(),
            link,
            local_latency_s: 1e-4,
        }
    }

    /// The current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.time
    }

    /// Adds a processor with the given relative speed.
    pub fn add_processor(&mut self, speed: f64) -> ProcId {
        self.procs.push(Processor { speed, busy_until: 0.0, up: true });
        ProcId(self.procs.len() - 1)
    }

    pub fn is_up(&self, p: ProcId) -> bool {
        self.procs[p.0].up
    }

    /// Marks a processor failed or repaired. Failing clears its queue
    /// backlog (in-flight work is lost with the process).
    pub fn set_up(&mut self, p: ProcId, up: bool) {
        let proc = &mut self.procs[p.0];
        proc.up = up;
        if !up {
            proc.busy_until = self.time;
        }
    }

    /// Schedules `tag` to fire `delay` seconds from now.
    pub fn at(&mut self, delay: f64, tag: T) {
        debug_assert!(delay >= 0.0, "negative delay");
        let at = TimeKey::from_seconds(self.time + delay.max(0.0));
        self.seq += 1;
        self.heap.push(Scheduled { at, seq: self.seq, tag });
    }

    /// Submits `work_seconds` of computation (at speed 1.0) to a processor,
    /// FIFO-queued behind its current backlog; `tag` fires on completion.
    /// Work submitted to a down processor is silently dropped — the caller
    /// observes the loss through timeouts, as real peers would.
    pub fn exec(&mut self, p: ProcId, work_seconds: f64, tag: T) {
        let proc = &mut self.procs[p.0];
        if !proc.up {
            return;
        }
        let start = proc.busy_until.max(self.time);
        let finish = start + work_seconds.max(0.0) / proc.speed;
        proc.busy_until = finish;
        let at = TimeKey::from_seconds(finish);
        self.seq += 1;
        self.heap.push(Scheduled { at, seq: self.seq, tag });
    }

    /// Sends a message of `size_kb` across the network; `tag` fires at the
    /// delivery time. `local` selects loopback latency (agents colocated on
    /// one machine, as in the paper's single-broker runs).
    pub fn send(&mut self, size_kb: f64, local: bool, tag: T) {
        let delay = if local {
            self.local_latency_s + size_kb / self.link.bandwidth_kb_per_s
        } else {
            self.link.transfer_time(size_kb)
        };
        self.at(delay, tag);
    }

    /// Pops the next event, advancing the clock. `None` when the
    /// simulation has run dry.
    pub fn next_event(&mut self) -> Option<(f64, T)> {
        let ev = self.heap.pop()?;
        let at = ev.at.seconds();
        debug_assert!(at >= self.time, "time went backwards");
        self.time = at;
        Some((self.time, ev.tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> SimCore<&'static str> {
        SimCore::new(LinkModel { bandwidth_kb_per_s: 1500.0, latency_s: 0.05 })
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut s = sim();
        s.at(5.0, "b");
        s.at(1.0, "a");
        s.at(9.0, "c");
        assert_eq!(s.next_event(), Some((1.0, "a")));
        assert_eq!(s.next_event(), Some((5.0, "b")));
        assert_eq!(s.next_event(), Some((9.0, "c")));
        assert_eq!(s.next_event(), None);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut s = sim();
        s.at(1.0, "first");
        s.at(1.0, "second");
        assert_eq!(s.next_event().unwrap().1, "first");
        assert_eq!(s.next_event().unwrap().1, "second");
    }

    #[test]
    fn processor_queues_fifo() {
        let mut s = sim();
        let p = s.add_processor(1.0);
        s.exec(p, 10.0, "t1");
        s.exec(p, 5.0, "t2"); // queued behind t1
        assert_eq!(s.next_event(), Some((10.0, "t1")));
        assert_eq!(s.next_event(), Some((15.0, "t2")));
    }

    #[test]
    fn processor_speed_scales_work() {
        let mut s = sim();
        let fast = s.add_processor(2.0);
        s.exec(fast, 10.0, "t");
        assert_eq!(s.next_event(), Some((5.0, "t")));
    }

    #[test]
    fn processor_idles_between_tasks() {
        let mut s = sim();
        let p = s.add_processor(1.0);
        s.at(100.0, "wake");
        s.exec(p, 1.0, "early");
        assert_eq!(s.next_event(), Some((1.0, "early")));
        assert_eq!(s.next_event(), Some((100.0, "wake")));
        // New work starts now, not at old busy_until.
        s.exec(p, 1.0, "late");
        assert_eq!(s.next_event(), Some((101.0, "late")));
    }

    #[test]
    fn down_processor_drops_work() {
        let mut s = sim();
        let p = s.add_processor(1.0);
        s.set_up(p, false);
        assert!(!s.is_up(p));
        s.exec(p, 1.0, "lost");
        assert_eq!(s.next_event(), None);
        s.set_up(p, true);
        s.exec(p, 1.0, "done");
        assert_eq!(s.next_event(), Some((1.0, "done")));
    }

    #[test]
    fn failure_clears_backlog() {
        let mut s = sim();
        let p = s.add_processor(1.0);
        s.exec(p, 100.0, "doomed"); // completion event already queued: fires,
                                    // but new work does not wait behind it.
        s.set_up(p, false);
        s.set_up(p, true);
        s.exec(p, 1.0, "fresh");
        assert_eq!(s.next_event(), Some((1.0, "fresh")));
    }

    #[test]
    fn network_transfer_times() {
        let link = LinkModel { bandwidth_kb_per_s: 1500.0, latency_s: 0.05 };
        assert!((link.transfer_time(1500.0) - 1.05).abs() < 1e-9);
        assert!((link.transfer_time(0.0) - 0.05).abs() < 1e-9);
        let mut s = sim();
        s.send(1500.0, false, "remote");
        s.send(1500.0, true, "local");
        // Local message skips the 50ms latency, so it arrives first.
        assert_eq!(s.next_event().unwrap().1, "local");
        assert_eq!(s.next_event().unwrap().1, "remote");
    }
}
