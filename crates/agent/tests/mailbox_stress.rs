//! The enqueue-vs-decide-to-sleep race of a mailbox, under stress: every
//! hop of a ping-pong is a `deliver` racing the other side's decision to
//! wait, and a receiver that lost the wake-up sleeps out its whole
//! patience — so no receive may time out and no round trip may last that
//! long.
//!
//! A test binary of its own: two threads busy for a second would starve
//! the 80 ms conversations of `transport::tests` if they shared one.

use infosleuth_agent::{mailbox, Envelope};
use infosleuth_kqml::{Message, Performative, SExpr};
use std::time::{Duration, Instant};

const ROUND_TRIPS: usize = 200_000;

/// A second, not the 50 ms a wake-up could reasonably be given: this
/// container's vCPUs are seen stolen for that long, and a lost wake-up
/// sleeps out whatever patience it is given.
const PATIENCE: Duration = Duration::from_secs(1);

fn envelope(n: usize) -> Envelope {
    let message = Message::new(Performative::Tell).with_content(SExpr::atom(n.to_string()));
    Envelope { from: "ping".into(), to: "pong".into(), message }
}

#[test]
fn ping_pong_never_loses_a_wake_up() {
    let (to_pong, pong_rx) = mailbox();
    let (to_ping, ping_rx) = mailbox();
    let ponging = std::thread::spawn(move || {
        for n in 0..ROUND_TRIPS {
            let env = pong_rx
                .recv_timeout(PATIENCE)
                .unwrap_or_else(|| panic!("pong timed out in round trip {n}"));
            to_ping.deliver(env).unwrap();
        }
    });
    for n in 0..ROUND_TRIPS {
        let started = Instant::now();
        to_pong.deliver(envelope(n)).unwrap();
        let env = ping_rx
            .recv_timeout(PATIENCE)
            .unwrap_or_else(|| panic!("ping timed out in round trip {n}"));
        assert_eq!(env.message.content(), Some(&SExpr::atom(n.to_string())));
        let took = started.elapsed();
        assert!(took < PATIENCE, "round trip {n} took {took:?}: somebody slept through it");
    }
    ponging.join().unwrap();
}
