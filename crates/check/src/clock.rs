//! Happens-before vector clocks over agent names.
//!
//! Every send snapshots the sender's clock into the message's channel
//! entry; every delivery merges that snapshot into the receiver's clock.
//! A divergence report prints each event's clock: two events whose clocks
//! are incomparable are concurrent, the racing pairs it points at.

use std::collections::BTreeMap;
use std::fmt;

/// A vector clock keyed by agent name. Missing components are zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VectorClock(BTreeMap<String, u64>);

impl VectorClock {
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// Advances `agent`'s own component by one (a local event).
    pub fn bump(&mut self, agent: &str) {
        *self.0.entry(agent.to_string()).or_insert(0) += 1;
    }

    /// Component-wise maximum with `other` (receiving a message).
    pub fn merge(&mut self, other: &VectorClock) {
        for (agent, &t) in &other.0 {
            let slot = self.0.entry(agent.clone()).or_insert(0);
            *slot = (*slot).max(t);
        }
    }

    pub fn get(&self, agent: &str) -> u64 {
        self.0.get(agent).copied().unwrap_or(0)
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (agent, t)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{agent}:{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_merge_and_ordering() {
        let mut a = VectorClock::new();
        let mut b = VectorClock::new();
        a.bump("x");
        b.bump("y");
        assert_eq!((a.get("y"), b.get("x")), (0, 0));
        let snapshot = a.clone();
        b.merge(&snapshot);
        b.bump("y");
        assert_eq!(b.get("x"), 1);
        assert_eq!(b.get("y"), 2);
        assert_eq!(format!("{b}"), "{x:1 y:2}");
    }
}
