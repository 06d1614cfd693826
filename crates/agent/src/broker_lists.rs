//! Known- and connected-broker lists with the §4.2 redundant-advertising
//! algorithm.
//!
//! "All agents, including broker agents, keep track of two lists of
//! brokers: a list of brokers that they know about (known-broker-list), and
//! a list of brokers they have successfully advertised to
//! (connected-broker-list). The connected-broker-list is a subset of the
//! known-broker-list. Each agent or broker advertises to brokers on the
//! known-broker-list but not on the connected-broker-list. When an
//! advertisement is successful, the broker that kept the advertisement is
//! added to the connected-broker-list. Once the number of such connected
//! brokers reaches the configured number of redundant advertisements, the
//! advertisement process stops."

use std::collections::BTreeSet;

/// The next advertising actions an agent should take, produced by
/// [`BrokerLists::plan_readvertise`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadvertisePlan {
    /// Brokers to (re)advertise to, in known-list order.
    pub advertise_to: Vec<String>,
    /// Whether the agent is dormant: it knows no broker it could reach.
    /// Per §4.2.2 it should "wait until the next polling interval and
    /// attempt to reconnect".
    pub dormant: bool,
}

/// Broker-list state for one agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokerLists {
    /// Brokers this agent knows about, in discovery order.
    known: Vec<String>,
    /// Brokers this agent has successfully advertised to.
    connected: BTreeSet<String>,
    /// Configured number of redundant advertisements.
    redundancy: usize,
}

impl BrokerLists {
    /// Creates the lists with the agent's preferred brokers (its "initial
    /// entry point(s) into the brokering system") and a redundancy target.
    pub fn new<I, S>(preferred: I, redundancy: usize) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut lists = BrokerLists {
            known: Vec::new(),
            connected: BTreeSet::new(),
            redundancy: redundancy.max(1),
        };
        for b in preferred {
            lists.discover(b);
        }
        lists
    }

    pub fn connected(&self) -> impl Iterator<Item = &str> {
        self.connected.iter().map(String::as_str)
    }

    /// Adds a broker to the known list ("during operation, an agent may
    /// also discover more brokers that it deems appropriate to advertise
    /// to"). Duplicates are ignored.
    pub fn discover(&mut self, broker: impl Into<String>) {
        let broker = broker.into();
        if !self.known.contains(&broker) {
            self.known.push(broker);
        }
    }

    /// Records a successful advertisement.
    pub fn record_advertised(&mut self, broker: &str) {
        if !self.known.iter().any(|b| b == broker) {
            self.known.push(broker.to_string());
        }
        self.connected.insert(broker.to_string());
    }

    /// Records that a broker is gone (failed ping or failed send): removed
    /// from the connected list; kept on the known list so the agent may try
    /// it again after it restarts.
    pub fn record_lost(&mut self, broker: &str) {
        self.connected.remove(broker);
    }

    /// Records that a broker is alive but no longer has our advertisement
    /// (§4.2.2's empty ping reply): removed from the connected list.
    pub fn record_forgotten(&mut self, broker: &str) {
        self.connected.remove(broker);
    }

    /// Whether the agent still needs to advertise to reach its redundancy.
    pub fn needs_advertising(&self) -> bool {
        self.connected.len() < self.redundancy
    }

    /// Brokers to try next: every known broker not yet connected, in
    /// known-list order. The advertiser walks the list and stops as soon as
    /// the redundancy target is met ("once the number of such connected
    /// brokers reaches the configured number of redundant advertisements,
    /// the advertisement process stops") — candidates beyond the budget
    /// matter because earlier ones may be unreachable. When no candidates
    /// remain and nothing is connected, the agent is dormant.
    pub fn plan_readvertise(&self) -> ReadvertisePlan {
        if !self.needs_advertising() {
            return ReadvertisePlan { advertise_to: Vec::new(), dormant: false };
        }
        let advertise_to: Vec<String> =
            self.known.iter().filter(|b| !self.connected.contains(*b)).cloned().collect();
        let dormant = advertise_to.is_empty() && self.connected.is_empty();
        ReadvertisePlan { advertise_to, dormant }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_lists_all_unconnected_candidates_in_order() {
        let lists = BrokerLists::new(["b1", "b2", "b3"], 2);
        let plan = lists.plan_readvertise();
        // All candidates, in preference order; the advertiser stops once
        // two of them accept.
        assert_eq!(plan.advertise_to, vec!["b1", "b2", "b3"]);
        assert!(!plan.dormant);
    }

    #[test]
    fn stops_when_redundancy_met() {
        let mut lists = BrokerLists::new(["b1", "b2", "b3"], 2);
        lists.record_advertised("b1");
        lists.record_advertised("b2");
        assert!(!lists.needs_advertising());
        assert!(lists.plan_readvertise().advertise_to.is_empty());
    }

    #[test]
    fn lost_broker_triggers_readvertising_to_next_known() {
        let mut lists = BrokerLists::new(["b1", "b2", "b3"], 2);
        lists.record_advertised("b1");
        lists.record_advertised("b2");
        lists.record_lost("b1");
        let plan = lists.plan_readvertise();
        // b1 is still known (it may come back) and b3 was never tried;
        // both are candidates, b1 first.
        assert_eq!(plan.advertise_to, vec!["b1", "b3"]);
        assert!(!plan.dormant);
    }

    #[test]
    fn forgotten_broker_is_retried() {
        let mut lists = BrokerLists::new(["b1"], 1);
        lists.record_advertised("b1");
        lists.record_forgotten("b1");
        assert!(lists.needs_advertising());
        assert_eq!(lists.plan_readvertise().advertise_to, vec!["b1"]);
    }

    #[test]
    fn dormant_when_no_brokers_known() {
        let lists = BrokerLists::new(Vec::<String>::new(), 2);
        let plan = lists.plan_readvertise();
        assert!(plan.dormant);
        assert!(plan.advertise_to.is_empty());
    }

    #[test]
    fn not_dormant_while_some_connection_remains() {
        let mut lists = BrokerLists::new(["b1", "b2"], 2);
        lists.record_advertised("b1");
        lists.record_advertised("b2");
        lists.record_lost("b2");
        // b2 will be retried; even if the retry list were empty the agent
        // is not dormant because b1 still holds its advertisement.
        let plan = lists.plan_readvertise();
        assert!(!plan.dormant);
    }

    #[test]
    fn discovery_extends_known_list_without_duplicates() {
        let mut lists = BrokerLists::new(["b1"], 3);
        lists.discover("b2");
        lists.discover("b1");
        assert_eq!(lists.plan_readvertise().advertise_to, vec!["b1", "b2"]);
        lists.record_advertised("b9"); // success implies discovery
        lists.record_lost("b9");
        assert_eq!(lists.plan_readvertise().advertise_to, vec!["b1", "b2", "b9"]);
    }

    #[test]
    fn redundancy_is_at_least_one() {
        let mut lists = BrokerLists::new(["b1"], 0);
        assert!(lists.needs_advertising());
        assert_eq!(lists.plan_readvertise().advertise_to, vec!["b1"]);
        lists.record_advertised("b1");
        assert!(!lists.needs_advertising());
    }
}
