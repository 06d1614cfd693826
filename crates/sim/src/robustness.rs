//! Robustness experiments (Tables 5 and 6).
//!
//! "In this set of experiments, we fixed the number of brokers and
//! resources at ⟨5⟩ and ⟨20⟩ respectively. … The parameters we vary are
//! the mean failure time of the brokers and the amount of redundancy in
//! the number of brokers that each resource agent sends their
//! advertisements to. The mean failure rates used are ⟨1000000⟩, ⟨3600⟩,
//! ⟨1800⟩, and ⟨900⟩ seconds. We vary the number of brokers each agent
//! advertises to from ⟨1⟩ to ⟨5⟩." Each resource has its own unique data
//! domain, "which helps to track exactly how often a query was
//! satisfactorily answered".
//!
//! Two metrics:
//!
//! * **Table 5** — the fraction of queries the brokers reply to at all
//!   (a dead broker cannot reply);
//! * **Table 6** — of the replied queries, the fraction whose result
//!   located the unique matching resource agent.

use crate::params::SimParams;
use crate::strategies::{run_averaged, BrokerSimConfig, Strategy};

/// Broker and resource counts (fixed; OCR-lost, chosen so that redundancy
/// 1–5 spans "one broker" to "every broker").
pub const BROKERS: usize = 5;
pub const RESOURCES: usize = 20;

/// The failure means of Tables 5–6, in seconds.
pub const FAILURE_MEANS: [f64; 4] = [1_000_000.0, 3600.0, 1800.0, 900.0];

/// Redundancy levels swept (number of brokers advertised to).
pub const REDUNDANCY: [usize; 5] = [1, 2, 3, 4, 5];

/// Mean time to repair (exponential; OCR-lost — chosen so the heaviest
/// failure rate leaves brokers up ~25% of the time, matching the reply
/// percentages of Table 5's bottom row).
pub const MEAN_REPAIR_S: f64 = 2700.0;

/// Mean query interval ("fixed to have a mean query time of once every ⟨N⟩
/// seconds to ensure that the system was operating in a range that did not
/// saturate its processing capabilities").
pub const MEAN_QUERY_INTERVAL_S: f64 = 30.0;

/// One cell of the robustness grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessCell {
    pub failure_mean_s: f64,
    pub redundancy: usize,
    /// Table 5: replies / queries.
    pub reply_fraction: f64,
    /// Table 6: located / replies.
    pub located_fraction: f64,
}

/// Measures one (failure mean, redundancy) cell.
pub fn robustness_cell(
    failure_mean_s: f64,
    redundancy: usize,
    params: SimParams,
    seed: u64,
) -> RobustnessCell {
    let mut cfg = BrokerSimConfig::new(RESOURCES, BROKERS, Strategy::Specialized);
    cfg.unique_domains = true;
    cfg.redundancy = redundancy;
    cfg.broker_mean_fail_s = Some(failure_mean_s);
    cfg.broker_mean_repair_s = MEAN_REPAIR_S;
    cfg.mean_query_interval_s = MEAN_QUERY_INTERVAL_S;
    // Robustness runs use smaller advertisements so that redundancy 5 does
    // not saturate the 5 brokers (20 × 5 adverts at 1 MB would mean 20 s of
    // reasoning per query per broker at a 30 s query interval).
    cfg.params = SimParams { advert_mb: 0.25, ..params };
    cfg.seed = seed;
    let r = run_averaged(cfg);
    RobustnessCell {
        failure_mean_s,
        redundancy,
        reply_fraction: r.reply_fraction(),
        located_fraction: r.located_fraction(),
    }
}

/// The full Tables 5–6 grid: rows by failure mean, columns by redundancy.
pub fn robustness_grid(params: SimParams, seed: u64) -> Vec<Vec<RobustnessCell>> {
    FAILURE_MEANS
        .iter()
        .map(|&f| REDUNDANCY.iter().map(|&k| robustness_cell(f, k, params, seed)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SimParams {
        let mut p = SimParams::quick();
        p.runs = 2;
        p
    }

    #[test]
    fn reliable_row_is_near_perfect() {
        // Table 5/6 first row: failure mean 1e6 seconds ≈ never fails.
        let c = robustness_cell(1_000_000.0, 3, quick(), 1);
        assert!(c.reply_fraction > 0.97, "reply {}", c.reply_fraction);
        assert!(c.located_fraction > 0.97, "located {}", c.located_fraction);
    }

    #[test]
    fn reply_rate_falls_with_failure_frequency() {
        let healthy = robustness_cell(1_000_000.0, 3, quick(), 1);
        let sick = robustness_cell(900.0, 3, quick(), 1);
        assert!(
            sick.reply_fraction < healthy.reply_fraction - 0.2,
            "healthy {} vs sick {}",
            healthy.reply_fraction,
            sick.reply_fraction
        );
    }

    #[test]
    fn full_redundancy_always_locates_on_reply() {
        // "with complete redundancy, you can always find the agent if you
        // get a reply at all."
        for fail in [3600.0, 900.0] {
            let c = robustness_cell(fail, 5, quick(), 1);
            assert!(
                (c.located_fraction - 1.0).abs() < 1e-9,
                "failure mean {fail}: located {}",
                c.located_fraction
            );
        }
    }

    #[test]
    fn more_redundancy_is_more_robust() {
        let k1 = robustness_cell(1800.0, 1, quick(), 1);
        let k4 = robustness_cell(1800.0, 4, quick(), 1);
        assert!(
            k4.located_fraction > k1.located_fraction,
            "k1 {} vs k4 {}",
            k1.located_fraction,
            k4.located_fraction
        );
    }
}
