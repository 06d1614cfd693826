//! Scalability experiments (Figure 17).
//!
//! "This set of simulation-based experiments varies the number of agents in
//! the system, while maintaining all other system parameters. … Since our
//! focus is on the inter-agent communication overhead, we needed to ensure
//! that the broker agents' local computations remained the same across this
//! range. Thus, we defined that each broker would, on average, have the
//! advertisements for ⟨k⟩ resources."
//!
//! We keep eight advertisements per broker on average (`brokers =
//! resources / 8`, OCR-lost constant — see DESIGN.md §2), sweep the number
//! of resources, and measure the mean broker response time for each
//! system-wide query frequency.

use crate::params::SimParams;
use crate::strategies::{run_averaged, BrokerSimConfig, Strategy};

/// Average advertisements per broker, held constant across system sizes.
pub const ADVERTS_PER_BROKER: usize = 8;

/// The resource-agent counts swept in Figure 17 (nine sizes; the figure's
/// x-axis runs 50–200 with some smaller warm-up sizes).
pub const RESOURCE_SIZES: [usize; 9] = [40, 60, 80, 100, 120, 140, 160, 180, 200];

/// The query-frequency series of Figure 17 (mean seconds between queries).
pub const QUERY_FREQUENCIES: [f64; 6] = [40.0, 50.0, 60.0, 70.0, 80.0, 90.0];

/// One measured point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalabilityPoint {
    pub resources: usize,
    pub brokers: usize,
    pub mean_query_interval_s: f64,
    pub mean_response_s: f64,
}

/// Measures one (size, frequency) cell.
pub fn scalability_point(
    resources: usize,
    mean_interval_s: f64,
    params: SimParams,
    seed: u64,
) -> ScalabilityPoint {
    let brokers = (resources / ADVERTS_PER_BROKER).max(1);
    let mut cfg = BrokerSimConfig::new(resources, brokers, Strategy::Specialized);
    cfg.mean_query_interval_s = mean_interval_s;
    cfg.params = params;
    cfg.seed = seed;
    let r = run_averaged(cfg);
    ScalabilityPoint {
        resources,
        brokers,
        mean_query_interval_s: mean_interval_s,
        mean_response_s: r.response.mean(),
    }
}

/// The full Figure 17 grid: one series per query frequency, one point per
/// system size.
pub fn figure17(params: SimParams, seed: u64) -> Vec<Vec<ScalabilityPoint>> {
    QUERY_FREQUENCIES
        .iter()
        .map(|&qf| RESOURCE_SIZES.iter().map(|&r| scalability_point(r, qf, params, seed)).collect())
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
    fn broker_count_tracks_resource_count() {
        let p = scalability_point(80, 60.0, quick(), 1);
        assert_eq!(p.brokers, 10);
        assert!(p.mean_response_s.is_finite());
        assert!(p.mean_response_s > 0.0);
    }

    #[test]
    fn response_time_levels_off_rather_than_exploding() {
        // "the response times tend to level off, and certainly do not show
        // any catastrophic behavior": growing the system 5x must not grow
        // the response time anywhere near 5x.
        let small = scalability_point(40, 60.0, quick(), 1);
        let large = scalability_point(200, 60.0, quick(), 1);
        assert!(
            large.mean_response_s < 3.0 * small.mean_response_s,
            "response exploded: {} -> {}",
            small.mean_response_s,
            large.mean_response_s
        );
    }

    #[test]
    fn higher_query_rates_mean_higher_response_times() {
        let busy = scalability_point(80, 40.0, quick(), 1);
        let idle = scalability_point(80, 90.0, quick(), 1);
        assert!(
            busy.mean_response_s > idle.mean_response_s,
            "busy {} vs idle {}",
            busy.mean_response_s,
            idle.mean_response_s
        );
    }

    #[test]
    fn local_floor_bounds_response_from_below() {
        // Each broker holds ~8 MB of advertisements at 1 s/MB: responses
        // can never beat the local reasoning floor.
        let p = scalability_point(80, 90.0, quick(), 1);
        assert!(p.mean_response_s > 8.0, "below floor: {}", p.mean_response_s);
    }
}
