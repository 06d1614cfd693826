//! The §5.2.1 simulation parameters, gathered in one place.
//!
//! Where the OCR of the paper lost a literal value, the chosen value is
//! marked `OCR-lost` with the constraint that guided the choice (see
//! DESIGN.md §2 and EXPERIMENTS.md).

use crate::engine::LinkModel;

/// Common parameters shared by all experiment families.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// "something that is on the high side of megabit Ethernet connection:
    /// ⟨N⟩ kilobytes per second" (OCR-lost; 1500 KB/s ≈ 12 Mbit/s).
    pub bandwidth_kb_per_s: f64,
    /// "the latency was a very conservative ⟨N⟩ seconds" (OCR-lost; 0.05 s).
    pub latency_s: f64,
    /// "a ping interval defining the maximum length of time it will allow
    /// to pass without any contact … set to ⟨N⟩ seconds" (OCR-lost; 30 s).
    pub ping_interval_s: f64,
    /// "a time-out period … to limit the amount of time an agent will wait
    /// for a reply … too was set at ⟨N⟩ seconds" (OCR-lost; 30 s).
    pub timeout_s: f64,
    /// Size of one resource advertisement in megabytes ("each resource
    /// agent's advertisement size was set to ⟨N⟩ megabyte"; 1 MB).
    pub advert_mb: f64,
    /// "the base speed of the reasoning engine … set to ⟨N⟩ second per
    /// megabyte of advertisements" (1 s/MB).
    pub broker_reason_s_per_mb: f64,
    /// "the base query answering speed of all resources was set to be ⟨N⟩
    /// second per megabytes of data" (1 s/MB).
    pub resource_query_s_per_mb: f64,
    /// "a broker result is set to be ⟨N⟩ kilobytes per agent that matches
    /// the query" (1 KB).
    pub broker_result_kb_per_match: f64,
    /// Size of a query message in kilobytes (small; 1 KB).
    pub query_kb: f64,
    /// Query complexity ~ Gaussian(mean, variance), truncated positive
    /// ("the complexity is set to be (i.e., mean of ⟨1⟩ and variance of
    /// ⟨0.1⟩)").
    pub complexity_mean: f64,
    pub complexity_var: f64,
    /// Query coverage ~ Gaussian(mean, variance) in (0, 1] ("the coverage
    /// used had a mean of ⟨0.1⟩ and variance of ⟨0.05⟩").
    pub coverage_mean: f64,
    pub coverage_var: f64,
    /// Simulated wall-clock per run: "each individual experiment was the
    /// simulation of ⟨10⟩ hours of system execution time".
    pub sim_duration_s: f64,
    /// Runs averaged per configuration ("we ran each set of experiments
    /// ⟨10⟩ times and averaged the results").
    pub runs: usize,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            bandwidth_kb_per_s: 1500.0,
            latency_s: 0.05,
            ping_interval_s: 30.0,
            timeout_s: 30.0,
            advert_mb: 1.0,
            broker_reason_s_per_mb: 1.0,
            resource_query_s_per_mb: 1.0,
            broker_result_kb_per_match: 1.0,
            query_kb: 1.0,
            complexity_mean: 1.0,
            complexity_var: 0.1,
            coverage_mean: 0.1,
            coverage_var: 0.05,
            sim_duration_s: 10.0 * 3600.0,
            runs: 10,
        }
    }
}

impl SimParams {
    pub fn link(&self) -> LinkModel {
        LinkModel { bandwidth_kb_per_s: self.bandwidth_kb_per_s, latency_s: self.latency_s }
    }

    /// A fast variant for unit tests: one hour simulated, three runs.
    pub fn quick() -> Self {
        SimParams { sim_duration_s: 3600.0, runs: 3, ..SimParams::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let p = SimParams::default();
        assert_eq!(p.broker_reason_s_per_mb, 1.0);
        assert_eq!(p.resource_query_s_per_mb, 1.0);
        assert_eq!(p.broker_result_kb_per_match, 1.0);
        assert_eq!(p.sim_duration_s, 36_000.0);
        assert_eq!(p.runs, 10);
        assert_eq!(p.link().transfer_time(0.0), 0.05);
    }
}
