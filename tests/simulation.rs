//! Shape assertions for the paper's evaluation, run at reduced scale: the
//! qualitative claims of §5 must hold on every build.

use infosleuth_core::sim::infosleuth::{table3_ratios, table4_ratios};
use infosleuth_core::sim::robustness::robustness_cell;
use infosleuth_core::sim::scalability::scalability_point;
use infosleuth_core::sim::strategies::{run_broker_sim, BrokerSimConfig, Strategy};
use infosleuth_core::sim::SimParams;

fn quick() -> SimParams {
    let mut p = SimParams::quick();
    p.runs = 2;
    p
}

#[test]
fn figure14_single_broker_saturates_multibrokers_do_not() {
    let mk = |strategy, interval| {
        let mut cfg = BrokerSimConfig::new(32, 8, strategy);
        cfg.mean_query_interval_s = interval;
        cfg.params = quick();
        run_broker_sim(cfg).response.mean()
    };
    let single_fast = mk(Strategy::Single, 10.0);
    let replicated_fast = mk(Strategy::Replicated, 10.0);
    let specialized_fast = mk(Strategy::Specialized, 10.0);
    // "By far, the worse performance is in the single broker arrangement."
    assert!(single_fast > 5.0 * replicated_fast, "single {single_fast} vs repl {replicated_fast}");
    assert!(single_fast > 5.0 * specialized_fast);
}

#[test]
fn figure14_replication_wins_only_at_extreme_rates() {
    let mk = |strategy, interval| {
        let mut cfg = BrokerSimConfig::new(32, 8, strategy);
        cfg.mean_query_interval_s = interval;
        cfg.params = quick();
        run_broker_sim(cfg).response.mean()
    };
    // "for high query frequencies, the extra over-head in broker
    // communication outweighs any advantage gained by parallelizing".
    assert!(mk(Strategy::Replicated, 5.0) < mk(Strategy::Specialized, 5.0));
    // Figure 15: from moderate rates on, specialization wins.
    for interval in [15.0, 25.0] {
        assert!(
            mk(Strategy::Specialized, interval) < mk(Strategy::Replicated, interval),
            "specialization should win at interval {interval}"
        );
    }
}

#[test]
fn figure16_specialization_helps_at_higher_resource_to_broker_ratio() {
    let mk = |strategy| {
        let mut cfg = BrokerSimConfig::new(32, 4, strategy);
        cfg.mean_query_interval_s = 20.0;
        cfg.params = quick();
        run_broker_sim(cfg).response.mean()
    };
    assert!(mk(Strategy::Specialized) < mk(Strategy::Replicated));
}

#[test]
fn figure17_no_catastrophic_growth() {
    let small = scalability_point(40, 60.0, quick(), 1);
    let large = scalability_point(200, 60.0, quick(), 1);
    assert!(
        large.mean_response_s < 2.0 * small.mean_response_s,
        "{} -> {}",
        small.mean_response_s,
        large.mean_response_s
    );
}

#[test]
fn tables5_and_6_robustness_shape() {
    // Reliable row ≈ perfect; heavy failures cut replies; redundancy
    // rescues located-given-reply; full redundancy is always 100%.
    let reliable = robustness_cell(1_000_000.0, 1, quick(), 1);
    assert!(reliable.reply_fraction > 0.97);
    assert!(reliable.located_fraction > 0.97);
    let heavy_k1 = robustness_cell(900.0, 1, quick(), 1);
    assert!(heavy_k1.reply_fraction < 0.75);
    let heavy_k5 = robustness_cell(900.0, 5, quick(), 1);
    assert!((heavy_k5.located_fraction - 1.0).abs() < 1e-9);
    assert!(heavy_k5.located_fraction > heavy_k1.located_fraction);
}

#[test]
fn table3_underloaded_near_one_loaded_below_one() {
    let e1 = table3_ratios(1, quick(), 1);
    assert!((0.85..1.4).contains(&e1[0].1), "experiment 1 ratio {}", e1[0].1);
    let e5 = table3_ratios(5, quick(), 1);
    for (s, r) in &e5 {
        assert!(*r < 0.9, "experiment 5 stream {} ratio {r}", s.label());
    }
}

#[test]
fn table4_specialization_always_helps() {
    for (s, r) in table4_ratios(quick(), 1) {
        assert!(r < 1.0, "stream {} ratio {r}", s.label());
    }
}

/// Determinism of the event queue: same seed + same config must
/// reproduce the strategies grid's metrics byte-for-byte. Any drift here
/// means the event queue's ordering (timestamp, then insertion order)
/// leaked nondeterminism.
#[test]
fn same_seed_runs_are_byte_identical() {
    let classic = || {
        let mut cfg = BrokerSimConfig::new(32, 8, Strategy::Replicated);
        cfg.mean_query_interval_s = 20.0;
        cfg.params = quick();
        let r = run_broker_sim(cfg);
        format!(
            "issued={} replied={} mean={:.12} max={:.12} var={:.12}",
            r.issued,
            r.replied,
            r.response.mean(),
            r.response.max(),
            r.response.variance()
        )
    };
    assert_eq!(classic(), classic(), "classic strategies run is nondeterministic");
}
