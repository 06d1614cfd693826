//! End-to-end exploration of the standard scenarios over the real
//! broker dispatch core, plus the seeded-bug oracle.

use infosleuth_check::{explore, standard_scenarios, ExploreConfig, WorldConfig};

#[test]
fn standard_scenarios_are_clean() {
    for scenario in standard_scenarios() {
        let result = explore(&scenario, WorldConfig::default(), ExploreConfig::default());
        println!(
            "{}: {} schedules, {} pruned, {:.2}s",
            result.scenario, result.schedules, result.pruned, result.wall_seconds
        );
        assert!(!result.truncated, "{} hit a search bound", result.scenario);
        assert!(
            result.is_clean(),
            "{} violated invariants: {:#?}",
            result.scenario,
            result.violations
        );
        assert!(
            result.schedules > 1,
            "{} explored a single schedule — no race coverage",
            result.scenario
        );
    }
}

#[test]
fn explorer_detects_the_seeded_reordering_bug() {
    let scenario = infosleuth_check::racing_mutations();
    // Sanity: the same scenario, same bounds, bug disarmed — clean.
    let clean = explore(&scenario, WorldConfig::default(), ExploreConfig::default());
    assert!(clean.is_clean(), "disarmed run must be clean: {:#?}", clean.violations);

    // Armed, c3's unadvertise overtakes its advertise whenever both have
    // arrived before the advertise is dispatched: ra3 is retracted before
    // it is registered and stays, so those schedules diverge from the
    // ones that dispatch the advertise first.
    let buggy = explore(&scenario, WorldConfig { seeded_overtake: true }, ExploreConfig::default());
    assert!(
        buggy.violations.iter().any(|v| v.kind.contains("repository divergence")),
        "armed run must diverge; got {:#?}",
        buggy.violations
    );
}
