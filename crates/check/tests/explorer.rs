//! End-to-end exploration of the standard scenarios over the real
//! broker dispatch core, plus the seeded-bug oracle.

use infosleuth_check::{explore, standard_scenarios, ExploreConfig, WorldConfig};

#[test]
fn standard_scenarios_are_clean_at_batch_limits_1_and_8() {
    for scenario in standard_scenarios() {
        let mut fingerprints = Vec::new();
        for batch_limit in [1usize, 8] {
            let result = explore(
                &scenario,
                WorldConfig { batch_limit, seeded_reorder: false },
                ExploreConfig::default(),
            );
            println!(
                "{} @ batch {}: {} schedules, {} pruned, {:.2}s",
                result.scenario, batch_limit, result.schedules, result.pruned, result.wall_seconds
            );
            assert!(
                !result.truncated,
                "{} @ batch {batch_limit} hit a search bound",
                result.scenario
            );
            assert!(
                result.is_clean(),
                "{} @ batch {batch_limit} violated invariants: {:#?}",
                result.scenario,
                result.violations
            );
            assert!(
                result.schedules > 1,
                "{} @ batch {batch_limit} explored a single schedule — no race coverage",
                result.scenario
            );
            fingerprints.push(result.fingerprint.expect("at least one schedule ran"));
        }
        // The batched and unbatched planes must also converge to the
        // same repository as each other, not merely within themselves.
        assert_eq!(
            fingerprints[0], fingerprints[1],
            "{}: batch limits 1 and 8 disagree on the terminal repository",
            scenario.name
        );
    }
}

#[test]
fn explorer_detects_the_seeded_reordering_bug() {
    let scenario = infosleuth_check::racing_mutations();
    // Sanity: the same scenario, same bounds, bug disarmed — clean.
    let clean = explore(
        &scenario,
        WorldConfig { batch_limit: 8, seeded_reorder: false },
        ExploreConfig::default(),
    );
    assert!(clean.is_clean(), "disarmed run must be clean: {:#?}", clean.violations);

    // Armed at batch limit 8 the reversed batch retracts ra3
    // before registering it, so schedules that coalesce the pair
    // diverge from serial schedules.
    let buggy = explore(
        &scenario,
        WorldConfig { batch_limit: 8, seeded_reorder: true },
        ExploreConfig::default(),
    );
    assert!(
        buggy.violations.iter().any(|v| v.kind.contains("repository divergence")),
        "armed run must diverge; got {:#?}",
        buggy.violations
    );

    // At batch limit 1 no batches form, so the bug is unreachable —
    // exactly why the explorer sweeps multiple limits.
    let serial = explore(
        &scenario,
        WorldConfig { batch_limit: 1, seeded_reorder: true },
        ExploreConfig::default(),
    );
    assert!(serial.is_clean(), "bug must be invisible unbatched: {:#?}", serial.violations);
}
