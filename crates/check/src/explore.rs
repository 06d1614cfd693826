//! Bounded DFS over delivery/dispatch schedules with sleep-set pruning.
//!
//! The broker's state is not snapshottable (repository, caches, and
//! metrics live behind `Arc`s), so exploration is *stateless/replay*: a
//! schedule prefix is re-executed from a fresh [`World`] whenever the
//! search backtracks to try a sibling action. Along the first child the
//! live world is reused, so replays cost one per explored schedule, not
//! one per tree node.
//!
//! Pruning is sleep-set based (DPOR-lite). Two actions are *independent*
//! when they target different destination agents and are not both
//! dispatches: a deliver only mutates its destination's queue, and a
//! dispatch only mutates its agent plus the tails of outgoing channels,
//! so distinct-destination pairs commute. After exploring action `a`
//! from a state, `a` enters the sleep set: any sibling subtree reached
//! by an action independent of `a` would re-explore `a`'s interleavings
//! in a different order and is skipped.
//!
//! Every complete (quiescent) schedule is checked against four
//! invariants:
//!
//! 1. **Conformance** — the emission log replayed through the strict
//!    [`ConformanceMonitor`] yields no IS05x diagnostics and no orphaned
//!    conversations;
//! 2. **Epoch monotonicity** — `sub-delta` notifications on each
//!    `(broker, watcher)` channel carry nondecreasing repository epochs;
//! 3. **Convergence** — the terminal repository fingerprint is
//!    byte-identical across every schedule of the scenario;
//! 4. **Stored answers are current** — every record of the broker's table
//!    holds what a fresh match over the terminal repository returns, and
//!    what each subscriber was told, its snapshot folded with every delta
//!    after it, is what its subscription reads of its record.

use crate::world::{Action, Scenario, World, WorldConfig};
use infosleuth_analysis::ConformanceMonitor;
use infosleuth_broker::{codec, MatchResult};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Search bounds. Exceeding either sets `truncated` on the result
/// instead of failing, so partial exploration is still reported honestly.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Maximum complete schedules to check.
    pub max_schedules: usize,
    /// Maximum actions in one schedule.
    pub max_depth: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { max_schedules: 50_000, max_depth: 512 }
    }
}

impl ExploreConfig {
    /// A cheap bound for smoke tests and CI (`--quick`).
    pub fn quick() -> Self {
        ExploreConfig { max_schedules: 2_000, max_depth: 256 }
    }
}

/// One invariant violation, with the schedule that produced it.
#[derive(Clone, Debug)]
pub struct ScheduleViolation {
    /// What went wrong, human-readable.
    pub kind: String,
    /// The full action schedule that exhibited it.
    pub schedule: Vec<Action>,
}

/// Outcome of exploring one scenario at one world configuration.
#[derive(Debug, Default)]
pub struct ExploreResult {
    pub scenario: String,
    /// Complete schedules executed and checked.
    pub schedules: usize,
    /// Sibling subtrees skipped by the sleep set.
    pub pruned: usize,
    /// True when a search bound was hit before exhaustion.
    pub truncated: bool,
    /// All invariant violations found (empty = clean).
    pub violations: Vec<ScheduleViolation>,
    /// The canonical terminal fingerprint (from the first schedule).
    pub fingerprint: Option<String>,
    /// Wall-clock seconds spent exploring.
    pub wall_seconds: f64,
}

impl ExploreResult {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Whether two enabled actions commute (see the module docs). Both-
/// dispatch pairs are conservatively dependent: dispatches emit sends
/// whose *global* log order the conformance monitor observes.
fn independent(a: &Action, b: &Action) -> bool {
    if matches!(a, Action::Dispatch { .. }) && matches!(b, Action::Dispatch { .. }) {
        return false;
    }
    a.dest() != b.dest()
}

struct Search<'a> {
    scenario: &'a Scenario,
    world_config: WorldConfig,
    config: ExploreConfig,
    result: ExploreResult,
}

impl Search<'_> {
    fn replay(&self, prefix: &[Action]) -> World {
        let mut world = World::new(self.scenario, self.world_config);
        for action in prefix {
            world.apply(action);
        }
        world
    }

    fn dfs(&mut self, world: World, prefix: &mut Vec<Action>, sleep: BTreeSet<Action>) {
        let enabled = world.enabled();
        if enabled.is_empty() {
            self.result.schedules += 1;
            self.check_schedule(&world, prefix);
            return;
        }
        if prefix.len() >= self.config.max_depth {
            self.result.truncated = true;
            return;
        }
        let mut world = Some(world);
        let mut sleep = sleep;
        for action in enabled {
            if sleep.contains(&action) {
                self.result.pruned += 1;
                continue;
            }
            if self.result.schedules >= self.config.max_schedules {
                self.result.truncated = true;
                return;
            }
            // First child continues the live world; siblings replay the
            // prefix from scratch (the broker cannot be snapshotted).
            let mut child = match world.take() {
                Some(w) => w,
                None => self.replay(prefix),
            };
            child.apply(&action);
            prefix.push(action.clone());
            let child_sleep: BTreeSet<Action> =
                sleep.iter().filter(|s| independent(s, &action)).cloned().collect();
            self.dfs(child, prefix, child_sleep);
            prefix.pop();
            sleep.insert(action);
        }
    }

    fn violate(&mut self, kind: String, schedule: &[Action]) {
        self.result.violations.push(ScheduleViolation { kind, schedule: schedule.to_vec() });
    }

    fn check_schedule(&mut self, world: &World, schedule: &[Action]) {
        // 1. Conformance: the emission log replayed through the strict
        // monitor, plus no conversation left open at quiescence.
        let mut monitor = ConformanceMonitor::standard_strict();
        for record in world.log() {
            monitor.observe(&record.from, &record.to, &record.message);
        }
        let report = monitor.finish();
        for diagnostic in &report.diagnostics {
            self.violate(
                format!("conformance {}: {}", diagnostic.code.as_str(), diagnostic.message),
                schedule,
            );
        }

        // 2. Epoch monotonicity per (from, to) channel of sub-delta
        // notifications.
        let mut last_epoch: BTreeMap<(String, String), u64> = BTreeMap::new();
        for record in world.log() {
            let Some(content) = record.message.content() else { continue };
            let Ok((epoch, _, _)) = codec::sub_delta_from_sexpr(content) else { continue };
            let key = (record.from.clone(), record.to.clone());
            if let Some(&prev) = last_epoch.get(&key) {
                if epoch < prev {
                    self.violate(
                        format!(
                            "epoch regression on channel {}->{}: {} after {}",
                            key.0, key.1, epoch, prev
                        ),
                        schedule,
                    );
                }
            }
            last_epoch.insert(key, epoch);
        }

        // 4. Stored answers are current: the table against a fresh match,
        // and each subscription's view against what its subscriber was
        // told.
        match world.stored_answers() {
            Err(stale) => self.violate(format!("stale stored answer: {stale}"), schedule),
            Ok(views) => {
                let mut told: BTreeMap<(String, String), BTreeMap<String, MatchResult>> =
                    BTreeMap::new();
                for record in world.log() {
                    let message = &record.message;
                    let (Some(content), Some(key)) = (message.content(), message.in_reply_to())
                    else {
                        continue;
                    };
                    let Ok((_, matched, unmatched)) = codec::sub_delta_from_sexpr(content) else {
                        continue;
                    };
                    let view = told.entry((record.to.clone(), key.to_string())).or_default();
                    for name in unmatched {
                        view.remove(&name);
                    }
                    view.extend(matched.into_iter().map(|row| (row.name.clone(), row)));
                }
                for (subscriber, key, rows) in views {
                    let view = told.remove(&(subscriber.clone(), key.clone())).unwrap_or_default();
                    let mut reads: Vec<MatchResult> = rows;
                    reads.sort_by(|a, b| a.name.cmp(&b.name));
                    if view.into_values().collect::<Vec<_>>() != reads {
                        self.violate(
                            format!("{subscriber} was told another view of {key} than it reads"),
                            schedule,
                        );
                    }
                }
            }
        }

        // 3. Convergence: byte-identical terminal repository across all
        // schedules of this scenario+config.
        let fingerprint = world.fingerprint();
        match &self.result.fingerprint {
            None => self.result.fingerprint = Some(fingerprint),
            Some(baseline) if *baseline != fingerprint => {
                self.violate(
                    format!(
                        "repository divergence: fingerprint\n--- baseline\n{baseline}\n--- this schedule\n{fingerprint}"
                    ),
                    schedule,
                );
            }
            Some(_) => {}
        }
    }
}

/// Explores every delivery/dispatch schedule of `scenario` under
/// `world_config`, within `config`'s bounds.
pub fn explore(
    scenario: &Scenario,
    world_config: WorldConfig,
    config: ExploreConfig,
) -> ExploreResult {
    let started = Instant::now();
    let mut search = Search {
        scenario,
        world_config,
        config,
        result: ExploreResult { scenario: scenario.name.to_string(), ..ExploreResult::default() },
    };
    let root = World::new(scenario, world_config);
    search.dfs(root, &mut Vec::new(), BTreeSet::new());
    search.result.wall_seconds = started.elapsed().as_secs_f64();
    search.result
}
