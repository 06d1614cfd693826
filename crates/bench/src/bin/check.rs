//! Explorer harness: runs the interleaving explorer over the standard
//! broker scenarios and writes the search-space statistics to
//! `BENCH_check.json` for tracking across revisions.
//!
//! Exit status is nonzero if any schedule violates an invariant or any
//! search is truncated, so CI can use this binary as a gate as well as a
//! benchmark.

use infosleuth_check::{explore, standard_scenarios, ExploreConfig, WorldConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick { ExploreConfig::quick() } else { ExploreConfig::default() };

    println!("=== Schedule-space exploration over the standard scenarios ===");
    println!(
        "bounds: {} schedules / depth {}{}",
        config.max_schedules,
        config.max_depth,
        if quick { " [--quick]" } else { "" }
    );
    println!();
    println!("  scenario             schedules     pruned    wall     status");

    let mut rows = Vec::new();
    let mut failed = false;
    for scenario in standard_scenarios() {
        let result = explore(&scenario, WorldConfig::default(), config);
        let status = if !result.is_clean() {
            failed = true;
            "VIOLATED"
        } else if result.truncated {
            failed = true;
            "truncated"
        } else {
            "clean"
        };
        println!(
            "  {:<20} {:>9}   {:>8}   {:>5.2}s   {status}",
            result.scenario, result.schedules, result.pruned, result.wall_seconds
        );
        for violation in &result.violations {
            eprintln!("  !! {}", violation.kind.lines().next().unwrap_or(""));
        }
        rows.push(format!(
            concat!(
                "    {{\"scenario\": \"{}\", \"schedules\": {}, ",
                "\"pruned\": {}, \"truncated\": {}, \"violations\": {}, ",
                "\"wall_seconds\": {:.3}}}"
            ),
            result.scenario,
            result.schedules,
            result.pruned,
            result.truncated,
            result.violations.len(),
            result.wall_seconds
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"check\",\n  \"quick\": {},\n  \"meta\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        quick,
        infosleuth_bench::run_meta(),
        rows.join(",\n")
    );
    let path = "BENCH_check.json";
    std::fs::write(path, &json).expect("write BENCH_check.json");
    println!();
    println!("(wrote {path})");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
