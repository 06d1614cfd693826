//! `--smoke`: every workload for a couple of seconds at a fixed seed, both
//! untraced and traced, with every correctness check on; then the emitted
//! result document is validated against the name lists of
//! `BENCHMARK.json`. Non-zero exit on any failure, so CI can call it as is.

use crate::gen::WORKLOADS;
use crate::json::{self, Json};
use crate::metrics::{defs, MetricDef};
use crate::report::{contract_line, home, meta, workload_json};
use crate::workloads::{run_once, Options};

const SMOKE_SECONDS: f64 = 2.0;
const SMOKE_SEED: u64 = 1;

/// `BENCHMARK.json` must declare exactly the harness's metric table and
/// workload list.
fn check_manifest(manifest: &Json, problems: &mut Vec<String>) {
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let declared: Vec<(String, String, String)> = manifest
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("unit")?.as_str()?.to_string(),
                    m.get("better")?.as_str()?.to_string(),
                ))
            })
            .collect();
        let table: Vec<(String, String, String)> = defs(trace)
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.as_str().to_string()))
            .collect();
        if declared != table {
            problems.push(format!("BENCHMARK.json {key} differs from the harness's metric table"));
        }
    }
    let declared: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    if declared != WORKLOADS {
        problems.push(format!("BENCHMARK.json workloads {declared:?} differ from {WORKLOADS:?}"));
    }
}

/// One workload's emitted object against the declared names.
fn check_workload(doc: &Json, workload: &str, table: &[MetricDef], problems: &mut Vec<String>) {
    let mut problem = |text: String| problems.push(format!("{workload}: {text}"));
    if doc.get("correct") != Some(&Json::Bool(true)) {
        problem("run is not correct".into());
    }
    // Validity verdicts (generator lateness, sample floors) depend on how
    // busy the machine is and are not part of what a smoke run asserts.
    for v in doc.get("checks").and_then(Json::as_arr).unwrap_or_default() {
        if v.get("ok") != Some(&Json::Bool(true)) {
            problem(format!("check failed: {}", v.render()));
        }
    }
    let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap_or_default();
    for d in table.iter().filter(|d| d.applies(workload)) {
        match metrics.iter().find(|(n, _)| n == d.name) {
            None => problem(format!("declared metric {} is missing", d.name)),
            Some((_, m)) => {
                if m.get("unit").and_then(Json::as_str) != Some(d.unit) {
                    problem(format!("{} has the wrong unit", d.name));
                }
                if m.get("value").and_then(Json::as_f64).is_none() {
                    problem(format!("{} has no finite value", d.name));
                }
            }
        }
    }
    for (name, _) in metrics {
        if !table.iter().any(|d| d.name == name && d.applies(workload)) {
            problem(format!("undeclared metric {name}"));
        }
    }
    let distributions = doc.get("distributions").and_then(Json::as_obj).unwrap_or_default();
    if distributions.is_empty() {
        problem("no distributions".into());
    }
    for (name, s) in distributions {
        let field = |k: &str| s.get(k).and_then(Json::as_f64);
        match (field("n"), field("min"), field("p50"), field("p99"), field("max")) {
            (Some(n), Some(min), Some(p50), Some(p99), Some(max)) => {
                if n < 1.0 || !(min <= p50 && p50 <= p99 && p99 <= max) {
                    problem(format!("{name}: min ≤ p50 ≤ p99 ≤ max violated: {}", s.render()));
                }
            }
            _ => problem(format!("{name}: sample count or an order statistic is missing")),
        }
    }
}

fn check_meta(meta: &Json, problems: &mut Vec<String>) {
    for key in ["nproc", "commit", "seed", "seconds", "runs", "setups", "defaults"] {
        if meta.get(key).is_none() {
            problems.push(format!("meta.{key} is missing"));
        }
    }
    for key in ["poll_interval_ms", "per_agent_inflight", "ping_interval_s"] {
        if meta.get("defaults").and_then(|d| d.get(key)).is_none() {
            problems.push(format!("meta.defaults.{key} is missing"));
        }
    }
}

/// Returns the problems found; empty means the smoke run passed.
pub fn smoke() -> Vec<String> {
    let mut problems = Vec::new();
    let manifest_path = home().join("..").join("BENCHMARK.json");
    match std::fs::read_to_string(&manifest_path)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
    {
        Ok(manifest) => check_manifest(&manifest, &mut problems),
        Err(e) => problems.push(format!("BENCHMARK.json: {e}")),
    }
    for trace in [false, true] {
        let opt = Options { seed: SMOKE_SEED, seconds: SMOKE_SECONDS, trace, smoke: true };
        let mut workloads = Vec::new();
        for workload in WORKLOADS {
            match run_once(workload, &opt) {
                Ok(outcome) => {
                    // The driver rejects an end-to-end metric that reads 0.
                    let line = contract_line(trace, &outcome);
                    for (name, m) in line.get("metrics").and_then(Json::as_obj).unwrap_or_default()
                    {
                        if !trace && m.get("value").and_then(Json::as_f64).is_none_or(|v| v <= 0.0)
                        {
                            problems.push(format!("{workload}: summary line has no {name}"));
                        }
                    }
                    let doc = workload_json(trace, &outcome);
                    crate::report::print_table(workload, trace, &doc);
                    workloads.push((workload, doc));
                }
                Err(e) => problems.push(format!("{workload} (trace {trace}): {e}")),
            }
        }
        // Validate what a reader of the file would see: render, re-parse.
        let doc = Json::obj([("meta", meta(&opt, 1)), ("workloads", Json::obj(workloads))]);
        match json::parse(&doc.render_pretty()) {
            Err(e) => problems.push(format!("emitted document does not parse: {e}")),
            Ok(doc) => {
                check_meta(doc.get("meta").unwrap_or(&Json::Null), &mut problems);
                for workload in WORKLOADS {
                    match doc.get("workloads").and_then(|w| w.get(workload)) {
                        Some(w) => check_workload(w, workload, defs(trace), &mut problems),
                        None => problems.push(format!("{workload} (trace {trace}) is missing")),
                    }
                }
            }
        }
    }
    problems
}
