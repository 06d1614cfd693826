//! Result documents: the JSON file one invocation writes, the table it
//! prints, and the one-line summary the benchmark contract asks for.

use crate::json::Json;
use crate::metrics::defs;
use crate::stats::{median, Summary};
use crate::workloads::{saturate_depth, Options, Outcome, Verdict, HIT_RATE, WRITE_RATE};
use infosleuth_agent::RuntimeConfig;
use infosleuth_broker::{BrokerConfig, DEFAULT_MATCH_CACHE_CAPACITY};
use std::path::PathBuf;

/// The benchmark's own directory in this checkout.
pub fn home() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(home())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Who measured, with what arguments, against which shipped defaults — a
/// later change of a default shows here as well as in the numbers.
pub fn meta(opt: &Options, runs: usize) -> Json {
    let runtime = RuntimeConfig::default();
    let broker = BrokerConfig::new("b0", "tcp://b0.bench:5500");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("commit", Json::str(commit())),
        ("seed", Json::Num(opt.seed as f64)),
        ("seconds", Json::Num(opt.seconds)),
        ("runs", Json::Num(runs as f64)),
        ("setups", Json::Num(opt.setups() as f64)),
        ("trace", Json::Bool(opt.trace)),
        (
            "defaults",
            Json::obj([
                ("poll_interval_ms", Json::Num(runtime.poll_interval.as_secs_f64() * 1e3)),
                ("per_agent_inflight", Json::Num(runtime.per_agent_inflight as f64)),
                ("workers", Json::Num(runtime.workers as f64)),
                (
                    "ping_interval_s",
                    broker.ping_interval.map_or(Json::Null, |d| Json::Num(d.as_secs_f64())),
                ),
                ("peer_timeout_s", Json::Num(broker.peer_timeout.as_secs_f64())),
                ("batch_limit", Json::Num(broker.batch_limit as f64)),
                ("match_cache_capacity", Json::Num(DEFAULT_MATCH_CACHE_CAPACITY as f64)),
            ]),
        ),
        (
            "load",
            Json::obj([
                ("hit_open_rate_per_s", Json::Num(HIT_RATE as f64)),
                ("hit_saturate_outstanding", Json::Num(saturate_depth() as f64)),
                ("churn_write_rate_per_s", Json::Num(WRITE_RATE as f64)),
            ]),
        ),
        (
            "note",
            Json::str("forward_closed_tcp runs over loopback TCP on one machine, not a real link"),
        ),
    ])
}

fn verdicts(list: &[Verdict]) -> Json {
    Json::Arr(
        list.iter()
            .map(|v| {
                Json::obj([
                    ("name", Json::str(v.name)),
                    ("ok", Json::Bool(v.ok)),
                    ("detail", Json::str(v.detail.as_str())),
                ])
            })
            .collect(),
    )
}

fn summary(s: &Summary) -> Json {
    Json::obj([
        ("n", Json::Num(s.n as f64)),
        ("min", Json::Num(s.min)),
        ("p50", Json::Num(s.p50)),
        ("p99", Json::Num(s.tail)),
        ("tail_q", Json::Num(s.tail_q)),
        ("max", Json::Num(s.max)),
    ])
}

fn is_true(doc: &Json, key: &str) -> bool {
    doc.get(key) == Some(&Json::Bool(true))
}

/// The result object of one run of one workload.
pub fn workload_json(trace: bool, o: &Outcome) -> Json {
    let metrics = defs(trace).iter().filter_map(|d| {
        let value = o.values.iter().find(|(n, _)| *n == d.name)?.1;
        let entry = Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::str(d.unit)),
            ("runs", Json::Arr(vec![Json::Num(value)])),
        ]);
        Some((d.name, entry))
    });
    Json::obj([
        ("correct", Json::Bool(o.correct())),
        ("valid", Json::Bool(o.valid())),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("fail_ratio", Json::Num(o.failed as f64 / o.attempted.max(1) as f64)),
        ("limit_met", o.limit_met.map_or(Json::Null, Json::Bool)),
        ("metrics", Json::obj(metrics)),
        ("distributions", Json::obj(o.distributions.iter().map(|(n, s)| (*n, summary(s))))),
        ("checks", verdicts(&o.checks)),
        ("validity", verdicts(&o.validity)),
    ])
}

/// Folds the result objects of several runs of one workload into one: a
/// metric's value is the median of its runs (each run's own value beside
/// it), counts add up, `correct` and `limit_met` hold if they held in every
/// run, and the distributions and verdict lists are the last run's. The
/// whole is `valid` when more than half of the runs are: the median is
/// then a valid run's value or lies between two of them.
pub fn merge(runs: &[Json]) -> Json {
    let last = runs.last().expect("at least one run");
    let all = |key: &str| Json::Bool(runs.iter().all(|r| is_true(r, key)));
    let sum = |key: &str| runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum::<f64>();
    let metrics =
        last.get("metrics").and_then(Json::as_obj).unwrap_or_default().iter().map(|(name, m)| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            let entry = Json::obj([
                ("value", Json::Num(median(&values))),
                ("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
                ("runs", Json::Arr(values.into_iter().map(Json::Num).collect())),
            ]);
            (name.clone(), entry)
        });
    let kept = |key: &str| last.get(key).cloned().unwrap_or(Json::Null);
    Json::obj([
        ("correct", all("correct")),
        ("valid", Json::Bool(2 * runs.iter().filter(|r| is_true(r, "valid")).count() > runs.len())),
        ("attempted", Json::Num(sum("attempted"))),
        ("failed", Json::Num(sum("failed"))),
        ("fail_ratio", Json::Num(sum("failed") / sum("attempted").max(1.0))),
        ("limit_met", if kept("limit_met") == Json::Null { Json::Null } else { all("limit_met") }),
        ("metrics", Json::obj(metrics)),
        ("distributions", kept("distributions")),
        ("checks", kept("checks")),
        ("validity", kept("validity")),
    ])
}

/// Every metric of a workload's result object by name with its unit, then
/// the checks.
pub fn print_table(workload: &str, trace: bool, doc: &Json) {
    let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap_or_default();
    let runs = metrics.first().and_then(|(_, m)| m.get("runs")?.as_arr()).map_or(0, <[Json]>::len);
    println!("== {workload} ({runs} run(s), {}) ==", if trace { "traced" } else { "untraced" });
    for d in defs(trace).iter().filter(|d| d.applies(workload)) {
        match doc.get("metrics").and_then(|m| m.get(d.name)?.get("value")?.as_f64()) {
            Some(value) => println!("  {:<28} {:>16.4} {}", d.name, value, d.unit),
            None => println!("  {:<28} MISSING", d.name),
        }
    }
    for (name, s) in doc.get("distributions").and_then(Json::as_obj).unwrap_or_default() {
        let f = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "  [{name}] n={} min={:.1} p50={:.1} p{:.1}={:.1} max={:.1}",
            f("n"),
            f("min"),
            f("p50"),
            f("tail_q") * 100.0,
            f("p99"),
            f("max")
        );
    }
    if let Some(Json::Bool(met)) = doc.get("limit_met") {
        println!("  limit_met: {met}");
    }
    for (label, key) in [("check", "checks"), ("valid", "validity")] {
        for v in doc.get(key).and_then(Json::as_arr).unwrap_or_default() {
            println!(
                "  {label} {:<32} {} ({})",
                v.get("name").and_then(Json::as_str).unwrap_or("?"),
                if is_true(v, "ok") { "ok" } else { "FAILED" },
                v.get("detail").and_then(Json::as_str).unwrap_or("")
            );
        }
    }
    let count = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!("  attempted {} failed {}", count("attempted"), count("failed"));
}

/// The contract's summary object for one run: every declared metric of the
/// mode. An end-to-end metric that does not apply to the workload carries
/// its stand-in (`Outcome::contract_fill`); a per-layer one reads 0.
pub fn contract_line(trace: bool, o: &Outcome) -> Json {
    let metrics = defs(trace).iter().map(|d| {
        let value = o
            .values
            .iter()
            .chain(&o.contract_fill)
            .find(|(n, _)| *n == d.name)
            .map_or(0.0, |(_, v)| *v);
        (d.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(value: f64, valid: bool, failed: f64) -> Json {
        let metric = Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::str("us")),
            ("runs", Json::Arr(vec![Json::Num(value)])),
        ]);
        Json::obj([
            ("correct", Json::Bool(failed == 0.0)),
            ("valid", Json::Bool(valid)),
            ("attempted", Json::Num(100.0)),
            ("failed", Json::Num(failed)),
            ("limit_met", Json::Null),
            ("metrics", Json::obj([("ask_p50_us", metric)])),
        ])
    }

    #[test]
    fn merge_takes_medians_adds_counts_and_combines_verdicts() {
        let merged = merge(&[run(30.0, true, 0.0), run(10.0, true, 0.0), run(20.0, false, 3.0)]);
        let metric = merged.get("metrics").and_then(|m| m.get("ask_p50_us")).unwrap();
        assert_eq!(metric.get("value").and_then(Json::as_f64), Some(20.0));
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some("us"));
        assert_eq!(metric.get("runs").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(merged.get("valid"), Some(&Json::Bool(true)), "two valid runs of three");
        let half = merge(&[run(30.0, true, 0.0), run(10.0, false, 0.0)]);
        assert_eq!(half.get("valid"), Some(&Json::Bool(false)), "one valid run of two");
        assert_eq!(merged.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(merged.get("attempted").and_then(Json::as_f64), Some(300.0));
        assert_eq!(merged.get("fail_ratio").and_then(Json::as_f64), Some(0.01));
        assert_eq!(merged.get("limit_met"), Some(&Json::Null));
    }
}
