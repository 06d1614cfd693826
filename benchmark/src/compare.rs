//! `--compare A.json B.json`: one row per (end-to-end metric, workload),
//! B judged against A under the bounds of `BENCHMARK.json`.

use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END};
use crate::report::home;
use crate::stats::{median, rel_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's runs of one metric against A's. `bound` is the share of A's
/// median by which the metric may worsen. Where run-to-run spread exceeds
/// the bound the medians alone decide nothing: the verdict is `unresolved`
/// unless every run of one side beats every run of the other.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive = B is worse, as a share of A.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let lo = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let interleaved = !(hi(a) < lo(b) || hi(b) < lo(a));
    if interleaved && rel_spread(a).max(rel_spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn runs_of(workload: &Json, metric: &str) -> Option<Vec<f64>> {
    let runs = workload.get("metrics")?.get(metric)?.get("runs")?.as_arr()?;
    let runs: Vec<f64> = runs.iter().filter_map(Json::as_f64).collect();
    (!runs.is_empty()).then_some(runs)
}

/// Bounds by metric name, from the `BENCHMARK.json` beside the benchmark.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = home().join("..").join("BENCHMARK.json");
    let doc = load(&path.to_string_lossy())?;
    let list =
        doc.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json: no end_to_end")?;
    Ok(list
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect())
}

/// The rows of one workload, printed as they are judged; `false` when one
/// of them fails the comparison. A metric or a `fail_ratio` that only one
/// side carries fails it: the two files then measured different things.
fn compare_workload(name: &str, a: &Json, b: &Json, bounds: &[(String, f64)]) -> bool {
    let mut clean = true;
    // What an invalid window measured (too few samples, a late generator)
    // decides nothing; set-up time and memory do not depend on the window.
    let invalid: Vec<&str> = [("A", a), ("B", b)]
        .into_iter()
        .filter(|(_, doc)| doc.get("valid") != Some(&Json::Bool(true)))
        .map(|(side, _)| side)
        .collect();
    let undecided = |metric: &str| !invalid.is_empty() && !["setup_s", "rss_mb"].contains(&metric);
    for d in END_TO_END {
        let (ra, rb) = match (runs_of(a, d.name), runs_of(b, d.name)) {
            (None, None) => continue,
            (Some(ra), Some(rb)) => (ra, rb),
            (ra, _) => {
                clean = false;
                let only = if ra.is_some() { "A" } else { "B" };
                println!("{name:<20} {:<14} measured in {only} only: FAILED", d.name);
                continue;
            }
        };
        let Some(bound) = bounds.iter().find(|(n, _)| n == d.name).map(|(_, b)| *b) else {
            clean = false;
            println!("{name:<20} {:<14} has no bound in BENCHMARK.json: FAILED", d.name);
            continue;
        };
        let verdict =
            if undecided(d.name) { Verdict::Unresolved } else { judge(&ra, &rb, d.better, bound) };
        clean &= verdict != Verdict::Worse;
        let (ma, mb) = (median(&ra), median(&rb));
        println!(
            "{name:<20} {:<14} {ma:>14.3} {mb:>14.3} {:>9.3}x of {ma:>9.3} {bound:>6.2}  {}{}",
            d.name,
            mb / ma,
            verdict.as_str(),
            if undecided(d.name) {
                format!(" (invalid run in {})", invalid.join(", "))
            } else {
                String::new()
            }
        );
    }
    let ratio = |doc: &Json| doc.get("fail_ratio").and_then(Json::as_f64);
    match (ratio(a), ratio(b)) {
        (Some(fa), Some(fb)) => {
            // fail_ratio's bound is absolute.
            let worse = fb > fa + 0.001;
            clean &= !worse;
            println!(
                "{name:<20} {:<14} {fa:>14.6} {fb:>14.6} {:>22} {:>6}  {}",
                "fail_ratio",
                "absolute",
                "+0.001",
                if worse { "worse" } else { "same" }
            );
        }
        _ => {
            clean = false;
            println!("{name:<20} {:<14} missing on one side: FAILED", "fail_ratio");
        }
    }
    clean
}

/// Prints the comparison; `Ok(true)` when nothing is worse and both files
/// measured the same workloads and metrics.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds()?;
    let workloads_of = |doc: &Json, path: &str| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or_else(|| format!("{path} holds no workloads"))
    };
    let (wa, wb) = (workloads_of(&a, a_path)?, workloads_of(&b, b_path)?);
    println!(
        "{:<20} {:<14} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A (base A)", "bound"
    );
    let mut clean = true;
    for (name, doc_a) in &wa {
        match wb.iter().find(|(n, _)| n == name) {
            Some((_, doc_b)) => clean &= compare_workload(name, doc_a, doc_b, &bounds),
            None => {
                clean = false;
                println!("{name:<20} measured in A only: FAILED");
            }
        }
    }
    for (name, _) in wb.iter().filter(|(n, _)| !wa.iter().any(|(m, _)| m == n)) {
        clean = false;
        println!("{name:<20} measured in B only: FAILED");
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        // Tight runs, 20 % slower, bound 10 %: worse; the mirror image: better.
        assert_eq!(
            judge(&[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0], Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(&[120.0, 121.0, 119.0], &[100.0, 101.0, 99.0], Lower, 0.1),
            Verdict::Better
        );
        // Throughput reads the other way round.
        assert_eq!(judge(&[4000.0], &[3000.0], Higher, 0.1), Verdict::Worse);
        assert_eq!(judge(&[4000.0], &[4100.0], Higher, 0.1), Verdict::Same);
        // Spread wider than the bound and the runs interleave: no verdict.
        assert_eq!(
            judge(&[80.0, 100.0, 125.0], &[90.0, 118.0, 130.0], Lower, 0.1),
            Verdict::Unresolved
        );
        // Wide spread, but every B run beats every A run: resolved.
        assert_eq!(judge(&[100.0, 130.0, 160.0], &[50.0, 60.0, 70.0], Lower, 0.1), Verdict::Better);
    }

    fn workload(metrics: &[(&str, f64)], valid: bool, fail_ratio: Option<f64>) -> Json {
        let metrics = metrics.iter().map(|(name, v)| {
            (*name, Json::obj([("value", Json::Num(*v)), ("runs", Json::Arr(vec![Json::Num(*v)]))]))
        });
        let mut doc = vec![
            ("valid".to_string(), Json::Bool(valid)),
            ("metrics".to_string(), Json::obj(metrics)),
        ];
        doc.extend(fail_ratio.map(|f| ("fail_ratio".to_string(), Json::Num(f))));
        Json::Obj(doc)
    }

    #[test]
    fn a_side_that_lost_a_metric_or_its_fail_ratio_fails() {
        let bounds = vec![("ask_p50_us".to_string(), 0.1), ("rss_mb".to_string(), 0.1)];
        let full = workload(&[("ask_p50_us", 100.0), ("rss_mb", 10.0)], true, Some(0.0));
        assert!(compare_workload("w", &full, &full, &bounds));
        let lost = workload(&[("ask_p50_us", 100.0)], true, Some(0.0));
        assert!(!compare_workload("w", &full, &lost, &bounds), "rss_mb is missing from B");
        assert!(!compare_workload("w", &lost, &full, &bounds), "rss_mb is missing from A");
        let silent = workload(&[("ask_p50_us", 100.0), ("rss_mb", 10.0)], true, None);
        assert!(!compare_workload("w", &full, &silent, &bounds), "no fail_ratio is not 0");
        let failing = workload(&[("ask_p50_us", 100.0), ("rss_mb", 10.0)], true, Some(0.01));
        assert!(!compare_workload("w", &full, &failing, &bounds));
        // An invalid run resolves nothing, so it cannot read `worse` either.
        let slow_invalid = workload(&[("ask_p50_us", 200.0), ("rss_mb", 10.0)], false, Some(0.0));
        assert!(compare_workload("w", &full, &slow_invalid, &bounds));
        let slow = workload(&[("ask_p50_us", 200.0), ("rss_mb", 10.0)], true, Some(0.0));
        assert!(!compare_workload("w", &full, &slow, &bounds));
    }
}
