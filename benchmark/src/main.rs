//! The live-path benchmark harness of `BENCHMARK.json`.
//!
//! ```text
//! infosleuth-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!                      [--runs <n>] [--out <file>]
//! infosleuth-benchmark --smoke
//! infosleuth-benchmark --compare <A.json> <B.json>
//! ```
//!
//! Drives live communities (`AgentRuntime` + `Bus`/`TcpTransport` +
//! `BrokerAgent::spawn_on`, every default as shipped), checks every
//! answer, prints every metric by name and unit, writes one JSON result
//! per invocation, and ends with the contract's one-line summary.

#![forbid(unsafe_code)]

mod community;
mod compare;
mod gen;
mod json;
mod loadgen;
mod metrics;
mod replay;
mod report;
mod smoke;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<String>,
}

fn usage() -> String {
    format!(
        "usage: infosleuth-benchmark --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
         [--runs <n>] [--out <file>]\n       infosleuth-benchmark --smoke\n       \
         infosleuth-benchmark --compare <A.json> <B.json>",
        gen::WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: "all".into(), seed: 1, seconds: 30.0, trace: false, runs: 1, out: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()));
        let bad = |v: &String| format!("bad value '{v}' for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--runs" => args.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out" => args.out = Some(value()?.clone()),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 || args.runs == 0 {
        return Err("--seconds and --runs must be positive".into());
    }
    if args.workload != "all" && !gen::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'\n{}", args.workload, usage()));
    }
    Ok(args)
}

fn write_result(
    args: &Args,
    opt: &workloads::Options,
    workloads: Vec<(&str, Json)>,
) -> Result<(), String> {
    let doc =
        Json::obj([("meta", report::meta(opt, args.runs)), ("workloads", Json::obj(workloads))]);
    let path = args.out.clone().map_or_else(
        || out_dir().join(format!("result-{}-trace{}.json", args.workload, u8::from(args.trace))),
        std::path::PathBuf::from,
    );
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn out_dir() -> std::path::PathBuf {
    report::home().join("out")
}

/// One workload, once, in this process: what the driver runs. The last
/// stdout line is the contract's summary object.
fn run_one(args: &Args, opt: &workloads::Options) -> Result<bool, String> {
    let outcome = workloads::run_once(&args.workload, opt)?;
    let doc = report::workload_json(args.trace, &outcome);
    report::print_table(outcome.workload, args.trace, &doc);
    if !outcome.spans.is_empty() {
        let path = out_dir().join(format!("trace-{}.jsonl", outcome.workload));
        std::fs::write(&path, &outcome.spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    write_result(args, opt, vec![(outcome.workload, doc)])?;
    println!("{}", report::contract_line(args.trace, &outcome).render());
    Ok(outcome.correct())
}

/// Several workloads or runs: each (workload, run) is measured by a child
/// process of its own, exactly as `run_one` measures it. `rss_mb` is a
/// high-water mark of the process, and a run must not start on the heap
/// the one before it left behind.
fn run_many(args: &Args, opt: &workloads::Options, names: &[&'static str]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let part = out_dir().join(format!("part-{}.json", std::process::id()));
    let mut merged = Vec::new();
    for &workload in names {
        let mut runs = Vec::new();
        for _ in 0..args.runs {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part)
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            // 0 = correct, 1 = ran but wrong: either way the file is there.
            if !matches!(status.code(), Some(0 | 1)) {
                return Err(format!("the run of {workload} ended with {status}"));
            }
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            let _ = std::fs::remove_file(&part);
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?;
            let run = doc.get("workloads").and_then(|w| w.get(workload)).cloned();
            runs.push(run.ok_or_else(|| format!("the run of {workload} wrote no result"))?);
        }
        let doc = report::merge(&runs);
        report::print_table(workload, args.trace, &doc);
        merged.push((workload, doc));
    }
    let correct = merged.iter().all(|(_, doc)| doc.get("correct") == Some(&Json::Bool(true)));
    write_result(args, opt, merged)?;
    Ok(correct)
}

fn run(args: &Args) -> Result<bool, String> {
    let opt = workloads::Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: false,
    };
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    match args.workload.as_str() {
        "all" => run_many(args, &opt, &gen::WORKLOADS),
        one if args.runs > 1 => {
            let name = gen::WORKLOADS.iter().copied().find(|w| *w == one);
            run_many(args, &opt, name.as_slice())
        }
        _ => run_one(args, &opt),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--smoke") => {
            let problems = smoke::smoke();
            for p in &problems {
                eprintln!("smoke: {p}");
            }
            println!("smoke: {}", if problems.is_empty() { "ok" } else { "FAILED" });
            Ok(problems.is_empty())
        }
        Some("--compare") => match argv.as_slice() {
            [_, a, b] => compare::compare(a, b),
            _ => Err(usage()),
        },
        Some("--help" | "-h") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("infosleuth-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
