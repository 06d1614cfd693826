//! `infosleuth-lint` — static analysis over the shipped artifacts and the
//! regression corpus.
//!
//! ```text
//! infosleuth-lint                 lint every shipped artifact
//! infosleuth-lint --corpus DIR    run the expected-diagnostic corpus
//! ```
//!
//! Repo mode exits nonzero if *any* diagnostic (including warnings) is
//! reported — the shipped tree must be spotless. Corpus mode exits nonzero
//! if any file's diagnostics differ from its `.expected` fixture, or if the
//! directory holds a file no pass reads.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: infosleuth-lint [--corpus DIR]";

fn main() -> ExitCode {
    let mut corpus: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--corpus" => match args.next() {
                Some(dir) => corpus = Some(PathBuf::from(dir)),
                None => return usage("--corpus needs a directory"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    match corpus {
        Some(dir) => run_corpus(&dir),
        None => run_repo(),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("infosleuth-lint: {problem}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn run_repo() -> ExitCode {
    let reports = infosleuth_lint::lint_repo();
    let total: usize = reports.iter().map(|r| r.diagnostics.len()).sum();
    for report in &reports {
        if report.is_clean() {
            println!("ok    {}", report.origin);
        } else {
            print!("{}", report.render_human(None));
        }
    }
    println!("{} artifact(s) checked, {} diagnostic(s)", reports.len(), total);
    if total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_corpus(dir: &std::path::Path) -> ExitCode {
    let cases = match infosleuth_lint::lint_corpus(dir) {
        Ok(cases) => cases,
        Err(e) => {
            eprintln!("infosleuth-lint: cannot read corpus {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };
    if cases.is_empty() {
        eprintln!("infosleuth-lint: no corpus files in {}", dir.display());
        return ExitCode::from(2);
    }
    let mut failed = 0usize;
    for case in &cases {
        if case.passed() {
            println!("PASS  {}  [{}]", case.path.display(), case.actual.join(", "));
        } else {
            failed += 1;
            println!(
                "FAIL  {}  expected [{}], got [{}]",
                case.path.display(),
                case.expected.join(", "),
                case.actual.join(", ")
            );
            print!("{}", case.report.render_human(None));
        }
    }
    println!("{} corpus case(s), {} failure(s)", cases.len(), failed);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
