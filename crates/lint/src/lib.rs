//! The lint driver behind the `infosleuth-lint` binary.
//!
//! Two modes:
//!
//! - [`lint_repo`] analyzes every artifact the repository ships — the
//!   broker's matchmaking rule base, representative example-scenario
//!   advertisements derived over the sample ontologies exactly the way
//!   the `Community` builder derives them, the monitor agent's
//!   advertisement, the conversation-protocol table the conformance
//!   monitor interprets, and the runtime crates' sources (IS060). A clean
//!   tree reports zero diagnostics.
//! - [`lint_corpus`] runs the admission passes over a directory of
//!   deliberately broken inputs (`*.ldl`, `*.ad`, `*.sq`) and compares
//!   each file's diagnostics against its `*.expected` fixture, one
//!   `IS0xx` code per line. This is the analyzer's own regression suite.

#![forbid(unsafe_code)]

use infosleuth_analysis::{
    analyze_advertisement, analyze_ldl_source, analyze_protocol_table, analyze_service_query,
    standard_protocols, AdContext, Code, Diagnostic, Report, Span,
};
use infosleuth_core::broker::codec;
use infosleuth_core::constraint::parse_conjunction;
use infosleuth_core::kqml::SExpr;
use infosleuth_core::ontology::{
    healthcare_ontology, paper_class_ontology, standard_capability_taxonomy, Ontology,
};
use infosleuth_core::relquery::{generate_table, Catalog, GenSpec};
use infosleuth_core::{monitor_advertisement, ResourceDef};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Analyzes every shipped artifact; one report per artifact, in a stable
/// order. The tree is healthy iff every report is clean.
pub fn lint_repo() -> Vec<Report> {
    let mut reports = Vec::new();

    // The broker's matchmaking rule base, against its own fact schema. It
    // defines the hierarchy closures, which no delta may: agent locality
    // (IS016) is a rule for deltas.
    let base_env = infosleuth_analysis::LdlEnv {
        agent_keyed: None,
        ..infosleuth_core::broker::matchmaking_env()
    };
    reports.push(analyze_ldl_source(
        "broker/matchmaking-rules",
        infosleuth_core::broker::matchmaking_rules_text(),
        &base_env,
    ));

    // Example-scenario advertisements, derived from resource catalogs the
    // same way `Community` derives them, checked against the ontology they
    // declare.
    let tax = standard_capability_taxonomy();
    let healthcare = healthcare_ontology();
    let paper = paper_class_ontology();
    let ctx = AdContext::new().with_taxonomy(&tax).with_ontologies([&healthcare, &paper]);
    for ad in example_advertisements(&healthcare, &paper) {
        reports.push(analyze_advertisement(&ad, &ctx));
    }

    // The conversation-protocol table the conformance monitor interprets
    // (IS04x statics).
    reports.push(analyze_protocol_table(&standard_protocols()));

    // Source hygiene (IS060) over the runtime crates: `.unwrap()` /
    // `.expect(` outside test modules must carry an explicit
    // `// lint: allow-unwrap` waiver.
    reports.extend(scan_source_hygiene(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))));
    reports
}

/// Directories (relative to the repo root) whose non-test sources must be
/// free of unwaived `.unwrap()` / `.expect(` calls.
const HYGIENE_DIRS: &[&str] = &["crates/agent/src", "crates/broker/src"];

/// Scans the runtime crates' sources for unchecked `.unwrap()` /
/// `.expect(` calls (IS060). Test modules (everything from the first
/// `#[cfg(test)]` line to end of file — the repo convention puts them
/// last) and lines carrying a `// lint: allow-unwrap` waiver are exempt.
/// Missing directories are skipped silently so the binary still works
/// from an installed location.
pub fn scan_source_hygiene(repo_root: &Path) -> Vec<Report> {
    let mut reports = Vec::new();
    for dir in HYGIENE_DIRS {
        let mut paths = Vec::new();
        collect_rust_sources(&repo_root.join(dir), &mut paths);
        paths.sort();
        for path in paths {
            let Ok(src) = fs::read_to_string(&path) else { continue };
            let origin = path.strip_prefix(repo_root).unwrap_or(&path);
            reports.push(scan_unwraps(&origin.to_string_lossy(), &src));
        }
    }
    reports
}

/// Every `*.rs` file under `dir`, sub-directories included — a handler
/// moved into a module directory is still library source.
fn collect_rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
        if path.is_dir() {
            collect_rust_sources(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// The IS060 pass over one source file. Positions are byte offsets so a
/// reported span lands on the offending call.
pub fn scan_unwraps(origin: &str, src: &str) -> Report {
    let mut report = Report::new(origin);
    let mut offset = 0usize;
    for line in src.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break; // test module; repo convention keeps it at end of file
        }
        let is_comment = trimmed.starts_with("//");
        let waived = line.contains("// lint: allow-unwrap");
        if !is_comment && !waived {
            for pattern in [".unwrap()", ".expect("] {
                for (col, _) in line.match_indices(pattern) {
                    report.push(
                        Diagnostic::new(
                            Code::UncheckedUnwrap,
                            format!(
                                "`{pattern}` in non-test code; handle the error or waive \
                                 with `// lint: allow-unwrap`"
                            ),
                        )
                        .with_span(Span::point(offset + col)),
                    );
                }
            }
        }
        offset += line.len() + 1;
    }
    report
}

/// The advertisements the shipped example scenarios register: one resource
/// agent per sample ontology (every class, §2.4's age constraint on the
/// healthcare one) plus the monitor agent.
fn example_advertisements(
    healthcare: &Ontology,
    paper: &Ontology,
) -> Vec<infosleuth_core::ontology::Advertisement> {
    let seniors = parse_conjunction("patient.age between 43 and 75").expect("parses");
    let ra5 = ResourceDef::new("ResourceAgent5", "healthcare", full_catalog(healthcare))
        .with_constraints(seniors)
        .advertisement(healthcare, 6005);
    let db1 = ResourceDef::new("db1-resource-agent", "paper-classes", full_catalog(paper))
        .advertisement(paper, 6001);
    let monitor = monitor_advertisement("monitor-agent", "tcp://monitor.mcc.com:4000");
    vec![ra5, db1, monitor]
}

/// A catalog holding a small generated extent of every class.
fn full_catalog(ontology: &Ontology) -> Catalog {
    let mut catalog = Catalog::new();
    let mut classes: Vec<&str> = ontology.class_names().collect();
    classes.sort_unstable();
    for (i, class) in classes.into_iter().enumerate() {
        catalog.insert(
            generate_table(ontology, &GenSpec::new(class, 4, i as u64 + 1))
                .expect("sample class generates"),
        );
    }
    catalog
}

/// One corpus file's outcome: the diagnostics the analyzer produced vs the
/// codes the fixture expects.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    pub path: PathBuf,
    pub expected: Vec<String>,
    pub actual: Vec<String>,
    pub report: Report,
}

impl CorpusCase {
    pub fn passed(&self) -> bool {
        self.expected == self.actual
    }
}

/// The corpus inputs, by extension; each may sit beside an `.expected`
/// fixture of the same stem.
const CORPUS_SOURCES: &[&str] = &["ldl", "ad", "sq"];

/// Runs the admission passes over every `*.ldl`, `*.ad` and `*.sq`
/// (standing service query) file in `dir` and compares against the
/// `*.expected` fixtures. An `.ldl` file whose first line contains
/// `% env: matchmaking` is analyzed against the broker's fact schema;
/// others are analyzed permissively. Any other file — an `.expected`
/// whose source is gone, or an extension no pass reads — is a failing
/// case of its own, so nothing in the corpus goes unchecked.
pub fn lint_corpus(dir: &Path) -> io::Result<Vec<CorpusCase>> {
    let mut paths: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    paths.sort();
    let tax = standard_capability_taxonomy();
    let healthcare = healthcare_ontology();
    let paper = paper_class_ontology();
    let ctx = AdContext::new().with_taxonomy(&tax).with_ontologies([&healthcare, &paper]);
    let mut cases = Vec::new();
    for path in paths {
        let origin = path.file_name().and_then(|n| n.to_str()).unwrap_or("corpus").to_string();
        let ext = path.extension().and_then(|e| e.to_str()).unwrap_or_default();
        let report = match ext {
            "ldl" => analyze_corpus_ldl(&origin, &fs::read_to_string(&path)?),
            "ad" => analyze_corpus_ad(&origin, &fs::read_to_string(&path)?, &ctx),
            "sq" => analyze_corpus_sq(&origin, &fs::read_to_string(&path)?, &ctx),
            "expected" if CORPUS_SOURCES.iter().any(|e| path.with_extension(e).is_file()) => {
                continue; // read beside its source
            }
            "expected" => stray(&origin, "fixture has no `.ldl`, `.ad` or `.sq` source beside it"),
            _ => stray(&origin, "not a corpus input: the passes read `.ldl`, `.ad` and `.sq`"),
        };
        // A stray file expects nothing: its presence alone fails the case.
        let expected = if CORPUS_SOURCES.contains(&ext) {
            read_expected(&path.with_extension("expected"))?
        } else {
            Vec::new()
        };
        let mut actual: Vec<String> =
            report.diagnostics.iter().map(|d| d.code.as_str().to_string()).collect();
        actual.sort();
        cases.push(CorpusCase { path, expected, actual, report });
    }
    Ok(cases)
}

fn stray(origin: &str, why: &str) -> Report {
    let mut report = Report::new(origin);
    report.push(Diagnostic::new(Code::SyntaxError, why));
    report
}

fn analyze_corpus_ldl(origin: &str, src: &str) -> Report {
    let env = if src.lines().next().is_some_and(|l| l.contains("% env: matchmaking")) {
        infosleuth_core::broker::matchmaking_env()
    } else {
        infosleuth_analysis::LdlEnv::permissive()
    };
    analyze_ldl_source(origin, src, &env)
}

fn analyze_corpus_ad(origin: &str, src: &str, ctx: &AdContext<'_>) -> Report {
    let parsed = SExpr::parse(src)
        .map_err(|e| e.to_string())
        .and_then(|e| codec::advertisement_from_sexpr(&e).map_err(|e| e.to_string()));
    match parsed {
        Ok(ad) => {
            let mut report = analyze_advertisement(&ad, ctx);
            report.origin = origin.to_string();
            report
        }
        Err(message) => {
            let mut report = Report::new(origin);
            report.push(Diagnostic::new(Code::SyntaxError, message).with_span(Span::point(0)));
            report
        }
    }
}

fn analyze_corpus_sq(origin: &str, src: &str, ctx: &AdContext<'_>) -> Report {
    let parsed = SExpr::parse(src)
        .map_err(|e| e.to_string())
        .and_then(|e| codec::service_query_from_sexpr(&e).map_err(|e| e.to_string()));
    match parsed {
        Ok(query) => analyze_service_query(origin, &query, ctx),
        Err(message) => {
            let mut report = Report::new(origin);
            report.push(Diagnostic::new(Code::SyntaxError, message).with_span(Span::point(0)));
            report
        }
    }
}

/// Reads an `.expected` fixture: one `IS0xx` code per line; `#` comments
/// and blank lines are ignored. A missing file means "expected clean".
fn read_expected(path: &Path) -> io::Result<Vec<String>> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut codes: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    codes.sort();
    Ok(codes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_scan_flags_only_unwaived_nontest_calls() {
        let src = "fn f() {\n\
                   \x20   a.unwrap();\n\
                   \x20   b.expect(\"invariant\"); // lint: allow-unwrap\n\
                   \x20   // c.unwrap() inside a comment is fine\n\
                   \x20   d.unwrap_or_default();\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn g() { e.unwrap(); }\n\
                   }\n";
        let report = scan_unwraps("x.rs", src);
        let codes = report.codes();
        assert_eq!(codes, vec![Code::UncheckedUnwrap], "{}", report.render_human(Some(src)));
        // The one finding points at the `.unwrap()` on line 2.
        let span = report.diagnostics[0].span.expect("span recorded");
        assert_eq!(&src[span.start..span.start + ".unwrap()".len()], ".unwrap()");
    }

    #[test]
    fn hygiene_scan_descends_into_module_directories() {
        let fixture = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/hygiene"));
        let reports = scan_source_hygiene(fixture);
        let origins: Vec<&str> = reports.iter().map(|r| r.origin.as_str()).collect();
        assert_eq!(
            origins,
            ["crates/broker/src/broker_agent/handler.rs", "crates/broker/src/top.rs"]
        );
        assert_eq!(reports[0].codes(), vec![Code::UncheckedUnwrap], "nested file is scanned");
        assert!(reports[1].is_clean(), "waived call stays clean");
    }

    #[test]
    fn hygiene_scan_skips_missing_directories() {
        assert!(scan_source_hygiene(Path::new("/nonexistent/repo/root")).is_empty());
    }

    #[test]
    fn orphans_in_the_corpus_fail() {
        let fixture = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/orphans"));
        let cases = lint_corpus(fixture).expect("fixture readable");
        let names: Vec<&str> = cases.iter().filter_map(|c| c.path.file_name()?.to_str()).collect();
        assert_eq!(names, ["notes.txt", "orphan.expected"]);
        for case in &cases {
            assert!(!case.passed(), "{} passed", case.path.display());
            assert_eq!(case.actual, ["IS001"]);
        }
    }
}
