//! The static-analyzer regression corpus, the shipped-artifact gate, and
//! the analyzer ↔ evaluation-engine oracle.

use infosleuth_analysis::{analyze_ldl_source, Code, LdlEnv};
use infosleuth_core::broker::{codec, Repository};
use infosleuth_core::kqml::SExpr;
use infosleuth_core::ldl::{parse_rules, Database};
use infosleuth_core::ontology::healthcare_ontology;
use infosleuth_lint::{lint_corpus, lint_repo};
use std::path::Path;

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/lint_corpus"))
}

#[test]
fn corpus_diagnostics_match_fixtures() {
    let cases = lint_corpus(corpus_dir()).expect("corpus readable");
    assert!(cases.len() >= 17, "corpus shrank: {} cases", cases.len());
    for case in &cases {
        assert!(
            case.passed(),
            "{}: expected {:?}, got {:?}\n{}",
            case.path.display(),
            case.expected,
            case.actual,
            case.report.render_human(None)
        );
    }
}

#[test]
fn shipped_artifacts_are_spotless() {
    let reports = lint_repo();
    for report in &reports {
        assert!(report.is_clean(), "{}", report.render_human(None));
    }
    assert!(
        reports.iter().any(|r| r.origin == "protocol-table"),
        "repo mode must check the conversation-protocol table"
    );
}

#[test]
fn broker_refuses_corpus_advertisement_with_diagnostic() {
    let src = std::fs::read_to_string(corpus_dir().join("unknown_class_slot_ad.ad")).unwrap();
    let ad = codec::advertisement_from_sexpr(&SExpr::parse(&src).unwrap()).unwrap();
    let mut repo = Repository::new();
    repo.register_ontology(healthcare_ontology());
    let err = repo.advertise(ad).unwrap_err().to_string();
    assert!(err.contains("IS021"), "{err}");
    assert!(err.contains("IS022"), "{err}");
    assert!(!repo.contains_agent("martian-ra"));
}

#[test]
fn broker_refuses_corpus_rule_delta_with_diagnostic() {
    let src = std::fs::read_to_string(corpus_dir().join("undefined_predicate.ldl")).unwrap();
    let mut repo = Repository::new();
    let err = repo.register_derived_rules(&src).unwrap_err();
    assert!(err.message.contains("IS011"), "{}", err.message);
}

/// A derived rule is applied to one advertisement when it is posted, so it
/// may read only that advertisement's agent: the corpus's rule, which reads
/// another agent's capability, is refused with IS016; the four rules the
/// repository's suites register are admitted, each on its own repository.
#[test]
fn broker_refuses_a_non_local_rule_and_admits_the_local_ones() {
    let src = std::fs::read_to_string(corpus_dir().join("non_local_rule.ldl")).unwrap();
    let mut repo = Repository::new();
    let err = repo.register_derived_rules(&src).unwrap_err();
    assert!(err.message.contains("IS016"), "{}", err.message);
    assert!(err.message.contains("cap(B, subscription)"), "{}", err.message);
    for rule in [
        "cap(A, polling) :- cap(A, subscription).",
        "cap(A, subscription) :- agent(A, resource).",
        "class(A, healthcare, provider) :- class(A, healthcare, patient).",
        "cap(A, aside) :- cap(A, left).",
    ] {
        let mut repo = Repository::new();
        repo.register_derived_rules(rule).unwrap_or_else(|e| panic!("{rule}: {}", e.message));
    }
}

/// The analyzer must never accept a program the engine then chokes on:
/// no error-severity diagnostics (under the weakest environment) implies
/// `parse_rules` + `saturate` succeed. Conversely, when the analyzer flags
/// safety or stratification errors, the engine must refuse the program too.
#[test]
fn analyzer_accepted_programs_saturate() {
    let handcrafted: &[&str] = &[
        // Clean programs of increasing spice.
        "p(X) :- base(X).",
        "tc(X, Y) :- edge(X, Y). tc(X, Z) :- edge(X, Y), tc(Y, Z).",
        "odd(X) :- num(X), not even(X). even(X) :- zero(X).",
        "big(X) :- num(X), X > 10.",
        // Broken programs the engine must also refuse.
        "out(X, Y) :- base(X).",
        "p(X) :- base(X), not q(Y).",
        "p(X) :- base(X), not q(X). q(X) :- base(X), p(X).",
        "p(X :- base(X).",
    ];
    let corpus_sources: Vec<String> = std::fs::read_dir(corpus_dir())
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "ldl"))
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    let sources = handcrafted.iter().map(|s| s.to_string()).chain(corpus_sources);
    for src in sources {
        let report = analyze_ldl_source("oracle", &src, &LdlEnv::permissive());
        let engine = parse_rules(&src).and_then(|p| {
            p.saturate(Database::new()).map(|_| ()).map_err(|e| {
                infosleuth_core::ldl::LdlParseError { message: e.to_string(), position: 0 }
            })
        });
        if !report.has_errors() {
            assert!(engine.is_ok(), "analyzer passed but engine refused:\n{src}\n{engine:?}");
        }
        let hard = [
            Code::SyntaxError,
            Code::UnsafeHeadVar,
            Code::UnboundVar,
            Code::RecursionThroughNegation,
        ];
        if report.codes().iter().any(|c| hard.contains(c)) {
            assert!(
                engine.is_err(),
                "analyzer flagged {:?} but engine accepted:\n{src}",
                report.codes()
            );
        }
    }
}
