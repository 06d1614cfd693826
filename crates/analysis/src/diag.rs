//! The diagnostics framework: error codes, severities, source spans, and
//! a human-readable renderer.
//!
//! Every pass reports through [`Report`], so the broker's admission
//! pipeline, the `infosleuth-lint` binary, and tests all consume the same
//! structured output. Diagnostic ordering is deterministic (span, then
//! code, then message) so golden tests are stable.

use std::fmt;

/// How bad a diagnostic is. `Error` diagnostics make the broker refuse an
/// advertisement or rule delta; `Warning` diagnostics are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Stable diagnostic codes. The `IS0xx` numbering groups codes by pass:
/// `IS00x` syntax/safety, `IS01x` LDL program structure, `IS02x`
/// advertisements, `IS04x` conversation-protocol statics, `IS05x` runtime conversation conformance, `IS06x` source
/// hygiene. Variant declaration order mirrors the numbering so the
/// derived `Ord` sorts diagnostics by code group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// IS001: the source text does not parse.
    SyntaxError,
    /// IS002: a head variable is not bound by a positive body literal.
    UnsafeHeadVar,
    /// IS003: a variable in a negated or builtin literal is not bound by a
    /// positive body literal.
    UnboundVar,
    /// IS010: recursion through negation — the program is not stratifiable.
    RecursionThroughNegation,
    /// IS011: a body predicate is neither defined by a rule nor part of the
    /// known EDB schema.
    UndefinedPredicate,
    /// IS012: a rule's head predicate is not reachable from any root
    /// (externally queried) predicate — the rule is dead code.
    UnreachableRule,
    /// IS013: a predicate is used with inconsistent arities.
    ArityMismatch,
    /// IS014: a builtin test can never hold (incomparable constant kinds or
    /// a statically false comparison), so the rule can never fire.
    ImpossibleComparison,
    /// IS015: an exact duplicate of an earlier rule.
    DuplicateRule,
    /// IS016: a rule derives facts about one agent from another agent's
    /// facts, or defines an agent-free predicate.
    NonLocalRule,
    /// IS020: an advertisement's data constraints are unsatisfiable.
    UnsatisfiableConstraints,
    /// IS021: an advertised class is unknown to the declared ontology.
    UnknownClass,
    /// IS022: an advertised slot is unknown to the declared ontology.
    UnknownSlot,
    /// IS023: an advertised capability is not in the capability taxonomy.
    UnknownCapability,
    /// IS024: the advertisement is subsumed by an already-registered
    /// advertisement from the same agent (it adds nothing).
    SubsumedAdvertisement,
    /// IS025: an advertised fragment is invalid for its class.
    InvalidFragment,
    /// IS026: a subscription's (standing service query's) constraint
    /// conjunction is provably empty — it can never match any agent.
    UnsatisfiableSubscription,
    /// IS027: a subscription constrains nothing at all — it would fire on
    /// every repository mutation and match every agent.
    VacuousSubscription,
    /// IS040: a protocol transition names a state that is never declared.
    UndefinedProtocolState,
    /// IS041: a declared protocol state is unreachable from the initial
    /// state.
    UnreachableProtocolState,
    /// IS042: two transitions leave the same state on the same trigger —
    /// the conversation machine is nondeterministic.
    NondeterministicTransition,
    /// IS043: a performative the protocol declares is never consumed by
    /// any transition — there is no handler for it.
    UnhandledPerformative,
    /// IS044: a reply obligation opened on some path can never be
    /// discharged on any continuation of that path.
    UndischargeableObligation,
    /// IS045: a non-final state has no outgoing transitions — every
    /// conversation reaching it is stuck forever.
    DeadEndProtocolState,
    /// IS050: a reply whose `:in-reply-to` names no open conversation, or
    /// arrives after the conversation already closed.
    OutOfOrderReply,
    /// IS051: a `sub-delta` tell observed after the subscription's
    /// unsubscribe was acknowledged.
    TellAfterUnsubscribe,
    /// IS052: a conversation was opened but never reached a final state
    /// by the end of observation.
    OrphanConversation,
    /// IS053: a conversation received a second closing acknowledgement.
    DuplicateAck,
    /// IS060: `unwrap()`/`expect()` in non-test library source without a
    /// `// lint: allow-unwrap` justification.
    UncheckedUnwrap,
}

impl Code {
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::SyntaxError => "IS001",
            Code::UnsafeHeadVar => "IS002",
            Code::UnboundVar => "IS003",
            Code::RecursionThroughNegation => "IS010",
            Code::UndefinedPredicate => "IS011",
            Code::UnreachableRule => "IS012",
            Code::ArityMismatch => "IS013",
            Code::ImpossibleComparison => "IS014",
            Code::DuplicateRule => "IS015",
            Code::NonLocalRule => "IS016",
            Code::UnsatisfiableConstraints => "IS020",
            Code::UnknownClass => "IS021",
            Code::UnknownSlot => "IS022",
            Code::UnknownCapability => "IS023",
            Code::SubsumedAdvertisement => "IS024",
            Code::InvalidFragment => "IS025",
            Code::UnsatisfiableSubscription => "IS026",
            Code::VacuousSubscription => "IS027",
            Code::UndefinedProtocolState => "IS040",
            Code::UnreachableProtocolState => "IS041",
            Code::NondeterministicTransition => "IS042",
            Code::UnhandledPerformative => "IS043",
            Code::UndischargeableObligation => "IS044",
            Code::DeadEndProtocolState => "IS045",
            Code::OutOfOrderReply => "IS050",
            Code::TellAfterUnsubscribe => "IS051",
            Code::OrphanConversation => "IS052",
            Code::DuplicateAck => "IS053",
            Code::UncheckedUnwrap => "IS060",
        }
    }

    /// Every code, in declaration (and therefore numbering) order. Kept
    /// exhaustive by the match in [`Code::as_str`]; the unit tests walk
    /// this table to pin uniqueness and grouping.
    pub const ALL: &'static [Code] = &[
        Code::SyntaxError,
        Code::UnsafeHeadVar,
        Code::UnboundVar,
        Code::RecursionThroughNegation,
        Code::UndefinedPredicate,
        Code::UnreachableRule,
        Code::ArityMismatch,
        Code::ImpossibleComparison,
        Code::DuplicateRule,
        Code::NonLocalRule,
        Code::UnsatisfiableConstraints,
        Code::UnknownClass,
        Code::UnknownSlot,
        Code::UnknownCapability,
        Code::SubsumedAdvertisement,
        Code::InvalidFragment,
        Code::UnsatisfiableSubscription,
        Code::VacuousSubscription,
        Code::UndefinedProtocolState,
        Code::UnreachableProtocolState,
        Code::NondeterministicTransition,
        Code::UnhandledPerformative,
        Code::UndischargeableObligation,
        Code::DeadEndProtocolState,
        Code::OutOfOrderReply,
        Code::TellAfterUnsubscribe,
        Code::OrphanConversation,
        Code::DuplicateAck,
        Code::UncheckedUnwrap,
    ];

    /// The severity a pass assigns by default. Advisory findings (dead
    /// rules, duplicates, subsumption, unhandled performatives, orphan
    /// conversations) warn; everything else is an admission-blocking
    /// error.
    pub fn default_severity(&self) -> Severity {
        match self {
            Code::UnreachableRule
            | Code::ImpossibleComparison
            | Code::DuplicateRule
            | Code::SubsumedAdvertisement
            | Code::UnreachableProtocolState
            | Code::UnhandledPerformative
            | Code::OrphanConversation => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// A byte range `[start, end)` into the analyzed source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end: end.max(start) }
    }

    pub fn point(at: usize) -> Self {
        Span { start: at, end: at + 1 }
    }
}

/// One finding: a code, a severity, a message, an optional span into the
/// analyzed source, and free-form notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    pub message: String,
    pub span: Option<Span>,
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic at the code's default severity.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            span: None,
            notes: Vec::new(),
        }
    }

    pub fn error(code: Code, message: impl Into<String>) -> Self {
        Diagnostic { severity: Severity::Error, ..Diagnostic::new(code, message) }
    }

    pub fn warning(code: Code, message: impl Into<String>) -> Self {
        Diagnostic { severity: Severity::Warning, ..Diagnostic::new(code, message) }
    }

    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

/// The result of running a pass (or a pipeline of passes) over one
/// artifact. `origin` names the artifact — a file path, an agent name, a
/// program's label — and leads every rendered diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    pub origin: String,
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn new(origin: impl Into<String>) -> Self {
        Report { origin: origin.into(), diagnostics: Vec::new() }
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends another report's diagnostics (origins must describe the
    /// same artifact; the receiver's is kept).
    pub fn absorb(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    pub fn codes(&self) -> Vec<Code> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// Sorts diagnostics into the canonical deterministic order: span
    /// start, then code, then message.
    pub fn sorted(mut self) -> Self {
        self.diagnostics.sort_by(|a, b| {
            let ka = (a.span.map(|s| s.start).unwrap_or(usize::MAX), a.code, &a.message);
            let kb = (b.span.map(|s| s.start).unwrap_or(usize::MAX), b.code, &b.message);
            ka.cmp(&kb)
        });
        self
    }

    /// Renders the report for humans. When the analyzed source text is
    /// provided, spans resolve to line/column positions and the offending
    /// line is excerpted with a caret underline.
    pub fn render_human(&self, source: Option<&str>) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
            match (d.span, source) {
                (Some(span), Some(src)) => {
                    let (line, col) = line_col(src, span.start);
                    out.push_str(&format!("  --> {}:{}:{}\n", self.origin, line, col));
                    if let Some(text) = src.lines().nth(line - 1) {
                        let width = span
                            .end
                            .saturating_sub(span.start)
                            .clamp(1, text.len().saturating_sub(col - 1).max(1));
                        out.push_str(&format!("   | {text}\n"));
                        out.push_str(&format!(
                            "   | {}{}\n",
                            " ".repeat(col - 1),
                            "^".repeat(width)
                        ));
                    }
                }
                (Some(span), None) => {
                    out.push_str(&format!("  --> {}:byte {}\n", self.origin, span.start));
                }
                (None, _) => {
                    out.push_str(&format!("  --> {}\n", self.origin));
                }
            }
            for note in &d.notes {
                out.push_str(&format!("   = note: {note}\n"));
            }
        }
        out
    }
}

/// 1-based line and column of a byte offset.
fn line_col(src: &str, at: usize) -> (usize, usize) {
    let upto = &src.as_bytes()[..at.min(src.len())];
    let line = upto.iter().filter(|&&b| b == b'\n').count() + 1;
    let col =
        at.min(src.len()) - upto.iter().rposition(|&b| b == b'\n').map(|p| p + 1).unwrap_or(0);
    (line, col + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::SyntaxError.as_str(), "IS001");
        assert_eq!(Code::RecursionThroughNegation.as_str(), "IS010");
        assert_eq!(Code::UnsatisfiableConstraints.as_str(), "IS020");
        assert_eq!(Code::UndefinedProtocolState.as_str(), "IS040");
        assert_eq!(Code::OutOfOrderReply.as_str(), "IS050");
        assert_eq!(Code::UncheckedUnwrap.as_str(), "IS060");
    }

    #[test]
    fn code_table_is_unique_and_monotonically_grouped() {
        // Every code renders `ISnnn` with a unique, strictly increasing
        // number in declaration order, so the doc-comment grouping
        // (IS00x … IS06x) can't silently drift as codes are added.
        let mut last = 0u32;
        let mut seen = std::collections::BTreeSet::new();
        for code in Code::ALL {
            let s = code.as_str();
            assert!(s.starts_with("IS") && s.len() == 5, "malformed code string {s}");
            let n: u32 = s[2..].parse().unwrap_or_else(|_| panic!("non-numeric code {s}"));
            assert!(seen.insert(s), "duplicate code string {s}");
            assert!(n > last, "code {s} breaks monotonic declaration order (previous {last:03})");
            last = n;
        }
        // `ALL` must stay exhaustive: the derived Ord follows declaration
        // order, so the last variant in the table must compare >= every
        // variant the table contains.
        assert_eq!(Code::ALL.len(), 29, "update Code::ALL when adding a variant");
    }

    #[test]
    fn sorted_orders_by_span_then_code() {
        let mut r = Report::new("t");
        r.push(Diagnostic::new(Code::UnboundVar, "b").with_span(Span::new(10, 12)));
        r.push(Diagnostic::new(Code::UnsafeHeadVar, "a").with_span(Span::new(2, 4)));
        r.push(Diagnostic::new(Code::UnreachableRule, "c")); // no span → last
        let r = r.sorted();
        assert_eq!(r.codes(), vec![Code::UnsafeHeadVar, Code::UnboundVar, Code::UnreachableRule]);
    }

    #[test]
    fn human_rendering_excerpts_the_line() {
        let src = "good(X) :- base(X).\nbad(X, Y) :- base(X).\n";
        let start = src.find("bad").unwrap();
        let mut r = Report::new("rules.ldl");
        r.push(
            Diagnostic::new(Code::UnsafeHeadVar, "head variable Y not bound")
                .with_span(Span::new(start, src.len() - 1)),
        );
        let text = r.render_human(Some(src));
        assert!(text.contains("error[IS002]"), "{text}");
        assert!(text.contains("rules.ldl:2:1"), "{text}");
        assert!(text.contains("bad(X, Y) :- base(X)."), "{text}");
        assert!(text.contains('^'), "{text}");
    }

    #[test]
    fn severity_partitions_counts() {
        let mut r = Report::new("t");
        r.push(Diagnostic::error(Code::SyntaxError, "e"));
        r.push(Diagnostic::warning(Code::DuplicateRule, "w"));
        assert!(r.has_errors());
        assert!(!r.is_clean());
    }
}
